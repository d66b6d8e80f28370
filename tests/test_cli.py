"""Command-line surface tests, driven through main() for exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import revalu
from revalu import MontDatapath
from revalu.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_build_fa_prints_cost(self, capsys):
        code, out, _ = run(capsys, "build", "fa")
        assert code == 0
        assert json.loads(out) == {
            "constant_input_count": 1,
            "garbage_count": 2,
            "gate_count": 1,
            "unit_delay": 1,
        }

    def test_build_then_verify_pipeline(self, capsys, tmp_path):
        path = tmp_path / "cpa4.rnl"
        code, _, _ = run(capsys, "build", "cpa", "--width", "4", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(path), "--mode", "random", "--samples", "50")
        assert code == 0
        report = json.loads(out)
        assert report["validation"]["ok"] and report["reversibility"]["ok"]

    def test_zero_width_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["build", "cpa", "--width", "0"])
        assert excinfo.value.code == 2

    def test_unknown_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["build", "nonsense"])
        assert excinfo.value.code == 2

    def test_sequential_manifest(self, capsys, tmp_path):
        path = tmp_path / "reg.json"
        code, out, _ = run(
            capsys, "build", "register", "--width", "4", "--out", str(path)
        )
        assert code == 0
        manifest = json.loads(path.read_text())
        assert manifest["kind"] == "register"
        assert manifest["state_bits"] == 4
        assert len(manifest["cores"]) == 4

    def test_montgomery_manifest(self, capsys, tmp_path):
        path = tmp_path / "mont.json"
        code, out, _ = run(capsys, "build", "montgomery", "--m", "7", "--out", str(path))
        assert code == 0
        manifest = json.loads(path.read_text())
        assert manifest["modulus"] == 7 and manifest["n"] == 3
        assert "csa_stage1" in manifest["components"]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "build", "fa", "--format", "text")
        assert code == 0
        assert "gate_count: 1" in out


class TestOptionsEachKindTakes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["build", "fa", "--width", "9"], "build fa takes no --width"),
            (["build", "dlatch", "--width", "2"], "build dlatch takes no --width"),
            (["build", "dff", "--width", "2"], "build dff takes no --width"),
            (["build", "montgomery", "--m", "7", "--width", "4"],
             "build montgomery takes no --width"),
            (["build", "cpa", "--width", "2", "--m", "7", "--n", "3"], "build cpa takes no --m"),
            (["build", "csa42", "--width", "2", "--n", "3"], "build csa42 takes no --n"),
            (["build", "register", "--width", "2", "--m", "7"], "build register takes no --m"),
            (["build", "fa", "--n", "3"], "build fa takes no --n"),
            (["sim", "--clocked", "dff", "--width", "7", "--stimulus", '[{"cp":1,"d":1}]'],
             "sim --clocked dff takes no --width"),
            (["sim", "--clocked", "dlatch", "--width", "1", "--stimulus", '[{"e":1,"d":1}]'],
             "sim --clocked dlatch takes no --width"),
        ],
    )
    def test_option_the_kind_does_not_take_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")

    def test_empty_stimulus_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "sim", "--clocked", "register", "--width", "2", "--stimulus", "[]"
        )
        assert code == 1
        assert out == ""
        assert err == "error: stimulus must hold at least one step\n"


class TestOptionsEachModeTakes:
    """An option the chosen mode would ignore is a usage error; no file is read."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dpa", "--demo", "--traces", "t.json"], "dpa --demo takes no --traces"),
            (["dpa", "--traces", "t.json", "--m", "7"], "dpa --traces takes no --m"),
            (["dpa", "--traces", "t.json", "--count", "4"], "dpa --traces takes no --count"),
            (["dpa", "--traces", "t.json", "--seed", "1"], "dpa --traces takes no --seed"),
            (["sim", "n.rnl", "--inputs", "{}", "--width", "3"], "sim PATH takes no --width"),
            (["trace", "--m", "7", "--x", "3", "--y", "5", "--temp-k", "-4"],
             "trace without --energy takes no --temp-k"),
            (["trace", "--m", "7", "--x", "3", "--y", "5", "--cap-f", "1e-12"],
             "trace without --energy takes no --cap-f"),
            (["trace", "--m", "7", "--x", "3", "--y", "5", "--vdd", "0.5"],
             "trace without --energy takes no --vdd"),
            (["trace", "--m", "7", "--x", "3", "--y", "5", "--seed", "2"],
             "trace --x/--y takes no --seed"),
            (["verify", "n.rnl", "--mode", "exhaustive", "--samples", "10"],
             "verify --mode exhaustive takes no --samples"),
            (["verify", "n.rnl", "--mode", "exhaustive", "--seed", "1"],
             "verify --mode exhaustive takes no --seed"),
            # Refusals that came first before still come first.
            (["dpa", "--demo", "--traces", "t.json", "--count", "1"],
             "dpa --demo needs --count >= 2, got 1"),
            (["trace", "--m", "7", "--x", "3", "--seed", "2"],
             "trace requires --x and --y (or --count > 1)"),
            (["sim", "--width", "3"], "sim requires a netlist path and --inputs (or --clocked)"),
        ],
    )
    def test_ignored_option_is_usage_error(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)  # the named files do not exist
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, defaults",
        [
            (["dpa", "--demo"], ["--m", "7", "--count", "16", "--seed", "0"]),
            (["trace", "--m", "7", "--x", "3", "--y", "5", "--energy"],
             ["--temp-k", "300", "--cap-f", "1e-15", "--vdd", "1"]),
            (["trace", "--m", "7", "--count", "3"], ["--seed", "0"]),
        ],
    )
    def test_omitted_option_takes_its_default(self, capsys, argv, defaults):
        assert run(capsys, *argv) == run(capsys, *argv, *defaults)

    def test_verify_random_defaults(self, capsys, tmp_path):
        path = str(tmp_path / "cpa3.rnl")
        run(capsys, "build", "cpa", "--width", "3", "--out", path)
        argv = ["verify", path, "--mode", "random"]
        assert run(capsys, *argv) == run(capsys, *argv, "--samples", "1000", "--seed", "0")


class TestUsageErrorsNamed:
    """Each usage error exits 2 with its own message and prints nothing."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["build", "cpa"], "build cpa requires --width"),
            (["build", "montgomery"], "build montgomery requires --m (odd modulus)"),
            (["montmul", "--x", "abc", "--y", "1", "--m", "7"],
             "argument --x: not an integer: 'abc'"),
            (["sim", "--clocked", "dlatch"], "sim --clocked requires --stimulus"),
            (["sim"], "sim requires a netlist path and --inputs (or --clocked)"),
            (["trace", "--m", "7"], "trace requires --x and --y (or --count > 1)"),
            (["sim", "--clocked", "dlatch", "--stimulus", '[{"e":1,"d":1}]', "--format", "text"],
             "sim --clocked prints JSON; drop --format text"),
            # before the domain error of the even modulus
            (["trace", "--m", "8"], "trace requires --x and --y (or --count > 1)"),
        ],
    )
    def test_usage_error_names_its_cause(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")


class TestNetlistFileWithoutWires:
    @pytest.mark.parametrize("content", ["", "# only a comment\n\n"])
    @pytest.mark.parametrize(
        "argv", [["verify"], ["cost"], ["sim", "--inputs", "{}"]], ids=["verify", "cost", "sim"]
    )
    def test_refused_as_domain_error(self, capsys, tmp_path, content, argv):
        path = tmp_path / "empty.rnl"
        path.write_text(content)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 1
        assert out == ""
        assert err == f"error: {path} declares no wires\n"


class TestGoldenStdout:
    """Byte-exact output of invocations whose reports are built from their declarations."""

    def test_build_montgomery(self, capsys):
        assert run(capsys, "build", "montgomery", "--m", "11") == (
            0,
            '{"constant_input_count": 89, "garbage_count": 156, "gate_count": 137, '
            '"unit_delay": 121}\n',
            "",
        )

    def test_verify_cpa4(self, capsys, tmp_path):
        path = tmp_path / "cpa4.rnl"
        run(capsys, "build", "cpa", "--width", "4", "--out", str(path))
        assert run(capsys, "verify", str(path)) == (
            0,
            '{"reversibility": {"cases": 1000, "failures": [], "mode": "random", "ok": true}, '
            '"validation": {"ok": true, "violations": []}}\n',
            "",
        )

    def test_trace_energy(self, capsys):
        assert run(capsys, "trace", "--x", "3", "--y", "5", "--m", "7", "--energy") == (
            0,
            '{"energy": {"deferred_erasure_bits": 126, "erased_bits": 0.0, '
            '"erased_bits_naive": 0.0, "esig_joules": 1.85e-14, "landauer_joules": 0.0, '
            '"signal_transitions": 37.0, "temperature_k": 300.0}, '
            '"trace": {"metadata": {"m": 7, "n": 3, "x": 3, "y": 5}, '
            '"samples": [10.0, 15.0, 12.0]}}\n',
            "",
        )

    def test_dpa_demo(self, capsys):
        assert run(capsys, "dpa", "--demo", "--m", "7", "--count", "8") == (
            0,
            '{"differential": [3.1666666666666665, 4.5, 3.666666666666667], '
            '"peak_cycle": 1, "peak_value": 4.5, "traces": 8}\n',
            "",
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("montmul --gate-level --trace --m 251 --x 200 --y 123",
             "3c99d9c26ba2968a0ae0e0aa6def73b9162526f050d805e47f54edaa56e87e75"),
            ("montmul --gate-level --trace --m 45067 --x 4660 --y 43981",
             "455ce262d79c8409390043eeece0d370538a9cb2d8fbe2ef8252e9f06e8fdf7e"),
            ("trace --m 251 --count 8 --seed 1",
             "b890b8229eb528653221dc94e13d662019bbb9e0aadc2259e6d40819751bd199"),
            ("dpa --demo --m 251 --count 32",
             "833fd9907fe8b402b3d24a3469f4e50a39d9e7286c91473841e520f9c011495b"),
            ("trace --m 7 --x 3 --y 5 --energy",
             "8b535ef8c8e9609e82fa123bfa8bb9fba3820a445402111696b5c4f06a1f3f9f"),
        ],
    )
    def test_gate_level_runs_by_digest(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")

    @pytest.mark.parametrize(
        "argv, digest",
        [
            ("build register --width 3",
             "612ccf4958398cc0e394f00fc54ae0579502ea29d61c7e1378110e75a3558f92"),
            ("build montgomery --m 0xC5",
             "fd7786d2519e5077fc5db1770834dec930d627ddbbaaeaa5c443fe31aa816b17"),
            ("build cpa --width 3",
             "d7d799cce9ae5eccd4d18d53ea5b19a4e257f83199a26b0ad6abeadc4e95cea7"),
        ],
    )
    def test_build_out_files_by_digest(self, capsys, tmp_path, argv, digest):
        path = tmp_path / "built"
        code, _, err = run(capsys, *argv.split(), "--out", str(path))
        assert (code, hashlib.sha256(path.read_bytes()).hexdigest(), err) == (0, digest, "")


class TestVerify:
    def test_fanout_fixture_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.rnl"
        path.write_text(
            "input a\nconst z1 = 0\nconst z2 = 0\n"
            "gate FG a z1 -> x1 y1\ngate FG a z2 -> x2 y2\n"
            "output x1 y1 x2 y2\n"
        )
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert not json.loads(out)["validation"]["ok"]

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/thing.rnl")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_random_mode_without_samples_fails(self, capsys, tmp_path, samples):
        path = tmp_path / "fa.rnl"
        run(capsys, "build", "fa", "--out", str(path))
        code, out, err = run(
            capsys, "verify", str(path), "--mode", "random", "--samples", samples
        )
        assert code == 1
        assert out == ""
        assert "samples" in err

    @pytest.mark.parametrize(
        "options, refused",
        [(["--samples", "5", "--seed", "9"], "samples"), (["--seed", "9"], "seed"),
         (["--samples", "5", "--format", "text"], "samples")],
    )
    def test_auto_mode_refuses_sampling_when_exhaustive(self, capsys, tmp_path, options,
                                                        refused):
        path = tmp_path / "cpa2.rnl"
        run(capsys, "build", "cpa", "--width", "2", "--out", str(path))
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", str(path), *options])
        captured = capsys.readouterr()
        assert (excinfo.value.code, captured.out) == (2, "")
        assert captured.err.endswith(f"error: verify --mode auto takes no --{refused}: {path} "
                                     "has 7 source bits, so it is checked exhaustively\n")

    def test_auto_mode_takes_sampling_when_random(self, capsys, tmp_path):
        path = tmp_path / "cpa8.rnl"
        run(capsys, "build", "cpa", "--width", "8", "--out", str(path))
        code, out, err = run(capsys, "verify", str(path), "--samples", "20", "--seed", "9")
        assert (code, err) == (0, "")
        assert json.loads(out)["reversibility"] == {
            "cases": 20, "failures": [], "mode": "random", "ok": True}

    def test_syntax_error_reported(self, capsys, tmp_path):
        path = tmp_path / "syntax.rnl"
        path.write_text("gate XYZ a -> b\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1
        assert "XYZ" in err


class TestSimAndCost:
    def test_sim_outputs(self, capsys, tmp_path):
        path = tmp_path / "fa.rnl"
        run(capsys, "build", "fa", "--out", str(path))
        code, out, _ = run(
            capsys, "sim", str(path), "--inputs", '{"a":1,"b":0,"cin":1}'
        )
        assert code == 0
        assert json.loads(out)["outputs"] == {"cout": 1, "sum": 0}

    def test_sim_clocked_latch(self, capsys):
        code, out, _ = run(
            capsys,
            "sim",
            "--clocked",
            "dlatch",
            "--stimulus",
            '[{"e":1,"d":1},{"e":0,"d":0},{"e":1,"d":0}]',
        )
        assert code == 0
        assert json.loads(out) == [{"q": 1}, {"q": 1}, {"q": 0}]

    def test_sim_stimulus_from_file(self, capsys, tmp_path):
        path = tmp_path / "steps.json"
        path.write_text('[{"cp":1,"d":1},{"cp":0,"d":0}]')
        code, out, _ = run(
            capsys, "sim", "--clocked", "dff", "--stimulus", f"@{path}"
        )
        assert code == 0
        assert json.loads(out)[-1] == {"q": 1}

    @pytest.mark.parametrize(
        "inputs, message",
        [
            ("[1,2]", "inputs must be a JSON object"),
            ('{"a":true,"b":0,"cin":1}', "a must be 0 or 1, got true"),
            ('{"a":1,"b":2,"cin":1}', "b must be 0 or 1, got 2"),
            ('{"a":1,"b":0,"cin":1.0}', "cin must be 0 or 1, got 1.0"),
        ],
    )
    def test_sim_inputs_must_be_a_bit_map(self, capsys, tmp_path, inputs, message):
        path = tmp_path / "fa.rnl"
        run(capsys, "build", "fa", "--out", str(path))
        code, out, err = run(capsys, "sim", str(path), "--inputs", inputs)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "stimulus, message",
        [
            ("[5]", "stimulus step 0 must be a JSON object"),
            ('[{"e":1,"d":1},[1]]', "stimulus step 1 must be a JSON object"),
            ('[{"e":true,"d":1}]', "e must be 0 or 1, got true"),
            ('[{"e":1,"d":false}]', "d must be 0 or 1, got false"),
            ('{"e":1,"d":1}', "stimulus must be a JSON array"),
        ],
    )
    def test_sim_stimulus_steps_must_be_bit_maps(self, capsys, stimulus, message):
        code, out, err = run(
            capsys, "sim", "--clocked", "dlatch", "--stimulus", stimulus
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_sim_clocked_refuses_unknown_input_name(self, capsys):
        code, out, err = run(
            capsys, "sim", "--clocked", "dlatch", "--stimulus", '[{"e":1,"d":1,"typo":0}]'
        )
        assert code == 1
        assert out == ""
        assert err == "error: unknown input 'typo' for dlatch; expected 'e', 'd'\n"

    @pytest.mark.parametrize(
        "extra", [["net.rnl"], ["--inputs", '{"a":1}'], ["net.rnl", "--inputs", "{}"]]
    )
    def test_sim_clocked_refuses_netlist_arguments(self, capsys, extra):
        argv = ["sim", *extra, "--clocked", "dlatch", "--stimulus", '[{"e":1,"d":1}]']
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sim --clocked takes no netlist path or --inputs" in captured.err

    def test_cost_command(self, capsys, tmp_path):
        path = tmp_path / "csa.rnl"
        run(capsys, "build", "csa42", "--width", "2", "--out", str(path))
        code, out, _ = run(capsys, "cost", str(path))
        assert code == 0
        assert json.loads(out)["gate_count"] == 4


class TestMontgomeryCommands:
    def test_montmul_prints_product(self, capsys):
        code, out, _ = run(capsys, "montmul", "--x", "3", "--y", "5", "--m", "7", "--n", "3")
        assert code == 0
        assert out.strip() == "1"

    def test_montmul_gate_level_agrees(self, capsys):
        code, out, _ = run(
            capsys, "montmul", "--x", "4", "--y", "6", "--m", "9", "--gate-level"
        )
        assert code == 0
        assert out.strip() == "6"

    def test_montmul_trace_json(self, capsys):
        code, out, _ = run(
            capsys, "montmul", "--x", "3", "--y", "5", "--m", "7", "--trace"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "1"
        cycles = json.loads(lines[1])
        assert [c["s"] + c["c"] for c in cycles] == [6, 9, 8]

    def test_montmul_even_modulus_names_oddness(self, capsys):
        code, _, err = run(capsys, "montmul", "--x", "1", "--y", "1", "--m", "6")
        assert code == 1
        assert "odd" in err

    def test_montexp(self, capsys):
        code, out, _ = run(capsys, "montexp", "--a", "5", "--b", "3", "--mod", "7")
        assert code == 0
        assert out.strip() == "6"

    def test_hex_operands_accepted(self, capsys):
        code, out, _ = run(
            capsys, "montexp", "--a", "0x5", "--b", "0x3", "--mod", "0x7"
        )
        assert code == 0
        assert out.strip() == "6"

    def test_negative_operand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["montexp", "--a", "-5", "--b", "3", "--mod", "7"])
        assert excinfo.value.code == 2


class TestTraceAndDpa:
    def test_trace_json(self, capsys):
        code, out, _ = run(capsys, "trace", "--x", "3", "--y", "5", "--m", "7")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["samples"]) == 3
        assert payload["metadata"]["x"] == 3

    def test_trace_csv_rows_per_cycle(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--x", "3", "--y", "5", "--m", "7", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trace,cycle,value"
        assert len(lines) == 4

    def test_trace_energy_report(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--x", "3", "--y", "5", "--m", "7", "--energy",
            "--temp-k", "300", "--cap-f", "1e-15", "--vdd", "1.0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["energy"]["erased_bits"] == 0.0
        assert payload["energy"]["landauer_joules"] == 0.0
        assert payload["energy"]["signal_transitions"] > 0

    @pytest.mark.parametrize(
        "option, value, named",
        [
            ("--temp-k", "nan", "temperature"),
            ("--temp-k", "inf", "temperature"),
            ("--cap-f", "nan", "capacitance"),
            ("--cap-f", "inf", "capacitance"),
            ("--vdd", "nan", "voltage"),
            ("--vdd", "inf", "voltage"),
        ],
    )
    def test_trace_energy_rejects_non_finite_parameter(self, capsys, option, value, named):
        code, out, err = run(
            capsys, "trace", "--x", "3", "--y", "5", "--m", "7", "--energy", option, value
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {named} must be finite")

    def test_trace_file_then_dpa(self, capsys, tmp_path):
        path = tmp_path / "traces.json"
        code, _, _ = run(
            capsys, "trace", "--m", "7", "--count", "8", "--seed", "1",
            "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "dpa", "--traces", str(path), "--select", "x:0")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["differential"]) == 3
        assert payload["traces"] == 8

    def test_dpa_demo(self, capsys):
        code, out, _ = run(capsys, "dpa", "--demo", "--m", "7", "--count", "10")
        assert code == 0
        assert "peak_cycle" in json.loads(out)

    def test_dpa_without_inputs_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dpa"])
        assert excinfo.value.code == 2


class TestArgumentsCheckedBeforeRuns:
    @pytest.fixture
    def runs(self, monkeypatch):
        """Records every MontDatapath.run call instead of running it."""
        calls = []
        monkeypatch.setattr(MontDatapath, "run", lambda self, x, y: calls.append((x, y)))
        return calls

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--m", "7", "--energy", "--count", "8"],
            ["trace", "--m", "7", "--count", "0", "--x", "1", "--y", "2"],
            ["trace", "--m", "7", "--count", "-3", "--x", "1", "--y", "2"],
            ["dpa", "--demo", "--m", "7", "--count", "1"],
            ["dpa", "--demo", "--m", "7", "--count", "0"],
        ],
    )
    def test_usage_error_before_any_run(self, capsys, runs, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert runs == []

    @pytest.mark.parametrize(
        "option, named",
        [("--temp-k", "temperature"), ("--cap-f", "capacitance"), ("--vdd", "voltage")],
    )
    def test_energy_parameter_rejected_before_any_run(self, capsys, runs, option, named):
        code, out, err = run(
            capsys, "trace", "--m", "7", "--x", "3", "--y", "5", "--energy", option, "nan"
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: {named} must be finite")
        assert runs == []

    @pytest.mark.parametrize("spec", ["x:z", "x:", pytest.param("", id="empty")])
    def test_bad_selector_rejected_before_any_run(self, capsys, runs, spec):
        code, out, err = run(capsys, "dpa", "--demo", "--m", "7", "--select", spec)
        assert code == 1 and out == ""
        assert f"bad selector {spec!r}" in err
        assert runs == []


    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--m", "7", "--x", "3", "--y", "5", "--energy", "--format", "csv"],
            ["trace", "--m", "7", "--count", "4", "--x", "9", "--y", "9"],
            ["trace", "--m", "7", "--count", "4", "--x", "3"],
            ["trace", "--m", "7", "--count", "4", "--y", "5"],
        ],
    )
    def test_contradictory_trace_options_rejected(self, capsys, runs, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert runs == []


class TestDpaTracesFile:
    """A malformed --traces file fails with an error line, not a traceback."""

    @pytest.mark.parametrize(
        "content, message",
        [
            ([{"metadata": {"x": 1}}], "trace 0: samples must be a non-empty list"),
            ([{"samples": [1, 2]}, {"samples": ["a", 2]}], "trace 1: samples must be"),
            ([{"samples": [1, None]}], "samples must be a non-empty list of finite numbers"),
            ([{"samples": [1, True]}], "samples must be a non-empty list of finite numbers"),
            ([{"samples": [float("nan"), 1]}], "samples must be a non-empty list of finite"),
            ([{"samples": [1, float("inf")]}], "samples must be a non-empty list of finite"),
            ([{"samples": [1, 2]}, 7], "trace 1 must be a JSON object, got 7"),
            ([[1, 2, 3]], "trace 0 must be a JSON object"),
            ([{"samples": []}, {"samples": []}], "trace 0: samples must be a non-empty list"),
            ([{"samples": [1], "metadata": [1]}], "trace 0: metadata must be a JSON object"),
            ("samples", "traces file must hold a JSON object or a list of objects"),
        ],
    )
    def test_malformed_file_is_an_error(self, capsys, tmp_path, content, message):
        path = tmp_path / "traces.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, "dpa", "--traces", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "value, shown", [([1], "[1]"), (None, "null"), (1.5, "1.5"), ("5", '"5"'), (True, "true")]
    )
    def test_selected_field_must_be_an_integer(self, capsys, tmp_path, value, shown):
        path = tmp_path / "traces.json"
        traces = [
            {"samples": [1, 2], "metadata": {"x": value}},
            {"samples": [2, 2], "metadata": {"x": 0}},
        ]
        path.write_text(json.dumps(traces))
        code, out, err = run(capsys, "dpa", "--traces", str(path))
        assert code == 1 and out == ""
        assert err == f"error: trace metadata field 'x' must be an integer, got {shown}\n"

    def test_single_object_file_is_read_as_one_trace(self, capsys, tmp_path):
        path = tmp_path / "traces.json"
        path.write_text(json.dumps({"samples": [1, 2], "metadata": {"x": 1}}))
        code, out, err = run(capsys, "dpa", "--traces", str(path))
        assert code == 1 and out == ""
        assert err == "error: selector must split traces into two non-empty classes\n"

    def test_selector_on_a_missing_field(self, capsys):
        code, out, err = run(capsys, "dpa", "--demo", "--select", "z:0")
        assert code == 1 and out == ""
        assert err == "error: trace metadata has no field 'z'\n"

    def test_well_formed_file_with_float_samples(self, capsys, tmp_path):
        path = tmp_path / "traces.json"
        traces = [
            {"samples": [1.5, 2, 0], "metadata": {"x": 1}},
            {"samples": [0.5, 1, 3], "metadata": {"x": 2}},
        ]
        path.write_text(json.dumps(traces))
        code, out, _ = run(capsys, "dpa", "--traces", str(path))
        assert code == 0
        assert json.loads(out)["differential"] == [1.0, 1.0, -3.0]


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, capsys):
        _, first, _ = run(capsys, "build", "csa52", "--width", "3")
        _, second, _ = run(capsys, "build", "csa52", "--width", "3")
        assert first == second

    def test_verify_random_mode_is_seeded(self, capsys, tmp_path):
        path = tmp_path / "cpa.rnl"
        run(capsys, "build", "cpa", "--width", "8", "--out", str(path))
        _, first, _ = run(capsys, "verify", str(path), "--samples", "20")
        _, second, _ = run(capsys, "verify", str(path), "--samples", "20")
        assert first == second

    def test_verify_violations_independent_of_hash_seed(self, tmp_path):
        # Two unclassified outputs; their order once followed set iteration.
        path = tmp_path / "dangling.rnl"
        path.write_text(
            "input a b c d\n"
            "gate FG a b -> x1 y1\n"
            "gate FG c d -> x2 y2\n"
            "gate FG x1 x2 -> p1 p2\n"
            "output y1 y2\n"
        )
        src = os.path.dirname(os.path.dirname(revalu.__file__))
        outputs = []
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
            result = subprocess.run(
                [sys.executable, "-m", "revalu.cli", "verify", str(path)],
                capture_output=True, env=env, timeout=60,
            )
            assert result.returncode == 1, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        violations = json.loads(outputs[0])["validation"]["violations"]
        assert [v["detail"] for v in violations] == [
            "gate output p1 is neither consumed nor classified",
            "gate output p2 is neither consumed nor classified",
        ]


class TestModuleEntry:
    def test_python_dash_m_revalu_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(revalu.__file__))
        result = subprocess.run(
            [sys.executable, "-m", "revalu", "montmul", "--x", "3", "--y", "5", "--m", "7",
             "--n", "3"],
            capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, b"1\n", b"")
