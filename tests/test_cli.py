"""Command-line surface tests, driven through main() for exit codes."""

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

    def test_bad_selector_rejected_before_any_run(self, capsys, runs):
        code, out, err = run(capsys, "dpa", "--demo", "--m", "7", "--select", "x:z")
        assert code == 1 and out == ""
        assert "bad selector 'x:z'" in err
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
