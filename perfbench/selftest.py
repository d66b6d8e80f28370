"""Tests of the benchmark itself: its gate must not pass vacuously.

Run from the root of a checkout (not collected by the repository's
pytest run, so the tier-1 suite is unchanged):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import Tracer, revalu_targets  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300, check=False)


@contextlib.contextmanager
def patched(owner, name, make):
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


class CorruptedResultsFail(unittest.TestCase):
    """A deliberately wrong result is counted as a failed op, never a pass."""

    def workload(self, name):
        workload, _, _ = run.set_up(WORKLOADS[name], seed=3)
        return workload

    def assert_all_fail(self, workload, ops=1):
        phase = run.run_phase(workload, ops=ops)
        self.assertEqual(phase.attempted, ops)
        self.assertEqual(phase.failed, ops, phase.failures)

    def test_honest_results_pass(self):
        for name in ("dpa-campaign", "montexp-word"):
            phase = run.run_phase(self.workload(name), ops=2)
            self.assertEqual((phase.attempted, phase.failed), (2, 0), phase.failures)

    def test_wrong_gate_level_product(self):
        for name in ("montmul-gate", "dpa-campaign"):
            workload = self.workload(name)
            datapath_cls = workload.lib.montgomery.MontDatapath

            def off_by_one(original):
                return lambda self, x, y: (original(self, x, y) + 1) % self.params.modulus

            with patched(datapath_cls, "run", off_by_one):
                self.assert_all_fail(workload)

    def test_wrong_switching_trace(self):
        workload = self.workload("dpa-campaign")
        energy = workload.lib.energy

        def shifted(original):
            return lambda run_, metadata=None: energy.PowerTrace(
                original(run_).samples[1:] + (0.0,), run_.metadata)

        with patched(energy, "switching_trace", shifted):
            self.assert_all_fail(workload)

    def test_short_differential(self):
        workload = self.workload("dpa-campaign")
        energy = workload.lib.energy
        with patched(energy, "dpa_diff_of_means",
                     lambda original: lambda traces, sel: original(traces, sel)[:-1]):
            phase = run.run_phase(workload, ops=workload.campaign)
        self.assertEqual(phase.failed, 1, "only the campaign's closing op checks the DPA")

    def test_vacuous_reversibility_report(self):
        workload = self.workload("verify-exhaustive")
        netlist = workload.lib.netlist

        def sampled(original):
            return lambda net, **kwargs: original(net, mode="random", samples=10)

        with patched(netlist, "check_reversibility", sampled):
            self.assert_all_fail(workload, ops=2)

    def test_wrong_exponentiation(self):
        workload = self.workload("montexp-word")
        montgomery = workload.lib.montgomery
        with patched(montgomery, "mont_exp",
                     lambda original: lambda a, b, m: (original(a, b, m) + 1) % m):
            self.assert_all_fail(workload, ops=3)

    def test_wrong_cli_output(self):
        workload = self.workload("montexp-word")

        def lying(original):
            def main(argv):
                print(0)
                return 0
            return main

        with patched(workload.lib.cli, "main", lying):
            problems = run.run_cli_twins(workload, calls=2)["problems"]
        self.assertTrue(problems)


class ProbeNormalisation(unittest.TestCase):
    def test_each_sample_is_divided_by_the_probes_near_it(self):
        # the probe before, the two during (they push the end to 210) and
        # the one after; the last sample has only the probe before it
        probes = [(0, 10), (100, 20), (130, 40), (400, 30), (1000, 50)]
        samples = [(50, 100), (1100, 60)]
        self.assertEqual(run.in_probes(samples, probes), [4.0, 1.2])

    def test_probes_run_during_a_sample_and_are_taken_out_of_it(self):
        sampler = run.Sampler()
        handler = signal.getsignal(signal.SIGALRM)
        deadline = time.perf_counter_ns() + 300_000_000

        def busy():
            while time.perf_counter_ns() < deadline:
                pass

        sampler.time(busy)
        during = [ns for start, ns in sampler.probes if start >= sampler.start_ns]
        self.assertGreaterEqual(len(during), 3)
        self.assertAlmostEqual(sampler.ns + sum(during), 300_000_000, delta=20_000_000)
        self.assertIs(signal.getsignal(signal.SIGALRM), handler)

    def test_a_traced_phase_takes_no_probes_during_a_sample(self):
        sampler = run.Sampler(during=False)
        sampler.time(time.sleep, 0.2)
        self.assertEqual(sampler.probes, [])
        self.assertGreater(sampler.ns, 150_000_000)


class RunsWithoutOpsFail(unittest.TestCase):
    def test_zero_ops_is_an_error(self):
        out = bench("--workload", "montexp-word", "--seed", "1", "--seconds", "0")
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)
        with self.assertRaises(run.BenchError):
            run.op_stats(run.Phase())

    def test_too_few_ops_for_the_tail_is_an_error(self):
        out = bench("--workload", "montmul-gate", "--seed", "1", "--seconds", "0.5")
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)

    def test_missing_sources_is_an_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                  "montexp-word", "--seed", "1", "--seconds", "1"],
                                 cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


class OutputMatchesBenchmarkJson(unittest.TestCase):
    def spec(self):
        return json.loads((ROOT / "BENCHMARK.json").read_text())

    def metrics(self, trace):
        out = bench("--workload", "montexp-word", "--seed", "2", "--seconds", "3",
                    "--trace", str(trace))
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stderr)
        return {name: m["unit"] for name, m in result["metrics"].items()}

    def test_end_to_end(self):
        self.assertEqual(self.metrics(0),
                         {m["name"]: m["unit"] for m in self.spec()["end_to_end"]})

    def test_per_layer(self):
        self.assertEqual(self.metrics(1),
                         {m["name"]: m["unit"] for m in self.spec()["per_layer"]})

    def test_workloads(self):
        self.assertEqual({w["name"]: w["why"] for w in self.spec()["workloads"]},
                         {name: w.why for name, w in WORKLOADS.items()})


class TracedRun(unittest.TestCase):
    def test_every_binding_site_is_wrapped_and_restored(self):
        workload, _, _ = run.set_up(WORKLOADS["montexp-word"], seed=1)
        lib = workload.lib
        originals = (lib.montgomery.to_bits, lib.montgomery.build_cpa,
                     lib.cli._COMBINATIONAL["cpa"], lib.revalu.check_reversibility,
                     lib.cli.check_reversibility, lib.gates.GateKind.apply)
        tracer = Tracer()
        tracer.plan(revalu_targets(lib, tracer))
        tracer.install()
        try:
            wrapped = (lib.montgomery.to_bits, lib.montgomery.build_cpa,
                       lib.cli._COMBINATIONAL["cpa"], lib.revalu.check_reversibility,
                       lib.cli.check_reversibility, lib.gates.GateKind.apply)
            with tracer.suspended():
                self.assertEqual(tracer.unrestored(), [])
        finally:
            tracer.uninstall()
        for before, during in zip(originals, wrapped):
            self.assertIs(during.__wrapped__, before)
        self.assertEqual(tracer.unrestored(), [])
        self.assertIs(lib.montgomery.to_bits, originals[0])

    def traced(self, name):
        workload, _, _ = run.set_up(WORKLOADS[name], seed=5)
        plain = run.run_phase(workload, ops=workload.digest_ops)
        cli = run.run_cli_twins(workload, calls=1)
        return run.traced_phase(workload, plain, cli)

    def test_traced_phase_matches_untraced(self):
        for name in ("verify-exhaustive", "dpa-campaign"):
            layers, problems, traced, rerun, _ = self.traced(name)
            self.assertEqual(problems, [], name)
            self.assertEqual((traced.failed, rerun.failed), (0, 0), traced.failures)
            self.assertEqual(layers["gates.apply.calls"] * traced.attempted,
                             traced.evals_forward, name)
            self.assertGreater(traced.evals_forward, 0)

    def test_set_up_is_traced(self):
        layers, _, _, _, tracer = self.traced("dpa-campaign")
        self.assertGreater(layers["montgomery.construct.setup_s"], 0)
        self.assertGreater(layers["netlist.validate.setup_s"], 0)
        self.assertIn("setup", {span[2] for span in tracer.spans})
        # the datapath is built in set-up, so no op constructs one
        self.assertEqual(layers["montgomery.construct.self_s"], 0)


if __name__ == "__main__":
    unittest.main()
