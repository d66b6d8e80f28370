"""revalu benchmark: one workload, one seed, one closed-loop client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload montmul-gate --seed 1 --seconds 25 --trace 0

The benchmark imports revalu from ``src/`` of the checkout, sets the
workload up several times, then runs ops one after another for
``--seconds``, checking every result against its oracle. Failed ops are
counted, never fatal. Each workload ends by calling its ``revalu`` CLI
twin in-process twice.

Timings are host time. The host is shared: other tenants slow every
Python loop on it by up to 2x, in bursts that come and go within a
second and in stretches of minutes. A fixed probe (see ``probe_ns``)
therefore runs between ops and every PROBE_PERIOD_S during one (its
time is taken out of the op's), and the end-to-end op metrics are in
*probes*: an op's host time divided by the mean of the probes taken
near it (see ``in_probes``). The same ops in milliseconds are reported
too (run record and ``--trace 1``). Set-up is normalised the same way:
each of SETUP_REPS set-ups is measured in probes, and ``setup_s`` is
their median scaled to seconds at PROBE_REF_S per probe (the host-time
median is ``setup_host_s`` under ``--trace 1``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half
of ``--seconds`` on the same untraced loop, then traces one set-up and
the workload's digest ops with every public function of every layer
wrapped (see ``tracer.py``), reruns the digest ops untraced, and prints
the per-layer metrics; every phase must give the same model digest.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it is the
full run record (environment, all metrics, digest), which is also
written under ``perfbench/results/``. Exit status is 0 when a result
was printed, 2 when the run cannot produce one (no ops, too few ops for
the tail, missing sources); nothing is printed on stdout then.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import CALLS, ERRORS, EXTRA, INCL_NS, SELF_NS, Tracer, revalu_targets
from workloads import LAYERS, WORKLOADS, load_library

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_REPS = 30
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
PROBE_WIRES = 64  # wires, and gates, of the probe's gate-level part
PROBE_GATE_PASSES = 3  # passes over those gates per probe
PROBE_WORD_BITS = 1024  # width of the probe's carry-save words
PROBE_SCAN_STEPS = 450  # carry-save scan steps per probe
PROBE_LOOPS = 7_000  # integer loop iterations per probe
PROBE_PERIOD_S = 0.01  # a probe runs between samples and this often during one
PROBE_REF_S = 1e-3  # setup_s is in seconds on a host that runs one probe in 1 ms
MAX_REPORTED_FAILURES = 5

#: Printed with --trace 0 (mirrored by "end_to_end" in BENCHMARK.json).
END_TO_END_UNITS = {
    "ops_per_kprobe": "1/kprobe",
    "op_p50_probes": "probe",
    "op_tail_probes": "probe",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Printed with --trace 1 (mirrored by "per_layer" in BENCHMARK.json).
#: Calls and self times are per op of the traced phase.
PER_LAYER_UNITS = {
    "ops_per_s": "1/s",
    "setup_host_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "probe_ms": "ms",
    "gate_evals_per_s": "1/s",
    "fail_ratio": "ratio",
    "cli.main_s": "s",
    "model.gate_count": "gates",
    "model.garbage_bits_per_op": "bits/op",
    "model.transitions_per_op": "bits/op",
    "trace.overhead_ratio": "ratio",
    "gates.apply.calls": "calls/op",
    "gates.apply.self_s": "s/op",
    "gates.invert.calls": "calls/op",
    "gates.invert.self_s": "s/op",
    "netlist.simulate.calls": "calls/op",
    "netlist.simulate.self_s": "s/op",
    "netlist.simulate.ns_per_gate": "ns",
    "netlist.check_reversibility.self_s": "s/op",
    "netlist.check_reversibility.us_per_case": "us",
    "netlist.simulate_inverse.calls": "calls/op",
    "netlist.simulate_inverse.self_s": "s/op",
    "netlist.validate.self_s": "s/op",
    "montgomery.construct.self_s": "s/op",
    "montgomery.construct.setup_s": "s",
    "netlist.validate.setup_s": "s",
    "sequential.latch_steps": "calls/op",
    "sequential.step.self_s": "s/op",
    "sequential.pulse.calls": "calls/op",
    "sequential.pulse.self_s": "s/op",
    "sequential.load.calls": "calls/op",
    "sequential.load_value.calls": "calls/op",
    "montgomery.run.self_s": "s/op",
    "montgomery.cycle_us": "us",
    "montgomery.mont_mult_word.calls": "calls/op",
    "montgomery.mont_mult_word.self_s": "s/op",
    "energy.switching_trace.self_s": "s/op",
    "energy.dpa_diff_of_means.self_s": "s/op",
    "energy.energy_report.self_s": "s/op",
    "rnl.serialize_rnl.self_s": "s/op",
    "rnl.parse_rnl.self_s": "s/op",
    "arith.build.self_s": "s/op",
    "bits.to_bits.calls": "calls/op",
    "bits.from_bits.calls": "calls/op",
    **{f"{layer}.errors": "count" for layer in LAYERS},
}


class BenchError(Exception):
    """The run cannot produce a result (no ops, missing sources, ...)."""


# -- host speed ------------------------------------------------------------


class _ProbeGate:
    """A Toffoli gate that reads and writes three wires, as revalu's gates do."""

    __slots__ = ("wires", "table")

    def __init__(self, wires):
        self.wires, self.table = wires, _PROBE_TABLE

    def apply(self, bits):
        if len(bits) != 3 or any(b not in (0, 1) for b in bits):
            raise ValueError(f"bad bits {bits}")
        return self.table[bits]


#: The probe's circuit, written here so that it shares no code with
#: revalu: a ring of PROBE_WIRES wires and one gate per wire.
_PROBE_TABLE = {(a, b, c): (a, b, c ^ (a & b)) for a in (0, 1) for b in (0, 1) for c in (0, 1)}
_PROBE_WIRE_NAMES = [f"w{i}" for i in range(PROBE_WIRES)]
_PROBE_GATES = [
    _ProbeGate(tuple(_PROBE_WIRE_NAMES[(k + 7 * j) % PROBE_WIRES] for j in range(3)))
    for k in range(PROBE_WIRES)
]
_PROBE_Y = random.Random(1).getrandbits(PROBE_WORD_BITS) | 1
_PROBE_M = random.Random(2).getrandbits(PROBE_WORD_BITS) | 1


def probe_ns() -> int:
    """Time a fixed piece of interpreter work: the host's current speed.

    Other tenants slow different kinds of work by different amounts, so
    the probe is made of the kinds revalu's ops consist of, in about
    equal shares: a small gate-level simulation (a dict of wire values,
    tuples of input bits, a method call and a table lookup per gate), a
    carry-save scan over PROBE_WORD_BITS-bit integers, and a tight loop
    of small-integer arithmetic. Nothing here depends on revalu.
    """
    t0 = time.perf_counter_ns()
    gates = _PROBE_GATES
    for rep in range(PROBE_GATE_PASSES):
        values = {w: (i * 5 + rep) & 1 for i, w in enumerate(_PROBE_WIRE_NAMES)}
        for gate in gates:
            for w, b in zip(gate.wires, gate.apply(tuple(values[w] for w in gate.wires))):
                values[w] = b
    s = c = 0
    y, m = _PROBE_Y, _PROBE_M
    for _ in range(PROBE_SCAN_STEPS):
        s, c = s ^ c ^ y, ((s & c) | (s & y) | (c & y)) << 1
        if s & 1:
            s, c = s ^ c ^ m, ((s & c) | (s & m) | (c & m)) << 1
        s >>= 1
        c >>= 1
    total = 0
    for i in range(PROBE_LOOPS):
        total += i & 7
    return time.perf_counter_ns() - t0


class Sampler:
    """Times samples (set-ups, ops) and probes the host around and during them.

    ``probe()`` takes one probe; the caller takes one between samples.
    ``time(call, *args)`` times one sample and, if `during` is set, runs
    a probe every PROBE_PERIOD_S while it runs (a SIGALRM interval
    timer), so a long sample is measured against the host's speed during
    it and not only at its ends. Those probes' own time is taken out of
    the sample's time. `start_ns` and `ns` hold the last sample's timing,
    also when `call` raised.
    """

    def __init__(self, during: bool = True):
        self.during = during
        self.probes: list[tuple] = []  # (start_ns, ns)
        self.start_ns = self.ns = None

    def probe(self, *_signal) -> None:
        start = time.perf_counter_ns()
        self.probes.append((start, probe_ns()))

    def time(self, call, *args):
        first = len(self.probes)
        if self.during:
            previous = signal.signal(signal.SIGALRM, self.probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        t0 = time.perf_counter_ns()
        try:
            return call(*args)
        finally:
            t1 = time.perf_counter_ns()
            if self.during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            probed = sum(ns for start, ns in self.probes[first:] if start < t1)
            self.start_ns, self.ns = t0, t1 - t0 - probed


def in_probes(samples: list, probes: list) -> list[float]:
    """Each ``(start_ns, ns)`` sample over the mean of the probes near it.

    Near is the probe right before the sample, the probes taken during
    it and the probe right after it. A probe is taken during the sample
    when it starts before the sample's host-clock end: its start plus
    `ns` plus the probes already taken during it.
    """
    starts = [start for start, _ in probes]
    costs = []
    for start, ns in samples:
        lo = max(bisect.bisect_right(starts, start) - 1, 0)
        hi, end = lo + 1, start + ns
        while hi < len(probes) and starts[hi] < end:
            end += probes[hi][1]
            hi += 1
        costs.append(ns / statistics.fmean(p for _, p in probes[lo:hi + 1]))
    return costs


# -- set-up --------------------------------------------------------------


def _purge_revalu() -> None:
    for name in [n for n in sys.modules if n == "revalu" or n.startswith("revalu.")]:
        del sys.modules[name]


def set_up(workload_cls, seed: int):
    """Import revalu and build the workload SETUP_REPS times.

    Returns the last workload instance, every set-up as ``(start_ns, ns)``
    and the probes around them. Each rep drops revalu's modules first, so
    every rep re-executes the imports.
    """
    def build():
        lib = load_library()
        workload = workload_cls(lib, seed)
        workload.setup()
        return lib, workload

    samples, sampler = [], Sampler()
    sampler.probe()
    for _ in range(SETUP_REPS):
        lib = workload = None
        _purge_revalu()
        gc.collect()  # free the last rep's modules: peak_rss_mb holds one import
        lib, workload = sampler.time(build)
        samples.append((sampler.start_ns, sampler.ns))
        sampler.probe()
    origin = Path(lib.revalu.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"revalu was imported from {origin}, not from {SRC}")
    return workload, samples, sampler.probes


# -- the closed loop ----------------------------------------------------


class Phase:
    """Op records of one pass over a workload's op stream."""

    def __init__(self):
        self.op_start: list[int] = []
        self.op_ns: list[int] = []
        self.probes: list[tuple] = []  # (start_ns, ns), between and during ops
        self.op_evals: list[int] = []  # forward plus inverse gate evaluations per op
        self.evals_forward = 0
        self.evals_inverse = 0
        self.failed = 0
        self.failures: list[str] = []
        self.models: list[dict] = []

    @property
    def attempted(self) -> int:
        return len(self.op_ns)


def run_phase(workload, *, seconds=None, ops=None, tracer=None) -> Phase:
    """Run ops 0, 1, ... until `seconds` have passed or `ops` are done.

    Each op is timed alone; the probes, its oracle check, model
    statistics and evaluation count are taken outside the timing, with
    the tracer's wrappers removed. A traced phase takes no probes during
    its ops, so that none fall inside the traced spans.
    """
    phase = Phase()
    sampler = Sampler(during=tracer is None)
    sampler.probes = phase.probes
    workload.reset()
    call = workload.op
    suspended = contextlib.nullcontext
    if tracer is not None:
        call = tracer.spanned("op", workload.op)
        suspended = tracer.suspended
    clock = time.perf_counter_ns
    start = clock()
    i = 0
    while (ops is None or i < ops) and (seconds is None or clock() - start < seconds * 1e9):
        inputs = workload.inputs(i)
        if tracer is not None:
            tracer.op_id = i
        with suspended():
            sampler.probe()
        error = None
        try:
            result = sampler.time(call, inputs)
        except Exception:
            error = traceback.format_exc()
        phase.op_ns.append(sampler.ns)
        phase.op_start.append(sampler.start_ns)
        evals = 0
        if error is None:
            with suspended():
                try:
                    workload.check(inputs, result)
                    if i < workload.digest_ops:
                        phase.models.append(workload.model(inputs, result))
                    forward, inverse = workload.evals(inputs, result)
                    phase.evals_forward += forward
                    phase.evals_inverse += inverse
                    evals = forward + inverse
                except Exception:
                    error = traceback.format_exc()
        phase.op_evals.append(evals)
        if error is not None:
            phase.failed += 1
            if len(phase.failures) < MAX_REPORTED_FAILURES:
                phase.failures.append(f"op {i}: {error}")
        i += 1
    with suspended():
        sampler.probe()
    if tracer is not None:
        tracer.op_id = None
    return phase


def digest(models: list[dict]) -> str:
    text = json.dumps(models, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- CLI twins ------------------------------------------------------------


def run_cli_twins(workload, calls: int) -> dict:
    """Call each CLI twin `calls` times in-process, capturing stdout.

    Returns the per-call times, the outputs, and any problems: a
    non-zero exit, outputs that are not byte-identical, or an output
    that disagrees with the library.
    """
    main = workload.lib.cli.main
    problems, times, outputs = [], [], {}
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmpdir:
        for argv, agrees in workload.cli_twins(tmpdir):
            seen = []
            for _ in range(calls):
                buffer = io.StringIO()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(buffer):
                        code = main(argv)
                except Exception:
                    code = traceback.format_exc()
                times.append(time.perf_counter() - t0)
                if code != 0:
                    problems.append(f"revalu {argv[0]} exited with {code}")
                seen.append(buffer.getvalue())
            if len(set(seen)) != 1:
                problems.append(f"revalu {argv[0]} outputs differ between calls")
            try:
                agrees(seen[0])
            except Exception as exc:
                problems.append(f"revalu {argv[0]}: {exc}")
            outputs[argv[0]] = seen[0]
    return {"times": times, "outputs": outputs, "problems": problems}


# -- metrics ----------------------------------------------------------


def order_stats(values: list[float]) -> tuple:
    """Median, tail and the tail's percentile: the highest percentile with
    at least TAIL_BEYOND samples beyond it (None without enough samples)."""
    values = sorted(values)
    if len(values) <= TAIL_BEYOND:
        return statistics.median(values), None, None
    return (statistics.median(values), values[len(values) - TAIL_BEYOND - 1],
            100.0 * (len(values) - TAIL_BEYOND) / len(values))


def op_stats(phase: Phase) -> dict:
    """Op metrics in probes (host-speed normalised) and in milliseconds."""
    if phase.attempted == 0:
        raise BenchError("the run attempted no ops")
    costs = in_probes(list(zip(phase.op_start, phase.op_ns)), phase.probes)
    p50, tail, percentile = order_stats(costs)
    p50_ms, tail_ms, _ = order_stats([ns / 1e6 for ns in phase.op_ns])
    seconds = sum(phase.op_ns) / 1e9
    return {
        "ops": phase.attempted,
        "op_tail_percentile": percentile,
        "ops_per_kprobe": 1000.0 * phase.attempted / sum(costs),
        "op_p50_probes": p50,
        "op_tail_probes": tail,
        "ops_per_s": phase.attempted / seconds,
        "op_p50_ms": p50_ms,
        "op_tail_ms": tail_ms,
        "probe_ms": statistics.median(ns for _, ns in phase.probes) / 1e6,
        "gate_evals_per_s": sum(phase.op_evals) / seconds,
    }


def model_stats(phase: Phase) -> dict:
    """Simulated statistics per op, averaged over the digest ops."""
    n = max(len(phase.models), 1)
    return {
        "model.gate_count": sum(m["gate_count"] for m in phase.models) / n,
        "model.garbage_bits_per_op": sum(m["garbage_bits"] for m in phase.models) / n,
        "model.transitions_per_op": sum(m["transitions"] for m in phase.models) / n,
    }


def layer_metrics(stats: dict, ops: int) -> dict:
    """Per-layer metrics of the traced phase, per op, from the tracer's stats."""

    def stat(key):
        return stats.get(key, [0] * 5)

    def calls(key):
        return stat(key)[CALLS] / ops

    def self_s(*keys):
        return sum(stat(k)[SELF_NS] for k in keys) / 1e9 / ops

    def inclusive_per(key, unit_ns):
        """Inclusive time per unit of the boundary's EXTRA count."""
        units = stat(key)[EXTRA]
        return stat(key)[INCL_NS] / unit_ns / units if units else 0.0

    metrics = {
        "gates.apply.calls": calls("gates.apply"),
        "gates.apply.self_s": self_s("gates.apply"),
        "gates.invert.calls": calls("gates.invert"),
        "gates.invert.self_s": self_s("gates.invert"),
        "netlist.simulate.calls": calls("netlist.simulate"),
        "netlist.simulate.self_s": self_s("netlist.simulate"),
        "netlist.simulate.ns_per_gate": inclusive_per("netlist.simulate", 1),
        "netlist.check_reversibility.self_s": self_s("netlist.check_reversibility"),
        "netlist.check_reversibility.us_per_case":
            inclusive_per("netlist.check_reversibility", 1e3),
        "netlist.simulate_inverse.calls": calls("netlist.simulate_inverse"),
        "netlist.simulate_inverse.self_s": self_s("netlist.simulate_inverse"),
        "netlist.validate.self_s": self_s("netlist.validate"),
        "montgomery.construct.self_s": self_s("montgomery.construct"),
        "sequential.latch_steps": calls("sequential.latch_step"),
        "sequential.step.self_s": self_s("sequential.latch_step", "sequential.step"),
        "sequential.pulse.calls": calls("sequential.pulse"),
        "sequential.pulse.self_s": self_s("sequential.pulse"),
        "sequential.load.calls": calls("sequential.load"),
        "sequential.load_value.calls": calls("sequential.load_value"),
        "montgomery.run.self_s": self_s("montgomery.run"),
        "montgomery.cycle_us": inclusive_per("montgomery.run", 1e3),
        "montgomery.mont_mult_word.calls": calls("montgomery.mont_mult_word"),
        "montgomery.mont_mult_word.self_s": self_s("montgomery.mont_mult_word"),
        "energy.switching_trace.self_s": self_s("energy.switching_trace"),
        "energy.dpa_diff_of_means.self_s": self_s("energy.dpa_diff_of_means"),
        "energy.energy_report.self_s": self_s("energy.energy_report"),
        "rnl.serialize_rnl.self_s": self_s("rnl.serialize_rnl"),
        "rnl.parse_rnl.self_s": self_s("rnl.parse_rnl"),
        "arith.build.self_s": self_s("arith.build"),
        "bits.to_bits.calls": calls("bits.to_bits"),
        "bits.from_bits.calls": calls("bits.from_bits"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = sum(
            s[ERRORS] for k, s in stats.items() if k.split(".")[0] == layer)
    return metrics


# -- environment ---------------------------------------------------------


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- main ----------------------------------------------------------------


def measure(args):
    """Run one benchmark invocation; return (result line, run record, tracer)."""
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds < 0:
        raise BenchError("--seconds must be non-negative")
    workload, setups, setup_probes = set_up(WORKLOADS[args.workload], args.seed)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": environment(args.seed), "setups_ns": setups,
              "setup_probes_ns": setup_probes}

    plain = run_phase(workload, seconds=args.seconds if args.trace == 0 else args.seconds / 2)
    rss = peak_rss_mb()
    stats = op_stats(plain)
    cli = run_cli_twins(workload, calls=2)
    problems = list(cli["problems"])
    values = {
        **{name: stats[name] for name in (
            "ops_per_kprobe", "op_p50_probes", "op_tail_probes", "ops_per_s", "op_p50_ms",
            "op_tail_ms", "probe_ms", "gate_evals_per_s")},
        "setup_s": PROBE_REF_S * statistics.median(in_probes(setups, setup_probes)),
        "setup_host_s": statistics.median(ns for _, ns in setups) / 1e9,
        "peak_rss_mb": rss,
        "fail_ratio": plain.failed / plain.attempted,
        "cli.main_s": statistics.fmean(cli["times"]),
        **model_stats(plain),
    }
    record.update(ops=stats["ops"], op_tail_percentile=stats["op_tail_percentile"],
                  op_start_ns=plain.op_start, op_ns=plain.op_ns, probes_ns=plain.probes,
                  digest=digest(plain.models), digest_ops=len(plain.models))
    attempted, failed, failures = plain.attempted, plain.failed, list(plain.failures)

    tracer = None
    if args.trace == 1:
        layers, traced_problems, traced, rerun, tracer = traced_phase(workload, plain, cli)
        values.update(layers)
        problems += traced_problems
        for phase in (traced, rerun):
            attempted += phase.attempted
            failed += phase.failed
            failures += phase.failures
        record.update(traced_digest=digest(traced.models), traced_ops=traced.attempted,
                      traced_op_ns=traced.op_ns, rerun_op_ns=rerun.op_ns)
        units = PER_LAYER_UNITS
    else:
        if stats["op_tail_probes"] is None:
            raise BenchError(
                f"only {stats['ops']} ops in {args.seconds} s; the tail needs "
                f"more than {TAIL_BEYOND}")
        units = END_TO_END_UNITS

    record.update(metrics=values, problems=problems, failures=failures)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, record, tracer


def traced_phase(workload, plain: Phase, plain_cli: dict):
    """Trace one set-up and the digest ops with every layer wrapped.

    The set-up is traced on a fresh instance (op id ``setup``), so the
    workload's own objects hold no wrappers. Afterwards the digest ops
    run once more untraced, right after the traced ones, for
    ``trace.overhead_ratio``. Checks that tracing changed nothing.

    Returns the per-layer metrics, the problems found, the traced and
    the rerun phase, and the tracer.
    """
    problems = []
    tracer = Tracer()
    tracer.plan(revalu_targets(workload.lib, tracer))
    tracer.install()
    try:
        tracer.op_id = "setup"
        type(workload)(workload.lib, workload.seed).setup()
        setup = {key: list(stat) for key, stat in tracer.stats.items()}
        traced = run_phase(workload, ops=workload.digest_ops, tracer=tracer)
        ops = {key: [now - before for now, before in zip(stat, setup.get(key, [0] * 5))]
               for key, stat in tracer.stats.items()}
        tracer.op_id = "cli"
        cli = run_cli_twins(workload, calls=1)
    finally:
        tracer.uninstall()
    rerun = run_phase(workload, ops=workload.digest_ops)
    layers = layer_metrics(ops, traced.attempted)
    for key in ("montgomery.construct", "netlist.validate"):
        layers[f"{key}.setup_s"] = setup.get(key, [0] * 5)[SELF_NS] / 1e9
    layers["trace.overhead_ratio"] = sum(traced.op_ns) / sum(rerun.op_ns)
    problems += tracer.unrestored()
    problems += [f"traced {p}" for p in cli["problems"]]
    if cli["outputs"] != plain_cli["outputs"]:
        problems.append("CLI output under tracing differs from the untraced output")
    if len(plain.models) < workload.digest_ops:
        problems.append(f"untraced phase ran {len(plain.models)} of the "
                        f"{workload.digest_ops} digest ops; digests not comparable")
    elif not digest(plain.models) == digest(traced.models) == digest(rerun.models):
        problems.append("traced and untraced runs give different model digests")
    apply_calls, invert_calls = ops["gates.apply"][CALLS], ops["gates.invert"][CALLS]
    if (apply_calls, invert_calls) != (traced.evals_forward, traced.evals_inverse):
        problems.append(
            f"gates.apply/invert calls {apply_calls}/{invert_calls} != structural "
            f"evaluation count {traced.evals_forward}/{traced.evals_inverse}")
    return layers, problems, traced, rerun, tracer


def write_record(args, record: dict, tracer=None) -> None:
    """Write the run record, and the traced run's spans, under results/."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        spans_path = RESULTS / f"{stem}.spans.jsonl"
        with open(spans_path, "w") as handle:
            handle.write(json.dumps(["id", "parent", "op", "name", "start_ns", "end_ns"]) + "\n")
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    with open(RESULTS / f"{stem}.json", "w") as handle:
        json.dump(record, handle, sort_keys=True, indent=1)
        handle.write("\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "revalu" / "__init__.py").is_file():
        print(f"error: no revalu sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Set-ups import revalu from bytecode cached under results/, whatever
    # PYTHONDONTWRITEBYTECODE says: compiling the sources on every set-up
    # took 2.7x as long as the import itself and made setup_s depend on
    # the environment.
    sys.pycache_prefix = str(RESULTS / "pycache")
    sys.dont_write_bytecode = False
    try:
        result, record, tracer = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_record(args, record, tracer)
    for failure in record["failures"]:
        print(failure, file=sys.stderr)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
