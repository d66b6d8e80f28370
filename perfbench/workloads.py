"""The four benchmark workloads, each with its oracle and model statistics.

Every workload calls revalu's public API the way the matching ``revalu``
subcommand does. Op inputs are drawn from ``random.Random`` seeded with
the workload name, the run seed and the op index, so op ``i`` of a seed
is the same in every run and in both the untraced and traced phases.

A workload provides:

* ``setup()``: what is built before the first timed op (counted in
  ``setup_s``);
* ``reset()``: clears per-phase state (the DPA campaign in progress);
* ``inputs(i)``: the op's inputs (not timed);
* ``op(inputs)``: the timed call into revalu;
* ``check(inputs, result)``: raises ``OracleMismatch`` on a wrong result;
* ``model(inputs, result)``: exact simulated statistics of the op, hashed
  into the run digest and averaged into the ``model.*`` metrics;
* ``evals(inputs, result)``: simulated gate evaluations of the op,
  counted from netlist gate counts and latch steps, as
  ``(forward, inverse)``;
* ``cli_twins(tmpdir)``: the equivalent ``revalu`` command lines, each
  with a function that checks the captured stdout against the library.
"""

from __future__ import annotations

import importlib
import json
import os
import random
from types import SimpleNamespace

LAYERS = ("gates", "netlist", "rnl", "arith", "sequential", "montgomery",
          "energy", "bits", "cli")


class OracleMismatch(AssertionError):
    """A result disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleMismatch(message)


def load_library() -> SimpleNamespace:
    """Import revalu and every layer module; return them as one namespace."""
    lib = SimpleNamespace(revalu=importlib.import_module("revalu"))
    for name in LAYERS:
        setattr(lib, name, importlib.import_module(f"revalu.{name}"))
    return lib


def random_odd_modulus(rng: random.Random, bits: int) -> int:
    """Odd modulus with its top bit set, so the scan length is exactly `bits`."""
    return rng.getrandbits(bits) | (1 << (bits - 1)) | 1


def hamming_samples(snapshots) -> list[int]:
    """Per-cycle switching activity, computed independently of revalu.energy."""
    return [sum(a != b for a, b in zip(before, after))
            for before, after in zip(snapshots, snapshots[1:])]


def datapath_evals(datapath) -> int:
    """Gate evaluations of one `MontDatapath.run`, counted from its structure.

    Per scan cycle: both CSA stages once, one latch step per bit of the
    S and C registers (their load), four per bit of each shift register
    (a pulse is two clock phases through master and slave latches), one
    per bit of the Y and M holding registers; then the final adder once.
    Every latch step evaluates the latch core's gates.
    """
    latch_gates = len(datapath.s_reg.cores[0].gates)
    latch_steps = (
        datapath.s_reg.width + datapath.c_reg.width
        + 4 * (datapath.s_shift.width + datapath.c_shift.width + datapath.x_shift.width)
        + datapath.y_reg.width + datapath.m_reg.width
    )
    per_cycle = len(datapath.stage1.gates) + len(datapath.stage2.gates) + latch_steps * latch_gates
    return datapath.params.n * per_cycle + len(datapath.final_adder.gates)


class Workload:
    name = ""
    why = ""
    #: Ops hashed into the digest; the traced phase runs exactly these.
    digest_ops = 1

    def __init__(self, lib: SimpleNamespace, seed: int):
        self.lib = lib
        self.seed = seed

    def rng(self, i) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def setup(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def evals(self, inputs, result) -> tuple[int, int]:
        return (0, 0)


class MontmulGate(Workload):
    """`revalu montmul --gate-level` on fresh 64-bit moduli."""

    name = "montmul-gate"
    why = ("gate-level 64-bit product with datapath construction per op: "
           "per-gate and per-latch cost at cryptographic width")
    digest_ops = 3
    bits = 64

    def inputs(self, i):
        rng = self.rng(i)
        m = random_odd_modulus(rng, self.bits)
        return m, rng.randrange(m), rng.randrange(m)

    def op(self, inputs):
        m, x, y = inputs
        params = self.lib.montgomery.MontParams.for_modulus(m)
        datapath = self.lib.montgomery.MontDatapath(params)
        return datapath, datapath.run(x, y)

    def check(self, inputs, result):
        m, x, y = inputs
        datapath, product = result
        params = datapath.params
        expect(params.n == self.bits, f"scan length {params.n}, expected {self.bits}")
        expect(product == x * y * pow(1 << params.n, -1, m) % m,
               f"gate-level product {product} != x*y*R^-1 mod m for m={m}")
        expect(product == self.lib.montgomery.mont_mult_word(x, y, params),
               f"gate-level product {product} != mont_mult_word for m={m}")
        run = datapath.last_run
        expect(run.product == product and len(run.cycles) == params.n,
               "last_run does not record the product and n cycles")
        expect(run.cycles == self.lib.montgomery.mont_mult_trace(x, y, params).cycles,
               "gate-level cycle records differ from the word-level trace")

    def model(self, inputs, result):
        datapath, product = result
        run = datapath.last_run
        cost = datapath.cost_report()
        samples = hamming_samples(run.snapshots)
        return {
            "product": product,
            "cycles": [list(vars(c).values()) for c in run.cycles],
            "switching": samples,
            "cost": cost.as_dict(),
            "gate_count": cost.gate_count,
            "garbage_bits": datapath.garbage_bits_emitted,
            "transitions": sum(samples),
        }

    def evals(self, inputs, result):
        datapath, _ = result
        return (datapath_evals(datapath), 0)

    def cli_twins(self, tmpdir):
        m, x, y = self.inputs(0)
        expected = x * y * pow(1 << self.bits, -1, m) % m

        def agrees(stdout):
            expect(stdout == f"{expected}\n", f"montmul printed {stdout!r}, expected {expected}")

        return [(["montmul", "--x", str(x), "--y", str(y), "--m", str(m), "--gate-level"],
                 agrees)]


class DpaCampaign(Workload):
    """`revalu trace --count` / `dpa --demo`: many short runs on one datapath."""

    name = "dpa-campaign"
    why = ("many 16-bit runs plus switching traces on one datapath built in set-up; "
           "each 32-trace campaign ends with DPA and an energy report")
    campaign = 32
    digest_ops = 64
    bits = 16

    def setup(self):
        m = random_odd_modulus(self.rng("setup"), self.bits)
        self.params = self.lib.montgomery.MontParams.for_modulus(m)
        self.datapath = self.lib.montgomery.MontDatapath(self.params)
        self.core_garbage = sum(len(c.garbage_outputs) for c in self.datapath.cores)
        self.evals_per_run = datapath_evals(self.datapath)
        self.reset()

    def reset(self):
        self.traces = []

    def inputs(self, i):
        rng = self.rng(i)
        m = self.params.modulus
        return rng.randrange(m), rng.randrange(m)

    def op(self, inputs):
        x, y = inputs
        energy = self.lib.energy
        garbage_before = self.datapath.garbage_bits_emitted
        product = self.datapath.run(x, y)
        run = self.datapath.last_run
        trace = energy.switching_trace(run)
        self.traces.append(trace)
        closing = None
        if len(self.traces) == self.campaign:
            traces, self.traces = self.traces, []
            differential = energy.dpa_diff_of_means(traces, lambda meta: meta["x"] & 1)
            report = energy.energy_report(self.datapath.cores, trace=trace)
            closing = (traces, differential, report)
        garbage = self.datapath.garbage_bits_emitted - garbage_before
        return product, run, trace, garbage, closing

    def check(self, inputs, result):
        x, y = inputs
        product, run, trace, _, closing = result
        m, n = self.params.modulus, self.params.n
        expect(product == x * y * pow(1 << n, -1, m) % m,
               f"gate-level product {product} != x*y*R^-1 mod m for m={m}")
        expect(product == self.lib.montgomery.mont_mult_word(x, y, self.params),
               f"gate-level product {product} != mont_mult_word for m={m}")
        expect(list(trace.samples) == hamming_samples(run.snapshots),
               "switching trace differs from snapshot Hamming distances")
        expect(trace.metadata.get("x") == x, "trace metadata does not carry x")
        if closing is None:
            return
        traces, differential, report = closing
        expect(len(differential) == n, f"differential has {len(differential)} entries, expected {n}")
        ones = [t for t in traces if t.metadata["x"] & 1]
        zeros = [t for t in traces if not t.metadata["x"] & 1]
        for i, value in enumerate(differential):
            mean1 = sum(t.samples[i] for t in ones) / len(ones)
            mean0 = sum(t.samples[i] for t in zeros) / len(zeros)
            expect(abs(value - (mean1 - mean0)) <= 1e-9,
                   f"differential[{i}]={value} != {mean1 - mean0}")
        expect(report.erased_bits == 0.0, f"reversible cores erase {report.erased_bits} bits")
        expect(report.deferred_erasure_bits == self.core_garbage,
               "deferred erasure is not the cores' garbage count")
        expect(report.signal_transitions == trace.total_transitions,
               "energy report does not carry the trace's transitions")

    def model(self, inputs, result):
        product, run, trace, garbage, closing = result
        stats = {
            "product": product,
            "cycles": [list(vars(c).values()) for c in run.cycles],
            "switching": list(trace.samples),
            "gate_count": self.datapath.cost_report().gate_count,
            "garbage_bits": garbage,
            "transitions": trace.total_transitions,
        }
        if closing is not None:
            _, differential, report = closing
            stats["differential"] = list(differential)
            stats["energy"] = report.as_dict()
            stats["cost"] = self.datapath.cost_report().as_dict()
        return stats

    def evals(self, inputs, result):
        return (self.evals_per_run, 0)

    def cli_twins(self, tmpdir):
        m = self.params.modulus
        count, seed = 32, self.seed
        rng = random.Random(seed)
        pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(count)]
        datapath = self.lib.montgomery.MontDatapath(self.params)
        traces = []
        for x, y in pairs:
            datapath.run(x, y)
            traces.append(self.lib.energy.switching_trace(datapath.last_run))
        differential = self.lib.energy.dpa_diff_of_means(traces, lambda meta: meta["x"] & 1)
        short = 8

        def traces_agree(stdout):
            printed = json.loads(stdout)
            expect(printed == [t.as_dict() for t in traces[:short]],
                   "trace --count output differs from the library's traces")

        def dpa_agrees(stdout):
            printed = json.loads(stdout)
            expect(printed["traces"] == count, f"dpa used {printed['traces']} traces")
            expect(printed["differential"] == list(differential),
                   "dpa --demo differential differs from dpa_diff_of_means")

        common = ["--m", str(m), "--count"]
        return [
            (["trace", *common, str(short), "--seed", str(seed)], traces_agree),
            (["dpa", "--demo", *common, str(count), "--seed", str(seed)], dpa_agrees),
        ]


class VerifyExhaustive(Workload):
    """`revalu build --out` then `revalu verify` on 13-source-bit netlists."""

    name = "verify-exhaustive"
    why = ("build, .rnl round trip and exhaustive forward/inverse check of cpa4 "
           "and csa42_2: all gates and netlist, no sequential layer")
    digest_ops = 4
    samples = 64

    def inputs(self, i):
        return i, (i + self.seed) % 2

    def op(self, inputs):
        _, kind = inputs
        arith, rnl = self.lib.arith, self.lib.rnl
        built = arith.build_cpa(4) if kind == 0 else arith.build_csa42(2)
        text = rnl.serialize_rnl(built)
        parsed = rnl.parse_rnl(text)
        validation = parsed.validate()
        report = self.lib.netlist.check_reversibility(parsed, mode="exhaustive")
        return text, parsed, validation, report

    def check(self, inputs, result):
        i, kind = inputs
        text, parsed, validation, report = result
        source_bits = len(parsed.primary_inputs) + len(parsed.constants)
        expect(source_bits == 13, f"{source_bits} source bits, expected 13")
        expect(validation.ok, f"validation failed: {validation.as_dict()}")
        expect(report.ok and report.mode == "exhaustive" and report.cases == 1 << source_bits,
               f"reversibility report {report.as_dict()}")
        expect(self.lib.rnl.serialize_rnl(parsed) == text, ".rnl round trip is not canonical")
        rng = self.rng(i)
        for _ in range(self.samples):
            if kind == 0:
                a, b, cin = rng.getrandbits(4), rng.getrandbits(4), rng.getrandbits(1)
                bits = {**_bus("a", a, 4), **_bus("b", b, 4), "cin": cin}
                out = parsed.simulate(bits)
                total = _word(out, "s", 4) | out["cout"] << 4
                expect(total == a + b + cin, f"cpa4 {a}+{b}+{cin} gave {total}")
            else:
                words = [rng.getrandbits(2) for _ in range(4)]
                cin = rng.getrandbits(1)
                bits = {"cin": cin}
                for bus, value in zip("abcd", words):
                    bits.update(_bus(bus, value, 2))
                out = parsed.simulate(bits)
                total = _word(out, "s", 2) + 2 * _word(out, "carry", 2) + (out["cout"] << 2)
                expect(total == sum(words) + cin, f"csa42_2 {words}+{cin} gave {total}")

    def model(self, inputs, result):
        text, parsed, validation, report = result
        cost = parsed.cost_report()
        return {
            "rnl_lines": len(text.splitlines()),
            "report": report.as_dict(),
            "cost": cost.as_dict(),
            "gate_count": cost.gate_count,
            "garbage_bits": cost.garbage_count,
            "transitions": 0,
        }

    def evals(self, inputs, result):
        _, parsed, _, report = result
        per_pass = report.cases * len(parsed.gates)
        return (per_pass, per_pass)

    def cli_twins(self, tmpdir):
        netlist = self.lib.arith.build_cpa(4)
        path = os.path.join(tmpdir, "cpa4.rnl")
        with open(path, "w") as handle:
            handle.write(self.lib.rnl.serialize_rnl(netlist))
        parsed = self.lib.rnl.parse_rnl(self.lib.rnl.serialize_rnl(netlist))
        expected = {
            "validation": parsed.validate().as_dict(),
            "reversibility": self.lib.netlist.check_reversibility(
                parsed, mode="exhaustive").as_dict(),
        }

        def agrees(stdout):
            expect(json.loads(stdout) == expected, f"verify printed {stdout!r}")

        return [(["verify", path, "--mode", "exhaustive"], agrees)]


def _bus(prefix: str, value: int, width: int) -> dict[str, int]:
    return {f"{prefix}{i}": (value >> i) & 1 for i in range(width)}


def _word(values, prefix: str, width: int) -> int:
    return sum(values[f"{prefix}{i}"] << i for i in range(width))


class MontexpWord(Workload):
    """`revalu montexp`: word-level exponentiation at 1024 bits."""

    name = "montexp-word"
    why = ("word-level mont_exp(a, 65537, m) at 1024 bits: the path no gate-level "
           "op uses, and the control for gate and latch kernel changes")
    digest_ops = 32
    bits = 1024
    exponent = 65537

    def inputs(self, i):
        rng = self.rng(i)
        m = random_odd_modulus(rng, self.bits)
        return m, rng.randrange(m)

    def op(self, inputs):
        m, a = inputs
        return self.lib.montgomery.mont_exp(a, self.exponent, m)

    def check(self, inputs, result):
        m, a = inputs
        expect(result == pow(a, self.exponent, m), f"mont_exp mismatch for m={m}")

    def model(self, inputs, result):
        return {"product": result, "gate_count": 0, "garbage_bits": 0, "transitions": 0}

    def cli_twins(self, tmpdir):
        m, a = self.inputs(0)
        expected = pow(a, self.exponent, m)

        def agrees(stdout):
            expect(stdout == f"{expected}\n", f"montexp printed {stdout!r}")

        return [(["montexp", "--a", str(a), "--b", str(self.exponent), "--mod", str(m)],
                 agrees)]


WORKLOADS = {w.name: w for w in (MontmulGate, DpaCampaign, VerifyExhaustive, MontexpWord)}
