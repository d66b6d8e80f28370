"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.
"""

import json
import random
from contextlib import contextmanager
from itertools import product

import pytest

from revalu import (
    FREDKIN,
    TSG,
    DLatch,
    MasterSlaveDFF,
    MontDatapath,
    MontParams,
    PowerTrace,
    ShiftRegister,
    build_cpa,
    build_csa42,
    build_csa52,
    build_full_adder,
    build_irreversible_cpa,
    check_reversibility,
    dpa_diff_of_means,
    erasure_report,
    landauer_energy,
    mont_exp,
    mont_mult_trace,
    mont_mult_word,
    tsg_as_full_adder,
    verify_gate,
)
from revalu.bits import from_bits, to_bits
from revalu.cli import main
from revalu.gates import AND
from revalu.netlist import GateInstance, Netlist


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {description}")
        raise
    print(f"criterion {number}: PASS  {description}")


def test_criterion_1_full_adder_cost_row(capsys):
    with criterion(1, "single-gate full adder costs {gates:1, garbage:2, delay:1}"):
        assert main(["build", "fa"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["gate_count"] == 1
        assert report["garbage_count"] == 2
        assert report["unit_delay"] == 1


def test_criterion_2_gate_soundness():
    with criterion(2, "TSG/Fredkin truth maps sound; TSG is a full adder"):
        tsg_report = verify_gate(TSG)
        assert tsg_report.bijective
        assert len({TSG.apply(p) for p in product((0, 1), repeat=4)}) == 16

        frg_report = verify_gate(FREDKIN)
        assert frg_report.bijective and frg_report.conservative
        for pattern in product((0, 1), repeat=3):
            assert sum(FREDKIN.apply(pattern)) == sum(pattern)

        for a, b, cin in product((0, 1), repeat=3):
            total = a + b + cin
            assert tsg_as_full_adder(a, b, cin) == (total & 1, total >> 1)


def _cpa_value(netlist, width, a, b, cin):
    inputs = {f"a{i}": bit for i, bit in enumerate(to_bits(a, width))}
    inputs.update({f"b{i}": bit for i, bit in enumerate(to_bits(b, width))})
    inputs["cin"] = cin
    values = netlist.simulate(inputs)
    return from_bits(values[f"s{i}"] for i in range(width)) | (values["cout"] << width)


def test_criterion_3_adder_oracles():
    with criterion(3, "CPA/CSA42/CSA52 match integer-arithmetic oracles"):
        for width in range(1, 7):
            cpa = build_cpa(width)
            for a in range(1 << width):
                for b in range(1 << width):
                    for cin in (0, 1):
                        assert _cpa_value(cpa, width, a, b, cin) == a + b + cin

        cpa64 = build_cpa(64)
        rng = random.Random(64)
        top = 1 << 64
        for _ in range(10_000):
            a, b, cin = rng.randrange(top), rng.randrange(top), rng.randint(0, 1)
            assert _cpa_value(cpa64, 64, a, b, cin) == a + b + cin

        csa42 = build_csa42(1)
        for a, b, c, d, cin in product((0, 1), repeat=5):
            values = csa42.simulate({"a0": a, "b0": b, "c0": c, "d0": d, "cin": cin})
            assert values["s0"] + 2 * (values["carry0"] + values["cout"]) == (
                a + b + c + d + cin
            )
        csa52 = build_csa52(1)
        for bits in product((0, 1), repeat=7):
            a, b, c, d, e, cin1, cin2 = bits
            values = csa52.simulate(
                {"a0": a, "b0": b, "c0": c, "d0": d, "e0": e,
                 "cin1": cin1, "cin2": cin2}
            )
            assert values["s0"] + 2 * (
                values["carry0"] + values["cout1"] + values["cout2"]
            ) == sum(bits)

        width = 16
        wide42 = build_csa42(width)
        wide52 = build_csa52(width)
        for _ in range(500):
            ops = [rng.randrange(1 << width) for _ in range(4)]
            cin = rng.randint(0, 1)
            inputs = {"cin": cin}
            for name, value in zip("abcd", ops):
                inputs.update(
                    {f"{name}{i}": bit for i, bit in enumerate(to_bits(value, width))}
                )
            values = wide42.simulate(inputs)
            total = (
                from_bits(values[f"s{i}"] for i in range(width))
                + 2 * from_bits(values[f"carry{i}"] for i in range(width))
                + (values["cout"] << width)
            )
            assert total == sum(ops) + cin
        for _ in range(500):
            ops = [rng.randrange(1 << width) for _ in range(5)]
            cin1, cin2 = rng.randint(0, 1), rng.randint(0, 1)
            inputs = {"cin1": cin1, "cin2": cin2}
            for name, value in zip("abcde", ops):
                inputs.update(
                    {f"{name}{i}": bit for i, bit in enumerate(to_bits(value, width))}
                )
            values = wide52.simulate(inputs)
            total = (
                from_bits(values[f"s{i}"] for i in range(width))
                + 2 * from_bits(values[f"carry{i}"] for i in range(width))
                + ((values["cout1"] + values["cout2"]) << width)
            )
            assert total == sum(ops) + cin1 + cin2


def test_criterion_4_reversibility_round_trip():
    with criterion(4, "inverse simulation undoes forward simulation everywhere"):
        generated = [
            build_full_adder(),
            build_cpa(1),
            build_cpa(2),
            build_cpa(3),
            build_cpa(8),
            build_csa42(1),
            build_csa42(4),
            build_csa52(1),
            build_csa52(3),
        ]
        for netlist in generated:
            report = check_reversibility(netlist, samples=1000, seed=4)
            assert report.ok, f"{netlist.name}: {report.failures}"


def test_criterion_5_sequential_equivalence():
    with criterion(5, "latch equation, DFF/shift-register behavioral equivalence"):
        latch = DLatch()
        for e, d, q in product((0, 1), repeat=3):
            latch.load_value(q)
            latch.step({"e": e, "d": d})
            assert latch.value == (d & e) | (q & (1 - e))

        for seed in range(100):
            rng = random.Random(seed)
            dff = MasterSlaveDFF()
            master = q = 0
            for _ in range(100):
                cp, d = rng.randint(0, 1), rng.randint(0, 1)
                dff.step({"cp": cp, "d": d})
                if cp:
                    master = d
                else:
                    q = master
                assert dff.value == q

        width = 4
        for seed in range(100):
            rng = random.Random(1000 + seed)
            sr = ShiftRegister(width)
            start = rng.randrange(1 << width)
            sr.load_value(start)
            masters = list(to_bits(start, width))
            slaves = list(to_bits(start, width))
            for _ in range(100):
                cp, sin = rng.randint(0, 1), rng.randint(0, 1)
                feed = slaves[1:] + [sin]
                sr.step({"cp": cp, "sin": sin})
                if cp:
                    masters = feed
                else:
                    slaves = list(masters)
                assert sr.value == from_bits(slaves)

        sr = ShiftRegister(4)
        sr.load_value(0b1011)
        sr.pulse(sin=0)
        assert sr.value == 0b0101


def test_criterion_6_montgomery_correctness():
    with criterion(6, "product = x*y*2^-n mod m; datapath == word level; halving exact"):
        for modulus in (5, 7, 9, 11, 13, 15):
            params = MontParams.for_modulus(modulus)
            r_inv = pow(params.r, -1, modulus)
            for x in range(modulus):
                for y in range(modulus):
                    trace = mont_mult_trace(x, y, params)
                    assert trace.product == (x * y * r_inv) % modulus
                    for record in trace.cycles:
                        assert record.total_after_parity_clear % 2 == 0

        params7 = MontParams(7, 3)
        datapath = MontDatapath(params7)
        for x in range(7):
            for y in range(7):
                assert datapath.run(x, y) == mont_mult_word(x, y, params7)

        params16 = MontParams.for_modulus(0xFFF1)  # odd 16-bit modulus
        wide = MontDatapath(params16)
        rng = random.Random(6)
        for _ in range(100):
            x = rng.randrange(params16.modulus)
            y = rng.randrange(params16.modulus)
            assert wide.run(x, y) == mont_mult_word(x, y, params16)


def test_criterion_7_exponentiation():
    with criterion(7, "mont_exp equals pow-mod oracle, exhaustive and random"):
        for modulus in range(3, 64, 2):
            for a in range(modulus):
                for b in range(16):
                    assert mont_exp(a, b, modulus) == pow(a, b, modulus)
        rng = random.Random(7)
        for _ in range(200):
            modulus = rng.randrange(3, 1 << 32) | 1
            a = rng.randrange(modulus)
            b = rng.randrange(1 << 32)
            assert mont_exp(a, b, modulus) == pow(a, b, modulus)


def test_criterion_8_energy_accounting():
    with criterion(8, "erasure: reversible 0, AND 1.189 +/- 0.001, kT ln 2 at 300 K"):
        assert erasure_report(build_cpa(4)).internal_bits == 0.0

        single_and = Netlist(["a", "b"], {}, [GateInstance(AND, ("a", "b"), ("o",))], ["o"])
        assert erasure_report(single_and).internal_bits == pytest.approx(
            1.189, abs=1e-3
        )

        assert landauer_energy(1, 300) == pytest.approx(2.871e-21, rel=1e-3)

        for netlist in (
            build_full_adder(),
            build_cpa(4),
            build_csa42(3),
            build_csa52(2),
        ):
            assert erasure_report(netlist).deferred_bits == len(
                netlist.garbage_outputs
            )


def test_criterion_9_dpa_harness():
    with criterion(9, "leak fixture peaks at injected cycle; constant model is flat"):
        traces = []
        for i in range(40):
            selected = i % 2 == 1
            samples = [2.0, 2.0, 2.0, 2.0, 2.0]
            if selected:
                samples[2] += 1.5
            traces.append(PowerTrace(tuple(samples), {"secret": int(selected)}))
        diff = dpa_diff_of_means(traces, lambda md: md["secret"] == 1)
        assert max(range(len(diff)), key=lambda i: abs(diff[i])) == 2

        flat = [PowerTrace((3.0, 3.0, 3.0, 3.0), {"x": x}) for x in range(12)]
        diff = dpa_diff_of_means(flat, lambda md: md["x"] & 1 == 1)
        assert diff == (0.0, 0.0, 0.0, 0.0)
