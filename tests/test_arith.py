"""Adder generators against integer-arithmetic oracles."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revalu import (
    AND,
    FEYNMAN,
    OR,
    XOR,
    Netlist,
    build_cpa,
    build_csa42,
    build_csa52,
    build_full_adder,
    build_irreversible_cpa,
    check_reversibility,
)
from revalu.bits import from_bits, to_bits


def cpa_inputs(width, a, b, cin):
    inputs = {f"a{i}": bit for i, bit in enumerate(to_bits(a, width))}
    inputs.update({f"b{i}": bit for i, bit in enumerate(to_bits(b, width))})
    inputs["cin"] = cin
    return inputs


def cpa_result(netlist, width, values):
    return from_bits(values[f"s{i}"] for i in range(width)) | (values["cout"] << width)


class TestFullAdder:
    def test_cost(self):
        report = build_full_adder().cost_report()
        assert (report.gate_count, report.garbage_count, report.unit_delay) == (1, 2, 1)

    def test_one_one_zero(self):
        values = build_full_adder().simulate({"a": 1, "b": 1, "cin": 0})
        assert values["sum"] == 0 and values["cout"] == 1

    def test_exhaustive_against_addition(self):
        fa = build_full_adder()
        for a, b, cin in product((0, 1), repeat=3):
            values = fa.simulate({"a": a, "b": b, "cin": cin})
            assert values["sum"] + 2 * values["cout"] == a + b + cin


class TestCpa:
    def test_five_plus_three_overflows_three_bits(self):
        cpa = build_cpa(3)
        values = cpa.simulate(cpa_inputs(3, 5, 3, 0))
        assert from_bits(values[f"s{i}"] for i in range(3)) == 0
        assert values["cout"] == 1

    def test_zero_plus_zero(self):
        cpa = build_cpa(4)
        values = cpa.simulate(cpa_inputs(4, 0, 0, 0))
        assert cpa_result(cpa, 4, values) == 0

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_exhaustive_small_widths(self, width):
        cpa = build_cpa(width)
        for a in range(1 << width):
            for b in range(1 << width):
                for cin in (0, 1):
                    values = cpa.simulate(cpa_inputs(width, a, b, cin))
                    assert cpa_result(cpa, width, values) == a + b + cin

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1), st.integers(0, 1))
    def test_width16_matches_oracle(self, a, b, cin):
        cpa = build_cpa(16)
        values = cpa.simulate(cpa_inputs(16, a, b, cin))
        assert cpa_result(cpa, 16, values) == a + b + cin

    def test_structural_counts_scale_linearly(self):
        for width in (1, 2, 5, 8):
            report = build_cpa(width).cost_report()
            assert report.gate_count == width
            assert report.garbage_count == 2 * width
            assert report.unit_delay == width
            assert report.constant_input_count == width


class TestCsa42:
    def test_single_slice_all_ones(self):
        csa = build_csa42(1)
        values = csa.simulate({"a0": 1, "b0": 1, "c0": 1, "d0": 1, "cin": 0})
        assert values["s0"] == 0 and values["carry0"] == 1 and values["cout"] == 1

    def test_all_zero_slice(self):
        csa = build_csa42(1)
        values = csa.simulate({"a0": 0, "b0": 0, "c0": 0, "d0": 0, "cin": 0})
        assert values["s0"] == values["carry0"] == values["cout"] == 0

    def test_slice_identity_exhaustive(self):
        csa = build_csa42(1)
        for a, b, c, d, cin in product((0, 1), repeat=5):
            values = csa.simulate({"a0": a, "b0": b, "c0": c, "d0": d, "cin": cin})
            assert (
                values["s0"] + 2 * (values["carry0"] + values["cout"])
                == a + b + c + d + cin
            )

    def test_value_preservation_wide(self):
        width = 8
        csa = build_csa42(width)
        rng = random.Random(42)
        for _ in range(200):
            ops = [rng.randrange(1 << width) for _ in range(4)]
            cin = rng.randint(0, 1)
            inputs = {"cin": cin}
            for name, value in zip("abcd", ops):
                inputs.update(
                    {f"{name}{i}": bit for i, bit in enumerate(to_bits(value, width))}
                )
            values = csa.simulate(inputs)
            total = (
                from_bits(values[f"s{i}"] for i in range(width))
                + 2 * from_bits(values[f"carry{i}"] for i in range(width))
                + (values["cout"] << width)
            )
            assert total == sum(ops) + cin

    def test_structural_counts(self):
        for width in (1, 3, 6):
            report = build_csa42(width).cost_report()
            assert report.gate_count == 2 * width
            assert report.garbage_count == 4 * width
            assert report.unit_delay == 2


class TestCsa52:
    def test_single_slice_all_ones(self):
        csa = build_csa52(1)
        values = csa.simulate(
            {"a0": 1, "b0": 1, "c0": 1, "d0": 1, "e0": 1, "cin1": 1, "cin2": 1}
        )
        weighted = values["s0"] + 2 * (
            values["carry0"] + values["cout1"] + values["cout2"]
        )
        assert values["s0"] == 1
        assert weighted == 7

    def test_all_zero(self):
        csa = build_csa52(1)
        values = csa.simulate(
            {"a0": 0, "b0": 0, "c0": 0, "d0": 0, "e0": 0, "cin1": 0, "cin2": 0}
        )
        assert not any(
            values[w] for w in ("s0", "carry0", "cout1", "cout2")
        )

    def test_slice_identity_exhaustive(self):
        csa = build_csa52(1)
        for bits in product((0, 1), repeat=7):
            a, b, c, d, e, cin1, cin2 = bits
            values = csa.simulate(
                {"a0": a, "b0": b, "c0": c, "d0": d, "e0": e, "cin1": cin1, "cin2": cin2}
            )
            assert values["s0"] + 2 * (
                values["carry0"] + values["cout1"] + values["cout2"]
            ) == sum(bits)

    def test_slice_cost(self):
        report = build_csa52(1).cost_report()
        assert (report.gate_count, report.garbage_count, report.unit_delay) == (3, 6, 3)

    def test_structural_counts(self):
        for width in (2, 4):
            report = build_csa52(width).cost_report()
            assert report.gate_count == 3 * width
            assert report.garbage_count == 6 * width
            assert report.unit_delay == 3


class TestGeneratedNetlistsAreReversible:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_full_adder(),
            lambda: build_cpa(1),
            lambda: build_cpa(3),
            lambda: build_csa42(1),
            lambda: build_csa52(1),
        ],
    )
    def test_validate_and_round_trip(self, make):
        netlist = make()
        assert netlist.validate().ok
        report = check_reversibility(netlist, samples=200)
        assert report.ok


class TestIrreversibleBaseline:
    def test_nine_plus_six(self):
        adder = build_irreversible_cpa(4)
        inputs = cpa_inputs(4, 9, 6, 0)
        values = adder.simulate(inputs)
        assert cpa_result(adder, 4, values) == 15

    def test_agrees_with_reversible_cpa(self):
        width = 10
        rev = build_cpa(width)
        irr = build_irreversible_cpa(width)
        rng = random.Random(7)
        for _ in range(300):
            a = rng.randrange(1 << width)
            b = rng.randrange(1 << width)
            cin = rng.randint(0, 1)
            inputs = cpa_inputs(width, a, b, cin)
            assert cpa_result(rev, width, rev.simulate(inputs)) == cpa_result(
                irr, width, irr.simulate(inputs)
            )

    def test_exhaustive_small(self):
        adder = build_irreversible_cpa(2)
        for a, b, cin in product(range(4), range(4), (0, 1)):
            values = adder.simulate(cpa_inputs(2, a, b, cin))
            assert cpa_result(adder, 2, values) == a + b + cin


class TestBaselineNetlist:
    """The lossy baseline is an ordinary netlist: one sink per wire, copies explicit."""

    @pytest.mark.parametrize("width", range(1, 9))
    def test_validates_without_fan_out(self, width):
        adder = build_irreversible_cpa(width)
        assert isinstance(adder, Netlist)
        assert adder.validate().ok
        sinks = [w for g in adder.gates for w in g.inputs]
        sinks += [*adder.primary_outputs, *adder.garbage_outputs]
        assert len(sinks) == len(set(sinks))
        assert not adder.garbage_outputs

    @pytest.mark.parametrize("width", range(1, 9))
    def test_lossy_gates_keep_slice_order(self, width):
        kinds = [g.kind for g in build_irreversible_cpa(width).gates]
        assert [k for k in kinds if k is not FEYNMAN] == [XOR, XOR, AND, AND, OR] * width
        assert kinds.count(FEYNMAN) == 4 * width

    def test_exhaustive_width_three(self):
        adder = build_irreversible_cpa(3)
        for a, b, cin in product(range(8), range(8), (0, 1)):
            values = adder.simulate(cpa_inputs(3, a, b, cin))
            assert cpa_result(adder, 3, values) == a + b + cin

    @pytest.mark.parametrize("mode", ["auto", "exhaustive", "random"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_reversibility_check_refuses_lossy_kinds(self, width, mode):
        with pytest.raises(ValueError, match=r"^(AND|OR|XOR): truth table is not bijective"):
            check_reversibility(build_irreversible_cpa(width), mode=mode, samples=50)


class TestWidthValidation:
    @pytest.mark.parametrize(
        "builder",
        [build_cpa, build_csa42, build_csa52, build_irreversible_cpa],
    )
    def test_zero_width_rejected(self, builder):
        with pytest.raises(ValueError, match="width"):
            builder(0)
