"""Gate-level truth-map tests, exhaustive where the spaces are tiny."""

import re
from itertools import product

import pytest

from revalu import (
    AND,
    FEYNMAN,
    FREDKIN,
    NOT,
    OR,
    STANDARD_GATES,
    TOFFOLI,
    TSG,
    XOR,
    GateKind,
    tsg_as_full_adder,
    verify_gate,
)

ALL_GATES = [FEYNMAN, TOFFOLI, FREDKIN, TSG]


def tsg_equations(a, b, c, d):
    # Independent re-derivation of the defining equations; catches
    # table-generation bugs in the gate library.
    q = ((1 ^ a) & (1 ^ c)) ^ (1 ^ b)
    return (a, q, q ^ d, (q & d) ^ ((a & b) ^ c))


class TestApply:
    def test_fredkin_control_low_passes_through(self):
        assert FREDKIN.apply((0, 1, 0)) == (0, 1, 0)

    def test_fredkin_control_high_swaps(self):
        assert FREDKIN.apply((1, 1, 0)) == (1, 0, 1)

    def test_fredkin_matches_equations_everywhere(self):
        for x1, x2, x3 in product((0, 1), repeat=3):
            y2 = ((1 ^ x1) & x2) | (x1 & x3)
            y3 = (x1 & x2) | ((1 ^ x1) & x3)
            assert FREDKIN.apply((x1, x2, x3)) == (x1, y2, y3)

    def test_tsg_zero_pattern(self):
        assert TSG.apply((0, 0, 0, 0)) == (0, 0, 0, 0)

    def test_tsg_matches_equations_everywhere(self):
        for bits in product((0, 1), repeat=4):
            assert TSG.apply(bits) == tsg_equations(*bits)

    def test_feynman_is_cnot(self):
        assert FEYNMAN.apply((1, 0)) == (1, 1)
        assert FEYNMAN.apply((0, 1)) == (0, 1)

    def test_toffoli_controls_both_high(self):
        assert TOFFOLI.apply((1, 1, 0)) == (1, 1, 1)

    def test_width_mismatch_reports_expected_and_actual(self):
        with pytest.raises(ValueError, match="expected 4 bits, got 3"):
            TSG.apply((1, 0, 1))

    def test_non_binary_input_rejected(self):
        with pytest.raises(ValueError):
            FEYNMAN.apply((2, 0))


class TestArgumentErrors:
    # A table lookup comes first; these pin the errors a miss still gives.

    @pytest.mark.parametrize("bits", [(None, 0, 1), (0, None, 1), (0, 1, 2), (2, 1, 0)])
    def test_apply_names_the_bad_pattern(self, bits):
        with pytest.raises(ValueError, match=re.escape(f"TG: inputs must be 0/1, got {bits}")):
            TOFFOLI.apply(bits)

    def test_apply_accepts_a_list(self):
        assert TOFFOLI.apply([1, 1, 0]) == (1, 1, 1)
        assert TSG.invert([0, 0, 0, 0]) == TSG.invert((0, 0, 0, 0))

    def test_invert_width_mismatch(self):
        with pytest.raises(ValueError, match="TSG: expected 4 bits, got 3"):
            TSG.invert((1, 0, 1))

    def test_invert_names_the_bad_pattern(self):
        with pytest.raises(ValueError, match=re.escape("FG: inputs must be 0/1, got (1, 2)")):
            FEYNMAN.invert((1, 2))

    def test_non_bit_table_entry_refused(self):
        table = {(0,): (0,), (2,): (1,)}
        with pytest.raises(ValueError, match="not 0/1"):
            GateKind("BAD", 1, table)
        with pytest.raises(ValueError, match="not 0/1"):
            GateKind("BAD", 1, {(0,): (1,), (1,): (2,)})


class TestInvert:
    def test_fredkin_inverse_of_swap(self):
        assert FREDKIN.invert((1, 0, 1)) == (1, 1, 0)

    def test_feynman_self_inverse(self):
        assert FEYNMAN.invert((1, 1)) == (1, 0)

    def test_tsg_round_trip(self):
        out = TSG.apply((1, 0, 1, 1))
        assert TSG.invert(out) == (1, 0, 1, 1)

    @pytest.mark.parametrize("gate", ALL_GATES, ids=lambda g: g.name)
    def test_invert_after_apply_is_identity(self, gate):
        for bits in product((0, 1), repeat=gate.arity):
            assert gate.invert(gate.apply(bits)) == bits

    def test_non_bijective_table_refuses_to_invert(self):
        squash = {
            (0, 0): (0, 0),
            (0, 1): (0, 0),
            (1, 0): (1, 0),
            (1, 1): (1, 1),
        }
        gate = GateKind("SQUASH", 2, squash)
        assert not gate.is_bijective
        with pytest.raises(ValueError, match="not bijective"):
            gate.invert((0, 0))


class TestFullAdder:
    def test_all_eight_rows_match_integer_addition(self):
        for a, b, cin in product((0, 1), repeat=3):
            total = a + b + cin
            assert tsg_as_full_adder(a, b, cin) == (total & 1, total >> 1)

    def test_three_ones(self):
        assert tsg_as_full_adder(1, 1, 1) == (1, 1)

    def test_one_plus_zero(self):
        assert tsg_as_full_adder(1, 0, 0) == (1, 0)

    def test_zero_case(self):
        assert tsg_as_full_adder(0, 0, 0) == (0, 0)

    @pytest.mark.parametrize(
        "bits, message",
        [
            ((True, 1.0, 0), "a must be 0 or 1, got True"),
            ((1, 1.0, 0), "b must be 0 or 1, got 1.0"),
            ((0, 0, 2), "cin must be 0 or 1, got 2"),
        ],
    )
    def test_refuses_non_bits(self, bits, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            tsg_as_full_adder(*bits)


class TestVerify:
    def test_fredkin_is_conservative_bijection(self):
        report = verify_gate(FREDKIN)
        assert report.bijective and report.conservative

    def test_fredkin_preserves_weight_on_all_patterns(self):
        for bits in product((0, 1), repeat=3):
            assert sum(FREDKIN.apply(bits)) == sum(bits)

    def test_tsg_bijective_and_one_through(self):
        report = verify_gate(TSG)
        assert report.bijective
        assert 0 in report.one_through_inputs

    def test_tsg_image_has_sixteen_patterns(self):
        outs = {TSG.apply(bits) for bits in product((0, 1), repeat=4)}
        assert len(outs) == 16

    def test_feynman_not_conservative(self):
        report = verify_gate(FEYNMAN)
        assert report.bijective and not report.conservative

    def test_conservative_flag_matches_report(self):
        for gate in ALL_GATES:
            assert gate.conservative == verify_gate(gate).conservative

    def test_report_as_dict(self):
        d = verify_gate(FREDKIN).as_dict()
        assert d["name"] == "FRG"
        assert d["one_through_inputs"] == [0]


class TestConstruction:
    def test_arity_above_enumerable_limit_refused(self):
        with pytest.raises(ValueError, match="enumerable limit"):
            GateKind.from_function("BIG", 17, lambda *bits: bits)

    @pytest.mark.parametrize(
        "arity, message",
        [(0, "gate arity must be positive, got 0"),
         (17, "gate arity 17 exceeds the enumerable limit 16")],
    )
    def test_arity_out_of_range_refused_by_the_constructor(self, arity, message):
        with pytest.raises(ValueError) as excinfo:
            GateKind("X", arity, {})
        assert str(excinfo.value) == message

    def test_partial_table_refused(self):
        with pytest.raises(ValueError, match="entries"):
            GateKind("PART", 2, {(0, 0): (0, 0)})

    def test_standard_gate_names(self):
        assert set(STANDARD_GATES) == {"FG", "TG", "FRG", "TSG"}


class TestNonSquareKinds:
    """Gates whose output width is not their arity, and the one-output kinds."""

    @pytest.mark.parametrize(
        "kind, op",
        [
            (AND, lambda a, b: a & b),
            (OR, lambda a, b: a | b),
            (XOR, lambda a, b: a ^ b),
            (NOT, lambda a: 1 - a),
        ],
    )
    def test_one_output_kinds_match_python_operators(self, kind, op):
        assert kind.n_out == 1
        for bits in product((0, 1), repeat=kind.arity):
            assert kind.apply(bits) == (op(*bits),)
        # NOT alone is a bijection; the 2 -> 1 kinds merge patterns.
        assert kind.is_bijective == verify_gate(kind).bijective == (kind is NOT)

    def test_injective_copy_is_not_bijective(self):
        copy = GateKind("COPY", 1, {(0,): (0, 0), (1,): (1, 1)})
        assert (copy.arity, copy.n_out) == (1, 2)
        assert not copy.is_bijective
        assert not verify_gate(copy).bijective
        with pytest.raises(ValueError, match="not bijective"):
            copy.invert((1, 1))

    def test_one_through_scans_every_output_position(self):
        # The input reaches only output 1, a position past the arity.
        late = GateKind("LATE", 1, {(0,): (0, 0), (1,): (0, 1)})
        assert verify_gate(late).one_through_inputs == frozenset({0})

    def test_apply_checks_input_width(self):
        with pytest.raises(ValueError, match="AND: expected 2 bits, got 1"):
            AND.apply((1,))

    def test_invert_checks_output_width(self):
        with pytest.raises(ValueError, match="AND: expected 1 bits, got 2"):
            AND.invert((0, 1))

    def test_mixed_output_widths_refused(self):
        with pytest.raises(ValueError, match="has wrong width"):
            GateKind("MIX", 1, {(0,): (0,), (1,): (1, 1)})
        with pytest.raises(ValueError, match="has wrong width"):
            GateKind("MIX", 1, {(0,): (0, 0), (1,): (1,)})
