"""Text-format round-trip and diagnostics tests."""

import pytest

from revalu import (
    AND,
    NOT,
    OR,
    STANDARD_GATES,
    XOR,
    RnlSyntaxError,
    build_cpa,
    build_csa42,
    build_csa52,
    build_full_adder,
    build_irreversible_cpa,
    parse_rnl,
    serialize_rnl,
)

GENERATORS = [
    lambda: build_full_adder(),
    lambda: build_cpa(1),
    lambda: build_cpa(4),
    lambda: build_csa42(3),
    lambda: build_csa52(2),
]


class TestRoundTrip:
    def test_single_gate_line(self):
        text = "input a b cin\nconst z0 = 0\ngate TSG a b z0 cin -> g1 g2 sum cout\noutput sum cout\ngarbage g1 g2\n"
        netlist = parse_rnl(text)
        assert serialize_rnl(netlist) == text

    @pytest.mark.parametrize("make", GENERATORS)
    def test_serialize_parse_preserves_cost(self, make):
        original = make()
        reparsed = parse_rnl(serialize_rnl(original))
        assert reparsed.cost_report() == original.cost_report()
        assert reparsed.validate().ok

    @pytest.mark.parametrize("make", GENERATORS)
    def test_canonical_form_is_stable(self, make):
        text = serialize_rnl(make())
        assert serialize_rnl(parse_rnl(text)) == text

    def test_lossy_baseline_round_trips_with_its_kinds(self):
        library = {**STANDARD_GATES, **{k.name: k for k in (AND, OR, XOR, NOT)}}
        text = serialize_rnl(build_irreversible_cpa(3))
        assert "gate AND x0_1 cin_1 -> n0" in text
        assert serialize_rnl(parse_rnl(text, gates=library)) == text

    def test_whitespace_and_comments_ignored(self):
        text = """
        # a full adder
        input   a b   cin
        const z = 0    # ancilla
        gate TSG a b z cin -> g0 g1 sum cout
        output sum cout
        garbage g0 g1
        """
        netlist = parse_rnl(text)
        assert netlist.cost_report().gate_count == 1
        values = netlist.simulate({"a": 1, "b": 1, "cin": 1})
        assert values["sum"] == 1 and values["cout"] == 1

    def test_simulation_agrees_after_round_trip(self):
        original = build_cpa(3)
        reparsed = parse_rnl(serialize_rnl(original))
        inputs = {f"a{i}": 1 for i in range(3)}
        inputs.update({f"b{i}": 0 for i in range(3)})
        inputs["b1"] = 1
        inputs["cin"] = 1
        assert reparsed.simulate(inputs) == original.simulate(inputs)


class TestErrors:
    def test_unknown_gate_names_token(self):
        with pytest.raises(RnlSyntaxError, match="XYZ"):
            parse_rnl("input a b c\ngate XYZ a b c -> x y z\noutput x y z\n")

    def test_error_carries_line_and_column(self):
        try:
            parse_rnl("input a\n\ngate XYZ a -> b\n")
        except RnlSyntaxError as exc:
            assert exc.line == 3
            assert exc.col == 6
        else:
            pytest.fail("expected a syntax error")

    def test_arity_mismatch(self):
        with pytest.raises(RnlSyntaxError, match="takes 4 inputs"):
            parse_rnl("input a b\ngate TSG a b -> x y\n")

    def test_output_count_mismatch(self):
        library = {**STANDARD_GATES, "AND": AND}
        with pytest.raises(RnlSyntaxError, match="AND takes 2 inputs and 1 outputs, got 2 -> 2"):
            parse_rnl("input a b\ngate AND a b -> x y\n", gates=library)

    def test_missing_arrow(self):
        with pytest.raises(RnlSyntaxError, match="->"):
            parse_rnl("gate FG a b c d\n")

    def test_bad_const_value(self):
        with pytest.raises(RnlSyntaxError, match="0 or 1"):
            parse_rnl("const z = 7\n")

    def test_duplicate_const(self):
        with pytest.raises(RnlSyntaxError, match="twice"):
            parse_rnl("const z = 0\nconst z = 1\n")

    def test_unknown_directive(self):
        with pytest.raises(RnlSyntaxError, match="wire"):
            parse_rnl("wire a b\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("input\n", "input directive needs at least one wire"),
            ("const a 0\n", "expected: const <wire> = 0|1"),
            ("gate\n", "gate directive needs a gate name"),
        ],
    )
    def test_truncated_directive(self, text, message):
        with pytest.raises(RnlSyntaxError) as excinfo:
            parse_rnl(text)
        assert (excinfo.value.line, excinfo.value.col) == (1, 1)
        assert str(excinfo.value) == f"line 1, col 1: {message}"

    def test_invalid_identifier(self):
        with pytest.raises(RnlSyntaxError, match="invalid wire name"):
            parse_rnl("input 0bad\n")

    def test_semantic_problems_deferred_to_validate(self):
        # Fan-out is not a parse error; it surfaces in validation.
        text = (
            "input a\nconst z1 = 0\nconst z2 = 0\n"
            "gate FG a z1 -> x1 y1\ngate FG a z2 -> x2 y2\n"
            "output x1 y1 x2 y2\n"
        )
        netlist = parse_rnl(text)
        assert not netlist.validate().ok
