"""Netlist validation, simulation, inverse simulation, and cost tests."""

import graphlib
import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revalu import (
    AND,
    FEYNMAN,
    FREDKIN,
    TOFFOLI,
    TSG,
    GateInstance,
    GateKind,
    Netlist,
    NetlistError,
    build_cpa,
    build_csa42,
    build_full_adder,
    check_reversibility,
    parse_rnl,
    serialize_rnl,
)
from revalu.netlist import ValidationReport, Violation


def feynman_copy() -> Netlist:
    return Netlist(
        primary_inputs=["a"],
        constants={"z": 0},
        gates=[GateInstance(FEYNMAN, ("a", "z"), ("x", "y"))],
        primary_outputs=["x", "y"],
        name="copy",
    )


def passthrough() -> Netlist:
    return Netlist(primary_inputs=["a"], primary_outputs=["a"], name="wire")


class TestConstants:
    @pytest.mark.parametrize("value", [2, -1, 1.0, 0.0, True, False, "1", None])
    def test_only_the_ints_0_and_1(self, value):
        with pytest.raises(ValueError, match=f"^constant z must be 0 or 1, got {value!r}$"):
            Netlist(constants={"z": value}, primary_outputs=["z"])

    @pytest.mark.parametrize("value", [0, 1])
    def test_declared_bit_serializes_and_parses_back(self, value):
        netlist = Netlist(constants={"z": value}, primary_outputs=["z"])
        assert netlist.simulate({}) == {"z": value}
        assert parse_rnl(serialize_rnl(netlist)).constants == {"z": value}


class TestGateInstance:
    def test_output_count_follows_the_kind(self):
        assert GateInstance(AND, ("a", "b"), ("o",)).outputs == ("o",)
        with pytest.raises(ValueError, match="AND: needs 2 inputs and 1 outputs, got 2 -> 2"):
            GateInstance(AND, ("a", "b"), ("o", "p"))
        with pytest.raises(ValueError, match="FG: needs 2 inputs and 2 outputs, got 2 -> 1"):
            GateInstance(FEYNMAN, ("a", "z"), ("x",))


class TestValidate:
    def test_full_adder_is_clean(self):
        assert build_full_adder().validate().ok

    def test_fanout_names_the_wire(self):
        n = Netlist(
            primary_inputs=["a", "b"],
            constants={"z1": 0, "z2": 0},
            gates=[
                GateInstance(FEYNMAN, ("a", "z1"), ("x1", "y1")),
                GateInstance(FEYNMAN, ("a", "z2"), ("x2", "y2")),
            ],
            primary_outputs=["x1", "y1", "x2", "y2"],
            garbage_outputs=["b"],
        )
        report = n.validate()
        kinds = {v.kind for v in report.violations}
        assert "fan-out" in kinds
        assert any("wire a" in v.detail for v in report.violations)

    def test_unclassified_gate_output(self):
        n = Netlist(
            primary_inputs=["a"],
            constants={"z": 0},
            gates=[GateInstance(FEYNMAN, ("a", "z"), ("x", "y"))],
            primary_outputs=["x"],
        )
        report = n.validate()
        assert any(
            v.kind == "unclassified-output" and "y" in v.detail
            for v in report.violations
        )

    def test_undriven_wire(self):
        n = Netlist(
            primary_inputs=["a"],
            gates=[GateInstance(FEYNMAN, ("a", "ghost"), ("x", "y"))],
            primary_outputs=["x", "y"],
        )
        assert any(v.kind == "undriven" for v in n.validate().violations)

    def test_multiply_driven_wire(self):
        n = Netlist(
            primary_inputs=["a", "x"],
            constants={"z": 0},
            gates=[GateInstance(FEYNMAN, ("a", "z"), ("x", "y"))],
            primary_outputs=["x", "y"],
            garbage_outputs=[],
        )
        assert any(v.kind == "multiply-driven" for v in n.validate().violations)

    def test_cycle_detected(self):
        n = Netlist(
            primary_inputs=["a"],
            gates=[
                GateInstance(FEYNMAN, ("a", "loop2"), ("x", "loop1")),
                GateInstance(FEYNMAN, ("loop1", "x"), ("loop2", "y")),
            ],
            primary_outputs=["y"],
        )
        assert any(v.kind == "cycle" for v in n.validate().violations)

    def test_dangling_input_flagged(self):
        n = Netlist(primary_inputs=["a", "b"], primary_outputs=["a"])
        assert any(v.kind == "dangling-input" for v in n.validate().violations)

    def test_report_json_shape(self):
        d = build_full_adder().validate().as_dict()
        assert d == {"ok": True, "violations": []}


class TestSimulate:
    def test_full_adder_example(self):
        fa = build_full_adder()
        values = fa.simulate({"a": 1, "b": 0, "cin": 1})
        assert fa.output_values(values) == {"sum": 0, "cout": 1}

    def test_feynman_copy(self):
        n = feynman_copy()
        values = n.simulate({"a": 1})
        assert values["x"] == 1 and values["y"] == 1

    def test_passthrough_identity(self):
        assert passthrough().simulate({"a": 1})["a"] == 1

    def test_missing_input_rejected(self):
        with pytest.raises(NetlistError, match="missing input"):
            build_full_adder().simulate({"a": 1, "b": 0})

    def test_unknown_input_rejected(self):
        with pytest.raises(NetlistError, match="unknown input"):
            passthrough().simulate({"a": 1, "bogus": 0})

    def test_invalid_netlist_refused(self):
        broken = Netlist(
            primary_inputs=["a"],
            constants={"z": 0},
            gates=[GateInstance(FEYNMAN, ("a", "z"), ("x", "y"))],
            primary_outputs=["x"],
        )
        with pytest.raises(NetlistError, match="invalid"):
            broken.simulate({"a": 0})

    @pytest.mark.parametrize("bad", [2, None, "1", True, 1.0])  # only the ints 0 and 1 are bits
    def test_non_bit_input_rejected(self, bad):
        with pytest.raises(NetlistError, match=f"input b must be 0 or 1, got {bad!r}"):
            build_full_adder().simulate({"a": 1, "b": bad, "cin": 0})

    @pytest.mark.parametrize("inputs, text", [
        ({"cin": 2, "a": 3, "b": 0}, "input cin must be 0 or 1, got 2"),  # mapping order
        ({"cin": 0}, "missing input assignments: a, b"),  # input order
        ({"y": 0, "cin": 0, "b": 0, "x": 1, "a": 0}, "unknown inputs: y, x"),  # mapping order
        ({"b": 0, "cin": True, "a": 2}, "input cin must be 0 or 1, got True"),
    ])
    def test_boundary_error_names_wires_in_order(self, inputs, text):
        with pytest.raises(NetlistError) as info:
            build_full_adder().simulate(inputs)
        assert str(info.value) == text

    def test_returns_every_wire(self):
        fa = build_full_adder()
        values = fa.simulate({"a": 0, "b": 1, "cin": 0})
        assert set(values) == set(fa.wires)


class TestSimulateInverse:
    def test_full_adder_round_trip(self):
        fa = build_full_adder()
        values = fa.simulate({"a": 1, "b": 1, "cin": 0})
        recovered = fa.simulate_inverse(
            {**fa.output_values(values), **fa.garbage_values(values)}
        )
        assert recovered == {"a": 1, "b": 1, "cin": 0, "z": 0}

    def test_requires_garbage_assignment(self):
        fa = build_full_adder()
        with pytest.raises(NetlistError, match="missing output"):
            fa.simulate_inverse({"sum": 0, "cout": 1})

    def test_unknown_output_rejected(self):
        with pytest.raises(NetlistError, match="unknown outputs: bogus"):
            feynman_copy().simulate_inverse({"x": 1, "y": 1, "bogus": 0})

    @pytest.mark.parametrize("bad", [2, None, True, 1.0])
    def test_non_bit_output_rejected(self, bad):
        with pytest.raises(NetlistError, match=f"output y must be 0 or 1, got {bad!r}"):
            feynman_copy().simulate_inverse({"x": 1, "y": bad})

    @pytest.mark.parametrize("outputs, text", [
        ({"g1": 2, "sum": 0, "cout": 3, "g0": 1}, "output cout must be 0 or 1, got 3"),
        ({"g1": 0, "sum": 0}, "missing output assignments: cout, g0"),  # output order
        ({"g1": 0, "sum": 0, "y": 0, "cout": 0, "g0": 1, "x": 1}, "unknown outputs: y, x"),
    ])
    def test_boundary_error_names_wires_in_order(self, outputs, text):
        # A non-bit is named in output order, not in the mapping's.
        with pytest.raises(NetlistError) as info:
            build_full_adder().simulate_inverse(outputs)
        assert str(info.value) == text

    def test_feynman_only_round_trip(self):
        n = feynman_copy()
        for a in (0, 1):
            values = n.simulate({"a": a})
            recovered = n.simulate_inverse({"x": values["x"], "y": values["y"]})
            assert recovered == {"a": a, "z": 0}

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 1))
    def test_cpa4_round_trip_recovers_constants(self, a, b, cin):
        cpa = build_cpa(4)
        inputs = {f"a{i}": (a >> i) & 1 for i in range(4)}
        inputs.update({f"b{i}": (b >> i) & 1 for i in range(4)})
        inputs["cin"] = cin
        values = cpa.simulate(inputs)
        recovered = cpa.simulate_inverse(
            {**cpa.output_values(values), **cpa.garbage_values(values)}
        )
        assert {k: v for k, v in recovered.items() if k in inputs} == inputs
        assert all(recovered[f"z{i}"] == 0 for i in range(4))


class TestReversibilityCheck:
    def test_exhaustive_bijection_small_adders(self):
        for width in (1, 2):
            report = check_reversibility(build_cpa(width))
            assert report.mode == "exhaustive" and report.ok

    def test_random_mode_on_wide_adder(self):
        report = check_reversibility(build_cpa(16), samples=50, seed=1)
        assert report.mode == "random" and report.ok and report.cases == 50

    def test_image_distinctness_counts(self):
        report = check_reversibility(build_full_adder())
        assert report.cases == 16  # 3 inputs + 1 constant

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            check_reversibility(build_full_adder(), mode="psychic")

    @pytest.mark.parametrize("samples", [0, -5])
    def test_random_mode_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="samples"):
            check_reversibility(build_full_adder(), samples=samples, mode="random")
        with pytest.raises(ValueError, match="samples"):
            check_reversibility(build_cpa(16), samples=samples)  # auto picks random

    def test_exhaustive_mode_refuses_too_many_source_bits(self):
        with pytest.raises(ValueError) as excinfo:
            check_reversibility(build_cpa(8), mode="exhaustive")
        assert str(excinfo.value) == "25 source bits is too many for exhaustive checking"

    def test_sample_count_ignored_when_exhaustive(self):
        report = check_reversibility(build_full_adder(), samples=0)
        assert report.mode == "exhaustive" and report.ok and report.cases == 16


class LyingGate(GateKind):
    """Identity gate whose `invert` flips bit 0 when its last `lie_bits` outputs are 1."""

    def __init__(self, arity: int, lie_bits: int):
        super().__init__("LIAR", arity, {p: p for p in product((0, 1), repeat=arity)})
        self.lie_bits = lie_bits

    def invert(self, outputs):
        bits = super().invert(outputs)
        return (1 - bits[0], *bits[1:]) if all(outputs[-self.lie_bits:]) else bits


def lying_netlist(high_inputs: int, lie_bits: int) -> Netlist:
    """`high_inputs` pass-through wires, then an 8-bit liar on 7 inputs and a constant.

    Sources are the inputs then the constant, so the liar sees the low 8
    bits of the case index and lies on 2^(8 - lie_bits) cases per 256.
    """
    high = [f"h{k}" for k in range(high_inputs)]
    low = [f"l{k}" for k in range(7)]
    outs = [f"o{k}" for k in range(8)]
    return Netlist(
        primary_inputs=high + low,
        constants={"z": 0},
        gates=[GateInstance(LyingGate(8, lie_bits), (*low, "z"), outs)],
        primary_outputs=high + outs[:7],
        garbage_outputs=outs[7:],
        name="liar",
    )


class MergingGate(GateKind):
    """Maps both 10 and 11 to 10, so it is not injective; `invert` returns one preimage."""

    def __init__(self):
        super().__init__("MERGE", 2, {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 0),
                                      (1, 1): (1, 0)})

    def invert(self, outputs):
        return tuple(outputs)  # for 10, the preimage 10; 11 is never an output


def merging_netlist(high_inputs: int) -> Netlist:
    """`high_inputs` pass-through wires, then a `MergingGate` on two inputs."""
    high = [f"h{k}" for k in range(high_inputs)]
    return Netlist(
        primary_inputs=high + ["a", "b"],
        gates=[GateInstance(MergingGate(), ("a", "b"), ("x", "y"))],
        primary_outputs=high + ["x", "y"],
        name="merge",
    )


def reference_failures(netlist: Netlist, mode: str, samples: int = 1000, seed: int = 0):
    """The failure list of `check_reversibility`, one case at a time through the scalar API."""
    sources = (*netlist.primary_inputs, *netlist.constants)
    classified = (*netlist.primary_outputs, *netlist.garbage_outputs)
    if mode == "exhaustive":
        vectors = product((0, 1), repeat=len(sources))
    else:
        rng = random.Random(seed)
        vectors = (tuple(rng.randint(0, 1) for _ in sources) for _ in range(samples))
    failures, images = [], set()
    plan = netlist._plan()
    for vec in vectors:
        values = dict(zip(plan.wires, plan.forward(vec)))
        out = tuple(values[w] for w in classified)
        images.add(out)
        recovered = netlist.simulate_inverse(dict(zip(classified, out)))
        back = tuple(recovered[w] for w in sources)
        if back != vec:
            failures.append(f"round trip failed for sources {vec}: got {back}")
            if len(failures) == 10:
                break
    cases = 1 << len(sources)
    if mode == "exhaustive" and not failures and len(images) != cases:
        failures.append(f"output image has {len(images)} distinct vectors, expected {cases}")
    return failures


class TestReversibilityFailures:
    @pytest.mark.parametrize(
        "high_inputs, lie_bits",
        [(1, 8), (4, 8), (1, 3), (0, 8)],
        ids=["2-failures-2-blocks", "capped-across-blocks", "capped-in-a-block", "one-block"],
    )
    def test_exhaustive_failures_match_per_case_reference(self, high_inputs, lie_bits):
        netlist = lying_netlist(high_inputs, lie_bits)
        report = check_reversibility(netlist, mode="exhaustive")
        expected = reference_failures(netlist, "exhaustive")
        assert report.mode == "exhaustive" and report.cases == 1 << (high_inputs + 8)
        assert not report.ok and expected
        assert list(report.failures) == expected

    @pytest.mark.parametrize("samples, seed", [(3000, 5), (700, 2), (1, 0)])
    def test_random_failures_match_per_case_reference(self, samples, seed):
        netlist = lying_netlist(4, 8)
        report = check_reversibility(netlist, mode="random", samples=samples, seed=seed)
        expected = reference_failures(netlist, "random", samples, seed)
        assert report.mode == "random" and report.cases == samples
        assert report.ok == (not expected)
        assert list(report.failures) == expected

    @pytest.mark.parametrize("high_inputs", [0, 9], ids=["one-failure", "capped-in-a-block"])
    def test_non_injective_gate_fails_by_round_trip(self, high_inputs):
        # The reference model also checks the output image; `check_reversibility`
        # relies on the round trip alone and must report the same failures.
        netlist = merging_netlist(high_inputs)
        report = check_reversibility(netlist, mode="exhaustive")
        expected = reference_failures(netlist, "exhaustive")
        assert report.mode == "exhaustive" and report.cases == 1 << (high_inputs + 2)
        assert not report.ok and expected
        assert list(report.failures) == expected
        assert all(f.startswith("round trip failed") for f in report.failures)

    def test_failure_text(self):
        report = check_reversibility(lying_netlist(1, 8), mode="exhaustive")
        assert report.failures[0] == (
            "round trip failed for sources (0, 1, 1, 1, 1, 1, 1, 1, 1): "
            "got (0, 0, 1, 1, 1, 1, 1, 1, 1)"
        )
        assert len(report.failures) == 2


@pytest.mark.parametrize("build", [lambda: build_cpa(4), lambda: build_csa42(2)],
                         ids=["cpa4", "csa42_2"])
def test_gate_evaluations_per_check(monkeypatch, build):
    netlist = build()
    calls = {"apply": 0, "invert": 0}
    real_apply, real_invert = GateKind.apply, GateKind.invert

    def apply(self, inputs):
        calls["apply"] += 1
        return real_apply(self, inputs)

    def invert(self, outputs):
        calls["invert"] += 1
        return real_invert(self, outputs)

    monkeypatch.setattr(GateKind, "apply", apply)
    monkeypatch.setattr(GateKind, "invert", invert)
    report = check_reversibility(netlist, mode="exhaustive")
    assert report.ok and report.cases == 1 << 13
    per_pass = report.cases * len(netlist.gates)
    assert calls == {"apply": per_pass, "invert": per_pass}
    calls.update(apply=0, invert=0)
    assert check_reversibility(netlist, mode="random", samples=300).ok
    assert calls == {"apply": 300 * len(netlist.gates), "invert": 300 * len(netlist.gates)}


class TestCostReport:
    def test_single_gate_adder(self):
        assert build_full_adder().cost_report().as_dict() == {
            "gate_count": 1,
            "garbage_count": 2,
            "unit_delay": 1,
            "constant_input_count": 1,
        }

    def test_cpa4(self):
        report = build_cpa(4).cost_report()
        assert (report.gate_count, report.garbage_count, report.unit_delay) == (4, 8, 4)

    def test_empty_netlist(self):
        report = passthrough().cost_report()
        assert (report.gate_count, report.garbage_count, report.unit_delay) == (0, 0, 0)

    def test_garbage_count_is_structural(self):
        for width in (1, 3, 5):
            n = build_cpa(width)
            assert n.cost_report().garbage_count == len(n.garbage_outputs)
            assert n.cost_report().gate_count == len(n.gates)

    def test_json_field_names(self):
        payload = json.dumps(build_full_adder().cost_report().as_dict(), sort_keys=True)
        parsed = json.loads(payload)
        assert set(parsed) == {
            "gate_count",
            "garbage_count",
            "unit_delay",
            "constant_input_count",
        }

    def test_cost_addition(self):
        a = build_full_adder().cost_report()
        b = build_cpa(2).cost_report()
        total = a + b
        assert total.gate_count == a.gate_count + b.gate_count
        assert total.garbage_count == a.garbage_count + b.garbage_count


class TestBijectionExhaustive:
    def test_small_netlists_are_bijections(self):
        # Exhaustive image check over inputs plus constants (<= 10 bits).
        for netlist in (build_full_adder(), feynman_copy(), build_cpa(2)):
            source = list(netlist.primary_inputs) + list(netlist.constants)
            classified = list(netlist.primary_outputs) + list(netlist.garbage_outputs)
            images = set()
            plan = netlist._plan()
            for vec in product((0, 1), repeat=len(source)):
                values = dict(zip(plan.wires, plan.forward(vec)))
                images.add(tuple(values[w] for w in classified))
            assert len(images) == 1 << len(source)


# -- random netlists against a reference interpreter --------------------

MAX_SOURCES = 10  # inputs plus constants, so the exhaustive check stays fast


@st.composite
def random_netlists(draw):
    """A valid netlist of standard gates, stored out of topological order.

    Each gate consumes live wires (inputs or earlier gate outputs) or
    fresh constants, so every wire has exactly one sink; whatever is
    live at the end is split between primary and garbage outputs.
    """
    inputs = [f"i{k}" for k in range(draw(st.integers(0, 4)))]
    live = list(inputs)
    constants: dict[str, int] = {}
    gates = []
    for g in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from([FEYNMAN, TOFFOLI, FREDKIN, TSG]))
        spare = MAX_SOURCES - len(inputs) - len(constants)
        low, high = max(0, kind.arity - spare), min(kind.arity, len(live))
        if low > high:
            break
        ins = [live.pop(draw(st.integers(0, len(live) - 1)))
               for _ in range(draw(st.integers(low, high)))]
        while len(ins) < kind.arity:
            wire = f"k{len(constants)}"
            constants[wire] = draw(st.integers(0, 1))
            ins.append(wire)
        outs = [f"g{g}o{p}" for p in range(kind.arity)]
        gates.append(GateInstance(kind, draw(st.permutations(ins)), outs))
        live += outs
    garbage = draw(st.lists(st.booleans(), min_size=len(live), max_size=len(live)))
    return Netlist(
        primary_inputs=inputs,
        constants=constants,
        gates=draw(st.permutations(gates)),
        primary_outputs=[w for w, g in zip(live, garbage) if not g],
        garbage_outputs=[w for w, g in zip(live, garbage) if g],
        name="random",
    )


def reference_simulate(netlist: Netlist, inputs: dict) -> dict:
    """Plain dict-walking interpreter: fire any gate whose inputs are all known."""
    values = {**netlist.constants, **inputs}
    pending = list(netlist.gates)
    while pending:
        ready = next(g for g in pending if all(w in values for w in g.inputs))
        table = ready.kind.truth_table
        values.update(zip(ready.outputs, table[tuple(values[w] for w in ready.inputs)]))
        pending.remove(ready)
    return values


@settings(max_examples=150, deadline=None)
@given(random_netlists(), st.data())
def test_random_netlists_simulate_invert_verify_and_round_trip(netlist, data):
    assert netlist.validate().ok
    inputs = {w: data.draw(st.integers(0, 1), label=w) for w in netlist.primary_inputs}
    values = netlist.simulate(inputs)
    assert values == reference_simulate(netlist, inputs)
    classified = netlist.primary_outputs + netlist.garbage_outputs
    recovered = netlist.simulate_inverse({w: values[w] for w in classified})
    assert recovered == {**inputs, **netlist.constants}
    assert check_reversibility(netlist, mode="exhaustive").ok
    text = serialize_rnl(netlist)
    parsed = parse_rnl(text)
    assert serialize_rnl(parsed) == text
    assert parsed.simulate(inputs) == values


@settings(max_examples=100, deadline=None)
@given(random_netlists(), st.data())
def test_random_netlists_forward_rows_match_reference(netlist, data):
    plan = netlist._plan()
    rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=len(netlist.primary_inputs),
                                       max_size=len(netlist.primary_inputs)), max_size=5))
    constants = list(netlist.constants.values())
    columns = [list(col) for col in zip(*(row + constants for row in rows))]
    if not rows:
        columns = [[] for _ in plan.sources]
    slots = plan.forward_rows(columns)
    assert len(slots) == len(plan.wires)
    for r, row in enumerate(rows):
        expected = reference_simulate(netlist, dict(zip(netlist.primary_inputs, row)))
        assert {w: slots[k][r] for k, w in enumerate(plan.wires)} == expected
    if not rows:
        assert all(len(col) == 0 for col in slots)


@settings(max_examples=100, deadline=None)
@given(random_netlists(), st.data())
def test_random_netlists_inverse_rows_match_scalar_inverse(netlist, data):
    plan = netlist._plan()
    back = plan.backwards
    width = len(plan.sources)
    rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=width, max_size=width),
                              max_size=5))

    def gather_outputs(slots):
        return [slots[s] for s in plan.output_slots]

    columns = [list(col) for col in zip(*rows)] if rows else [[] for _ in plan.sources]
    forward = plan.forward_rows(columns)
    slots = back.forward_rows(gather_outputs(forward))
    assert len(slots) == len(back.wires)
    for r, row in enumerate(rows):
        expected = back.forward(gather_outputs(plan.forward(row)))
        assert [slots[k][r] for k in range(len(back.wires))] == expected
        assert [expected[s] for s in back.output_slots] == row
    if not rows:
        assert all(len(col) == 0 for col in slots)


# -- one-pass validation against the earlier per-wire implementation ---


def reference_wires(netlist: Netlist) -> tuple:
    seen: dict = {}
    for w in netlist.primary_inputs:
        seen.setdefault(w)
    for w in netlist.constants:
        seen.setdefault(w)
    for g in netlist.gates:
        for w in g.inputs:
            seen.setdefault(w)
        for w in g.outputs:
            seen.setdefault(w)
    for w in netlist.primary_outputs:
        seen.setdefault(w)
    for w in netlist.garbage_outputs:
        seen.setdefault(w)
    return tuple(seen)


def reference_toposort(netlist: Netlist):
    """Topological order of gate indices by graphlib, or None on a cycle."""
    producer: dict = {}
    for i, g in enumerate(netlist.gates):
        for w in g.outputs:
            producer.setdefault(w, i)
    deps = {
        i: {producer[w] for w in g.inputs if w in producer}
        for i, g in enumerate(netlist.gates)
    }
    try:
        return tuple(graphlib.TopologicalSorter(deps).static_order())
    except graphlib.CycleError:
        return None


def reference_validate(netlist: Netlist) -> ValidationReport:
    """Label every driver and sink of every wire, then check each rule in turn."""
    drivers: dict = {}
    for w in netlist.primary_inputs:
        drivers.setdefault(w, []).append("input")
    for w in netlist.constants:
        drivers.setdefault(w, []).append("const")
    for i, g in enumerate(netlist.gates):
        for w in g.outputs:
            drivers.setdefault(w, []).append(f"gate {i} ({g.kind.name})")
    sinks: dict = {}
    for i, g in enumerate(netlist.gates):
        for w in g.inputs:
            sinks.setdefault(w, []).append(f"gate {i} ({g.kind.name})")
    for w in netlist.primary_outputs:
        sinks.setdefault(w, []).append("output")
    for w in netlist.garbage_outputs:
        sinks.setdefault(w, []).append("garbage")

    violations = []
    for wire, who in drivers.items():
        if len(who) > 1:
            violations.append(
                Violation("multiply-driven", f"wire {wire} driven by {', '.join(who)}")
            )
    for wire in reference_wires(netlist):
        if wire not in drivers:
            violations.append(Violation("undriven", f"wire {wire} has no driver"))
    for wire, who in sinks.items():
        if len(who) > 1:
            violations.append(
                Violation("fan-out", f"wire {wire} feeds {len(who)} sinks: {', '.join(who)}")
            )
    gate_outputs = dict.fromkeys(w for g in netlist.gates for w in g.outputs)
    for wire in gate_outputs:
        if wire not in sinks:
            violations.append(
                Violation(
                    "unclassified-output",
                    f"gate output {wire} is neither consumed nor classified",
                )
            )
    for wire in list(netlist.primary_inputs) + list(netlist.constants):
        if wire not in sinks and wire in drivers and len(drivers[wire]) == 1:
            violations.append(
                Violation(
                    "dangling-input",
                    f"input {wire} is neither consumed nor classified as an output",
                )
            )
    if reference_toposort(netlist) is None:
        violations.append(Violation("cycle", "gate dependencies contain a cycle"))
    return ValidationReport(tuple(violations))


@st.composite
def tangled_netlists(draw):
    """Any wiring over a few wire names: repeated drivers and sinks, loose
    ends, cycles and out-of-order gate lists all turn up."""
    names = st.sampled_from([f"w{k}" for k in range(7)])
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from([FEYNMAN, TOFFOLI, FREDKIN, TSG]))
        ins = draw(st.lists(names, min_size=kind.arity, max_size=kind.arity))
        outs = draw(st.lists(names, min_size=kind.arity, max_size=kind.arity))
        gates.append(GateInstance(kind, ins, outs))
    return Netlist(
        primary_inputs=draw(st.lists(names, max_size=4)),
        constants=draw(st.dictionaries(names, st.integers(0, 1), max_size=3)),
        gates=gates,
        primary_outputs=draw(st.lists(names, max_size=4)),
        garbage_outputs=draw(st.lists(names, max_size=3)),
        name="tangled",
    )


def assert_topological(netlist: Netlist, order) -> None:
    assert sorted(order) == list(range(len(netlist.gates)))
    position = {i: k for k, i in enumerate(order)}
    producer: dict = {}
    for i, g in enumerate(netlist.gates):
        for w in g.outputs:
            producer.setdefault(w, i)
    for i, g in enumerate(netlist.gates):
        for w in g.inputs:
            if w in producer:
                assert position[producer[w]] < position[i], (w, order)


@settings(max_examples=400, deadline=None)
@given(st.one_of(tangled_netlists(), random_netlists()))
def test_one_pass_validation_matches_reference(netlist):
    report = netlist.validate()
    assert report == reference_validate(netlist)
    assert netlist.wires == reference_wires(netlist)
    assert report.as_dict() == reference_validate(netlist).as_dict()
    order = netlist._toposort()
    assert (order is None) == (reference_toposort(netlist) is None)
    if order is not None:
        assert_topological(netlist, order)
    if report.ok:
        plan = netlist._plan()
        assert [kind for kind, *_ in plan._gates] == [netlist.gates[i].kind for i in order]
        for _, in_slots, lo, _ in plan._gates:
            assert all(s < lo for s in in_slots)
    else:
        with pytest.raises(NetlistError) as info:
            netlist._plan()
        summary = "; ".join(v.detail for v in report.violations[:3])
        assert str(info.value) == (
            f"netlist tangled is invalid ({len(report.violations)} violations): {summary}"
        )


def test_in_order_gate_list_keeps_its_order():
    netlist = build_csa42(3)
    assert netlist._toposort() == tuple(range(len(netlist.gates)))
    reordered = Netlist(
        primary_inputs=netlist.primary_inputs,
        constants=netlist.constants,
        gates=netlist.gates[::-1],
        primary_outputs=netlist.primary_outputs,
        garbage_outputs=netlist.garbage_outputs,
    )
    assert reordered.validate().ok
    assert_topological(reordered, reordered._toposort())
    assert reordered.simulate({w: 1 for w in netlist.primary_inputs}) == netlist.simulate(
        {w: 1 for w in netlist.primary_inputs}
    )


@settings(max_examples=100, deadline=None)
@given(random_netlists(), st.data())
def test_forward_rows_builds_the_columns_it_is_asked_for(netlist, data):
    plan = netlist._plan()
    rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=len(plan.sources),
                                       max_size=len(plan.sources)), min_size=1, max_size=5))
    columns = [list(col) for col in zip(*rows)] if plan.sources else []
    read = tuple(data.draw(st.sets(st.sampled_from(range(len(plan.wires)))))
                 if plan.wires else ())
    every = plan.forward_rows(columns)
    some = plan.forward_rows(columns, read)
    assert len(some) == len(plan.wires)
    assert [tuple(some[s]) for s in read] == [tuple(every[s]) for s in read]
    for r, row in enumerate(rows):
        full = plan.forward(row)
        assert [every[s][r] for s in range(len(plan.wires))] == full


def test_forward_rows_runs_each_gate_once_per_row_whatever_is_read(monkeypatch):
    netlist = build_csa42(2)
    plan = netlist._plan()
    calls = []
    real_apply = GateKind.apply

    def apply(self, inputs):
        calls.append(self)
        return real_apply(self, inputs)

    monkeypatch.setattr(GateKind, "apply", apply)
    columns = [[0, 1, 1]] * len(plan.sources)
    for read in (None, (), tuple(plan.output_slots[:1])):
        calls.clear()
        plan.forward_rows(columns, read)
        assert len(calls) == 3 * len(netlist.gates)
