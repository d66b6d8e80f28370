"""Reports: `as_dict()` is plain JSON in a fixed key order, and every report is a frozen value."""

import dataclasses
import json

import pytest

import revalu
from revalu import (
    FEYNMAN,
    TOFFOLI,
    GateInstance,
    MontDatapath,
    MontParams,
    Netlist,
    ReversibilityReport,
    build_cpa,
    build_full_adder,
    check_reversibility,
    energy_report,
    erasure_report,
    mont_mult_trace,
    switching_trace,
    verify_gate,
)


def _run_datapath():
    datapath = MontDatapath(MontParams.for_modulus(11))
    datapath.run(3, 7)
    return datapath


def _fan_out():
    return Netlist(
        primary_inputs=["a"],
        constants={"z1": 0, "z2": 0},
        gates=[GateInstance(FEYNMAN, ("a", "z1"), ("x1", "y1")),
               GateInstance(FEYNMAN, ("a", "z2"), ("x2", "y2"))],
        primary_outputs=["x1", "y1", "x2", "y2"],
    )


REPORTS = {
    "cost": (lambda: build_full_adder().cost_report(),
             ["gate_count", "garbage_count", "unit_delay", "constant_input_count"]),
    "validation": (lambda: _fan_out().validate(), ["ok", "violations"]),
    "reversibility": (lambda: check_reversibility(build_cpa(2)),
                      ["mode", "cases", "ok", "failures"]),
    "reversibility-failures": (
        lambda: ReversibilityReport("exhaustive", 4, False, ("first", "second")),
        ["mode", "cases", "ok", "failures"]),
    "gate": (lambda: verify_gate(TOFFOLI),  # two one-through inputs
             ["name", "arity", "bijective", "conservative", "one_through_inputs"]),
    "erasure": (lambda: erasure_report(build_cpa(3)),
                ["internal_bits", "naive_bits", "deferred_bits"]),
    "energy": (lambda: energy_report(_run_datapath().cores),
               ["erased_bits", "deferred_erasure_bits", "erased_bits_naive", "temperature_k",
                "landauer_joules", "signal_transitions", "esig_joules"]),
    "power-trace": (lambda: switching_trace(_run_datapath().last_run), ["samples", "metadata"]),
}


@pytest.mark.parametrize("name", REPORTS)
def test_as_dict_is_its_own_json_round_trip(name):
    make, keys = REPORTS[name]
    payload = make().as_dict()
    again = json.loads(json.dumps(payload))
    assert payload == again  # a tuple anywhere would compare unequal to its list
    assert list(payload) == list(again) == keys


def test_violations_keep_their_key_order():
    violations = _fan_out().validate().as_dict()["violations"]
    assert violations and all(list(v) == ["kind", "detail"] for v in violations)


#: Each plain report, built twice from the same inputs, with one of its fields.
FROZEN = {
    "GateReport": (lambda: verify_gate(TOFFOLI), "one_through_inputs"),
    "Violation": (lambda: _fan_out().validate().violations[0], "detail"),
    "ValidationReport": (lambda: _fan_out().validate(), "violations"),
    "CostReport": (lambda: build_full_adder().cost_report(), "gate_count"),
    "ReversibilityReport": (lambda: check_reversibility(build_cpa(2)), "ok"),
    "MontTrace": (lambda: mont_mult_trace(3, 7, MontParams.for_modulus(11)), "product"),
    "MontRun": (lambda: _run_datapath().last_run, "snapshots"),
    "ErasureReport": (lambda: erasure_report(build_cpa(3)), "deferred_bits"),
    "EnergyReport": (lambda: energy_report(_run_datapath().cores), "erased_bits"),
}


@pytest.mark.parametrize("name", FROZEN)
def test_report_fields_cannot_be_assigned_or_deleted(name):
    make, field = FROZEN[name]
    report = make()
    assert type(report).__name__ == name
    before = getattr(report, field)
    with pytest.raises(AttributeError):
        setattr(report, field, None)
    with pytest.raises(AttributeError):
        delattr(report, field)
    with pytest.raises(AttributeError):
        report.extra = None
    assert getattr(report, field) == before


@pytest.mark.parametrize("name", FROZEN)
def test_equal_reports_hash_equal(name):
    make, _ = FROZEN[name]
    first, second = make(), make()
    assert first is not second
    assert first == second and hash(first) == hash(second)


def test_reversibility_failures_default_to_empty():
    assert ReversibilityReport("random", 4, True).failures == ()


def test_cached_validation_cannot_be_altered_through_its_result():
    netlist = _fan_out()
    report = netlist.validate()
    expected = report.as_dict()
    with pytest.raises(AttributeError):
        report.violations = ()
    with pytest.raises(TypeError):
        report.violations[0] = None
    with pytest.raises(AttributeError):
        report.violations[0].detail = ""
    report.as_dict()["violations"].clear()
    assert netlist.validate() is report
    assert report.as_dict() == expected and not report.ok


def test_reports_are_tuples_of_their_fields():
    cost = build_full_adder().cost_report()
    assert cost == (1, 2, 1, 1) and cost[0] == cost.gate_count and list(cost) == [1, 2, 1, 1]
    assert cost + cost == (2, 4, 2, 2)  # field by field, not concatenation


def test_dataclasses_are_only_the_four_kept_records():
    exported = (getattr(revalu, name) for name in revalu.__all__)
    assert {cls.__name__ for cls in exported if dataclasses.is_dataclass(cls)} == {
        "CycleRecord", "GateInstance", "MontParams", "PowerTrace"}
