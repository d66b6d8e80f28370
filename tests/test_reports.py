"""Every report's `as_dict()` is plain JSON: lists, not tuples, in a fixed key order."""

import json

import pytest

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
