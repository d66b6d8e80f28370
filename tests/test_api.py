"""The package's public surface: `revalu.__all__` is every name the package imports."""

import types

import revalu

PUBLIC = {
    # gates
    "AND", "FEYNMAN", "FREDKIN", "NOT", "OR", "STANDARD_GATES", "TOFFOLI", "TSG", "XOR",
    "GateKind", "GateReport", "verify_gate",
    # netlist and rnl
    "CostReport", "GateInstance", "Netlist", "NetlistError", "ReversibilityReport",
    "ValidationReport", "Violation", "check_reversibility",
    "RnlSyntaxError", "parse_rnl", "serialize_rnl",
    # arith
    "build_cpa", "build_csa42", "build_csa52", "build_full_adder", "build_irreversible_cpa",
    "tsg_as_full_adder",
    # sequential
    "ClockedCircuit", "DLatch", "MasterSlaveDFF", "Register", "ShiftRegister",
    # montgomery
    "CycleRecord", "InvariantError", "MontDatapath", "MontParams", "MontRun", "MontTrace",
    "from_mont", "mont_exp", "mont_mult_trace", "mont_mult_word", "to_mont",
    # energy
    "K_BOLTZMANN", "EnergyReport", "ErasureReport", "PowerTrace", "dpa_diff_of_means",
    "energy_report", "erasure_report", "esig_energy", "landauer_energy", "switching_trace",
}


def test_all_is_the_public_names():
    assert len(revalu.__all__) == len(PUBLIC) == 55
    assert set(revalu.__all__) == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from revalu import *", namespace)
    assert namespace.keys() - {"__builtins__"} == PUBLIC


def test_no_submodule_is_exported():
    assert not [name for name in revalu.__all__
                if isinstance(getattr(revalu, name), types.ModuleType)]
    assert {"arith", "bits", "energy", "gates", "montgomery", "netlist", "rnl",
            "sequential"}.isdisjoint(revalu.__all__)
