"""Reversible-logic circuit toolkit.

Gate primitives, strict single-sink netlists with forward and inverse
simulation, TSG-based adder generators, Fredkin-latch sequential
elements, a bit-serial carry-save Montgomery multiplier, and
information-erasure / switching-activity accounting with a small DPA
analysis harness.
"""

from .arith import (
    build_cpa,
    build_csa42,
    build_csa52,
    build_full_adder,
    build_irreversible_cpa,
    tsg_as_full_adder,
)
from .energy import (
    K_BOLTZMANN,
    EnergyReport,
    ErasureReport,
    PowerTrace,
    dpa_diff_of_means,
    energy_report,
    erasure_bits,
    erasure_report,
    esig_energy,
    landauer_energy,
    switching_trace,
)
from .gates import (
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
    GateReport,
    verify_gate,
)
from .montgomery import (
    CycleRecord,
    InvariantError,
    MontDatapath,
    MontParams,
    MontRun,
    MontTrace,
    from_mont,
    mont_exp,
    mont_mult_trace,
    mont_mult_word,
    to_mont,
)
from .netlist import (
    CostReport,
    GateInstance,
    Netlist,
    NetlistError,
    ReversibilityReport,
    ValidationReport,
    Violation,
    check_reversibility,
)
from .rnl import RnlSyntaxError, parse_rnl, serialize_rnl
from .sequential import (
    ClockedCircuit,
    DLatch,
    MasterSlaveDFF,
    Register,
    ShiftRegister,
)

__version__ = "0.1.0"

__all__ = [
    "AND",
    "CostReport",
    "CycleRecord",
    "DLatch",
    "ClockedCircuit",
    "EnergyReport",
    "ErasureReport",
    "FEYNMAN",
    "FREDKIN",
    "GateInstance",
    "GateKind",
    "GateReport",
    "InvariantError",
    "K_BOLTZMANN",
    "MasterSlaveDFF",
    "MontDatapath",
    "MontParams",
    "MontRun",
    "MontTrace",
    "NOT",
    "Netlist",
    "NetlistError",
    "OR",
    "PowerTrace",
    "Register",
    "ReversibilityReport",
    "RnlSyntaxError",
    "STANDARD_GATES",
    "ShiftRegister",
    "TOFFOLI",
    "TSG",
    "ValidationReport",
    "Violation",
    "XOR",
    "build_cpa",
    "build_csa42",
    "build_csa52",
    "build_full_adder",
    "build_irreversible_cpa",
    "check_reversibility",
    "dpa_diff_of_means",
    "energy_report",
    "erasure_bits",
    "erasure_report",
    "esig_energy",
    "from_mont",
    "landauer_energy",
    "mont_exp",
    "mont_mult_trace",
    "mont_mult_word",
    "parse_rnl",
    "serialize_rnl",
    "switching_trace",
    "to_mont",
    "tsg_as_full_adder",
    "verify_gate",
]
