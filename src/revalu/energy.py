"""Logical-erasure accounting, switching traces, and a DPA harness.

Erasure is measured per gate as the Shannon-entropy drop from a
uniform input distribution to the induced output distribution. A
bijective gate maps the uniform distribution to itself and erases
exactly zero; a 2-input AND erases 2 - H(1/4, 3/4) ~ 1.189 bits, more
than the naive one-bit port-count loss, and both figures are reported.
A gate kind's table is fixed, so its loss is computed once per kind.
Garbage outputs of reversible circuits are not erased inside the
circuit but must eventually be discarded; they are totalled separately
as deferred erasure.

The power model is switching activity: the Hamming distance between
consecutive register-state snapshots, one sample per cycle. The
difference-of-means analysis on such traces demonstrates the harness
mechanics only; it says nothing about physical leakage of any real
device, and zero modelled erasure is an accounting statement, not a
security proof.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import product
from statistics import fmean
from typing import Callable, Iterable, Mapping, Sequence

from .arith import IrreversibleNetlist
from .bits import hamming_distance
from .gates import GateKind
from .netlist import Netlist

#: Boltzmann constant, J/K (exact SI value).
K_BOLTZMANN = 1.380649e-23

_MAX_GATE_INPUTS = 16


def _entropy(counts: Iterable[int]) -> float:
    total = sum(counts)
    return -sum((c / total) * math.log2(c / total) for c in counts if c)


def _gate_loss_from_outputs(n_inputs: int, outputs: Iterable) -> float:
    return n_inputs - _entropy(Counter(outputs).values())


@cache
def _kind_loss(kind: GateKind) -> float:
    """Entropy drop of one gate kind, computed once: its table is fixed at construction."""
    return _gate_loss_from_outputs(kind.arity, kind.truth_table.values())


@dataclass(frozen=True)
class ErasureReport:
    """Per-circuit information-loss totals, in Shannon bits."""

    internal_bits: float
    naive_bits: float
    deferred_bits: int

    def as_dict(self) -> dict:
        return {
            "internal_bits": self.internal_bits,
            "naive_bits": self.naive_bits,
            "deferred_bits": self.deferred_bits,
        }


def erasure_report(circuit: Netlist | IrreversibleNetlist) -> ErasureReport:
    """Entropy-drop and port-count loss per gate, summed over the circuit.

    Each gate is enumerated exhaustively under uniform inputs. Garbage
    outputs (reversible netlists only) are counted as deferred erasure.
    """
    internal = 0.0
    naive = 0.0
    if isinstance(circuit, Netlist):
        for g in circuit.gates:
            if g.kind.arity > _MAX_GATE_INPUTS:
                raise ValueError(
                    f"gate {g.kind.name} has {g.kind.arity} inputs, "
                    f"too many to enumerate (limit {_MAX_GATE_INPUTS})"
                )
            internal += _kind_loss(g.kind)
            # Reversible gates have as many outputs as inputs.
        deferred = len(circuit.garbage_outputs)
    elif isinstance(circuit, IrreversibleNetlist):
        for g in circuit.gates:
            if len(g.inputs) > _MAX_GATE_INPUTS:
                raise ValueError(
                    f"gate {g.op} has {len(g.inputs)} inputs, "
                    f"too many to enumerate (limit {_MAX_GATE_INPUTS})"
                )
            k = len(g.inputs)
            outputs = [g.eval(bits) for bits in product((0, 1), repeat=k)]
            internal += _gate_loss_from_outputs(k, outputs)
            naive += k - 1
        deferred = 0
    else:
        raise TypeError(f"unsupported circuit type {type(circuit).__name__}")
    return ErasureReport(internal_bits=internal, naive_bits=naive, deferred_bits=deferred)


def erasure_bits(circuit: Netlist | IrreversibleNetlist) -> float:
    """Total internal information loss of the circuit, in bits."""
    return erasure_report(circuit).internal_bits


def _require_non_negative(what: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{what} must be finite and non-negative, got {value}")


def landauer_energy(bits: float, temperature_k: float) -> float:
    """Minimum heat for erasing `bits` at temperature T: bits * kT ln 2."""
    _require_non_negative("bits", bits)
    if not (math.isfinite(temperature_k) and temperature_k > 0):
        raise ValueError(f"temperature must be finite and positive, got {temperature_k}")
    return bits * K_BOLTZMANN * temperature_k * math.log(2)


def esig_energy(capacitance_f: float, voltage_v: float) -> float:
    """Signal energy of one voltage-coded node: C * V^2 / 2."""
    _require_non_negative("capacitance", capacitance_f)
    _require_non_negative("voltage", voltage_v)
    return 0.5 * capacitance_f * voltage_v * voltage_v


@dataclass(frozen=True)
class PowerTrace:
    """Per-cycle switching-activity samples plus operand metadata."""

    samples: tuple[float, ...]
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def total_transitions(self) -> float:
        return sum(self.samples)

    def as_dict(self) -> dict:
        return {"samples": list(self.samples), "metadata": dict(self.metadata)}


def switching_trace(run, metadata: Mapping | None = None) -> PowerTrace:
    """Hamming distance between consecutive state snapshots of a run.

    `run` is either an object with `snapshots` (and optionally
    `metadata`), such as a datapath run record, or a bare sequence of
    equal-length bit tuples.
    """
    if hasattr(run, "snapshots"):
        snapshots = run.snapshots
        if metadata is None:
            metadata = getattr(run, "metadata", None)
    else:
        snapshots = run
    snapshots = list(snapshots)
    if len(snapshots) < 2:
        raise ValueError("run must record at least two state snapshots")
    samples = tuple(
        float(hamming_distance(a, b)) for a, b in zip(snapshots, snapshots[1:])
    )
    return PowerTrace(samples=samples, metadata=dict(metadata or {}))


def dpa_diff_of_means(
    traces: Sequence[PowerTrace], selector: Callable[[Mapping], bool]
) -> tuple[float, ...]:
    """Per-cycle mean difference between selected and unselected traces.

    The selector partitions traces by their operand metadata; both
    classes must be non-empty and all traces equally long.
    """
    if not traces:
        raise ValueError("no traces given")
    length = len(traces[0])
    for t in traces:
        if len(t) != length:
            raise ValueError(f"ragged trace lengths: {len(t)} vs {length}")
    selected = [t for t in traces if selector(t.metadata)]
    unselected = [t for t in traces if not selector(t.metadata)]
    if not selected or not unselected:
        raise ValueError("selector must split traces into two non-empty classes")
    return tuple(
        fmean(t.samples[i] for t in selected) - fmean(t.samples[i] for t in unselected)
        for i in range(length)
    )


@dataclass(frozen=True)
class EnergyReport:
    """Erasure counts with their joule equivalents for one circuit."""

    erased_bits: float
    deferred_erasure_bits: int
    erased_bits_naive: float
    temperature_k: float
    landauer_joules: float
    signal_transitions: float
    esig_joules: float

    def as_dict(self) -> dict:
        return {
            "erased_bits": self.erased_bits,
            "deferred_erasure_bits": self.deferred_erasure_bits,
            "erased_bits_naive": self.erased_bits_naive,
            "temperature_k": self.temperature_k,
            "landauer_joules": self.landauer_joules,
            "signal_transitions": self.signal_transitions,
            "esig_joules": self.esig_joules,
        }


def energy_report(
    circuit,
    temperature_k: float = 300.0,
    capacitance_f: float = 1e-15,
    voltage_v: float = 1.0,
    trace: PowerTrace | None = None,
) -> EnergyReport:
    """Combine erasure accounting with optional switching activity.

    `circuit` is a single netlist (reversible or not) or a sequence of
    netlists whose erasure figures are summed, e.g. all the
    combinational cores of a datapath.
    """
    circuits = (
        [circuit]
        if isinstance(circuit, (Netlist, IrreversibleNetlist))
        else list(circuit)
    )
    internal = naive = 0.0
    deferred = 0
    for piece in circuits:
        erasure = erasure_report(piece)
        internal += erasure.internal_bits
        naive += erasure.naive_bits
        deferred += erasure.deferred_bits
    transitions = trace.total_transitions if trace is not None else 0.0
    return EnergyReport(
        erased_bits=internal,
        deferred_erasure_bits=deferred,
        erased_bits_naive=naive,
        temperature_k=temperature_k,
        landauer_joules=landauer_energy(internal, temperature_k),
        signal_transitions=transitions,
        esig_joules=transitions * esig_energy(capacitance_f, voltage_v),
    )
