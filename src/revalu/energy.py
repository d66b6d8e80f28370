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
security proof. The two reports are ``typing.NamedTuple``s; `PowerTrace`
stays a frozen dataclass for its per-instance dict default and `__len__`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from operator import add
from statistics import fmean
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .bits import hamming_distance
from .gates import GateKind
from .netlist import Netlist

#: Boltzmann constant, J/K (exact SI value).
K_BOLTZMANN = 1.380649e-23


def _entropy(counts: Iterable[int]) -> float:
    total = sum(counts)
    return -sum((c / total) * math.log2(c / total) for c in counts if c)


@cache
def _kind_loss(kind: GateKind) -> float:
    """Entropy drop of one gate kind, computed once: its table is fixed at construction."""
    return kind.arity - _entropy(Counter(kind.truth_table.values()).values())


class ErasureReport(NamedTuple):
    """Per-circuit information-loss totals, in Shannon bits."""

    internal_bits: float
    naive_bits: float
    deferred_bits: int

    def as_dict(self) -> dict:
        return self._asdict()

    def __add__(self, other: "ErasureReport") -> "ErasureReport":
        return ErasureReport(*map(add, self, other))


def erasure_report(circuit: Netlist) -> ErasureReport:
    """Entropy-drop and port-count loss per gate, summed over the circuit.

    Each gate kind's table is enumerated under uniform inputs; the
    port-count loss of a gate is its inputs less its outputs. Garbage
    outputs are counted as deferred erasure.
    """
    if not isinstance(circuit, Netlist):
        raise TypeError(f"unsupported circuit type {type(circuit).__name__}")
    internal = naive = 0.0
    for g in circuit.gates:
        internal += _kind_loss(g.kind)
        naive += g.kind.arity - g.kind.n_out
    return ErasureReport(
        internal_bits=internal, naive_bits=naive, deferred_bits=len(circuit.garbage_outputs)
    )


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
    if not length:
        raise ValueError("traces hold no samples")
    selected, unselected = [], []
    for t in traces:
        (selected if selector(t.metadata) else unselected).append(t)
    if not selected or not unselected:
        raise ValueError("selector must split traces into two non-empty classes")
    return tuple(
        fmean(t.samples[i] for t in selected) - fmean(t.samples[i] for t in unselected)
        for i in range(length)
    )


class EnergyReport(NamedTuple):
    """Erasure counts with their joule equivalents for one circuit."""

    erased_bits: float
    deferred_erasure_bits: int
    erased_bits_naive: float
    temperature_k: float
    landauer_joules: float
    signal_transitions: float
    esig_joules: float

    def as_dict(self) -> dict:
        return self._asdict()


def energy_report(
    circuit,
    temperature_k: float = 300.0,
    capacitance_f: float = 1e-15,
    voltage_v: float = 1.0,
    trace: PowerTrace | None = None,
) -> EnergyReport:
    """Combine erasure accounting with optional switching activity.

    `circuit` is a single netlist (reversible or lossy) or a sequence of
    netlists whose erasure figures are summed, e.g. all the
    combinational cores of a datapath.
    """
    circuits = [circuit] if isinstance(circuit, Netlist) else circuit
    internal, naive, deferred = sum(map(erasure_report, circuits), ErasureReport(0.0, 0.0, 0))
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
