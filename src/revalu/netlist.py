"""Acyclic reversible combinational netlists.

A netlist is a set of named wires connected by reversible gate
instances. The wiring discipline is strict: every wire has exactly one
driver (primary input, declared constant, or one gate output) and at
most one sink (one gate input port, or a classification as primary or
garbage output). Fan-out is a hard violation; duplication must be done
with explicit copy gates. Under that discipline the whole netlist maps
its input-plus-constant vector bijectively onto its output-plus-garbage
vector, and can be simulated both forwards and backwards.
"""

from __future__ import annotations

import graphlib
import random
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping, Sequence

from .gates import GateKind

Bits = tuple[int, ...]


class NetlistError(ValueError):
    """Raised when an operation is attempted on an invalid netlist."""


@dataclass(frozen=True)
class GateInstance:
    """One placed gate: a kind plus its input and output wire names."""

    kind: GateKind
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if len(self.inputs) != self.kind.arity or len(self.outputs) != self.kind.arity:
            raise ValueError(
                f"{self.kind.name}: needs {self.kind.arity} inputs and outputs, "
                f"got {len(self.inputs)} -> {len(self.outputs)}"
            )


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [v.as_dict() for v in self.violations],
        }


@dataclass(frozen=True)
class CostReport:
    """Structural cost of a netlist.

    `unit_delay` counts gate instances on the longest path from any
    input to any primary output; a lone gate therefore has delay 1 and
    a chain of k gates delay k.
    """

    gate_count: int
    garbage_count: int
    unit_delay: int
    constant_input_count: int

    def as_dict(self) -> dict:
        return {
            "gate_count": self.gate_count,
            "garbage_count": self.garbage_count,
            "unit_delay": self.unit_delay,
            "constant_input_count": self.constant_input_count,
        }

    def __add__(self, other: "CostReport") -> "CostReport":
        return CostReport(
            self.gate_count + other.gate_count,
            self.garbage_count + other.garbage_count,
            self.unit_delay + other.unit_delay,
            self.constant_input_count + other.constant_input_count,
        )


class Netlist:
    """Combinational reversible circuit. Treat as immutable once built."""

    def __init__(
        self,
        primary_inputs: Sequence[str] = (),
        constants: Mapping[str, int] | None = None,
        gates: Sequence[GateInstance] = (),
        primary_outputs: Sequence[str] = (),
        garbage_outputs: Sequence[str] = (),
        name: str = "",
    ):
        self.primary_inputs = tuple(primary_inputs)
        self.constants = dict(constants or {})
        self.gates = tuple(gates)
        self.primary_outputs = tuple(primary_outputs)
        self.garbage_outputs = tuple(garbage_outputs)
        self.name = name
        for wire, value in self.constants.items():
            if value not in (0, 1):
                raise ValueError(f"constant {wire} must be 0 or 1, got {value!r}")
        self._validation: ValidationReport | None = None
        self._topo: tuple[int, ...] | None = None

    # -- structure ---------------------------------------------------

    @property
    def wires(self) -> tuple[str, ...]:
        """All wire names, in driver-then-usage order, deduplicated."""
        seen: dict[str, None] = {}
        for w in self.primary_inputs:
            seen.setdefault(w)
        for w in self.constants:
            seen.setdefault(w)
        for g in self.gates:
            for w in g.inputs:
                seen.setdefault(w)
            for w in g.outputs:
                seen.setdefault(w)
        for w in self.primary_outputs:
            seen.setdefault(w)
        for w in self.garbage_outputs:
            seen.setdefault(w)
        return tuple(seen)

    def _drivers(self) -> dict[str, list[str]]:
        """Wire -> list of driver labels (used for validation)."""
        drivers: dict[str, list[str]] = {}
        for w in self.primary_inputs:
            drivers.setdefault(w, []).append("input")
        for w in self.constants:
            drivers.setdefault(w, []).append("const")
        for i, g in enumerate(self.gates):
            for w in g.outputs:
                drivers.setdefault(w, []).append(f"gate {i} ({g.kind.name})")
        return drivers

    def _sinks(self) -> dict[str, list[str]]:
        sinks: dict[str, list[str]] = {}
        for i, g in enumerate(self.gates):
            for w in g.inputs:
                sinks.setdefault(w, []).append(f"gate {i} ({g.kind.name})")
        for w in self.primary_outputs:
            sinks.setdefault(w, []).append("output")
        for w in self.garbage_outputs:
            sinks.setdefault(w, []).append("garbage")
        return sinks

    def validate(self) -> ValidationReport:
        """Check the wiring discipline and report every violation found.

        Violation kinds: ``multiply-driven``, ``undriven``, ``fan-out``,
        ``unclassified-output``, ``dangling-input``, ``cycle``.
        """
        if self._validation is not None:
            return self._validation
        violations: list[Violation] = []
        drivers = self._drivers()
        sinks = self._sinks()

        for wire, who in drivers.items():
            if len(who) > 1:
                violations.append(
                    Violation("multiply-driven", f"wire {wire} driven by {', '.join(who)}")
                )
        for wire in self.wires:
            if wire not in drivers:
                violations.append(Violation("undriven", f"wire {wire} has no driver"))
        for wire, who in sinks.items():
            if len(who) > 1:
                violations.append(
                    Violation("fan-out", f"wire {wire} feeds {len(who)} sinks: {', '.join(who)}")
                )

        gate_outputs = {w for g in self.gates for w in g.outputs}
        for wire in gate_outputs:
            if wire not in sinks:
                violations.append(
                    Violation(
                        "unclassified-output",
                        f"gate output {wire} is neither consumed nor classified",
                    )
                )
        for wire in list(self.primary_inputs) + list(self.constants):
            if wire not in sinks and wire in drivers and len(drivers[wire]) == 1:
                violations.append(
                    Violation(
                        "dangling-input",
                        f"input {wire} is neither consumed nor classified as an output",
                    )
                )

        if self._toposort() is None:
            violations.append(Violation("cycle", "gate dependencies contain a cycle"))

        self._validation = ValidationReport(tuple(violations))
        return self._validation

    def _toposort(self) -> tuple[int, ...] | None:
        """Topological order of gate indices, or None on a cycle."""
        if self._topo is not None:
            return self._topo
        producer: dict[str, int] = {}
        for i, g in enumerate(self.gates):
            for w in g.outputs:
                producer.setdefault(w, i)
        deps = {
            i: {producer[w] for w in g.inputs if w in producer}
            for i, g in enumerate(self.gates)
        }
        try:
            order = tuple(graphlib.TopologicalSorter(deps).static_order())
        except graphlib.CycleError:
            return None
        self._topo = order
        return order

    def _require_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            summary = "; ".join(v.detail for v in report.violations[:3])
            raise NetlistError(
                f"netlist {self.name or '<unnamed>'} is invalid "
                f"({len(report.violations)} violations): {summary}"
            )

    # -- simulation --------------------------------------------------

    def _evaluate(self, sources: Mapping[str, int]) -> dict[str, int]:
        """Propagate from explicit source values (inputs and constants)."""
        values = dict(sources)
        order = self._toposort()
        assert order is not None
        for idx in order:
            g = self.gates[idx]
            try:
                in_bits = tuple(values[w] for w in g.inputs)
            except KeyError as exc:
                raise NetlistError(f"wire {exc.args[0]} has no value during evaluation")
            out_bits = g.kind.apply(in_bits)
            for w, b in zip(g.outputs, out_bits):
                values[w] = b
        return values

    def simulate(self, inputs: Mapping[str, int]) -> dict[str, int]:
        """Forward-simulate and return the value of every wire.

        `inputs` must assign exactly the primary inputs; constants are
        taken from their declarations. Refuses invalid netlists.
        """
        self._require_valid()
        missing = [w for w in self.primary_inputs if w not in inputs]
        if missing:
            raise NetlistError(f"missing input assignments: {', '.join(missing)}")
        unknown = [w for w in inputs if w not in self.primary_inputs]
        if unknown:
            raise NetlistError(f"unknown inputs: {', '.join(unknown)}")
        for w, b in inputs.items():
            if b not in (0, 1):
                raise NetlistError(f"input {w} must be 0 or 1, got {b!r}")
        sources = dict(self.constants)
        sources.update(inputs)
        return self._evaluate(sources)

    def simulate_inverse(self, outputs: Mapping[str, int]) -> dict[str, int]:
        """Run the circuit backwards from a complete output assignment.

        Every primary output and every garbage output must be assigned;
        reversibility only holds on the full output tuple. Returns the
        recovered values of all primary inputs and constant wires (the
        constants a forward run must have used).
        """
        self._require_valid()
        classified = list(self.primary_outputs) + list(self.garbage_outputs)
        missing = [w for w in classified if w not in outputs]
        if missing:
            raise NetlistError(f"missing output assignments: {', '.join(missing)}")
        unknown = [w for w in outputs if w not in classified]
        if unknown:
            raise NetlistError(f"unknown outputs: {', '.join(unknown)}")
        values = {w: outputs[w] for w in classified}
        for w, b in values.items():
            if b not in (0, 1):
                raise NetlistError(f"output {w} must be 0 or 1, got {b!r}")
        order = self._toposort()
        assert order is not None
        for idx in reversed(order):
            g = self.gates[idx]
            out_bits = tuple(values[w] for w in g.outputs)
            in_bits = g.kind.invert(out_bits)
            for w, b in zip(g.inputs, in_bits):
                values[w] = b
        recovered = {w: values[w] for w in self.primary_inputs}
        recovered.update({w: values[w] for w in self.constants})
        return recovered

    def output_values(self, wire_values: Mapping[str, int]) -> dict[str, int]:
        """Project a full wire valuation onto the primary outputs."""
        return {w: wire_values[w] for w in self.primary_outputs}

    def garbage_values(self, wire_values: Mapping[str, int]) -> dict[str, int]:
        return {w: wire_values[w] for w in self.garbage_outputs}

    # -- cost ----------------------------------------------------------

    def cost_report(self) -> CostReport:
        """Gate, garbage, constant, and critical-path counts."""
        self._require_valid()
        depth: dict[str, int] = {w: 0 for w in self.primary_inputs}
        depth.update({w: 0 for w in self.constants})
        order = self._toposort()
        assert order is not None
        for idx in order:
            g = self.gates[idx]
            d = 1 + max((depth[w] for w in g.inputs), default=0)
            for w in g.outputs:
                depth[w] = d
        unit_delay = max((depth[w] for w in self.primary_outputs), default=0)
        return CostReport(
            gate_count=len(self.gates),
            garbage_count=len(self.garbage_outputs),
            unit_delay=unit_delay,
            constant_input_count=len(self.constants),
        )

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, {len(self.primary_inputs)} in, "
            f"{len(self.gates)} gates, {len(self.primary_outputs)} out, "
            f"{len(self.garbage_outputs)} garbage)"
        )


@dataclass(frozen=True)
class ReversibilityReport:
    """Result of a forward/inverse round-trip check."""

    mode: str
    cases: int
    ok: bool
    failures: tuple[str, ...] = field(default_factory=tuple)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "cases": self.cases,
            "ok": self.ok,
            "failures": list(self.failures),
        }


def check_reversibility(
    netlist: Netlist,
    exhaustive_limit: int = 12,
    samples: int = 1000,
    seed: int = 0,
    mode: str = "auto",
) -> ReversibilityReport:
    """Verify that the netlist is a bijection from inputs to outputs.

    Treats constant wires as free inputs so the full source tuple is
    exercised. Exhaustive when the source bit count is small enough (or
    forced), sampled otherwise. For each source vector the forward
    valuation is inverted and compared, and in exhaustive mode the
    output image is additionally checked for distinctness.
    """
    netlist._require_valid()
    source_wires = list(netlist.primary_inputs) + list(netlist.constants)
    n_bits = len(source_wires)
    if mode not in ("auto", "exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    exhaustive = mode == "exhaustive" or (mode == "auto" and n_bits <= exhaustive_limit)
    if exhaustive and n_bits > 24:
        raise ValueError(f"{n_bits} source bits is too many for exhaustive checking")
    if not exhaustive and samples < 1:
        raise ValueError(f"random mode needs samples >= 1, got {samples}")

    classified = list(netlist.primary_outputs) + list(netlist.garbage_outputs)
    failures: list[str] = []
    images: set[Bits] = set()

    if exhaustive:
        vectors: Iterable[Bits] = product((0, 1), repeat=n_bits)
        cases = 1 << n_bits
    else:
        rng = random.Random(seed)
        vectors = (
            tuple(rng.randint(0, 1) for _ in range(n_bits)) for _ in range(samples)
        )
        cases = samples

    for vec in vectors:
        sources = dict(zip(source_wires, vec))
        values = netlist._evaluate(sources)
        out_vec = tuple(values[w] for w in classified)
        if exhaustive:
            images.add(out_vec)
        recovered = netlist.simulate_inverse(dict(zip(classified, out_vec)))
        back = tuple(recovered[w] for w in source_wires)
        if back != vec:
            failures.append(f"round trip failed for sources {vec}: got {back}")
            if len(failures) >= 10:
                break

    if exhaustive and len(images) != cases and not failures:
        failures.append(
            f"output image has {len(images)} distinct vectors, expected {cases}"
        )
    return ReversibilityReport(
        mode="exhaustive" if exhaustive else "random",
        cases=cases,
        ok=not failures,
        failures=tuple(failures),
    )
