"""Acyclic combinational netlists.

A netlist is a set of named wires connected by gate instances. The
wiring discipline is strict: every wire has exactly one driver
(primary input, declared constant, or one gate output) and at most one
sink (one gate input port, or a classification as primary or garbage
output). Fan-out is a hard violation; duplication must be done with
explicit copy gates. Under that discipline a netlist of bijective gates
maps its input-plus-constant vector bijectively onto its
output-plus-garbage vector, and can be simulated both forwards and
backwards; one with a lossy gate runs forwards only.

Validation is one pass over the netlist that labels every driver and
sink of every wire, building each gate's `gate i (KIND)` label once;
each rule then reads its violations from those labels. The gate list
is kept as the topological order when it already is one, as it is for
every generated netlist; otherwise `graphlib` orders it, taking ready
gates in index order, or finds the cycle. The validation report, the
order and the plan are cached properties, each computed on first use.

Evaluation runs a plan compiled once per validated netlist: every wire
gets a slot in a flat list of bits, and each gate reads and writes
fixed slots in topological order. Backwards is a second plan of the
same kind, with the gates reversed and `invert` in place of `apply`.
Both walk one compiled step list, a kind and a slot gather per gate:
the scalar `forward` appends each gate's result to the bit list, and
the batch `forward_rows` hands a gate's result rows straight to the
gate that reads them, building columns only for the slots its caller
reads. Only this module compiles, runs and reads plans. Other modules
go through `simulate` and `simulate_inverse`, or through a netlist's
two runners, which check arguments once per call, not per gate:
`_runner` (bits in, words out: the datapath cores) and `_row_runner`
(columns in, the columns of some wires out: the latch core).
`check_reversibility` runs blocks of source vectors through both plans.

Every gate evaluation, in any runner, is one `GateKind.apply` call
(`invert` when running backwards), looked up on the kind when the
runner runs, never bound ahead of time. perfbench's traced phase and
`test_gate_evaluations_and_garbage_per_run` count these calls against
the structural count, so a kernel that evaluates several gates or
latches per call fails them until ROADMAP items 1 and 2 land.

`forward_rows` binds a gate's `apply` once per call and makes the
per-row calls from a list comprehension, not through C `map`. From
CPython 3.11 on, a Python function called from bytecode runs inline in
the caller's interpreter loop, while one called from C `map` enters a
new one. Per call, map against comprehension measured 82 -> 61 ns on
3.11.7, 87 -> 57 ns on 3.12.1 and 96 -> 53 ns on 3.13.0; on 3.10.13,
the one version where the comprehension is slower, 97 -> 105 ns. Keep
the comprehension: turning it back into `map` slows every latch rank
and every reversibility block on 3.11 and later.

The four reports are ``typing.NamedTuple``s, cheap to define at import;
`GateInstance` stays a frozen dataclass because its constructor checks arity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import chain, islice
from operator import add, itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .bits import _require_bit, _require_int
from .gates import GateKind

Bits = tuple[int, ...]

#: log2 of the source vectors per block in `check_reversibility`. On an
#: exhaustive cpa4 check, blocks of 256 rows ran fastest; blocks of 4096
#: ran about 40% slower and more than doubled the peak traced memory.
_BLOCK_BITS = 8

#: The most source bits that `check_reversibility`'s auto mode checks exhaustively.
_AUTO_EXHAUSTIVE_BITS = 12


class NetlistError(ValueError):
    """Raised when an operation is attempted on an invalid netlist."""


@dataclass(frozen=True, init=False)
class GateInstance:
    """One placed gate: a kind plus its input and output wire names."""

    kind: GateKind
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    def __init__(self, kind: GateKind, inputs: Iterable[str], outputs: Iterable[str]):
        inputs, outputs = tuple(inputs), tuple(outputs)
        if len(inputs) != kind.arity or len(outputs) != kind.n_out:
            raise ValueError(
                f"{kind.name}: needs {kind.arity} inputs and {kind.n_out} outputs, "
                f"got {len(inputs)} -> {len(outputs)}"
            )
        # One dict in place of a frozen dataclass's one-field-at-a-time setattrs.
        object.__setattr__(self, "__dict__", {"kind": kind, "inputs": inputs, "outputs": outputs})


class Violation(NamedTuple):
    kind: str
    detail: str

    def as_dict(self) -> dict:
        return self._asdict()


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [v.as_dict() for v in self.violations],
        }


class CostReport(NamedTuple):
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
        return self._asdict()

    def __add__(self, other: "CostReport") -> "CostReport":
        return CostReport(*map(add, self, other))


class Netlist:
    """Combinational circuit. Treat as immutable once built."""

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
            _require_bit(f"constant {wire}", value)

    # -- structure ---------------------------------------------------

    @property
    def wires(self) -> tuple[str, ...]:
        """All wire names, deduplicated, in order of first appearance: inputs,
        constants, each gate's inputs then outputs, primary outputs, then garbage."""
        gate_wires = chain.from_iterable([(*g.inputs, *g.outputs) for g in self.gates])
        return tuple(dict.fromkeys(chain(self.primary_inputs, self.constants, gate_wires,
                                         self.primary_outputs, self.garbage_outputs)))

    def validate(self) -> ValidationReport:
        """Check the wiring discipline and report every violation found, once per netlist.

        Violation kinds, in report order: ``multiply-driven``, ``undriven``,
        ``fan-out``, ``unclassified-output``, ``dangling-input``, ``cycle``.
        """
        return self._validation

    @cached_property
    def _validation(self) -> ValidationReport:
        """`validate`'s report, read from one pass that labels every driver and sink."""
        # Labels per wire, wires in first-use order: the report does not depend on hashing.
        drivers: dict[str, list[str]] = {}
        sinks: dict[str, list[str]] = {}

        def note(labels: dict[str, list[str]], ends: Iterable[str], label: str) -> None:
            for w in ends:
                labels.setdefault(w, []).append(label)
        note(drivers, self.primary_inputs, "input")
        note(drivers, self.constants, "const")
        for i, g in enumerate(self.gates):
            label = f"gate {i} ({g.kind.name})"
            note(sinks, g.inputs, label)
            note(drivers, g.outputs, label)
        note(sinks, self.primary_outputs, "output")
        note(sinks, self.garbage_outputs, "garbage")

        violations = [Violation("multiply-driven", f"wire {w} driven by {', '.join(who)}")
                      for w, who in drivers.items() if len(who) > 1]
        violations += [Violation("undriven", f"wire {w} has no driver")
                       for w in sinks if w not in drivers]
        violations += [Violation("fan-out", f"wire {w} feeds {len(who)} sinks: {', '.join(who)}")
                       for w, who in sinks.items() if len(who) > 1]
        violations += [
            Violation("unclassified-output", f"gate output {w} is neither consumed nor classified")
            for w in dict.fromkeys(chain.from_iterable([g.outputs for g in self.gates]))
            if w not in sinks
        ]
        violations += [
            Violation("dangling-input",
                      f"input {w} is neither consumed nor classified as an output")
            for w in (*self.primary_inputs, *self.constants)
            if w not in sinks and len(drivers[w]) == 1
        ]
        if self._toposort is None:
            violations.append(Violation("cycle", "gate dependencies contain a cycle"))
        return ValidationReport(tuple(violations))

    @cached_property
    def _toposort(self) -> tuple[int, ...] | None:
        """Topological order of gate indices, or None on a cycle.

        The list order, when it is already topological (as it is for
        every generated netlist); otherwise `graphlib`'s, which takes
        ready gates in index order because every gate is added first. A
        gate depends on the first gate that drives each of its inputs.
        """
        gates = self.gates
        pending = {w for g in gates for w in g.outputs}  # not yet driven
        for g in gates:
            if not pending.isdisjoint(g.inputs):
                break
            pending.difference_update(g.outputs)
        else:
            return tuple(range(len(gates)))

        producer: dict[str, int] = {}
        for i in reversed(range(len(gates))):  # the first driver wins
            producer.update(dict.fromkeys(gates[i].outputs, i))
        sorter = TopologicalSorter(dict.fromkeys(range(len(gates)), ()))
        for i, g in enumerate(gates):
            sorter.add(i, *{producer[w] for w in g.inputs if w in producer})
        try:
            return tuple(sorter.static_order())
        except CycleError:
            return None

    def _require_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            summary = "; ".join(v.detail for v in report.violations[:3])
            raise NetlistError(
                f"netlist {self.name or '<unnamed>'} is invalid "
                f"({len(report.violations)} violations): {summary}"
            )

    @cached_property
    def _plan(self) -> "_Plan":
        """The evaluation plan, compiled on first use. Refuses invalid netlists."""
        self._require_valid()
        gates = [self.gates[i] for i in self._toposort]
        return _Plan((*self.primary_inputs, *self.constants),
                     [(g.kind, g.inputs, g.outputs) for g in gates],
                     (*self.primary_outputs, *self.garbage_outputs))

    # -- simulation --------------------------------------------------

    def simulate(self, inputs: Mapping[str, int]) -> dict[str, int]:
        """Forward-simulate and return the value of every wire.

        `inputs` must assign exactly the primary inputs; constants are
        taken from their declarations. Refuses invalid netlists.
        """
        plan = self._plan
        bits = _assigned(inputs, self.primary_inputs, "input", inputs.items())
        bits += self.constants.values()
        return dict(zip(plan.wires, plan.forward(bits)))

    def simulate_inverse(self, outputs: Mapping[str, int]) -> dict[str, int]:
        """Run the circuit backwards from a complete output assignment.

        Every primary output and every garbage output must be assigned;
        reversibility only holds on the full output tuple. Returns the
        recovered values of all primary inputs and constant wires (the
        constants a forward run must have used).
        """
        plan = self._plan
        back = plan.backwards
        bits = back.forward(_assigned(outputs, plan.outputs, "output"))
        return dict(zip(plan.sources, map(bits.__getitem__, back.output_slots)))

    def output_values(self, wire_values: Mapping[str, int]) -> dict[str, int]:
        """Project a full wire valuation onto the primary outputs."""
        return {w: wire_values[w] for w in self.primary_outputs}

    def garbage_values(self, wire_values: Mapping[str, int]) -> dict[str, int]:
        return {w: wire_values[w] for w in self.garbage_outputs}

    def _runner(self, *words: Sequence[str]):
        """Scalar runner: the primary input bits in, each word's bits out, in wire order."""
        plan = self._plan
        consts = [*self.constants.values()]
        picks = [_gather([*map(plan.slot.__getitem__, word)]) for word in words]

        def run(bits: list[int]) -> list[tuple[int, ...]]:
            _require_bits(bits, zip(plan.sources, bits), "input")
            out = plan.forward(bits + consts)
            return [pick(out) for pick in picks]

        return run

    def _row_runner(self, *wires: str):
        """Batch runner: one column per primary input in, only the columns of `wires` out."""
        plan = self._plan
        read = tuple(map(plan.slot.__getitem__, wires))
        pick = _gather(read)
        consts = [*self.constants.values()]

        def run(*columns: Sequence[int]) -> tuple[Sequence[int], ...]:
            rows = len(columns[0]) if columns else 0  # no shorter than the batch, which zip ends
            return pick(plan.forward_rows([*columns, *[(c,) * rows for c in consts]], read))

        return run

    # -- cost ----------------------------------------------------------

    def cost_report(self) -> CostReport:
        """Gate, garbage, constant, and critical-path counts; the path is read off the plan."""
        plan = self._plan
        depth = [0] * len(plan.wires)  # each source 0, each gate output 1 + its deepest input
        for _, in_slots, lo, hi in plan._gates:
            depth[lo:hi] = [1 + max(map(depth.__getitem__, in_slots))] * (hi - lo)
        primary = map(depth.__getitem__, plan.output_slots[:len(self.primary_outputs)])
        return CostReport(len(self.gates), len(self.garbage_outputs), max(primary, default=0),
                          len(self.constants))

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, {len(self.primary_inputs)} in, "
            f"{len(self.gates)} gates, {len(self.primary_outputs)} out, "
            f"{len(self.garbage_outputs)} garbage)"
        )


def _assigned(values: Mapping[str, int], wires: Sequence[str], what: str,
              named: Iterable[tuple[str, int]] | None = None) -> list:
    """The bits `values` gives `wires`, in order, if it assigns exactly those, each int 0/1.

    Names missing wires in `wires` order, unknown ones in mapping order,
    and the first non-bit in the order of `named` (default: `wires`).
    """
    if len(values) != len(wires) or not all(map(values.__contains__, wires)):
        missing = [w for w in wires if w not in values]
        if missing:
            raise NetlistError(f"missing {what} assignments: {', '.join(missing)}")
        known = set(wires)
        raise NetlistError(f"unknown {what}s: {', '.join(w for w in values if w not in known)}")
    bits = [*map(values.__getitem__, wires)]
    _require_bits(bits, zip(wires, bits) if named is None else named, what, exact=True)
    return bits


def _require_bits(bits: list, named: Iterable[tuple[str, int]], what: str, exact=False) -> None:
    """Raise on the first non-bit of `named` unless every one of `bits` is 0/1.

    `exact` also refuses True and 1.0; the runners fed from register bits skip it.
    """
    if bits.count(0) + bits.count(1) != len(bits) or exact and not {*map(type, bits)} <= {int}:
        for w, b in named:
            if b not in (0, 1) or exact and type(b) is not int:
                raise NetlistError(f"{what} {w} must be 0 or 1, got {b!r}")


def _gather(slots: Sequence[int]):
    """Callable that picks `slots`, at least one, out of a bit list as a tuple."""
    if len(slots) == 1:
        (slot,) = slots
        return lambda bits: (bits[slot],)
    return itemgetter(*slots)


class _Inverted:
    """A gate kind run backwards: its `apply` is the kind's `invert`, found at call time."""

    __slots__ = ("kind",)
    apply = property(lambda self: self.kind.invert)

    def __init__(self, kind: GateKind):
        self.kind = kind


class _Plan:
    """Sources, steps (kind, input wires, output wires) and outputs, compiled to slots.

    The slots are the sources, then each step's outputs in order, so
    every step writes one contiguous run of slots above those it reads.
    Each step compiles to its kind and a gather of its input slots; both
    runners walk that one list. `forward` runs one vector; `forward_rows`
    runs a batch of them (a rank of latches sharing one core, a block of
    reversibility cases) held as one column of bits per slot. A
    netlist's plan runs its gates in topological order; `backwards`
    undoes it.
    """

    def __init__(self, sources: Sequence[str], steps: list[tuple], outputs: Sequence[str]):
        self.sources = tuple(sources)
        self.wires = (*self.sources, *chain.from_iterable([outs for _, _, outs in steps]))
        self.outputs = tuple(outputs)
        self.slot = dict(zip(self.wires, range(len(self.wires))))
        self.output_slots = [self.slot[w] for w in self.outputs]
        self._pad = [None] * (len(self.wires) - len(self.sources))
        self._programs: dict = {}  # `forward_rows` steps by the slots read
        self._gates = []  # per step: kind, input slots, output slots lo:hi
        self._steps = []  # per step: kind, input gather; the program both runners walk
        slot_of = self.slot.__getitem__
        lo = len(self.sources)
        for kind, ins, outs in steps:
            hi = lo + len(outs)
            in_slots = [*map(slot_of, ins)]
            self._gates.append((kind, in_slots, lo, hi))
            self._steps.append((kind, _gather(in_slots)))
            lo = hi

    @cached_property
    def backwards(self) -> "_Plan":
        """From the outputs back to the sources: each step reversed, in reverse order.

        The single-sink rule makes each wire the output of one step.
        """
        wires = self.wires
        steps = [
            (_Inverted(kind), wires[lo:hi], [wires[s] for s in in_slots])
            for kind, in_slots, lo, hi in reversed(self._gates)
        ]
        return _Plan(self.outputs, steps, self.sources)

    def _batch_program(self, read: tuple[int, ...] | None) -> list[tuple]:
        """The steps of `forward_rows` for a caller that reads the slots `read`.

        Per gate: kind, gather, output slots lo:hi, and None if the
        caller reads one of them, which transposes the gate's result
        rows into columns; otherwise the outputs another gate reads,
        each handed over as a one-shot iterator: [(slot, pick), ...].
        The single-sink rule makes that reader the only one.
        """
        program = self._programs.get(read)
        if program is None:
            wanted = range(len(self.wires)) if read is None else frozenset(read)
            gate_read = {s for _, in_slots, _, _ in self._gates for s in in_slots}
            program = self._programs[read] = [
                (kind, gather, lo, hi,
                 None if any(s in wanted for s in range(lo, hi))
                 else [(s, itemgetter(s - lo)) for s in range(lo, hi) if s in gate_read])
                for (kind, gather), (_, _, lo, hi) in zip(self._steps, self._gates)
            ]
        return program

    def forward(self, sources: Sequence[int]) -> list:
        """Run the steps from the source bits; return all slots.

        Each step appends `kind.apply` of its gathered inputs, which
        writes its output slots because they follow the slots before it.
        """
        bits = [*sources]
        for kind, gather in self._steps:
            bits += kind.apply(gather(bits))
        return bits

    def forward_rows(
        self, columns: Sequence[Sequence[int]], read: tuple[int, ...] | None = None
    ) -> list[Sequence[int]]:
        """Run `forward` once per row of a batch held by column.

        `columns[k]` holds source k's bit in every row; a batch has as
        many rows as its shortest column, so if any column is empty,
        every slot of the result is empty. Each gate runs on all rows,
        one `kind.apply` call per row, before the next gate: `apply` is
        bound once per gate per call and called from a list
        comprehension, which is faster than C `map` from CPython 3.11 on
        (see the module docstring). The result holds the bits of every
        slot in `read` (default: every slot) in every row, the same way.
        A gate none of whose outputs is in `read` is not transposed into
        columns: its result rows go straight to the gates that read
        them, and its slots in the result hold no column.
        """
        if not all(columns):  # any empty column empties the batch
            return [()] * len(self.wires)
        cols = [*columns, *self._pad]
        for kind, gather, lo, hi, handoffs in self._batch_program(read):
            apply = kind.apply
            rows = [apply(row) for row in zip(*gather(cols))]
            if handoffs is None:
                cols[lo:hi] = zip(*rows)
            else:
                for slot, pick in handoffs:
                    cols[slot] = map(pick, rows)
        return cols


class ReversibilityReport(NamedTuple):
    """Result of a forward/inverse round-trip check."""

    mode: str
    cases: int
    ok: bool
    failures: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {**self._asdict(), "failures": list(self.failures)}


def check_reversibility(
    netlist: Netlist,
    samples: int = 1000,
    seed: int = 0,
    mode: str = "auto",
) -> ReversibilityReport:
    """Verify that the netlist is a bijection from inputs to outputs.

    Treats constant wires as free inputs so the full source tuple is
    exercised. `mode` "exhaustive" runs every source vector and
    "random" runs `samples` vectors drawn with `seed`; "auto" is
    exhaustive at up to 12 source bits and random above. A netlist
    without sources takes the same path: it has no gates, and each block
    of its cases holds no columns. Every source vector is run forwards,
    its classified outputs are run backwards, and the recovered sources
    are compared with the originals. A gate that is not bijective
    refuses to invert, so a netlist with one raises `ValueError` naming
    its kind instead of returning a report. The cases run in blocks of
    256, one column per source, through the plan's `forward_rows` and
    then its `backwards` plan's; only a block whose recovered columns
    differ is scanned row by row, in case order, for the failure
    messages (at most 10, after which no further block runs).

    In exhaustive mode no output image is collected, because the round
    trip already proves injectivity: if inverse(forward(x)) == x for
    every source vector x, then forward(x) == forward(x') gives
    x == inverse(forward(x)) == inverse(forward(x')) == x', so the 2^n
    source vectors have 2^n distinct images. A check that the image has
    2^n distinct vectors could therefore fail only when some round trip
    had already failed, and that failure is reported. The 24-bit cap on
    exhaustive mode bounds the check's running time; its memory does not
    grow with the case count.
    """
    plan = netlist._plan
    n_bits = len(plan.sources)
    if mode not in ("auto", "exhaustive", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    exhaustive = _runs_exhaustively(mode, n_bits)
    if exhaustive and n_bits > 24:
        raise ValueError(f"{n_bits} source bits is too many for exhaustive checking")
    if not exhaustive and _require_int("samples", samples) < 1:
        raise ValueError(f"random mode needs samples >= 1, got {samples}")
    if exhaustive:
        blocks = _exhaustive_blocks(n_bits)
    else:
        blocks = _random_blocks(n_bits, samples, random.Random(seed))
    failures: list[str] = []
    back_plan = plan.backwards
    read, back_read = tuple(plan.output_slots), tuple(back_plan.output_slots)
    for columns in blocks:
        slots = plan.forward_rows(columns, read)
        slots = back_plan.forward_rows([slots[s] for s in read], back_read)
        back = [slots[s] for s in back_read]
        if back == columns:
            continue
        mismatches = (
            f"round trip failed for sources {vec}: got {got}"
            for vec, got in zip(zip(*columns), zip(*back))
            if got != vec
        )
        failures += islice(mismatches, 10 - len(failures))
        if len(failures) == 10:
            break

    return ReversibilityReport(
        mode="exhaustive" if exhaustive else "random",
        cases=1 << n_bits if exhaustive else samples,
        ok=not failures,
        failures=tuple(failures),
    )


def _runs_exhaustively(mode: str, n_bits: int) -> bool:
    """Whether `check_reversibility` in `mode` runs every vector of `n_bits` source bits."""
    return mode == "exhaustive" or (mode == "auto" and n_bits <= _AUTO_EXHAUSTIVE_BITS)


def _exhaustive_blocks(n_bits: int) -> Iterable[list[Bits]]:
    """Every source vector in `product((0, 1), repeat=n_bits)` order, by block.

    Source k of case i is bit `n_bits - 1 - k` of i. The low bits of i
    count through each block the same way, so their columns are built
    once; every higher bit is one constant column per block.
    """
    low = min(n_bits, _BLOCK_BITS)
    rows = range(1 << low)
    counting = [tuple((i >> s) & 1 for i in rows) for s in range(low - 1, -1, -1)]
    constant = ((0,) * len(rows), (1,) * len(rows))
    for start in range(0, 1 << n_bits, len(rows)):
        high = [constant[(start >> s) & 1] for s in range(n_bits - 1, low - 1, -1)]
        yield high + counting


def _random_blocks(n_bits: int, samples: int, rng: random.Random) -> Iterable[list[Bits]]:
    """`samples` random source vectors by block, drawn row by row as they are needed.

    Each bit is drawn as `rng.randint(0, 1)` draws it: `getrandbits(2)`,
    drawn again while it is 2 or 3. Calling `getrandbits` directly takes
    the same draws, so a seed gives the same vectors, in about a third
    of the time.
    """
    getrandbits = rng.getrandbits
    for start in range(0, samples, 1 << _BLOCK_BITS):
        drawn = []
        for _ in range(min(1 << _BLOCK_BITS, samples - start) * n_bits):
            bit = getrandbits(2)
            while bit > 1:
                bit = getrandbits(2)
            drawn.append(bit)
        yield [tuple(drawn[k::n_bits]) for k in range(n_bits)]
