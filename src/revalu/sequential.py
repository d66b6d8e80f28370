"""Clocked reversible elements built on the Fredkin D latch.

The storage primitive is a level-sensitive D latch: one Fredkin gate
computes the next state (enable selects between held state and data)
and one Feynman gate copies it, one leg feeding the state back and the
other observable. Feedback lives in the stepper, not in the netlist:
each time step evaluates the acyclic combinational core once with the
previous state, so the core stays verifiable as an ordinary reversible
netlist.

Every element is a bank of such latches over one state list, and all
latches share one validated core. Clock and enable rails may drive any
number of latches; only data wires are subject to the single-sink
rule. A register is one rank of latches that share an enable; a
master-slave chain (a DFF is the one-flop case) is two, the masters at
even latches and the slaves at odd ones. Only this module knows that
layout. `_load` steps registers, and `_edge` and `_pulse` clock chains,
any number of elements at once: one core call per rank and clock phase,
evaluating the core once per latch, so no single netlist contains
fan-out. The elements' own methods and the Montgomery datapath both
clock through these helpers; the datapath's cycle is one `_load` and
one `_pulse`, five core calls. The element classes differ only in wiring.

Each latch discards two bits per step (the enable pass-through and the
Fredkin swap residue); the running total is tracked per element because
garbage accumulates over time in sequential reversible logic.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .arith import _check_width
from .bits import _require_int, from_bits, to_bits
from .gates import FEYNMAN, FREDKIN
from .netlist import CostReport, GateInstance, Netlist

#: Combinational core of the D latch, feedback edge cut.
#:
#: Inputs e (enable), d (data), q (previous state). The Fredkin gate is
#: wired so its middle output is e'*q + e*d, i.e. the next state; the
#: Feynman gate duplicates it into the feedback leg `qs` and the
#: observable leg `qo`.
LATCH_CORE = Netlist(
    primary_inputs=["e", "d", "q"],
    constants={"z": 0},
    gates=[
        GateInstance(FREDKIN, ("e", "q", "d"), ("et", "qn", "gs")),
        GateInstance(FEYNMAN, ("qn", "z"), ("qs", "qo")),
    ],
    primary_outputs=["qs", "qo"],
    garbage_outputs=["et", "gs"],
    name="dlatch_core",
)
_LATCH = LATCH_CORE._plan()
_QS, _QO = _LATCH.slot["qs"], _LATCH.slot["qo"]
_READ = (_QS, _QO)  # the core's columns a step reads; its garbage is never transposed
_LATCH_COST = LATCH_CORE.cost_report()

# Ranks of the state list: every latch, the masters, the slaves.
_ALL = slice(None)
_MASTERS = slice(0, None, 2)
_SLAVES = slice(1, None, 2)


def _input_bit(name: str, value: int) -> int:
    if type(value) is not int or value not in (0, 1):  # 1.0 and True are not bits
        raise ValueError(f"input {name!r} must be 0 or 1, got {value!r}")
    return value


def _one_bit(value: int) -> int:
    if type(value) is not int or value not in (0, 1):  # 1.0 and True are not bits
        raise ValueError(f"latch holds one bit, got {value!r}")
    return value


class ClockedCircuit:
    """A bank of D latches: the one discrete-time sequential element.

    Holds the latched bits in one state list and counts latch steps;
    subclasses supply the wiring: how many latches, which of them are
    observable, and which ranks `step` clocks with what data.
    Instances carry mutable state; drive each instance from a single
    stepper. `step` consumes one input map and returns the observable
    outputs for that time step.
    """

    name = ""
    #: The latches whose bits are the element's content, LSB first.
    _observable = _ALL
    #: The input names `step` reads.
    _inputs: tuple[str, ...] = ()

    def __init__(self, latches: int):
        self._q = [0] * latches
        self._latch_steps = 0

    @property
    def cores(self) -> tuple[Netlist, ...]:
        """One core per latch, all the same validated netlist."""
        return (LATCH_CORE,) * len(self._q)

    @property
    def state(self) -> tuple[int, ...]:
        """All latched bits, including any internal master stages."""
        return tuple(self._q)

    @property
    def bits(self) -> list[int]:
        """Observable content, LSB first."""
        return self._q[self._observable]

    @property
    def value(self) -> int:
        """Observable content as a little-endian integer."""
        return from_bits(self.bits)

    @property
    def garbage_bits_emitted(self) -> int:
        return self._latch_steps * len(LATCH_CORE.garbage_outputs)

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        raise NotImplementedError

    def _read(self, inputs: Mapping[str, int]) -> list[int]:
        """The bits of `self._inputs`, in order, read before any latch moves.

        Refuses the first missing input or non-bit, in that order, then
        any name `step` does not read; so a rejected step changes nothing.
        """
        bits = []
        for name in self._inputs:
            if name not in inputs:
                raise ValueError(f"missing input {name!r}")
            bits.append(_input_bit(name, inputs[name]))
        if len(inputs) > len(bits):
            unknown = [repr(name) for name in inputs if name not in self._inputs]
            raise ValueError(
                f"unknown input{'s' * (len(unknown) > 1)} {', '.join(unknown)} for "
                f"{self.name}; expected {', '.join(map(repr, self._inputs))}"
            )
        return bits

    def load_value(self, value: int) -> None:
        """Force the stored contents (models a parallel-load/reset rail)."""
        raise NotImplementedError

    def cost_report(self) -> CostReport:
        """The latch core's cost summed over the latches, field by field."""
        n = len(self._q)
        return CostReport(*(field * n for field in _LATCH_COST))


def _clock(ranks, e: int, data: Sequence[int]) -> Sequence[int]:
    """Step ranks of latches that share enable `e`, one data bit per latch.

    A rank is some elements and the slice of latches that steps in each.
    One core call runs the ranks in order and returns their observable
    outputs, concatenated. The rails span the merged rank, as a batch is
    only as long as its shortest column.
    """
    held: list[int] = []
    ends = []
    for circuits, latches in ranks:
        for circuit in circuits:
            held += circuit._q[latches]
            ends.append((circuit, latches, len(held)))
    rows = len(held)
    slots = _LATCH.forward_rows(((e,) * rows, data, held, (0,) * rows), _READ)  # e, d, q, z
    new = slots[_QS]
    start = 0
    for circuit, latches, end in ends:
        circuit._q[latches] = new[start:end]
        circuit._latch_steps += end - start
        start = end
    return slots[_QO]


def _feed(chains: Sequence[ClockedCircuit], sin: int) -> list[int]:
    """Each master's data, read before any flop moves: the slave above it, or `sin`."""
    feed: list[int] = []
    for chain in chains:
        feed += chain._q[3::2]
        feed.append(sin)
    return feed


def _load(registers: Sequence[ClockedCircuit], data: Sequence[int]) -> None:
    """Step every latch of `registers` with enable 1 on `data`."""
    _clock(((registers, _ALL),), 1, data)


def _edge(chains, cp: int, sin: int, holds=()) -> Sequence[int]:
    """Clock the chains' masters on their feeds at cp, then their slaves at not-cp.

    Holding registers step beside the slaves on data 0, which holds only
    at cp=1, where that enable is low. Returns the slaves' outputs, then any holds'.
    """
    masters = _clock(((chains, _MASTERS),), cp, _feed(chains, sin))
    zeros = (0,) * sum(len(register._q) for register in holds)
    return _clock(((chains, _SLAVES), (holds, _ALL)), 1 - cp, [*masters, *zeros])


def _pulse(chains, sin: int, holds=()) -> Sequence[int]:
    """One clock pulse: an edge at cp=1 with the holds, then one at cp=0."""
    _edge(chains, 1, sin, holds)
    return _edge(chains, 0, sin)


class DLatch(ClockedCircuit):
    """Level-sensitive D latch: q' = e*d + e'*q. Transparent while e=1."""

    name = "dlatch"
    _inputs = ("e", "d")

    def __init__(self):
        super().__init__(1)

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        e, d = self._read(inputs)
        return {"q": _clock((((self,), _ALL),), e, (d,))[0]}

    def load_value(self, value: int) -> None:
        self._q[0] = _one_bit(value)


class Register(ClockedCircuit):
    """Parallel bank of D latches with a shared enable.

    Inputs per step: `e` and `d0` .. `d{width-1}`; loads when e=1,
    holds when e=0.
    """

    name = "register"

    def __init__(self, width: int):
        self.width = _check_width(width)
        super().__init__(width)
        self._inputs = ("e", *(f"d{i}" for i in range(width)))

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        e, *data = self._read(inputs)
        return {f"q{i}": q for i, q in enumerate(_clock((((self,), _ALL),), e, data))}

    def load(self, value: int) -> None:
        """Clock the value in through the latches (one step with e=1)."""
        _load((self,), to_bits(_require_int("value", value), self.width))

    def load_value(self, value: int) -> None:
        self._q[:] = to_bits(_require_int("value", value), self.width)


class MasterSlaveDFF(ClockedCircuit):
    """Negative-edge D flip-flop from two latches.

    The master is transparent while cp=1, the slave while cp=0, so the
    observable output takes the captured data when the clock falls. The
    slave enable is the inverted clock; clock conditioning is treated
    as (irreversible) control plumbing outside the data path.
    """

    name = "dff"
    _observable = _SLAVES
    _inputs = ("cp", "d")

    def __init__(self):
        super().__init__(2)

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        cp, d = self._read(inputs)
        return {"q": _edge((self,), cp, d)[0]}

    def pulse(self, d: int) -> dict[str, int]:
        """One full clock pulse: evaluate at cp=1, then at cp=0."""
        return {"q": _pulse((self,), _input_bit("d", d))[0]}

    def load_value(self, value: int) -> None:
        self._q[:] = (_one_bit(value),) * 2


class ShiftRegister(ClockedCircuit):
    """Right-shifting register: a chain of master-slave flip-flops.

    Each clock pulse moves bit i+1 into bit i, feeds `sin` into the
    MSB, and drops the old LSB out of `sout`. With sin=0 one pulse
    halves the stored value, which is how the divide-by-two steps of
    the multiplier datapath are realized.
    """

    name = "shiftreg"
    _observable = _SLAVES
    _inputs = ("cp", "sin")

    def __init__(self, width: int):
        self.width = _check_width(width)
        super().__init__(2 * width)

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        cp, sin = self._read(inputs)
        return _shift_outputs(_edge((self,), cp, sin))

    def pulse(self, sin: int = 0) -> dict[str, int]:
        return _shift_outputs(_pulse((self,), _input_bit("sin", sin)))

    def load_value(self, value: int) -> None:
        self._force_bits(to_bits(_require_int("value", value), self.width))

    def _force_bits(self, bits: Sequence[int]) -> None:
        """As `load_value`, for a caller that holds the `width` bits, LSB first."""
        self._q[_MASTERS] = self._q[_SLAVES] = bits


def _shift_outputs(qs: Sequence[int]) -> dict[str, int]:
    outputs = {f"q{i}": q for i, q in enumerate(qs)}
    outputs["sout"] = qs[0]
    return outputs
