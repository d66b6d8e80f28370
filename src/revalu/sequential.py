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
rule. The unit of work is a rank: latches of one element that share
one enable. A register is one rank; a master-slave chain is two, the
masters and then the slaves. One call of `ClockedCircuit._clock` steps
any number of ranks that clock together, of one element or of several,
evaluating the core once per latch, so no single netlist contains
fan-out; the Montgomery datapath clocks its seven parts in five such
calls per cycle. The element classes differ only in wiring.

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

# Ranks of the state list: every latch, or the masters or slaves of
# master-slave pairs.
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
    Master-slave pair k uses latches 2k (master) and 2k+1 (slave), so
    the masters form one rank and the slaves another. Instances carry
    mutable state; drive each instance from a single stepper. `step`
    consumes one input map and returns the observable outputs for that
    time step.
    """

    name = ""
    #: The latches whose bits are the element's content, LSB first.
    _observable = _ALL
    #: The input names `step` reads.
    _inputs: tuple[str, ...] = ()

    def __init__(self, latches: int):
        self._q = [0] * latches
        self._latch_steps = 0

    @staticmethod
    def _clock(
        ranks: Sequence[tuple[ClockedCircuit, slice]], e: int, data: Sequence[int]
    ) -> Sequence[int]:
        """Step ranks of latches that share enable `e`, one data bit per latch.

        A rank is an element and a slice of its latches. One core call
        runs every rank, in order; each element takes its new states and
        its rank's length in latch steps. Returns the observable outputs,
        concatenated. The enable and constant rails span the merged rank,
        as the batch is only as long as its shortest column.
        """
        held: list[int] = []
        ends: list[int] = []
        for circuit, latches in ranks:
            held += circuit._q[latches]
            ends.append(len(held))
        rows = len(held)
        slots = _LATCH.forward_rows(((e,) * rows, data, held, (0,) * rows), _READ)  # e, d, q, z
        new = slots[_QS]
        start = 0
        for (circuit, latches), end in zip(ranks, ends):
            circuit._q[latches] = new[start:end]
            circuit._latch_steps += end - start
            start = end
        return slots[_QO]

    def _edge(self, cp: int, feed: Sequence[int]) -> Sequence[int]:
        """Clock the masters on `feed` at cp, then the slaves on the masters at not-cp."""
        masters = self._clock(((self, _MASTERS),), cp, feed)
        return self._clock(((self, _SLAVES),), 1 - cp, masters)

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


class DLatch(ClockedCircuit):
    """Level-sensitive D latch: q' = e*d + e'*q. Transparent while e=1."""

    name = "dlatch"
    _inputs = ("e", "d")

    def __init__(self):
        super().__init__(1)

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        e, d = self._read(inputs)
        return {"q": self._clock(((self, _ALL),), e, (d,))[0]}

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
        return {f"q{i}": q for i, q in enumerate(self._clock(((self, _ALL),), e, data))}

    def load(self, value: int) -> None:
        """Clock the value in through the latches (one step with e=1)."""
        self._clock(((self, _ALL),), 1, to_bits(_require_int("value", value), self.width))

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
        return {"q": self._edge(cp, (d,))[0]}

    def pulse(self, d: int) -> dict[str, int]:
        """One full clock pulse: evaluate at cp=1, then at cp=0."""
        d = _input_bit("d", d)
        self._edge(1, (d,))
        return {"q": self._edge(0, (d,))[0]}

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
        return _shift_outputs(self._edge(cp, self._feed(sin)))

    def _feed(self, sin: int) -> list[int]:
        # Each master's data: its upper neighbour's slave output, read
        # before any flop moves; `sin` for the MSB.
        return self._q[3::2] + [sin]

    def pulse(self, sin: int = 0) -> dict[str, int]:
        sin = _input_bit("sin", sin)
        self._edge(1, self._feed(sin))
        return _shift_outputs(self._edge(0, self._feed(sin)))

    def load_value(self, value: int) -> None:
        self._force_bits(to_bits(_require_int("value", value), self.width))

    def _force_bits(self, bits: Sequence[int]) -> None:
        """As `load_value`, for a caller that holds the `width` bits, LSB first."""
        self._q[_MASTERS] = self._q[_SLAVES] = bits


def _shift_outputs(qs: Sequence[int]) -> dict[str, int]:
    outputs = {f"q{i}": q for i, q in enumerate(qs)}
    outputs["sout"] = qs[0]
    return outputs
