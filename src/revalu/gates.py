"""Primitive gates and their truth maps.

A gate maps n input bits to m output bits through an enumerated table
built once from its defining boolean equations, so all downstream
checks (inversion, conservativity, one-through detection) are
table-driven rather than formula-driven. A reversible gate is a
bijection, so m = n; a lossy gate erases what its table merges.

The standard library of this package, all reversible:

* ``FEYNMAN`` (FG, 2x2): (a, b) -> (a, a xor b). Copies a when b = 0.
* ``TOFFOLI`` (TG, 3x3): (a, b, c) -> (a, b, c xor (a and b)).
* ``FREDKIN`` (FRG, 3x3): controlled swap; conservative.
* ``TSG`` (4x4): one-through gate that computes a full adder when its
  third input is held at 0: inputs (a, b, 0, cin) yield sum on the
  third output and carry on the fourth.

The lossy ``AND``, ``OR``, ``XOR`` (2 -> 1) and ``NOT`` (1 -> 1) build
the conventional baseline adder; they are not in ``STANDARD_GATES``.
``GateReport`` is a ``typing.NamedTuple``, cheap to define at import.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Mapping, NamedTuple

Bits = tuple[int, ...]

# Exhaustive-table construction and verification are capped here; larger
# gates would need 2^17+ table entries and are outside this package's scope.
MAX_ENUMERABLE_ARITY = 16


class GateKind:
    """A named gate defined by an explicit truth table.

    The table must be total (one entry per input pattern of width
    `arity`), and its values all have one width, `n_out`. Bijectivity
    is a property of the supplied table: a gate whose table is not a
    bijection (a non-injective table, or one with n_out != arity) can
    be constructed, evaluated and inspected (see :func:`verify_gate`)
    but refuses to invert.
    """

    __slots__ = ("name", "arity", "n_out", "_table", "_inverse", "conservative")

    def __init__(self, name: str, arity: int, table: Mapping[Bits, Bits]):
        if arity < 1:
            raise ValueError(f"gate arity must be positive, got {arity}")
        if arity > MAX_ENUMERABLE_ARITY:
            raise ValueError(
                f"gate arity {arity} exceeds the enumerable limit "
                f"{MAX_ENUMERABLE_ARITY}"
            )
        self.name = name
        self.arity = arity
        expected = 1 << arity
        if len(table) != expected:
            raise ValueError(
                f"{name}: truth table has {len(table)} entries, "
                f"expected {expected}"
            )
        self.n_out = n_out = len(next(iter(table.values())))
        patterns = set(product((0, 1), repeat=arity))
        for key, value in table.items():
            if len(key) != arity or len(value) != n_out:
                raise ValueError(f"{name}: table entry {key} -> {value} has wrong width")
            if key not in patterns or not {0, 1}.issuperset(value):
                raise ValueError(f"{name}: table entry {key} -> {value} is not 0/1")
        self._table = dict(table)
        inverse = {v: k for k, v in self._table.items()}
        self._inverse = inverse if n_out == arity and len(inverse) == expected else None
        self.conservative = all(
            sum(k) == sum(v) for k, v in self._table.items()
        )

    @classmethod
    def from_function(
        cls, name: str, arity: int, fn: Callable[..., Bits]
    ) -> "GateKind":
        """Enumerate `fn` over all input patterns into a truth table."""
        if arity > MAX_ENUMERABLE_ARITY:
            raise ValueError(
                f"gate arity {arity} exceeds the enumerable limit "
                f"{MAX_ENUMERABLE_ARITY}"
            )
        table = {bits: tuple(fn(*bits)) for bits in product((0, 1), repeat=arity)}
        return cls(name, arity, table)

    @property
    def is_bijective(self) -> bool:
        return self._inverse is not None

    @property
    def truth_table(self) -> dict[Bits, Bits]:
        """Copy of the full enumerated truth map."""
        return dict(self._table)

    # The tables hold exactly the valid bit tuples, so a hit is the whole
    # check; only a miss (or an unhashable argument) runs the slow checks.

    def apply(self, inputs: Bits) -> Bits:
        try:
            return self._table[inputs]
        except (KeyError, TypeError):
            pass
        self._check_width(inputs, self.arity)
        return self._table[tuple(inputs)]

    def invert(self, outputs: Bits) -> Bits:
        try:
            return self._inverse[outputs]
        except (KeyError, TypeError):
            pass
        self._check_width(outputs, self.n_out)
        if self._inverse is None:
            raise ValueError(f"{self.name}: truth table is not bijective, cannot invert")
        return self._inverse[tuple(outputs)]

    def _check_width(self, bits, width: int) -> None:
        if len(bits) != width:
            raise ValueError(f"{self.name}: expected {width} bits, got {len(bits)}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"{self.name}: inputs must be 0/1, got {tuple(bits)}")

    def __repr__(self) -> str:
        return f"GateKind({self.name!r}, arity={self.arity})"


def _feynman(a, b):
    return (a, a ^ b)


def _toffoli(a, b, c):
    return (a, b, c ^ (a & b))


def _fredkin(x1, x2, x3):
    # Controlled swap of x2/x3 under x1.
    y2 = ((1 ^ x1) & x2) | (x1 & x3)
    y3 = (x1 & x2) | ((1 ^ x1) & x3)
    return (x1, y2, y3)


def _tsg(a, b, c, d):
    q = ((1 ^ a) & (1 ^ c)) ^ (1 ^ b)
    return (a, q, q ^ d, (q & d) ^ ((a & b) ^ c))


FEYNMAN = GateKind.from_function("FG", 2, _feynman)
TOFFOLI = GateKind.from_function("TG", 3, _toffoli)
FREDKIN = GateKind.from_function("FRG", 3, _fredkin)
TSG = GateKind.from_function("TSG", 4, _tsg)

AND = GateKind.from_function("AND", 2, lambda a, b: (a & b,))
OR = GateKind.from_function("OR", 2, lambda a, b: (a | b,))
XOR = GateKind.from_function("XOR", 2, lambda a, b: (a ^ b,))
NOT = GateKind.from_function("NOT", 1, lambda a: (1 ^ a,))

#: Gate lookup used by the netlist text format.
STANDARD_GATES: dict[str, GateKind] = {
    g.name: g for g in (FEYNMAN, TOFFOLI, FREDKIN, TSG)
}


class GateReport(NamedTuple):
    """Exhaustive verification result for a single gate."""

    name: str
    arity: int
    bijective: bool
    conservative: bool
    one_through_inputs: frozenset[int]

    def as_dict(self) -> dict:
        return {**self._asdict(), "one_through_inputs": sorted(self.one_through_inputs)}


def verify_gate(gate: GateKind) -> GateReport:
    """Check a gate's table exhaustively.

    Reports whether the table is a bijection (never, when the gate has
    more or fewer outputs than inputs), whether it preserves Hamming
    weight, and which input positions pass through verbatim to some
    output position on every pattern. `GateKind` refuses an arity the
    enumeration could not cover.
    """
    patterns = list(product((0, 1), repeat=gate.arity))
    images = {gate.apply(p) for p in patterns}
    bijective = gate.n_out == gate.arity and len(images) == len(patterns)
    conservative = all(sum(p) == sum(gate.apply(p)) for p in patterns)
    one_through = frozenset(
        i
        for i in range(gate.arity)
        if any(
            all(gate.apply(p)[j] == p[i] for p in patterns)
            for j in range(gate.n_out)
        )
    )
    return GateReport(gate.name, gate.arity, bijective, conservative, one_through)
