"""Generators for the adder netlists.

All reversible adders are compositions of the one-gate TSG full adder,
(a, b, 0, cin) -> (g, g, sum, carry). ``_full_adder`` is the one place
that places it and marks its two pass-through outputs as garbage, and
``tsg_as_full_adder`` evaluates it on bits:

* ``build_cpa``: ripple carry-propagate chain, one gate per bit.
* ``build_csa42``: per-slice 4-to-2 compressor (two full adders), the
  first adder's carry feeding the next slice's second adder.
* ``build_csa52``: per-slice 5-to-2 compressor (three full adders) with
  two lateral carry chains.

The Montgomery datapath's carry-save stages place their full adders and
Feynman copies through the same helpers. Operands are little-endian
buses (`a0` is the LSB); garbage grows linearly with width.
``build_irreversible_cpa`` produces a conventional AND/XOR/OR ripple
adder with identical arithmetic behavior, used as the lossy baseline for
erasure accounting: an ordinary netlist of lossy gates, which copies
each wire it reads twice with a FEYNMAN gate (``_copy``) and runs
forwards only.
"""

from __future__ import annotations

from .gates import AND, FEYNMAN, OR, TSG, XOR
from .netlist import GateInstance, Netlist


def _check_width(width: int) -> int:
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    return width


def _bus(name: str, width: int) -> list[str]:
    """Little-endian bus wires `name0` .. `name{width-1}`."""
    return [f"{name}{i}" for i in range(width)]


def _zeros(*names: str, width: int) -> dict[str, int]:
    """Constant-0 wires, bus by bus: `names[0]0` .. then `names[1]0` ..."""
    return {wire: 0 for name in names for wire in _bus(name, width)}


def _full_adder(gates: list, garbage: list, a, b, zero, cin, waste, s, cout) -> None:
    """Place one TSG full adder (a, b, zero, cin) -> (*waste, s, cout).

    `zero` must be a constant 0, declared by the caller; the two
    pass-through outputs `waste` go to garbage.
    """
    gates.append(GateInstance(TSG, (a, b, zero, cin), (*waste, s, cout)))
    garbage += waste


def tsg_as_full_adder(a: int, b: int, cin: int) -> tuple[int, int]:
    """One-gate full adder: returns (sum, carry) for a + b + cin.

    Applies the TSG gate to (a, b, 0, cin); the third output is the sum
    bit and the fourth the carry.
    """
    for name, bit in (("a", a), ("b", b), ("cin", cin)):
        if type(bit) is not int or bit not in (0, 1):  # the table would take True and 1.0
            raise ValueError(f"{name} must be 0 or 1, got {bit!r}")
    out = TSG.apply((a, b, 0, cin))
    return out[2], out[3]


def _copy(gates: list, constants: dict, wire, zero, through, copy) -> tuple[str, str]:
    """Copy `wire` with a Feynman gate onto the fresh constant 0 `zero`."""
    constants[zero] = 0
    gates.append(GateInstance(FEYNMAN, (wire, zero), (through, copy)))
    return through, copy


def build_full_adder() -> Netlist:
    """Single-gate full adder: apply TSG to (a, b, 0, cin)."""
    gates: list[GateInstance] = []
    garbage: list[str] = []
    _full_adder(gates, garbage, "a", "b", "z", "cin", ("g0", "g1"), "sum", "cout")
    return Netlist(
        primary_inputs=["a", "b", "cin"],
        constants={"z": 0},
        gates=gates,
        primary_outputs=["sum", "cout"],
        garbage_outputs=garbage,
        name="fa",
    )


def build_cpa(width: int) -> Netlist:
    """Ripple carry-propagate adder: sum = a + b + cin, plus carry out."""
    _check_width(width)
    gates: list[GateInstance] = []
    garbage: list[str] = []
    carries = ["cin", *_bus("c", width)[1:], "cout"]
    for i in range(width):
        _full_adder(gates, garbage, f"a{i}", f"b{i}", f"z{i}", carries[i],
                    (f"g{i}a", f"g{i}b"), f"s{i}", carries[i + 1])
    return Netlist(
        primary_inputs=_bus("a", width) + _bus("b", width) + ["cin"],
        constants=_zeros("z", width=width),
        gates=gates,
        primary_outputs=_bus("s", width) + ["cout"],
        garbage_outputs=garbage,
        name=f"cpa{width}",
    )


def build_csa42(width: int) -> Netlist:
    """4:2 carry-save compressor over four operand buses.

    Per slice i: a first full adder reduces (a, b, c) to a partial sum
    and a lateral carry; a second reduces (partial, d, lateral carry of
    slice i-1) to the sum and carry outputs. Satisfies, per slice,
    a + b + c + d + cin = sum + 2*(carry + cout).
    """
    _check_width(width)
    gates: list[GateInstance] = []
    garbage: list[str] = []
    lateral = ["cin", *_bus("k", width)[1:], "cout"]
    for i in range(width):
        _full_adder(gates, garbage, f"a{i}", f"b{i}", f"za{i}", f"c{i}",
                    (f"p{i}a", f"p{i}b"), f"t{i}", lateral[i + 1])
        _full_adder(gates, garbage, f"t{i}", f"d{i}", f"zb{i}", lateral[i],
                    (f"q{i}a", f"q{i}b"), f"s{i}", f"carry{i}")
    return Netlist(
        primary_inputs=[wire for bus in "abcd" for wire in _bus(bus, width)] + ["cin"],
        constants=_zeros("za", "zb", width=width),
        gates=gates,
        primary_outputs=_bus("s", width) + _bus("carry", width) + ["cout"],
        garbage_outputs=garbage,
        name=f"csa42_{width}",
    )


def build_csa52(width: int) -> Netlist:
    """5:2 carry-save compressor over five operand buses.

    Three full adders per slice and two lateral carry chains; per slice
    a + b + c + d + e + cin1 + cin2 = sum + 2*(carry + cout1 + cout2).
    """
    _check_width(width)
    gates: list[GateInstance] = []
    garbage: list[str] = []
    lat1 = ["cin1", *_bus("u", width)[1:], "cout1"]
    lat2 = ["cin2", *_bus("v", width)[1:], "cout2"]
    for i in range(width):
        _full_adder(gates, garbage, f"a{i}", f"b{i}", f"za{i}", f"c{i}",
                    (f"p{i}a", f"p{i}b"), f"t{i}", lat1[i + 1])
        _full_adder(gates, garbage, f"t{i}", f"d{i}", f"zb{i}", f"e{i}",
                    (f"q{i}a", f"q{i}b"), f"w{i}", lat2[i + 1])
        _full_adder(gates, garbage, f"w{i}", lat1[i], f"zc{i}", lat2[i],
                    (f"r{i}a", f"r{i}b"), f"s{i}", f"carry{i}")
    return Netlist(
        primary_inputs=[wire for bus in "abcde" for wire in _bus(bus, width)]
        + ["cin1", "cin2"],
        constants=_zeros("za", "zb", "zc", width=width),
        gates=gates,
        primary_outputs=_bus("s", width) + _bus("carry", width) + ["cout1", "cout2"],
        garbage_outputs=garbage,
        name=f"csa52_{width}",
    )


# -- irreversible baseline -------------------------------------------


def build_irreversible_cpa(width: int) -> Netlist:
    """AND/XOR/OR ripple adder, arithmetic twin of `build_cpa`.

    Per slice: x = a xor b, s = x xor carry, and the next carry is
    (a and b) or (x and carry). Each of a, b, x and the incoming carry
    is read twice, so a FEYNMAN gate on a constant 0 first copies it.
    """
    _check_width(width)
    gates: list[GateInstance] = []
    consts: dict[str, int] = {}

    def copy(wire: str) -> tuple[str, str]:
        return _copy(gates, consts, wire, f"{wire}_z", f"{wire}_0", f"{wire}_1")

    carries = ["cin", *_bus("c", width)[1:], "cout"]
    for i in range(width):
        a, a2 = copy(f"a{i}")
        b, b2 = copy(f"b{i}")
        gates.append(GateInstance(XOR, (a, b), (f"x{i}",)))
        x, x2 = copy(f"x{i}")
        c, c2 = copy(carries[i])
        gates += [
            GateInstance(XOR, (x, c), (f"s{i}",)),
            GateInstance(AND, (a2, b2), (f"m{i}",)),
            GateInstance(AND, (x2, c2), (f"n{i}",)),
            GateInstance(OR, (f"m{i}", f"n{i}"), (carries[i + 1],)),
        ]
    return Netlist(
        primary_inputs=_bus("a", width) + _bus("b", width) + ["cin"],
        constants=consts,
        gates=gates,
        primary_outputs=_bus("s", width) + ["cout"],
        name=f"icpa{width}",
    )
