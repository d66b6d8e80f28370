"""Generators for the adder netlists.

All reversible adders are compositions of the one-gate TSG full adder:

* ``build_cpa``: ripple carry-propagate chain, one gate per bit.
* ``build_csa42``: per-slice 4-to-2 compressor (two full adders), the
  first adder's carry feeding the next slice's second adder.
* ``build_csa52``: per-slice 5-to-2 compressor (three full adders) with
  two lateral carry chains.

Operands are little-endian buses (`a0` is the LSB). Each slice marks
the two TSG pass-through outputs as garbage, so garbage grows linearly
with width. ``build_irreversible_cpa`` produces a conventional
AND/XOR/OR ripple adder with identical arithmetic behavior, used as the
lossy baseline for erasure accounting: an ordinary netlist of lossy
gates, which copies each wire it reads twice with a FEYNMAN gate and
runs forwards only.
"""

from __future__ import annotations

from .gates import AND, FEYNMAN, OR, TSG, XOR
from .netlist import GateInstance, Netlist


def _check_width(width: int) -> int:
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    return width


def build_full_adder() -> Netlist:
    """Single-gate full adder: apply TSG to (a, b, 0, cin)."""
    return Netlist(
        primary_inputs=["a", "b", "cin"],
        constants={"z": 0},
        gates=[GateInstance(TSG, ("a", "b", "z", "cin"), ("g0", "g1", "sum", "cout"))],
        primary_outputs=["sum", "cout"],
        garbage_outputs=["g0", "g1"],
        name="fa",
    )


def build_cpa(width: int) -> Netlist:
    """Ripple carry-propagate adder: sum = a + b + cin, plus carry out."""
    _check_width(width)
    gates = []
    garbage = []
    carry = "cin"
    for i in range(width):
        carry_out = f"c{i + 1}" if i < width - 1 else "cout"
        gates.append(
            GateInstance(
                TSG,
                (f"a{i}", f"b{i}", f"z{i}", carry),
                (f"g{i}a", f"g{i}b", f"s{i}", carry_out),
            )
        )
        garbage += [f"g{i}a", f"g{i}b"]
        carry = carry_out
    return Netlist(
        primary_inputs=[f"a{i}" for i in range(width)]
        + [f"b{i}" for i in range(width)]
        + ["cin"],
        constants={f"z{i}": 0 for i in range(width)},
        gates=gates,
        primary_outputs=[f"s{i}" for i in range(width)] + ["cout"],
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
    gates = []
    garbage = []
    lateral = "cin"
    for i in range(width):
        lateral_out = f"k{i + 1}" if i < width - 1 else "cout"
        gates.append(
            GateInstance(
                TSG,
                (f"a{i}", f"b{i}", f"za{i}", f"c{i}"),
                (f"p{i}a", f"p{i}b", f"t{i}", lateral_out),
            )
        )
        gates.append(
            GateInstance(
                TSG,
                (f"t{i}", f"d{i}", f"zb{i}", lateral),
                (f"q{i}a", f"q{i}b", f"s{i}", f"carry{i}"),
            )
        )
        garbage += [f"p{i}a", f"p{i}b", f"q{i}a", f"q{i}b"]
        lateral = lateral_out
    consts = {f"za{i}": 0 for i in range(width)}
    consts.update({f"zb{i}": 0 for i in range(width)})
    return Netlist(
        primary_inputs=[f"{bus}{i}" for bus in "abcd" for i in range(width)] + ["cin"],
        constants=consts,
        gates=gates,
        primary_outputs=[f"s{i}" for i in range(width)]
        + [f"carry{i}" for i in range(width)]
        + ["cout"],
        garbage_outputs=garbage,
        name=f"csa42_{width}",
    )


def build_csa52(width: int) -> Netlist:
    """5:2 carry-save compressor over five operand buses.

    Three full adders per slice and two lateral carry chains; per slice
    a + b + c + d + e + cin1 + cin2 = sum + 2*(carry + cout1 + cout2).
    """
    _check_width(width)
    gates = []
    garbage = []
    lat1, lat2 = "cin1", "cin2"
    for i in range(width):
        lat1_out = f"u{i + 1}" if i < width - 1 else "cout1"
        lat2_out = f"v{i + 1}" if i < width - 1 else "cout2"
        gates.append(
            GateInstance(
                TSG,
                (f"a{i}", f"b{i}", f"za{i}", f"c{i}"),
                (f"p{i}a", f"p{i}b", f"t{i}", lat1_out),
            )
        )
        gates.append(
            GateInstance(
                TSG,
                (f"t{i}", f"d{i}", f"zb{i}", f"e{i}"),
                (f"q{i}a", f"q{i}b", f"w{i}", lat2_out),
            )
        )
        gates.append(
            GateInstance(
                TSG,
                (f"w{i}", lat1, f"zc{i}", lat2),
                (f"r{i}a", f"r{i}b", f"s{i}", f"carry{i}"),
            )
        )
        garbage += [f"p{i}a", f"p{i}b", f"q{i}a", f"q{i}b", f"r{i}a", f"r{i}b"]
        lat1, lat2 = lat1_out, lat2_out
    consts: dict[str, int] = {}
    for prefix in ("za", "zb", "zc"):
        consts.update({f"{prefix}{i}": 0 for i in range(width)})
    return Netlist(
        primary_inputs=[f"{bus}{i}" for bus in "abcde" for i in range(width)]
        + ["cin1", "cin2"],
        constants=consts,
        gates=gates,
        primary_outputs=[f"s{i}" for i in range(width)]
        + [f"carry{i}" for i in range(width)]
        + ["cout1", "cout2"],
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
    gates = []
    consts: dict[str, int] = {}

    def copy(wire: str) -> tuple[str, str]:
        consts[f"{wire}_z"] = 0
        gates.append(GateInstance(FEYNMAN, (wire, f"{wire}_z"), (f"{wire}_0", f"{wire}_1")))
        return f"{wire}_0", f"{wire}_1"

    carry = "cin"
    for i in range(width):
        carry_out = f"c{i + 1}" if i < width - 1 else "cout"
        a, a2 = copy(f"a{i}")
        b, b2 = copy(f"b{i}")
        gates.append(GateInstance(XOR, (a, b), (f"x{i}",)))
        x, x2 = copy(f"x{i}")
        c, c2 = copy(carry)
        gates += [
            GateInstance(XOR, (x, c), (f"s{i}",)),
            GateInstance(AND, (a2, b2), (f"m{i}",)),
            GateInstance(AND, (x2, c2), (f"n{i}",)),
            GateInstance(OR, (f"m{i}", f"n{i}"), (carry_out,)),
        ]
        carry = carry_out
    return Netlist(
        primary_inputs=[f"a{i}" for i in range(width)]
        + [f"b{i}" for i in range(width)]
        + ["cin"],
        constants=consts,
        gates=gates,
        primary_outputs=[f"s{i}" for i in range(width)] + ["cout"],
        name=f"icpa{width}",
    )
