"""Line-oriented text format for reversible netlists (`.rnl`).

Directives, one per line, `#` starting a comment anywhere:

    input <wire> [<wire> ...]
    const <wire> = 0|1
    gate <NAME> <in> ... -> <out> ...
    output <wire> [<wire> ...]
    garbage <wire> [<wire> ...]

Gate names come from the standard gate library (FG, TG, FRG, TSG).
Parsing checks syntax only; wiring-discipline problems are left to
`Netlist.validate`.
"""

from __future__ import annotations

import re
from typing import Mapping

from .gates import STANDARD_GATES, GateKind
from .netlist import GateInstance, Netlist

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_TOKEN = re.compile(r"\S+")


class RnlSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _check_ident(tok: str, line: int, col: int) -> str:
    if not _IDENT.match(tok):
        raise RnlSyntaxError(f"invalid wire name {tok!r}", line, col)
    return tok


def parse_rnl(text: str, gates: Mapping[str, GateKind] | None = None) -> Netlist:
    """Parse `.rnl` text into a Netlist.

    Raises RnlSyntaxError with line/column on malformed input or an
    unknown gate name.
    """
    gate_lib = STANDARD_GATES if gates is None else gates
    constants: dict[str, int] = {}
    instances: list[GateInstance] = []
    wire_lists: dict[str, list[str]] = {"input": [], "output": [], "garbage": []}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]
        if not tokens:
            continue
        keyword, kw_col = tokens[0]
        args = tokens[1:]

        if keyword in wire_lists:
            if not args:
                raise RnlSyntaxError(
                    f"{keyword} directive needs at least one wire", lineno, kw_col
                )
            wire_lists[keyword].extend(_check_ident(t, lineno, c) for t, c in args)
        elif keyword == "const":
            if len(args) != 3 or args[1][0] != "=":
                raise RnlSyntaxError("expected: const <wire> = 0|1", lineno, kw_col)
            wire = _check_ident(args[0][0], lineno, args[0][1])
            value_tok, value_col = args[2]
            if value_tok not in ("0", "1"):
                raise RnlSyntaxError(
                    f"constant value must be 0 or 1, got {value_tok!r}", lineno, value_col
                )
            if wire in constants:
                raise RnlSyntaxError(f"constant {wire} declared twice", lineno, args[0][1])
            constants[wire] = int(value_tok)
        elif keyword == "gate":
            if not args:
                raise RnlSyntaxError("gate directive needs a gate name", lineno, kw_col)
            name_tok, name_col = args[0]
            kind = gate_lib.get(name_tok)
            if kind is None:
                raise RnlSyntaxError(f"unknown gate name {name_tok!r}", lineno, name_col)
            rest = args[1:]
            arrow = [i for i, (t, _) in enumerate(rest) if t == "->"]
            if len(arrow) != 1:
                raise RnlSyntaxError(
                    "expected: gate <NAME> <in> ... -> <out> ...", lineno, kw_col
                )
            ins = [_check_ident(t, lineno, c) for t, c in rest[: arrow[0]]]
            outs = [_check_ident(t, lineno, c) for t, c in rest[arrow[0] + 1 :]]
            if len(ins) != kind.arity or len(outs) != kind.n_out:
                raise RnlSyntaxError(
                    f"{name_tok} takes {kind.arity} inputs and {kind.n_out} outputs, "
                    f"got {len(ins)} -> {len(outs)}",
                    lineno,
                    name_col,
                )
            instances.append(GateInstance(kind, tuple(ins), tuple(outs)))
        else:
            raise RnlSyntaxError(f"unknown directive {keyword!r}", lineno, kw_col)

    return Netlist(
        primary_inputs=wire_lists["input"],
        constants=constants,
        gates=instances,
        primary_outputs=wire_lists["output"],
        garbage_outputs=wire_lists["garbage"],
    )


def serialize_rnl(netlist: Netlist) -> str:
    """Render a Netlist in canonical `.rnl` form.

    One `input` line, one `const` line per constant (declaration
    order), gates in stored order, then `output` and `garbage` lines.
    """
    lines: list[str] = []
    if netlist.primary_inputs:
        lines.append("input " + " ".join(netlist.primary_inputs))
    for wire, value in netlist.constants.items():
        lines.append(f"const {wire} = {value}")
    for g in netlist.gates:
        lines.append(
            f"gate {g.kind.name} " + " ".join(g.inputs) + " -> " + " ".join(g.outputs)
        )
    if netlist.primary_outputs:
        lines.append("output " + " ".join(netlist.primary_outputs))
    if netlist.garbage_outputs:
        lines.append("garbage " + " ".join(netlist.garbage_outputs))
    return "\n".join(lines) + "\n"
