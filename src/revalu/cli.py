"""Command-line interface.

Subcommands: build, verify, sim, cost, montmul, montexp, trace, dpa.
JSON output is the machine interface (stable key order); text output
renders the same values. Exit codes: 0 success, 1 domain error, 2
usage error. A command makes every usage check before it reads a file
or builds a circuit; only `verify`'s auto mode refuses `--samples` and
`--seed` after validation, once the netlist's source bits make it exhaustive.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import random
import sys

from . import arith, energy, sequential
from .montgomery import MontDatapath, MontParams, mont_exp, mont_mult_trace
from .netlist import Netlist, _runs_exhaustively, check_reversibility
from .rnl import parse_rnl, serialize_rnl


def _nonneg_int(text: str) -> int:
    """Operand parser: decimal or 0x-prefixed hex, non-negative."""
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {text!r}")
    return value


def _emit(data: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data, sort_keys=True))
    else:
        for key in sorted(data):
            print(f"{key}: {json.dumps(data[key], sort_keys=True)}")


def _load_json_arg(text: str):
    if text.startswith("@"):
        with open(text[1:]) as handle:
            return json.load(handle)
    return json.loads(text)


def _bit_map(value, what: str) -> dict:
    """Check a JSON value is an object of 0/1 ints (JSON true/false are not bits)."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object of wire to bit, got {json.dumps(value)}")
    for wire, bit in value.items():
        if type(bit) is not int or bit not in (0, 1):
            raise ValueError(f"{what}: {wire} must be 0 or 1, got {json.dumps(bit)}")
    return value


def _read_netlist(path: str) -> Netlist:
    """Parse a `.rnl` file, refusing one that declares no wire at all."""
    with open(path) as handle:
        netlist = parse_rnl(handle.read())
    if not netlist.wires:
        raise ValueError(f"{path} declares no wires")
    return netlist


_COMBINATIONAL = {
    "fa": arith.build_full_adder,
    "cpa": arith.build_cpa,
    "csa42": arith.build_csa42,
    "csa52": arith.build_csa52,
}

_SEQUENTIAL = {
    kind.name: kind
    for kind in (sequential.DLatch, sequential.MasterSlaveDFF,
                 sequential.Register, sequential.ShiftRegister)
}


def _refuse(args, parser, what: str, options) -> None:
    """Exit 2 on the first of `options` that was given, as `what` takes none of them."""
    for option in options:
        if getattr(args, option.replace("-", "_"), None) is not None:  # sim has no --m or --n
            parser.error(f"{what} takes no --{option}")


def _defaults(args, **defaults) -> None:
    """Give each option that was not given its default, once the refusals have run."""
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _sizing(args, parser, what: str, builder=None) -> tuple:
    """The arguments `builder` takes from the options: `(width,)` or `()`.

    A builder that declares a parameter needs --width >= 1 and takes no
    --m or --n; one that declares none takes none of the three. Only
    montgomery (no builder) takes --m and --n, and it takes no --width.
    """
    sized = builder is not None and bool(inspect.signature(builder).parameters)
    _refuse(args, parser, what,
            ("width",) if builder is None else ("m", "n") if sized else ("width", "m", "n"))
    if not sized:
        return ()
    if args.width is None:
        parser.error(f"{what} requires --width")
    if args.width < 1:
        parser.error(f"--width must be >= 1, got {args.width}")
    return (args.width,)


def _write(path: str, text: str) -> None:
    with open(path, "w") as handle:
        handle.write(text)


def _manifest(kind: str, circuit, report) -> str:
    """`build --out` JSON of a sequential kind or montgomery: kind, cost, cores, own fields."""
    if kind in _SEQUENTIAL:
        cores = circuit.cores
        fields = {"width": getattr(circuit, "width", 1), "state_bits": len(circuit.state)}
    else:
        params = circuit.params
        cores = circuit.cores[:3]  # the two CSA stages and the final adder, not the latch cores
        fields = {
            "modulus": params.modulus,
            "n": params.n,
            "register_width": params.register_width,
            "components": {name: rep.as_dict() for name, rep in circuit.component_costs().items()},
        }
    manifest = {"kind": kind, "cost": report.as_dict(),
                "cores": [serialize_rnl(core) for core in cores], **fields}
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def _cmd_build(args, parser) -> int:
    kind = args.kind
    builder = {**_COMBINATIONAL, **_SEQUENTIAL}.get(kind)  # None: montgomery
    sizing = _sizing(args, parser, f"build {kind}", builder)
    if builder is None and args.m is None:
        parser.error("build montgomery requires --m (odd modulus)")
    circuit = builder(*sizing) if builder else MontDatapath(MontParams.for_modulus(args.m, args.n))
    report = circuit.cost_report()
    if args.out:
        _write(args.out, serialize_rnl(circuit) if kind in _COMBINATIONAL
               else _manifest(kind, circuit, report))
    _emit(report.as_dict(), args.format)
    return 0


def _cmd_verify(args, parser) -> int:
    given = [name for name in ("samples", "seed") if getattr(args, name) is not None]
    if args.mode == "exhaustive" and given:
        parser.error(f"verify --mode exhaustive takes no --{given[0]}")
    _defaults(args, samples=1000, seed=0)
    netlist = _read_netlist(args.path)
    validation = netlist.validate()
    result = {"validation": validation.as_dict()}
    ok = validation.ok
    if ok:
        bits = len(netlist.primary_inputs) + len(netlist.constants)
        if given and _runs_exhaustively(args.mode, bits):
            parser.error(f"verify --mode auto takes no --{given[0]}: {args.path} has {bits} "
                         "source bits, so it is checked exhaustively")
        reversibility = check_reversibility(
            netlist, samples=args.samples, seed=args.seed, mode=args.mode
        )
        result["reversibility"] = reversibility.as_dict()
        ok = reversibility.ok
    _emit(result, args.format)
    return 0 if ok else 1


def _cmd_cost(args, parser) -> int:
    netlist = _read_netlist(args.path)
    _emit(netlist.cost_report().as_dict(), args.format)
    return 0


def _cmd_sim(args, parser) -> int:
    if args.clocked:
        if args.stimulus is None:
            parser.error("sim --clocked requires --stimulus")
        if args.path is not None or args.inputs is not None:
            parser.error("sim --clocked takes no netlist path or --inputs")
        if args.format == "text":
            parser.error("sim --clocked prints JSON; drop --format text")
        builder = _SEQUENTIAL[args.clocked]
        circuit = builder(*_sizing(args, parser, f"sim --clocked {args.clocked}", builder))
        stimulus = _load_json_arg(args.stimulus)
        if not isinstance(stimulus, list):
            raise ValueError("stimulus must be a JSON array of input maps")
        if not stimulus:
            raise ValueError("stimulus must hold at least one step")
        for i, step_inputs in enumerate(stimulus):
            _bit_map(step_inputs, f"stimulus step {i}")
        responses = [circuit.step(step_inputs) for step_inputs in stimulus]
        print(json.dumps(responses, sort_keys=True))
        return 0
    if args.path is None or args.inputs is None:
        parser.error("sim requires a netlist path and --inputs (or --clocked)")
    _refuse(args, parser, "sim PATH", ("width", "stimulus"))
    netlist = _read_netlist(args.path)
    assignment = _bit_map(_load_json_arg(args.inputs), "inputs")
    values = netlist.simulate(assignment)
    _emit(
        {
            "outputs": netlist.output_values(values),
            "garbage": netlist.garbage_values(values),
        },
        args.format,
    )
    return 0


#: The `montmul --trace` keys that differ from their `CycleRecord` field names.
_TRACE_KEYS = {"index": "cycle", "total_after_multiplicand": "after_multiplicand",
               "total_after_parity_clear": "after_parity_clear"}


def _cmd_montmul(args, parser) -> int:
    params = MontParams.for_modulus(args.m, args.n)
    if args.gate_level:
        datapath = MontDatapath(params)
        datapath.run(args.x, args.y)
        record = datapath.last_run
    else:
        record = mont_mult_trace(args.x, args.y, params)
    print(record.product)
    if args.trace:
        cycles = [{_TRACE_KEYS.get(k, k): v for k, v in vars(c).items()} for c in record.cycles]
        print(json.dumps(cycles, sort_keys=True))
    return 0


def _cmd_montexp(args, parser) -> int:
    print(mont_exp(args.a, args.b, args.mod))
    return 0


def _operand_pairs(params: MontParams, count: int, seed: int) -> list[tuple[int, int]]:
    """`count` random (x, y) operand pairs below the modulus, drawn from `seed`."""
    rng = random.Random(seed)
    return [(rng.randrange(params.modulus), rng.randrange(params.modulus)) for _ in range(count)]


def _run_traces(datapath: MontDatapath, pairs) -> list[energy.PowerTrace]:
    traces = []
    for x, y in pairs:
        datapath.run(x, y)
        traces.append(energy.switching_trace(datapath.last_run))
    return traces


def _cmd_trace(args, parser) -> int:
    if args.count < 1:
        parser.error(f"--count must be >= 1, got {args.count}")
    if args.energy and args.count > 1:
        parser.error("--energy reports on a single run; drop --count")
    if args.energy and args.format == "csv":
        parser.error("--energy reports in JSON; drop --format csv")
    if args.count > 1 and (args.x is not None or args.y is not None):
        parser.error("--count > 1 draws random operands; drop --x/--y")
    if not args.energy:
        _refuse(args, parser, "trace without --energy", ("temp-k", "cap-f", "vdd"))
    if args.count == 1:
        if args.x is None or args.y is None:
            parser.error("trace requires --x and --y (or --count > 1)")
        _refuse(args, parser, "trace --x/--y", ("seed",))
    _defaults(args, seed=0, temp_k=300.0, cap_f=1e-15, vdd=1.0)
    params = MontParams.for_modulus(args.m, args.n)
    pairs = _operand_pairs(params, args.count, args.seed) if args.count > 1 else [(args.x, args.y)]
    if args.energy:  # refuse bad energy parameters before the run, with energy_report's texts
        energy.landauer_energy(0, args.temp_k)
        energy.esig_energy(args.cap_f, args.vdd)
    datapath = MontDatapath(params)
    traces = _run_traces(datapath, pairs)

    if args.energy:
        report = energy.energy_report(
            datapath.cores,
            temperature_k=args.temp_k,
            capacitance_f=args.cap_f,
            voltage_v=args.vdd,
            trace=traces[0],
        )

    payload = [t.as_dict() for t in traces]
    if args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["trace", "cycle", "value"])
        for t_index, t in enumerate(traces):
            for cycle, value in enumerate(t.samples):
                writer.writerow([t_index, cycle, value])
        text = out.getvalue()
    else:
        body = payload[0] if args.count == 1 else payload
        if args.energy:
            body = {"trace": body, "energy": report.as_dict()}
        text = json.dumps(body, sort_keys=True) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_selector(spec: str):
    field, colon, bit_text = spec.partition(":")
    if not colon:
        bit_text = "0"
    if not field or not bit_text.isdecimal():
        raise ValueError(f"bad selector {spec!r}, expected FIELD[:BIT]")
    bit = int(bit_text)

    def selector(metadata):
        try:
            value = metadata[field]
        except KeyError:
            raise ValueError(f"trace metadata has no field {field!r}")
        if type(value) is not int:  # JSON true, 1.5 and "5" are not bit sources
            raise ValueError(
                f"trace metadata field {field!r} must be an integer, got {json.dumps(value)}"
            )
        return bool((value >> bit) & 1)

    return selector


def _read_traces(path: str) -> list[energy.PowerTrace]:
    """Load a `dpa --traces` file, checking its shape once.

    The file holds one object or a list of objects, each with a
    non-empty list of finite numbers under `samples` and, optionally, an
    object under `metadata`.
    """
    with open(path) as handle:
        raw = json.load(handle)
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list):
        raise ValueError("traces file must hold a JSON object or a list of objects")
    traces = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ValueError(f"trace {i} must be a JSON object, got {json.dumps(item)}")
        samples = item.get("samples")
        if (not isinstance(samples, list) or not samples
                or any(type(v) is not int and not (type(v) is float and math.isfinite(v))
                       for v in samples)):
            raise ValueError(f"trace {i}: samples must be a non-empty list of finite numbers")
        metadata = item.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ValueError(f"trace {i}: metadata must be a JSON object")
        traces.append(energy.PowerTrace(tuple(samples), dict(metadata)))
    return traces


def _cmd_dpa(args, parser) -> int:
    if not args.demo and not args.traces:
        parser.error("dpa requires --traces FILE or --demo")
    if args.demo and args.count is not None and args.count < 2:
        parser.error(f"dpa --demo needs --count >= 2, got {args.count}")
    if args.demo:
        _refuse(args, parser, "dpa --demo", ("traces",))
    else:
        _refuse(args, parser, "dpa --traces", ("m", "count", "seed"))
    _defaults(args, m=7, count=16, seed=0)
    selector = _parse_selector("x:0" if args.select is None else args.select)
    if args.demo:
        params = MontParams.for_modulus(args.m)
        traces = _run_traces(MontDatapath(params), _operand_pairs(params, args.count, args.seed))
    else:
        traces = _read_traces(args.traces)
    differential = energy.dpa_diff_of_means(traces, selector)
    peak = max(range(len(differential)), key=lambda i: abs(differential[i]))
    _emit(
        {
            "differential": list(differential),
            "peak_cycle": peak,
            "peak_value": differential[peak],
            "traces": len(traces),
        },
        args.format,
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revalu",
        description="Reversible-logic circuit toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def arg(*flags, **options):
        return flags, options

    def command(name, func, summary, *arguments, formats=("json", "text")):
        """Subcommand `name` run by `func`: its arguments, then --format if it has `formats`."""
        p = sub.add_parser(name, help=summary)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        if formats:
            p.add_argument("--format", choices=formats, default="json")
        p.set_defaults(func=func, parser=p)
        return p

    command("build", _cmd_build, "generate a circuit and print its cost",
            arg("kind", choices=sorted(set(_COMBINATIONAL) | set(_SEQUENTIAL) | {"montgomery"})),
            arg("--width", type=int),
            arg("--m", type=_nonneg_int, help="modulus (montgomery)"),
            arg("--n", type=int, help="scan length (montgomery)"),
            arg("--out", help="write .rnl or manifest JSON here"))
    command("verify", _cmd_verify, "validate a netlist and round-trip it",
            arg("path"),
            arg("--mode", choices=["auto", "exhaustive", "random"], default="auto"),
            arg("--samples", type=int),
            arg("--seed", type=int))
    command("cost", _cmd_cost, "print a netlist's cost report", arg("path"))
    command("sim", _cmd_sim, "simulate a netlist or a clocked element",
            arg("path", nargs="?"),
            arg("--inputs", help="JSON map of input wire to bit, or @file"),
            arg("--clocked", choices=sorted(_SEQUENTIAL)),
            arg("--width", type=int),
            arg("--stimulus", help="JSON array of per-step input maps, or @file"))
    command("montmul", _cmd_montmul, "Montgomery product x*y*2^-n mod m",
            arg("--x", type=_nonneg_int, required=True),
            arg("--y", type=_nonneg_int, required=True),
            arg("--m", type=_nonneg_int, required=True),
            arg("--n", type=int),
            arg("--gate-level", action="store_true"),
            arg("--trace", action="store_true", help="also print per-cycle JSON"),
            formats=())
    command("montexp", _cmd_montexp, "modular exponentiation a^b mod m",
            arg("--a", type=_nonneg_int, required=True),
            arg("--b", type=_nonneg_int, required=True),
            arg("--mod", type=_nonneg_int, required=True),
            formats=())
    command("trace", _cmd_trace, "switching-activity trace of a multiplier run",
            arg("--x", type=_nonneg_int),
            arg("--y", type=_nonneg_int),
            arg("--m", type=_nonneg_int, required=True),
            arg("--n", type=int),
            arg("--count", type=int, default=1, help="random runs instead of --x/--y"),
            arg("--seed", type=int),
            arg("--energy", action="store_true", help="include an energy report"),
            arg("--temp-k", type=float),
            arg("--cap-f", type=float),
            arg("--vdd", type=float),
            formats=("json", "csv")).add_argument("--out")  # after --format, as in its usage line
    command("dpa", _cmd_dpa, "difference-of-means over power traces",
            arg("--traces", help="JSON file with [{samples, metadata}, ...]"),
            arg("--select", help="selector FIELD[:BIT] on trace metadata"),
            arg("--demo", action="store_true", help="generate traces internally"),
            arg("--m", type=_nonneg_int),
            arg("--count", type=int),
            arg("--seed", type=int))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, args.parser)
    except (ValueError, OSError) as exc:  # NetlistError and RnlSyntaxError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
