"""Command-line interface.

Subcommands: build, verify, sim, cost, montmul, montexp, trace, dpa.
JSON output is the machine interface (stable key order); text output
renders the same values. Exit codes: 0 success, 1 domain error, 2
usage error.
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
from .netlist import Netlist, check_reversibility
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
    "dlatch": sequential.DLatch,
    "dff": sequential.MasterSlaveDFF,
    "register": sequential.Register,
    "shiftreg": sequential.ShiftRegister,
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


def _write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w") as handle:
        json.dump(manifest, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _cmd_build(args, parser) -> int:
    kind = args.kind
    sizing = _sizing(args, parser, f"build {kind}", {**_COMBINATIONAL, **_SEQUENTIAL}.get(kind))
    if kind in _COMBINATIONAL:
        netlist = _COMBINATIONAL[kind](*sizing)
        report = netlist.cost_report()
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(serialize_rnl(netlist))
    elif kind in _SEQUENTIAL:
        circuit = _SEQUENTIAL[kind](*sizing)
        report = circuit.cost_report()
        if args.out:
            manifest = {
                "kind": kind,
                "width": getattr(circuit, "width", 1),
                "state_bits": len(circuit.state),
                "cost": report.as_dict(),
                "cores": [serialize_rnl(core) for core in circuit.cores],
            }
            _write_manifest(args.out, manifest)
    elif kind == "montgomery":
        if args.m is None:
            parser.error("build montgomery requires --m (odd modulus)")
        params = MontParams.for_modulus(args.m, args.n)
        datapath = MontDatapath(params)
        report = datapath.cost_report()
        if args.out:
            manifest = {
                "kind": "montgomery",
                "modulus": params.modulus,
                "n": params.n,
                "register_width": params.register_width,
                "cost": report.as_dict(),
                "components": {
                    name: rep.as_dict()
                    for name, rep in datapath.component_costs().items()
                },
                "cores": [
                    serialize_rnl(datapath.stage1),
                    serialize_rnl(datapath.stage2),
                    serialize_rnl(datapath.final_adder),
                ],
            }
            _write_manifest(args.out, manifest)
    else:  # pragma: no cover - argparse choices guard this
        parser.error(f"unknown kind {kind!r}")
    _emit(report.as_dict(), args.format)
    return 0


def _cmd_verify(args, parser) -> int:
    if args.mode == "exhaustive":
        _refuse(args, parser, "verify --mode exhaustive", ("samples", "seed"))
    _defaults(args, samples=1000, seed=0)
    netlist = _read_netlist(args.path)
    validation = netlist.validate()
    result = {"validation": validation.as_dict()}
    ok = validation.ok
    if ok:
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
    _refuse(args, parser, "sim PATH", ("width",))
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


def _cmd_montmul(args, parser) -> int:
    params = MontParams.for_modulus(args.m, args.n)
    if args.gate_level:
        datapath = MontDatapath(params)
        product = datapath.run(args.x, args.y)
        cycles = datapath.last_run.cycles
    else:
        trace = mont_mult_trace(args.x, args.y, params)
        product = trace.product
        cycles = trace.cycles
    print(product)
    if args.trace:
        print(
            json.dumps(
                [
                    {
                        "cycle": c.index,
                        "x_bit": c.x_bit,
                        "s0": c.s0,
                        "after_multiplicand": c.total_after_multiplicand,
                        "after_parity_clear": c.total_after_parity_clear,
                        "s": c.s,
                        "c": c.c,
                    }
                    for c in cycles
                ],
                sort_keys=True,
            )
        )
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
    params = MontParams.for_modulus(args.m, args.n)
    if args.count == 1:
        if args.x is None or args.y is None:
            parser.error("trace requires --x and --y (or --count > 1)")
        _refuse(args, parser, "trace --x/--y", ("seed",))
    _defaults(args, seed=0, temp_k=300.0, cap_f=1e-15, vdd=1.0)
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
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_selector(spec: str):
    field, _, bit_text = spec.partition(":")
    bit_text = bit_text or "0"
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
    selector = _parse_selector(args.select or "x:0")
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

    def add_format(p):
        p.add_argument("--format", choices=["json", "text"], default="json")

    p_build = sub.add_parser("build", help="generate a circuit and print its cost")
    p_build.add_argument(
        "kind",
        choices=sorted(set(_COMBINATIONAL) | set(_SEQUENTIAL) | {"montgomery"}),
    )
    p_build.set_defaults(parser=p_build)
    p_build.add_argument("--width", type=int)
    p_build.add_argument("--m", type=_nonneg_int, help="modulus (montgomery)")
    p_build.add_argument("--n", type=int, help="scan length (montgomery)")
    p_build.add_argument("--out", help="write .rnl or manifest JSON here")
    add_format(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="validate a netlist and round-trip it")
    p_verify.add_argument("path")
    p_verify.add_argument("--mode", choices=["auto", "exhaustive", "random"], default="auto")
    p_verify.add_argument("--samples", type=int)
    p_verify.add_argument("--seed", type=int)
    add_format(p_verify)
    p_verify.set_defaults(parser=p_verify, func=_cmd_verify)

    p_cost = sub.add_parser("cost", help="print a netlist's cost report")
    p_cost.add_argument("path")
    add_format(p_cost)
    p_cost.set_defaults(parser=p_cost, func=_cmd_cost)

    p_sim = sub.add_parser("sim", help="simulate a netlist or a clocked element")
    p_sim.add_argument("path", nargs="?")
    p_sim.add_argument("--inputs", help="JSON map of input wire to bit, or @file")
    p_sim.add_argument("--clocked", choices=sorted(_SEQUENTIAL))
    p_sim.add_argument("--width", type=int)
    p_sim.add_argument("--stimulus", help="JSON array of per-step input maps, or @file")
    add_format(p_sim)
    p_sim.set_defaults(parser=p_sim, func=_cmd_sim)

    p_mm = sub.add_parser("montmul", help="Montgomery product x*y*2^-n mod m")
    p_mm.add_argument("--x", type=_nonneg_int, required=True)
    p_mm.add_argument("--y", type=_nonneg_int, required=True)
    p_mm.add_argument("--m", type=_nonneg_int, required=True)
    p_mm.add_argument("--n", type=int)
    p_mm.add_argument("--gate-level", action="store_true")
    p_mm.add_argument("--trace", action="store_true", help="also print per-cycle JSON")
    p_mm.set_defaults(parser=p_mm, func=_cmd_montmul)

    p_me = sub.add_parser("montexp", help="modular exponentiation a^b mod m")
    p_me.add_argument("--a", type=_nonneg_int, required=True)
    p_me.add_argument("--b", type=_nonneg_int, required=True)
    p_me.add_argument("--mod", type=_nonneg_int, required=True)
    p_me.set_defaults(parser=p_me, func=_cmd_montexp)

    p_tr = sub.add_parser("trace", help="switching-activity trace of a multiplier run")
    p_tr.add_argument("--x", type=_nonneg_int)
    p_tr.add_argument("--y", type=_nonneg_int)
    p_tr.add_argument("--m", type=_nonneg_int, required=True)
    p_tr.add_argument("--n", type=int)
    p_tr.add_argument("--count", type=int, default=1, help="random runs instead of --x/--y")
    p_tr.add_argument("--seed", type=int)
    p_tr.add_argument("--energy", action="store_true", help="include an energy report")
    p_tr.add_argument("--temp-k", type=float)
    p_tr.add_argument("--cap-f", type=float)
    p_tr.add_argument("--vdd", type=float)
    p_tr.add_argument("--format", choices=["json", "csv"], default="json")
    p_tr.add_argument("--out")
    p_tr.set_defaults(parser=p_tr, func=_cmd_trace)

    p_dpa = sub.add_parser("dpa", help="difference-of-means over power traces")
    p_dpa.add_argument("--traces", help="JSON file with [{samples, metadata}, ...]")
    p_dpa.add_argument("--select", help="selector FIELD[:BIT] on trace metadata")
    p_dpa.add_argument("--demo", action="store_true", help="generate traces internally")
    p_dpa.add_argument("--m", type=_nonneg_int)
    p_dpa.add_argument("--count", type=int)
    p_dpa.add_argument("--seed", type=int)
    add_format(p_dpa)
    p_dpa.set_defaults(parser=p_dpa, func=_cmd_dpa)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, getattr(args, "parser", parser))
    except (ValueError, OSError) as exc:  # NetlistError and RnlSyntaxError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
