"""Per-layer tracing by wrapping revalu's public functions from outside.

Nothing under ``src/`` is edited. The tracer replaces each target
function at every binding site it can find (module attributes, names
re-exported into other modules, dict values such as the CLI's builder
tables, and class attributes) and restores the originals afterwards.

Two kinds of wrapper exist:

* counted wrappers, for boundaries that fire per gate or per latch
  (millions of times a run): they accumulate calls, self time and
  errors only;
* span wrappers, for coarse boundaries (op, construct, run, simulate,
  check_reversibility, pulse, energy and rnl calls, CLI): they also
  record a span ``(id, parent, op, name, start_ns, end_ns)`` in memory.

Self time is a call's duration minus the time covered by wrapped calls
made inside it, so the self times of all layers plus the op's own self
time add up to the op's duration.
"""

from __future__ import annotations

import contextlib
import sys
import time

# Stat slots: calls, self_ns, inclusive_ns, errors, extra (a
# per-boundary quantity: gates simulated, cases checked, ...).
CALLS, SELF_NS, INCL_NS, ERRORS, EXTRA = range(5)


class Tracer:
    """Collects per-layer stats and spans while its wrappers are installed."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.op_id = None
        self._child = [0]  # child-time accumulators, one per open call
        self._open_spans = [None]
        self._next_span = 0
        self._sites: list[tuple] = []  # (owner or dict, key, original, wrapper)
        self.installed = False

    # -- wrappers ----------------------------------------------------

    def stat(self, key: str) -> list:
        return self.stats.setdefault(key, [0] * 5)

    def counted(self, key: str, fn):
        stat = self.stat(key)
        child = self._child
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            child.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[ERRORS] += 1
                raise
            finally:
                dt = clock() - t0
                stat[CALLS] += 1
                stat[SELF_NS] += dt - child.pop()
                stat[INCL_NS] += dt
                child[-1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def spanned(self, key: str, fn, extra=None):
        """Wrap `fn` as a span; `extra(args, result)` adds to the EXTRA slot."""
        stat = self.stat(key)
        child = self._child
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._next_span += 1
            sid = tracer._next_span
            parent = open_spans[-1]
            open_spans.append(sid)
            child.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    stat[EXTRA] += extra(args, result)
                return result
            except BaseException:
                stat[ERRORS] += 1
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                stat[CALLS] += 1
                stat[SELF_NS] += dt - child.pop()
                stat[INCL_NS] += dt
                child[-1] += dt
                open_spans.pop()
                spans.append((sid, parent, tracer.op_id, key, t0, t1))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------

    def plan(self, targets) -> None:
        """Find every binding site of each target and prepare its wrapper.

        `targets` is a list of ``(owner, attr, make_wrapper)``: the
        function ``owner.__dict__[attr]`` is wrapped once, and the
        wrapper is installed wherever the same object is bound in a
        ``revalu`` module (as an attribute or a dict value), and on the
        owner itself when the owner is a class.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "revalu" or name.startswith("revalu.")]
        for owner, attr, make in targets:
            original = owner.__dict__[attr]
            wrapper = make(original)
            sites = [(owner, attr)] if isinstance(owner, type) else []
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        sites.append((module, name))
                    elif isinstance(value, dict):
                        sites += [(value, key) for key, item in value.items()
                                  if item is original]
            if not sites:
                raise RuntimeError(f"no binding site found for {owner!r}.{attr}")
            self._sites += [(where, key, original, wrapper) for where, key in sites]

    def install(self) -> None:
        for where, key, _, wrapper in self._sites:
            _bind(where, key, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for where, key, original, _ in reversed(self._sites):
            _bind(where, key, original)
        self.installed = False

    @contextlib.contextmanager
    def suspended(self):
        """Remove the wrappers for the harness's own checks, then put them back."""
        if not self.installed:
            yield
            return
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def unrestored(self) -> list[str]:
        """Binding sites that do not hold their original function."""
        return [f"{key} is still wrapped" for where, key, original, _ in self._sites
                if (where[key] if isinstance(where, dict) else getattr(where, key))
                is not original]


def _bind(where, key, value) -> None:
    if isinstance(where, dict):
        where[key] = value
    else:
        setattr(where, key, value)


def revalu_targets(lib, tracer: Tracer) -> list[tuple]:
    """The public functions of every revalu layer, with their wrappers.

    Per-gate and per-latch boundaries get counted wrappers; the rest are
    spans. `extra` feeds the denominators of the normalised metrics:
    gates per ``simulate``, cases per ``check_reversibility`` and scan
    cycles per ``MontDatapath.run``.
    """
    gates, netlist, seq = lib.gates, lib.netlist, lib.sequential

    def counted(key):
        return lambda fn: tracer.counted(key, fn)

    def span(key, extra=None):
        return lambda fn: tracer.spanned(key, fn, extra)

    targets = [
        (gates.GateKind, "apply", counted("gates.apply")),
        (gates.GateKind, "invert", counted("gates.invert")),
        (netlist.Netlist, "simulate",
         span("netlist.simulate", lambda args, result: len(args[0].gates))),
        (netlist.Netlist, "simulate_inverse", counted("netlist.simulate_inverse")),
        (netlist.Netlist, "validate", counted("netlist.validate")),
        (netlist, "check_reversibility",
         span("netlist.check_reversibility", lambda args, result: result.cases)),
        (lib.rnl, "parse_rnl", span("rnl.parse_rnl")),
        (lib.rnl, "serialize_rnl", span("rnl.serialize_rnl")),
        (seq.DLatch, "step", counted("sequential.latch_step")),
        (seq.Register, "load", counted("sequential.load")),
        (lib.montgomery.MontDatapath, "__init__", span("montgomery.construct")),
        (lib.montgomery.MontDatapath, "run",
         span("montgomery.run", lambda args, result: args[0].params.n)),
        (lib.montgomery, "mont_mult_word", counted("montgomery.mont_mult_word")),
        (lib.montgomery, "mont_exp", span("montgomery.mont_exp")),
        (lib.bits, "to_bits", counted("bits.to_bits")),
        (lib.bits, "from_bits", counted("bits.from_bits")),
        (lib.cli, "main", span("cli.main")),
    ]
    targets += [(lib.arith, name, span("arith.build"))
                for name in ("build_full_adder", "build_cpa", "build_csa42", "build_csa52",
                             "build_irreversible_cpa")]
    targets += [(cls, "step", counted("sequential.step"))
                for cls in (seq.Register, seq.MasterSlaveDFF, seq.ShiftRegister)]
    targets += [(cls, "pulse", span("sequential.pulse"))
                for cls in (seq.MasterSlaveDFF, seq.ShiftRegister)]
    targets += [(cls, "load_value", counted("sequential.load_value"))
                for cls in (seq.DLatch, seq.Register, seq.MasterSlaveDFF, seq.ShiftRegister)]
    targets += [(lib.energy, name, span(f"energy.{name}"))
                for name in ("switching_trace", "dpa_diff_of_means", "energy_report")]
    return targets
