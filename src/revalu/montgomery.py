"""Montgomery modular multiplication, word-level and gate-level.

`mont_mult_word` runs Montgomery on one running total T, reading
x * 2^pad one hex digit d at a time, LSB first, with pad = -n mod 4:
each step adds d * Y, then the multiple q * M that clears T's low four
bits, and divides T by 16. Both addends come from two 16-entry tables,
ym[d], built per product, and clear[T & 15], built once per
`MontParams`: three big-int operations per 4 bits. The scan divides
n + pad bits out of X * 2^pad * Y, so R = 2^n is unchanged, and T stays
below 2M: after it T equals X * Y * 2^(-n) modulo M, up to one final
conditional subtraction.
`mont_mult_trace` runs the paper's radix-2 steps, one per bit of x, on
the carry-save words S and C whose sum is T, as the hardware does, so
that it can record them: each adds x_i * Y, then M if T is odd, and
halves T. The carry word is even after each stage, so the low bit of S
is the parity of T. Both loops end on the one residue of X * Y * 2^(-n)
below M. Only the trace checks the parity; `mont_mult_word` hands it
any modulus forced even past `MontParams`, which has no inverse mod 16.

The gate-level datapath runs the carry-save loop on reversible hardware:

    shift regs (S, C) --> CSA stage 1 (+ x_i * Y) --> registers S, C
        ^                                                  | LSB tap
        |                                                  v
        +------- divide-by-2 shift <-- CSA stage 2 (+ s0 * M)

Each CSA stage is a row of TSG full adders; the x_i and s0 operand
gating is done with Toffoli AND gates fed by Feynman copy chains, so
the per-cycle cores are ordinary valid reversible netlists. X is
consumed bit-serially out of its own shift register. The closing
carry-propagate addition P = S + C runs on a gate-level ripple adder;
the final conditional subtraction is performed at word level.

The two stages and the final adder depend only on the width, so the
datapaths of one width share one built and validated set, and its
runners (`_shape`), immutable like `LATCH_CORE`; each datapath checks
the set's reports when it is built. Each core runs on register bits
through its `Netlist._runner`; register contents stay bit lists from
cycle to cycle, and become ints only for the cycle records, which
`_record` builds for both loops. `MontTrace` and `MontRun` are ``typing.NamedTuple``s;
`MontParams` stays a frozen dataclass because it validates, and `CycleRecord`
because callers use it with ``dataclasses.asdict`` and ``replace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from typing import NamedTuple

from .arith import _bus, _copy, _full_adder, build_cpa
from .bits import _require_int, from_bits, to_bits
from .gates import TOFFOLI
from .netlist import CostReport, GateInstance, Netlist
from .sequential import Register, ShiftRegister, _load, _pulse


class InvariantError(RuntimeError):
    """A Montgomery loop invariant failed: the model or its parameters are wrong.

    Raised by explicit checks, which unlike `assert` still run under
    `python -O`.
    """


@dataclass(frozen=True)
class MontParams:
    """Modulus and scan length; the residue scale factor is R = 2^n."""

    modulus: int
    n: int

    def __post_init__(self):
        _require_int("modulus", self.modulus)
        _require_int("n", self.n)
        if self.modulus < 1 or self.modulus % 2 == 0:
            raise ValueError(f"modulus must be odd and positive, got {self.modulus}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.modulus >> self.n:
            raise ValueError(
                f"modulus {self.modulus} does not fit in n={self.n} bits"
            )

    @classmethod
    def for_modulus(cls, modulus: int, n: int | None = None) -> "MontParams":
        """Params with the minimal scan length unless n is given."""
        _require_int("modulus", modulus)
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        return cls(modulus, modulus.bit_length() if n is None else n)

    @property
    def r(self) -> int:
        return 1 << self.n

    @cached_property
    def _clearing(self) -> tuple[int, ...]:
        """`mont_mult_word`'s one table for this modulus M: clear[r] = q * M
        with q = r * (-M^(-1) mod 16) mod 16, so r + clear[r] is 0 mod 16.
        Every hex digit of x * 2^pad, pad = -n mod 4, takes its step with
        it: n + pad bits are divided out and R = 2^n is unchanged."""
        m = self.modulus
        c = pow(-m, -1, 16)
        return tuple((r * c & 15) * m for r in range(16))

    @property
    def register_width(self) -> int:
        # S, C < 2M and one in-flight addend each < M keep every
        # intermediate below 4M < 2^(n+2).
        return self.n + 2


def _check_operand(name: str, value: int, params: MontParams) -> None:
    _require_int(name, value)
    if not 0 <= value < params.modulus:
        raise ValueError(
            f"{name}={value} out of range [0, {params.modulus}) for modulus "
            f"{params.modulus}"
        )


@dataclass(frozen=True)
class CycleRecord:
    """One scan step of the multiplier loop."""

    index: int
    x_bit: int
    s0: int
    total_after_multiplicand: int
    total_after_parity_clear: int
    s: int
    c: int


class MontTrace(NamedTuple):
    params: MontParams
    x: int
    y: int
    cycles: tuple[CycleRecord, ...]
    product: int


#: Hex digits "0"-"f" to bytes 0-15, as `bits._BIT_VALUES` does for bits.
_HEX_VALUES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def mont_mult_word(x: int, y: int, params: MontParams) -> int:
    """Compute x * y * 2^(-n) mod M on the running total.

    x * 2^pad, with pad = -n mod 4, is read one hex digit d at a time,
    LSB first, each digit one table step: u = T + ym[d], then
    T = (u + clear[u & 15]) >> 4. ym[d] is d * Y, and clear[r] is q * M
    with q = r * (-M^(-1) mod 16) mod 16, which makes u + clear[u & 15]
    a multiple of 16. Both tables have 16 entries: ym takes 15 additions
    per product, and clear is built once per `MontParams`, which keeps
    it. That leaves three big-int operations per 4 bits. The scan divides
    n + pad bits out of x * 2^pad * Y, which leaves R = 2^n, and each
    step keeps T < (2M + 15M + 15M) / 16 = 2M for the one final
    subtraction. A modulus forced even past `MontParams` has no inverse
    mod 16, so it is handed to `mont_mult_trace` first, which gives the
    same product or raises the same `InvariantError` at the same step.
    """
    _check_operand("x", x, params)
    _check_operand("y", y, params)
    m = params.modulus
    if not m & 1:
        return mont_mult_trace(x, y, params).product
    clear = params._clearing
    ym = list(accumulate(repeat(y, 15), initial=0))
    pad = -params.n % 4
    digits = format(x << pad, f"0{(params.n + pad) // 4}x").encode().translate(_HEX_VALUES)
    t = 0
    for d in reversed(digits):
        u = t + ym[d]
        t = (u + clear[u & 15]) >> 4
    return t - m if t >= m else t


def mont_mult_trace(x: int, y: int, params: MontParams) -> MontTrace:
    """As `mont_mult_word`, on the carry-save words S and C, recording each step.

    Stage 1 adds x_i * Y and stage 2 s0 * M. C is kept unshifted after
    stage 2: the stage's carry word is C << 1, whose low bit is always
    0, and the halving undoes that shift, so the parity check looks at
    S alone. The trace also checks S + C < 2M after each halving.
    """
    _check_operand("x", x, params)
    _check_operand("y", y, params)
    m = params.modulus
    s = c = 0
    cycles = []
    for i, xi in enumerate(to_bits(x, params.n)):
        s1, c1 = _csa(s, c, y if xi else 0)
        c1 <<= 1
        s2, c = _csa(s1, c1, m if s1 & 1 else 0)
        if s2 & 1:
            raise InvariantError("parity set before halving; halving would be inexact")
        s = s2 >> 1
        if s + c >= 2 * m:
            raise InvariantError("running sum S + C reached 2M")
        cycles.append(_record(i, xi, s1, c1, s, c))
    p = s + c
    return MontTrace(params, x, y, tuple(cycles), p - m if p >= m else p)


def _record(index: int, x_bit: int, s1: int, c1: int, s: int, c: int) -> CycleRecord:
    """One scan step's record, from S1, C1 after stage 1 and S, C after the
    halving: stage 2 leaves its sum even, so its total is 2 * (S + C)."""
    return CycleRecord(index, x_bit, s1 & 1, s1 + c1, 2 * (s + c), s, c)


def _csa(a: int, b: int, c: int) -> tuple[int, int]:
    """One word-level carry-save addition: a + b + c == sum + 2 * carry."""
    t = a ^ b
    return t ^ c, (a & b) | (t & c)


def to_mont(x: int, params: MontParams) -> int:
    """Enter the residue domain: x * 2^n mod M."""
    _check_operand("x", x, params)
    return (x << params.n) % params.modulus


def from_mont(xbar: int, params: MontParams) -> int:
    """Leave the residue domain: multiply by 1 strips the 2^n factor."""
    _check_operand("xbar", xbar, params)
    return mont_mult_word(xbar, 1, params)


def mont_exp(a: int, b: int, modulus: int) -> int:
    """a^b mod modulus by left-to-right binary square and multiply.

    Every squaring and conditional multiplication is a Montgomery
    product; operands enter the residue domain once and the result
    leaves it once at the end. That is one squaring per bit of b, one
    product per set bit and one to leave the domain: 20 products at
    b = 65537. The first squaring and the first multiply act on the
    Montgomery form of 1, so those two only turn it into abar.
    """
    _require_int("b", b)
    _require_int("modulus", modulus)
    if modulus < 3 or modulus % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {modulus}")
    if b < 0:
        raise ValueError(f"exponent must be non-negative, got {b}")
    params = MontParams.for_modulus(modulus)
    _check_operand("a", a, params)
    abar = to_mont(a, params)
    result = to_mont(1, params)
    for i in reversed(range(b.bit_length())):
        result = mont_mult_word(result, result, params)
        if (b >> i) & 1:
            result = mont_mult_word(result, abar, params)
    return from_mont(result, params)


# -- gate-level datapath ---------------------------------------------


def _invariant(holds: bool, message: str) -> None:
    """A datapath check that, unlike `assert`, still runs under `python -O`."""
    if not holds:
        raise InvariantError(message)


def _csa_stage(width: int, n: int, *, bus: str, tap_lsb: bool, name: str) -> Netlist:
    """One carry-save stage: a TSG full-adder row plus operand gating.

    Adds `gate_bit * bus` to the two running words. The gating bit is
    either the external input `x` (tap_lsb=False) or the stage's own
    LSB input `si0` (tap_lsb=True); Feynman chains replicate it for the
    Toffoli AND row, which keeps every wire single-sink.
    """
    # Each wire name is one string object wherever it appears, so its
    # hash is computed once and dict lookups on it match by identity.
    si, ci, sums, cars = (_bus(word, width) for word in ("si", "ci", "sum", "car"))
    operand = _bus(bus, n)
    gates: list[GateInstance] = []
    garbage: list[str] = []
    consts: dict[str, int] = {}

    if tap_lsb:
        source = si[0]
        n_copies = n  # n AND lines plus the pass-through back into slice 0
    else:
        source = "x"
        n_copies = n - 1  # n AND lines total, the source itself is one

    lines: list[str] = []
    cur = source
    for k in range(n_copies):
        cur, copy = _copy(gates, consts, cur, f"fz{k}", f"ft{k}", f"fc{k}")
        lines.append(copy)
    and_lines = lines + [cur] if not tap_lsb else lines
    slice0_a = cur if tap_lsb else si[0]
    _invariant(len(and_lines) == n, f"{len(and_lines)} AND lines for {n} operand bits")

    products = _bus("p", n)
    for j in range(n):
        zero, waste = f"tz{j}", (f"tg{j}a", f"tg{j}b")
        consts[zero] = 0
        gates.append(GateInstance(TOFFOLI, (and_lines[j], operand[j], zero), (*waste, products[j])))
        garbage += waste

    for j in range(width):
        zero = f"az{j}"
        consts[zero] = 0
        if j < n:
            addend = products[j]
        else:
            addend = f"pz{j}"
            consts[addend] = 0
        a_in = slice0_a if j == 0 else si[j]
        _full_adder(gates, garbage, a_in, ci[j], zero, addend, (f"fa{j}a", f"fa{j}b"),
                    sums[j], cars[j])

    # MontDatapath.run assembles the sources in this order, constants last.
    primary_inputs = si + ci + operand
    if not tap_lsb:
        primary_inputs.append("x")
    return Netlist(
        primary_inputs=primary_inputs,
        constants=consts,
        gates=gates,
        primary_outputs=sums + cars,
        garbage_outputs=garbage,
        name=name,
    )


@lru_cache(maxsize=1)  # every command and benchmark workload builds one width
def _shape(w: int, n: int) -> tuple:
    """Both CSA stages, the final adder and their runners, for register width w."""
    stages = (_csa_stage(w, n, bus="y", tap_lsb=False, name="csa_stage1"),
              _csa_stage(w, n, bus="m", tap_lsb=True, name="csa_stage2"))
    runs = [s._runner(s.primary_outputs[:w], s.primary_outputs[w:]) for s in stages]
    final_adder = build_cpa(w)
    return (*stages, final_adder, *runs, final_adder._runner(final_adder.primary_outputs))


class MontRun(NamedTuple):
    """Record of one datapath execution, snapshots included.

    `snapshots` holds the concatenated register state after reset and
    after each scan cycle, for switching-activity analysis.
    """

    x: int
    y: int
    modulus: int
    n: int
    product: int
    cycles: tuple[CycleRecord, ...]
    snapshots: tuple[tuple[int, ...], ...]

    @property
    def metadata(self) -> dict:
        """Operands and parameters, as carried by a switching trace."""
        return {"x": self.x, "y": self.y, "m": self.modulus, "n": self.n}


#: The datapath's clocked parts, in snapshot bit order: name, kind and
#: the `MontParams` field that gives the width.
_CLOCKED_PARTS = (
    ("s_shift", ShiftRegister, "register_width"), ("c_shift", ShiftRegister, "register_width"),
    ("s_reg", Register, "register_width"), ("c_reg", Register, "register_width"),
    ("x_shift", ShiftRegister, "n"), ("y_reg", Register, "n"), ("m_reg", Register, "n"),
)


class MontDatapath:
    """Bit-serial Montgomery multiplier assembled from reversible parts.

    The clocked parts, `s_shift` to `m_reg`, are attributes built from
    `_CLOCKED_PARTS`. Its cores `stage1`, `stage2` and `final_adder` are
    shared by every datapath of its width: treat them as immutable, like
    `LATCH_CORE`. Single-stepper: one run at a time per instance.
    The most recent run record is kept on `last_run`.
    """

    def __init__(self, params: MontParams):
        self.params = params
        shape = _shape(params.register_width, params.n)
        (self.stage1, self.stage2, self.final_adder, self._run1, self._run2, self._add) = shape
        for core in shape[:3]:
            core._require_valid()  # the report is cached once the width is built
        self._parts = tuple(kind(getattr(params, width)) for _, kind, width in _CLOCKED_PARTS)
        for (name, _, _), part in zip(_CLOCKED_PARTS, self._parts):
            setattr(self, name, part)
        self.m_reg.load_value(params.modulus)
        self.last_run: MontRun | None = None

    # -- accounting ---------------------------------------------------

    @property
    def cores(self) -> tuple[Netlist, ...]:
        """Every combinational netlist in the datapath, latch cores included."""
        latch_cores = tuple(c for part in self._parts for c in part.cores)
        return (self.stage1, self.stage2, self.final_adder) + latch_cores

    def component_costs(self) -> dict[str, CostReport]:
        return {
            **{stage.name: stage.cost_report() for stage in (self.stage1, self.stage2)},
            **{name: getattr(self, name).cost_report() for name, _, _ in _CLOCKED_PARTS},
            "final_adder": self.final_adder.cost_report(),
        }

    def cost_report(self) -> CostReport:
        """Field-wise sum over all components (sequential-composition bound)."""
        return sum(self.component_costs().values(), CostReport(0, 0, 0, 0))

    @property
    def garbage_bits_emitted(self) -> int:
        return sum(p.garbage_bits_emitted for p in self._parts)

    def _snapshot(self) -> tuple[int, ...]:
        bits: list[int] = []
        for part in self._parts:
            bits += part.state
        return tuple(bits)

    # -- execution ----------------------------------------------------

    def run(self, x: int, y: int) -> int:
        """Clock the datapath n cycles and resolve the product.

        Each cycle loads S and C together, then pulses the three shift
        registers together, the Y and M registers holding beside them:
        five latch-core calls in all.
        """
        params = self.params
        _check_operand("x", x, params)
        _check_operand("y", y, params)
        parts = self._parts
        s_shift, c_shift, s_reg, c_reg, x_shift, y_reg, m_reg = parts
        for part, value in zip(parts, (0, 0, 0, 0, x, y, params.modulus)):
            part.load_value(value)

        snapshots = [self._snapshot()]
        cycles = []
        for i in range(params.n):
            xi = x_shift.bits[0]

            sum1, car1 = self._run1(s_shift.bits + c_shift.bits + y_reg.bits + [xi])
            _invariant(car1[-1] == 0, "stage 1 carry spills past the register")
            # S and C load together; the carry word moves up one place.
            _load((s_reg, c_reg), (*sum1, 0, *car1[:-1]))
            s_bits, c_bits = s_reg.bits, c_reg.bits

            sum2, car2 = self._run2(s_bits + c_bits + m_reg.bits)
            _invariant(car2[-1] == 0, "stage 2 carry spills past the register")
            _invariant(sum2[0] == 0, "stage 2 left the parity set; halving would be inexact")

            s_shift._force_bits(sum2)
            c_shift._force_bits((0, *car2[:-1]))
            _pulse((s_shift, c_shift, x_shift), 0, holds=(y_reg, m_reg))

            cycles.append(_record(i, xi, from_bits(s_bits), from_bits(c_bits),
                                  s_shift.value, c_shift.value))
            snapshots.append(self._snapshot())

        (total,) = self._add(s_shift.bits + c_shift.bits + [0])  # cin = 0
        p = from_bits(total)
        if p >= params.modulus:
            p -= params.modulus
        self.last_run = MontRun(
            x=x,
            y=y,
            modulus=params.modulus,
            n=params.n,
            product=p,
            cycles=tuple(cycles),
            snapshots=tuple(snapshots),
        )
        return p
