"""Sequential elements against behavioral models."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revalu import (
    FREDKIN,
    DLatch,
    MasterSlaveDFF,
    Register,
    ShiftRegister,
    check_reversibility,
)
from revalu.bits import from_bits, to_bits


class TestDLatch:
    def test_characteristic_equation_all_eight_cases(self):
        latch = DLatch()
        for e, d, q in product((0, 1), repeat=3):
            latch.load_value(q)
            out = latch.step({"e": e, "d": d})
            expected = (d & e) | (q & (1 - e))
            assert latch.value == expected
            assert out["q"] == expected

    def test_enabled_load(self):
        latch = DLatch()
        assert latch.step({"e": 1, "d": 1})["q"] == 1

    def test_disabled_hold(self):
        latch = DLatch()
        latch.load_value(0)
        assert latch.step({"e": 0, "d": 1})["q"] == 0

    def test_fredkin_wiring_spot_check(self):
        # Middle output with (e=1, q=0, d=1) must be the loaded data bit.
        assert FREDKIN.apply((1, 0, 1))[1] == 1

    def test_core_is_valid_reversible_netlist(self):
        core = DLatch().cores[0]
        assert core.validate().ok
        assert check_reversibility(core).ok

    def test_garbage_two_bits_per_step(self):
        latch = DLatch()
        for step in range(5):
            latch.step({"e": 1, "d": step & 1})
        assert latch.garbage_bits_emitted == 10

    def test_missing_input_named(self):
        with pytest.raises(ValueError, match="'d'"):
            DLatch().step({"e": 1})


class TestMasterSlaveDFF:
    def test_output_updates_on_falling_clock(self):
        dff = MasterSlaveDFF()
        dff.step({"cp": 1, "d": 1})
        assert dff.value == 0  # slave still opaque
        dff.step({"cp": 0, "d": 0})
        assert dff.value == 1  # captured data appears at the fall

    def test_data_toggling_while_low_is_ignored(self):
        dff = MasterSlaveDFF()
        dff.pulse(1)
        assert dff.value == 1
        for d in (0, 1, 0, 1):
            dff.step({"cp": 0, "d": d})
        assert dff.value == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_random_stimulus_matches_behavioral_model(self, seed):
        rng = random.Random(seed)
        dff = MasterSlaveDFF()
        master = 0
        q = 0
        for _ in range(100):
            cp = rng.randint(0, 1)
            d = rng.randint(0, 1)
            dff.step({"cp": cp, "d": d})
            if cp:
                master = d
            else:
                q = master
            assert dff.value == q

    def test_hold_with_clock_low(self):
        dff = MasterSlaveDFF()
        dff.pulse(1)
        state = dff.state
        for _ in range(4):
            dff.step({"cp": 0, "d": 0})
        assert dff.state == state


class TestRegister:
    def test_parallel_load(self):
        reg = Register(4)
        reg.step({"e": 1, "d0": 1, "d1": 1, "d2": 0, "d3": 1})
        assert reg.value == 0b1011

    def test_hold(self):
        reg = Register(4)
        reg.load_value(0b0110)
        reg.step({"e": 0, "d0": 1, "d1": 0, "d2": 0, "d3": 1})
        assert reg.value == 0b0110

    @pytest.mark.parametrize("seed", range(10))
    def test_random_load_hold_sequence(self, seed):
        rng = random.Random(seed)
        width = 5
        reg = Register(width)
        model = 0
        for _ in range(100):
            e = rng.randint(0, 1)
            d = rng.randrange(1 << width)
            reg.step({"e": e, **{f"d{i}": (d >> i) & 1 for i in range(width)}})
            if e:
                model = d
            assert reg.value == model

    @pytest.mark.parametrize(
        "inputs, message",
        [
            ({"e": 1, "d0": 1}, "missing input 'd1'"),
            ({"e": 1, "d0": 1, "d1": 2}, "input 'd1' must be 0 or 1"),
            ({"d0": 1, "d1": 1}, "missing input 'e'"),
            # An unknown name does not change which check speaks first.
            ({"e": 1, "d0": 1, "d2": 1}, "^missing input 'd1'$"),
            ({"e": 1, "d0": 1, "d1": 2, "d2": 1}, "^input 'd1' must be 0 or 1, got 2$"),
        ],
    )
    def test_rejected_step_changes_nothing(self, inputs, message):
        reg = Register(2)
        reg.load_value(0b10)
        with pytest.raises(ValueError, match=message):
            reg.step(inputs)
        assert (reg.state, reg.value, reg.garbage_bits_emitted) == ((0, 1), 0b10, 0)

    def test_cost_scales_with_width(self):
        report = Register(4).cost_report()
        assert report.gate_count == 8  # two gates per latch lane


class TestShiftRegister:
    def test_one_pulse_halves(self):
        sr = ShiftRegister(4)
        sr.load_value(0b1011)
        sr.pulse(sin=0)
        assert sr.value == 0b0101

    def test_zero_stays_zero(self):
        sr = ShiftRegister(4)
        for _ in range(6):
            sr.pulse(sin=0)
        assert sr.value == 0

    def test_serial_in_fills_msb(self):
        sr = ShiftRegister(3)
        sr.load_value(0)
        sr.pulse(sin=1)
        assert sr.value == 0b100

    def test_width_pulses_flush_to_fill(self):
        for fill in (0, 1):
            sr = ShiftRegister(5)
            sr.load_value(0b10110)
            for _ in range(5):
                sr.pulse(sin=fill)
            assert sr.value == (0b11111 if fill else 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_pulse_sequence_matches_behavioral_shift(self, seed):
        rng = random.Random(seed)
        width = 6
        sr = ShiftRegister(width)
        start = rng.randrange(1 << width)
        sr.load_value(start)
        model = start
        for _ in range(30):
            sin = rng.randint(0, 1)
            sr.pulse(sin=sin)
            model = (model >> 1) | (sin << (width - 1))
            assert sr.value == model

    def test_serial_out_mirrors_lsb(self):
        sr = ShiftRegister(3)
        sr.load_value(0b110)
        out = sr.pulse(sin=0)
        assert out["sout"] == sr.value & 1


class TestLongRanks:
    """A rank longer than any rail built ahead keeps its length, value and step count."""

    def test_register_load_then_hold(self):
        width = 5000
        value = random.Random(5000).getrandbits(width) | 1
        reg = Register(width)
        reg.load(value)
        reg.step({"e": 0, **{f"d{i}": 1 for i in range(width)}})
        assert (len(reg.state), reg.value) == (width, value)
        assert reg.garbage_bits_emitted == 2 * 2 * width

    def test_shift_register_pulse(self):
        width = 3000
        value = random.Random(3000).getrandbits(width) | 1 << (width - 1) | 1
        sr = ShiftRegister(width)
        sr.load_value(value)
        out = sr.pulse()
        assert (len(sr.state), sr.value, out["sout"]) == (2 * width, value >> 1, value >> 1 & 1)
        assert sr.garbage_bits_emitted == 2 * 4 * width


class TestUnknownInputs:
    """`step` refuses input names it does not read, before any latch moves."""

    @pytest.mark.parametrize(
        "kind, width, inputs, message",
        [
            ("dlatch", 1, {"e": 1, "d": 1, "typo": 0},
             r"^unknown input 'typo' for dlatch; expected 'e', 'd'$"),
            ("register", 2, {"e": 1, "d0": 1, "d1": 1, "d2": 1},
             r"^unknown input 'd2' for register; expected 'e', 'd0', 'd1'$"),
            ("dff", 1, {"cp": 1, "d": 1, "e": 1, "q": 0},
             r"^unknown inputs 'e', 'q' for dff; expected 'cp', 'd'$"),
            ("shiftreg", 3, {"cp": 1, "sin": 1, "d": 1},
             r"^unknown input 'd' for shiftreg; expected 'cp', 'sin'$"),
        ],
    )
    def test_unknown_name_refused_and_nothing_moves(self, kind, width, inputs, message):
        element = _ELEMENTS[kind](width)
        element.load_value(1)
        before = (element.state, element.value, element.garbage_bits_emitted)
        with pytest.raises(ValueError, match=message):
            element.step(inputs)
        assert (element.state, element.value, element.garbage_bits_emitted) == before


class TestOnlyIntBits:
    """Every clocked boundary takes only the ints 0 and 1: True and 1.0 are refused."""

    @pytest.mark.parametrize("bad", [True, 1.0])
    @pytest.mark.parametrize(
        "kind, width, inputs, name",
        [
            ("dlatch", 1, {"e": 1, "d": 0}, "e"),
            ("dlatch", 1, {"e": 1, "d": 0}, "d"),
            ("register", 2, {"e": 1, "d0": 0, "d1": 0}, "d1"),
            ("dff", 1, {"cp": 1, "d": 0}, "cp"),
            ("dff", 1, {"cp": 1, "d": 0}, "d"),
            ("shiftreg", 2, {"cp": 1, "sin": 0}, "sin"),
        ],
    )
    def test_step(self, kind, width, inputs, name, bad):
        element = _ELEMENTS[kind](width)
        with pytest.raises(ValueError) as info:
            element.step({**inputs, name: bad})
        assert str(info.value) == f"input {name!r} must be 0 or 1, got {bad!r}"
        assert (set(element.state), element.garbage_bits_emitted) == ({0}, 0)

    @pytest.mark.parametrize("bad", [True, 1.0])
    @pytest.mark.parametrize(
        "make, name", [(MasterSlaveDFF, "d"), (lambda: ShiftRegister(2), "sin")],
        ids=["dff", "shiftreg"],
    )
    def test_pulse(self, make, name, bad):
        element = make()
        with pytest.raises(ValueError) as info:
            element.pulse(bad)
        assert str(info.value) == f"input {name!r} must be 0 or 1, got {bad!r}"
        assert (set(element.state), element.garbage_bits_emitted) == ({0}, 0)

    @pytest.mark.parametrize("bad", [True, 1.0])
    @pytest.mark.parametrize("make", [DLatch, MasterSlaveDFF])
    def test_load_value(self, make, bad):
        element = make()
        with pytest.raises(ValueError) as info:
            element.load_value(bad)
        assert str(info.value) == f"latch holds one bit, got {bad!r}"
        assert set(element.state) == {0}


class TestOnlyIntWords:
    """Word loads take only ints: True and 1.0 are refused before any latch moves."""

    @pytest.mark.parametrize("bad", [True, 1.0])
    @pytest.mark.parametrize(
        "make, load",
        [
            (lambda: Register(2), "load_value"),
            (lambda: Register(2), "load"),
            (lambda: ShiftRegister(2), "load_value"),
        ],
        ids=["register-load_value", "register-load", "shiftreg-load_value"],
    )
    def test_load(self, make, load, bad):
        element = make()
        element.load_value(2)
        with pytest.raises(TypeError) as info:
            getattr(element, load)(bad)
        assert str(info.value) == f"value must be an int, got {type(bad).__name__}"
        assert (element.bits, element.garbage_bits_emitted) == ([0, 1], 0)


class TestConstructionLimits:
    def test_zero_width_register(self):
        with pytest.raises(ValueError, match="width"):
            Register(0)

    def test_zero_width_shift_register(self):
        with pytest.raises(ValueError, match="width"):
            ShiftRegister(0)

    def test_latch_load_value_range(self):
        with pytest.raises(ValueError, match="one bit"):
            DLatch().load_value(2)


class BehaviouralModel:
    """Plain bit-list model of a clocked element, independent of the latch core.

    `masters` is None for single-rank elements (latch, register); the
    flip-flop and the shift register keep a master and a slave rank.
    """

    def __init__(self, kind, width):
        self.kind = kind
        self.width = width
        self.slaves = [0] * width
        self.masters = [0] * width if kind in ("dff", "shiftreg") else None
        self.garbage = 0

    @property
    def state(self):
        if self.masters is None:
            return tuple(self.slaves)
        return tuple(b for pair in zip(self.masters, self.slaves) for b in pair)

    @property
    def value(self):
        return from_bits(self.slaves)

    def step(self, inputs):
        if self.kind in ("dlatch", "register"):
            if inputs["e"]:
                self.slaves = [inputs["d" if self.kind == "dlatch" else f"d{i}"]
                               for i in range(self.width)]
            self.garbage += 2 * self.width
            if self.kind == "dlatch":
                return {"q": self.slaves[0]}
            return {f"q{i}": b for i, b in enumerate(self.slaves)}
        if self.kind == "dff":
            feed = [inputs["d"]]
        else:
            feed = self.slaves[1:] + [inputs["sin"]]
        if inputs["cp"]:
            self.masters = feed
        else:
            self.slaves = list(self.masters)
        self.garbage += 4 * self.width
        if self.kind == "dff":
            return {"q": self.slaves[0]}
        return {**{f"q{i}": b for i, b in enumerate(self.slaves)}, "sout": self.slaves[0]}

    def load_value(self, value):
        self.slaves = list(to_bits(value, self.width))
        if self.masters is not None:
            self.masters = list(self.slaves)


_ELEMENTS = {
    "dlatch": lambda width: DLatch(),
    "register": Register,
    "dff": lambda width: MasterSlaveDFF(),
    "shiftreg": ShiftRegister,
}


@pytest.mark.parametrize("kind", sorted(_ELEMENTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_clocked_elements_match_behavioural_model(kind, data):
    width = 1 if kind in ("dlatch", "dff") else data.draw(st.integers(1, 5), label="width")
    element = _ELEMENTS[kind](width)
    model = BehaviouralModel(kind, width)
    bit = st.integers(0, 1)
    actions = ["step", "load_value"]
    actions += {"register": ["load"], "dff": ["pulse"], "shiftreg": ["pulse"]}.get(kind, [])
    for action in data.draw(st.lists(st.sampled_from(actions), max_size=25), label="actions"):
        if action == "load_value":
            value = data.draw(st.integers(0, (1 << width) - 1))
            element.load_value(value)
            model.load_value(value)
            continue
        if action == "step":
            if kind in ("dlatch", "dff"):
                names = ["e" if kind == "dlatch" else "cp", "d"]
            elif kind == "register":
                names = ["e"] + [f"d{i}" for i in range(width)]
            else:
                names = ["cp", "sin"]
            inputs = {name: data.draw(bit, label=name) for name in names}
            steps = [inputs]
        elif action == "load":
            value = data.draw(st.integers(0, (1 << width) - 1))
            steps = [{"e": 1, **{f"d{i}": b for i, b in enumerate(to_bits(value, width))}}]
        else:  # pulse: clock high, then low, with the same data
            d = data.draw(bit, label="d")
            name = "d" if kind == "dff" else "sin"
            steps = [{"cp": 1, name: d}, {"cp": 0, name: d}]
        expected = [model.step(inputs) for inputs in steps][-1]
        if action == "step":
            out = element.step(inputs)
        elif action == "load":
            out = element.load(value)
            expected = None
        else:
            out = element.pulse(d)
        assert out == expected
        assert element.value == model.value
        assert element.state == model.state
        assert element.garbage_bits_emitted == model.garbage
    assert len(element.state) == len(element.cores)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_dff_is_the_one_flop_shift_register(data):
    """A DFF and a ShiftRegister(1) are the same chain under any step/pulse sequence."""
    dff, sr = MasterSlaveDFF(), ShiftRegister(1)
    bit = st.integers(0, 1)
    for action in data.draw(st.lists(st.sampled_from(["step", "pulse"]), max_size=30)):
        d = data.draw(bit, label="d")
        if action == "step":
            cp = data.draw(bit, label="cp")
            out, shifted = dff.step({"cp": cp, "d": d}), sr.step({"cp": cp, "sin": d})
        else:
            out, shifted = dff.pulse(d), sr.pulse(d)
        assert shifted == {"q0": out["q"], "sout": out["q"]}
        assert dff.state == sr.state
        assert dff.garbage_bits_emitted == sr.garbage_bits_emitted
