"""Montgomery multiplication against modular-arithmetic oracles."""

import ast
import dataclasses
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revalu
import revalu.montgomery as mg
from revalu.bits import from_bits
from revalu.gates import TOFFOLI, GateKind
from revalu.netlist import GateInstance, Netlist, NetlistError
from revalu import (
    MontDatapath,
    MontParams,
    Register,
    ShiftRegister,
    build_cpa,
    from_mont,
    mont_exp,
    mont_mult_trace,
    mont_mult_word,
    serialize_rnl,
    to_mont,
)


def oracle_product(x, y, m, n):
    # Direct definition: x * y * R^-1 mod m with R = 2^n.
    return (x * y * pow(1 << n, -1, m)) % m


def _csa_words(u, v, w):
    """Carry-save step: exact sum split into an XOR word and a carry word."""
    return u ^ v ^ w, ((u & v) | (u & w) | (v & w)) << 1


def reference_scan(x, y, params):
    """The scan by one `_csa_words` call per stage and x read by shifts: (records, product)."""
    m = params.modulus
    s = c = 0
    cycles = []
    for i in range(params.n):
        xi = (x >> i) & 1
        s, c = _csa_words(s, c, y if xi else 0)
        t3 = s + c
        s0 = s & 1
        s, c = _csa_words(s, c, m if s0 else 0)
        t4 = s + c
        assert s & 1 == 0 and c & 1 == 0
        s >>= 1
        c >>= 1
        cycles.append(mg.CycleRecord(i, xi, s0, t3, t4, s, c))
    p = s + c
    if p >= m:
        p -= m
    return tuple(cycles), p


@st.composite
def scan_cases(draw):
    """An odd modulus of 1-1100 bits, a scan length up to 3 bits past it, x and y below it."""
    bits = draw(st.integers(1, 1100))
    m = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    n = draw(st.integers(bits, bits + 3))
    x = draw(st.integers(0, m - 1))
    y = draw(st.integers(0, m - 1))
    return x, y, MontParams(m, n)


class TestParams:
    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            MontParams(6, 3)

    def test_modulus_must_fit(self):
        with pytest.raises(ValueError, match="fit"):
            MontParams(9, 3)

    def test_scan_length_must_be_positive(self):
        with pytest.raises(ValueError) as excinfo:
            MontParams(7, 0)
        assert str(excinfo.value) == "n must be >= 1, got 0"

    def test_for_modulus_refuses_zero(self):
        with pytest.raises(ValueError) as excinfo:
            MontParams.for_modulus(0)
        assert str(excinfo.value) == "modulus must be positive, got 0"

    def test_minimal_scan_length(self):
        assert MontParams.for_modulus(7).n == 3
        assert MontParams.for_modulus(9).n == 4

    def test_register_width(self):
        assert MontParams(7, 3).register_width == 5

    def test_operand_range_enforced(self):
        with pytest.raises(ValueError, match="out of range"):
            mont_mult_word(7, 1, MontParams(7, 3))


class TestWordLevel:
    def test_three_times_five_mod_seven(self):
        assert mont_mult_word(3, 5, MontParams(7, 3)) == 1

    def test_documented_running_totals(self):
        trace = mont_mult_trace(3, 5, MontParams(7, 3))
        observed = [
            (c.total_after_multiplicand, c.total_after_parity_clear, c.s + c.c)
            for c in trace.cycles
        ]
        assert observed == [(5, 12, 6), (11, 18, 9), (9, 16, 8)]
        assert trace.product == 1

    def test_zero_annihilates(self):
        params = MontParams(11, 4)
        for y in range(11):
            assert mont_mult_word(0, y, params) == 0

    def test_four_times_six_mod_nine(self):
        assert mont_mult_word(4, 6, MontParams(9, 4)) == 6

    @pytest.mark.parametrize("modulus", [5, 7, 9, 11, 13, 15])
    def test_exhaustive_small_moduli(self, modulus):
        params = MontParams.for_modulus(modulus)
        for x in range(modulus):
            for y in range(modulus):
                assert mont_mult_word(x, y, params) == oracle_product(
                    x, y, modulus, params.n
                )

    def test_result_always_reduced(self):
        params = MontParams.for_modulus(13)
        for x in range(13):
            for y in range(13):
                assert 0 <= mont_mult_word(x, y, params) < 13

    # n = 204 to 207 on a 200-bit modulus: pad -n mod 4 takes every value,
    # with leading zero digits in x.
    @pytest.mark.parametrize("n", [204, 205, 206, 207])
    def test_scan_longer_than_modulus(self, n):
        rng = random.Random(23)
        m = rng.getrandbits(200) | (1 << 199) | 1
        params = MontParams(m, n)
        for _ in range(20):
            x, y = rng.randrange(m), rng.randrange(m)
            assert mont_mult_word(x, y, params) == oracle_product(x, y, m, n)

    @settings(max_examples=150, deadline=None)
    @given(scan_cases())
    def test_matches_reference_scan(self, case):
        x, y, params = case
        cycles, product = reference_scan(x, y, params)
        assert mont_mult_word(x, y, params) == product
        trace = mont_mult_trace(x, y, params)
        assert trace.cycles == cycles
        assert trace.product == product


    @pytest.mark.parametrize("bits, y_below_m", [(1024, 1), (2048, 1), (1024, 2), (2048, 2),
                                                  (1021, 1), (1022, 1), (1023, 1)],
                             ids=["1024", "2048", "1024-odd-y", "2048-odd-y",
                                  "1021", "1022", "1023"])
    def test_edge_operands_at_benchmark_width(self, bits, y_below_m):
        # x = 0, 1, 2^(n-1) and the widest all-ones value below m, each
        # times y = m - 1 (even) and y = m - 2 (odd). At 1021 to 1024 bits
        # `mont_mult_word` pads x by 3 to 0 bits to whole hex digits, and x =
        # 2^(n-1) and the all-ones x set bits in its top digit; together they take
        # all four (x_i, s0) branches of the trace.
        m = random.Random(bits).getrandbits(bits) | (1 << (bits - 1)) | 1
        params = MontParams.for_modulus(m)
        assert params.n == bits
        ones = (1 << bits) - 1
        if ones >= m:
            ones >>= 1
        y = m - y_below_m
        branches = set()
        for x in (0, 1, 1 << (bits - 1), ones):
            cycles, product = reference_scan(x, y, params)
            assert product == oracle_product(x, y, m, bits)
            assert mont_mult_word(x, y, params) == product
            trace = mont_mult_trace(x, y, params)
            assert trace.cycles == cycles
            assert trace.product == product
            branches.update((c.x_bit, c.s0) for c in trace.cycles)
        assert branches == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestLoopInvariants:
    def test_running_sum_stays_below_twice_modulus(self):
        params = MontParams.for_modulus(13)
        for x in range(13):
            for y in range(13):
                for record in mont_mult_trace(x, y, params).cycles:
                    assert record.s + record.c < 2 * 13

    def test_parity_cleared_before_every_halving(self):
        params = MontParams.for_modulus(15)
        rng = random.Random(3)
        for _ in range(100):
            x, y = rng.randrange(15), rng.randrange(15)
            for record in mont_mult_trace(x, y, params).cycles:
                assert record.total_after_parity_clear % 2 == 0

    def test_partial_product_congruence(self):
        # After iteration i the scaled running sum is congruent to the
        # partial product over the low i+1 multiplier bits.
        params = MontParams.for_modulus(11)
        for x in range(11):
            for y in range(11):
                for record in mont_mult_trace(x, y, params).cycles:
                    shift = record.index + 1
                    lhs = (record.s + record.c) << shift
                    rhs = (x % (1 << shift)) * y
                    assert (lhs - rhs) % 11 == 0


class TestDomainConversion:
    def test_to_mont_of_one(self):
        assert to_mont(1, MontParams(7, 3)) == 1  # 8 mod 7

    def test_to_mont_of_zero(self):
        assert to_mont(0, MontParams(7, 3)) == 0

    def test_round_trip_all_residues(self):
        params = MontParams(7, 3)
        for x in range(7):
            assert from_mont(to_mont(x, params), params) == x

    def test_round_trip_wider(self):
        params = MontParams.for_modulus(1023)
        for x in (0, 1, 511, 1022):
            assert from_mont(to_mont(x, params), params) == x


class TestDatapath:
    def test_cores_validate(self):
        datapath = MontDatapath(MontParams.for_modulus(11))
        assert datapath.stage1.validate().ok
        assert datapath.stage2.validate().ok
        assert datapath.final_adder.validate().ok

    def test_matches_word_level_exhaustively_m7(self):
        params = MontParams(7, 3)
        datapath = MontDatapath(params)
        for x in range(7):
            for y in range(7):
                assert datapath.run(x, y) == mont_mult_word(
                    x, y, params
                )

    def test_cycle_by_cycle_trace_match(self):
        params = MontParams(7, 3)
        datapath = MontDatapath(params)
        datapath.run(3, 5)
        word = mont_mult_trace(3, 5, params)
        for gate_cycle, word_cycle in zip(datapath.last_run.cycles, word.cycles):
            assert gate_cycle == word_cycle

    def test_zero_operand(self):
        datapath = MontDatapath(MontParams(7, 3))
        assert datapath.run(0, 6) == 0

    def test_random_wide_cases(self):
        params = MontParams.for_modulus(0xB00B)  # odd 16-bit modulus
        datapath = MontDatapath(params)
        rng = random.Random(9)
        for _ in range(10):
            x = rng.randrange(params.modulus)
            y = rng.randrange(params.modulus)
            assert datapath.run(x, y) == mont_mult_word(x, y, params)

    def test_snapshot_count_is_cycles_plus_one(self):
        datapath = MontDatapath(MontParams(7, 3))
        datapath.run(3, 5)
        assert len(datapath.last_run.snapshots) == 4

    def test_cost_is_sum_of_component_reports(self):
        datapath = MontDatapath(MontParams.for_modulus(13))
        components = datapath.component_costs()
        total = datapath.cost_report()
        assert total.gate_count == sum(r.gate_count for r in components.values())
        assert total.garbage_count == sum(r.garbage_count for r in components.values())
        assert total.constant_input_count == sum(
            r.constant_input_count for r in components.values()
        )
        assert total.unit_delay == sum(r.unit_delay for r in components.values())

    def test_operand_range_enforced(self):
        datapath = MontDatapath(MontParams(7, 3))
        with pytest.raises(ValueError, match="out of range"):
            datapath.run(7, 0)

    def test_run_record_metadata(self):
        datapath = MontDatapath(MontParams(7, 3))
        datapath.run(2, 4)
        assert datapath.last_run.metadata == {"x": 2, "y": 4, "m": 7, "n": 3}


class TestDatapathsOfOneWidth:
    """Datapaths with one scan length and different moduli run independently."""

    def test_interleaved_runs_match_word_level(self):
        datapaths = [MontDatapath(MontParams(m, 16)) for m in (0xB00B, 0xC5A7)]
        rng = random.Random(17)
        for _ in range(6):
            for datapath in datapaths:
                params = datapath.params
                x, y = rng.randrange(params.modulus), rng.randrange(params.modulus)
                assert datapath.run(x, y) == mont_mult_word(x, y, params)
                assert datapath.last_run.cycles == mont_mult_trace(x, y, params).cycles
        for datapath in datapaths:
            assert datapath.last_run.modulus == datapath.params.modulus

    def test_garbage_counted_per_datapath(self):
        first = MontDatapath(MontParams(0xB00B, 16))
        second = MontDatapath(MontParams(0xC5A7, 16))
        second.run(3, 5)
        assert first.garbage_bits_emitted == 0
        first.run(3, 5)
        per_run = first.garbage_bits_emitted
        assert per_run > 0 and second.garbage_bits_emitted == per_run
        second.run(7, 11)
        assert first.garbage_bits_emitted == per_run
        assert second.garbage_bits_emitted == 2 * per_run

    def test_cores_are_shared_within_a_width_only(self):
        first, second = (MontDatapath(MontParams(m, 16)) for m in (0xB00B, 0xC5A7))
        other = MontDatapath(MontParams(0xB00B, 17))
        for name in ("stage1", "stage2", "final_adder"):
            assert getattr(first, name) is getattr(second, name)
            assert getattr(first, name) is not getattr(other, name)

    def test_runs_leave_the_other_datapath_of_the_width_alone(self):
        datapaths = [MontDatapath(MontParams(m, 16)) for m in (0xB00B, 0xC5A7)]
        rng = random.Random(23)
        for _ in range(4):
            for datapath, bystander in (datapaths, datapaths[::-1]):
                params = datapath.params
                record, garbage = bystander.last_run, bystander.garbage_bits_emitted
                x, y = rng.randrange(params.modulus), rng.randrange(params.modulus)
                assert datapath.run(x, y) == mont_mult_word(x, y, params)
                assert datapath.last_run.cycles == mont_mult_trace(x, y, params).cycles
                assert bystander.last_run is record
                assert bystander.garbage_bits_emitted == garbage

    def test_shape_cache_stays_bounded_and_rebuilds_alike(self):
        params = MontParams(5, 3)
        first = MontDatapath(params)
        bound = mg._shape.cache_info().maxsize
        for n in range(4, 5 + bound):
            MontDatapath(MontParams(5, n))
            assert mg._shape.cache_info().currsize <= bound
        rebuilt = MontDatapath(params)
        assert rebuilt.stage1 is not first.stage1
        for x in range(5):
            for y in range(5):
                assert rebuilt.run(x, y) == first.run(x, y) == mont_mult_word(x, y, params)
                assert rebuilt.last_run.cycles == first.last_run.cycles

    def test_stages_equal_fresh_builds_after_a_run(self):
        params = MontParams(0xB00B, 16)
        datapath = MontDatapath(params)
        datapath.run(0x1234, 0xABCD)
        w, n = params.register_width, params.n
        fresh = {
            "stage1": mg._csa_stage(w, n, bus="y", tap_lsb=False, name="csa_stage1"),
            "stage2": mg._csa_stage(w, n, bus="m", tap_lsb=True, name="csa_stage2"),
            "final_adder": build_cpa(w),
        }
        for name, netlist in fresh.items():
            assert serialize_rnl(getattr(datapath, name)) == serialize_rnl(netlist)


class TestDatapathWork:
    def test_gate_evaluations_and_garbage_per_run(self, monkeypatch):
        params = MontParams.for_modulus(0xB00B)
        datapath = MontDatapath(params)
        calls = {"apply": 0, "invert": 0}
        real_apply, real_invert = GateKind.apply, GateKind.invert

        def apply(self, inputs):
            calls["apply"] += 1
            return real_apply(self, inputs)

        def invert(self, outputs):
            calls["invert"] += 1
            return real_invert(self, outputs)

        monkeypatch.setattr(GateKind, "apply", apply)
        monkeypatch.setattr(GateKind, "invert", invert)
        w, n = params.register_width, params.n
        # Latch steps per cycle: S and C load (one per bit), the S, C and
        # X shift registers pulse (two phases through master and slave,
        # four per bit), Y and M hold (one per bit). Each latch step
        # evaluates the two gates of the latch core and discards two bits.
        latch_steps = 2 * w + 4 * (2 * w + n) + 2 * n
        garbage_before = datapath.garbage_bits_emitted
        assert datapath.run(0x1234, 0xABCD) == mont_mult_word(0x1234, 0xABCD, params)
        assert calls == {
            "apply": n * (len(datapath.stage1.gates) + len(datapath.stage2.gates)
                          + 2 * latch_steps) + len(datapath.final_adder.gates),
            "invert": 0,
        }
        assert datapath.garbage_bits_emitted - garbage_before == 2 * n * latch_steps

    def test_garbage_per_part_is_two_bits_per_own_latch_step(self):
        params = MontParams.for_modulus(0xB00B)
        datapath = MontDatapath(params)
        datapath.run(0x1234, 0xABCD)
        w, n = params.register_width, params.n
        latch_steps = {
            "s_reg": w * n, "c_reg": w * n,
            "s_shift": 4 * w * n, "c_shift": 4 * w * n, "x_shift": 4 * n * n,
            "y_reg": n * n, "m_reg": n * n,
        }
        assert {name: getattr(datapath, name).garbage_bits_emitted for name in latch_steps} == {
            name: 2 * steps for name, steps in latch_steps.items()
        }

    def test_five_latch_core_calls_per_cycle(self, monkeypatch):
        # The S/C loads, then per clock phase the shift registers'
        # masters and their slaves (at cp=1 with the Y/M holds).
        core = revalu.sequential.LATCH_CORE._plan
        real = core.forward_rows
        calls = []
        monkeypatch.setattr(core, "forward_rows",
                            lambda columns, read: calls.append(1) or real(columns, read))
        params = MontParams.for_modulus(0xB00B)
        datapath = MontDatapath(params)
        assert datapath.run(0x1234, 0xABCD) == mont_mult_word(0x1234, 0xABCD, params)
        assert len(calls) == 5 * params.n

    def test_datapath_uses_no_latch_layout_name(self):
        # Only revalu.sequential knows how latches are laid out and stepped.
        layout = {"_q", "_clock", "_feed", "_ALL", "_MASTERS", "_SLAVES"}
        with open(mg.__file__) as handle:
            tree = ast.parse(handle.read())
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name, node.asname))
        assert not used & layout

    @staticmethod
    def _reference_run(datapath, x, y):
        """The datapath's register snapshots, from fresh parts and public calls only."""
        params = datapath.params
        w, n = params.register_width, params.n
        s_shift, c_shift = ShiftRegister(w), ShiftRegister(w)
        s_reg, c_reg = Register(w), Register(w)
        x_shift, y_reg, m_reg = ShiftRegister(n), Register(n), Register(n)
        parts = (s_shift, c_shift, s_reg, c_reg, x_shift, y_reg, m_reg)
        for part, value in zip(parts, (0, 0, 0, 0, x, y, params.modulus)):
            part.load_value(value)
        hold = {"e": 0, **{f"d{j}": 0 for j in range(n)}}

        def stage(netlist, s_bits, c_bits, bus, operand_bits, **extra):
            wires = netlist.simulate({
                **{f"si{j}": b for j, b in enumerate(s_bits)},
                **{f"ci{j}": b for j, b in enumerate(c_bits)},
                **{f"{bus}{j}": b for j, b in enumerate(operand_bits)},
                **extra,
            })
            return (from_bits([wires[f"sum{j}"] for j in range(w)]),
                    from_bits([wires[f"car{j}"] for j in range(w)]))

        def snapshot():
            return tuple(bit for part in parts for bit in part.state)

        snapshots = [snapshot()]
        for _ in range(n):
            sum1, car1 = stage(datapath.stage1, s_shift.bits, c_shift.bits, "y", y_reg.bits,
                               x=x_shift.bits[0])
            s_reg.load(sum1)
            c_reg.load(car1 << 1)
            sum2, car2 = stage(datapath.stage2, s_reg.bits, c_reg.bits, "m", m_reg.bits)
            s_shift.load_value(sum2)
            c_shift.load_value(car2 << 1)
            for shift in (s_shift, c_shift, x_shift):
                shift.pulse(0)
            y_reg.step(hold)
            m_reg.step(hold)
            snapshots.append(snapshot())
        return tuple(snapshots)

    def test_snapshots_match_parts_driven_one_by_one(self):
        runs = 0
        for m in range(1, 16, 2):
            datapath = MontDatapath(MontParams.for_modulus(m))
            for x, y in sorted({(0, 0), (m - 1, m - 1), (m // 2, m - 1), (1 % m, m // 3)}):
                datapath.run(x, y)
                assert datapath.last_run.snapshots == self._reference_run(datapath, x, y)
                runs += 1
        assert runs == 29

    def test_matches_word_level_for_every_small_odd_modulus(self):
        # Every (x, y) for every odd m < 2^4: 680 runs.
        runs = 0
        for m in range(1, 16, 2):
            params = MontParams.for_modulus(m)
            datapath = MontDatapath(params)
            for x in range(m):
                for y in range(m):
                    assert datapath.run(x, y) == mont_mult_word(x, y, params)
                    assert datapath.last_run.cycles == mont_mult_trace(x, y, params).cycles
                    runs += 1
        assert runs == 680

    @pytest.mark.parametrize(
        "part, latch, wire",
        [("y_reg", 1, "y1"), ("m_reg", 2, "m2"), ("x_shift", 1, "x"),
         ("s_shift", 3, "si1"), ("c_shift", 5, "ci2")],
    )
    def test_non_bit_forced_into_register_state_raises(self, part, latch, wire):
        datapath = MontDatapath(MontParams(7, 3))
        element = getattr(datapath, part)
        load = element.load_value

        def forced(value):
            load(value)
            element._q[latch] = 2

        element.load_value = forced
        with pytest.raises(NetlistError, match=f"input {wire} must be 0 or 1, got 2"):
            datapath.run(3, 5)
        assert datapath.last_run is None


class TestDatapathConstruction:
    def test_every_datapath_netlist_is_validated_when_built(self, monkeypatch):
        validated = []
        real = Netlist.validate

        def recording(self):
            validated.append(self)
            return real(self)

        monkeypatch.setattr(Netlist, "validate", recording)
        datapath = MontDatapath(MontParams(7, 3))
        for netlist in (datapath.stage1, datapath.stage2, datapath.final_adder):
            assert any(v is netlist for v in validated), netlist.name

    def test_a_datapath_of_a_built_width_still_checks_its_cores(self, monkeypatch):
        first = MontDatapath(MontParams(7, 3))
        validated = []
        real = Netlist.validate
        monkeypatch.setattr(Netlist, "validate", lambda self: validated.append(self) or real(self))
        second = MontDatapath(MontParams(5, 3))
        assert second.stage1 is first.stage1
        for netlist in (second.stage1, second.stage2, second.final_adder):
            assert any(v is netlist for v in validated), netlist.name

    def test_stage_with_planted_fan_out_is_refused(self, monkeypatch):
        real = mg._csa_stage

        def planted(*args, **kwargs):
            # Stage 1's first Toffoli reads y1 in place of y0: y1 then
            # feeds two gates and y0 feeds none.
            stage = real(*args, **kwargs)
            if stage.name != "csa_stage1":
                return stage
            gates = list(stage.gates)
            i = next(k for k, g in enumerate(gates) if g.kind is TOFFOLI)
            a, _, z = gates[i].inputs
            gates[i] = GateInstance(TOFFOLI, (a, "y1", z), gates[i].outputs)
            return Netlist(stage.primary_inputs, stage.constants, gates,
                           stage.primary_outputs, stage.garbage_outputs, stage.name)

        monkeypatch.setattr(mg, "_csa_stage", planted)
        # Datapaths of one width share cores that `mg._shape` builds once;
        # empty it so that this width's stages are built, the planted one too.
        mg._shape.cache_clear()
        with pytest.raises(NetlistError) as info:
            MontDatapath(MontParams(7, 3))
        assert str(info.value) == (
            "netlist csa_stage1 is invalid (2 violations): wire y1 feeds 2 sinks: "
            "gate 2 (TG), gate 3 (TG); input y0 is neither consumed nor classified as an output"
        )


class TestCycleRecord:
    FIELDS = dict(index=3, x_bit=1, s0=0, total_after_multiplicand=40,
                  total_after_parity_clear=52, s=13, c=7)

    def test_frozen_equal_hashable_and_readable(self):
        record = mg.CycleRecord(*self.FIELDS.values())
        twin = mg.CycleRecord(**self.FIELDS)
        assert record == twin and hash(record) == hash(twin)
        assert record != mg.CycleRecord(**{**self.FIELDS, "c": 8})
        assert vars(record) == self.FIELDS
        assert list(vars(record)) == list(self.FIELDS)
        assert dataclasses.asdict(record) == self.FIELDS
        assert repr(record) == (
            "CycleRecord(index=3, x_bit=1, s0=0, total_after_multiplicand=40, "
            "total_after_parity_clear=52, s=13, c=7)"
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.s = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del record.c
        assert dataclasses.replace(record, s=1) == mg.CycleRecord(**{**self.FIELDS, "s": 1})


class TestOneRecordRule:
    def test_cycle_record_is_constructed_in_one_place(self):
        src = os.path.dirname(revalu.__file__)
        callers = []
        for name in sorted(os.listdir(src)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(src, name)) as handle:
                tree = ast.parse(handle.read())
            for func in ast.walk(tree):
                if isinstance(func, ast.FunctionDef):
                    callers += [
                        (name, func.name) for node in ast.walk(func)
                        if isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "CycleRecord"
                    ]
        assert callers == [("montgomery.py", "_record")]


class TestDatapathInvariants:
    # An even value forced into m_reg cannot clear the parity bit, so
    # halving would be inexact and the product wrong.
    FAULT = textwrap.dedent(
        """
        import sys
        from revalu.montgomery import InvariantError, MontDatapath, MontParams

        if __debug__:
            sys.exit("expected to run under python -O")
        datapath = MontDatapath(MontParams(7, 3))
        load = datapath.m_reg.load_value
        datapath.m_reg.load_value = lambda value: load(value - 1)
        try:
            product = datapath.run(3, 5)
        except InvariantError as exc:
            print(f"InvariantError: {exc}")
        else:
            print(f"product {product}")
        """
    )

    def test_parity_invariant_survives_python_O(self):
        src = os.path.dirname(os.path.dirname(revalu.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-O", "-c", self.FAULT],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("InvariantError: ")
        assert "parity" in result.stdout

    def test_no_module_asserts(self):
        # `python -O` strips assert statements; every check in the package
        # must raise on its own, as `_invariant` does.
        src = os.path.dirname(revalu.__file__)
        asserting = []
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name)) as handle:
                    tree = ast.parse(handle.read())
                asserting += [(name, node.lineno) for node in ast.walk(tree)
                              if isinstance(node, ast.Assert)]
        assert asserting == []

    def test_invariant_error_is_named(self):
        datapath = MontDatapath(MontParams(7, 3))
        load = datapath.m_reg.load_value
        datapath.m_reg.load_value = lambda value: load(value - 1)
        with pytest.raises(mg.InvariantError, match="parity"):
            datapath.run(3, 5)


class TestWordLevelInvariants:
    # An even modulus forced past MontParams validation cannot clear the
    # parity bit, so the halving would be inexact and the product wrong.
    FAULT = textwrap.dedent(
        """
        import sys
        from revalu.montgomery import (
            InvariantError, MontParams, mont_mult_trace, mont_mult_word)

        if __debug__:
            sys.exit("expected to run under python -O")
        params = object.__new__(MontParams)
        object.__setattr__(params, "modulus", 6)
        object.__setattr__(params, "n", 3)
        for fn in (mont_mult_word, mont_mult_trace):
            try:
                result = fn(3, 5, params)
            except InvariantError as exc:
                print(f"{fn.__name__}: InvariantError: {exc}")
            else:
                print(f"{fn.__name__}: product {result}")
        """
    )

    def test_parity_invariant_survives_python_O(self):
        src = os.path.dirname(os.path.dirname(revalu.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-O", "-c", self.FAULT],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == ["mont_mult_word", "mont_mult_trace"]
        assert all(": InvariantError: parity" in line for line in lines), lines

    def test_running_sum_bound_is_checked(self, monkeypatch):
        # A carry word pushed up by 2^10 on every stage breaks S + C < 2M.
        csa = mg._csa

        def csa_with_raised_carry(a, b, c):
            total, carry = csa(a, b, c)
            return total, carry + (1 << 10)

        monkeypatch.setattr(mg, "_csa", csa_with_raised_carry)
        with pytest.raises(mg.InvariantError) as excinfo:
            mont_mult_trace(3, 5, MontParams(7, 3))
        assert str(excinfo.value) == "running sum S + C reached 2M"


class TestWordMatchesTrace:
    """The total-only product and the carry-save trace make the same steps."""

    def test_every_small_odd_modulus(self):
        for m in range(1, 1 << 6, 2):
            params = MontParams.for_modulus(m)
            for x in range(m):
                for y in range(m):
                    product = mont_mult_word(x, y, params)
                    assert product == mont_mult_trace(x, y, params).product
                    assert product == oracle_product(x, y, m, params.n)

    def test_forced_even_moduli_fail_alike(self):
        def outcome(product):
            try:
                return product()
            except mg.InvariantError as exc:
                return f"InvariantError: {exc}"

        failures = 0
        for m in range(2, 1 << 5, 2):
            for n in range(m.bit_length(), m.bit_length() + 3):
                params = object.__new__(MontParams)
                object.__setattr__(params, "modulus", m)
                object.__setattr__(params, "n", n)
                for x in range(m):
                    for y in range(m):
                        word = outcome(lambda: mont_mult_word(x, y, params))
                        trace = outcome(lambda: mont_mult_trace(x, y, params).product)
                        assert word == trace, (m, n, x, y)
                        failures += isinstance(word, str)
        assert failures > 0

    def test_only_a_forced_even_modulus_reaches_the_trace(self, monkeypatch):
        # The table step must be the word product itself, not a path
        # through the carry-save oracle.
        calls = []
        real = mg.mont_mult_trace

        def counting(x, y, params):
            calls.append(params.modulus)
            return real(x, y, params)

        monkeypatch.setattr(mg, "mont_mult_trace", counting)
        for m in range(1, 1 << 6, 2):
            params = MontParams.for_modulus(m)
            for x in range(m):
                for y in range(m):
                    assert mg.mont_mult_word(x, y, params) == oracle_product(x, y, m, params.n)
        m = random.Random(1024).getrandbits(1024) | (1 << 1023) | 1
        x, y = m - 1, m - 2
        assert mg.mont_mult_word(x, y, MontParams.for_modulus(m)) == oracle_product(x, y, m, 1024)
        assert calls == []

        params = object.__new__(MontParams)
        object.__setattr__(params, "modulus", 6)
        object.__setattr__(params, "n", 3)
        with pytest.raises(mg.InvariantError, match="parity"):
            mg.mont_mult_word(3, 5, params)
        assert calls == [6]


class TestOnlyIntWords:
    """Word-valued operands and parameters are ints: True and 1.0 are refused."""

    P7 = MontParams(7, 3)

    @pytest.mark.parametrize("bad", [True, 1.0])
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda v, p: mont_mult_word(v, 1, p), "x"),
            (lambda v, p: mont_mult_word(1, v, p), "y"),
            (lambda v, p: mont_mult_trace(v, 1, p), "x"),
            (to_mont, "x"),
            (from_mont, "xbar"),
        ],
        ids=["word-x", "word-y", "trace-x", "to_mont", "from_mont"],
    )
    def test_word_level_operands(self, call, name, bad):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {type(bad).__name__}$"):
            call(bad, self.P7)

    @pytest.mark.parametrize("bad", [True, 1.0])
    @pytest.mark.parametrize(
        "args, name", [((None, 3, 7), "a"), ((5, None, 7), "b"), ((5, 3, None), "modulus")],
        ids=["a", "b", "modulus"],
    )
    def test_mont_exp(self, args, name, bad):
        args = tuple(bad if v is None else v for v in args)
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            mont_exp(*args)

    @pytest.mark.parametrize("bad", [True, 3.0])
    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda v: MontParams(v, 3), "modulus"),
            (lambda v: MontParams(7, v), "n"),
            (MontParams.for_modulus, "modulus"),
        ],
        ids=["modulus", "n", "for_modulus"],
    )
    def test_params(self, build, name, bad):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            build(bad)

    @pytest.mark.parametrize("x, y", [(1.0, 2), (True, 2), (1, 2.0)])
    def test_datapath_run_moves_no_state(self, x, y):
        datapath = MontDatapath(self.P7)
        datapath.run(3, 5)
        before = datapath._snapshot()
        with pytest.raises(TypeError, match="must be an int"):
            datapath.run(x, y)
        assert datapath._snapshot() == before


class TestExponentiation:
    def test_five_cubed_mod_seven(self):
        assert mont_exp(5, 3, 7) == 6

    def test_zero_exponent(self):
        assert mont_exp(5, 0, 7) == 1

    def test_exhaustive_small(self):
        for modulus in range(3, 32, 2):
            for a in range(modulus):
                for b in range(8):
                    assert mont_exp(a, b, modulus) == pow(a, b, modulus)

    def test_random_32_bit(self):
        rng = random.Random(17)
        for _ in range(50):
            modulus = rng.randrange(3, 1 << 32) | 1
            a = rng.randrange(modulus)
            b = rng.randrange(1 << 32)
            assert mont_exp(a, b, modulus) == pow(a, b, modulus)

    def test_random_1024_bit(self):
        rng = random.Random(29)
        for _ in range(3):
            modulus = rng.getrandbits(1024) | (1 << 1023) | 1
            a = rng.randrange(modulus)
            for b in (65537, rng.getrandbits(16)):
                assert mont_exp(a, b, modulus) == pow(a, b, modulus)

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            mont_exp(2, 3, 8)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            mont_exp(2, -1, 7)

    def test_product_call_pattern(self, monkeypatch):
        # One unconditional product per exponent bit, one extra per set
        # bit, and one for the final domain exit.
        calls = []
        real = mg.mont_mult_word

        def counting(x, y, params):
            calls.append((x, y))
            return real(x, y, params)

        monkeypatch.setattr(mg, "mont_mult_word", counting)
        b = 0b1011
        mg.mont_exp(5, b, 13)
        assert len(calls) == b.bit_length() + bin(b).count("1") + 1
