"""Erasure accounting, trace mechanics, and the difference-of-means harness."""

import json
import math
from collections import Counter
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revalu import (
    K_BOLTZMANN,
    ErasureReport,
    MontDatapath,
    MontParams,
    PowerTrace,
    build_cpa,
    build_csa42,
    build_csa52,
    build_full_adder,
    build_irreversible_cpa,
    dpa_diff_of_means,
    energy_report,
    erasure_report,
    esig_energy,
    landauer_energy,
    switching_trace,
)
from revalu.gates import AND, NOT, OR, XOR, GateKind
from revalu.netlist import GateInstance, Netlist


def single_gate(op):
    kind = {"and": AND, "or": OR, "xor": XOR, "not": NOT}[op]
    wires = ("a",) if op == "not" else ("a", "b")
    return Netlist(wires, {}, [GateInstance(kind, wires, ("o",))], ["o"])


class TestErasure:
    def test_reversible_netlists_erase_exactly_zero(self):
        for netlist in (
            build_full_adder(),
            build_cpa(4),
            build_csa42(2),
            build_csa52(2),
        ):
            assert erasure_report(netlist).internal_bits == 0.0

    def test_and_gate_shannon_loss(self):
        # Output distribution (3/4, 1/4): loss = 2 - H = 1.1887... bits.
        expected = 2 - (-0.75 * math.log2(0.75) - 0.25 * math.log2(0.25))
        loss = erasure_report(single_gate("and")).internal_bits
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(1.189, abs=1e-3)

    def test_xor_gate_loses_exactly_one_bit(self):
        assert erasure_report(single_gate("xor")).internal_bits == pytest.approx(1.0, abs=1e-12)

    def test_not_gate_is_lossless(self):
        assert erasure_report(single_gate("not")).internal_bits == 0.0

    def test_naive_count_differs_from_shannon(self):
        report = erasure_report(single_gate("and"))
        assert report.naive_bits == 1.0
        assert report.internal_bits > report.naive_bits

    def test_irreversible_adder_loses_information(self):
        report = erasure_report(build_irreversible_cpa(4))
        assert report.internal_bits > 0
        assert report.deferred_bits == 0

    def test_reversible_adder_defers_garbage(self):
        report = erasure_report(build_cpa(4))
        assert report.internal_bits == 0.0
        assert report.deferred_bits == 8

    def test_deferred_equals_garbage_count_everywhere(self):
        for netlist in (
            build_full_adder(),
            build_cpa(3),
            build_csa42(4),
            build_csa52(3),
        ):
            assert erasure_report(netlist).deferred_bits == len(netlist.garbage_outputs)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            erasure_report("not a circuit")


class TestLandauer:
    def test_one_bit_at_room_temperature(self):
        expected = K_BOLTZMANN * 300 * math.log(2)
        value = landauer_energy(1, 300)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(2.871e-21, rel=1e-3)

    def test_zero_bits(self):
        assert landauer_energy(0, 300) == 0.0

    def test_two_bits_doubles(self):
        assert landauer_energy(2, 300) == pytest.approx(2 * landauer_energy(1, 300))

    @given(
        st.floats(0, 1e6, allow_nan=False),
        st.floats(1e-3, 1e4, allow_nan=False),
        st.integers(1, 5),
    )
    def test_linearity(self, bits, temp, k):
        assert landauer_energy(k * bits, temp) == pytest.approx(
            k * landauer_energy(bits, temp)
        )
        assert landauer_energy(bits, k * temp) == pytest.approx(
            k * landauer_energy(bits, temp)
        )

    def test_non_positive_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            landauer_energy(1, 0)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError, match="bits"):
            landauer_energy(-1, 300)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_bits_rejected(self, value):
        with pytest.raises(ValueError, match="bits must be finite"):
            landauer_energy(value, 300)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_temperature_rejected(self, value):
        with pytest.raises(ValueError, match="temperature must be finite"):
            landauer_energy(1, value)


class TestEsig:
    def test_femtofarad_at_one_volt(self):
        assert esig_energy(1e-15, 1.0) == pytest.approx(5e-16)

    def test_zero_voltage(self):
        assert esig_energy(1e-12, 0.0) == 0.0

    def test_quadratic_in_voltage(self):
        assert esig_energy(2e-15, 2.0) == pytest.approx(4e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            esig_energy(-1e-15, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_capacitance_rejected(self, value):
        with pytest.raises(ValueError, match="capacitance must be finite"):
            esig_energy(value, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_voltage_rejected(self, value):
        with pytest.raises(ValueError, match="voltage must be finite"):
            esig_energy(1e-15, value)


class TestSwitchingTrace:
    def test_constant_state_yields_zero_trace(self):
        snapshots = [(0, 1, 0, 1)] * 5
        assert switching_trace(snapshots).samples == (0.0, 0.0, 0.0, 0.0)

    def test_full_flip_counts_all_bits(self):
        trace = switching_trace([(0, 0, 0, 0), (1, 1, 1, 1)])
        assert trace.samples == (4.0,)

    def test_montgomery_run_trace_length_is_scan_length(self):
        datapath = MontDatapath(MontParams(7, 3))
        datapath.run(3, 5)
        trace = switching_trace(datapath.last_run)
        assert len(trace) == 3
        assert trace.metadata["x"] == 3 and trace.metadata["y"] == 5

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError, match="two state snapshots"):
            switching_trace([])
        with pytest.raises(ValueError, match="two state snapshots"):
            switching_trace([(0, 1)])


class TestDpa:
    def test_constant_classes_give_constant_differential(self):
        traces = [
            PowerTrace((5.0, 5.0, 5.0), {"key": 1}),
            PowerTrace((5.0, 5.0, 5.0), {"key": 1}),
            PowerTrace((3.0, 3.0, 3.0), {"key": 0}),
            PowerTrace((3.0, 3.0, 3.0), {"key": 0}),
        ]
        diff = dpa_diff_of_means(traces, lambda md: md["key"] == 1)
        assert diff == (2.0, 2.0, 2.0)

    def test_identical_traces_cancel(self):
        traces = [PowerTrace((4.0, 2.0), {"key": i % 2}) for i in range(8)]
        diff = dpa_diff_of_means(traces, lambda md: md["key"] == 1)
        assert diff == (0.0, 0.0)

    def test_injected_leak_peaks_at_injected_cycle(self):
        base = (1.0, 1.0, 1.0, 1.0, 1.0)
        traces = []
        for i in range(20):
            selected = i % 2 == 1
            samples = list(base)
            if selected:
                samples[2] += 3.0  # leak only at cycle 2
            traces.append(PowerTrace(tuple(samples), {"secret": int(selected)}))
        diff = dpa_diff_of_means(traces, lambda md: md["secret"] == 1)
        assert max(range(len(diff)), key=lambda i: abs(diff[i])) == 2
        assert diff[2] == pytest.approx(3.0)

    def test_data_independent_model_is_flat(self):
        # A constant-per-cycle power model leaks nothing by construction.
        traces = [
            PowerTrace((7.0, 7.0, 7.0), {"x": x, "y": 3 * x + 1}) for x in range(10)
        ]
        diff = dpa_diff_of_means(traces, lambda md: md["x"] & 1 == 1)
        assert all(v == 0.0 for v in diff)

    def test_switching_model_on_lossy_baseline_shows_contrast(self):
        # Hamming-distance activity of the conventional adder, evaluated
        # from an all-zero baseline, splits measurably on an operand bit.
        adder = build_irreversible_cpa(4)
        wires = sorted(set(adder.primary_inputs) | {w for g in adder.gates for w in g.outputs})
        rest = {f"b{i}": 0 for i in range(4)}
        zero = adder.simulate({**{f"a{i}": 0 for i in range(4)}, **rest, "cin": 0})
        traces = []
        for a in range(16):
            values = adder.simulate(
                {**{f"a{i}": (a >> i) & 1 for i in range(4)}, **rest, "cin": 0}
            )
            snapshots = [
                tuple(zero[w] for w in wires),
                tuple(values[w] for w in wires),
            ]
            traces.append(switching_trace(snapshots, {"a": a}))
        diff = dpa_diff_of_means(traces, lambda md: md["a"] & 1 == 1)
        assert diff[0] != 0.0

    def test_empty_class_rejected(self):
        traces = [PowerTrace((1.0,), {"key": 1}), PowerTrace((2.0,), {"key": 1})]
        with pytest.raises(ValueError, match="non-empty"):
            dpa_diff_of_means(traces, lambda md: md["key"] == 1)

    def test_no_traces_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            dpa_diff_of_means([], bool)
        assert str(excinfo.value) == "no traces given"

    def test_ragged_lengths_rejected(self):
        traces = [PowerTrace((1.0,), {"key": 1}), PowerTrace((2.0, 3.0), {"key": 0})]
        with pytest.raises(ValueError, match="ragged"):
            dpa_diff_of_means(traces, lambda md: md["key"] == 1)

    def test_traces_without_samples_rejected(self):
        traces = [PowerTrace(()), PowerTrace((), {"x": 1})]
        with pytest.raises(ValueError) as excinfo:
            dpa_diff_of_means(traces, lambda md: md.get("x", 0))
        assert str(excinfo.value) == "traces hold no samples"

    def test_selector_called_once_per_trace(self):
        traces = [PowerTrace((float(i),), {"key": i % 2}) for i in range(6)]
        seen = []

        def selector(md):
            seen.append(md["key"])
            return md["key"] == 1

        assert dpa_diff_of_means(traces, selector) == (1.0,)
        assert seen == [0, 1, 0, 1, 0, 1]


class TestErasureReportSum:
    def test_addition_is_field_wise(self):
        total = ErasureReport(1.5, 2.0, 3) + ErasureReport(0.25, 1.0, 4)
        assert type(total) is ErasureReport
        assert total == ErasureReport(1.75, 3.0, 7)


class TestEnergyReport:
    def test_reversible_report_fields(self):
        report = energy_report(build_cpa(4), temperature_k=300.0)
        assert report.erased_bits == 0.0
        assert report.landauer_joules == 0.0
        assert report.deferred_erasure_bits == 8

    def test_lossy_report_scales_with_temperature(self):
        adder = build_irreversible_cpa(2)
        cold = energy_report(adder, temperature_k=100.0)
        hot = energy_report(adder, temperature_k=300.0)
        assert hot.landauer_joules == pytest.approx(3 * cold.landauer_joules)

    def test_transitions_priced_by_esig(self):
        trace = PowerTrace((2.0, 3.0), {})
        report = energy_report(
            build_full_adder(),
            capacitance_f=2e-15,
            voltage_v=1.0,
            trace=trace,
        )
        assert report.signal_transitions == 5.0
        assert report.esig_joules == pytest.approx(5.0 * 1e-15)

    def test_multi_circuit_report_sums_pieces(self):
        pieces = [build_full_adder(), build_cpa(2)]
        combined = energy_report(pieces)
        assert combined.erased_bits == 0.0
        assert combined.deferred_erasure_bits == 2 + 4

    def test_whole_datapath_is_internally_lossless(self):
        datapath = MontDatapath(MontParams(7, 3))
        report = energy_report(datapath.cores)
        assert report.erased_bits == 0.0
        assert report.deferred_erasure_bits == datapath.cost_report().garbage_count


class TestLossPerGateKind:
    """Each kind's loss is computed once; every total must equal the
    per-gate recount from a fresh truth table, float for float."""

    @staticmethod
    def recount(pieces):
        internal = 0.0
        for piece in pieces:
            loss = 0.0
            for g in piece.gates:
                outputs = list(g.kind.truth_table.values())
                counts = [outputs.count(v) for v in dict.fromkeys(outputs)]
                entropy = -sum((c / len(outputs)) * math.log2(c / len(outputs)) for c in counts)
                loss += g.kind.arity - entropy
            internal += loss
        return internal

    @staticmethod
    def lossy(name, table_fn):
        kind = GateKind.from_function(name, 3, table_fn)
        wires = [f"w{i}" for i in range(6)]
        gates = [GateInstance(kind, wires[:3], ["x0", "x1", "x2"]),
                 GateInstance(kind, wires[3:], ["y0", "y1", "y2"])]
        return Netlist(wires, {}, gates, ["x0", "x1", "x2", "y0", "y1", "y2"])

    def test_datapath_cores_match_a_recount(self):
        datapath = MontDatapath(MontParams.for_modulus(0xB00B))
        pieces = list(datapath.cores)
        report = energy_report(pieces)
        assert report.erased_bits == self.recount(pieces) == 0.0
        assert report.deferred_erasure_bits == sum(len(p.garbage_outputs) for p in pieces)

    def test_lossy_kinds_of_one_name_keep_their_own_loss(self):
        merge = self.lossy("LOSSY", lambda a, b, c: (a & b, a & b, c))
        crush = self.lossy("LOSSY", lambda a, b, c: (a & b & c, 0, 0))
        pieces = [merge, crush, merge, build_cpa(2), crush]
        assert energy_report(merge).erased_bits == self.recount([merge]) > 0
        assert energy_report(crush).erased_bits == self.recount([crush])
        assert energy_report(crush).erased_bits != energy_report(merge).erased_bits
        assert energy_report(pieces).erased_bits == self.recount(pieces)


def reference_baseline_erasure(width):
    """Recount of the baseline adder's erasure from its boolean operators.

    Each slice is XOR, XOR, AND, AND, OR, summed in that order; a
    k-input one-output gate loses k - H(outputs) bits, and k - 1 by
    port count; the copies lose nothing, and there is no garbage.
    """
    ops = {"and": lambda a, b: a & b, "or": lambda a, b: a | b, "xor": lambda a, b: a ^ b}
    internal = naive = 0.0
    for _ in range(width):
        for op in ("xor", "xor", "and", "and", "or"):
            k = 2
            outputs = [ops[op](*bits) for bits in product((0, 1), repeat=k)]
            counts = Counter(outputs).values()
            total = sum(counts)
            internal += k - -sum((c / total) * math.log2(c / total) for c in counts if c)
            naive += k - 1
    return internal, naive, 0


class TestBaselineErasure:
    """The baseline as a netlist keeps its erasure figures, float for float."""

    @pytest.mark.parametrize("width", range(1, 9))
    def test_erasure_report_matches_reference(self, width):
        internal, naive, deferred = reference_baseline_erasure(width)
        report = erasure_report(build_irreversible_cpa(width))
        assert json.dumps(report.as_dict()) == json.dumps(
            {"internal_bits": internal, "naive_bits": naive, "deferred_bits": deferred}
        )
        assert naive == 5.0 * width

    @pytest.mark.parametrize("width", range(1, 9))
    def test_energy_report_matches_reference(self, width):
        internal, naive, deferred = reference_baseline_erasure(width)
        report = energy_report(build_irreversible_cpa(width))
        assert json.dumps(report.as_dict()) == json.dumps(
            {
                "erased_bits": internal,
                "deferred_erasure_bits": deferred,
                "erased_bits_naive": naive,
                "temperature_k": 300.0,
                "landauer_joules": landauer_energy(internal, 300.0),
                "signal_transitions": 0.0,
                "esig_joules": 0.0 * esig_energy(1e-15, 1.0),
            }
        )
