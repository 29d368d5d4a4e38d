import numpy as np
import pytest

from fpsearch.readout import (
    NoSignalOracleError,
    ReadoutError,
    Spectrum,
    crush,
    estimate_probability,
    format_trace,
    invert_fractional_signal,
    is_signal_visible,
    lorentzian_trace,
    reference_spectrum,
    signal_weights,
    spectrum_from_populations,
    target_populations,
    trace_template,
)
from fpsearch.search import (
    OracleSpec,
    all_oracles,
    closed_form_success,
    recursive_operator,
)
from conftest import random_state

PI3 = np.pi / 3


class TestCrush:
    def test_pure_zero_state_unchanged(self):
        assert np.array_equal(crush(np.eye(4, dtype=complex)[0]), [1.0, 0, 0, 0])

    def test_bell_state_loses_coherence(self):
        psi = (np.eye(4)[0] + np.eye(4)[3]) / np.sqrt(2)
        assert np.allclose(crush(psi), [0.5, 0.0, 0.0, 0.5])

    def test_idempotent_and_trace_preserving(self, rng):
        # the populations are real and sum to one; a state with real,
        # nonnegative amplitudes sqrt(p) crushes back to p
        psi = random_state(rng, 4)
        p = crush(psi)
        assert p.dtype == float
        assert p.sum() == pytest.approx(1.0)
        assert np.allclose(crush(np.sqrt(p)), p)

    def test_bitwise_diagonal_of_outer_product(self, rng):
        for _ in range(20):
            psi = random_state(rng, 4)
            expected = np.real(np.diag(np.outer(psi, psi.conj())))
            assert np.array_equal(crush(psi), expected)


class TestSpectrumFromPopulations:
    def test_zero_state_positive_left_line(self):
        spec = spectrum_from_populations(np.array([1.0, 0, 0, 0]))
        assert spec.left_amp == pytest.approx(1.0)
        assert spec.right_amp == pytest.approx(0.0)

    def test_maximally_mixed_is_silent(self):
        spec = spectrum_from_populations(np.full(4, 0.25))
        assert spec.left_amp == pytest.approx(0.0)
        assert spec.right_amp == pytest.approx(0.0)

    def test_antialigned_pair_pattern(self):
        spec = spectrum_from_populations(np.array([0.0, 0.5, 0.5, 0.0]))
        assert spec.left_amp == pytest.approx(-0.5)
        assert spec.right_amp == pytest.approx(0.5)

    def test_linearity_and_traceless_sensitivity(self, rng):
        # mixing in any amount of the identity does not change the signal
        p = rng.random(4)
        p /= p.sum()
        mixed = 0.3 * p + 0.7 * np.full(4, 0.25)
        a = spectrum_from_populations(p)
        b = spectrum_from_populations(mixed)
        assert b.left_amp == pytest.approx(0.3 * a.left_amp)
        assert b.right_amp == pytest.approx(0.3 * a.right_amp)


# the README's relations F = (4P-1)/3 (one matching state) and F = 2P-1 (two)
SIGNAL = {1: lambda p: (4.0 * p - 1.0) / 3.0, 2: lambda p: 2.0 * p - 1.0}


class TestFractionalSignal:
    def test_null_points(self):
        assert invert_fractional_signal(0.0, 1) == pytest.approx(0.25)
        assert invert_fractional_signal(0.0, 2) == pytest.approx(0.5)

    def test_reference_value(self):
        assert invert_fractional_signal(0.99947, 1) == pytest.approx(0.9996, abs=5e-6)

    def test_inverse_roundtrip(self):
        for k in (1, 2):
            for p in (0.0, 0.3, 0.9996, 1.0):
                assert invert_fractional_signal(SIGNAL[k](p), k) == pytest.approx(
                    p, abs=1e-12
                )

    def test_domain(self):
        with pytest.raises(ValueError):
            invert_fractional_signal(0.5, 3)


# Reference weights (wl, wr) of every visible set with k <= 2; the sets
# 00+10 and 01+11 carry no proton signal.
SIGNAL_WEIGHTS = {
    "00": (1.0, 0.0),
    "01": (0.0, 1.0),
    "10": (-1.0, 0.0),
    "11": (0.0, -1.0),
    "00+01": (1.0, 1.0),
    "10+11": (-1.0, -1.0),
    "00+11": (1.0, -1.0),
    "01+10": (-1.0, 1.0),
}


class TestSignalPatterns:
    def test_k1_truth_table(self):
        for spec in all_oracles(1):
            assert signal_weights(spec) == SIGNAL_WEIGHTS[spec.label()]
            ref = reference_spectrum(spec)
            wl, wr = SIGNAL_WEIGHTS[spec.label()]
            assert wl * ref.left_amp + wr * ref.right_amp == pytest.approx(1.0)

    def test_rule_matches_reference_table(self):
        for spec in all_oracles(1) + all_oracles(2):
            if spec.label() in SIGNAL_WEIGHTS:
                assert signal_weights(spec) == SIGNAL_WEIGHTS[spec.label()]
            else:
                with pytest.raises(NoSignalOracleError):
                    signal_weights(spec)
        assert len(all_oracles(1) + all_oracles(2)) == len(SIGNAL_WEIGHTS) + 2

    def test_three_states_rejected(self):
        with pytest.raises(ValueError):
            signal_weights(OracleSpec({"00", "01", "10"}))

    def test_flagged_no_signal_sets(self):
        for matching in ({"00", "10"}, {"01", "11"}):
            spec = OracleSpec(frozenset(matching), PI3)
            assert not is_signal_visible(spec)
            with pytest.raises(NoSignalOracleError):
                signal_weights(spec)

    def test_visible_k2_patterns(self):
        both_pos = reference_spectrum(OracleSpec({"00", "01"}, PI3))
        assert both_pos.left_amp > 0 and both_pos.right_amp > 0
        mixed = reference_spectrum(OracleSpec({"01", "10"}, PI3))
        assert mixed.left_amp < 0 and mixed.right_amp > 0


class TestEstimateProbability:
    def test_reference_against_itself(self):
        for spec in all_oracles(1):
            ref = reference_spectrum(spec)
            assert estimate_probability(ref, ref, spec) == pytest.approx(1.0)

    def test_zero_signal_inverts_to_quarter(self):
        spec = OracleSpec({"11"}, PI3)
        ref = reference_spectrum(spec)
        silent = Spectrum(0.0, 0.0)
        assert estimate_probability(silent, ref, spec) == pytest.approx(0.25)

    def test_clamped_to_unit_interval(self):
        spec = OracleSpec({"00"}, PI3)
        ref = reference_spectrum(spec)
        overdriven = Spectrum(1.5, 0.0)
        assert estimate_probability(overdriven, ref, spec) == 1.0

    def test_normalized_by_the_reference(self):
        # a reference of twice the signal halves the fractional signal
        spec = OracleSpec({"00"}, PI3)
        ref = reference_spectrum(spec)
        double = Spectrum(2.0 * ref.left_amp, 2.0 * ref.right_amp)
        assert estimate_probability(ref, double, spec) == pytest.approx(
            invert_fractional_signal(0.5, 1)
        )

    def test_zero_reference_rejected(self):
        spec = OracleSpec({"00"}, PI3)
        empty = Spectrum(0.0, 0.0)
        with pytest.raises(ReadoutError, match="reference"):
            estimate_probability(empty, empty, spec)

    def test_roundtrip_recovers_closed_form(self):
        visible = [
            o
            for o in all_oracles(1) + all_oracles(2)
            if is_signal_visible(o)
        ]
        assert len(visible) == 8
        for spec in visible:
            ref = reference_spectrum(spec)
            for r in range(4):
                v = recursive_operator(r, spec)
                est = estimate_probability(
                    spectrum_from_populations(crush(v[:, 0])), ref, spec
                )
                assert est == pytest.approx(
                    closed_form_success(r, spec.k), abs=1e-9
                )

    def test_residual_population_symmetry(self):
        # the ideal run leaves the three non-matching populations equal,
        # which is what the k=1 fractional-signal relation relies on
        for spec in all_oracles(1):
            v = recursive_operator(2, spec)
            pops = np.abs(v[:, 0]) ** 2
            rest = [pops[i] for i in range(4) if i != spec.indices[0]]
            assert max(rest) - min(rest) < 1e-12


class TestLorentzianTrace:
    def test_silent_spectrum_is_flat(self, system):
        spec = Spectrum(0.0, 0.0)
        y = lorentzian_trace(spec, system, np.linspace(-200.0, 200.0, 101))
        assert np.allclose(y, 0.0)

    def test_single_line_peaks_at_half_j(self, system):
        spec = Spectrum(1.0, 0.0)
        freqs = np.linspace(-200.0, 200.0, 8001)
        y = lorentzian_trace(spec, system, freqs)
        assert freqs[np.argmax(y)] == pytest.approx(97.4, abs=0.05)
        assert np.max(y) == pytest.approx(1.0, abs=1e-3)

    def test_linewidth_from_t2(self, system):
        spec = Spectrum(1.0, 0.0)
        hwhm = 1.0 / (2 * np.pi * system.T2_H)
        half_j = system.J / 2
        y = lorentzian_trace(spec, system, np.array([half_j, half_j + hwhm]))
        assert y[0] == pytest.approx(1.0)
        assert y[1] == pytest.approx(0.5, abs=1e-6)

    def test_antisymmetric_pair(self, system):
        spec = Spectrum(1.0, -1.0)
        freqs = np.linspace(-200.0, 200.0, 401)
        y = lorentzian_trace(spec, system, freqs)
        assert np.max(y) == pytest.approx(-np.min(y), abs=1e-9)

    def test_requires_monotone_grid(self, system):
        spec = Spectrum(1.0, 0.0)
        with pytest.raises(ValueError, match="increasing"):
            lorentzian_trace(spec, system, np.array([1.0, 0.5, 2.0]))
        with pytest.raises(ValueError, match="increasing"):
            lorentzian_trace(spec, system, np.array([0.0, 0.0, 1.0]))

    def test_format_two_columns(self, system):
        spec = Spectrum(0.25, 0.0)
        freqs = np.linspace(-1, 1, 3)
        text = format_trace(trace_template(freqs), lorentzian_trace(spec, system, freqs))
        lines = text.strip().splitlines()
        assert len(lines) == 3 and all(len(ln.split()) == 2 for ln in lines)


def test_target_populations_k2():
    p = target_populations(OracleSpec({"01", "10"}, PI3))
    assert np.array_equal(p, [0.0, 0.5, 0.5, 0.0])
