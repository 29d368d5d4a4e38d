import numpy as np
import pytest

from bruteforce import event_unitary_expm, sequence_unitary_expm
from conftest import random_unitary
from fpsearch.pulses import (
    NO_ERROR,
    ErrorModel,
    PulseEvent,
    PulseSequence,
    SpinSystem,
    UnitarityError,
    bb1_expand,
    check_unitary,
    composite_z,
    coupling_delay,
    pulse_unitary,
    rf_pulse,
    rotation_infidelity,
    sequence_unitary,
)
from fpsearch.search import equal_up_to_global_phase, pseudo_hadamard


def _rz(theta):
    return np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])


class TestEventValidation:
    def test_rf_needs_targets(self):
        with pytest.raises(ValueError):
            PulseEvent("rf_pulse", frozenset())

    def test_delay_needs_positive_duration(self):
        with pytest.raises(ValueError):
            coupling_delay(0.0)

    def test_unknown_spin(self):
        with pytest.raises(ValueError):
            rf_pulse("N", np.pi)

    def test_negative_angle_folds_into_phase(self):
        ev = rf_pulse("H", -np.pi / 2, 0.0)
        assert ev.angle == pytest.approx(np.pi / 2)
        assert ev.phase == pytest.approx(np.pi)

    def test_zero_angle_keeps_its_axis_and_phase_defaults_to_x(self):
        assert PulseSequence((rf_pulse("H", 0.0, 0.5),)).serialize() == (
            "PULSE H 0 28.6478898\n")
        assert rf_pulse("H", np.pi).phase == 0.0

    def test_folded_phase_wraps_into_one_turn(self):
        # 3*pi/2 + pi wraps to pi/2; unwrapped it would serialize as 450
        ev = rf_pulse("H", -np.pi / 2, 3 * np.pi / 2)
        assert ev.phase == pytest.approx(np.pi / 2)
        assert PulseSequence((ev,)).serialize() == "PULSE H 90 90\n"

    def test_finiteness_is_checked_as_np_isfinite_does(self):
        values = [0.0, -0.0, 1.5, 3, True, np.float64(2.0), np.float32(0.5), np.float16(1.0),
                  np.int64(2), np.longdouble(1.0), 1e308, np.inf, -np.inf, np.nan,
                  np.float32(np.inf), np.float64(-np.inf), np.float32(np.nan)]
        for value in values:
            finite = bool(np.isfinite(value))
            for event in (
                dict(kind="rf_pulse", targets=frozenset("H"), angle=value),
                dict(kind="rf_pulse", targets=frozenset("H"), phase=value),
                dict(kind="delay", duration=value),
            ):
                accepted = finite and (event["kind"] == "rf_pulse" or value > 0)
                try:
                    PulseEvent(**event)
                except ValueError:
                    assert not accepted, event
                else:
                    assert accepted, event

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            PulseEvent("z_virtual", frozenset({"H"}), angle=1.0)


class TestPulseUnitary:
    def test_90y_on_h_matches_pseudo_hadamard_factor(self, system):
        u = pulse_unitary(rf_pulse("H", np.pi / 2, np.pi / 2), system)
        c = s = np.sqrt(0.5)
        ry = np.array([[c, -s], [s, c]])  # exp(-i*(pi/2)*sigma_y/2)
        expected = np.kron(ry, np.eye(2))
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_simultaneous_90y_is_pseudo_hadamard(self, system):
        u = pulse_unitary(rf_pulse({"H", "C"}, np.pi / 2, np.pi / 2), system)
        assert np.max(np.abs(u - pseudo_hadamard())) < 1e-12

    def test_antiphase_delay(self, system):
        # half a coupling period produces the (-pi/4, pi/4, pi/4, -pi/4)
        # phase pattern; checked against direct exponentiation
        ev = coupling_delay(1.0 / (2.0 * system.J))
        u = pulse_unitary(ev, system)
        expected = np.diag(np.exp(1j * np.pi * np.array([-0.25, 0.25, 0.25, -0.25])))
        assert np.max(np.abs(u - expected)) < 1e-12
        assert np.max(np.abs(u - event_unitary_expm(ev, system, NO_ERROR))) < 1e-12

    def test_scaled_180_fidelity(self, system):
        # 10 percent overrotation of a 180 pulse: overlap cos(9 degrees)
        ideal = pulse_unitary(rf_pulse("H", np.pi, 0.0), system)
        err = pulse_unitary(rf_pulse("H", np.pi, 0.0), system, ErrorModel(eps_H=0.1))
        fidelity = 1.0 - rotation_infidelity(ideal, err)
        assert fidelity == pytest.approx(np.cos(np.radians(9.0)) ** 2, abs=1e-12)

    def test_per_channel_error_scaling(self, system):
        err = ErrorModel(eps_H=0.1, eps_C=-0.2)
        u = pulse_unitary(rf_pulse({"H", "C"}, np.pi / 2, 0.0), system, err)
        assert np.max(np.abs(u - event_unitary_expm(
            rf_pulse({"H", "C"}, np.pi / 2, 0.0), system, err))) < 1e-12


class TestSequenceUnitary:
    def test_empty_sequence_is_identity(self, system):
        seq = PulseSequence(())
        assert np.allclose(sequence_unitary(seq, system), np.eye(4))

    def test_inverse_pair_cancels(self, system):
        seq = PulseSequence(
            (rf_pulse("H", np.pi / 2, 0.0), rf_pulse("H", np.pi / 2, np.pi))
        )
        assert np.max(np.abs(sequence_unitary(seq, system) - np.eye(4))) < 1e-12

    def test_inverse_pair_cancels_under_error(self, system):
        seq = PulseSequence(
            (rf_pulse("H", np.pi / 2, 0.0), rf_pulse("H", np.pi / 2, np.pi))
        )
        u = sequence_unitary(seq, system, ErrorModel(eps_H=0.08))
        assert np.max(np.abs(u - np.eye(4))) < 1e-12

    def test_unitary_for_any_error(self, system):
        seq = PulseSequence(
            (
                rf_pulse({"H", "C"}, np.pi / 2, np.pi / 2),
                coupling_delay(1e-3),
                rf_pulse("C", np.pi / 3, 0.1),
            )
        )
        for err in (ErrorModel(0.3, -0.4, 0.2), ErrorModel(-0.9, 0.9, -0.5)):
            check_unitary(sequence_unitary(seq, system, err), "sequence")

    def test_check_unitary(self, rng):
        check_unitary(random_unitary(rng, 4), "random unitary")
        for bad in (np.ones((2, 2)), 2 * np.eye(2), np.full((2, 2), np.nan)):
            with pytest.raises(UnitarityError, match="lost unitarity"):
                check_unitary(bad, "bad")

    def test_check_unitary_tolerance_boundary(self):
        # u^dag u - 1 = diag(dev, 0, 0, 0), on either side of SEQUENCE_ATOL = 1e-10
        check_unitary(np.diag([np.sqrt(1.0 + 1e-11), 1.0, 1.0, 1.0]), "dev 1e-11")
        with pytest.raises(UnitarityError, match="lost unitarity"):
            check_unitary(np.diag([np.sqrt(1.0 + 1e-9), 1.0, 1.0, 1.0]), "dev 1e-9")

    def test_drifted_product_raises(self, system):
        # a start operator 1e-9 off unitary: each event is unitary, the product is not
        seq = PulseSequence((rf_pulse("H", np.pi / 2, 0.0),))
        start = np.diag([np.sqrt(1.0 + 1e-9), 1.0, 1.0, 1.0])
        with pytest.raises(UnitarityError, match="sequence of 1 events lost unitarity"):
            sequence_unitary(seq, system, NO_ERROR, start)

    def test_agrees_with_bruteforce(self, system):
        seq = PulseSequence(
            (
                rf_pulse({"H", "C"}, np.pi / 2, np.pi / 2),
                coupling_delay(2.3e-3),
                rf_pulse("H", np.pi, 1.1),
                rf_pulse("C", 0.7, 5.0),
            )
        )
        err = ErrorModel(0.05, -0.03, 0.02)
        u = sequence_unitary(seq, system, err)
        v = sequence_unitary_expm(seq, system, err)
        assert np.max(np.abs(u - v)) < 1e-12


class TestCompositeZ:
    def test_zero_angle_is_identity(self, system):
        seq = PulseSequence(composite_z(0.0, "H"))
        u = sequence_unitary(seq, system)
        assert equal_up_to_global_phase(u, np.eye(4), 1e-12)

    def test_pi_flips_transverse_state(self, system):
        seq = PulseSequence(composite_z(np.pi, "H"))
        u = sequence_unitary(seq, system)
        plus = np.kron(np.array([1, 1]) / np.sqrt(2), np.array([1, 0])).astype(complex)
        minus = np.kron(np.array([1, -1]) / np.sqrt(2), np.array([1, 0])).astype(complex)
        out = u @ plus
        assert abs(abs(np.vdot(minus, out)) - 1.0) < 1e-12

    @pytest.mark.parametrize("theta", [np.pi / 3, -np.pi / 3, 1.0, 2 * np.pi])
    @pytest.mark.parametrize("spin", ["H", "C"])
    def test_matches_z_rotation(self, system, theta, spin):
        seq = PulseSequence(composite_z(theta, spin))
        u = sequence_unitary(seq, system)
        factors = {"H": (_rz(theta), np.eye(2)), "C": (np.eye(2), _rz(theta))}
        expected = np.kron(*factors[spin])
        assert equal_up_to_global_phase(u, expected, 1e-12)

    def test_angle_cap(self):
        with pytest.raises(ValueError):
            composite_z(2 * np.pi + 0.1, "H")


class TestBB1:
    def test_zero_error_identity(self, system):
        plain = pulse_unitary(rf_pulse("H", np.pi / 2, 0.0), system)
        comp = sequence_unitary(
            PulseSequence(bb1_expand(np.pi / 2, 0.0, {"H"})), system
        )
        assert np.max(np.abs(comp - plain)) < 1e-12

    def test_correction_phase_value(self):
        events = bb1_expand(np.pi / 2, 0.0, {"H"})
        phi1 = events[0].phase
        assert np.degrees(phi1) == pytest.approx(97.18, abs=0.01)
        assert phi1 == pytest.approx(np.arccos(-1.0 / 8.0), abs=1e-12)

    def test_structure(self):
        events = bb1_expand(1.1, 0.4, {"H", "C"})
        assert [e.angle for e in events] == pytest.approx(
            [np.pi, 2 * np.pi, np.pi, 1.1]
        )
        phi1 = np.arccos(-1.1 / (4 * np.pi))
        assert events[1].phase == pytest.approx((0.4 + 3 * phi1) % (2 * np.pi))

    def test_suppresses_amplitude_error(self, system):
        ideal = pulse_unitary(rf_pulse("H", np.pi / 2, 0.0), system)
        err = ErrorModel(eps_H=0.05, eps_C=0.05)
        naive = pulse_unitary(rf_pulse("H", np.pi / 2, 0.0), system, err)
        comp = sequence_unitary(
            PulseSequence(bb1_expand(np.pi / 2, 0.0, {"H"})), system, err
        )
        assert rotation_infidelity(ideal, comp) < 1e-4 * rotation_infidelity(
            ideal, naive
        )

    def test_angle_domain(self):
        with pytest.raises(ValueError):
            bb1_expand(0.0, 0.0, {"H"})
        with pytest.raises(ValueError):
            bb1_expand(-0.5, 0.0, {"H"})

    def test_angle_domain_ends_at_two_pi(self):
        assert len(bb1_expand(2 * np.pi, 0.0, {"H"})) == 4
        with pytest.raises(ValueError):
            bb1_expand(np.nextafter(2 * np.pi, 7.0), 0.0, {"H"})


def test_sequence_from_lists_stores_tuples():
    # the compile memo hands one sequence to every caller, so it must not change
    from fpsearch.pulses import GateSpan

    seq = PulseSequence([rf_pulse("H", np.pi, 0.0)], [GateSpan("U", 0, 1)])
    assert type(seq.events) is tuple and type(seq.gates) is tuple


class TestSerialization:
    def test_format(self, system):
        seq = PulseSequence(
            (
                rf_pulse({"H", "C"}, np.pi / 2, np.pi / 2),
                coupling_delay(0.000855578),
            ),
            gates=(),
        )
        text = seq.serialize()
        assert text.splitlines() == ["PULSE HC 90 90", "DELAY 0.000855578"]

    def test_gate_comments(self):
        from fpsearch.pulses import GateSpan

        seq = PulseSequence(
            (rf_pulse("H", np.pi, 0.0), rf_pulse("C", np.pi, 0.0)),
            gates=(GateSpan("U", 0, 1), GateSpan("Rf", 1, 2)),
        )
        lines = seq.serialize().splitlines()
        assert lines[0] == "# gate: U" and lines[2] == "# gate: Rf"

    def test_nine_significant_digits(self):
        seq = PulseSequence((coupling_delay(1.0 / 3.0),))
        assert seq.serialize().strip() == "DELAY 0.333333333"


class TestErrorModel:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ErrorModel(eps_H=1.0)
        with pytest.raises(ValueError):
            ErrorModel(delta_J=-1.5)


def test_spin_system_validation():
    with pytest.raises(ValueError):
        SpinSystem(J=0.0)
    with pytest.raises(ValueError):
        SpinSystem(T2_H=-1.0)
