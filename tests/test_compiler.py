import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import sequence_unitary_expm
from fpsearch.compiler import (
    STYLES,
    compile_algorithm,
    compile_gates,
    diagonal_phase_coefficients,
)
from fpsearch.pulses import (
    DELAY,
    NO_ERROR,
    RF_PULSE,
    ErrorModel,
    PulseSequence,
    sequence_unitary,
)
from fpsearch.search import (
    MAX_ORDER,
    OracleSpec,
    all_oracles,
    equal_up_to_global_phase,
    expand_gate_list,
    ideal_gates,
    operators,
    origin_spec,
    phase_oracle,
    recursive_operator,
    success_probability,
)

PI3 = np.pi / 3


def _gates(spec: OracleSpec, system, style: str = "naive") -> dict[str, PulseSequence]:
    """The gates of one run, as ``compile_gates`` compiles them."""
    (gates,) = compile_gates([(spec, style)], system)
    return gates


def _delays(seq: PulseSequence) -> int:
    return sum(e.kind == DELAY for e in seq.events)


HZ = np.array([0.5, 0.5, -0.5, -0.5])
CZ = np.array([0.5, -0.5, 0.5, -0.5])
DD = np.array([0.5, -0.5, -0.5, 0.5])


class TestDiagonalDecomposition:
    def test_single_state_coefficients(self):
        a, b, g = diagonal_phase_coefficients(OracleSpec({"11"}, PI3))
        assert a == pytest.approx(-PI3 / 2)
        assert b == pytest.approx(-PI3 / 2)
        assert g == pytest.approx(PI3 / 2)
        # the phases up to the constant g0 = PI3/4
        phases = a * HZ + b * CZ + g * DD
        assert phases == pytest.approx(np.array([0, 0, 0, PI3]) - PI3 / 4)

    def test_proton_only_pair(self):
        a, b, g = diagonal_phase_coefficients(OracleSpec({"00", "01"}, PI3))
        assert a == pytest.approx(PI3)
        assert b == pytest.approx(0.0)
        assert g == pytest.approx(0.0)

    def test_reconstructs_oracle(self):
        for spec in all_oracles(1) + all_oracles(2):
            a, b, g = diagonal_phase_coefficients(spec)
            phases = a * HZ + b * CZ + g * DD
            assert equal_up_to_global_phase(
                np.diag(np.exp(1j * phases)), phase_oracle(spec), 1e-12
            )


class TestCompilePhaseGate:
    """The phase gates ``Rf``, ``Rf^dag``, ``R0`` and ``R0^dag`` as
    ``compile_gates`` lowers them."""

    @pytest.mark.parametrize("phase", [PI3, -PI3, np.pi, -np.pi + 0.1, 1.9])
    def test_sound_for_all_matching_sets(self, system, phase):
        for k in (1, 2, 3):
            for spec in all_oracles(k, phase=phase):
                gates = _gates(spec, system)
                for label, target in (("Rf", spec), ("Rfdag", spec.adjoint())):
                    u = sequence_unitary(gates[label], system)
                    assert equal_up_to_global_phase(
                        u, phase_oracle(target), 1e-10
                    ), f"{label} {spec.label()} @ {phase}"

    def test_origin_gate_roundtrip(self, system):
        gates = _gates(OracleSpec({"11"}, PI3), system)
        origin = origin_spec(PI3)
        for label, target in (("R0", origin), ("R0dag", origin.adjoint())):
            u = sequence_unitary(gates[label], system)
            assert equal_up_to_global_phase(u, phase_oracle(target), 1e-10)

    def test_proton_only_pair_has_no_delay(self, system):
        seq = _gates(OracleSpec({"00", "01"}, PI3), system)["Rf"]
        assert _delays(seq) == 0
        targets = {t for ev in seq.events for t in ev.targets}
        assert targets == {"H"}
        assert seq.rf_pulse_count() == 3

    def test_carbon_only_pair(self, system):
        seq = _gates(OracleSpec({"00", "10"}, PI3), system)["Rf"]
        assert _delays(seq) == 0
        targets = {t for ev in seq.events for t in ev.targets}
        assert targets == {"C"}

    def test_antialigned_pair_is_delay_only(self, system):
        seq = _gates(OracleSpec({"01", "10"}, PI3), system)["Rf"]
        assert seq.rf_pulse_count() == 0 and _delays(seq) == 1
        assert seq.total_delay_time() == pytest.approx(PI3 / (np.pi * system.J))

    def test_inverse_gate_uses_short_delay(self, system):
        # the forward gate needs the phase-shifted long delay, the
        # negated-phase inverse the direct short one
        gates = _gates(OracleSpec({"11"}, PI3), system)
        t_fwd, t_inv = gates["Rf"].total_delay_time(), gates["Rfdag"].total_delay_time()
        assert t_inv == pytest.approx((PI3 / 2) / (np.pi * system.J))
        assert t_inv == pytest.approx(855.578e-6, abs=0.01e-6)
        assert t_fwd == pytest.approx((np.pi - PI3 / 2) / (np.pi * system.J))
        assert t_fwd + t_inv == pytest.approx(1.0 / system.J)

    def test_zero_phase_rejected(self, system):
        with pytest.raises(ValueError):
            _gates(OracleSpec({"11"}, 0.0), system)


class TestCompileAlgorithm:
    def test_r0_single_simultaneous_pulse(self, system, k1_oracles):
        seq = compile_algorithm(0, k1_oracles[0], system)
        assert len(seq.events) == 1
        (ev,) = seq.events
        assert ev.kind == RF_PULSE and ev.targets == frozenset({"H", "C"})
        assert ev.angle == pytest.approx(np.pi / 2)
        assert ev.phase == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("style", ["naive", "bb1"])
    def test_soundness_all_oracles(self, system, style):
        for spec in all_oracles(1) + all_oracles(2):
            ideal = [recursive_operator(r, spec) for r in range(4)]
            for r in range(4):
                seq = compile_algorithm(r, spec, system, style=style)
                u = sequence_unitary(seq, system)
                assert equal_up_to_global_phase(u, ideal[r], 1e-10)

    def test_soundness_at_pi(self, system):
        for spec in all_oracles(1, phase=np.pi):
            seq = compile_algorithm(1, spec, system)
            u = sequence_unitary(seq, system)
            assert equal_up_to_global_phase(
                u, recursive_operator(1, spec), 1e-10
            )

    def test_rf_pulse_count_band(self, system, k1_oracles):
        # the README's order-3 counts; criterion 3 only asks for 150..250
        for spec in k1_oracles:
            seq = compile_algorithm(3, spec, system, style="naive")
            assert seq.rf_pulse_count() == 183 and _delays(seq) == 26

    def test_k2_success_probability(self, system):
        spec = OracleSpec({"00", "01"}, PI3)
        seq = compile_algorithm(1, spec, system)
        u = sequence_unitary(seq, system)
        assert success_probability(u, spec) == pytest.approx(0.8750, abs=1e-10)

    @pytest.mark.parametrize("style", STYLES)
    def test_program_concatenates_compiled_gates(self, system, style):
        for spec in all_oracles(1) + all_oracles(2):
            gates = _gates(spec, system, style)
            for r in range(5):
                expected = tuple(
                    ev for label in expand_gate_list(r) for ev in gates[label].events
                )
                assert compile_algorithm(r, spec, system, style).events == expected

    @pytest.mark.parametrize("style", STYLES)
    def test_each_order_extends_the_one_before(self, system, style):
        # criterion 3 continues one product through the orders on this
        for spec in all_oracles(1) + all_oracles(2):
            programs = [compile_algorithm(r, spec, system, style) for r in range(4)]
            for shorter, longer in zip(programs, programs[1:]):
                assert longer.events[: len(shorter)] == shorter.events
                assert len(longer) > len(shorter)

    def test_u_inverse_is_pulsewise_adjoint(self, system, k1_oracles):
        # a U gate and its inverse share the scaled angle and differ by a
        # pi axis shift, so the rf error is common to both
        gates = _gates(k1_oracles[0], system)
        (u_ev,) = gates["U"].events
        (udag_ev,) = gates["Udag"].events
        assert u_ev.angle == udag_ev.angle
        assert (udag_ev.phase - u_ev.phase) % (2 * np.pi) == pytest.approx(np.pi)
        err = ErrorModel(eps_H=0.07, eps_C=0.07)
        prod = sequence_unitary(PulseSequence((u_ev, udag_ev)), system, err)
        assert np.max(np.abs(prod - np.eye(4))) < 1e-12

    def test_bb1_quadruples_pulses(self, system, k1_oracles):
        naive = compile_algorithm(2, k1_oracles[0], system, style="naive")
        bb1 = compile_algorithm(2, k1_oracles[0], system, style="bb1")
        assert bb1.rf_pulse_count() == 4 * naive.rf_pulse_count()
        assert _delays(bb1) == _delays(naive)

    def test_bb1_equals_naive_without_error(self, system, k1_oracles):
        for spec in k1_oracles[:2]:
            a = sequence_unitary(compile_algorithm(2, spec, system, "naive"), system)
            b = sequence_unitary(compile_algorithm(2, spec, system, "bb1"), system)
            assert equal_up_to_global_phase(a, b, 1e-10)

    def test_depth_cap(self, system, k1_oracles):
        with pytest.raises(ValueError, match="maximum"):
            compile_algorithm(MAX_ORDER + 1, k1_oracles[0], system)

    def test_style_validation(self, system, k1_oracles):
        with pytest.raises(ValueError, match="style"):
            compile_algorithm(1, k1_oracles[0], system, style="fancy")

    def test_matches_bruteforce_under_error(self, system, k1_oracles):
        err = ErrorModel(0.05, 0.05, 0.02)
        seq = compile_algorithm(1, k1_oracles[3], system)
        u = sequence_unitary(seq, system, err)
        v = sequence_unitary_expm(seq, system, err)
        assert np.max(np.abs(u - v)) < 1e-11

    def test_serializes(self, system, k1_oracles):
        # one line per event, so the program's text is its gates' texts in order
        text = compile_algorithm(1, k1_oracles[0], system).serialize()
        gates = _gates(k1_oracles[0], system)
        assert text.startswith("PULSE HC 90 90\n")
        assert text == "".join(gates[label].serialize() for label in expand_gate_list(1))


class TestErrorBehaviour:
    """Pulse-level contraction behaviour under the two systematic errors."""

    def _pulse_probs(self, spec, system, error, r_top=3):
        probs = []
        for r in range(r_top + 1):
            seq = compile_algorithm(r, spec, system)
            u = sequence_unitary(seq, system, error)
            probs.append(success_probability(u, spec))
        return probs

    def test_no_error_matches_closed_form(self, system, k1_oracles):
        probs = self._pulse_probs(k1_oracles[0], system, NO_ERROR)
        for r, p in enumerate(probs):
            assert p == pytest.approx(1 - 0.75 ** (3**r), abs=1e-10)

    def test_coupling_error_breaks_contraction(self, system, k1_oracles):
        # regression values pinned with the expm brute-force simulator
        pinned = {"00": 4.399371286309e-2, "01": 1.931733297291e-2,
                  "10": 1.931733297291e-2, "11": 4.399371286309e-2}
        err = ErrorModel(delta_J=0.05)
        for spec in k1_oracles:
            p = self._pulse_probs(spec, system, err, r_top=1)
            residual = abs((1 - p[1]) - (1 - p[0]) ** 3)
            assert residual > 1e-6
            assert residual == pytest.approx(pinned[spec.label()], abs=1e-9)

    @settings(max_examples=25)
    @given(
        eps_h=st.floats(-0.2, 0.2),
        eps_c=st.floats(-0.2, 0.2),
        delta_j=st.floats(-0.2, 0.2),
    )
    def test_rf_error_with_exact_phase_gates_keeps_contraction(
        self, system, eps_h, eps_c, delta_j
    ):
        # with exact phase matrices and the simulated base transformation,
        # U and its compiled inverse share their rf error, and the
        # contraction survives any miscalibration: the paper's
        # exact-robustness statement, for every k <= 2 oracle and r <= 4
        error = ErrorModel(eps_H=eps_h, eps_C=eps_c, delta_J=delta_j)
        for spec in all_oracles(1) + all_oracles(2):
            compiled = _gates(spec, system, "naive")
            gates = ideal_gates(spec)
            for label in ("U", "Udag"):
                gates[label] = sequence_unitary(compiled[label], system, error)
            p = [success_probability(v, spec) for v in operators(4, gates)]
            for r in range(4):
                residual = abs((1 - p[r + 1]) - (1 - p[r]) ** 3)
                assert residual <= 1e-9, (spec.label(), r)

    def test_rf_error_on_phase_gate_pulses_breaks_contraction(
        self, system, k1_oracles
    ):
        # the transverse pulses realizing the z rotations tilt under the
        # same rf error, so the physically compiled phase gates are no
        # longer exact and the contraction degrades
        err = ErrorModel(eps_H=0.05, eps_C=0.05)
        residuals = []
        for spec in k1_oracles:
            p = self._pulse_probs(spec, system, err, r_top=2)
            residuals.append(abs((1 - p[2]) - (1 - p[1]) ** 3))
        assert max(residuals) > 1e-3
