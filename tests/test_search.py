import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpsearch.pulses import check_unitary
from fpsearch.search import (
    ADJOINT,
    MAX_ORDER,
    OracleSpec,
    all_oracles,
    closed_form_success,
    cube_residuals,
    equal_up_to_global_phase,
    expand_gate_list,
    ideal_gates,
    operators,
    origin_spec,
    phase_oracle,
    pseudo_hadamard,
    query_count,
    recursive_operator,
    success_probability,
)
from conftest import random_unitary

X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PI3 = np.pi / 3


class TestOracleSpec:
    def test_basic_properties(self):
        spec = OracleSpec({"00", "01"})
        assert spec.k == 2
        assert spec.indices == (0, 1)
        assert spec.label() == "00+01"

    def test_a_matching_set_is_stored_frozen(self):
        # so that a spec given a plain set hashes, as dict keys of (oracle, style) need
        spec = OracleSpec({"00", "01"})
        assert type(spec.matching) is frozenset
        assert {spec: "a"}[OracleSpec(frozenset({"01", "00"}))] == "a"

    def test_rejects_bad_strings(self):
        with pytest.raises(ValueError):
            OracleSpec({"001"})
        with pytest.raises(ValueError):
            OracleSpec({"000"})
        with pytest.raises(ValueError):
            OracleSpec({"0x"})
        with pytest.raises(ValueError):
            OracleSpec(set())

    def test_rejects_out_of_range_phase(self):
        for phase in (2 * np.pi, -2 * np.pi):
            with pytest.raises(ValueError):
                OracleSpec({"11"}, phase=phase)

    def test_accepts_phases_just_inside_the_bound(self):
        for bound in (2 * np.pi, -2 * np.pi):
            phase = np.nextafter(bound, 0.0)
            assert OracleSpec({"11"}, phase=phase).phase == phase

    def test_basis_indexing_msb_first(self):
        # qubit 1 (the proton) is the most significant bit
        assert OracleSpec({"10"}).indices == (2,)
        assert OracleSpec({"01"}).indices == (1,)
        assert OracleSpec({"11", "00"}).indices == (0, 3)

    def test_basis_state_rejects_bad_labels(self):
        for label in ("1x", "", "2", "110"):
            with pytest.raises(ValueError):
                OracleSpec({label})

    def test_complement_and_adjoint(self):
        spec = OracleSpec({"11"}, PI3)
        comp = spec.complement()
        assert comp.matching == frozenset({"00", "01", "10"})
        assert spec.adjoint().phase == -PI3


class TestPhaseOracle:
    def test_classic_sign_flip(self):
        spec = OracleSpec({"11"}, np.pi)
        assert np.allclose(phase_oracle(spec), np.diag([1, 1, 1, -1]))

    def test_full_set_is_global_phase(self):
        spec = OracleSpec({"00", "01", "10", "11"}, PI3)
        assert equal_up_to_global_phase(phase_oracle(spec), np.eye(4), 1e-12)

    def test_origin_gate(self):
        spec = OracleSpec({"00"}, PI3)
        expected = np.diag([np.exp(1j * PI3), 1, 1, 1])
        assert np.allclose(phase_oracle(spec), expected)
        assert np.allclose(phase_oracle(origin_spec()), expected)

    def test_unitary(self):
        for spec in all_oracles(1) + all_oracles(2):
            check_unitary(phase_oracle(spec), spec.label())


class TestPseudoHadamard:
    def test_two_qubit_quarter_probability(self):
        u = pseudo_hadamard()
        assert np.allclose(np.abs(u[:, 0]) ** 2, 0.25)

    def test_unitary(self):
        check_unitary(pseudo_hadamard(), "U")


class TestClosedFormAndQueries:
    def test_reference_values(self):
        assert closed_form_success(1, 1) == pytest.approx(37 / 64, abs=1e-15)
        assert closed_form_success(0, 1) == 0.25
        assert closed_form_success(0, 2) == 0.5
        assert closed_form_success(2, 3) == pytest.approx(
            1 - 0.25**9, abs=1e-15
        )

    def test_query_counts(self):
        assert [query_count(r) for r in range(5)] == [0, 1, 4, 13, 40]
        with pytest.raises(ValueError):
            query_count(-1)

    def test_r0_is_k_over_n(self):
        for k in (1, 2, 3, 4):
            assert closed_form_success(0, k) == k / 4


class TestRecursiveOperator:
    def test_r0_is_pseudo_hadamard(self):
        spec = OracleSpec({"11"}, PI3)
        assert np.allclose(recursive_operator(0, spec), pseudo_hadamard())

    def test_table_values(self):
        spec1 = OracleSpec({"10"}, PI3)
        assert success_probability(
            recursive_operator(1, spec1), spec1
        ) == pytest.approx(0.5781, abs=5e-5)
        spec2 = OracleSpec({"01", "10"}, PI3)
        assert success_probability(
            recursive_operator(2, spec2), spec2
        ) == pytest.approx(0.9980, abs=5e-5)
        spec3 = OracleSpec({"00"}, PI3)
        assert success_probability(
            recursive_operator(3, spec3), spec3
        ) == pytest.approx(0.9996, abs=5e-5)

    def test_success_spread_evenly_over_basis(self):
        # every single-state projection of V1 |00> has the same weight
        spec = OracleSpec({"01"}, PI3)
        v = recursive_operator(1, spec)
        probs = np.abs(v[:, 0]) ** 2
        assert np.allclose(probs[spec.indices[0]], 0.578125, atol=1e-12)

    def test_matches_closed_form_everywhere(self):
        for k in (1, 2, 3, 4):
            for spec in all_oracles(k):
                for r in range(5):
                    sim = success_probability(recursive_operator(r, spec), spec)
                    assert sim == pytest.approx(
                        closed_form_success(r, k), abs=1e-12
                    )

    def test_unitary_at_depth(self):
        spec = OracleSpec({"11"}, PI3)
        check_unitary(recursive_operator(4, spec), "V(4)")

    def test_order_cap(self):
        spec = OracleSpec({"11"}, PI3)
        with pytest.raises(ValueError, match="maximum"):
            recursive_operator(MAX_ORDER + 1, spec)

    def test_projection_cross_check(self):
        # summed matching probability equals the projection onto the
        # equally weighted target for the ideal operator
        for spec in all_oracles(1) + all_oracles(2):
            target = np.zeros(4, dtype=complex)
            target[list(spec.indices)] = 1.0 / np.sqrt(spec.k)
            for r in range(4):
                v = recursive_operator(r, spec)
                assert success_probability(v, spec) == pytest.approx(
                    abs(np.vdot(target, v[:, 0])) ** 2, abs=1e-12
                )


class TestOperators:
    @pytest.mark.parametrize("phase", [PI3, np.pi])
    def test_matches_literal_recursion(self, phase):
        # the paper's recursion spelled out with the adjoint itself,
        # V(r+1) = V(r) R0 V(r)^dag Rf V(r); operators carries W instead
        for k in (1, 2, 3):
            for spec in all_oracles(k, phase=phase):
                rf = phase_oracle(spec)
                r0 = phase_oracle(origin_spec(phase))
                v = pseudo_hadamard()
                for r, op in enumerate(operators(4, ideal_gates(spec))):
                    if r:
                        v = v @ r0 @ v.conj().T @ rf @ v
                    assert np.max(np.abs(op - v)) <= 1e-12, (spec.label(), r)


class TestCubeLawAndEquivalences:
    def test_cube_law_all_oracles(self):
        for k in (1, 2, 3):
            for spec in all_oracles(k):
                probs = [
                    success_probability(recursive_operator(r, spec), spec)
                    for r in range(5)
                ]
                for r in range(4):
                    residual = abs((1 - probs[r + 1]) - (1 - probs[r]) ** 3)
                    assert residual <= 1e-12

    @given(st.lists(st.floats(0.0, 1.0), max_size=8))
    def test_cube_residuals_are_the_literal_formula(self, probs):
        literal = [
            abs((1 - probs[r + 1]) - (1 - probs[r]) ** 3) for r in range(len(probs) - 1)
        ]
        got = cube_residuals(probs)
        assert [x.hex() for x in got] == [x.hex() for x in literal]  # bitwise

    def test_cube_residuals_of_fewer_than_two_entries(self):
        assert cube_residuals([]) == cube_residuals([0.25]) == []

    def test_monotone_in_r(self):
        for k in (1, 2, 3):
            for spec in all_oracles(k):
                probs = [
                    success_probability(recursive_operator(r, spec), spec)
                    for r in range(5)
                ]
                assert all(b >= a - 1e-15 for a, b in zip(probs, probs[1:]))

    def test_classic_grover_single_step(self):
        for spec in all_oracles(1, phase=np.pi):
            p = success_probability(recursive_operator(1, spec), spec)
            assert abs(p - 1.0) <= 1e-12

    def test_complement_with_negated_phase(self):
        for k in (1, 2, 3):
            for spec in all_oracles(k, phase=PI3):
                comp = spec.complement().adjoint()
                assert equal_up_to_global_phase(
                    phase_oracle(spec), phase_oracle(comp), 1e-12
                )

    def test_k3_search_equals_k1_search_at_pi(self):
        # phase pi on three states is a global phase away from phase pi
        # on the fourth, so the whole search operators coincide
        spec3 = OracleSpec({"00", "01", "10"}, np.pi)
        spec1 = OracleSpec({"11"}, np.pi)
        for r in (0, 1, 2):
            assert equal_up_to_global_phase(
                recursive_operator(r, spec3), recursive_operator(r, spec1), 1e-12
            )


class TestGateList:
    def test_r0(self):
        assert expand_gate_list(0) == ("U",)

    def test_r1_order(self):
        labels = list(expand_gate_list(1))
        assert labels == ["U", "Rf", "Udag", "R0", "U"]

    def test_oracle_family_counts(self):
        for r in range(5):
            gates = expand_gate_list(r)
            n_rf = sum(1 for g in gates if g in ("Rf", "Rfdag"))
            n_r0 = sum(1 for g in gates if g in ("R0", "R0dag"))
            assert n_rf == n_r0 == query_count(r)

    def test_product_reproduces_operator(self):
        for spec in (OracleSpec({"11"}, PI3), OracleSpec({"00", "01"}, PI3)):
            matrices = {
                "U": pseudo_hadamard(),
                "Rf": phase_oracle(spec),
                "R0": phase_oracle(origin_spec(PI3)),
            }
            for label, m in list(matrices.items()):
                matrices[ADJOINT[label]] = m.conj().T
            for r in range(4):
                u = np.eye(4, dtype=complex)
                for gate in expand_gate_list(r):
                    u = matrices[gate] @ u
                assert np.max(np.abs(u - recursive_operator(r, spec))) < 1e-12

    def test_cap_refusal(self):
        with pytest.raises(ValueError, match="maximum"):
            expand_gate_list(MAX_ORDER + 1)

    def test_cap_itself_is_accepted(self):
        assert len(expand_gate_list(MAX_ORDER)) == 2 * 3**MAX_ORDER - 1
        ops = operators(MAX_ORDER, ideal_gates(OracleSpec({"11"}, PI3)))
        assert len(ops) == MAX_ORDER + 1


def test_adjoint_is_an_involution():
    assert set(ADJOINT) == set(ideal_gates(OracleSpec({"11"})))
    for label, inverse in ADJOINT.items():
        assert inverse != label and ADJOINT[inverse] == label


class TestEqualUpToGlobalPhase:
    def test_phase_multiple(self, rng):
        u = random_unitary(rng, 4)
        assert equal_up_to_global_phase(u, np.exp(1j * np.pi / 7) * u, 1e-10)

    def test_distinct_gates(self):
        assert not equal_up_to_global_phase(I2, X, 0.999)

    def test_all_zero_right_argument(self):
        assert not equal_up_to_global_phase(np.eye(2), np.zeros((2, 2)), 1e-10)

    def test_conjugate_oracles_differ(self):
        # a pi/3 phase on one state is not a global phase away from the
        # same phase on the three other states; verified against a scan
        u = np.diag([1, 1, 1, np.exp(1j * np.pi / 3)])
        v = np.diag([np.exp(1j * np.pi / 3)] * 3 + [1])
        assert not equal_up_to_global_phase(u, v, 1e-10)
        gaps = [
            np.max(np.abs(u - np.exp(1j * t) * v))
            for t in np.linspace(0, 2 * np.pi, 20001)
        ]
        assert min(gaps) > 0.5

    def test_reflexive_symmetric_invariant(self, rng):
        u = random_unitary(rng, 4)
        v = u * np.exp(0.3j)
        for c in (1.0, np.exp(1.1j), -1j):
            assert equal_up_to_global_phase(c * u, v, 1e-10)
            assert equal_up_to_global_phase(v, c * u, 1e-10)

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            equal_up_to_global_phase(I2, I2, 0.0)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            equal_up_to_global_phase(I2, np.eye(4), 1e-10)

    def test_tolerance_is_inclusive(self):
        u, v = np.array([[1.0, 0.5]]), np.array([[1.0, 0.0]])
        assert equal_up_to_global_phase(u, v, 0.5)
        assert not equal_up_to_global_phase(u, v, np.nextafter(0.5, 0.0))

    def test_accepts_nested_lists(self):
        assert equal_up_to_global_phase([[1, 0], [0, 1]], [[1j, 0], [0, 1j]], 1e-12)

    def test_all_zero_left_argument(self):
        assert not equal_up_to_global_phase(np.zeros((2, 2)), I2, 1e-10)


# the package exports these, so each rejects what it cannot answer
@pytest.mark.parametrize("call,reason", [
    (lambda: expand_gate_list(-1), "nonnegative"),
    (lambda: closed_form_success(-1, 1), "nonnegative"),
    (lambda: closed_form_success(1, 0), "k=0 outside 1..4"),
    (lambda: closed_form_success(1, 5), "k=5 outside 1..4"),
    (lambda: success_probability(np.eye(3), OracleSpec({"00"})), "not 4x4"),
    (lambda: OracleSpec({"00", "01", "10", "11"}).complement(), "complement of the full"),
], ids=["gate-list-order", "closed-form-order", "closed-form-k0", "closed-form-k5",
        "3x3-operator", "complement-of-all"])
def test_exported_functions_reject_bad_input(call, reason):
    with pytest.raises(ValueError, match=reason):
        call()
