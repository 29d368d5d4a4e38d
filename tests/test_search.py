import itertools

import numpy as np
import pytest

from fpsearch import linalg
from fpsearch.pulses import check_unitary
from fpsearch.search import (
    MAX_ORDER,
    GateOp,
    OracleSpec,
    all_oracles,
    closed_form_success,
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

PI3 = np.pi / 3


class TestOracleSpec:
    def test_basic_properties(self):
        spec = OracleSpec(2, {"00", "01"})
        assert spec.k == 2 and spec.dim == 4
        assert spec.indices == (0, 1)
        assert spec.label() == "00+01"

    def test_rejects_bad_strings(self):
        with pytest.raises(ValueError):
            OracleSpec(2, {"001"})
        with pytest.raises(ValueError):
            OracleSpec(2, {"0x"})
        with pytest.raises(ValueError):
            OracleSpec(2, set())

    def test_rejects_out_of_range_phase(self):
        with pytest.raises(ValueError):
            OracleSpec(2, {"11"}, phase=2 * np.pi)

    def test_complement_and_adjoint(self):
        spec = OracleSpec(2, {"11"}, PI3)
        comp = spec.complement()
        assert comp.matching == frozenset({"00", "01", "10"})
        assert spec.adjoint().phase == -PI3


class TestPhaseOracle:
    def test_classic_sign_flip(self):
        spec = OracleSpec(2, {"11"}, np.pi)
        assert np.allclose(phase_oracle(spec), np.diag([1, 1, 1, -1]))

    def test_full_set_is_global_phase(self):
        spec = OracleSpec(2, {"00", "01", "10", "11"}, PI3)
        assert linalg.equal_up_to_global_phase(phase_oracle(spec), np.eye(4), 1e-12)

    def test_origin_gate(self):
        spec = OracleSpec(2, {"00"}, PI3)
        expected = np.diag([np.exp(1j * PI3), 1, 1, 1])
        assert np.allclose(phase_oracle(spec), expected)
        assert np.allclose(phase_oracle(origin_spec(2)), expected)

    def test_unitary(self):
        for spec in all_oracles(2, 1) + all_oracles(2, 2):
            check_unitary(phase_oracle(spec), spec.label())


class TestPseudoHadamard:
    def test_single_qubit_uniform(self):
        u = pseudo_hadamard(1)
        amps = u @ np.array([1.0, 0.0])
        assert np.allclose(np.abs(amps) ** 2, 0.5)

    def test_two_qubit_quarter_probability(self):
        u = pseudo_hadamard(2)
        assert np.allclose(np.abs(u[:, 0]) ** 2, 0.25)

    def test_unitary(self):
        for n in (1, 2, 3):
            check_unitary(pseudo_hadamard(n), f"n={n}")


class TestClosedFormAndQueries:
    def test_reference_values(self):
        assert closed_form_success(1, 1, 2) == pytest.approx(37 / 64, abs=1e-15)
        assert closed_form_success(0, 1, 2) == 0.25
        assert closed_form_success(0, 2, 2) == 0.5
        assert closed_form_success(2, 3, 2) == pytest.approx(
            1 - 0.25**9, abs=1e-15
        )

    def test_query_counts(self):
        assert [query_count(r) for r in range(5)] == [0, 1, 4, 13, 40]
        with pytest.raises(ValueError):
            query_count(-1)

    def test_r0_is_k_over_n(self):
        for k in (1, 2, 3, 4):
            assert closed_form_success(0, k, 2) == k / 4


class TestRecursiveOperator:
    def test_r0_is_pseudo_hadamard(self):
        spec = OracleSpec(2, {"11"}, PI3)
        assert np.allclose(recursive_operator(0, spec), pseudo_hadamard(2))

    def test_table_values(self):
        spec1 = OracleSpec(2, {"10"}, PI3)
        assert success_probability(
            recursive_operator(1, spec1), spec1
        ) == pytest.approx(0.5781, abs=5e-5)
        spec2 = OracleSpec(2, {"01", "10"}, PI3)
        assert success_probability(
            recursive_operator(2, spec2), spec2
        ) == pytest.approx(0.9980, abs=5e-5)
        spec3 = OracleSpec(2, {"00"}, PI3)
        assert success_probability(
            recursive_operator(3, spec3), spec3
        ) == pytest.approx(0.9996, abs=5e-5)

    def test_success_spread_evenly_over_basis(self):
        # every single-state projection of V1 |00> has the same weight
        spec = OracleSpec(2, {"01"}, PI3)
        v = recursive_operator(1, spec)
        probs = np.abs(v[:, 0]) ** 2
        assert np.allclose(probs[spec.indices[0]], 0.578125, atol=1e-12)

    def test_matches_closed_form_everywhere(self):
        for k in (1, 2, 3, 4):
            for spec in all_oracles(2, k):
                for r in range(5):
                    sim = success_probability(recursive_operator(r, spec), spec)
                    assert sim == pytest.approx(
                        closed_form_success(r, k, 2), abs=1e-12
                    )

    def test_matches_closed_form_three_qubits(self):
        for matching in ({"000"}, {"010", "101"}, {"111", "001", "100"}):
            spec = OracleSpec(3, frozenset(matching), PI3)
            for r in (0, 1, 2):
                sim = success_probability(recursive_operator(r, spec), spec)
                assert sim == pytest.approx(
                    closed_form_success(r, spec.k, 3), abs=1e-12
                )

    def test_unitary_at_depth(self):
        spec = OracleSpec(2, {"11"}, PI3)
        check_unitary(recursive_operator(4, spec), "V(4)")

    def test_order_cap(self):
        spec = OracleSpec(2, {"11"}, PI3)
        with pytest.raises(ValueError, match="maximum"):
            recursive_operator(MAX_ORDER + 1, spec)

    def test_projection_cross_check(self):
        # summed matching probability equals the projection onto the
        # equally weighted target for the ideal operator
        for spec in all_oracles(2, 1) + all_oracles(2, 2):
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
            for spec in all_oracles(2, k, phase=phase):
                rf = phase_oracle(spec)
                r0 = phase_oracle(origin_spec(2, phase))
                v = pseudo_hadamard(2)
                for r, op in enumerate(operators(4, ideal_gates(spec))):
                    if r:
                        v = v @ r0 @ v.conj().T @ rf @ v
                    assert np.max(np.abs(op - v)) <= 1e-12, (spec.label(), r)


class TestCubeLawAndEquivalences:
    def test_cube_law_all_oracles(self):
        for k in (1, 2, 3):
            for spec in all_oracles(2, k):
                probs = [
                    success_probability(recursive_operator(r, spec), spec)
                    for r in range(5)
                ]
                for r in range(4):
                    residual = abs((1 - probs[r + 1]) - (1 - probs[r]) ** 3)
                    assert residual <= 1e-12

    def test_monotone_in_r(self):
        for k in (1, 2, 3):
            for spec in all_oracles(2, k):
                probs = [
                    success_probability(recursive_operator(r, spec), spec)
                    for r in range(5)
                ]
                assert all(b >= a - 1e-15 for a, b in zip(probs, probs[1:]))

    def test_classic_grover_single_step(self):
        for spec in all_oracles(2, 1, phase=np.pi):
            p = success_probability(recursive_operator(1, spec), spec)
            assert abs(p - 1.0) <= 1e-12

    def test_complement_with_negated_phase(self):
        for k in (1, 2, 3):
            for spec in all_oracles(2, k, phase=PI3):
                comp = spec.complement().adjoint()
                assert linalg.equal_up_to_global_phase(
                    phase_oracle(spec), phase_oracle(comp), 1e-12
                )

    def test_k3_search_equals_k1_search_at_pi(self):
        # phase pi on three states is a global phase away from phase pi
        # on the fourth, so the whole search operators coincide
        spec3 = OracleSpec(2, {"00", "01", "10"}, np.pi)
        spec1 = OracleSpec(2, {"11"}, np.pi)
        for r in (0, 1, 2):
            assert linalg.equal_up_to_global_phase(
                recursive_operator(r, spec3), recursive_operator(r, spec1), 1e-12
            )


class TestGateList:
    def test_r0(self):
        assert expand_gate_list(0) == (GateOp("U"),)

    def test_r1_order(self):
        labels = [g.label for g in expand_gate_list(1)]
        assert labels == ["U", "Rf", "Udag", "R0", "U"]

    def test_oracle_family_counts(self):
        for r in range(5):
            gates = expand_gate_list(r)
            n_rf = sum(1 for g in gates if g.kind == "Rf")
            n_r0 = sum(1 for g in gates if g.kind == "R0")
            assert n_rf == n_r0 == query_count(r)

    def test_product_reproduces_operator(self):
        for spec in (OracleSpec(2, {"11"}, PI3), OracleSpec(2, {"00", "01"}, PI3)):
            matrices = {
                "U": pseudo_hadamard(2),
                "Rf": phase_oracle(spec),
                "R0": phase_oracle(origin_spec(2, PI3)),
            }
            for r in range(4):
                u = np.eye(4, dtype=complex)
                for gate in expand_gate_list(r):
                    m = matrices[gate.kind]
                    u = (m.conj().T if gate.dagger else m) @ u
                assert np.max(np.abs(u - recursive_operator(r, spec))) < 1e-12

    def test_cap_refusal(self):
        with pytest.raises(ValueError, match="maximum"):
            expand_gate_list(MAX_ORDER + 1)


def test_gateop_adjoint_roundtrip():
    g = GateOp("Rf")
    assert g.adjoint().dagger and g.adjoint().adjoint() == g
    with pytest.raises(ValueError):
        GateOp("X")
