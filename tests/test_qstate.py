"""Tests for the density-operator layer."""

import numpy as np
import pytest

from diqkd_lab.qstate import (
    CorrelationTable,
    DensityOperator,
    DimensionMismatchError,
    Povm,
    StateValidationError,
    bell_state,
    born_table,
    inefficient_qubit_povm,
    projective_qubit_povm,
    qubit_observable,
    singlet,
)


def test_validate_state_accepts_maximally_mixed():
    rho = DensityOperator(matrix=np.eye(3) / 3, dims=(3,))
    assert rho.dim == 3
    np.testing.assert_allclose(rho.matrix, np.eye(3) / 3, atol=1e-15)


def test_validate_state_flags_nonhermitian_and_trace():
    bad = np.array([[0.5, 0.3], [0.0, 0.5]])
    with pytest.raises(StateValidationError, match="hermiticity_error=3.000e-01"):
        DensityOperator(matrix=bad, dims=(2,))
    with pytest.raises(StateValidationError, match=r"trace_error=1.000e\+00"):
        DensityOperator(matrix=np.eye(2), dims=(2,))


def test_density_operator_rejects_negative_matrix():
    with pytest.raises(StateValidationError):
        DensityOperator(matrix=np.diag([1.5, -0.5]), dims=(2,))


def test_density_operator_rejects_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        DensityOperator(matrix=np.eye(4) / 4, dims=(2, 3))


def test_density_operator_is_read_only():
    rho = singlet()
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


def test_from_pure_and_purity():
    vec = np.array([1.0, 1.0]) / np.sqrt(2)
    rho = DensityOperator.from_pure(vec, dims=(2,)).matrix
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
    mixed = DensityOperator(matrix=np.eye(2) / 2, dims=(2,)).matrix
    assert np.trace(mixed @ mixed).real == pytest.approx(0.5, abs=1e-12)


def test_expectation_of_pauli_z():
    rho = DensityOperator.from_pure(np.array([1.0, 0.0]), dims=(2,)).matrix
    assert np.trace(rho @ qubit_observable(0.0)).real == pytest.approx(1.0)
    assert np.trace(rho @ qubit_observable(np.pi)).real == pytest.approx(-1.0)


def test_povm_requires_completeness():
    p = projective_qubit_povm(0.3)
    np.testing.assert_allclose(sum(p.effects), np.eye(2), atol=1e-12)
    with pytest.raises(StateValidationError):
        Povm(effects=(0.5 * np.eye(2), 0.4 * np.eye(2)))


def test_inefficient_povm_outcomes():
    p = inefficient_qubit_povm(0.7, 0.6)
    assert len(p.effects) == 3
    np.testing.assert_allclose(sum(p.effects), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(p.effects[2], 0.4 * np.eye(2), atol=1e-12)


def test_bell_states_are_orthonormal():
    labels = ("phi+", "phi-", "psi+", "psi-")
    states = [bell_state(lbl) for lbl in labels]
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            overlap = float(np.real(np.trace(si.matrix @ sj.matrix)))
            assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_singlet_correlator_is_minus_cosine():
    """E(alpha, beta) = -cos(alpha - beta) for the singlet."""
    rho = singlet()
    for alpha, beta in [(0.0, 0.0), (0.3, 1.1), (np.pi / 2, np.pi / 4)]:
        table = born_table(
            rho, [projective_qubit_povm(alpha)], [projective_qubit_povm(beta)]
        )
        assert table.correlator(0, 0) == pytest.approx(-np.cos(alpha - beta), abs=1e-12)


def test_born_table_normalization_and_no_signalling():
    rho = singlet()
    alice = [inefficient_qubit_povm(t, 0.8) for t in (0.0, np.pi / 2)]
    bob = [inefficient_qubit_povm(t, 0.6) for t in (np.pi / 4, -np.pi / 4)]
    table = born_table(rho, alice, bob)
    assert table.probabilities.shape == (2, 2, 3, 3)
    np.testing.assert_allclose(table.probabilities.sum(axis=(2, 3)), 1.0, atol=1e-12)
    # Alice's marginal must not depend on Bob's setting.
    marginal_alice = table.probabilities.sum(axis=3)
    for x in range(2):
        np.testing.assert_allclose(marginal_alice[x, 0], marginal_alice[x, 1], atol=1e-12)


def test_correlation_table_error_rate():
    probs = np.zeros((1, 1, 2, 2))
    probs[0, 0] = [[0.4, 0.1], [0.2, 0.3]]
    table = CorrelationTable(probabilities=probs)
    assert table.error_rate(0, 0) == pytest.approx(0.3, abs=1e-12)


def test_correlation_table_rejects_unnormalized():
    probs = np.full((1, 1, 2, 2), 0.3)
    with pytest.raises(StateValidationError):
        CorrelationTable(probabilities=probs)
