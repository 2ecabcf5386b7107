"""Tests for Bell-inequality evaluation, thresholds and attacks."""

import numpy as np
import pytest
from scipy.optimize import minimize

from diqkd_lab.bellcert import (
    _CLICK_A,
    _CLICK_B,
    _COIN,
    _MIN_COINCIDENCE,
    _candidate_ensemble,
    _eta_threshold,
    _family_correlations,
    _postselected_chsh,
    FAMILY_ALICE_ANGLES,
    FAMILY_BOB_ANGLES,
    SINGLET_ALICE_ANGLES,
    SINGLET_BOB_ANGLES,
    bell_value,
    bin_no_click,
    binned_chsh,
    chsh_functional,
    critical_efficiency,
    local_bound,
    loophole_attack,
    loophole_attack_curve,
    nosignalling_residual,
    partially_entangled_state,
)
from diqkd_lab.qstate import (
    CorrelationTable,
    born_table,
    inefficient_qubit_povm,
    projective_qubit_povm,
    singlet,
)

TSIRELSON = 2.0 * np.sqrt(2.0)


def singlet_table(eta: float = 1.0) -> CorrelationTable:
    if eta == 1.0:
        alice = [projective_qubit_povm(t) for t in SINGLET_ALICE_ANGLES]
        bob = [projective_qubit_povm(t) for t in SINGLET_BOB_ANGLES]
    else:
        alice = [inefficient_qubit_povm(t, eta) for t in SINGLET_ALICE_ANGLES]
        bob = [inefficient_qubit_povm(t, eta) for t in SINGLET_BOB_ANGLES]
    return born_table(singlet(), alice, bob)


def test_chsh_functional_shape():
    f = chsh_functional()
    assert f.n_alice_settings == 2
    assert f.n_bob_settings == 2
    np.testing.assert_allclose(np.abs(f.correlator_weights), 1.0)


def test_singlet_reaches_tsirelson():
    value = bell_value(singlet_table(), chsh_functional())
    assert value == pytest.approx(TSIRELSON, abs=1e-12)


def test_local_bound_of_chsh_is_two():
    assert local_bound(chsh_functional()) == 2.0


def test_bin_no_click_preserves_binary_tables():
    table = singlet_table()
    binned = bin_no_click(table)
    np.testing.assert_allclose(binned.probabilities, table.probabilities, atol=1e-15)


def test_bin_no_click_folds_third_outcome():
    table = singlet_table(eta=0.8)
    binned = bin_no_click(table)
    assert binned.probabilities.shape == (2, 2, 2, 2)
    np.testing.assert_allclose(binned.probabilities.sum(axis=(2, 3)), 1.0, atol=1e-12)
    # Folding everything to outcome 0 keeps outcome-1 mass untouched.
    np.testing.assert_allclose(
        binned.probabilities[:, :, 1, 1], table.probabilities[:, :, 1, 1], atol=1e-15
    )


def test_binned_chsh_matches_closed_form():
    """Binned CHSH of the singlet is eta^2 * 2 sqrt(2) + 2 (1 - eta)^2."""
    for eta in (1.0, 0.9, 0.8284271247461903, 0.7):
        expected = eta**2 * TSIRELSON + 2.0 * (1.0 - eta) ** 2
        got = binned_chsh(singlet(), SINGLET_ALICE_ANGLES, SINGLET_BOB_ANGLES, eta, eta)
        assert got == pytest.approx(expected, abs=1e-12)


def test_partially_entangled_family_endpoints():
    rho = partially_entangled_state(0.0).matrix
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
    table = born_table(
        partially_entangled_state(np.pi / 4),
        [projective_qubit_povm(t) for t in FAMILY_ALICE_ANGLES],
        [projective_qubit_povm(t) for t in FAMILY_BOB_ANGLES],
    )
    assert bell_value(table, chsh_functional()) == pytest.approx(TSIRELSON, abs=1e-9)


def test_critical_efficiency_fixed_singlet():
    res = critical_efficiency(
        singlet(), SINGLET_ALICE_ANGLES, SINGLET_BOB_ANGLES
    )
    assert res.violation_at_unit_efficiency
    assert res.chsh_at_unit_efficiency == pytest.approx(TSIRELSON, abs=1e-9)
    assert res.eta_critical == pytest.approx(2.0 * (np.sqrt(2.0) - 1.0), abs=1e-5)


def _threshold_start_family_winner():
    """Best of the 24-start Nelder-Mead family over ``(theta, angles)``.

    The reference the optimized threshold is checked against: six values
    of theta times four angle sets, each searched with the library's
    objective and options, the lowest objective value winning.
    """

    def objective(params):
        eta, e_tot = _eta_threshold(
            *_family_correlations(params[0], params[1:3], params[3:5])
        )
        return eta if e_tot > 2.0 else 1.0 + (2.0 - e_tot)

    angle_sets = (
        (*FAMILY_ALICE_ANGLES, *FAMILY_BOB_ANGLES),
        (*SINGLET_ALICE_ANGLES, *SINGLET_BOB_ANGLES),
        (0.1, 0.5, -0.3, 0.2),
        (-0.2, 0.6, 0.3, -0.5),
    )
    best = None
    for theta in (0.02, 0.05, 0.1, 0.2, 0.4, np.pi / 4):
        for angles in angle_sets:
            res = minimize(
                objective,
                np.array([theta, *angles], dtype=float),
                method="Nelder-Mead",
                options={"xatol": 1e-5, "fatol": 1e-12, "maxiter": 8000, "maxfev": 12000},
            )
            if best is None or res.fun < best.fun:
                best = res
    return best.x


def test_optimized_threshold_is_best_of_the_start_family():
    x = _threshold_start_family_winner()
    theta, aa, bb = float(x[0]), x[1:3], x[3:5]
    eta, e_tot = _eta_threshold(*_family_correlations(theta, aa, bb))
    res = critical_efficiency()
    assert res.eta_critical == eta
    assert res.theta == theta
    assert res.alice_angles == (float(aa[0]), float(aa[1]))
    assert res.bob_angles == (float(bb[0]), float(bb[1]))
    assert res.chsh_at_unit_efficiency == e_tot
    assert res.violation_at_unit_efficiency == (e_tot > 2.0)
    assert res.eta_critical == pytest.approx(0.6666675784498227, abs=1e-12)
    assert res.theta == pytest.approx(7.3564410039596995e-06, abs=1e-12)


def test_critical_efficiency_reports_no_violation():
    res = critical_efficiency(singlet(), (0.0, 0.0), (0.0, 0.0))
    assert not res.violation_at_unit_efficiency
    assert res.eta_critical == 1.0


def test_critical_efficiency_needs_a_state_with_both_angle_lists_or_nothing():
    for args in (
        (singlet(),),
        (singlet(), SINGLET_ALICE_ANGLES),
        (None, SINGLET_ALICE_ANGLES, SINGLET_BOB_ANGLES),
        (None, None, SINGLET_BOB_ANGLES),
    ):
        with pytest.raises(ValueError, match="both angle lists"):
            critical_efficiency(*args)


def test_attack_at_full_efficiency_is_classical():
    res = loophole_attack(1.0)
    assert res.chsh == pytest.approx(2.0, abs=1e-9)
    assert min(res.alice_click_rates) >= 1.0 - 1e-9


def test_attack_click_rates_meet_required_efficiency():
    res = loophole_attack(0.75)
    for rate in (*res.alice_click_rates, *res.bob_click_rates):
        assert rate >= 0.75 - 1e-7


def test_attack_known_values():
    """Post-selected CHSH from no-click strategies reaches 2/(2 eta - 1)."""
    for eta, expected in ((0.9, 2.5), (0.75, 4.0)):
        res = loophole_attack(eta)
        assert res.chsh == pytest.approx(expected, rel=2e-3)


def test_attack_curve_is_monotone_and_saturates():
    etas = np.linspace(1.0, 0.5, 11)
    curve = loophole_attack_curve(etas)
    values = [r.chsh for r in curve]
    assert values[0] == pytest.approx(2.0, abs=1e-9)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(4.0, rel=1e-6)


def _constrained_attack_search(eta: float, seed: np.ndarray) -> float:
    """Post-selected CHSH of an SLSQP search over all 81 strategy pairs.

    Returns -inf when the search fails or ends outside the click-rate
    constraints, so only feasible ensembles count.
    """
    constraints = [
        {"type": "eq", "fun": lambda w: w.sum() - 1.0},
        {"type": "ineq", "fun": lambda w: _CLICK_A.T @ w - eta},
        {"type": "ineq", "fun": lambda w: _CLICK_B.T @ w - eta},
        {"type": "ineq", "fun": lambda w: _COIN.T @ w - _MIN_COINCIDENCE},
    ]
    res = minimize(
        lambda w: -_postselected_chsh(w),
        seed / seed.sum(),
        method="SLSQP",
        bounds=[(0.0, 1.0)] * seed.size,
        constraints=constraints,
        options={"maxiter": 300, "ftol": 1e-12},
    )
    w = np.clip(res.x, 0.0, None)
    if not res.success or w.sum() <= 0:
        return -np.inf
    w = w / w.sum()
    if np.min(_CLICK_A.T @ w) < eta - 1e-9 or np.min(_CLICK_B.T @ w) < eta - 1e-9:
        return -np.inf
    return _postselected_chsh(w)


def test_constrained_search_never_beats_closed_form_attack():
    """A numerical search over every ensemble never beats min(4, 2/(2 eta - 1))."""
    for eta in (0.95, 0.85, 0.8, 0.7):
        closed = loophole_attack(eta).chsh
        assert closed == pytest.approx(min(4.0, 2.0 / (2.0 * eta - 1.0)), abs=1e-12)
        for seed in (_candidate_ensemble(eta), np.full(_COIN.shape[0], 1.0)):
            assert _constrained_attack_search(eta, seed) <= closed + 1e-9


def test_nosignalling_residual_of_quantum_table():
    assert nosignalling_residual(singlet_table(eta=0.9)) < 1e-12
