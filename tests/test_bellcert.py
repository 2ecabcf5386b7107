"""Tests for Bell-inequality evaluation, thresholds and attacks."""

import re

import numpy as np
import pytest
from scipy.optimize import minimize

from diqkd_lab import bellcert
from diqkd_lab.bellcert import (
    _CLICK_A,
    _CLICK_B,
    _COIN,
    _MIN_COINCIDENCE,
    _THRESHOLD_START,
    _candidate_ensemble,
    _family_threshold,
    _postselected_chsh,
    _strategy_index,
    _threshold_objective,
    FAMILY_ALICE_ANGLES,
    FAMILY_BOB_ANGLES,
    SINGLET_ALICE_ANGLES,
    SINGLET_BOB_ANGLES,
    bin_no_click,
    chsh,
    critical_efficiency,
    local_bound,
    loophole_attack,
    loophole_attack_curve,
)
from diqkd_lab.qstate import (
    CorrelationTable,
    DensityOperator,
    DimensionMismatchError,
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


def test_singlet_reaches_tsirelson():
    value = chsh(singlet_table())
    assert value == pytest.approx(TSIRELSON, abs=1e-12)


def test_local_bound_of_chsh_is_two():
    assert local_bound() == 2.0


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
        got = chsh(bin_no_click(singlet_table(eta)))
        assert got == pytest.approx(expected, abs=1e-12)


def family_state(theta: float) -> DensityOperator:
    """The pure state ``cos(theta)|00> + sin(theta)|11>``, the Born-rule oracle's input."""
    return DensityOperator.from_pure([np.cos(theta), 0.0, 0.0, np.sin(theta)], dims=(2, 2))


def family_table(theta, alice_angles, bob_angles, eta=1.0) -> CorrelationTable:
    return born_table(
        family_state(theta),
        [inefficient_qubit_povm(t, eta) for t in alice_angles],
        [inefficient_qubit_povm(t, eta) for t in bob_angles],
    )


def test_partially_entangled_family_endpoints():
    rho = family_state(0.0).matrix
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
    table = born_table(
        family_state(np.pi / 4),
        [projective_qubit_povm(t) for t in FAMILY_ALICE_ANGLES],
        [projective_qubit_povm(t) for t in FAMILY_BOB_ANGLES],
    )
    assert chsh(table) == pytest.approx(TSIRELSON, abs=1e-9)


def test_family_threshold_matches_the_born_rule():
    # Half the vectors anywhere, half near the family's Tsirelson point, so
    # both violating and non-violating configurations are checked.
    rng = np.random.default_rng(2016)
    centre = np.array([np.pi / 4, *FAMILY_ALICE_ANGLES, *FAMILY_BOB_ANGLES])
    params = np.concatenate(
        [rng.uniform(-np.pi, np.pi, size=(100, 5)), centre + rng.normal(scale=0.3, size=(100, 5))]
    )
    silent = thresholds = 0
    for p in params:
        theta, aa, bb = p[0], p[1:3], p[3:5]
        eta, e_tot = _family_threshold(p)
        assert e_tot == pytest.approx(chsh(bin_no_click(family_table(theta, aa, bb))), abs=1e-12)
        if e_tot <= 2.0:
            assert eta == 1.0, p.tolist()
            silent += 1
        elif 0.0 < eta < 1.0:
            # At the critical efficiency the binned Born-rule CHSH is the local bound.
            binned = chsh(bin_no_click(family_table(theta, aa, bb, eta)))
            assert binned == pytest.approx(2.0, abs=1e-9), p.tolist()
            thresholds += 1
    assert silent > 50 and thresholds > 50


def _numpy_family_threshold(params):
    """``_family_threshold``'s arithmetic on numpy's vectorized cosine and sine.

    The reference for the scalar form, which takes ``math.cos`` and
    ``math.sin`` of the same float arguments.
    """
    angles = np.asarray(params, dtype=float) * np.array([2.0, 1.0, 1.0, 1.0, 1.0])
    c2t, ca0, ca1, cb0, cb1 = np.cos(angles).tolist()
    s2t, sa0, sa1, sb0, sb1 = np.sin(angles).tolist()
    e_tot = (
        (ca0 * cb0 + s2t * sa0 * sb0)
        + (ca0 * cb1 + s2t * sa0 * sb1)
        + (ca1 * cb0 + s2t * sa1 * sb0)
        - (ca1 * cb1 + s2t * sa1 * sb1)
    )
    if e_tot <= 2.0:
        return 1.0, e_tot
    m = 2.0 * (ca0 * c2t) + 2.0 * (cb0 * c2t)
    eta = (4.0 - m) / (e_tot - m + 2.0)
    return min(max(eta, 0.0), 1.0), e_tot


def test_family_threshold_is_the_numpy_form_bit_for_bit():
    # Exact equality: where numpy's cos or sin is not the C library's, this
    # fails here rather than moving the optimized threshold's reference.
    rng = np.random.default_rng(29)
    tsirelson = np.array([np.pi / 4, *FAMILY_ALICE_ANGLES, *FAMILY_BOB_ANGLES])
    params = [
        np.array(_THRESHOLD_START),
        tsirelson,
        *rng.uniform(-np.pi, np.pi, size=(4000, 5)),
        *(tsirelson + rng.normal(scale=0.3, size=(4000, 5))),
        *rng.uniform(-100.0, 100.0, size=(2000, 5)),
    ]
    violating = 0
    for p in params:
        expected = _numpy_family_threshold(p)
        for form in (p, p.tolist(), tuple(p.tolist())):
            assert _family_threshold(form) == expected, p.tolist()
        violating += expected[1] > 2.0
    assert 1000 < violating < len(params) - 1000


@pytest.mark.parametrize("eta", [1.0, 0.9, 0.8])
def test_singlet_table_is_the_family_table_at_pi_over_4(eta):
    # Why critical_efficiency(pi / 4) is the singlet's threshold.
    singlet_at_eta = born_table(
        singlet(),
        [inefficient_qubit_povm(t, eta) for t in SINGLET_ALICE_ANGLES],
        [inefficient_qubit_povm(t, eta) for t in SINGLET_BOB_ANGLES],
    )
    np.testing.assert_allclose(
        singlet_at_eta.probabilities,
        family_table(np.pi / 4, FAMILY_ALICE_ANGLES, FAMILY_BOB_ANGLES, eta).probabilities,
        rtol=0,
        atol=1e-15,
    )


def test_critical_efficiency_fixed_singlet():
    res = critical_efficiency(np.pi / 4)
    assert res.violation_at_unit_efficiency
    assert res.chsh_at_unit_efficiency == pytest.approx(TSIRELSON, abs=1e-9)
    assert res.eta_critical == pytest.approx(2.0 * (np.sqrt(2.0) - 1.0), abs=1e-5)


def _threshold_start_family_winner():
    """Best of the 24-start Nelder-Mead family over ``(theta, angles)``.

    The reference the optimized threshold is checked against: six values
    of theta times four angle sets, each searched with the library's
    objective and options, the lowest objective value winning.
    """
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
                _threshold_objective,
                np.array([theta, *angles], dtype=float),
                method="Nelder-Mead",
                options={"xatol": 1e-5, "fatol": 1e-12, "maxiter": 8000, "maxfev": 12000},
            )
            if best is None or res.fun < best.fun:
                best = res
    return best.x


def test_optimized_threshold_is_best_of_the_start_family():
    x = _threshold_start_family_winner()
    eta, e_tot = _family_threshold(x)
    theta, a0, a1, b0, b1 = x.tolist()
    res = critical_efficiency()
    assert res.eta_critical == eta
    assert res.theta == theta
    assert res.alice_angles == (a0, a1)
    assert res.bob_angles == (b0, b1)
    assert res.chsh_at_unit_efficiency == e_tot
    assert res.violation_at_unit_efficiency == (e_tot > 2.0)
    assert res.eta_critical == pytest.approx(0.6666675784498227, abs=1e-12)
    assert res.theta == pytest.approx(7.3564410039596995e-06, abs=1e-12)


def test_every_optimized_threshold_runs_the_whole_search(monkeypatch):
    # Each call searches afresh: a result cached across calls would make
    # the second call evaluate nothing.
    counts = []

    def counting_objective(params):
        counts[-1] += 1
        return _threshold_objective(params)

    monkeypatch.setattr(bellcert, "_threshold_objective", counting_objective)
    results = []
    for _ in range(2):
        counts.append(0)
        results.append(critical_efficiency())
    assert counts == [2082, 2082]
    assert results[0] == results[1]
    assert (results[0].theta, results[0].eta_critical) == (7.3564410039596995e-06, 0.6666675784498227)


# The optimized threshold search's options.
_LIBRARY_OPTIONS = {"xatol": 1e-5, "fatol": 1e-12, "maxiter": 8000, "maxfev": 12000}


def _search_matches_scipy(objective, x0, **options):
    """``bellcert.minimize``'s result, after checking it is SciPy's bit for bit."""
    ours = bellcert.minimize(objective, x0, **options)
    ref = minimize(objective, np.array(x0, dtype=float), method="Nelder-Mead", options=options)
    assert (ours.x.tobytes(), ours.fun, ours.nfev, ours.nit) == (
        ref.x.tobytes(),
        ref.fun,
        ref.nfev,
        ref.nit,
    )
    return ours


def test_minimize_is_scipy_nelder_mead_bit_for_bit():
    res = _search_matches_scipy(_threshold_objective, _THRESHOLD_START, **_LIBRARY_OPTIONS)
    assert (res.nfev, res.nit) == (2082, 1193)


def test_minimize_matches_scipy_from_random_starts():
    # Every fourth start has zero coordinates, which the initial simplex
    # steps by 0.00025 instead of scaling by 1.05.
    rng = np.random.default_rng(17)
    for i in range(40):
        x0 = rng.uniform(-np.pi, np.pi, size=5)
        if i % 4 == 0:
            x0[rng.choice(5, size=1 + i % 3, replace=False)] = 0.0
        _search_matches_scipy(_threshold_objective, x0, **_LIBRARY_OPTIONS)
        _search_matches_scipy(
            _threshold_objective, x0, xatol=1e-3, fatol=1e-6, maxiter=400, maxfev=600
        )


def _staircase(x):
    """A quadratic rounded down to quarters: flat steps, so vertex values tie."""
    x = np.asarray(x, dtype=float)
    return float(np.floor(4.0 * np.sum((x - 0.3) ** 2))) / 4.0


def test_minimize_orders_tied_values_as_scipy_does():
    # Tied vertices are ordered by np.argsort, which need not be stable; a
    # stable order (Python's sorted) sums the centroid in another order and
    # leaves SciPy's path on 12 of these 20 starts on an AVX-512 host.
    seen = []

    def objective(x):
        seen.append(_staircase(x))
        return seen[-1]

    rng = np.random.default_rng(7)
    for x0 in rng.uniform(-2.0, 2.0, size=(20, 4)):
        seen.clear()
        _search_matches_scipy(objective, x0, xatol=1e-8, fatol=1e-8, maxiter=300, maxfev=600)
        assert len(set(seen)) < len(seen) / 2


@pytest.mark.parametrize(
    "maxiter, maxfev",
    [(8000, 7), (8000, 50), (8000, 200), (3, 12000), (100, 12000)],
)
def test_minimize_stops_at_its_caps_as_scipy_does(maxiter, maxfev):
    # Negative tolerances never converge, so every search ends at a cap.
    rng = np.random.default_rng(maxiter + maxfev)
    starts = (_THRESHOLD_START, *rng.uniform(-np.pi, np.pi, size=(5, 5)))
    for objective in (_threshold_objective, _staircase):
        for x0 in starts:
            res = _search_matches_scipy(
                objective, x0, xatol=-1.0, fatol=-1.0, maxiter=maxiter, maxfev=maxfev
            )
            assert res.nfev == maxfev or res.nit == maxiter


def _record_ordering(monkeypatch):
    """Record how ``minimize`` orders its vertices, one step at a time.

    Returns ``(steps, sorted_values)``.  ``steps`` gets a ``b`` for each
    insertion tried with ``bisect_left``, and a ``d`` or ``t`` for each
    ``_argsort`` of distinct values or of values with a tie or a NaN.  A
    tie found by ``bisect_left`` falls back to an argsort at once, so a
    ``b`` followed by another ``b`` or by nothing is an insertion.
    ``sorted_values`` gets the values of each ``_argsort``.
    """
    steps, sorted_values = [], []
    argsort, bisect_left = bellcert._argsort, bellcert.bisect_left

    def recording_argsort(values):
        tied = len(set(values)) < len(values) or bool(np.isnan(values).any())
        steps.append("t" if tied else "d")
        sorted_values.append(list(values))
        return argsort(values)

    def recording_bisect_left(*args):
        steps.append("b")
        return bisect_left(*args)

    monkeypatch.setattr(bellcert, "_argsort", recording_argsort)
    monkeypatch.setattr(bellcert, "bisect_left", recording_bisect_left)
    return steps, sorted_values


def _nan_beyond_one(x):
    """A quadratic bowl that is NaN where ``x[0] > 1``."""
    x = np.asarray(x, dtype=float)
    return np.nan if x[0] > 1.0 else float(np.sum((x - 0.3) ** 2))


def test_minimize_orders_nan_values_as_scipy_does(monkeypatch):
    # The start lies just inside the bowl and its first step, x0[0] * 1.05,
    # beyond it: the initial simplex holds a NaN, which numpy sorts last.
    steps, sorted_values = _record_ordering(monkeypatch)
    rng = np.random.default_rng(23)
    for x0 in rng.uniform(-1.0, 1.0, size=(10, 3)):
        x0[0] = rng.uniform(0.96, 0.99)
        steps.clear()
        sorted_values.clear()
        res = _search_matches_scipy(
            _nan_beyond_one, x0, xatol=1e-8, fatol=1e-8, maxiter=400, maxfev=800
        )
        assert np.isnan(sorted_values[0][1]) and np.isnan(sorted_values[1][-1])
        assert np.isfinite(res.fun)
        assert re.search(r"b(?![dt])", "".join(steps))


def _signed_zero_floor(x):
    """A quadratic bowl floored at zero, -0.0 or 0.0 by the parity of ``floor(64 x[0])``."""
    x = np.asarray(x, dtype=float)
    q = float(np.sum((x - 0.3) ** 2)) - 0.5
    if q > 0.0:
        return q
    return -0.0 if np.floor(64.0 * x[0]) % 2 else 0.0


def test_minimize_orders_signed_zeros_as_scipy_does(monkeypatch):
    # -0.0 == 0.0, so numpy orders the two zeros as a tie; which one the
    # search ends on shows in the sign bit of ``fun``.
    options = {"xatol": 1e-8, "fatol": 1e-8, "maxiter": 400, "maxfev": 800}
    _, sorted_values = _record_ordering(monkeypatch)
    rng = np.random.default_rng(29)
    for x0 in rng.uniform(-2.0, 2.0, size=(10, 3)):
        sorted_values.clear()
        res = _search_matches_scipy(_signed_zero_floor, x0, **options)
        ref = minimize(_signed_zero_floor, x0, method="Nelder-Mead", options=options)
        assert np.float64(res.fun).tobytes() == np.float64(ref.fun).tobytes()
        assert any(
            {np.copysign(1.0, v) for v in values if v == 0.0} == {-1.0, 1.0}
            for values in sorted_values
        )


def _fine_staircase(x):
    """A quadratic bowl rounded down to 1/64 outside ``q < 0.25``, exact inside."""
    x = np.asarray(x, dtype=float)
    q = float(np.sum((x - 0.3) ** 2))
    return q if q < 0.25 else np.floor(64.0 * q) / 64.0


def test_minimize_inserts_and_falls_back_to_argsort_in_one_search(monkeypatch):
    # Values tie on the steps the search crosses mid-way and clear in the
    # exact bowl, so one search inserts, falls back to argsort on a tie,
    # and inserts again.
    steps, _ = _record_ordering(monkeypatch)
    rng = np.random.default_rng(11)
    starts = rng.uniform(-2.0, 2.0, size=(10, 3))
    crossings = 0
    for x0 in starts:
        steps.clear()
        _search_matches_scipy(
            _fine_staircase, x0, xatol=1e-8, fatol=1e-8, maxiter=400, maxfev=800
        )
        # An insertion, a later argsort that finds ties, and a later
        # insertion again.
        crossings += bool(re.search(r"b(?![dt]).*t.*b(?![dt])", "".join(steps)))
    assert crossings >= len(starts) // 2


def test_critical_efficiency_reports_no_violation():
    res = critical_efficiency(0.0)
    assert not res.violation_at_unit_efficiency
    assert res.eta_critical == 1.0


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


def test_attack_ensemble_without_coincidences_scores_minus_infinity():
    """An ensemble that never clicks leaves every CHSH cell without coincidences."""
    weights = np.zeros(_COIN.shape[0])
    weights[_strategy_index((0, 0), (0, 0))] = 1.0
    assert _postselected_chsh(weights) == -np.inf


# Each case: a call that must be rejected, the exception and the message
# naming the rejected input.
REJECTED_INPUTS = (
    (lambda: chsh(singlet_table(0.8)), DimensionMismatchError, "call bin_no_click first"),
    (
        lambda: chsh(
            born_table(
                singlet(),
                [projective_qubit_povm(t) for t in SINGLET_ALICE_ANGLES],
                [projective_qubit_povm(t) for t in (0.0, 1.0, 2.0)],
            )
        ),
        DimensionMismatchError,
        r"CHSH needs 2 x 2 settings, table has \(2, 3\)",
    ),
    (lambda: critical_efficiency(np.nan), ValueError, "theta must be a finite number, got nan"),
    (lambda: critical_efficiency("0.7"), ValueError, "theta must be a number, got '0.7'"),
    (lambda: critical_efficiency(True), ValueError, "theta must be a number, got True"),
    (
        lambda: critical_efficiency(10**400),
        ValueError,
        "theta must be a finite number, got a number no float can hold",
    ),
    (lambda: loophole_attack(0.0), ValueError, r"eta must lie in \(0, 1\], got 0.0"),
    (lambda: loophole_attack("0.7"), ValueError, "eta must be a number, got '0.7'"),
    (lambda: loophole_attack(True), ValueError, "eta must be a number, got True"),
    (lambda: loophole_attack_curve([0.9, "0.7"]), ValueError, "eta must be a number, got '0.7'"),
    # Anchored: the message names the overflow instead of printing the digits.
    (
        lambda: loophole_attack(10**400),
        ValueError,
        r"^eta must lie in \(0, 1\], got a number no float can hold$",
    ),
    (
        lambda: loophole_attack(-(10**400)),
        ValueError,
        r"^eta must lie in \(0, 1\], got a number no float can hold$",
    ),
    (
        lambda: loophole_attack_curve([0.9, 10**400]),
        ValueError,
        r"^eta must lie in \(0, 1\], got a number no float can hold$",
    ),
    (
        lambda: bin_no_click(CorrelationTable(np.ones((1, 1, 1, 1)))),
        DimensionMismatchError,
        "binning needs at least two outcomes per party",
    ),
)


def test_rejected_inputs_name_the_input():
    # One test over a case table so the test keeps a single, stable id.
    for call, error, message in REJECTED_INPUTS:
        with pytest.raises(error, match=message) as caught:
            call()
        # No message prints an input at unbounded length.
        assert len(str(caught.value)) <= 100, message
