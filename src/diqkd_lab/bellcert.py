"""Bell-inequality certification with finite detection efficiency.

Tools to score correlation tables against linear correlator functionals
(weights on ``<A_x B_y>`` only, CHSH among them), compute
local-hidden-variable bounds by strategy enumeration, fold no-click events
into regular outcomes (the fair-binning rule that closes the detection
loophole), locate the critical detection efficiency for losses equal on
both sides, and quantify how hard a classical adversary can fake a
violation when no-click rounds are post-selected away instead of binned.

Angle conventions follow :mod:`diqkd_lab.qstate`: a qubit setting ``theta``
measures ``cos(theta) Z + sin(theta) X`` and outcome 0 carries value +1.

The partially entangled pure-state family used throughout is
``cos(theta) |00> + sin(theta) |11>`` with ``theta`` in ``(0, pi/4]``;
``theta = pi/4`` is the maximally entangled state.  For this family the
correlators have the closed form::

    <A(a) B(b)>  = cos(a) cos(b) + sin(2 theta) sin(a) sin(b)
    <A(a)>       = cos(a) cos(2 theta)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from diqkd_lab.qstate import (
    CorrelationTable,
    DensityOperator,
    DimensionMismatchError,
    born_table,
    inefficient_qubit_povm,
    projective_qubit_povm,
)

__all__ = [
    "BellFunctional",
    "chsh_functional",
    "bell_value",
    "local_bound",
    "bin_no_click",
    "binned_chsh",
    "partially_entangled_state",
    "EfficiencyThresholdResult",
    "critical_efficiency",
    "AttackResult",
    "loophole_attack",
    "loophole_attack_curve",
    "nosignalling_residual",
]

# Optimal qubit settings for a CHSH test on the family state (theta = pi/4
# gives the maximally entangled optimum, reaching 2*sqrt(2)).
FAMILY_ALICE_ANGLES = (0.0, np.pi / 2)
FAMILY_BOB_ANGLES = (np.pi / 4, -np.pi / 4)

# Optimal settings for the singlet under the same observable convention.
SINGLET_ALICE_ANGLES = (0.0, np.pi / 2)
SINGLET_BOB_ANGLES = (5 * np.pi / 4, 3 * np.pi / 4)

# Start ``(theta, alice angles, bob angles)`` of the optimized threshold search.
_THRESHOLD_START = (0.1, *SINGLET_ALICE_ANGLES, *SINGLET_BOB_ANGLES)


@dataclass(frozen=True)
class BellFunctional:
    """A linear functional on correlators, ``sum_xy w[x,y] <A_x B_y>``.

    Attributes:
        correlator_weights: ``w``, shape ``(n_x, n_y)``.
    """

    correlator_weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.correlator_weights, dtype=float, copy=True)
        if w.ndim != 2:
            raise DimensionMismatchError(
                f"correlator weights must be 2-D (n_x, n_y), got shape {w.shape}"
            )
        w.setflags(write=False)
        object.__setattr__(self, "correlator_weights", w)

    @property
    def n_alice_settings(self) -> int:
        return self.correlator_weights.shape[0]

    @property
    def n_bob_settings(self) -> int:
        return self.correlator_weights.shape[1]


# Signs of the CHSH correlators <A0B0>, <A0B1>, <A1B0>, <A1B1>.
_CHSH_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])


def chsh_functional() -> BellFunctional:
    """The CHSH functional ``<A0B0> + <A0B1> + <A1B0> - <A1B1>``."""
    return BellFunctional(correlator_weights=_CHSH_SIGNS)


def _correlators(p: np.ndarray) -> np.ndarray:
    """``<A_x B_y>`` for every setting pair of a binary-outcome table's probabilities."""
    if p.shape[2] != 2 or p.shape[3] != 2:
        raise DimensionMismatchError(
            "Bell functionals act on binary-outcome tables; call bin_no_click first"
        )
    return p[:, :, 0, 0] + p[:, :, 1, 1] - p[:, :, 0, 1] - p[:, :, 1, 0]


def _correlators_and_marginals(
    table: CorrelationTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p = table.probabilities
    corr = _correlators(p)
    # Marginals of a non-signalling table do not depend on the other party's
    # setting; averaging makes the evaluation robust to round-off.
    marg_a = (p.sum(axis=3)[:, :, 0] - p.sum(axis=3)[:, :, 1]).mean(axis=1)
    marg_b = (p.sum(axis=2)[:, :, 0] - p.sum(axis=2)[:, :, 1]).mean(axis=0)
    return corr, marg_a, marg_b


def bell_value(table: CorrelationTable, functional: BellFunctional) -> float:
    """Evaluate a Bell functional on a binary-outcome correlation table."""
    corr = _correlators(table.probabilities)
    w = functional.correlator_weights
    if corr.shape != w.shape:
        raise DimensionMismatchError(
            f"table has {corr.shape} settings, functional expects {w.shape}"
        )
    return float(np.sum(w * corr))


def _sign_patterns(n: int) -> np.ndarray:
    """All 2^n vectors in {-1, +1}^n, one per row."""
    grid = ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    return 1.0 - 2.0 * grid


def local_bound(functional: BellFunctional) -> float:
    """Maximum of the functional over deterministic local strategies.

    Enumerates all ``2^(n_x + n_y)`` deterministic +-1 assignments; for CHSH
    that is 16 strategies and the bound is 2.
    """
    a_signs = _sign_patterns(functional.n_alice_settings)
    b_signs = _sign_patterns(functional.n_bob_settings)
    return float((a_signs @ functional.correlator_weights @ b_signs.T).max())


def bin_no_click(table: CorrelationTable) -> CorrelationTable:
    """Deterministically fold extra outcomes into binary outcome 0.

    Every outcome with index >= 2 (no-click, double-click, and similar
    flags) is merged into outcome 0 of that party.  Binary parties pass
    through unchanged.

    Args:
        table: Table with at least two outcomes per party.

    Returns:
        A table of shape ``(n_x, n_y, 2, 2)``.
    """
    p = table.probabilities
    n_a, n_b = p.shape[2], p.shape[3]
    if n_a < 2 or n_b < 2:
        raise DimensionMismatchError("binning needs at least two outcomes per party")
    folded = p[:, :, :2, :2].copy()
    if n_a > 2:
        folded[:, :, 0, :] += p[:, :, 2:, :2].sum(axis=2)
    if n_b > 2:
        folded[:, :, :, 0] += p[:, :, :2, 2:].sum(axis=3)
    if n_a > 2 and n_b > 2:
        folded[:, :, 0, 0] += p[:, :, 2:, 2:].sum(axis=(2, 3))
    return CorrelationTable(probabilities=folded)


def binned_chsh(
    state: DensityOperator,
    alice_angles: Sequence[float],
    bob_angles: Sequence[float],
    eta_alice: float = 1.0,
    eta_bob: float = 1.0,
) -> float:
    """CHSH value of a two-qubit state with lossy detectors and fair binning.

    Runs the full Born-rule pipeline: three-outcome inefficient measurements,
    no-click outcomes folded to outcome 0, CHSH evaluated on the binary table.

    Args:
        state: Two-qubit state.
        alice_angles: Two measurement angles for Alice.
        bob_angles: Two measurement angles for Bob.
        eta_alice: Alice's detection efficiency.
        eta_bob: Bob's detection efficiency.
    """
    alice = [inefficient_qubit_povm(t, eta_alice) for t in alice_angles]
    bob = [inefficient_qubit_povm(t, eta_bob) for t in bob_angles]
    table = born_table(state, alice, bob)
    return bell_value(bin_no_click(table), chsh_functional())


def partially_entangled_state(theta: float) -> DensityOperator:
    """The pure state ``cos(theta)|00> + sin(theta)|11>`` as a density operator."""
    vec = np.zeros(4, dtype=complex)
    vec[0] = np.cos(theta)
    vec[3] = np.sin(theta)
    return DensityOperator.from_pure(vec, dims=(2, 2))


@dataclass(frozen=True)
class EfficiencyThresholdResult:
    """Outcome of a critical-efficiency search.

    Attributes:
        eta_critical: Smallest detection efficiency, the same on both sides,
            at which the binned CHSH value still exceeds the local bound.
            1.0 when no violation exists even with perfect detectors.
        theta: Entanglement parameter of the optimal family state, or None
            for a fixed state.
        alice_angles: Optimal (or supplied) measurement angles.
        bob_angles: Optimal (or supplied) measurement angles.
        chsh_at_unit_efficiency: CHSH value of the optimal configuration with
            perfect detectors.
        violation_at_unit_efficiency: Whether that value exceeds 2.
    """

    eta_critical: float
    theta: float | None
    alice_angles: tuple[float, float]
    bob_angles: tuple[float, float]
    chsh_at_unit_efficiency: float
    violation_at_unit_efficiency: bool


def _family_correlations(
    theta: float, alice_angles: np.ndarray, bob_angles: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form correlators of ``cos(theta)|00> + sin(theta)|11>``."""
    c2t, s2t = np.cos(2 * theta), np.sin(2 * theta)
    corr = np.cos(alice_angles)[:, None] * np.cos(bob_angles)[None, :] + s2t * np.sin(
        alice_angles
    )[:, None] * np.sin(bob_angles)[None, :]
    return corr, np.cos(alice_angles) * c2t, np.cos(bob_angles) * c2t


def _state_correlations(
    state: DensityOperator, alice_angles: np.ndarray, bob_angles: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Correlators of an arbitrary two-qubit state via the Born pipeline."""
    alice = [projective_qubit_povm(t) for t in alice_angles]
    bob = [projective_qubit_povm(t) for t in bob_angles]
    return _correlators_and_marginals(born_table(state, alice, bob))


def _eta_threshold(
    corr: np.ndarray, marg_a: np.ndarray, marg_b: np.ndarray
) -> tuple[float, float]:
    """Critical symmetric efficiency for fair-binned CHSH given exact correlations.

    Binning no-click to outcome 0 replaces each observable ``A`` by
    ``eta A + (1 - eta)``.  With the same efficiency on both sides the CHSH
    value is then a quadratic in ``eta`` with ``S(0) = 2`` exactly, so the
    threshold solves in closed form.

    Returns:
        ``(eta_critical, chsh_at_unit_efficiency)``.
    """
    e_tot = float(np.sum(_CHSH_SIGNS * corr))
    m_a = float(_CHSH_SIGNS.sum(axis=1) @ marg_a)
    m_b = float(_CHSH_SIGNS.sum(axis=0) @ marg_b)
    if e_tot <= 2.0:
        return 1.0, e_tot
    m = m_a + m_b
    eta = (4.0 - m) / (e_tot - m + 2.0)
    return float(np.clip(eta, 0.0, 1.0)), e_tot


# Maps the search vector ``(theta, a0, a1, b0, b1)`` to the angles whose
# cosines and sines the family's correlators use, ``(2 theta, a0, a1, b0, b1)``.
_OBJECTIVE_ANGLE_SCALE = np.array([2.0, 1.0, 1.0, 1.0, 1.0])


def _threshold_objective(params: np.ndarray) -> float:
    """Nelder-Mead objective of the optimized ``critical_efficiency`` search.

    The critical efficiency where the family state violates CHSH, and
    outside the violation region a slope that guides the optimizer towards
    violating configurations.  It is the value of ``_eta_threshold(
    *_family_correlations(...))``, bit for bit: one vectorized cosine and
    sine, then scalar float arithmetic in exactly the operation order of
    those two functions (``_CHSH_SIGNS`` sums to ``(2, 0)`` along both axes,
    so each marginal term is twice its setting-0 value).  Going through
    2-element arrays costs ~20 numpy calls per evaluation, several thousand
    evaluations per search.
    """
    angles = params * _OBJECTIVE_ANGLE_SCALE
    c2t, ca0, ca1, cb0, cb1 = np.cos(angles).tolist()
    s2t, sa0, sa1, sb0, sb1 = np.sin(angles).tolist()
    e_tot = (
        (ca0 * cb0 + s2t * sa0 * sb0)
        + (ca0 * cb1 + s2t * sa0 * sb1)
        + (ca1 * cb0 + s2t * sa1 * sb0)
        - (ca1 * cb1 + s2t * sa1 * sb1)
    )
    if e_tot <= 2.0:
        return 1.0 + (2.0 - e_tot)
    m = 2.0 * (ca0 * c2t) + 2.0 * (cb0 * c2t)
    eta = (4.0 - m) / (e_tot - m + 2.0)
    return min(max(eta, 0.0), 1.0)


class _Minimum(NamedTuple):
    """Where a :func:`minimize` search ended, and what it cost."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int


class _EvaluationCapReached(Exception):
    """Raised in place of an objective evaluation past ``maxfev``."""


def minimize(
    objective: Callable[[np.ndarray], float],
    x0: Sequence[float],
    *,
    xatol: float,
    fatol: float,
    maxiter: int,
    maxfev: int,
) -> _Minimum:
    """Nelder-Mead minimum of ``objective`` from ``x0``.

    Step for step SciPy 1.17's ``minimize(method="Nelder-Mead")`` with no
    bounds, ``adaptive=False`` and its default initial simplex, so ``x``,
    ``fun``, ``nfev`` and ``nit`` equal SciPy's bit for bit
    (``test_minimize_is_scipy_nelder_mead_bit_for_bit``).  That takes
    SciPy's exact arithmetic: the centroid is a sequential row sum from
    0.0 divided by N, and the vertices are ordered by ``np.argsort``,
    which is not stable on every host, so tied objective values (the
    threshold objective clips to [0, 1]) order as they do in SciPy.  An
    evaluation past ``maxfev`` is not made: its iteration is abandoned
    and the vertices re-sorted.  ``maxiter`` counts iterations from 1.
    A module-level name because the bench tracer wraps
    ``bellcert.minimize`` and reads ``nfev`` from its result.
    """
    n = len(x0)
    start = [float(v) for v in x0]
    sim = [start]
    for k in range(n):
        vertex = list(start)
        vertex[k] = (1 + 0.05) * vertex[k] if vertex[k] != 0 else 0.00025
        sim.append(vertex)
    fsim = [math.inf] * (n + 1)
    nfev = 0

    def evaluate(vertex: list[float]) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _EvaluationCapReached
        nfev += 1
        return float(objective(np.array(vertex)))

    def sort() -> None:
        order = np.argsort(fsim).tolist()
        sim[:] = [sim[i] for i in order]
        fsim[:] = [fsim[i] for i in order]

    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _EvaluationCapReached:
        pass
    sort()
    sort()  # as SciPy does: argsort need not leave sorted ties in place
    nit = 1
    while nfev < maxfev and nit < maxiter:
        best, worst = sim[0], sim[-1]
        if all(abs(a - b) <= xatol for v in sim[1:] for a, b in zip(v, best)) and all(
            abs(fsim[0] - f) <= fatol for f in fsim[1:]
        ):
            break
        total = [0.0] * n
        for v in sim[:-1]:
            total = [t + c for t, c in zip(total, v)]
        xbar = [t / n for t in total]
        try:
            xr = [2 * c - w for c, w in zip(xbar, worst)]
            fxr = evaluate(xr)
            if fxr < fsim[0]:
                xe = [3 * c - 2 * w for c, w in zip(xbar, worst)]
                fxe = evaluate(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
                    fxc = evaluate(xc)
                    shrink = not fxc <= fxr
                else:  # inside contraction
                    xc = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
                    fxc = evaluate(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = [b + 0.5 * (c - b) for b, c in zip(best, sim[j])]
                        fsim[j] = evaluate(sim[j])
            nit += 1
        except _EvaluationCapReached:
            pass
        sort()
    return _Minimum(x=np.array(sim[0]), fun=fsim[0], nfev=nfev, nit=nit)


def critical_efficiency(
    state: DensityOperator | None = None,
    alice_angles: Sequence[float] | None = None,
    bob_angles: Sequence[float] | None = None,
) -> EfficiencyThresholdResult:
    """Find the critical symmetric detection efficiency of a fair-binned CHSH test.

    Two forms are supported.  A fixed two-qubit state with both angle lists
    gives the closed-form threshold of that configuration, its correlators
    taken from the exact Born-rule pipeline; the maximally entangled state
    at its optimal angles yields the textbook symmetric threshold
    ``2 (sqrt(2) - 1) ~ 0.8284``.  With no arguments one search by the
    in-house Nelder-Mead :func:`minimize` from ``_THRESHOLD_START``
    optimizes the partially entangled family ``cos(theta)|00> +
    sin(theta)|11>`` and all four angles using closed-form correlators;
    pushing ``theta -> 0`` drives the symmetric threshold towards its known
    infimum of 2/3.  This form has no inputs, so one start suffices: its
    result is the best of the 24-start family that
    ``test_optimized_threshold_is_best_of_the_start_family`` reruns with
    SciPy's Nelder-Mead.

    Args:
        state: Fixed two-qubit state, or None to optimize over the family.
        alice_angles: Alice's two angles, given exactly when ``state`` is.
        bob_angles: Bob's two angles, given exactly when ``state`` is.

    Returns:
        An :class:`EfficiencyThresholdResult`.  ``eta_critical = 1.0`` with
        ``violation_at_unit_efficiency = False`` means the configuration
        never violates CHSH and there is nothing to certify.

    Raises:
        ValueError: Unless a state comes with both angle lists or nothing
            is given.
    """
    given = (state is not None, alice_angles is not None, bob_angles is not None)
    if any(given) and not all(given):
        raise ValueError("supply a state with both angle lists, or no arguments")
    if state is not None:
        if tuple(state.dims) != (2, 2):
            raise DimensionMismatchError("critical_efficiency expects a two-qubit state")
        aa = np.asarray(alice_angles, dtype=float)
        bb = np.asarray(bob_angles, dtype=float)
        if aa.shape != (2,) or bb.shape != (2,):
            raise DimensionMismatchError("CHSH needs exactly two angles per party")
        theta = None
        corr, ma, mb = _state_correlations(state, aa, bb)
    else:
        # The search ends on its tolerances after 2082 evaluations and 1193
        # iterations, well inside both caps.
        best = minimize(
            _threshold_objective,
            _THRESHOLD_START,
            xatol=1e-5,
            fatol=1e-12,
            maxiter=8000,
            maxfev=12000,
        )
        theta = float(best.x[0])
        aa, bb = best.x[1:3], best.x[3:5]
        corr, ma, mb = _family_correlations(theta, aa, bb)
    eta, e_tot = _eta_threshold(corr, ma, mb)
    return EfficiencyThresholdResult(
        eta_critical=eta,
        theta=theta,
        alice_angles=(float(aa[0]), float(aa[1])),
        bob_angles=(float(bb[0]), float(bb[1])),
        chsh_at_unit_efficiency=e_tot,
        violation_at_unit_efficiency=e_tot > 2.0,
    )


# --------------------------------------------------------------------------
# Post-selection attack: faking CHSH violations with classical no-click tricks
# --------------------------------------------------------------------------


def _local_strategies() -> tuple[np.ndarray, np.ndarray]:
    """All deterministic single-party strategies with optional no-clicks.

    A strategy decides, for each of the two inputs, whether the detector
    clicks and which +-1 value it reports when it does.  There are nine:
    one silent strategy, two one-input families of two, and four all-click
    assignments.

    Returns:
        ``(clicks, values)`` of shapes ``(9, 2)``; ``values`` entries at
        non-clicking inputs are placeholders and must be masked by
        ``clicks``.
    """
    clicks, values = [], []
    for mask in ((0, 0), (1, 0), (0, 1), (1, 1)):
        options: list[tuple[float, float]] = [(1.0, 1.0)]
        if mask == (1, 0):
            options = [(1.0, 1.0), (-1.0, 1.0)]
        elif mask == (0, 1):
            options = [(1.0, 1.0), (1.0, -1.0)]
        elif mask == (1, 1):
            options = [(a, b) for a in (1.0, -1.0) for b in (1.0, -1.0)]
        for vals in options:
            clicks.append(mask)
            values.append(vals)
    return np.array(clicks, dtype=float), np.array(values, dtype=float)


_CLICKS, _VALUES = _local_strategies()
_N_STRAT = _CLICKS.shape[0]


def _pair_tensors() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair coincidence and signed-coincidence tensors, flattened over pairs."""
    ca = _CLICKS[:, None, :, None]  # (9, 1, x, 1)
    cb = _CLICKS[None, :, None, :]  # (1, 9, 1, y)
    coincidence = (ca * cb).reshape(_N_STRAT * _N_STRAT, 4)
    signed = (
        ca * cb * _VALUES[:, None, :, None] * _VALUES[None, :, None, :]
    ).reshape(_N_STRAT * _N_STRAT, 4)
    click_a = np.repeat(_CLICKS, _N_STRAT, axis=0)  # (81, 2): Alice click mask per pair
    click_b = np.tile(_CLICKS, (_N_STRAT, 1))  # (81, 2): Bob click mask per pair
    return coincidence, signed, click_a, click_b


_COIN, _SIGNED, _CLICK_A, _CLICK_B = _pair_tensors()
_CHSH_SIGNS_FLAT = _CHSH_SIGNS.reshape(4)

# Smallest admissible coincidence probability per setting pair: an ensemble
# that never produces coincidences in some cell would be rejected by any
# experiment, so the attacker must keep every cell populated.
_MIN_COINCIDENCE = 1e-9


def _postselected_chsh(weights: np.ndarray) -> float:
    den = _COIN.T @ weights
    if np.any(den < _MIN_COINCIDENCE):
        return -np.inf
    num = _SIGNED.T @ weights
    return float(_CHSH_SIGNS_FLAT @ (num / den))


def _strategy_index(click_a, values_a, click_b, values_b) -> int:
    ia = next(
        i
        for i in range(_N_STRAT)
        if np.array_equal(_CLICKS[i], click_a)
        and all(v == w for v, w, c in zip(_VALUES[i], values_a, click_a) if c)
    )
    ib = next(
        i
        for i in range(_N_STRAT)
        if np.array_equal(_CLICKS[i], click_b)
        and all(v == w for v, w, c in zip(_VALUES[i], values_b, click_b) if c)
    )
    return ia * _N_STRAT + ib


def _candidate_ensemble(eta: float) -> np.ndarray:
    """Hand-built ensemble reaching ``min(4, 2/(2 eta - 1))`` post-selected CHSH.

    Four "half-silent" strategy pairs produce perfectly signed coincidences
    in every CHSH cell (value 4) at per-input click probability 3/4; mixing
    in an always-click local strategy raises the click rate to ``eta`` at
    the cost of diluting the ``<A1 B1>`` cell.
    """
    pairs = [
        _strategy_index((1, 1), (1.0, 1.0), (1, 0), (1.0, 1.0)),
        _strategy_index((1, 1), (1.0, -1.0), (0, 1), (1.0, 1.0)),
        _strategy_index((1, 0), (1.0, 1.0), (1, 1), (1.0, 1.0)),
        _strategy_index((0, 1), (1.0, 1.0), (1, 1), (1.0, -1.0)),
    ]
    always = _strategy_index((1, 1), (1.0, 1.0), (1, 1), (1.0, 1.0))
    mu = float(np.clip(4.0 * (1.0 - eta), 0.0, 1.0))
    weights = np.zeros(_N_STRAT * _N_STRAT)
    for p in pairs:
        weights[p] += mu / 4.0
    weights[always] += 1.0 - mu
    return weights


@dataclass(frozen=True)
class AttackResult:
    """Best faked CHSH value found for a given detection efficiency.

    Attributes:
        eta: Per-input click probability the attacker must deliver.
        chsh: Post-selected CHSH value of the best ensemble found.
        weights: Mixture weights over the 81 deterministic strategy pairs.
        alice_click_rates: Resulting click probability per Alice input.
        bob_click_rates: Same for Bob.
    """

    eta: float
    chsh: float
    weights: np.ndarray
    alice_click_rates: tuple[float, float]
    bob_click_rates: tuple[float, float]


def _attack_result(eta: float, weights: np.ndarray) -> AttackResult:
    weights = np.clip(weights, 0.0, None)
    weights = weights / weights.sum()
    frozen = weights.copy()
    frozen.setflags(write=False)
    ra = _CLICK_A.T @ weights
    rb = _CLICK_B.T @ weights
    return AttackResult(
        eta=float(eta),
        chsh=_postselected_chsh(weights),
        weights=frozen,
        alice_click_rates=(float(ra[0]), float(ra[1])),
        bob_click_rates=(float(rb[0]), float(rb[1])),
    )


def loophole_attack(eta: float) -> AttackResult:
    """Maximize post-selected CHSH over classical strategies with no-clicks.

    Models an adversary who builds devices from deterministic local
    strategies that may refuse to answer.  When the experimenter discards
    non-coincident rounds instead of binning them, correlators are
    renormalized per setting pair, and for low enough click rates the
    adversary can fake values far beyond the quantum bound -- up to the
    algebraic maximum 4 once ``eta <= 3/4``.  At ``eta = 1`` refusals are
    impossible and the attack collapses to the local bound 2.

    The optimum is the closed form ``min(4, 2 / (2 eta - 1))``, reached by
    the hand-built ensemble of :func:`_candidate_ensemble`.  No ensemble
    does better: with per-input click rates ``p_A, p_B >= eta``, the chance
    that Alice clicks given that Bob clicked is at least
    ``(p_A + p_B - 1) / p_B >= (2 eta - 1) / eta = eta_c``, and Larsson's
    bound for local models with conditional efficiency ``eta_c``
    (Phys. Rev. A 57, 3304 (1998)) caps post-selected CHSH at
    ``4 / eta_c - 2 = 2 / (2 eta - 1)``.  The algebraic maximum 4 caps it
    for ``eta <= 3/4``.

    Args:
        eta: Required click probability per party and input, in ``(0, 1]``.

    Returns:
        An :class:`AttackResult`; ``chsh`` is a feasible (achievable) value.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    return _attack_result(eta, _candidate_ensemble(eta))


def loophole_attack_curve(etas: Sequence[float]) -> list[AttackResult]:
    """Attack strength across efficiencies, one :func:`loophole_attack` each.

    The closed-form optimum never rises as ``eta`` grows, so the curve is
    monotone non-increasing in ``eta`` without any carry between points.

    Args:
        etas: Efficiencies in ``(0, 1]``, any order.

    Returns:
        Results aligned with the input order.
    """
    return [loophole_attack(float(eta)) for eta in etas]


def nosignalling_residual(table: CorrelationTable) -> float:
    """Largest marginal shift induced by the other party's setting choice.

    Exactly zero (up to round-off) for any behaviour produced by measuring
    a shared quantum state with uncommunicating devices; materially positive
    values flag a modeling bug or a signalling behaviour.
    """
    p = table.probabilities
    marg_a = p.sum(axis=3)  # (x, y, a)
    marg_b = p.sum(axis=2)  # (x, y, b)
    res_a = (marg_a.max(axis=1) - marg_a.min(axis=1)).max()
    res_b = (marg_b.max(axis=0) - marg_b.min(axis=0)).max()
    return float(max(res_a, res_b))
