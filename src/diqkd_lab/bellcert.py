"""Bell-inequality certification with finite detection efficiency.

Tools to score correlation tables with CHSH, compute its
local-hidden-variable bound by strategy enumeration, and fold no-click
events into regular outcomes (the fair-binning rule that closes the
detection loophole).  On top of these sit the two models that answer how
much detection efficiency a Bell test needs when no-clicks cannot be
discarded:

* the quantum model, the partially entangled pure-state family
  ``cos(theta) |00> + sin(theta) |11>``, whose critical efficiency for
  losses equal on both sides :func:`critical_efficiency` computes at fixed
  angles or optimizes over ``theta`` and the angles (Eberhard's 2/3);
* the classical model, deterministic local strategies that may refuse to
  click, with which :func:`loophole_attack` fakes a violation when no-click
  rounds are post-selected away instead of binned.

Angle conventions follow :mod:`diqkd_lab.qstate`: a qubit setting ``theta``
measures ``cos(theta) Z + sin(theta) X`` and outcome 0 carries value +1.
``theta = pi/4`` is the maximally entangled state.  For the family the
correlators have the closed form::

    <A(a) B(b)>  = cos(a) cos(b) + sin(2 theta) sin(a) sin(b)
    <A(a)>       = cos(a) cos(2 theta)

One scalar evaluator, ``_family_threshold``, turns these into the binned
threshold; both the fixed-angle report and the optimized search go
through it.  The dense Born-rule pipeline of :mod:`diqkd_lab.qstate` is
not used here; the tests check the evaluator against it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from diqkd_lab.qstate import (
    _FINITE,
    _UNIT_OPEN_BELOW,
    CorrelationTable,
    DimensionMismatchError,
    _real,
)

__all__ = [
    "CHSH_SIGNS",
    "chsh",
    "local_bound",
    "bin_no_click",
    "EfficiencyThresholdResult",
    "critical_efficiency",
    "AttackResult",
    "loophole_attack",
    "loophole_attack_curve",
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


#: Signs of the CHSH correlators ``[[<A0B0>, <A0B1>], [<A1B0>, <A1B1>]]``.
CHSH_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])
CHSH_SIGNS.setflags(write=False)


def _correlators(p: np.ndarray) -> np.ndarray:
    """``<A_x B_y>`` for every setting pair of a binary-outcome table's probabilities."""
    if p.shape[2] != 2 or p.shape[3] != 2:
        raise DimensionMismatchError(
            "CHSH acts on binary-outcome tables; call bin_no_click first"
        )
    return p[:, :, 0, 0] + p[:, :, 1, 1] - p[:, :, 0, 1] - p[:, :, 1, 0]


def chsh(table: CorrelationTable) -> float:
    """CHSH value ``<A0B0> + <A0B1> + <A1B0> - <A1B1>`` of a binary-outcome table.

    A wrapper over ``_chsh_of``, the same score of a bare probability array.
    """
    return _chsh_of(table.probabilities)


def _chsh_of(p: np.ndarray) -> float:
    """The array core of :func:`chsh`: the CHSH value of probabilities ``p[x, y, a, b]``."""
    corr = _correlators(p)
    if corr.shape != CHSH_SIGNS.shape:
        raise DimensionMismatchError(f"CHSH needs 2 x 2 settings, table has {corr.shape}")
    return float((CHSH_SIGNS * corr).sum())


def local_bound() -> float:
    """Maximum of CHSH over deterministic local strategies.

    Enumerates all 16 deterministic +-1 assignments to the two settings of
    each party; the bound is 2.
    """
    # One row per assignment of +-1 to a party's two settings.
    signs = np.array([(a, b) for a in (1.0, -1.0) for b in (1.0, -1.0)])
    return float((signs @ CHSH_SIGNS @ signs.T).max())


def bin_no_click(table: CorrelationTable) -> CorrelationTable:
    """Deterministically fold extra outcomes into binary outcome 0.

    Every outcome with index >= 2 (no-click, double-click, and similar
    flags) is merged into outcome 0 of that party.  Binary parties pass
    through unchanged.  A wrapper over ``_binned``, which folds a bare
    probability array.

    Args:
        table: Table with at least two outcomes per party.

    Returns:
        A table of shape ``(n_x, n_y, 2, 2)``.
    """
    return CorrelationTable(probabilities=_binned(table.probabilities))


def _binned(p: np.ndarray) -> np.ndarray:
    """The array core of :func:`bin_no_click`: ``p[x, y, a, b]`` folded to two outcomes.

    Folding only adds entries of one setting pair, so on a table's
    probabilities, which its constructor clipped to be non-negative, it
    returns a non-negative array of the same normalization, which a
    ``CorrelationTable`` would only copy.
    """
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
    return folded


@dataclass(frozen=True)
class EfficiencyThresholdResult:
    """Outcome of a critical-efficiency search.

    Attributes:
        eta_critical: Smallest detection efficiency, the same on both sides,
            at which the binned CHSH value still exceeds the local bound.
            1.0 when no violation exists even with perfect detectors.
        theta: Entanglement parameter of the family state, given or optimal.
        alice_angles: Alice's measurement angles, fixed or optimal.
        bob_angles: Bob's measurement angles, fixed or optimal.
        chsh_at_unit_efficiency: CHSH value of the configuration with
            perfect detectors.
    """

    eta_critical: float
    theta: float
    alice_angles: tuple[float, float]
    bob_angles: tuple[float, float]
    chsh_at_unit_efficiency: float

    @property
    def violation_at_unit_efficiency(self) -> bool:
        """Whether ``chsh_at_unit_efficiency`` exceeds the local bound 2."""
        return self.chsh_at_unit_efficiency > 2.0


def _family_threshold(params: Sequence[float]) -> tuple[float, float]:
    """Critical symmetric efficiency of the family state for fair-binned CHSH.

    ``params`` is ``(theta, a0, a1, b0, b1)``: the state ``cos(theta)|00>
    + sin(theta)|11>`` and the parties' setting angles, whose correlators
    take the closed form of the module docstring.  Binning no-click to
    outcome 0 replaces each observable ``A`` by ``eta A + (1 - eta)``.
    With the same efficiency on both sides the CHSH value is then a
    quadratic in ``eta`` with ``S(0) = 2`` exactly, so the threshold solves
    in closed form.  ``CHSH_SIGNS`` sums to ``(2, 0)`` along both axes, so
    each marginal term is twice its setting-0 value.

    ``params`` may be a list, as :func:`minimize` passes it, or an
    ndarray: ``map(float, params)`` gives the same Python floats from
    either.  ``math.cos`` and ``math.sin`` of ``2.0 * theta`` and the four
    angles equal ``np.cos`` and ``np.sin`` of them bit for bit where numpy
    uses the C library's functions;
    ``test_family_threshold_is_the_numpy_form_bit_for_bit`` checks it.

    Returns:
        ``(eta_critical, chsh_at_unit_efficiency)``; ``eta_critical`` is 1.0
        when the configuration does not violate CHSH.
    """
    theta, a0, a1, b0, b1 = map(float, params)
    angles = (2.0 * theta, a0, a1, b0, b1)
    c2t, ca0, ca1, cb0, cb1 = map(math.cos, angles)
    s2t, sa0, sa1, sb0, sb1 = map(math.sin, angles)
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


def _threshold_objective(params: Sequence[float]) -> float:
    """Nelder-Mead objective of the optimized ``critical_efficiency`` search.

    The critical efficiency where the family state violates CHSH, and
    outside the violation region a slope that guides the optimizer towards
    violating configurations.
    """
    eta, e_tot = _family_threshold(params)
    return eta if e_tot > 2.0 else 1.0 + (2.0 - e_tot)


class _Minimum(NamedTuple):
    """Where a :func:`minimize` search ended, and what it cost."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int


def _converged(sim: list[list[float]], fsim: list[float], xatol: float, fatol: float) -> bool:
    """SciPy's Nelder-Mead stopping test on the sorted simplex ``sim``, ``fsim``.

    Every value within ``fatol`` of the best and every coordinate within
    ``xatol`` of the best vertex's.  Written so that NaN fails it.
    """
    f0 = fsim[0]
    for f in fsim[1:]:
        if not abs(f0 - f) <= fatol:
            return False
    best = sim[0]
    for vertex in sim[1:]:
        for a, b in zip(vertex, best):
            if not abs(a - b) <= xatol:
                return False
    return True


def _argsort(values: list[float]) -> list[int]:
    """SciPy's vertex order of ``values``: an ndarray's ``argsort``, NaN last."""
    return np.array(values).argsort().tolist()


def minimize(
    objective: Callable[[list[float]], float],
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
    (``test_minimize_is_scipy_nelder_mead_bit_for_bit``).  ``objective``
    is called with each vertex as a list of Python floats, where SciPy
    passes an ndarray of the same values; it must not keep or change it.

    That takes SciPy's exact arithmetic: each centroid coordinate adds the
    vertices' coordinates one at a time, in vertex order, from 0.0, then
    divides by N (not ``sum()``, which adds floats with compensation from
    Python 3.12).  It also takes SciPy's vertex order, which an ndarray's
    ``argsort`` decides (``_argsort``).  That sort is not stable on every
    host, so tied values (the threshold objective clips to [0, 1]) may
    come out in any order.  When every value is distinct, though, the
    ascending order is the only answer any algorithm can give.  So a step
    that replaces only the worst vertex (reflection, expansion,
    contraction) inserts it into the ordered others with ``bisect_left``
    while the values stay distinct.  ``_argsort`` orders the vertices, as
    in SciPy, after a shrink or an abandoned step, when the new value ties
    another, and whenever the last ``_argsort`` found ties, whose order it
    may have permuted, or a NaN, which numpy sorts last.  A step never
    keeps a NaN: every comparison with one fails, so a NaN reflection or
    contraction point leads to a contraction or a shrink, and a NaN
    expansion point loses to the reflection point.

    An evaluation past ``maxfev`` is not made: its iteration is abandoned,
    not counted, and the vertices re-sorted; a shrink keeps the vertices
    it already moved.  ``maxiter`` counts iterations from 1.  A
    module-level name because the bench tracer wraps
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

    def argsort() -> bool:
        """Order the vertices by ``_argsort``; whether every value is then distinct."""
        order = _argsort(fsim)
        sim[:] = [sim[i] for i in order]
        fsim[:] = [fsim[i] for i in order]
        for k in range(n):
            if not fsim[k] < fsim[k + 1]:
                return False
        return True

    for k in range(n + 1):
        if nfev >= maxfev:
            break
        nfev += 1
        fsim[k] = float(objective(sim[k]))
    argsort()
    # Twice, as SciPy does: argsort need not leave sorted ties in place.
    # ``distinct``: whether the last argsort found every value distinct.
    distinct = argsort()
    nit = 1
    while nfev < maxfev and nit < maxiter:
        if _converged(sim, fsim, xatol, fatol):
            break
        best, worst = sim[0], sim[-1]
        xbar = []
        for column in zip(*sim[:-1]):
            t = 0.0
            for c in column:
                t += c
            xbar.append(t / n)
        # The step's replacement for the worst vertex; None after a shrink
        # or an abandoned step.
        new = None
        xr = [2 * c - w for c, w in zip(xbar, worst)]
        nfev += 1
        fxr = float(objective(xr))
        if fxr < fsim[0]:
            if nfev < maxfev:
                xe = [3 * c - 2 * w for c, w in zip(xbar, worst)]
                nfev += 1
                fxe = float(objective(xe))
                new = (xe, fxe) if fxe < fxr else (xr, fxr)
                nit += 1
        elif fxr < fsim[-2]:
            new = (xr, fxr)
            nit += 1
        elif nfev < maxfev:
            if fxr < fsim[-1]:  # outside contraction
                xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
                nfev += 1
                fxc = float(objective(xc))
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
                nfev += 1
                fxc = float(objective(xc))
                shrink = not fxc < fsim[-1]
            if not shrink:
                new = (xc, fxc)
                nit += 1
            else:
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (c - b) for b, c in zip(best, sim[j])]
                    if nfev >= maxfev:
                        break
                    nfev += 1
                    fsim[j] = float(objective(sim[j]))
                else:
                    nit += 1
        if new is not None and distinct:
            x, fx = new
            k = bisect_left(fsim, fx, 0, n)
            if k == n or fsim[k] != fx:
                del sim[-1], fsim[-1]
                sim.insert(k, x)
                fsim.insert(k, fx)
                continue
        if new is not None:
            sim[-1], fsim[-1] = new
        distinct = argsort()
    return _Minimum(x=np.array(sim[0]), fun=fsim[0], nfev=nfev, nit=nit)


def critical_efficiency(theta: float | None = None) -> EfficiencyThresholdResult:
    """Critical symmetric detection efficiency of a fair-binned CHSH test.

    The state is the partially entangled family ``cos(theta)|00> +
    sin(theta)|11>``, whose threshold :func:`_family_threshold` gives in
    closed form.  With a ``theta`` the angles are fixed at
    ``FAMILY_ALICE_ANGLES`` and ``FAMILY_BOB_ANGLES``, the CHSH optimum of
    the maximally entangled state ``theta = pi/4``, which yields the
    textbook symmetric threshold ``2 (sqrt(2) - 1) ~ 0.8284``; the singlet
    at ``SINGLET_*_ANGLES`` has the same correlation table.  Without one,
    one search by the in-house Nelder-Mead :func:`minimize` from
    ``_THRESHOLD_START`` optimizes ``theta`` and all four angles; pushing
    ``theta -> 0`` drives the threshold towards Eberhard's infimum of 2/3.
    This form has no inputs, so one start suffices: its result is the best
    of the 24-start family that
    ``test_optimized_threshold_is_best_of_the_start_family`` reruns with
    SciPy's Nelder-Mead.

    Args:
        theta: Entanglement parameter of the family state, or None to
            optimize it together with the angles.

    Returns:
        An :class:`EfficiencyThresholdResult`.  ``eta_critical = 1.0`` with
        ``violation_at_unit_efficiency = False`` means the configuration
        never violates CHSH and there is nothing to certify.

    Raises:
        ValueError: If ``theta`` is not a finite number.
    """
    if theta is not None:
        theta = _real("theta", theta, _FINITE)
        params = np.array([theta, *FAMILY_ALICE_ANGLES, *FAMILY_BOB_ANGLES])
    else:
        # The search ends on its tolerances after 2082 evaluations and 1193
        # iterations, well inside both caps.
        params = minimize(
            _threshold_objective,
            _THRESHOLD_START,
            xatol=1e-5,
            fatol=1e-12,
            maxiter=8000,
            maxfev=12000,
        ).x
    eta, e_tot = _family_threshold(params)
    theta, a0, a1, b0, b1 = params.tolist()
    return EfficiencyThresholdResult(
        eta_critical=eta,
        theta=theta,
        alice_angles=(a0, a1),
        bob_angles=(b0, b1),
        chsh_at_unit_efficiency=e_tot,
    )


# --------------------------------------------------------------------------
# Post-selection attack: faking CHSH violations with classical no-click tricks
# --------------------------------------------------------------------------


# The nine deterministic single-party strategies with optional no-clicks, as
# ``(outcome at input 0, outcome at input 1)`` with 0 meaning no click: one
# silent strategy, two one-input families of two, and four all-click ones.
_STRATEGIES = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))
_OUTCOMES = np.array(_STRATEGIES, dtype=float)
_CLICKS = np.abs(_OUTCOMES)
_N_STRAT = len(_STRATEGIES)


def _pair_tensors() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair coincidence and signed-coincidence tensors, flattened over pairs."""
    ca = _CLICKS[:, None, :, None]  # (9, 1, x, 1)
    cb = _CLICKS[None, :, None, :]  # (1, 9, 1, y)
    coincidence = (ca * cb).reshape(_N_STRAT * _N_STRAT, 4)
    signed = (_OUTCOMES[:, None, :, None] * _OUTCOMES[None, :, None, :]).reshape(
        _N_STRAT * _N_STRAT, 4
    )
    click_a = np.repeat(_CLICKS, _N_STRAT, axis=0)  # (81, 2): Alice click mask per pair
    click_b = np.tile(_CLICKS, (_N_STRAT, 1))  # (81, 2): Bob click mask per pair
    return coincidence, signed, click_a, click_b


_COIN, _SIGNED, _CLICK_A, _CLICK_B = _pair_tensors()
_CHSH_SIGNS_FLAT = CHSH_SIGNS.reshape(4)

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


def _strategy_index(alice: tuple[int, int], bob: tuple[int, int]) -> int:
    """Row of the strategy pair ``(alice, bob)`` in the pair tensors."""
    return _STRATEGIES.index(alice) * _N_STRAT + _STRATEGIES.index(bob)


def _candidate_ensemble(eta: float) -> np.ndarray:
    """Hand-built ensemble reaching ``min(4, 2/(2 eta - 1))`` post-selected CHSH.

    Four "half-silent" strategy pairs produce perfectly signed coincidences
    in every CHSH cell (value 4) at per-input click probability 3/4; mixing
    in an always-click local strategy raises the click rate to ``eta`` at
    the cost of diluting the ``<A1 B1>`` cell.
    """
    pairs = [
        _strategy_index((1, 1), (1, 0)),
        _strategy_index((1, -1), (0, 1)),
        _strategy_index((1, 0), (1, 1)),
        _strategy_index((0, 1), (1, -1)),
    ]
    always = _strategy_index((1, 1), (1, 1))
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
    weights.setflags(write=False)
    ra = _CLICK_A.T @ weights
    rb = _CLICK_B.T @ weights
    return AttackResult(
        eta=float(eta),
        chsh=_postselected_chsh(weights),
        weights=weights,
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
    _real("eta", eta, _UNIT_OPEN_BELOW)
    return _attack_result(eta, _candidate_ensemble(eta))


def loophole_attack_curve(etas: Sequence[float]) -> list[AttackResult]:
    """Attack strength across efficiencies, one :func:`loophole_attack` each.

    The closed-form optimum never rises as ``eta`` grows, so the curve is
    monotone non-increasing in ``eta`` without any carry between points.

    Args:
        etas: Efficiencies in ``(0, 1]``, any order, each checked as
            :func:`loophole_attack` checks its ``eta``.

    Returns:
        Results aligned with the input order.
    """
    return [loophole_attack(eta) for eta in etas]
