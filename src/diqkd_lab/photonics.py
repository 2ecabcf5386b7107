"""Photonic mode simulation in sparse Fock space.

States live on ``n_modes`` bosonic modes, always as a :class:`ModeMixture`:
an explicit ensemble of pure branches that stores only nonzero amplitudes,
as a weight vector of shape ``(k,)`` and one table row per amplitude (its
branch, its Fock occupations and its complex value).  Sources,
:func:`fock` and :func:`vacuum` build one-branch mixtures, and every
operation takes a mixture and returns one.  No density matrix on the full
mode space is ever built: loss splits each branch into one pure branch per
number of lost photons, and destructive threshold detection splits it into
one branch per Fock content of the measured modes.  :func:`mix` forms
weighted unions of states.

Linear optics conserves photon number, so a two-mode unitary maps each
``|n1, n2>`` inside the sector of ``n1 + n2`` photons, and nothing is ever
cut off: there is no truncation error.  A mixture's ``n_max`` is the
largest occupation it holds, read from its rows; dense views
(:func:`mode_density`, detector tables) size themselves from it.  The one
approximation left is the sources' cut on pair number.

Polarization measurements report one outcome per party, coded from its
two ports' click pattern by ``OUTCOME_CODES``: 0 and 1 for a click in the
H or the V port alone, ``NO_CLICK`` (2) and ``DOUBLE_CLICK`` (3).

Polarization qubits are encoded in mode pairs ``(H, V)``: ``|H>`` is one
photon in the H mode, ``|V>`` one photon in the V mode.  Measuring the
qubit observable ``cos(theta) Z + sin(theta) X`` corresponds to rotating
the mode pair by ``theta / 2`` and detecting both output ports.
:func:`polarization_correlation_table` evaluates that measurement by the
Born rule instead: it folds rotation and detection into click POVMs,
block diagonal in each party's photon number, and contracts them with the
reduced density of the four measured modes, so no state is rotated.

Two-mode interference follows the convention ``a_1 -> sqrt(T) a_1 +
sqrt(1-T) a_2`` (equivalently, creation operators transform as
``a_1^dag -> sqrt(T) a_1^dag - sqrt(1-T) a_2^dag``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from diqkd_lab.qstate import CorrelationTable, DimensionMismatchError, StateValidationError

__all__ = [
    "OUTCOME_CODES",
    "NO_CLICK",
    "DOUBLE_CLICK",
    "ModeMixture",
    "DetectorModel",
    "HeraldRecord",
    "BsmOutcome",
    "BsmResult",
    "vacuum",
    "fock",
    "mix",
    "tensor_modes",
    "permute_modes",
    "phase_shift",
    "mode_density",
    "beamsplitter",
    "polarization_rotation",
    "loss_channel",
    "distance_to_transmission",
    "detection_probabilities",
    "threshold_detect",
    "polarization_correlation_table",
    "spdc_source",
    "polarization_singlet",
    "heralded_single_photon",
    "bell_state_measurement",
    "qubit_amplifier",
    "amplifier_success_probability",
]

# Pure branches below this weight are dropped from mixtures, and amplitudes
# below it in squared modulus from branches (they carry no probability at
# double precision).
BRANCH_PRUNE_TOL = 1e-30

#: Outcome code of each click pattern ``(H port, V port)`` of a polarization
#: measurement: the observable's values +1 and -1, then no click and double
#: click.  Every measurement table and round record uses these codes.
OUTCOME_CODES = {(1, 0): 0, (0, 1): 1, (0, 0): 2, (1, 1): 3}
NO_CLICK = OUTCOME_CODES[0, 0]
DOUBLE_CLICK = OUTCOME_CODES[1, 1]


# --------------------------------------------------------------------------
# States
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeMixture:
    """A classical mixture of pure mode states, stored as its nonzero amplitudes.

    Row ``r`` holds the amplitude ``amp[r]`` of the Fock state ``|occ[r]>``
    in branch ``branch[r]``; a ``(branch, occupations)`` pair appears at
    most once.  The arrays are stored without a copy and made read-only.

    Attributes:
        weights: Branch weights, shape ``(k,)``; positive and summing to
            one.  Branches of weight at most ``BRANCH_PRUNE_TOL`` are
            dropped on construction.
        branch: Branch of each row, shape ``(nnz,)``, ascending.
        occ: Photon number of every mode in each row, shape
            ``(nnz, n_modes)``.
        amp: Complex amplitude of each row, shape ``(nnz,)``; every branch
            is normalized.
    """

    weights: np.ndarray
    branch: np.ndarray
    occ: np.ndarray
    amp: np.ndarray

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        branch = _index_array(self.branch, "branch")
        occ = _index_array(self.occ, "occ")
        amp = np.asarray(self.amp, dtype=complex)
        if not (
            weights.ndim == branch.ndim == 1
            and occ.ndim == 2
            and occ.shape[1] > 0
            and amp.shape == branch.shape == occ.shape[:1]
        ):
            raise DimensionMismatchError(
                "a mixture needs weights (k,), branch (nnz,), occ (nnz, modes) and amp "
                f"(nnz,), got {weights.shape}, {branch.shape}, {occ.shape} and {amp.shape}"
            )
        if weights.size == 0:
            raise StateValidationError("a mixture needs at least one branch")
        ascending = (branch[1:] >= branch[:-1]).all()
        if branch.size and not (ascending and 0 <= branch[0] and branch[-1] < weights.size):
            raise DimensionMismatchError("branch indices must ascend within [0, k)")
        if occ.min(initial=0) < 0:
            raise DimensionMismatchError("occupations must be non-negative")
        # Comparisons written so that NaN fails them.
        lightest = weights.min()
        if not lightest >= -1e-12:
            i = np.flatnonzero(~(weights >= -1e-12))[0]
            raise StateValidationError(f"branch {i} has invalid weight {weights[i]}")
        if not lightest > BRANCH_PRUNE_TOL:
            keep = weights > BRANCH_PRUNE_TOL
            if not keep.any():
                raise StateValidationError("all branches have zero weight")
            rows = keep[branch]
            weights, branch = weights[keep], (np.cumsum(keep) - 1)[branch[rows]]
            occ, amp = occ[rows], amp[rows]
        total = weights.sum()
        if not abs(total - 1.0) <= 1e-7:
            raise StateValidationError(f"mixture weights sum to {total!r}, expected 1")
        norms = np.sqrt(np.bincount(branch, amp.real**2 + amp.imag**2, minlength=weights.size))
        off = np.abs(norms - 1.0)
        if not off.max() <= 1e-7:
            i = np.flatnonzero(~(off <= 1e-7))[0]
            raise StateValidationError(f"branch {i} is not normalized: |psi| = {norms[i]!r}")
        for name, arr in (("weights", weights), ("branch", branch), ("occ", occ), ("amp", amp)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def branches(self) -> tuple[tuple[float, slice], ...]:
        """``(weight, rows)`` per branch; ``occ[rows]`` and ``amp[rows]`` hold its amplitudes."""
        bounds = np.searchsorted(self.branch, np.arange(self.weights.size + 1)).tolist()
        return tuple(zip(self.weights.tolist(), map(slice, bounds, bounds[1:])))

    @property
    def n_modes(self) -> int:
        return self.occ.shape[1]

    @property
    def n_max(self) -> int:
        """Largest occupation of any mode; dense views span ``0..n_max`` per mode."""
        return int(self.occ.max(initial=0))

    def probability(self, occupations: Sequence[int]) -> float:
        """Probability of finding exactly the given photon numbers."""
        target = [int(n) for n in occupations]
        if len(target) != self.n_modes:
            raise DimensionMismatchError(f"{len(target)} occupations for {self.n_modes} modes")
        rows = (self.occ == target).all(axis=1)
        return float(self._row_probabilities()[rows].sum())

    def _row_probabilities(self) -> np.ndarray:
        """Probability of each row, ``weights[branch] * |amp|^2``."""
        return self.weights[self.branch] * (self.amp.real**2 + self.amp.imag**2)


# The one state type under its former name, kept because bench/tracing.py
# imports ``ModeState`` and counts constructions through its __post_init__.
ModeState = ModeMixture


def _index_array(values, name: str) -> np.ndarray:
    """``values`` as an ``intp`` array, rejecting entries that are not whole numbers."""
    values = np.asarray(values)
    if values.dtype.kind in "iub":
        return values.astype(np.intp, copy=False)
    with np.errstate(invalid="ignore"):
        whole = values.astype(np.intp)
    wrong = whole != values
    if wrong.any():
        raise DimensionMismatchError(f"{name} must hold whole numbers, got {values[wrong][0]}")
    return whole


def _mode_indices(state: ModeMixture, modes: Iterable[int]) -> list[int]:
    """``modes`` as a list, checked to be distinct integer modes of ``state``."""
    modes = list(modes)
    # ``type(k) is int`` spares plain ints the slower ABC check.
    if len(set(modes)) != len(modes) or not all(
        (type(k) is int or isinstance(k, numbers.Integral)) and 0 <= k < state.n_modes
        for k in modes
    ):
        raise DimensionMismatchError(f"invalid modes {tuple(modes)} for {state.n_modes} modes")
    return [int(k) for k in modes]


def _pure(rows: dict[tuple[int, ...], float]) -> ModeMixture:
    """One pure branch of the nonzero ``{occupations: amplitude}`` rows, in ascending order."""
    occ = sorted(o for o, a in rows.items() if a != 0)
    return ModeMixture(np.ones(1), np.zeros(len(occ), np.intp), occ, [rows[o] for o in occ])


def _distinct(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of non-negative integer columns (ascending) and each row's index."""
    table = np.column_stack(columns)
    radix = table.max(axis=0, initial=0) + 1
    if np.prod(radix.astype(float)) >= 2.0**63:
        rows, index = np.unique(table, axis=0, return_inverse=True)
        return rows, index.reshape(-1)
    # Mixed-radix keys order like the rows, and one-dimensional keys sort fast.
    place = np.append(np.cumprod(radix[:0:-1])[::-1], 1)
    _, first, index = np.unique(table @ place, return_index=True, return_inverse=True)
    return table[first], index


def _spread(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Repeat row ``r`` ``counts[r]`` times; return the source rows and ``0..counts[r]-1``."""
    src = np.repeat(np.arange(counts.size), counts)
    return src, np.arange(src.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _merged(weights, branch, occ, amp) -> ModeMixture:
    """Sum duplicate ``(branch, occupations)`` rows and drop the ones that cancel."""
    keys, index = _distinct(branch, occ)
    amp = np.bincount(index, amp.real) + 1j * np.bincount(index, amp.imag)
    keep = amp.real**2 + amp.imag**2 > BRANCH_PRUNE_TOL
    return ModeMixture(weights, keys[keep, 0], keys[keep, 1:], amp[keep])


def _split(weights, grouping, occ, amp, like=1.0, total=1.0) -> ModeMixture:
    """Split every branch by a key into normalized pure branches.

    ``grouping`` is ``_distinct(branch, key)`` of the rows.  The rows of
    branch ``b`` with one key value form a new branch of weight ``weights[b]
    * like * |rows|^2 / total``, where ``like`` (one value per row) is
    constant on it.  New branches whose unweighted ``like * |rows|^2`` is at
    most ``BRANCH_PRUNE_TOL`` are dropped.
    """
    groups, index = grouping
    power = amp.real**2 + amp.imag**2
    mass = np.bincount(index, power)
    kept_mass = np.bincount(index, power * like)
    keep = kept_mass > BRANCH_PRUNE_TOL
    rows = np.flatnonzero(keep[index] & (power > 0))
    rows = rows[np.argsort(index[rows], kind="stable")]
    return ModeMixture(
        weights=weights[groups[keep, 0]] * kept_mass[keep] / total,
        branch=(np.cumsum(keep) - 1)[index[rows]],
        occ=occ[rows],
        amp=amp[rows] / np.sqrt(mass[index[rows]]),
    )


def vacuum(n_modes: int) -> ModeMixture:
    """The all-modes vacuum state."""
    return _pure({(0,) * n_modes: 1.0})


def fock(occupations: Sequence[int]) -> ModeMixture:
    """A Fock basis state ``|n1, ..., nk>``."""
    occupations = tuple(occupations)
    if not all(isinstance(n, numbers.Integral) and n >= 0 for n in occupations):
        raise DimensionMismatchError(f"occupations {occupations} must be non-negative integers")
    return _pure({tuple(int(n) for n in occupations): 1.0})


def mix(parts: Iterable[tuple[float, ModeMixture]]) -> ModeMixture:
    """Classical mixture of ``(probability, state)`` parts on the same modes.

    The parts' branches are concatenated, each weighted by its probability,
    and the weights renormalized, so the probabilities need not sum to one.

    Raises:
        ValueError: When there are no parts, a probability is negative or not
            finite, or the probabilities sum to zero.
    """
    mixtures = [(float(p), m) for p, m in parts]
    if not mixtures:
        raise ValueError("a mixture needs at least one part")
    for p, _ in mixtures:
        if not 0.0 <= p < math.inf:
            raise ValueError(f"mixture probability {p} must be non-negative and finite")
    if not any(p > 0.0 for p, _ in mixtures):
        raise ValueError("mixture probabilities sum to zero")
    offsets = np.cumsum([0] + [m.weights.size for _, m in mixtures])
    weights = np.concatenate([p * m.weights for p, m in mixtures])
    return ModeMixture(
        weights=weights / weights.sum(),
        branch=np.concatenate([m.branch + o for (_, m), o in zip(mixtures, offsets)]),
        occ=np.concatenate([m.occ for _, m in mixtures]),
        amp=np.concatenate([m.amp for _, m in mixtures]),
    )


def tensor_modes(first: ModeMixture, second: ModeMixture) -> ModeMixture:
    """Tensor product; the second state's modes come after the first's."""
    # Every row of ``first`` pairs with every row of ``second``; branch (i, j)
    # is i * k2 + j, where k2 counts the second's branches, so the pairs are
    # sorted by it.
    r1, r2 = np.divmod(np.arange(first.amp.size * second.amp.size), second.amp.size)
    branch = first.branch[r1] * second.weights.size + second.branch[r2]
    order = np.argsort(branch, kind="stable")
    r1, r2 = r1[order], r2[order]
    return ModeMixture(
        weights=np.outer(first.weights, second.weights).ravel(),
        branch=branch[order],
        occ=np.hstack([first.occ[r1], second.occ[r2]]),
        amp=first.amp[r1] * second.amp[r2],
    )


def permute_modes(state: ModeMixture, order: Sequence[int]) -> ModeMixture:
    """Reorder modes so that new mode ``k`` is old mode ``order[k]``."""
    order = _mode_indices(state, order)
    if len(order) != state.n_modes:
        raise DimensionMismatchError(f"invalid mode order {order} for {state.n_modes} modes")
    return ModeMixture(state.weights, state.branch, state.occ[:, order], state.amp)


def phase_shift(state: ModeMixture, mode: int, phase_per_photon: float) -> ModeMixture:
    """Multiply amplitudes by ``exp(i * phase * n_mode)`` (a mode phase shift)."""
    (mode,) = _mode_indices(state, [mode])
    phases = np.exp(1j * phase_per_photon * state.occ[:, mode])
    return ModeMixture(state.weights, state.branch, state.occ, state.amp * phases)


def mode_density(state: ModeMixture, modes: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of a subset of modes, in Fock basis.

    Args:
        state: Any mode state.
        modes: Mode indices to keep, in the order they should appear.

    Returns:
        Density matrix of dimension ``(state.n_max + 1) ** len(modes)``,
        the largest occupation in the whole state bounding every kept mode.
    """
    modes = _mode_indices(state, modes)
    d = state.n_max + 1
    rest = [k for k in range(state.n_modes) if k not in modes]
    # One pure vector on the kept modes per (branch, rest occupations).
    groups, index = _distinct(state.branch, state.occ[:, rest])
    vectors = np.zeros((len(groups), d ** len(modes)), dtype=complex)
    kept = np.ravel_multi_index(tuple(state.occ[:, modes].T), (d,) * len(modes))
    vectors[index, kept] = state.amp
    return (vectors.T * state.weights[groups[:, 0]]) @ vectors.conj()


# --------------------------------------------------------------------------
# Linear optics
# --------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _sector_blocks(top: int, phi: float) -> np.ndarray:
    """``exp(phi (a1^dag a2 - a1 a2^dag))`` on each sector of ``t <= top`` photons.

    ``blocks[t]`` (zero-padded to ``top + 1``) acts on the basis ``|n, t -
    n>``.  The unitary maps ``a1^dag -> c a1^dag - s a2^dag`` and ``a2^dag
    -> s a1^dag + c a2^dag`` (``c, s = cos(phi), sin(phi)``), so column
    ``n`` holds the coefficients of ``(c x - s y)^n (s x + c y)^(t - n)`` in
    the monomials ``x^k y^(t - k)``, each scaled by ``sqrt(k! (t - k)! / (n!
    (t - n)!))``.  The expansions keep the blocks orthogonal to ~1e-15;
    ``expm`` of the generator strays by up to ~2e-13, which a click POVM
    would carry into its completeness.
    """
    c, s = np.cos(phi), np.sin(phi)
    blocks = np.zeros((top + 1, top + 1, top + 1))
    for t in range(top + 1):
        scale = np.sqrt([math.factorial(k) * math.factorial(t - k) for k in range(t + 1)])
        for n in range(t + 1):
            # Coefficients in ascending powers of x.
            poly = np.ones(1)
            for factor in [[-s, c]] * n + [[c, s]] * (t - n):
                poly = np.convolve(poly, factor)
            blocks[t, : t + 1, n] = poly * scale / scale[n]
    blocks.setflags(write=False)
    return blocks


def _unitary_pair_op(m: ModeMixture, i: int, j: int, phi: float) -> ModeMixture:
    i, j = _mode_indices(m, (i, j))
    first, total = m.occ[:, i], m.occ[:, i] + m.occ[:, j]
    # Row r spreads over the total[r] + 1 states |k, total[r] - k> of its sector.
    src, k = _spread(total + 1)
    blocks = _sector_blocks(int(total.max(initial=0)), phi)
    occ = m.occ[src]
    occ[:, i], occ[:, j] = k, total[src] - k
    amp = m.amp[src] * blocks[total[src], k, first[src]]
    return _merged(m.weights, m.branch[src], occ, amp)


def beamsplitter(state: ModeMixture, mode_a: int, mode_b: int, transmission: float) -> ModeMixture:
    """Interfere two modes on a beamsplitter of the given transmission.

    Args:
        state: Input state; every branch stays pure.
        mode_a: Transmitted mode (``a -> sqrt(T) a + sqrt(1-T) b``).
        mode_b: Reflected mode.
        transmission: Power transmission ``T`` in ``[0, 1]``.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {transmission}")
    phi = float(np.arccos(np.sqrt(transmission)))
    return _unitary_pair_op(state, mode_a, mode_b, phi)


def polarization_rotation(state: ModeMixture, h_mode: int, v_mode: int, angle: float) -> ModeMixture:
    """Rotate a polarization qubit so a qubit measurement becomes H/V detection.

    After rotating by ``angle``, a click in the H port corresponds to
    outcome 0 (+1) of the qubit observable ``cos(angle) Z + sin(angle) X``
    and a click in the V port to outcome 1 (-1).
    """
    return _unitary_pair_op(state, h_mode, v_mode, float(angle) / 2.0)


@lru_cache(maxsize=32)
def _binomials(top: int) -> np.ndarray:
    """Read-only ``C(n, l)`` table for ``0 <= n, l <= top``, zero where ``l > n``.

    Each entry is the exact integer ``math.comb(n, l)`` rounded once to
    float64.  ``scipy.special.comb`` gives the same floats up to ``n = 30``
    and first differs at ``C(31, 14)``, one ulp below the exact integer.
    """
    table = np.array([[float(math.comb(n, k)) for k in range(top + 1)] for n in range(top + 1)])
    table.flags.writeable = False
    return table


def loss_channel(state: ModeMixture, mode: int, transmission: float) -> ModeMixture:
    """Photon loss on one mode, decomposed into pure branches.

    Branch ``(b, l)`` corresponds to the environment absorbing exactly
    ``l`` photons from branch ``b``; each stays pure, so mixtures remain
    compact ensembles.

    Args:
        state: Input state.
        mode: Mode subject to loss.
        transmission: Survival probability ``eta`` of each photon.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {transmission}")
    (mode,) = _mode_indices(state, [mode])
    eta = float(transmission)
    n = state.occ[:, mode]
    # Kraus operator l: |n> -> sqrt(C(n, l) eta^(n-l) (1-eta)^l) |n - l>;
    # row r spreads over l = 0..n[r].
    src, lost = _spread(n + 1)
    kept = n[src] - lost
    binomials = _binomials(int(n.max(initial=0)))[n[src], lost]
    kraus = np.sqrt(binomials * eta**kept * (1.0 - eta) ** lost)
    occ = state.occ[src]
    occ[:, mode] = kept
    grouping = _distinct(state.branch[src], lost)
    return _split(state.weights, grouping, occ, state.amp[src] * kraus)


def distance_to_transmission(length_km: float, attenuation_db_per_km: float = 0.2) -> float:
    """Fiber power transmission over a given length.

    ``T = 10 ** (-attenuation * L / 10)``; the default 0.2 dB/km is standard
    telecom fiber.
    """
    for name, value in (("length_km", length_km), ("attenuation_db_per_km", attenuation_db_per_km)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be non-negative and finite, got {value}")
    return float(10.0 ** (-attenuation_db_per_km * length_km / 10.0))


# --------------------------------------------------------------------------
# Detection
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectorModel:
    """A non-photon-number-resolving (threshold) detector.

    Attributes:
        efficiency: Probability that one photon triggers a click.
        dark_count_prob: Probability of a click with no photons present.

    A detector seeing ``n`` photons clicks with probability
    ``1 - (1 - dark_count_prob) (1 - efficiency)^n``.
    """

    efficiency: float = 1.0
    dark_count_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_count_prob <= 1.0:
            raise ValueError(
                f"dark count probability must lie in [0, 1], got {self.dark_count_prob}"
            )

    def outcome_matrix(self, n_max: int) -> np.ndarray:
        """Columns ``[P(no click | n), P(click | n)]`` for ``n = 0..n_max``."""
        ns = np.arange(n_max + 1)
        click = 1.0 - (1.0 - self.dark_count_prob) * (1.0 - self.efficiency) ** ns
        return np.stack([1.0 - click, click], axis=1)


def detection_probabilities(
    state: ModeMixture, modes: Sequence[int], detector: DetectorModel
) -> np.ndarray:
    """Joint click-pattern probabilities for threshold detectors on ``modes``.

    Args:
        state: Any mode state.
        modes: Modes being watched, one detector each.
        detector: Detector model shared by all listed detectors.

    Returns:
        Array of shape ``(2,) * len(modes)``; index 1 along axis ``k`` means
        the detector on ``modes[k]`` clicked.
    """
    modes = _mode_indices(state, modes)
    q = detector.outcome_matrix(state.n_max)
    # Probability of each Fock content of the watched modes.
    contents, index = _distinct(state.occ[:, modes])
    t = np.bincount(index, state._row_probabilities())
    # Each factor appends the click axis of one watched mode, in ``modes`` order.
    for k in range(len(modes)):
        t = t[..., np.newaxis] * q[contents[:, k]].reshape((-1,) + (1,) * k + (2,))
    return t.sum(axis=0)


def threshold_detect(
    state: ModeMixture,
    modes: Sequence[int],
    detector: DetectorModel,
    pattern: Sequence[bool],
) -> tuple[float, ModeMixture | None]:
    """Condition a state on one specific click pattern.

    The detection is destructive: the measured modes are removed and the
    survivors form a mixture over the possible Fock contents of the absorbed
    modes (coherence within a content class is preserved, which is what
    makes interference-based heralding work).  This is the one-pattern case
    of ``_detect_patterns``, which :func:`bell_state_measurement` calls with
    all its heralding patterns at once.

    Args:
        state: Input state.
        modes: Measured modes.
        detector: Threshold detector model.
        pattern: Click (True) / silence (False) per measured mode.

    Returns:
        ``(probability, conditional_state)``; the state is None when the
        pattern has (numerically) zero probability, or when all modes were
        measured.
    """
    (outcome,) = _detect_patterns(state, modes, detector, [pattern])
    return outcome


def _detect_patterns(
    state: ModeMixture,
    modes: Sequence[int],
    detector: DetectorModel,
    patterns: Sequence[Sequence[bool]],
) -> list[tuple[float, ModeMixture | None]]:
    """``threshold_detect`` for each of ``patterns`` on the same state and modes.

    The measured contents, the detector's outcome matrix and the grouping of
    rows by branch and content do not depend on the pattern, so they are
    computed once and every pattern only weighs and splits the rows.
    """
    modes = _mode_indices(state, modes)
    patterns = [[int(bool(c)) for c in pattern] for pattern in patterns]
    if any(len(pattern) != len(modes) for pattern in patterns):
        raise DimensionMismatchError("pattern length must match number of measured modes")
    content = state.occ[:, modes]
    outcomes = detector.outcome_matrix(state.n_max)
    power = state.amp.real**2 + state.amp.imag**2
    row_weights = state.weights[state.branch]
    rest = [k for k in range(state.n_modes) if k not in modes]
    if rest:
        grouping, survivors = _distinct(state.branch, content), state.occ[:, rest]
    results = []
    for pattern in patterns:
        # Probability of the pattern given each row's Fock content of the measured modes.
        like = outcomes[content, pattern].prod(axis=1)
        # Not ``_row_probabilities() @ like``: rounding each weighted row first
        # moves herald probabilities in their last bit.
        total = float(row_weights @ (power * like))
        if total <= BRANCH_PRUNE_TOL:
            results.append((0.0, None))
        elif not rest:
            results.append((total, None))
        else:
            split = _split(state.weights, grouping, survivors, state.amp, like, total)
            results.append((total, split))
    return results


@lru_cache(maxsize=128)
def _click_povms(
    angles: tuple[float, ...], top: int, detector: DetectorModel
) -> np.ndarray:
    """One party's click POVMs ``E[x, outcome]`` for each of its measurement angles.

    The basis is ``|h, v>`` with ``h + v <= top``, indexed ``t (t + 1) / 2 +
    h`` for ``t = h + v``.  A rotation keeps photon number, so each element
    is block diagonal in ``t``: with ``B`` the sector-``t`` rotation by
    ``angle / 2``, its block is ``B^T diag(q[k, c_H] q[t - k, c_V]) B`` over
    the output ports' contents ``|k, t - k>``, where ``q`` is the detector's
    outcome matrix and ``(c_H, c_V)`` the click pattern of the outcome.
    """
    q = detector.outcome_matrix(top)
    dim = (top + 1) * (top + 2) // 2
    povms = np.zeros((len(angles), len(OUTCOME_CODES), dim, dim))
    for x, angle in enumerate(angles):
        blocks = _sector_blocks(top, angle / 2.0)
        for t in range(top + 1):
            b, k = blocks[t, : t + 1, : t + 1], np.arange(t + 1)
            block = slice(t * (t + 1) // 2, (t + 1) * (t + 2) // 2)
            for (c_h, c_v), outcome in OUTCOME_CODES.items():
                povms[x, outcome, block, block] = (b.T * (q[k, c_h] * q[t - k, c_v])) @ b
    povms.setflags(write=False)
    return povms


def polarization_correlation_table(
    state: ModeMixture,
    alice_modes: tuple[int, int],
    bob_modes: tuple[int, int],
    alice_angles: Sequence[float],
    bob_angles: Sequence[float],
    detector: DetectorModel | None = None,
):
    """Joint polarization-measurement statistics of a two-qubit mode state.

    Each party measures by rotating its ``(H, V)`` mode pair by the setting's
    angle and watching both output ports with threshold detectors.  Per
    party the click pattern maps to an outcome by ``OUTCOME_CODES``::

        0: H-port click only   (observable value +1)
        1: V-port click only   (observable value -1)
        2: no click            (NO_CLICK)
        3: both ports click    (DOUBLE_CLICK)

    The table is evaluated by the Born rule, ``p(a, b | x, y) = Tr[(E_A[x,
    a] (x) E_B[y, b]) rho]``, and no state is rotated.  A rotation keeps each
    party's photon number ``h + v`` and a threshold detector sees only
    photon numbers, so each click POVM is block diagonal in that number
    (``_click_povms``) and acts on the party's contents ``|h, v>`` up to the
    largest ``h + v`` the state holds there.  The measurement touches no
    other mode, so ``rho`` need only be the reduced density of the four
    measured modes, built from one pure vector per branch and Fock content
    of the other modes.

    Folding outcomes 2 and 3 into outcome 0 (``bellcert.bin_no_click``)
    reproduces the fair-binning rule used for device-independent
    certification.

    Args:
        state: State containing at least the four listed modes.
        alice_modes: Alice's ``(H, V)`` mode pair.
        bob_modes: Bob's ``(H, V)`` mode pair.
        alice_angles: Measurement angles, one per Alice setting.
        bob_angles: Measurement angles, one per Bob setting.
        detector: Detector model for all four detectors; default ideal.

    Returns:
        A :class:`diqkd_lab.qstate.CorrelationTable` of shape
        ``(len(alice_angles), len(bob_angles), 4, 4)``.
    """
    detector = detector or DetectorModel()
    measured = _mode_indices(state, (*alice_modes, *bob_modes))
    if len(alice_angles) == 0 or len(bob_angles) == 0:
        raise DimensionMismatchError("need at least one angle per party")
    occ = state.occ[:, measured]
    # Index of each row's |h, v> content in Alice's and in Bob's basis.
    totals = occ[:, 0::2] + occ[:, 1::2]
    index = totals * (totals + 1) // 2 + occ[:, 0::2]
    povms_a, povms_b = (
        _click_povms(tuple(map(float, angles)), top, detector)
        for angles, top in zip((alice_angles, bob_angles), totals.max(axis=0).tolist())
    )
    dim_a, dim_b = povms_a.shape[-1], povms_b.shape[-1]
    rest = [k for k in range(state.n_modes) if k not in measured]
    groups, group = _distinct(state.branch, state.occ[:, rest])
    vectors = np.zeros((len(groups), dim_a * dim_b), dtype=complex)
    vectors[group, index[:, 0] * dim_b + index[:, 1]] = state.amp
    # rho[i, j] = sum_g w_g conj(v_g[i]) v_g[j], so p = sum_ij E[i, j] rho[i, j];
    # the POVMs are real, so only rho's real part counts.  Its axes are
    # ordered (iA iA', iB iB') to contract each party's elements in turn.
    rho = (vectors.conj().T * state.weights[groups[:, 0]]) @ vectors
    rho = rho.real.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 2, 1, 3)
    n_x, n_y, n_out = len(alice_angles), len(bob_angles), len(OUTCOME_CODES)
    table = (
        povms_a.reshape(n_x * n_out, -1)
        @ rho.reshape(dim_a**2, dim_b**2)
        @ povms_b.reshape(n_y * n_out, -1).T
    )
    table = table.reshape(n_x, n_out, n_y, n_out).transpose(0, 2, 1, 3)
    return CorrelationTable(probabilities=table)


# --------------------------------------------------------------------------
# Sources
# --------------------------------------------------------------------------


def _pair_weights(pair_prob: float, n_pair_max: int) -> np.ndarray:
    """Geometric pair-number weights ``(1 - p) p^n``, ``n <= n_pair_max``, normalized."""
    if not 0.0 <= pair_prob < 1.0:
        raise ValueError(f"pair_prob must lie in [0, 1), got {pair_prob}")
    if n_pair_max < 0:
        raise ValueError(f"n_pair_max must be non-negative, got {n_pair_max}")
    weights = np.array(
        [(1.0 - pair_prob) * pair_prob**n for n in range(n_pair_max + 1)], dtype=float
    )
    return weights / weights.sum()


def spdc_source(pair_prob: float, n_pair_max: int = 2) -> ModeMixture:
    """Polarization-entangled pair source with geometric multipair statistics.

    Emits ``n`` singlet-correlated pairs into modes ``(a_H, a_V, b_H, b_V)``
    with probability proportional to ``(1 - p) p^n`` for ``n`` up to
    ``n_pair_max``.  The ``n``-pair component is the normalized
    ``((a_H^dag b_V^dag - a_V^dag b_H^dag) / sqrt(2))^n`` term, so the
    single-pair component is the polarization singlet and the two-pair
    component carries the characteristic ``|2002> - |1111> + |0220>``
    structure responsible for false heralds in entanglement swapping.

    Args:
        pair_prob: Pair emission parameter ``p`` in ``[0, 1)``.  Note that
            ``p = 0`` yields pure vacuum (the source never fires); an ideal
            on-demand pair source is :func:`polarization_singlet` instead.
        n_pair_max: Largest retained pair number, and so the largest
            occupation of any mode.

    Returns:
        A pure four-mode state; for ``p > 0`` its ``n_max`` is ``n_pair_max``.
    """
    # The normalized n-pair term is sum_k (-1)^(n-k) |k, n-k, n-k, k> / sqrt(n+1).
    rows = {
        (k, n - k, n - k, k): np.sqrt(weight / (n + 1)) * (-1.0) ** (n - k)
        for n, weight in enumerate(_pair_weights(pair_prob, n_pair_max))
        for k in range(n + 1)
    }
    return _pure(rows)


def polarization_singlet() -> ModeMixture:
    """One polarization singlet ``(|HV> - |VH>)/sqrt(2)`` on modes ``(a_H, a_V, b_H, b_V)``."""
    return _pure({(1, 0, 0, 1): 1.0 / np.sqrt(2.0), (0, 1, 1, 0): -1.0 / np.sqrt(2.0)})


def heralded_single_photon(
    pair_prob: float, trigger_detector: DetectorModel, n_pair_max: int = 2
) -> "HeraldRecord":
    """Single-photon source: photon-pair emitter with a triggered idler arm.

    The source emits ``n`` signal/idler photon pairs with probability
    proportional to ``(1 - p) p^n``; a threshold detector watches the idler
    arm, and a click heralds the signal mode.  Because the trigger cannot
    count photons, the heralded state carries an ``n >= 2`` contamination
    tail — the mechanism behind false amplifier heralds at high gain.

    Args:
        pair_prob: Pair emission parameter ``p``.
        trigger_detector: Detector on the idler arm.
        n_pair_max: Largest retained pair number.

    Returns:
        A :class:`HeraldRecord` whose ``conditional_state`` is the
        single-mode signal state given a trigger click.
    """
    weights = _pair_weights(pair_prob, n_pair_max)
    # Branch n: n pairs emitted and the trigger clicked; the signal holds |n>.
    clicks = weights * trigger_detector.outcome_matrix(n_pair_max)[:, 1]
    trigger_prob = float(clicks.sum())
    if trigger_prob <= BRANCH_PRUNE_TOL:
        return HeraldRecord(success_probability=0.0, conditional_state=None, gain=None)
    n = np.arange(n_pair_max + 1)
    mixture = ModeMixture(clicks / trigger_prob, n, n[:, np.newaxis], np.ones(n.size))
    return HeraldRecord(success_probability=trigger_prob, conditional_state=mixture, gain=None)


# --------------------------------------------------------------------------
# Bell-state measurement
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BsmOutcome:
    """One successful Bell-state-measurement click pattern.

    Attributes:
        label: ``"psi+"`` (both clicks on one output port) or ``"psi-"``
            (clicks on opposite ports).
        pattern: Clicks on the four detectors ``(1H, 1V, 2H, 2V)``.
        probability: Probability of this pattern.
        state: Conditional state of the unmeasured modes, or None for a
            zero-probability pattern.
    """

    label: str
    pattern: tuple[bool, bool, bool, bool]
    probability: float
    state: ModeMixture | None


@dataclass(frozen=True)
class BsmResult:
    """All heralding outcomes of a linear-optics Bell-state measurement.

    Attributes:
        outcomes: The four patterns; labels identify the Bell state onto
            which the measured qubit pair was projected.
    """

    outcomes: tuple[BsmOutcome, ...]

    @property
    def success_probability(self) -> float:
        """Total probability of the four heralding patterns."""
        return float(sum(o.probability for o in self.outcomes))


_BSM_PATTERNS: tuple[tuple[str, tuple[bool, bool, bool, bool]], ...] = (
    ("psi+", (True, True, False, False)),
    ("psi+", (False, False, True, True)),
    ("psi-", (True, False, False, True)),
    ("psi-", (False, True, True, False)),
)


def bell_state_measurement(
    state: ModeMixture,
    modes_1: tuple[int, int],
    modes_2: tuple[int, int],
    detector: DetectorModel | None = None,
) -> BsmResult:
    """Linear-optics Bell-state measurement on two polarization qubits.

    The H modes of the two qubits interfere on a balanced beamsplitter, as
    do the V modes; threshold detectors watch all four outputs.  Exactly two
    clicks of orthogonal polarization herald success: same-port clicks
    project onto ``psi+``, opposite-port clicks onto ``psi-`` (the ``phi``
    states bunch and never produce orthogonal coincidences, capping the
    linear-optics success probability at 1/2 for unentangled inputs).

    The four patterns are detected in one pass (``_detect_patterns``): the
    rows are grouped by branch and measured content once, and each
    outcome equals :func:`threshold_detect` of its pattern on the
    interfered state.

    Args:
        state: Input state; the four measured modes are absorbed.
        modes_1: ``(H, V)`` modes of the first qubit.
        modes_2: ``(H, V)`` modes of the second qubit.
        detector: Detector model; default is ideal.

    Returns:
        A :class:`BsmResult` with conditional states on the remaining modes
        (original order, measured modes removed).
    """
    detector = detector or DetectorModel()
    h1, v1, h2, v2 = _mode_indices(state, (*modes_1, *modes_2))
    mixed = beamsplitter(state, h1, h2, 0.5)
    mixed = beamsplitter(mixed, v1, v2, 0.5)
    detected = _detect_patterns(
        mixed, (h1, v1, h2, v2), detector, [pattern for _, pattern in _BSM_PATTERNS]
    )
    return BsmResult(
        outcomes=tuple(
            BsmOutcome(label=label, pattern=pattern, probability=prob, state=conditional)
            for (label, pattern), (prob, conditional) in zip(_BSM_PATTERNS, detected)
        )
    )


# --------------------------------------------------------------------------
# Heralded qubit amplifier
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HeraldRecord:
    """Result of a heralded (probabilistic) operation.

    Attributes:
        success_probability: Probability that the herald fires.
        conditional_state: State given the herald, or None if it never fires.
        gain: Amplitude gain of the single-photon component relative to
            vacuum, when the operation defines one (the qubit amplifier);
            None otherwise.
    """

    success_probability: float
    conditional_state: ModeMixture | None
    gain: float | None


def _qubit_populations(state: ModeMixture, h_mode: int, v_mode: int) -> tuple[float, float]:
    """(vacuum, single-photon) populations of a polarization mode pair."""
    photons = state.occ[:, h_mode] + state.occ[:, v_mode]
    prob = state._row_probabilities()
    return float(prob[photons == 0].sum()), float(prob[photons == 1].sum())


@lru_cache(maxsize=32)
def _amplifier_ancillas(
    transmission: float, ancilla_pair_prob: float | None, trigger_detector: DetectorModel
) -> tuple[float, ModeMixture | None]:
    """The amplifier's ancillas, split on their beamsplitters, on modes (tH, rH, tV, rV).

    Each ancilla photon meets vacuum on a beamsplitter of transmission
    ``transmission``; the H and V ancillas come from two independent,
    identical sources.  They never touch the input before the Bell-state
    measurement, so they are prepared apart from it, once per setting.

    Returns:
        ``(trigger_prob, block)``: the probability that both ancilla sources
        herald (1 for ideal single photons, ``ancilla_pair_prob`` None) and
        the four-mode ancilla state, or ``(0.0, None)`` when the sources
        never herald.
    """
    trigger_prob = 1.0
    if ancilla_pair_prob is None:
        ancilla = fock([1])
    else:
        source = heralded_single_photon(ancilla_pair_prob, trigger_detector)
        if source.conditional_state is None:
            return 0.0, None
        trigger_prob = source.success_probability * source.success_probability
        ancilla = source.conditional_state
    split = beamsplitter(tensor_modes(ancilla, vacuum(1)), 0, 1, transmission)
    return trigger_prob, tensor_modes(split, split)


def qubit_amplifier(
    state: ModeMixture,
    input_modes: tuple[int, int],
    transmission: float,
    detector: DetectorModel | None = None,
    ancilla_pair_prob: float | None = None,
    trigger_detector: DetectorModel | None = None,
) -> HeraldRecord:
    """Heralded noiseless qubit amplifier acting on a polarization qubit.

    Two ancilla photons (one H, one V) are each split on a beamsplitter of
    transmission ``T``; the reflected parts join the incoming modes in a
    Bell-state measurement whose success teleports the input qubit onto the
    transmitted ancilla modes while re-weighting vacuum against photon
    amplitudes by ``sqrt(T / (1 - T))``.  Pattern-dependent phase flips are
    corrected by feed-forward, so all four heralds yield the same state.
    The split ancillas never meet the input before the Bell-state
    measurement, so they are prepared apart from it (``_amplifier_ancillas``,
    cached per ``T``, ancilla source and trigger detector) and joined to it
    by one tensor product.

    With ``ancilla_pair_prob`` set, each ancilla photon comes from a
    triggered pair source (see :func:`heralded_single_photon`) instead of an
    ideal source, and the reported success probability includes both
    trigger probabilities.

    Args:
        state: Input state; ``input_modes`` are consumed and replaced (in
            place, same positions) by the amplifier's output modes.
        input_modes: ``(H, V)`` modes carrying the qubit to amplify.
        transmission: Ancilla beamsplitter transmission ``T`` in ``(0, 1)``.
        detector: Bell-measurement detector model; default ideal.
        ancilla_pair_prob: Pair parameter of the ancilla sources, or None
            for ideal single photons.
        trigger_detector: Trigger detector of the ancilla sources; defaults
            to ``detector``.

    Returns:
        A :class:`HeraldRecord`; ``gain`` compares the single-photon to
        vacuum population ratio after versus before (None when the input
        has no vacuum or no photon component).
    """
    if not 0.0 < transmission < 1.0:
        raise ValueError(f"transmission must lie in (0, 1), got {transmission}")
    detector = detector or DetectorModel()
    trigger_detector = trigger_detector or detector
    in_h, in_v = _mode_indices(state, input_modes)
    n_modes = state.n_modes
    trigger_prob, ancillas = _amplifier_ancillas(transmission, ancilla_pair_prob, trigger_detector)
    if ancillas is None:
        return HeraldRecord(success_probability=0.0, conditional_state=None, gain=None)
    # The ancillas' four modes (tH, rH, tV, rV) come after the existing ones.
    work = tensor_modes(state, ancillas)
    r_h, r_v = n_modes + 1, n_modes + 3
    vac_in, single_in = _qubit_populations(state, in_h, in_v)

    bsm = bell_state_measurement(work, (in_h, in_v), (r_h, r_v), detector)
    # After removing (in_h, in_v, r_h, r_v), the survivors are ordered
    # (other modes..., tH, tV).
    out_h, out_v = n_modes - 2, n_modes - 1

    heralds = []
    for outcome in bsm.outcomes:
        if outcome.state is None:
            continue
        corrected = outcome.state
        # Feed-forward: under this module's beamsplitter sign convention, a
        # click on the first output port imprints a minus sign on the
        # teleported photon of that polarization; undo it so every herald
        # yields the same output state.
        if outcome.pattern[0]:
            corrected = phase_shift(corrected, out_h, np.pi)
        if outcome.pattern[1]:
            corrected = phase_shift(corrected, out_v, np.pi)
        heralds.append((outcome.probability, corrected))
    success = bsm.success_probability
    if success <= BRANCH_PRUNE_TOL:
        return HeraldRecord(success_probability=0.0, conditional_state=None, gain=None)
    conditional = mix(heralds)

    # Put the output modes back where the input modes were, the other modes
    # keeping their relative order.
    final_order = list(range(n_modes - 2))
    for position, mode in sorted([(in_h, out_h), (in_v, out_v)]):
        final_order.insert(position, mode)
    conditional = permute_modes(conditional, final_order)

    gain = None
    vac_out, single_out = _qubit_populations(conditional, in_h, in_v)
    if vac_in > 0 and single_in > 0 and vac_out > 0 and single_out > 0:
        gain = float(np.sqrt((single_out / vac_out) / (single_in / vac_in)))
    return HeraldRecord(
        success_probability=float(trigger_prob * success),
        conditional_state=conditional,
        gain=gain,
    )


def amplifier_success_probability(
    detector_efficiency: float, transmission: float, pair_prob: float
) -> float:
    """Leading-order herald probability of the amplifier with pair-source ancillas.

    ``P = eta_d^2 (1 - T) p^2``: both ancilla sources must emit a pair
    (``p^2``), the Bell measurement needs one reflected ancilla photon
    (``1 - T``), and both of its detectors must fire (``eta_d^2``).  This
    is the small-``p``, long-distance scaling used for throughput planning;
    exact values come from :func:`qubit_amplifier`.

    The formula counts ancilla *emission*, so it assumes ideal trigger
    detectors.  Trigger detectors of efficiency ``eta_t`` scale the herald
    by ``eta_t^2``: with ``eta_t = eta_d = 0.9``, :func:`qubit_amplifier`
    on a single-photon input gives 0.82 times this value at ``p = 0.011``
    and 0.811 as ``p -> 0``.
    """
    for name, value in (
        ("detector_efficiency", detector_efficiency),
        ("transmission", transmission),
        ("pair_prob", pair_prob),
    ):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return float(detector_efficiency**2 * (1.0 - transmission) * pair_prob**2)
