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
cut off: there is no truncation error.  ``n_max`` only bounds dense views
(:func:`mode_density`, detector tables), and a mixture raises it to the
largest occupation it holds.  The one approximation left is the sources'
cut on pair number.

Polarization measurements report one outcome per party, coded from its
two ports' click pattern by ``OUTCOME_CODES``: 0 and 1 for a click in the
H or the V port alone, ``NO_CLICK`` (2) and ``DOUBLE_CLICK`` (3).

Polarization qubits are encoded in mode pairs ``(H, V)``: ``|H>`` is one
photon in the H mode, ``|V>`` one photon in the V mode.  Measuring the
qubit observable ``cos(theta) Z + sin(theta) X`` corresponds to rotating
the mode pair by ``theta / 2`` and detecting both output ports.

Two-mode interference follows the convention ``a_1 -> sqrt(T) a_1 +
sqrt(1-T) a_2`` (equivalently, creation operators transform as
``a_1^dag -> sqrt(T) a_1^dag - sqrt(1-T) a_2^dag``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import expm
from scipy.special import comb

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
        n_max: Bound of dense views; raised on construction to the largest
            occupation present.
    """

    weights: np.ndarray
    branch: np.ndarray
    occ: np.ndarray
    amp: np.ndarray
    n_max: int = 0

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        branch = np.asarray(self.branch, dtype=np.intp)
        occ = np.asarray(self.occ, dtype=np.intp)
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
        ascending = (np.diff(branch) >= 0).all()
        if branch.size and not (ascending and 0 <= branch[0] and branch[-1] < weights.size):
            raise DimensionMismatchError("branch indices must ascend within [0, k)")
        if (occ < 0).any():
            raise DimensionMismatchError("occupations must be non-negative")
        negative = np.flatnonzero(weights < -1e-12)
        if negative.size:
            i = negative[0]
            raise StateValidationError(f"branch {i} has negative weight {weights[i]}")
        keep = weights > BRANCH_PRUNE_TOL
        if not keep.any():
            raise StateValidationError("all branches have zero weight")
        if not keep.all():
            rows = keep[branch]
            weights, branch = weights[keep], (np.cumsum(keep) - 1)[branch[rows]]
            occ, amp = occ[rows], amp[rows]
        total = weights.sum()
        if abs(total - 1.0) > 1e-7:
            raise StateValidationError(f"mixture weights sum to {total!r}, expected 1")
        norms = np.sqrt(np.bincount(branch, amp.real**2 + amp.imag**2, minlength=weights.size))
        off = np.flatnonzero(np.abs(norms - 1.0) > 1e-7)
        if off.size:
            i = off[0]
            raise StateValidationError(f"branch {i} is not normalized: |psi| = {norms[i]!r}")
        for name, arr in (("weights", weights), ("branch", branch), ("occ", occ), ("amp", amp)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n_max", max(int(self.n_max), int(occ.max(initial=0))))

    @property
    def branches(self) -> tuple[tuple[float, slice], ...]:
        """``(weight, rows)`` per branch; ``occ[rows]`` and ``amp[rows]`` hold its amplitudes."""
        bounds = np.searchsorted(self.branch, np.arange(self.weights.size + 1)).tolist()
        return tuple(zip(self.weights.tolist(), map(slice, bounds, bounds[1:])))

    @property
    def n_modes(self) -> int:
        return self.occ.shape[1]

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


def _mode_indices(state: ModeMixture, modes: Iterable[int]) -> list[int]:
    """``modes`` as a list, checked to be distinct integer modes of ``state``."""
    modes = list(modes)
    if len(set(modes)) != len(modes) or not all(
        isinstance(k, numbers.Integral) and 0 <= k < state.n_modes for k in modes
    ):
        raise DimensionMismatchError(f"invalid modes {tuple(modes)} for {state.n_modes} modes")
    return [int(k) for k in modes]


def _pure(rows: dict[tuple[int, ...], float], n_max: int) -> ModeMixture:
    """One pure branch of the nonzero ``{occupations: amplitude}`` rows, in ascending order."""
    occ = sorted(o for o, a in rows.items() if a != 0)
    return ModeMixture(np.ones(1), np.zeros(len(occ), np.intp), occ, [rows[o] for o in occ], n_max)


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


def _merged(weights, branch, occ, amp, n_max: int) -> ModeMixture:
    """Sum duplicate ``(branch, occupations)`` rows and drop the ones that cancel."""
    keys, index = _distinct(branch, occ)
    amp = np.bincount(index, amp.real) + 1j * np.bincount(index, amp.imag)
    keep = amp.real**2 + amp.imag**2 > BRANCH_PRUNE_TOL
    return ModeMixture(weights, keys[keep, 0], keys[keep, 1:], amp[keep], n_max)


def _split(weights, branch, key, occ, amp, n_max: int, like=1.0, total=1.0) -> ModeMixture:
    """Split every branch by ``key`` into normalized pure branches.

    The rows of branch ``b`` with one key value form a new branch of weight
    ``weights[b] * like * |rows|^2 / total``, where ``like`` (one value per
    row) is constant on it.  New branches whose unweighted ``like *
    |rows|^2`` is at most ``BRANCH_PRUNE_TOL`` are dropped.
    """
    groups, index = _distinct(branch, key)
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
        n_max=n_max,
    )


def vacuum(n_modes: int, n_max: int) -> ModeMixture:
    """The all-modes vacuum state."""
    return _pure({(0,) * n_modes: 1.0}, n_max)


def fock(occupations: Sequence[int], n_max: int) -> ModeMixture:
    """A Fock basis state ``|n1, ..., nk>``."""
    occ = tuple(int(n) for n in occupations)
    if any(n < 0 or n > n_max for n in occ):
        raise DimensionMismatchError(f"occupations {occ} outside truncation n_max={n_max}")
    return _pure({occ: 1.0}, n_max)


def mix(parts: Iterable[tuple[float, ModeMixture]]) -> ModeMixture:
    """Classical mixture of ``(probability, state)`` parts on the same modes.

    The parts' branches are concatenated, each weighted by its probability,
    and the weights renormalized, so the probabilities need not sum to one.
    """
    mixtures = [(float(p), m) for p, m in parts]
    offsets = np.cumsum([0] + [m.weights.size for _, m in mixtures])
    weights = np.concatenate([p * m.weights for p, m in mixtures])
    return ModeMixture(
        weights=weights / weights.sum(),
        branch=np.concatenate([m.branch + o for (_, m), o in zip(mixtures, offsets)]),
        occ=np.concatenate([m.occ for _, m in mixtures]),
        amp=np.concatenate([m.amp for _, m in mixtures]),
        n_max=max(m.n_max for _, m in mixtures),
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
        n_max=max(first.n_max, second.n_max),
    )


def permute_modes(state: ModeMixture, order: Sequence[int]) -> ModeMixture:
    """Reorder modes so that new mode ``k`` is old mode ``order[k]``."""
    order = _mode_indices(state, order)
    if len(order) != state.n_modes:
        raise DimensionMismatchError(f"invalid mode order {order} for {state.n_modes} modes")
    return ModeMixture(state.weights, state.branch, state.occ[:, order], state.amp, state.n_max)


def phase_shift(state: ModeMixture, mode: int, phase_per_photon: float) -> ModeMixture:
    """Multiply amplitudes by ``exp(i * phase * n_mode)`` (a mode phase shift)."""
    (mode,) = _mode_indices(state, [mode])
    phases = np.exp(1j * phase_per_photon * state.occ[:, mode])
    return ModeMixture(state.weights, state.branch, state.occ, state.amp * phases, state.n_max)


def mode_density(state: ModeMixture, modes: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of a subset of modes, in Fock basis.

    Args:
        state: Any mode state.
        modes: Mode indices to keep, in the order they should appear.

    Returns:
        Density matrix of dimension ``(n_max + 1) ** len(modes)``.
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
    n>``, in which ``a1^dag a2`` has ``A[n + 1, n] = sqrt((n + 1) (t - n))``.
    """
    blocks = np.zeros((top + 1, top + 1, top + 1))
    for t in range(top + 1):
        n = np.arange(t)
        a = np.zeros((t + 1, t + 1))
        a[n + 1, n] = np.sqrt((n + 1) * (t - n))
        blocks[t, : t + 1, : t + 1] = expm(phi * (a - a.T))
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
    return _merged(m.weights, m.branch[src], occ, amp, m.n_max)


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
    kraus = np.sqrt(comb(n[src], lost) * eta**kept * (1.0 - eta) ** lost)
    occ = state.occ[src]
    occ[:, mode] = kept
    return _split(state.weights, state.branch[src], lost, occ, state.amp[src] * kraus, state.n_max)


def distance_to_transmission(length_km: float, attenuation_db_per_km: float = 0.2) -> float:
    """Fiber power transmission over a given length.

    ``T = 10 ** (-attenuation * L / 10)``; the default 0.2 dB/km is standard
    telecom fiber.
    """
    if length_km < 0:
        raise ValueError(f"length must be non-negative, got {length_km}")
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
    makes interference-based heralding work).

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
    modes = _mode_indices(state, modes)
    pattern = [int(bool(c)) for c in pattern]
    if len(pattern) != len(modes):
        raise DimensionMismatchError("pattern length must match number of measured modes")
    content = state.occ[:, modes]
    # Probability of the pattern given each row's Fock content of the measured modes.
    like = detector.outcome_matrix(state.n_max)[content, pattern].prod(axis=1)
    # Not ``_row_probabilities() @ like``: rounding each weighted row first
    # moves herald probabilities in their last bit.
    power = state.amp.real**2 + state.amp.imag**2
    total = float(state.weights[state.branch] @ (power * like))
    if total <= BRANCH_PRUNE_TOL:
        return 0.0, None
    if len(modes) == state.n_modes:
        return total, None
    rest = [k for k in range(state.n_modes) if k not in modes]
    return total, _split(
        state.weights, state.branch, content, state.occ[:, rest], state.amp, state.n_max, like, total
    )


def polarization_correlation_table(
    state: ModeMixture,
    alice_modes: tuple[int, int],
    bob_modes: tuple[int, int],
    alice_angles: Sequence[float],
    bob_angles: Sequence[float],
    detector: DetectorModel | None = None,
):
    """Joint polarization-measurement statistics of a two-qubit mode state.

    For every setting pair, both mode pairs are rotated by their measurement
    angles and all four output ports are watched by threshold detectors.
    Per party the click pattern maps to an outcome by ``OUTCOME_CODES``::

        0: H-port click only   (observable value +1)
        1: V-port click only   (observable value -1)
        2: no click            (NO_CLICK)
        3: both ports click    (DOUBLE_CLICK)

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
    a_h, a_v, b_h, b_v = _mode_indices(state, (*alice_modes, *bob_modes))
    n_out = len(OUTCOME_CODES)
    table = np.zeros((len(alice_angles), len(bob_angles), n_out, n_out))
    for x, theta_a in enumerate(alice_angles):
        rotated_a = polarization_rotation(state, a_h, a_v, float(theta_a))
        for y, theta_b in enumerate(bob_angles):
            rotated = polarization_rotation(rotated_a, b_h, b_v, float(theta_b))
            clicks = detection_probabilities(rotated, (a_h, a_v, b_h, b_v), detector)
            for (ah, av), a_out in OUTCOME_CODES.items():
                for (bh, bv), b_out in OUTCOME_CODES.items():
                    table[x, y, a_out, b_out] += clicks[ah, av, bh, bv]
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
        A pure four-mode state with ``n_max = n_pair_max``.
    """
    # The normalized n-pair term is sum_k (-1)^(n-k) |k, n-k, n-k, k> / sqrt(n+1).
    rows = {
        (k, n - k, n - k, k): np.sqrt(weight / (n + 1)) * (-1.0) ** (n - k)
        for n, weight in enumerate(_pair_weights(pair_prob, n_pair_max))
        for k in range(n + 1)
    }
    return _pure(rows, n_pair_max)


def polarization_singlet() -> ModeMixture:
    """One polarization singlet ``(|HV> - |VH>)/sqrt(2)`` on modes ``(a_H, a_V, b_H, b_V)``.

    Its dense view holds up to two photons per mode (``n_max = 2``).
    """
    return _pure({(1, 0, 0, 1): 1.0 / np.sqrt(2.0), (0, 1, 1, 0): -1.0 / np.sqrt(2.0)}, 2)


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
        success_probability: Total probability of the four heralding
            patterns.
        outcomes: The four patterns; labels identify the Bell state onto
            which the measured qubit pair was projected.
    """

    success_probability: float
    outcomes: tuple[BsmOutcome, ...]


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
    measured = (h1, v1, h2, v2)
    outcomes = []
    total = 0.0
    for label, pattern in _BSM_PATTERNS:
        prob, conditional = threshold_detect(mixed, measured, detector, pattern)
        total += prob
        outcomes.append(
            BsmOutcome(label=label, pattern=pattern, probability=float(prob), state=conditional)
        )
    return BsmResult(success_probability=float(total), outcomes=tuple(outcomes))


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
    n_modes, n_max = state.n_modes, state.n_max

    # Ancilla preparation on four new modes (tH, rH, tV, rV), appended after
    # the existing ones.
    trigger_prob = 1.0
    if ancilla_pair_prob is None:
        ancilla_h = ancilla_v = fock([1], n_max)
    else:
        source_h = heralded_single_photon(ancilla_pair_prob, trigger_detector)
        source_v = heralded_single_photon(ancilla_pair_prob, trigger_detector)
        if source_h.conditional_state is None or source_v.conditional_state is None:
            return HeraldRecord(success_probability=0.0, conditional_state=None, gain=None)
        trigger_prob = source_h.success_probability * source_v.success_probability
        ancilla_h = source_h.conditional_state
        ancilla_v = source_v.conditional_state

    t_h, r_h, t_v, r_v = n_modes, n_modes + 1, n_modes + 2, n_modes + 3
    work = tensor_modes(state, tensor_modes(ancilla_h, vacuum(1, n_max)))
    work = tensor_modes(work, tensor_modes(ancilla_v, vacuum(1, n_max)))
    work = beamsplitter(work, t_h, r_h, transmission)
    work = beamsplitter(work, t_v, r_v, transmission)

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
    success = sum(p for p, _ in heralds)
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
    return float(detector_efficiency**2 * (1.0 - transmission) * pair_prob**2)
