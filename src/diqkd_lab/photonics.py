"""Photonic mode simulation in truncated Fock space.

States live on ``n_modes`` bosonic modes, each truncated at ``n_max``
photons; a pure state is a complex amplitude array of shape
``(n_max + 1, ..., n_max + 1)``.  Mixed states are represented as explicit
ensembles of pure branches (:class:`ModeMixture`), which keeps long
pipelines exact without ever materializing a density matrix on the full
mode space: loss splits a pure state into one pure branch per number of
lost photons, and destructive threshold detection splits it into one
branch per Fock content of the measured modes.

Polarization qubits are encoded in mode pairs ``(H, V)``: ``|H>`` is one
photon in the H mode, ``|V>`` one photon in the V mode.  Measuring the
qubit observable ``cos(theta) Z + sin(theta) X`` corresponds to rotating
the mode pair by ``theta / 2`` and detecting both output ports.

Two-mode interference follows the convention ``a_1 -> sqrt(T) a_1 +
sqrt(1-T) a_2`` (equivalently, creation operators transform as
``a_1^dag -> sqrt(T) a_1^dag - sqrt(1-T) a_2^dag``).  The block is exact on
every total-photon sector that fits inside the truncation; inputs with
more than ``n_max`` photons across the two modes raise
:class:`TruncationOverflowError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np
from scipy.linalg import expm
from scipy.special import comb

from diqkd_lab.qstate import DimensionMismatchError, StateValidationError

__all__ = [
    "TruncationOverflowError",
    "ModeState",
    "ModeMixture",
    "DetectorModel",
    "HeraldRecord",
    "BsmOutcome",
    "BsmResult",
    "vacuum",
    "fock",
    "tensor_modes",
    "permute_modes",
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

# Photon-number mass allowed beyond a beamsplitter's exact sectors before the
# pipeline refuses to continue.
OVERFLOW_TOL = 1e-6

# Pure branches below this weight are dropped from mixtures (they carry no
# probability at double precision).
BRANCH_PRUNE_TOL = 1e-30

# Guard against accidentally huge amplitude arrays (dense ops beyond this are
# better served by a different representation).
MAX_AMPLITUDES = 2_000_000


class TruncationOverflowError(RuntimeError):
    """Raised when photon amplitudes would spill past the Fock truncation."""


# --------------------------------------------------------------------------
# States
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeState:
    """A pure state of ``n_modes`` bosonic modes truncated at ``n_max`` photons.

    Attributes:
        amplitudes: Complex array of shape ``(n_max + 1,) * n_modes``;
            ``amplitudes[n1, ..., nk]`` is the amplitude of the Fock basis
            state ``|n1, ..., nk>``.  Must be normalized.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=complex, copy=True)
        if arr.ndim < 1:
            raise DimensionMismatchError("a mode state needs at least one mode")
        d = arr.shape[0]
        if any(s != d for s in arr.shape):
            raise DimensionMismatchError(
                f"all modes must share one truncation, got shape {arr.shape}"
            )
        if arr.size > MAX_AMPLITUDES:
            raise DimensionMismatchError(
                f"amplitude array of size {arr.size} exceeds MAX_AMPLITUDES={MAX_AMPLITUDES}"
            )
        norm = np.linalg.norm(arr.ravel())
        if abs(norm - 1.0) > 1e-7:
            raise StateValidationError(f"mode state is not normalized: |psi| = {norm!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def n_modes(self) -> int:
        return self.amplitudes.ndim

    @property
    def n_max(self) -> int:
        return self.amplitudes.shape[0] - 1

    def probability(self, occupations: Sequence[int]) -> float:
        """Probability of finding exactly the given photon numbers."""
        return float(abs(self.amplitudes[tuple(int(n) for n in occupations)]) ** 2)

    def mean_photons(self, mode: int) -> float:
        """Mean photon number in one mode."""
        probs = np.abs(self.amplitudes) ** 2
        axes = tuple(i for i in range(self.n_modes) if i != mode)
        per_n = probs.sum(axis=axes) if axes else probs
        return float(per_n @ np.arange(self.n_max + 1))


@dataclass(frozen=True)
class ModeMixture:
    """A classical mixture of pure mode states.

    Attributes:
        branches: ``(weight, state)`` pairs; weights are positive and sum
            to one, and all states share mode count and truncation.
    """

    branches: tuple[tuple[float, ModeState], ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise StateValidationError("a mixture needs at least one branch")
        cleaned = []
        for i, (w, s) in enumerate(self.branches):
            w = float(w)
            if w < -1e-12:
                raise StateValidationError(f"branch {i} has negative weight {w}")
            if not isinstance(s, ModeState):
                raise StateValidationError(f"branch {i} is not a ModeState")
            if w > BRANCH_PRUNE_TOL:
                cleaned.append((w, s))
        if not cleaned:
            raise StateValidationError("all branches have zero weight")
        shape = cleaned[0][1].amplitudes.shape
        for _, s in cleaned:
            if s.amplitudes.shape != shape:
                raise DimensionMismatchError("mixture branches disagree on modes/truncation")
        total = sum(w for w, _ in cleaned)
        if abs(total - 1.0) > 1e-7:
            raise StateValidationError(f"mixture weights sum to {total!r}, expected 1")
        object.__setattr__(self, "branches", tuple(cleaned))

    @classmethod
    def pure(cls, state: ModeState) -> "ModeMixture":
        return cls(branches=((1.0, state),))

    @property
    def n_modes(self) -> int:
        return self.branches[0][1].n_modes

    @property
    def n_max(self) -> int:
        return self.branches[0][1].n_max

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def probability(self, occupations: Sequence[int]) -> float:
        """Probability of finding exactly the given photon numbers."""
        return float(sum(w * s.probability(occupations) for w, s in self.branches))


AnyModeState = Union[ModeState, ModeMixture]


def _branches(state: AnyModeState) -> tuple[tuple[float, ModeState], ...]:
    if isinstance(state, ModeState):
        return ((1.0, state),)
    return state.branches


def _repack(branches: Iterable[tuple[float, np.ndarray]]) -> ModeMixture:
    packed = [
        (w, ModeState(amplitudes=arr)) for w, arr in branches if w > BRANCH_PRUNE_TOL
    ]
    return ModeMixture(branches=tuple(packed))


def vacuum(n_modes: int, n_max: int) -> ModeState:
    """The all-modes vacuum state."""
    arr = np.zeros((n_max + 1,) * n_modes, dtype=complex)
    arr[(0,) * n_modes] = 1.0
    return ModeState(amplitudes=arr)


def fock(occupations: Sequence[int], n_max: int) -> ModeState:
    """A Fock basis state ``|n1, ..., nk>``."""
    occ = tuple(int(n) for n in occupations)
    if any(n < 0 or n > n_max for n in occ):
        raise DimensionMismatchError(f"occupations {occ} outside truncation n_max={n_max}")
    arr = np.zeros((n_max + 1,) * len(occ), dtype=complex)
    arr[occ] = 1.0
    return ModeState(amplitudes=arr)


def tensor_modes(first: AnyModeState, second: AnyModeState) -> AnyModeState:
    """Tensor product; the second state's modes come after the first's."""
    if (isinstance(first, ModeState) and isinstance(second, ModeState)):
        arr = np.tensordot(first.amplitudes, second.amplitudes, axes=0)
        return ModeState(amplitudes=arr)
    combined = []
    for wa, sa in _branches(first):
        for wb, sb in _branches(second):
            combined.append((wa * wb, np.tensordot(sa.amplitudes, sb.amplitudes, axes=0)))
    return _repack(combined)


def permute_modes(state: AnyModeState, order: Sequence[int]) -> AnyModeState:
    """Reorder modes so that new mode ``k`` is old mode ``order[k]``."""
    order = tuple(int(i) for i in order)
    if isinstance(state, ModeState):
        return ModeState(amplitudes=np.transpose(state.amplitudes, order))
    return ModeMixture(
        branches=tuple(
            (w, ModeState(amplitudes=np.transpose(s.amplitudes, order)))
            for w, s in state.branches
        )
    )


def mode_density(state: AnyModeState, modes: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of a subset of modes, in Fock basis.

    Args:
        state: Any mode state.
        modes: Mode indices to keep, in the order they should appear.

    Returns:
        Density matrix of dimension ``(n_max + 1) ** len(modes)``.
    """
    modes = tuple(int(m) for m in modes)
    first = _branches(state)[0][1]
    if len(set(modes)) != len(modes) or any(m < 0 or m >= first.n_modes for m in modes):
        raise DimensionMismatchError(f"invalid mode subset {modes}")
    d = first.n_max + 1
    dim = d ** len(modes)
    rho = np.zeros((dim, dim), dtype=complex)
    for w, s in _branches(state):
        rest = [i for i in range(s.n_modes) if i not in modes]
        mat = np.transpose(s.amplitudes, modes + tuple(rest)).reshape(dim, -1)
        rho += w * (mat @ mat.conj().T)
    return rho


# --------------------------------------------------------------------------
# Linear optics
# --------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _two_mode_block(n_max: int, phi: float) -> np.ndarray:
    """Unitary ``exp(phi (a1^dag a2 - a1 a2^dag))`` on two truncated modes."""
    d = n_max + 1
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = np.sqrt(n)
    a1 = np.kron(a, np.eye(d))
    a2 = np.kron(np.eye(d), a)
    gen = phi * (a1.conj().T @ a2 - a1 @ a2.conj().T)
    return expm(gen)


def _apply_two_mode(arr: np.ndarray, i: int, j: int, block: np.ndarray) -> np.ndarray:
    d = arr.shape[0]
    moved = np.moveaxis(arr, (i, j), (0, 1))
    flat = moved.reshape(d * d, -1)
    out = (block @ flat).reshape(moved.shape)
    return np.moveaxis(out, (0, 1), (i, j))


def _check_overflow(arr: np.ndarray, i: int, j: int) -> None:
    d = arr.shape[0]
    n_max = d - 1
    probs = np.abs(np.moveaxis(arr, (i, j), (0, 1))) ** 2
    totals = np.add.outer(np.arange(d), np.arange(d))
    mass = probs.reshape(d, d, -1).sum(axis=2)
    overflow = float(mass[totals > n_max].sum())
    if overflow > OVERFLOW_TOL:
        raise TruncationOverflowError(
            f"{overflow:.3e} probability sits in sectors with more than "
            f"{n_max} photons across the interfering modes; raise n_max"
        )


def _unitary_pair_op(state: AnyModeState, i: int, j: int, phi: float) -> AnyModeState:
    first = _branches(state)[0][1]
    n = first.n_modes
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise DimensionMismatchError(f"invalid mode pair ({i}, {j}) for {n} modes")
    block = _two_mode_block(first.n_max, float(phi))
    if isinstance(state, ModeState):
        _check_overflow(state.amplitudes, i, j)
        return ModeState(amplitudes=_apply_two_mode(state.amplitudes, i, j, block))
    out = []
    for w, s in state.branches:
        _check_overflow(s.amplitudes, i, j)
        out.append((w, ModeState(amplitudes=_apply_two_mode(s.amplitudes, i, j, block))))
    return ModeMixture(branches=tuple(out))


def beamsplitter(state: AnyModeState, mode_a: int, mode_b: int, transmission: float) -> AnyModeState:
    """Interfere two modes on a beamsplitter of the given transmission.

    Args:
        state: Input state (pure or mixture); purity is preserved.
        mode_a: Transmitted mode (``a -> sqrt(T) a + sqrt(1-T) b``).
        mode_b: Reflected mode.
        transmission: Power transmission ``T`` in ``[0, 1]``.

    Raises:
        TruncationOverflowError: If more than ``OVERFLOW_TOL`` of the photon
            number mass lies in sectors the truncation cannot represent.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {transmission}")
    phi = float(np.arccos(np.sqrt(transmission)))
    return _unitary_pair_op(state, int(mode_a), int(mode_b), phi)


def polarization_rotation(state: AnyModeState, h_mode: int, v_mode: int, angle: float) -> AnyModeState:
    """Rotate a polarization qubit so a qubit measurement becomes H/V detection.

    After rotating by ``angle``, a click in the H port corresponds to
    outcome 0 (+1) of the qubit observable ``cos(angle) Z + sin(angle) X``
    and a click in the V port to outcome 1 (-1).
    """
    return _unitary_pair_op(state, int(h_mode), int(v_mode), float(angle) / 2.0)


def loss_channel(state: AnyModeState, mode: int, transmission: float) -> ModeMixture:
    """Photon loss on one mode, decomposed into pure branches.

    Branch ``l`` corresponds to the environment absorbing exactly ``l``
    photons; each branch stays pure, so mixtures remain compact ensembles.

    Args:
        state: Input state.
        mode: Mode subject to loss.
        transmission: Survival probability ``eta`` of each photon.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {transmission}")
    first = _branches(state)[0][1]
    n_max, n_modes = first.n_max, first.n_modes
    mode = int(mode)
    if not 0 <= mode < n_modes:
        raise DimensionMismatchError(f"mode {mode} out of range for {n_modes} modes")
    eta = float(transmission)
    d = n_max + 1
    ns = np.arange(d)
    out: list[tuple[float, np.ndarray]] = []
    for w, s in _branches(state):
        arr = np.moveaxis(s.amplitudes, mode, 0)
        for lost in range(d):
            # Kraus branch: |n> -> sqrt(C(n, l) eta^(n-l) (1-eta)^l) |n - l>.
            kept = ns[lost:] - lost
            if eta == 0.0:
                coeff = np.where(ns[lost:] == lost, 1.0, 0.0)
            else:
                coeff = np.sqrt(
                    comb(ns[lost:], lost) * eta ** kept * (1.0 - eta) ** lost
                )
            branch = np.zeros_like(arr)
            branch[: d - lost] = coeff.reshape((-1,) + (1,) * (arr.ndim - 1)) * arr[lost:]
            weight = float(np.sum(np.abs(branch) ** 2))
            if weight <= BRANCH_PRUNE_TOL:
                continue
            branch = np.moveaxis(branch / np.sqrt(weight), 0, mode)
            out.append((w * weight, branch))
    return _repack(out)


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

    def click_probability(self, n_photons: int) -> float:
        """Click probability given an exact photon number."""
        return 1.0 - (1.0 - self.dark_count_prob) * (1.0 - self.efficiency) ** n_photons

    def outcome_matrix(self, n_max: int) -> np.ndarray:
        """Columns ``[P(no click | n), P(click | n)]`` for ``n = 0..n_max``."""
        ns = np.arange(n_max + 1)
        click = 1.0 - (1.0 - self.dark_count_prob) * (1.0 - self.efficiency) ** ns
        return np.stack([1.0 - click, click], axis=1)


def detection_probabilities(
    state: AnyModeState, modes: Sequence[int], detector: DetectorModel
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
    modes = tuple(int(m) for m in modes)
    first = _branches(state)[0][1]
    q = detector.outcome_matrix(first.n_max)
    total = np.zeros((2,) * len(modes))
    for w, s in _branches(state):
        probs = np.abs(s.amplitudes) ** 2
        # Contract every unmeasured axis to a scalar, measured axes with q.
        t = probs
        for axis in sorted(set(range(s.n_modes)) - set(modes), reverse=True):
            t = t.sum(axis=axis)
        remaining = [m for m in sorted(modes)]
        for _ in range(len(remaining)):
            t = np.tensordot(t, q, axes=([0], [0]))
        # tensordot moved axes to the back in sorted-mode order; restore the
        # requested order.
        order = [sorted(modes).index(m) for m in modes]
        total += w * np.transpose(t, order)
    return total


def threshold_detect(
    state: AnyModeState,
    modes: Sequence[int],
    detector: DetectorModel,
    pattern: Sequence[bool],
    *,
    discard: bool = True,
) -> tuple[float, AnyModeState | None]:
    """Condition a state on one specific click pattern.

    By default the detection is destructive: the measured modes are removed
    and the survivors form a mixture over the possible Fock contents of the
    absorbed modes (coherence within a content class is preserved, which is
    what makes interference-based heralding work).  With ``discard=False``
    the measured modes are kept and the diagonal measurement operator's
    square root is applied instead, so pure states stay pure.

    Args:
        state: Input state.
        modes: Measured modes.
        detector: Threshold detector model.
        pattern: Click (True) / silence (False) per measured mode.
        discard: Remove measured modes from the returned state.

    Returns:
        ``(probability, conditional_state)``; the state is None when the
        pattern has (numerically) zero probability, or when all modes were
        measured and discarded.
    """
    modes = tuple(int(m) for m in modes)
    pattern = tuple(bool(c) for c in pattern)
    if len(pattern) != len(modes):
        raise DimensionMismatchError("pattern length must match number of measured modes")
    first = _branches(state)[0][1]
    n_max, n_modes = first.n_max, first.n_modes
    d = n_max + 1
    q = detector.outcome_matrix(n_max)
    weight_vecs = [q[:, 1] if click else q[:, 0] for click in pattern]

    if not discard:
        out = []
        total = 0.0
        for w, s in _branches(state):
            arr = s.amplitudes.copy()
            for mode, vec in zip(modes, weight_vecs):
                shape = [1] * n_modes
                shape[mode] = d
                arr = arr * np.sqrt(vec).reshape(shape)
            prob = float(np.sum(np.abs(arr) ** 2))
            total += w * prob
            if w * prob > BRANCH_PRUNE_TOL:
                out.append((w * prob, arr / np.sqrt(prob)))
        if total <= BRANCH_PRUNE_TOL or not out:
            return 0.0, None
        return total, _repack([(w / total, a) for w, a in out])

    kept = tuple(i for i in range(n_modes) if i not in modes)
    out = []
    total = 0.0
    for w, s in _branches(state):
        # Rows: one per Fock content of the measured modes.
        mat = np.transpose(s.amplitudes, modes + kept).reshape(d ** len(modes), -1)
        content_weight = np.ones(d ** len(modes))
        for k, vec in enumerate(weight_vecs):
            reps_inner = d ** (len(modes) - k - 1)
            content_weight *= np.repeat(np.tile(vec, d**k), reps_inner)
        row_norms = np.sum(np.abs(mat) ** 2, axis=1)
        branch_weights = content_weight * row_norms
        total += w * float(branch_weights.sum())
        for idx in np.nonzero(branch_weights > BRANCH_PRUNE_TOL)[0]:
            amp = mat[idx].reshape((d,) * len(kept)) if kept else None
            if amp is not None:
                out.append((w * branch_weights[idx], amp / np.sqrt(row_norms[idx])))
    if total <= BRANCH_PRUNE_TOL:
        return 0.0, None
    if not kept:
        return float(total), None
    return float(total), _repack([(w / total, a) for w, a in out])


def polarization_correlation_table(
    state: AnyModeState,
    alice_modes: tuple[int, int],
    bob_modes: tuple[int, int],
    alice_angles: Sequence[float],
    bob_angles: Sequence[float],
    detector: DetectorModel | None = None,
):
    """Joint polarization-measurement statistics of a two-qubit mode state.

    For every setting pair, both mode pairs are rotated by their measurement
    angles and all four output ports are watched by threshold detectors.
    Per party the click pattern maps to four outcomes::

        0: H-port click only   (observable value +1)
        1: V-port click only   (observable value -1)
        2: no click
        3: both ports click

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
    from diqkd_lab.qstate import CorrelationTable

    detector = detector or DetectorModel()
    a_h, a_v = (int(m) for m in alice_modes)
    b_h, b_v = (int(m) for m in bob_modes)
    if len({a_h, a_v, b_h, b_v}) != 4:
        raise DimensionMismatchError("measurement needs four distinct modes")
    # Click pattern (H, V) -> outcome code.
    code = {(1, 0): 0, (0, 1): 1, (0, 0): 2, (1, 1): 3}
    table = np.zeros((len(alice_angles), len(bob_angles), 4, 4))
    for x, theta_a in enumerate(alice_angles):
        rotated_a = polarization_rotation(state, a_h, a_v, float(theta_a))
        for y, theta_b in enumerate(bob_angles):
            rotated = polarization_rotation(rotated_a, b_h, b_v, float(theta_b))
            clicks = detection_probabilities(rotated, (a_h, a_v, b_h, b_v), detector)
            for (ah, av), a_out in code.items():
                for (bh, bv), b_out in code.items():
                    table[x, y, a_out, b_out] += clicks[ah, av, bh, bv]
    return CorrelationTable(probabilities=table)


# --------------------------------------------------------------------------
# Sources
# --------------------------------------------------------------------------


def _create(arr: np.ndarray, mode: int) -> np.ndarray:
    """Apply a creation operator (dropping amplitudes pushed past n_max)."""
    d = arr.shape[0]
    moved = np.moveaxis(arr, mode, 0)
    out = np.zeros_like(moved)
    ns = np.sqrt(np.arange(1, d)).reshape((-1,) + (1,) * (moved.ndim - 1))
    out[1:] = ns * moved[: d - 1]
    return np.moveaxis(out, 0, mode)


def _pair_weights(pair_prob: float, n_pair_max: int) -> np.ndarray:
    """Geometric pair-number weights ``(1 - p) p^n``, ``n <= n_pair_max``, normalized."""
    if not 0.0 <= pair_prob < 1.0:
        raise ValueError(f"pair_prob must lie in [0, 1), got {pair_prob}")
    weights = np.array(
        [(1.0 - pair_prob) * pair_prob**n for n in range(n_pair_max + 1)], dtype=float
    )
    return weights / weights.sum()


def spdc_source(
    pair_prob: float, n_pair_max: int = 2, n_max: int = 4
) -> ModeState:
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
        n_pair_max: Largest retained pair number.
        n_max: Per-mode Fock truncation of the returned state.

    Returns:
        A pure four-mode state.
    """
    if n_pair_max < 0 or n_pair_max > n_max:
        raise ValueError(f"n_pair_max must lie in [0, n_max], got {n_pair_max}")
    weights = _pair_weights(pair_prob, n_pair_max)
    d = n_max + 1
    term = np.zeros((d, d, d, d), dtype=complex)
    term[0, 0, 0, 0] = 1.0
    total = np.sqrt(weights[0]) * term
    for n in range(1, n_pair_max + 1):
        # Apply the pair-creation operator once more.
        term = (_create(_create(term, 0), 3) - _create(_create(term, 1), 2)) / np.sqrt(2.0)
        norm = np.linalg.norm(term.ravel())
        if norm <= 0:
            raise TruncationOverflowError(
                f"{n}-pair term vanished at truncation n_max={n_max}; raise n_max"
            )
        total = total + np.sqrt(weights[n]) * term / norm
    return ModeState(amplitudes=total)


def polarization_singlet(n_max: int = 2) -> ModeState:
    """One polarization singlet ``(|HV> - |VH>)/sqrt(2)`` on modes ``(a_H, a_V, b_H, b_V)``."""
    d = n_max + 1
    arr = np.zeros((d, d, d, d), dtype=complex)
    arr[1, 0, 0, 1] = 1.0 / np.sqrt(2.0)
    arr[0, 1, 1, 0] = -1.0 / np.sqrt(2.0)
    return ModeState(amplitudes=arr)


def heralded_single_photon(
    pair_prob: float,
    trigger_detector: DetectorModel,
    n_max: int,
    n_pair_max: int = 2,
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
        n_max: Truncation of the returned single-mode state.
        n_pair_max: Largest retained pair number.

    Returns:
        A :class:`HeraldRecord` whose ``conditional_state`` is the
        single-mode signal state given a trigger click.
    """
    weights = _pair_weights(pair_prob, n_pair_max)
    branches = []
    trigger_prob = 0.0
    for n, w in enumerate(weights):
        p_click = trigger_detector.click_probability(n)
        weight = float(w * p_click)
        trigger_prob += weight
        if weight > BRANCH_PRUNE_TOL:
            branches.append((weight, fock([n], n_max)))
    if trigger_prob <= BRANCH_PRUNE_TOL:
        return HeraldRecord(success_probability=0.0, conditional_state=None, gain=None)
    mixture = ModeMixture(
        branches=tuple((w / trigger_prob, s) for w, s in branches)
    )
    return HeraldRecord(
        success_probability=float(trigger_prob), conditional_state=mixture, gain=None
    )


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

    def outcome(self, label: str) -> tuple[BsmOutcome, ...]:
        return tuple(o for o in self.outcomes if o.label == label)


_BSM_PATTERNS: tuple[tuple[str, tuple[bool, bool, bool, bool]], ...] = (
    ("psi+", (True, True, False, False)),
    ("psi+", (False, False, True, True)),
    ("psi-", (True, False, False, True)),
    ("psi-", (False, True, True, False)),
)


def bell_state_measurement(
    state: AnyModeState,
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
    h1, v1 = (int(m) for m in modes_1)
    h2, v2 = (int(m) for m in modes_2)
    if len({h1, v1, h2, v2}) != 4:
        raise DimensionMismatchError("Bell measurement needs four distinct modes")
    mixed = beamsplitter(state, h1, h2, 0.5)
    mixed = beamsplitter(mixed, v1, v2, 0.5)
    measured = (h1, v1, h2, v2)
    outcomes = []
    total = 0.0
    for label, pattern in _BSM_PATTERNS:
        prob, conditional = threshold_detect(mixed, measured, detector, pattern)
        total += prob
        if conditional is not None and not isinstance(conditional, ModeMixture):
            conditional = ModeMixture.pure(conditional)
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
    conditional_state: AnyModeState | None
    gain: float | None


def _qubit_populations(state: AnyModeState, h_mode: int, v_mode: int) -> tuple[float, float]:
    """(vacuum, single-photon) populations of a polarization mode pair."""
    rho = mode_density(state, (h_mode, v_mode))
    d = _branches(state)[0][1].n_max + 1
    vac = float(np.real(rho[0, 0]))
    single = float(np.real(rho[1, 1] + rho[d, d]))
    return vac, single


def _phase_on_occupation(
    state: AnyModeState, mode: int, phase_per_photon: float
) -> AnyModeState:
    """Multiply amplitudes by ``exp(i * phase * n_mode)`` (a mode phase shift)."""
    first = _branches(state)[0][1]
    d = first.n_max + 1
    shape = [1] * first.n_modes
    shape[mode] = d
    phases = np.exp(1j * phase_per_photon * np.arange(d)).reshape(shape)
    if isinstance(state, ModeState):
        return ModeState(amplitudes=state.amplitudes * phases)
    return ModeMixture(
        branches=tuple(
            (w, ModeState(amplitudes=s.amplitudes * phases)) for w, s in state.branches
        )
    )


def qubit_amplifier(
    state: AnyModeState,
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
    in_h, in_v = (int(m) for m in input_modes)
    first = _branches(state)[0][1]
    n_modes, n_max = first.n_modes, first.n_max

    # Ancilla preparation on four new modes (tH, rH, tV, rV), appended after
    # the existing ones.
    trigger_prob = 1.0
    if ancilla_pair_prob is None:
        ancilla_h: AnyModeState = fock([1], n_max)
        ancilla_v: AnyModeState = fock([1], n_max)
    else:
        source_h = heralded_single_photon(ancilla_pair_prob, trigger_detector, n_max)
        source_v = heralded_single_photon(ancilla_pair_prob, trigger_detector, n_max)
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
    # After removing (in_h, in_v, r_h, r_v), the ancilla transmitted modes
    # sit at the end of the survivor list.
    survivors = [m for m in range(n_modes + 4) if m not in (in_h, in_v, r_h, r_v)]
    out_h, out_v = survivors.index(t_h), survivors.index(t_v)

    merged: list[tuple[float, ModeState]] = []
    success = 0.0
    for outcome in bsm.outcomes:
        if outcome.state is None or outcome.probability <= BRANCH_PRUNE_TOL:
            continue
        corrected = outcome.state
        # Feed-forward: under this module's beamsplitter sign convention, a
        # click on the first output port imprints a minus sign on the
        # teleported photon of that polarization; undo it so every herald
        # yields the same output state.
        if outcome.pattern[0]:
            corrected = _phase_on_occupation(corrected, out_h, np.pi)
        if outcome.pattern[1]:
            corrected = _phase_on_occupation(corrected, out_v, np.pi)
        success += outcome.probability
        for w, s in _branches(corrected):
            merged.append((outcome.probability * w, s))
    success_total = trigger_prob * success
    if success <= BRANCH_PRUNE_TOL:
        return HeraldRecord(success_probability=0.0, conditional_state=None, gain=None)
    conditional = ModeMixture(branches=tuple((w / success, s) for w, s in merged))

    # Put the output modes back where the input modes were: survivors are
    # currently ordered (other modes..., tH, tV) with the other modes keeping
    # their relative order.
    final_order = []
    remaining = [i for i in range(conditional.n_modes) if i not in (out_h, out_v)]
    it = iter(remaining)
    for m in range(n_modes):
        if m == in_h:
            final_order.append(out_h)
        elif m == in_v:
            final_order.append(out_v)
        else:
            final_order.append(next(it))
    conditional = permute_modes(conditional, final_order)

    gain = None
    vac_out, single_out = _qubit_populations(conditional, in_h, in_v)
    if vac_in > 0 and single_in > 0 and vac_out > 0 and single_out > 0:
        gain = float(np.sqrt((single_out / vac_out) / (single_in / vac_in)))
    return HeraldRecord(
        success_probability=float(success_total), conditional_state=conditional, gain=gain
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
    """
    return float(detector_efficiency**2 * (1.0 - transmission) * pair_prob**2)
