"""Photonic mode simulation in truncated Fock space.

States live on ``n_modes`` bosonic modes, each truncated at ``n_max``
photons; a pure state (:class:`ModeState`) is a complex amplitude array of
shape ``(n_max + 1, ..., n_max + 1)``.  Mixed states are explicit ensembles
of pure branches stored as one stack (:class:`ModeMixture`): a weight
vector of shape ``(k,)`` and an amplitude array of shape ``(k, n_max + 1,
..., n_max + 1)``.  This keeps long pipelines exact without ever
materializing a density matrix on the full mode space: loss splits each
branch into one pure branch per number of lost photons, and destructive
threshold detection splits it into one branch per Fock content of the
measured modes.  Every operation reads a pure state as the one-branch
stack and acts on the whole stack at once; :func:`mix` forms weighted
unions of states.

Polarization qubits are encoded in mode pairs ``(H, V)``: ``|H>`` is one
photon in the H mode, ``|V>`` one photon in the V mode.  Measuring the
qubit observable ``cos(theta) Z + sin(theta) X`` corresponds to rotating
the mode pair by ``theta / 2`` and detecting both output ports.

Two-mode interference follows the convention ``a_1 -> sqrt(T) a_1 +
sqrt(1-T) a_2`` (equivalently, creation operators transform as
``a_1^dag -> sqrt(T) a_1^dag - sqrt(1-T) a_2^dag``).  The block is exact on
every total-photon sector that fits inside the truncation; a branch with
more than ``n_max`` photons across the two modes raises
:class:`TruncationOverflowError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence, Union

import numpy as np
from scipy.linalg import expm
from scipy.special import comb

from diqkd_lab.qstate import CorrelationTable, DimensionMismatchError, StateValidationError

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


def _mass(amplitudes: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """``sum |amplitudes|^2`` over every axis not in ``keep`` (kept in that order).

    Summed over the real and imaginary views, so no temporary the size of
    the input is built.
    """
    axes = list(range(amplitudes.ndim))
    out = [int(a) for a in keep]
    re, im = amplitudes.real, amplitudes.imag
    return np.einsum(re, axes, re, axes, out) + np.einsum(im, axes, im, axes, out)


@dataclass(frozen=True)
class ModeMixture:
    """A classical mixture of pure mode states, stored as one stack.

    Attributes:
        weights: Branch weights, shape ``(k,)``; positive and summing to
            one.  Branches of weight at most ``BRANCH_PRUNE_TOL`` are
            dropped on construction.
        amplitudes: Branch amplitudes, shape ``(k, n_max + 1, ...,
            n_max + 1)``; ``amplitudes[b]`` is the normalized pure state of
            branch ``b``.  Stored without a copy and made read-only.
    """

    weights: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if weights.ndim != 1 or amps.ndim < 2 or amps.shape[0] != weights.size:
            raise DimensionMismatchError(
                f"a mixture needs weights (k,) and amplitudes (k, d, ..., d), "
                f"got {weights.shape} and {amps.shape}"
            )
        if weights.size == 0:
            raise StateValidationError("a mixture needs at least one branch")
        negative = np.flatnonzero(weights < -1e-12)
        if negative.size:
            i = negative[0]
            raise StateValidationError(f"branch {i} has negative weight {weights[i]}")
        keep = weights > BRANCH_PRUNE_TOL
        if not keep.any():
            raise StateValidationError("all branches have zero weight")
        if not keep.all():
            weights, amps = weights[keep], amps[keep]
        if any(s != amps.shape[1] for s in amps.shape[2:]):
            raise DimensionMismatchError(
                f"all modes must share one truncation, got branch shape {amps.shape[1:]}"
            )
        if amps[0].size > MAX_AMPLITUDES:
            raise DimensionMismatchError(
                f"branch of size {amps[0].size} exceeds MAX_AMPLITUDES={MAX_AMPLITUDES}"
            )
        total = weights.sum()
        if abs(total - 1.0) > 1e-7:
            raise StateValidationError(f"mixture weights sum to {total!r}, expected 1")
        norms = np.sqrt(_mass(amps, (0,)))
        off = np.flatnonzero(np.abs(norms - 1.0) > 1e-7)
        if off.size:
            i = off[0]
            raise StateValidationError(f"branch {i} is not normalized: |psi| = {norms[i]!r}")
        weights.setflags(write=False)
        amps.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def branches(self) -> tuple[tuple[float, np.ndarray], ...]:
        """``(weight, amplitudes)`` per branch, as views into the stack."""
        return tuple(zip(self.weights, self.amplitudes))

    @property
    def n_modes(self) -> int:
        return self.amplitudes.ndim - 1

    @property
    def n_max(self) -> int:
        return self.amplitudes.shape[1] - 1

    def probability(self, occupations: Sequence[int]) -> float:
        """Probability of finding exactly the given photon numbers."""
        amps = self.amplitudes[(slice(None),) + tuple(int(n) for n in occupations)]
        return float(self.weights @ (amps.real**2 + amps.imag**2))


AnyModeState = Union[ModeState, ModeMixture]


def _stack(state: AnyModeState) -> tuple[np.ndarray, np.ndarray]:
    """``(weights, amplitudes)`` of any state; a pure state is one branch."""
    if isinstance(state, ModeMixture):
        return state.weights, state.amplitudes
    return np.ones(1), state.amplitudes[np.newaxis]


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


def mix(parts: Iterable[tuple[float, AnyModeState]]) -> ModeMixture:
    """Classical mixture of ``(probability, state)`` parts on the same modes.

    The parts' stacks are concatenated, each scaled by its probability, and
    the weights renormalized, so the probabilities need not sum to one.
    """
    stacks = [(float(p), _stack(s)) for p, s in parts]
    weights = np.concatenate([p * w for p, (w, _) in stacks])
    amplitudes = np.concatenate([a for _, (_, a) in stacks])
    return ModeMixture(weights=weights / weights.sum(), amplitudes=amplitudes)


def tensor_modes(first: AnyModeState, second: AnyModeState) -> ModeMixture:
    """Tensor product; the second state's modes come after the first's."""
    wa, a = _stack(first)
    wb, b = _stack(second)
    ka, kb = len(wa), len(wb)
    # Branch (i, j) is a[i] (x) b[j], built straight into one output stack.
    joint = a.reshape(ka, 1, -1, 1) * b.reshape(1, kb, 1, -1)
    return ModeMixture(
        weights=np.outer(wa, wb).ravel(),
        amplitudes=joint.reshape((ka * kb,) + a.shape[1:] + b.shape[1:]),
    )


def permute_modes(state: AnyModeState, order: Sequence[int]) -> ModeMixture:
    """Reorder modes so that new mode ``k`` is old mode ``order[k]``."""
    weights, amps = _stack(state)
    axes = (0,) + tuple(1 + int(i) for i in order)
    return ModeMixture(weights=weights, amplitudes=np.transpose(amps, axes))


def phase_shift(state: AnyModeState, mode: int, phase_per_photon: float) -> ModeMixture:
    """Multiply amplitudes by ``exp(i * phase * n_mode)`` (a mode phase shift)."""
    weights, amps = _stack(state)
    shape = [1] * amps.ndim
    shape[int(mode) + 1] = amps.shape[1]
    phases = np.exp(1j * phase_per_photon * np.arange(amps.shape[1])).reshape(shape)
    return ModeMixture(weights=weights, amplitudes=amps * phases)


def mode_density(state: AnyModeState, modes: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of a subset of modes, in Fock basis.

    Args:
        state: Any mode state.
        modes: Mode indices to keep, in the order they should appear.

    Returns:
        Density matrix of dimension ``(n_max + 1) ** len(modes)``.
    """
    modes = tuple(int(m) for m in modes)
    weights, amps = _stack(state)
    n_modes = amps.ndim - 1
    if len(set(modes)) != len(modes) or any(m < 0 or m >= n_modes for m in modes):
        raise DimensionMismatchError(f"invalid mode subset {modes}")
    dim = amps.shape[1] ** len(modes)
    rest = tuple(i for i in range(n_modes) if i not in modes)
    mat = np.transpose(amps, (0,) + tuple(1 + m for m in modes + rest))
    mat = mat.reshape(len(weights), dim, -1)
    return np.tensordot(weights, mat @ mat.conj().transpose(0, 2, 1), axes=1)


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


def _apply_two_mode(amps: np.ndarray, i: int, j: int, block: np.ndarray) -> np.ndarray:
    """Apply ``block`` to modes ``i, j`` of every branch of a stack."""
    d = amps.shape[1]
    out = np.empty(amps.shape, dtype=complex)
    src = np.moveaxis(amps, (i + 1, j + 1), (1, 2))
    dst = np.moveaxis(out, (i + 1, j + 1), (1, 2))
    # One branch at a time into the preallocated stack: the reshape copy and
    # the product stay branch-sized instead of stack-sized.
    for b in range(amps.shape[0]):
        dst[b] = (block @ src[b].reshape(d * d, -1)).reshape(src.shape[1:])
    return out


def _check_overflow(amps: np.ndarray, i: int, j: int) -> None:
    """Refuse if any branch, unweighted, has mass past the truncation on modes ``i, j``."""
    d = amps.shape[1]
    totals = np.add.outer(np.arange(d), np.arange(d))
    mass = _mass(amps, (0, i + 1, j + 1))
    overflow = float(mass[:, totals > d - 1].sum(axis=1).max())
    if overflow > OVERFLOW_TOL:
        raise TruncationOverflowError(
            f"{overflow:.3e} probability sits in sectors with more than "
            f"{d - 1} photons across the interfering modes; raise n_max"
        )


def _unitary_pair_op(state: AnyModeState, i: int, j: int, phi: float) -> ModeMixture:
    weights, amps = _stack(state)
    n = amps.ndim - 1
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise DimensionMismatchError(f"invalid mode pair ({i}, {j}) for {n} modes")
    _check_overflow(amps, i, j)
    block = _two_mode_block(amps.shape[1] - 1, float(phi))
    return ModeMixture(weights=weights, amplitudes=_apply_two_mode(amps, i, j, block))


def beamsplitter(state: AnyModeState, mode_a: int, mode_b: int, transmission: float) -> AnyModeState:
    """Interfere two modes on a beamsplitter of the given transmission.

    Args:
        state: Input state; every branch stays pure.
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
    weights, amps = _stack(state)
    n_modes = amps.ndim - 1
    mode = int(mode)
    if not 0 <= mode < n_modes:
        raise DimensionMismatchError(f"mode {mode} out of range for {n_modes} modes")
    eta = float(transmission)
    d = amps.shape[1]
    lost, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    # Kraus operator l: |n> -> kraus[l, n] |n - l>, kraus[l, n] =
    # sqrt(C(n, l) eta^(n-l) (1-eta)^l) (zero for n < l).
    kraus = np.sqrt(comb(n, lost) * eta ** np.maximum(n - lost, 0) * (1.0 - eta) ** lost)
    moved = np.moveaxis(amps, mode + 1, 1)
    # Probability of losing l photons, per branch: shape (k, l).
    lost_prob = _mass(moved, (0, 1)) @ (kraus**2).T
    b_idx, l_idx = np.nonzero(lost_prob > BRANCH_PRUNE_TOL)
    out = np.zeros((len(b_idx),) + moved.shape[1:], dtype=complex)
    for n_lost in range(d):
        # Branches that lost n_lost photons: |n> -> |n - n_lost>.
        rows = np.flatnonzero(l_idx == n_lost)
        coeff = kraus[n_lost, n_lost:].reshape((-1,) + (1,) * (n_modes - 1))
        out[rows, : d - n_lost] = coeff * moved[b_idx[rows], n_lost:]
    norms = _mass(out, (0,))
    out /= np.sqrt(norms).reshape((-1,) + (1,) * n_modes)
    return ModeMixture(
        weights=weights[b_idx] * norms, amplitudes=np.moveaxis(out, 1, mode + 1)
    )


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
    weights, amps = _stack(state)
    q = detector.outcome_matrix(amps.shape[1] - 1)
    # Photon-number distribution of the watched modes, axes in ``modes`` order.
    t = np.tensordot(weights, _mass(amps, (0,) + tuple(1 + m for m in modes)), axes=1)
    # Each contraction consumes the leading photon-number axis and appends
    # its click axis, so the click axes come out in ``modes`` order.
    for _ in modes:
        t = np.tensordot(t, q, axes=([0], [0]))
    return t


def threshold_detect(
    state: AnyModeState,
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
    modes = tuple(int(m) for m in modes)
    pattern = tuple(bool(c) for c in pattern)
    if len(pattern) != len(modes):
        raise DimensionMismatchError("pattern length must match number of measured modes")
    weights, amps = _stack(state)
    q = detector.outcome_matrix(amps.shape[1] - 1)
    # Probability of the pattern given each Fock content of the measured modes.
    content_weight = reduce(np.multiply.outer, [q[:, int(click)] for click in pattern])
    # Per branch and content: the unnormalized survivor's squared norm.
    row_norms = _mass(amps, (0,) + tuple(1 + m for m in modes))
    branch_weights = (row_norms * content_weight).reshape(len(weights), -1)
    total = float(weights @ branch_weights.sum(axis=1))
    if total <= BRANCH_PRUNE_TOL:
        return 0.0, None
    if len(modes) == amps.ndim - 1:
        return total, None
    b_idx, c_idx = np.nonzero(branch_weights > BRANCH_PRUNE_TOL)
    contents = np.unravel_index(c_idx, row_norms.shape[1:])
    # Advanced indices on the branch and measured axes gather one survivor
    # per (branch, content) pair, ahead of the kept modes in their order.
    index = [b_idx] + [slice(None)] * (amps.ndim - 1)
    for m, content in zip(modes, contents):
        index[m + 1] = content
    survivors = amps[tuple(index)]
    norms = row_norms[(b_idx,) + contents]
    survivors /= np.sqrt(norms).reshape((-1,) + (1,) * (survivors.ndim - 1))
    return total, ModeMixture(
        weights=weights[b_idx] * branch_weights[b_idx, c_idx] / total,
        amplitudes=survivors,
    )


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
    # Branch n: n pairs emitted and the trigger clicked; the signal holds |n>.
    clicks = weights * trigger_detector.outcome_matrix(n_pair_max)[:, 1]
    trigger_prob = float(clicks.sum())
    if trigger_prob <= BRANCH_PRUNE_TOL:
        return HeraldRecord(success_probability=0.0, conditional_state=None, gain=None)
    mixture = ModeMixture(
        weights=clicks / trigger_prob, amplitudes=np.eye(n_pair_max + 1, n_max + 1)
    )
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


def _qubit_populations(state: AnyModeState, h_mode: int, v_mode: int) -> tuple[float, float]:
    """(vacuum, single-photon) populations of a polarization mode pair."""
    rho = mode_density(state, (h_mode, v_mode))
    d = state.n_max + 1
    vac = float(np.real(rho[0, 0]))
    single = float(np.real(rho[1, 1] + rho[d, d]))
    return vac, single


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
    n_modes, n_max = state.n_modes, state.n_max

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
