"""Photonic mode simulation in sparse Fock space.

States live on ``n_modes`` bosonic modes, always as a :class:`ModeMixture`:
an explicit ensemble of pure branches that stores only nonzero amplitudes,
one table row per amplitude (its branch, its Fock occupations and its
complex value).  Branches are not normalized: a branch's weight is the
squared norm of its amplitudes, so every operation applies its amplitudes
directly and conditioning rescales them once.  Sources, :func:`fock` and
:func:`vacuum` build one-branch mixtures, and every operation takes a
mixture and returns one.  No density matrix on the full mode space is ever
built: loss splits each branch into one pure branch per number of lost
photons, and destructive threshold detection splits it into one branch per
Fock content of the measured modes.  :func:`mix` forms weighted unions of
states.

Linear optics conserves photon number, so a two-mode unitary maps each
``|n1, n2>`` inside the sector of ``n1 + n2`` photons, and nothing is ever
cut off: there is no truncation error.  A mixture's ``n_max`` is the
largest occupation it holds, read from its rows; dense views (detector
tables, click POVMs) size themselves from it.  The one approximation left
is the sources' cut on pair number.

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
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from diqkd_lab.qstate import (
    _FINITE,
    _NON_NEGATIVE,
    _UNIT,
    _UNIT_OPEN,
    _UNIT_OPEN_ABOVE,
    CorrelationTable,
    DimensionMismatchError,
    StateValidationError,
    _integer,
    _is_integer,
    _real,
)

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

# Pure branches of at most this weight are dropped from mixtures, and rows of
# at most this squared modulus from the linear-optics results (they carry no
# probability at double precision).  Both are absolute: a row's squared
# modulus is its probability in the whole mixture.
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
    most once.  A branch is the unnormalized vector ``|psi_b>`` of its
    rows, and its weight is their ``sum |amp|^2``, so the state is ``sum_b
    |psi_b><psi_b|`` and the squared modulus of a row is its probability.
    ``BRANCH_PRUNE_TOL`` is therefore an absolute probability: a branch of
    at most that weight is dropped here, and the linear-optics ops drop
    rows of at most that squared modulus.  The arrays are stored without a
    copy and made read-only.

    Attributes:
        branch: Branch of each row, shape ``(nnz,)``, ascending.  Branches
            of weight at most ``BRANCH_PRUNE_TOL`` are dropped on
            construction and the rest numbered ``0..k-1``, closing gaps.
        occ: Photon number of every mode in each row, shape
            ``(nnz, n_modes)``.
        amp: Complex amplitude of each row, shape ``(nnz,)``; the squared
            moduli of all rows sum to one.
    """

    branch: np.ndarray
    occ: np.ndarray
    amp: np.ndarray

    def __post_init__(self) -> None:
        branch = _index_array(self.branch, "branch")
        occ = _index_array(self.occ, "occ")
        amp = np.asarray(self.amp, dtype=complex)
        if not (
            branch.ndim == 1
            and occ.ndim == 2
            and occ.shape[1] > 0
            and amp.shape == branch.shape == occ.shape[:1]
        ):
            raise DimensionMismatchError(
                "a mixture needs branch (nnz,), occ (nnz, modes) and amp (nnz,), "
                f"got {branch.shape}, {occ.shape} and {amp.shape}"
            )
        if branch.size and not ((branch[1:] >= branch[:-1]).all() and 0 <= branch[0]):
            raise DimensionMismatchError("branch indices must be non-negative and ascend")
        if occ.min(initial=0) < 0:
            raise DimensionMismatchError("occupations must be non-negative")
        power = _power(amp)
        total = power.sum()
        # Written so that NaN fails it; an empty mixture sums to 0.
        if not abs(total - 1.0) <= 1e-7:
            raise StateValidationError(f"mixture weights sum to {total}, expected 1")
        if branch[-1] >= branch.size:
            # Ids past the row count leave gaps; close them before counting.
            branch = np.cumsum(np.diff(branch, prepend=branch[0]) > 0)
        weights = np.bincount(branch, power)
        if not weights.min() > BRANCH_PRUNE_TOL:
            keep = weights > BRANCH_PRUNE_TOL
            rows = keep[branch]
            branch, occ, amp = (np.cumsum(keep) - 1)[branch[rows]], occ[rows], amp[rows]
        for name, arr in (("branch", branch), ("occ", occ), ("amp", amp)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def branches(self) -> tuple[tuple[float, slice], ...]:
        """``(weight, rows)`` per branch; ``occ[rows]`` and ``amp[rows]`` hold its amplitudes."""
        weights = np.bincount(self.branch, _power(self.amp))
        bounds = np.searchsorted(self.branch, np.arange(weights.size + 1)).tolist()
        return tuple(zip(weights.tolist(), map(slice, bounds, bounds[1:])))

    @property
    def n_modes(self) -> int:
        return self.occ.shape[1]

    @property
    def n_max(self) -> int:
        """Largest occupation of any mode; dense views span ``0..n_max`` per mode."""
        return int(self.occ.max(initial=0))

    def probability(self, occupations: Sequence[int]) -> float:
        """Probability of finding exactly the given photon numbers."""
        target = _index_array(occupations, "occupations")
        if target.shape != (self.n_modes,):
            raise DimensionMismatchError(f"{target.size} occupations for {self.n_modes} modes")
        rows = (self.occ == target).all(axis=1)
        return float(_power(self.amp)[rows].sum())


# The one state type under its former name, kept because bench/tracing.py
# imports ``ModeState`` and counts constructions through its __post_init__.
ModeState = ModeMixture


def _power(amp: np.ndarray) -> np.ndarray:
    """``|amp|^2`` per row: each row's probability in its mixture."""
    return amp.real**2 + amp.imag**2


def _shown(entry) -> str:
    """An offending entry as a refusal prints it, in at most 40 characters.

    An int that no float can hold is named by qstate's phrase for one,
    not printed digit by digit.
    """
    if _is_integer(entry):
        try:
            float(entry)
        except OverflowError:
            return "a number no float can hold"
    text = repr(entry) if isinstance(entry, str) else str(entry)
    return text if len(text) <= 40 else text[:37] + "..."


def _index_array(values, name: str) -> np.ndarray:
    """``values`` as an ``intp`` array, refused by ``name`` at the first entry no intp equals."""
    values = np.asarray(values)
    if values.dtype.kind in "iub":
        return values.astype(np.intp, copy=False)
    for entry in values.ravel().tolist():
        try:
            if np.intp(entry) == entry:
                continue
        except (OverflowError, TypeError, ValueError):
            pass
        raise DimensionMismatchError(f"{name} must hold whole numbers, got {_shown(entry)}")
    return values.astype(np.intp)


def _mode_indices(state: ModeMixture, modes: Iterable[int], name: str) -> list[int]:
    """``modes`` as a list, refused by ``name`` at the first entry not a new mode of ``state``."""
    modes, n = list(modes), state.n_modes
    for position, k in enumerate(modes):
        if not (_is_integer(k) and 0 <= k < n) or k in modes[:position]:
            raise DimensionMismatchError(f"{name}: need distinct modes below {n}, got {_shown(k)}")
    return [int(k) for k in modes]


def _pair_modes(state: ModeMixture, **pairs: Sequence[int]) -> list[int]:
    """The modes of the named ``(H, V)`` pairs in order, each pair checked to hold two modes."""
    for name, pair in pairs.items():
        if len(pair) != 2:
            raise DimensionMismatchError(f"{name} must be an (H, V) mode pair, got {tuple(pair)}")
    return _mode_indices(state, [k for pair in pairs.values() for k in pair], " and ".join(pairs))


def _pure(rows: dict[tuple[int, ...], float]) -> ModeMixture:
    """One pure branch of the nonzero ``{occupations: amplitude}`` rows, in ascending order."""
    occ = sorted(o for o, a in rows.items() if a != 0)
    return ModeMixture(np.zeros(len(occ), np.intp), occ, [rows[o] for o in occ])


def _distinct(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of non-negative integer columns (ascending) and each row's index."""
    table = np.column_stack(columns)
    radix = table.max(axis=0, initial=0) + 1
    if np.prod(radix.astype(float)) >= 2.0**63:
        rows, index = np.unique(table, axis=0, return_inverse=True)
        return rows, index.reshape(-1)
    # Mixed-radix keys order like the rows, and one-dimensional keys sort fast.
    # A column's place is the product of the later radices; no columns, no places.
    place = np.cumprod(np.append(radix, 1)[:0:-1])[::-1]
    _, first, index = np.unique(table @ place, return_index=True, return_inverse=True)
    return table[first], index


def _spread(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Repeat row ``r`` ``counts[r]`` times; return the source rows and ``0..counts[r]-1``."""
    src = np.repeat(np.arange(counts.size), counts)
    return src, np.arange(src.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _merged(branch, occ, amp) -> ModeMixture:
    """Sum duplicate ``(branch, occupations)`` rows and drop the ones that cancel."""
    keys, index = _distinct(branch, occ)
    amp = np.bincount(index, amp.real) + 1j * np.bincount(index, amp.imag)
    keep = _power(amp) > BRANCH_PRUNE_TOL
    return ModeMixture(keys[keep, 0], keys[keep, 1:], amp[keep])


def _split(group, occ, amp, scale) -> ModeMixture:
    """Split every branch by a key into pure branches of amplitudes ``amp * scale``.

    ``group`` numbers the rows' ``(branch, key)`` pairs in ascending order
    (the index from ``_distinct``); the rows of one pair form one new
    branch.  Rows that ``scale`` zeroes are dropped, and so, on
    construction, are branches left without weight.
    """
    amp = amp * scale
    rows = np.flatnonzero(amp)
    rows = rows[np.argsort(group[rows], kind="stable")]
    return ModeMixture(group[rows], occ[rows], amp[rows])


def vacuum(n_modes: int) -> ModeMixture:
    """The all-modes vacuum state."""
    return _pure({(0,) * n_modes: 1.0})


def fock(occupations: Sequence[int]) -> ModeMixture:
    """A Fock basis state ``|n1, ..., nk>``."""
    occupations = tuple(occupations)
    wrong = [_shown(n) for n in occupations if not (_is_integer(n) and n >= 0)]
    if wrong:
        raise DimensionMismatchError(f"occupations must be non-negative integers, got {wrong[0]}")
    return ModeMixture([0], _index_array([occupations], "occupations"), [1.0])


def mix(parts: Iterable[tuple[float, ModeMixture]]) -> ModeMixture:
    """Classical mixture of ``(probability, state)`` parts on the same modes.

    The parts' branches are concatenated, the amplitudes of each part scaled
    by ``sqrt(p / sum(p))``, so the probabilities need not sum to one.

    Raises:
        ValueError: When there are no parts, a probability is negative or not
            finite, or the probabilities sum to zero.
    """
    mixtures = [(_real("mixture probability", p, _NON_NEGATIVE), m) for p, m in parts]
    if not mixtures:
        raise ValueError("a mixture needs at least one part")
    if not any(p > 0.0 for p, _ in mixtures):
        raise ValueError("mixture probabilities sum to zero")
    total = sum(p for p, _ in mixtures)
    offsets = np.cumsum([0] + [m.branch[-1] + 1 for _, m in mixtures])
    return ModeMixture(
        branch=np.concatenate([m.branch + o for (_, m), o in zip(mixtures, offsets)]),
        occ=np.concatenate([m.occ for _, m in mixtures]),
        amp=np.concatenate([m.amp * math.sqrt(p / total) for p, m in mixtures]),
    )


def tensor_modes(first: ModeMixture, second: ModeMixture) -> ModeMixture:
    """Tensor product; the second state's modes come after the first's."""
    # Every row of ``first`` pairs with every row of ``second``; branch (i, j)
    # is i * k2 + j, where k2 counts the second's branches, so the pairs are
    # sorted by it.  Its weight, w_i w_j, is the product's.
    r1, r2 = np.divmod(np.arange(first.amp.size * second.amp.size), second.amp.size)
    branch = first.branch[r1] * (second.branch[-1] + 1) + second.branch[r2]
    order = np.argsort(branch, kind="stable")
    r1, r2 = r1[order], r2[order]
    return ModeMixture(
        branch=branch[order],
        occ=np.hstack([first.occ[r1], second.occ[r2]]),
        amp=first.amp[r1] * second.amp[r2],
    )


def permute_modes(state: ModeMixture, order: Sequence[int]) -> ModeMixture:
    """Reorder modes so that new mode ``k`` is old mode ``order[k]``."""
    order = _mode_indices(state, order, "order")
    if len(order) != state.n_modes:
        raise DimensionMismatchError(f"invalid mode order {order} for {state.n_modes} modes")
    return ModeMixture(state.branch, state.occ[:, order], state.amp)


def phase_shift(state: ModeMixture, mode: int, phase_per_photon: float) -> ModeMixture:
    """Multiply amplitudes by ``exp(i * phase * n_mode)`` (a mode phase shift)."""
    (mode,) = _mode_indices(state, [mode], "mode")
    phases = np.exp(1j * _real("phase_per_photon", phase_per_photon, _FINITE) * state.occ[:, mode])
    return ModeMixture(state.branch, state.occ, state.amp * phases)


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


def _unitary_pair_op(m: ModeMixture, i: int, j: int, phi: float, names: str) -> ModeMixture:
    i, j = _mode_indices(m, (i, j), names)
    first, total = m.occ[:, i], m.occ[:, i] + m.occ[:, j]
    # Row r spreads over the total[r] + 1 states |k, total[r] - k> of its sector.
    src, k = _spread(total + 1)
    blocks = _sector_blocks(int(total.max(initial=0)), phi)
    occ = m.occ[src]
    occ[:, i], occ[:, j] = k, total[src] - k
    amp = m.amp[src] * blocks[total[src], k, first[src]]
    return _merged(m.branch[src], occ, amp)


def beamsplitter(state: ModeMixture, mode_a: int, mode_b: int, transmission: float) -> ModeMixture:
    """Interfere two modes on a beamsplitter of the given transmission.

    Args:
        state: Input state; every branch stays pure.
        mode_a: Transmitted mode (``a -> sqrt(T) a + sqrt(1-T) b``).
        mode_b: Reflected mode.
        transmission: Power transmission ``T`` in ``[0, 1]``.
    """
    phi = float(np.arccos(np.sqrt(_real("transmission", transmission, _UNIT))))
    return _unitary_pair_op(state, mode_a, mode_b, phi, "mode_a and mode_b")


def polarization_rotation(state: ModeMixture, h_mode: int, v_mode: int, angle: float) -> ModeMixture:
    """Rotate a polarization qubit so a qubit measurement becomes H/V detection.

    After rotating by ``angle``, a click in the H port corresponds to
    outcome 0 (+1) of the qubit observable ``cos(angle) Z + sin(angle) X``
    and a click in the V port to outcome 1 (-1).
    """
    phi = _real("angle", angle, _FINITE) / 2.0
    return _unitary_pair_op(state, h_mode, v_mode, phi, "h_mode and v_mode")


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
    eta = _real("transmission", transmission, _UNIT)
    (mode,) = _mode_indices(state, [mode], "mode")
    n = state.occ[:, mode]
    # Kraus operator l: |n> -> sqrt(C(n, l) eta^(n-l) (1-eta)^l) |n - l>;
    # row r spreads over l = 0..n[r].
    src, lost = _spread(n + 1)
    kept = n[src] - lost
    binomials = _binomials(int(n.max(initial=0)))[n[src], lost]
    kraus = np.sqrt(binomials * eta**kept * (1.0 - eta) ** lost)
    occ = state.occ[src]
    occ[:, mode] = kept
    _, group = _distinct(state.branch[src], lost)
    return _split(group, occ, state.amp[src], kraus)


def distance_to_transmission(length_km: float, attenuation_db_per_km: float = 0.2) -> float:
    """Fiber power transmission over a given length.

    ``T = 10 ** (-attenuation * L / 10)``; the default 0.2 dB/km is standard
    telecom fiber.
    """
    _real("length_km", length_km, _NON_NEGATIVE)
    _real("attenuation_db_per_km", attenuation_db_per_km, _NON_NEGATIVE)
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
        _real("efficiency", self.efficiency, _UNIT)
        _real("dark_count_prob", self.dark_count_prob, _UNIT)

    def outcome_matrix(self, n_max: int) -> np.ndarray:
        """Columns ``[P(no click | n), P(click | n)]`` for ``n = 0..n_max``."""
        ns = np.arange(n_max + 1)
        click = 1.0 - (1.0 - self.dark_count_prob) * (1.0 - self.efficiency) ** ns
        return np.stack([1.0 - click, click], axis=1)


def _contents(state: ModeMixture, modes: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Distinct Fock contents of ``modes`` (ascending), each row's content, their probabilities."""
    contents, index = _distinct(state.occ[:, modes])
    return contents, index, np.bincount(index, _power(state.amp))


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
    modes = _mode_indices(state, modes, "modes")
    q = detector.outcome_matrix(state.n_max)
    contents, _, t = _contents(state, modes)
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
    makes interference-based heralding work).  The pattern is weighed by
    ``_pattern_likelihoods``, the detector that every heralding station
    (the Bell-state measurement, the ``third_party`` swap, the qubit
    amplifier) detects through, and the state is split by
    ``_conditioned``, which conditions them all.

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
    modes = _mode_indices(state, modes, "modes")
    clicks = np.array([[[bool(c) for c in pattern]]], dtype=np.intp)
    if clicks.shape[2] != len(modes):
        raise DimensionMismatchError("pattern length must match number of measured modes")
    contents, index, probabilities = _contents(state, modes)
    (prob,), likes = _pattern_likelihoods(contents, probabilities, detector, clicks)
    rest = [k for k in range(state.n_modes) if k not in modes]
    return float(prob), _conditioned(state, rest, index, likes, prob)


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
    # The H- and V-port clicks of each outcome code, one row per outcome.
    c_h, c_v = np.array(sorted(OUTCOME_CODES, key=OUTCOME_CODES.get)).T[:, :, np.newaxis]
    blocks = np.stack([_sector_blocks(top, angle / 2.0) for angle in angles])
    for t in range(top + 1):
        # Every angle's and outcome's block of sector t in one stacked product.
        b, k = blocks[:, t, : t + 1, : t + 1], np.arange(t + 1)
        block = slice(t * (t + 1) // 2, (t + 1) * (t + 2) // 2)
        weighted = b.transpose(0, 2, 1)[:, np.newaxis] * (q[k, c_h] * q[t - k, c_v])[:, np.newaxis]
        povms[:, :, block, block] = weighted @ b[:, np.newaxis]
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
    measured modes, built from one unnormalized vector per branch and Fock
    content of the other modes.  The table is the one-part case of
    ``_born_tables``: that density (``_reduced_density``) contracted with
    the detector's POVMs (``_contract_povms``).  Only the contraction sees
    the detector, so ``architectures`` keeps a source's density and
    contracts it again for each detector of a distance sweep.

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
    for name, angles in (("alice_angles", alice_angles), ("bob_angles", bob_angles)):
        for angle in angles:
            _real(name, angle, _FINITE)
    detector = detector or DetectorModel()
    parts = np.zeros(state.amp.size, np.intp)  # one part: the whole state
    tables = _born_tables(state, alice_modes, bob_modes, alice_angles, bob_angles, detector, parts)
    return CorrelationTable(probabilities=tables[0])


def _born_tables(
    state: ModeMixture,
    alice_modes: tuple[int, int],
    bob_modes: tuple[int, int],
    alice_angles: Sequence[float],
    bob_angles: Sequence[float],
    detector: DetectorModel,
    parts: np.ndarray,
) -> np.ndarray:
    """Born tables of disjoint parts of a state, in one contraction.

    ``parts[r]`` numbers the part of row ``r``; the rows of one branch
    that agree on every unmeasured mode must share a part.  Part ``k``'s
    table is ``p(a, b, k | x, y)``, the probability of the outcomes and of
    the state lying in part ``k``, so the parts' tables sum to
    :func:`polarization_correlation_table`, which is this with one part.
    It is the composition of its two halves: ``_reduced_density`` depends
    on the state alone and ``_contract_povms`` on the measurement alone, so
    a caller that measures one state with many detectors can keep the
    density and contract it again.

    Returns:
        Shape ``(parts.max() + 1, len(alice_angles), len(bob_angles), 4, 4)``.
    """
    density = _reduced_density(state, alice_modes, bob_modes, parts)
    return _contract_povms(density, alice_angles, bob_angles, detector)


def _reduced_density(
    state: ModeMixture,
    alice_modes: tuple[int, int],
    bob_modes: tuple[int, int],
    parts: np.ndarray,
) -> tuple[np.ndarray, tuple[int, int]]:
    """The density half of ``_born_tables``: each part's reduced density of the measured modes.

    The rows of a branch that agree on every unmeasured mode form one
    unnormalized vector over the parties' contents ``|h, v>`` (indexed as
    in ``_click_povms``), and a part's density is the sum of its vectors'
    outer products.

    Returns:
        ``(rho, tops)``: read-only ``rho`` of shape ``(parts.max() + 1,
        dim_a**2, dim_b**2)``, the real part of each part's density with
        its axes ordered ``(iA iA', iB iB')`` for ``_contract_povms``, and
        ``tops``, the largest photon number ``h + v`` of Alice's and of
        Bob's modes, which size the POVMs.
    """
    measured = _pair_modes(state, alice_modes=alice_modes, bob_modes=bob_modes)
    occ = state.occ[:, measured]
    # Index of each row's |h, v> content in Alice's and in Bob's basis.
    totals = occ[:, 0::2] + occ[:, 1::2]
    index = totals * (totals + 1) // 2 + occ[:, 0::2]
    top_a, top_b = totals.max(axis=0).tolist()
    dim_a, dim_b = (top_a + 1) * (top_a + 2) // 2, (top_b + 1) * (top_b + 2) // 2
    rest = [k for k in range(state.n_modes) if k not in measured]
    groups, group = _distinct(state.branch, state.occ[:, rest])
    # One vector per part and group, zero outside the group's part.
    vectors = np.zeros((parts.max(initial=0) + 1, len(groups), dim_a * dim_b), dtype=complex)
    vectors[parts, group, index[:, 0] * dim_b + index[:, 1]] = state.amp
    # rho[k, i, j] = sum_g conj(v_g[i]) v_g[j] over part k's groups, so p =
    # sum_ij E[i, j] rho[k, i, j]; the POVMs are real, so only rho's real
    # part counts.  Its axes are ordered (iA iA', iB iB') to contract each
    # party's elements in turn.
    rho = vectors.conj().transpose(0, 2, 1) @ vectors
    rho = rho.real.reshape(-1, dim_a, dim_b, dim_a, dim_b).transpose(0, 1, 3, 2, 4)
    rho = rho.reshape(-1, dim_a**2, dim_b**2)
    rho.setflags(write=False)
    return rho, (top_a, top_b)


def _contract_povms(
    density: tuple[np.ndarray, tuple[int, int]],
    alice_angles: Sequence[float],
    bob_angles: Sequence[float],
    detector: DetectorModel,
) -> np.ndarray:
    """The POVM half of ``_born_tables``: a ``_reduced_density`` contracted with click POVMs.

    ``p(a, b | x, y) = sum E_A[x, a] (x) E_B[y, b] rho`` per part, with
    each party's ``_click_povms`` for its angles and its ``top``.

    Returns:
        Shape ``(n_parts, len(alice_angles), len(bob_angles), 4, 4)``.
    """
    if len(alice_angles) == 0 or len(bob_angles) == 0:
        raise DimensionMismatchError("need at least one angle per party")
    rho, tops = density
    povms_a, povms_b = (
        _click_povms(tuple(map(float, angles)), top, detector)
        for angles, top in zip((alice_angles, bob_angles), tops)
    )
    n_x, n_y, n_out = len(alice_angles), len(bob_angles), len(OUTCOME_CODES)
    tables = povms_a.reshape(n_x * n_out, -1) @ rho @ povms_b.reshape(n_y * n_out, -1).T
    return tables.reshape(-1, n_x, n_out, n_y, n_out).transpose(0, 1, 3, 2, 4)


# --------------------------------------------------------------------------
# Sources
# --------------------------------------------------------------------------


def _pair_weights(pair_prob: float, n_pair_max: int) -> np.ndarray:
    """Geometric pair-number weights ``(1 - p) p^n``, ``n <= n_pair_max``, normalized."""
    _real("pair_prob", pair_prob, _UNIT_OPEN_ABOVE)
    if _integer("n_pair_max", n_pair_max) < 0:
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


def heralded_single_photon(pair_prob: float, trigger_detector: DetectorModel) -> "HeraldRecord":
    """Single-photon source: photon-pair emitter with a triggered idler arm.

    The source emits ``n`` signal/idler photon pairs with probability
    proportional to ``(1 - p) p^n``; a threshold detector watches the idler
    arm, and a click heralds the signal mode.  Because the trigger cannot
    count photons, the heralded state carries an ``n >= 2`` contamination
    tail — the mechanism behind false amplifier heralds at high gain.  Pair
    numbers above two are cut, as in :func:`spdc_source`'s default.

    Args:
        pair_prob: Pair emission parameter ``p``.
        trigger_detector: Detector on the idler arm.

    Returns:
        A :class:`HeraldRecord` whose ``conditional_state`` is the
        single-mode signal state given a trigger click.
    """
    n_pair_max = 2
    weights = _pair_weights(pair_prob, n_pair_max)
    n = np.arange(n_pair_max + 1)
    # Branch n: n pairs emitted and the trigger clicked; the signal holds |n>.
    # The trigger is a one-mode detection with the one pattern "click".
    (trigger_prob,), (likelihood,) = _pattern_likelihoods(
        n[:, np.newaxis], weights, trigger_detector, clicks=np.array([[[1]]])
    )
    if not trigger_prob:
        return HeraldRecord(success_probability=0.0, conditional_state=None, gain=None)
    mixture = ModeMixture(n, n[:, np.newaxis], np.sqrt(likelihood * weights / trigger_prob))
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
# The four patterns' clicks, each shaped (1, 4) to broadcast over the contents.
_BSM_CLICKS = np.array([[pattern] for _, pattern in _BSM_PATTERNS], dtype=np.intp)
_BSM_CLICKS.setflags(write=False)


def _interfered(
    state: ModeMixture, modes: Sequence[int]
) -> tuple[ModeMixture, np.ndarray, np.ndarray, np.ndarray]:
    """A state after the Bell-state measurement's beamsplitters, grouped by station content.

    The station watches ``modes = (h1, v1, h2, v2)``: the two qubits' H
    modes interfere on a balanced beamsplitter, as do their V modes.
    Returns the interfered state and the ``_contents`` of the four watched
    modes: their distinct Fock contents, each row's content and each
    content's probability.
    """
    h1, v1, h2, v2 = modes
    mixed = beamsplitter(beamsplitter(state, h1, h2, 0.5), v1, v2, 0.5)
    return (mixed, *_contents(mixed, modes))


def _pattern_likelihoods(
    contents: np.ndarray, probabilities: np.ndarray, detector: DetectorModel, clicks=_BSM_CLICKS
) -> tuple[np.ndarray, np.ndarray]:
    """Each click pattern's probability and its likelihood for each Fock content.

    ``contents`` and ``probabilities`` are a state's ``_contents`` of the
    watched modes, and ``clicks[k, 0]`` is pattern ``k``, one click (1) or
    silence (0) per watched mode; the default is the Bell-state
    measurement's four patterns, in ``_BSM_PATTERNS``' order.  Every row of
    content ``c`` gives pattern ``k`` the same likelihood ``prod_m q[c_m,
    clicks_km]``, with ``q`` the detector's outcome matrix, so the
    pattern's probability is ``sum_c likelihood * probability``.  It is
    summed per pattern, so it does not depend on which other patterns are
    detected with it.  A pattern of probability at most
    ``BRANCH_PRUNE_TOL`` never heralds: its probability and its
    likelihoods are zero.

    Returns:
        ``(probs, likelihoods)`` of shapes ``(patterns,)`` and
        ``(patterns, contents)``.
    """
    q = detector.outcome_matrix(int(contents.max(initial=0)))
    likelihoods = q[contents, clicks].prod(axis=2)
    probs = (likelihoods * probabilities).sum(axis=1)
    kept = probs > BRANCH_PRUNE_TOL
    return probs * kept, likelihoods * kept[:, np.newaxis]


def _conditioned(state, rest, index, likes, total, signs=1.0) -> ModeMixture | None:
    """The state given any of a set of click patterns, on the ``rest`` modes, in one split.

    ``likes[k]`` is pattern ``k``'s likelihood per content, from
    ``_pattern_likelihoods``, ``index`` each row's content of the measured
    modes, which the detection removes, and ``total`` the patterns'
    summed probability.  The rows of one pattern, branch and content form
    one new branch, numbered pattern-major, and row ``r`` keeps under
    pattern ``k`` the amplitude ``signs[k, r] * amp * sqrt(like / total)``
    (``signs`` broadcasts to ``(patterns, rows)``).  None when the
    patterns never herald, or when every mode was measured.
    """
    if not (total and rest):
        return None
    keys, group = _distinct(state.branch, index)
    groups = np.arange(len(likes))[:, np.newaxis] * len(keys) + group
    scale = signs * np.sqrt(likes[:, index] / total)
    occ, amp = np.tile(state.occ[:, rest], (len(likes), 1)), np.tile(state.amp, len(likes))
    return _split(groups.ravel(), occ, amp, scale.ravel())


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

    The station (``_interfered``) groups the interfered rows by measured
    content once, the four patterns are weighed by the one detector of
    heralding patterns (``_pattern_likelihoods``), and each pattern's
    state is split by ``_conditioned``, so each outcome equals
    :func:`threshold_detect` of its pattern on the interfered state.  The
    ``third_party`` swap station of ``architectures`` and
    :func:`qubit_amplifier` herald through the same helpers, and nothing
    in the library calls this function: it keeps the per-pattern view for
    the tests and the benchmark's tracer.

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
    modes = _pair_modes(state, modes_1=modes_1, modes_2=modes_2)
    mixed, contents, index, probabilities = _interfered(state, modes)
    probs, likes = _pattern_likelihoods(contents, probabilities, detector)
    rest = [k for k in range(state.n_modes) if k not in modes]
    return BsmResult(
        outcomes=tuple(
            BsmOutcome(label, pattern, prob, _conditioned(mixed, rest, index, like, prob))
            for (label, pattern), prob, like in zip(_BSM_PATTERNS, probs.tolist(), likes[:, None])
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
    prob = _power(state.amp)
    return float(prob[photons == 0].sum()), float(prob[photons == 1].sum())


@lru_cache(maxsize=32)
def _amplifier_ancillas(
    transmission: float, ancilla_pair_prob: float | None, detector: DetectorModel
) -> tuple[float, ModeMixture | None]:
    """The amplifier's ancillas, split on their beamsplitters, on modes (tH, rH, tV, rV).

    Each ancilla photon meets vacuum on a beamsplitter of transmission
    ``transmission``; the H and V ancillas come from two independent,
    identical sources.  A pair source's trigger is the amplifier's own
    ``detector``, the one its Bell-state measurement uses.  The ancillas
    never touch the input before the Bell-state measurement, so they are
    prepared apart from it, once per setting.

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
        source = heralded_single_photon(ancilla_pair_prob, detector)
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
    cached per ``T``, ancilla source and detector) and joined to it by one
    tensor product.

    The measurement is the swap station's: ``_interfered`` on the input
    pair and the reflected ancilla modes, then ``_pattern_likelihoods``.
    One ``_conditioned`` call gives the state given any herald, on the
    other modes with the transmitted ancilla modes in the input's places:
    each pattern's branches keep their likelihood over the summed herald
    probability, and the feed-forward is a sign per pattern and row,
    ``(-1) ** (c_1H n_tH + c_1V n_tV)`` for the pattern's clicks ``c`` on
    the first output port's detectors.  The feed-forward is per pattern,
    not per Bell-state label: flipping by label differs from it by the
    photon-parity phase on two patterns, which decoheres an input that
    superposes zero and one photon.

    With ``ancilla_pair_prob`` set, each ancilla photon comes from a
    triggered pair source (see :func:`heralded_single_photon`) instead of an
    ideal source, and the reported success probability includes both
    trigger probabilities.  The triggers are ``detector``, so every
    detector of the amplifier has the same efficiency and dark counts.

    Args:
        state: Input state; ``input_modes`` are consumed and replaced (in
            place, same positions) by the amplifier's output modes.
        input_modes: ``(H, V)`` modes carrying the qubit to amplify.
        transmission: Ancilla beamsplitter transmission ``T`` in ``(0, 1)``.
        detector: Detector model of the Bell measurement and of the
            ancilla triggers; default ideal.
        ancilla_pair_prob: Pair parameter of the ancilla sources, or None
            for ideal single photons.

    Returns:
        A :class:`HeraldRecord`; ``gain`` compares the single-photon to
        vacuum population ratio after versus before (None when the input
        has no vacuum or no photon component).
    """
    _real("transmission", transmission, _UNIT_OPEN)
    detector = detector or DetectorModel()
    in_h, in_v = _pair_modes(state, input_modes=input_modes)
    n = state.n_modes
    trigger_prob, ancillas = _amplifier_ancillas(transmission, ancilla_pair_prob, detector)
    if ancillas is None:
        return HeraldRecord(success_probability=0.0, conditional_state=None, gain=None)
    # The ancillas' four modes (tH, rH, tV, rV) come after the existing ones,
    # and the station interferes the input pair with (rH, rV).
    work = tensor_modes(state, ancillas)
    mixed, contents, index, probabilities = _interfered(work, (in_h, in_v, n + 1, n + 3))
    probs, likes = _pattern_likelihoods(contents, probabilities, detector)
    # Feed-forward: under this module's beamsplitter sign convention, a click
    # on the first output port imprints a minus sign on the teleported photon
    # of that polarization; undoing it per pattern makes every herald yield
    # the same output state.
    signs = (-1.0) ** (_BSM_CLICKS[:, 0, :2] @ mixed.occ[:, [n, n + 2]].T)
    # tH and tV take the input modes' places, the other modes keep theirs.
    rest = [{in_h: n, in_v: n + 2}.get(k, k) for k in range(n)]
    total = float(probs.sum())
    conditional = _conditioned(mixed, rest, index, likes, total, signs)
    if conditional is None:  # _pattern_likelihoods zeroed every pattern
        return HeraldRecord(success_probability=0.0, conditional_state=None, gain=None)

    gain = None
    vac_in, single_in = _qubit_populations(state, in_h, in_v)
    vac_out, single_out = _qubit_populations(conditional, in_h, in_v)
    if vac_in > 0 and single_in > 0 and vac_out > 0 and single_out > 0:
        gain = float(np.sqrt((single_out / vac_out) / (single_in / vac_in)))
    return HeraldRecord(
        success_probability=float(trigger_prob * total), conditional_state=conditional, gain=gain
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
    detectors.  :func:`qubit_amplifier` triggers its ancilla sources with
    its own detectors, which scale the herald by another ``eta_d^2``: with
    ``eta_d = 0.9`` it gives, on a single-photon input, 0.82 times this
    value at ``p = 0.011`` and 0.811 as ``p -> 0``.
    """
    _real("detector_efficiency", detector_efficiency, _UNIT)
    _real("transmission", transmission, _UNIT)
    _real("pair_prob", pair_prob, _UNIT)
    return float(detector_efficiency**2 * (1.0 - transmission) * pair_prob**2)
