"""Finite-dimensional quantum states and measurements.

This module holds the dense reference model: validated density operators
on tensor products of finite subsystems, POVM measurements, and the
Born-rule machinery that turns a bipartite state plus measurement settings
into a table of outcome probabilities.  Nothing else in the package builds
on that stack; it is the reference the tests check ``photonics`` and
``bellcert`` against.  What every layer does share from here is
:class:`CorrelationTable`, the one table type, and the one rule by which
every layer checks its numeric inputs (``_real`` and ``_integer``).

Everything here is exact (dense matrices, no sampling).  Stochastic
simulation lives in :mod:`diqkd_lab.keyproto`; photonic mode spaces live
in :mod:`diqkd_lab.photonics`.

Conventions
-----------
* Composite indices are row-major over ``dims``: basis vector
  ``|i1, i2, ...>`` maps to flat index ``i1 * d2 * d3 ... + i2 * d3 ... + ...``
  (the same layout as ``numpy.kron``).
* Qubit measurement angles parameterize observables in the X-Z plane:
  ``A(theta) = cos(theta) Z + sin(theta) X``.  Outcome 0 is the +1
  eigenvalue, outcome 1 is the -1 eigenvalue.
* Detection inefficiency is modeled as a third "no-click" outcome with
  effect ``(1 - eta) I`` (outcome index 2).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ATOL_STATE",
    "MAX_TOTAL_DIM",
    "DimensionMismatchError",
    "StateValidationError",
    "DensityOperator",
    "Povm",
    "CorrelationTable",
    "born_table",
    "singlet",
    "bell_state",
    "qubit_observable",
    "projective_qubit_povm",
    "inefficient_qubit_povm",
]

# Absolute tolerance used when validating algebraic identities (hermiticity,
# unit trace, completeness).  Loose enough to absorb round-off from long
# dense-matrix pipelines, tight enough to catch genuine modeling mistakes.
ATOL_STATE = 1e-8

# Refuse to build density operators beyond this total dimension: all
# operations in this module are dense and O(dim^2) in memory.
MAX_TOTAL_DIM = 4096


class StateValidationError(ValueError):
    """Raised when a matrix fails to be a valid quantum object (state or POVM)."""


class DimensionMismatchError(ValueError):
    """Raised when operator or subsystem dimensions are incompatible."""


# The ranges of ``_real``, as ``(rule, admits)``.  NaN fails every
# comparison, so every range refuses it.
_UNIT = ("must lie in [0, 1]", lambda v: 0 <= v <= 1)
_UNIT_OPEN_ABOVE = ("must lie in [0, 1)", lambda v: 0 <= v < 1)
_UNIT_OPEN = ("must lie in (0, 1)", lambda v: 0 < v < 1)
_UNIT_OPEN_BELOW = ("must lie in (0, 1]", lambda v: 0 < v <= 1)
_POSITIVE = ("must be positive and finite", lambda v: 0 < v < math.inf)
_NON_NEGATIVE = ("must be non-negative and finite", lambda v: 0 <= v < math.inf)
_FINITE = ("must be a finite number", lambda v: -math.inf < v < math.inf)
_NOT_NAN = ("must be a number", lambda v: v == v)


def _real(name: str, value, rule: tuple) -> float:
    """``value`` as a float, refused by ``name`` unless it is a real number in ``rule``'s range.

    A bool is not a number, although Python compares it like one, and
    neither is a string that ``float`` would parse.  The range is checked
    on the value itself; an int that no float can hold is refused without
    printing its digits.
    """
    text, admits = rule
    number = value
    # ``type(value) is float`` spares plain floats the slower ABC checks.
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            raise ValueError(f"{name} {text}, got a number no float can hold") from None
    if not admits(value):
        raise ValueError(f"{name} {text}, got {value}")
    return number


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool is not one."""
    # ``type(value) is int`` spares plain ints the slower ABC checks.
    return type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Integral)
    )


def _integer(name: str, value) -> int:
    """``value`` as an int, refused by ``name`` unless it is an integer (a bool is not one)."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_complex_matrix(values: np.ndarray | Sequence, name: str) -> np.ndarray:
    arr = np.array(values, dtype=complex, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise StateValidationError(f"{name} must be a square matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _hermiticity_error(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix - matrix.conj().T), initial=0.0))


@dataclass(frozen=True)
class DensityOperator:
    """A validated density operator on a tensor product of finite subsystems.

    Attributes:
        matrix: Complex density matrix, shape ``(D, D)`` with
            ``D = prod(dims)``.  Stored read-only.
        dims: Dimension of each tensor factor, e.g. ``(2, 2)`` for two qubits.

    Raises:
        StateValidationError: If the matrix is not Hermitian, unit-trace and
            positive semidefinite within ``ATOL_STATE``.
        DimensionMismatchError: If ``dims`` does not multiply out to the
            matrix size, or the total dimension exceeds ``MAX_TOTAL_DIM``.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        arr = _as_complex_matrix(self.matrix, "density matrix")
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims) or not dims:
            raise DimensionMismatchError(f"subsystem dims must be positive, got {dims}")
        total = int(np.prod(dims))
        if total > MAX_TOTAL_DIM:
            raise DimensionMismatchError(
                f"total dimension {total} exceeds MAX_TOTAL_DIM={MAX_TOTAL_DIM}"
            )
        if arr.shape != (total, total):
            raise DimensionMismatchError(
                f"dims {dims} imply a {total}x{total} matrix, got {arr.shape}"
            )
        herm = _hermiticity_error(arr)
        trace_err = float(abs(np.trace(arr) - 1.0))
        min_eig = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)[0])
        if not (herm <= ATOL_STATE and trace_err <= ATOL_STATE and min_eig >= -ATOL_STATE):
            raise StateValidationError(
                "not a density operator: "
                f"hermiticity_error={herm:.3e}, "
                f"trace_error={trace_err:.3e}, "
                f"min_eigenvalue={min_eig:.3e}"
            )
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def from_pure(cls, vector: np.ndarray | Sequence, dims: Iterable[int]) -> "DensityOperator":
        """Build ``|psi><psi|`` from a (not necessarily normalized) state vector."""
        vec = np.asarray(vector, dtype=complex).ravel()
        norm = np.linalg.norm(vec)
        if norm <= 0:
            raise StateValidationError("cannot normalize the zero vector")
        vec = vec / norm
        return cls(matrix=np.outer(vec, vec.conj()), dims=tuple(dims))

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self.matrix.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class Povm:
    """A positive operator-valued measure: effects that sum to the identity.

    Attributes:
        effects: One Hermitian, positive-semidefinite matrix per outcome.
    """

    effects: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.effects:
            raise StateValidationError("a POVM needs at least one effect")
        mats = tuple(_as_complex_matrix(e, f"POVM effect {i}") for i, e in enumerate(self.effects))
        dim = mats[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for i, eff in enumerate(mats):
            if eff.shape != (dim, dim):
                raise DimensionMismatchError(
                    f"POVM effect {i} has shape {eff.shape}, expected {(dim, dim)}"
                )
            # Comparisons written so that NaN fails them.
            if not _hermiticity_error(eff) <= ATOL_STATE:
                raise StateValidationError(f"POVM effect {i} is not Hermitian")
            min_eig = float(np.linalg.eigvalsh((eff + eff.conj().T) / 2)[0])
            if not min_eig >= -ATOL_STATE:
                raise StateValidationError(
                    f"POVM effect {i} is not positive semidefinite (min eig {min_eig:.3e})"
                )
            total = total + eff
        if not np.max(np.abs(total - np.eye(dim))) <= ATOL_STATE:
            raise StateValidationError("POVM effects do not sum to the identity")
        object.__setattr__(self, "effects", mats)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


@dataclass(frozen=True)
class CorrelationTable:
    """Joint conditional outcome probabilities ``p(a, b | x, y)``.

    Attributes:
        probabilities: Array of shape ``(n_x, n_y, n_a, n_b)`` where entry
            ``[x, y, a, b]`` is the probability of outcomes ``(a, b)`` given
            settings ``(x, y)``.  Each ``(x, y)`` slice must be a probability
            distribution.
    """

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.probabilities, dtype=float, copy=True)
        if arr.ndim != 4:
            raise StateValidationError(
                f"probabilities must have shape (n_x, n_y, n_a, n_b), got {arr.shape}"
            )
        if arr.size == 0:
            raise StateValidationError(
                f"probabilities need at least one setting and outcome per axis, got {arr.shape}"
            )
        # Comparisons written so that NaN fails them.
        if not arr.min(initial=0.0) >= -1e-9:
            raise StateValidationError(
                f"negative or NaN probability {arr.min():.3e} in correlation table"
            )
        deviation = np.abs(arr.sum(axis=(2, 3)) - 1.0).max()
        if not deviation <= 1e-7:
            raise StateValidationError(
                "each setting pair must carry a normalized distribution; "
                f"worst deviation {deviation:.3e}"
            )
        arr.clip(0.0, None, out=arr)
        arr.setflags(write=False)
        object.__setattr__(self, "probabilities", arr)

    def error_rate(self, x: int, y: int) -> float:
        """Probability that the two outcomes disagree under settings ``(x, y)``.

        For binary-outcome tables this is the quantum bit error rate of the
        setting pair.  Tables with more outcomes count every off-diagonal
        pair as a disagreement.
        """
        return _disagreement(self.probabilities[x, y])


def _disagreement(p: np.ndarray) -> float:
    """Off-diagonal mass of one setting pair's outcome block ``p[a, b]``."""
    return float(p.sum() - np.trace(p))


def born_table(
    state: DensityOperator,
    alice_povms: Sequence[Povm],
    bob_povms: Sequence[Povm],
) -> CorrelationTable:
    """Evaluate Born-rule probabilities for every setting and outcome pair.

    Args:
        state: Bipartite state with exactly two tensor factors ``(d_A, d_B)``.
        alice_povms: One POVM per Alice setting, all on dimension ``d_A``
            with a common outcome count.
        bob_povms: One POVM per Bob setting, on ``d_B``.

    Returns:
        Correlation table of shape ``(len(alice_povms), len(bob_povms),
        n_a, n_b)``.
    """
    if state.n_subsystems != 2:
        raise DimensionMismatchError(
            f"born_table expects a bipartite state, got {state.n_subsystems} subsystems"
        )
    d_a, d_b = state.dims
    if not alice_povms or not bob_povms:
        raise DimensionMismatchError("need at least one POVM per party")
    n_a = alice_povms[0].n_outcomes
    n_b = bob_povms[0].n_outcomes
    for label, povms, d, n_out in (
        ("Alice", alice_povms, d_a, n_a),
        ("Bob", bob_povms, d_b, n_b),
    ):
        for i, povm in enumerate(povms):
            if povm.dim != d:
                raise DimensionMismatchError(
                    f"{label} POVM {i} acts on dim {povm.dim}, state factor has dim {d}"
                )
            if povm.n_outcomes != n_out:
                raise DimensionMismatchError(
                    f"{label} POVM {i} has {povm.n_outcomes} outcomes, expected {n_out}"
                )
    a_stack = np.stack([np.stack(p.effects) for p in alice_povms])  # (n_x, n_a, dA, dA)
    b_stack = np.stack([np.stack(p.effects) for p in bob_povms])  # (n_y, n_b, dB, dB)
    rho4 = state.matrix.reshape(d_a, d_b, d_a, d_b)
    # p(a,b|x,y) = Tr[rho (A_{x,a} x B_{y,b})] with (A x B)_{(kl),(ij)} = A_kq... :
    # contraction rho[i,j,k,l] A[k,i] B[l,j].
    probs = np.einsum("ijkl,xaki,yblj->xyab", rho4, a_stack, b_stack, optimize=True)
    return CorrelationTable(probabilities=np.real(probs))


_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def bell_state(label: str) -> DensityOperator:
    """One of the four Bell states as a two-qubit density operator.

    Args:
        label: ``"phi+"``, ``"phi-"``, ``"psi+"`` or ``"psi-"``.
    """
    table = {
        "phi+": np.kron(_KET0, _KET0) + np.kron(_KET1, _KET1),
        "phi-": np.kron(_KET0, _KET0) - np.kron(_KET1, _KET1),
        "psi+": np.kron(_KET0, _KET1) + np.kron(_KET1, _KET0),
        "psi-": np.kron(_KET0, _KET1) - np.kron(_KET1, _KET0),
    }
    try:
        vec = table[label]
    except KeyError:
        raise ValueError(f"unknown Bell state {label!r}; expected one of {sorted(table)}")
    return DensityOperator.from_pure(vec, dims=(2, 2))


def singlet() -> DensityOperator:
    """The two-qubit singlet ``(|01> - |10>)/sqrt(2)``."""
    return bell_state("psi-")


def qubit_observable(theta: float) -> np.ndarray:
    """The +-1-valued qubit observable ``cos(theta) Z + sin(theta) X``."""
    return np.cos(theta) * _PAULI_Z + np.sin(theta) * _PAULI_X


def projective_qubit_povm(theta: float) -> Povm:
    """Projective measurement of ``qubit_observable(theta)``.

    Outcome 0 projects onto the +1 eigenspace, outcome 1 onto the -1
    eigenspace.
    """
    obs = qubit_observable(theta)
    eye = np.eye(2, dtype=complex)
    return Povm(effects=((eye + obs) / 2, (eye - obs) / 2))


def inefficient_qubit_povm(theta: float, eta: float) -> Povm:
    """Projective qubit measurement watched by a detector of efficiency ``eta``.

    With probability ``eta`` the projective measurement at angle ``theta``
    fires and reports outcome 0 or 1; with probability ``1 - eta`` the
    detector stays silent and reports the no-click outcome 2.  This is the
    three-outcome POVM ``(eta P_+, eta P_-, (1 - eta) I)``.

    Args:
        theta: Measurement angle in the X-Z plane.
        eta: Detection efficiency in ``[0, 1]``.
    """
    _real("efficiency", eta, _UNIT)
    base = projective_qubit_povm(theta)
    eye = np.eye(2, dtype=complex)
    return Povm(effects=(eta * base.effects[0], eta * base.effects[1], (1.0 - eta) * eye))

