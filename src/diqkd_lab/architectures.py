"""End-to-end entanglement-distribution architectures for DIQKD links.

Three link layouts share a common interface: a :class:`Scenario` describing
hardware and geometry goes in, a :class:`RunResult` with the heralded
correlation statistics, CHSH score, error rate, and extractable key rate
comes out.

* ``standard``: a pair source between the parties; photons fly directly to
  the measurement stations, so both detection efficiencies pick up the full
  fiber transmission and the Bell test degrades quickly with distance.
* ``local_heralding``: the source sits at Alice; Bob passes his arriving
  mode through a heralded qubit amplifier, so fiber loss is converted into
  a lower heralding rate instead of a lower detection efficiency.
* ``third_party``: sources at both ends, a Bell-state measurement at a
  midpoint station heralds entanglement swapping; again loss moves into
  the heralding rate.

Measurement layout (Acin et al., PRL 98, 230501 (2007)), decided here and
read by the key protocol: Alice uses two settings at angles ``(0, pi/2)``;
Bob uses three, ``(pi, 5 pi/4, 3 pi/4)``.  ``KEY_SETTINGS`` is the
key-generation pair (for the singlet these outcomes agree after Bob's
flip-free readout at ``pi``), and ``CHSH_TERMS`` lists the signed setting
pairs of the CHSH test: Alice's two settings against Bob's settings 1 and
2.  No-click and double-click outcomes are folded to outcome 0 for
certification, never sifted out of it.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from diqkd_lab.bellcert import (
    SINGLET_ALICE_ANGLES,
    SINGLET_BOB_ANGLES,
    bell_value,
    bin_no_click,
    chsh_functional,
)
from diqkd_lab.photonics import (
    DOUBLE_CLICK,
    DetectorModel,
    ModeMixture,
    bell_state_measurement,
    distance_to_transmission,
    loss_channel,
    mix,
    permute_modes,
    phase_shift,
    polarization_correlation_table,
    polarization_rotation,
    polarization_singlet,
    qubit_amplifier,
    spdc_source,
    tensor_modes,
)
from diqkd_lab.qstate import CorrelationTable, DimensionMismatchError

__all__ = [
    "ARCHITECTURES",
    "ALICE_ANGLES",
    "NeverHeraldsError",
    "BOB_ANGLES",
    "KEY_SETTINGS",
    "CHSH_TERMS",
    "Scenario",
    "RunResult",
    "matter_node_scenario",
    "binary_entropy",
    "devetak_winter_rate",
    "key_rate",
    "run_standard",
    "run_local_heralding",
    "run_third_party",
    "run",
    "secret_bits_per_second",
    "charlie_independence_residual",
]

ARCHITECTURES = ("standard", "local_heralding", "third_party")

ALICE_ANGLES = SINGLET_ALICE_ANGLES
BOB_ANGLES = (np.pi, *SINGLET_BOB_ANGLES)

#: Alice's and Bob's settings of the key-generation rounds.
KEY_SETTINGS = (0, 0)

# Bob settings participating in the CHSH test (setting 0 is the key basis).
CHSH_BOB_SETTINGS = (1, 2)

#: ``((x, y), sign)`` for each correlator of the CHSH test, in summation order.
CHSH_TERMS = tuple(
    ((x, y), float(w))
    for x, row in enumerate(chsh_functional().correlator_weights)
    for y, w in zip(CHSH_BOB_SETTINGS, row)
)

TSIRELSON = 2.0 * np.sqrt(2.0)


class NeverHeraldsError(RuntimeError):
    """Raised when a heralded architecture's herald has zero probability."""


@dataclass(frozen=True)
class Scenario:
    """Hardware and geometry of one link configuration.

    Attributes:
        architecture: One of ``ARCHITECTURES``.
        distance_km: Total Alice-Bob separation.
        attenuation_db_per_km: Fiber attenuation; 0.2 dB/km is standard
            telecom fiber.
        detector_efficiency: Efficiency of every measurement and heralding
            detector.
        pair_prob: Pair-emission parameter of the nondeterministic sources.
            Zero selects ideal on-demand sources: the entangled-pair sources
            always emit exactly one pair, and the amplifier ancillas are
            ideal single photons.
        amplifier_transmission: Beamsplitter transmission of the qubit
            amplifier (``local_heralding`` only).  Values near 1 give high
            gain and low heralding rate.
        dark_count_prob: Dark-count probability per detector per trial.
        repetition_rate_hz: Source repetition rate.
        readout_time_s: Measurement dead time per heralded round; 0 means
            detection never limits throughput.
        node_fidelity: Fidelity of the distributed pair to the ideal
            singlet before transmission losses (depolarizing imperfection
            of the source or memory node).
        source_position: Position of the pair source between Alice (0) and
            Bob (1); only the ``standard`` architecture uses it.
    """

    architecture: str = "standard"
    distance_km: float = 0.0
    attenuation_db_per_km: float = 0.2
    detector_efficiency: float = 1.0
    pair_prob: float = 0.0
    amplifier_transmission: float = 0.99
    dark_count_prob: float = 0.0
    repetition_rate_hz: float = 1.0e8
    readout_time_s: float = 0.0
    node_fidelity: float = 1.0
    source_position: float = 0.5

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; expected one of {ARCHITECTURES}"
            )
        # Every field but the architecture is a number; a bool is not one,
        # although Python compares it like one.
        for name in (f.name for f in dataclasses.fields(self) if f.name != "architecture"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        # Written so that NaN, which fails every comparison, is rejected too;
        # the bounded fields below reject NaN and infinities by their range.
        if not 0 < self.repetition_rate_hz < math.inf:
            raise ValueError(
                f"repetition_rate_hz must be positive and finite, got {self.repetition_rate_hz}"
            )
        non_negative = {
            "distance_km": self.distance_km,
            "attenuation_db_per_km": self.attenuation_db_per_km,
            "readout_time_s": self.readout_time_s,
        }
        for name, value in non_negative.items():
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {value}")
        unit = {
            "detector_efficiency": self.detector_efficiency,
            "dark_count_prob": self.dark_count_prob,
            "source_position": self.source_position,
        }
        for name, value in unit.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not 0.0 <= self.pair_prob < 1.0:
            raise ValueError(f"pair_prob must lie in [0, 1), got {self.pair_prob}")
        if not 0.0 < self.amplifier_transmission < 1.0:
            raise ValueError(
                f"amplifier_transmission must lie in (0, 1), got {self.amplifier_transmission}"
            )
        if not 0.0 <= self.node_fidelity <= 1.0:
            raise ValueError(
                f"node_fidelity must lie in [0, 1], got {self.node_fidelity}"
            )

    def to_dict(self) -> dict:
        """Plain-dict form (JSON friendly)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        """Build a scenario from a mapping, rejecting unknown keys by name."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown scenario fields: {', '.join(unknown)}")
        return cls(**dict(data))


def matter_node_scenario(**overrides) -> Scenario:
    """Scenario preset for matter-memory nodes.

    Matter nodes hold the entangled state deterministically but pay for it
    with imperfect state fidelity and a measurement dead time that caps the
    usable repetition rate.
    """
    params = {
        "architecture": "standard",
        "node_fidelity": 0.90,
        "readout_time_s": 2.0e-6,
    }
    params.update(overrides)
    return Scenario(**params)


@dataclass(frozen=True)
class RunResult:
    """Outcome statistics of one simulated link.

    Attributes:
        scenario: The configuration that produced this result.
        table: Conditional (on heralding, where applicable) measurement
            statistics with outcomes ``(0, 1, no-click, double-click)``,
            shape ``(2, 3, 4, 4)``.
        herald_probability: Probability per source repetition that the
            architecture declares a usable round (1 for ``standard``).
        chsh: Fair-binned CHSH value of the conditional statistics.
        qber: Error rate of the key basis among coincident rounds
            (double clicks folded to outcome 0, no-clicks sifted out).
        key_rate: Secret bits per heralded round: the coincident fraction
            of key-basis rounds times the asymptotic rate of the binned
            CHSH certificate.
    """

    scenario: Scenario
    table: CorrelationTable
    herald_probability: float
    chsh: float
    qber: float
    key_rate: float


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy ``h(p)`` in bits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def devetak_winter_rate(qber: float, chsh: float) -> float:
    """Asymptotic one-way DIQKD key rate from an error rate and CHSH value.

    ``r = 1 - h(Q) - h(1/2 + sqrt((S/2)^2 - 1)/2)``, floored at zero: the
    error-correction term pays for reconciling the key basis while the CHSH
    term bounds the eavesdropper's information.  Values of ``S`` at or
    below the local bound certify nothing (rate 0); values above the
    quantum maximum are clamped to it.

    Args:
        qber: Key-basis error rate ``Q`` in ``[0, 1]``.
        chsh: CHSH value ``S``.
    """
    if not 0.0 <= qber <= 1.0:
        raise ValueError(f"qber must lie in [0, 1], got {qber}")
    if chsh <= 2.0:
        return 0.0
    s = min(float(chsh), TSIRELSON)
    eve_term = binary_entropy(0.5 + 0.5 * np.sqrt((s / 2.0) ** 2 - 1.0))
    return float(max(0.0, 1.0 - binary_entropy(qber) - eve_term))


def _chsh_from_table(table: CorrelationTable) -> float:
    """Fair-binned CHSH of the (2 x 3)-setting table on Bob's test settings."""
    p = table.probabilities
    sub = CorrelationTable(probabilities=p[:, list(CHSH_BOB_SETTINGS)])
    return bell_value(bin_no_click(sub), chsh_functional())


def _sifted_qber(table: CorrelationTable) -> tuple[float, float]:
    """Key-basis coincidence fraction and error rate among coincidences.

    Double clicks count as outcome 0 (they are clicks); no-click rounds on
    either side are sifted out, which both parties can do by public
    discussion without touching the Bell test.
    """
    cell = table.probabilities[KEY_SETTINGS].copy()
    cell[0, :] += cell[DOUBLE_CLICK, :]
    cell[:, 0] += cell[:, DOUBLE_CLICK]
    coincident = float(cell[:2, :2].sum())
    if coincident <= 0.0:
        return 0.0, 0.5
    errors = float(cell[0, 1] + cell[1, 0])
    return coincident, errors / coincident


def key_rate(table: CorrelationTable) -> float:
    """Device-independent key rate of a measurement table, fully binned.

    Every non-binary outcome (no-click, double-click) is folded to outcome
    0 on both the key basis and the test settings before computing
    ``devetak_winter_rate``; nothing is sifted out, so this is the
    conservative rate an experiment quotes without post-selection.

    Args:
        table: Statistics with Alice's 2 settings and Bob's 3 settings.
    """
    if table.probabilities.shape[:2] != (2, 3):
        raise DimensionMismatchError(
            f"expected a (2, 3)-setting table, got {table.probabilities.shape[:2]}"
        )
    qber = bin_no_click(table).error_rate(*KEY_SETTINGS)
    return devetak_winter_rate(qber, _chsh_from_table(table))


# --------------------------------------------------------------------------
# Shared pipeline pieces
# --------------------------------------------------------------------------


def _depolarize_pair(state: ModeMixture, h_mode: int, v_mode: int, fidelity: float) -> ModeMixture:
    """Depolarize one polarization qubit so a singlet keeps the given fidelity.

    Applies the depolarizing channel in Kraus form,
    ``(1 - 3 lam/4) rho + (lam/4)(X rho X + Y rho Y + Z rho Z)`` with
    ``lam = 4 (1 - fidelity) / 3``, where the Paulis act on the mode pair
    (X: H<->V swap, Z: phase on the V occupation).  One-sided on a singlet
    this yields a Werner state of exactly the requested fidelity.
    """
    if fidelity >= 1.0:
        return state
    lam = 4.0 * (1.0 - fidelity) / 3.0
    swap = list(range(state.n_modes))
    swap[h_mode], swap[v_mode] = v_mode, h_mode
    z = phase_shift(state, v_mode, np.pi)
    return mix(
        [
            (1.0 - 0.75 * lam, state),
            (0.25 * lam, permute_modes(state, swap)),
            (0.25 * lam, z),
            (0.25 * lam, permute_modes(z, swap)),
        ]
    )


@lru_cache(maxsize=32)
def _pair_state(pair_prob: float, node_fidelity: float, n_pair_max: int = 2) -> ModeMixture:
    """Source output on modes (aH, aV, bH, bV).

    Cached: nothing along a distance sweep changes a source.
    """
    if pair_prob == 0.0:
        state = polarization_singlet()
    else:
        state = spdc_source(pair_prob, n_pair_max=n_pair_max)
    return _depolarize_pair(state, 2, 3, node_fidelity)


def _detector(scenario: Scenario, transmission: float = 1.0) -> DetectorModel:
    """The link's threshold detector behind fiber of the given transmission.

    Loss ``t`` in front of a threshold detector ``(eta, d)`` is exactly a
    detector ``(eta t, d)``: each of ``n`` photons survives and is detected
    independently, so the click probability is ``1 - (1 - d)(1 - eta
    t)^n``.  Loss also commutes with a passive two-mode unitary (a
    polarization rotation, a beamsplitter) when both of its modes lose the
    same ``t``.  So a station whose measured modes all cross the same fiber
    is simulated on the unattenuated state with this detector; loss on only
    some of the measured modes, or in front of an operation that is not
    passive on equally lossy modes, cannot be folded this way.
    """
    return DetectorModel(
        efficiency=scenario.detector_efficiency * transmission,
        dark_count_prob=scenario.dark_count_prob,
    )


@lru_cache(maxsize=32)
def _swap_link(pair_prob: float, node_fidelity: float) -> ModeMixture:
    """Both third_party sources before the swap, unattenuated.

    Alice keeps modes (0, 1) of her pair and Bob modes (6, 7) of his; the
    travelling halves (2, 3) and (4, 5) each cross half the distance to the
    station.  All four travelling modes lose the same ``half_t``
    (``_half_transmission``) and meet only the station's balanced
    beamsplitters, so their loss is folded into the station's detector
    (``_detector``) instead of being applied here.  Sources are truncated
    to single-pair emission.  The link depends on no distance, so it is
    cached on the two source parameters and built once per sweep.
    """
    source = _pair_state(pair_prob, node_fidelity, n_pair_max=1)
    # Swap the right source's halves so its travelling modes come first:
    # global layout (aH aV | c1H c1V c2H c2V | bH bV).
    return tensor_modes(source, permute_modes(source, (2, 3, 0, 1)))


def _half_transmission(scenario: Scenario) -> float:
    """Fiber transmission from either end of a third_party link to its station."""
    return distance_to_transmission(
        scenario.distance_km / 2.0, scenario.attenuation_db_per_km
    )


def _measure(state: ModeMixture, detector: DetectorModel) -> CorrelationTable:
    """Both stations' statistics: Alice on modes (0, 1), Bob on modes (2, 3)."""
    return polarization_correlation_table(
        state, (0, 1), (2, 3), ALICE_ANGLES, BOB_ANGLES, detector
    )


def _result(scenario: Scenario, table: CorrelationTable, herald_probability: float) -> RunResult:
    chsh = _chsh_from_table(table)
    coincident, qber = _sifted_qber(table)
    rate = coincident * devetak_winter_rate(qber, chsh)
    return RunResult(
        scenario=scenario,
        table=table,
        herald_probability=float(herald_probability),
        chsh=float(chsh),
        qber=float(qber),
        key_rate=float(rate),
    )


# --------------------------------------------------------------------------
# Architectures
# --------------------------------------------------------------------------


def run_standard(scenario: Scenario) -> RunResult:
    """Direct transmission: one source, both photons travel to the parties.

    The link is modeled symmetrically: both arms use the transmission of
    the longer arm (for a mid-point source the arms are equal anyway), so
    each party's effective detection efficiency is
    ``detector_efficiency * transmission(worst arm)`` and the binned CHSH
    decays with the square of the arm transmission.  That loss sits equally
    on all four measured modes, so it is simulated exactly as that less
    efficient detector (``_detector``) on the unattenuated source.  Every
    repetition is a round: ``herald_probability`` is 1.
    """
    worst_arm = max(scenario.source_position, 1.0 - scenario.source_position)
    arm_t = distance_to_transmission(
        worst_arm * scenario.distance_km, scenario.attenuation_db_per_km
    )
    state = _pair_state(scenario.pair_prob, scenario.node_fidelity)
    table = _measure(state, _detector(scenario, arm_t))
    return _result(scenario, table, 1.0)


def run_local_heralding(scenario: Scenario) -> RunResult:
    """Source at Alice; Bob heralds arrival with a qubit amplifier.

    Alice keeps her photon in the lab while Bob's travels the full
    distance and feeds a heralded qubit amplifier.  A successful herald
    teleports the surviving qubit onto fresh local modes; conditioned on
    it, the measured statistics are nearly distance independent (the only
    pollution is the teleported vacuum amplitude, suppressed by the
    amplifier's gain), while the heralding probability absorbs the fiber
    loss.  ``pair_prob`` parameterizes the amplifier's triggered ancilla
    sources; the entangled-pair source itself is ideal.
    """
    # The entangled-pair source is ideal whatever ``pair_prob`` is.
    state = _pair_state(0.0, scenario.node_fidelity)
    arm_t = distance_to_transmission(scenario.distance_km, scenario.attenuation_db_per_km)
    # Bob's fiber loss does not commute with the amplifier's Bell-state
    # measurement, so it stays an explicit channel.
    if arm_t < 1.0:
        state = loss_channel(loss_channel(state, 2, arm_t), 3, arm_t)
    record = qubit_amplifier(
        state,
        (2, 3),
        scenario.amplifier_transmission,
        detector=_detector(scenario),
        ancilla_pair_prob=scenario.pair_prob if scenario.pair_prob > 0 else None,
    )
    if record.conditional_state is None:
        raise NeverHeraldsError("amplifier never heralds under this scenario")
    table = _measure(record.conditional_state, _detector(scenario))
    return _result(scenario, table, record.success_probability)


def run_third_party(scenario: Scenario) -> RunResult:
    """Sources at both ends; a midpoint Bell measurement swaps entanglement.

    Alice and Bob each keep one half of a local pair and send the other
    half to a central station, where a linear-optics Bell-state measurement
    heralds the swap; a ``psi+`` herald is corrected to ``psi-`` by a
    feed-forward phase flip.  Pair sources are truncated to single-pair
    emission here: the swap's well-known multi-pair false heralds are a
    property of the sources, not of the architecture, and are exposed
    separately by the photonics layer.

    The fiber loss ``half_t`` on the four travelling modes is simulated as
    the station's detector efficiency ``detector_efficiency * half_t``
    (``_detector``): the station's beamsplitters act on modes (2, 4) and
    (3, 5), each of which loses the same ``half_t``, so the loss commutes
    with them onto the detectors.  Alice's and Bob's own modes cross no
    fiber and keep the plain detector.
    """
    state = _swap_link(scenario.pair_prob, scenario.node_fidelity)
    station = _detector(scenario, _half_transmission(scenario))
    bsm = bell_state_measurement(state, (2, 3), (4, 5), station)
    # Remaining modes: (aH, aV, bH, bV).  Feed-forward: phase-flip Bob's V
    # mode on a psi+ herald to map psi+ to psi-.
    heralds = [
        (o.probability, phase_shift(o.state, 3, np.pi) if o.label == "psi+" else o.state)
        for o in bsm.outcomes
        if o.state is not None
    ]
    if not heralds:
        raise NeverHeraldsError("the swap station never heralds under this scenario")
    return _result(scenario, _measure(mix(heralds), _detector(scenario)), bsm.success_probability)


_RUNNERS = {
    "standard": run_standard,
    "local_heralding": run_local_heralding,
    "third_party": run_third_party,
}


def run(scenario: Scenario) -> RunResult:
    """Simulate a scenario with the runner matching its architecture."""
    return _RUNNERS[scenario.architecture](scenario)


def secret_bits_per_second(result: RunResult) -> float:
    """Long-run secret key throughput of a link.

    The attempt rate is the source repetition rate, capped by the readout
    dead time when one is configured; each attempt heralds with
    ``herald_probability`` and each heralded round yields ``key_rate``
    secret bits asymptotically.
    """
    scenario = result.scenario
    rate = scenario.repetition_rate_hz
    if scenario.readout_time_s > 0:
        rate = min(rate, 1.0 / scenario.readout_time_s)
    return float(rate * result.herald_probability * result.key_rate)


def charlie_independence_residual(scenario: Scenario) -> float:
    """Largest shift of the swap herald probability across measurement settings.

    For the ``third_party`` architecture the station's heralding statistics
    must not depend on which settings Alice and Bob choose -- their
    measurements act on modes the station never touches.  This check runs
    the measurement rotations *before* the Bell-state measurement (the
    operations commute) and compares the herald probability across all
    setting pairs.  As in ``run_third_party``, the equal fiber loss on the
    station's four input modes is its detector efficiency
    ``detector_efficiency * half_t``.

    Returns:
        ``max - min`` of the herald probability over the setting pairs;
        zero up to floating-point round-off for an honest model.
    """
    if scenario.architecture != "third_party":
        raise ValueError("independence check applies to the third_party architecture")
    state = _swap_link(scenario.pair_prob, scenario.node_fidelity)
    detector = _detector(scenario, _half_transmission(scenario))
    herald_probs = []
    for alice_angle in ALICE_ANGLES:
        for bob_angle in BOB_ANGLES:
            rotated = polarization_rotation(state, 0, 1, alice_angle)
            rotated = polarization_rotation(rotated, 6, 7, bob_angle)
            bsm = bell_state_measurement(rotated, (2, 3), (4, 5), detector)
            herald_probs.append(bsm.success_probability)
    return float(max(herald_probs) - min(herald_probs))
