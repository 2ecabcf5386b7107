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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from diqkd_lab.bellcert import (
    SINGLET_ALICE_ANGLES,
    SINGLET_BOB_ANGLES,
    CHSH_SIGNS,
    _binned,
    _chsh_of,
)
from diqkd_lab.photonics import (
    DOUBLE_CLICK,
    DetectorModel,
    ModeMixture,
    _born_tables,
    _contract_povms,
    _interfered,
    _pattern_likelihoods,
    _reduced_density,
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
from diqkd_lab.qstate import (
    _NON_NEGATIVE,
    _NOT_NAN,
    _POSITIVE,
    _UNIT,
    _UNIT_OPEN,
    _UNIT_OPEN_ABOVE,
    CorrelationTable,
    DimensionMismatchError,
    _disagreement,
    _real,
)

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
    for x, row in enumerate(CHSH_SIGNS)
    for y, w in zip(CHSH_BOB_SETTINGS, row)
)

TSIRELSON = 2.0 * np.sqrt(2.0)


# The range of each numeric Scenario field, every field but the architecture.
_SCENARIO_RANGES = {
    "distance_km": _NON_NEGATIVE,
    "attenuation_db_per_km": _NON_NEGATIVE,
    "detector_efficiency": _UNIT,
    "pair_prob": _UNIT_OPEN_ABOVE,
    "amplifier_transmission": _UNIT_OPEN,
    "dark_count_prob": _UNIT,
    "repetition_rate_hz": _POSITIVE,
    "readout_time_s": _NON_NEGATIVE,
    "node_fidelity": _UNIT,
    "source_position": _UNIT,
}


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
        for name, rule in _SCENARIO_RANGES.items():
            _real(name, getattr(self, name), rule)


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
            CHSH certificate.  Only coincident key-basis rounds are kept,
            so this rate assumes that no-click rounds are fairly sampled;
            it is not the device-independent figure (see :func:`key_rate`).
    """

    scenario: Scenario
    table: CorrelationTable
    herald_probability: float
    chsh: float
    qber: float
    key_rate: float


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy ``h(p)`` in bits."""
    _real("probability", p, _UNIT)
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
        chsh: CHSH value ``S``, not NaN; ``-inf`` gives 0 and ``+inf`` is
            clamped like any value above the maximum.
    """
    _real("qber", qber, _UNIT)
    _real("chsh", chsh, _NOT_NAN)
    if chsh <= 2.0:
        return 0.0
    s = min(float(chsh), TSIRELSON)
    eve_term = binary_entropy(0.5 + 0.5 * np.sqrt((s / 2.0) ** 2 - 1.0))
    return float(max(0.0, 1.0 - binary_entropy(qber) - eve_term))


def _chsh_from_table(table: CorrelationTable) -> float:
    """Fair-binned CHSH of the (2 x 3)-setting table on Bob's test settings.

    Bins and scores the sub-block of the table's probabilities with the
    array cores of ``bellcert.bin_no_click`` and ``bellcert.chsh``, and
    builds no table on the way: the table's constructor already clipped
    its probabilities to be non-negative, so the sub-block and its binned
    sums are non-negative, and a table's copy-and-clip of them would change
    nothing.
    """
    return _chsh_of(_binned(table.probabilities[:, list(CHSH_BOB_SETTINGS)]))


def _sifted_qber(table: CorrelationTable) -> tuple[float, float]:
    """Key-basis coincidence fraction and error rate among coincidences.

    Double clicks count as outcome 0 (they are clicks); no-click rounds on
    either side are sifted out, which both parties can do by public
    discussion without touching the Bell test.  The sifted rate built on
    this (``RunResult.key_rate``) keeps only coincident key-basis rounds,
    so it assumes that no-click rounds are fairly sampled: the devices
    control whether they click, and the CHSH certificate bounds the binned
    bit over all key rounds.  It is therefore not the device-independent
    figure, which is :func:`key_rate`.
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
    conservative rate an experiment quotes without post-selection, and the
    rate the key session computes with ``devetak_winter_rate`` from its
    binned estimates.  ``RunResult.key_rate``, by contrast, keeps only
    coincident key-basis rounds.

    Args:
        table: Statistics with Alice's 2 settings and Bob's 3 settings.
    """
    settings = (len(ALICE_ANGLES), len(BOB_ANGLES))
    if table.probabilities.shape[:2] != settings:
        raise DimensionMismatchError(
            f"expected a {settings}-setting table, got {table.probabilities.shape[:2]}"
        )
    qber = _disagreement(_binned(table.probabilities)[KEY_SETTINGS])
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


@lru_cache(maxsize=32)
def _source_density(pair_prob: float, node_fidelity: float) -> tuple[np.ndarray, tuple[int, int]]:
    """The standard source's reduced density on the stations' modes (0, 1) and (2, 3).

    The density half of the stations' Born tables
    (``photonics._reduced_density``); ``_run_standard`` contracts it with
    each point's detector.  Cached, read-only, keyed like ``_pair_state``:
    nothing along a distance sweep changes it, so a sweep builds it once.
    """
    state = _pair_state(pair_prob, node_fidelity)
    return _reduced_density(state, (0, 1), (2, 3), np.zeros(state.amp.size, np.intp))


def _detector(scenario: Scenario, transmission: float = 1.0) -> DetectorModel:
    """The link's threshold detector behind fiber of the given transmission.

    Loss ``t`` in front of a threshold detector ``(eta, d)`` is exactly a
    detector ``(eta t, d)``: each of ``n`` photons survives and is detected
    independently, so the click probability is ``1 - (1 - d)(1 - eta
    t)^n``.  Loss also commutes with a passive two-mode unitary (a
    polarization rotation, a beamsplitter) when both of its modes lose the
    same ``t``.  So a station whose measured modes all cross the same fiber
    is simulated on the unattenuated state with this detector: the
    ``standard`` stations measure the cached source with it, as the
    cached density of their modes (``_source_density``), and the
    ``third_party`` swap station weighs the cached station contents of its
    interfered link by this detector's pattern likelihoods
    (``photonics._pattern_likelihoods``, through ``_swap_station``), so
    along a distance sweep only this detector changes.  Loss on only some
    of the measured modes, or in front of an operation that is not passive
    on equally lossy modes, cannot be folded this way: Bob's loss in front
    of the qubit amplifier is split instead into the photon's arrived and
    lost terms (``_run_local_heralding``).
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
    station.  All four travelling modes lose the same ``half_t`` and meet
    only the station's balanced beamsplitters, so their loss is folded into
    the station's detector (``_swap_station``) instead of being applied
    here.  Sources are truncated to single-pair emission.  The link depends
    on no distance, so it is cached on the two source parameters and built
    once per sweep.
    """
    source = _pair_state(pair_prob, node_fidelity, n_pair_max=1)
    # Swap the right source's halves so its travelling modes come first:
    # global layout (aH aV | c1H c1V c2H c2V | bH bV).
    return tensor_modes(source, permute_modes(source, (2, 3, 0, 1)))


def _swap_station(
    scenario: Scenario, contents: np.ndarray, probabilities: np.ndarray
) -> tuple[float, np.ndarray]:
    """The third_party station's herald and the heralding weight of each station content.

    The station is photonics' Bell-state measurement: a link interfered by
    ``photonics._interfered`` comes grouped by the Fock content of the
    four station modes, and ``photonics._pattern_likelihoods`` gives each
    of the four heralding patterns its probability and its likelihood per
    content, zero for a pattern that never heralds.  So the station is
    known from the link's content probabilities and this point's station
    detector alone, and it equals ``photonics.bell_state_measurement``
    pattern for pattern.  The station's modes each cross half the
    distance, so all four lose the same ``half_t``, which commutes through
    the balanced beamsplitters onto the detectors: the station detects
    with efficiency ``detector_efficiency * half_t`` (``_detector``).

    Both :func:`run` and :func:`charlie_independence_residual` herald
    through this one station.

    Returns:
        ``(herald, weights)``: the probability of the heralding patterns,
        and ``weights[s, c]``, the summed likelihood of content ``c`` under
        the ``psi-`` (``s = 0``) or ``psi+`` (``s = 1``) patterns, so that
        ``weights @ probabilities`` sums to the herald.
    """
    half_t = distance_to_transmission(scenario.distance_km / 2.0, scenario.attenuation_db_per_km)
    probs, likelihoods = _pattern_likelihoods(contents, probabilities, _detector(scenario, half_t))
    # The Bell-state measurement's patterns come as two psi+, then two psi-.
    return float(probs.sum()), likelihoods.reshape(2, 2, -1).sum(axis=1)[::-1]


@lru_cache(maxsize=32)
def _swap_terms(
    pair_prob: float, node_fidelity: float, detector: DetectorModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The station contents of a third_party link, their probabilities and their tables.

    ``tables[s, c]`` is the joint Born table of Alice's and Bob's
    outcomes and of the station content ``c``, with (``s = 1``) or without
    (``s = 0``) the feed-forward flip of Bob's V mode that maps a ``psi+``
    herald to ``psi-``.  The flip, a phase of ``pi`` per photon, turns Bob's
    rotation by ``theta / 2`` into one by ``-theta / 2``, so the flipped
    tables are the unflipped state's at Bob's negated angles, and one
    contraction (``photonics._born_tables``) gives all of them.

    Cached, read-only: nothing here depends on the distance, so a distance
    sweep interferes and measures each link once.
    """
    link = _swap_link(pair_prob, node_fidelity)
    mixed, contents, content, probabilities = _interfered(link, (2, 3, 4, 5))
    bob_angles = BOB_ANGLES + tuple(-angle for angle in BOB_ANGLES)
    tables = _born_tables(mixed, (0, 1), (6, 7), ALICE_ANGLES, bob_angles, detector, content)
    n_y = len(BOB_ANGLES)
    terms = contents, probabilities, np.stack([tables[:, :, :n_y], tables[:, :, n_y:]])
    for array in terms:  # shared by every caller of the cache
        array.setflags(write=False)
    return terms


@lru_cache(maxsize=32)
def _amplified_term(
    node_fidelity: float,
    amplifier_transmission: float,
    ancilla_pair_prob: float | None,
    detector: DetectorModel,
    arrived: bool,
) -> tuple[float, CorrelationTable | None]:
    """Herald probability and table of one term of Bob's lossy fiber.

    The ideal pair source of a local_heralding link keeps Bob's photon
    (``arrived``) or has both of his modes (2, 3) emptied; the qubit
    amplifier takes those modes and the heralded state is measured, Alice
    on modes (0, 1) and Bob on the amplifier's output modes (2, 3).
    ``(0.0, None)`` when the amplifier never heralds.  The two terms
    describe loss exactly because every row of that source holds one
    photon in Bob's modes (``test_ideal_source_holds_one_photon_on_bobs_modes``):
    the amplifier keeps the coherence of a superposition of 0 and 1 photon
    there, which the mixture of the two terms would lose.

    Cached: the term depends on no distance, so a distance sweep builds
    each term once.
    """
    state = _pair_state(0.0, node_fidelity)
    if not arrived:
        state = loss_channel(loss_channel(state, 2, 0.0), 3, 0.0)
    record = qubit_amplifier(
        state,
        (2, 3),
        amplifier_transmission,
        detector=detector,
        ancilla_pair_prob=ancilla_pair_prob,
    )
    if record.conditional_state is None:
        return 0.0, None
    table = polarization_correlation_table(
        record.conditional_state, (0, 1), (2, 3), ALICE_ANGLES, BOB_ANGLES, detector
    )
    return record.success_probability, table


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


def _run_standard(scenario: Scenario) -> RunResult:
    """Direct transmission: one source, both photons travel to the parties.

    The link is modeled symmetrically: both arms use the transmission of
    the longer arm (for a mid-point source the arms are equal anyway), so
    each party's effective detection efficiency is
    ``detector_efficiency * transmission(worst arm)`` and the binned CHSH
    decays with the square of the arm transmission.  That loss sits equally
    on all four measured modes, so it is simulated exactly as that less
    efficient detector (``_detector``) on the unattenuated source.  Every
    repetition is a round: ``herald_probability`` is 1.

    The table is linear in the source's reduced density, which no distance
    changes: it is cached (``_source_density``), and a point only contracts
    it with its own detector's click POVMs, which is
    ``photonics.polarization_correlation_table`` of the source step for step.
    """
    worst_arm = max(scenario.source_position, 1.0 - scenario.source_position)
    arm_t = distance_to_transmission(
        worst_arm * scenario.distance_km, scenario.attenuation_db_per_km
    )
    density = _source_density(scenario.pair_prob, scenario.node_fidelity)
    tables = _contract_povms(density, ALICE_ANGLES, BOB_ANGLES, _detector(scenario, arm_t))
    return _result(scenario, CorrelationTable(probabilities=tables[0]), 1.0)


def _run_local_heralding(scenario: Scenario) -> RunResult:
    """Source at Alice; Bob heralds arrival with a qubit amplifier.

    Alice keeps her photon in the lab while Bob's travels the full
    distance and feeds a heralded qubit amplifier.  A successful herald
    teleports the surviving qubit onto fresh local modes; conditioned on
    it, the measured statistics are nearly distance independent (the only
    pollution is the teleported vacuum amplitude, suppressed by the
    amplifier's gain), while the heralding probability absorbs the fiber
    loss.  ``pair_prob`` parameterizes the amplifier's triggered ancilla
    sources; the entangled-pair source itself is ideal.

    Bob's fiber loss does not commute with the amplifier's Bell-state
    measurement, so it cannot be folded into a detector.  But every row of
    the ideal source holds exactly one photon in Bob's modes, so loss ``t``
    on them is exactly the two-term mixture ``t rho + (1 - t) rho_lost``:
    the photon arrives, or both of Bob's modes are empty.  The amplifier
    and the measurement are linear in the state, so the herald is ``P = t
    P_1 + (1 - t) P_0`` and the table is ``(t P_1 T_1 + (1 - t) P_0 T_0) /
    P``, where ``(P_1, T_1)`` and ``(P_0, T_0)`` are the arrived and the
    lost term's herald and table (``_amplified_term``, cached: neither
    depends on the distance).  At ``t = 1`` the arrived term is the
    result, and the lost term is never built.
    """
    setting = (
        scenario.node_fidelity,
        scenario.amplifier_transmission,
        scenario.pair_prob if scenario.pair_prob > 0 else None,
        _detector(scenario),
    )
    herald, table = _amplified_term(*setting, True)
    arm_t = distance_to_transmission(scenario.distance_km, scenario.attenuation_db_per_km)
    if arm_t < 1.0:
        lost_herald, lost_table = _amplified_term(*setting, False)
        terms = [(arm_t * herald, table), ((1.0 - arm_t) * lost_herald, lost_table)]
        herald = sum(weight for weight, _ in terms)
        if herald > 0.0:
            weighted = (w * term.probabilities for w, term in terms if term is not None)
            table = CorrelationTable(sum(weighted) / herald)
    if not herald > 0.0:
        raise NeverHeraldsError("amplifier never heralds under this scenario")
    return _result(scenario, table, herald)


def _run_third_party(scenario: Scenario) -> RunResult:
    """Sources at both ends; a midpoint Bell measurement swaps entanglement.

    Alice and Bob each keep one half of a local pair and send the other
    half to a central station, where a linear-optics Bell-state measurement
    heralds the swap; a ``psi+`` herald is corrected to ``psi-`` by a
    feed-forward phase flip.  Pair sources are truncated to single-pair
    emission here (``_swap_link``), so the swap's multi-pair false heralds
    are left out, and no output shows them.  They decide the answer: at
    ``pair_prob`` 1e-2, ``detector_efficiency`` 0.95, dark counts 1e-6
    and 20 km, CHSH is 2.554 at this one-pair cut and 1.865 at a two-pair
    cut (ROADMAP item 3).

    The measurement is linear in the station's click likelihoods.  Every
    row of one station content ``c`` heralds with the same likelihood, so
    the heralded table is ``sum_c (w_c^- T_c^- + w_c^+ T_c^+) / P``: ``T_c^-``
    and ``T_c^+`` are content ``c``'s joint tables without and with the
    feed-forward flip (``_swap_terms``, cached: neither depends on the
    distance), and ``w_c^-``, ``w_c^+`` and the herald ``P`` come from
    this point's station detector (``_swap_station``, the station
    criterion 9 checks through :func:`charlie_independence_residual`).
    The fiber loss ``half_t`` on the four travelling modes is that
    detector's efficiency ``detector_efficiency * half_t``; Alice's and
    Bob's own modes cross no fiber and keep the plain detector.
    """
    contents, probabilities, tables = _swap_terms(
        scenario.pair_prob, scenario.node_fidelity, _detector(scenario)
    )
    herald, weights = _swap_station(scenario, contents, probabilities)
    if not herald > 0.0:
        raise NeverHeraldsError("the swap station never heralds under this scenario")
    table = weights.reshape(-1) @ tables.reshape(weights.size, -1) / herald
    return _result(scenario, CorrelationTable(table.reshape(tables.shape[2:])), herald)


_RUNNERS = {
    "standard": _run_standard,
    "local_heralding": _run_local_heralding,
    "third_party": _run_third_party,
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
    operations commute), interferes each rotated link at the station
    (``photonics._interfered``) and compares the herald probability across
    all setting pairs.  Each rotated link heralds through the station that
    :func:`run` uses on a ``third_party`` scenario (``_swap_station``), so
    the check certifies the runner's own herald.

    Returns:
        ``max - min`` of the herald probability over the setting pairs;
        zero up to floating-point round-off for an honest model.
    """
    if scenario.architecture != "third_party":
        raise ValueError("independence check applies to the third_party architecture")
    state = _swap_link(scenario.pair_prob, scenario.node_fidelity)
    herald_probs = []
    for alice_angle in ALICE_ANGLES:
        for bob_angle in BOB_ANGLES:
            rotated = polarization_rotation(state, 0, 1, alice_angle)
            rotated = polarization_rotation(rotated, 6, 7, bob_angle)
            _, contents, _, probabilities = _interfered(rotated, (2, 3, 4, 5))
            herald_probs.append(_swap_station(scenario, contents, probabilities)[0])
    return float(max(herald_probs) - min(herald_probs))
