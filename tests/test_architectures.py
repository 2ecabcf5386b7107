"""Tests for the three photonic-link architectures and the rate model."""

import dataclasses

import numpy as np
import pytest

from diqkd_lab import architectures, photonics
from diqkd_lab.architectures import (
    ALICE_ANGLES,
    ARCHITECTURES,
    BOB_ANGLES,
    RunResult,
    Scenario,
    binary_entropy,
    charlie_independence_residual,
    devetak_winter_rate,
    key_rate,
    matter_node_scenario,
    run,
    secret_bits_per_second,
)
from diqkd_lab.photonics import (
    DetectorModel,
    bell_state_measurement,
    loss_channel,
    mix,
    permute_modes,
    phase_shift,
    polarization_correlation_table,
    polarization_singlet,
    spdc_source,
    tensor_modes,
)
from diqkd_lab.qstate import DensityOperator, born_table, inefficient_qubit_povm, singlet

TSIRELSON = 2.0 * np.sqrt(2.0)


def arm_transmission(length_km: float, alpha: float = 0.2) -> float:
    return 10.0 ** (-alpha * length_km / 10.0)


# ----------------------------------------------------------------------
# Scenario plumbing
# ----------------------------------------------------------------------


def test_scenario_defaults():
    s = Scenario()
    assert s.architecture == "standard"
    assert s.distance_km == 0.0
    assert s.detector_efficiency == 1.0
    assert s.pair_prob == 0.0
    assert s.amplifier_transmission == 0.99
    assert s.node_fidelity == 1.0
    assert s.source_position == 0.5


def test_scenario_validation_messages():
    with pytest.raises(ValueError, match="detector_efficiency must lie in"):
        Scenario(detector_efficiency=1.5)
    with pytest.raises(ValueError, match="unknown architecture"):
        Scenario(architecture="mesh")
    with pytest.raises(ValueError, match="pair_prob"):
        Scenario(pair_prob=1.0)
    with pytest.raises(ValueError, match="source_position"):
        Scenario(source_position=1.5)
    with pytest.raises(ValueError, match="distance_km"):
        Scenario(distance_km=-1.0)
    with pytest.raises(ValueError, match="distance_km must be non-negative and finite, got nan"):
        Scenario(distance_km=float("nan"))
    with pytest.raises(ValueError, match="repetition_rate_hz must be positive and finite, got inf"):
        Scenario(repetition_rate_hz=float("inf"))
    with pytest.raises(ValueError, match="distance_km must be a number, got '5'"):
        Scenario(distance_km="5")
    with pytest.raises(ValueError, match="pair_prob must be a number, got True"):
        Scenario(pair_prob=True)
    with pytest.raises(ValueError, match="node_fidelity must be a number, got None"):
        Scenario(node_fidelity=None)


def test_scenario_dict_roundtrip():
    s = Scenario(architecture="third_party", distance_km=12.5, pair_prob=0.01)
    assert Scenario.from_dict(s.to_dict()) == s
    with pytest.raises(ValueError, match="unknown scenario fields: bogus"):
        Scenario.from_dict({"bogus": 1})


def test_matter_node_preset():
    m = matter_node_scenario(distance_km=1.0)
    assert m.node_fidelity == pytest.approx(0.9)
    assert m.readout_time_s == pytest.approx(2e-6)
    assert m.distance_km == 1.0


def test_run_result_is_frozen():
    result = run(Scenario())
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.chsh = 0.0


# ----------------------------------------------------------------------
# Rate formulas
# ----------------------------------------------------------------------


def test_binary_entropy_landmarks():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.2) == pytest.approx(binary_entropy(0.8), abs=1e-15)


def test_devetak_winter_rate_values():
    assert devetak_winter_rate(0.0, TSIRELSON) == pytest.approx(1.0, abs=1e-12)
    assert devetak_winter_rate(0.05, 2.6) == pytest.approx(0.2951829737849253, abs=1e-12)
    assert devetak_winter_rate(0.0, 2.0) == 0.0
    assert devetak_winter_rate(0.0, 1.5) == 0.0
    # Values above the quantum maximum are clamped, not extrapolated.
    assert devetak_winter_rate(0.0, 3.0) == pytest.approx(1.0, abs=1e-12)


def test_key_rate_on_ideal_table():
    result = run(Scenario())
    assert key_rate(result.table) == pytest.approx(1.0, abs=1e-9)


def test_key_rate_zero_without_violation():
    result = run(Scenario(detector_efficiency=0.5))
    assert key_rate(result.table) == 0.0


# ----------------------------------------------------------------------
# Standard architecture
# ----------------------------------------------------------------------


def test_standard_ideal_point():
    result = run(Scenario())
    assert result.herald_probability == pytest.approx(1.0, abs=1e-12)
    assert result.chsh == pytest.approx(TSIRELSON, abs=1e-12)
    assert result.qber == pytest.approx(0.0, abs=1e-12)
    assert result.key_rate == pytest.approx(1.0, abs=1e-12)
    assert result.table.probabilities.shape == (
        len(ALICE_ANGLES),
        len(BOB_ANGLES),
        4,
        4,
    )


def test_standard_midpoint_source_closed_form():
    """Each arm spans L/2; binned CHSH is eta^2 S_max + 2 (1 - eta)^2."""
    result = run(Scenario(distance_km=3.5))
    eta = arm_transmission(1.75)
    expected_chsh = eta**2 * TSIRELSON + 2.0 * (1.0 - eta) ** 2
    assert result.chsh == pytest.approx(expected_chsh, abs=1e-12)
    # Both photons must arrive for a sifted key round; errors stay zero.
    assert result.qber == pytest.approx(0.0, abs=1e-12)
    assert result.key_rate == pytest.approx(
        eta**2 * devetak_winter_rate(0.0, expected_chsh), abs=1e-12
    )


def test_standard_detector_inefficiency_kills_rate():
    result = run(Scenario(detector_efficiency=0.5))
    expected_chsh = 0.25 * TSIRELSON + 2.0 * 0.25
    assert result.chsh == pytest.approx(expected_chsh, abs=1e-12)
    assert result.key_rate == 0.0


def test_standard_node_fidelity_werner_statistics():
    """One-sided depolarization to fidelity F gives S = (4F - 1)/3 * S_max."""
    result = run(Scenario(node_fidelity=0.9))
    shrink = (4.0 * 0.9 - 1.0) / 3.0
    assert result.chsh == pytest.approx(shrink * TSIRELSON, abs=1e-12)
    assert result.qber == pytest.approx((1.0 - shrink) / 2.0, abs=1e-12)
    worst = run(Scenario(node_fidelity=0.0))
    assert worst.chsh == pytest.approx(-TSIRELSON / 3.0, abs=1e-12)
    assert worst.qber == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_standard_source_position_moves_worst_arm():
    """With the source at one node, the far arm spans the full distance."""
    at_node = run(Scenario(distance_km=3.0, source_position=0.0))
    centred = run(Scenario(distance_km=3.0, source_position=0.5))
    assert at_node.chsh < centred.chsh
    eta_far = arm_transmission(3.0)
    expected = eta_far**2 * TSIRELSON + 2.0 * (1.0 - eta_far) ** 2
    assert at_node.chsh == pytest.approx(expected, abs=1e-12)


def test_standard_table_matches_born_rule_oracle():
    """Ideal-source photonics equals the Born rule on a Werner state.

    With no multi-pair emission and no dark counts, the standard link is a
    Werner state of the node fidelity measured by detectors of efficiency
    ``eta_d * T_worst_arm``; double clicks never happen.
    """
    psi = singlet().matrix
    for eta_d, fidelity, distance_km, position in (
        (1.0, 1.0, 0.0, 0.5),
        (0.95, 0.97, 10.0, 0.5),
        (0.9, 0.9, 25.0, 0.2),
        (0.8, 0.75, 5.0, 1.0),
        (0.97, 0.5, 40.0, 0.0),
    ):
        result = run(
            Scenario(
                detector_efficiency=eta_d,
                node_fidelity=fidelity,
                distance_km=distance_km,
                source_position=position,
            )
        )
        eta = eta_d * arm_transmission(max(position, 1.0 - position) * distance_km)
        werner = DensityOperator(
            matrix=fidelity * psi + (1.0 - fidelity) / 3.0 * (np.eye(4) - psi), dims=(2, 2)
        )
        oracle = born_table(
            werner,
            [inefficient_qubit_povm(t, eta) for t in ALICE_ANGLES],
            [inefficient_qubit_povm(t, eta) for t in BOB_ANGLES],
        ).probabilities
        padded = np.zeros((2, 3, 4, 4))
        padded[:, :, :3, :3] = oracle
        np.testing.assert_allclose(result.table.probabilities, padded, rtol=0.0, atol=1e-12)


# ----------------------------------------------------------------------
# Local heralding architecture
# ----------------------------------------------------------------------


def test_local_heralding_herald_probability_closed_form():
    """Ideal ancillas herald at (1 - eta)(1 - T)^2 + eta (1 - T)."""
    t = 0.9
    result = run(
        Scenario(architecture="local_heralding", distance_km=10.0, amplifier_transmission=t)
    )
    eta = arm_transmission(10.0)
    expected = (1.0 - eta) * (1.0 - t) ** 2 + eta * (1.0 - t)
    assert result.herald_probability == pytest.approx(expected, rel=1e-9)
    # Vacuum contamination keeps S below the ideal value but above the
    # classical bound at this transmission.
    assert 2.0 < result.chsh < TSIRELSON
    assert result.qber == pytest.approx(0.0, abs=1e-12)


def test_local_heralding_near_unit_transmission_restores_singlet():
    result = run(
        Scenario(
            architecture="local_heralding",
            distance_km=25.0,
            amplifier_transmission=1.0 - 1e-8,
        )
    )
    assert result.chsh == pytest.approx(TSIRELSON, abs=1e-6)
    assert result.key_rate == pytest.approx(1.0, abs=1e-5)


# ----------------------------------------------------------------------
# Third-party (central station) architecture
# ----------------------------------------------------------------------


def test_third_party_ideal_sources_swap():
    """On-demand pair sources: herald probability is t_arm^2 / 2."""
    result = run(Scenario(architecture="third_party", distance_km=20.0))
    t_arm = arm_transmission(10.0)
    assert result.herald_probability == pytest.approx(t_arm**2 / 2.0, rel=1e-9)
    assert result.chsh == pytest.approx(TSIRELSON, abs=1e-9)
    assert result.key_rate == pytest.approx(1.0, abs=1e-9)


def test_third_party_pair_source_herald_probability():
    """Truncated pair sources fire together with probability (p/(1+p))^2 / 2."""
    p = 0.003
    result = run(Scenario(architecture="third_party", pair_prob=p))
    expected = (p / (1.0 + p)) ** 2 / 2.0
    assert result.herald_probability == pytest.approx(expected, rel=1e-9)
    assert result.chsh == pytest.approx(TSIRELSON, abs=1e-9)


def test_charlie_outcome_is_setting_independent():
    residual = charlie_independence_residual(
        Scenario(architecture="third_party", pair_prob=0.01, distance_km=10.0)
    )
    assert residual < 1e-12


# ----------------------------------------------------------------------
# Fiber loss as detector efficiency
# ----------------------------------------------------------------------


def _explicit_loss_run(scenario: Scenario) -> tuple[np.ndarray, float]:
    """Table and herald probability of ``standard`` or ``third_party`` with
    fiber loss applied photon by photon, as ``loss_channel`` on every
    travelling mode in front of the plain detectors."""
    detector = DetectorModel(scenario.detector_efficiency, scenario.dark_count_prob)

    def source(n_pair_max):
        if scenario.pair_prob == 0.0:
            state = polarization_singlet()
        else:
            state = spdc_source(scenario.pair_prob, n_pair_max=n_pair_max)
        if scenario.node_fidelity == 1.0:
            return state
        # The depolarizing channel on Bob's (H, V) modes 2 and 3.
        lam = 4.0 * (1.0 - scenario.node_fidelity) / 3.0
        z = phase_shift(state, 3, np.pi)
        parts = (state, permute_modes(state, (0, 1, 3, 2)), z, permute_modes(z, (0, 1, 3, 2)))
        return mix(zip((1.0 - 0.75 * lam, 0.25 * lam, 0.25 * lam, 0.25 * lam), parts))

    def lossy(state, modes, length_km):
        t = arm_transmission(length_km, scenario.attenuation_db_per_km)
        for mode in modes:
            state = loss_channel(state, mode, t)
        return state

    if scenario.architecture == "standard":
        position = scenario.source_position
        arm_km = max(position, 1.0 - position) * scenario.distance_km
        state, herald = lossy(source(2), (0, 1, 2, 3), arm_km), 1.0
    else:
        right = permute_modes(source(1), (2, 3, 0, 1))
        link = lossy(tensor_modes(source(1), right), (2, 3, 4, 5), scenario.distance_km / 2.0)
        bsm = bell_state_measurement(link, (2, 3), (4, 5), detector)
        heralds = [
            (o.probability, phase_shift(o.state, 3, np.pi) if o.label == "psi+" else o.state)
            for o in bsm.outcomes
            if o.state is not None
        ]
        state, herald = mix(heralds), sum(p for p, _ in heralds)
    table = polarization_correlation_table(
        state, (0, 1), (2, 3), ALICE_ANGLES, BOB_ANGLES, detector
    )
    return table.probabilities, herald


FOLDED_LOSS_CASES = [
    dict(architecture=a, distance_km=d, node_fidelity=f, pair_prob=p, source_position=x)
    for a in ("standard", "third_party")
    for d in (0.0, 25.0, 100.0)
    for f in (1.0, 0.97)
    for p in (0.0, 0.05)
    for x in ((0.0, 0.5) if a == "standard" else (0.5,))
]
FOLDED_LOSS_IDS = [
    "{architecture}-{distance_km:g}km-F{node_fidelity:g}-p{pair_prob:g}"
    "-x{source_position:g}".format(**c)
    for c in FOLDED_LOSS_CASES
]


@pytest.mark.parametrize("fields", FOLDED_LOSS_CASES, ids=FOLDED_LOSS_IDS)
def test_fiber_loss_folded_into_detectors_matches_explicit_loss(fields):
    scenario = Scenario(detector_efficiency=0.95, dark_count_prob=1e-6, **fields)
    table, herald = _explicit_loss_run(scenario)
    result = run(scenario)
    np.testing.assert_allclose(result.table.probabilities, table, rtol=0.0, atol=1e-14)
    assert result.herald_probability == pytest.approx(herald, rel=1e-12)


# ----------------------------------------------------------------------
# Throughput and sweeps
# ----------------------------------------------------------------------


def test_secret_bits_per_second_clock_cap():
    result = run(matter_node_scenario())
    capped = min(1e8, 1.0 / 2e-6)
    assert secret_bits_per_second(result) == pytest.approx(
        capped * result.herald_probability * result.key_rate, rel=1e-12
    )
    uncapped = run(Scenario())
    assert secret_bits_per_second(uncapped) == pytest.approx(1e8, rel=1e-12)


def test_distance_sweep_orders_and_decays():
    distances = [0.0, 1.0, 2.0, 4.0]
    base = Scenario(source_position=0.0)
    results = [run(dataclasses.replace(base, distance_km=d)) for d in distances]
    assert len(results) == len(distances)
    assert [r.scenario.distance_km for r in results] == distances
    rates = [r.key_rate for r in results]
    assert all(b <= a for a, b in zip(rates, rates[1:]))


def test_run_covers_all_architectures():
    for name in ARCHITECTURES:
        result = run(Scenario(architecture=name))
        assert isinstance(result, RunResult)
        assert 0.0 <= result.herald_probability <= 1.0


# ----------------------------------------------------------------------
# Cached sources and ancillas
# ----------------------------------------------------------------------

SOURCE_CACHES = (
    architectures._pair_state,
    architectures._swap_link,
    photonics._amplifier_ancillas,
)


def assert_same_result(a: RunResult, b: RunResult):
    np.testing.assert_array_equal(a.table.probabilities, b.table.probabilities)
    assert (a.herald_probability, a.chsh, a.qber, a.key_rate) == (
        b.herald_probability, b.chsh, b.qber, b.key_rate
    )


@pytest.mark.parametrize("name", ARCHITECTURES)
def test_cached_sources_are_keyed_on_every_input(name):
    """Interleaved runs that share caches equal runs that start from empty ones."""
    base = dict(
        architecture=name, distance_km=20.0, pair_prob=0.01,
        detector_efficiency=0.95, dark_count_prob=1e-6,
    )
    variants = (
        {}, {"pair_prob": 0.02}, {"pair_prob": 0.0}, {"node_fidelity": 0.97},
        {"amplifier_transmission": 0.9}, {"detector_efficiency": 0.8},
        {"dark_count_prob": 1e-4},
    )
    scenarios = [Scenario(**{**base, **v}) for v in variants]
    assert all(cache.cache_info().maxsize is not None for cache in SOURCE_CACHES)
    shared = [run(s) for s in scenarios + scenarios[::-1]]
    for scenario, result in zip(scenarios + scenarios[::-1], shared):
        for cache in SOURCE_CACHES:
            cache.cache_clear()
        assert_same_result(result, run(scenario))


# ----------------------------------------------------------------------
# Pinned physics: six links, and the same six with a noisy node
# ----------------------------------------------------------------------

PINNED_SCENARIOS = {
    "default": Scenario(),
    "standard_pair": Scenario(
        pair_prob=0.01, detector_efficiency=0.95, dark_count_prob=1e-6, distance_km=20.0
    ),
    "local_ideal": Scenario(
        architecture="local_heralding", distance_km=30.0, amplifier_transmission=0.999
    ),
    "local_pair": Scenario(
        architecture="local_heralding",
        pair_prob=0.01,
        detector_efficiency=0.95,
        dark_count_prob=1e-6,
        distance_km=25.0,
    ),
    "third_ideal": Scenario(architecture="third_party", distance_km=20.0),
    "third_pair": Scenario(
        architecture="third_party",
        pair_prob=0.01,
        detector_efficiency=0.95,
        dark_count_prob=1e-6,
        distance_km=40.0,
    ),
}
NOISY_NODE = {
    "node_fidelity": 0.97,
    "distance_km": 10.0,
    "dark_count_prob": 1e-6,
    "detector_efficiency": 0.95,
}

# (name, chsh, qber, key_rate, herald_probability), as run() returned them
# before mixtures were stored sparsely.
PINNED_VALUES = (
    ("default", 2.828427124746189, 4.930380657631325e-32, 0.9999999999999764, 1.0),
    ("standard_pair", 1.9933806320419194, 0.002621527293939368, 0.0, 1.0),
    ("local_ideal", 2.817200421157112, 4.930380657631325e-32, 0.9587387558358417, 0.0002519374545077856),
    ("local_pair", 2.444134828699122, 0.011431200282542643, 0.26560213982077696, 2.6631666649616235e-07),
    ("third_ideal", 2.8284271247461894, 4.930380657631325e-32, 0.9999999999999878, 0.19905358527674846),
    ("third_pair", 2.5524215283164926, 9.683714233035688e-06, 0.4680381267912868, 7.025837358070295e-06),
    ("default_noisy", 1.6666199355837648, 0.020001584351366557, 0.0, 1.0),
    ("standard_pair_noisy", 1.9966678351107994, 0.021510684460313543, 0.0, 1.0),
    ("local_ideal_noisy", 2.4466395678038877, 0.0210620083558809, 0.22404437172277594, 0.0005709985968149095),
    ("local_pair_noisy", 2.382363681449738, 0.0306670003633944, 0.11579933023443452, 5.2308826121107e-07),
    ("third_ideal_noisy", 2.357509577851268, 0.03920406054964758, 0.05791684261839703, 0.284720242385871),
    ("third_pair_noisy", 2.355118779974203, 0.03920406157808867, 0.055709480886318045, 2.794060648050349e-05),
)


@pytest.mark.parametrize(
    "name, chsh, qber, rate, herald", PINNED_VALUES, ids=[v[0] for v in PINNED_VALUES]
)
def test_pinned_run_values(name, chsh, qber, rate, herald):
    scenario = PINNED_SCENARIOS[name.removesuffix("_noisy")]
    if name.endswith("_noisy"):
        scenario = dataclasses.replace(scenario, **NOISY_NODE)
    result = run(scenario)
    assert result.chsh == pytest.approx(chsh, abs=1e-12)
    assert result.qber == pytest.approx(qber, abs=1e-12)
    assert result.key_rate == pytest.approx(rate, abs=1e-12)
    assert result.herald_probability == pytest.approx(herald, rel=1e-9)
