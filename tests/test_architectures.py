"""Tests for the three photonic-link architectures and the rate model."""

import dataclasses
import itertools

import numpy as np
import pytest

from diqkd_lab import architectures, photonics
from diqkd_lab.architectures import (
    ALICE_ANGLES,
    ARCHITECTURES,
    BOB_ANGLES,
    CHSH_BOB_SETTINGS,
    KEY_SETTINGS,
    NeverHeraldsError,
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
from diqkd_lab.bellcert import bin_no_click, chsh
from diqkd_lab.photonics import (
    BRANCH_PRUNE_TOL,
    DetectorModel,
    _reduced_density,
    beamsplitter,
    bell_state_measurement,
    detection_probabilities,
    distance_to_transmission,
    loss_channel,
    mix,
    permute_modes,
    phase_shift,
    polarization_correlation_table,
    polarization_singlet,
    qubit_amplifier,
    spdc_source,
    tensor_modes,
)
from diqkd_lab.qstate import (
    CorrelationTable,
    DensityOperator,
    DimensionMismatchError,
    born_table,
    inefficient_qubit_povm,
    singlet,
)

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
    with pytest.raises(ValueError, match=r"amplifier_transmission must lie in \(0, 1\), got 1.0"):
        Scenario(amplifier_transmission=1.0)
    with pytest.raises(ValueError, match=r"node_fidelity must lie in \[0, 1\], got 1.5"):
        Scenario(node_fidelity=1.5)


# Each numeric Scenario field's range, as its rejection message words it.
_SCENARIO_RULES = {
    "distance_km": "must be non-negative and finite",
    "attenuation_db_per_km": "must be non-negative and finite",
    "detector_efficiency": "must lie in [0, 1]",
    "pair_prob": "must lie in [0, 1)",
    "amplifier_transmission": "must lie in (0, 1)",
    "dark_count_prob": "must lie in [0, 1]",
    "repetition_rate_hz": "must be positive and finite",
    "readout_time_s": "must be non-negative and finite",
    "node_fidelity": "must lie in [0, 1]",
    "source_position": "must lie in [0, 1]",
}


def test_scenario_checks_every_kind_of_number_on_every_field():
    # A plain float skips the type check's ABC test; every other kind of
    # value still takes it, and every value its field's range check.
    # 0.5 lies in every range; 1 lies in all but the two open at 1.
    assert set(_SCENARIO_RULES) == {f.name for f in dataclasses.fields(Scenario)} - {
        "architecture"
    }
    base = Scenario()
    for name, rule in _SCENARIO_RULES.items():
        open_at_one = rule.endswith("1)")
        cases = (
            (0.5, None),
            (np.float64(0.5), None),
            (1, f"{name} {rule}, got 1" if open_at_one else None),
            (True, f"{name} must be a number, got True"),
            (float("nan"), f"{name} {rule}, got nan"),
            (np.float64("nan"), f"{name} {rule}, got nan"),
            (10**400, f"{name} {rule}, got a number no float can hold"),
        )
        for value, message in cases:
            if message is None:
                assert getattr(dataclasses.replace(base, **{name: value}), name) is value
            else:
                with pytest.raises(ValueError) as rejected:
                    dataclasses.replace(base, **{name: value})
                assert str(rejected.value) == message


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
    assert devetak_winter_rate(0.0, float("inf")) == devetak_winter_rate(0.0, TSIRELSON)
    assert devetak_winter_rate(0.0, float("-inf")) == 0.0


def test_key_rate_on_ideal_table():
    result = run(Scenario())
    assert key_rate(result.table) == pytest.approx(1.0, abs=1e-9)


def test_key_rate_zero_without_violation():
    result = run(Scenario(detector_efficiency=0.5))
    assert key_rate(result.table) == 0.0


def _random_tables(rng, n_out: int, near: np.ndarray) -> list[CorrelationTable]:
    """Valid (2 x 3)-setting tables of ``n_out`` outcomes per party.

    Uniformly random ones, and ones near ``near`` (a table that violates
    CHSH) so that some certify a key.  In half of the setting pairs one
    entry lies in ``[-1e-9, 0)``, which the table's constructor clips; the
    pair's remaining mass goes to another entry, so each pair still sums
    to one.
    """
    tables = []
    for weight in (1.0, 0.01, 0.05):
        for _ in range(10):
            noise = rng.dirichlet(np.ones(n_out * n_out), size=(2, 3))
            p = (1.0 - weight) * near.reshape(2, 3, -1) + weight * noise
            for x, y in zip(*np.nonzero(rng.random((2, 3)) < 0.5)):
                i, j = rng.choice(n_out * n_out, size=2, replace=False)
                negative = -rng.uniform(1e-12, 1e-9)
                p[x, y, j] += p[x, y, i] - negative
                p[x, y, i] = negative
            tables.append(CorrelationTable(p.reshape(2, 3, n_out, n_out)))
    return tables


def test_binned_chsh_and_key_rate_equal_the_table_route_bit_for_bit():
    """``_chsh_from_table`` and ``key_rate`` bin the table's array and build
    no table on the way; they equal the route through ``CorrelationTable``,
    ``bin_no_click``, ``chsh`` and ``error_rate`` exactly: on random
    tables with clipped entries, on binary-outcome tables and on the tables
    of every architecture."""
    rng = np.random.default_rng(31)
    ideal = run(Scenario()).table
    tables = _random_tables(rng, 4, ideal.probabilities)
    tables += _random_tables(rng, 2, bin_no_click(ideal).probabilities)
    for name, distance_km in itertools.product(ARCHITECTURES, (0.0, 10.0, 40.0)):
        scenario = Scenario(
            architecture=name, pair_prob=0.01, detector_efficiency=0.95,
            dark_count_prob=1e-6, distance_km=distance_km,
        )
        tables.append(run(scenario).table)
    certified = 0
    for table in tables:
        sub = CorrelationTable(table.probabilities[:, list(CHSH_BOB_SETTINGS)])
        expected_chsh = chsh(bin_no_click(sub))
        qber = bin_no_click(table).error_rate(*KEY_SETTINGS)
        expected_rate = devetak_winter_rate(qber, expected_chsh)
        assert architectures._chsh_from_table(table) == expected_chsh
        assert key_rate(table) == expected_rate
        certified += expected_rate > 0.0
    assert 0 < certified < len(tables)


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


def test_no_coincidence_sifts_to_an_even_error_rate():
    """With no key-basis coincidence there is nothing to sift: Q is 1/2, no key."""
    result = run(Scenario(detector_efficiency=0.0))
    assert result.qber == 0.5
    assert result.key_rate == 0.0
    assert result.chsh == pytest.approx(2.0, abs=1e-12)


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


def test_standard_run_is_the_correlation_table_of_its_source_bit_for_bit():
    """The standard runner contracts its source's cached density with each
    point's detector; that is ``polarization_correlation_table`` of the
    source, step for step."""
    for pair_prob, fidelity, (eta_d, dark), position, distance_km in itertools.product(
        (0.0, 0.01, 0.05),
        (1.0, 0.97),
        ((0.95, 1e-6), (0.8, 1e-4)),
        (0.0, 0.5),
        (0.0, 20.0, 40.0, 60.0, 80.0, 100.0),
    ):
        scenario = Scenario(
            pair_prob=pair_prob, node_fidelity=fidelity, detector_efficiency=eta_d,
            dark_count_prob=dark, source_position=position, distance_km=distance_km,
        )
        result = run(scenario)
        arm_t = distance_to_transmission(max(position, 1.0 - position) * distance_km)
        table = polarization_correlation_table(
            architectures._pair_state(pair_prob, fidelity), (0, 1), (2, 3),
            ALICE_ANGLES, BOB_ANGLES, architectures._detector(scenario, arm_t),
        )
        np.testing.assert_array_equal(result.table.probabilities, table.probabilities)
        expected = architectures._result(scenario, table, 1.0)
        assert (result.chsh, result.qber, result.key_rate) == (
            expected.chsh, expected.qber, expected.key_rate
        )


def test_distance_sweep_measures_the_standard_source_once(monkeypatch, clear_link_caches):
    calls = []

    def counting_density(state, *args):
        calls.append(args[:2])
        return _reduced_density(state, *args)

    monkeypatch.setattr(architectures, "_reduced_density", counting_density)
    monkeypatch.setattr(photonics, "_reduced_density", counting_density)
    clear_link_caches()
    base = Scenario(pair_prob=0.01, detector_efficiency=0.95, dark_count_prob=1e-6)
    for i in range(21):
        run(dataclasses.replace(base, distance_km=5.0 * i))
    assert calls == [((0, 1), (2, 3))]


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


# third_party links for the station check: ideal sources; pair sources at
# 10 km; lossy, noisy pair sources and imperfect nodes at 50 km.
STATION_SCENARIOS = (
    Scenario(architecture="third_party"),
    Scenario(architecture="third_party", pair_prob=0.01, distance_km=10.0),
    Scenario(
        architecture="third_party",
        pair_prob=0.05,
        distance_km=50.0,
        detector_efficiency=0.9,
        dark_count_prob=1e-4,
        node_fidelity=0.97,
    ),
)


def test_independence_check_measures_the_runners_station(monkeypatch):
    """The residual compares heralds of the station that run() swaps through.

    run() heralds its link once through ``_swap_station``; the check sends
    each of the six setting pairs' rotated link through the same function,
    and every one of those heralds is run()'s herald probability.
    """
    station = architectures._swap_station
    heralds = []

    def recording_station(scenario, contents, probabilities):
        result = station(scenario, contents, probabilities)
        heralds.append(result[0])
        return result

    monkeypatch.setattr(architectures, "_swap_station", recording_station)
    for scenario in STATION_SCENARIOS:
        heralds.clear()
        herald = run(scenario).herald_probability
        residual = charlie_independence_residual(scenario)
        assert heralds[0] == herald
        settings = len(ALICE_ANGLES) * len(BOB_ANGLES)
        assert heralds[1:] == pytest.approx([herald] * settings, rel=1e-12)
        assert residual < 1e-9


def _bsm_swap_run(scenario: Scenario) -> tuple[np.ndarray, float]:
    """Table and herald probability of a third_party link measured state by
    state: the station's Bell-state measurement of the link with the folded
    station detector, the feed-forward flip of every psi+ herald, their
    mixture, then the parties' Born table."""
    half_t = arm_transmission(scenario.distance_km / 2.0, scenario.attenuation_db_per_km)
    station = DetectorModel(scenario.detector_efficiency * half_t, scenario.dark_count_prob)
    link = architectures._swap_link(scenario.pair_prob, scenario.node_fidelity)
    bsm = bell_state_measurement(link, (2, 3), (4, 5), station)
    heralds = [
        (o.probability, phase_shift(o.state, 3, np.pi) if o.label == "psi+" else o.state)
        for o in bsm.outcomes
        if o.state is not None
    ]
    detector = DetectorModel(scenario.detector_efficiency, scenario.dark_count_prob)
    table = polarization_correlation_table(
        mix(heralds), (0, 1), (2, 3), ALICE_ANGLES, BOB_ANGLES, detector
    )
    return table.probabilities, bsm.success_probability


@pytest.mark.parametrize("node_fidelity", (1.0, 0.97))
@pytest.mark.parametrize("pair_prob", (0.0, 0.01, 0.05))
def test_swap_station_weights_match_the_bell_state_measurement(pair_prob, node_fidelity):
    """run() weighs cached station-content tables by the station's click
    likelihoods; that is the heralded mixture of the measured link."""
    for dark_count_prob in (1e-6, 1e-4):
        for detector_efficiency in (0.9, 0.95):
            for distance_km in [5.0 * i for i in range(21)] + [300.0]:
                scenario = Scenario(
                    architecture="third_party",
                    pair_prob=pair_prob,
                    node_fidelity=node_fidelity,
                    dark_count_prob=dark_count_prob,
                    detector_efficiency=detector_efficiency,
                    distance_km=distance_km,
                )
                table, herald = _bsm_swap_run(scenario)
                result = run(scenario)
                np.testing.assert_allclose(result.table.probabilities, table, rtol=0, atol=1e-13)
                assert result.herald_probability == pytest.approx(herald, rel=1e-12)


def test_swap_station_drops_patterns_no_likelier_than_a_pruned_branch():
    # Without dark counts the four patterns fall below BRANCH_PRUNE_TOL
    # between 1000 and 1400 km, and the station never heralds.
    base = Scenario(architecture="third_party", pair_prob=0.01, dark_count_prob=0.0)
    for distance_km in (1500.0, 2000.0, 3000.0):
        with pytest.raises(NeverHeraldsError, match="the swap station never heralds"):
            run(dataclasses.replace(base, distance_km=distance_km))
    # Dark counts alone herald: 4 patterns of two dark clicks and two silences.
    result = run(dataclasses.replace(base, dark_count_prob=1e-6, distance_km=3000.0))
    assert result.herald_probability == pytest.approx(3.999992000234e-12, rel=1e-9)


def test_bell_state_measurement_stops_heralding_where_the_swap_station_does():
    """At 1500 km the station's four patterns each have a probability under
    ``BRANCH_PRUNE_TOL`` by ``detection_probabilities``, which detects apart
    from the station; run() never heralds there, and bell_state_measurement
    gives each pattern zero probability and no state."""
    scenario = Scenario(
        architecture="third_party", pair_prob=0.01, detector_efficiency=0.95, distance_km=1500.0
    )
    with pytest.raises(NeverHeraldsError, match="the swap station never heralds"):
        run(scenario)
    station = DetectorModel(0.95 * arm_transmission(750.0), 0.0)
    link = architectures._swap_link(scenario.pair_prob, scenario.node_fidelity)
    mixed = beamsplitter(beamsplitter(link, 2, 4, 0.5), 3, 5, 0.5)
    clicks = detection_probabilities(mixed, (2, 3, 4, 5), station)
    outcomes = bell_state_measurement(link, (2, 3), (4, 5), station).outcomes
    for outcome in outcomes:
        assert 0.0 < clicks[tuple(map(int, outcome.pattern))] <= BRANCH_PRUNE_TOL
    assert [(o.probability, o.state) for o in outcomes] == [(0.0, None)] * 4


def test_distance_sweep_interferes_the_swap_link_once(monkeypatch, clear_link_caches):
    calls = []

    def counting_beamsplitter(state, *args):
        calls.append(args)
        return beamsplitter(state, *args)

    # The station's beamsplitters are photonics' (``photonics._interfered``).
    monkeypatch.setattr(photonics, "beamsplitter", counting_beamsplitter)
    clear_link_caches()
    base = Scenario(
        architecture="third_party", pair_prob=0.01, detector_efficiency=0.95, dark_count_prob=1e-6
    )
    for i in range(21):
        run(dataclasses.replace(base, distance_km=5.0 * i))
    assert calls == [(2, 4, 0.5), (3, 5, 0.5)]


# ----------------------------------------------------------------------
# Fiber loss as detector efficiency
# ----------------------------------------------------------------------


def _explicit_loss_run(scenario: Scenario) -> tuple[np.ndarray, float]:
    """Table and herald probability of a link with fiber loss applied photon
    by photon, as ``loss_channel`` on every travelling mode: in front of the
    plain detectors (``standard``, ``third_party``) or of Bob's qubit
    amplifier (``local_heralding``, whose pair source is always ideal)."""
    detector = DetectorModel(scenario.detector_efficiency, scenario.dark_count_prob)

    def source(n_pair_max):
        if scenario.pair_prob == 0.0 or scenario.architecture == "local_heralding":
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
    elif scenario.architecture == "local_heralding":
        state = source(2)
        # The path run() took before the two-term form: no channel at t = 1.
        if arm_transmission(scenario.distance_km, scenario.attenuation_db_per_km) < 1.0:
            state = lossy(state, (2, 3), scenario.distance_km)
        record = qubit_amplifier(
            state,
            (2, 3),
            scenario.amplifier_transmission,
            detector=detector,
            ancilla_pair_prob=scenario.pair_prob or None,
        )
        state, herald = record.conditional_state, record.success_probability
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


LOCAL_LOSS_CASES = [
    dict(distance_km=d, node_fidelity=f, pair_prob=p, amplifier_transmission=t)
    for d in (0.0, 25.0, 100.0)
    for f in (1.0, 0.97)
    for p in (0.0, 0.05)
    for t in (0.99, 0.9)
]
LOCAL_LOSS_IDS = [
    "{distance_km:g}km-F{node_fidelity:g}-p{pair_prob:g}-T{amplifier_transmission:g}".format(**c)
    for c in LOCAL_LOSS_CASES
]


@pytest.mark.parametrize("fields", LOCAL_LOSS_CASES, ids=LOCAL_LOSS_IDS)
def test_arrived_and_lost_terms_match_explicit_loss(fields):
    scenario = Scenario(
        architecture="local_heralding", detector_efficiency=0.95, dark_count_prob=1e-6, **fields
    )
    table, herald = _explicit_loss_run(scenario)
    result = run(scenario)
    np.testing.assert_allclose(result.table.probabilities, table, rtol=0.0, atol=1e-14)
    assert result.herald_probability == pytest.approx(herald, rel=1e-12)
    if scenario.distance_km == 0.0:
        # Without loss the runner amplifies and measures the source alone.
        np.testing.assert_array_equal(result.table.probabilities, table)
        assert result.herald_probability == herald


@pytest.mark.parametrize("node_fidelity", (1.0, 0.97, 0.5, 0.0))
def test_ideal_source_holds_one_photon_on_bobs_modes(node_fidelity):
    # What makes the arrived and lost terms an exact split of Bob's loss:
    # loss on a superposition of 0 and 1 photon is no mixture of the two.
    occ = architectures._pair_state(0.0, node_fidelity).occ
    np.testing.assert_array_equal(occ[:, 2] + occ[:, 3], 1)


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
    architectures._source_density,
    architectures._swap_link,
    architectures._swap_terms,
    architectures._amplified_term,
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
        {"dark_count_prob": 1e-4}, {"distance_km": 0.0}, {"distance_km": 60.0},
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


# Each case: a call that must be rejected, the exception and the message
# naming the rejected input.
REJECTED_INPUTS = (
    (
        lambda: charlie_independence_residual(Scenario()),
        ValueError,
        "independence check applies to the third_party architecture",
    ),
    # Python compares a huge int exactly with infinity; no float holds it.
    (
        lambda: Scenario(distance_km=10**400),
        ValueError,
        "distance_km must be non-negative and finite, got a number no float can hold",
    ),
    (
        lambda: Scenario(detector_efficiency=-(10**400)),
        ValueError,
        r"detector_efficiency must lie in \[0, 1\], got a number no float can hold",
    ),
    (lambda: binary_entropy(1.5), ValueError, r"probability must lie in \[0, 1\], got 1.5"),
    (lambda: devetak_winter_rate(1.5, 2.5), ValueError, r"qber must lie in \[0, 1\], got 1.5"),
    (lambda: devetak_winter_rate(0.1, float("nan")), ValueError, "chsh must be a number, got nan"),
    # A bool or a string is not a number, although Python compares a bool like one.
    (lambda: binary_entropy(True), ValueError, "probability must be a number, got True"),
    (lambda: devetak_winter_rate(True, 2.5), ValueError, "qber must be a number, got True"),
    (lambda: devetak_winter_rate("0.1", 2.5), ValueError, "qber must be a number, got '0.1'"),
    (
        lambda: key_rate(
            born_table(
                singlet(),
                [inefficient_qubit_povm(t, 1.0) for t in ALICE_ANGLES],
                [inefficient_qubit_povm(t, 1.0) for t in ALICE_ANGLES],
            )
        ),
        DimensionMismatchError,
        r"expected a \(2, 3\)-setting table, got \(2, 2\)",
    ),
)


def test_rejected_inputs_name_the_input():
    # One test over a case table so the test keeps a single, stable id.
    for call, error, message in REJECTED_INPUTS:
        with pytest.raises(error, match=message) as caught:
            call()
        # No message prints an input at unbounded length.
        assert len(str(caught.value)) <= 100, message
