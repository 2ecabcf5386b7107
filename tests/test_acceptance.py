"""Acceptance suite: one test per release criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible in captured
output and with ``pytest -s``) and then asserts, so ``pytest -v`` shows one
verdict per criterion.  Tolerances are part of the criteria and must not be
loosened to make a run green.
"""

import dataclasses
import json
import math
import time

import numpy as np

from diqkd_lab.architectures import (
    Scenario,
    matter_node_scenario,
    charlie_independence_residual,
    run,
    secret_bits_per_second,
)
from diqkd_lab.bellcert import (
    SINGLET_ALICE_ANGLES,
    SINGLET_BOB_ANGLES,
    bell_value,
    chsh_functional,
    critical_efficiency,
    local_bound,
    loophole_attack,
    loophole_attack_curve,
)
from diqkd_lab.cli import main
from diqkd_lab.keyproto import run_session, serialize_transcript
from diqkd_lab.photonics import (
    DetectorModel,
    ModeMixture,
    amplifier_success_probability,
    fock,
    loss_channel,
    qubit_amplifier,
)
from diqkd_lab.qstate import born_table, projective_qubit_povm, singlet

TSIRELSON = 2.0 * np.sqrt(2.0)


def _report(criterion: int, description: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:02d}: {description} ({detail})")
    assert ok, f"criterion {criterion:02d}: {description} ({detail})"


def test_c01_tsirelson_value_from_born_rule():
    table = born_table(
        singlet(),
        [projective_qubit_povm(t) for t in SINGLET_ALICE_ANGLES],
        [projective_qubit_povm(t) for t in SINGLET_BOB_ANGLES],
    )
    value = bell_value(table, chsh_functional())
    err = abs(value - TSIRELSON)
    _report(
        1,
        "singlet at optimal angles reaches CHSH = 2*sqrt(2) within 1e-9",
        err < 1e-9,
        f"S={value:.12f}, |S - 2*sqrt(2)|={err:.3e}",
    )


def test_c02_local_bound_exact_by_enumeration():
    bound = local_bound(chsh_functional())
    _report(
        2,
        "deterministic-strategy enumeration gives CHSH local bound exactly 2",
        bound == 2.0,
        f"bound={bound!r}",
    )


def test_c03_critical_efficiency_maximally_entangled():
    result = critical_efficiency(
        singlet(), SINGLET_ALICE_ANGLES, SINGLET_BOB_ANGLES
    )
    err = abs(result.eta_critical - 0.8284)
    _report(
        3,
        "binned-CHSH critical efficiency of the singlet is 0.8284 +/- 1e-3",
        err < 1e-3,
        f"eta*={result.eta_critical:.6f}, |err|={err:.2e}",
    )


def test_c04_critical_efficiency_optimized_partial_entanglement():
    start = time.monotonic()
    result = critical_efficiency()
    elapsed = time.monotonic() - start
    err = abs(result.eta_critical - 2.0 / 3.0)
    _report(
        4,
        "state-and-angle-optimized critical efficiency is 2/3 +/- 5e-3",
        err < 5e-3 and elapsed <= 300.0,
        f"eta*={result.eta_critical:.6f}, theta={result.theta:.2e}, {elapsed:.1f}s",
    )


def test_c05_standard_architecture_distance_cutoff():
    def rate(distance_km: float) -> float:
        return run(Scenario(source_position=0.0, distance_km=distance_km)).key_rate

    near, far = rate(3.5), rate(4.5)
    lo, hi = 3.5, 4.5
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    ok = near > 0.0 and far == 0.0 and 3.8 <= crossing <= 4.4
    _report(
        5,
        "source-at-Alice key rate positive at 3.5 km, zero at 4.5 km, cutoff in [3.8, 4.4] km",
        ok,
        f"r(3.5)={near:.4f}, r(4.5)={far:.4f}, cutoff={crossing:.3f} km",
    )


def test_c06_amplifier_success_probability_magnitude():
    eta_d, transmission, pair_prob = 0.9, 0.99, 0.011
    formula = amplifier_success_probability(eta_d, transmission, pair_prob)
    # The window sits one decade wide around the circuit's own herald rate.
    # Counting only one herald path of the single-photon input below bounds
    # it from beneath: both ancilla triggers click (eta_d * w1 each, with the
    # normalized one-pair weight w1 = p / (1 + p + p^2) ~ 0.0109), the V
    # ancilla is reflected into the Bell measurement and the H ancilla is
    # transmitted (T (1 - T)), and both Bell-measurement detectors fire
    # (eta_d^2): (eta_d w1)^2 T (1 - T) eta_d^2 ~ 7.7e-7.  A formula within
    # 2x of the circuit is therefore at least ~4e-7, and eta_d^2 (1 - T) p^2
    # gives 9.8e-7.
    in_range = 5e-7 <= formula <= 5e-6

    detector = DetectorModel(efficiency=eta_d)
    record = qubit_amplifier(
        fock([1, 0]),
        (0, 1),
        transmission,
        detector=detector,
        ancilla_pair_prob=pair_prob,
        trigger_detector=detector,
    )
    ratio = record.success_probability / formula
    within_factor_two = 0.5 <= ratio <= 2.0

    # Context for the magnitude check: the same circuit heralding on vacuum
    # (photon lost in flight) and the formula at a tenth of the pair rate.
    vacuum_record = qubit_amplifier(
        loss_channel(loss_channel(fock([1, 0]), 0, 1e-12), 1, 1e-12),
        (0, 1),
        transmission,
        detector=detector,
        ancilla_pair_prob=pair_prob,
        trigger_detector=detector,
    )
    tenth = amplifier_success_probability(eta_d, transmission, pair_prob / 10.0)
    _report(
        6,
        "eta_d=0.9, T=0.99, p=0.011: success formula in [5e-7, 5e-6] and full simulation within 2x",
        in_range and within_factor_two,
        f"formula={formula:.3e} (in range: {in_range}), sim={record.success_probability:.3e}, "
        f"sim/formula={ratio:.3f} (within 2x: {within_factor_two}); "
        f"vacuum-input sim={vacuum_record.success_probability:.3e}, formula at p/10={tenth:.3e}",
    )


def test_c07_amplifier_gain_herald_tradeoff():
    # (|vac> + |1_H>)/sqrt(2) on an (H, V) mode pair.
    qubit = ModeMixture([1.0], [0, 0], [[0, 0], [1, 0]], [1.0 / np.sqrt(2.0)] * 2)
    lossy_input = loss_channel(qubit, 0, 0.4)
    gains, heralds = [], []
    transmissions = np.linspace(0.9, 0.999, 8)
    for t in transmissions:
        record = qubit_amplifier(lossy_input, (0, 1), float(t))
        gains.append(record.gain)
        heralds.append(record.success_probability)
    gain_up = all(b > a for a, b in zip(gains, gains[1:]))
    herald_down = all(b < a for a, b in zip(heralds, heralds[1:]))
    _report(
        7,
        "sweeping T in [0.9, 0.999]: gain strictly increases, herald probability strictly decreases",
        gain_up and herald_down,
        f"gain {gains[0]:.2f}->{gains[-1]:.2f} (monotone: {gain_up}), "
        f"herald {heralds[0]:.3e}->{heralds[-1]:.3e} (monotone: {herald_down})",
    )


def test_c08_heralding_makes_chsh_distance_independent():
    # Local heralding with ideal single-photon ancillas at near-unit
    # transmission: the herald removes the lossy-channel vacuum component.
    def lh(distance_km: float):
        return run(
            Scenario(
                architecture="local_heralding",
                distance_km=distance_km,
                amplifier_transmission=1.0 - 1e-8,
            )
        )

    lh_near, lh_far = lh(0.0), lh(50.0)
    lh_delta = abs(lh_near.chsh - lh_far.chsh)

    def tp(distance_km: float):
        return run(Scenario(architecture="third_party", distance_km=distance_km))

    tp_near, tp_far = tp(0.0), tp(50.0)
    tp_delta = abs(tp_near.chsh - tp_far.chsh)

    # Herald scaling: local heralding is linear in the arm transmission,
    # the central swap is quadratic.
    distances = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    lh_t = 10.0 ** (-0.2 * distances / 10.0)
    lh_herald = [lh(float(d)).herald_probability for d in distances]
    lh_slope = float(np.polyfit(np.log(lh_t), np.log(lh_herald), 1)[0])
    tp_t = 10.0 ** (-0.2 * (distances / 2.0) / 10.0)
    tp_herald = [tp(float(d)).herald_probability for d in distances]
    tp_slope = float(np.polyfit(np.log(tp_t), np.log(tp_herald), 1)[0])

    ok = (
        lh_delta < 1e-6
        and tp_delta < 1e-6
        and abs(lh_slope - 1.0) < 1e-3
        and abs(tp_slope - 2.0) < 2e-3
    )
    _report(
        8,
        "heralded links: CHSH at 0 vs 50 km differs < 1e-6; herald scales as transmission^1 (local) and ^2 (central swap)",
        ok,
        f"dS_local={lh_delta:.2e}, dS_central={tp_delta:.2e}, "
        f"slope_local={lh_slope:.5f}, slope_central={tp_slope:.5f}",
    )


def test_c09_central_station_outcome_independent_of_settings():
    residual = max(
        charlie_independence_residual(Scenario(architecture="third_party")),
        charlie_independence_residual(
            Scenario(architecture="third_party", pair_prob=0.01, distance_km=10.0)
        ),
    )
    _report(
        9,
        "central-station herald distribution varies < 1e-9 across measurement settings",
        residual < 1e-9,
        f"max residual={residual:.2e}",
    )


def test_c10_detection_loophole_attack_curve():
    at_unit = loophole_attack(1.0).chsh
    etas = [1.0, 0.95, 0.9, 0.85, 0.8, 2.0 / 3.0 - 1e-3, 0.6, 0.5, 0.3, 0.1, 0.05]
    values = [r.chsh for r in loophole_attack_curve(etas)]
    monotone = all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    eberhard_index = etas.index(2.0 / 3.0 - 1e-3)
    beats_tsirelson = values[eberhard_index] > TSIRELSON
    limit = values[-1]
    ok = (
        abs(at_unit - 2.0) < 1e-6
        and monotone
        and beats_tsirelson
        and abs(limit - 4.0) < 1e-3
    )
    _report(
        10,
        "classical no-click faking: 2 at eta=1, non-increasing in eta, beats 2*sqrt(2) by eta=2/3, reaches 4 as eta->0",
        ok,
        f"S(1)={at_unit:.6f}, monotone={monotone}, S(2/3-1e-3)={values[eberhard_index]:.4f}, "
        f"S({etas[-1]})={limit:.6f}",
    )


def test_c11_throughput_composition():
    ideal = run(Scenario())
    slow_herald = dataclasses.replace(ideal, herald_probability=1e-8)
    optical_bps = secret_bits_per_second(slow_herald)
    optical_expected = 1e8 * 1e-8 * slow_herald.key_rate
    optical_ok = math.isclose(optical_bps, optical_expected, rel_tol=1e-12)

    matter = run(matter_node_scenario())
    matter_bps = secret_bits_per_second(matter)
    capped_expected = 5e5 * matter.herald_probability * matter.key_rate
    faster_clock = run(matter_node_scenario(repetition_rate_hz=1e9))
    matter_ok = math.isclose(matter_bps, capped_expected, rel_tol=1e-12) and math.isclose(
        secret_bits_per_second(faster_clock), matter_bps, rel_tol=1e-12
    )
    _report(
        11,
        "1e8 Hz clock x 1e-8 herald gives ~1 bit/s x key rate; 2 us readout caps the clock at 5e5/s",
        optical_ok and matter_ok,
        f"optical={optical_bps:.6f} bit/s (key rate {slow_herald.key_rate:.4f}), "
        f"matter={matter_bps:.1f} bit/s (cap honoured: {matter_ok})",
    )


def test_c12_end_to_end_session_determinism(tmp_path):
    seed, n_rounds = 20260826, 100_000
    first = run_session(Scenario(), n_rounds, seed, sample_fraction=0.5)
    second = run_session(Scenario(), n_rounds, seed, sample_fraction=0.5)

    keys_match = (
        first.status == "key"
        and np.array_equal(first.alice_key_bits, first.bob_key_bits)
        and np.array_equal(first.alice_key_bits, second.alice_key_bits)
    )
    target = first.n_raw * first.worst_case_rate
    length_ratio = first.alice_key_bits.size / target
    length_ok = abs(first.alice_key_bits.size - target) <= 0.05 * target
    repeat_ok = serialize_transcript(first.transcript) == serialize_transcript(
        second.transcript
    )

    # The CLI path must give byte-identical transcripts across repeat runs
    # and across --jobs settings.
    scenario_path = tmp_path / "ideal.json"
    scenario_path.write_text(
        json.dumps({"rounds": n_rounds, "sample_fraction": 0.5, "seed": seed})
    )
    blobs = []
    for jobs in ("1", "1", "4"):
        out = tmp_path / f"transcript-{len(blobs)}.bin"
        code = main(
            ["session", "--scenario", str(scenario_path), "--out", str(out), "--jobs", jobs]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    cli_ok = blobs[0] == blobs[1] == blobs[2] and blobs[0] == serialize_transcript(
        first.transcript
    )

    ok = keys_match and length_ok and repeat_ok and cli_ok
    _report(
        12,
        "ideal 1e5-round session: keys identical, length within 5% of n_raw x rate, transcripts byte-identical",
        ok,
        f"status={first.status}, len={first.alice_key_bits.size}, n_raw={first.n_raw}, "
        f"rate={first.worst_case_rate:.4f}, len/(n_raw*rate)={length_ratio:.4f}, "
        f"repeat={repeat_ok}, cli/jobs={cli_ok}",
    )
