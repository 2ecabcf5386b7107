"""Tests for the device-independent key-distillation protocol."""

import dataclasses
import hashlib
import itertools
import math
import struct
import tracemalloc
import types

import numpy as np
import pytest

from diqkd_lab import keyproto
from diqkd_lab.architectures import (
    CHSH_BOB_SETTINGS,
    CHSH_TERMS,
    KEY_SETTINGS,
    Scenario,
    devetak_winter_rate,
    key_rate,
    run,
)
from diqkd_lab.bellcert import _STRATEGIES, _candidate_ensemble, _correlators, bin_no_click
from diqkd_lab.keyproto import (
    MAX_ROUNDS,
    EstimationSample,
    MessageKind,
    ProtocolAbort,
    ProtocolMessage,
    Rounds,
    estimate,
    parse_transcript,
    privacy_amplify,
    reconcile,
    run_session,
    serialize_transcript,
    sift,
    simulate_rounds,
)
from diqkd_lab.photonics import NO_CLICK
from diqkd_lab.qstate import CorrelationTable


def make_records(cells, heralded=True):
    """Build rounds from ``(x, y, a, b)`` tuples."""
    x, y, a, b = np.array(cells, dtype=np.int64).reshape(-1, 4).T
    return Rounds(x=x, y=y, a=a, b=b, heralded=np.full(x.size, heralded))


# ----------------------------------------------------------------------
# Transcript serialization
# ----------------------------------------------------------------------


def test_transcript_roundtrip():
    messages = [
        ProtocolMessage(kind=MessageKind.BASIS_ANNOUNCE, payload=b"\x01\x00\x00\x00", sender="alice"),
        ProtocolMessage(kind=MessageKind.HASH_SEED, payload=bytes(range(32)), sender="alice"),
        ProtocolMessage(kind=MessageKind.DONE, payload=b"", sender="bob"),
    ]
    blob = serialize_transcript(messages)
    parsed = parse_transcript(blob)
    assert [(s, k, p) for s, k, p in parsed] == [
        (seq, m.kind, m.payload) for seq, m in enumerate(messages)
    ]


def test_parse_transcript_rejects_truncation():
    blob = serialize_transcript(
        [ProtocolMessage(kind=MessageKind.DONE, payload=b"xy", sender="alice")]
    )
    with pytest.raises(ValueError):
        parse_transcript(blob[:-1])


def test_parse_transcript_rejects_a_sequence_number_off_its_position():
    messages = [ProtocolMessage(kind=MessageKind.DONE, payload=b"", sender="bob")] * 2
    blob = bytearray(serialize_transcript(messages))
    assert [m[0] for m in parse_transcript(bytes(blob))] == [0, 1]
    # The second record's u32 sequence number starts after the first 9-byte header.
    blob[9:13] = (7).to_bytes(4, "little")
    with pytest.raises(ValueError, match="record 1 carries sequence number 7"):
        parse_transcript(bytes(blob))


# ----------------------------------------------------------------------
# Round simulation
# ----------------------------------------------------------------------


COLUMNS = ("x", "y", "a", "b", "heralded")


def test_simulate_rounds_is_deterministic():
    device = run(Scenario())
    first = simulate_rounds(device, 500, 7)
    second = simulate_rounds(device, np.int64(500), 7)
    assert all(np.array_equal(getattr(first, c), getattr(second, c)) for c in COLUMNS)
    third = simulate_rounds(device, 500, 8)
    assert not all(np.array_equal(getattr(first, c), getattr(third, c)) for c in COLUMNS)


def test_simulate_rounds_marks_non_heralded_as_no_click():
    rounds = simulate_rounds(run(Scenario(architecture="third_party", pair_prob=0.05)), 2000, 3)
    assert all(getattr(rounds, c).shape == (2000,) for c in COLUMNS)
    assert np.isin(rounds.x, (0, 1)).all() and np.isin(rounds.y, (0, 1, 2)).all()
    assert (~rounds.heralded).any()
    assert (rounds.a[~rounds.heralded] == NO_CLICK).all()
    assert (rounds.b[~rounds.heralded] == NO_CLICK).all()


def test_simulate_rounds_ideal_statistics():
    rounds = simulate_rounds(run(Scenario()), 4000, 11)
    assert rounds.heralded.all()
    # Key basis is perfectly correlated for the ideal link.
    key = (rounds.x == KEY_SETTINGS[0]) & (rounds.y == KEY_SETTINGS[1])
    assert key.any(), "expected key-basis rounds"
    assert np.array_equal(rounds.a[key], rounds.b[key])


def reference_simulate_rounds(device, n_rounds, seed):
    """Round simulation as one masked ``searchsorted`` per setting cell, in int64 columns."""
    rng = np.random.default_rng(seed)
    n_x, n_y, _, n_b = device.table.probabilities.shape
    x = rng.integers(0, n_x, size=n_rounds)
    y = rng.integers(0, n_y, size=n_rounds)
    heralded = rng.random(n_rounds) < device.herald_probability
    u = rng.random(n_rounds)
    joint = np.full(n_rounds, NO_CLICK * n_b + NO_CLICK, dtype=np.int64)
    for ix in range(n_x):
        for iy in range(n_y):
            mask = heralded & (x == ix) & (y == iy)
            if not mask.any():
                continue
            edges = np.cumsum(device.table.probabilities[ix, iy].reshape(-1))
            edges[-1] = 1.0
            joint[mask] = np.searchsorted(edges, u[mask], side="right")
    return Rounds(x=x, y=y, a=joint // n_b, b=joint % n_b, heralded=heralded)


def reference_sift(rounds, sample_fraction, rng):
    """Sifting on gathered copies of the heralded rounds' columns."""
    idx = np.flatnonzero(rounds.heralded)
    x = rounds.x[idx]
    y = rounds.y[idx]
    a_bits = (rounds.a[idx] == 1).astype(np.uint8)
    b_bits = (rounds.b[idx] == 1).astype(np.uint8)
    n_sample = int(round(sample_fraction * idx.size))
    if idx.size > 0 and n_sample > 0:
        chosen = np.sort(rng.choice(idx.size, size=n_sample, replace=False))
    else:
        chosen = np.array([], dtype=np.int64)
    in_sample = np.zeros(idx.size, dtype=bool)
    in_sample[chosen] = True
    raw_mask = (~in_sample) & (x == KEY_SETTINGS[0]) & (y == KEY_SETTINGS[1])
    sample = EstimationSample(
        indices=idx[chosen],
        x=x[chosen],
        y=y[chosen],
        alice_bits=a_bits[chosen],
        bob_bits=b_bits[chosen],
    )
    if int(raw_mask.sum()) < keyproto._MIN_RAW_ROUNDS:
        raise ProtocolAbort("sifting:too-few-raw-rounds")
    return a_bits[raw_mask], b_bits[raw_mask], sample


def sifted(sift_fn, rounds, seed):
    """``sift_fn``'s raw bits and sample fields, or its abort reason, and the next draw."""
    rng = np.random.default_rng(seed)
    try:
        alice_raw, bob_raw, sample = sift_fn(rounds, 0.1, rng)
    except ProtocolAbort as exc:
        fields = exc.reason
    else:
        fields = [alice_raw, bob_raw] + [
            getattr(sample, f) for f in ("indices", "x", "y", "alice_bits", "bob_bits")
        ]
    return fields, rng.random()


def assert_same_sift(rounds, seed, case):
    (got, got_next), (want, want_next) = (
        sifted(fn, rounds, seed) for fn in (sift, reference_sift)
    )
    assert got_next == want_next, case
    if isinstance(want, str):
        assert got == want, case
        return
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.array_equal(g, w), case


# All heralded with zero-probability outcomes; noisy; partly heralded; lossy;
# rarely heralded.
REFERENCE_SCENARIOS = (
    Scenario(),
    Scenario(node_fidelity=0.97),
    Scenario(architecture="third_party", pair_prob=0.05),
    Scenario(detector_efficiency=0.5),
    Scenario(architecture="local_heralding"),
)


def test_simulate_rounds_and_sift_match_the_reference():
    for scenario in REFERENCE_SCENARIOS:
        device = run(scenario)
        for n in (1, 2, 17, 1000, 65537):
            for seed in (0, 1, 2):
                case = (scenario, n, seed)
                rounds = simulate_rounds(device, n, seed)
                expected = reference_simulate_rounds(device, n, seed)
                for c in COLUMNS:
                    assert np.array_equal(getattr(rounds, c), getattr(expected, c)), (case, c)
                assert_same_sift(rounds, seed, case)
                assert_same_sift(expected, seed, case)
                if expected.heralded.all():
                    columns = np.column_stack([expected.x, expected.y, expected.a, expected.b])
                    assert_same_sift(make_records(columns), seed, case)


def one_shot_simulate_rounds(device, n_rounds, seed):
    """``simulate_rounds``' sampling with every draw in one call, on full-length columns."""
    n_x, n_y, n_a, n_b = device.table.probabilities.shape
    rng = np.random.default_rng(seed)
    x = rng.integers(0, n_x, size=n_rounds).astype(np.int8)
    y = rng.integers(0, n_y, size=n_rounds).astype(np.int8)
    u = rng.random(n_rounds)
    heralded = u < device.herald_probability
    rng.random(out=u)
    cell = x * np.int8(n_y) + y
    cell[~heralded] = n_x * n_y
    table, edges = keyproto._outcome_table(device.table.probabilities)
    u *= keyproto._BUCKETS
    index = u.astype(np.intp)
    index *= table.shape[1]
    index += cell
    joint = table.reshape(-1)[index]
    unresolved = np.flatnonzero(joint < 0)
    joint[unresolved] = (edges[cell[unresolved]] <= u[unresolved, None]).sum(axis=1)
    codes = np.arange(n_a * n_b)
    a = np.take((codes // n_b).astype(np.int8), joint)
    b = np.take((codes % n_b).astype(np.int8), joint)
    return Rounds(x=x, y=y, a=a, b=b, heralded=heralded)


def test_chunked_simulation_matches_one_shot_draws():
    """Rounds drawn chunk by chunk equal the one-call draws, across chunk edges."""
    chunk = keyproto._ROUND_CHUNK
    # Fully heralded; partly heralded.
    for scenario in (Scenario(), Scenario(architecture="third_party", pair_prob=0.05)):
        device = run(scenario)
        for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            for seed in (0, 5):
                rounds = simulate_rounds(device, n, seed)
                expected = one_shot_simulate_rounds(device, n, seed)
                for c in COLUMNS:
                    got, want = getattr(rounds, c), getattr(expected, c)
                    case = (scenario, n, seed, c)
                    assert got.dtype == want.dtype and np.array_equal(got, want), case


def test_outcome_columns_match_the_lookup_oracle():
    """The shifted and masked outcome columns equal the ``np.take`` lookup of each joint code.

    Random tables put edges inside guide-table slices, so rounds take both
    the table and the counted path; the herald probabilities cover every
    round heralded and most not.
    """
    chunk = keyproto._ROUND_CHUNK
    assert keyproto._DEVICE_SHAPE[3] & (keyproto._DEVICE_SHAPE[3] - 1) == 0
    table_rng = np.random.default_rng(2024)
    for _ in range(3):
        probabilities = table_rng.random(keyproto._DEVICE_SHAPE) ** 3
        probabilities[table_rng.random(keyproto._DEVICE_SHAPE) < 0.2] = 0.0
        probabilities /= probabilities.sum(axis=(2, 3), keepdims=True)
        assert (keyproto._outcome_table(probabilities)[0] < 0).any()
        for herald_probability in (1.0, 0.3):
            device = as_device(probabilities, herald_probability)
            for n, seed in ((1_000, 0), (chunk + 17, 1), (2 * chunk - 5, 2)):
                rounds = simulate_rounds(device, n, seed)
                expected = one_shot_simulate_rounds(device, n, seed)
                for c in COLUMNS:
                    got, want = getattr(rounds, c), getattr(expected, c)
                    case = (herald_probability, n, seed, c)
                    assert got.dtype == want.dtype and np.array_equal(got, want), case


def test_simulate_rounds_keeps_narrow_columns():
    """int8 settings and outcomes with bool herald flags, in bytes a round under tracemalloc."""
    rounds = simulate_rounds(run(Scenario(architecture="third_party", pair_prob=0.05)), 1000, 0)
    assert [getattr(rounds, c).dtype for c in COLUMNS] == [np.dtype(np.int8)] * 4 + [np.dtype(bool)]
    n = 200_000
    simulate_rounds(run(Scenario()), 1, 0)  # warm any per-scenario caches
    tracemalloc.start()
    try:
        rounds = simulate_rounds(run(Scenario()), n, 0)
        held, peak = tracemalloc.get_traced_memory()
        del rounds
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run_session(run(Scenario()), n, 0)
        session_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert held / n <= 8 and peak / n <= 26, (held / n, peak / n)
    assert session_peak / n <= 45, session_peak / n


def direct_count_rounds(probabilities, herald_probability, n_rounds, seed):
    """Rounds from the same draws, each outcome the count of its cell's edges ``<= u``."""
    rng = np.random.default_rng(seed)
    n_x, n_y, _, n_b = probabilities.shape
    x = rng.integers(0, n_x, size=n_rounds)
    y = rng.integers(0, n_y, size=n_rounds)
    heralded = rng.random(n_rounds) < herald_probability
    u = rng.random(n_rounds)
    edges = np.cumsum(probabilities.reshape(n_x * n_y, -1), axis=1)
    edges[:, -1] = 1.0
    cell_edges = edges[x * n_y + y]
    joint = (cell_edges <= u[:, None]).sum(axis=1)
    joint[~heralded] = NO_CLICK * n_b + NO_CLICK
    # Rounds whose slice of [0, 1) holds one of their cell's edges.
    scaled = cell_edges * keyproto._BUCKETS
    bucket = np.floor(u * keyproto._BUCKETS)[:, None]
    straddled = heralded & ((scaled > bucket) & (scaled < bucket + 1)).any(axis=1)
    return Rounds(x=x, y=y, a=joint // n_b, b=joint % n_b, heralded=heralded), straddled


def outcome_distribution(*entries):
    """A 16-entry joint outcome distribution; unlisted entries are 0."""
    return np.array(entries + (0.0,) * (16 - len(entries)))


# One joint outcome distribution per setting cell, beyond what a link produces.
CRAFTED_CELLS = (
    # Every edge on a slice boundary k / 1024.
    outcome_distribution(*(np.array([64, 128, 256, 32, 32, 64, 64, 128, 64, 64, 64, 64]) / 1024)),
    # An edge just below the boundary 512 / 1024, then several inside one slice.
    outcome_distribution(0.5 - 2.0**-53, 1e-4, 2e-4, 3e-4, 1e-5, 1e-6, 0.2, 0.1, 0.15, 0.049389),
    # Zero-probability outcomes: repeated edges.
    outcome_distribution(0.0, 0.0, 0.3, 0.0, 0.0, 0.2, 0.0, 0.0, 0.5),
    # Partial sums above 1.0 before the last edge is clamped.
    outcome_distribution(0.7, 0.4, *([0.01] * 14)),
    # All mass on the first outcome, then all mass on the last.
    outcome_distribution(1.0),
    outcome_distribution(*([0.0] * 15), 1.0),
)


def test_simulate_rounds_matches_a_direct_count():
    """The guide-table sampler against counting every edge, on crafted tables."""
    n = 100_000
    straddled_any = False
    for shift in (0, 3):
        cells = CRAFTED_CELLS[shift:] + CRAFTED_CELLS[:shift]
        probabilities = np.stack(cells).reshape(2, 3, 4, 4)
        for herald_probability in (0.0, 0.4, 1.0):
            device = types.SimpleNamespace(
                table=types.SimpleNamespace(probabilities=probabilities),
                herald_probability=herald_probability,
            )
            case = (shift, herald_probability)
            rounds = simulate_rounds(device, n, shift + 10)
            expected, straddled = direct_count_rounds(probabilities, herald_probability, n, shift + 10)
            for c in COLUMNS:
                assert np.array_equal(getattr(rounds, c), getattr(expected, c)), (case, c)
            assert straddled.any() == (herald_probability > 0), case
            straddled_any |= straddled.any()
    assert straddled_any


# ----------------------------------------------------------------------
# Sifting and estimation
# ----------------------------------------------------------------------


def test_sift_splits_sample_and_raw():
    records = make_records([(0, 0, 1, 1)] * 100)
    alice_raw, bob_raw, sample = sift(records, sample_fraction=0.2, rng=np.random.default_rng(0))
    assert sample.indices.size == 20
    assert alice_raw.size == bob_raw.size == 80
    assert set(np.concatenate([sample.indices, np.setdiff1d(np.arange(100), sample.indices)])) == set(range(100))


def test_sift_keeps_only_key_basis_in_raw():
    records = make_records([(0, 0, 1, 1)] * 50 + [(1, 2, 0, 1)] * 50)
    alice_raw, _, sample = sift(records, sample_fraction=0.0, rng=np.random.default_rng(0))
    assert alice_raw.size == 50
    assert sample.indices.size == 0


def test_sift_aborts_when_raw_key_too_short():
    records = make_records([(1, 1, 0, 0)] * 40)  # no key-basis rounds at all
    with pytest.raises(ProtocolAbort, match="sifting:too-few-raw-rounds"):
        sift(records, sample_fraction=0.1, rng=np.random.default_rng(0))


def perfect_sample(n_per_cell: int = 50) -> EstimationSample:
    """A sample saturating the algebraic CHSH bound of 4."""
    cells = []
    for (x, y), sign in (((0, 1), 1), ((0, 2), 1), ((1, 1), 1), ((1, 2), -1)):
        for _ in range(n_per_cell):
            cells.append((x, y, 0, 0 if sign > 0 else 1))
    cells += [(0, 0, 1, 1)] * n_per_cell
    x = np.array([c[0] for c in cells])
    y = np.array([c[1] for c in cells])
    a = np.array([c[2] for c in cells], dtype=np.uint8)
    b = np.array([c[3] for c in cells], dtype=np.uint8)
    return EstimationSample(indices=np.arange(len(cells)), x=x, y=y, alice_bits=a, bob_bits=b)


def test_estimate_perfect_correlations():
    est = estimate(perfect_sample())
    assert est.s_hat == pytest.approx(4.0, abs=1e-12)
    assert est.q_hat == 0.0
    log_term = math.log(2.0 / ((1.0 - keyproto._CONFIDENCE) / 5.0))
    assert est.s_radius == pytest.approx(sum(math.sqrt(2.0 * log_term / 50.0) for _ in range(4)), abs=1e-12)
    assert est.q_radius == pytest.approx(math.sqrt(log_term / (2.0 * 50.0)), abs=1e-12)
    assert est.s_worst == pytest.approx(est.s_hat - est.s_radius, abs=1e-12)
    assert est.q_worst == pytest.approx(min(1.0, est.q_hat + est.q_radius), abs=1e-12)


def test_estimate_radii_shrink_with_sample_size():
    small = estimate(perfect_sample(30))
    large = estimate(perfect_sample(300))
    assert large.s_radius < small.s_radius
    assert large.q_radius < small.q_radius


def reference_estimate(sample):
    """Estimation by one mask and mean per setting pair."""
    delta = (1.0 - keyproto._CONFIDENCE) / 5.0
    log_term = math.log(2.0 / delta)
    va = 1.0 - 2.0 * sample.alice_bits.astype(np.float64)
    vb = 1.0 - 2.0 * sample.bob_bits.astype(np.float64)
    s_hat = 0.0
    s_radius = 0.0
    for (sx, sy), sign in CHSH_TERMS:
        mask = (sample.x == sx) & (sample.y == sy)
        n_xy = int(mask.sum())
        if n_xy == 0:
            raise ProtocolAbort("estimation:missing-setting-pair")
        s_hat += sign * float(np.mean(va[mask] * vb[mask]))
        s_radius += math.sqrt(2.0 * log_term / n_xy)
    key_mask = (sample.x == KEY_SETTINGS[0]) & (sample.y == KEY_SETTINGS[1])
    n_key = int(key_mask.sum())
    if n_key == 0:
        raise ProtocolAbort("estimation:missing-setting-pair")
    q_hat = float(np.mean(sample.alice_bits[key_mask] != sample.bob_bits[key_mask]))
    q_radius = math.sqrt(log_term / (2.0 * n_key))
    return keyproto.Estimate(s_hat=s_hat, q_hat=q_hat, s_radius=s_radius, q_radius=q_radius)


def estimated(estimate_fn, sample):
    """``estimate_fn``'s four fields, or its abort reason."""
    try:
        est = estimate_fn(sample)
    except ProtocolAbort as exc:
        return exc.reason
    return est.s_hat, est.q_hat, est.s_radius, est.q_radius


def test_estimate_matches_the_reference():
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 17, 100, 1000, 100_000):
        for flip_prob in (0.0, 0.1, 0.5):
            for dtype in (np.int8, np.int64):
                alice = rng.integers(0, 2, size=n, dtype=np.uint8)
                sample = EstimationSample(
                    indices=np.arange(n),
                    x=rng.integers(0, 2, size=n).astype(dtype),
                    y=rng.integers(0, 3, size=n).astype(dtype),
                    alice_bits=alice,
                    bob_bits=alice ^ (rng.random(n) < flip_prob).astype(np.uint8),
                )
                case = (n, flip_prob, dtype)
                assert estimated(estimate, sample) == estimated(reference_estimate, sample), case
                # Without one CHSH pair, then without the key pair.
                for sx, sy in ((1, 2), KEY_SETTINGS):
                    keep = (sample.x != sx) | (sample.y != sy)
                    pruned = EstimationSample(
                        *(getattr(sample, f)[keep] for f in ("indices", "x", "y", "alice_bits", "bob_bits"))
                    )
                    got = estimated(estimate, pruned)
                    assert got == estimated(reference_estimate, pruned), (case, sx, sy)
                    assert got == "estimation:missing-setting-pair", (case, sx, sy)


def test_estimate_requires_every_setting_pair():
    sample = perfect_sample()
    mask = ~((sample.x == 1) & (sample.y == 2))
    pruned = EstimationSample(
        indices=sample.indices[mask],
        x=sample.x[mask],
        y=sample.y[mask],
        alice_bits=sample.alice_bits[mask],
        bob_bits=sample.bob_bits[mask],
    )
    with pytest.raises(ProtocolAbort, match="estimation:missing-setting-pair"):
        estimate(pruned)


def test_estimate_requires_key_basis_rounds():
    sample = perfect_sample()
    mask = ~((sample.x == KEY_SETTINGS[0]) & (sample.y == KEY_SETTINGS[1]))
    pruned = EstimationSample(
        indices=sample.indices[mask],
        x=sample.x[mask],
        y=sample.y[mask],
        alice_bits=sample.alice_bits[mask],
        bob_bits=sample.bob_bits[mask],
    )
    with pytest.raises(ProtocolAbort, match="estimation:missing-setting-pair"):
        estimate(pruned)


# ----------------------------------------------------------------------
# Reconciliation
# ----------------------------------------------------------------------


def test_reconcile_identical_strings():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=300, dtype=np.uint8)
    res = reconcile(bits, bits.copy(), q_hat=0.02, permutation_seed=1)
    assert res.verified
    assert res.corrections == 0
    np.testing.assert_array_equal(res.bits, bits)
    # Exact disclosure: one parity per block per pass, plus the 64-bit hash.
    block = math.ceil(0.73 / 0.02)
    expected = math.ceil(300 / block) + math.ceil(300 / min(300, 2 * block)) + 64
    assert res.leakage_bits == expected


def test_reconcile_corrects_sparse_errors():
    rng = np.random.default_rng(6)
    alice = rng.integers(0, 2, size=600, dtype=np.uint8)
    bob = alice.copy()
    for pos in (17, 301, 550):
        bob[pos] ^= 1
    res = reconcile(alice, bob, q_hat=3 / 600, permutation_seed=2)
    assert res.verified
    np.testing.assert_array_equal(res.bits, alice)
    assert res.corrections >= 3
    assert res.leakage_bits > 64


def test_reconcile_flags_residual_errors():
    """Dense errors overwhelm two passes; the verification hash catches it."""
    rng = np.random.default_rng(7)
    alice = rng.integers(0, 2, size=400, dtype=np.uint8)
    bob = alice ^ (rng.random(400) < 0.25)
    res = reconcile(alice, bob.astype(np.uint8), q_hat=0.25, permutation_seed=3)
    assert not res.verified


def test_reconcile_rejects_malformed_byte_seeds():
    bits = np.zeros(64, dtype=np.uint8)
    for n in (64, 0):
        for seed in (b"", b"abc"):
            with pytest.raises(ValueError, match="byte seeds must be 32 bytes"):
                reconcile(bits[:n], bits[:n], 0.05, permutation_seed=seed)


def test_reconcile_messages_alternate_parity_queries():
    rng = np.random.default_rng(8)
    alice = rng.integers(0, 2, size=200, dtype=np.uint8)
    bob = alice.copy()
    bob[40] ^= 1
    res = reconcile(alice, bob, q_hat=1 / 200, permutation_seed=4)
    kinds = {m.kind for m in res.messages}
    assert MessageKind.PARITY_QUERY in kinds
    assert MessageKind.PARITY_REPLY in kinds


def sequential_reconcile(alice_bits, bob_bits, q_hat, permutation_seed):
    """Reconciliation with one binary search at a time: ``(bits, leakage, corrections, verified)``.

    Each mismatched block is searched to its end before the next one
    starts, one disclosed parity per step.  ``reconcile`` runs all the
    searches of a pass together, a depth at a time; the blocks of a pass
    are disjoint, so both correct the same bits and disclose as much.
    """
    alice_bits = np.asarray(alice_bits, dtype=np.uint8)
    bob = np.asarray(bob_bits, dtype=np.uint8).copy()
    n = alice_bits.size
    rng = np.random.default_rng(keyproto._seed_sequence(permutation_seed))
    leakage = corrections = 0
    if n > 0:
        permutation = rng.permutation(n)
        k1 = keyproto._block_length(q_hat, n)
        for order, k in ((np.arange(n), k1), (permutation, min(n, 2 * k1))):
            for start in range(0, n, k):
                segment = order[start : start + k]
                leakage += 1
                if (int(alice_bits[segment].sum()) - int(bob[segment].sum())) % 2 == 0:
                    continue
                while segment.size > 1:
                    left = segment[: segment.size // 2]
                    leakage += 1
                    go_left = int(alice_bits[left].sum()) % 2 != int(bob[left].sum()) % 2
                    segment = left if go_left else segment[left.size :]
                bob[segment[0]] ^= 1
                corrections += 1
    leakage += keyproto._VERIFY_DIGEST_BITS
    size = keyproto._VERIFY_DIGEST_BITS // 8
    verified = keyproto._bits_digest(alice_bits, size) == keyproto._bits_digest(bob, size)
    return bob, leakage, corrections, verified


def test_reconcile_by_depth_matches_the_sequential_search():
    """Same bits, leakage, corrections and verdict; at most 2 + 2 ceil(log2 k) messages a pass."""
    for n, q, seed in itertools.product(
        (0, 1, 2, 3, 7, 31, 100, 1000, 45_000),
        (0, 0.001, 0.02, 0.05, 0.11, 0.25, 0.5),
        range(5),
    ):
        rng = np.random.default_rng(seed)
        alice = rng.integers(0, 2, size=n, dtype=np.uint8)
        bob = alice ^ (rng.random(n) < q).astype(np.uint8)
        res = reconcile(alice, bob, q, permutation_seed=seed)
        bits, leakage, corrections, verified = sequential_reconcile(alice, bob, q, seed)
        case = (n, q, seed)
        np.testing.assert_array_equal(res.bits, bits, err_msg=str(case))
        assert (res.leakage_bits, res.corrections, res.verified) == (leakage, corrections, verified), case
        k1 = keyproto._block_length(q, n)
        passes = (k1, min(n, 2 * k1)) if n > 0 else ()
        # The verification hash and its verdict close the stage.
        assert len(res.messages) <= 2 + sum(2 + 2 * math.ceil(math.log2(k)) for k in passes), case


def test_reconcile_sends_one_query_and_one_reply_per_depth():
    """All mismatched blocks of a pass are halved together, a depth per query."""
    alice = np.random.default_rng(11).integers(0, 2, size=16, dtype=np.uint8)
    bob = alice.copy()
    bob[[1, 10]] ^= 1
    # Blocks of ceil(0.73 / 0.2) = 4 bits: the errors lie in blocks 0 and 2.
    res = reconcile(alice, bob, q_hat=0.2, permutation_seed=5)
    assert res.verified and res.corrections == 2
    np.testing.assert_array_equal(res.bits, alice)
    pack = keyproto._pack_bits
    # Pass 1: block parities, mismatch flags, then two depths, each with one
    # left-half parity per searched block: bits 0-1 and 8-9, then 0 and 10.
    depths = [
        pack(np.array([alice[0] ^ alice[1], alice[8] ^ alice[9]])),
        pack(np.array([1, 0])),
        pack(np.array([alice[0], alice[10]])),
        pack(np.array([0, 1])),
    ]
    assert [m.payload for m in res.messages[2:6]] == depths
    assert res.messages[1].payload == pack(np.array([1, 0, 1, 0]))
    # Pass 2 finds no mismatch; the verification hash and its verdict close.
    assert len(res.messages) == 10
    assert [m.kind for m in res.messages] == [MessageKind.PARITY_QUERY, MessageKind.PARITY_REPLY] * 5
    assert [m.sender for m in res.messages] == ["alice", "bob"] * 5
    assert res.leakage_bits == 4 + 2 + 2 + 2 + 64


# ----------------------------------------------------------------------
# Privacy amplification
# ----------------------------------------------------------------------


def test_privacy_amplify_matches_explicit_toeplitz():
    n, seed = 80, 1234
    bits = np.random.default_rng(7).integers(0, 2, size=n, dtype=np.uint8)
    out = privacy_amplify(bits, 0, 1.0, seed)
    m = out.size
    assert m == n - 64
    t = np.random.default_rng(np.random.SeedSequence(seed)).integers(0, 2, size=n + m - 1, dtype=np.uint8)
    toeplitz = np.array([[t[i - j + n - 1] for j in range(n)] for i in range(m)])
    np.testing.assert_array_equal(out, (toeplitz @ bits) % 2)


def test_privacy_amplify_matches_explicit_toeplitz_large():
    """The FFT evaluation is exact at 1e5 key bits and on every small shape."""
    n, seed = 100_000, 99
    bits = np.random.default_rng(8).integers(0, 2, size=n, dtype=np.uint8)
    # floor(n * 0.5) - leakage - 64 = 1000 output bits.
    out = privacy_amplify(bits, n // 2 - 1064, 0.5, seed)
    m = out.size
    assert m == 1000
    t = np.random.default_rng(np.random.SeedSequence(seed)).integers(0, 2, size=n + m - 1, dtype=np.uint8)
    # Row i of T is t[i + n - 1], t[i + n - 2], ..., t[i].
    toeplitz = np.lib.stride_tricks.sliding_window_view(t, n)[:m, ::-1]
    # A uint8 product wraps modulo 256, which keeps its parity, and reads
    # the strided view without an n-by-m copy.
    np.testing.assert_array_equal(out, (toeplitz @ bits) % 2)
    # Every small shape against the direct convolution, with m = 1, n // 2
    # and n; the public API yields no bits below 65, so call the product.
    rng = np.random.default_rng(9)
    for n in range(1, 41):
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        for m in {1, max(1, n // 2), n}:
            t = rng.integers(0, 2, size=n + m - 1, dtype=np.uint8)
            full = np.convolve(t.astype(np.int64), bits.astype(np.int64))
            np.testing.assert_array_equal(keyproto._toeplitz_hash(t, bits), full[n - 1 : n - 1 + m] & 1)


def test_privacy_amplify_rejects_inexact_product(monkeypatch):
    """A product 0.25 or more from an integer raises, even under ``python -O``."""
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args: irfft(*args) + 0.3)
    with pytest.raises(RuntimeError, match="not exact"):
        privacy_amplify(np.ones(200, dtype=np.uint8), 0, 1.0, seed=0)


def test_privacy_amplify_output_length():
    bits = np.ones(1000, dtype=np.uint8)
    out = privacy_amplify(bits, leakage_bits=100, rate=0.5, seed=0)
    assert out.size == math.floor(1000 * 0.5) - 100 - 64
    # numpy integers are integers.
    np.testing.assert_array_equal(privacy_amplify(bits, np.int64(100), 0.5, seed=0), out)
    empty = privacy_amplify(bits, leakage_bits=500, rate=0.5, seed=0)
    assert empty.size == 0
    # A malformed byte seed is an error even when no key bits would come out.
    for rate in (0.0, 1.0):
        with pytest.raises(ValueError, match="byte seeds must be 32 bytes"):
            privacy_amplify(bits[:100], 0, rate, seed=b"abc")
    # A rate outside [0, 1] would stretch the key past its input or crash.
    for rate in (1.5, float("nan")):
        with pytest.raises(ValueError, match="rate must lie in"):
            privacy_amplify(bits[:100], 0, rate, seed=0)


def test_fast_len_matches_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    targets = list(range(1, 200_001))
    for base, top in ((2, 27), (3, 17), (5, 12)):
        targets += [base**e + d for e in range(1, top) for d in (-1, 0, 1)]
    targets += np.random.default_rng(16).integers(1, 10**8, size=2000).tolist()
    assert [keyproto._fast_len(t) for t in targets] == [
        next_fast_len(t, real=True) for t in targets
    ]


def test_privacy_amplify_seed_sensitivity():
    bits = np.random.default_rng(9).integers(0, 2, size=256, dtype=np.uint8)
    a = privacy_amplify(bits, 0, 0.5, seed=b"\x00" * 32)
    b = privacy_amplify(bits, 0, 0.5, seed=b"\x01" + b"\x00" * 31)
    assert a.size == b.size > 0
    assert not np.array_equal(a, b)
    with pytest.raises(ValueError):
        privacy_amplify(bits, 0, 0.5, seed=b"short")


# ----------------------------------------------------------------------
# End-to-end sessions
# ----------------------------------------------------------------------


def test_run_session_ideal_link_produces_matching_keys():
    outcome = run_session(run(Scenario()), 60_000, seed=42, sample_fraction=0.5)
    assert outcome.status == "key"
    assert outcome.abort_reason is None
    np.testing.assert_array_equal(outcome.alice_key_bits, outcome.bob_key_bits)
    assert outcome.alice_key_bits.size > 0
    assert outcome.n_rounds == 60_000
    assert outcome.n_heralded == 60_000
    assert outcome.estimated_q == pytest.approx(0.0, abs=1e-12)
    assert outcome.worst_case_rate == pytest.approx(
        devetak_winter_rate(
            min(1.0, outcome.estimated_q + outcome.q_radius),
            outcome.estimated_s - outcome.s_radius,
        ),
        abs=1e-12,
    )


def test_run_session_transcript_is_reproducible():
    kwargs = dict(n_rounds=60_000, seed=42, sample_fraction=0.5)
    device = run(Scenario())
    first = run_session(device, **kwargs)
    second = run_session(device, **kwargs)
    assert serialize_transcript(first.transcript) == serialize_transcript(second.transcript)
    third = run_session(device, n_rounds=60_000, seed=43, sample_fraction=0.5)
    assert serialize_transcript(third.transcript) != serialize_transcript(first.transcript)


def test_run_session_aborts_without_violation():
    outcome = run_session(run(Scenario(detector_efficiency=0.5)), 4_000, seed=1, sample_fraction=0.5)
    assert outcome.status == "abort"
    assert outcome.abort_reason == "estimation:insufficient-violation"
    assert outcome.alice_key_bits.size == 0
    kinds = [m.kind for m in outcome.transcript]
    assert kinds[-1] == MessageKind.ABORT
    assert outcome.transcript[-1].payload.decode("ascii") == outcome.abort_reason


def test_run_session_aborts_on_short_raw_key():
    outcome = run_session(run(Scenario()), 30, seed=1, sample_fraction=0.9)
    assert outcome.status == "abort"
    assert outcome.abort_reason == "sifting:too-few-raw-rounds"


def test_run_session_leakage_for_error_free_key():
    """With zero observed errors, the disclosure is block parities plus hash."""
    outcome = run_session(run(Scenario()), 60_000, seed=42, sample_fraction=0.5)
    n = outcome.n_raw
    block = min(n, math.ceil(0.73 * n))  # q_hat = 0 floors at one error in n
    expected = math.ceil(n / block) + math.ceil(n / min(n, 2 * block)) + 64
    assert outcome.leakage_bits == expected


def counted_calls(monkeypatch, name):
    """Replace ``keyproto.<name>`` with a wrapper; returns the list of its calls' arguments."""
    calls = []
    real = getattr(keyproto, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(keyproto, name, wrapper)
    return calls


def test_verified_session_hashes_its_key_once(monkeypatch):
    calls = counted_calls(monkeypatch, "privacy_amplify")
    outcome = run_session(run(Scenario()), 60_000, seed=42, sample_fraction=0.5)
    assert outcome.status == "key"
    assert len(calls) == 1
    np.testing.assert_array_equal(outcome.bob_key_bits, outcome.alice_key_bits)
    assert not np.shares_memory(outcome.bob_key_bits, outcome.alice_key_bits)


def test_verified_string_that_differs_is_hashed_on_its_own(monkeypatch):
    """Bob's key comes from his own bits when they pass verification but differ from Alice's."""
    real_reconcile = keyproto.reconcile
    bob_bits = []

    def one_bit_off(*args, **kwargs):
        result = real_reconcile(*args, **kwargs)
        assert result.verified
        bits = result.bits.copy()
        bits[len(bits) // 2] ^= 1
        bob_bits.append(bits)
        return dataclasses.replace(result, bits=bits)

    monkeypatch.setattr(keyproto, "reconcile", one_bit_off)
    calls = counted_calls(monkeypatch, "privacy_amplify")
    outcome = run_session(run(Scenario()), 60_000, seed=42, sample_fraction=0.5)
    assert outcome.status == "key"
    assert len(calls) == 2
    # Reconciliation's permutation seed comes first; the last is the amplification's.
    pa_seed = [m.payload for m in outcome.transcript if m.kind == MessageKind.HASH_SEED][-1]
    expected = privacy_amplify(bob_bits[0], outcome.leakage_bits, outcome.worst_case_rate, pa_seed)
    np.testing.assert_array_equal(outcome.bob_key_bits, expected)
    assert not np.array_equal(outcome.bob_key_bits, outcome.alice_key_bits)


def test_session_estimates_agree_with_the_link_model():
    """The session's plug-in S and Q land within their radii of the exact table.

    Both layers read the same measurement layout: a wrong sign or setting in
    ``CHSH_TERMS`` moves ``s_hat`` by more than 1, far outside ``s_radius``
    (0.4 to 0.7 here).
    """
    for scenario in (
        Scenario(detector_efficiency=0.95),
        Scenario(node_fidelity=0.97),
        Scenario(architecture="third_party", distance_km=10),
    ):
        model = run(scenario)
        outcome = run_session(model, 200_000, 3)
        assert abs(outcome.estimated_s - model.chsh) <= outcome.s_radius, scenario
        exact_q = bin_no_click(model.table).error_rate(*KEY_SETTINGS)
        assert abs(outcome.estimated_q - exact_q) <= outcome.q_radius, scenario


def session_digest(outcome) -> str:
    """blake2b over the transcript bytes, both keys and the outcome's fields."""
    h = hashlib.blake2b(digest_size=16)
    h.update(serialize_transcript(outcome.transcript))
    for key in (outcome.alice_key_bits, outcome.bob_key_bits):
        h.update(key.dtype.str.encode() + struct.pack("<I", key.size) + np.packbits(key).tobytes())
    fields = (
        outcome.status,
        outcome.abort_reason,
        outcome.n_heralded,
        outcome.n_raw,
        outcome.leakage_bits,
        outcome.estimated_s,
        outcome.estimated_q,
        outcome.s_radius,
        outcome.q_radius,
        outcome.worst_case_rate,
    )
    h.update(repr(fields).encode())
    return h.hexdigest()


# (scenario, rounds, seed, sample_fraction, abort reason, last sender, digest).
# The digests pin sessions that end in a key and at every abort stage; the
# last case is partly heralded (63 147 of 200 000 rounds), so it pins the
# published sample indices over the heralded subset.
GOLDEN_SESSIONS = (
    (Scenario(), 60_000, 42, 0.5, None, "bob", "4c0535a1f6dfd1255e4d1b00fa87f8c0"),
    (Scenario(), 30, 1, 0.9, "sifting:too-few-raw-rounds", "alice", "1c6f073f2edbaaf2a70fff40ed25f184"),
    (Scenario(), 200, 0, 0.05, "estimation:missing-setting-pair", "alice", "2574cfc46b0af1b7ae09d0b58092f8bb"),
    (
        Scenario(detector_efficiency=0.5), 4_000, 1, 0.5,
        "estimation:insufficient-violation", "alice", "e23a40303b4e1974c4b485bf94ba6d76",
    ),
    (
        Scenario(node_fidelity=0.97), 200_000, 3, 0.1,
        "estimation:zero-rate", "alice", "289d41d147f81c6b71fdcfe3de85fd68",
    ),
    (
        Scenario(node_fidelity=0.99), 200_000, 1, 0.1,
        "reconciliation:verification-failed", "bob", "9c76e35450d615929b36620d28f2285b",
    ),
    (Scenario(), 14_000, 8, 0.9, "amplification:zero-length", "alice", "05e99af9f90fbd825e72bdb294070a7e"),
    (
        Scenario(architecture="third_party", distance_km=10), 200_000, 2, 0.2,
        "estimation:zero-rate", "alice", "a29152fc4aa01ec3348b8149f243c2e1",
    ),
)


def test_run_session_matches_golden_digests():
    for scenario, n_rounds, seed, fraction, reason, sender, digest in GOLDEN_SESSIONS:
        outcome = run_session(run(scenario), n_rounds, seed, sample_fraction=fraction)
        case = (scenario, n_rounds, seed, fraction)
        assert outcome.abort_reason == reason, case
        assert outcome.transcript[-1].sender == sender, case
        assert session_digest(outcome) == digest, case


def test_parse_transcript_reads_back_a_session_with_searched_blocks():
    """A session whose reconciliation searches blocks serializes and parses back whole."""
    outcome = run_session(run(Scenario(node_fidelity=0.99)), 200_000, 1)
    records = parse_transcript(serialize_transcript(outcome.transcript))
    assert records == tuple((seq, m.kind, m.payload) for seq, m in enumerate(outcome.transcript))
    parity = [k for _, k, _ in records if k in (MessageKind.PARITY_QUERY, MessageKind.PARITY_REPLY)]
    # Two passes of block parities and flags, the hash and its verdict, and
    # one query and one reply per search depth: far fewer than one per step.
    assert 6 < len(parity) < 100
    assert parity == [MessageKind.PARITY_QUERY, MessageKind.PARITY_REPLY] * (len(parity) // 2)


# ----------------------------------------------------------------------
# Local and adversarial devices
# ----------------------------------------------------------------------


def as_device(probabilities, herald_probability=1.0):
    """A device the session can measure: a table and a herald probability."""
    return types.SimpleNamespace(
        table=CorrelationTable(probabilities=probabilities), herald_probability=herald_probability
    )


def deterministic_table(alice, bob):
    """The 2 x 3 table of Alice answering ``alice[x]`` and Bob ``bob[y]``."""
    table = np.zeros((2, 3, 4, 4))
    for x, y in itertools.product(range(2), range(3)):
        table[x, y, alice[x], bob[y]] = 1.0
    return table


def binned_chsh(probabilities):
    """CHSH over ``CHSH_TERMS`` with every no-click binned to outcome 0."""
    binned = bin_no_click(CorrelationTable(probabilities=probabilities))
    corr = _correlators(binned.probabilities)
    return sum(sign * corr[x, y] for (x, y), sign in CHSH_TERMS)


# Every deterministic local strategy pair with outcomes 0, 1 and no-click:
# 9 for Alice times 27 for Bob.
LOCAL_TABLES = np.array(
    [
        deterministic_table(alice, bob)
        for alice in itertools.product((0, 1, NO_CLICK), repeat=2)
        for bob in itertools.product((0, 1, NO_CLICK), repeat=3)
    ]
)

# bellcert's strategy outcomes +1, -1 and 0 (silent) as outcome codes; +1 is
# binary outcome 0, as in ``CHSH_SIGNS``.
ATTACK_CODES = {1: 0, -1: 1, 0: NO_CLICK}


def attack_table(eta):
    """bellcert's no-click ensemble at ``eta``, as a mixture of deterministic pairs.

    Alice's settings and Bob's CHSH settings follow ``_candidate_ensemble``;
    Bob's key setting copies Alice's answer at her key setting.
    """
    weights = _candidate_ensemble(eta)
    table = np.zeros((2, 3, 4, 4))
    for k in np.flatnonzero(weights):
        alice_strategy, bob_strategy = (_STRATEGIES[i] for i in divmod(k, len(_STRATEGIES)))
        alice = [ATTACK_CODES[o] for o in alice_strategy]
        bob = [None] * 3
        bob[KEY_SETTINGS[1]] = alice[KEY_SETTINGS[0]]
        for y, o in zip(CHSH_BOB_SETTINGS, bob_strategy):
            bob[y] = ATTACK_CODES[o]
        table += weights[k] * deterministic_table(alice, bob)
    return table


def test_deterministic_local_devices_certify_no_key():
    """Every local strategy pair has binned CHSH at most 2, and so no key.

    The rate is the Devetak–Winter bound of Pironio et al., NJP 11, 045021
    (2009), which certifies nothing at S <= 2.
    """
    assert len(LOCAL_TABLES) == 9 * 27
    for table in LOCAL_TABLES:
        assert binned_chsh(table) <= 2.0
        assert key_rate(CorrelationTable(probabilities=table)) == 0.0


def test_sessions_on_local_mixtures_abort_at_estimation():
    """Seeded mixtures of the pairs on the local bound never reach a key.

    A mixture's CHSH is the weighted mean of its pairs', so mixing only
    pairs at S = 2 gives the local devices hardest to tell from a quantum
    one.  The estimation radii hold jointly at confidence 1 - 1e-6, so a
    false key should come about once in a million sessions.
    """
    on_bound = LOCAL_TABLES[[binned_chsh(table) == 2.0 for table in LOCAL_TABLES]]
    for n_rounds in (100_000, 1_000_000):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            picks = rng.choice(len(on_bound), size=int(rng.integers(2, 9)), replace=False)
            table = np.tensordot(rng.dirichlet(np.ones(picks.size)), on_bound[picks], axes=1)
            outcome = run_session(as_device(table, rng.uniform(0.5, 1.0)), n_rounds, seed)
            assert outcome.status == "abort", (n_rounds, seed)
            assert outcome.abort_reason.startswith("estimation:"), (n_rounds, seed, outcome.abort_reason)


def sample_chsh(rounds, indices, clicked_only):
    """CHSH over the rounds at ``indices``: binned, or over both-click rounds only."""
    s_hat = 0.0
    for (x, y), sign in CHSH_TERMS:
        cell = indices[(rounds.x[indices] == x) & (rounds.y[indices] == y)]
        a, b = rounds.a[cell], rounds.b[cell]
        if clicked_only:
            clicked = np.isin(a, (0, 1)) & np.isin(b, (0, 1))
            a, b = a[clicked], b[clicked]
        s_hat += sign * np.mean(np.where((a == 1) == (b == 1), 1.0, -1.0))
    return s_hat


def test_no_click_attack_is_caught_by_binning():
    """The faking ensembles reach S = 2 binned and beat 2 only under post-selection.

    Larsson, PRA 57, 3304 (1998): post-selected CHSH of these local devices
    reaches ``min(4, 2 / (2 eta - 1))``.  The session bins no-clicks, so it
    sees S = 2 and its radius stops the samples whose Ŝ lands above 2; the
    same published rounds, post-selected on coincidences, read above 2.
    """
    for eta in (0.7, 0.8, 0.9):
        device = as_device(attack_table(eta))
        assert binned_chsh(device.table.probabilities) == 2.0, eta
        for n_rounds in (100_000, 1_000_000):
            for seed in range(20):
                case = (eta, n_rounds, seed)
                outcome = run_session(device, n_rounds, seed)
                assert outcome.abort_reason == "estimation:insufficient-violation", case
                # The session's device stream, checked against its basis announcements.
                device_seed = np.random.SeedSequence(seed).spawn(2)[0]
                rounds = simulate_rounds(device, n_rounds, device_seed)
                assert outcome.transcript[0].payload == rounds.x.astype("<u4").tobytes(), case
                assert outcome.transcript[1].payload == rounds.y.astype("<u4").tobytes(), case
                assert outcome.transcript[2].kind == MessageKind.SAMPLE_INDICES, case
                sample = np.frombuffer(outcome.transcript[2].payload, dtype="<u4")
                binned = sample_chsh(rounds, sample, clicked_only=False)
                assert binned == pytest.approx(outcome.estimated_s, abs=1e-12), case
                assert sample_chsh(rounds, sample, clicked_only=True) > 2.0, case


def test_mixed_device_is_estimated_where_the_mixture_says():
    link = run(Scenario(detector_efficiency=0.98))
    for w in (0.25, 0.5):
        device = as_device(w * attack_table(0.8) + (1 - w) * link.table.probabilities)
        expected = w * 2.0 + (1 - w) * link.chsh
        for seed in range(20):
            outcome = run_session(device, 1_000_000, seed)
            assert abs(outcome.estimated_s - expected) <= outcome.s_radius, (w, seed)


# Each case: a call that must be rejected, the exception and the message
# naming the rejected input.
REJECTED_INPUTS = (
    (lambda: simulate_rounds(run(Scenario()), 0, 1), ValueError, "n_rounds must be positive, got 0"),
    (lambda: simulate_rounds(run(Scenario()), 3e3, 1), ValueError, "n_rounds must be an integer, got 3000.0"),
    (lambda: run_session(run(Scenario()), True, 1), ValueError, "n_rounds must be an integer, got True"),
    # Rejected before any draw, so nothing is allocated.
    *(
        (
            lambda n=n: simulate_rounds(run(Scenario()), n, 1),
            ValueError,
            rf"n_rounds must be at most {MAX_ROUNDS}, got {n}$",
        )
        for n in (MAX_ROUNDS + 1, 2**62, np.iinfo(np.intp).max + 1, 10**30)
    ),
    (
        lambda: simulate_rounds(run(Scenario()), 10**400, 1),
        ValueError,
        rf"^n_rounds must be at most {MAX_ROUNDS}, got a number no float can hold$",
    ),
    (
        lambda: simulate_rounds(run(Scenario()), -(10**400), 1),
        ValueError,
        r"^n_rounds must be positive, got a number no float can hold$",
    ),
    (
        lambda: simulate_rounds(as_device(bin_no_click(run(Scenario()).table).probabilities), 10, 1),
        ValueError,
        r"device table needs shape \(2, 3, 4, 4\), got \(2, 3, 2, 2\)",
    ),
    *(
        (
            lambda cut=cut: simulate_rounds(as_device(cut(run(Scenario()).table.probabilities)), 10, 1),
            ValueError,
            rf"device table needs shape \(2, 3, 4, 4\), got \({shape}\)",
        )
        for cut, shape in (
            (lambda p: p[:, :2], "2, 2, 4, 4"),
            (lambda p: p[:1], "1, 3, 4, 4"),
            (lambda p: np.concatenate([p, p[:1]], axis=0), "3, 3, 4, 4"),
        )
    ),
    *(
        (
            lambda p=p: simulate_rounds(as_device(run(Scenario()).table.probabilities, p), 10, 1),
            ValueError,
            rf"herald_probability must lie in \[0, 1\], got {p}",
        )
        for p in (1.5, -0.1, np.nan)
    ),
    (
        lambda: privacy_amplify(np.zeros((2, 4), dtype=np.uint8), 0, 0.5, 1),
        ValueError,
        "bits must be a 1-D array",
    ),
    (
        lambda: privacy_amplify(np.zeros(8, dtype=np.uint8), -1, 0.5, 1),
        ValueError,
        "leakage_bits must be non-negative",
    ),
    (
        lambda: privacy_amplify(np.zeros(8, dtype=np.uint8), 1.5, 0.5, 1),
        ValueError,
        "leakage_bits must be an integer, got 1.5",
    ),
    (
        lambda: privacy_amplify(np.zeros(8, dtype=np.uint8), True, 0.5, 1),
        ValueError,
        "leakage_bits must be an integer, got True",
    ),
    (
        lambda: sift(simulate_rounds(run(Scenario()), 100, 1), 1.0, np.random.default_rng(0)),
        ValueError,
        r"sample_fraction must lie in \[0, 1\), got 1.0",
    ),
    (
        lambda: reconcile(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8), 0.01),
        ValueError,
        "bit strings must be 1-D and of equal length",
    ),
    (lambda: parse_transcript(b"\x00"), ValueError, "truncated transcript header"),
    (
        lambda: parse_transcript(struct.pack("<IBI", 0, 99, 0)),
        ValueError,
        "transcript record 0 has unknown kind 99",
    ),
    *(
        (
            lambda q=q: reconcile(np.zeros(4, dtype=np.uint8), np.zeros(4, dtype=np.uint8), q),
            ValueError,
            rf"q_hat must lie in \[0, 1\], got {q}",
        )
        for q in (np.nan, np.inf, -0.1, 1.5)
    ),
    (
        lambda: reconcile(np.zeros(4, dtype=np.uint8), np.zeros(4, dtype=np.uint8), True),
        ValueError,
        "q_hat must be a number, got True",
    ),
    (
        lambda: privacy_amplify(np.zeros(8, dtype=np.uint8), 0, True, 1),
        ValueError,
        "rate must be a number, got True",
    ),
)


def test_rejected_inputs_name_the_input():
    # One test over a case table so the test keeps a single, stable id.
    for call, error, message in REJECTED_INPUTS:
        with pytest.raises(error, match=message) as caught:
            call()
        # No message prints an input at unbounded length.
        assert len(str(caught.value)) <= 100, message
