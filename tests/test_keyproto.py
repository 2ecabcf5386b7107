"""Tests for the device-independent key-distillation protocol."""

import hashlib
import math
import struct

import numpy as np
import pytest

from diqkd_lab import keyproto
from diqkd_lab.architectures import KEY_SETTINGS, Scenario, devetak_winter_rate, run
from diqkd_lab.bellcert import bin_no_click
from diqkd_lab.keyproto import (
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
    scenario = Scenario()
    first = simulate_rounds(scenario, 500, 7)
    second = simulate_rounds(scenario, 500, 7)
    assert all(np.array_equal(getattr(first, c), getattr(second, c)) for c in COLUMNS)
    third = simulate_rounds(scenario, 500, 8)
    assert not all(np.array_equal(getattr(first, c), getattr(third, c)) for c in COLUMNS)


def test_simulate_rounds_marks_non_heralded_as_no_click():
    scenario = Scenario(architecture="third_party", pair_prob=0.05)
    rounds = simulate_rounds(scenario, 2000, 3)
    assert all(getattr(rounds, c).shape == (2000,) for c in COLUMNS)
    assert np.isin(rounds.x, (0, 1)).all() and np.isin(rounds.y, (0, 1, 2)).all()
    assert (~rounds.heralded).any()
    assert (rounds.a[~rounds.heralded] == 2).all()
    assert (rounds.b[~rounds.heralded] == 2).all()


def test_simulate_rounds_ideal_statistics():
    rounds = simulate_rounds(Scenario(), 4000, 11)
    assert rounds.heralded.all()
    # Key basis is perfectly correlated for the ideal link.
    key = (rounds.x == 0) & (rounds.y == 0)
    assert key.any(), "expected key-basis rounds"
    assert np.array_equal(rounds.a[key], rounds.b[key])


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
    outcome = run_session(Scenario(), 60_000, seed=42, sample_fraction=0.5)
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
    first = run_session(Scenario(), **kwargs)
    second = run_session(Scenario(), **kwargs)
    assert serialize_transcript(first.transcript) == serialize_transcript(second.transcript)
    third = run_session(Scenario(), n_rounds=60_000, seed=43, sample_fraction=0.5)
    assert serialize_transcript(third.transcript) != serialize_transcript(first.transcript)


def test_run_session_aborts_without_violation():
    outcome = run_session(Scenario(detector_efficiency=0.5), 4_000, seed=1, sample_fraction=0.5)
    assert outcome.status == "abort"
    assert outcome.abort_reason == "estimation:insufficient-violation"
    assert outcome.alice_key_bits.size == 0
    kinds = [m.kind for m in outcome.transcript]
    assert kinds[-1] == MessageKind.ABORT
    assert outcome.transcript[-1].payload.decode("ascii") == outcome.abort_reason


def test_run_session_aborts_on_short_raw_key():
    outcome = run_session(Scenario(), 30, seed=1, sample_fraction=0.9)
    assert outcome.status == "abort"
    assert outcome.abort_reason == "sifting:too-few-raw-rounds"


def test_run_session_leakage_for_error_free_key():
    """With zero observed errors, the disclosure is block parities plus hash."""
    outcome = run_session(Scenario(), 60_000, seed=42, sample_fraction=0.5)
    n = outcome.n_raw
    block = min(n, math.ceil(0.73 * n))  # q_hat = 0 floors at one error in n
    expected = math.ceil(n / block) + math.ceil(n / min(n, 2 * block)) + 64
    assert outcome.leakage_bits == expected


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
        outcome = run_session(scenario, 200_000, 3)
        model = run(scenario)
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
        "reconciliation:verification-failed", "bob", "5b2a601df97ccc373f7e2516823a129b",
    ),
    (Scenario(), 14_000, 8, 0.9, "amplification:zero-length", "alice", "05e99af9f90fbd825e72bdb294070a7e"),
    (
        Scenario(architecture="third_party", distance_km=10), 200_000, 2, 0.2,
        "estimation:zero-rate", "alice", "a29152fc4aa01ec3348b8149f243c2e1",
    ),
)


def test_run_session_matches_golden_digests():
    for scenario, n_rounds, seed, fraction, reason, sender, digest in GOLDEN_SESSIONS:
        outcome = run_session(scenario, n_rounds, seed, sample_fraction=fraction)
        case = (scenario, n_rounds, seed, fraction)
        assert outcome.abort_reason == reason, case
        assert outcome.transcript[-1].sender == sender, case
        assert session_digest(outcome) == digest, case
