"""Classical post-processing that turns device outcomes into a secret key.

Two in-process party machines (Alice holds ``(x, a)``, Bob ``(y, b)``)
exchange :class:`ProtocolMessage` records over a simulated authenticated
channel and drive the standard pipeline:

1. basis announcement,
2. publication of a random estimation sample,
3. CHSH / error-rate estimation with Hoeffding radii that hold jointly at
   confidence ``_CONFIDENCE`` (1 - 1e-6),
4. two-pass parity-bisection reconciliation with a verification hash,
5. Toeplitz-hash privacy amplification, evaluated by FFT and sized by the
   worst-case key rate, less the leakage and ``_SECURITY_MARGIN`` (64) bits.

Everything is a pure function of ``(scenario, n_rounds, seed)``; the full
transcript serializes to a stable byte string so repeated runs can be
compared byte for byte.

Conventions: the measurement layout is the one the architectures decide
(``architectures.KEY_SETTINGS`` forms the raw key, ``architectures.CHSH_TERMS``
the CHSH estimate); this module holds no setting literal of its own.
Outcome codes are the measurement tables' ``photonics.OUTCOME_CODES`` (0,
1, ``NO_CLICK``, ``DOUBLE_CLICK``); parties bin every non-``1`` outcome to
bit 0 before any classical processing, so no post-selection enters the
statistics.  Alice's string is the reference during reconciliation and the
final key is hashed from it; disclosed parity bits are counted against the
key length.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from diqkd_lab.architectures import (
    CHSH_TERMS,
    KEY_SETTINGS,
    Scenario,
    devetak_winter_rate,
    run,
)
from diqkd_lab.photonics import NO_CLICK

__all__ = [
    "MessageKind",
    "ProtocolMessage",
    "ProtocolAbort",
    "Rounds",
    "EstimationSample",
    "Estimate",
    "ReconcileResult",
    "SessionOutcome",
    "simulate_rounds",
    "sift",
    "estimate",
    "reconcile",
    "privacy_amplify",
    "run_session",
    "serialize_transcript",
    "parse_transcript",
]

#: Sifting aborts when fewer raw key rounds than this remain.
_MIN_RAW_ROUNDS = 16

#: Joint confidence level of the estimation radii.
_CONFIDENCE = 1.0 - 1e-6

#: Bits removed on top of the leakage during privacy amplification.
_SECURITY_MARGIN = 64

_VERIFY_DIGEST_BITS = 64


class MessageKind(IntEnum):
    """Message types of the post-processing protocol."""

    BASIS_ANNOUNCE = 1
    SAMPLE_INDICES = 2
    SAMPLE_VALUES = 3
    PARITY_QUERY = 4
    PARITY_REPLY = 5
    HASH_SEED = 6
    ABORT = 7
    DONE = 8


@dataclass(frozen=True)
class ProtocolMessage:
    """One record on the authenticated public channel.

    A message's sequence number is its position in the transcript, counted
    from 0; it is written on serialization, not stored.

    Attributes:
        kind: Message type.
        payload: Kind-specific bytes: setting/index lists as little-endian
            u32 arrays, bit strings packed MSB-first, seeds as 32 raw
            bytes, abort reasons as ASCII.
        sender: ``"alice"`` or ``"bob"`` (implicit in the choreography;
            not serialized).
    """

    kind: MessageKind
    payload: bytes
    sender: str


class ProtocolAbort(Exception):
    """Raised internally when a protocol stage fails its acceptance check.

    Attributes:
        reason: Stage tag, ``"<stage>:<detail>"``.
        sender: Party that announces the abort on the channel.
    """

    def __init__(self, reason: str, sender: str = "alice") -> None:
        super().__init__(reason)
        self.reason = reason
        self.sender = sender


@dataclass(frozen=True)
class Rounds:
    """Measurement rounds as seen by the devices, as same-length columns.

    A round's index is its position in the arrays.

    Attributes:
        x: Alice's settings (0 or 1).
        y: Bob's settings (0, 1 or 2); ``KEY_SETTINGS`` is the key basis.
        a: Alice's outcome codes, ``photonics.OUTCOME_CODES``.
        b: Bob's outcome codes.
        heralded: Whether the architecture declared each round usable;
            outcomes of non-heralded rounds are recorded as no-clicks.
    """

    x: np.ndarray
    y: np.ndarray
    a: np.ndarray
    b: np.ndarray
    heralded: np.ndarray


@dataclass(frozen=True)
class EstimationSample:
    """Published estimation data: settings and binned outcome bits."""

    indices: np.ndarray
    x: np.ndarray
    y: np.ndarray
    alice_bits: np.ndarray
    bob_bits: np.ndarray


@dataclass(frozen=True)
class Estimate:
    """Plug-in estimates with Hoeffding confidence radii.

    The radii hold jointly at confidence ``_CONFIDENCE``: a union
    bound splits the failure budget over the four CHSH correlators and the
    error rate.
    """

    s_hat: float
    q_hat: float
    s_radius: float
    q_radius: float

    @property
    def s_worst(self) -> float:
        return self.s_hat - self.s_radius

    @property
    def q_worst(self) -> float:
        return min(self.q_hat + self.q_radius, 1.0)


@dataclass(frozen=True)
class ReconcileResult:
    """Outcome of the interactive reconciliation stage.

    Attributes:
        bits: Bob's corrected bit string.
        leakage_bits: Parity and verification-hash bits disclosed about
            Alice's string (Bob's replies are derivable from the published
            parities together with his own data, so they are not counted).
        corrections: Number of bit flips applied by Bob.
        verified: Whether the final verification hashes matched.
        messages: The parity/hash messages exchanged, in order.
    """

    bits: np.ndarray
    leakage_bits: int
    corrections: int
    verified: bool
    messages: tuple[ProtocolMessage, ...]


@dataclass(frozen=True)
class SessionOutcome:
    """Result of a full post-processing session.

    Attributes:
        status: ``"key"`` or ``"abort"``.
        alice_key_bits: Alice's final key (empty on abort).
        bob_key_bits: Bob's final key; bit-identical to Alice's on success.
        leakage_bits: Total reconciliation leakage charged to the key.
        estimated_s: Plug-in CHSH estimate (NaN if estimation never ran).
        estimated_q: Plug-in error-rate estimate.
        s_radius: Hoeffding radius on the CHSH estimate.
        q_radius: Hoeffding radius on the error-rate estimate.
        worst_case_rate: Key rate evaluated at the confidence-worst
            ``(S, Q)`` corner; sizes the amplified key.
        n_rounds: Rounds simulated.
        n_heralded: Rounds the architecture heralded.
        n_raw: Raw key length before amplification (heralded key-basis
            rounds outside the estimation sample).
        abort_reason: Stage tag on abort, else None.
        transcript: Every message exchanged, in order.
    """

    status: str
    alice_key_bits: np.ndarray
    bob_key_bits: np.ndarray
    leakage_bits: int
    estimated_s: float
    estimated_q: float
    s_radius: float
    q_radius: float
    worst_case_rate: float
    n_rounds: int
    n_heralded: int
    n_raw: int
    abort_reason: str | None
    transcript: tuple[ProtocolMessage, ...]


# --------------------------------------------------------------------------
# Bit and byte helpers
# --------------------------------------------------------------------------


def _pack_bits(bits: np.ndarray) -> bytes:
    return np.packbits(bits.astype(np.uint8)).tobytes()


def _u32_bytes(values: np.ndarray) -> bytes:
    return np.asarray(values, dtype="<u4").tobytes()


def _verify_digest(bits: np.ndarray) -> bytes:
    payload = _pack_bits(bits) + struct.pack("<I", bits.size)
    return hashlib.blake2b(payload, digest_size=_VERIFY_DIGEST_BITS // 8).digest()


def serialize_transcript(messages: Sequence[ProtocolMessage]) -> bytes:
    """Encode messages as ``{u32 seq, u8 kind, u32 length, payload}`` records.

    ``seq`` is the message's position.  All integers are little-endian; the
    sender is implicit in the protocol choreography and not serialized.
    """
    parts = []
    for seq, msg in enumerate(messages):
        parts.append(struct.pack("<IBI", seq, int(msg.kind), len(msg.payload)))
        parts.append(msg.payload)
    return b"".join(parts)


def parse_transcript(data: bytes) -> tuple[tuple[int, MessageKind, bytes], ...]:
    """Decode a serialized transcript into ``(seq, kind, payload)`` triples.

    Raises:
        ValueError: On a truncated record, or a record whose ``seq`` is not
            its position.
    """
    out = []
    offset = 0
    header = struct.Struct("<IBI")
    while offset < len(data):
        if offset + header.size > len(data):
            raise ValueError("truncated transcript header")
        seq, kind, length = header.unpack_from(data, offset)
        if seq != len(out):
            raise ValueError(f"transcript record {len(out)} carries sequence number {seq}")
        offset += header.size
        if offset + length > len(data):
            raise ValueError("truncated transcript payload")
        out.append((seq, MessageKind(kind), bytes(data[offset : offset + length])))
        offset += length
    return tuple(out)


def _seed_sequence(seed: int | bytes) -> np.random.SeedSequence:
    """Seed from an integer, or from 32 bytes read as little-endian u32 words."""
    if isinstance(seed, bytes):
        if len(seed) != 32:
            raise ValueError(f"byte seeds must be 32 bytes, got {len(seed)}")
        return np.random.SeedSequence(np.frombuffer(seed, dtype="<u4").tolist())
    return np.random.SeedSequence(seed)


def _binned_bit(outcome: np.ndarray) -> np.ndarray:
    """Fold device outcomes to bits: outcome 1 -> 1, everything else -> 0."""
    return (np.asarray(outcome) == 1).astype(np.uint8)


# --------------------------------------------------------------------------
# Round simulation
# --------------------------------------------------------------------------


def simulate_rounds(
    scenario: Scenario,
    n_rounds: int,
    seed: int | np.random.SeedSequence,
) -> Rounds:
    """Sample measurement rounds from a scenario's conditional statistics.

    Settings are drawn uniformly and independently per party; the herald
    flag is Bernoulli with the architecture's heralding probability; the
    outcome pair of a heralded round follows the conditional table cell of
    its settings.  Non-heralded rounds record no-clicks.

    Args:
        scenario: Link configuration.
        n_rounds: Number of source repetitions to simulate.
        seed: Seed for the round generator; fixed seed means identical
            rounds on every call.
    """
    if n_rounds <= 0:
        raise ValueError(f"n_rounds must be positive, got {n_rounds}")
    result = run(scenario)
    rng = np.random.default_rng(seed)
    n_x, n_y, _, n_b = result.table.probabilities.shape
    x = rng.integers(0, n_x, size=n_rounds)
    y = rng.integers(0, n_y, size=n_rounds)
    heralded = rng.random(n_rounds) < result.herald_probability
    u = rng.random(n_rounds)
    # Joint outcome codes a * n_b + b; rounds left unset record no-clicks.
    joint = np.full(n_rounds, NO_CLICK * n_b + NO_CLICK, dtype=np.int64)
    for ix in range(n_x):
        for iy in range(n_y):
            mask = heralded & (x == ix) & (y == iy)
            if not mask.any():
                continue
            cell = result.table.probabilities[ix, iy].reshape(-1)
            edges = np.cumsum(cell)
            edges[-1] = 1.0
            joint[mask] = np.searchsorted(edges, u[mask], side="right")
    return Rounds(x=x, y=y, a=joint // n_b, b=joint % n_b, heralded=heralded)


# --------------------------------------------------------------------------
# Sifting and estimation
# --------------------------------------------------------------------------


def sift(
    rounds: Rounds, sample_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, EstimationSample]:
    """Split heralded rounds into the raw key and the estimation sample.

    A uniform random fraction of all heralded rounds is published for
    parameter estimation (it therefore covers every setting pair); the raw
    key is what remains of the key-basis rounds ``KEY_SETTINGS``.

    Returns:
        ``(alice_raw_bits, bob_raw_bits, sample)``.

    Raises:
        ProtocolAbort: If fewer than ``_MIN_RAW_ROUNDS`` raw rounds remain.
    """
    if not 0.0 <= sample_fraction < 1.0:
        raise ValueError(f"sample_fraction must lie in [0, 1), got {sample_fraction}")
    idx = np.flatnonzero(rounds.heralded)
    x = rounds.x[idx]
    y = rounds.y[idx]
    a_bits = _binned_bit(rounds.a[idx])
    b_bits = _binned_bit(rounds.b[idx])
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
    if int(raw_mask.sum()) < _MIN_RAW_ROUNDS:
        raise ProtocolAbort("sifting:too-few-raw-rounds")
    return a_bits[raw_mask], b_bits[raw_mask], sample


def estimate(sample: EstimationSample) -> Estimate:
    """CHSH and error-rate estimates from the published sample.

    Correlators use the ±1 convention ``(-1)^bit``; the CHSH combination
    sums ``CHSH_TERMS`` and the error rate is read on ``KEY_SETTINGS``.
    Hoeffding radii split the failure probability ``1 - _CONFIDENCE``
    evenly over the five estimated quantities, so all radii hold jointly at
    that confidence.

    Raises:
        ProtocolAbort: If any needed setting pair is absent from the sample.
    """
    delta = (1.0 - _CONFIDENCE) / 5.0
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
    return Estimate(s_hat=s_hat, q_hat=q_hat, s_radius=s_radius, q_radius=q_radius)


# --------------------------------------------------------------------------
# Reconciliation
# --------------------------------------------------------------------------


def _block_length(q_hat: float, n: int) -> int:
    """First-pass block length ``ceil(0.73 / Q)``, clamped to ``[1, n]``."""
    q = max(q_hat, 1.0 / max(n, 1))
    return int(min(n, max(1, math.ceil(0.73 / q))))


class _Transcript(list):
    """The messages both parties have sent, in order."""

    def send(self, sender: str, kind: MessageKind, payload: bytes) -> None:
        self.append(ProtocolMessage(kind=kind, payload=payload, sender=sender))


def _parity(bits: np.ndarray) -> int:
    return int(bits.sum()) & 1


def reconcile(
    alice_bits: np.ndarray,
    bob_bits: np.ndarray,
    q_hat: float,
    *,
    permutation_seed: int | bytes = 0,
) -> ReconcileResult:
    """Two-pass interactive parity reconciliation, Alice as reference.

    Pass 1 splits the strings into blocks of ``ceil(0.73 / q_hat)`` bits;
    pass 2 repeats on a publicly permuted copy with doubled blocks.  For
    every block whose parities disagree, Bob locates one error by binary
    search -- each step discloses one of Alice's sub-block parities -- and
    flips it.  A 64-bit keyed-size hash of Alice's string closes the stage;
    mismatching hashes mark the result unverified (callers abort).

    The disclosed information charged to the key is every parity bit Alice
    publishes plus the verification hash; Bob's replies (block mismatch
    flags and search directions) are deterministic functions of the
    published parities and his own string.

    Args:
        alice_bits: Reference bit string.
        bob_bits: String to correct; same length.
        q_hat: Error-rate estimate used only to size blocks.
        permutation_seed: Public seed of the second-pass permutation.

    Returns:
        A :class:`ReconcileResult` whose ``messages`` a session appends to
        its transcript; their sequence numbers follow from their positions
        there.
    """
    alice_bits = np.asarray(alice_bits, dtype=np.uint8)
    bob = np.asarray(bob_bits, dtype=np.uint8).copy()
    if alice_bits.shape != bob.shape or alice_bits.ndim != 1:
        raise ValueError("bit strings must be 1-D and of equal length")
    n = alice_bits.size
    rng = np.random.default_rng(_seed_sequence(permutation_seed))
    transcript = _Transcript()
    leakage = 0
    corrections = 0
    if n > 0:
        permutation = rng.permutation(n)
        k1 = _block_length(q_hat, n)
        passes = (
            (np.arange(n), k1),
            (permutation, min(n, 2 * k1)),
        )
        for order, k in passes:
            starts = np.arange(0, n, k)
            # uint8 sums wrap modulo 256, which keeps their parity.
            alice_parities = np.add.reduceat(alice_bits[order], starts) & 1
            transcript.send("alice", MessageKind.PARITY_QUERY, _pack_bits(alice_parities))
            leakage += starts.size
            mismatch = (np.add.reduceat(bob[order], starts) & 1) ^ alice_parities
            transcript.send("bob", MessageKind.PARITY_REPLY, _pack_bits(mismatch))
            for start in starts[mismatch == 1]:
                segment = order[start : start + k]
                while segment.size > 1:
                    half = segment.size // 2
                    left = segment[:half]
                    alice_left = _parity(alice_bits[left])
                    transcript.send(
                        "alice",
                        MessageKind.PARITY_QUERY,
                        _pack_bits(np.array([alice_left], dtype=np.uint8)),
                    )
                    leakage += 1
                    go_left = _parity(bob[left]) != alice_left
                    transcript.send(
                        "bob",
                        MessageKind.PARITY_REPLY,
                        _pack_bits(np.array([int(go_left)], dtype=np.uint8)),
                    )
                    segment = left if go_left else segment[half:]
                bob[segment[0]] ^= 1
                corrections += 1
    digest = _verify_digest(alice_bits)
    transcript.send("alice", MessageKind.PARITY_QUERY, digest)
    leakage += _VERIFY_DIGEST_BITS
    verified = digest == _verify_digest(bob)
    transcript.send(
        "bob", MessageKind.PARITY_REPLY, b"\x01" if verified else b"\x00"
    )
    return ReconcileResult(
        bits=bob,
        leakage_bits=leakage,
        corrections=corrections,
        verified=verified,
        messages=tuple(transcript),
    )


# --------------------------------------------------------------------------
# Privacy amplification
# --------------------------------------------------------------------------


def privacy_amplify(
    bits: np.ndarray, leakage_bits: int, rate: float, seed: int | bytes
) -> np.ndarray:
    """Compress a reconciled string with a seeded Toeplitz hash.

    The output length is ``max(0, floor(n * rate) - leakage_bits -
    _SECURITY_MARGIN)``.  The Toeplitz matrix ``T[i, j] = t[i - j + n - 1]``
    is defined by ``n + m - 1`` seed bits drawn from a PCG64 generator
    (Hayashi & Tsurumaru, arXiv:1311.5322), and its product with the key
    over GF(2) is the parity of entries ``n - 1 .. n + m - 2`` of the linear
    convolution of ``t`` with the key.

    The convolution is evaluated exactly as a real FFT product of circular
    length ``N >= n + m - 1``: the linear convolution has ``2n + m - 2``
    entries, and the at most ``n - 1`` that wrap around land in indices
    below ``n - 1``, which are never read.  Every read entry is an integer
    of at most ``n``, so the float result is rounded to the nearest
    integer; if any entry lies 0.25 or further from its rounding, the
    product is not trustworthy and a :class:`RuntimeError` is raised.  The measured slack
    is below 1e-11 at ``n`` = 4.5e4, 6e-11 at 1.5e6 and 8e-10 at 4e6.

    Args:
        bits: Reconciled key bits.
        leakage_bits: Reconciliation disclosure to subtract.
        rate: Extractable secret fraction (worst-case plug-in key rate).
        seed: Hash seed; 32 announced bytes or an integer.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise ValueError("bits must be a 1-D array")
    if leakage_bits < 0:
        raise ValueError("leakage_bits must be non-negative")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    n = bits.size
    m = max(0, math.floor(n * rate) - leakage_bits - _SECURITY_MARGIN)
    # Seeded before the empty-output return, so a bad seed is always rejected.
    rng = np.random.default_rng(_seed_sequence(seed))
    if m == 0:
        return np.zeros(0, dtype=np.uint8)
    t = rng.integers(0, 2, size=n + m - 1, dtype=np.uint8)
    return _toeplitz_hash(t, bits)


def _fast_len(target: int) -> int:
    """Smallest 2·3·5-smooth integer ``>= target``, for ``target >= 1``.

    The FFT length ``scipy.fft.next_fast_len(target, real=True)`` picks:
    for each ``3^i 5^j`` below the best length so far, the least power-of-two
    multiple that reaches ``target``.
    """
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            length = p35 << ((target - 1) // p35).bit_length()
            if length < best:
                best = length
            p35 *= 3
        p5 *= 5
    return best


def _toeplitz_hash(t: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """``T @ bits`` over GF(2) for ``T[i, j] = t[i - j + n - 1]``, by FFT; see ``privacy_amplify``."""
    n = bits.size
    m = t.size - n + 1
    # Row i of T is t[i], t[i+1], ..., t[i+n-1] read against reversed bits:
    # (T @ bits)[i] = sum_j t[i - j + n - 1] bits[j] = conv(t, bits)[n - 1 + i].
    # numpy.fft rather than scipy.fft: scipy caches a plan per length, and
    # every session hashes a different length.  _fast_len picks the same
    # 2·3·5-smooth length as scipy.fft.next_fast_len, without importing scipy.
    size = _fast_len(n + m - 1)
    product = np.fft.irfft(np.fft.rfft(t, size) * np.fft.rfft(bits, size), size)[n - 1 : n - 1 + m]
    counts = np.rint(product)
    slack = float(np.max(np.abs(product - counts)))
    if slack >= 0.25:
        raise RuntimeError(f"FFT Toeplitz product is {slack:.3g} from an integer; not exact")
    return (counts.astype(np.int64) & 1).astype(np.uint8)


# --------------------------------------------------------------------------
# Full session
# --------------------------------------------------------------------------


def run_session(
    scenario: Scenario,
    n_rounds: int,
    seed: int,
    *,
    sample_fraction: float = 0.1,
) -> SessionOutcome:
    """Run the end-to-end protocol between two simulated parties.

    The single seed splits into independent streams for the devices and
    for Alice's protocol randomness; the second-pass permutation seed and
    the privacy-amplification seed travel through the transcript, so the
    whole session -- including the serialized transcript -- is a pure
    function of ``(scenario, n_rounds, seed)``.

    Args:
        scenario: Link configuration handed to the architecture runner.
        n_rounds: Source repetitions to simulate.
        seed: Master seed.
        sample_fraction: Fraction of heralded rounds published for
            estimation.
    """
    dev_ss, alice_ss = np.random.SeedSequence(seed).spawn(2)
    alice_rng = np.random.default_rng(alice_ss)
    rounds = simulate_rounds(scenario, n_rounds, dev_ss)
    transcript = _Transcript()
    transcript.send("alice", MessageKind.BASIS_ANNOUNCE, _u32_bytes(rounds.x))
    transcript.send("bob", MessageKind.BASIS_ANNOUNCE, _u32_bytes(rounds.y))

    est = None
    n_raw = 0
    leakage = 0
    abort_reason = None
    try:
        alice_raw, bob_raw, sample = sift(rounds, sample_fraction, alice_rng)
        n_raw = int(alice_raw.size)
        transcript.send(
            "alice", MessageKind.SAMPLE_INDICES, _u32_bytes(sample.indices)
        )
        transcript.send(
            "alice", MessageKind.SAMPLE_VALUES, _pack_bits(sample.alice_bits)
        )
        transcript.send("bob", MessageKind.SAMPLE_VALUES, _pack_bits(sample.bob_bits))

        est = estimate(sample)
        if est.s_worst <= 2.0:
            raise ProtocolAbort("estimation:insufficient-violation")
        rate = devetak_winter_rate(est.q_worst, est.s_worst)
        if rate <= 0.0:
            raise ProtocolAbort("estimation:zero-rate")

        perm_seed = alice_rng.bytes(32)
        transcript.send("alice", MessageKind.HASH_SEED, perm_seed)
        recon = reconcile(alice_raw, bob_raw, est.q_hat, permutation_seed=perm_seed)
        transcript.extend(recon.messages)
        leakage = recon.leakage_bits
        if not recon.verified:
            raise ProtocolAbort("reconciliation:verification-failed", sender="bob")

        pa_seed = alice_rng.bytes(32)
        transcript.send("alice", MessageKind.HASH_SEED, pa_seed)
        alice_key = privacy_amplify(alice_raw, leakage, rate, pa_seed)
        bob_key = privacy_amplify(recon.bits, leakage, rate, pa_seed)
        if alice_key.size == 0:
            raise ProtocolAbort("amplification:zero-length")
        transcript.send("alice", MessageKind.DONE, struct.pack("<I", alice_key.size))
        transcript.send("bob", MessageKind.DONE, struct.pack("<I", bob_key.size))
    except ProtocolAbort as exc:
        transcript.send(exc.sender, MessageKind.ABORT, exc.reason.encode("ascii"))
        abort_reason = exc.reason
        alice_key = np.zeros(0, dtype=np.uint8)
        bob_key = alice_key.copy()
        rate = 0.0
    nan = float("nan")
    return SessionOutcome(
        status="key" if abort_reason is None else "abort",
        alice_key_bits=alice_key,
        bob_key_bits=bob_key,
        leakage_bits=leakage,
        estimated_s=est.s_hat if est else nan,
        estimated_q=est.q_hat if est else nan,
        s_radius=est.s_radius if est else nan,
        q_radius=est.q_radius if est else nan,
        worst_case_rate=rate,
        n_rounds=n_rounds,
        n_heralded=int(rounds.heralded.sum()),
        n_raw=n_raw,
        abort_reason=abort_reason,
        transcript=tuple(transcript),
    )
