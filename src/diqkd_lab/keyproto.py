"""Classical post-processing that turns device outcomes into a secret key.

Two in-process party machines (Alice holds ``(x, a)``, Bob ``(y, b)``)
exchange :class:`ProtocolMessage` records over a simulated authenticated
channel and drive the standard pipeline:

1. basis announcement,
2. publication of a random estimation sample,
3. CHSH / error-rate estimation with Hoeffding radii that hold jointly at
   confidence ``_CONFIDENCE`` (1 - 1e-6),
4. two-pass parity-bisection reconciliation with a verification hash; the
   binary searches of a pass advance together, one parity query and one
   reply per search depth,
5. Toeplitz-hash privacy amplification, evaluated by FFT and sized by the
   worst-case key rate, less the leakage and ``_SECURITY_MARGIN`` (64) bits;
   Bob's key is hashed from his own string only when it differs from
   Alice's, so a verified session hashes once.

A session runs on a *device*: a conditional measurement table and a
herald probability, such as ``architectures.run`` returns for a photonic
link, or a table built by hand for a local or adversarial one.  Everything
is a pure function of ``(device, n_rounds, seed)``; the full transcript
serializes to a stable byte string so repeated runs can be compared byte
for byte.

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
from typing import Iterator, Sequence

import numpy as np

from diqkd_lab.architectures import (
    ALICE_ANGLES,
    BOB_ANGLES,
    CHSH_TERMS,
    KEY_SETTINGS,
    RunResult,
    devetak_winter_rate,
)
from diqkd_lab.photonics import NO_CLICK, OUTCOME_CODES
from diqkd_lab.qstate import _UNIT, _UNIT_OPEN_ABOVE, _integer, _real

__all__ = [
    "MAX_ROUNDS",
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
    "transcript_records",
    "parse_transcript",
]

#: Most rounds a session simulates: sifting lists the heralded rounds'
#: positions, and draws its sample as a permutation of them, in 8-byte
#: arrays of up to ``n_rounds`` entries, and numpy sizes no array of more
#: than ``np.iinfo(np.intp).max`` bytes.
MAX_ROUNDS = np.iinfo(np.intp).max // 8

#: Rounds drawn and sampled at a time by ``simulate_rounds``.
_ROUND_CHUNK = 65_536

#: Sifting aborts when fewer raw key rounds than this remain.
_MIN_RAW_ROUNDS = 16

#: Joint confidence level of the estimation radii.
_CONFIDENCE = 1.0 - 1e-6

#: Bits removed on top of the leakage during privacy amplification.
_SECURITY_MARGIN = 64

_VERIFY_DIGEST_BITS = 64

#: Equal slices of [0, 1) in the outcome-sampling guide table; a power of two,
#: so that scaling a uniform by it is exact.
_BUCKETS = 1024

#: Shape of a device table: the link's setting layout, then the click outcomes.
_DEVICE_SHAPE = (len(ALICE_ANGLES), len(BOB_ANGLES), len(OUTCOME_CODES), len(OUTCOME_CODES))


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

    A round's index is its position in the arrays.  ``simulate_rounds``
    fills int8 settings and outcomes and bool herald flags, 5 bytes a
    round, and needs only one chunk of 8-byte draws more while it samples
    them; ``sift`` accepts settings and outcomes of any integer dtype.

    Attributes:
        x: Alice's settings (0 or 1).
        y: Bob's settings (0, 1 or 2); ``KEY_SETTINGS`` is the key basis.
        a: Alice's outcome codes, ``photonics.OUTCOME_CODES``.
        b: Bob's outcome codes.
        heralded: Whether the device declared each round usable;
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
        n_heralded: Rounds the device heralded.
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


def _bits_digest(bits: np.ndarray, size: int) -> bytes:
    """A ``size``-byte BLAKE2b digest of a bit string: its packed bits, then its length."""
    payload = _pack_bits(bits) + struct.pack("<I", bits.size)
    return hashlib.blake2b(payload, digest_size=size).digest()


#: A transcript record's header: sequence number, kind and payload length.
_RECORD_HEADER = struct.Struct("<IBI")


def transcript_records(messages: Sequence[ProtocolMessage]) -> Iterator[bytes]:
    """The bytes of :func:`serialize_transcript`, in pieces, without a joined copy.

    Yields each record's header, then its payload object itself, so a writer
    holds no second copy of the transcript.
    """
    for seq, msg in enumerate(messages):
        yield _RECORD_HEADER.pack(seq, int(msg.kind), len(msg.payload))
        yield msg.payload


def serialize_transcript(messages: Sequence[ProtocolMessage]) -> bytes:
    """Encode messages as ``{u32 seq, u8 kind, u32 length, payload}`` records.

    ``seq`` is the message's position.  All integers are little-endian; the
    sender is implicit in the protocol choreography and not serialized.
    """
    return b"".join(transcript_records(messages))


def parse_transcript(data: bytes) -> tuple[tuple[int, MessageKind, bytes], ...]:
    """Decode a serialized transcript into ``(seq, kind, payload)`` triples.

    Raises:
        ValueError: On a truncated record, a record whose ``seq`` is not its
            position, or a record of unknown kind.
    """
    out = []
    offset = 0
    while offset < len(data):
        if offset + _RECORD_HEADER.size > len(data):
            raise ValueError("truncated transcript header")
        seq, kind, length = _RECORD_HEADER.unpack_from(data, offset)
        if seq != len(out):
            raise ValueError(f"transcript record {len(out)} carries sequence number {seq}")
        offset += _RECORD_HEADER.size
        if offset + length > len(data):
            raise ValueError("truncated transcript payload")
        try:
            kind = MessageKind(kind)
        except ValueError:
            raise ValueError(f"transcript record {len(out)} has unknown kind {kind}") from None
        out.append((seq, kind, bytes(data[offset : offset + length])))
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
    device: RunResult,
    n_rounds: int,
    seed: int | np.random.SeedSequence,
) -> Rounds:
    """Sample measurement rounds from a device's conditional statistics.

    Settings are drawn uniformly and independently per party; the herald
    flag is Bernoulli with the device's heralding probability; the
    outcome pair of a heralded round follows the conditional table cell of
    its settings.  Non-heralded rounds record no-clicks.

    The draws come in a fixed order -- all ``x``, all ``y``, all herald
    uniforms, then one uniform ``u`` per round -- as int64 and float64.
    They are drawn ``_ROUND_CHUNK`` rounds at a time, which gives the same
    stream as one call each, and narrowed into int8 columns allocated up
    front, so the sampling holds one chunk of 8-byte draws beyond the
    columns.  A round's joint outcome index is the number of its cell's
    cumulative-probability edges ``<= u``; with the last edge clamped to
    1.0, above every ``u``, that is an outcome.  It is read from a table of
    ``_BUCKETS`` equal slices of ``[0, 1)`` per cell (a guide table: Chen &
    Asau, AIIE Trans. 6, 163 (1974)), and counted directly for the rounds
    whose slice holds an edge.  The index ``a * 4 + b`` is split into the
    outcome columns by a shift and a mask.

    Args:
        device: What the parties measure: ``device.table`` holds
            ``p(a, b | x, y)`` on the 2 x 3 setting layout with outcomes
            ``photonics.OUTCOME_CODES``, ``device.herald_probability`` the
            chance per repetition that a round is heralded.  A
            :class:`~diqkd_lab.architectures.RunResult` is one.
        n_rounds: Number of source repetitions to simulate.
        seed: Seed for the round generator; fixed seed means identical
            rounds on every call.

    Raises:
        ValueError: If ``n_rounds`` is not a positive integer or exceeds
            ``MAX_ROUNDS``, the most whose 8-byte sifting arrays numpy can
            size, the table's shape is not ``_DEVICE_SHAPE`` (2 x 3
            settings, 4 x 4 outcomes), or the herald probability lies
            outside ``[0, 1]``.
    """
    _real("n_rounds", n_rounds, _round_range(_integer("n_rounds", n_rounds)))
    n_x, n_y, _, n_b = shape = device.table.probabilities.shape
    if shape != _DEVICE_SHAPE:
        raise ValueError(f"device table needs shape {_DEVICE_SHAPE}, got {shape}")
    _real("herald_probability", device.herald_probability, _UNIT)
    rng = np.random.default_rng(seed)
    x, y, a, b = (np.empty(n_rounds, dtype=np.int8) for _ in range(4))
    heralded = np.empty(n_rounds, dtype=bool)
    chunks = [slice(start, start + _ROUND_CHUNK) for start in range(0, n_rounds, _ROUND_CHUNK)]
    # Drawn as int64 and narrowed: drawing int8 directly gives other values.
    for column, n_settings in ((x, n_x), (y, n_y)):
        for chunk in chunks:
            column[chunk] = rng.integers(0, n_settings, size=column[chunk].size)
    for chunk in chunks:
        np.less(rng.random(heralded[chunk].size), device.herald_probability, out=heralded[chunk])
    table, edges = _outcome_table(device.table.probabilities)
    # A joint code is a * n_b + b.  The shape check holds n_b to
    # _DEVICE_SHAPE's len(OUTCOME_CODES) = 4, a power of two, so a shift and
    # a mask split the code with no table lookup.
    shift, mask = n_b.bit_length() - 1, n_b - 1
    for chunk in chunks:
        # Setting cell x * n_y + y of each round; non-heralded rounds take the
        # extra cell n_x * n_y, whose outcome is always the no-click pair.
        cell = x[chunk] * np.int8(n_y) + y[chunk]
        cell[~heralded[chunk]] = n_x * n_y
        # Scaling by a power of two is exact: u is k * 2**-53 and each edge a
        # float64, so edge * _BUCKETS <= u * _BUCKETS exactly when edge <= u.
        u = rng.random(cell.size)
        u *= _BUCKETS
        # Flat index floor(u) * n_cells + cell into the slice-major table.
        index = u.astype(np.intp)
        index *= table.shape[1]
        index += cell
        joint = table.reshape(-1)[index]
        unresolved = np.flatnonzero(joint < 0)
        joint[unresolved] = (edges[cell[unresolved]] <= u[unresolved, None]).sum(axis=1)
        np.right_shift(joint, shift, out=a[chunk])
        np.bitwise_and(joint, mask, out=b[chunk])
    return Rounds(x=x, y=y, a=a, b=b, heralded=heralded)


def _round_range(n_rounds: int) -> tuple:
    """The ``qstate._real`` range to check round count ``n_rounds`` against.

    Counts run from 1 to ``MAX_ROUNDS``.  Each count is checked against the
    bound on its own side, so that one no float can hold is refused by it.
    """
    if n_rounds <= 0:
        return ("must be positive", lambda n: n > 0)
    return (f"must be at most {MAX_ROUNDS}", lambda n: n <= MAX_ROUNDS)


def _outcome_table(probabilities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The guide table of joint outcome codes, and the scaled edges it resolves.

    Returns ``(table, edges)``: ``edges[c]`` are setting cell ``c``'s
    cumulative outcome probabilities, last clamped to 1.0, times
    ``_BUCKETS``; ``table[k, c]`` is the number of them ``<= u`` for every
    scaled ``u`` in ``[k, k + 1)``, or -1 where an edge lies inside that
    slice.  A last column serves non-heralded rounds: every entry is the
    no-click pair.
    """
    n_x, n_y, n_a, n_b = probabilities.shape
    edges = np.cumsum(probabilities.reshape(n_x * n_y, n_a * n_b), axis=1)
    edges[:, -1] = 1.0
    edges *= _BUCKETS
    lower = np.arange(_BUCKETS, dtype=np.float64)
    below = (edges[:, :, None] <= lower).sum(axis=1)
    before_next = (edges[:, :, None] < lower + 1.0).sum(axis=1)
    table = np.where(below == before_next, below, -1).T
    no_click = np.full((_BUCKETS, 1), NO_CLICK * n_b + NO_CLICK)
    return np.hstack([table, no_click]).astype(np.int8), edges


# --------------------------------------------------------------------------
# Sifting and estimation
# --------------------------------------------------------------------------


def sift(
    rounds: Rounds, sample_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, EstimationSample]:
    """Split heralded rounds into the raw key and the estimation sample.

    A uniform random fraction of all heralded rounds is published for
    parameter estimation (it therefore covers every setting pair); the raw
    key is what remains of the key-basis rounds ``KEY_SETTINGS``.  Both are
    selected as round positions, and only the selected rounds' outcomes are
    binned.

    Returns:
        ``(alice_raw_bits, bob_raw_bits, sample)``.

    Raises:
        ProtocolAbort: If fewer than ``_MIN_RAW_ROUNDS`` raw rounds remain.
    """
    _real("sample_fraction", sample_fraction, _UNIT_OPEN_ABOVE)
    n_heralded = int(np.count_nonzero(rounds.heralded))
    n_sample = int(round(sample_fraction * n_heralded))
    if n_heralded > 0 and n_sample > 0:
        # Drawn before the heralded positions are listed, so that the
        # positions and the draw's permutation never exist at once.
        chosen = np.sort(rng.choice(n_heralded, size=n_sample, replace=False))
        chosen = np.flatnonzero(rounds.heralded)[chosen]
    else:
        chosen = np.array([], dtype=np.int64)
    raw_mask = rounds.heralded & (rounds.x == KEY_SETTINGS[0]) & (rounds.y == KEY_SETTINGS[1])
    raw_mask[chosen] = False
    raw = np.flatnonzero(raw_mask)
    sample = EstimationSample(
        indices=chosen,
        x=rounds.x[chosen],
        y=rounds.y[chosen],
        alice_bits=_binned_bit(rounds.a[chosen]),
        bob_bits=_binned_bit(rounds.b[chosen]),
    )
    if raw.size < _MIN_RAW_ROUNDS:
        raise ProtocolAbort("sifting:too-few-raw-rounds")
    return _binned_bit(rounds.a[raw]), _binned_bit(rounds.b[raw]), sample


def estimate(sample: EstimationSample) -> Estimate:
    """CHSH and error-rate estimates from the published sample.

    Correlators use the ±1 convention ``(-1)^bit``; the CHSH combination
    sums ``CHSH_TERMS`` and the error rate is read on ``KEY_SETTINGS``.
    Every term is read from one count of agreeing and disagreeing rounds
    per setting pair: a correlator is ``(agree - disagree) / n`` and the
    error rate ``disagree / n``.  Hoeffding radii split the failure
    probability ``1 - _CONFIDENCE`` evenly over the five estimated
    quantities, so all radii hold jointly at that confidence.

    Raises:
        ProtocolAbort: If any needed setting pair is absent from the sample.
    """
    delta = (1.0 - _CONFIDENCE) / 5.0
    log_term = math.log(2.0 / delta)
    pairs = [pair for pair, _ in CHSH_TERMS] + [KEY_SETTINGS]
    n_x = 1 + max(int(sample.x.max(initial=0)), *(sx for sx, _ in pairs))
    n_y = 1 + max(int(sample.y.max(initial=0)), *(sy for _, sy in pairs))
    # counts[x][y] is (disagreeing, agreeing) rounds of setting pair (x, y).
    counts = np.bincount(
        (sample.x.astype(np.intp) * n_y + sample.y) * 2 + (sample.alice_bits == sample.bob_bits),
        minlength=n_x * n_y * 2,
    ).reshape(n_x, n_y, 2).tolist()
    if any(sum(counts[sx][sy]) == 0 for sx, sy in pairs):
        raise ProtocolAbort("estimation:missing-setting-pair")
    s_hat = 0.0
    s_radius = 0.0
    for (sx, sy), sign in CHSH_TERMS:
        disagree, agree = counts[sx][sy]
        n_xy = disagree + agree
        # Equal to the mean of the n_xy products ±1.0: their sum is exact.
        s_hat += sign * ((agree - disagree) / n_xy)
        s_radius += math.sqrt(2.0 * log_term / n_xy)
    disagree, agree = counts[KEY_SETTINGS[0]][KEY_SETTINGS[1]]
    n_key = disagree + agree
    q_hat = disagree / n_key
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


def _parities(bits: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Parity of each run ``bits[bounds[i]:bounds[i + 1]]``, the last running to the end."""
    # uint8 sums wrap modulo 256, which keeps their parity.
    return np.add.reduceat(bits, bounds) & 1


def reconcile(
    alice_bits: np.ndarray,
    bob_bits: np.ndarray,
    q_hat: float,
    *,
    permutation_seed: int | bytes = 0,
) -> ReconcileResult:
    """Two-pass interactive parity reconciliation, Alice as reference.

    Pass 1 splits the strings into blocks of ``ceil(0.73 / q_hat)`` bits;
    pass 2 repeats on a publicly permuted copy with doubled blocks.  Alice
    publishes every block's parity and Bob replies with a mismatch flag per
    block.  Bob then locates one error in every mismatched block by binary
    search, all blocks of the pass a depth at a time: each depth, Alice
    publishes the parity of the left half ``[lo, lo + (hi - lo) // 2)`` of
    every open block in one query, Bob replies with one direction per block
    in one reply, and a block that has shrunk to one bit closes and Bob
    flips that bit.  A pass thus sends at most ``2 + 2 ceil(log2 k)``
    messages for blocks of ``k`` bits.  The blocks of a pass are disjoint,
    so this corrects the same bits as searching them one after another.  A
    64-bit keyed-size hash of Alice's string closes the stage; mismatching
    hashes mark the result unverified (callers abort).

    The disclosed information charged to the key is every parity bit Alice
    publishes plus the verification hash; Bob's replies (block mismatch
    flags and search directions) are deterministic functions of the
    published parities and his own string.

    Args:
        alice_bits: Reference bit string.
        bob_bits: String to correct; same length.
        q_hat: Error-rate estimate in ``[0, 1]``, used only to size blocks.
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
    _real("q_hat", q_hat, _UNIT)
    n = alice_bits.size
    rng = np.random.default_rng(_seed_sequence(permutation_seed))
    transcript = _Transcript()
    leakage = 0
    corrections = 0
    if n > 0:
        permutation = rng.permutation(n)
        k1 = _block_length(q_hat, n)
        for order, k in ((np.arange(n), k1), (permutation, min(n, 2 * k1))):
            alice_pass, bob_pass = alice_bits[order], bob[order]
            lo = np.arange(0, n, k)
            alice_parities = _parities(alice_pass, lo)
            transcript.send("alice", MessageKind.PARITY_QUERY, _pack_bits(alice_parities))
            leakage += lo.size
            mismatch = _parities(bob_pass, lo) != alice_parities
            transcript.send("bob", MessageKind.PARITY_REPLY, _pack_bits(mismatch))
            # Each open block is [lo, hi) of the pass's ordered bits.
            lo, hi = lo[mismatch], np.minimum(lo + k, n)[mismatch]
            while True:
                found = hi - lo == 1
                bob[order[lo[found]]] ^= 1
                corrections += int(np.count_nonzero(found))
                lo, hi = lo[~found], hi[~found]
                if lo.size == 0:
                    break
                mid = lo + (hi - lo) // 2
                # Interleaved bounds lo, mid: the even runs are the left halves.
                bounds = np.column_stack((lo, mid)).ravel()
                alice_left = _parities(alice_pass, bounds)[::2]
                transcript.send("alice", MessageKind.PARITY_QUERY, _pack_bits(alice_left))
                leakage += lo.size
                go_left = _parities(bob_pass, bounds)[::2] != alice_left
                transcript.send("bob", MessageKind.PARITY_REPLY, _pack_bits(go_left))
                lo, hi = np.where(go_left, lo, mid), np.where(go_left, mid, hi)
    digest = _bits_digest(alice_bits, _VERIFY_DIGEST_BITS // 8)
    transcript.send("alice", MessageKind.PARITY_QUERY, digest)
    leakage += _VERIFY_DIGEST_BITS
    verified = digest == _bits_digest(bob, _VERIFY_DIGEST_BITS // 8)
    transcript.send("bob", MessageKind.PARITY_REPLY, b"\x01" if verified else b"\x00")
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
        leakage_bits: Reconciliation disclosure to subtract, an integer.
        rate: Extractable secret fraction (worst-case plug-in key rate).
        seed: Hash seed; 32 announced bytes or an integer.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise ValueError("bits must be a 1-D array")
    if _integer("leakage_bits", leakage_bits) < 0:
        raise ValueError("leakage_bits must be non-negative")
    _real("rate", rate, _UNIT)
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
    device: RunResult,
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
    function of ``(device, n_rounds, seed)``.

    Both parties hash with the announced seed.  Bob runs
    :func:`privacy_amplify` on his own string only when it differs from
    Alice's; after a verified reconciliation it normally equals hers, and
    his key is then a copy of her key, which the same hash would give.

    Args:
        device: What the parties measure, as :func:`simulate_rounds` reads
            it: ``run(scenario)`` for a photonic link.
        n_rounds: Source repetitions to simulate.
        seed: Master seed.
        sample_fraction: Fraction of heralded rounds published for
            estimation.
    """
    dev_ss, alice_ss = np.random.SeedSequence(seed).spawn(2)
    alice_rng = np.random.default_rng(alice_ss)
    rounds = simulate_rounds(device, n_rounds, dev_ss)
    n_heralded = int(np.count_nonzero(rounds.heralded))
    transcript = _Transcript()

    est = None
    n_raw = 0
    leakage = 0
    abort_reason = None
    try:
        try:
            alice_raw, bob_raw, sample = sift(rounds, sample_fraction, alice_rng)
        finally:
            # Announced after sifting, so that the announcements and sifting's
            # full-length arrays never exist at once; nothing reads the rounds
            # after this.
            transcript.send("alice", MessageKind.BASIS_ANNOUNCE, _u32_bytes(rounds.x))
            transcript.send("bob", MessageKind.BASIS_ANNOUNCE, _u32_bytes(rounds.y))
            del rounds
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
        # The same seed hashes an equal string to the same key.
        if np.array_equal(recon.bits, alice_raw):
            bob_key = alice_key.copy()
        else:
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
        n_heralded=n_heralded,
        n_raw=n_raw,
        abort_reason=abort_reason,
        transcript=tuple(transcript),
    )
