"""Two-party authenticated set intersection over committed inputs, and the party core.

Both parties commit to their input set before the session and publish its
tree root; the session runs on those commitments. The run has three phases:

- transform: each party sends the root of its commitment (37 bytes:
  version, set size, digest) to its peer, and nothing else.
- interact: each side compares the received root with the peer's
  pre-announced one and aborts the session on any difference. Only once
  the root has passed does the receiver (always party 1) encode its set
  into an oblivious table P mapping x -> HB(x), and each side ask the
  dealer for its half of a correlation (A, C) / (B, delta) with
  C = A*delta + B. A party whose gate fails thus does no work past its
  own root, and the dealer draws no correlation for its session.
  The receiver sends the masked table A' = A + P in `okvs`'s table format;
  the sender reads it with the receiver's set size from its commitment,
  folds it into B' = B + A'*delta and answers with the digest set
  R = { Ho( Decode(B', y) + delta*HB(y) ) | y in Y }, randomly permuted and
  sent as the bare digests: the receiver knows their count, the sender's set
  size, from its commitment.
- reconstruct: the receiver computes R' = { Ho( Decode(C, x) ) | x in X } and
  outputs the elements whose digest lands in R. The match is exact and in
  whole arrays: it sorts the first 8 bytes of the received digests, looks
  its own up in them, and confirms each candidate on the remaining bytes
  against every received digest with that prefix, so duplicated or
  prefix-sharing digests from a faulty sender cannot enlarge the output.

For a common element the masks cancel exactly: Decode(B', x) + delta*HB(x)
equals Decode(C, x) by linearity of decoding, so matching digests identify
the intersection while everything else stays masked by the correlation.
Digests are truncated to cover the statistical collision budget for the two
set sizes.

Every per-element value derives from d(x): the OKVS rows, HB and, in `psin`,
every PRF. d(x) is the first 16 bytes of the element's salted leaf
SHA256(0x00 || session id || x), which the party's commitment holds, so a
party hashes each element once, when it commits. This is sound: the root
still binds all 32 bytes of every leaf; d(x) is a truncated random-oracle
digest that every party of a session derives alike, since the salt is the
session id; and the OPRF dealer of `psin`, which sees session-salted leaf
prefixes, can test a guessed element against them as it could an unsalted
digest. The two hashes:

- HB(x) = d(x) read as a field element (`hash_to_mask`). Masking needs only
  HB(y) != Decode(P, y) for y outside X, since the sender's value for such
  a y is Decode(C, y) + delta*w with w = Decode(P, y) + HB(y). P's uniform
  fill makes Decode(P, y) uniform, so w = 0 is a 2^-128 event.
- Ho(v) = pi(sigma(v)) XOR sigma(v), truncated (`output_digest`), with pi
  AES-128 under a fixed public key and sigma(v_L || v_R) = (v_L XOR v_R) ||
  v_L (Guo-Katz-Wang-Yu, "Efficient and Secure Multiparty Computation from
  Fixed-Key Block Ciphers", IEEE S&P 2020). The receiver knows u =
  Decode(C, y) and w, so Ho(u + delta*w) must look random to anyone who
  knows u and a nonzero w while delta is secret and uniform. GKWY's
  construction gives this with pi an ideal cipher: delta*w is a uniform
  offset, which a distinguisher must guess to query pi where it matters.
  Each side evaluates Ho in one batched AES pass.

The commitment gate catches a party whose run-time inputs or set size
differ from its commitment, provided that party derives its messages from
those inputs, as these engines do. It does not stop a party that replays its
honest root and runs the intersection on other inputs. Apart from that root,
no message carries a function of a single element that the peer could
evaluate itself (the digests are masked by the correlation), so a peer can
check only a guess of a whole set, against the announced root. Leaves are
salted with the session id, so commitments are per session.

`Endpoint`, the core of every endpoint of a session, the dealer included,
admits, refuses and aborts; `Party` adds the root sent at start and the
gate. A party is built from a `harness.Session`, which has checked the
session's shape and commitments, and from its index: it takes the session
id, the roots and its commitment from the session and validates nothing.
Here each side is owed its peer's root and its dealer material; the receiver
also the digest set, the sender the masked vector.
"""

from __future__ import annotations

import math
import secrets
from typing import Optional

import numpy as np

from . import gf, merkle, okvs, vole
from .errors import ProtocolError
from .transport import DEALER_INDEX, Envelope

MSG_ROOT_PROOFS = 0x01
MSG_MASKED_VECTOR = 0x02
MSG_DIGEST_SET = 0x03
MSG_ABORT = 0x0F

LAMBDA_STAT = 40

_HO_KEY = bytes(range(16))  # pi's fixed public AES key; any fixed key will do


def hash_to_mask(digests: np.ndarray) -> np.ndarray:
    """HB: the element digests, read as the field elements the receiver's table maps them to."""
    return digests


def output_digest(values: np.ndarray, out_bytes: int) -> np.ndarray:
    """Ho: pi(sigma(v)) XOR sigma(v) of each (n, 2) field element; (n, out_bytes) uint8."""
    sigma = np.empty((values.shape[0], 2), dtype=values.dtype)
    sigma[:, 0] = values[:, 1]
    sigma[:, 1] = values[:, 0] ^ values[:, 1]
    return (gf.aes(_HO_KEY, sigma) ^ sigma).view(np.uint8)[:, :out_bytes]


def digest_width(n_x: int, n_y: int) -> int:
    """Bytes needed so collisions stay within the statistical budget."""
    bits = LAMBDA_STAT + max(1, math.ceil(math.log2(n_x * n_y)))
    return math.ceil(bits / 8)


def encode_root_proofs(root: merkle.MerkleRoot) -> bytes:
    """The commitment message: the root of the sender's run-time inputs."""
    return root.to_bytes()


def decode_root_proofs(raw: bytes) -> merkle.MerkleRoot:
    """Parse a commitment message; a bad length or version is a ProtocolError."""
    try:
        return merkle.MerkleRoot.from_bytes(raw)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def check_peer_commitment(committed: merkle.MerkleRoot, sent: merkle.MerkleRoot) -> bool:
    """The gate: the peer's root must equal its announced commitment, digest and set size."""
    return sent == committed


class Endpoint:
    """The core of every endpoint of a session, the parties and the dealer alike.

    An endpoint has a session id, the peers it aborts to, and what it is
    owed, stated once from its role. `_route` drops traffic after an abort
    and takes a received abort, named after its sender, without echoing it.
    It admits any other message only while its (type, sender) has a count
    left, so one for another session, or a misrouted, duplicated or
    unsolicited one, is refused before a handler sees it; each owed message
    reaches its handler once. A handler checks content and raises
    `ProtocolError` on a fault. A refusal or a fault becomes an abort to
    every peer: no `ProtocolError` leaves `handle`. The owed table is the one
    record of progress: an endpoint is done once it has aborted, or has
    started and is owed nothing more.
    """
    ABORT_TYPE: int

    def __init__(self, session_id: bytes, peers: list[int], owed: dict[int, dict[int, int]],
                 rng: Optional[np.random.Generator] = None):
        self.session_id = session_id
        self.peers = peers
        self._owed = owed  # msg type -> sender -> messages still owed; a settled entry is removed
        self.rng = rng if rng is not None else np.random.default_rng(secrets.randbits(128))
        self.started = False
        self.aborted = False
        self.abort_reason: Optional[str] = None
        self.intersection: Optional[set[bytes]] = None  # the output, if this endpoint gets one
        self.phase_ms: dict[str, float] = {}  # ms per step: "start", or a message type ("0x01")

    @property
    def done(self) -> bool:
        return self.aborted or (self.started and not self._owed)

    def _settled(self, *types: int) -> bool:
        """Nothing is owed of any of `types`, or of any type at all if none is named."""
        return not (self._owed.keys() & set(types)) if types else not self._owed

    def awaited(self) -> str:
        """What this endpoint is still owed, e.g. `0x14 from party 3, 0x15 from party 0 x2`."""
        return ", ".join(f"{t:#04x} from party {src}" + (f" x{k}" if k > 1 else "")
                         for t, owed in sorted(self._owed.items()) for src, k in sorted(owed.items()))

    def awaits(self, src: int) -> bool:
        """Whether this endpoint is still owed any message from party `src`."""
        return any(src in owed for owed in self._owed.values())

    def _admit(self, msg_type: int, src: int) -> None:
        """Take one message of `msg_type` from party `src` off `_owed`; one not owed is refused."""
        left = self._owed.get(msg_type, {})
        if src not in left:
            raise ProtocolError(f"unexpected message {msg_type:#04x} from party {src}")
        left[src] -= 1
        if not left[src]:
            del left[src]
            if not left:
                del self._owed[msg_type]

    def _env(self, msg_type: int, payload: bytes) -> Envelope:
        return Envelope(session_id=self.session_id, msg_type=msg_type, payload=payload)

    def _abort(self, reason: str) -> list:
        self.aborted = True
        self.abort_reason = reason
        self.intersection = None
        env = self._env(self.ABORT_TYPE, reason.encode())
        return [(j, env) for j in self.peers]

    def _refusal(self, src: int, exc: ProtocolError) -> str:
        return str(exc)  # the reason to abort with when a message from `src` is at fault

    def _route(self, src: int, env: Envelope, handlers: dict) -> list:
        """Deliver one message: drop, take an abort, admit against `_owed`, then dispatch."""
        if self.aborted:
            return []  # late traffic for a dead session is dropped
        try:
            if env.session_id != self.session_id:
                raise ProtocolError("envelope for a different session")
            if env.msg_type == self.ABORT_TYPE:
                sender = "dealer" if src == DEALER_INDEX else f"party {src}"
                self._abort(f"{sender}: {env.payload.decode(errors='replace') or 'abort'}")
                return []  # a received abort is not echoed
            if not self.started:
                raise ProtocolError("message before transform")
            self._admit(env.msg_type, src)
            return handlers[env.msg_type](src, env.payload)
        except ProtocolError as exc:
            return self._abort(self._refusal(src, exc))


class Party(Endpoint):
    """Party i of a checked session in either engine: its digests and the root gate, and the
    one rule both engines keep: a party's `start` is `_open`, its root, and nothing else;
    everything else it sends or computes waits until every root it is owed has passed the
    gate. An engine routes its root type to `_on_root` and implements `_after_gate`, which
    the gate calls once, when the last owed root has passed, and `_advance`, which the gate
    calls after it. A party takes its root and digests from its commitment unless its tamper
    changes its inputs: then it commits at start to them. A tampered party sends its tamper's root."""
    ROOT_TYPE: int

    def __init__(self, session, i: int, rng: Optional[np.random.Generator] = None):
        peers = [j for j in sorted(session.roots) if j != i]
        super().__init__(session.session_id, peers, {self.ROOT_TYPE: dict.fromkeys(peers, 1)}, rng)
        self.index = i
        self.roots = session.roots  # party index -> announced root
        own = self._commitment = session.commitments[i]
        # None when honest: a tampered party runs on other inputs, or sends another root
        self._tamper = session.tamper_at(i)
        self.inputs = own.elements if self._tamper is None else self._tamper.inputs(own.elements)
        self.digests: Optional[np.ndarray] = None  # d(x) of each own element, once started

    def _open(self) -> list:
        """Take the digests of the own inputs; send their root, or the tamper's, to every peer."""
        if self.started:
            raise ProtocolError("engine already started")
        own = self._commitment
        if self.inputs is not own.elements:
            own = merkle.root(self.inputs, self.session_id)
        self.digests = own.digests
        self.started = True
        sent = own.root if self._tamper is None else self._tamper.root(own.root)
        env = self._env(self.ROOT_TYPE, encode_root_proofs(sent))
        return [(j, env) for j in self.peers]

    def _on_root(self, src: int, payload: bytes) -> list:
        """The gate: the root of each other party must equal the one it announced. Once the
        last one has passed, the party takes its first step past the gate."""
        try:
            ok = check_peer_commitment(self.roots[src], decode_root_proofs(payload))
        except ProtocolError:
            ok = False  # an undecodable root fails the gate like a wrong one
        if not ok:
            raise ProtocolError(f"root from party {src} fails its commitment")
        if not self._settled(self.ROOT_TYPE):
            return []
        return self._after_gate() + self._advance()


class Psi2Engine(Party):
    """Message-driven state machine for one party of a two-party session."""
    ROOT_TYPE = MSG_ROOT_PROOFS
    ABORT_TYPE = MSG_ABORT

    def __init__(self, session, i: int, rng: Optional[np.random.Generator] = None):
        super().__init__(session, i, rng)
        self.receiver = i == 1
        self.peer = 3 - i
        n_own, n_peer = len(self.inputs), self.roots[self.peer].set_size
        self.n_x, self.n_y = (n_own, n_peer) if self.receiver else (n_peer, n_own)
        self.out_bytes = digest_width(self.n_x, self.n_y)
        self._length = okvs.table_length(self.n_x)
        self._owed[vole.MSG_VOLE_MATERIAL] = {DEALER_INDEX: 1}
        if self.receiver:
            self._owed[MSG_DIGEST_SET] = {self.peer: 1}
        else:
            self._owed[MSG_MASKED_VECTOR] = {self.peer: 1}
        self._pending_masked: Optional[bytes] = None
        # receiver state
        self._table: Optional[okvs.OkvsTable] = None
        self._recv_corr: Optional[vole.ReceiverCorrelation] = None
        # sender state
        self._send_corr: Optional[vole.SenderCorrelation] = None
        self.bprime_table: Optional[okvs.OkvsTable] = None  # exposed for white-box checks

    # -- transform -----------------------------------------------------------

    def start(self) -> list:
        """The root; the rest waits for the gate."""
        return self._open()

    # -- interact ------------------------------------------------------------

    def _after_gate(self) -> list:
        """The receiver encodes its table P; then each side asks the dealer for its half."""
        if self.receiver:
            result = okvs.encode_with_retry(self.digests, hash_to_mask(self.digests),
                                            okvs.MAX_ENCODE_ATTEMPTS, self.rng)
            if result is None:
                raise ProtocolError("oblivious table encoding failed")
            self._table, _ = result
        # the request is the bare length: the dealer reads the role from the
        # sender's index and the session from the envelope
        return [(DEALER_INDEX, self._env(vole.MSG_VOLE_REQUEST, self._length.to_bytes(4, "big")))]

    # -- message handling ----------------------------------------------------

    def handle(self, src: int, env: Envelope) -> list:
        return self._route(src, env, {MSG_ROOT_PROOFS: self._on_root,
                                      vole.MSG_VOLE_MATERIAL: self._on_vole_material,
                                      MSG_MASKED_VECTOR: self._on_masked_vector,
                                      MSG_DIGEST_SET: self._on_digest_set})

    def _on_vole_material(self, src: int, payload: bytes) -> list:
        corr = vole.extend(self.receiver, self._length, payload)
        if self.receiver:
            self._recv_corr = corr
        else:
            self._send_corr = corr
        return self._advance()

    def _advance(self) -> list:
        """The receiver masks its table once the root and its material are in;
        the sender answers once the masked vector is in too."""
        if self.receiver and self._settled(MSG_ROOT_PROOFS, vole.MSG_VOLE_MATERIAL):
            masked = okvs.OkvsTable(self._table.row_seed,
                                    self._recv_corr.a_vec ^ self._table.values).to_bytes()
            return [(self.peer, self._env(MSG_MASKED_VECTOR, masked))]
        if not self.receiver and self._settled():
            return self._send_digest_set()
        return []

    def _on_masked_vector(self, src: int, payload: bytes) -> list:
        self._pending_masked = payload
        return self._advance()

    def _send_digest_set(self) -> list:
        try:
            masked = okvs.OkvsTable.from_bytes(self._pending_masked, self.n_x, width=2)
        except ValueError as exc:
            raise ProtocolError(f"malformed masked vector: {exc}") from exc
        corr = self._send_corr
        bprime = corr.b_vec ^ gf.scalar_mul_vec(corr.delta, masked.values)
        self.bprime_table = okvs.OkvsTable(masked.row_seed, bprime)

        decoded = okvs.decode_batch(self.bprime_table, self.digests)
        unmasked = decoded ^ gf.scalar_mul_vec(corr.delta, hash_to_mask(self.digests))
        outputs = output_digest(unmasked, self.out_bytes)
        order = self.rng.permutation(self.n_y)
        return [(self.peer, self._env(MSG_DIGEST_SET, outputs[order].tobytes()))]

    def _on_digest_set(self, src: int, payload: bytes) -> list:
        if not self._settled(MSG_ROOT_PROOFS, vole.MSG_VOLE_MATERIAL):
            raise ProtocolError("digest set out of order")
        width = self.out_bytes
        if len(payload) != self.n_y * width:
            raise ProtocolError(f"digest set of {len(payload)} bytes, the peer commitment's "
                                f"{self.n_y} digests need {self.n_y * width}")
        received = np.frombuffer(payload, dtype=np.uint8).reshape(self.n_y, width)

        c_table = okvs.OkvsTable(self._table.row_seed, self._recv_corr.c_vec)
        own = output_digest(okvs.decode_batch(c_table, self.digests), width)
        self.intersection = {self.inputs[i] for i in np.flatnonzero(_matches(received, own)).tolist()}
        return []


def _prefix_words(digests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, w) digest bytes, w <= 16, zero-padded to 16 bytes and read as two big-endian words."""
    padded = np.zeros((digests.shape[0], 16), dtype=np.uint8)
    padded[:, :digests.shape[1]] = digests
    words = padded.view(">u8").astype(np.uint64)
    return words[:, 0], words[:, 1]


def _matches(received: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Per own digest, whether it equals some received digest; both are (n, w) bytes, w <= 16.

    The received first words are sorted and the own first words, sorted too,
    are looked up in them. An own digest whose first word is found is then
    compared on its second word with every received digest in the run of
    equal first words, so duplicated or prefix-sharing received digests
    still give the exact answer. There are at most n_y candidates per
    distinct own first word, and two own digests share one only by a
    collision of their first 8 bytes.
    """
    r_first, r_second = _prefix_words(received)
    o_first, o_second = _prefix_words(own)
    by_first = np.argsort(r_first)
    r_first, r_second = r_first[by_first], r_second[by_first]
    order = np.argsort(o_first)
    o_first, o_second = o_first[order], o_second[order]

    start = np.searchsorted(r_first, o_first)
    found = np.flatnonzero(r_first[np.minimum(start, r_first.size - 1)] == o_first)
    run = np.searchsorted(r_first, o_first[found], side="right") - start[found]
    # one candidate per (own digest, received digest of its run)
    cand_own = np.repeat(found, run)
    offset = np.arange(cand_own.size) - np.repeat(np.cumsum(run) - run, run)
    cand_received = np.repeat(start[found], run) + offset
    hit = cand_own[r_second[cand_received] == o_second[cand_own]]

    matched = np.zeros(own.shape[0], dtype=bool)
    matched[order[hit]] = True
    return matched
