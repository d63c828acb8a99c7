"""Two-party authenticated set intersection over committed inputs, and the party core.

Both parties publish a commitment (tree root) to their input set before the
session. The run then has three phases:

- transform: each party computes the root of the inputs it runs on once,
  refuses to start if it differs from its announced commitment, sends that
  root (37 bytes: version, set size, digest) to its peer; the receiver
  (always party 1) also encodes its set into an oblivious table P mapping
  x -> HB(x).
- interact: each side compares the received root with the peer's
  pre-announced one and aborts the session on any difference. Both sides
  then draw a correlation (A, C) / (B, delta) with C = A*delta + B from the
  dealer.
  The receiver sends the masked table A' = A + P in `okvs`'s table format;
  the sender reads it with the receiver's set size from its commitment,
  folds it into B' = B + A'*delta and answers with the digest set
  R = { Ho( Decode(B', y) + delta*HB(y) ) | y in Y }, randomly permuted.
- reconstruct: the receiver computes R' = { Ho( Decode(C, x) ) | x in X } and
  outputs the elements whose digest lands in R.

For a common element the masks cancel exactly: Decode(B', x) + delta*HB(x)
equals Decode(C, x) by linearity of decoding, so matching digests identify
the intersection while everything else stays masked by the correlation.
Digests are truncated to cover the statistical collision budget for the two
set sizes.

Every per-element value derives from d(x): the OKVS rows, HB and, in
`psin`, every PRF. d(x) is the first 16 bytes of the element's salted leaf
SHA256(0x00 || session id || x), which `merkle.commit` returns with the
root, so a party hashes each element once per session. This is sound: the
root still binds all 32 bytes of every leaf; d(x) is a truncated
random-oracle digest that every party of a session derives alike, since the
salt is the session id; and the OPRF dealer of `psin`, which sees
session-salted leaf prefixes, can test a guessed element against them as it
could an unsalted digest. The two hashes:

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

`Party` is the layer both engines share (`psin` builds on it too): the
self-check and the root sent to every other party at start, the gate on
every other party's root, and the abort path. The abort rule has two parts.
Admission: each engine states once, from its role, which messages it is
owed, as a count per (type, sender); `admit`, the one admission rule (the
dealer, `harness.DealerService`, applies it to its requests too), passes a
message only while its (type, sender) has a count left, so a misrouted,
duplicated or unsolicited message, or one for another session, is refused
before any handler sees it. Content: a handler checks what it was given
(lengths, counts, order) and raises `ProtocolError` on a fault. Either way
`_route` turns the error into an abort to every other party with the
error's text as the reason. No `ProtocolError` leaves `handle`; after an
abort, sent or received, further traffic is dropped.
Here each side is owed its peer's root and its dealer material; the
receiver also the digest set, the sender the masked vector.
"""

from __future__ import annotations

import math
import secrets
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from . import gf, merkle, okvs, vole
from .errors import ConfigError, ProtocolError
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
    enc = Cipher(algorithms.AES(_HO_KEY), modes.ECB()).encryptor()
    pi = np.frombuffer(enc.update(sigma.tobytes()) + enc.finalize(), dtype=values.dtype)
    return (pi.reshape(-1, 2) ^ sigma).view(np.uint8)[:, :out_bytes]


def digest_width(n_x: int, n_y: int, lambda_stat: int = LAMBDA_STAT) -> int:
    """Bytes needed so collisions stay within the statistical budget."""
    bits = lambda_stat + max(1, math.ceil(math.log2(n_x * n_y)))
    return math.ceil(bits / 8)


def okvs_length(n_x: int) -> int:
    """Table length for a receiver set size; both parties derive it identically."""
    return okvs.OkvsParams.for_size(n_x, bytes(okvs.SEED_BYTES)).m


@dataclass
class PartyConfig:
    """One party of a session whose parties are numbered 1..n, n = len(roots)."""
    party_index: int
    input_set: list[bytes]
    session_id: bytes
    roots: dict[int, merkle.MerkleRoot]  # party index -> announced commitment
    # harness knob for adversarial runs: skip the local commitment re-check
    skip_self_check: bool = False

    def __post_init__(self):
        if sorted(self.roots) != list(range(1, self.n + 1)):
            raise ConfigError("a root must be announced for every party")
        if self.party_index not in self.roots:
            raise ConfigError("party index out of range")
        if not self.input_set:
            raise ConfigError("input set must be nonempty")
        if len(set(self.input_set)) != len(self.input_set):
            raise ConfigError("input set must contain distinct elements")
        if len(self.session_id) != 16:
            raise ConfigError("session id must be 16 bytes")

    @property
    def n(self) -> int:
        return len(self.roots)


def encode_root_proofs(root: merkle.MerkleRoot) -> bytes:
    """The commitment message: the root of the sender's run-time inputs."""
    return root.to_bytes()


def decode_root_proofs(raw: bytes) -> merkle.MerkleRoot:
    """Parse a commitment message; a bad length or version is a ProtocolError."""
    try:
        return merkle.MerkleRoot.from_bytes(raw)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def admit(owed: dict[int, dict[int, int]], msg_type: int, src: int) -> None:
    """Take one message of `msg_type` from party `src` off `owed` (msg type ->
    sender -> count still owed; a settled entry is removed). One that is not
    owed is a `ProtocolError`."""
    left = owed.get(msg_type, {})
    if src not in left:
        raise ProtocolError(f"unexpected message {msg_type:#04x} from party {src}")
    left[src] -= 1
    if not left[src]:
        del left[src]
        if not left:
            del owed[msg_type]


def check_peer_commitment(committed: merkle.MerkleRoot, sent: merkle.MerkleRoot) -> bool:
    """The gate: the peer's root must equal its announced commitment, digest and set size."""
    return sent == committed


class Party:
    """State, admission, commitment gate and abort path shared by both engines.

    An engine names its root and abort message types, adds what its role is
    owed to `_owed` in `__init__`, calls `_open` first in `start`, passes
    every message to `_route` with its handler table, and implements
    `_advance`, which the gate calls after each accepted root. `_route`
    hands each owed message to its handler exactly once, so the handler
    whose message settles the last input of a step is the one that takes it.
    """
    ROOT_TYPE: int
    ABORT_TYPE: int

    def __init__(self, config: PartyConfig, rng: Optional[np.random.Generator] = None):
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(secrets.randbits(128))
        self.phase = "fresh"
        self.aborted = False
        self.abort_reason: Optional[str] = None
        self.intersection: Optional[set[bytes]] = None
        self.phase_ms: dict[str, float] = {}
        self.peers = [j for j in sorted(config.roots) if j != config.party_index]
        # msg type -> sender -> messages still owed; a settled entry is removed
        self._owed: dict[int, dict[int, int]] = {self.ROOT_TYPE: dict.fromkeys(self.peers, 1)}
        self.digests: Optional[np.ndarray] = None  # d(x) of each own element, once started

    @property
    def done(self) -> bool:
        return self.phase in ("done", "aborted")

    def _settled(self, *types: int) -> bool:
        """Nothing is owed of any of `types`, or of any type at all if none is named."""
        return not (self._owed.keys() & set(types)) if types else not self._owed

    def awaited(self) -> str:
        """What this party is still owed, e.g. `0x14 from party 3, 0x15 from party 0 x2`."""
        return ", ".join(f"{t:#04x} from party {src}" + (f" x{k}" if k > 1 else "")
                         for t, owed in sorted(self._owed.items()) for src, k in sorted(owed.items()))

    def awaits(self, src: int) -> bool:
        """Whether this party is still owed any message from party `src`."""
        return any(src in owed for owed in self._owed.values())

    def _env(self, msg_type: int, payload: bytes) -> Envelope:
        return Envelope(session_id=self.config.session_id, msg_type=msg_type, payload=payload)

    def _abort(self, reason: str) -> list:
        self.aborted = True
        self.abort_reason = reason
        self.phase = "aborted"
        self.intersection = None
        env = self._env(self.ABORT_TYPE, reason.encode())
        return [(j, env) for j in self.peers]

    def _open(self) -> list:
        """Self-check and digest the own inputs; their root to every other party."""
        if self.phase != "fresh":
            raise ProtocolError("engine already started")
        cfg = self.config
        own_root, self.digests = merkle.commit(cfg.input_set, cfg.session_id)
        if not cfg.skip_self_check and own_root != cfg.roots[cfg.party_index]:
            raise ConfigError("input set does not match the announced commitment")
        self.phase = "transformed"
        env = self._env(self.ROOT_TYPE, encode_root_proofs(own_root))
        return [(j, env) for j in self.peers]

    def _route(self, src: int, env: Envelope, handlers: dict) -> list:
        """Deliver one message: drop, abort, admit against `_owed`, then gate or dispatch."""
        if self.phase == "aborted":
            return []  # late traffic for a dead session is dropped
        try:
            if env.session_id != self.config.session_id:
                raise ProtocolError("envelope for a different session")
            if env.msg_type == self.ABORT_TYPE:
                self._abort(env.payload.decode(errors="replace") or "peer abort")
                return []  # a peer's abort is not echoed
            if self.phase == "fresh":
                raise ProtocolError("message before transform")
            admit(self._owed, env.msg_type, src)
            if env.msg_type == self.ROOT_TYPE:
                return self._on_root(src, env.payload)
            return handlers[env.msg_type](src, env.payload)
        except ProtocolError as exc:
            return self._abort(str(exc))

    def _on_root(self, src: int, payload: bytes) -> list:
        """The gate: the root of each other party must equal the one it announced."""
        t0 = time.perf_counter()
        try:
            ok = check_peer_commitment(self.config.roots[src], decode_root_proofs(payload))
        except ProtocolError:
            ok = False  # an undecodable root fails the gate like a wrong one
        self.phase_ms["verify"] = self.phase_ms.get("verify", 0.0) + (time.perf_counter() - t0) * 1000
        if not ok:
            raise ProtocolError(f"root from party {src} fails its commitment")
        return self._advance()


class Psi2Engine(Party):
    """Message-driven state machine for one party of a two-party session."""
    ROOT_TYPE = MSG_ROOT_PROOFS
    ABORT_TYPE = MSG_ABORT

    def __init__(self, config: PartyConfig, rng: Optional[np.random.Generator] = None):
        if config.n != 2:
            raise ConfigError("a two-party session has parties 1 and 2")
        super().__init__(config, rng)
        self.receiver = config.party_index == 1
        self._role = vole.RECEIVER if self.receiver else vole.SENDER
        self.peer = 3 - config.party_index
        n_own, n_peer = len(config.input_set), config.roots[self.peer].set_size
        self.n_x, self.n_y = (n_own, n_peer) if self.receiver else (n_peer, n_own)
        self.out_bytes = digest_width(self.n_x, self.n_y)
        self._length = okvs_length(self.n_x)
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
        t0 = time.perf_counter()
        out = self._open()
        if self.receiver:
            result = okvs.encode_with_retry(self.digests, hash_to_mask(self.digests),
                                            okvs.MAX_ENCODE_ATTEMPTS, self.rng)
            if result is None:
                return out + self._abort("oblivious table encoding failed")
            self._table, _ = result
        # the request is the bare length: the dealer reads the role from the
        # sender's index and the session from the envelope
        out.append((DEALER_INDEX, self._env(vole.MSG_VOLE_REQUEST, self._length.to_bytes(4, "big"))))
        self.phase_ms["transform"] = (time.perf_counter() - t0) * 1000
        return out

    # -- message handling ----------------------------------------------------

    def handle(self, src: int, env: Envelope) -> list:
        return self._route(src, env, {vole.MSG_VOLE_MATERIAL: self._on_vole_material,
                                      MSG_MASKED_VECTOR: self._on_masked_vector,
                                      MSG_DIGEST_SET: self._on_digest_set})

    def _on_vole_material(self, src: int, payload: bytes) -> list:
        corr = vole.extend(vole.seed_from_material(self.config.session_id, self._role,
                                                   self._length, payload))
        if self.receiver:
            self._recv_corr = corr
        else:
            self._send_corr = corr
        return self._advance()

    def _advance(self) -> list:
        """The receiver masks its table once the root and its material are in;
        the sender answers once the masked vector is in too."""
        if self.receiver and self._settled(MSG_ROOT_PROOFS, vole.MSG_VOLE_MATERIAL):
            t0 = time.perf_counter()
            masked = okvs.OkvsTable(params=self._table.params,
                                    values=self._recv_corr.a_vec ^ self._table.values).to_bytes()
            self.phase = "interacted"
            self.phase_ms["interact"] = (time.perf_counter() - t0) * 1000
            return [(self.peer, self._env(MSG_MASKED_VECTOR, masked))]
        if not self.receiver and self._settled():
            return self._send_digest_set()
        return []

    def _on_masked_vector(self, src: int, payload: bytes) -> list:
        self._pending_masked = payload
        return self._advance()

    def _send_digest_set(self) -> list:
        t0 = time.perf_counter()
        try:
            masked = okvs.OkvsTable.from_bytes(self._pending_masked, self.n_x)
        except ValueError as exc:
            raise ProtocolError(f"malformed masked vector: {exc}") from exc
        corr = self._send_corr
        bprime = corr.b_vec ^ gf.scalar_mul_vec(corr.delta, masked.values)
        self.bprime_table = okvs.OkvsTable(params=masked.params, values=bprime)

        decoded = okvs.decode_batch(self.bprime_table, self.digests)
        unmasked = decoded ^ gf.scalar_mul_vec(corr.delta, hash_to_mask(self.digests))
        outputs = output_digest(unmasked, self.out_bytes)
        order = self.rng.permutation(self.n_y)
        payload_out = self.n_y.to_bytes(4, "big") + outputs[order].tobytes()
        self.phase = "done"
        self.phase_ms["interact"] = (time.perf_counter() - t0) * 1000
        return [(self.peer, self._env(MSG_DIGEST_SET, payload_out))]

    def _on_digest_set(self, src: int, payload: bytes) -> list:
        cfg = self.config
        if self.phase != "interacted":
            raise ProtocolError("digest set out of order")
        t0 = time.perf_counter()
        count = int.from_bytes(payload[:4], "big")
        if count != self.n_y:
            raise ProtocolError("digest set size does not match the peer commitment")
        width = self.out_bytes
        if len(payload) != 4 + count * width:
            raise ProtocolError("bad digest set payload length")
        received = {payload[4 + i * width : 4 + (i + 1) * width] for i in range(count)}

        c_table = okvs.OkvsTable(params=self._table.params, values=self._recv_corr.c_vec)
        own = output_digest(okvs.decode_batch(c_table, self.digests), width).tobytes()
        self.intersection = {x for i, x in enumerate(cfg.input_set)
                             if own[i * width : (i + 1) * width] in received}
        self.phase = "done"
        self.phase_ms["reconstruct"] = (time.perf_counter() - t0) * 1000
        return []
