"""Oblivious programmable PRF from an ideal-OPRF dealer plus an OKVS hint.

The sender programs points {(x_i, y_i)}. With an OPRF key k for the session,
it publishes a hint: an OKVS encoding of {(x_i, y_i XOR OPRF_k(x_i))}. The
receiver, who can only obtain OPRF_k(q) for its own queries through the
dealer, computes Decode(hint, q) XOR OPRF_k(q): that recovers y_i on
programmed points and an unpredictable value everywhere else. The hint alone
is an oblivious encoding of masked values and reveals nothing useful.

The OPRF itself is an ideal functionality held by the dealer (sender gets the
key, receiver gets evaluations); the interface leaves room for a real OPRF
protocol behind it. The ideal OPRF is the zero-sharing PRF under the
session key, so one dealer request is evaluated in one batched AES pass.
The networked dealer (`harness.DealerService`) hands a key only to the
sender whose OPRF session it is. Evaluations are not bounded: any party may
ask for any number of queries under any session, so a party other than P_n,
or P_n beyond its n queries, can test guessed elements against a sender's
programmed points.

Points and queries are element digests d(x) as (n, 2) limb arrays (the
salted leaf prefixes of `merkle.commit`), so nothing here hashes an element,
and an evaluation request carries 16 bytes per query: the dealer sees
session-salted digests of P_n's elements, not the elements. Values are 64-bit XOR values in uint64 arrays:
the sender's masked values go into the low limb of OKVS cells, the receiver
reads the low limb of each decode, and evaluation responses carry 8
little-endian bytes per query. A hint on the wire is its OPRF session id
followed by the OKVS table encoding, and the reader passes the point count
n through to `okvs.OkvsTable.from_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf, okvs, zeroshare
from .errors import ProtocolError

KEY_BYTES = 16
SESSION_ID_BYTES = 16

MSG_OPRF_DEALER = 0x15

# payload subtypes for dealer traffic
OPRF_KEY_REQUEST = 0x01
OPRF_KEY_RESPONSE = 0x02
OPRF_EVAL_REQUEST = 0x03
OPRF_EVAL_RESPONSE = 0x04


@dataclass
class OpprfHint:
    okvs_table: okvs.OkvsTable
    oprf_session: bytes

    def to_bytes(self) -> bytes:
        return self.oprf_session + self.okvs_table.to_bytes()

    @classmethod
    def from_bytes(cls, raw: bytes, n: int) -> "OpprfHint":
        """Parse a hint the reader knows to program n points."""
        if len(raw) < SESSION_ID_BYTES:
            raise ValueError("truncated hint encoding")
        return cls(oprf_session=raw[:SESSION_ID_BYTES],
                   okvs_table=okvs.OkvsTable.from_bytes(raw[SESSION_ID_BYTES:], n))


def oprf_eval(key: bytes, queries: np.ndarray) -> np.ndarray:
    """The ideal OPRF: the zero-sharing PRF under one key over query digests; (n,) uint64."""
    return zeroshare.prf([key], queries)


class OprfDealer:
    """Ideal-OPRF functionality: hands the key to senders, evaluations to receivers."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._keys: dict[bytes, bytes] = {}

    def key(self, session: bytes) -> bytes:
        k = self._keys.get(session)
        if k is None:
            k = self._keys[session] = self._rng.bytes(KEY_BYTES)
        return k

    def evaluate(self, session: bytes, queries: np.ndarray) -> np.ndarray:
        return oprf_eval(self.key(session), queries)


def opprf_program(points: np.ndarray, ys: np.ndarray, session: bytes, oprf_key: bytes,
                  rng: np.random.Generator) -> OpprfHint:
    """Sender side: build the hint programming each point digest points[i] to the uint64 ys[i]."""
    if points.shape[0] != len(ys):
        raise ValueError("one programmed value per point required")
    values = np.zeros((len(ys), 2), dtype=zeroshare.VALUE_DTYPE)
    values[:, 0] = ys ^ oprf_eval(oprf_key, points)
    result = okvs.encode_with_retry(points, values, okvs.MAX_ENCODE_ATTEMPTS, rng)
    if result is None:
        raise ProtocolError("hint encoding failed after retries")
    table, _ = result
    return OpprfHint(okvs_table=table, oprf_session=session)


def opprf_query_batch(hint: OpprfHint, queries: np.ndarray, session: bytes,
                      evaluations: np.ndarray) -> np.ndarray:
    """Receiver side: combine the hint with the dealer's OPRF evaluation of each query digest."""
    if session != hint.oprf_session:
        raise ValueError("hint belongs to a different OPRF session")
    if queries.shape[0] != len(evaluations):
        raise ValueError("one evaluation per query required")
    return okvs.decode_batch(hint.okvs_table, queries)[:, 0] ^ evaluations


# ---------------------------------------------------------------------------
# dealer payload plumbing

def encode_key_request(session: bytes) -> bytes:
    return bytes([OPRF_KEY_REQUEST]) + session


def encode_key_response(session: bytes, key: bytes) -> bytes:
    return bytes([OPRF_KEY_RESPONSE]) + session + key


def encode_eval_request(session: bytes, queries: np.ndarray) -> bytes:
    return (bytes([OPRF_EVAL_REQUEST]) + session + queries.shape[0].to_bytes(4, "big")
            + gf.vec_to_bytes(queries))


def encode_eval_response(session: bytes, values: np.ndarray) -> bytes:
    return (bytes([OPRF_EVAL_RESPONSE]) + session + len(values).to_bytes(4, "big")
            + values.astype(zeroshare.VALUE_DTYPE, copy=False).tobytes())


def decode_dealer_payload(raw: bytes):
    """Parse any OPRF dealer payload into (subtype, session, body)."""
    if len(raw) < 1 + SESSION_ID_BYTES:
        raise ProtocolError("truncated OPRF dealer payload")
    subtype = raw[0]
    session = raw[1 : 1 + SESSION_ID_BYTES]
    body = raw[1 + SESSION_ID_BYTES :]
    if subtype == OPRF_KEY_REQUEST:
        return subtype, session, b""
    if subtype == OPRF_KEY_RESPONSE:
        if len(body) != KEY_BYTES:
            raise ProtocolError("bad OPRF key length")
        return subtype, session, body
    if subtype == OPRF_EVAL_REQUEST:
        count = int.from_bytes(body[:4], "big")
        if len(body) != 4 + count * gf.GF_BYTES:
            raise ProtocolError("OPRF query count does not match the payload")
        return subtype, session, gf.vec_from_bytes(body[4:])
    if subtype == OPRF_EVAL_RESPONSE:
        count = int.from_bytes(body[:4], "big")
        if len(body) != 4 + count * zeroshare.VALUE_DTYPE.itemsize:
            raise ProtocolError("bad OPRF evaluation payload length")
        return subtype, session, np.frombuffer(body, dtype=zeroshare.VALUE_DTYPE, offset=4)
    raise ProtocolError(f"unknown OPRF dealer subtype {subtype:#x}")
