"""Oblivious programmable PRF from an ideal-OPRF dealer plus an OKVS hint.

The sender programs points {(x_i, y_i)}. With an OPRF key k for the session,
it publishes a hint: an OKVS encoding of {(x_i, y_i XOR OPRF_k(x_i))}. The
receiver, who can only obtain OPRF_k(q) for its own queries through the
dealer, computes Decode(hint, q) XOR OPRF_k(q): that recovers y_i on
programmed points and an unpredictable value everywhere else. The hint alone
is an oblivious encoding of masked values and reveals nothing useful.

The OPRF itself is an ideal functionality held by the dealer (sender gets the
key, receiver gets evaluations); the interface leaves room for a real OPRF
protocol behind it. Values are 64-bit XOR strings, zero-embedded into the
OKVS field.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import gf, okvs
from .errors import ProtocolError

KEY_BYTES = 16
SESSION_ID_BYTES = 16

MSG_OPRF_DEALER = 0x15

# payload subtypes for dealer traffic
OPRF_KEY_REQUEST = 0x01
OPRF_KEY_RESPONSE = 0x02
OPRF_EVAL_REQUEST = 0x03
OPRF_EVAL_RESPONSE = 0x04

MAX_ENCODE_ATTEMPTS = 16


@dataclass
class OpprfHint:
    okvs_table: okvs.OkvsTable
    oprf_session: bytes

    def to_bytes(self) -> bytes:
        return self.oprf_session + self.okvs_table.to_bytes()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "OpprfHint":
        if len(raw) < SESSION_ID_BYTES:
            raise ValueError("truncated hint encoding")
        return cls(oprf_session=raw[:SESSION_ID_BYTES],
                   okvs_table=okvs.OkvsTable.from_bytes(raw[SESSION_ID_BYTES:]))


def oprf_eval(key: bytes, q: bytes) -> bytes:
    """The ideal OPRF: keyed PRF with 64-bit output."""
    return hashlib.blake2b(q, key=key, digest_size=gf.XOR_BYTES).digest()


class OprfDealer:
    """Ideal-OPRF functionality: hands the key to senders, evaluations to receivers."""

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self._rng = rng
        self._keys: dict[bytes, bytes] = {}

    def key(self, session: bytes) -> bytes:
        k = self._keys.get(session)
        if k is None:
            k = self._rng.bytes(KEY_BYTES) if self._rng is not None else secrets.token_bytes(KEY_BYTES)
            self._keys[session] = k
        return k

    def evaluate(self, session: bytes, queries: Sequence[bytes]) -> list[bytes]:
        k = self.key(session)
        return [oprf_eval(k, q) for q in queries]


def opprf_program(points: Sequence[tuple[bytes, bytes]], session: bytes, oprf_key: bytes,
                  rng: Optional[np.random.Generator] = None,
                  row_seed: Optional[bytes] = None) -> OpprfHint:
    """Sender side: build the hint for a programmed point set."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise okvs.DuplicateKeyError("programmed points contain duplicate keys")
    masked = [(x, gf.xor_to_field(gf.xor_bytes(y, oprf_eval(oprf_key, x)))) for x, y in points]
    seed = row_seed if row_seed is not None else secrets.token_bytes(okvs.SEED_BYTES)
    params = okvs.OkvsParams.for_size(len(points), seed)
    result = okvs.encode_with_retry(masked, params, MAX_ENCODE_ATTEMPTS, rng=rng)
    if result is None:
        raise ProtocolError("hint encoding failed after retries")
    table, _ = result
    return OpprfHint(okvs_table=table, oprf_session=session)


def opprf_query_batch(hint: OpprfHint, queries: Sequence[bytes], session: bytes,
                      evaluations: Sequence[bytes]) -> list[bytes]:
    """Receiver side: combine the hint with the dealer's OPRF evaluation of each query."""
    if session != hint.oprf_session:
        raise ValueError("hint belongs to a different OPRF session")
    if len(queries) != len(evaluations):
        raise ValueError("one evaluation per query required")
    decoded = okvs.decode_batch(hint.okvs_table, queries)
    low = decoded[:, 0]
    return [gf.xor_bytes(int(low[i]).to_bytes(gf.XOR_BYTES, "little"), evaluations[i])
            for i in range(len(queries))]


# ---------------------------------------------------------------------------
# dealer payload plumbing

def encode_key_request(session: bytes) -> bytes:
    return bytes([OPRF_KEY_REQUEST]) + session


def encode_key_response(session: bytes, key: bytes) -> bytes:
    return bytes([OPRF_KEY_RESPONSE]) + session + key


def encode_eval_request(session: bytes, queries: Sequence[bytes]) -> bytes:
    out = bytearray([OPRF_EVAL_REQUEST])
    out += session
    out += len(queries).to_bytes(4, "big")
    for q in queries:
        out += len(q).to_bytes(4, "big") + q
    return bytes(out)


def encode_eval_response(session: bytes, values: Sequence[bytes]) -> bytes:
    out = bytearray([OPRF_EVAL_RESPONSE])
    out += session
    out += len(values).to_bytes(4, "big")
    for v in values:
        out += v
    return bytes(out)


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
        queries = []
        pos = 4
        for _ in range(count):
            qlen = int.from_bytes(body[pos : pos + 4], "big")
            pos += 4
            queries.append(body[pos : pos + qlen])
            pos += qlen
        if pos != len(body):
            raise ProtocolError("trailing bytes in OPRF query payload")
        return subtype, session, queries
    if subtype == OPRF_EVAL_RESPONSE:
        count = int.from_bytes(body[:4], "big")
        if len(body) != 4 + count * gf.XOR_BYTES:
            raise ProtocolError("bad OPRF evaluation payload length")
        values = [body[4 + i * gf.XOR_BYTES : 4 + (i + 1) * gf.XOR_BYTES] for i in range(count)]
        return subtype, session, values
    raise ProtocolError(f"unknown OPRF dealer subtype {subtype:#x}")
