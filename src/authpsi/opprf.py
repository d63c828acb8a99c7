"""Oblivious programmable PRF from an ideal-OPRF dealer plus an OKVS hint.

The sender programs points {(x_i, y_i)}. With its OPRF key k, it publishes a
hint: an OKVS encoding of {(x_i, y_i XOR OPRF_k(x_i))}. The receiver, who can
only obtain OPRF values for its own queries through the dealer, computes
Decode(hint, q) XOR OPRF_k(q): that recovers y_i on programmed points and an
unpredictable value everywhere else. The hint alone is an oblivious encoding
of masked values and reveals nothing useful.

The OPRF itself is an ideal functionality held by the dealer (each sender
gets its key, the receiver gets evaluations); the interface leaves room for
a real OPRF protocol behind it. The ideal OPRF is the zero-sharing PRF under
the sender's key. The receiver of `psin` (P_n) queries the hints of several
senders at the same points and uses only the XOR of the results, as KMPRT's
multi-party PSI does (Kolesnikov-Matania-Pinkas-Rosulek-Trieu, CCS 2017).
So the dealer answers one request with one vector, the XOR over senders of
their OPRFs at each query (`OprfDealer.evaluate`), and `opprf_query_batch`
XORs every hint's decode into it. P_n learns the XOR of the programmed
values, which is all its test needs, and no sender's value on its own.

The dealer (`harness.DealerService`) is owed one request by each sender and
one by P_n. It hands a sender the key under its own index and P_n the
evaluations, once each; any other request ends the session. It draws the
keys in sender order when it is built, whatever order the requests come in.
What is open: P_n's single request may carry any number of queries, so P_n
can test guessed elements beyond its n_l own; the dealer cannot bound the
count to n_l without a set size, which it does not read.

Points and queries are element digests d(x) as (n, 2) limb arrays (the
salted leaf prefixes a `merkle.Commitment` holds), so nothing here hashes an
element. On the wire a key request is empty, a key response is the bare
16-byte key, an evaluation request is P_n's digests at 16 bytes each and the
response its uint64 values at 8 little-endian bytes each; the dealer sees
session-salted digests of P_n's elements, not the elements. A hint is an
OKVS of 64-bit cells, one per masked value; on the wire it is its
`okvs.OkvsTable` encoding, which the reader parses with the point count n it
knows and width 1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import gf, okvs, zeroshare
from .errors import ProtocolError

KEY_BYTES = 16

MSG_OPRF_DEALER = 0x15


class OprfDealer:
    """Ideal-OPRF functionality: a key per sender, the XOR of their evaluations to the receiver."""

    def __init__(self, senders: Sequence[int], rng: np.random.Generator):
        self._keys = {s: rng.bytes(KEY_BYTES) for s in senders}

    def key(self, sender: int) -> bytes:
        return self._keys[sender]

    def evaluate(self, senders: Sequence[int], digests: np.ndarray) -> np.ndarray:
        """XOR over `senders` of each one's OPRF at every query digest; (n,) uint64."""
        return zeroshare.prf([self.key(s) for s in senders], digests)


def decode_queries(raw: bytes) -> np.ndarray:
    """An evaluation request: one or more 16-byte digests."""
    if not raw or len(raw) % gf.GF_BYTES:
        raise ProtocolError(f"OPRF evaluation request of {len(raw)} bytes is not whole digests")
    return gf.vec_from_bytes(raw)


def opprf_program(points: np.ndarray, ys: np.ndarray, oprf_key: bytes,
                  rng: np.random.Generator) -> okvs.OkvsTable:
    """Sender side: the hint programming each point digest points[i] to the uint64 ys[i]."""
    if points.shape[0] != len(ys):
        raise ValueError("one programmed value per point required")
    values = (ys ^ zeroshare.prf([oprf_key], points))[:, None]
    result = okvs.encode_with_retry(points, values, okvs.MAX_ENCODE_ATTEMPTS, rng)
    if result is None:
        raise ProtocolError("hint encoding failed after retries")
    return result[0]


def opprf_query_batch(hints: Sequence[okvs.OkvsTable], queries: np.ndarray,
                      evaluations: np.ndarray) -> np.ndarray:
    """Receiver side: the XOR of every hint's decode at each query digest with the
    dealer's evaluation of it under all their keys; on a point programmed in
    every hint, the XOR of the programmed values."""
    if queries.shape[0] != len(evaluations):
        raise ValueError("one evaluation per query required")
    out = np.array(evaluations, dtype=zeroshare.VALUE_DTYPE)
    for hint in hints:
        out ^= okvs.decode_batch(hint, queries).ravel()
    return out
