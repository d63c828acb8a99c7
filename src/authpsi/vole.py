"""Vector oblivious linear evaluation correlations behind a dealer backend.

A correlation of length m gives the receiver (A, C) and the sender (B, delta)
with C[i] = A[i] * delta + B[i] over GF(2^128). The dealer samples delta,
expands A and B from the two parties' expansion seeds with a counter-mode
generator, computes C with `gf.scalar_mul_vec` (two calls of the byte-table
kernel `gf.xor_rows`), and hands each side its half. Only C ever crosses
the dealer boundary (seed expansion keeps A and B local), and dealer
traffic is metered separately from protocol traffic.

`extend` is deterministic given a completed seed, so a party can re-derive its
vectors at will; freshness lives entirely in `gen_seed`.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from . import gf
from .errors import ProtocolError


def _rand_bytes(n: int, rng: Optional[np.random.Generator]) -> bytes:
    return rng.bytes(n) if rng is not None else secrets.token_bytes(n)

RECEIVER = "receiver"
SENDER = "sender"

EXPANSION_SEED_BYTES = 32
SESSION_ID_BYTES = 16

MSG_VOLE_REQUEST = 0x21
MSG_VOLE_MATERIAL = 0x22

_ROLE_BYTE = {RECEIVER: 0x00, SENDER: 0x01}
_BYTE_ROLE = {v: k for k, v in _ROLE_BYTE.items()}


@dataclass
class VoleSeed:
    role: str
    session_id: bytes
    expansion_seed: bytes
    length: int
    delta: Optional[int] = None   # sender only
    c_bytes: Optional[bytes] = None  # receiver only, supplied by the dealer

    def __post_init__(self):
        if self.role not in (RECEIVER, SENDER):
            raise ValueError(f"unknown role {self.role!r}")
        if (self.delta is not None) != (self.role == SENDER):
            raise ValueError("delta is present iff the seed is a sender seed")


@dataclass
class ReceiverCorrelation:
    a_vec: np.ndarray  # (m, 2) limbs
    c_vec: np.ndarray


@dataclass
class SenderCorrelation:
    b_vec: np.ndarray
    delta: int


def expand_bytes(seed: bytes, nbytes: int) -> bytes:
    """Counter-mode expansion of a 32-byte seed (AES-128-CTR keystream)."""
    if len(seed) != EXPANSION_SEED_BYTES:
        raise ValueError("expansion seed must be 32 bytes")
    enc = Cipher(algorithms.AES(seed[:16]), modes.CTR(seed[16:])).encryptor()
    return enc.update(bytes(nbytes)) + enc.finalize()


def expand_vector(seed: bytes, m: int) -> np.ndarray:
    return gf.vec_from_bytes(expand_bytes(seed, m * gf.GF_BYTES))


def gen_seed(length: int, session_id: Optional[bytes] = None,
             rng: Optional[np.random.Generator] = None) -> tuple[VoleSeed, VoleSeed]:
    """Fresh paired seeds; delta and expansion seeds are drawn anew per call."""
    if length < 1:
        raise ValueError("correlation length must be positive")
    sid = session_id if session_id is not None else _rand_bytes(SESSION_ID_BYTES, rng)
    if len(sid) != SESSION_ID_BYTES:
        raise ValueError("session id must be 16 bytes")
    recv = VoleSeed(role=RECEIVER, session_id=sid,
                    expansion_seed=_rand_bytes(EXPANSION_SEED_BYTES, rng), length=length)
    send = VoleSeed(role=SENDER, session_id=sid,
                    expansion_seed=_rand_bytes(EXPANSION_SEED_BYTES, rng), length=length,
                    delta=int.from_bytes(_rand_bytes(16, rng), "little"))
    return recv, send


def complete_receiver_seed(recv: VoleSeed, send: VoleSeed) -> VoleSeed:
    """Dealer step: compute C = A * delta + B and attach it to the receiver seed."""
    if recv.session_id != send.session_id or recv.length != send.length:
        raise ValueError("seeds are not a matching pair")
    a = expand_vector(recv.expansion_seed, recv.length)
    b = expand_vector(send.expansion_seed, send.length)
    c = gf.scalar_mul_vec(send.delta, a) ^ b
    recv.c_bytes = gf.vec_to_bytes(c)
    return recv


def extend(seed: VoleSeed) -> Union[ReceiverCorrelation, SenderCorrelation]:
    """Deterministically expand a seed into that party's correlation half."""
    if seed.role == SENDER:
        return SenderCorrelation(b_vec=expand_vector(seed.expansion_seed, seed.length),
                                 delta=seed.delta)
    if seed.c_bytes is None:
        raise ValueError("receiver seed is incomplete: no dealer-provided C vector")
    c = gf.vec_from_bytes(seed.c_bytes)
    if c.shape[0] != seed.length:
        raise ValueError("C vector length does not match the seed length")
    return ReceiverCorrelation(a_vec=expand_vector(seed.expansion_seed, seed.length), c_vec=c)


# ---------------------------------------------------------------------------
# dealer message plumbing (session_id | role byte | length | payload)

def encode_dealer_msg(session_id: bytes, role: str, length: int, payload: bytes = b"") -> bytes:
    return session_id + bytes([_ROLE_BYTE[role]]) + length.to_bytes(4, "big") + payload

def decode_dealer_msg(raw: bytes) -> tuple[bytes, str, int, bytes]:
    if len(raw) < SESSION_ID_BYTES + 5:
        raise ProtocolError("truncated dealer message")
    sid = raw[:SESSION_ID_BYTES]
    role_byte = raw[SESSION_ID_BYTES]
    if role_byte not in _BYTE_ROLE:
        raise ProtocolError("bad dealer role byte")
    length = int.from_bytes(raw[SESSION_ID_BYTES + 1 : SESSION_ID_BYTES + 5], "big")
    return sid, _BYTE_ROLE[role_byte], length, raw[SESSION_ID_BYTES + 5 :]


class VoleDealer:
    """Trusted setup endpoint: one correlation per (session, length), on request.

    Receiver material: expansion seed followed by the C vector.
    Sender material: expansion seed followed by delta.
    Keying by length as well keeps the dealer total even when a misbehaving
    party requests a different length than its peer; the resulting halves
    are then unrelated, which only hurts the misbehaving party.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self._rng = rng
        self._sessions: dict[tuple[bytes, int], tuple[VoleSeed, VoleSeed]] = {}

    def _pair(self, session_id: bytes, length: int) -> tuple[VoleSeed, VoleSeed]:
        pair = self._sessions.get((session_id, length))
        if pair is None:
            recv, send = gen_seed(length, session_id, rng=self._rng)
            pair = (complete_receiver_seed(recv, send), send)
            self._sessions[(session_id, length)] = pair
        return pair

    def request(self, session_id: bytes, role: str, length: int) -> bytes:
        """Serve one party's half; returns the dealer material message payload."""
        recv, send = self._pair(session_id, length)
        if role == RECEIVER:
            material = recv.expansion_seed + recv.c_bytes
        else:
            material = send.expansion_seed + gf.to_bytes(send.delta)
        return encode_dealer_msg(session_id, role, length, material)


def seed_from_material(payload: bytes) -> VoleSeed:
    """Rebuild a party's seed from a dealer material message."""
    sid, role, length, material = decode_dealer_msg(payload)
    if role == SENDER:
        if len(material) != EXPANSION_SEED_BYTES + gf.GF_BYTES:
            raise ProtocolError("bad sender material length")
        return VoleSeed(role=SENDER, session_id=sid, length=length,
                        expansion_seed=material[:EXPANSION_SEED_BYTES],
                        delta=gf.from_bytes(material[EXPANSION_SEED_BYTES:]))
    expected = EXPANSION_SEED_BYTES + length * gf.GF_BYTES
    if len(material) != expected:
        raise ProtocolError("bad receiver material length")
    return VoleSeed(role=RECEIVER, session_id=sid, length=length,
                    expansion_seed=material[:EXPANSION_SEED_BYTES],
                    c_bytes=material[EXPANSION_SEED_BYTES:])
