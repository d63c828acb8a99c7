"""Vector oblivious linear evaluation correlations, dealt by a trusted dealer.

A correlation of length m gives the receiver (A, C) and the sender (B, delta)
with C[i] = A[i] * delta + B[i] over GF(2^128). A and B expand from 32-byte
seeds with a counter-mode generator. The dealer draws both seeds and delta
from its key stream (`gf.KeyStream`), computes C with `gf.scalar_mul_vec`,
and sends each party its bare material: the receiver's seed followed by C,
or the sender's seed followed by delta. Delta stays the 16 little-endian
bytes it travels as, from the dealer's draw to the sender's fold. Dealer
traffic is metered separately from protocol traffic.

A request is the 4-byte big-endian length alone: the dealer reads the role
from the requester's index (party 1 is the receiver) and the session from
the envelope, and the two parties' lengths must agree. A party checks its
material against the role and length it asked for, so material for the
other role, or the receiver's for another length, fails on its length.
`extend` is deterministic; freshness lives entirely in `materials`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import gf, transport
from .errors import ProtocolError

EXPANSION_SEED_BYTES = 32

MSG_VOLE_REQUEST = 0x21
MSG_VOLE_MATERIAL = 0x22

# the longest correlation whose receiver material, the seed and C, fits one message
MAX_LENGTH = (transport.MAX_PAYLOAD - EXPANSION_SEED_BYTES) // gf.GF_BYTES


@dataclass
class ReceiverCorrelation:
    a_vec: np.ndarray  # (m, 2) limbs
    c_vec: np.ndarray


@dataclass
class SenderCorrelation:
    b_vec: np.ndarray
    delta: bytes  # 16 bytes little-endian, as on the wire


def expand_vector(seed: bytes, m: int) -> np.ndarray:
    """m field elements expanded from a 32-byte seed (AES-128-CTR keystream)."""
    if len(seed) != EXPANSION_SEED_BYTES:
        raise ValueError("expansion seed must be 32 bytes")
    return gf.aes(seed[:16], np.zeros((m, 2), dtype=np.uint64), nonce=seed[16:])


def complete_receiver_seed(a_seed: bytes, b_seed: bytes, delta: bytes, length: int) -> bytes:
    """Dealer step: the bytes of C = A * delta + B."""
    return gf.vec_to_bytes(gf.scalar_mul_vec(delta, expand_vector(a_seed, length))
                           ^ expand_vector(b_seed, length))


def materials(length: int, rng: gf.KeyStream) -> tuple[bytes, bytes]:
    """The dealer's one draw (the A seed, the B seed, then delta): both parties' material."""
    a_seed, b_seed = rng.bytes(EXPANSION_SEED_BYTES), rng.bytes(EXPANSION_SEED_BYTES)
    delta = rng.bytes(gf.GF_BYTES)
    c_bytes = complete_receiver_seed(a_seed, b_seed, delta, length)
    return a_seed + c_bytes, b_seed + delta


def extend(receiver: bool, length: int,
           material: bytes) -> Union[ReceiverCorrelation, SenderCorrelation]:
    """A party's half, from the material it got for the role and length it asked for."""
    if len(material) != EXPANSION_SEED_BYTES + (length if receiver else 1) * gf.GF_BYTES:
        raise ProtocolError(f"bad {'receiver' if receiver else 'sender'} material length")
    seed, rest = material[:EXPANSION_SEED_BYTES], material[EXPANSION_SEED_BYTES:]
    if receiver:
        return ReceiverCorrelation(a_vec=expand_vector(seed, length), c_vec=gf.vec_from_bytes(rest))
    return SenderCorrelation(b_vec=expand_vector(seed, length), delta=rest)
