"""Arithmetic in GF(2^128).

Field elements are plain Python ints in [0, 2^128), interpreted as polynomials
over GF(2) with bit 0 as the constant term. Addition is XOR; multiplication is
a carry-less product reduced modulo x^128 + x^7 + x^2 + x + 1. Serialization
is 16 bytes little-endian, so byte 0 holds bits 0..7.

OKVS payloads (128-bit mask values) are field elements as they stand. The
64-bit XOR values of the multi-party path (PRF outputs and per-element
shares) are not field elements: `zeroshare` carries them as uint64 arrays,
and an OKVS holding them uses the low limb of each cell.

The batch helpers at the bottom operate on numpy arrays of shape (n, 2) with
dtype '<u8' (limb 0 = bits 0..63); set elements enter that layout through
`hash_elements`, the one digest per element that every engine derives from.
`scalar_mul_vec` exists because the VOLE expansion and the two-party sender
multiply one fixed scalar (delta) into vectors of thousands of elements. The
OKVS needs no field multiplication: its rows are binary, so decoding is a
XOR of table cells. `mul` is the scalar reference that `scalar_mul_vec` is
tested against.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

GF_BYTES = 16
MASK128 = (1 << 128) - 1

_LIMB = np.dtype("<u8")


def clmul(a: int, b: int) -> int:
    """Carry-less product of two polynomials over GF(2), no reduction."""
    r = 0
    while a:
        r ^= b * (a & -a)  # a & -a isolates the lowest set bit, so this is b << k
        a &= a - 1
    return r


def reduce(v: int) -> int:
    """Reduce a polynomial of any degree modulo the fixed 128-bit polynomial."""
    while v >> 128:
        hi = v >> 128
        v = (v & MASK128) ^ hi ^ (hi << 1) ^ (hi << 2) ^ (hi << 7)
    return v


def mul(a: int, b: int) -> int:
    """Field multiplication."""
    return reduce(clmul(a, b))


def to_bytes(a: int) -> bytes:
    """Serialize a field element as 16 bytes little-endian."""
    return a.to_bytes(GF_BYTES, "little")


def from_bytes(raw: bytes) -> int:
    """Parse a 16-byte little-endian field element."""
    if len(raw) != GF_BYTES:
        raise ValueError(f"field element must be {GF_BYTES} bytes, got {len(raw)}")
    return int.from_bytes(raw, "little")


# ---------------------------------------------------------------------------
# batch operations on (n, 2) uint64 limb arrays

def hash_elements(xs: Sequence[bytes]) -> np.ndarray:
    """d(x) = BLAKE2b-16(x) of each element, as an (n, 2) limb array."""
    raw = b"".join(hashlib.blake2b(x, digest_size=GF_BYTES).digest() for x in xs)
    return np.frombuffer(raw, dtype=_LIMB).reshape(-1, 2)


def vec_from_ints(values) -> np.ndarray:
    """Build an (n, 2) limb array from a sequence of field elements."""
    return vec_from_bytes(b"".join(v.to_bytes(GF_BYTES, "little") for v in values))


def vec_get(arr: np.ndarray, i: int) -> int:
    """Read one element of a limb array as an int."""
    return int(arr[i, 0]) | (int(arr[i, 1]) << 64)


def vec_to_bytes(arr: np.ndarray) -> bytes:
    """Serialize a limb array as concatenated 16-byte little-endian elements."""
    return np.ascontiguousarray(arr, dtype=_LIMB).tobytes()


def vec_from_bytes(raw: bytes) -> np.ndarray:
    """Parse concatenated 16-byte little-endian elements into a limb array."""
    if len(raw) % GF_BYTES:
        raise ValueError("vector byte length is not a multiple of 16")
    return np.frombuffer(raw, dtype=_LIMB).reshape(-1, 2).copy()


def _reduce_lanes(lanes: np.ndarray) -> np.ndarray:
    """Reduce (n, 4) 256-bit lanes to (n, 2) field elements, vectorized."""
    n = lanes.shape[0]
    l0 = lanes[:, 0].copy()
    l1 = lanes[:, 1].copy()
    h0 = lanes[:, 2]
    h1 = lanes[:, 3]
    # fold H * x^128 = H * (x^7 + x^2 + x + 1); the product is at most 135 bits
    m0 = h0.copy()
    m1 = h1.copy()
    m2 = np.zeros(n, dtype=_LIMB)
    for k in (1, 2, 7):
        kk = np.uint64(k)
        rr = np.uint64(64 - k)
        m0 ^= h0 << kk
        m1 ^= (h1 << kk) | (h0 >> rr)
        m2 ^= h1 >> rr
    l0 ^= m0
    l1 ^= m1
    # the at-most-7-bit overflow folds once more without further carries
    l0 ^= m2 ^ (m2 << np.uint64(1)) ^ (m2 << np.uint64(2)) ^ (m2 << np.uint64(7))
    out = np.empty((n, 2), dtype=_LIMB)
    out[:, 0] = l0
    out[:, 1] = l1
    return out


def scalar_mul_vec(scalar: int, vec: np.ndarray) -> np.ndarray:
    """Multiply every element of an (n, 2) limb array by one field scalar.

    Packs the vector into a single big integer with 256-bit lanes; XOR of
    shifted copies then performs all n carry-less multiplications at once
    (shifts never cross a lane because each product fits in 255 bits).
    """
    n = vec.shape[0]
    scalar &= MASK128
    if n == 0 or scalar == 0:
        return np.zeros((n, 2), dtype=_LIMB)
    lanes = np.zeros((n, 4), dtype=_LIMB)
    lanes[:, 0] = vec[:, 0]
    lanes[:, 1] = vec[:, 1]
    packed = int.from_bytes(lanes.tobytes(), "little")
    acc = 0
    s = scalar
    while s:
        k = (s & -s).bit_length() - 1
        acc ^= packed << k
        s &= s - 1
    buf = acc.to_bytes(n * 32 + 32, "little")[: n * 32]
    prod = np.frombuffer(buf, dtype=_LIMB).reshape(n, 4)
    return _reduce_lanes(prod)
