"""Arithmetic in GF(2^128).

Field elements are plain Python ints in [0, 2^128), interpreted as polynomials
over GF(2) with bit 0 as the constant term. Addition is XOR; multiplication is
a carry-less product reduced modulo x^128 + x^7 + x^2 + x + 1. Serialization
is 16 bytes little-endian, so byte 0 holds bits 0..7; the cells of an OKVS
table travel in it (`okvs` owns the rest of the table format).

OKVS payloads (128-bit mask values) are field elements as they stand. The
64-bit XOR values of the multi-party path (PRF outputs and per-element
shares) are not field elements: `zeroshare` carries them as uint64 arrays,
and an OKVS holding them has cells one word wide.

The batch helpers at the bottom operate on (n, 2) '<u8' arrays (limb 0 =
bits 0..63), which set elements enter as their digests d(x), the salted
leaf prefixes that `merkle.commit` returns. Every GF(2)-linear map on rows
of any width is one kernel, `xor_rows` (Shoup's byte tables; McGrew-Viega,
"The Galois/Counter Mode of Operation", 2004, 4.1): the OKVS dense columns,
at the table's cell width, and `scalar_mul_vec`, which multiplies the fixed
delta of the VOLE dealer and the two-party sender into vectors.
`mul` is the scalar reference that `scalar_mul_vec` is tested against.
"""

from __future__ import annotations

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


def xor_rows(masks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per mask, the XOR of the rows its set bits select; (n, w) words for (k, w) rows.

    Bit j of an (n,) uint64 mask selects row j of the (at most 64) rows.
    Each byte of the mask indexes a 256-entry table of the XORs of the (up
    to) eight rows it covers, so a mask costs one lookup per byte.
    """
    acc = np.zeros((masks.shape[0], rows.shape[1]), dtype=_LIMB)
    for low in range(0, rows.shape[0], 8):
        chunk = rows[low : low + 8]
        table = np.zeros((1 << chunk.shape[0], rows.shape[1]), dtype=_LIMB)
        for j, row in enumerate(chunk):
            table[1 << j : 2 << j] = table[: 1 << j] ^ row
        acc ^= table[(masks >> np.uint64(low)) & np.uint64(table.shape[0] - 1)]
    return acc


def scalar_mul_vec(scalar: int, vec: np.ndarray) -> np.ndarray:
    """Multiply every element of an (n, 2) limb array by one field scalar s.

    s * v is GF(2)-linear in v: the XOR of the basis products s * x^i that
    the bits of v select, limb 0 from x^0..x^63 and limb 1 from x^64..x^127.
    """
    basis = [scalar & MASK128]
    for _ in range(127):
        basis.append(reduce(basis[-1] << 1))
    rows = vec_from_ints(basis)
    return xor_rows(vec[:, 0], rows[:64]) ^ xor_rows(vec[:, 1], rows[64:])
