"""Arithmetic in GF(2^128) on vectors of field elements.

A vector of n field elements is an (n, 2) '<u8' limb array, limb 0 holding
bits 0..63; bit 0 is the constant term of a polynomial over GF(2), and the
field is GF(2)[x] modulo x^128 + x^7 + x^2 + x + 1. Addition is XOR of the
arrays. On the wire an element is 16 bytes little-endian, so byte 0 holds
bits 0..7; the cells of an OKVS table travel in it (`okvs` owns the rest of
the table format). The one scalar the protocols multiply by, the VOLE delta,
stays in those 16 wire bytes.

OKVS payloads (128-bit mask values) are field elements as they stand, and
set elements enter as their digests d(x), the salted leaf prefixes that
`merkle.commit` returns. The 64-bit XOR values of the multi-party path (PRF
outputs and per-element shares) are not field elements: `zeroshare` carries
them as uint64 arrays, and an OKVS holding them has cells one word wide.

Every GF(2)-linear map on rows of any width is one kernel, `xor_rows`
(Shoup's byte tables; McGrew-Viega, "The Galois/Counter Mode of Operation",
2004, 4.1): the OKVS dense columns, at the table's cell width, and
`scalar_mul_vec`, which multiplies the fixed delta of the VOLE dealer and
the two-party sender into vectors.
"""

from __future__ import annotations

import numpy as np

GF_BYTES = 16

_LIMB = np.dtype("<u8")


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


def _double(v: int) -> int:
    """v * x: shift left by one, folding a carry out of bit 127 back in as 0x87."""
    v <<= 1
    return v ^ (1 << 128 | 0x87) if v >> 128 else v


def scalar_mul_vec(delta: bytes, vec: np.ndarray) -> np.ndarray:
    """Multiply every element of an (n, 2) limb array by one 16-byte scalar delta.

    delta * v is GF(2)-linear in v: the XOR of the basis products delta * x^i
    that the bits of v select, limb 0 from x^0..x^63 and limb 1 from x^64..x^127.
    """
    if len(delta) != GF_BYTES:
        raise ValueError(f"scalar must be {GF_BYTES} bytes, got {len(delta)}")
    basis = [int.from_bytes(delta, "little")]
    for _ in range(127):
        basis.append(_double(basis[-1]))
    rows = vec_from_bytes(b"".join(b.to_bytes(GF_BYTES, "little") for b in basis))
    return xor_rows(vec[:, 0], rows[:64]) ^ xor_rows(vec[:, 1], rows[64:])
