"""Arithmetic in GF(2^128) on vectors of field elements.

A vector of n field elements is an (n, 2) '<u8' limb array, limb 0 holding
bits 0..63; bit 0 is the constant term of a polynomial over GF(2), and the
field is GF(2)[x] modulo x^128 + x^7 + x^2 + x + 1. Addition is XOR of the
arrays. On the wire an element is 16 bytes little-endian, so byte 0 holds
bits 0..7; the cells of an OKVS table travel in it (`okvs` owns the rest of
the table format). The one scalar the protocols multiply by, the VOLE delta,
stays in those 16 wire bytes.

OKVS payloads (128-bit mask values) are field elements as they stand, and set
elements enter as their digests d(x), the salted leaf prefixes of a
`merkle.Commitment`. The 64-bit XOR values of the multi-party path (PRF
outputs and per-element shares) are not field elements: `zeroshare` carries
them as uint64 arrays, and an OKVS holding them has cells one word wide.

Every GF(2)-linear map on rows of any width is one kernel, `xor_rows`
(Shoup's byte tables; McGrew-Viega, "The Galois/Counter Mode of Operation",
2004, 4.1): the OKVS dense columns, at the table's cell width, and
`scalar_mul_vec`, which multiplies the fixed delta of the VOLE dealer and
the two-party sender into vectors. It reads the masks as little-endian
bytes and gathers each byte column from its table in one `np.take` over
entries of a whole row's bytes.

Every AES call of the library is `aes`, on 16-byte blocks held as '<u8'
words in this layout: AES-128-ECB, or CTR from a nonce, of their wire bytes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

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


def aes(key: bytes, blocks: np.ndarray, nonce: Optional[bytes] = None) -> np.ndarray:
    """AES-128-ECB under `key`, or CTR from `nonce`, of the bytes of '<u8' words; same shape.

    The words are encrypted `update_into` a fresh array, which costs a tenth
    of `update`'s new bytes object. The input goes in as a 1-D byte view:
    cryptography's older backend (pyproject admits cryptography>=41) sizes it
    by `len(data)`, which for an (n, 2) array is n, not 16n bytes.
    """
    data = np.ascontiguousarray(blocks, dtype=_LIMB)
    mode = modes.ECB() if nonce is None else modes.CTR(nonce)
    out = np.empty(data.nbytes + 15, dtype=np.uint8)  # room for one more block
    enc = Cipher(algorithms.AES(key), mode).encryptor()
    enc.update_into(data.reshape(-1).view(np.uint8), out)  # nothing left to finalize
    return out[:data.nbytes].view(_LIMB).reshape(data.shape)


def xor_rows(masks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per mask, the XOR of the rows its set bits select; (n, w) words for (k, w) rows.

    Bit j of an (n,) uint64 mask selects row j of the (at most 64) rows; bits
    at or above the row count k select nothing. The masks are read as '<u8'
    values, so any byte order of the given array gives the same rows, and
    byte j of a mask is its bits 8j..8j+7. Each of the first ceil(k/8) mask
    bytes indexes a 256-entry table of the XORs of the eight rows it covers
    (zero rows past k), and each byte column is one gather of 8w-byte entries.
    """
    n, (k, w) = masks.shape[0], rows.shape
    columns = np.ascontiguousarray(masks, dtype=_LIMB).view(np.uint8).reshape(n, 8).T
    entry = np.dtype((np.void, w * _LIMB.itemsize))
    acc = np.zeros((n, w), dtype=_LIMB)
    for j in range(-(-k // 8)):
        table = np.zeros((256, w), dtype=_LIMB)
        for b in range(8):
            row = rows[8 * j + b] if 8 * j + b < k else 0
            table[1 << b : 2 << b] = table[: 1 << b] ^ row
        acc ^= np.take(table.view(entry).ravel(), columns[j]).view(_LIMB).reshape(n, w)
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
