"""Binary oblivious key-value store: GF(2) rows over GF(2^128) table cells.

A table is a vector of m = m_sparse + m_dense field elements. Each key maps
deterministically to a binary row: omega distinct positions in the sparse
region plus an m_dense-bit mask over the dense region. Decoding XORs the
cells the row selects, which is linear over GF(2^128) although every
coefficient is 0 or 1; this is the shape of the binary OKVS of volePSI
(Raghuraman-Rindal, CCS 2022), and neither side multiplies field elements.
Encoding solves the resulting GF(2) system:

1. peel sparse columns of degree 1, recording (row, pivot column) in order;
2. eliminate the remaining core rows over (their sparse columns + all dense
   columns), each row packed into one integer so that a reduction is an XOR;
3. every position without a pivot keeps a uniform random fill; the core
   pivots are resolved from it, then the peeled rows in reverse, assigning
   each pivot so its equation holds.

Random fill of unconstrained positions is load-bearing: with uniform values
the encoded vector is indistinguishable across key sets, which is what the
protocols rely on when they ship tables to the other side.

Rows are derived from a 16-byte seed: per key, a keyed BLAKE2b digest is
expanded through AES-ECB counter blocks into five blocks. The first eight
64-bit words are candidates for the sparse indices (rejection-sampled until
omega distinct, with further blocks only when they run out); the low m_dense
bits of the ninth word are the dense mask. Both sides of a protocol must use
the same seed, so the seed travels inside the table wire format.

Encoding can fail when a core row's coefficients cancel but its value does
not; that failure is a value (None), not an exception, and
`encode_with_retry` re-randomizes the rows with seeds derived from the base
seed until one attempt succeeds.
"""

from __future__ import annotations

import hashlib
import math
import secrets
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from . import gf

EXPANSION = 1.23          # sparse columns per key-value pair
ROW_WEIGHT = 3            # omega
DENSE_COLUMNS = 30        # dense tail width, one mask bit per column
SEED_BYTES = 16

TABLE_WIRE_VERSION = 0x02

# per-key stream layout: 8 candidate words for the sparse indices, then the
# dense mask word; extension blocks continue the counter when the 8 words do
# not yield omega distinct indices (only plausible at tiny table sizes)
_SPARSE_WORDS = 8
_MASK_WORD = _SPARSE_WORDS
_BASE_BLOCKS = 5          # ceil(9 words * 8 bytes / 16-byte blocks)
_MAX_DENSE = 64           # the mask is read from one 64-bit word

_U64 = np.dtype("<u8")


class DuplicateKeyError(ValueError):
    """Encoding input contained a repeated key."""


@dataclass(frozen=True)
class OkvsParams:
    n: int
    m_sparse: int
    m_dense: int
    omega: int
    row_seed: bytes

    def __post_init__(self):
        if not 2 <= self.omega <= _SPARSE_WORDS:
            raise ValueError(f"row weight must be 2..{_SPARSE_WORDS}")
        if self.m_sparse < max(self.n, self.omega):
            raise ValueError("sparse region too small for the pair count")
        if not 0 <= self.m_dense <= _MAX_DENSE:
            raise ValueError(f"dense region must have 0..{_MAX_DENSE} columns")
        if len(self.row_seed) != SEED_BYTES:
            raise ValueError(f"row seed must be {SEED_BYTES} bytes")

    @property
    def m(self) -> int:
        return self.m_sparse + self.m_dense

    @classmethod
    def for_size(cls, n: int, row_seed: bytes,
                 m_dense: int = DENSE_COLUMNS, omega: int = ROW_WEIGHT) -> "OkvsParams":
        m_sparse = max(math.ceil(EXPANSION * n), omega)
        return cls(n=n, m_sparse=m_sparse, m_dense=m_dense, omega=omega, row_seed=row_seed)


@dataclass
class OkvsTable:
    params: OkvsParams
    values: np.ndarray  # (m, 2) uint64 limbs

    def to_bytes(self) -> bytes:
        p = self.params
        head = bytes([TABLE_WIRE_VERSION])
        head += p.n.to_bytes(4, "big")
        head += p.m_sparse.to_bytes(4, "big")
        head += p.m_dense.to_bytes(2, "big")
        head += bytes([p.omega])
        head += p.row_seed
        return head + gf.vec_to_bytes(self.values)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "OkvsTable":
        if len(raw) < 28:
            raise ValueError("truncated table encoding")
        if raw[0] != TABLE_WIRE_VERSION:
            raise ValueError("unknown table encoding version")
        n = int.from_bytes(raw[1:5], "big")
        m_sparse = int.from_bytes(raw[5:9], "big")
        m_dense = int.from_bytes(raw[9:11], "big")
        omega = raw[11]
        row_seed = raw[12:28]
        params = OkvsParams(n=n, m_sparse=m_sparse, m_dense=m_dense, omega=omega, row_seed=row_seed)
        body = raw[28:]
        if len(body) != params.m * gf.GF_BYTES:
            raise ValueError("bad table body length")
        return cls(params=params, values=gf.vec_from_bytes(body))


def _default_rng() -> np.random.Generator:
    return np.random.default_rng(secrets.randbits(128))


def _key_digests(keys: Sequence[bytes], seed: bytes) -> bytes:
    return b"".join(hashlib.blake2b(k, key=seed, digest_size=16).digest() for k in keys)


def _expand_streams(digests: bytes, seed: bytes, n: int, blocks: int, first: int = 0) -> np.ndarray:
    """AES-ECB counter blocks first..first+blocks-1 of each per-key digest; (n, 2*blocks) words."""
    kd = np.frombuffer(digests, dtype=np.uint8).reshape(n, 16)
    blk = np.repeat(kd[:, None, :], blocks, axis=0).reshape(n, blocks, 16).copy()
    ctr = np.frombuffer(np.arange(first, first + blocks, dtype=">u4").tobytes(),
                        dtype=np.uint8).reshape(blocks, 4)
    blk[:, :, 12:16] ^= ctr[None, :, :]
    enc = Cipher(algorithms.AES(seed), modes.ECB()).encryptor()
    out = enc.update(blk.tobytes()) + enc.finalize()
    return np.frombuffer(out, dtype=_U64).reshape(n, 2 * blocks)


def _pick_indices(candidates: list[int], digest16: bytes, params: OkvsParams) -> list[int]:
    """The first omega distinct candidates, sorted; draws extension blocks when they run out."""
    chosen: list[int] = []
    block = _BASE_BLOCKS
    while True:
        for c in candidates:
            if c not in chosen:
                chosen.append(c)
                if len(chosen) == params.omega:
                    return sorted(chosen)
        words = _expand_streams(digest16, params.row_seed, 1, 1, first=block)[0]
        candidates = [w % params.m_sparse for w in words.tolist()]
        block += 1


def row_batch(keys: Sequence[bytes], params: OkvsParams) -> tuple[np.ndarray, np.ndarray]:
    """The rows of many keys: (n, omega) sorted sparse indices and (n,) uint64 dense masks."""
    n = len(keys)
    digests = _key_digests(keys, params.row_seed)
    words = _expand_streams(digests, params.row_seed, n, _BASE_BLOCKS)
    cands = words[:, :_SPARSE_WORDS] % np.uint64(params.m_sparse)
    # when the first omega candidates are distinct they are the row; only
    # the rare clashing keys take the rejection loop
    idx = np.sort(cands[:, :params.omega].astype(np.int64), axis=1)
    for i in np.flatnonzero((idx[:, 1:] == idx[:, :-1]).any(axis=1)):
        idx[i] = _pick_indices(cands[i].tolist(), digests[16 * i : 16 * i + 16], params)
    masks = words[:, _MASK_WORD] & np.uint64((1 << params.m_dense) - 1)
    return idx, masks


def _dense_xor(masks: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Per row, the XOR of the dense cells its mask selects; (n, 2) limbs."""
    acc = np.zeros((masks.shape[0], 2), dtype=_U64)
    for j in range(cells.shape[0]):
        bit = (masks >> np.uint64(j)) & np.uint64(1)
        acc ^= bit[:, None] * cells[j]
    return acc


def encode(pairs: Sequence[tuple[bytes, int]], params: OkvsParams,
           rng: Optional[np.random.Generator] = None) -> Optional[OkvsTable]:
    """Encode key-value pairs; returns None when the system cannot be solved."""
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        raise DuplicateKeyError("encoding input contains duplicate keys")
    if len(pairs) != params.n:
        raise ValueError(f"params sized for n={params.n}, got {len(pairs)} pairs")
    rng = rng if rng is not None else _default_rng()
    n = len(pairs)
    rhs = [v & gf.MASK128 for _, v in pairs]

    idx, masks = row_batch(keys, params)
    sparse = idx.tolist()

    # peel degree-1 sparse columns
    col_rows: list[list[int]] = [[] for _ in range(params.m_sparse)]
    for r, trip in enumerate(sparse):
        for c in trip:
            col_rows[c].append(r)
    degree = [len(rows) for rows in col_rows]
    alive = [True] * n
    stack = [c for c, d in enumerate(degree) if d == 1]
    peeled: list[tuple[int, int]] = []
    while stack:
        c = stack.pop()
        if degree[c] != 1:
            continue
        r = next(rr for rr in col_rows[c] if alive[rr])
        peeled.append((r, c))
        alive[r] = False
        for c2 in sparse[r]:
            degree[c2] -= 1
            if degree[c2] == 1:
                stack.append(c2)

    # uniform fill of every position; the solves overwrite the pivots
    fill = rng.bytes(params.m * gf.GF_BYTES)
    values = [int.from_bytes(fill[i : i + gf.GF_BYTES], "little")
              for i in range(0, len(fill), gf.GF_BYTES)]

    core = [r for r in range(n) if alive[r]]
    if not _solve_core(core, sparse, masks.tolist(), rhs, params, values):
        return None

    dense = gf.vec_from_ints(values[params.m_sparse:])
    contrib = _dense_xor(masks, dense)
    for r, c in reversed(peeled):
        acc = rhs[r] ^ gf.vec_get(contrib, r)
        for c2 in sparse[r]:
            if c2 != c:
                acc ^= values[c2]
        values[c] = acc

    return OkvsTable(params=params, values=gf.vec_from_ints(values))


def _solve_core(core: list[int], sparse: list[list[int]], masks: list[int], rhs: list[int],
                params: OkvsParams, values: list[int]) -> bool:
    """GF(2) elimination of the unpeeled rows; writes their pivots into `values`.

    Each row rides in one packed integer: a bit per sparse column the core
    touches, then the m_dense mask bits, then the right-hand side, so
    reducing a row against a pivot is one XOR. A row whose coefficients
    cancel is redundant when its right-hand side cancels too and makes the
    system unsolvable (False) otherwise. Near the peeling threshold the core
    can hold a sizable fraction of all rows, which is why this path works on
    whole rows rather than on single coefficients.
    """
    core_cols = sorted({c for r in core for c in sparse[r]})
    col_pos = {c: i for i, c in enumerate(core_cols)}
    s = len(core_cols)
    rhs_shift = s + params.m_dense
    coef_region = (1 << rhs_shift) - 1
    cells = core_cols + list(range(params.m_sparse, params.m))

    # lowest-set-bit pivoting: a settled pivot row has its pivot as lowest
    # bit, so every other coefficient bit it carries refers to a higher position
    pivot_row: dict[int, int] = {}
    for r in core:
        row = (rhs[r] << rhs_shift) | (masks[r] << s)
        for c in sparse[r]:
            row |= 1 << col_pos[c]
        while True:
            coef = row & coef_region
            if not coef:
                if row:
                    return False
                break
            p = (coef & -coef).bit_length() - 1
            other = pivot_row.get(p)
            if other is None:
                pivot_row[p] = row
                break
            row ^= other

    # highest pivot first: every other position of a row is then resolved,
    # either a pivot already assigned or a free position keeping its fill
    for p in sorted(pivot_row, reverse=True):
        row = pivot_row[p]
        acc = row >> rhs_shift
        coef = row & coef_region & ~(1 << p)
        while coef:
            q = (coef & -coef).bit_length() - 1
            acc ^= values[cells[q]]
            coef &= coef - 1
        values[cells[p]] = acc
    return True


def decode_batch(table: OkvsTable, keys: Sequence[bytes]) -> np.ndarray:
    """The XOR of the cells each key's row selects, (n, 2) limbs; defined for any key."""
    idx, masks = row_batch(keys, table.params)
    acc = np.bitwise_xor.reduce(table.values[idx], axis=1)
    return acc ^ _dense_xor(masks, table.values[table.params.m_sparse:])


def derived_seed(base_seed: bytes, attempt: int) -> bytes:
    """Row seed for a retry attempt; attempt 1 is the base seed itself."""
    if attempt == 1:
        return base_seed
    return hashlib.sha256(base_seed + attempt.to_bytes(4, "big")).digest()[:SEED_BYTES]


def encode_with_retry(pairs: Sequence[tuple[bytes, int]], base_params: OkvsParams,
                      max_attempts: int,
                      rng: Optional[np.random.Generator] = None
                      ) -> Optional[tuple[OkvsTable, int]]:
    """Encode, re-randomizing rows with derived seeds until success.

    The returned table carries the seed that actually succeeded; ship the
    table (not the base params) so the decoder derives identical rows.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    for attempt in range(1, max_attempts + 1):
        params = replace(base_params, row_seed=derived_seed(base_params.row_seed, attempt))
        table = encode(pairs, params, rng=rng)
        if table is not None:
            return table, attempt
    return None
