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

Keys are element digests d(x) (`gf.hash_elements`) in an (n, 2) limb array
that each engine computes once, and values are (n, 2) limbs too. A key's
row is AES_seed(d XOR ctr) for counters 0..4 in the block's last four
bytes, under a 16-byte row seed that travels inside the table wire format:
eight 64-bit words are candidates for the sparse indices (rejection-sampled
until omega distinct, with further counter blocks only when they run out),
and the low m_dense bits of the ninth are the dense mask.

Encoding can fail when a core row's coefficients cancel but its value does
not; that failure is a value (None), not an exception, and
`encode_with_retry` re-randomizes the rows with seeds derived from a base
seed until one attempt succeeds or `MAX_ENCODE_ATTEMPTS`, the budget every
protocol uses, runs out.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from . import gf

EXPANSION = 1.23          # sparse columns per key-value pair
ROW_WEIGHT = 3            # omega
DENSE_COLUMNS = 30        # dense tail width, one mask bit per column
SEED_BYTES = 16
MAX_ENCODE_ATTEMPTS = 16  # retry budget of every protocol table

TABLE_WIRE_VERSION = 0x03
# version, n, m_sparse, m_dense, omega, row seed; the cells follow
_HEADER = struct.Struct(">BIIHB16s")

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
        return (_HEADER.pack(TABLE_WIRE_VERSION, p.n, p.m_sparse, p.m_dense, p.omega, p.row_seed)
                + gf.vec_to_bytes(self.values))

    @classmethod
    def from_bytes(cls, raw: bytes) -> "OkvsTable":
        if len(raw) < _HEADER.size:
            raise ValueError("truncated table encoding")
        version, *fields = _HEADER.unpack_from(raw)
        if version != TABLE_WIRE_VERSION:
            raise ValueError("unknown table encoding version")
        params = OkvsParams(*fields)
        body = raw[_HEADER.size:]
        if len(body) != params.m * gf.GF_BYTES:
            raise ValueError("bad table body length")
        return cls(params=params, values=gf.vec_from_bytes(body))


def _expand_streams(digests: np.ndarray, seed: bytes, blocks: int, first: int = 0) -> np.ndarray:
    """AES-ECB counter blocks first..first+blocks-1 of each key digest; (n, 2*blocks) words."""
    kd = np.ascontiguousarray(digests, dtype=_U64).view(np.uint8).reshape(-1, 16)
    n = kd.shape[0]
    blk = np.repeat(kd[:, None, :], blocks, axis=1)
    ctr = np.frombuffer(np.arange(first, first + blocks, dtype=">u4").tobytes(),
                        dtype=np.uint8).reshape(blocks, 4)
    blk[:, :, 12:16] ^= ctr[None, :, :]
    enc = Cipher(algorithms.AES(seed), modes.ECB()).encryptor()
    out = enc.update(blk.tobytes()) + enc.finalize()
    return np.frombuffer(out, dtype=_U64).reshape(n, 2 * blocks)


def _pick_indices(candidates: list[int], digest: np.ndarray, params: OkvsParams) -> list[int]:
    """The first omega distinct candidates, sorted; draws extension blocks when they run out."""
    chosen: list[int] = []
    block = _BASE_BLOCKS
    while True:
        for c in candidates:
            if c not in chosen:
                chosen.append(c)
                if len(chosen) == params.omega:
                    return sorted(chosen)
        words = _expand_streams(digest, params.row_seed, 1, first=block)[0]
        candidates = [w % params.m_sparse for w in words.tolist()]
        block += 1


def row_batch(digests: np.ndarray, params: OkvsParams) -> tuple[np.ndarray, np.ndarray]:
    """The rows of key digests: (n, omega) sorted sparse indices and (n,) uint64 dense masks."""
    words = _expand_streams(digests, params.row_seed, _BASE_BLOCKS)
    cands = words[:, :_SPARSE_WORDS] % np.uint64(params.m_sparse)
    # when the first omega candidates are distinct they are the row; only
    # the rare clashing keys take the rejection loop
    idx = np.sort(cands[:, :params.omega].astype(np.int64), axis=1)
    for i in np.flatnonzero((idx[:, 1:] == idx[:, :-1]).any(axis=1)):
        idx[i] = _pick_indices(cands[i].tolist(), digests[i : i + 1], params)
    masks = words[:, _MASK_WORD] & np.uint64((1 << params.m_dense) - 1)
    return idx, masks


def _dense_xor(masks: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Per row, the XOR of the dense cells its mask selects; (n, 2) limbs."""
    acc = np.zeros((masks.shape[0], 2), dtype=_U64)
    for j in range(cells.shape[0]):
        bit = (masks >> np.uint64(j)) & np.uint64(1)
        acc ^= bit[:, None] * cells[j]
    return acc


def encode(digests: np.ndarray, values: np.ndarray, params: OkvsParams,
           rng: np.random.Generator) -> Optional[OkvsTable]:
    """Encode key digests to (n, 2) limb values; returns None when the system cannot be solved."""
    n = digests.shape[0]
    if len(np.unique(np.ascontiguousarray(digests, dtype=_U64).view("V16"))) != n:
        raise DuplicateKeyError("encoding input contains duplicate keys")
    if n != params.n or values.shape != (n, 2):
        raise ValueError(f"params sized for n={params.n}, got {n} keys, values {values.shape}")

    idx, masks = row_batch(digests, params)
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
    cells = gf.vec_to_ints(gf.vec_from_bytes(rng.bytes(params.m * gf.GF_BYTES)))

    core = [r for r in range(n) if alive[r]]
    rhs = gf.vec_to_ints(values)
    if not _solve_core(core, sparse, masks.tolist(), rhs, params, cells):
        return None

    # the dense cells are settled now: fold each row's dense part into its value
    dense = gf.vec_from_ints(cells[params.m_sparse:])
    rhs = gf.vec_to_ints(values ^ _dense_xor(masks, dense))
    for r, c in reversed(peeled):
        acc = rhs[r]
        for c2 in sparse[r]:
            if c2 != c:
                acc ^= cells[c2]
        cells[c] = acc

    return OkvsTable(params=params, values=gf.vec_from_ints(cells))


def _solve_core(core: list[int], sparse: list[list[int]], masks: list[int], rhs: list[int],
                params: OkvsParams, cells: list[int]) -> bool:
    """GF(2) elimination of the unpeeled rows; writes their pivots into `cells`.

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
    positions = core_cols + list(range(params.m_sparse, params.m))

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
            acc ^= cells[positions[q]]
            coef &= coef - 1
        cells[positions[p]] = acc
    return True


def decode_batch(table: OkvsTable, digests: np.ndarray) -> np.ndarray:
    """The XOR of the cells each key digest's row selects, (n, 2) limbs; defined for any key."""
    idx, masks = row_batch(digests, table.params)
    acc = np.bitwise_xor.reduce(table.values[idx], axis=1)
    return acc ^ _dense_xor(masks, table.values[table.params.m_sparse:])


def derived_seed(base_seed: bytes, attempt: int) -> bytes:
    """Row seed for a retry attempt; attempt 1 is the base seed itself."""
    if attempt == 1:
        return base_seed
    return hashlib.sha256(base_seed + attempt.to_bytes(4, "big")).digest()[:SEED_BYTES]


def encode_with_retry(digests: np.ndarray, values: np.ndarray, max_attempts: int,
                      rng: np.random.Generator) -> Optional[tuple[OkvsTable, int]]:
    """Encode into a table sized for the keys, re-randomizing rows until success.

    The base row seed is drawn from `rng`, and retries use seeds derived from
    it. The returned table carries the seed that actually succeeded; ship the
    table so the decoder derives identical rows.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    base_seed = rng.bytes(SEED_BYTES)
    for attempt in range(1, max_attempts + 1):
        params = OkvsParams.for_size(digests.shape[0], derived_seed(base_seed, attempt))
        table = encode(digests, values, params, rng=rng)
        if table is not None:
            return table, attempt
    return None
