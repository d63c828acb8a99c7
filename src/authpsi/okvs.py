"""Binary oblivious key-value store: GF(2) rows over GF(2^128) table cells.

A table is a vector of m = m_sparse + m_dense field elements. Each key maps
deterministically to a binary row: omega distinct positions in the sparse
region plus an m_dense-bit mask over the dense region. Decoding XORs the
cells the row selects (the dense ones through `gf.xor_rows`, the one
byte-table kernel), which is linear over GF(2^128) although every
coefficient is 0 or 1; this is the shape of the binary OKVS of volePSI
(Raghuraman-Rindal, CCS 2022), and neither side multiplies field elements.
Encoding solves the resulting GF(2) system in whole-array steps, with no
loop over rows (peeling in rounds: Jiang-Mitzenmacher-Thaler, "Parallel
Peeling Algorithms", SPAA 2014):

1. peel in rounds: each sparse column keeps its degree and the XOR of its
   live rows' ids, so a degree-1 column names its row. A round takes every
   degree-1 column at once, one pivot per row, and rows peeled in the same
   round hold none of each other's pivots;
2. when no column has degree 1, defer a small batch of live rows (one per
   512 live rows, preferring rows with the most degree-2 columns) and peel
   on. Near the peeling threshold this replaces a core of a third or more
   of the rows by a few deferred ones;
3. substitute the pivots peeled after the first stall into the deferred
   rows, which leaves a small system over the dense cells and the free
   sparse cells the substitution reaches; it is solvable exactly when the
   whole system is, and is solved by elimination on packed integers;
4. back-substitute round by round in reverse: a round's pivots are one
   vectorized XOR of the other cells of their rows.

Every position starts from a uniform random fill, and only pivot positions
(of the peel or of the small system) are overwritten. The free positions
thus stay uniform and independent, and the table is uniform over the
solution set: that is load-bearing, since with uniform values the encoded
vector is indistinguishable across key sets, which is what the protocols
rely on when they ship tables to the other side.

Keys are element digests d(x) (the salted leaf prefixes of `merkle.commit`)
in an (n, 2) limb array that each engine computes once, and values are (n, 2)
limbs too. A key's row is read from its stream AES_seed(d XOR ctr), counters
0 and 1 in the block's last four bytes, four 64-bit words w_0..w_3 under a
16-byte row seed. The sparse region splits into omega near-equal parts
[lo_j, lo_{j+1}) with lo_j = floor(j * m_sparse / omega), and position j is
lo_j + w_j mod (lo_{j+1} - lo_j): one position per part, so a row is sorted
and distinct by construction and needs no rejection sampling. At omega = 3
this is the 3-partite hypergraph of BDZ hashing (Botelho-Pagh-Ziviani, WADS
2007), which peels at the same 1.23 expansion. The low m_dense bits of
w_omega are the dense mask.

Wire format of a table: row seed (16 bytes) || cell count (4 bytes,
big-endian) || the cells, 16 bytes each. The reader passes the pair count n
it already knows, and `OkvsTable.from_bytes` derives every parameter from n
and the seed; the cell count and the body length must agree with them.

Encoding can fail when a deferred row's coefficients cancel but its value
does not; that failure is a value (None), not an exception, and
`encode_with_retry` re-randomizes the rows with a fresh seed drawn for each
attempt until one succeeds or `MAX_ENCODE_ATTEMPTS`, the budget every
protocol uses, runs out.
"""

from __future__ import annotations

import math
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

# per-key stream: one 64-bit word per sparse part, then the dense mask word
_STREAM_BLOCKS = 2
_MAX_OMEGA = 2 * _STREAM_BLOCKS - 1
_MAX_DENSE = 64           # the mask is read from one 64-bit word
_COUNT_BYTES = 4

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
        if not 2 <= self.omega <= _MAX_OMEGA:
            raise ValueError(f"row weight must be 2..{_MAX_OMEGA}")
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
        """Row seed || cell count (4 bytes, big-endian) || cells."""
        return (self.params.row_seed + self.values.shape[0].to_bytes(_COUNT_BYTES, "big")
                + gf.vec_to_bytes(self.values))

    @classmethod
    def from_bytes(cls, raw: bytes, n: int) -> "OkvsTable":
        """Parse a table the reader knows to encode n pairs; any other shape is a ValueError."""
        head = SEED_BYTES + _COUNT_BYTES
        if len(raw) < head:
            raise ValueError("truncated table encoding")
        params = OkvsParams.for_size(n, raw[:SEED_BYTES])
        count = int.from_bytes(raw[SEED_BYTES:head], "big")
        if count != params.m:
            raise ValueError(f"table has {count} cells, {n} pairs need {params.m}")
        if len(raw) - head != params.m * gf.GF_BYTES:
            raise ValueError("table body length does not match its cell count")
        return cls(params=params, values=gf.vec_from_bytes(raw[head:]))


def _expand_streams(digests: np.ndarray, seed: bytes) -> np.ndarray:
    """The AES-ECB counter blocks of each key digest; (n, 2 * _STREAM_BLOCKS) words."""
    kd = np.ascontiguousarray(digests, dtype=_U64).view(np.uint8).reshape(-1, 16)
    n = kd.shape[0]
    blk = np.repeat(kd[:, None, :], _STREAM_BLOCKS, axis=1)
    ctr = np.frombuffer(np.arange(_STREAM_BLOCKS, dtype=">u4").tobytes(),
                        dtype=np.uint8).reshape(_STREAM_BLOCKS, 4)
    blk[:, :, 12:16] ^= ctr[None, :, :]
    enc = Cipher(algorithms.AES(seed), modes.ECB()).encryptor()
    out = enc.update(blk.tobytes()) + enc.finalize()
    return np.frombuffer(out, dtype=_U64).reshape(n, 2 * _STREAM_BLOCKS)


def row_batch(digests: np.ndarray, params: OkvsParams) -> tuple[np.ndarray, np.ndarray]:
    """The rows of key digests: (n, omega) sparse indices, one per part and so sorted and
    distinct, and (n,) uint64 dense masks."""
    words = _expand_streams(digests, params.row_seed)
    bounds = np.arange(params.omega + 1) * params.m_sparse // params.omega
    sizes = np.diff(bounds).astype(np.uint64)
    idx = (words[:, :params.omega] % sizes).astype(np.int64) + bounds[:-1]
    masks = words[:, params.omega] & np.uint64((1 << params.m_dense) - 1)
    return idx, masks


def _peel(idx: np.ndarray, m_sparse: int
          ) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[np.ndarray], int]:
    """Peel the rows in rounds, deferring a few rows whenever no column has degree 1.

    Returns the rounds as (rows, pivot columns) pairs in peeling order, the
    deferred batches in order, and the index of the first round after the
    first stall (len(rounds) when peeling never stalled).
    """
    n = idx.shape[0]
    degree = np.bincount(idx.ravel(), minlength=m_sparse)
    # the XOR of the ids of a column's live rows: a degree-1 column names its row
    row_xor = np.zeros(m_sparse, dtype=np.int64)
    np.bitwise_xor.at(row_xor, idx, np.arange(n, dtype=np.int64)[:, None])
    alive = np.ones(n, dtype=bool)
    claim = np.zeros(n, dtype=np.int64)
    live = n
    rounds: list[tuple[np.ndarray, np.ndarray]] = []
    deferred: list[np.ndarray] = []
    first_stall = None
    ones = np.flatnonzero(degree == 1)
    while live:
        if ones.size:
            # one pivot per row: where several entries name a row, keep the
            # one whose position survives in `claim`; rows of one round share
            # no pivot column
            rows = row_xor[ones]
            position = np.arange(rows.size)
            claim[rows] = position
            kept = claim[rows] == position
            rows = rows[kept]
            rounds.append((rows, ones[kept]))
        else:
            if first_stall is None:
                first_stall = len(rounds)
            # removing a row with degree-2 columns leaves them at degree 1
            left = np.flatnonzero(alive)
            twos = (degree[idx[left]] == 2).sum(axis=1)
            rows = left[np.argsort(-twos, kind="stable")[: max(1, left.size // 512)]]
            deferred.append(rows)
        alive[rows] = False
        live -= rows.size
        cols = idx[rows]
        np.subtract.at(degree, cols, 1)
        np.bitwise_xor.at(row_xor, cols, rows[:, None])
        ones = cols[degree[cols] == 1]
    return rounds, deferred, len(rounds) if first_stall is None else first_stall


def encode(digests: np.ndarray, values: np.ndarray, params: OkvsParams,
           rng: np.random.Generator) -> Optional[OkvsTable]:
    """Encode key digests to (n, 2) limb values; returns None when the system cannot be solved."""
    n = digests.shape[0]
    if len(np.unique(np.ascontiguousarray(digests, dtype=_U64).view("V16"))) != n:
        raise DuplicateKeyError("encoding input contains duplicate keys")
    if n != params.n or values.shape != (n, 2):
        raise ValueError(f"params sized for n={params.n}, got {n} keys, values {values.shape}")

    idx, masks = row_batch(digests, params)
    rounds, deferred, first_stall = _peel(idx, params.m_sparse)

    # uniform fill of every position; the solves overwrite the pivots
    cells = gf.vec_from_bytes(rng.bytes(params.m * gf.GF_BYTES))
    if deferred and not _solve_deferred(idx, masks, values, rounds[first_stall:],
                                        np.concatenate(deferred), params, cells):
        return None

    # the dense cells are settled now: fold each row's dense part into its value
    rhs = values ^ gf.xor_rows(masks, cells[params.m_sparse:])
    for rows, pivots in reversed(rounds):
        # no other row of the round holds these pivots, and XORing a whole
        # row into its pivot cancels the pivot's old fill
        cells[pivots] ^= rhs[rows] ^ np.bitwise_xor.reduce(cells[idx[rows]], axis=1)
    return OkvsTable(params=params, values=cells)


def _solve_deferred(idx: np.ndarray, masks: np.ndarray, values: np.ndarray,
                    rounds: list[tuple[np.ndarray, np.ndarray]], deferred: np.ndarray,
                    params: OkvsParams, cells: np.ndarray) -> bool:
    """Solve the deferred rows over the cells they depend on; writes those cells into `cells`.

    `rounds` are the rounds peeled after the first stall; no deferred row
    holds a pivot peeled before it. Substituting a pivot by its row's value
    XOR the row's other cells, in peeling order, leaves each deferred
    equation over the free sparse cells and the dense cells (U). Every sparse
    cell carries one bit per deferred row, set while that row's equation
    involves the cell, and each round moves its pivots' bits onto the other
    cells of their rows at once. The g x |U| system that remains is solvable
    exactly when the whole system is; positions of U without a pivot keep
    their fill.
    """
    g = deferred.size
    words = -(-g // 64)
    d = np.arange(g)
    unit = np.zeros((g, words), dtype=_U64)
    unit[d, d // 64] = np.left_shift(np.uint64(1), (d % 64).astype(np.uint64))
    involves = np.zeros((params.m_sparse, words), dtype=_U64)
    np.bitwise_xor.at(involves, idx[deferred], unit[:, None, :])
    sources, bits = [deferred], [unit]
    for rows, pivots in rounds:
        moved = involves[pivots]
        np.bitwise_xor.at(involves, idx[rows], moved[:, None, :])
        sources.append(rows)
        bits.append(moved)
    sources, bits = np.concatenate(sources), np.concatenate(bits)
    src_values, src_masks = values[sources], masks[sources]

    # one packed integer per equation: free sparse cells, dense mask, right-hand side
    free = np.flatnonzero(involves.any(axis=1))
    s = free.size
    rhs_shift = s + params.m_dense
    coef_region = (1 << rhs_shift) - 1
    system = []
    for e in range(g):
        word, bit = e // 64, np.uint64(e % 64)
        # equation e has absorbed the value and dense mask of every row substituted into it
        used = ((bits[:, word] >> bit) & np.uint64(1)).astype(bool)
        lo, hi = np.bitwise_xor.reduce(src_values[used], axis=0).tolist()
        dense = int(np.bitwise_xor.reduce(src_masks[used]))
        sparse = np.packbits(((involves[free, word] >> bit) & np.uint64(1)).astype(np.uint8),
                             bitorder="little")
        system.append(int.from_bytes(sparse.tobytes(), "little") | (dense << s)
                      | ((lo | (hi << 64)) << rhs_shift))

    # lowest-set-bit pivoting: a settled pivot row has its pivot as lowest
    # bit, so every other coefficient bit it carries refers to a higher position
    pivot_row: dict[int, int] = {}
    for row in system:
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
    positions = np.concatenate([free, np.arange(params.m_sparse, params.m)])
    u = cells[positions]
    for p in sorted(pivot_row, reverse=True):
        row = pivot_row[p]
        acc = row >> rhs_shift
        others = (row & coef_region & ~(1 << p)).to_bytes(-(-rhs_shift // 8), "little")
        sel = np.unpackbits(np.frombuffer(others, dtype=np.uint8), bitorder="little")
        u[p] = (np.bitwise_xor.reduce(u[sel[:rhs_shift].astype(bool)], axis=0)
                ^ gf.vec_from_bytes(gf.to_bytes(acc))[0])
    cells[positions] = u
    return True


def decode_batch(table: OkvsTable, digests: np.ndarray) -> np.ndarray:
    """The XOR of the cells each key digest's row selects, (n, 2) limbs; defined for any key."""
    idx, masks = row_batch(digests, table.params)
    acc = np.bitwise_xor.reduce(table.values[idx], axis=1)
    return acc ^ gf.xor_rows(masks, table.values[table.params.m_sparse:])


def encode_with_retry(digests: np.ndarray, values: np.ndarray, max_attempts: int,
                      rng: np.random.Generator) -> Optional[tuple[OkvsTable, int]]:
    """Encode into a table sized for the keys, re-randomizing rows until success.

    Each attempt draws its row seed from `rng`. The returned table carries
    the seed that actually succeeded; ship the table so the decoder derives
    identical rows.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    for attempt in range(1, max_attempts + 1):
        params = OkvsParams.for_size(digests.shape[0], rng.bytes(SEED_BYTES))
        table = encode(digests, values, params, rng=rng)
        if table is not None:
            return table, attempt
    return None
