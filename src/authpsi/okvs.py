"""Binary oblivious key-value store: GF(2) rows over cells of w 64-bit words.

A table of n pairs is m = `table_length(n)` cells of w words: w = 2 for
GF(2^128) elements, w = 1 for 64-bit XOR values. The first m_sparse =
max(ceil(1.23 n), 3) cells are the sparse region, the last m_dense = 30 the
dense region. Each key maps deterministically to a binary row: omega = 3
distinct positions in the sparse region plus an m_dense-bit mask over the
dense region. Decoding XORs the cells the row selects: the sparse ones by
one whole-cell `take` along axis 0 per row position, as back-substitution
does (at 2^14 keys a middle-axis reduce of an (n, omega, w) gather, or 2-D
fancy indexing, costs 10-20x more), and the dense ones through
`gf.xor_rows`, the one byte-table kernel. That is linear
although every coefficient is 0 or 1; this is the shape of
the binary OKVS of volePSI (Raghuraman-Rindal, CCS 2022), and neither side
multiplies field elements. Encoding solves the resulting GF(2) system in
whole-array steps, with no loop over rows (peeling in rounds:
Jiang-Mitzenmacher-Thaler, "Parallel Peeling Algorithms", SPAA 2014):

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

Keys are element digests d(x) (the salted leaf prefixes of `merkle.root`) in
an (n, 2) limb array that each party computes once, when it commits, and
values are (n, w) words. A key's row is read from its stream AES_seed(d XOR
ctr), counters 0 and 1 in the block's last four bytes, four 64-bit words
w_0..w_3 under a 16-byte row seed. The sparse region splits into omega
near-equal parts [lo_j, lo_{j+1}) with lo_j = floor(j * m_sparse / omega),
and position j is lo_j + w_j mod (lo_{j+1} - lo_j): one position per part,
so a row is sorted and distinct by construction and needs no rejection
sampling. At omega = 3 this is the 3-partite hypergraph of BDZ hashing
(Botelho-Pagh-Ziviani, WADS 2007), which peels at the same 1.23 expansion.
The low m_dense bits of w_omega are the dense mask.

A table is its row seed and its cells, and so is its wire format: row seed
(16 bytes) || the cells, 8w bytes each. The reader passes the pair count n
and the width w it already knows; the cell count is `table_length(n)`, so
the table must be exactly 16 + 8w * table_length(n) bytes. No other
parameter is stored or sent: the region split follows from the cell count.

Encoding refuses a repeated key (`DuplicateKeyError`). It sorts limb 0
and compares whole keys, with a `lexsort` on both limbs, only when two
limb-0 values are equal, which random digests almost never are.

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

from . import gf

EXPANSION = 1.23          # sparse columns per key-value pair
ROW_WEIGHT = 3            # omega
DENSE_COLUMNS = 30        # dense tail width, one mask bit per column (at most 64)
SEED_BYTES = 16
MAX_ENCODE_ATTEMPTS = 16  # retry budget of every protocol table

# per-key stream: one 64-bit word per sparse part, then the dense mask word
_STREAM_BLOCKS = 2

_U64 = np.dtype("<u8")


class DuplicateKeyError(ValueError):
    """Encoding input contained a repeated key."""


def table_length(n: int) -> int:
    """The cell count m of a table of n pairs: its sparse region, then its dense one."""
    return max(math.ceil(EXPANSION * n), ROW_WEIGHT) + DENSE_COLUMNS


@dataclass
class OkvsTable:
    row_seed: bytes
    values: np.ndarray  # (m, w) uint64 words

    def to_bytes(self) -> bytes:
        """Row seed || cells."""
        return self.row_seed + np.ascontiguousarray(self.values, dtype=_U64).tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes, n: int, width: int) -> "OkvsTable":
        """Parse a table of n pairs in cells of `width` words; any other length is a ValueError."""
        expected = SEED_BYTES + table_length(n) * width * _U64.itemsize
        if len(raw) != expected:  # a short seed too
            raise ValueError(f"table of {len(raw)} bytes, {n} pairs at width {width} need {expected}")
        return cls(raw[:SEED_BYTES], np.frombuffer(raw[SEED_BYTES:], _U64).reshape(-1, width).copy())


def _expand_streams(digests: np.ndarray, seed: bytes) -> np.ndarray:
    """The AES-ECB counter blocks of each key digest; (n, 2 * _STREAM_BLOCKS) words."""
    keys = np.ascontiguousarray(digests, dtype=_U64)
    blk = np.empty((keys.shape[0], _STREAM_BLOCKS, 2), dtype=_U64)
    for c in range(_STREAM_BLOCKS):
        # counter c big-endian in bytes 12..15: the high half of the block's '<u8' word 1
        blk[:, c, 0] = keys[:, 0]
        blk[:, c, 1] = keys[:, 1] ^ np.uint64(int.from_bytes(c.to_bytes(4, "big"), "little") << 32)
    return gf.aes(seed, blk).reshape(-1, 2 * _STREAM_BLOCKS)


def row_batch(digests: np.ndarray, row_seed: bytes, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of key digests in a table of m cells: (n, omega) sparse indices, one per
    part and so sorted and distinct, and (n,) uint64 dense masks."""
    words = _expand_streams(digests, row_seed)
    lo = (np.arange(ROW_WEIGHT + 1) * (m - DENSE_COLUMNS) // ROW_WEIGHT).astype(np.uint64)
    idx = np.empty((words.shape[0], ROW_WEIGHT), dtype=np.int64)
    for j, (w, size) in enumerate(zip(words.T, np.diff(lo))):
        # w mod s as w - (w // s) s: numpy divides by one scalar s with libdivide, 3x faster
        idx[:, j] = w - w // size * size + lo[j]
    masks = words[:, ROW_WEIGHT] & np.uint64((1 << DENSE_COLUMNS) - 1)
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
            twos = (degree[idx.take(left, axis=0)] == 2).sum(axis=1)
            rows = left[np.argsort(-twos, kind="stable")[: max(1, left.size // 512)]]
            deferred.append(rows)
        alive[rows] = False
        live -= rows.size
        cols = idx.take(rows, axis=0)
        np.subtract.at(degree, cols, 1)
        np.bitwise_xor.at(row_xor, cols, rows[:, None])
        ones = cols[degree[cols] == 1]
    return rounds, deferred, len(rounds) if first_stall is None else first_stall


def encode(digests: np.ndarray, values: np.ndarray, row_seed: bytes,
           rng: np.random.Generator) -> Optional[OkvsTable]:
    """Encode n key digests to (n, w) word values in `table_length(n)` cells under `row_seed`;
    returns None when the system cannot be solved."""
    n = digests.shape[0]
    keys = np.ascontiguousarray(digests, dtype=_U64)
    low = np.sort(keys[:, 0])
    if (low[1:] == low[:-1]).any():
        # a limb-0 value repeats: only whole keys in (limb 0, limb 1) order tell
        whole = keys[np.lexsort((keys[:, 1], keys[:, 0]))]
        if (whole[1:] == whole[:-1]).all(axis=1).any():
            raise DuplicateKeyError("encoding input contains duplicate keys")
    if values.ndim != 2 or values.shape[0] != n:
        raise ValueError(f"{n} keys, values {values.shape}")

    m = table_length(n)
    m_sparse = m - DENSE_COLUMNS
    idx, masks = row_batch(digests, row_seed, m)
    rounds, deferred, first_stall = _peel(idx, m_sparse)

    # uniform fill of every position; the solves overwrite the pivots
    fill = rng.bytes(m * values.shape[1] * _U64.itemsize)
    cells = np.frombuffer(fill, _U64).reshape(m, -1).copy()
    if deferred and not _solve_deferred(idx, masks, values, rounds[first_stall:],
                                        np.concatenate(deferred), cells):
        return None

    # the dense cells are settled now: fold each row's dense part into its value
    rhs = values ^ gf.xor_rows(masks, cells[m_sparse:])
    cell_view = cells.view(np.dtype((np.void, cells.shape[1] * _U64.itemsize))).ravel()
    for rows, pivots in reversed(rounds):
        # no other row of the round holds these pivots, and XORing a whole
        # row into its pivot cancels the pivot's old fill
        solved = (cells.take(pivots, axis=0) ^ rhs.take(rows, axis=0)
                  ^ _xor_cells(cells, idx.take(rows, axis=0)))
        cell_view.put(pivots, solved.astype(_U64, copy=False).view(cell_view.dtype).ravel())
    return OkvsTable(row_seed, cells)


def _solve_deferred(idx: np.ndarray, masks: np.ndarray, values: np.ndarray,
                    rounds: list[tuple[np.ndarray, np.ndarray]], deferred: np.ndarray,
                    cells: np.ndarray) -> bool:
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
    m_sparse = cells.shape[0] - DENSE_COLUMNS
    g = deferred.size
    words = -(-g // 64)
    d = np.arange(g)
    unit = np.zeros((g, words), dtype=_U64)
    unit[d, d // 64] = np.left_shift(np.uint64(1), (d % 64).astype(np.uint64))
    involves = np.zeros((m_sparse, words), dtype=_U64)
    np.bitwise_xor.at(involves, idx[deferred], unit[:, None, :])
    sources, bits = [deferred], [unit]
    for rows, pivots in rounds:
        moved = involves[pivots]
        np.bitwise_xor.at(involves, idx[rows], moved[:, None, :])
        sources.append(rows)
        bits.append(moved)
    sources, bits = np.concatenate(sources), np.concatenate(bits)
    src_values, src_masks = values[sources], masks[sources]

    # one packed integer per equation: free sparse cells, dense mask, the w words of its value
    free = np.flatnonzero(involves.any(axis=1))
    s = free.size
    rhs_shift = s + DENSE_COLUMNS
    coef_region = (1 << rhs_shift) - 1
    system = []
    for e in range(g):
        word, bit = e // 64, np.uint64(e % 64)
        # equation e has absorbed the value and dense mask of every row substituted into it
        used = ((bits[:, word] >> bit) & np.uint64(1)).astype(bool)
        value = np.bitwise_xor.reduce(src_values[used], axis=0).astype(_U64)
        dense = int(np.bitwise_xor.reduce(src_masks[used]))
        sparse = np.packbits(((involves[free, word] >> bit) & np.uint64(1)).astype(np.uint8),
                             bitorder="little")
        system.append(int.from_bytes(sparse.tobytes(), "little") | (dense << s)
                      | (int.from_bytes(value.tobytes(), "little") << rhs_shift))

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
    positions = np.concatenate([free, np.arange(m_sparse, cells.shape[0])])
    u = cells[positions]
    value_bytes = u.shape[1] * _U64.itemsize
    for p in sorted(pivot_row, reverse=True):
        row = pivot_row[p]
        acc = row >> rhs_shift
        others = (row & coef_region & ~(1 << p)).to_bytes(-(-rhs_shift // 8), "little")
        sel = np.unpackbits(np.frombuffer(others, dtype=np.uint8), bitorder="little")
        u[p] = (np.bitwise_xor.reduce(u[sel[:rhs_shift].astype(bool)], axis=0)
                ^ np.frombuffer(acc.to_bytes(value_bytes, "little"), dtype=_U64))
    cells[positions] = u
    return True


def _xor_cells(cells: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per row of `idx`, the XOR of the cells it names: one whole-cell `take` per row position."""
    acc = cells.take(idx[:, 0], axis=0)
    for j in range(1, idx.shape[1]):
        acc ^= cells.take(idx[:, j], axis=0)
    return acc


def decode_batch(table: OkvsTable, digests: np.ndarray) -> np.ndarray:
    """The XOR of the cells each key digest's row selects, (n, w) words; defined for any key."""
    m = table.values.shape[0]
    idx, masks = row_batch(digests, table.row_seed, m)
    return _xor_cells(table.values, idx) ^ gf.xor_rows(masks, table.values[m - DENSE_COLUMNS:])


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
        table = encode(digests, values, rng.bytes(SEED_BYTES), rng=rng)
        if table is not None:
            return table, attempt
    return None
