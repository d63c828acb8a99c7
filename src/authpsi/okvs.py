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
`gf.xor_rows`, the one byte-table kernel. `decode_rows` is that decode
over rows already expanded, so tables of one row seed and length share one
expansion; `decode_batch` expands a table's rows and decodes. That is linear
although every coefficient is 0 or 1; this is the shape of
the binary OKVS of volePSI (Raghuraman-Rindal, CCS 2022), and neither side
multiplies field elements. Encoding solves the resulting GF(2) system in
whole-array steps, with no loop over rows (peeling in rounds:
Jiang-Mitzenmacher-Thaler, "Parallel Peeling Algorithms", SPAA 2014):

1. peel in rounds: each sparse column keeps one int64, its live degree
   less one times 2^32 plus the sum of its live rows' ids, so a degree-1
   column names its row. A round takes every degree-1 column at once, one
   pivot per row (rows peeled in the same round hold none of each other's
   pivots), and takes its rows out of their columns in one `ufunc.at` call;
2. when no column has degree 1, defer a small batch of live rows (one per
   512 live rows, preferring rows with the most degree-2 columns) and peel
   on. Near the peeling threshold this replaces a core of a third or more
   of the rows by a few deferred ones;
3. each deferred row starts an equation; from then on a column also counts,
   per equation, the rows that added it there, and each round substitutes
   its pivots into the equations holding them in that same `ufunc.at` call.
   The small system left over the dense cells and the free sparse cells the
   substitution reaches, solvable exactly when the whole system is, is built
   in whole arrays and solved by Gauss-Jordan on packed integers;
4. back-substitute round by round in reverse over operands gathered once in
   peeling order, each row's two other cells and its value with its dense
   part folded in: a round is a slice, two gathers, two XORs and one put.

Every position starts from a uniform fill from the encoder's `gf.KeyStream`,
and only pivot positions (of the peel or of the small system) are
overwritten. The free positions thus stay uniform and independent, and the
table is uniform over the solution set: that is load-bearing, since with
uniform values the encoded vector is indistinguishable across key sets,
which is what the protocols rely on when they ship tables to the other side.

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
        """Parse a table of n pairs in `width`-word cells, a read-only view of `raw`; any other
        length is a ValueError."""
        expected = SEED_BYTES + table_length(n) * width * _U64.itemsize
        if len(raw) != expected:  # a short seed too
            raise ValueError(f"table of {len(raw)} bytes, {n} pairs at width {width} need {expected}")
        return cls(raw[:SEED_BYTES], np.frombuffer(raw, _U64, offset=SEED_BYTES).reshape(-1, width))


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
          ) -> tuple[list[tuple[np.ndarray, Optional[np.ndarray]]], Optional[tuple]]:
    """Peel the rows in rounds, deferring a few rows whenever no column has degree 1.

    Returns the steps in order, (rows, pivot columns) for a round and (rows,
    None) for a deferred batch, and None if peeling never stalled, else the
    deferred equations after substitution, as `_solve_deferred` takes them.
    """
    n, one = idx.shape[0], 1 << 32
    # a column's state is its live degree less one, times 2^32, plus the sum
    # of its live rows' ids: a degree-1 column's state is its row's id, and
    # read unsigned, only a degree-1 column's state is below 2^32
    tags = np.repeat(np.arange(one, one + n), 3)  # what a row takes from each of its columns
    state = np.full(m_sparse, -one, dtype=np.int64)
    np.add.at(state, idx.ravel(), tags)
    # from the first stall on, rows of counter words follow the state: per
    # column and deferred equation, a `width`-bit field counts down, from an
    # even start above any column's degree, the rows that added the equation
    # there, so its low bit is set exactly while the equation holds the column
    width = ((int(state.max()) >> 32) + 2).bit_length()
    per, parity = 63 // width, sum(1 << (f * width) for f in range(63 // width))
    table, flat, unsigned, tags = state[None], state, state.view(np.uint64), tags.reshape(n, 3)
    claim, below = np.zeros(n, dtype=np.int32), np.array(one, dtype=np.uint64)  # 0-d compares faster
    steps: list[tuple[np.ndarray, Optional[np.ndarray]]] = []
    sources, added, live, g = [], [], n, 0  # the rows of every step from the first stall on
    ones = np.flatnonzero(unsigned < one)
    while live:
        if ones.size:
            # one pivot per row: where several entries name a row, keep the
            # one whose position survives in `claim`; rows of one round share
            # no pivot column
            rows = state[ones]
            position = np.arange(rows.size)
            claim[rows] = position
            kept = claim[rows] == position
            rows, pivots = rows[kept], ones[kept]
            if g:  # an equation holding a pivot takes the pivot's row in its place
                moved = flat[offsets + pivots] & parity
        else:
            # removing a row with degree-2 columns leaves them at degree 1
            alive, tags = np.ones(n, dtype=bool), None  # no tags are read from the first stall on
            if steps:
                alive[np.concatenate([r for r, _ in steps])] = False
            left = np.flatnonzero(alive)
            twos = ((state >> 32)[idx.take(left, axis=0)] == 1).sum(axis=1)
            rows, pivots = left[np.argsort(-twos, kind="stable")[: max(1, left.size // 512)]], None
            e, g = np.arange(g, g + rows.size), g + rows.size  # each deferred row starts an equation
            grow = 1 - (-g // per) - table.shape[0]
            if grow > 0:  # one more word of counters per `per` equations
                table = np.pad(table, ((0, grow), (0, 0)), constant_values=((1 << width) - 2) * parity)
                state, flat, unsigned = table[0], table.reshape(-1), table[0].view(np.uint64)
                offsets = m_sparse * np.arange(table.shape[0])[:, None]
                added = [np.pad(np.concatenate(added, axis=1), ((0, grow), (0, 0)))] if added else []
            moved = np.zeros((table.shape[0], rows.size), dtype=np.int64)
            moved[1 + e // per, np.arange(rows.size)] = np.left_shift(1, e % per * width)
        steps.append((rows, pivots))
        live -= rows.size
        cols = idx.take(rows, axis=0).ravel()
        if g:  # what the row takes from its column's state, then the equations' bits
            moved[0] = rows + one
            sources.append(rows)
            added.append(moved)
            np.subtract.at(flat, (offsets + cols).ravel(), moved.repeat(3))
        else:
            np.subtract.at(state, cols, tags.take(rows, axis=0).ravel())
        ones = cols[unsigned[cols] < below]
    if not g:
        return steps, None
    # equation e's bit is the low bit of field e % per of a column's counter word e // per:
    # bit q % 8 of the word's byte q // 8, for q = e % per * width
    q = np.arange(g) % per * width
    word, byte, bit = np.arange(g) // per, q // 8, (1 << q % 8).astype(np.uint8)[:, None]
    np.bitwise_and(table[1:], parity, out=table[1:])
    free = np.flatnonzero(table[1:].any(axis=0))
    absorbed, held = (w.view(np.uint8).reshape(*w.shape, 8)
                      for w in (np.concatenate([a[1:] for a in added], axis=1), table[1:]))
    return steps, (np.concatenate(sources), absorbed[word, :, byte] & bit != 0,
                   held[word[:, None], free, byte[:, None]] & bit != 0, free)


def encode(digests: np.ndarray, values: np.ndarray, row_seed: bytes,
           rng: gf.KeyStream) -> Optional[OkvsTable]:
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
    steps, deferred = _peel(idx, m_sparse)

    # uniform fill of every position from the key stream; the solves overwrite the pivots
    cells = np.frombuffer(rng.bytes(m * values.shape[1] * _U64.itemsize), _U64).reshape(m, -1).copy()
    if deferred is not None and not _solve_deferred(masks, values, *deferred, cells):
        return None

    # gathered once, in peeling order: each peeled row's two other cells, and
    # its value with its dense part folded in (the dense cells are settled now)
    rounds = [step for step in steps if step[1] is not None] or [(idx[:0, 0], idx[:0, 0])]
    ends = np.cumsum([0] + [p.size for _, p in rounds]).tolist()
    rows, pivots = (np.concatenate(part) for part in zip(*rounds))
    del steps, deferred, rounds  # from here on only the gathered operands are read
    c0, c1, c2 = idx.take(rows, axis=0).T
    a, b = np.where(pivots == c0, c1, c0), np.where(pivots == c2, c1, c2)
    del idx, c0, c1, c2
    rhs = values.take(rows, axis=0)
    rhs ^= gf.xor_rows(masks.take(rows), cells[m_sparse:])
    cell = np.dtype((np.void, cells.shape[1] * _U64.itemsize))
    cell_view = cells.view(cell).ravel()
    for lo, hi in zip(ends[-2::-1], ends[:0:-1]):  # no other row of a round holds its pivots
        solved = cells.take(a[lo:hi], axis=0) ^ cells.take(b[lo:hi], axis=0) ^ rhs[lo:hi]
        cell_view.put(pivots[lo:hi], solved.view(cell))
    return OkvsTable(row_seed, cells)


def _solve_deferred(masks: np.ndarray, values: np.ndarray, sources: np.ndarray,
                    added: np.ndarray, involves: np.ndarray, free: np.ndarray,
                    cells: np.ndarray) -> bool:
    """Solve the deferred rows over the cells they depend on; writes those cells into `cells`.

    After substitution each deferred equation is over the free sparse cells
    and the dense cells (U): `added` says which `sources` rows it absorbed,
    `involves` which free cells it holds. Positions of U without a pivot keep
    their fill.
    """
    g, rhs_shift = added.shape[0], free.size + DENSE_COLUMNS
    coef_region = (1 << rhs_shift) - 1
    # equation e has absorbed the value and dense mask of every row added to
    # it, its own deferred row among them, so none of the runs is empty
    e, src = np.divmod(np.flatnonzero(added), added.shape[1])
    src, starts = sources.take(src), np.searchsorted(e, np.arange(g))
    value = np.bitwise_xor.reduceat(values.take(src, axis=0), starts, axis=0).astype(_U64)
    dense = np.bitwise_xor.reduceat(masks.take(src), starts).astype(_U64)
    # one packed integer per equation: free sparse cells, dense mask, the w words of its value
    bits = np.concatenate([involves, np.unpackbits(dense.view(np.uint8).reshape(g, -1), axis=1,
                                                     bitorder="little")[:, :DENSE_COLUMNS],
                           np.unpackbits(value.view(np.uint8).reshape(g, -1), axis=1,
                                         bitorder="little")], axis=1)
    system = [int.from_bytes(row.tobytes(), "little")
              for row in np.packbits(bits, axis=1, bitorder="little")]

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
    if not pivot_row:
        return True

    # Gauss-Jordan, highest pivot first: a row keeps its pivot and positions
    # without one, which keep their fill, so every pivot is evaluated at once
    pivots = sorted(pivot_row)
    pivot_bits = sum(1 << p for p in pivots)
    for p in reversed(pivots):
        row = pivot_row[p]
        higher = (row & pivot_bits) ^ (1 << p)
        while higher:
            row ^= pivot_row[(higher & -higher).bit_length() - 1]
            higher &= higher - 1
        pivot_row[p] = row
    positions = np.concatenate([free, np.arange(cells.shape[0] - DENSE_COLUMNS, cells.shape[0])])
    u = cells.take(positions, axis=0)
    u[pivots] = 0  # a row's own pivot bit then adds nothing, and keeps its run nonempty
    end = rhs_shift + 64 * u.shape[1]
    bits = np.unpackbits(np.frombuffer(b"".join(pivot_row[p].to_bytes(-(-end // 8), "little")
                                                for p in pivots), np.uint8).reshape(len(pivots), -1),
                         axis=1, count=end, bitorder="little")
    r, c = np.divmod(np.flatnonzero(bits[:, :rhs_shift]), rhs_shift)
    u[pivots] = (np.bitwise_xor.reduceat(u.take(c, axis=0), np.searchsorted(r, np.arange(len(pivots))),
                                         axis=0)
                 ^ np.packbits(bits[:, rhs_shift:], axis=1, bitorder="little").view(_U64))
    cells[positions] = u
    return True


def decode_rows(cells: np.ndarray, idx: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The XOR of the cells each row selects, (n, w) words, for rows as `row_batch` gives them
    for these m cells: the dense cells through `gf.xor_rows`, then the sparse ones by one
    whole-cell `take` per row position. Tables that share a row seed and a length share
    their rows."""
    acc = gf.xor_rows(masks, cells[cells.shape[0] - DENSE_COLUMNS:])
    for j in range(idx.shape[1]):
        acc ^= cells.take(idx[:, j], axis=0)
    return acc


def decode_batch(table: OkvsTable, digests: np.ndarray) -> np.ndarray:
    """The XOR of the cells each key digest's row selects, (n, w) words; defined for any key."""
    return decode_rows(table.values, *row_batch(digests, table.row_seed, table.values.shape[0]))


def encode_with_retry(digests: np.ndarray, values: np.ndarray, max_attempts: int,
                      rng: gf.KeyStream) -> Optional[tuple[OkvsTable, int]]:
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
