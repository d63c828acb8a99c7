"""Oblivious key-value store: rows, encode/decode, retries, obliviousness proxy."""

import hashlib
import math
import random
from collections import Counter

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings, strategies as st

from authpsi import gf, merkle, okvs, psi2, vole, zeroshare
from test_gf import mul_oracle, to_bytes, vec_from_ints, vec_get

SEED = b"\x07" * 16


def _pairs(n, rng):
    keys = set()
    while len(keys) < n:
        keys.add(rng.randbytes(12))
    return [(k, rng.getrandbits(128)) for k in sorted(keys)]


def _h(keys):
    """The element digests d(x) that OKVS keys are: salted leaf prefixes."""
    return merkle.root(keys, b"\x07" * 16).digests


def _encode(pairs, row_seed, rng):
    """Encode (element, field element) pairs under the elements' digests."""
    return okvs.encode(_h([k for k, _ in pairs]), vec_from_ints([v for _, v in pairs]),
                       row_seed, rng=rng)


def test_params_shape():
    # ceil(1.23 n) sparse cells, at least one per part of a row, then 30 dense ones
    assert (okvs.EXPANSION, okvs.ROW_WEIGHT, okvs.DENSE_COLUMNS) == (1.23, 3, 30)
    assert okvs.table_length(1000) == 1230 + 30
    assert okvs.table_length(1) == okvs.table_length(2) == 3 + 30
    assert okvs.table_length(3) == 4 + 30


def test_row_determinism_and_weight():
    # one index in each part [floor(j m_sparse / 3), floor((j+1) m_sparse / 3)),
    # so rows are sorted and distinct down to one cell per part (m_sparse = 3)
    keys = [bytes([i]) * 8 for i in range(50)]
    for seed, m in [(SEED, okvs.table_length(500))] + [(b"\x05" * 16, m) for m in range(33, 38)]:
        m_sparse = m - okvs.DENSE_COLUMNS
        idx, masks = okvs.row_batch(_h(keys), seed, m)
        idx2, masks2 = okvs.row_batch(_h(keys), seed, m)
        assert (idx == idx2).all() and (masks == masks2).all()
        assert idx.shape == (50, 3) and masks.shape == (50,)
        bounds = [j * m_sparse // 3 for j in range(4)]
        for row in idx.tolist():
            assert all(bounds[j] <= c < bounds[j + 1] for j, c in enumerate(row)), (m_sparse, row)
        if m_sparse < 8:  # every cell of a tiny table is reached
            assert set(idx.ravel().tolist()) == set(range(m_sparse))


def test_rows_follow_the_documented_stream():
    # the module docstring's definition, one key at a time in Python ints: the
    # stream is AES_seed(d XOR ctr) for counters 0 and 1, big-endian in bytes
    # 12..15, read as four little-endian words w_0..w_3; position j is
    # lo_j + w_j mod (lo_{j+1} - lo_j), and the dense mask is w_3's low m_dense
    # bits. 301 pairs give m_sparse = 371, not a multiple of 3, so the parts
    # differ in size
    seed = bytes(range(16))
    digests = _h([i.to_bytes(2, "big") for i in range(301)])
    assert okvs.table_length(301) == 371 + 30
    idx, masks = okvs.row_batch(digests, seed, okvs.table_length(301))
    aes = Cipher(algorithms.AES(seed), modes.ECB()).encryptor()
    lo = [0, 123, 247, 371]
    for (d0, d1), row, mask in zip(digests.tolist(), idx.tolist(), masks.tolist()):
        d = d0.to_bytes(8, "little") + d1.to_bytes(8, "little")
        blocks = [d[:12] + (int.from_bytes(d[12:], "big") ^ ctr).to_bytes(4, "big") for ctr in (0, 1)]
        stream = aes.update(b"".join(blocks))
        w = [int.from_bytes(stream[8 * i:8 * i + 8], "little") for i in range(4)]
        assert row == [lo[j] + w[j] % (lo[j + 1] - lo[j]) for j in range(3)]
        assert mask == w[3] & ((1 << 30) - 1)


def test_stream_input_len_is_its_byte_count(monkeypatch):
    # cryptography's older Python backend sizes update_into's input by len(data),
    # so every AES call must hand it a buffer whose len() counts bytes; the
    # wrapper has no update or finalize, so each call goes through update_into
    real = gf.Cipher

    class Measuring:
        def __init__(self, *args):
            self.ctx = real(*args).encryptor()

        def encryptor(self):
            return self

        def update_into(self, data, buf):
            assert len(data) == memoryview(data).nbytes
            return self.ctx.update_into(data, buf)

    digests = _h([bytes([i]) for i in range(50)])
    values = np.random.default_rng(5).integers(0, 1 << 64, size=(50, 2), dtype=np.uint64)
    callers = {
        "rows": lambda: okvs.row_batch(digests, SEED, okvs.table_length(50)),
        "vole": lambda: (vole.expand_vector(bytes(range(32)), 50),),
        "ho": lambda: (psi2.output_digest(values, 11),),
        "prf": lambda: (zeroshare.prf([SEED, b"\x08" * 16], digests),),
    }
    expected = {name: call() for name, call in callers.items()}
    monkeypatch.setattr(gf, "Cipher", Measuring)
    for name, call in callers.items():
        for got, want in zip(call(), expected[name]):
            assert got.tolist() == want.tolist(), name


def test_row_mask_below_2_pow_m_dense(monkeypatch):
    rng = random.Random(1)
    keys = [rng.randbytes(9) for _ in range(2000)]
    _, masks = okvs.row_batch(_h(keys), SEED, okvs.table_length(64))
    assert masks.dtype == np.uint64
    assert int(masks.max()) < 1 << 30
    # every dense column is used and none is stuck: each bit is set about half the time
    bits = (masks[:, None] >> np.arange(30, dtype=np.uint64)) & np.uint64(1)
    share = bits.mean(axis=0)
    assert share.min() > 0.4 and share.max() < 0.6
    monkeypatch.setattr(okvs, "DENSE_COLUMNS", 5)
    assert okvs.table_length(64) == 79 + 5
    _, narrow_masks = okvs.row_batch(_h(keys), SEED, okvs.table_length(64))
    assert (narrow_masks == masks & np.uint64(0b11111)).all()


def test_row_distinct_keys_distinct_rows():
    rng = random.Random(0)
    idx, masks = okvs.row_batch(_h([rng.randbytes(10) for _ in range(10_000)]), SEED,
                                okvs.table_length(4096))
    rows = {(tuple(r), m) for r, m in zip(idx.tolist(), masks.tolist())}
    assert len(rows) == 10_000


def test_row_seed_changes_rows():
    m = okvs.table_length(100)
    a_idx, a_mask = okvs.row_batch(_h([b"key"]), b"\x01" * 16, m)
    b_idx, b_mask = okvs.row_batch(_h([b"key"]), b"\x02" * 16, m)
    assert a_idx.tolist() != b_idx.tolist() or a_mask.tolist() != b_mask.tolist()


def _rows_one_key_at_a_time(keys, m):
    rows = [okvs.row_batch(_h([k]), SEED, m) for k in keys]
    return [r[0].tolist() for r, _ in rows], [int(m[0]) for _, m in rows]


def test_row_batch_matches_scalar():
    # a key's row does not depend on the other keys of its batch
    m = okvs.table_length(64)
    rng = random.Random(1)
    keys = [rng.randbytes(9) for _ in range(200)]
    idx, masks = okvs.row_batch(_h(keys), SEED, m)
    assert (idx.tolist(), masks.tolist()) == _rows_one_key_at_a_time(keys, m)


def test_single_pair_roundtrip():
    rng = random.Random(3)
    table = _encode([(b"only", 12345)], SEED, rng=np.random.default_rng(0))
    assert table is not None
    assert vec_get(okvs.decode_batch(table, _h([b"only"])), 0) == 12345


@pytest.mark.parametrize("n", [16, 256, 1024, 4096])
def test_roundtrip(n):
    rng = random.Random(n)
    pairs = _pairs(n, rng)
    table = _encode(pairs, SEED, rng=np.random.default_rng(n))
    assert table is not None
    decoded = okvs.decode_batch(table, _h([k for k, _ in pairs]))
    for i, (_, v) in enumerate(pairs):
        assert vec_get(decoded, i) == v


def test_decode_batch_matches_scalar():
    rng = random.Random(4)
    pairs = _pairs(100, rng)
    table = _encode(pairs, SEED, rng=np.random.default_rng(4))
    probes = [k for k, _ in pairs[:10]] + [rng.randbytes(12) for _ in range(10)]
    batch = okvs.decode_batch(table, _h(probes))
    for i, k in enumerate(probes):
        assert (batch[i] == okvs.decode_batch(table, _h([k]))[0]).all()


@pytest.mark.parametrize("width", [1, 2])
def test_decode_is_the_xor_of_selected_cells(width):
    # at the benchmark's sizes (2^12 keys at w = 1, 2^14 at w = 2), whose first
    # peeling rounds hold about 1,000 and 4,000 rows: every key, encoded or
    # not, decodes to the XOR of its sparse cells and of the dense cells its
    # mask bits select, and the encoded keys decode to their values
    n = 1 << (10 + 2 * width)
    rng = np.random.default_rng(width)
    digests = rng.integers(0, 1 << 64, size=(n, 2), dtype=np.uint64)
    values = rng.integers(0, 1 << 64, size=(n, width), dtype=np.uint64)
    table, _ = okvs.encode_with_retry(digests, values, okvs.MAX_ENCODE_ATTEMPTS, rng)
    probes = np.concatenate([digests, rng.integers(0, 1 << 64, size=(1000, 2), dtype=np.uint64)])
    m = okvs.table_length(n)
    idx, masks = okvs.row_batch(probes, table.row_seed, m)
    cells, dense = table.values.tolist(), m - okvs.DENSE_COLUMNS
    assert len(cells) == m
    expected = []
    for row, mask in zip(idx.tolist(), masks.tolist()):
        acc = [0] * width
        for c in row + [dense + b for b in range(okvs.DENSE_COLUMNS) if mask >> b & 1]:
            acc = [a ^ v for a, v in zip(acc, cells[c])]
        expected.append(acc)
    decoded = okvs.decode_batch(table, probes)
    assert decoded.tolist() == expected
    assert decoded[:n].tolist() == values.tolist()


def test_duplicate_keys_rejected():
    pairs = [(b"a", 1), (b"b", 2), (b"a", 3)]
    with pytest.raises(okvs.DuplicateKeyError):
        _encode(pairs, SEED, np.random.default_rng(3))


def test_duplicate_check_compares_whole_keys():
    # digests that share limb 0 are distinct keys when limb 1 differs; only a
    # repeat of both limbs is a duplicate, and the caller's array is left as it was
    rng = np.random.default_rng(11)
    digests = rng.integers(0, 1 << 64, size=(64, 2), dtype=np.uint64)
    digests[1:4, 0] = digests[0, 0]
    digests[3, 1] = digests[2, 1] ^ np.uint64(1)
    before = digests.copy()
    values = rng.integers(0, 1 << 64, size=(64, 2), dtype=np.uint64)
    table, _ = okvs.encode_with_retry(digests, values, okvs.MAX_ENCODE_ATTEMPTS, rng)
    assert okvs.decode_batch(table, digests).tolist() == values.tolist()
    assert (digests == before).all()

    digests[5] = digests[2]
    before = digests.copy()
    with pytest.raises(okvs.DuplicateKeyError):
        okvs.encode(digests, values, SEED, rng)
    assert (digests == before).all()


def test_linearity_and_scalar_identities():
    rng = random.Random(5)
    n = 64
    nprng = np.random.default_rng(5)
    t1 = _encode(_pairs(n, rng), SEED, rng=nprng)
    t2 = _encode(_pairs(n, random.Random(6)), SEED, rng=nprng)
    xored = okvs.OkvsTable(SEED, t1.values ^ t2.values)
    delta = rng.getrandbits(128)
    scaled = okvs.OkvsTable(SEED, gf.scalar_mul_vec(to_bytes(delta), t1.values))
    probes = _h([rng.randbytes(12) for _ in range(200)])
    d1, d2 = okvs.decode_batch(t1, probes), okvs.decode_batch(t2, probes)
    assert (okvs.decode_batch(xored, probes) == d1 ^ d2).all()
    ds = okvs.decode_batch(scaled, probes)
    for i in range(len(probes)):
        assert vec_get(ds, i) == mul_oracle(delta, vec_get(d1, i))


def test_encode_and_decode_use_no_field_multiplication(monkeypatch):
    # rows are binary, so both directions are XORs of table cells
    def refuse(*args):
        raise AssertionError("field multiplication in the OKVS")

    monkeypatch.setattr(gf, "scalar_mul_vec", refuse)
    pairs = _pairs(512, random.Random(11))
    table = _encode(pairs, SEED, rng=np.random.default_rng(11))
    decoded = okvs.decode_batch(table, _h([k for k, _ in pairs]))
    assert [vec_get(decoded, i) for i in range(512)] == [v for _, v in pairs]


def test_unknown_key_decodes_do_not_repeat():
    # decode of never-encoded keys across fresh tables should never collide;
    # a repeat would betray non-random structure in the free cells
    rng = random.Random(7)
    seen = set()
    for i in range(1000):
        pairs = _pairs(8, rng)
        table = _encode(pairs, rng.randbytes(16), rng=np.random.default_rng(i))
        seen.add(vec_get(okvs.decode_batch(table, _h([b"never-encoded"])), 0))
    assert len(seen) == 1000


def test_encode_with_retry_first_attempt():
    # the table is sized for the keys, and its base row seed is the rng's next 16 bytes
    pairs = _pairs(128, random.Random(8))
    values = vec_from_ints([v for _, v in pairs])
    result = okvs.encode_with_retry(_h([k for k, _ in pairs]), values, 8, np.random.default_rng(8))
    assert result is not None
    table, attempts = result
    assert attempts == 1
    assert table.row_seed == np.random.default_rng(8).bytes(16)
    assert table.values.shape == (okvs.table_length(128), 2)


def test_encode_with_retry_draws_a_new_seed_per_attempt(monkeypatch):
    # a failed attempt is retried under the rng's next 16 bytes, and the
    # table carries the seed that succeeded
    pairs = _pairs(64, random.Random(8))
    digests, values = _h([k for k, _ in pairs]), vec_from_ints([v for _, v in pairs])
    real_encode, seeds = okvs.encode, []

    def fail_first(digests, values, row_seed, rng):
        seeds.append(row_seed)
        return None if len(seeds) == 1 else real_encode(digests, values, row_seed, rng)

    monkeypatch.setattr(okvs, "encode", fail_first)
    table, attempts = okvs.encode_with_retry(digests, values, 8, np.random.default_rng(8))
    assert attempts == 2 and len(seeds) == 2
    assert seeds[0] != seeds[1] and table.row_seed == seeds[1]
    assert seeds[0] == np.random.default_rng(8).bytes(16)
    assert (okvs.decode_batch(table, digests) == values).all()


def test_encode_with_retry_rejects_zero_attempts():
    with pytest.raises(ValueError):
        okvs.encode_with_retry(_h([b"k"]), vec_from_ints([1]), 0, np.random.default_rng(0))


@pytest.mark.parametrize("width", [1, 2])
def test_table_wire_roundtrip(width):
    # row seed || cells of `width` 8-byte words; the reader passes n and the
    # width, and the cell count follows from n
    nprng = np.random.default_rng(9)
    digests = _h([k for k, _ in _pairs(20, random.Random(9))])
    values = nprng.integers(0, 1 << 64, size=(20, width), dtype=np.uint64)
    table = okvs.encode(digests, values, SEED, rng=nprng)
    raw = table.to_bytes()
    assert raw[:16] == table.row_seed == SEED
    assert raw[16:] == table.values.tobytes()
    assert len(raw) == 16 + okvs.table_length(20) * 8 * width
    back = okvs.OkvsTable.from_bytes(raw, 20, width)
    assert back.row_seed == table.row_seed
    assert back.values.shape == (okvs.table_length(20), width)
    assert back.values.tolist() == table.values.tolist()
    assert okvs.decode_batch(back, digests).tolist() == values.tolist()
    # a reader that expects another pair count or another width, a short
    # seed, a body one byte short, or a body one cell short or long rejects
    # the table
    cell = bytes(8 * width)
    for bad, n, w in ((raw, 19, width), (raw, 21, width), (raw, 20, 3 - width),
                      (raw[:15], 20, width), (raw[:-1], 20, width),
                      (raw[:-8 * width], 20, width), (raw + cell, 20, width)):
        with pytest.raises(ValueError):
            okvs.OkvsTable.from_bytes(bad, n, w)


def _stalls(idx):
    """Reference 2-core: whether removing rows that own a degree-1 column leaves any row."""
    live = set(range(len(idx)))
    while True:
        degree = Counter(c for r in live for c in idx[r])
        peelable = {r for r in live if any(degree[c] == 1 for c in idx[r])}
        if not peelable:
            return bool(live)
        live -= peelable


def _consistent(idx, values, m):
    """Reference: Gaussian elimination of the whole binary system, rows as coefficients | value."""
    pivots = {}
    for cols, (lo, hi) in zip(idx.tolist(), values.tolist()):
        row = sum(1 << c for c in cols) | ((lo | (hi << 64)) << m)
        while row & ((1 << m) - 1):
            p = (row & -row).bit_length() - 1
            if p not in pivots:
                pivots[p] = row
                break
            row ^= pivots[p]
        else:
            if row:
                return False
    return True


def test_encode_matches_reference_elimination(monkeypatch):
    # without dense columns small systems often stall and are often
    # inconsistent; encode must fail exactly when elimination of the whole
    # system finds a dependent row with a nonzero value, and decode every
    # key otherwise
    monkeypatch.setattr(okvs, "DENSE_COLUMNS", 0)
    rng = random.Random(12)
    outcomes = Counter()
    for n in (8, 16, 32, 64, 200):
        for trial in range(120):
            digests = _h([k for k, _ in _pairs(n, rng)])
            values = gf.vec_from_bytes(rng.randbytes(16 * n))
            seed, m = rng.randbytes(16), okvs.table_length(n)
            idx, _ = okvs.row_batch(digests, seed, m)
            table = okvs.encode(digests, values, seed, rng=np.random.default_rng(trial))
            solvable = _consistent(idx, values, m)
            assert (table is not None) == solvable, (n, trial)
            if table is not None:
                assert (okvs.decode_batch(table, digests) == values).all(), (n, trial)
            outcomes[solvable, _stalls(idx.tolist())] += 1
    assert outcomes[True, True] and outcomes[False, True] and outcomes[True, False], outcomes


def test_obliviousness_bit_bias_proxy():
    # fixed distinct key sets, uniform values: each table coordinate's bit
    # bias, pooled over its 128 bits and 10^3 encodings, stays within 4 sigma
    # of one half for every key set; under this row seed peeling stalls on
    # the first two sets, so deferred rows are solved, and peels the third
    # completely (found by a search over key prefixes)
    n, trials = 16, 1000
    m = okvs.table_length(n)
    key_sets = {prefix: [prefix + bytes([i]) for i in range(n)] for prefix in (b"L", b"S", b"R")}
    for prefix, stalls in ((b"L", True), (b"S", True), (b"R", False)):
        assert _stalls(okvs.row_batch(_h(key_sets[prefix]), SEED, m)[0].tolist()) == stalls, prefix
    nprng = np.random.default_rng(10)
    ones = {prefix: np.zeros(m * 128) for prefix in key_sets}
    for trial in range(trials):
        for prefix, keys in key_sets.items():
            pairs = [(k, int.from_bytes(nprng.bytes(16), "little")) for k in keys]
            table = _encode(pairs, SEED, rng=nprng)
            bits = np.unpackbits(np.frombuffer(gf.vec_to_bytes(table.values), dtype=np.uint8),
                                 bitorder="little")
            ones[prefix] += bits
    sigma = (0.25 / (128 * trials)) ** 0.5
    for prefix in key_sets:
        per_coord = np.abs((ones[prefix] / trials).reshape(m, 128).mean(axis=1) - 0.5)
        assert float(per_coord.max()) < 4 * sigma, prefix


# SHA-256 of the bytes of seeded tables, so that a change to the peel or the
# solves that moves any table byte shows: (pairs, width, seed) -> the deferred
# batches its peel takes, and the digest
PINNED = {
    (4096, 1, 7): (0, "ae04612ac52926c593a6db47182540fd2a03468b0e85fdb3035397043e7d69ba"),
    (4096, 1, 1): (1, "cd28f2b3ccacafc84580d64830580345c76265428a908dd4f8590012d6916edd"),
    (4096, 1, 2): (3, "66ea5686f74abcaed8bf4436a7d5e14e8bae984b9fe6b3849b8822de45d1c44b"),
    (16384, 2, 1): (0, "69d04b9c5245f3dfa24c17ea8def9ffac859bd7147b818fffc2748e348b470bd"),
    (16384, 2, 5): (2, "24d9e89b3d59a88768f03ec899ae14891bdb6e9c8bce0e5fe055b3fded5f8787"),
}


@pytest.mark.parametrize("n, width, seed", sorted(PINNED))
def test_tables_are_pinned(n, width, seed):
    # the peel's rounds, pivots and deferred batches, the elimination order and
    # the fill decide every table byte; at the benchmark's sizes, stalled or not
    batches, digest = PINNED[n, width, seed]
    rng = np.random.default_rng(seed)
    digests = rng.integers(0, 1 << 64, size=(n, 2), dtype=np.uint64)
    values = rng.integers(0, 1 << 64, size=(n, width), dtype=np.uint64)
    table, attempts = okvs.encode_with_retry(digests, values, okvs.MAX_ENCODE_ATTEMPTS, rng)
    m = okvs.table_length(n)
    steps, _ = okvs._peel(okvs.row_batch(digests, table.row_seed, m)[0], m - okvs.DENSE_COLUMNS)
    assert (attempts, sum(pivots is None for _, pivots in steps)) == (1, batches)
    assert hashlib.sha256(table.to_bytes()).hexdigest() == digest


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(n=st.integers(1, 300), ratio=st.floats(1.0, 1.4), key=st.integers(0, 2**32))
def test_peel_invariants(n, ratio, key):
    # replaying the steps, on tables from below to above the 1.23 expansion:
    # every row is peeled or deferred once; a round's pivots are distinct, each
    # in its own row and the only live row's column when the round runs; no
    # deferred row holds a pivot peeled before it; and each deferred equation
    # after substitution, the XOR of the rows it absorbed, holds exactly the
    # free cells it is said to, none of them a pivot
    m_sparse = max(math.ceil(ratio * n), okvs.ROW_WEIGHT)
    digests = np.random.default_rng(key).integers(0, 1 << 64, size=(n, 2), dtype=np.uint64)
    idx = okvs.row_batch(digests, SEED, m_sparse + okvs.DENSE_COLUMNS)[0]
    steps, deferred = okvs._peel(idx, m_sparse)
    live, peeled = np.ones(n, dtype=bool), set()
    for rows, pivots in steps:
        assert rows.size and live[rows].all() and len(set(rows.tolist())) == rows.size
        if pivots is None:
            assert not peeled & set(idx[rows].ravel().tolist())
        else:
            assert len(set(pivots.tolist())) == pivots.size
            assert (idx[rows] == pivots[:, None]).any(axis=1).all()
            assert ((idx[live][:, :, None] == pivots).any(axis=1).sum(axis=0) == 1).all()
            peeled |= set(pivots.tolist())
        live[rows] = False
    assert not live.any()
    assert (deferred is None) == all(pivots is not None for _, pivots in steps)
    if deferred is not None:
        sources, added, involves, free = deferred
        assert not peeled & set(free.tolist())
        for e in range(added.shape[0]):
            held = Counter(idx[sources[added[e]]].ravel().tolist())
            assert {c for c, k in held.items() if k % 2} == set(free[involves[e]].tolist())
