"""Oblivious key-value store: rows, encode/decode, retries, obliviousness proxy."""

import random
from collections import Counter

import numpy as np
import pytest

from authpsi import gf, merkle, okvs


def _params(n, seed=b"\x07" * 16):
    return okvs.OkvsParams.for_size(n, seed)


def _pairs(n, rng):
    keys = set()
    while len(keys) < n:
        keys.add(rng.randbytes(12))
    return [(k, rng.getrandbits(128)) for k in sorted(keys)]


def _h(keys):
    """The element digests d(x) that OKVS keys are: salted leaf prefixes."""
    return merkle.commit(keys, b"\x07" * 16)[1]


def _encode(pairs, params, rng):
    """Encode (element, field element) pairs under the elements' digests."""
    return okvs.encode(_h([k for k, _ in pairs]), gf.vec_from_ints([v for _, v in pairs]),
                       params, rng=rng)


def test_params_shape():
    p = _params(1000)
    assert p.m_sparse == 1230
    assert p.m_dense == 30
    assert p.omega == 3
    assert p.m == 1260
    with pytest.raises(ValueError):
        okvs.OkvsParams(n=10, m_sparse=5, m_dense=30, omega=3, row_seed=b"\x00" * 16)
    # the key stream is four 64-bit words: one per sparse part, then the dense mask
    assert okvs.OkvsParams(n=2, m_sparse=2, m_dense=64, omega=2, row_seed=b"\x00" * 16).m == 66
    for m_dense, omega in ((65, 3), (30, 4), (30, 1)):
        with pytest.raises(ValueError):
            okvs.OkvsParams(n=10, m_sparse=13, m_dense=m_dense, omega=omega, row_seed=b"\x00" * 16)


def test_row_determinism_and_weight():
    # one index in each part [floor(j m_sparse / 3), floor((j+1) m_sparse / 3)),
    # so rows are sorted and distinct down to one cell per part (m_sparse = 3)
    keys = [bytes([i]) * 8 for i in range(50)]
    for p in [_params(500)] + [okvs.OkvsParams(n=3, m_sparse=m, m_dense=30, omega=3,
                                               row_seed=b"\x05" * 16) for m in range(3, 8)]:
        idx, masks = okvs.row_batch(_h(keys), p)
        idx2, masks2 = okvs.row_batch(_h(keys), p)
        assert (idx == idx2).all() and (masks == masks2).all()
        assert idx.shape == (50, 3) and masks.shape == (50,)
        bounds = [j * p.m_sparse // 3 for j in range(4)]
        for row in idx.tolist():
            assert all(bounds[j] <= c < bounds[j + 1] for j, c in enumerate(row)), (p.m_sparse, row)
        if p.m_sparse < 8:  # every cell of a tiny table is reached
            assert set(idx.ravel().tolist()) == set(range(p.m_sparse))


def test_row_mask_below_2_pow_m_dense():
    rng = random.Random(1)
    keys = [rng.randbytes(9) for _ in range(2000)]
    _, masks = okvs.row_batch(_h(keys), _params(64))
    assert masks.dtype == np.uint64
    assert int(masks.max()) < 1 << 30
    # every dense column is used and none is stuck: each bit is set about half the time
    bits = (masks[:, None] >> np.arange(30, dtype=np.uint64)) & np.uint64(1)
    share = bits.mean(axis=0)
    assert share.min() > 0.4 and share.max() < 0.6
    narrow = okvs.OkvsParams(n=64, m_sparse=79, m_dense=5, omega=3, row_seed=b"\x07" * 16)
    _, narrow_masks = okvs.row_batch(_h(keys), narrow)
    assert (narrow_masks == masks & np.uint64(0b11111)).all()


def test_row_distinct_keys_distinct_rows():
    p = _params(4096)
    rng = random.Random(0)
    idx, masks = okvs.row_batch(_h([rng.randbytes(10) for _ in range(10_000)]), p)
    rows = {(tuple(r), m) for r, m in zip(idx.tolist(), masks.tolist())}
    assert len(rows) == 10_000


def test_row_seed_changes_rows():
    a_idx, a_mask = okvs.row_batch(_h([b"key"]), _params(100, b"\x01" * 16))
    b_idx, b_mask = okvs.row_batch(_h([b"key"]), _params(100, b"\x02" * 16))
    assert a_idx.tolist() != b_idx.tolist() or a_mask.tolist() != b_mask.tolist()


def _rows_one_key_at_a_time(keys, p):
    rows = [okvs.row_batch(_h([k]), p) for k in keys]
    return [r[0].tolist() for r, _ in rows], [int(m[0]) for _, m in rows]


def test_row_batch_matches_scalar():
    # a key's row does not depend on the other keys of its batch
    p = _params(64)
    rng = random.Random(1)
    keys = [rng.randbytes(9) for _ in range(200)]
    idx, masks = okvs.row_batch(_h(keys), p)
    assert (idx.tolist(), masks.tolist()) == _rows_one_key_at_a_time(keys, p)


def test_single_pair_roundtrip():
    rng = random.Random(3)
    table = _encode([(b"only", 12345)], _params(1), rng=np.random.default_rng(0))
    assert table is not None
    assert gf.vec_get(okvs.decode_batch(table, _h([b"only"])), 0) == 12345


@pytest.mark.parametrize("n", [16, 256, 1024, 4096])
def test_roundtrip(n):
    rng = random.Random(n)
    pairs = _pairs(n, rng)
    table = _encode(pairs, _params(n), rng=np.random.default_rng(n))
    assert table is not None
    decoded = okvs.decode_batch(table, _h([k for k, _ in pairs]))
    for i, (_, v) in enumerate(pairs):
        assert gf.vec_get(decoded, i) == v


def test_decode_batch_matches_scalar():
    rng = random.Random(4)
    pairs = _pairs(100, rng)
    table = _encode(pairs, _params(100), rng=np.random.default_rng(4))
    probes = [k for k, _ in pairs[:10]] + [rng.randbytes(12) for _ in range(10)]
    batch = okvs.decode_batch(table, _h(probes))
    for i, k in enumerate(probes):
        assert (batch[i] == okvs.decode_batch(table, _h([k]))[0]).all()


def test_duplicate_keys_rejected():
    pairs = [(b"a", 1), (b"b", 2), (b"a", 3)]
    with pytest.raises(okvs.DuplicateKeyError):
        _encode(pairs, _params(3), np.random.default_rng(3))


def test_linearity_and_scalar_identities():
    rng = random.Random(5)
    n = 64
    p = _params(n)
    nprng = np.random.default_rng(5)
    t1 = _encode(_pairs(n, rng), p, rng=nprng)
    t2 = _encode(_pairs(n, random.Random(6)), p, rng=nprng)
    xored = okvs.OkvsTable(params=p, values=t1.values ^ t2.values)
    delta = rng.getrandbits(128)
    scaled = okvs.OkvsTable(params=p, values=gf.scalar_mul_vec(delta, t1.values))
    probes = _h([rng.randbytes(12) for _ in range(200)])
    d1, d2 = okvs.decode_batch(t1, probes), okvs.decode_batch(t2, probes)
    assert (okvs.decode_batch(xored, probes) == d1 ^ d2).all()
    ds = okvs.decode_batch(scaled, probes)
    for i in range(len(probes)):
        assert gf.vec_get(ds, i) == gf.mul(delta, gf.vec_get(d1, i))


def test_encode_and_decode_use_no_field_multiplication(monkeypatch):
    # rows are binary, so both directions are XORs of table cells
    def refuse(*args):
        raise AssertionError("field multiplication in the OKVS")

    monkeypatch.setattr(gf, "mul", refuse)
    monkeypatch.setattr(gf, "scalar_mul_vec", refuse)
    pairs = _pairs(512, random.Random(11))
    table = _encode(pairs, _params(512), rng=np.random.default_rng(11))
    decoded = okvs.decode_batch(table, _h([k for k, _ in pairs]))
    assert [gf.vec_get(decoded, i) for i in range(512)] == [v for _, v in pairs]


def test_unknown_key_decodes_do_not_repeat():
    # decode of never-encoded keys across fresh tables should never collide;
    # a repeat would betray non-random structure in the free cells
    rng = random.Random(7)
    seen = set()
    for i in range(1000):
        pairs = _pairs(8, rng)
        table = _encode(pairs, _params(8, rng.randbytes(16)), rng=np.random.default_rng(i))
        seen.add(gf.vec_get(okvs.decode_batch(table, _h([b"never-encoded"])), 0))
    assert len(seen) == 1000


def test_encode_with_retry_first_attempt():
    # the table is sized for the keys, and its base row seed is the rng's next 16 bytes
    pairs = _pairs(128, random.Random(8))
    values = gf.vec_from_ints([v for _, v in pairs])
    result = okvs.encode_with_retry(_h([k for k, _ in pairs]), values, 8, np.random.default_rng(8))
    assert result is not None
    table, attempts = result
    assert attempts == 1
    assert table.params == _params(128, np.random.default_rng(8).bytes(16))


def test_encode_with_retry_draws_a_new_seed_per_attempt(monkeypatch):
    # a failed attempt is retried under the rng's next 16 bytes, and the
    # table carries the seed that succeeded
    pairs = _pairs(64, random.Random(8))
    digests, values = _h([k for k, _ in pairs]), gf.vec_from_ints([v for _, v in pairs])
    real_encode, seeds = okvs.encode, []

    def fail_first(digests, values, params, rng):
        seeds.append(params.row_seed)
        return None if len(seeds) == 1 else real_encode(digests, values, params, rng)

    monkeypatch.setattr(okvs, "encode", fail_first)
    table, attempts = okvs.encode_with_retry(digests, values, 8, np.random.default_rng(8))
    assert attempts == 2 and len(seeds) == 2
    assert seeds[0] != seeds[1] and table.params.row_seed == seeds[1]
    assert seeds[0] == np.random.default_rng(8).bytes(16)
    assert (okvs.decode_batch(table, digests) == values).all()


def test_encode_with_retry_rejects_zero_attempts():
    with pytest.raises(ValueError):
        okvs.encode_with_retry(_h([b"k"]), gf.vec_from_ints([1]), 0, np.random.default_rng(0))


def test_table_wire_roundtrip():
    # row seed || cell count (4 bytes, big-endian) || cells; the reader passes n
    rng = random.Random(9)
    table = _encode(_pairs(20, rng), _params(20), rng=np.random.default_rng(9))
    raw = table.to_bytes()
    assert raw[:16] == table.params.row_seed
    assert int.from_bytes(raw[16:20], "big") == table.params.m
    assert len(raw) == 20 + table.params.m * 16
    back = okvs.OkvsTable.from_bytes(raw, 20)
    assert back.params == table.params
    assert back.values.tolist() == table.values.tolist()
    pairs = _pairs(20, random.Random(9))
    decoded = okvs.decode_batch(back, _h([k for k, _ in pairs]))
    assert [gf.vec_get(decoded, i) for i in range(20)] == [v for _, v in pairs]
    # a reader that expects another pair count, a short seed, a count that
    # differs from the body, or a body one cell longer rejects the table
    count = raw[16:20]
    other = (table.params.m + 1).to_bytes(4, "big")
    for bad, n in ((raw, 19), (raw, 21), (raw[:15], 20), (raw[:-1], 20),
                   (raw[:16] + other + raw[20:], 20), (raw[:16] + other + raw[20:] + bytes(16), 20),
                   (raw[:16] + count + raw[20:] + bytes(16), 20)):
        with pytest.raises(ValueError):
            okvs.OkvsTable.from_bytes(bad, n)


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


def test_encode_matches_reference_elimination():
    # without dense columns small systems often stall and are often
    # inconsistent; encode must fail exactly when elimination of the whole
    # system finds a dependent row with a nonzero value, and decode every
    # key otherwise
    rng = random.Random(12)
    outcomes = Counter()
    for n in (8, 16, 32, 64, 200):
        for trial in range(120):
            digests = _h([k for k, _ in _pairs(n, rng)])
            values = gf.vec_from_bytes(rng.randbytes(16 * n))
            p = okvs.OkvsParams.for_size(n, rng.randbytes(16), m_dense=0)
            idx, _ = okvs.row_batch(digests, p)
            table = okvs.encode(digests, values, p, rng=np.random.default_rng(trial))
            solvable = _consistent(idx, values, p.m)
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
    p = _params(n)
    key_sets = {prefix: [prefix + bytes([i]) for i in range(n)] for prefix in (b"L", b"S", b"R")}
    for prefix, stalls in ((b"L", True), (b"S", True), (b"R", False)):
        assert _stalls(okvs.row_batch(_h(key_sets[prefix]), p)[0].tolist()) == stalls, prefix
    nprng = np.random.default_rng(10)
    ones = {prefix: np.zeros(p.m * 128) for prefix in key_sets}
    for trial in range(trials):
        for prefix, keys in key_sets.items():
            pairs = [(k, int.from_bytes(nprng.bytes(16), "little")) for k in keys]
            table = _encode(pairs, p, rng=nprng)
            bits = np.unpackbits(np.frombuffer(gf.vec_to_bytes(table.values), dtype=np.uint8),
                                 bitorder="little")
            ones[prefix] += bits
    sigma = (0.25 / (128 * trials)) ** 0.5
    for prefix in key_sets:
        per_coord = np.abs((ones[prefix] / trials).reshape(p.m, 128).mean(axis=1) - 0.5)
        assert float(per_coord.max()) < 4 * sigma, prefix
