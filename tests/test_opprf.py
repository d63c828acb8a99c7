"""Programmable PRF: programmed recovery, pseudorandom elsewhere, the combined dealer evaluation."""

import random

import numpy as np
import pytest

from authpsi import gf, merkle, okvs, opprf, zeroshare
from authpsi.errors import ProtocolError


def _points(m, rng):
    """The digests of m distinct keys and their uint64 programmed values."""
    xs = set()
    while len(xs) < m:
        xs.add(rng.randbytes(10))
    return (_h(sorted(xs)),
            np.array([rng.getrandbits(64) for _ in range(m)], dtype=np.uint64))


def _h(queries):
    """The element digests d(x) that points and queries are: salted leaf prefixes."""
    return merkle.commit(queries, _session())[1]


def _session(tag=1):
    return bytes([tag]) * 16


def test_programmed_points_recovered():
    rng = random.Random(0)
    xs, ys = _points(256, rng)
    key = b"\x09" * 16
    hint = opprf.opprf_program(xs, ys, key, rng=np.random.default_rng(0))
    got = opprf.opprf_query_batch([hint], xs, zeroshare.prf([key], xs))
    assert got.dtype == np.uint64
    assert (got == ys).all()


def test_batch_query_matches_scalar():
    rng = random.Random(1)
    xs, ys = _points(64, rng)
    key = b"\x0a" * 16
    hint = opprf.opprf_program(xs, ys, key, rng=np.random.default_rng(1))
    queries = np.concatenate([xs[:16], _h([rng.randbytes(10) for _ in range(16)])])
    evals = zeroshare.prf([key], queries)
    batch = opprf.opprf_query_batch([hint], queries, evals)
    assert (batch[:16] == ys[:16]).all()
    # one query at a time gives the same answers as the mixed batch
    for k in range(len(queries)):
        q = queries[k : k + 1]
        ev = zeroshare.prf([key], q)
        assert ev[0] == evals[k]
        assert opprf.opprf_query_batch([hint], q, ev)[0] == batch[k]


def test_unprogrammed_queries_look_random():
    # 10^5 fresh queries: none hits a programmed value, none repeats
    # (expected collision mass at 64-bit outputs is ~5e-15)
    rng = random.Random(2)
    xs, ys = _points(32, rng)
    key = b"\x0b" * 16
    hint = opprf.opprf_program(xs, ys, key, rng=np.random.default_rng(2))
    queries = _h([b"q" + i.to_bytes(4, "big") for i in range(100_000)])
    outs = opprf.opprf_query_batch([hint], queries, zeroshare.prf([key], queries))
    assert len(np.unique(outs)) == len(queries)
    assert not np.isin(outs, ys).any()


def test_repeated_query_is_deterministic():
    rng = random.Random(3)
    xs, ys = _points(8, rng)
    key = b"\x0c" * 16
    hint = opprf.opprf_program(xs, ys, key, rng=np.random.default_rng(3))
    q = _h([b"again", b"again"])
    evals = zeroshare.prf([key], q)
    assert evals[0] == evals[1]
    first, second = opprf.opprf_query_batch([hint], q, evals)
    assert first == second == opprf.opprf_query_batch([hint], q[:1], evals[:1])[0]


def test_empty_point_set():
    key = b"\x0d" * 16
    hint = opprf.opprf_program(np.zeros((0, 2), "<u8"), np.zeros(0, dtype=np.uint64), key,
                               rng=np.random.default_rng(4))
    rng = random.Random(5)
    outs = opprf.opprf_query_batch([hint], _h([rng.randbytes(8) for _ in range(50)]),
                                   np.zeros(50, dtype=np.uint64))
    assert len(np.unique(outs)) == 50


def test_duplicate_points_rejected():
    with pytest.raises(okvs.DuplicateKeyError):
        opprf.opprf_program(_h([b"x", b"x"]), np.array([0, 1], dtype=np.uint64), b"\x0f" * 16,
                            np.random.default_rng(8))


def test_fresh_key_changes_hint():
    rng = random.Random(7)
    xs, ys = _points(16, rng)
    dealer = opprf.OprfDealer([9, 10], rng=np.random.default_rng(6))
    k1, k2 = dealer.key(9), dealer.key(10)
    assert k1 != k2 and dealer.key(9) == k1
    assert (dealer.evaluate([9], xs) == zeroshare.prf([k1], xs)).all()
    # alike rngs give alike row seeds, so the two hints share their rows
    h1 = opprf.opprf_program(xs, ys, k1, rng=np.random.default_rng(7))
    h2 = opprf.opprf_program(xs, ys, k2, rng=np.random.default_rng(7))
    assert h1.row_seed == h2.row_seed
    assert h1.to_bytes() != h2.to_bytes()


def test_dealer_keys_do_not_depend_on_request_order():
    # every sender's key is drawn in sender order when the dealer is built,
    # so the order the key requests arrive in changes no key
    first, second = (opprf.OprfDealer([4, 5, 6], rng=np.random.default_rng(12)) for _ in range(2))
    forward = [first.key(s) for s in (4, 5, 6)]
    backward = [second.key(s) for s in (6, 5, 4)][::-1]
    assert forward == backward and len(set(forward)) == 3


def test_combined_evaluation_recovers_the_xor_of_programmed_values():
    # the dealer's one vector is the XOR of every sender's OPRF, so querying
    # all the hints with it gives the XOR of the values each one programmed
    rng = random.Random(10)
    xs, ys = _points(64, rng)
    others = np.array([rng.getrandbits(64) for _ in range(64)], dtype=np.uint64)
    dealer = opprf.OprfDealer([3, 4], rng=np.random.default_rng(10))
    hints = [opprf.opprf_program(xs, values, dealer.key(s), rng=np.random.default_rng(s))
             for s, values in ((3, ys), (4, others))]
    evals = dealer.evaluate([3, 4], xs)
    assert (evals == zeroshare.prf([dealer.key(3)], xs) ^ zeroshare.prf([dealer.key(4)], xs)).all()
    assert (opprf.opprf_query_batch(hints, xs, evals) == ys ^ others).all()


def test_hint_bytes_look_uniform():
    # with fresh OPRF keys the hint leaks nothing visibly non-uniform
    rng = random.Random(8)
    nprng = np.random.default_rng(8)
    trials, ones, total = 200, 0, 0
    for t in range(trials):
        hint = opprf.opprf_program(*_points(16, rng), nprng.bytes(16), rng=nprng)
        raw = gf.vec_to_bytes(hint.values)
        ones += sum(bin(b).count("1") for b in raw)
        total += len(raw) * 8
    sigma = (0.25 / total) ** 0.5
    assert abs(ones / total - 0.5) < 4 * sigma


def test_wire_roundtrip():
    # a hint on the wire is its bare OKVS table, of one 8-byte word per cell
    rng = random.Random(9)
    hint = opprf.opprf_program(*_points(8, rng), b"\x10" * 16, rng=np.random.default_rng(9))
    raw = hint.to_bytes()
    assert hint.values.shape == (okvs.table_length(8), 1)
    assert len(raw) == 16 + 8 * okvs.table_length(8)
    back = okvs.OkvsTable.from_bytes(raw, 8, 1)
    assert back.to_bytes() == raw


def test_dealer_payload_roundtrips():
    # an evaluation request is the query digests, 16 bytes each and no count
    queries = _h([b"a", b"bb", b"ccc"])
    raw = gf.vec_to_bytes(queries)
    assert len(raw) == 16 * 3
    assert (opprf.decode_queries(raw) == queries).all()
    # the response is one uint64 per query, 8 little-endian bytes each
    dealer = opprf.OprfDealer([1, 2], rng=np.random.default_rng(11))
    values = dealer.evaluate([1, 2], opprf.decode_queries(raw))
    assert values.dtype == np.uint64 and len(values.tobytes()) == 8 * 3
    assert values.tobytes()[:8] == int(values[0]).to_bytes(8, "little")


@pytest.mark.parametrize("body", [
    bytes(17),                # one query, one byte too long
    bytes(16) + bytes(4),     # second query cut short
    bytes(33),                # two queries and a trailing byte
    b"\x00\x00",              # shorter than one query
    b"",                      # no query at all
], ids=["long-query", "huge-second-query", "trailing", "short", "empty"])
def test_malformed_query_lengths_rejected(body):
    # every query is one 16-byte digest, so the body must be a positive multiple of 16 bytes
    with pytest.raises(ProtocolError):
        opprf.decode_queries(body)
