"""Programmable PRF: programmed recovery, pseudorandom elsewhere, session binding."""

import random

import numpy as np
import pytest

from authpsi import gf, okvs, opprf


def _points(m, rng):
    xs = set()
    while len(xs) < m:
        xs.add(rng.randbytes(10))
    return [(x, rng.randbytes(8)) for x in sorted(xs)]


def _session(tag=1):
    return bytes([tag]) * 16


def test_programmed_points_recovered():
    rng = random.Random(0)
    points = _points(256, rng)
    session = _session()
    key = b"\x09" * 16
    hint = opprf.opprf_program(points, session, key, rng=np.random.default_rng(0))
    xs = [x for x, _ in points]
    got = opprf.opprf_query_batch(hint, xs, session, [opprf.oprf_eval(key, x) for x in xs])
    assert got == [y for _, y in points]


def test_batch_query_matches_scalar():
    rng = random.Random(1)
    points = _points(64, rng)
    session = _session(2)
    key = b"\x0a" * 16
    hint = opprf.opprf_program(points, session, key, rng=np.random.default_rng(1))
    queries = [x for x, _ in points[:16]] + [rng.randbytes(10) for _ in range(16)]
    evals = [opprf.oprf_eval(key, q) for q in queries]
    batch = opprf.opprf_query_batch(hint, queries, session, evals)
    # one query at a time gives the same answers as the mixed batch
    for q, ev, got in zip(queries, evals, batch):
        assert [got] == opprf.opprf_query_batch(hint, [q], session, [ev])


def test_unprogrammed_queries_look_random():
    # 10^5 fresh queries: none hits a programmed value, none repeats
    # (expected collision mass at 64-bit outputs is ~5e-15)
    rng = random.Random(2)
    points = _points(32, rng)
    session = _session(3)
    key = b"\x0b" * 16
    hint = opprf.opprf_program(points, session, key, rng=np.random.default_rng(2))
    programmed = {y for _, y in points}
    queries = [b"q" + i.to_bytes(4, "big") for i in range(100_000)]
    evals = [opprf.oprf_eval(key, q) for q in queries]
    outs = opprf.opprf_query_batch(hint, queries, session, evals)
    seen = set(outs)
    assert len(seen) == len(queries)
    assert not (seen & programmed)


def test_repeated_query_is_deterministic():
    rng = random.Random(3)
    points = _points(8, rng)
    session = _session(4)
    key = b"\x0c" * 16
    hint = opprf.opprf_program(points, session, key, rng=np.random.default_rng(3))
    q = b"again"
    ev = opprf.oprf_eval(key, q)
    first, second = opprf.opprf_query_batch(hint, [q, q], session, [ev, ev])
    assert first == second == opprf.opprf_query_batch(hint, [q], session, [ev])[0]


def test_empty_point_set():
    session = _session(5)
    key = b"\x0d" * 16
    hint = opprf.opprf_program([], session, key, rng=np.random.default_rng(4))
    rng = random.Random(5)
    outs = opprf.opprf_query_batch(hint, [rng.randbytes(8) for _ in range(50)], session,
                                   [b"\x00" * 8] * 50)
    assert len(set(outs)) == 50


def test_session_mismatch_rejected():
    rng = random.Random(6)
    hint = opprf.opprf_program(_points(4, rng), _session(6), b"\x0e" * 16,
                               rng=np.random.default_rng(5))
    with pytest.raises(ValueError):
        opprf.opprf_query_batch(hint, [b"q"], _session(7), [b"\x00" * 8])


def test_duplicate_points_rejected():
    with pytest.raises(okvs.DuplicateKeyError):
        opprf.opprf_program([(b"x", b"\x00" * 8), (b"x", b"\x01" * 8)], _session(8), b"\x0f" * 16)


def test_fresh_key_changes_hint():
    rng = random.Random(7)
    points = _points(16, rng)
    dealer = opprf.OprfDealer(rng=np.random.default_rng(6))
    k1, k2 = dealer.key(_session(9)), dealer.key(_session(10))
    assert k1 != k2
    h1 = opprf.opprf_program(points, _session(9), k1, rng=np.random.default_rng(7),
                             row_seed=b"\x01" * 16)
    h2 = opprf.opprf_program(points, _session(10), k2, rng=np.random.default_rng(7),
                             row_seed=b"\x01" * 16)
    assert h1.okvs_table.to_bytes() != h2.okvs_table.to_bytes()


def test_hint_bytes_look_uniform():
    # with fresh OPRF keys the hint leaks nothing visibly non-uniform
    rng = random.Random(8)
    nprng = np.random.default_rng(8)
    trials, ones, total = 200, 0, 0
    for t in range(trials):
        points = _points(16, rng)
        hint = opprf.opprf_program(points, _session(11), nprng.bytes(16), rng=nprng)
        raw = gf.vec_to_bytes(hint.okvs_table.values)
        ones += sum(bin(b).count("1") for b in raw)
        total += len(raw) * 8
    sigma = (0.25 / total) ** 0.5
    assert abs(ones / total - 0.5) < 4 * sigma


def test_wire_roundtrip():
    rng = random.Random(9)
    hint = opprf.opprf_program(_points(8, rng), _session(12), b"\x10" * 16,
                               rng=np.random.default_rng(9))
    back = opprf.OpprfHint.from_bytes(hint.to_bytes())
    assert back.oprf_session == hint.oprf_session
    assert back.okvs_table.to_bytes() == hint.okvs_table.to_bytes()


def test_dealer_payload_roundtrips():
    sid = _session(13)
    sub, s, body = opprf.decode_dealer_payload(opprf.encode_key_request(sid))
    assert (sub, s) == (opprf.OPRF_KEY_REQUEST, sid)
    sub, s, key = opprf.decode_dealer_payload(opprf.encode_key_response(sid, b"\x11" * 16))
    assert (sub, key) == (opprf.OPRF_KEY_RESPONSE, b"\x11" * 16)
    queries = [b"a", b"bb", b"ccc"]
    sub, s, qs = opprf.decode_dealer_payload(opprf.encode_eval_request(sid, queries))
    assert qs == queries
    values = [bytes([i]) * 8 for i in range(3)]
    sub, s, vs = opprf.decode_dealer_payload(opprf.encode_eval_response(sid, values))
    assert vs == values
