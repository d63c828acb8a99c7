"""Programmable PRF: programmed recovery, pseudorandom elsewhere, session binding."""

import random
import time

import numpy as np
import pytest

from authpsi import gf, merkle, okvs, opprf
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
    session = _session()
    key = b"\x09" * 16
    hint = opprf.opprf_program(xs, ys, session, key, rng=np.random.default_rng(0))
    got = opprf.opprf_query_batch(hint, xs, session, opprf.oprf_eval(key, xs))
    assert got.dtype == np.uint64
    assert (got == ys).all()


def test_batch_query_matches_scalar():
    rng = random.Random(1)
    xs, ys = _points(64, rng)
    session = _session(2)
    key = b"\x0a" * 16
    hint = opprf.opprf_program(xs, ys, session, key, rng=np.random.default_rng(1))
    queries = np.concatenate([xs[:16], _h([rng.randbytes(10) for _ in range(16)])])
    evals = opprf.oprf_eval(key, queries)
    batch = opprf.opprf_query_batch(hint, queries, session, evals)
    assert (batch[:16] == ys[:16]).all()
    # one query at a time gives the same answers as the mixed batch
    for k in range(len(queries)):
        q = queries[k : k + 1]
        ev = opprf.oprf_eval(key, q)
        assert ev[0] == evals[k]
        assert opprf.opprf_query_batch(hint, q, session, ev)[0] == batch[k]


def test_unprogrammed_queries_look_random():
    # 10^5 fresh queries: none hits a programmed value, none repeats
    # (expected collision mass at 64-bit outputs is ~5e-15)
    rng = random.Random(2)
    xs, ys = _points(32, rng)
    session = _session(3)
    key = b"\x0b" * 16
    hint = opprf.opprf_program(xs, ys, session, key, rng=np.random.default_rng(2))
    queries = _h([b"q" + i.to_bytes(4, "big") for i in range(100_000)])
    outs = opprf.opprf_query_batch(hint, queries, session, opprf.oprf_eval(key, queries))
    assert len(np.unique(outs)) == len(queries)
    assert not np.isin(outs, ys).any()


def test_repeated_query_is_deterministic():
    rng = random.Random(3)
    xs, ys = _points(8, rng)
    session = _session(4)
    key = b"\x0c" * 16
    hint = opprf.opprf_program(xs, ys, session, key, rng=np.random.default_rng(3))
    q = _h([b"again", b"again"])
    evals = opprf.oprf_eval(key, q)
    assert evals[0] == evals[1]
    first, second = opprf.opprf_query_batch(hint, q, session, evals)
    assert first == second == opprf.opprf_query_batch(hint, q[:1], session, evals[:1])[0]


def test_empty_point_set():
    session = _session(5)
    key = b"\x0d" * 16
    hint = opprf.opprf_program(np.zeros((0, 2), "<u8"), np.zeros(0, dtype=np.uint64), session, key,
                               rng=np.random.default_rng(4))
    rng = random.Random(5)
    outs = opprf.opprf_query_batch(hint, _h([rng.randbytes(8) for _ in range(50)]), session,
                                   np.zeros(50, dtype=np.uint64))
    assert len(np.unique(outs)) == 50


def test_session_mismatch_rejected():
    rng = random.Random(6)
    hint = opprf.opprf_program(*_points(4, rng), _session(6), b"\x0e" * 16,
                               rng=np.random.default_rng(5))
    with pytest.raises(ValueError):
        opprf.opprf_query_batch(hint, _h([b"q"]), _session(7), np.zeros(1, dtype=np.uint64))


def test_duplicate_points_rejected():
    with pytest.raises(okvs.DuplicateKeyError):
        opprf.opprf_program(_h([b"x", b"x"]), np.array([0, 1], dtype=np.uint64), _session(8),
                            b"\x0f" * 16, np.random.default_rng(8))


def test_fresh_key_changes_hint():
    rng = random.Random(7)
    xs, ys = _points(16, rng)
    dealer = opprf.OprfDealer(rng=np.random.default_rng(6))
    k1, k2 = dealer.key(_session(9)), dealer.key(_session(10))
    assert k1 != k2
    assert (dealer.evaluate(_session(9), xs) == opprf.oprf_eval(k1, xs)).all()
    # alike rngs give alike row seeds, so the two hints share their rows
    h1 = opprf.opprf_program(xs, ys, _session(9), k1, rng=np.random.default_rng(7))
    h2 = opprf.opprf_program(xs, ys, _session(10), k2, rng=np.random.default_rng(7))
    assert h1.okvs_table.params == h2.okvs_table.params
    assert h1.okvs_table.to_bytes() != h2.okvs_table.to_bytes()


def test_hint_bytes_look_uniform():
    # with fresh OPRF keys the hint leaks nothing visibly non-uniform
    rng = random.Random(8)
    nprng = np.random.default_rng(8)
    trials, ones, total = 200, 0, 0
    for t in range(trials):
        hint = opprf.opprf_program(*_points(16, rng), _session(11), nprng.bytes(16), rng=nprng)
        raw = gf.vec_to_bytes(hint.okvs_table.values)
        ones += sum(bin(b).count("1") for b in raw)
        total += len(raw) * 8
    sigma = (0.25 / total) ** 0.5
    assert abs(ones / total - 0.5) < 4 * sigma


def test_wire_roundtrip():
    rng = random.Random(9)
    hint = opprf.opprf_program(*_points(8, rng), _session(12), b"\x10" * 16,
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
    queries = _h([b"a", b"bb", b"ccc"])
    raw = opprf.encode_eval_request(sid, queries)
    assert len(raw) == 1 + 16 + 4 + 16 * 3  # a query is its 16-byte digest
    sub, s, qs = opprf.decode_dealer_payload(raw)
    assert sub == opprf.OPRF_EVAL_REQUEST and (qs == queries).all()
    values = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
    raw = opprf.encode_eval_response(sid, values)
    assert len(raw) == 1 + 16 + 4 + 8 * 3
    assert raw[-8:] == b"\xff" * 8 and raw[-16:-8] == (1).to_bytes(8, "little")
    sub, s, vs = opprf.decode_dealer_payload(raw)
    assert sub == opprf.OPRF_EVAL_RESPONSE and (vs == values).all()


@pytest.mark.parametrize("count", [2_000_000, 2**32 - 1])
def test_oversized_query_count_rejected_at_once(count):
    # a 21-byte request whose count claims far more queries than it carries
    raw = bytes([opprf.OPRF_EVAL_REQUEST]) + _session(14) + count.to_bytes(4, "big")
    assert len(raw) == 21
    t0 = time.perf_counter()
    with pytest.raises(ProtocolError):
        opprf.decode_dealer_payload(raw)
    assert time.perf_counter() - t0 < 0.05


@pytest.mark.parametrize("body", [
    (1).to_bytes(4, "big") + bytes(32),                             # one query, two digests long
    (2).to_bytes(4, "big") + bytes(16) + (2**32 - 1).to_bytes(4, "big"),  # second query cut short
    (1).to_bytes(4, "big") + bytes(17),                             # trailing byte
    b"\x00\x00",                                                    # truncated count
], ids=["long-query", "huge-second-query", "trailing", "short-count"])
def test_malformed_query_lengths_rejected(body):
    # every query is one 16-byte digest, so the body must be 4 + 16 * count bytes
    with pytest.raises(ProtocolError):
        opprf.decode_dealer_payload(bytes([opprf.OPRF_EVAL_REQUEST]) + _session(15) + body)
