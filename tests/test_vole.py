"""Correlation contract: C = A*delta + B, determinism, dealer material."""

import numpy as np
import pytest

from authpsi import gf, vole
from authpsi.errors import ProtocolError


def _dealt_pair(m, sid=b"\x01" * 16, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    recv, send = vole.gen_seed(m, sid, rng=rng)
    vole.complete_receiver_seed(recv, send)
    return recv, send


def test_gen_seed_shape():
    recv, send = vole.gen_seed(8)
    assert recv.session_id == send.session_id
    assert recv.length == send.length == 8
    assert recv.delta is None and send.delta is not None
    assert len(recv.expansion_seed) == 32


def test_gen_seed_rejects_empty():
    with pytest.raises(ValueError):
        vole.gen_seed(0)


def test_fresh_randomness_per_call():
    pairs = [vole.gen_seed(4) for _ in range(20)]
    deltas = {send.delta for _, send in pairs}
    sessions = {send.session_id for _, send in pairs}
    assert len(deltas) == 20
    assert len(sessions) == 20


def test_relation_holds_coordinatewise():
    recv, send = _dealt_pair(1024)
    rc = vole.extend(recv)
    sc = vole.extend(send)
    expect = gf.scalar_mul_vec(sc.delta, rc.a_vec) ^ sc.b_vec
    assert (rc.c_vec == expect).all()
    # spot-check with scalar arithmetic, independently of the batch path
    for i in (0, 1, 511, 1023):
        a = gf.vec_get(rc.a_vec, i)
        b = gf.vec_get(sc.b_vec, i)
        assert gf.vec_get(rc.c_vec, i) == gf.mul(a, sc.delta) ^ b


def test_zero_delta_degenerates():
    recv, send = vole.gen_seed(64, b"\x02" * 16, rng=np.random.default_rng(1))
    send.delta = 0
    vole.complete_receiver_seed(recv, send)
    rc, sc = vole.extend(recv), vole.extend(send)
    assert (rc.c_vec == sc.b_vec).all()


def test_extend_is_deterministic():
    recv, send = _dealt_pair(32)
    r1, r2 = vole.extend(recv), vole.extend(recv)
    assert (r1.a_vec == r2.a_vec).all() and (r1.c_vec == r2.c_vec).all()
    s1, s2 = vole.extend(send), vole.extend(send)
    assert (s1.b_vec == s2.b_vec).all() and s1.delta == s2.delta


def test_extend_requires_completed_receiver_seed():
    recv, _ = vole.gen_seed(8)
    with pytest.raises(ValueError):
        vole.extend(recv)


def test_length_one():
    recv, send = _dealt_pair(1)
    rc, sc = vole.extend(recv), vole.extend(send)
    assert gf.vec_get(rc.c_vec, 0) == gf.mul(gf.vec_get(rc.a_vec, 0), sc.delta) ^ gf.vec_get(sc.b_vec, 0)


def test_marginal_uniformity():
    # pooled bit frequency of A, B, C over many sessions within 4 sigma
    m, sessions = 64, 1000
    counts = {"a": 0.0, "b": 0.0, "c": 0.0}
    total_bits = m * 128 * sessions
    for s in range(sessions):
        recv, send = _dealt_pair(m, sid=s.to_bytes(16, "big"), rng_seed=s)
        rc, sc = vole.extend(recv), vole.extend(send)
        for name, arr in (("a", rc.a_vec), ("b", sc.b_vec), ("c", rc.c_vec)):
            counts[name] += float(np.unpackbits(
                np.frombuffer(gf.vec_to_bytes(arr), dtype=np.uint8)).sum())
    sigma = (0.25 / total_bits) ** 0.5
    for name, ones in counts.items():
        assert abs(ones / total_bits - 0.5) < 4 * sigma, name


def test_dealer_message_roundtrip():
    # material is bare: the receiver's expansion seed and C, the sender's seed and delta
    dealer = vole.VoleDealer(rng=np.random.default_rng(3))
    sid = b"\x03" * 16
    recv_raw = dealer.request(sid, vole.RECEIVER, 77)
    send_raw = dealer.request(sid, vole.SENDER, 77)
    assert len(recv_raw) == 32 + 16 * 77 and len(send_raw) == 32 + 16
    recv = vole.seed_from_material(sid, vole.RECEIVER, 77, recv_raw)
    send = vole.seed_from_material(sid, vole.SENDER, 77, send_raw)
    assert (recv.role, recv.session_id, recv.length) == (vole.RECEIVER, sid, 77)
    assert recv.expansion_seed + recv.c_bytes == recv_raw
    assert send.expansion_seed + gf.to_bytes(send.delta) == send_raw
    # material for the other role fails on its length
    for role, raw in ((vole.RECEIVER, send_raw), (vole.SENDER, recv_raw)):
        with pytest.raises(ProtocolError, match="material length"):
            vole.seed_from_material(sid, role, 77, raw)


def test_dealer_serves_consistent_halves():
    dealer = vole.VoleDealer(rng=np.random.default_rng(7))
    sid = b"\x04" * 16
    recv_seed = vole.seed_from_material(sid, vole.RECEIVER, 128, dealer.request(sid, vole.RECEIVER, 128))
    send_seed = vole.seed_from_material(sid, vole.SENDER, 128, dealer.request(sid, vole.SENDER, 128))
    rc, sc = vole.extend(recv_seed), vole.extend(send_seed)
    expect = gf.scalar_mul_vec(sc.delta, rc.a_vec) ^ sc.b_vec
    assert (rc.c_vec == expect).all()
    # idempotent per session: a repeated request returns the same material
    again = vole.seed_from_material(sid, vole.SENDER, 128, dealer.request(sid, vole.SENDER, 128))
    assert again.delta == sc.delta
