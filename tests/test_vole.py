"""Correlation contract: C = A*delta + B, determinism, dealer material."""

import numpy as np
import pytest

from authpsi import gf, vole
from authpsi.errors import ProtocolError
from test_gf import mul_oracle, vec_get


def _dealt_pair(m, rng_seed=0):
    """Both halves of one correlation of length m, drawn from a fixed-seed rng."""
    recv_raw, send_raw = vole.materials(m, np.random.default_rng(rng_seed))
    return vole.extend(True, m, recv_raw), vole.extend(False, m, send_raw)


def test_fresh_randomness_per_call():
    rng = np.random.default_rng(5)
    draws = [vole.materials(4, rng) for _ in range(20)]
    assert len({send[32:] for _, send in draws}) == 20  # delta
    assert len({recv[:32] for recv, _ in draws} | {send[:32] for _, send in draws}) == 40


def test_relation_holds_coordinatewise():
    rc, sc = _dealt_pair(1024)
    expect = gf.scalar_mul_vec(sc.delta, rc.a_vec) ^ sc.b_vec
    assert (rc.c_vec == expect).all()
    # spot-check on the scalar reference, independently of the batch path
    delta = int.from_bytes(sc.delta, "little")
    for i in (0, 1, 511, 1023):
        assert vec_get(rc.c_vec, i) == mul_oracle(vec_get(rc.a_vec, i), delta) ^ vec_get(sc.b_vec, i)


def test_zero_delta_degenerates():
    a_seed, b_seed = b"\x41" * 32, b"\x42" * 32
    c_bytes = vole.complete_receiver_seed(a_seed, b_seed, bytes(16), 64)
    rc = vole.extend(True, 64, a_seed + c_bytes)
    sc = vole.extend(False, 64, b_seed + bytes(16))
    assert sc.delta == bytes(16)
    assert (rc.c_vec == sc.b_vec).all()


def test_extend_is_deterministic():
    recv_raw, send_raw = vole.materials(32, np.random.default_rng(0))
    r1, r2 = vole.extend(True, 32, recv_raw), vole.extend(True, 32, recv_raw)
    assert (r1.a_vec == r2.a_vec).all() and (r1.c_vec == r2.c_vec).all()
    s1, s2 = vole.extend(False, 32, send_raw), vole.extend(False, 32, send_raw)
    assert (s1.b_vec == s2.b_vec).all() and s1.delta == s2.delta


def test_extend_requires_completed_receiver_seed():
    # the receiver's seed without the dealer's C is not material
    recv_raw, _ = vole.materials(8, np.random.default_rng(2))
    with pytest.raises(ProtocolError, match="receiver material length"):
        vole.extend(True, 8, recv_raw[:32])


def test_length_one():
    rc, sc = _dealt_pair(1)
    delta = int.from_bytes(sc.delta, "little")
    assert vec_get(rc.c_vec, 0) == mul_oracle(vec_get(rc.a_vec, 0), delta) ^ vec_get(sc.b_vec, 0)


def test_marginal_uniformity():
    # pooled bit frequency of A, B, C over many sessions within 4 sigma
    m, sessions = 64, 1000
    counts = {"a": 0.0, "b": 0.0, "c": 0.0}
    total_bits = m * 128 * sessions
    for s in range(sessions):
        rc, sc = _dealt_pair(m, rng_seed=s)
        for name, arr in (("a", rc.a_vec), ("b", sc.b_vec), ("c", rc.c_vec)):
            counts[name] += float(np.unpackbits(
                np.frombuffer(gf.vec_to_bytes(arr), dtype=np.uint8)).sum())
    sigma = (0.25 / total_bits) ** 0.5
    for name, ones in counts.items():
        assert abs(ones / total_bits - 0.5) < 4 * sigma, name


def test_dealer_message_roundtrip():
    # material is bare: the receiver's expansion seed and C, the sender's seed and delta
    recv_raw, send_raw = vole.materials(77, np.random.default_rng(3))
    assert len(recv_raw) == 32 + 16 * 77 and len(send_raw) == 32 + 16
    rc, sc = vole.extend(True, 77, recv_raw), vole.extend(False, 77, send_raw)
    assert (rc.a_vec == vole.expand_vector(recv_raw[:32], 77)).all()
    assert gf.vec_to_bytes(rc.c_vec) == recv_raw[32:]
    assert (sc.b_vec == vole.expand_vector(send_raw[:32], 77)).all()
    assert sc.delta == send_raw[32:]
    # material for the other role, or the receiver's for another length, fails on its length
    for receiver, length, raw in ((True, 77, send_raw), (False, 77, recv_raw),
                                  (True, 76, recv_raw), (True, 78, recv_raw)):
        with pytest.raises(ProtocolError, match="material length"):
            vole.extend(receiver, length, raw)


def test_dealer_serves_consistent_halves():
    rng = np.random.default_rng(7)
    recv_raw, send_raw = vole.materials(128, rng)
    rc, sc = vole.extend(True, 128, recv_raw), vole.extend(False, 128, send_raw)
    expect = gf.scalar_mul_vec(sc.delta, rc.a_vec) ^ sc.b_vec
    assert (rc.c_vec == expect).all()
    # each call draws afresh: `harness.DealerService` calls once per session
    again = vole.extend(False, 128, vole.materials(128, rng)[1])
    assert again.delta != sc.delta


def test_materials_draw_the_a_seed_the_b_seed_then_delta():
    recv_raw, send_raw = vole.materials(5, np.random.default_rng(9))
    drawn = np.random.default_rng(9).bytes(32 + 32 + 16)
    assert (recv_raw[:32], send_raw) == (drawn[:32], drawn[32:])
    assert recv_raw[32:] == vole.complete_receiver_seed(
        drawn[:32], drawn[32:64], drawn[64:], 5)
