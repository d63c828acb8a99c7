"""Zero-sharing: cancellation over the full group, pseudorandomness elsewhere."""

import random

import numpy as np
import pytest

from authpsi import gf, zeroshare


def _setup(n, seed=0):
    rng = random.Random(seed)
    parties = list(range(1, n + 1))
    seeds = {(a, b): rng.randbytes(16) for a in parties for b in parties if a < b}
    return zeroshare.zs_setup(parties, seeds), seeds


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_full_group_cancellation(n):
    keysets, _ = _setup(n, seed=n)
    rng = random.Random(100 + n)
    for _ in range(300):
        x = rng.randbytes(10)
        acc = gf.XOR_ZERO
        for ks in keysets:
            acc = gf.xor_bytes(acc, zeroshare.zs_share(ks, x))
        assert acc == gf.XOR_ZERO


def test_two_party_shares_coincide():
    keysets, seeds = _setup(2, seed=1)
    x = b"common"
    s1 = zeroshare.zs_share(keysets[0], x)
    s2 = zeroshare.zs_share(keysets[1], x)
    assert s1 == s2 == zeroshare.prf(seeds[(1, 2)], x)


def test_key_counts():
    keysets, seeds = _setup(8, seed=2)
    assert len(seeds) == 28  # n(n-1)/2 distinct pair seeds
    for ks in keysets:
        assert len(ks.keys) == 7


def test_missing_pair_seed_rejected():
    parties = [1, 2, 3]
    seeds = {(1, 2): b"\x00" * 16, (1, 3): b"\x01" * 16}  # (2, 3) missing
    with pytest.raises(ValueError):
        zeroshare.zs_setup(parties, seeds)


def test_int_shorthand_for_parties():
    seeds = {(1, 2): b"\x00" * 16, (1, 3): b"\x01" * 16, (2, 3): b"\x02" * 16}
    keysets = zeroshare.zs_setup(3, seeds)
    assert [ks.party_index for ks in keysets] == [1, 2, 3]


def test_strict_subset_xor_is_nonzero():
    keysets, _ = _setup(5, seed=3)
    rng = random.Random(4)
    for _ in range(500):
        x = rng.randbytes(8)
        # drop one party: the terms pairing with it survive
        acc = gf.XOR_ZERO
        for ks in keysets[:-1]:
            acc = gf.xor_bytes(acc, zeroshare.zs_share(ks, x))
        assert acc != gf.XOR_ZERO


def test_subset_xor_bit_frequency():
    # XOR over a strict subset looks uniform: pooled bit bias within 4 sigma
    keysets, _ = _setup(4, seed=5)
    rng = random.Random(6)
    trials = 1000
    ones = 0
    for _ in range(trials):
        x = rng.randbytes(8)
        acc = zeroshare.zs_share(keysets[0], x)
        acc = gf.xor_bytes(acc, zeroshare.zs_share(keysets[2], x))
        ones += sum(bin(byte).count("1") for byte in acc)
    total = trials * 64
    sigma = (0.25 / total) ** 0.5
    assert abs(ones / total - 0.5) < 4 * sigma


def test_share_determinism():
    keysets, _ = _setup(3, seed=7)
    assert zeroshare.zs_share(keysets[1], b"x") == zeroshare.zs_share(keysets[1], b"x")


def test_nonshared_element_xor_survives():
    # an element held by n-1 of n parties leaves the unpaired PRF terms alive
    keysets, seeds = _setup(3, seed=8)
    x = b"partial"
    partial = gf.xor_bytes(zeroshare.zs_share(keysets[0], x), zeroshare.zs_share(keysets[1], x))
    # the surviving terms are exactly the pair PRFs toward party 3
    expect = gf.xor_bytes(zeroshare.prf(seeds[(1, 3)], x), zeroshare.prf(seeds[(2, 3)], x))
    assert partial == expect
    assert partial != gf.XOR_ZERO
