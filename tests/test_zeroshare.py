"""Zero-sharing: cancellation over the full group, pseudorandomness elsewhere."""

import hashlib
import random

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from authpsi import merkle, zeroshare

SALT = b"\x5a" * 16  # the session id the element digests are salted with


def _digests(xs):
    """d(x) of each element: the first 16 bytes of its salted leaf."""
    return merkle.root(xs, SALT).digests


def _setup(n, seed=0):
    """Each party's pair seeds by counterpart, as a `psin` engine keeps them, and all pair seeds."""
    rng = random.Random(seed)
    parties = list(range(1, n + 1))
    seeds = {(a, b): rng.randbytes(16) for a in parties for b in parties if a < b}
    own = [{j: seeds[min(i, j), max(i, j)] for j in parties if j != i} for i in parties]
    return own, seeds


def _xor_shares(party_seeds, xs):
    acc = np.zeros(len(xs), dtype=np.uint64)
    for own in party_seeds:
        acc ^= zeroshare.zs_share(own.values(), _digests(xs))
    return acc


def _reference_prf(seed, x):
    """low64(AES_seed(d(x))), d(x) = SHA256(0x00 || salt || x)[:16], one element at a time."""
    enc = Cipher(algorithms.AES(seed), modes.ECB()).encryptor()
    block = enc.update(hashlib.sha256(b"\x00" + SALT + x).digest()[:16]) + enc.finalize()
    return int.from_bytes(block[:8], "little")


def test_prf_matches_reference():
    rng = random.Random(11)
    seeds = [rng.randbytes(16) for _ in range(3)]
    xs = [rng.randbytes(rng.randrange(0, 40)) for _ in range(200)]
    got = zeroshare.prf(seeds, _digests(xs))
    assert got.dtype == np.uint64 and got.shape == (200,)
    for i, x in enumerate(xs):
        expect = 0
        for seed in seeds:
            expect ^= _reference_prf(seed, x)
        assert int(got[i]) == expect
    assert (zeroshare.prf([], _digests(xs)) == 0).all()
    assert zeroshare.prf(seeds, np.zeros((0, 2), "<u8")).shape == (0,)


def test_prf_does_not_depend_on_batch_composition():
    rng = random.Random(12)
    seeds = [rng.randbytes(16) for _ in range(2)]
    digests = _digests([rng.randbytes(rng.randrange(1, 24)) for _ in range(64)])
    batch = zeroshare.prf(seeds, digests)
    for i in range(64):
        assert batch[i] == zeroshare.prf(seeds, digests[i : i + 1])[0]
    assert (zeroshare.prf(seeds, digests[::-1]) == batch[::-1]).all()


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_full_group_cancellation(n):
    party_seeds, _ = _setup(n, seed=n)
    rng = random.Random(100 + n)
    xs = [rng.randbytes(10) for _ in range(300)]
    assert (_xor_shares(party_seeds, xs) == 0).all()


def test_two_party_shares_coincide():
    party_seeds, seeds = _setup(2, seed=1)
    digests = _digests([b"common"])
    s1 = zeroshare.zs_share(party_seeds[0].values(), digests)
    s2 = zeroshare.zs_share(party_seeds[1].values(), digests)
    assert s1[0] == s2[0] == zeroshare.prf([seeds[(1, 2)]], digests)[0]


def test_key_counts():
    party_seeds, seeds = _setup(8, seed=2)
    assert len(seeds) == 28  # n(n-1)/2 distinct pair seeds
    for own in party_seeds:
        assert len(own) == 7


def test_strict_subset_xor_is_nonzero():
    party_seeds, _ = _setup(5, seed=3)
    rng = random.Random(4)
    xs = [rng.randbytes(8) for _ in range(500)]
    # drop one party: the terms pairing with it survive
    assert (_xor_shares(party_seeds[:-1], xs) != 0).all()


def test_subset_xor_bit_frequency():
    # XOR over a strict subset looks uniform: pooled bit bias within 4 sigma
    party_seeds, _ = _setup(4, seed=5)
    rng = random.Random(6)
    trials = 1000
    xs = [rng.randbytes(8) for _ in range(trials)]
    acc = _xor_shares([party_seeds[0], party_seeds[2]], xs)
    ones = int(np.unpackbits(acc.view(np.uint8)).sum())
    total = trials * 64
    sigma = (0.25 / total) ** 0.5
    assert abs(ones / total - 0.5) < 4 * sigma


def test_share_determinism():
    party_seeds, _ = _setup(3, seed=7)
    digests = _digests([b"x", b"y", b"x"])
    first = zeroshare.zs_share(party_seeds[1].values(), digests)
    assert (first == zeroshare.zs_share(party_seeds[1].values(), digests)).all()
    assert first[0] == first[2] != first[1]


def test_nonshared_element_xor_survives():
    # an element held by n-1 of n parties leaves the unpaired PRF terms alive
    party_seeds, seeds = _setup(3, seed=8)
    xs = [b"partial"]
    partial = _xor_shares(party_seeds[:2], xs)
    # the surviving terms are exactly the pair PRFs toward party 3
    expect = zeroshare.prf([seeds[(1, 3)], seeds[(2, 3)]], _digests(xs))
    assert partial[0] == expect[0] != 0
