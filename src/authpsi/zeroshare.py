"""Pairwise-seeded zero sharing: per-element shares that cancel across a group.

Every unordered pair of participants holds one shared 16-byte seed. A party's
share of an element is the XOR of a keyed PRF of that element under each of
its pair seeds. When all group members hold the same element, each PRF term
appears exactly twice across the group, so the XOR of all shares is zero; any
strict subset leaves unpaired terms and its XOR is indistinguishable from
random.

The PRF is keyed BLAKE2b truncated to 8 bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import gf

SEED_BYTES = 16


@dataclass(frozen=True)
class ZsKeySet:
    party_index: int
    keys: dict[int, bytes]  # counterpart index -> shared pair seed


def prf(seed: bytes, x: bytes) -> bytes:
    """Keyed PRF, 64-bit output."""
    return hashlib.blake2b(x, key=seed, digest_size=gf.XOR_BYTES).digest()


def zs_setup(parties, pair_seeds: dict[tuple[int, int], bytes]) -> list[ZsKeySet]:
    """Assemble each participant's key set from exchanged pair seeds.

    `parties` is a participant index list, or an int n meaning parties 1..n.
    """
    if isinstance(parties, int):
        if parties < 2:
            raise ValueError("zero sharing needs at least two parties")
        parties = list(range(1, parties + 1))
    if len(parties) < 2:
        raise ValueError("zero sharing needs at least two parties")
    sets = []
    for i in parties:
        keys = {}
        for j in parties:
            if j == i:
                continue
            pair = (min(i, j), max(i, j))
            seed = pair_seeds.get(pair)
            if seed is None:
                raise ValueError(f"missing pair seed for {pair}")
            keys[j] = seed
        sets.append(ZsKeySet(party_index=i, keys=keys))
    return sets


def zs_share(keys: ZsKeySet, x: bytes) -> bytes:
    """This party's share of x: XOR of the PRF of x under every pair seed."""
    acc = gf.XOR_ZERO
    for seed in keys.keys.values():
        acc = gf.xor_bytes(acc, prf(seed, x))
    return acc
