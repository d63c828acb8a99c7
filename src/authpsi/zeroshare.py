"""Pairwise-seeded zero sharing: per-element shares that cancel across a group.

Every unordered pair of participants holds one shared 16-byte seed; in a
multi-party session the lower-indexed party of each pair draws it and sends
it over (`psin`), and each party keeps its seeds by counterpart. A party's
share of an element, `zs_share(seeds, digests)`, is the XOR of a keyed PRF of
that element under each of its pair seeds. When all group members hold the
same element, each PRF term appears exactly twice across the group, so the
XOR of all shares is zero; any strict subset leaves unpaired terms and its
XOR is indistinguishable from random.

The PRF of x under a 16-byte seed k is the low 64 bits of AES_k(d(x)), where
d(x), the first 16 bytes of x's salted leaf SHA256(0x00 || session id || x),
is the element digest each engine takes from its party's `merkle.Commitment`.
The functions here take those digests as an (n, 2) limb array and hash
nothing: a batch is one AES-128-ECB pass per seed over the digest blocks,
the way the OKVS expands its rows. Values are 64-bit XOR values carried as uint64 arrays, one
entry per element of the batch; shares of a batch are whole-array XORs.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import gf

SEED_BYTES = 16
VALUE_DTYPE = np.dtype("<u8")  # one 64-bit XOR value, little-endian on the wire


def prf(seeds: Iterable[bytes], digests: np.ndarray) -> np.ndarray:
    """Per element digest d, the XOR over seeds of low64(AES_seed(d)); (n,) uint64."""
    acc = np.zeros(digests.shape[0], dtype=VALUE_DTYPE)
    for seed in seeds:
        acc ^= gf.aes(seed, digests)[:, 0]
    return acc


def zs_share(seeds: Iterable[bytes], digests: np.ndarray) -> np.ndarray:
    """A party's share of each element digest: the PRF under all its pair seeds."""
    return prf(seeds, digests)
