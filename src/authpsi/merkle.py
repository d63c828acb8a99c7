"""Set commitments and per-element inclusion proofs over SHA-256 hash trees.

A committed set is an ordered sequence of byte strings. The tree is the
left-balanced binary tree used by transparency logs: an internal node over a
range of leaves splits at the largest power of two strictly below the range
size, and a lone node is promoted unhashed to the next level. Leaves and
internal nodes are domain-separated (0x00 / 0x01 prefixes) so a leaf can never
be confused with an interior hash.

Leaves may carry a per-session salt, so the same set committed for two
sessions gives two unrelated roots; the salt must be fixed before the root is
announced. The protocol engines exchange only roots (`MerkleRoot.to_bytes`).

The salted leaf is also the element digest of a session: `commit` returns
d(x), the first 16 bytes of SHA256(0x00 || salt || x), next to the root, so
a party hashes each of its elements once. This is sound on three counts.
The tree still hashes all 32 bytes of every leaf, so binding is unchanged.
d(x) is a random-oracle digest truncated to 128 bits, and the salt is the
session id, so every party of a session derives the same d(x) for a common
element, and another session gives an unrelated one. An ideal-OPRF dealer
that sees d(x) sees a session-salted leaf prefix; knowing the session id, it
can test a guessed element against it, exactly as it could test an unsalted
digest.

Per-element proofs are library code that no session sends. They are
verified statelessly: a proof carries its index, leaf hash, sibling chain,
and the committed set size. `verify` recomputes the sibling-side pattern
from (index, set_size) and rejects a proof whose recorded sides disagree, so
re-binding a proof to a different index is caught even when the hash chain
alone would fold to the same digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"
DIGEST_BYTES = 32

ROOT_WIRE_VERSION = 0x01

LEFT = 0x00   # sibling sits to the left of the running hash
RIGHT = 0x01  # sibling sits to the right


def hash_leaf(element: bytes, salt: bytes = b"") -> bytes:
    return hashlib.sha256(LEAF_PREFIX + salt + element).digest()


def hash_node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(NODE_PREFIX + left + right).digest()


@dataclass(frozen=True)
class MerkleRoot:
    digest: bytes
    set_size: int

    def to_bytes(self) -> bytes:
        return bytes([ROOT_WIRE_VERSION]) + self.set_size.to_bytes(4, "big") + self.digest

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MerkleRoot":
        if len(raw) != 1 + 4 + DIGEST_BYTES:
            raise ValueError("bad root encoding length")
        if raw[0] != ROOT_WIRE_VERSION:
            raise ValueError("unknown root encoding version")
        set_size = int.from_bytes(raw[1:5], "big")
        if set_size == 0:
            raise ValueError("root announces an empty set")  # `root` commits to none
        return cls(digest=raw[5:], set_size=set_size)


@dataclass(frozen=True)
class InclusionProof:
    index: int
    leaf_hash: bytes
    siblings: tuple[tuple[int, bytes], ...]  # (side, digest), leaf level first
    set_size: int


def _levels(leaves: list[bytes]) -> list[list[bytes]]:
    """All tree levels bottom-up; a lone trailing node is promoted unhashed."""
    levels = [leaves]
    while len(levels[-1]) > 1:
        cur = levels[-1]
        nxt = [hash_node(cur[i], cur[i + 1]) for i in range(0, len(cur) - 1, 2)]
        if len(cur) % 2:
            nxt.append(cur[-1])
        levels.append(nxt)
    return levels


def expected_sides(index: int, set_size: int) -> tuple[int, ...]:
    """Sibling-side pattern for a leaf position, leaf level first."""
    sides = []
    size = set_size
    idx = index
    while size > 1:
        k = 1
        while k * 2 < size:
            k *= 2
        if idx < k:
            sides.append(RIGHT)
            size = k
        else:
            sides.append(LEFT)
            idx -= k
            size -= k
    sides.reverse()
    return tuple(sides)


def _tree(elements: Sequence[bytes], salt: bytes) -> list[list[bytes]]:
    return _levels([hash_leaf(e, salt) for e in elements])


def root(elements: Sequence[bytes], salt: bytes = b"") -> MerkleRoot:
    """Commit to an ordered sequence of elements. Deterministic."""
    if not elements:
        raise ValueError("cannot commit to an empty set")
    return MerkleRoot(digest=_tree(elements, salt)[-1][0], set_size=len(elements))


def commit(elements: Sequence[bytes], salt: bytes = b"") -> tuple[MerkleRoot, np.ndarray]:
    """The root, and each element's digest d(x) as an (n, 2) '<u8' limb array.

    d(x) is the first 16 bytes of the element's salted leaf, read from the
    one tree the root is built from.
    """
    if not elements:
        raise ValueError("cannot commit to an empty set")
    levels = _tree(elements, salt)
    leaves = np.frombuffer(b"".join(levels[0]), dtype="<u8").reshape(-1, 4)
    return MerkleRoot(digest=levels[-1][0], set_size=len(elements)), leaves[:, :2].copy()


def gen_all_paths(elements: Sequence[bytes], salt: bytes = b"") -> list[InclusionProof]:
    """Inclusion proofs for every element, sharing one tree construction."""
    if not elements:
        raise ValueError("cannot prove membership in an empty set")
    levels = _tree(elements, salt)
    n = len(elements)
    return [_path_from_levels(levels, i, n) for i in range(n)]


def _path_from_levels(levels: list[list[bytes]], index: int, set_size: int) -> InclusionProof:
    siblings = []
    pos = index
    for level in levels[:-1]:
        sib = pos ^ 1
        if sib < len(level):
            side = LEFT if sib < pos else RIGHT
            siblings.append((side, level[sib]))
        # else: lone node promoted, no sibling at this level
        pos //= 2
    return InclusionProof(
        index=index,
        leaf_hash=levels[0][index],
        siblings=tuple(siblings),
        set_size=set_size,
    )


def verify(root_: MerkleRoot, proof: InclusionProof) -> bool:
    """Accept iff the proof folds to the committed digest for its claimed position.

    Rejection is a value, not an error; malformed structure rejects too.
    """
    if proof.set_size != root_.set_size:
        return False
    if not 0 <= proof.index < proof.set_size:
        return False
    if len(proof.leaf_hash) != DIGEST_BYTES:
        return False
    sides = tuple(side for side, _ in proof.siblings)
    if sides != expected_sides(proof.index, proof.set_size):
        return False
    cur = proof.leaf_hash
    for side, digest in proof.siblings:
        if len(digest) != DIGEST_BYTES:
            return False
        cur = hash_node(digest, cur) if side == LEFT else hash_node(cur, digest)
    return cur == root_.digest


def batch_verify(root_: MerkleRoot, proofs: Iterable[InclusionProof]) -> bool:
    """Accept iff every proof verifies; the empty sequence accepts vacuously."""
    return all(verify(root_, p) for p in proofs)
