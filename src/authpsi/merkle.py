"""Set commitments and per-element inclusion proofs over SHA-256 hash trees.

A committed set is an ordered sequence of byte strings. The tree is 16-ary
and built bottom-up: each level is cut into runs of up to ARITY consecutive
digests, a run of two or more is hashed into one node of the next level, and
a lone trailing digest is promoted unhashed. Leaves and interior nodes are
domain-separated, SHA256(0x00 || salt || x) and SHA256(0x01 || c_1 || ... ||
c_k), so a leaf can never be confused with an interior hash. A tree over n
leaves hashes about n/15 interior nodes, where a binary tree hashes n - 1.

Binding reduces to SHA-256 collision resistance as in a binary tree. A node
preimage's length fixes its child count k (1 + 32k bytes), so two distinct
child sequences of one node collide only through SHA-256; and the set size
in the root fixes the tree's shape (every level's size, and which digests
are grouped or promoted). So for two sets of one size committed to one
digest, descending from the root, the first node whose children differ is
a SHA-256 collision.

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

Per-element proofs are library code that no session sends. A proof carries
its index, leaf hash, committed set size and, per level below the root, the
digests of its node's other children in node order (none where the digest
is promoted). `verify` derives each level's position in the node and the
node's child count from (index, set_size) alone and rejects a level whose
sibling count differs, so a proof re-bound to another index or size folds
through another shape.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"
DIGEST_BYTES = 32
ARITY = 16

ROOT_WIRE_VERSION = 0x02

_RUN_BYTES = ARITY * DIGEST_BYTES  # one node's children, concatenated


def _node(children: bytes) -> bytes:
    """An interior node over its concatenated child digests; a lone digest is promoted."""
    if len(children) == DIGEST_BYTES:
        return children
    return hashlib.sha256(NODE_PREFIX + children).digest()


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
    siblings: tuple[tuple[bytes, ...], ...]  # per level, leaf level first: the other children
    set_size: int


def _levels(elements: Sequence[bytes], salt: bytes) -> list[bytes]:
    """All tree levels bottom-up, each the concatenation of its digests."""
    prefix = LEAF_PREFIX + salt
    levels = [b"".join([hashlib.sha256(prefix + e).digest() for e in elements])]
    while len(levels[-1]) > DIGEST_BYTES:
        cur = levels[-1]
        levels.append(b"".join(_node(cur[i:i + _RUN_BYTES])
                               for i in range(0, len(cur), _RUN_BYTES)))
    return levels


def _shape(index: int, set_size: int) -> list[tuple[int, int]]:
    """Per level below the root, leaf level first: (position in the node, its child count)."""
    shape = []
    while set_size > 1:
        first = index - index % ARITY
        shape.append((index - first, min(ARITY, set_size - first)))
        index, set_size = index // ARITY, -(-set_size // ARITY)
    return shape


def root(elements: Sequence[bytes], salt: bytes = b"") -> MerkleRoot:
    """Commit to an ordered sequence of elements. Deterministic."""
    if not elements:
        raise ValueError("cannot commit to an empty set")
    return MerkleRoot(digest=_levels(elements, salt)[-1], set_size=len(elements))


def commit(elements: Sequence[bytes], salt: bytes = b"") -> tuple[MerkleRoot, np.ndarray]:
    """The root, and each element's digest d(x) as an (n, 2) '<u8' limb array.

    d(x) is the first 16 bytes of the element's salted leaf, read from the
    one tree the root is built from.
    """
    if not elements:
        raise ValueError("cannot commit to an empty set")
    levels = _levels(elements, salt)
    leaves = np.frombuffer(levels[0], dtype="<u8").reshape(-1, 4)
    return MerkleRoot(digest=levels[-1], set_size=len(elements)), leaves[:, :2].copy()


def gen_all_paths(elements: Sequence[bytes], salt: bytes = b"") -> list[InclusionProof]:
    """Inclusion proofs for every element, sharing one tree construction."""
    if not elements:
        raise ValueError("cannot prove membership in an empty set")
    levels = _levels(elements, salt)
    n = len(elements)
    return [_path_from_levels(levels, i, n) for i in range(n)]


def _path_from_levels(levels: list[bytes], index: int, set_size: int) -> InclusionProof:
    siblings = []
    pos = index
    for level, (at, count) in zip(levels, _shape(index, set_size)):
        first = pos - at
        siblings.append(tuple(level[j * DIGEST_BYTES:(j + 1) * DIGEST_BYTES]
                              for j in range(first, first + count) if j != pos))
        pos //= ARITY
    return InclusionProof(
        index=index,
        leaf_hash=levels[0][index * DIGEST_BYTES:(index + 1) * DIGEST_BYTES],
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
    shape = _shape(proof.index, proof.set_size)
    if len(proof.siblings) != len(shape):
        return False
    cur = proof.leaf_hash
    for (at, count), others in zip(shape, proof.siblings):
        if len(others) != count - 1 or any(len(d) != DIGEST_BYTES for d in others):
            return False
        cur = _node(b"".join(others[:at]) + cur + b"".join(others[at:]))
    return cur == root_.digest


def batch_verify(root_: MerkleRoot, proofs: Iterable[InclusionProof]) -> bool:
    """Accept iff every proof verifies; the empty sequence accepts vacuously."""
    return all(verify(root_, p) for p in proofs)
