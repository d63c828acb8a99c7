"""Commitments and inclusion proofs: shape, rejection behavior, root wire format."""

import hashlib
import random

import numpy as np
import pytest

from authpsi import merkle, psi2
from authpsi.errors import ProtocolError


def _elements(n, tag=0):
    return [bytes([tag]) + i.to_bytes(4, "big") for i in range(n)]


def test_single_leaf_root_is_leaf_hash():
    x = b"lonely"
    r = merkle.root([x])
    assert r.digest == hashlib.sha256(b"\x00" + x).digest()
    assert r.set_size == 1


def test_four_leaf_root_structure():
    data = _elements(4)
    h = [merkle.hash_leaf(d) for d in data]
    left = hashlib.sha256(b"\x01" + h[0] + h[1]).digest()
    right = hashlib.sha256(b"\x01" + h[2] + h[3]).digest()
    assert merkle.root(data).digest == hashlib.sha256(b"\x01" + left + right).digest()


def test_permutation_changes_root():
    data = _elements(8)
    swapped = list(data)
    swapped[2], swapped[5] = swapped[5], swapped[2]
    assert merkle.root(data) != merkle.root(swapped)


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        merkle.root([])
    with pytest.raises(ValueError):
        merkle.commit([])
    with pytest.raises(ValueError):
        merkle.gen_all_paths([])


def test_four_leaf_path_for_third_element():
    data = _elements(4)
    h = [merkle.hash_leaf(d) for d in data]
    left = merkle.hash_node(h[0], h[1])
    proof = merkle.gen_all_paths(data)[2]
    assert proof.leaf_hash == h[2]
    assert proof.siblings == ((merkle.RIGHT, h[3]), (merkle.LEFT, left))


def test_single_leaf_path_is_empty():
    proof = merkle.gen_all_paths([b"x"])[0]
    assert proof.siblings == ()
    assert merkle.verify(merkle.root([b"x"]), proof)


def test_out_of_range_index_rejected():
    # index 4 of 4 has the sibling sides of index 3, so only the range check
    # keeps the last leaf's proof from verifying one past the end
    data = _elements(4)
    r, last = merkle.root(data), merkle.gen_all_paths(data)[3]
    for index in (4, -1):
        forged = merkle.InclusionProof(index=index, leaf_hash=last.leaf_hash,
                                       siblings=last.siblings, set_size=last.set_size)
        assert not merkle.verify(r, forged), index


def test_correctness_small_sizes_exhaustive():
    for n in list(range(1, 40)) + [63, 64, 65, 127, 128, 129]:
        data = _elements(n, tag=1)
        r = merkle.root(data)
        leaves = [merkle.hash_leaf(d) for d in data]
        proofs = merkle.gen_all_paths(data)
        for i, p in enumerate(proofs):
            assert p.index == i and p.set_size == n and p.leaf_hash == leaves[i]
            assert len(p.siblings) <= max(1, (n - 1).bit_length())
            assert merkle.verify(r, p), (n, i)


def test_determinism():
    data = _elements(19)
    assert merkle.root(data) == merkle.root(data)
    assert merkle.gen_all_paths(data) == merkle.gen_all_paths(data)


def test_salt_changes_root_and_binds_proofs():
    data = _elements(6)
    plain, salted = merkle.root(data), merkle.root(data, b"s" * 16)
    assert plain != salted
    proof = merkle.gen_all_paths(data, b"s" * 16)[3]
    assert merkle.verify(salted, proof)
    assert not merkle.verify(plain, proof)


def test_single_bit_flip_sweep_rejects():
    # every single-bit flip anywhere in the 37-byte root message fails the
    # gate: it no longer decodes, or it decodes to another commitment
    data = _elements(11, tag=2)
    r = merkle.root(data)
    raw = psi2.encode_root_proofs(r)
    assert psi2.check_peer_commitment(r, psi2.decode_root_proofs(raw))
    for bit in range(8 * len(raw)):
        mutated = bytearray(raw)
        mutated[bit // 8] ^= 1 << (bit % 8)
        try:
            sent = psi2.decode_root_proofs(bytes(mutated))
        except ProtocolError:
            continue
        assert not psi2.check_peer_commitment(r, sent), f"bit {bit} accepted"


def test_leaf_substitution_rejected_bulk():
    rng = random.Random(0)
    data = _elements(64, tag=3)
    r = merkle.root(data)
    proofs = merkle.gen_all_paths(data)
    for _ in range(1000):
        p = proofs[rng.randrange(64)]
        other = rng.randbytes(6)
        forged = merkle.InclusionProof(index=p.index, leaf_hash=merkle.hash_leaf(other),
                                       siblings=p.siblings, set_size=p.set_size)
        assert not merkle.verify(r, forged)


def test_cross_set_proofs_rejected():
    a, b = _elements(16, tag=4), _elements(16, tag=5)
    root_a, root_b = merkle.root(a), merkle.root(b)
    for p in merkle.gen_all_paths(a):
        assert not merkle.verify(root_b, p)
    for p in merkle.gen_all_paths(b):
        assert not merkle.verify(root_a, p)


def test_index_rebinding_rejected():
    # a proof carried under a different index must not verify, even when the
    # sibling chain itself is untouched
    data = _elements(8, tag=6)
    r = merkle.root(data)
    p = merkle.gen_all_paths(data)[2]
    for other in range(8):
        if other == 2:
            continue
        forged = merkle.InclusionProof(index=other, leaf_hash=p.leaf_hash,
                                       siblings=p.siblings, set_size=p.set_size)
        assert not merkle.verify(r, forged), other


def test_batch_verify():
    data = _elements(10, tag=7)
    r = merkle.root(data)
    proofs = merkle.gen_all_paths(data)
    assert merkle.batch_verify(r, proofs)
    assert merkle.batch_verify(r, [])  # vacuous acceptance
    bad = list(proofs)
    flipped = bytearray(bad[4].leaf_hash)
    flipped[0] ^= 1
    bad[4] = merkle.InclusionProof(index=4, leaf_hash=bytes(flipped),
                                   siblings=bad[4].siblings, set_size=10)
    assert not merkle.batch_verify(r, bad)


def test_wire_roundtrips():
    data = _elements(13, tag=8)
    r = merkle.root(data)
    assert merkle.MerkleRoot.from_bytes(r.to_bytes()) == r
    # exact layout: version | set_size | digest
    root_raw = r.to_bytes()
    assert root_raw[0] == 0x01 and len(root_raw) == 37
    assert int.from_bytes(root_raw[1:5], "big") == 13 and root_raw[5:] == r.digest


def test_root_announcing_an_empty_set_is_refused():
    # `root` commits to no empty set, so no decoded root announces one
    empty = merkle.MerkleRoot(digest=merkle.root(_elements(1)).digest, set_size=0)
    with pytest.raises(ValueError, match="empty set"):
        merkle.MerkleRoot.from_bytes(empty.to_bytes())


def test_commit_is_the_root_and_the_leaf_prefixes():
    data, salt = [b"elem-%d" % i for i in range(11)], b"\x5a" * 16
    root_, digests = merkle.commit(data, salt)
    assert root_ == merkle.root(data, salt)
    # pinned: the same root, byte for byte, as before the leaves became the digests
    assert root_.to_bytes().hex() == (
        "010000000bef878417c99a0c7d4cf2642ca459cd172891f0ad3a857e2f454b666d5c982169")
    assert digests.dtype == np.dtype("<u8") and digests.shape == (11, 2)
    assert digests.tobytes() == b"".join(merkle.hash_leaf(x, salt)[:16] for x in data)


def test_common_element_digest_is_shared_within_a_session_only():
    # every party derives the same d(x) of a common element from its own set,
    # whatever its position, and another session id gives another d(x)
    common, session, other = b"common", b"\x01" * 16, b"\x02" * 16
    sets = [[b"a", common], [common, b"b", b"c"], [b"d", b"e", b"f", common]]
    per_party = {merkle.commit(s, session)[1][s.index(common)].tobytes() for s in sets}
    assert len(per_party) == 1
    assert merkle.commit([common], other)[1].tobytes() not in per_party
