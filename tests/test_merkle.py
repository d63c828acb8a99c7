"""Commitments and inclusion proofs: shape, rejection behavior, root wire format."""

import hashlib
import random

import numpy as np
import pytest

from authpsi import merkle, psi2
from authpsi.errors import ProtocolError


def _leaf(element, salt=b""):
    return hashlib.sha256(b"\x00" + salt + element).digest()


def _node(*children):
    return hashlib.sha256(b"\x01" + b"".join(children)).digest()


def _elements(n, tag=0):
    return [bytes([tag]) + i.to_bytes(4, "big") for i in range(n)]


def test_single_leaf_root_is_leaf_hash():
    x = b"lonely"
    r = merkle.root([x]).root
    assert r.digest == hashlib.sha256(b"\x00" + x).digest()
    assert r.set_size == 1


def test_root_structure_at_16_17_and_257_leaves():
    h = [_leaf(d) for d in _elements(257)]
    # one full node; then a 17th leaf promoted to the root node
    assert merkle.root(_elements(16)).root.digest == _node(*h[:16])
    assert merkle.root(_elements(17)).root.digest == _node(_node(*h[:16]), h[16])
    # sixteen full nodes, and the last leaf promoted twice
    level1 = [_node(*h[i:i + 16]) for i in range(0, 256, 16)] + [h[256]]
    assert merkle.root(_elements(257)).root.digest == _node(_node(*level1[:16]), h[256])


def test_permutation_changes_root():
    data = _elements(8)
    swapped = list(data)
    swapped[2], swapped[5] = swapped[5], swapped[2]
    assert merkle.root(data).root != merkle.root(swapped).root


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        merkle.root([])
    with pytest.raises(ValueError):
        merkle.gen_all_paths([])


def test_paths_carry_each_level_s_other_children_in_node_order():
    h = [_leaf(d) for d in _elements(257)]
    level1 = [_node(*h[i:i + 16]) for i in range(0, 256, 16)] + [h[256]]
    top = _node(*level1[:16])
    cases = {
        (16, 2): ((*h[:2], *h[3:16]),),
        (17, 2): ((*h[:2], *h[3:16]), (h[16],)),
        (17, 16): ((), (_node(*h[:16]),)),
        (257, 17): ((h[16], *h[18:32]), (level1[0], *level1[2:16]), (h[256],)),
        (257, 256): ((), (), (top,)),
    }
    for (n, index), siblings in cases.items():
        data = _elements(n)
        proof = merkle.gen_all_paths(data)[index]
        assert proof.leaf_hash == h[index]
        assert proof.siblings == siblings, (n, index)
        assert merkle.verify(merkle.root(data).root, proof)


def test_single_leaf_path_is_empty():
    proof = merkle.gen_all_paths([b"x"])[0]
    assert proof.siblings == ()
    assert merkle.verify(merkle.root([b"x"]).root, proof)


def test_out_of_range_index_rejected():
    # index 4 of 4 sits after the last leaf's three siblings, as index 3 does,
    # so only the range check keeps that proof from verifying one past the end
    data = _elements(4)
    r, last = merkle.root(data).root, merkle.gen_all_paths(data)[3]
    for index in (4, -1):
        forged = merkle.InclusionProof(index=index, leaf_hash=last.leaf_hash,
                                       siblings=last.siblings, set_size=last.set_size)
        assert not merkle.verify(r, forged), index


def test_correctness_small_sizes_exhaustive():
    for n in list(range(1, 40)) + [255, 256, 257, 272, 273]:
        data = _elements(n, tag=1)
        r = merkle.root(data).root
        leaves = [_leaf(d) for d in data]
        proofs = merkle.gen_all_paths(data)
        for i, p in enumerate(proofs):
            assert p.index == i and p.set_size == n and p.leaf_hash == leaves[i]
            # one level per hex digit of n - 1, at most 15 other children each
            assert len(p.siblings) == ((n - 1).bit_length() + 3) // 4
            assert all(len(level) < 16 for level in p.siblings)
            assert merkle.verify(r, p), (n, i)


def test_determinism():
    data = _elements(19)
    assert merkle.root(data).root == merkle.root(data).root
    assert merkle.gen_all_paths(data) == merkle.gen_all_paths(data)


def test_salt_changes_root_and_binds_proofs():
    data = _elements(6)
    plain, salted = merkle.root(data).root, merkle.root(data, b"s" * 16).root
    assert plain != salted
    proof = merkle.gen_all_paths(data, b"s" * 16)[3]
    assert merkle.verify(salted, proof)
    assert not merkle.verify(plain, proof)


def test_single_bit_flip_sweep_rejects():
    # every single-bit flip anywhere in the 37-byte root message fails the
    # gate: it no longer decodes, or it decodes to another commitment
    data = _elements(11, tag=2)
    r = merkle.root(data).root
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
    r = merkle.root(data).root
    proofs = merkle.gen_all_paths(data)
    for _ in range(1000):
        p = proofs[rng.randrange(64)]
        other = rng.randbytes(6)
        forged = merkle.InclusionProof(index=p.index, leaf_hash=_leaf(other),
                                       siblings=p.siblings, set_size=p.set_size)
        assert not merkle.verify(r, forged)


def test_cross_set_proofs_rejected():
    a, b = _elements(16, tag=4), _elements(16, tag=5)
    root_a, root_b = merkle.root(a).root, merkle.root(b).root
    for p in merkle.gen_all_paths(a):
        assert not merkle.verify(root_b, p)
    for p in merkle.gen_all_paths(b):
        assert not merkle.verify(root_a, p)


def test_index_rebinding_rejected():
    # a proof carried under a different index must not verify, even when the
    # sibling chain itself is untouched
    data = _elements(8, tag=6)
    r = merkle.root(data).root
    p = merkle.gen_all_paths(data)[2]
    for other in range(8):
        if other == 2:
            continue
        forged = merkle.InclusionProof(index=other, leaf_hash=p.leaf_hash,
                                       siblings=p.siblings, set_size=p.set_size)
        assert not merkle.verify(r, forged), other


def test_proof_of_another_shape_rejected():
    # the proof's levels must be the ones (index, set_size) give: one per
    # level, each with exactly the node's other children
    data = _elements(17, tag=9)
    r, p = merkle.root(data).root, merkle.gen_all_paths(data)[2]
    first, top = p.siblings
    for siblings in ((first,), (first, top, ()), (first[:-1], (first[-1], *top)),
                     (first + top, ()), (first, top + top)):
        forged = merkle.InclusionProof(index=2, leaf_hash=p.leaf_hash,
                                       siblings=siblings, set_size=17)
        assert not merkle.verify(r, forged), siblings
    # the count check is what stops this one: leaf 16 is promoted at the leaf
    # level, but hashing it there with the first node's digest as the claimed
    # leaf, and promoting at the top, folds to the root
    first_node = _node(*(_leaf(d) for d in data[:16]))
    forged = merkle.InclusionProof(index=16, leaf_hash=first_node,
                                   siblings=((_leaf(data[16]),), ()), set_size=17)
    assert not merkle.verify(r, forged)


def test_batch_verify():
    data = _elements(10, tag=7)
    r = merkle.root(data).root
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
    r = merkle.root(data).root
    assert merkle.MerkleRoot.from_bytes(r.to_bytes()) == r
    # exact layout: version | set_size | digest
    root_raw = r.to_bytes()
    assert root_raw[0] == 0x02 and len(root_raw) == 37
    assert int.from_bytes(root_raw[1:5], "big") == 13 and root_raw[5:] == r.digest


def test_root_announcing_an_empty_set_is_refused():
    # `root` commits to no empty set, so no decoded root announces one
    empty = merkle.MerkleRoot(digest=merkle.root(_elements(1)).root.digest, set_size=0)
    with pytest.raises(ValueError, match="empty set"):
        merkle.MerkleRoot.from_bytes(empty.to_bytes())


def test_commit_is_the_root_and_the_leaf_prefixes():
    data, salt = [b"elem-%d" % i for i in range(11)], b"\x5a" * 16
    commitment = merkle.root(data, salt)
    assert commitment.elements == tuple(data) and commitment.salt == salt
    # pinned: version 2, 11 leaves, and one node over the 11 salted leaves
    assert commitment.root.to_bytes().hex() == (
        "020000000b48600270ff89c09d29a04eb955bc710d0a86066b711a57a27c5a91ee81911552")
    digests = commitment.digests
    assert digests.dtype == np.dtype("<u8") and digests.shape == (11, 2)
    assert digests.tobytes() == b"".join(_leaf(x, salt)[:16] for x in data)


def test_common_element_digest_is_shared_within_a_session_only():
    # every party derives the same d(x) of a common element from its own set,
    # whatever its position, and another session id gives another d(x)
    common, session, other = b"common", b"\x01" * 16, b"\x02" * 16
    sets = [[b"a", common], [common, b"b", b"c"], [b"d", b"e", b"f", common]]
    per_party = {merkle.root(s, session).digests[s.index(common)].tobytes() for s in sets}
    assert len(per_party) == 1
    assert merkle.root([common], other).digests.tobytes() not in per_party
