"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines as they complete. Tolerances are pinned in the assertions; nothing is
deferred to later calibration.
"""

import random
import time

import numpy as np
import pytest

from authpsi import datasets, gf, harness, merkle, okvs, psi2, vole, zeroshare
from test_gf import mul_oracle, to_bytes, vec_from_ints, vec_get

TAMPER_KINDS = ("flip-element", "flip-path", "swap-proofs", "extra-element")


def _planted(n, overlap, seed, parties=2):
    return datasets.generate_sets(n, 16, parties, overlap, seed)


def test_criterion_01_two_party_correctness():
    """150 honest runs across sizes and overlaps match brute force exactly."""
    t0 = time.perf_counter()
    failures = 0
    runs = 0
    for n in (256, 1024, 4096):
        for r in range(50):
            overlap = [0, n // 4, n][r % 3]
            x, y = _planted(n, overlap, seed=1000 * n + r)
            res = harness.run_two_party(x, y, seed=2000 * n + r)
            expected = set(x) & set(y)
            assert len(expected) == overlap
            runs += 1
            if res.aborted or res.intersection != expected:
                failures += 1
    assert runs == 150
    assert failures == 0
    print(f"\n[criterion 1] PASS: 150/150 honest two-party runs exact "
          f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_02_two_party_integrity_game():
    """1000 adversarial runs across tamper classes: the honest side outputs
    bottom every single time."""
    t0 = time.perf_counter()
    aborts = 0
    runs = 0
    rng = random.Random(17)
    for trial in range(1000):
        kind = TAMPER_KINDS[trial % 4]
        party = 1 + (trial // 4) % 2
        n = 32
        x, y = _planted(n, 8, seed=5000 + trial)
        tamper = harness.Tamper(kind=kind, party=party,
                                index=rng.randrange(n), index2=rng.randrange(n))
        res = harness.run_two_party(x, y, seed=9000 + trial, tamper=tamper)
        runs += 1
        if res.aborted and res.intersection is None:
            aborts += 1
    assert runs == 1000
    assert aborts == 1000
    print(f"\n[criterion 2] PASS: 1000/1000 tampered two-party runs aborted "
          f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_03_communication_linearity():
    """bits/element stays flat in n and within 2x of the published
    unauthenticated baseline at every size: each doubling-pair step in the
    size sweep moves it by < 25%, and measured[n] <= 2 * reference[n].

    The commitment costs one 37-byte root message in each direction, so it
    adds no per-element term at all; both numbers are reported side by side.
    """
    t0 = time.perf_counter()
    sizes = (1024, 4096, 16384)
    reference = {1024: 462, 4096: 437, 16384: 455}
    measured = {}
    for n in sizes:
        x, y = _planted(n, n // 4, seed=31 * n)
        res = harness.run_two_party(x, y, seed=37 * n)
        assert not res.aborted
        measured[n] = res.report["bits_per_element"]
    for n in sizes:
        print(f"\n[criterion 3] n={n}: measured {measured[n]:.0f} bits/element "
              f"(published unauthenticated baseline: {reference[n]})")
    steps = [measured[4096] / measured[1024], measured[16384] / measured[4096]]
    for ratio in steps:
        assert abs(ratio - 1) < 0.25, steps
    for n in sizes:
        assert measured[n] <= 2 * reference[n], (n, measured[n])
    span = max(measured.values()) / min(measured.values()) - 1
    print(f"[criterion 3] PASS: step variation {[f'{(r - 1) * 100:.1f}%' for r in steps]}, "
          f"full span {span * 100:.1f}% ({time.perf_counter() - t0:.1f}s)")


@pytest.mark.parametrize("n,t", [(3, 1), (4, 2), (5, 3), (8, 4)])
def test_criterion_04_multi_party_correctness(n, t):
    """20 honest runs per (n, t) and per size: P_n's output is the exact
    n-way intersection every time."""
    t0 = time.perf_counter()
    for n_l in (256, 1024):
        for r in range(20):
            overlap = [0, n_l // 4, n_l][r % 3]
            sets = _planted(n_l, overlap, seed=100 * n + 10 * t + r, parties=n)
            expected = set(sets[0]).intersection(*map(set, sets[1:]))
            assert len(expected) == overlap
            res = harness.run_multi_party(sets, t, seed=300 * n + r)
            assert not res.aborted, (n, t, n_l, r)
            assert res.intersection == expected, (n, t, n_l, r)
    print(f"\n[criterion 4] PASS: (n={n}, t={t}) 40/40 honest runs exact "
          f"({time.perf_counter() - t0:.1f}s)")


@pytest.mark.parametrize("n,t", [(3, 1), (4, 2), (5, 3), (8, 4)])
def test_criterion_05_multi_party_integrity(n, t):
    """250 tampered runs per configuration, tamper at a random party: global
    abort in every run."""
    t0 = time.perf_counter()
    rng = random.Random(n * 100 + t)
    aborts = 0
    for trial in range(250):
        kind = TAMPER_KINDS[trial % 4]
        party = rng.randrange(1, n + 1)
        n_l = 12
        sets = _planted(n_l, 4, seed=7000 + 13 * trial + n, parties=n)
        tamper = harness.Tamper(kind=kind, party=party,
                                index=rng.randrange(n_l), index2=rng.randrange(n_l))
        res = harness.run_multi_party(sets, t, seed=8000 + trial, tamper=tamper)
        honest = n - 1
        if res.aborted and len(res.abort_parties) == honest and res.intersection is None:
            aborts += 1
    assert aborts == 250
    print(f"\n[criterion 5] PASS: (n={n}, t={t}) 250/250 tampered runs globally aborted "
          f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_06_zero_sharing_cancellation():
    """Full-group share XOR is exactly zero; strict subsets almost never are."""
    t0 = time.perf_counter()
    rng = random.Random(42)
    for n in (2, 3, 5, 8):
        parties = list(range(1, n + 1))
        seeds = {(a, b): rng.randbytes(16) for a in parties for b in parties if a < b}
        # each party holds the seeds of the n - 1 pairs it is in
        party_seeds = [[seeds[min(i, j), max(i, j)] for j in parties if j != i] for i in parties]
        elements = [rng.randbytes(12) for _ in range(1000)]
        shares = [zeroshare.zs_share(own, _digests(elements)) for own in party_seeds]
        # the batch answers element by element as one-element batches would
        for k in range(0, 1000, 50):
            for own, share in zip(party_seeds, shares):
                assert zeroshare.zs_share(own, _digests([elements[k]]))[0] == share[k], n
        acc = np.bitwise_xor.reduce(shares)
        assert acc.shape == (1000,) and (acc == 0).all(), n
        if n > 1:
            subsets = [shares[:-1], shares[:1]]
            if n >= 4:
                subsets.append(shares[: n // 2])
            for subset in subsets:
                if not subset or len(subset) == n:
                    continue
                nonzero = int(np.count_nonzero(np.bitwise_xor.reduce(subset)))
                assert nonzero >= 999, (n, len(subset), nonzero)
    print(f"\n[criterion 6] PASS: cancellation exact for n in {{2,3,5,8}} x 1000 elements, "
          f"subset XOR nonzero >= 999/1000 ({time.perf_counter() - t0:.1f}s)")


def test_criterion_07_okvs_suite():
    """Roundtrip exactness, linear/scalar identities on 10^4 probes, and
    first-attempt encode success at the prescribed expansion."""
    t0 = time.perf_counter()
    rng = random.Random(7)

    for n in (16, 1024, 4096):
        keys = set()
        while len(keys) < n:
            keys.add(rng.randbytes(12))
        pairs = [(k, rng.getrandbits(128)) for k in sorted(keys)]
        table = _encode(pairs, rng.randbytes(16), rng=gf.KeyStream(n.to_bytes(16, "big")))
        assert table is not None, n
        decoded = okvs.decode_batch(table, _digests([k for k, _ in pairs]))
        for i, (_, v) in enumerate(pairs):
            assert vec_get(decoded, i) == v, n

    # linearity and scalar identities on 10^4 random probes
    n = 256
    row_seed = b"\x55" * 16
    pairs1 = [(b"1" + i.to_bytes(3, "big"), rng.getrandbits(128)) for i in range(n)]
    pairs2 = [(b"2" + i.to_bytes(3, "big"), rng.getrandbits(128)) for i in range(n)]
    t1 = _encode(pairs1, row_seed, rng=gf.KeyStream(b"\x01" * 16))
    t2 = _encode(pairs2, row_seed, rng=gf.KeyStream(b"\x02" * 16))
    delta = rng.getrandbits(128)
    xored = okvs.OkvsTable(row_seed, t1.values ^ t2.values)
    scaled = okvs.OkvsTable(row_seed, gf.scalar_mul_vec(to_bytes(delta), t1.values))
    probes = _digests([rng.randbytes(10) for _ in range(10_000)])
    d1 = okvs.decode_batch(t1, probes)
    d2 = okvs.decode_batch(t2, probes)
    dx = okvs.decode_batch(xored, probes)
    ds = okvs.decode_batch(scaled, probes)
    assert (dx == (d1 ^ d2)).all()
    for i in range(0, 10_000, 997):
        assert vec_get(ds, i) == mul_oracle(delta, vec_get(d1, i))
    assert (ds == gf.scalar_mul_vec(to_bytes(delta), d1)).all()

    # fresh-instance encode success rate at n = 2^10, first attempt only
    successes = 0
    n = 1024
    nprng = np.random.default_rng(99)
    fill = gf.KeyStream(b"\x63" * 16)  # every encode's fill, as an endpoint's stream gives it
    for trial in range(1000):
        keys = [nprng.bytes(12) for _ in range(n)]
        if len(set(keys)) != n:
            keys = list({*keys})[:n]
        pairs = [(k, int.from_bytes(nprng.bytes(16), "little")) for k in keys]
        if _encode(pairs, nprng.bytes(16), rng=fill) is not None:
            successes += 1
    assert successes >= 995, successes
    print(f"\n[criterion 7] PASS: roundtrips exact, identities hold on 10^4 probes, "
          f"encode success {successes}/1000 ({time.perf_counter() - t0:.1f}s)")


def test_criterion_08_vole_relation():
    """C = A*delta + B at every coordinate for all tested lengths/sessions."""
    t0 = time.perf_counter()
    bad_coordinates = 0
    for m in (1, 1024, 65536):
        for s in range(100):
            recv_raw, send_raw = vole.materials(m, gf.KeyStream((m * 1000 + s).to_bytes(16, "big")))
            rc, sc = vole.extend(True, m, recv_raw), vole.extend(False, m, send_raw)
            expect = gf.scalar_mul_vec(sc.delta, rc.a_vec) ^ sc.b_vec
            bad_coordinates += m - int(np.count_nonzero((rc.c_vec == expect).all(axis=1)))
            # the end coordinates again on the scalar reference, independently of the batch kernel
            delta = int.from_bytes(sc.delta, "little")
            for i in {0, m - 1}:
                a, b = vec_get(rc.a_vec, i), vec_get(sc.b_vec, i)
                assert vec_get(rc.c_vec, i) == mul_oracle(a, delta) ^ b, (m, s, i)
    assert bad_coordinates == 0
    print(f"\n[criterion 8] PASS: correlation exact at every coordinate, "
          f"m in {{1, 2^10, 2^16}} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_09_merkle_forgery_resistance():
    """10^4 mutated proofs never verify; honest proofs verify at every size
    1..257 and every index."""
    t0 = time.perf_counter()
    for n in range(1, 258):
        data = [b"\x31" + i.to_bytes(4, "big") for i in range(n)]
        r = merkle.root(data).root
        for p in merkle.gen_all_paths(data):
            assert merkle.verify(r, p), n

    rng = random.Random(3)
    data = [b"\x32" + i.to_bytes(4, "big") for i in range(96)]
    r = merkle.root(data).root
    proofs = merkle.gen_all_paths(data)
    false_accepts = 0
    for trial in range(10_000):
        p = proofs[rng.randrange(96)]
        field = trial % 4
        if field == 0:  # leaf hash bit flip
            leaf = bytearray(p.leaf_hash)
            leaf[rng.randrange(32)] ^= 1 << rng.randrange(8)
            mutated = merkle.InclusionProof(p.index, bytes(leaf), p.siblings, p.set_size)
        elif field == 1:  # bit flip in one sibling digest at a random level
            levels = [list(others) for others in p.siblings]
            level = rng.choice([lv for lv in levels if lv])
            si = rng.randrange(len(level))
            d = bytearray(level[si])
            d[rng.randrange(32)] ^= 1 << rng.randrange(8)
            level[si] = bytes(d)
            mutated = merkle.InclusionProof(p.index, p.leaf_hash,
                                            tuple(map(tuple, levels)), p.set_size)
        elif field == 2:  # index bit flip
            mutated = merkle.InclusionProof(p.index ^ (1 << rng.randrange(8)),
                                            p.leaf_hash, p.siblings, p.set_size)
        else:  # committed-size bit flip
            mutated = merkle.InclusionProof(p.index, p.leaf_hash, p.siblings,
                                            p.set_size ^ (1 << rng.randrange(9)))
        if merkle.verify(r, mutated):
            false_accepts += 1
    assert false_accepts == 0
    print(f"\n[criterion 9] PASS: 0/10000 mutated proofs accepted, sizes 1..257 exhaustive "
          f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_10_masking_identity_white_box():
    """Decode(B', x) + delta*HB(x) equals Decode(C, x) bit-exactly for 10^3
    elements lying in both sets, with B' = B + delta*A' from the sender's B and
    the A' the receiver sent; so does the sender's folded form,
    Decode(B, x) + delta*(Decode(A', x) + HB(x))."""
    t0 = time.perf_counter()
    checked = 0
    session_no = 0
    while checked < 1000:
        session_no += 1
        x, y = _planted(200, 100, seed=400 + session_no)
        session = session_no.to_bytes(16, "big")
        roots = {1: merkle.root(x, session), 2: merkle.root(y, session)}
        engines = _white_box_session(x, y, session, roots, seed=session_no)
        er, es = engines[1], engines[2]
        assert er.intersection == set(x) & set(y)
        row_seed, corr = er._table.row_seed, es._send_corr
        c_table = okvs.OkvsTable(row_seed, er._recv_corr.c_vec)
        masked = okvs.OkvsTable(row_seed, er._recv_corr.a_vec ^ er._table.values)
        bprime_table = okvs.OkvsTable(row_seed, corr.b_vec ^ gf.scalar_mul_vec(corr.delta, masked.values))
        common = merkle.root(sorted(set(x) & set(y)), session).digests
        bprime_decoded = okvs.decode_batch(bprime_table, common)
        c_decoded = okvs.decode_batch(c_table, common)
        masks = gf.scalar_mul_vec(corr.delta, psi2.hash_to_mask(common))
        folded = psi2.sender_values(masked, corr, common)
        for i in range(len(common)):
            lhs = vec_get(bprime_decoded, i) ^ vec_get(masks, i)
            assert lhs == vec_get(c_decoded, i)
            assert vec_get(folded, i) == vec_get(c_decoded, i)
            checked += 1
            if checked == 1000:
                break
    assert checked == 1000
    print(f"\n[criterion 10] PASS: masking identity bit-exact on 1000 common elements "
          f"({time.perf_counter() - t0:.1f}s)")


def _digests(elements):
    """The element digests d(x) (salted leaf prefixes) that tables and PRFs take."""
    return merkle.root(elements, b"\x5a" * 16).digests


def _encode(pairs, row_seed, rng):
    """okvs.encode of (element, field element) pairs: elements as digests, values as limbs."""
    return okvs.encode(_digests([k for k, _ in pairs]),
                       vec_from_ints([v for _, v in pairs]), row_seed, rng=rng)


def _white_box_session(x, y, session, roots, seed):
    from authpsi import transport
    spec = harness.Session(roots, {i: c.root for i, c in roots.items()}, session)
    engines, dealer = spec.endpoints(harness.run_stream(seed))
    harness.drive(transport.BusNetwork(), engines, dealer)
    return engines
