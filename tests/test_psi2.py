"""Two-party engine: correctness, integrity aborts, masking algebra, errors."""

import dataclasses
import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from authpsi import gf, harness, merkle, okvs, psi2, transport, vole
from authpsi.errors import ConfigError, ProtocolError
from authpsi.transport import DEALER_INDEX
from test_gf import mul_oracle, to_bytes, vec_get


def _sets(nx, ny, overlap, seed=0, width=8):
    rng = random.Random(seed)
    pool = set()
    while len(pool) < nx + ny - overlap:
        pool.add(rng.randbytes(width))
    pool = sorted(pool)
    x = pool[:nx]
    y = pool[nx - overlap : nx - overlap + ny]
    rng.shuffle(x)
    rng.shuffle(y)
    return x, y


def test_full_overlap():
    x, _ = _sets(32, 32, 32, seed=1)
    res = harness.run_two_party(x, list(x), seed=1)
    assert not res.aborted
    assert res.intersection == set(x)


def test_disjoint_sets():
    x, y = _sets(40, 40, 0, seed=2)
    res = harness.run_two_party(x, y, seed=2)
    assert res.intersection == set()


def test_planted_overlap_matches_brute_force():
    for seed in range(5):
        x, y = _sets(50, 60, 13, seed=seed)
        res = harness.run_two_party(x, y, seed=seed)
        assert res.intersection == set(x) & set(y)


def test_unequal_sizes():
    x, y = _sets(20, 70, 9, seed=3)
    res = harness.run_two_party(x, y, seed=3)
    assert res.intersection == set(x) & set(y)


@pytest.mark.parametrize("kind", ["flip-element", "flip-path", "swap-proofs", "extra-element"])
@pytest.mark.parametrize("party", [1, 2])
def test_tampering_aborts(kind, party):
    x, y = _sets(24, 24, 8, seed=4)
    res = harness.run_two_party(x, y, seed=4,
                                tamper=harness.Tamper(kind=kind, party=party, index=3, index2=7))
    assert res.aborted
    assert res.intersection is None
    assert res.report["aborted"] is True


def test_honest_self_check_catches_drift():
    # an honest party whose dataset changed after commitment refuses to start
    x, y = _sets(16, 16, 4, seed=5)
    session = b"\x21" * 16
    roots = {1: merkle.root(x, session), 2: merkle.root(y, session)}
    drifted = list(x)
    drifted[0] = b"\xff" * 8
    with pytest.raises(ConfigError):
        harness.run_two_party(drifted, y, session_id=session, announced_roots=roots, seed=5)


def test_masking_identity_white_box():
    # Decode(B', x) + delta*HB(x) == Decode(C, x) for members of both sets
    x, y = _sets(48, 48, 24, seed=6)
    session = b"\x22" * 16
    roots = {1: merkle.root(x, session), 2: merkle.root(y, session)}
    engines = _run_engines(x, y, session, roots, seed=6)
    er, es = engines[1], engines[2]
    assert er.intersection == set(x) & set(y)
    c_table = okvs.OkvsTable(params=er._table.params, values=er._recv_corr.c_vec)
    delta = int.from_bytes(es._send_corr.delta, "little")
    common = merkle.commit(sorted(set(x) & set(y)), session)[1]
    bprime, c = okvs.decode_batch(es.bprime_table, common), okvs.decode_batch(c_table, common)
    hb = psi2.hash_to_mask(common)
    for i in range(len(common)):
        lhs = vec_get(bprime, i) ^ mul_oracle(delta, vec_get(hb, i))
        assert lhs == vec_get(c, i)


def _build(x, y, session, roots, seed):
    """Both engines and the dealer, as `harness.run_two_party` builds them."""
    return harness.Session({1: x, 2: y}, roots, session).endpoints(np.random.default_rng(seed))


def _run_engines(x, y, session, roots, seed, net=None):
    engines, dealer = _build(x, y, session, roots, seed)
    harness.drive(net if net is not None else transport.BusNetwork(), engines, dealer)
    return engines


class RewritingBus(transport.BusNetwork):
    """An in-process bus that rewrites the payload of one party's messages of one type."""

    def __init__(self, party, msg_type, rewrite):
        super().__init__()
        self.party, self.msg_type, self.rewrite = party, msg_type, rewrite

    def deliver(self, src, dst, env):
        if src == self.party and env.msg_type == self.msg_type:
            env = transport.Envelope(env.session_id, env.msg_type, self.rewrite(env.payload))
        super().deliver(src, dst, env)


def test_digest_set_size_and_permutation():
    x, y = _sets(30, 30, 10, seed=7)
    session = b"\x23" * 16
    roots = {1: merkle.root(x, session), 2: merkle.root(y, session)}
    bus = RecordingBus()
    engines = _run_engines(x, y, session, roots, seed=7, net=bus)

    [payload] = bus.payloads(1, psi2.MSG_DIGEST_SET)
    count = int.from_bytes(payload[:4], "big")
    assert count == len(y)
    width = engines[1].out_bytes
    assert len(payload) == 4 + count * width
    # out width covers the statistical budget: 40 + ceil(log2(30*30)) bits
    assert width == 7
    digests = [payload[4 + i * width : 4 + (i + 1) * width] for i in range(count)]
    assert len(set(digests)) == count


def _started_receiver(x, y, session):
    roots = {1: merkle.root(x, session), 2: merkle.root(y, session)}
    engine = psi2.Psi2Engine(harness.Session({1: x}, roots, session), 1, rng=np.random.default_rng(0))
    engine.start()
    return engine


def assert_clean_abort(engine, out, fault):
    """The engine aborted with a reason naming the fault and told every other party why."""
    assert engine.aborted and engine.intersection is None
    assert fault in engine.abort_reason
    assert [dst for dst, _ in out] == engine.peers
    assert all(env.msg_type == engine.ABORT_TYPE and env.payload == engine.abort_reason.encode()
               for _, env in out)


def test_out_of_order_messages_rejected():
    x, y = _sets(8, 8, 2, seed=8)
    engine = _started_receiver(x, y, b"\x24" * 16)
    bogus = transport.Envelope(b"\x24" * 16, psi2.MSG_DIGEST_SET, b"\x00\x00\x00\x01" + b"\x00" * 8)
    assert_clean_abort(engine, engine.handle(2, bogus), "digest set out of order")
    assert engine.handle(2, bogus) == []  # traffic after the abort is dropped


def test_wrong_session_rejected():
    x, y = _sets(8, 8, 2, seed=9)
    engine = _started_receiver(x, y, b"\x25" * 16)
    out = engine.handle(2, transport.Envelope(b"\x26" * 16, psi2.MSG_ROOT_PROOFS, b""))
    assert_clean_abort(engine, out, "different session")


def test_dealer_bytes_are_setup_not_protocol():
    x, y = _sets(16, 16, 4, seed=10)
    res = harness.run_two_party(x, y, seed=10)
    assert res.report["setup_bytes"] > 0
    per_type = res.report["per_type"]
    assert "0x21" not in per_type and "0x22" not in per_type
    assert set(per_type) == {"0x01", "0x02", "0x03"}


def test_digest_width_formula():
    assert psi2.digest_width(1024, 1024) == 8    # 40 + 20 bits
    assert psi2.digest_width(4096, 4096) == 8    # 40 + 24 bits
    assert psi2.digest_width(16384, 16384) == 9  # 40 + 28 bits
    assert psi2.digest_width(1, 1) * 8 >= 41


def test_table_length_formula():
    # 1.23x expansion plus the dense tail, derivable by both parties
    assert psi2.okvs_length(1024) == 1260 + 30
    assert psi2.okvs_length(4096) == 5039 + 30


def test_wrong_digest_count_aborts_cleanly():
    x, y = _sets(12, 12, 4, seed=12)
    session = b"\x27" * 16
    roots = {1: merkle.root(x, session), 2: merkle.root(y, session)}
    engines, dealer = _build(x, y, session, roots, seed=12)

    class TruncatingBus(transport.BusNetwork):
        """Drops the last digest of the digest set in transit, and its count with it."""

        def deliver(self, src, dst, env):
            if env.msg_type == psi2.MSG_DIGEST_SET:
                count = int.from_bytes(env.payload[:4], "big")
                width = engines[1].out_bytes
                env = transport.Envelope(env.session_id, env.msg_type,
                                         (count - 1).to_bytes(4, "big") + env.payload[4:-width])
            super().deliver(src, dst, env)

    harness.drive(TruncatingBus(), engines, dealer)  # no escaped error
    assert engines[1].aborted and engines[1].intersection is None
    assert "digest set size" in engines[1].abort_reason


def length_fault(msg_type, fault):
    """A rewrite of a masked vector (seed, count, cells) or a digest set (count, digests);
    8-byte-cells keeps the low word of each 16-byte cell of a masked vector."""
    at = okvs.SEED_BYTES if msg_type == psi2.MSG_MASKED_VECTOR else 0

    def rewrite(raw):
        count = int.from_bytes(raw[at : at + 4], "big")
        body = raw[at + 4:]
        return {
            "truncated": raw[:-1],
            "extended": raw + b"\x00",
            "count-off-by-one": raw[:at] + (count + 1).to_bytes(4, "big") + body,
            "8-byte-cells": raw[: at + 4] + b"".join(body[k : k + 8]
                                                     for k in range(0, len(body), 16)),
        }[fault]
    return rewrite


@pytest.mark.parametrize("msg_type,fault", [
    pytest.param(msg_type, fault, id=f"{msg_type:#04x}-{fault}")
    for msg_type in (psi2.MSG_MASKED_VECTOR, psi2.MSG_DIGEST_SET)
    for fault in ("truncated", "extended", "count-off-by-one")
] + [pytest.param(psi2.MSG_MASKED_VECTOR, "8-byte-cells", id="0x02-8-byte-cells")])
def test_malformed_masked_vector_or_digest_set_aborts_cleanly(msg_type, fault):
    x, y = _sets(12, 12, 4, seed=20)
    session = b"\x2c" * 16
    roots = {1: merkle.root(x, session), 2: merkle.root(y, session)}
    sender = 1 if msg_type == psi2.MSG_MASKED_VECTOR else 2
    bus = RewritingBus(sender, msg_type, length_fault(msg_type, fault))
    engines = _run_engines(x, y, session, roots, seed=20, net=bus)  # no escaped error
    for i in (1, 2):
        assert engines[i].aborted and engines[i].abort_reason, i
        assert engines[i].intersection is None


def test_vole_backend_substitutability(monkeypatch):
    # any dealer satisfying C = A*delta + B yields the same intersection;
    # this one pins delta = 1 and deterministic expansion seeds
    def fixed_delta(length, rng):
        a_seed, b_seed = b"\x41" * 32, b"\x42" * 32
        one = to_bytes(1)
        return a_seed + vole.complete_receiver_seed(a_seed, b_seed, one, length), b_seed + one

    monkeypatch.setattr(vole, "materials", fixed_delta)
    x, y = _sets(40, 40, 15, seed=13)
    session = b"\x28" * 16
    roots = {1: merkle.root(x, session), 2: merkle.root(y, session)}
    engines, dealer = _build(x, y, session, roots, seed=13)
    harness.drive(transport.BusNetwork(), engines, dealer)
    assert engines[1].intersection == set(x) & set(y)


@pytest.mark.parametrize("victim", [1, 2])
def test_wrong_role_dealer_material_aborts_cleanly(monkeypatch, victim):
    # material for the other party's role (the receiver's seed and C, or the
    # sender's seed and delta) is a fault, not an escaped exception: it has
    # the wrong length for the role the party asked as
    class SwappedRoleDealer(harness.DealerService):
        def _on_vole_request(self, src, payload):  # both halves go out together
            out = dict(super()._on_vole_request(src, payload))
            return [(j, out[3 - j if j == victim else j]) for j in out]

    x, y = _sets(20, 20, 8, seed=24)
    session = b"\x2e" * 16
    roots = {1: merkle.root(x, session), 2: merkle.root(y, session)}
    monkeypatch.setattr(harness, "DealerService", SwappedRoleDealer)
    engines, dealer = _build(x, y, session, roots, seed=24)
    assert isinstance(dealer, SwappedRoleDealer)
    harness.drive(transport.BusNetwork(), engines, dealer)  # no escaped error
    assert "material length" in engines[victim].abort_reason
    for i in (1, 2):
        assert engines[i].aborted and engines[i].intersection is None, i


def test_digest_set_leaks_nothing_beyond_membership():
    # statistical shadow of sender privacy: across 10^2 sessions, the digest
    # payloads produced by two candidate sender sets sharing the same
    # intersection are indistinguishable to a bit-frequency distinguisher
    x, _ = _sets(24, 24, 24, seed=14)
    common = x[:8]
    rng = random.Random(15)
    cand = {0: common + [rng.randbytes(8) for _ in range(16)],
            1: common + [rng.randbytes(8) for _ in range(16)]}
    ones = {0: 0, 1: 0}
    total = {0: 0, 1: 0}

    for trial in range(50):
        for which in (0, 1):
            session = bytes([17 + which]) + trial.to_bytes(15, "big")
            roots = {1: merkle.root(x, session), 2: merkle.root(cand[which], session)}
            payload = _capture_digest_payload(x, cand[which], session, roots,
                                              seed=3000 + 2 * trial + which)
            body = payload[4:]
            ones[which] += sum(bin(b).count("1") for b in body)
            total[which] += len(body) * 8

    assert total[0] == total[1]  # same digest-set shape for both candidates
    freq = {w: ones[w] / total[w] for w in (0, 1)}
    sigma_each = (0.25 / total[0]) ** 0.5
    assert abs(freq[0] - 0.5) < 4 * sigma_each
    assert abs(freq[1] - 0.5) < 4 * sigma_each
    # two-sample gap: a distinguisher keying on bit frequency does no better
    # than chance
    assert abs(freq[0] - freq[1]) < 4 * (2 * 0.25 / total[0]) ** 0.5


def _capture_digest_payload(x, y, session, roots, seed):
    bus = RecordingBus()
    _run_engines(x, y, session, roots, seed, net=bus)
    [payload] = bus.payloads(1, psi2.MSG_DIGEST_SET)
    return payload


def test_root_proofs_payload_roundtrip():
    # the commitment message is the 37-byte root: version, set size, digest
    x, _ = _sets(10, 10, 0, seed=11)
    committed = merkle.root(x, b"\x2a" * 16)
    raw = psi2.encode_root_proofs(committed)
    assert raw == committed.to_bytes() and len(raw) == 37
    assert psi2.decode_root_proofs(raw) == committed
    assert psi2.check_peer_commitment(committed, psi2.decode_root_proofs(raw))
    assert not psi2.check_peer_commitment(
        committed, merkle.MerkleRoot(committed.digest, committed.set_size + 1))
    for bad in (raw + b"\x00", raw[:-1], b"\x02" + raw[1:]):
        with pytest.raises(ProtocolError):
            psi2.decode_root_proofs(bad)


def _resized(raw, delta):
    size = int.from_bytes(raw[1:5], "big") + delta
    return raw[:1] + size.to_bytes(4, "big") + raw[5:]


def _root_bytes(xs, sid):
    return merkle.root(xs, sid).to_bytes()


# Ways to corrupt a party's outgoing root message `raw`, given the party's
# elements `xs` and the session id `sid`; the gate must reject every one.
# Names that mention leaves say how the sent root misstates the committed
# leaf sequence: one-leaf-short/-extra change only the set-size field;
# flipped-leaf and swapped-leaves are roots of a changed or reordered sequence.
ROOT_FAULTS = {
    "ragged-length": lambda raw, xs, sid: raw[:-1],
    "one-byte-extra": lambda raw, xs, sid: raw + b"\x00",
    "wrong-version": lambda raw, xs, sid: bytes([raw[0] ^ 0xFF]) + raw[1:],
    "one-leaf-short": lambda raw, xs, sid: _resized(raw, -1),
    "one-leaf-extra": lambda raw, xs, sid: _resized(raw, +1),
    "flipped-digest-byte": lambda raw, xs, sid: raw[:-1] + bytes([raw[-1] ^ 1]),
    "flipped-leaf": lambda raw, xs, sid: _root_bytes([xs[0], b"\xee" + xs[1]] + xs[2:], sid),
    "swapped-leaves": lambda raw, xs, sid: _root_bytes([xs[1], xs[0]] + xs[2:], sid),
    "other-set": lambda raw, xs, sid: _root_bytes([b"\xee" + x for x in xs], sid),
    "other-salt": lambda raw, xs, sid: _root_bytes(xs, bytes(16)),
}


def root_fault_bus(party, msg_type, fault, elements, session):
    """A bus that rewrites one party's root messages in transit, in place of a `harness.Tamper`."""
    return RewritingBus(party, msg_type, lambda raw: ROOT_FAULTS[fault](raw, elements, session))


@pytest.mark.parametrize("fault", sorted(ROOT_FAULTS))
@pytest.mark.parametrize("party", [1, 2])
def test_gate_rejects_bad_leaf_vector_with_clean_abort(fault, party):
    # every fault sends a root message other than the one of the committed leaves
    x, y = _sets(16, 16, 4, seed=16)
    session = b"\x29" * 16
    roots = {1: merkle.root(x, session), 2: merkle.root(y, session)}
    bus = root_fault_bus(party, psi2.MSG_ROOT_PROOFS, fault, x if party == 1 else y, session)
    engines = _run_engines(x, y, session, roots, seed=16, net=bus)  # no escaped error
    honest = engines[3 - party]
    assert honest.aborted and honest.intersection is None
    assert "root" in honest.abort_reason


@dataclasses.dataclass
class ReplayedRoot:
    """A tamper that leaves its party's inputs as the session gives them and sends, in
    place of their root, the honest root of its committed set."""
    party: int
    committed: list
    session: bytes

    def inputs(self, elements):
        return list(elements)

    def root(self, own):
        return merkle.root(self.committed, self.session)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the gate checks the sent root, not the inputs the PSI runs on: "
                          "a replayed honest root passes (ROADMAP, Parked: Defect 2)")
def test_gate_binds_inputs_actually_used():
    # the sender commits to Y and sends Y's honest root, then runs the PSI
    # on Y' of the same size, half of it taken from the receiver's set
    x, y = _sets(32, 32, 4, seed=19)
    session = b"\x2b" * 16
    roots = {1: merkle.root(x, session), 2: merkle.root(y, session)}
    y_used = [e for e in y if e not in x][:16] + x[:16]
    spec = harness.Session({1: x, 2: y_used}, roots, session, tamper=ReplayedRoot(2, y, session))
    engines, dealer = spec.endpoints(np.random.default_rng(19))
    harness.drive(transport.BusNetwork(), engines, dealer)
    assert engines[1].aborted and engines[1].intersection is None


def test_commitment_message_is_one_root():
    x, y = _sets(20, 70, 9, seed=17)
    res = harness.run_two_party(x, y, seed=17)
    for (src, dst), sent in res.meter.per_pair().items():
        sizes = [nbytes for msg_type, nbytes, _ in sent if msg_type == psi2.MSG_ROOT_PROOFS]
        if src and dst:
            assert sizes == [transport.HEADER_BYTES + 37]


class RecordingBus(transport.BusNetwork):
    """An in-process bus that also keeps every delivered envelope, per receiving party."""

    def __init__(self):
        super().__init__()
        self.received: dict[int, list[transport.Envelope]] = {}

    def deliver(self, src, dst, env):
        super().deliver(src, dst, env)
        self.received.setdefault(dst, []).append(env)

    def payloads(self, dst, msg_type):
        return [env.payload for env in self.received[dst] if env.msg_type == msg_type]


def assert_no_own_leaf_hash_received(bus, sets, session):
    """No party finds the salted leaf hash SHA256(0x00 || sid || x) of an own element in any
    payload, nor its digest d(x), the leaf's first 16 bytes, from which every per-element
    value derives."""
    for i, own in sets.items():
        leaves = [hashlib.sha256(b"\x00" + session + x).digest() for x in own]
        digests = [leaf[:16] for leaf in leaves]
        assert digests == [gf.vec_to_bytes(d) for d in merkle.commit(own, session)[1]]
        for env in bus.received[i]:
            assert not [leaf for leaf in leaves if leaf in env.payload], i
            assert not [d for d in digests if d in env.payload], i


def test_transcript_carries_no_leaf_hash_of_own_elements():
    # a party that hashes its own elements under the public session id must
    # not find any of them in what it receives: membership stays hidden
    x, y = _sets(24, 24, 12, seed=21)
    session = b"\x2d" * 16
    bus = RecordingBus()
    res = harness.run_two_party(x, y, session_id=session, seed=21, network=bus)
    assert res.intersection == set(x) & set(y)
    assert_no_own_leaf_hash_received(bus, {1: x, 2: y}, session)


def party_messages(run):
    """(src, dst, type, nth) of every message a party receives in a run, from another party
    or from the dealer; nth counts the earlier messages with the same src, dst and type."""
    messages, seen = [], Counter()
    for (src, dst), sent in run.meter.per_pair().items():
        if dst != DEALER_INDEX:
            for msg_type, _, _ in sent:
                messages.append((src, dst, msg_type, seen[src, dst, msg_type]))
                seen[src, dst, msg_type] += 1
    return messages


class ReplayBus(transport.BusNetwork):
    """An in-process bus that delivers the nth src -> dst message of msg_type twice in a row."""

    def __init__(self, src, dst, msg_type, nth):
        super().__init__()
        self.replay = (src, dst, msg_type)
        self.skip = nth

    def deliver(self, src, dst, env):
        super().deliver(src, dst, env)
        if self.replay == (src, dst, env.msg_type):
            if self.skip:
                self.skip -= 1
            else:
                self.replay = None
                super().deliver(src, dst, env)


def message_id(message):
    src, dst, msg_type, nth = message
    return f"{src}to{dst}-{msg_type:#04x}" + (f"-{nth + 1}" if nth else "")


REPLAY_SETS = _sets(12, 12, 4, seed=22)
REPLAYS = party_messages(harness.run_two_party(*REPLAY_SETS, seed=22))


@pytest.mark.parametrize("message", REPLAYS, ids=message_id)
def test_replayed_message_aborts_cleanly(message):
    # a message delivered twice, from the peer or the dealer, is a fault its
    # receiver must turn into an abort; every party then ends aborted with a reason
    assert len(REPLAYS) == 6
    x, y = REPLAY_SETS
    session = b"\x2e" * 16
    roots = {1: merkle.root(x, session), 2: merkle.root(y, session)}
    engines = _run_engines(x, y, session, roots, seed=22,
                           net=ReplayBus(*message))  # no escaped error
    for i in (1, 2):
        assert engines[i].aborted and engines[i].abort_reason, i
        assert engines[i].intersection is None


def test_seeded_extra_element_run_is_reproducible():
    x, y = _sets(24, 24, 8, seed=18)
    runs = [harness.run_two_party(x, y, seed=3, tamper=harness.Tamper("extra-element", 1))
            for _ in range(2)]
    assert runs[0].aborted
    assert runs[0].meter.per_pair() == runs[1].meter.per_pair()
