"""Multi-party engine: correctness across (n, t), aborts, cancellation algebra."""

import random

import numpy as np
import pytest

from authpsi import harness, merkle, okvs, psin, transport, zeroshare
from authpsi.errors import ConfigError
from test_psi2 import (ROOT_FAULTS, RecordingBus, ReplayBus, RewritingBus,
                       assert_no_own_leaf_hash_received, message_id, party_messages,
                       root_fault_bus)


def _party_sets(n, n_l, core_size, seed=0, width=8):
    rng = random.Random(seed)
    pool = set()
    while len(pool) < core_size + n * (n_l - core_size):
        pool.add(rng.randbytes(width))
    pool = sorted(pool)
    core = pool[:core_size]
    sets, pos = [], core_size
    for _ in range(n):
        own = core + pool[pos : pos + n_l - core_size]
        pos += n_l - core_size
        rng.shuffle(own)
        sets.append(own)
    return sets, core


@pytest.mark.parametrize("n,t", [(3, 1), (4, 1), (4, 2), (5, 3), (8, 4)])
def test_honest_runs(n, t):
    sets, core = _party_sets(n, 24, 9, seed=n * 10 + t)
    res = harness.run_multi_party(sets, t, seed=n * 10 + t)
    assert not res.aborted
    assert res.intersection == set(core)


def test_identical_sets():
    base, _ = _party_sets(1, 20, 0, seed=1)
    res = harness.run_multi_party([list(base[0]) for _ in range(4)], t=2, seed=1)
    assert res.intersection == set(base[0])


def test_element_missing_at_one_party_excluded():
    sets, core = _party_sets(4, 16, 8, seed=2)
    dropped = core[0]
    sets[1] = [e for e in sets[1] if e != dropped] + [b"\xfe" * 8]
    res = harness.run_multi_party(sets, t=2, seed=2)
    assert dropped not in res.intersection
    assert res.intersection == set(core) - {dropped}


def test_group_split():
    roles = psin.Roles(8, 4)
    assert roles.v == 4
    assert roles.group_a == [1, 2, 3]
    assert roles.group_b == [5, 6, 7, 8]
    assert roles.subgroup == [4, 5, 6, 7, 8]
    assert roles.senders == [4, 5, 6, 7]


def test_smallest_configuration():
    sets, core = _party_sets(3, 12, 5, seed=4)
    res = harness.run_multi_party(sets, t=1, seed=4)
    assert res.intersection == set(core)


def test_collusion_bound_enforced():
    sets, _ = _party_sets(8, 8, 2, seed=5)
    with pytest.raises(ConfigError):
        harness.run_multi_party(sets, t=5, seed=5)  # (8, 5): t above the cap
    with pytest.raises(ConfigError):
        harness.run_multi_party(sets, t=0, seed=5)


def test_only_output_party_learns_intersection():
    sets, core = _party_sets(4, 12, 4, seed=6)
    session = b"\x02" * 16
    roots = {i + 1: merkle.root(sets[i], session) for i in range(4)}
    engines = _run_engines(sets, t=2, session=session, roots=roots, seed=6)
    assert engines[4].intersection == set(core)
    for i in (1, 2, 3):
        assert engines[i].intersection is None
        assert engines[i].done and not engines[i].aborted


def _run_engines(sets, t, session, roots, seed, net=None):
    spec = harness.Session(dict(enumerate(sets, start=1)), roots, session, t)
    engines, dealer = spec.endpoints(np.random.default_rng(seed))
    harness.drive(net if net is not None else transport.BusNetwork(), engines, dealer)
    return engines


@pytest.mark.parametrize("fault", sorted(ROOT_FAULTS))
def test_gate_rejects_bad_leaf_vector_with_clean_abort(fault):
    # every fault sends a root message other than the one of the committed leaves
    sets, _ = _party_sets(4, 12, 4, seed=11)
    session = b"\x05" * 16
    roots = {i + 1: merkle.root(sets[i], session) for i in range(4)}
    bus = root_fault_bus(2, psin.MSG_ROOT_PROOFS, fault, sets[1], session)
    engines = _run_engines(sets, t=2, session=session, roots=roots, seed=11,
                           net=bus)  # no escaped error
    for i in (1, 3, 4):
        assert engines[i].aborted and engines[i].abort_reason, i
        assert engines[i].intersection is None
    assert any("root" in engines[i].abort_reason for i in (1, 3, 4))


def _malformed_table(raw, fault):
    """Rewrite an OKVS table encoding: row seed, then cells of one 8-byte word."""
    if fault == "truncated":
        return raw[:-1]
    if fault == "16-byte-cells":  # each 8-byte cell padded with a zero high word
        at = okvs.SEED_BYTES
        return raw[:at] + b"".join(raw[k : k + 8] + bytes(8) for k in range(at, len(raw), 8))
    return raw + bytes(8)  # extra-cell: whole cells, one more than n pairs need


@pytest.mark.parametrize("fault", ["truncated", "extra-cell", "16-byte-cells"])
@pytest.mark.parametrize("msg_type", [psin.MSG_SHARE_TABLE, psin.MSG_OPPRF_HINT],
                         ids=["0x13", "0x14"])
def test_malformed_table_aborts_cleanly(msg_type, fault):
    # (3,1): P_1 sends the share table to the coordinator P_2, which sends the hint to P_3
    sets, _ = _party_sets(3, 12, 4, seed=13)
    session = b"\x06" * 16
    roots = {i + 1: merkle.root(sets[i], session) for i in range(3)}
    sender = 1 if msg_type == psin.MSG_SHARE_TABLE else 2
    bus = RewritingBus(sender, msg_type, lambda raw: _malformed_table(raw, fault))
    engines = _run_engines(sets, t=1, session=session, roots=roots, seed=13,
                           net=bus)  # no escaped error
    for i in (1, 2, 3):
        if i != sender:
            assert engines[i].aborted and engines[i].abort_reason, i
            assert engines[i].intersection is None
    assert any(kind in engines[i].abort_reason for i in (1, 2, 3) if i != sender
               for kind in ("share table", "hint"))


class TruncatingDealerBus(transport.BusNetwork):
    """An in-process bus that drops the last byte of every dealer answer to one party."""

    def __init__(self, to):
        super().__init__()
        self.to = to

    def deliver(self, src, dst, env):
        if src == transport.DEALER_INDEX and dst == self.to:
            env = transport.Envelope(env.session_id, env.msg_type, env.payload[:-1])
        super().deliver(src, dst, env)


@pytest.mark.parametrize("to,fault", [(2, "undecodable OPRF key"), (4, "wrong OPRF evaluation count")],
                         ids=["key", "evaluations"])
def test_malformed_dealer_answer_aborts_cleanly(to, fault):
    # (4,2): the sender P_2's key, or P_4's evaluations, one byte short
    sets, _ = _party_sets(4, 12, 4, seed=18)
    session = b"\x0b" * 16
    roots = {i + 1: merkle.root(s, session) for i, s in enumerate(sets)}
    engines = _run_engines(sets, t=2, session=session, roots=roots, seed=18,
                           net=TruncatingDealerBus(to))  # no escaped error
    assert fault in engines[to].abort_reason
    for i in range(1, 5):
        assert engines[i].aborted and engines[i].intersection is None, i


@pytest.mark.parametrize("fault", ["truncated", "extended"])
@pytest.mark.parametrize("msg_type", [psin.MSG_GROUP_KEY, psin.MSG_ZS_SEED], ids=["0x12", "0x16"])
def test_malformed_indexed_key_aborts_cleanly(msg_type, fault):
    # (3,1): group-A P_1 sends its group key to P_3; P_2 sends P_3 their zero-sharing seed
    sets, _ = _party_sets(3, 12, 4, seed=15)
    session = b"\x08" * 16
    roots = {i + 1: merkle.root(sets[i], session) for i in range(3)}
    sender = 1 if msg_type == psin.MSG_GROUP_KEY else 2
    # a group key or zero-sharing seed is the bare 16-byte key
    bus = RewritingBus(sender, msg_type,
                       lambda raw: raw[:-1] if fault == "truncated" else raw + b"\x00")
    engines = _run_engines(sets, t=1, session=session, roots=roots, seed=15,
                           net=bus)  # no escaped error
    for i in (1, 2, 3):
        if i != sender:
            assert engines[i].aborted and engines[i].abort_reason, i
            assert engines[i].intersection is None
    kind = "group key" if msg_type == psin.MSG_GROUP_KEY else "zero-sharing seed"
    assert kind in engines[3].abort_reason


REPLAY_SETS, _ = _party_sets(4, 12, 4, seed=17)
REPLAYS = party_messages(harness.run_multi_party(REPLAY_SETS, t=2, seed=17))


@pytest.mark.parametrize("message", REPLAYS, ids=message_id)
def test_replayed_message_aborts_cleanly(message):
    # (4,2): 12 roots, group keys 1->3 and 1->4, the share table 1->2,
    # seeds 2->3, 2->4 and 3->4, hints 2->4 and 3->4, and from the dealer the
    # OPRF keys of 2 and 3 and the one evaluation response to 4; each delivered twice
    assert len(REPLAYS) == 23
    session = b"\x0a" * 16
    roots = {i + 1: merkle.root(s, session) for i, s in enumerate(REPLAY_SETS)}
    engines = _run_engines(REPLAY_SETS, t=2, session=session, roots=roots, seed=17,
                           net=ReplayBus(*message))  # no escaped error
    for i in range(1, 5):
        assert engines[i].aborted and engines[i].abort_reason, i
        assert engines[i].intersection is None


def test_commitment_message_is_one_root():
    sets, _ = _party_sets(4, 12, 4, seed=12)
    res = harness.run_multi_party(sets, t=2, seed=12)
    for (src, dst), sent in res.meter.per_pair().items():
        sizes = [nbytes for msg_type, nbytes, _ in sent if msg_type == psin.MSG_ROOT_PROOFS]
        if src and dst:
            assert sizes == [transport.HEADER_BYTES + 37]


def test_transcript_carries_no_leaf_hash_of_own_elements():
    # no party finds the leaf hash of an own element in any message it
    # receives, from its peers or from the dealer
    sets, core = _party_sets(4, 16, 6, seed=16)
    session = b"\x09" * 16
    bus = RecordingBus()
    res = harness.run_multi_party(sets, t=2, session_id=session, seed=16, network=bus)
    assert res.intersection == set(core)
    assert_no_own_leaf_hash_received(bus, dict(enumerate(sets, start=1)), session)


def test_cancellation_identity_white_box():
    # for an element held by everyone, expanding every PRF term by hand makes
    # the final XOR vanish: shares cancel pairwise, and each group-A key's
    # PRF appears once inside a share table and once at its group-B holder
    sets, core = _party_sets(5, 10, 4, seed=7)
    session = b"\x03" * 16
    roots = {i + 1: merkle.root(sets[i], session) for i in range(5)}
    engines = _run_engines(sets, t=3, session=session, roots=roots, seed=7)
    roles = engines[5].roles
    assert roles.v == 2

    share_sum = np.zeros(len(core), dtype=np.uint64)
    total = np.zeros(len(core), dtype=np.uint64)
    for i in roles.subgroup:
        engine = engines[i]
        share_sum ^= zeroshare.zs_share(engine._zs_seeds.values(),
                                        merkle.commit(core, session)[1])
        # every pairwise PRF term appears exactly twice across the aggregates
        positions = [engine.inputs.index(x) for x in core]
        total ^= engine._aggregate()[positions]
    assert (share_sum == 0).all()
    assert (total == 0).all()


def test_aggregates_match_raw_keys():
    # the coordinator's decoded table values equal the raw PRF sums, under
    # the keys the group-B parties received, on elements both sides hold
    sets, core = _party_sets(4, 10, 5, seed=8)
    session = b"\x04" * 16
    roots = {i + 1: merkle.root(sets[i], session) for i in range(4)}
    engines = _run_engines(sets, t=2, session=session, roots=roots, seed=8)
    roles = engines[2].roles
    assert roles.v == 2 and roles.group_a == [1]
    coord = engines[2]
    expect = np.zeros(len(core), dtype=np.uint64)
    for j in roles.group_b:
        expect ^= zeroshare.prf([engines[j].groupa_keys[1]], merkle.commit(core, session)[1])
    positions = [coord.inputs.index(x) for x in core]
    assert (coord._aggregate()[positions] == expect).all()


@pytest.mark.parametrize("kind", ["flip-element", "flip-path", "swap-proofs", "extra-element"])
def test_tamper_aborts_everywhere(kind):
    sets, _ = _party_sets(5, 12, 4, seed=9)
    for party in (1, 2, 3, 5):
        res = harness.run_multi_party(sets, t=3, seed=9,
                                      tamper=harness.Tamper(kind=kind, party=party, index=2))
        assert res.aborted, (kind, party)
        assert len(res.abort_parties) == 4, (kind, party, res.abort_parties)
        assert res.intersection is None


def test_false_accept_rate_zero():
    # non-common elements never pass the final equality check
    misses = 0
    trials = 0
    for seed in range(6):
        sets, core = _party_sets(4, 24, 6, seed=100 + seed)
        res = harness.run_multi_party(sets, t=2, seed=100 + seed)
        outside = set(sets[3]) - set(core)
        trials += len(outside)
        misses += len(res.intersection & outside)
        assert res.intersection == set(core)
    assert trials > 100
    assert misses == 0
