"""Whole sessions of both engines: pinned message sizes, one hash per element, a fuzz gate."""

import hashlib
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from authpsi import datasets, harness, merkle, psi2, psin, transport
from authpsi.errors import TransportError
from authpsi.transport import DEALER_INDEX


def party_sizes(run):
    """Per directed pair of parties, the ordered (type, wire bytes) of every message."""
    return {pair: tuple((msg_type, nbytes) for msg_type, nbytes, _ in sent)
            for pair, sent in run.transcript.per_pair().items() if DEALER_INDEX not in pair}


TWO_PARTY_SIZES = {
    (1, 2): ((0x01, 62), (0x02, 20685)),
    (2, 1): ((0x01, 62), (0x03, 8221)),
}

# (8,4) at n_l = 256: group A is P_1..P_3, the coordinator P_4, group B P_5..P_8
MULTI_PARTY_SIZES = {
    **{(i, j): ((0x11, 62),) for i in range(1, 9) for j in range(1, 9) if i != j},
    **{(i, 4): ((0x11, 62), (0x13, 5565)) for i in (1, 2, 3)},
    **{(i, j): ((0x11, 62), (0x12, 45)) for i in (1, 2, 3) for j in (5, 6, 7, 8)},
    **{(i, j): ((0x11, 62), (0x16, 45)) for i in (4, 5, 6, 7) for j in (5, 6, 7) if i < j},
    **{(i, 8): ((0x11, 62), (0x16, 45), (0x14, 5581)) for i in (4, 5, 6, 7)},
}


def test_message_sizes_are_pinned():
    # every party-to-party message keeps its type, its place and its size
    x, y = datasets.generate_sets(1024, 16, 2, 256, 21)
    assert party_sizes(harness.run_two_party(x, y, seed=22)) == TWO_PARTY_SIZES
    sets = datasets.generate_sets(256, 16, 8, 64, 23)
    assert party_sizes(harness.run_multi_party(sets, 4, seed=24)) == MULTI_PARTY_SIZES


def test_each_element_is_hashed_once(monkeypatch):
    # every per-element value derives from one hash per element: in a session
    # each party hashes each of its elements once, into its SHA-256 leaf in
    # merkle, no other hash algorithm runs, the dealer hashes nothing, and no
    # other hashing runs once per element
    leaves, outside, others, dealer_hashes = Counter(), Counter(), Counter(), []
    in_dealer = [0]
    real_handle = harness.DealerService.handle

    def handle(self, src, env):
        in_dealer[0] += 1
        try:
            return real_handle(self, src, env)
        finally:
            in_dealer[0] -= 1

    def counted(name, real):
        def call(*args, **kwargs):
            caller = sys._getframe(1).f_globals["__name__"]
            if in_dealer[0]:
                dealer_hashes.append(name)
            if name != "sha256":
                others[name, caller] += 1
            elif caller == "authpsi.merkle" and args and args[0][:1] == merkle.LEAF_PREFIX:
                leaves[args[0]] += 1
            else:
                outside[caller] += 1
            return real(*args, **kwargs)
        return call

    x, y = datasets.generate_sets(1024, 16, 2, 256, 31)
    sets = datasets.generate_sets(256, 16, 4, 64, 32)
    runs = []
    for parties, t, sid in (([x, y], None, b"\x31" * 16), (sets, 2, b"\x32" * 16)):
        # the announced roots are committed before the session, outside the count
        roots = {i: merkle.root(s, sid) for i, s in enumerate(parties, start=1)}
        spec = harness.Session(dict(enumerate(parties, start=1)), roots, sid, t)
        runs.append((parties, sid, spec))

    for name in (*hashlib.algorithms_guaranteed, "new"):
        monkeypatch.setattr(hashlib, name, counted(name, getattr(hashlib, name)))
    monkeypatch.setattr(harness.DealerService, "handle", handle)

    for seed, (parties, sid, spec) in enumerate(runs, start=33):
        leaves.clear()
        outside.clear()
        assert not harness.run_session(spec, np.random.default_rng(seed)).aborted
        assert leaves == Counter(merkle.LEAF_PREFIX + sid + e for s in parties for e in s)
        assert not others and not dealer_hashes
        n = sum(len(s) for s in parties)
        assert outside.pop("authpsi.merkle") < n  # the interior nodes of the trees
        # what is left hashes per message, per retry or per session: far fewer calls than elements
        assert sum(outside.values()) < len(parties[0]) // 4, outside


def _sessions():
    """The honest fuzz sessions: 2pc at n = 32 and (4,2) at n_l = 32, with their message counts."""
    out = {}
    for name, sets, t in (("2pc", datasets.generate_sets(32, 16, 2, 8, 41), None),
                          ("4x2", datasets.generate_sets(32, 16, 4, 8, 42), 2)):
        sid = bytes([len(sets)]) * 16
        roots = {i: merkle.root(s, sid) for i, s in enumerate(sets, start=1)}
        spec = harness.Session(dict(enumerate(sets, start=1)), roots, sid, t)
        out[name] = (spec, sum(len(sent) for sent in party_sizes(harness.run_session(
            spec, np.random.default_rng(43))).values()))
    return out


FUZZ_SESSIONS = _sessions()
ROOT_TYPES = (psi2.MSG_ROOT_PROOFS, psin.MSG_ROOT_PROOFS)


def _corrupt(payload, how, offset, bit):
    """A bit flip at, a truncation to, or one extra byte inserted at a drawn offset."""
    if how == "flip":
        at = offset % len(payload)
        return payload[:at] + bytes([payload[at] ^ (1 << bit)]) + payload[at + 1:]
    if how == "truncate":
        return payload[: offset % len(payload)]
    at = offset % (len(payload) + 1)
    return payload[:at] + bytes([bit]) + payload[at:]


@settings(max_examples=1000, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_corrupted_message_ends_every_party_cleanly(data):
    # one party-to-party message of an honest run is corrupted in transit: no
    # exception escapes the delivery loop and every party ends done; a corrupted root
    # aborts every party. A flipped bit in a pseudorandom payload may still
    # give a wrong output, which only channel authentication can turn into an
    # abort, so outputs are not checked here.
    name = data.draw(st.sampled_from(sorted(FUZZ_SESSIONS)))
    spec, count = FUZZ_SESSIONS[name]
    target = data.draw(st.integers(0, count - 1))
    how = data.draw(st.sampled_from(["flip", "truncate", "extend"]))
    offset, bit = data.draw(st.integers(0, 1 << 16)), data.draw(st.integers(0, 7))

    rng = np.random.default_rng(43)
    engines = {i: spec.engine(i, np.random.default_rng(rng.integers(1 << 62))) for i in spec.sets}
    dealer = harness.DealerService(rng=np.random.default_rng(rng.integers(1 << 62)))
    seen, corrupted = [0], []

    class CorruptingBus(transport.BusNetwork):
        def deliver(self, src, dst, env):
            if DEALER_INDEX not in (src, dst):
                if seen[0] == target:
                    corrupted.append(env.msg_type)
                    env = transport.Envelope(env.session_id, env.msg_type,
                                             _corrupt(env.payload, how, offset, bit))
                seen[0] += 1
            super().deliver(src, dst, env)

    harness.drive(CorruptingBus(), engines, dealer)

    assert len(corrupted) == 1
    assert all(e.done for e in engines.values()), {i: e.phase for i, e in engines.items()}
    if corrupted[0] in ROOT_TYPES:
        assert all(e.aborted and e.intersection is None for e in engines.values())


class DroppingBus(transport.BusNetwork):
    """An in-process bus that loses the first message of one type."""

    def __init__(self, msg_type):
        super().__init__()
        self.drop = msg_type

    def deliver(self, src, dst, env):
        if env.msg_type == self.drop:
            self.drop = None
            return
        super().deliver(src, dst, env)


@pytest.mark.parametrize("name,msg_type,waiting", [
    ("2pc", psi2.MSG_MASKED_VECTOR, "[1, 2]"),  # the sender waits for it, the receiver for its answer
    ("4x2", psin.MSG_OPPRF_HINT, "[4]"),        # only the output party waits for a hint
], ids=["2pc-0x02", "4x2-0x14"])
def test_quiet_bus_names_the_waiting_parties(name, msg_type, waiting):
    # a bus that goes quiet while a party still waits is a transport failure,
    # not a silent end of the run
    spec, _ = FUZZ_SESSIONS[name]
    with pytest.raises(TransportError, match=f"parties {re.escape(waiting)} wait"):
        harness.run_session(spec, np.random.default_rng(43), DroppingBus(msg_type))


@pytest.mark.parametrize("parties,t", [(2, None), (3, 1), (5, 2), (8, 4)],
                         ids=["2pc", "3x1", "5x2", "8x4"])
def test_dealer_clients_are_the_parties_that_ask_it(parties, t):
    # a networked dealer ends once exactly these parties have hung up
    sets = datasets.generate_sets(32, 16, parties, 8, 50 + parties)
    run = (harness.run_two_party(*sets, seed=51) if t is None
           else harness.run_multi_party(sets, t, seed=51))
    assert not run.aborted
    asked = {src for src, dst, *_ in run.transcript.entries if dst == DEALER_INDEX}
    assert harness.dealer_clients(parties, t) == asked
