"""Whole sessions of both engines: pinned message sizes, one hash per element, a fuzz gate,
and admission at every party and at the dealer."""

import dataclasses
import hashlib
import os
import random
import re
import subprocess
import sys
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from authpsi import datasets, gf, harness, merkle, okvs, opprf, psi2, psin, transport, vole
from authpsi.errors import ConfigError, TransportError
from authpsi.transport import DEALER_INDEX


def _run(spec, seed, bus=None):
    """Every party and the dealer of `spec` over the bus, seeded from `seed`."""
    return harness.run(bus if bus is not None else transport.BusNetwork(), spec,
                       *spec.endpoints(harness.run_stream(seed)))


def _announced(commitments):
    """The root each party announces: the one of its commitment."""
    return {i: c.root for i, c in commitments.items()}


def party_sizes(run, dealer=False):
    """Per directed pair of parties, or with `dealer` per pair with the dealer,
    the ordered (type, wire bytes) of every message."""
    return {pair: tuple((msg_type, nbytes) for msg_type, nbytes, _ in sent)
            for pair, sent in run.meter.per_pair().items() if (DEALER_INDEX in pair) == dealer}


TWO_PARTY_SIZES = {
    (1, 2): ((0x01, 58), (0x02, 20677)),
    (2, 1): ((0x01, 58), (0x03, 8213)),
}

# (8,4) at n_l = 256: group A is P_1..P_3, the coordinator P_4, group B P_5..P_8
MULTI_PARTY_SIZES = {
    **{(i, j): ((0x11, 58),) for i in range(1, 9) for j in range(1, 9) if i != j},
    **{(i, 4): ((0x11, 58), (0x13, 2797)) for i in (1, 2, 3)},
    **{(i, j): ((0x11, 58), (0x12, 37)) for i in (1, 2, 3) for j in (5, 6, 7, 8)},
    **{(i, j): ((0x11, 58), (0x16, 37)) for i in (4, 5, 6, 7) for j in (5, 6, 7) if i < j},
    **{(i, 8): ((0x11, 58), (0x16, 37), (0x14, 2797)) for i in (4, 5, 6, 7)},
}

# dealer traffic of the same two sessions: a VOLE request is its 4-byte
# length, material the bare seed and C (1290 cells) or seed and delta; an
# OPRF key request is empty and answered with the key, P_8 sends its 256
# digests and gets one uint64 per digest back
DEALER_SIZES = {
    "2pc": {(1, 0): ((0x21, 25),), (2, 0): ((0x21, 25),),
            (0, 1): ((0x22, 20693),), (0, 2): ((0x22, 69),)},
    "8x4": {**{(i, 0): ((0x15, 21),) for i in (4, 5, 6, 7)},
            **{(0, i): ((0x15, 37),) for i in (4, 5, 6, 7)},
            (8, 0): ((0x15, 4117),), (0, 8): ((0x15, 2069),)},
}


def test_message_sizes_are_pinned():
    # every party-to-party message keeps its type, its place and its size
    x, y = datasets.generate_sets(1024, 16, 2, 256, 21)
    run = harness.run_two_party(x, y, seed=22)
    assert party_sizes(run) == TWO_PARTY_SIZES
    assert party_sizes(run, dealer=True) == DEALER_SIZES["2pc"]
    sets = datasets.generate_sets(256, 16, 8, 64, 23)
    run = harness.run_multi_party(sets, 4, seed=24)
    assert party_sizes(run) == MULTI_PARTY_SIZES
    assert party_sizes(run, dealer=True) == DEALER_SIZES["8x4"]


def test_first_session_in_a_fresh_process_does_not_import_numpy_ma():
    # numpy.ma is a lazy import of some 30 ms (np.unique pulls it in); a cold
    # session, as one CLI run is, must not pay for it
    code = ("import sys\n"
            "from authpsi import datasets, harness\n"
            "x, y = datasets.generate_sets(1024, 16, 2, 256, 21)\n"
            "assert len(harness.run_two_party(x, y, seed=22).intersection) == 256\n"
            "assert 'numpy.ma' not in sys.modules, 'a session imported numpy.ma'\n")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_each_element_is_hashed_once(monkeypatch):
    # every per-element value derives from one hash per element: each party
    # hashes each of its elements once, into its SHA-256 leaf in merkle, when
    # it commits before the session; an honest session given those
    # commitments hashes no leaf at all, and a tampered party only the inputs
    # its tamper makes, once each. No other hash algorithm runs, the dealer
    # hashes nothing (it reads who asks from the envelope), and no other
    # hashing runs once per element
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

    for name in (*hashlib.algorithms_guaranteed, "new"):
        monkeypatch.setattr(hashlib, name, counted(name, getattr(hashlib, name)))
    monkeypatch.setattr(harness.DealerService, "handle", handle)

    x, y = datasets.generate_sets(1024, 16, 2, 256, 31)
    sets = datasets.generate_sets(256, 16, 4, 64, 32)
    for seed, (parties, t, sid) in enumerate((([x, y], None, b"\x31" * 16),
                                              (sets, 2, b"\x32" * 16)), start=33):
        leaves.clear()
        outside.clear()
        commitments = {i: merkle.root(s, sid) for i, s in enumerate(parties, start=1)}
        assert leaves == Counter(merkle.LEAF_PREFIX + sid + e for s in parties for e in s)
        n = sum(len(s) for s in parties)
        # the interior nodes of 16-ary trees: about n / 15, where binary trees take n - 2
        assert outside.pop("authpsi.merkle") < n // 8
        assert not outside

        leaves.clear()
        assert not _run(harness.Session(commitments, _announced(commitments), sid, t), seed).aborted
        assert not leaves
        assert "authpsi.merkle" not in outside
        # what is left hashes per message, per retry or per session: far fewer calls than elements
        assert sum(outside.values()) < len(parties[0]) // 4, outside

        for kind in ("flip-element", "flip-path", "swap-proofs", "extra-element"):
            tamper = harness.Tamper(kind, party=len(parties), index=3, index2=5)
            leaves.clear()
            spec = harness.Session(commitments, _announced(commitments), sid, t, tamper)
            assert _run(spec, seed).aborted
            # flip-path runs on the committed elements, so it reuses their commitment
            hashed = () if kind == "flip-path" else tamper.inputs(parties[-1])
            assert leaves == Counter(merkle.LEAF_PREFIX + sid + e for e in hashed)
    assert not others
    assert not dealer_hashes


def _sessions():
    """The honest fuzz sessions: 2pc at n = 32 and (4,2) at n_l = 32, with their message
    counts, the dealer's included."""
    out = {}
    for name, sets, t in (("2pc", datasets.generate_sets(32, 16, 2, 8, 41), None),
                          ("4x2", datasets.generate_sets(32, 16, 4, 8, 42), 2)):
        sid = bytes([len(sets)]) * 16
        roots = {i: merkle.root(s, sid) for i, s in enumerate(sets, start=1)}
        spec = harness.Session(roots, _announced(roots), sid, t)
        out[name] = (spec, len(_run(spec, 43).meter.entries))
    return out


FUZZ_SESSIONS = _sessions()
ROOT_TYPES = (psi2.MSG_ROOT_PROOFS, psin.MSG_ROOT_PROOFS)


def _corrupt(payload, how, offset, bit):
    """A bit flip at, a truncation to, or one extra byte inserted at a drawn offset;
    an empty payload has nothing to flip or cut."""
    if how != "extend" and not payload:
        return payload
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
    # one message of an honest run, between parties or to or from the dealer,
    # is corrupted in transit: no exception escapes the delivery loop and
    # every party ends done; a corrupted root aborts every party. A flipped
    # bit in a pseudorandom payload may still give a wrong output, which only
    # channel authentication can turn into an abort, so outputs are not
    # checked here.
    name = data.draw(st.sampled_from(sorted(FUZZ_SESSIONS)))
    spec, count = FUZZ_SESSIONS[name]
    target = data.draw(st.integers(0, count - 1))
    how = data.draw(st.sampled_from(["flip", "truncate", "extend"]))
    offset, bit = data.draw(st.integers(0, 1 << 16)), data.draw(st.integers(0, 7))

    engines, dealer = spec.endpoints(harness.run_stream(43))
    seen, corrupted = [0], []

    class CorruptingBus(transport.BusNetwork):
        def deliver(self, src, dst, env):
            if seen[0] == target:
                corrupted.append(env.msg_type)
                env = transport.Envelope(env.session_id, env.msg_type,
                                         _corrupt(env.payload, how, offset, bit))
            seen[0] += 1
            super().deliver(src, dst, env)

    harness.drive(CorruptingBus(), engines, dealer)

    assert len(corrupted) == 1
    assert all(e.done for e in engines.values()), {i: e.awaited() for i, e in engines.items()}
    if corrupted[0] in ROOT_TYPES:
        assert all(e.aborted and e.intersection is None for e in engines.values())


class DroppingBus(transport.BusNetwork):
    """An in-process bus that loses the first message of one type, and notes its sender."""

    def __init__(self, msg_type):
        super().__init__()
        self.drop = msg_type
        self.dropped_from = None

    def deliver(self, src, dst, env):
        if env.msg_type == self.drop:
            self.drop, self.dropped_from = None, src
            return
        super().deliver(src, dst, env)


@pytest.mark.parametrize("name,msg_type,waiting", [
    ("2pc", psi2.MSG_MASKED_VECTOR, "[1, 2]"),  # the sender waits for it, the receiver for its answer
    ("4x2", psin.MSG_OPPRF_HINT, "[4]"),        # only the output party waits for a hint
], ids=["2pc-0x02", "4x2-0x14"])
def test_quiet_bus_names_the_waiting_parties(name, msg_type, waiting):
    # a bus that goes quiet while a party still waits is a transport failure,
    # not a silent end of the run; it names what each waiting party is still
    # owed, the lost message among it
    spec, _ = FUZZ_SESSIONS[name]
    bus = DroppingBus(msg_type)
    with pytest.raises(TransportError, match=f"parties {re.escape(waiting)} wait") as err:
        _run(spec, 43, bus)
    assert f"{msg_type:#04x} from party {bus.dropped_from}" in str(err.value)


SHAPE_SID = b"\x51" * 16


def _commit_under_another_salt(args, i):
    """Party i's commitment and its announced root, both of its set under a salt other than
    the session id, so that they agree with each other."""
    other = merkle.root(args["commitments"][i].elements, bytes(16))
    args["commitments"][i], args["roots"][i] = other, other.root

# (parties, t, change to an honest session's arguments, the refusal): a change
# of None leaves the shape (parties, t) itself at fault
SHAPE_FAULTS = {
    "session-id-of-15-bytes": (2, None, lambda a: a.update(session_id=bytes(15)),
                               "session id must be 16 bytes"),
    "roots-of-parties-1-and-3": (2, None, lambda a: a["roots"].update({3: a["roots"].pop(2)}),
                                 "a root must be announced for every party"),
    "2pc-of-3-parties": (3, None, None, "a session without 't' is two-party: parties 1 and 2"),
    "npc-of-2-parties": (2, 1, None, "multi-party runs need at least 3 parties"),
    "t-0": (4, 0, None, "collusion bound t=0 out of range for n=4"),
    "t-above-the-cap": (4, 3, None, "collusion bound t=3 out of range for n=4"),
    "n-minus-t-of-1": (3, 2, None, "n - t must be at least 2"),
    "unequal-announced-sizes": (3, 1, lambda a: a["roots"].update(
        {2: merkle.root(a["commitments"][2].elements[1:], SHAPE_SID).root}),
        "announced commitments disagree on the set size"),
    "empty-set": (2, None, lambda a: a["commitments"].update(
        {2: dataclasses.replace(a["commitments"][2], elements=())}), "input set must be nonempty"),
    "repeated-element": (2, None, lambda a: a["commitments"].update(
        {2: dataclasses.replace(a["commitments"][2], elements=a["commitments"][2].elements * 2)}),
        "input set must contain distinct elements"),
    "set-of-no-party": (2, None, lambda a: a["commitments"].update({3: a["commitments"][2]}),
                        "party index 3 out of range"),
    "drifted-set": (2, None, lambda a: a["commitments"].update(
        {2: merkle.root(a["commitments"][2].elements[::-1], SHAPE_SID)}),
        "input set does not match the announced commitment"),
    "commitment-under-another-salt": (2, None, lambda a: _commit_under_another_salt(a, 2),
                                      "input set does not match the announced commitment"),
    "tamper-of-no-party": (2, None, lambda a: a.update(tamper=harness.Tamper("flip-element", 3)),
                           "the tamper names party 3"),
}


@pytest.mark.parametrize("fault", sorted(SHAPE_FAULTS))
def test_session_refuses_a_shape_the_parties_do_not_run(fault):
    # the session's shape is checked once, where the session is described;
    # the dealer, built from (session id, n, t) alone, refuses a bad (n, t) by the same rule
    parties, t, change, message = SHAPE_FAULTS[fault]
    sets = dict(enumerate(datasets.generate_sets(8, 16, parties, 2, 70), start=1))
    commitments = {i: merkle.root(s, SHAPE_SID) for i, s in sets.items()}
    args = dict(commitments=commitments, roots=_announced(commitments), session_id=SHAPE_SID, t=t)
    if change is None:
        with pytest.raises(ConfigError, match=re.escape(message)):
            harness.DealerService(SHAPE_SID, parties, t)
    else:
        harness.Session(**args)  # the session before the change is sound
        change(args)
    with pytest.raises(ConfigError, match=re.escape(message)):
        harness.Session(**args)


def test_repeated_element_is_refused_though_its_commitment_has_a_digest_per_element():
    # merkle.root hashes the repeat into a second equal digest, so the count matches
    # and the repeat shows in the digests' limb 0
    x, y = datasets.generate_sets(8, 16, 2, 2, 70)
    commitments = {1: merkle.root(x, SHAPE_SID), 2: merkle.root(y + y[:1], SHAPE_SID)}
    assert len(commitments[2].digests) == len(commitments[2].elements)
    with pytest.raises(ConfigError, match="input set must contain distinct elements"):
        harness.Session(commitments, _announced(commitments), SHAPE_SID)


def test_distinct_elements_whose_digests_share_limb_0_are_accepted():
    # a repeated limb 0 does not decide: the elements themselves are compared
    x, y = datasets.generate_sets(8, 16, 2, 2, 70)
    commitments = {1: merkle.root(x, SHAPE_SID), 2: merkle.root(y[:2], SHAPE_SID)}
    digests = commitments[2].digests.copy()
    digests[1, 0] = digests[0, 0]
    commitments[2] = dataclasses.replace(commitments[2], digests=digests)
    harness.Session(commitments, _announced(commitments), SHAPE_SID)


@pytest.mark.parametrize("parties,t", [(2, None), (3, 1), (5, 2), (8, 4)],
                         ids=["2pc", "3x1", "5x2", "8x4"])
def test_dealer_clients_are_the_parties_that_ask_it(parties, t):
    # a networked dealer ends once exactly these parties have hung up, and
    # they are the parties whose engines are owed something by the dealer,
    # which a networked party dials up front
    sets = datasets.generate_sets(32, 16, parties, 8, 50 + parties)
    run = (harness.run_two_party(*sets, seed=51) if t is None
           else harness.run_multi_party(sets, t, seed=51))
    assert not run.aborted
    asked = {src for src, dst, *_ in run.meter.entries if dst == DEALER_INDEX}
    sid = bytes(16)
    commitments = {i: merkle.root(s, sid) for i, s in enumerate(sets, start=1)}
    spec = harness.Session(commitments, _announced(commitments), sid, t)
    assert set(harness.DealerService(sid, parties, t).peers) == asked
    assert {i for i in spec.commitments if spec.engine(i).awaits(DEALER_INDEX)} == asked


@pytest.mark.parametrize("parties,t", [(2, None), (4, 2)], ids=["2pc", "4x2"])
def test_every_endpoint_draws_from_its_own_key_stream(parties, t):
    # each party engine and the dealer holds a gf.KeyStream under a 16-byte key
    # drawn from the run's stream: no two endpoints of a run share a key, a
    # seed fixes every key, and two unseeded runs share none
    sets = dict(enumerate(datasets.generate_sets(32, 16, parties, 8, 70 + parties), start=1))
    sid = bytes([0x70 + parties]) * 16
    commitments = {i: merkle.root(s, sid) for i, s in sets.items()}
    spec = harness.Session(commitments, _announced(commitments), sid, t)

    def keys(seed):
        engines, dealer = spec.endpoints(harness.run_stream(seed))
        streams = [engines[i].rng for i in sorted(engines)] + [dealer.rng]
        assert all(type(s) is gf.KeyStream and len(s.key) == 16 for s in streams)
        if t is not None:  # the dealer drew its OPRF keys, in sender order, from its stream
            replay, senders = gf.KeyStream(dealer.rng.key), psin.Roles(parties, t).senders
            assert [dealer.oprf.key(s) for s in senders] == [replay.bytes(16) for _ in senders]
        return [s.key for s in streams]

    seeded, unseeded = keys(7), [keys(None) for _ in range(2)]
    assert keys(7) == seeded
    stream = harness.run_stream(7)
    assert seeded == [stream.bytes(16) for _ in range(parties + 1)]
    for run in (seeded, *unseeded):
        assert len(set(run)) == parties + 1
    assert not set(unseeded[0]) & set(unseeded[1])


@pytest.mark.parametrize("parties,t", [(2, None), (8, 4)], ids=["2pc", "8x4"])
def test_each_party_receives_exactly_what_it_is_owed(parties, t):
    # in an honest session every engine, and the dealer, is delivered, per
    # (type, sender), exactly the messages its role owed it at the start, and
    # ends owed nothing
    sets = dict(enumerate(datasets.generate_sets(64, 16, parties, 16, 61), start=1))
    sid = bytes([0x60 + parties]) * 16
    commitments = {i: merkle.root(s, sid) for i, s in sets.items()}
    spec = harness.Session(commitments, _announced(commitments), sid, t)
    engines, dealer = spec.endpoints(harness.run_stream(62))
    ends = {**engines, DEALER_INDEX: dealer}
    owed = {i: Counter({(msg_type, src): k for msg_type, left in e._owed.items()
                        for src, k in left.items()}) for i, e in ends.items()}
    bus = transport.BusNetwork()
    harness.drive(bus, engines, dealer)
    delivered = {i: Counter() for i in ends}
    for src, dst, msg_type, *_ in bus.meter.entries:
        delivered[dst][msg_type, src] += 1
    assert delivered == owed
    assert all(e.done and not e.aborted for e in engines.values())
    assert not any(e._owed for e in ends.values())


@pytest.mark.parametrize("name", sorted(FUZZ_SESSIONS))
def test_every_step_of_every_engine_is_timed(name):
    # `drive` times each engine's start and each message it handles, keyed by
    # "start" or the message type, and those steps fit inside the run; the
    # dealer, which has nothing to start, is reported under 0 with its own
    spec, _ = FUZZ_SESSIONS[name]
    run = _run(spec, 43)
    phase_ms, elapsed = run.report["phase_ms"], run.report["elapsed_ms"]
    assert set(phase_ms) == {DEALER_INDEX} | set(spec.commitments)
    for i, steps in phase_ms.items():
        delivered = {f"0x{msg_type:02x}" for _, dst, msg_type, *_ in run.meter.entries
                     if dst == i}
        assert delivered, i
        assert set(steps) == delivered | ({"start"} if i != DEALER_INDEX else set()), i
        assert all(ms >= 0 for ms in steps.values()), i
        assert sum(steps.values()) <= elapsed, i
    assert sum(ms for steps in phase_ms.values() for ms in steps.values()) <= elapsed


class MisroutingBus(transport.BusNetwork):
    """An in-process bus that re-addresses the first message of one type to another party."""

    def __init__(self, msg_type, to):
        super().__init__()
        self.misroute = (msg_type, to)

    def deliver(self, src, dst, env):
        if self.misroute is not None and env.msg_type == self.misroute[0]:
            dst, self.misroute = self.misroute[1], None
        super().deliver(src, dst, env)


# (4,2): group A is P_1, the coordinator P_2, group B P_3 and P_4, the hint senders P_2 and P_3
@pytest.mark.parametrize("name,msg_type,to", [
    ("2pc", psi2.MSG_MASKED_VECTOR, 1),   # 1 -> 2, back to the receiver itself
    ("4x2", psin.MSG_GROUP_KEY, 2),       # 1 -> 3, to the coordinator
    ("4x2", psin.MSG_SHARE_TABLE, 3),     # 1 -> 2, to a group-B party
    ("4x2", psin.MSG_OPPRF_HINT, 1),      # to P_4, to a group-A party
    ("4x2", psin.MSG_ZS_SEED, 1),         # 2 -> 3, to a party outside the subgroup
], ids=["2pc-0x02", "4x2-0x12", "4x2-0x13", "4x2-0x14", "4x2-0x16"])
def test_misrouted_message_aborts_every_party(name, msg_type, to):
    # a message delivered to a party that is not owed it is refused on
    # admission, and the abort reaches every party: nobody ends with output
    spec, _ = FUZZ_SESSIONS[name]
    engines, dealer = spec.endpoints(harness.run_stream(43))
    harness.drive(MisroutingBus(msg_type, to), engines, dealer)  # no escaped error
    assert engines[to].abort_reason.startswith(f"unexpected message {msg_type:#04x} from party ")
    for i, e in engines.items():
        assert e.aborted and e.intersection is None, i


def _serve_one(spec, src, env):
    """Drive a session's engines and dealer with `env` from `src` queued for the
    dealer ahead of the session's own traffic; the engines and the dealer after."""
    engines, dealer = spec.endpoints(harness.run_stream(43))
    bus = transport.BusNetwork()
    bus.deliver(src, DEALER_INDEX, env)
    harness.drive(bus, engines, dealer)  # returns: a refusal is an abort, not an error
    return engines, dealer


def assert_dealer_refused(engines, dealer, reason):
    """The dealer aborted with `reason`, and every client of it ends aborted with
    that reason, named as the dealer's, and no output."""
    assert dealer.aborted and dealer.abort_reason == reason
    for i in dealer.peers:
        assert engines[i].aborted and engines[i].intersection is None, i
        assert engines[i].abort_reason == f"dealer: {reason}", i


LONGEST, HONEST = vole.MAX_LENGTH, okvs.table_length(32)


@pytest.mark.parametrize("src,length,reason", [
    (1, 0, f"party 1: correlation length 0 outside 1..{LONGEST}"),
    (1, LONGEST + 1, f"party 1: correlation length {LONGEST + 1} outside 1..{LONGEST}"),
    # party 1's request, one entry longer than party 2's, is in first
    (1, HONEST + 1, f"party 2: correlation lengths differ: {HONEST} against {HONEST + 1} from party 1"),
], ids=["zero", "too-long", "one-longer-than-peer"])
def test_dealer_refuses_a_correlation_it_cannot_serve(monkeypatch, src, length, reason):
    # refused before any correlation is drawn, and the refusal reaches both
    # parties. The two requests must agree: one a single entry longer than
    # its peer's once drew a correlation of any length up to LONGEST
    def drawn(*args, **kwargs):
        raise AssertionError("a correlation was drawn")

    monkeypatch.setattr(vole, "materials", drawn)
    spec, _ = FUZZ_SESSIONS["2pc"]
    engines, dealer = _serve_one(spec, src, transport.Envelope(
        spec.session_id, vole.MSG_VOLE_REQUEST, length.to_bytes(4, "big")))
    assert_dealer_refused(engines, dealer, reason)
    assert dealer.served == 0
    # the longest length served is the last whose receiver material, the
    # expansion seed and C, fits one message, and the largest message's
    # body still fits the frame's 4-byte length
    assert 32 + 16 * LONGEST <= transport.MAX_PAYLOAD < 32 + 16 * (LONGEST + 1)
    assert transport.HEADER_BYTES - 4 + transport.MAX_PAYLOAD <= 0xFFFFFFFF


def _honest_requests(spec):
    """Each client's request to the dealer in an honest bus run of a session."""
    requests = {}

    class RecordingBus(transport.BusNetwork):
        def deliver(self, src, dst, env):
            if dst == DEALER_INDEX:
                requests[src] = env
            super().deliver(src, dst, env)

    _run(spec, 43, RecordingBus())
    return requests


# (session, sender, request, reason, served): the request is the sender's own
# honest one ("again"), that one under another session id ("other-session"),
# or a (type, body); served counts the answers sent before the refusal. A
# party asks the dealer once its last root has passed the gate, so the honest
# requests come in the order the gates pass: party 2's before party 1's in
# 2pc, and in (4,2), where the hint senders are P_2 and P_3 and the output
# party P_4, P_4's, then P_2's, then P_3's
DEALER_FAULTS = [
    ("2pc", 1, "again", "unexpected message 0x21 from party 1", 2),
    ("2pc", 2, "again", "unexpected message 0x21 from party 2", 0),
    ("2pc", 1, "other-session", "envelope for a different session", 0),
    ("2pc", 1, (opprf.MSG_OPRF_DEALER, b""), "unexpected message 0x15 from party 1", 0),
    ("2pc", 2, (vole.MSG_VOLE_REQUEST, b"\x00\x01"), "a correlation request is its 4-byte length", 0),
    ("2pc", 1, (vole.MSG_VOLE_REQUEST, bytes(5)), "a correlation request is its 4-byte length", 0),
    ("4x2", 2, "again", "unexpected message 0x15 from party 2", 2),
    ("4x2", 4, "again", "unexpected message 0x15 from party 4", 1),
    ("4x2", 3, "other-session", "envelope for a different session", 0),
    ("4x2", 1, (opprf.MSG_OPRF_DEALER, b""), "unexpected message 0x15 from party 1", 0),
    ("4x2", 3, (vole.MSG_VOLE_REQUEST, (8).to_bytes(4, "big")), "unexpected message 0x21 from party 3", 0),
    ("4x2", 2, (opprf.MSG_OPRF_DEALER, b"\x00"), "an OPRF key request has no body", 0),
    ("4x2", 4, (opprf.MSG_OPRF_DEALER, bytes(17)), "OPRF evaluation request of 17 bytes is not whole digests", 0),
]


def test_dealer_serves_each_client_once_in_its_session():
    # the dealer admits requests with the parties' own rule: one request of
    # the owed type from each client of its session. A request queued ahead
    # of an honest session's traffic that is one from a party owed nothing,
    # one for another session or a malformed one is refused at once; a copy
    # of the sender's own is served like it (a VOLE request once the peer's
    # is in too), and the sender's own is then a second request. Either way
    # `drive` returns, and the dealer's abort names the sender and reaches
    # every client
    requests = {name: _honest_requests(spec) for name, (spec, _) in FUZZ_SESSIONS.items()}
    for name, src, request, reason, served in DEALER_FAULTS:
        spec, _ = FUZZ_SESSIONS[name]
        if request == "again":
            env = requests[name][src]
        elif request == "other-session":
            env = transport.Envelope(bytes(16), requests[name][src].msg_type, requests[name][src].payload)
        else:
            env = transport.Envelope(spec.session_id, *request)
        engines, dealer = _serve_one(spec, src, env)
        assert_dealer_refused(engines, dealer, f"party {src}: {reason}")
        assert dealer.served == served, (name, src, request)


class ShuffledBus(transport.BusNetwork):
    """An in-process bus that delivers in an order TCP allows: FIFO on each directed link,
    and across links from one drawn by a seeded `random.Random` among those with traffic."""

    def __init__(self, seed):
        super().__init__()
        self._links: dict[tuple[int, int], deque] = {}
        self._draw = random.Random(seed)

    def recv(self, timeout=None):
        while self._fifo:  # the base class queues in send order; split it by link
            src, dst, env = self._fifo.popleft()
            self._links.setdefault((src, dst), deque()).append((src, dst, env))
        ready = [link for link, queued in self._links.items() if queued]
        return self._links[self._draw.choice(ready)].popleft() if ready else None


# name -> (parties, t, tamperers): 2pc tampers at either party, npc at P_1, P_{n-t} and P_n
ORDER_SHAPES = {"2pc": (2, None, (1, 2)), "3x1": (3, 1, (1, 2, 3)),
                "4x2": (4, 2, (1, 2, 4)), "8x4": (8, 4, (1, 4, 8))}
ORDER_KINDS = ("flip-element", "flip-path", "swap-proofs", "extra-element")


@pytest.mark.parametrize("name", ORDER_SHAPES)
def test_every_delivery_order_gives_the_fifo_outcome(name):
    # TCP keeps each directed link in order but not the order across links.
    # Over seeded orders of that kind, at n_l = 64: nothing escapes `drive`;
    # an honest run gives the brute-force output and, per directed pair, the
    # FIFO bus's transcript; a run with any tamper at any tamperer ends with
    # every honest party aborted and no output
    parties, t, tamperers = ORDER_SHAPES[name]
    sets = dict(enumerate(datasets.generate_sets(64, 16, parties, 16, 80 + parties), start=1))
    sid = bytes([0x80 + parties]) * 16
    roots = {i: merkle.root(s, sid) for i, s in sets.items()}
    expected = set.intersection(*(set(s) for s in sets.values()))
    honest = harness.Session(roots, _announced(roots), sid, t)
    fifo = _run(honest, 81).meter.per_pair()
    output = honest.output_party
    for order in range(40):
        engines, dealer = honest.endpoints(harness.run_stream(81))
        bus = ShuffledBus(order)
        harness.drive(bus, engines, dealer)
        assert engines[output].intersection == expected, order
        assert bus.meter.per_pair() == fifo, order
    for order, (party, kind) in enumerate((p, k) for p in tamperers for k in ORDER_KINDS):
        tamper = harness.Tamper(kind=kind, party=party, index=order, index2=order + 7)
        spec = harness.Session(roots, _announced(roots), sid, t, tamper)
        for seed in range(3 * order, 3 * order + 3):
            engines, dealer = spec.endpoints(harness.run_stream(seed))
            harness.drive(ShuffledBus(seed), engines, dealer)
            for i, e in engines.items():
                if i != party:
                    assert e.aborted and e.intersection is None, (kind, party, seed, i)


@pytest.mark.parametrize("name", ORDER_SHAPES)
def test_honest_parties_send_only_their_root_before_a_failed_gate(name):
    # a party sends its root and nothing else until every root it is owed has
    # passed the gate. With any tamper at any tamperer, over the FIFO bus and
    # seeded orders TCP allows, each honest party's gate fails, so it sends
    # its root and its abort and nothing else, and the dealer, which no honest
    # party asks, deals nothing to one; every honest party ends with no output
    parties, t, tamperers = ORDER_SHAPES[name]
    sets = dict(enumerate(datasets.generate_sets(32, 16, parties, 8, 90 + parties), start=1))
    sid = bytes([0x90 + parties]) * 16
    roots = {i: merkle.root(s, sid) for i, s in sets.items()}
    engine = psi2.Psi2Engine if t is None else psin.PsinEngine
    allowed = {engine.ROOT_TYPE, engine.ABORT_TYPE}
    for party in tamperers:
        for kind in ORDER_KINDS:
            spec = harness.Session(roots, _announced(roots), sid, t,
                                   harness.Tamper(kind=kind, party=party, index=5, index2=11))
            for order in (None, 0, 1, 2):
                engines, dealer = spec.endpoints(harness.run_stream(91))
                bus = transport.BusNetwork() if order is None else ShuffledBus(order)
                harness.drive(bus, engines, dealer)
                honest = set(engines) - {party}
                for src, dst, msg_type, *_ in bus.meter.entries:
                    where = (kind, party, order, src, dst, f"{msg_type:#04x}")
                    if src in honest:
                        assert msg_type in allowed and dst != DEALER_INDEX, where
                    assert not (src == DEALER_INDEX and dst in honest), where
                for i in honest:
                    assert engines[i].aborted and engines[i].intersection is None, (kind, party, i)


ENCODE_FAILURES = {  # place -> (session, the caller of okvs.encode_with_retry that fails, the reason)
    "2pc-receiver": ("2pc", "_after_gate", "oblivious table encoding failed"),
    "4x2-group-a": ("4x2", "_after_gate", "share table encoding failed"),
    "4x2-hint-sender": ("4x2", "opprf_program", "hint encoding failed after retries"),
}


@pytest.mark.parametrize("place", sorted(ENCODE_FAILURES))
def test_failed_encode_aborts_every_party(monkeypatch, place):
    # an OKVS encode that runs out of retries inside a handler is a clean
    # abort: the first encode at the place fails, nothing escapes `drive`,
    # every party ends aborted with no output, the others with the failing
    # party's reason, and the failing party's aborts are the last it sends
    name, caller, reason = ENCODE_FAILURES[place]
    spec, _ = FUZZ_SESSIONS[name]
    real, failed = okvs.encode_with_retry, []

    def encode(*args, **kwargs):
        if not failed and sys._getframe(1).f_code.co_name == caller:
            failed.append(caller)
            return None
        return real(*args, **kwargs)

    monkeypatch.setattr(okvs, "encode_with_retry", encode)
    engines, dealer = spec.endpoints(harness.run_stream(43))
    bus = transport.BusNetwork()
    harness.drive(bus, engines, dealer)
    assert failed == [caller]
    failing = [i for i, e in engines.items() if e.abort_reason == reason]
    assert len(failing) == 1, {i: e.abort_reason for i, e in engines.items()}
    for i, e in engines.items():
        assert e.aborted and e.intersection is None, i
        if i != failing[0]:
            assert e.abort_reason == f"party {failing[0]}: {reason}", i
    sent = [msg_type for src, _, msg_type, *_ in bus.meter.entries if src == failing[0]]
    aborts = len(engines[failing[0]].peers)
    assert sent[-aborts:] == [engines[failing[0]].ABORT_TYPE] * aborts
    assert engines[failing[0]].ABORT_TYPE not in sent[:-aborts]
