"""Session orchestration: the session, its tampers, the dealer and the one delivery loop.

A `Session` describes a run once: the parties' commitments, their announced
roots, the session id, the collusion bound t (None selects the two-party
construction) and an optional tamper. It checks that shape, and each honest
party's commitment against its announced root, once, and every endpoint is
built from it. `drive` is the one delivery loop, which times every step of
every endpoint, and `run` the one way to drive and report the endpoints a
process holds: every party and the dealer over the in-process bus, whose one
global FIFO keeps runs reproducible under fixed seeds, or the one party, or
the dealer alone, of a networked CLI process over its TCP node.

The dealer (`DealerService`) is a `psi2.Endpoint` like the parties, built
from the session id, n and t, which it checks by the session's rule; it
admits, refuses and aborts by the parties' rules.
Its messages carry only what the envelope's session id and sender do not
fix. P_n gets one evaluation vector, the XOR over senders of their OPRFs,
which is all its test uses.

Adversarial runs install a tamper on one party, which its party applies
itself: tampering either runs the party on inputs other than its committed
sequence (flip-element changes an element, extra-element adds one,
swap-proofs reorders two) or changes the root the party sends (flip-path
flips a digest byte). Every kind is deterministic in its indices, so a
seeded tampered run is reproducible. Honest parties are expected to abort in
every tampered run; a tamper that changes nothing is refused.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import merkle, opprf, psi2, psin, transport, vole
from .errors import ConfigError, ProtocolError, TransportError
# unused here; held by name for bench/test_bench.py, which checks the tracer replaces it here too
from .psi2 import decode_root_proofs  # noqa: F401


@dataclass(frozen=True)
class Tamper:
    """One adversarial move by one party, applied after commitments are fixed.

    - flip-element:I runs on the inputs with one bit of element I flipped;
    - extra-element[:I] runs on the inputs plus one new element hashed from I (default 0);
    - swap-proofs:I,J runs on the committed sequence with elements I and J
      swapped (J bumped by one if equal);
    - flip-path:I flips digest byte I mod 32 of the root the party sends.

    Element indices are taken modulo the set size.
    """
    kind: str  # flip-element | flip-path | swap-proofs | extra-element
    party: int
    index: int = 0
    index2: int = 1

    _KINDS = ("flip-element", "flip-path", "swap-proofs", "extra-element")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown tamper kind {self.kind!r}")

    @classmethod
    def parse(cls, spec: str, party: int) -> "Tamper":
        """Parse CLI syntax like flip-element:17, swap-proofs:1,5 or extra-element:3.

        An unknown kind or a suffix that is not an integer is a ConfigError.
        """
        kind, _, rest = spec.partition(":")
        try:
            if kind == "swap-proofs":
                a, _, b = rest.partition(",")
                return cls(kind=kind, party=party, index=int(a), index2=int(b))
            if kind == "extra-element" and not rest:
                return cls(kind=kind, party=party)
            return cls(kind=kind, party=party, index=int(rest))
        except ValueError as exc:
            raise ConfigError(f"--tamper {spec}: {exc}") from exc

    def inputs(self, elements: Sequence[bytes]) -> Sequence[bytes]:
        """The inputs the party actually runs on: flip-path runs on `elements` themselves,
        every other kind changes them, and one that would not is a `ConfigError`, since the
        run would be an honest one."""
        if self.kind == "flip-path":
            return elements
        out = list(elements)
        if self.kind == "flip-element":
            i = self.index % len(out)
            for bit in range(8 * len(out[i])):
                flipped = bytearray(out[i])
                flipped[bit // 8] ^= 1 << (bit % 8)
                flipped = bytes(flipped)
                if flipped not in out:
                    out[i] = flipped
                    break
        elif self.kind == "extra-element":
            # the first SHA-256 candidate over (index, counter) that is new to the set
            taken, width = set(out), max(1, len(out[0]))
            if len(taken) >= 256 ** width and sum(len(e) == width for e in taken) == 256 ** width:
                width += 1  # every value of the set's width is taken: one byte wider
            candidates = (hashlib.sha256(f"extra-element:{self.index}:{c}".encode()).digest()[:width]
                          for c in itertools.count())
            out.append(next(e for e in candidates if e not in taken))
        elif self.kind == "swap-proofs":
            a, b = self.index % len(out), self.index2 % len(out)
            if a == b:
                b = (b + 1) % len(out)
            out[a], out[b] = out[b], out[a]
        if out == list(elements):
            raise ConfigError(f"the {self.kind} tamper of party {self.party} changes none of its inputs")
        return out

    def root(self, own: merkle.MerkleRoot) -> merkle.MerkleRoot:
        """The root the party sends for the root `own` of its inputs: flip-path changes it."""
        if self.kind != "flip-path":
            return own
        digest = bytearray(own.digest)
        digest[self.index % len(digest)] ^= 0x01
        return merkle.MerkleRoot(digest=bytes(digest), set_size=own.set_size)


def _roles(n: int, t: Optional[int]) -> Optional[psin.Roles]:
    """The roles of an (n, t) session, None in 2pc; a shape no party runs is a `ConfigError`."""
    if t is not None:
        return psin.Roles(n, t)
    if n != 2:
        raise ConfigError("a session without 't' is two-party: parties 1 and 2")
    return None


@dataclass(frozen=True)
class Session:
    """One description of a run, its shape checked here once: every endpoint is built from
    it, and a shape the parties do not run, or an honest party's commitment of another root
    or salt, is a `ConfigError` before any endpoint exists. Nothing re-hashes a set."""
    # party index -> its commitment; a networked party holds only its own
    commitments: dict[int, merkle.Commitment]
    roots: dict[int, merkle.MerkleRoot]    # party index -> announced root
    session_id: bytes
    t: Optional[int] = None                # collusion bound; None for the two-party construction
    tamper: Optional[Tamper] = None

    def __post_init__(self):
        if len(self.session_id) != 16:
            raise ConfigError("session id must be 16 bytes")
        if sorted(self.roots) != list(range(1, self.n + 1)):
            raise ConfigError("a root must be announced for every party")
        _roles(self.n, self.t)
        if self.t is not None and len({r.set_size for r in self.roots.values()}) != 1:
            raise ConfigError("announced commitments disagree on the set size")
        for i, own in self.commitments.items():
            if i not in self.roots:
                raise ConfigError(f"party index {i} out of range")
            if not own.elements:
                raise ConfigError("input set must be nonempty")
            if len(set(own.elements)) != len(own.elements):
                raise ConfigError("input set must contain distinct elements")
            if not self.tamper_at(i) and (own.salt, own.root) != (self.session_id, self.roots[i]):
                raise ConfigError("input set does not match the announced commitment")
        if self.tamper is not None and self.tamper.party not in self.roots:
            raise ConfigError(f"the tamper names party {self.tamper.party}, not one of the session")

    @property
    def n(self) -> int:
        return len(self.roots)

    @property
    def output_party(self) -> int:
        """The party that learns the intersection: the receiver P_1, or P_n."""
        return 1 if self.t is None else self.n

    def tamper_at(self, i: int) -> Optional[Tamper]:
        return self.tamper if self.tamper is not None and self.tamper.party == i else None

    def engine(self, i: int, rng: Optional[np.random.Generator] = None):
        """Party i's engine."""
        return (psi2.Psi2Engine if self.t is None else psin.PsinEngine)(self, i, rng)

    def endpoints(self, rng: np.random.Generator) -> tuple[dict, DealerService]:
        """Each given party's engine, in index order, then the dealer, seeded from `rng` in turn."""
        engines = {i: self.engine(i, np.random.default_rng(rng.integers(1 << 62)))
                   for i in sorted(self.commitments)}
        dealer = DealerService(self.session_id, self.n, self.t,
                               rng=np.random.default_rng(rng.integers(1 << 62)))
        return engines, dealer


@dataclass
class RunResult:
    intersection: Optional[set[bytes]]
    aborted: bool
    abort_parties: list[int]  # reported endpoints that aborted: honest parties, or the dealer (0)
    report: dict
    meter: transport.Meter  # the backend's log of what it carried


class DealerService(psi2.Endpoint):
    """Party 0 of one session: serves VOLE correlations and ideal-OPRF keys/evaluations.

    It is owed one VOLE request by each of the two parties, or one OPRF
    request by each hint sender and by P_n; those parties are its peers,
    its clients. A VOLE request is the bare length, its role the sender's
    (party 1 is the receiver); one correlation is drawn, and both halves
    sent, once both requests are in and agree. A sender's OPRF key request
    is empty; P_n's request is its digests. Refused before anything is
    drawn, with an abort to every client naming the sender: a request for
    another session, one not owed (a second one, or one from a party owed
    nothing), a correlation length outside 1..vole.MAX_LENGTH or unlike the
    other party's, or a malformed body. It keeps the n and t it was built
    from, which a dealer's process reports.
    """

    def __init__(self, session_id: bytes, n: int, t: Optional[int],
                 rng: Optional[np.random.Generator] = None):
        roles = _roles(n, t)
        self._senders = [] if roles is None else roles.senders
        clients = [1, 2] if roles is None else self._senders + [n]
        request = vole.MSG_VOLE_REQUEST if t is None else opprf.MSG_OPRF_DEALER
        super().__init__(session_id, clients, {request: dict.fromkeys(clients, 1)}, rng)
        self.n, self.t = n, t
        self.ABORT_TYPE = psi2.MSG_ABORT if t is None else psin.MSG_ABORT
        self.started = True  # nothing to start: it serves from the first request on
        self.oprf = opprf.OprfDealer(self._senders, rng=self.rng)
        self._length: Optional[int] = None  # the first VOLE request's, until the second is in
        self.served = 0  # requests answered, whether or not the answer got through

    def handle(self, src: int, env: transport.Envelope) -> list:
        return self._route(src, env, {vole.MSG_VOLE_REQUEST: self._on_vole_request,
                                      opprf.MSG_OPRF_DEALER: self._on_oprf_request})

    def _refusal(self, src: int, exc: ProtocolError) -> str:
        return f"party {src}: {exc}"  # a client sees no other client's traffic

    def _reply(self, dst: int, msg_type: int, payload: bytes) -> tuple:
        self.served += 1
        return dst, self._env(msg_type, payload)

    def _on_vole_request(self, src: int, payload: bytes) -> list:
        if len(payload) != 4:
            raise ProtocolError("a correlation request is its 4-byte length")
        length = int.from_bytes(payload, "big")
        if not 1 <= length <= vole.MAX_LENGTH:
            raise ProtocolError(f"correlation length {length} outside 1..{vole.MAX_LENGTH}")
        if self._length is None:
            self._length = length
            return []
        if length != self._length:
            raise ProtocolError(f"correlation lengths differ: {length} against "
                                f"{self._length} from party {3 - src}")
        return [self._reply(j, vole.MSG_VOLE_MATERIAL, material)
                for j, material in zip((1, 2), vole.materials(length, self.rng))]

    def _on_oprf_request(self, src: int, payload: bytes) -> list:
        if src in self._senders:
            if payload:
                raise ProtocolError("an OPRF key request has no body")
            return [self._reply(src, opprf.MSG_OPRF_DEALER, self.oprf.key(src))]
        values = self.oprf.evaluate(self._senders, opprf.decode_queries(payload))
        return [self._reply(src, opprf.MSG_OPRF_DEALER, values.tobytes())]


def drive(net, engines: dict, dealer: Optional[DealerService] = None,
          timeout: Optional[float] = None) -> None:
    """Run `engines` (party index -> engine) and `dealer` over `net` until the traffic ends.

    The one delivery loop: every party and the dealer of a bus run, or the one
    party or dealer of a TCP process. Engines start in index order, and each
    message received goes to its destination's engine, or to the dealer at
    index 0. Every `start` and `handle` called here is timed into its
    endpoint's `phase_ms`, under "start" or the message type ("0x01"), so
    `phase_ms` covers every step the endpoint takes. The loop ends once every
    engine is done and nothing is left queued for them. An empty receive
    while an engine waits raises `TransportError` naming the waiting parties
    and what each is still owed: at once on the bus, after `timeout` seconds
    over TCP. With no engine, as in a dealer process, the run ends once the
    dealer has aborted and nothing is queued, once all of its clients have
    hung up (nothing of theirs can still be queued then), or at an empty
    receive, which caps the wait for a client that never shows up.

    A failed TCP send raises only when the traffic ends, and not at all if its
    sender ended aborted or is the dealer: its peer may have aborted and left,
    with the abort already queued here. Later sends to that peer are skipped.
    Nothing is caught: every endpoint, the dealer too, turns every fault a
    peer causes into a clean abort, so anything that escapes is a defect.
    """
    unsent: dict[int, tuple[int, TransportError]] = {}  # dst -> (src, its first failed send)
    left: set[int] = set()  # parties whose TCP connection has hung up

    def step(i: int, endpoint, key: str, call, *args) -> None:
        """Call one step of endpoint `i`, add its time to `phase_ms[key]`, send what it returns."""
        t0 = time.perf_counter()
        outs = call(*args)
        endpoint.phase_ms[key] = endpoint.phase_ms.get(key, 0.0) + (time.perf_counter() - t0) * 1000
        for dst, env in outs:
            if dst in unsent:
                continue
            try:
                net.deliver(i, dst, env)
            except TransportError as exc:
                unsent[dst] = (i, exc)

    for i in sorted(engines):
        step(i, engines[i], "start", engines[i].start)
    while True:
        waiting = [i for i, e in engines.items() if not e.done]
        idle = not waiting if engines else dealer.aborted
        got = net.recv(0 if idle else timeout)
        if got is None:
            failed = [exc for src, exc in unsent.values()
                      if src in engines and not engines[src].aborted]
            if failed:
                raise failed[0]
            if waiting:
                owed = "; ".join(f"party {i} awaits {engines[i].awaited()}" for i in waiting)
                raise TransportError(f"traffic stopped while parties {waiting} wait for it: {owed}")
            return
        src, dst, env = got
        if env is None:
            left.add(src)
            if not engines and left.issuperset(dealer.peers):
                return
            continue
        endpoint = dealer if dst == transport.DEALER_INDEX else engines[dst]
        step(dst, endpoint, f"0x{env.msg_type:02x}", endpoint.handle, src, env)


def run(net, session: Optional[Session], engines: dict,
        dealer: Optional[DealerService] = None, timeout: Optional[float] = None) -> RunResult:
    """Drive the endpoints a process holds over `net` with `drive`, and report them.

    `session` describes the run; it is None only in a dealer's process, which
    holds no party's roots and reports what its dealer was built from. The
    report's bytes are views of the backend's one log, its `meter`, which
    the result carries. The report also holds the step times `drive` keeps
    (`phase_ms`) of every endpoint it drove, the dealer's under 0,
    `elapsed_ms`, and the abort reasons, except the tamperer's, of the
    process's parties, or of its dealer if it holds none. So a bus run
    reports the reason of every honest party and not the dealer's, whose
    refusal reaches each client as an abort of its own. `bytes_by_party`
    holds every party the log names, the dealer (0) included; a TCP node
    logs only its own links, so there another party's figures are its
    traffic with this one.
    The element count `n` is the lowest-indexed held party's set size, 0 in
    a dealer's process, which holds no elements.
    """
    t0 = time.perf_counter()
    drive(net, engines, dealer, timeout)
    elapsed = (time.perf_counter() - t0) * 1000

    if session is not None:
        session_id, parties, t = session.session_id, session.n, session.t
        reasons = {i: e.abort_reason for i, e in engines.items()
                   if e.aborted and not session.tamper_at(i)}
        output = engines.get(session.output_party)
        n = len(session.commitments[min(engines)].elements)
    else:
        session_id, parties, t = dealer.session_id, dealer.n, dealer.t
        reasons = {transport.DEALER_INDEX: dealer.abort_reason} if dealer.aborted else {}
        output, n = None, 0
    protocol = net.meter.protocol_bytes()
    driven = engines if dealer is None else {transport.DEALER_INDEX: dealer, **engines}
    report = {
        "session": session_id.hex(),
        "n": n,
        "parties": parties,
        "t": t,
        "bytes_total": protocol,
        "bits_per_element": protocol * 8 / n if n else 0.0,
        "per_type": net.meter.per_type(),
        "setup_bytes": net.meter.setup_bytes(),
        "bytes_by_party": net.meter.by_party(),
        "phase_ms": {i: e.phase_ms for i, e in driven.items()},
        "elapsed_ms": elapsed,
        "aborted": bool(reasons),
        "abort_reasons": reasons,
    }
    return RunResult(intersection=output.intersection if output is not None else None,
                     aborted=bool(reasons), abort_parties=list(reasons), report=report,
                     meter=net.meter)


def _run(sets, t, session_id, tamper, seed, network, announced_roots) -> RunResult:
    rng = np.random.default_rng(seed)
    if session_id is None:
        session_id = rng.bytes(16)
    given = announced_roots or {}
    # a set is committed here only when no commitment of it was given
    commitments = {i: given[i] if i in given and given[i].elements == s
                   else merkle.root(s, session_id) for i, s in sets.items()}
    roots = {i: given.get(i, own).root for i, own in commitments.items()}
    session = Session(commitments, roots, session_id, t, tamper)
    # the endpoints are seeded from `rng` as `Session.endpoints` says
    return run(network if network is not None else transport.BusNetwork(),
               session, *session.endpoints(rng))


def run_two_party(receiver_set: list[bytes], sender_set: list[bytes], *,
                  session_id: Optional[bytes] = None, tamper: Optional[Tamper] = None,
                  seed: Optional[int] = None, network: Optional[transport.BusNetwork] = None,
                  announced_roots: Optional[dict[int, merkle.Commitment]] = None) -> RunResult:
    """One full two-party session over the in-process bus."""
    return _run({1: tuple(receiver_set), 2: tuple(sender_set)}, None,
                session_id, tamper, seed, network, announced_roots)


def run_multi_party(input_sets: list[list[bytes]], t: int, *,
                    session_id: Optional[bytes] = None, tamper: Optional[Tamper] = None,
                    seed: Optional[int] = None, network: Optional[transport.BusNetwork] = None,
                    announced_roots: Optional[dict[int, merkle.Commitment]] = None) -> RunResult:
    """One full n-party session over the in-process bus; output lands at P_n."""
    return _run({i + 1: tuple(s) for i, s in enumerate(input_sets)}, t,
                session_id, tamper, seed, network, announced_roots)
