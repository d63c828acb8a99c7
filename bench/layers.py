"""Per-layer tracing of authpsi sessions, installed from outside the library.

`Tracer.active()` replaces the public functions of each layer with timing
wrappers for the duration of a `with` block and puts the originals back
afterwards; nothing under `src/` knows about it. A function imported by name
into other modules (psin and harness take the proof codec from psi2) is
replaced in every module that holds it.

Each wrapped call is either a span (name, start, end, parent span, session)
kept in memory until the run writes them out, or, for functions called once
per element, only aggregated into a call count and a total time. Self time
is a call's duration minus the time of the wrapped calls made inside it, so
the self times of all layers plus the self time of the session root add up
to the session's wall time.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

SPAN = "span"
AGGREGATE = "aggregate"  # per-element functions: counts and time, no span per call

ROOT_SESSION = "harness.session"
ROOT_SETUP = "setup"
ENGINE_LAYERS = ("psi2.Psi2Engine.", "psin.PsinEngine.")

_PSI2_ONLY = "only two-party sessions call it"
_PSIN_ONLY = "only multi-party sessions call it"
_HONEST_PSI2 = "only two-party sessions call it, and tampered ones abort before it"


class _Counting:
    """Iterator that counts the items its consumer actually takes."""

    def __init__(self, items):
        self._it = iter(items)
        self.n = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._it)
        self.n += 1
        return item


def _count_proofs(stat, args, state, result):
    stat.add("proofs", state.n)


def _before_proofs(args):
    counting = _Counting(args[1])
    return (args[0], counting) + args[2:], counting


def _count_attempts(stat, args, state, result):
    if result is None:
        stat.add("attempts", args[2])
    else:
        stat.add("attempts", result[1])
        stat.add("successes", 1)


def _count_keys(stat, args, state, result):
    stat.add("keys", len(args[1]))


def _count_elements(stat, args, state, result):
    stat.add("elements", args[1].shape[0])


def _count_delivery(stat, args, state, result):
    _, src, dst, env = args
    stat.add("messages", 1)
    if src != 0 and dst != 0:  # dealer traffic is setup, not protocol traffic
        stat.add(f"bytes.0x{env.msg_type:02x}", env.wire_bytes)


@dataclass(frozen=True)
class Target:
    module: str            # authpsi submodule that defines the function
    attr: str              # function name, or Class.method
    name: str              # metric prefix
    kind: str = SPAN
    absent: str = ""       # why a workload may never call it
    counters: tuple = ()   # counts the `after` hook keeps, reported even when zero
    before: Optional[Callable] = None
    after: Optional[Callable] = None


TARGETS = (
    Target("merkle", "root", "merkle.root"),
    Target("merkle", "gen_all_paths", "merkle.gen_all_paths"),
    Target("merkle", "batch_verify", "merkle.batch_verify", counters=("proofs",),
           before=_before_proofs, after=_count_proofs),
    Target("psi2", "encode_root_proofs", "psi2.encode_root_proofs"),
    Target("psi2", "decode_root_proofs", "psi2.decode_root_proofs"),
    Target("psi2", "check_peer_commitment", "psi2.check_peer_commitment"),
    Target("psi2", "output_digest", "psi2.output_digest", AGGREGATE, _HONEST_PSI2),
    Target("psi2", "hash_to_mask", "psi2.hash_to_mask", AGGREGATE, _PSI2_ONLY),
    Target("psi2", "Psi2Engine.start", "psi2.Psi2Engine.start", absent=_PSI2_ONLY),
    Target("psi2", "Psi2Engine.handle", "psi2.Psi2Engine.handle", absent=_PSI2_ONLY),
    Target("psin", "PsinEngine.start", "psin.PsinEngine.start", absent=_PSIN_ONLY),
    Target("psin", "PsinEngine.handle", "psin.PsinEngine.handle", absent=_PSIN_ONLY),
    Target("okvs", "encode_with_retry", "okvs.encode_with_retry",
           counters=("attempts", "successes"), after=_count_attempts),
    Target("okvs", "decode_batch", "okvs.decode_batch", absent="tampered sessions abort before any table is decoded",
           counters=("keys",), after=_count_keys),
    Target("gf", "scalar_mul_vec", "gf.scalar_mul_vec", counters=("elements",),
           after=_count_elements),
    Target("vole", "extend", "vole.extend", absent=_HONEST_PSI2),
    Target("vole", "complete_receiver_seed", "vole.complete_receiver_seed", absent=_PSI2_ONLY),
    Target("zeroshare", "prf", "zeroshare.prf", AGGREGATE, _PSIN_ONLY),
    Target("zeroshare", "zs_share", "zeroshare.zs_share", AGGREGATE, _PSIN_ONLY),
    Target("opprf", "opprf_program", "opprf.opprf_program", absent=_PSIN_ONLY),
    Target("opprf", "opprf_query_batch", "opprf.opprf_query_batch", absent=_PSIN_ONLY),
    Target("opprf", "OprfDealer.evaluate", "opprf.OprfDealer.evaluate", absent=_PSIN_ONLY),
    Target("transport", "BusNetwork.deliver", "transport.deliver", counters=("messages",),
           after=_count_delivery),
    Target("harness", "DealerService.handle", "harness.DealerService.handle"),
)

# The per-layer figures the benchmark promises for every workload: a metric
# whose function a workload never calls is reported absent with the reason.
NAMED_METRICS = (
    "merkle.root.self_s", "merkle.gen_all_paths.self_s", "merkle.batch_verify.self_s",
    "merkle.batch_verify.proofs",
    "psi2.encode_root_proofs.self_s", "psi2.decode_root_proofs.self_s",
    "psi2.output_digest.calls", "psi2.output_digest.total_s",
    "psi2.hash_to_mask.calls", "psi2.hash_to_mask.total_s",
    "okvs.encode_with_retry.calls", "okvs.encode_with_retry.self_s",
    "okvs.encode_with_retry.attempts_per_success",
    "okvs.decode_batch.keys", "okvs.decode_batch.self_s",
    "gf.scalar_mul_vec.calls", "gf.scalar_mul_vec.elements", "gf.scalar_mul_vec.self_s",
    "vole.extend.self_s", "vole.complete_receiver_seed.total_s",
    "zeroshare.prf.calls", "zeroshare.prf.total_s",
    "zeroshare.zs_share.calls", "zeroshare.zs_share.self_s",
    "opprf.opprf_program.self_s", "opprf.opprf_program.total_s",
    "opprf.opprf_query_batch.total_s", "opprf.OprfDealer.evaluate.total_s",
    "transport.deliver.messages", "transport.deliver.self_s",
    "harness.DealerService.handle.total_s", "harness.session.self_s",
)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class _Frame:
    __slots__ = ("child_s", "span_id")

    def __init__(self, span_id):
        self.child_s = 0.0
        self.span_id = span_id


class Tracer:
    """Spans and per-layer totals for the sessions run while it is active."""

    def __init__(self):
        self.session = 0          # id written into each span; the runner sets it
        self.spans: list[tuple] = []
        # (root span name, metric prefix) -> Stat, so setup and session work stay apart
        self.stats: dict[tuple[str, str], Stat] = {}
        self._stack: list[_Frame] = []
        self._root = ""
        self._origin = time.perf_counter()

    def _stat(self, name: str) -> Stat:
        key = (self._root, name)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        return stat

    def _open(self, is_span: bool) -> tuple[_Frame, Optional[int], float]:
        stack = self._stack
        parent = stack[-1].span_id if stack else None
        if is_span:
            frame = _Frame(len(self.spans))
            self.spans.append(None)  # reserve the id; filled in by _close
        else:
            frame = _Frame(parent)
        stack.append(frame)
        return frame, parent, time.perf_counter()

    def _close(self, name: str, frame: _Frame, parent: Optional[int], t0: float,
               is_span: bool) -> Stat:
        t1 = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = t1 - t0
        if stack:
            stack[-1].child_s += duration
        stat = self._stat(name)
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += duration - frame.child_s
        if is_span:
            self.spans[frame.span_id] = (frame.span_id, parent, self.session, name,
                                         t0 - self._origin, t1 - self._origin)
        return stat

    def _wrap(self, target: Target, fn):
        tracer = self
        is_span = target.kind == SPAN

        def wrapper(*args, **kwargs):
            state = None
            if target.before is not None:
                args, state = target.before(args)
            frame, parent, t0 = tracer._open(is_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stat = tracer._close(target.name, frame, parent, t0, is_span)
            if target.after is not None:
                target.after(stat, args, state, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def active(self):
        """Install every wrapper; restore the original functions on exit."""
        restore = []
        try:
            for target in TARGETS:
                home = sys.modules[f"authpsi.{target.module}"]
                if "." in target.attr:
                    cls_name, meth = target.attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(target, original))
                    continue
                original = getattr(home, target.attr)
                wrapped = self._wrap(target, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("authpsi.") and getattr(mod, target.attr, None) is original:
                        restore.append((mod, target.attr, original))
                        setattr(mod, target.attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span: one session, or one commitment step."""
        self._root = name
        frame, parent, t0 = self._open(True)
        try:
            yield
        finally:
            self._close(name, frame, parent, t0, True)
            self._root = ""

    def per_layer(self, sessions: int) -> tuple[dict[str, float], dict[str, str]]:
        """Per-session means of every layer figure, and the named ones never reached.

        Setup and session work under one name are added together; the shares
        of session time count session work only.
        """
        merged: dict[str, Stat] = {}
        for (_, name), stat in self.stats.items():
            m = merged.setdefault(name, Stat())
            m.calls += stat.calls
            m.total_s += stat.total_s
            m.self_s += stat.self_s
            for key, amount in stat.counters.items():
                m.add(key, amount)
        values: dict[str, float] = {}
        for name, counters in [(t.name, t.counters) for t in TARGETS] + [(ROOT_SESSION, ()), (ROOT_SETUP, ())]:
            stat = merged.get(name, Stat())
            values[f"{name}.calls"] = stat.calls / sessions
            values[f"{name}.total_s"] = stat.total_s / sessions
            values[f"{name}.self_s"] = stat.self_s / sessions
            for key in counters:
                values[f"{name}.{key}"] = stat.counters.get(key, 0) / sessions
        for key, amount in merged.get("transport.deliver", Stat()).counters.items():
            if key.startswith("bytes."):
                values[f"transport.{key}"] = amount / sessions
        enc = merged.get("okvs.encode_with_retry", Stat()).counters
        if enc.get("successes"):
            values["okvs.encode_with_retry.attempts_per_success"] = enc["attempts"] / enc["successes"]

        session = self.stats.get((ROOT_SESSION, ROOT_SESSION), Stat())
        engine_s = sum(stat.self_s for (root, name), stat in self.stats.items()
                       if root == ROOT_SESSION and name.startswith(ENGINE_LAYERS))
        if session.total_s > 0:
            layers_s = session.total_s - session.self_s - engine_s
            values["trace.attributed_share"] = layers_s / session.total_s
            values["trace.engine_share"] = engine_s / session.total_s

        reasons = {t.name: t.absent for t in TARGETS}
        absent = {}
        for metric in NAMED_METRICS:
            prefix = metric.rsplit(".", 1)[0]
            if metric not in values or (prefix in reasons and not merged.get(prefix, Stat()).calls):
                absent[metric] = reasons.get(prefix) or "never reached"
        return values, absent

    def write_spans(self, path) -> None:
        """One JSON object per span: id, parent, session, name, start and end in seconds."""
        with open(path, "w") as fh:
            for span in self.spans:
                sid, parent, session, name, start, end = span
                fh.write(json.dumps({"id": sid, "parent": parent, "session": session,
                                     "name": name, "start": round(start, 9),
                                     "end": round(end, 9)}) + "\n")
