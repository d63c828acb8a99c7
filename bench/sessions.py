"""Workloads, generated inputs, and one checked session of the authpsi engines.

Every input comes from the workload seed: the party sets, the session id
that salts the commitments, the engine seed and, for tampered sessions, the
tamper kind, party and indices. The expected outcome is computed here from
the generated sets and never asked of the program: an honest session must
output exactly the intersection of all sets at the output party, and a
tampered session must abort at every honest party with no output.

Importing this module puts the repository's `src/` first on `sys.path` and
refuses any `authpsi` package found elsewhere, so a checkout without the
library source fails instead of measuring some other copy.
"""

from __future__ import annotations

import contextlib
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import authpsi  # noqa: E402

if Path(authpsi.__file__).resolve().parent != SRC / "authpsi":
    raise ImportError(f"authpsi imported from {authpsi.__file__}, not from {SRC}")

from authpsi import harness, merkle, transport  # noqa: E402
from layers import ROOT_SESSION, ROOT_SETUP  # noqa: E402

ELEM_BYTES = 16
TAMPER_KINDS = ("flip-element", "flip-path", "swap-proofs", "extra-element")
# each session commits its sets this many times; setup_s is the median of all
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    parties: int       # 2 selects the two-party engine, more the multi-party one
    n: int             # elements per party
    t: Optional[int] = None
    tamper: bool = False


# why each workload exists: bench/README.md and BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("psi2-16k", parties=2, n=1 << 14),
    Workload("psin-8x4-4k", parties=8, n=1 << 12, t=4),
    Workload("psi2-16k-tamper", parties=2, n=1 << 14, tamper=True),
)}


@dataclass
class SessionInput:
    sets: list[list[bytes]]
    session_id: bytes
    engine_seed: int
    tamper: Optional[harness.Tamper]
    expected: set[bytes]


@dataclass
class SessionOutcome:
    ok: bool
    detail: str
    setup_windows: list[tuple[float, float]]  # perf_counter start and end of each commit
    session_window: tuple[float, float]        # and of the session
    protocol_bytes: int
    setup_bytes: int


def _distinct_elements(rng: np.random.Generator, count: int) -> list[bytes]:
    seen: set[bytes] = set()
    out: list[bytes] = []
    while len(out) < count:
        raw = rng.bytes(ELEM_BYTES * (count - len(out)))
        for i in range(0, len(raw), ELEM_BYTES):
            e = raw[i:i + ELEM_BYTES]
            if e not in seen:
                seen.add(e)
                out.append(e)
    return out


def make_input(workload: Workload, seed: int, index: int) -> SessionInput:
    """Inputs of session `index` of a run: a common core of a quarter of each set."""
    rng = np.random.default_rng([seed, index])
    n, parties = workload.n, workload.parties
    core = n // 4
    pool = _distinct_elements(rng, core + parties * (n - core))
    sets = []
    for p in range(parties):
        own = pool[:core] + pool[core + p * (n - core): core + (p + 1) * (n - core)]
        sets.append([own[i] for i in rng.permutation(n)])
    tamper = None
    if workload.tamper:
        # the kind cycles every session; the party alternates so that eight
        # consecutive sessions cover every (kind, party) pair once
        tamper = harness.Tamper(kind=TAMPER_KINDS[index % 4],
                                party=1 + (index + index // 4) % 2,
                                index=int(rng.integers(n)), index2=int(rng.integers(n)))
    expected = set(sets[0]).intersection(*sets[1:])
    return SessionInput(sets=sets, session_id=rng.bytes(16),
                        engine_seed=int(rng.integers(1 << 62)), tamper=tamper,
                        expected=expected)


def commit(inp: SessionInput) -> dict[int, merkle.MerkleRoot]:
    """The `authpsi commit` step for every party, salted with the session id."""
    return {i + 1: merkle.root(s, inp.session_id) for i, s in enumerate(inp.sets)}


def call_session(workload: Workload, inp: SessionInput, roots, network) -> harness.RunResult:
    if workload.parties == 2:
        return harness.run_two_party(inp.sets[0], inp.sets[1], session_id=inp.session_id,
                                     tamper=inp.tamper, seed=inp.engine_seed,
                                     network=network, announced_roots=roots)
    return harness.run_multi_party(inp.sets, workload.t, session_id=inp.session_id,
                                   tamper=inp.tamper, seed=inp.engine_seed,
                                   network=network, announced_roots=roots)


def judge(workload: Workload, inp: SessionInput, run: harness.RunResult) -> tuple[bool, str]:
    """Compare a finished session with the outcome the inputs call for."""
    if inp.tamper is not None:
        honest = {i for i in range(1, workload.parties + 1) if i != inp.tamper.party}
        missing = honest - set(run.abort_parties)
        if missing:
            return False, f"{inp.tamper.kind} by party {inp.tamper.party}: " \
                          f"honest parties {sorted(missing)} did not abort"
        if run.intersection is not None:
            return False, f"{inp.tamper.kind} by party {inp.tamper.party}: output after abort"
        return True, "aborted"
    if run.aborted or run.abort_parties:
        return False, f"honest session aborted at parties {run.abort_parties}"
    if run.intersection != inp.expected:
        got = -1 if run.intersection is None else len(run.intersection)
        return False, f"wrong output: {got} elements, expected {len(inp.expected)}"
    return True, "exact"


def run_session(workload: Workload, inp: SessionInput, tracer=None) -> SessionOutcome:
    """Commit, run and judge one session; an escaped exception is a failed session."""
    def scope(name):
        return contextlib.nullcontext() if tracer is None else tracer.root(name)

    setup_windows = []
    for _ in range(SETUP_REPEATS if tracer is None else 1):
        t0 = time.perf_counter()
        with scope(ROOT_SETUP):
            roots = commit(inp)
        setup_windows.append((t0, time.perf_counter()))
    network = transport.BusNetwork()
    t0 = time.perf_counter()
    try:
        with scope(ROOT_SESSION):
            run = call_session(workload, inp, roots, network)
    except Exception:
        t1 = time.perf_counter()
        ok, detail = False, "exception: " + traceback.format_exc().strip()
    else:
        t1 = time.perf_counter()
        ok, detail = judge(workload, inp, run)
    return SessionOutcome(ok=ok, detail=detail, setup_windows=setup_windows,
                          session_window=(t0, t1),
                          protocol_bytes=network.meter.protocol_bytes(),
                          setup_bytes=network.meter.setup_bytes())
