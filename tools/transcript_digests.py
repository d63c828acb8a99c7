"""One SHA-256 per fixed-seed session, to compare what two checkouts put on the wire.

Runs 48 sessions over the in-process bus and prints one line per session:
its name, then a SHA-256 over the per-pair message sequences of the bus's
one log, `run.meter.per_pair()` (type, wire bytes and payload digest of
every message, the dealer's included), the output, the abort flag, the
aborting honest parties and their reasons.

- 2pc at n = 1024: honest, and every tamper kind at each party;
- (3,1) and (4,2) at n_l = 64, and (8,4) at n_l = 256: honest, and every
  tamper kind at P_1, P_{n-t} and P_n.

Its output is committed beside it as `transcript_digests.txt`, and a run
is checked against that file with one diff:

    python3 tools/transcript_digests.py | diff tools/transcript_digests.txt -

A change that must keep the protocol's bytes, outputs and aborts as they
are leaves the file as it is; a change to the wire regenerates it, and its
diff names the sessions that changed.

It imports `authpsi` from the `src/` beside it, so each checkout runs its own code.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from authpsi import datasets, harness  # noqa: E402

KINDS = ("flip-element", "flip-path", "swap-proofs", "extra-element")
# (name, parties, t, elements per party); t None is the two-party construction
SHAPES = [("2pc-1024", 2, None, 1024), ("3x1-64", 3, 1, 64),
          ("4x2-64", 4, 2, 64), ("8x4-256", 8, 4, 256)]


def _tampers(parties: int, t):
    """None (the honest run), then every kind at each tamperer of the shape."""
    at = (1, 2) if t is None else sorted({1, parties - t, parties})
    yield None
    for party in at:
        for kind in KINDS:
            yield harness.Tamper(kind=kind, party=party, index=5, index2=11)


def _digest(run: harness.RunResult) -> str:
    fields = (sorted(run.meter.per_pair().items()),
              None if run.intersection is None else sorted(run.intersection),
              run.aborted, run.abort_parties, sorted(run.report["abort_reasons"].items()))
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def main() -> None:
    for shape_no, (name, parties, t, n) in enumerate(SHAPES):
        sets = datasets.generate_sets(n, 16, parties, n // 4, 100 + shape_no)
        session_id = bytes([0x70 + shape_no]) * 16
        for tamper in _tampers(parties, t):
            if t is None:
                run = harness.run_two_party(sets[0], sets[1], session_id=session_id,
                                            tamper=tamper, seed=200 + shape_no)
            else:
                run = harness.run_multi_party(sets, t, session_id=session_id,
                                              tamper=tamper, seed=200 + shape_no)
            label = "honest" if tamper is None else f"{tamper.kind}@{tamper.party}"
            print(f"{name} {label} {_digest(run)}", flush=True)


if __name__ == "__main__":
    main()
