"""Run every benchmark workload, untraced and traced, and print one table.

    python3 bench/suite.py --seed 1 --out bench/results/suite.json

Each workload runs in its own `bench/run.py` process (so peak memory is that
workload's own), first with `--trace 0` for the end-to-end metrics and then
with `--trace 1` for the per-layer ones. The combined file feeds
`bench/diff.py`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = BENCH_DIR / "results" / f"suite.{workload}.seed{seed}.trace{trace}.json"
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def main(argv=None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    combined = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        plain = run_one(name, args.seed, args.seconds, 0)
        traced = run_one(name, args.seed, args.seconds, 1)
        combined["environment"] = plain["environment"]
        combined["workloads"][name] = {
            "attempted": plain["attempted"], "failed": plain["failed"],
            "end_to_end": plain["end_to_end"],
            "traced_attempted": traced["attempted"], "traced_failed": traced["failed"],
            "per_layer": traced["per_layer"], "absent": traced["absent"],
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(combined, indent=1) + "\n")

    names = list(combined["workloads"])
    metrics = list(next(iter(combined["workloads"].values()))["end_to_end"])
    print(f"{'metric':28s}" + "".join(f"{n:>18s}" for n in names) + "  unit")
    for m in metrics:
        cells = [combined["workloads"][n]["end_to_end"][m] for n in names]
        print(f"{m:28s}" + "".join(f"{c['value']:18.6g}" for c in cells) + f"  {cells[0]['unit']}")
    print(f"{'sessions (failed)':28s}" + "".join(
        f"{'%d (%d)' % (w['attempted'], w['failed']):>18s}" for w in combined["workloads"].values()))
    print(f"wrote {args.out}")
    return 0 if all(w["failed"] == 0 and w["traced_failed"] == 0
                    for w in combined["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
