"""Run one authpsi benchmark workload for a fixed time and print its metrics.

    python3 bench/run.py --workload psi2-16k --seed 1 --seconds 40 --trace 0

Sessions run back to back in this one process and thread (a closed loop
with one client), each over the in-process bus, through
`harness.run_two_party` or `harness.run_multi_party`. A new session starts
only while it is expected to finish within `--seconds`. Every output is
checked against the outcome computed from the generated inputs; a wrong
output, an unexpected or missing abort, or an escaped exception counts as a
failed session.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, with times in
reference seconds: wall time scaled by the CPU speed that `speed.Probe`
measures in this process while each session runs. `--trace 1`
reports its per-layer metrics: sessions alternate between untraced and
traced runs of the same inputs, the traced ones give the per-layer figures
and the pairs give the tracing overhead. Metric names and units come from
BENCHMARK.json at the repository root.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. The full
result, every session and, when tracing, every span are written under
bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import layers
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
WARMUP_N = 256


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bits_per_element"):
        return "bit/element"
    if name.startswith("transport.bytes."):
        return "B"
    if name.endswith(("_share", "_per_success")):
        return "ratio"
    return "count"


def environment() -> dict:
    import cryptography
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cryptography": cryptography.__version__,
            "machine": platform.machine()}


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run sessions for `seconds`; returns (session records, tracer or None).

    Untraced runs time every session against the speed probe and report
    reference seconds; traced runs leave the probe off, so that no layer is
    charged for its ticks, and report wall seconds.
    """
    import sessions

    probe = speed.Probe()
    with contextlib.nullcontext() if trace else probe.running():
        warm = dataclasses.replace(workload, n=WARMUP_N)
        sessions.run_session(warm, sessions.make_input(warm, seed, 0))
        return _loop(workload, seed, seconds, None if trace else probe)


def _loop(workload, seed, seconds, probe):
    import sessions

    trace = probe is None
    tracer = layers.Tracer() if trace else None
    records = []
    costs = []
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        if trace:
            # pair p runs one input untraced and traced, alternating which goes first
            pair = k // 2
            traced = (k % 2 == 0) == (pair % 2 == 0)
            if k % 2 == 0:
                inp = sessions.make_input(workload, seed, pair)
        else:
            pair, traced = k, False
            inp = sessions.make_input(workload, seed, k)
        gc.collect()  # garbage of the previous session is not this session's cost
        if traced:
            tracer.session = pair
            with tracer.active():
                out = sessions.run_session(workload, inp, tracer)
        else:
            out = sessions.run_session(workload, inp)
        wall_setup = [b - a for a, b in out.setup_windows]
        wall_session = out.session_window[1] - out.session_window[0]
        if probe is None:
            kernel_s, setup_s, session_s = None, wall_setup, wall_session
        else:
            # the speed swings within a second, so each figure is scaled by
            # the ticks taken while it was measured
            kernel_s = probe.mean_kernel_s(*out.session_window)
            session_s = probe.reference_s(*out.session_window, kernel_s)
            setup_kernel_s = probe.mean_kernel_s(out.setup_windows[0][0], out.setup_windows[-1][1])
            setup_s = [probe.reference_s(a, b, setup_kernel_s) for a, b in out.setup_windows]
        records.append({"index": k, "pair": pair, "traced": traced, "ok": out.ok,
                        "detail": out.detail, "session_s": session_s, "setup_s": setup_s,
                        "wall_session_s": wall_session, "wall_setup_s": wall_setup,
                        "kernel_s": kernel_s, "protocol_bytes": out.protocol_bytes,
                        "setup_bytes": out.setup_bytes,
                        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
        k += 1
        costs.append(time.perf_counter() - t0)
        if trace and k < 2:
            continue
        if time.perf_counter() - start + statistics.median(costs) > seconds:
            break
    return records, tracer


def end_to_end(workload, records) -> dict:
    n = workload.n
    failed = sum(not r["ok"] for r in records)
    return {
        "session_s": statistics.median([r["session_s"] for r in records]),
        "protocol_bits_per_element": statistics.median([r["protocol_bytes"] * 8 / n for r in records]),
        "setup_bits_per_element": statistics.median([r["setup_bytes"] * 8 / n for r in records]),
        "setup_s": statistics.median([s for r in records for s in r["setup_s"]]),
        # the high-water mark after the first session: later sessions only add
        # heap fragmentation, and how many fit depends on speed
        "peak_rss_mb": records[0]["maxrss_mb"],
        "failed_share": failed / len(records),
        "wall_session_s": statistics.median([r["wall_session_s"] for r in records]),
        "wall_setup_s": statistics.median([s for r in records for s in r["wall_setup_s"]]),
        "probe_kernel_s": statistics.median([r["kernel_s"] for r in records]),
    }


def per_layer(records, tracer) -> tuple[dict, dict]:
    traced = [r for r in records if r["traced"]]
    values, absent = tracer.per_layer(len(traced))
    plain = [r for r in records if not r["traced"]]
    values["trace.session_s"] = statistics.median([r["session_s"] for r in traced])
    values["trace.untraced_session_s"] = statistics.median([r["session_s"] for r in plain])
    by_pair: dict[int, dict[bool, float]] = {}
    for r in records:
        by_pair.setdefault(r["pair"], {})[r["traced"]] = r["session_s"]
    diffs = [p[True] - p[False] for p in by_pair.values() if len(p) == 2]
    values["trace.overhead_s"] = statistics.median(diffs)
    return values, absent


def main(argv=None) -> int:
    try:
        import sessions
    except ImportError as exc:
        print(f"bench: cannot load the authpsi library source: {exc}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"bench: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(sessions.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="result file (default: bench/results/...)")
    args = parser.parse_args(argv)

    workload = sessions.WORKLOADS[args.workload]
    records, tracer = measure(workload, args.seed, args.seconds, bool(args.trace))
    failed = sum(not r["ok"] for r in records)
    for r in records:
        if not r["ok"]:
            print(f"FAILED session {r['index']}: {r['detail']}")

    stem = f"{workload.name}.seed{args.seed}.trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    result = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "attempted": len(records), "failed": failed, "sessions": records}
    if args.trace:
        values, absent = per_layer(records, tracer)
        result["per_layer"] = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(values.items())}
        result["absent"] = absent
        tracer.write_spans(RESULTS / f"{stem}.spans.jsonl")
        wanted = spec["per_layer"]
        for name, v in sorted(values.items()):
            print(f"{name:48s} {v:14.6g} {unit_of(name)}")
        for name, reason in absent.items():
            print(f"{name:48s} {'absent':>14s}  {reason}")
    else:
        values = end_to_end(workload, records)
        result["end_to_end"] = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
        wanted = spec["end_to_end"]
        for name, entry in result["end_to_end"].items():
            print(f"{name:28s} {entry['value']:14.6g} {entry['unit']}")
        print(f"{'sessions':28s} {len(records):14d} ({failed} failed)")
    (args.out or RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None and m["name"].startswith("transport.bytes."):
            value = 0  # a message type this workload never sends
        if value is None:
            print(f"bench: no value for metric {m['name']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
