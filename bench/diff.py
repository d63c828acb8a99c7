"""Print two benchmark results side by side, per workload, with new/base ratios.

    python3 bench/diff.py BASE.json NEW.json

Either file may be a suite file (`bench/suite.py --out`) or the result of a
single `bench/run.py` run. Every end-to-end and per-layer metric found in
either file is listed; a metric missing on one side shows as `-`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SECTIONS = ("end_to_end", "per_layer")


def load(path: Path) -> dict[str, dict[str, dict]]:
    """workload -> section -> metric -> {value, unit}."""
    data = json.loads(path.read_text())
    if "workloads" in data:
        return {name: {s: w.get(s, {}) for s in SECTIONS} for name, w in data["workloads"].items()}
    return {data["workload"]: {s: data.get(s, {}) for s in SECTIONS}}


def _cell(entry) -> str:
    return "-" if entry is None else f"{entry['value']:.6g}"


def render(base: dict, new: dict) -> list[str]:
    lines = []
    for workload in list(base) + [w for w in new if w not in base]:
        lines.append(f"== {workload}")
        lines.append(f"{'metric':48s} {'base':>14s} {'new':>14s} {'new/base':>9s}  unit")
        for section in SECTIONS:
            b = base.get(workload, {}).get(section, {})
            n = new.get(workload, {}).get(section, {})
            for name in list(b) + [m for m in n if m not in b]:
                eb, en = b.get(name), n.get(name)
                ratio = "-"
                if eb is not None and en is not None and eb["value"]:
                    ratio = f"{en['value'] / eb['value']:.3f}"
                lines.append(f"{name:48s} {_cell(eb):>14s} {_cell(en):>14s} {ratio:>9s}  "
                             f"{(eb or en)['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    print("\n".join(render(load(args.base), load(args.new))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
