"""Dataset files for protocol runs: one header line, then hex elements.

The header records the element count and fixed element width (0 when the
widths are mixed) so consumers can sanity-check a file without parsing it
fully; `read_dataset` holds the elements to both. Elements are distinct byte
strings, one lowercase-hex line each, in commitment order (the order matters:
the tree root is a function of it).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def write_dataset(path, elements: list[bytes]) -> None:
    lengths = {len(e) for e in elements}
    width = lengths.pop() if len(lengths) == 1 else 0  # 0 marks mixed widths
    lines = [f"count={len(elements)} elem_bytes={width}"]
    lines += [e.hex() for e in elements]
    Path(path).write_text("\n".join(lines) + "\n")


def read_dataset(path) -> list[bytes]:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("count="):
        raise ValueError(f"{path}: missing dataset header")
    fields = dict(kv.split("=", 1) for kv in lines[0].split())
    count, width = int(fields["count"]), int(fields.get("elem_bytes", 0))
    elements = [bytes.fromhex(line) for line in lines[1:] if line.strip()]
    if len(elements) != count:
        raise ValueError(f"{path}: header says {count} elements, found {len(elements)}")
    wrong = next((e for e in elements if width and len(e) != width), None)
    if wrong is not None:
        raise ValueError(f"{path}: header says {width}-byte elements, found one of {len(wrong)}")
    if len(set(elements)) != len(elements):
        raise ValueError(f"{path}: elements are not distinct")
    return elements


def generate_sets(count: int, elem_bytes: int, parties: int, overlap: int,
                  seed: int) -> list[list[bytes]]:
    """Party input sets sharing exactly `overlap` planted common elements.

    Deterministic given the seed. Non-core elements are globally distinct, so
    the exact n-way (and every pairwise) intersection equals the planted core.
    A request for more distinct elements than `elem_bytes` can hold is a
    ValueError, not an endless draw.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 0 <= overlap <= count:
        raise ValueError("overlap must be between 0 and count")
    if parties < 1:
        raise ValueError("need at least one party")
    if elem_bytes < 1:
        raise ValueError("elements must be at least 1 byte wide")
    needed = overlap + parties * (count - overlap)
    if needed > 256 ** elem_bytes:
        raise ValueError(f"{needed} distinct elements do not fit in {elem_bytes} byte(s)")
    rng = np.random.default_rng(seed)
    pool: list[bytes] = []
    seen = set()
    while len(pool) < needed:
        chunk = rng.bytes(elem_bytes * (needed - len(pool) + 8))
        for i in range(0, len(chunk) - elem_bytes + 1, elem_bytes):
            e = chunk[i : i + elem_bytes]
            if e not in seen:
                seen.add(e)
                pool.append(e)
                if len(pool) == needed:
                    break
    core = pool[:overlap]
    out = []
    pos = overlap
    for _ in range(parties):
        own = core + pool[pos : pos + count - overlap]
        pos += count - overlap
        order = rng.permutation(count)
        out.append([own[i] for i in order])
    return out
