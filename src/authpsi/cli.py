"""Operator entry points: dataset generation, commitment, runs, benchmarks.

`run` takes the construction from the config, where a "t" selects npc, and
runs every party in this process over the in-process bus, or with `--role`
one party, or the dealer (role 0), over TCP. Every mode builds the endpoints
it holds and ends one way: one `harness.run` drives and reports them,
`report.json` is written to `--out-dir` (with `intersection.txt` where there
is output), the dealer's process included, and the exit code follows. Exit
codes: 0 success, 2 usage/configuration error (also an output path that
cannot be written, a tamper that changes nothing, `--seed` with `--role`,
or `--tamper` on the dealer, which has no inputs), 3 protocol abort
(integrity violation detected, or a request the dealer cannot serve: the
dealer and every client it reaches exit 3), 4 transport failure (also a run
without `--role` whose bus goes quiet while a party still waits).

A networked run needs one process per party plus a dealer process (role 0),
all pointed at the same JSON config:

    {
      "session_id": "<32 hex chars>",
      "t": 1,
      "dealer": {"address": "127.0.0.1:9000"},
      "parties": {
        "1": {"address": "127.0.0.1:9001", "dataset": "p1.dat", "root": "p1.root"},
        ...
      }
    }

Roots come from `authpsi commit --salt <session_id>`. In a 2pc session (no
"t") party 1 is the receiver and party 2 the sender. A key the CLI does not
read, a mistyped one included, is a usage error.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Optional

import click
import numpy as np

from . import datasets, harness, merkle, transport
from .errors import ConfigError, TransportError

EXIT_ABORT = 3
EXIT_TRANSPORT = 4

# how long a networked party waits for a message it is owed, and how long the
# dealer process waits for the next request from a client that has not yet
# connected and hung up before it ends
PARTY_WAIT_S = 30.0
DEALER_IDLE_S = 10.0

# published communication figures of the underlying two-party protocol family
# (volePSI with the Silver encoder), kept for side-by-side context only: this
# artifact also sends each party's 37-byte root and uses a wider value field,
# so its bits/element are expected to sit above these.
REFERENCE_BITS_PER_ELEMENT = {1024: 462, 4096: 437, 16384: 455, 65536: 467}

# published end-to-end timings for the commitment-gated multi-party protocol
# family, (n, t) -> {n_l: ms}; different hardware and backends, context only.
REFERENCE_MULTI_MS = {
    (3, 1): {256: 117.13, 1024: 165.13, 4096: 791.61},
    (4, 1): {256: 118.21, 1024: 186.54, 4096: 795.47},
    (4, 2): {256: 183.77, 1024: 241.25, 4096: 910.91},
    (5, 1): {256: 116.45, 1024: 188.76, 4096: 817.34},
    (5, 3): {256: 202.76, 1024: 261.90, 4096: 907.18},
    (8, 1): {256: 134.21, 1024: 183.03, 4096: 818.51},
    (8, 4): {256: 205.76, 1024: 274.56, 4096: 935.47},
}

MULTI_GRID = [(3, 1), (4, 1), (4, 2), (5, 1), (5, 3), (8, 1), (8, 4)]


@click.group()
def main():
    """Authenticated private set intersection over committed inputs."""


@main.command()
@click.option("--count", type=int, required=True, help="elements per party")
@click.option("--elem-bytes", type=int, default=16, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--parties", type=int, default=2, show_default=True)
@click.option("--overlap", type=int, default=0, show_default=True,
              help="size of the planted common core")
@click.option("--out-prefix", default="party", show_default=True)
def gen(count, elem_bytes, seed, parties, overlap, out_prefix):
    """Write per-party datasets with a planted common core."""
    try:
        sets = datasets.generate_sets(count, elem_bytes, parties, overlap, seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    core = sorted(set(sets[0]).intersection(*map(set, sets[1:]))) if parties > 1 else sorted(sets[0])
    try:
        for i, s in enumerate(sets, start=1):
            path = f"{out_prefix}{i}.dat"
            datasets.write_dataset(path, s)
            click.echo(f"wrote {path} ({count} elements)")
        core_path = f"{out_prefix}_core.dat"
        datasets.write_dataset(core_path, core)
    except OSError as exc:
        raise click.UsageError(f"--out-prefix: {exc}")
    click.echo(f"wrote {core_path} ({len(core)} planted common elements)")


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--salt", required=True,
              help="the session id (32 hex chars); leaves are salted with it")
@click.option("--out", "out_path", required=True)
def commit(in_path, salt, out_path):
    """Commit to a dataset: write its tree root."""
    try:
        elements = datasets.read_dataset(in_path)
    except (OSError, ValueError) as exc:
        raise click.UsageError(str(exc))
    if not elements:
        raise click.UsageError("cannot commit to an empty dataset")
    root = merkle.root(elements, _session_id(salt, "--salt"))
    try:
        Path(out_path).write_bytes(root.to_bytes())
    except OSError as exc:
        raise click.UsageError(f"--out: {exc}")
    click.echo(root.to_bytes().hex())


def _session_id(text, what: str) -> bytes:
    try:
        raw = bytes.fromhex(text)
    except (TypeError, ValueError):
        raw = b""
    if len(raw) != 16:
        raise click.UsageError(f"{what} must be 16 bytes of hex (32 hex digits)")
    return raw


def _load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config: {exc}")
    if not isinstance(cfg, dict):
        raise click.UsageError("config must be a JSON object at its top level")
    for key in ("session_id", "parties"):
        if key not in cfg:
            raise click.UsageError(f"config is missing {key!r}")
    _known_keys("config", cfg, ("session_id", "t", "dealer", "parties"))
    if isinstance(cfg.get("dealer"), dict):
        _known_keys("the dealer", cfg["dealer"], ("address",))
    if not isinstance(cfg["parties"], dict):
        raise click.UsageError("'parties' must be an object from party index to entry")
    for key, entry in cfg["parties"].items():
        if not isinstance(entry, dict):
            raise click.UsageError(f"party {key}: the entry must be an object")
        _known_keys(f"party {key}", entry, ("address", "dataset", "root"))
    return cfg


def _known_keys(where: str, entry: dict, keys: tuple) -> None:
    """Refuse a key the CLI does not read, which it would otherwise ignore."""
    for key in entry:
        if key not in keys:
            raise click.UsageError(f"{where} has an unknown key {key!r}")


def _party_index(key) -> int:
    try:
        return int(key)
    except ValueError:
        raise click.UsageError(f"party key {key!r} is not an integer")


def _integer(cfg: dict, key: str) -> int:
    """A JSON integer of the config: int() would read 1.9, true or "2" as one."""
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise click.UsageError(f"{key!r} must be an integer, not {json.dumps(value)}")
    return value


def _address(who: str, entry) -> tuple[str, int]:
    """The (host, port) of an endpoint's "address" entry."""
    try:
        host, sep, port = entry["address"].rpartition(":")
        if sep and 0 <= int(port) <= 0xFFFF:
            return host, int(port)
    except (KeyError, TypeError, AttributeError, ValueError):
        pass
    raise click.UsageError(f'{who} needs an "address" of the form host:port')


def _parties(cfg: dict) -> tuple[dict, int, Optional[int]]:
    """The config's party entries by index, n (their count) and t (None without "t": 2pc),
    checked without opening any file they name."""
    parties = {_party_index(k): entry for k, entry in cfg["parties"].items()}
    n = len(parties)
    t = _integer(cfg, "t") if "t" in cfg else None
    if sorted(parties) != list(range(1, n + 1)):
        raise click.UsageError(f"config must define parties 1..{n}")
    return parties, n, t


def _session(cfg: dict, tamper, role=None) -> harness.Session:
    """The session a config describes, with every party's root loaded.

    A networked party (`role` given) reads only its own dataset, since the
    other parties' inputs are private to them; a local run reads them all.
    """
    session_id = _session_id(cfg["session_id"], "session_id")
    parties, _, t = _parties(cfg)
    sets, roots = {}, {}
    for i, entry in parties.items():
        try:
            if role is None or i == role:
                sets[i] = datasets.read_dataset(entry["dataset"])
            roots[i] = merkle.MerkleRoot.from_bytes(Path(entry["root"]).read_bytes())
        except (OSError, ValueError, KeyError, TypeError) as exc:  # TypeError: a path not a string
            raise click.UsageError(f"party {i}: {exc}")
    return harness.Session(sets, roots, session_id, t, tamper)


@main.command(name="run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True),
              help='session config; a "t" selects the multi-party construction')
@click.option("--role", type=int, default=None,
              help="the party this process runs over TCP (0: the dealer); omit to run them all")
@click.option("--tamper", default=None,
              help="adversarial move: flip-element:I (flip a bit of element I) | flip-path:I "
                   "(flip digest byte I mod 32 of the sent root) | swap-proofs:I,J (run with "
                   "elements I and J swapped) | extra-element[:I] (add one element, hashed from I, "
                   "default 0)")
@click.option("--tamper-party", type=int, default=None,
              help="which party misbehaves (defaults to --role)")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="fix all protocol randomness of a run without --role, for reproducible runs")
@click.option("--out-dir", default=".", help="where report.json and intersection.txt go")
def run_cmd(config_path, role, tamper, tamper_party, seed, out_dir):
    """Execute one protocol session: every party in this process, or with --role one
    party or the dealer over TCP."""
    cfg = _load_config(config_path)
    if tamper_party is not None and not tamper:
        raise click.UsageError("--tamper-party needs --tamper")
    if role is None and tamper and tamper_party is None:
        raise click.UsageError("--tamper without --role needs --tamper-party")
    if role is not None and seed is not None:
        raise click.UsageError("--seed fixes a run without --role only: each --role process "
                               "draws its own")
    if role is not None and tamper_party not in (None, role):
        raise click.UsageError("a networked process can only tamper with its own inputs")
    if role == transport.DEALER_INDEX and tamper:
        raise click.UsageError("the dealer has no inputs to tamper with")
    node = None
    try:
        party = role if tamper_party is None else tamper_party
        tamper_obj = harness.Tamper.parse(tamper, party) if tamper else None
        if role is None:
            session, net, timeout = _session(cfg, tamper_obj), transport.BusNetwork(), None
            engines, dealer = session.endpoints(np.random.default_rng(seed))
        else:
            addresses = {_party_index(k): _address(f"party {k}", v)
                         for k, v in cfg["parties"].items()}
            # every networked run has a dealer: the dealer listens there, a party dials it
            addresses[transport.DEALER_INDEX] = _address("the dealer", cfg.get("dealer"))
            if role == transport.DEALER_INDEX:
                # the dealer is built from the session's shape in the config
                # alone: it holds no party's dataset or root
                _, n, t = _parties(cfg)
                session, engines, timeout = None, {}, DEALER_IDLE_S
                dealer = harness.DealerService(_session_id(cfg["session_id"], "session_id"), n, t)
            else:
                session, timeout = _session(cfg, tamper_obj, role), PARTY_WAIT_S
                if role not in session.sets:
                    raise click.UsageError(f"config has no party {role}")
                engines, dealer = {role: session.engine(role)}, None
        out = Path(out_dir)
        try:  # before the session connects or takes a step
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise click.UsageError(f"--out-dir: {exc}")
        if role is not None:
            for i, (_, port) in sorted(addresses.items()):
                if port == 0 and i != role:
                    who = "the dealer" if i == transport.DEALER_INDEX else f"party {i}"
                    raise click.UsageError(f"{who} has port 0 in its address: a process "
                                           "can listen on port 0 (any free port) but not dial it")
            net = node = transport.TcpNode(role, addresses.get(role), addresses)
            # dialled up front, the dealer sees this client leave even without a request
            if engines and engines[role].awaits(transport.DEALER_INDEX):
                node.connect(transport.DEALER_INDEX)
        result = harness.run(net, session, engines, dealer, timeout)
    except ConfigError as exc:
        raise click.UsageError(str(exc))
    except TransportError as exc:
        click.echo(f"transport failure: {exc}", err=True)
        sys.exit(EXIT_TRANSPORT)
    finally:
        if node is not None:
            node.close()
    _finish(out, result, dealer.served if session is None else None)


def _finish(out: Path, result: harness.RunResult, served: Optional[int]) -> None:
    """End every mode one way: write report.json, and intersection.txt where there is
    output; on an abort, name each reported endpoint's reason and exit 3. `served` is
    the dealer's count of answered requests in a dealer's process, else None."""
    if result.intersection is not None:
        lines = sorted(e.hex() for e in result.intersection)
        (out / "intersection.txt").write_text("\n".join(lines) + ("\n" if lines else ""))
    (out / "report.json").write_text(json.dumps(result.report, indent=2) + "\n")
    if result.aborted:
        for i, reason in result.report["abort_reasons"].items():
            who = "the dealer" if i == transport.DEALER_INDEX else f"party {i}"
            click.echo(f"session aborted at {who}: {reason}", err=True)
        sys.exit(EXIT_ABORT)
    if served is not None:
        click.echo(f"dealer served {served} responses")
    elif result.intersection is None:
        click.echo("ok: finished (no output at this party)")
    else:
        click.echo(f"ok: {len(result.intersection)} common elements, "
                   f"{result.report['bits_per_element']:.0f} bits/element")


@main.command()
@click.option("--sizes", default="1024,4096,16384", show_default=True,
              help="comma-separated per-party set sizes")
@click.option("--reps", type=int, default=3, show_default=True)
@click.option("--construction", type=click.Choice(["2pc", "npc", "both"]),
              default="2pc", show_default=True)
@click.option("--out", "out_path", default=None, help=".json or .csv output path")
@click.option("--seed", type=click.IntRange(min=0), default=1, show_default=True)
def bench(sizes, reps, construction, out_path, seed):
    """Honest-run sweeps: median timings and communication per element."""
    if reps < 1:
        raise click.UsageError("--reps must be at least 1")
    try:
        size_list = [int(s) for s in sizes.split(",") if s.strip()]
    except ValueError:
        raise click.UsageError("--sizes must be comma-separated integers")

    result = {"aggregated": reps > 1, "reps": reps}
    if construction in ("2pc", "both"):
        rows = []
        for n in size_list:
            times, bpe = [], None
            for r in range(reps):
                x, y = datasets.generate_sets(n, 16, 2, n // 4, seed + 31 * r)
                run = harness.run_two_party(x, y, seed=seed + 97 * r)
                if run.aborted:
                    raise click.ClickException(f"honest run aborted at n={n}")
                times.append(run.report["elapsed_ms"])
                bpe = run.report["bits_per_element"]
            rows.append({
                "n": n,
                "median_ms": round(statistics.median(times), 2),
                "bits_per_element": round(bpe, 1),
                "reference_bits_per_element": REFERENCE_BITS_PER_ELEMENT.get(n),
            })
            click.echo(f"2pc n={n}: {rows[-1]['median_ms']} ms, "
                       f"{rows[-1]['bits_per_element']} bits/element")
        result["two_party"] = rows

    if construction in ("npc", "both"):
        rows = []
        for n, t in MULTI_GRID:
            for n_l in size_list:
                times = []
                for r in range(reps):
                    party_sets = datasets.generate_sets(n_l, 16, n, n_l // 4, seed + 13 * r)
                    run = harness.run_multi_party(party_sets, t, seed=seed + 51 * r)
                    if run.aborted:
                        raise click.ClickException(f"honest run aborted at (n={n}, t={t})")
                    times.append(run.report["elapsed_ms"])
                rows.append({
                    "n": n, "t": t, "n_l": n_l,
                    "median_ms": round(statistics.median(times), 2),
                    "reference_ms": REFERENCE_MULTI_MS.get((n, t), {}).get(n_l),
                })
                click.echo(f"npc (n={n}, t={t}) n_l={n_l}: {rows[-1]['median_ms']} ms")
        result["multi_party"] = rows

    if out_path:
        if out_path.endswith(".csv"):
            _write_bench_csv(out_path, result)
        else:
            Path(out_path).write_text(json.dumps(result, indent=2) + "\n")
        click.echo(f"wrote {out_path}")


def _write_bench_csv(path, result):
    lines = []
    if "two_party" in result:
        lines.append("construction,n,median_ms,bits_per_element,reference_bits_per_element")
        for row in result["two_party"]:
            lines.append(f"2pc,{row['n']},{row['median_ms']},{row['bits_per_element']},"
                         f"{row['reference_bits_per_element'] or ''}")
    if "multi_party" in result:
        lines.append("construction,n,t,n_l,median_ms,reference_ms")
        for row in result["multi_party"]:
            lines.append(f"npc,{row['n']},{row['t']},{row['n_l']},{row['median_ms']},"
                         f"{row['reference_ms'] or ''}")
    Path(path).write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
