"""CLI surface: dataset generation, commitment, local and networked runs, bench output."""

import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from authpsi import cli, datasets, harness, merkle, opprf, psi2, transport
from authpsi.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def _gen(runner, tmp_path, count=32, parties=2, overlap=8, seed=7, elem_bytes=8):
    prefix = str(tmp_path / "p")
    result = runner.invoke(main, ["gen", "--count", str(count), "--elem-bytes", str(elem_bytes),
                                  "--seed", str(seed), "--parties", str(parties),
                                  "--overlap", str(overlap), "--out-prefix", prefix])
    assert result.exit_code == 0, result.output
    return prefix


def _commit_all(runner, prefix, parties, salt):
    for i in range(1, parties + 1):
        result = runner.invoke(main, ["commit", "--in", f"{prefix}{i}.dat",
                                      "--salt", salt, "--out", f"{prefix}{i}.root"])
        assert result.exit_code == 0, result.output


def _config(tmp_path, prefix, parties, salt, extra=None):
    # every endpoint at a port no process listens on: a --role process dials its peers,
    # which it cannot do at port 0
    cfg = {
        "session_id": salt,
        "dealer": {"address": f"127.0.0.1:{_free_port()}"},
        "parties": {str(i): {"address": f"127.0.0.1:{_free_port()}",
                             "dataset": f"{prefix}{i}.dat",
                             "root": f"{prefix}{i}.root"}
                    for i in range(1, parties + 1)},
    }
    cfg.update(extra or {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_gen_deterministic_and_overlap_exact(runner, tmp_path):
    prefix = _gen(runner, tmp_path, count=50, overlap=20)
    a = datasets.read_dataset(f"{prefix}1.dat")
    b = datasets.read_dataset(f"{prefix}2.dat")
    core = datasets.read_dataset(f"{prefix}_core.dat")
    assert len(a) == len(b) == 50
    assert set(a) & set(b) == set(core)
    assert len(core) == 20
    # same seed, byte-identical files
    prefix2 = str(tmp_path / "q")
    runner.invoke(main, ["gen", "--count", "50", "--elem-bytes", "8", "--seed", "7",
                         "--parties", "2", "--overlap", "20", "--out-prefix", prefix2])
    assert Path(f"{prefix}1.dat").read_bytes() == Path(f"{prefix2}1.dat").read_bytes()


def test_gen_zero_overlap(runner, tmp_path):
    prefix = _gen(runner, tmp_path, count=30, overlap=0, seed=9)
    a = datasets.read_dataset(f"{prefix}1.dat")
    b = datasets.read_dataset(f"{prefix}2.dat")
    assert set(a).isdisjoint(b)


def test_gen_usage_errors(runner, tmp_path):
    bad = runner.invoke(main, ["gen", "--count", "4", "--overlap", "9",
                               "--out-prefix", str(tmp_path / "x")])
    assert bad.exit_code == 2


@pytest.mark.parametrize("args", [
    ["--count", "300", "--elem-bytes", "1"],  # 600 distinct elements, only 256 of one byte
    ["--count", "4", "--elem-bytes", "0"],
    ["--count", "4", "--parties", "0"],
], ids=["more-elements-than-fit", "zero-byte-elements", "no-parties"])
def test_gen_impossible_request_is_usage_error(tmp_path, args):
    # its own process with a timeout, so a request that never finishes fails instead of hanging
    proc = subprocess.run([sys.executable, "-m", "authpsi.cli", "gen", *args,
                           "--out-prefix", str(tmp_path / "x")],
                          env=_cli_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["gen", "commit"])
def test_output_path_that_cannot_be_written_is_usage_error(runner, tmp_path, command):
    # gen's prefix names a missing directory, commit's output an existing one
    prefix = _gen(runner, tmp_path)
    args = {"gen": ["gen", "--count", "4", "--out-prefix", str(tmp_path / "missing" / "x")],
            "commit": ["commit", "--in", f"{prefix}1.dat", "--salt", "ab" * 16,
                       "--out", str(tmp_path)]}[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "--out" in result.output


def test_commit_matches_library(runner, tmp_path):
    prefix = _gen(runner, tmp_path)
    salt = "ab" * 16
    _commit_all(runner, prefix, 2, salt)
    root = merkle.MerkleRoot.from_bytes(Path(f"{prefix}1.root").read_bytes())
    elements = datasets.read_dataset(f"{prefix}1.dat")
    assert root == merkle.root(elements, bytes.fromhex(salt))
    # different salt, different root
    result = runner.invoke(main, ["commit", "--in", f"{prefix}1.dat",
                                  "--salt", "cd" * 16, "--out", f"{prefix}alt.root"])
    assert result.exit_code == 0
    assert Path(f"{prefix}alt.root").read_bytes() != Path(f"{prefix}1.root").read_bytes()


def test_commit_rejects_bad_dataset(runner, tmp_path):
    path = tmp_path / "bad.dat"
    path.write_text("count=2 elem_bytes=4\ndeadbeef\n")
    result = runner.invoke(main, ["commit", "--in", str(path), "--salt", "ab" * 16,
                                  "--out", str(tmp_path / "x.root")])
    assert result.exit_code == 2


def test_commit_rejects_elements_wider_than_the_header(runner, tmp_path):
    # the header's elem_bytes binds every element; 0 marks mixed widths
    path = tmp_path / "wide.dat"
    path.write_text("count=2 elem_bytes=16\nbeef\ncafe\n")
    result = runner.invoke(main, ["commit", "--in", str(path), "--salt", "ab" * 16,
                                  "--out", str(tmp_path / "x.root")])
    assert result.exit_code == 2, result.output
    assert "header says 16-byte elements, found one of 2" in result.output
    assert not (tmp_path / "x.root").exists()
    path.write_text("count=2 elem_bytes=0\nbeef\ncafe00\n")
    result = runner.invoke(main, ["commit", "--in", str(path), "--salt", "ab" * 16,
                                  "--out", str(tmp_path / "x.root")])
    assert result.exit_code == 0, result.output


def test_commit_rejects_a_directory(runner, tmp_path):
    result = runner.invoke(main, ["commit", "--in", str(tmp_path), "--salt", "ab" * 16,
                                  "--out", str(tmp_path / "x.root")])
    assert result.exit_code == 2, result.output
    assert "is a directory" in result.output
    assert not (tmp_path / "x.root").exists()


def test_commit_needs_the_session_id_as_salt(runner, tmp_path):
    prefix = _gen(runner, tmp_path)
    for args in ([], ["--salt", ""], ["--salt", "ab" * 8], ["--salt", "zz" * 16]):
        result = runner.invoke(main, ["commit", "--in", f"{prefix}1.dat",
                                      "--out", f"{prefix}1.root"] + args)
        assert result.exit_code == 2, (args, result.output)
        assert "--salt" in result.output, args


def test_local_two_party_run(runner, tmp_path):
    prefix = _gen(runner, tmp_path, count=48, overlap=12, seed=3)
    salt = "11" * 16
    _commit_all(runner, prefix, 2, salt)
    cfg = _config(tmp_path, prefix, 2, salt)
    out_dir = tmp_path / "out"
    result = runner.invoke(main, ["run", "--config", cfg, "--out-dir", str(out_dir)])
    assert result.exit_code == 0, result.output
    got = sorted(bytes.fromhex(l) for l in (out_dir / "intersection.txt").read_text().split())
    assert got == sorted(datasets.read_dataset(f"{prefix}_core.dat"))
    report = json.loads((out_dir / "report.json").read_text())
    assert report["aborted"] is False
    assert report["bits_per_element"] > 0
    assert set(report) >= {"session", "n", "parties", "t", "bytes_total",
                           "bits_per_element", "per_type", "setup_bytes", "bytes_by_party",
                           "phase_ms", "aborted", "abort_reasons"}
    # every party's bytes, the dealer's included, sent and received per message type
    by_party = report["bytes_by_party"]
    assert set(by_party) == {"0", "1", "2"}
    assert set(by_party["0"]["received"]) == {"0x21"} and set(by_party["0"]["sent"]) == {"0x22"}
    assert set(by_party["1"]["sent"]) == {"0x01", "0x02", "0x21"}
    assert set(by_party["1"]["received"]) == {"0x01", "0x03", "0x22"}
    assert by_party["1"]["sent"]["0x02"] == by_party["2"]["received"]["0x02"]
    assert by_party["0"]["received"]["0x21"] == by_party["1"]["sent"]["0x21"] + by_party["2"]["sent"]["0x21"]
    for way in ("sent", "received"):
        total = sum(n for party in by_party.values() for n in party[way].values())
        assert total == report["bytes_total"] + report["setup_bytes"]
    # every party's steps, not only the output party's, and the dealer's
    assert set(report["phase_ms"]) == {"0", "1", "2"}
    assert set(report["phase_ms"]["0"]) == {"0x21"}
    assert all("start" in report["phase_ms"][i] for i in ("1", "2"))
    assert report["abort_reasons"] == {}


def test_local_tampered_run_exits_3(runner, tmp_path):
    prefix = _gen(runner, tmp_path, count=24, overlap=6, seed=4)
    salt = "22" * 16
    _commit_all(runner, prefix, 2, salt)
    cfg = _config(tmp_path, prefix, 2, salt)
    result = runner.invoke(main, ["run", "--config", cfg, "--tamper", "flip-element:5",
                                  "--tamper-party", "2", "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 3, result.output
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["aborted"] is True
    # the honest party 1 names the gate that stopped it; the tamperer is not judged
    assert set(report["abort_reasons"]) == {"1"}
    assert "root from party 2" in report["abort_reasons"]["1"]
    assert "party 1: root from party 2" in result.output


def test_local_multi_party_run(runner, tmp_path):
    prefix = _gen(runner, tmp_path, count=20, parties=4, overlap=5, seed=5)
    salt = "33" * 16
    _commit_all(runner, prefix, 4, salt)
    cfg = _config(tmp_path, prefix, 4, salt, extra={"t": 2})
    out_dir = tmp_path / "outm"
    result = runner.invoke(main, ["run", "--config", cfg, "--out-dir", str(out_dir)])
    assert result.exit_code == 0, result.output
    got = sorted(bytes.fromhex(l) for l in (out_dir / "intersection.txt").read_text().split())
    assert got == sorted(datasets.read_dataset(f"{prefix}_core.dat"))


def test_local_multi_party_tamper_exits_3(runner, tmp_path):
    prefix = _gen(runner, tmp_path, count=16, parties=3, overlap=4, seed=6)
    salt = "44" * 16
    _commit_all(runner, prefix, 3, salt)
    cfg = _config(tmp_path, prefix, 3, salt, extra={"t": 1})
    result = runner.invoke(main, ["run", "--config", cfg, "--tamper", "swap-proofs:0,3",
                                  "--tamper-party", "3", "--out-dir", str(tmp_path / "o")])
    assert result.exit_code == 3, result.output


def test_stale_root_is_usage_error(runner, tmp_path):
    prefix = _gen(runner, tmp_path, count=16, overlap=4, seed=8)
    salt = "55" * 16
    _commit_all(runner, prefix, 2, salt)
    # regenerate party 1's dataset after committing: honest self-check trips
    runner.invoke(main, ["gen", "--count", "16", "--elem-bytes", "8", "--seed", "99",
                         "--parties", "2", "--overlap", "4", "--out-prefix", prefix])
    cfg = _config(tmp_path, prefix, 2, salt)
    result = runner.invoke(main, ["run", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2


@pytest.mark.parametrize("mode", [[], ["--role", "1"]])
def test_root_announcing_an_empty_set_is_usage_error(runner, tmp_path, mode):
    # a root file of set size 0 is the operator's error, named by its party
    prefix = _gen(runner, tmp_path, count=16, overlap=4, seed=18)
    salt = "ee" * 16
    _commit_all(runner, prefix, 2, salt)
    root_path = Path(f"{prefix}2.root")
    raw = root_path.read_bytes()
    root_path.write_bytes(raw[:1] + bytes(4) + raw[5:])
    cfg = _config(tmp_path, prefix, 2, salt)
    result = runner.invoke(main, ["run", "--config", cfg,
                                  "--out-dir", str(tmp_path / "out")] + mode)
    assert result.exit_code == 2, result.output
    assert "party 2: root announces an empty set" in result.output


@pytest.mark.parametrize("mode", [[], ["--role", "1"], ["--role", "2"]],
                         ids=["local", "party", "other-party"])
def test_root_of_another_encoding_version_is_usage_error(runner, tmp_path, mode):
    # a root committed before the tree became 16-ary carries version 0x01; every
    # process that reads roots refuses it (the dealer reads none)
    prefix = _gen(runner, tmp_path, count=16, overlap=4, seed=25)
    salt = "e1" * 16
    _commit_all(runner, prefix, 2, salt)
    root_path = Path(f"{prefix}2.root")
    raw = root_path.read_bytes()
    assert raw[0] == 0x02 and len(raw) == 37
    root_path.write_bytes(b"\x01" + raw[1:])
    cfg = _config(tmp_path, prefix, 2, salt)
    result = runner.invoke(main, ["run", "--config", cfg,
                                  "--out-dir", str(tmp_path / "out")] + mode)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "party 2: unknown root encoding version" in result.output


@pytest.mark.parametrize("role,peer,who", [(1, "0", "the dealer"), (0, "2", "party 2")],
                         ids=["party", "dealer"])
def test_peer_at_port_0_is_usage_error(runner, tmp_path, monkeypatch, role, peer, who):
    # port 0 is a listen address only: this process's own may take it, a peer's
    # cannot be dialed, so a --role process refuses it at once and names the peer
    monkeypatch.setattr(cli, "DEALER_IDLE_S", 0.2)
    prefix = _gen(runner, tmp_path, count=16, overlap=4, seed=26)
    salt = "e2" * 16
    _commit_all(runner, prefix, 2, salt)
    cfg_path = _config(tmp_path, prefix, 2, salt)
    cfg = json.loads(Path(cfg_path).read_text())
    entries = {"0": cfg["dealer"], **cfg["parties"]}
    entries[str(role)]["address"] = entries[peer]["address"] = "127.0.0.1:0"
    Path(cfg_path).write_text(json.dumps(cfg))
    t0 = time.monotonic()
    result = runner.invoke(main, ["run", "--config", cfg_path,
                                  "--role", str(role), "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert f"{who} has port 0 in its address" in result.output
    assert time.monotonic() - t0 < 3


@pytest.mark.parametrize("args,message", [
    (["--tamper", "flip-element:3", "--tamper-party", "5"], "the tamper names party 5"),
    (["--tamper-party", "2"], "--tamper-party needs --tamper"),
    (["--tamper", "extra-element:zz", "--tamper-party", "1"], "--tamper extra-element:zz"),
], ids=["tamper-of-no-party", "tamper-party-without-tamper", "tamper-index-not-an-integer"])
def test_tamper_naming_no_party_is_usage_error(runner, tmp_path, args, message):
    # none may run an honest or another tampered session in place of the one asked for
    prefix = _gen(runner, tmp_path, count=16, overlap=4, seed=20)
    salt = "1e" * 16
    _commit_all(runner, prefix, 2, salt)
    cfg = _config(tmp_path, prefix, 2, salt)
    result = runner.invoke(main, ["run", "--config", cfg,
                                  "--out-dir", str(tmp_path / "out")] + args)
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count,tamper,code,message", [
    (256, "extra-element", 3, "party 1: root from party 2 fails its commitment"),
    (256, "flip-element:3", 2, "the flip-element tamper of party 2 changes none of its inputs"),
    (1, "swap-proofs:0,0", 2, "the swap-proofs tamper of party 2 changes none of its inputs"),
], ids=["extra-element-of-a-full-width", "flip-element-of-a-full-width",
        "swap-proofs-of-one-element"])
def test_tamper_on_a_set_with_no_room_ends_or_is_refused(runner, tmp_path, count, tamper, code,
                                                         message):
    # both one-byte sets hold every value, or the one same element: extra-element must
    # still end, and a tamper that would leave its party's inputs as committed is refused.
    # Its own process with a timeout, so a tamper that never ends fails instead of hanging
    prefix = _gen(runner, tmp_path, count=count, overlap=count, elem_bytes=1)
    salt = "2f" * 16
    _commit_all(runner, prefix, 2, salt)
    cfg = _config(tmp_path, prefix, 2, salt)
    proc = subprocess.run([sys.executable, "-m", "authpsi.cli", "run", "--config", cfg,
                           "--tamper", tamper, "--tamper-party", "2",
                           "--out-dir", str(tmp_path / "out")],
                          env=_cli_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_extra_element_tamper_reads_its_index():
    # the suffix picks the added element; without one it is index 0
    assert harness.Tamper.parse("extra-element:7", 1).index == 7
    assert harness.Tamper.parse("extra-element", 1).index == 0
    runs = [harness.Tamper.parse(spec, 1).inputs([b"a" * 8, b"b" * 8])[-1]
            for spec in ("extra-element", "extra-element:7")]
    assert runs[0] != runs[1]


@pytest.mark.parametrize("mode", [[], ["--role", "1"], ["--role", "0"]],
                         ids=["local", "party", "dealer"])
def test_collusion_bound_out_of_range_is_usage_error(runner, tmp_path, monkeypatch, mode):
    # every endpoint refuses (n, t) = (4, 3) by one rule, the dealer too, at
    # once: it does not wait out its idle cap for clients that never come
    monkeypatch.setattr(cli, "DEALER_IDLE_S", 0.2)
    prefix = _gen(runner, tmp_path, count=12, parties=4, overlap=4, seed=21)
    salt = "1f" * 16
    _commit_all(runner, prefix, 4, salt)
    cfg = _config(tmp_path, prefix, 4, salt, extra={"t": 3})
    result = runner.invoke(main, ["run", "--config", cfg,
                                  "--out-dir", str(tmp_path / "out")] + mode)
    assert result.exit_code == 2, result.output
    assert "collusion bound t=3 out of range for n=4" in result.output


@pytest.mark.parametrize("args,message", [
    (["--role", "0", "--tamper", "flip-element:1"], "the dealer has no inputs to tamper with"),
    (["--role", "1", "--seed", "5"], "--seed fixes a run without --role only"),
    (["--role", "0", "--seed", "5"], "--seed fixes a run without --role only"),
    (["--seed", "-1"], "-1 is not in the range x>=0"),
], ids=["dealer-tamper", "party-seed", "dealer-seed", "negative-seed"])
def test_option_the_mode_would_ignore_is_usage_error(runner, tmp_path, monkeypatch, args, message):
    # none may run as if the option had not been given, nor crash on its value
    monkeypatch.setattr(cli, "DEALER_IDLE_S", 0.2)
    prefix = _gen(runner, tmp_path, count=16, overlap=4, seed=22)
    salt = "2e" * 16
    _commit_all(runner, prefix, 2, salt)
    cfg = _config(tmp_path, prefix, 2, salt)
    result = runner.invoke(main, ["run", "--config", cfg,
                                  "--out-dir", str(tmp_path / "out")] + args)
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "out").exists()


def test_bench_smoke(runner, tmp_path):
    out = tmp_path / "bench.json"
    result = runner.invoke(main, ["bench", "--sizes", "64", "--reps", "1",
                                  "--construction", "2pc", "--out", str(out)])
    assert result.exit_code == 0, result.output
    data = json.loads(out.read_text())
    assert data["aggregated"] is False
    assert data["two_party"][0]["n"] == 64
    assert data["two_party"][0]["bits_per_element"] > 0

    csv_out = tmp_path / "bench.csv"
    result = runner.invoke(main, ["bench", "--sizes", "64", "--reps", "1",
                                  "--construction", "2pc", "--out", str(csv_out)])
    assert result.exit_code == 0
    assert csv_out.read_text().startswith("construction,n,median_ms")
    # seeds are non-negative, as numpy's generators require
    result = runner.invoke(main, ["bench", "--sizes", "64", "--reps", "1", "--seed", "-1"])
    assert result.exit_code == 2, result.output


# keys the CLI does not read, each with what sets it: two a config once could give
# with one valid value only (leaves are always salted, a party's index fixes its
# 2pc role; "n", the party count, is a CONFIG_FAULTS case), and mistyped ones
UNKNOWN_KEYS = {
    "salted": (lambda cfg: cfg.update(salted=True), "config has an unknown key 'salted'"),
    "role": (lambda cfg: cfg["parties"]["1"].update(role="receiver"),
             "party 1 has an unknown key 'role'"),
    "party-typo": (lambda cfg: cfg["parties"]["2"].update(datset="p2.dat"),
                   "party 2 has an unknown key 'datset'"),
    "dealer-typo": (lambda cfg: cfg["dealer"].update(adress="127.0.0.1:1"),
                    "the dealer has an unknown key 'adress'"),
}


@pytest.mark.parametrize("mode", [[], ["--role", "1"], ["--role", "0"]],
                         ids=["local", "party", "dealer"])
@pytest.mark.parametrize("key", UNKNOWN_KEYS)
def test_unknown_config_key_is_usage_error(runner, tmp_path, monkeypatch, key, mode):
    # a key the CLI would ignore is refused and named, in every mode; the dealer does
    # not wait for clients first
    monkeypatch.setattr(cli, "DEALER_IDLE_S", 5)
    prefix = _gen(runner, tmp_path, count=16, overlap=4, seed=11)
    salt = "77" * 16
    _commit_all(runner, prefix, 2, salt)
    cfg_path = _config(tmp_path, prefix, 2, salt)
    cfg = json.loads(Path(cfg_path).read_text())
    mutate, message = UNKNOWN_KEYS[key]
    mutate(cfg)
    Path(cfg_path).write_text(json.dumps(cfg))
    result = runner.invoke(main, ["run", "--config", cfg_path,
                                  "--out-dir", str(tmp_path / "out")] + mode)
    assert result.exit_code == 2, result.output
    assert message in result.output


@pytest.mark.parametrize("mode", [[], ["--role", "1"], ["--role", "0"]])
def test_multi_party_config_without_t_is_usage_error(runner, tmp_path, monkeypatch, mode):
    # a config without "t" is two-party in every mode, so three parties are refused, and
    # the dealer refuses them at once
    monkeypatch.setattr(cli, "DEALER_IDLE_S", 0.2)
    prefix = _gen(runner, tmp_path, count=12, parties=3, overlap=4, seed=12)
    salt = "88" * 16
    _commit_all(runner, prefix, 3, salt)
    cfg = _config(tmp_path, prefix, 3, salt)
    result = runner.invoke(main, ["run", "--config", cfg,
                                  "--out-dir", str(tmp_path / "out")] + mode)
    assert result.exit_code == 2, result.output
    assert "'t'" in result.output


def test_networked_party_reads_only_its_own_dataset(runner, tmp_path):
    # the other party's private input need not be readable by this process
    prefix = _gen(runner, tmp_path, count=16, overlap=4, seed=13)
    salt = "99" * 16
    _commit_all(runner, prefix, 2, salt)
    cfg = json.loads(Path(_config(tmp_path, prefix, 2, salt)).read_text())
    Path(f"{prefix}1.dat").unlink()
    session = cli._session(cfg, None, role=2)
    assert set(session.sets) == {2} and set(session.roots) == {1, 2}
    assert session.sets[2] == datasets.read_dataset(f"{prefix}2.dat")
    with pytest.raises(click.UsageError, match="party 1"):
        cli._session(cfg, None)  # a local run still needs every dataset


MODES = {"party": ["--role", "1"], "dealer": ["--role", "0"], "local": []}
NETWORKED = ("party", "dealer")  # a run without --role reads no address

# config faults, each with the text its usage error must show and the modes
# that read what it breaks
CONFIG_FAULTS = {
    "dealer-address-without-port": (lambda cfg: cfg["dealer"].update(address="127.0.0.1"),
                                    'the dealer needs an "address"', NETWORKED),
    "dealer-address-missing": (lambda cfg: cfg["dealer"].pop("address"),
                               'the dealer needs an "address"', NETWORKED),
    # every networked run has a dealer
    "dealer-missing": (lambda cfg: cfg.pop("dealer"), 'the dealer needs an "address"', NETWORKED),
    "party-address-without-port": (lambda cfg: cfg["parties"]["2"].update(address="127.0.0.1"),
                                   'party 2 needs an "address"', NETWORKED),
    "party-address-missing": (lambda cfg: cfg["parties"]["2"].pop("address"),
                              'party 2 needs an "address"', NETWORKED),
    "party-port-out-of-range": (lambda cfg: cfg["parties"]["2"].update(address="127.0.0.1:70000"),
                                'party 2 needs an "address"', NETWORKED),
    "non-integer-party-key": (lambda cfg: cfg["parties"].update(two=cfg["parties"].pop("2")),
                              "party key 'two' is not an integer", tuple(MODES)),
    "parties-array": (lambda cfg: cfg.update(parties=list(cfg["parties"].values())),
                      "'parties' must be an object", tuple(MODES)),
    "party-entry-string": (lambda cfg: cfg["parties"].update({"2": "p2.dat"}),
                           "party 2: the entry must be an object", tuple(MODES)),
    # the dealer opens no dataset
    "party-dataset-number": (lambda cfg: cfg["parties"]["1"].update(dataset=7),
                             "party 1: expected str", ("party", "local")),
    # a config that sets t is run as npc
    "t-fractional": (lambda cfg: cfg.update(t=1.9), "'t' must be an integer, not 1.9", tuple(MODES)),
    "t-boolean": (lambda cfg: cfg.update(t=True), "'t' must be an integer, not true", tuple(MODES)),
    "t-string": (lambda cfg: cfg.update(t="2"), "'t' must be an integer, not \"2\"",
                 tuple(MODES)),
    # a two-party config given a threshold runs as npc, which needs three parties;
    # n is the party count, and a config that gives it is refused
    "2pc-with-t": (lambda cfg: cfg.update(t=1), "multi-party runs need at least 3 parties",
                   tuple(MODES)),
    "2pc-with-n-3": (lambda cfg: cfg.update(n=3), "config has an unknown key 'n'", tuple(MODES)),
}

# whole configs that are not a JSON object
NON_OBJECT_CONFIGS = {"number": 5, "null": None, "string": "session_id parties"}


@pytest.mark.parametrize("fault,mode", [(fault, mode) for fault in sorted(CONFIG_FAULTS)
                                        for mode in CONFIG_FAULTS[fault][2]])
def test_bad_networked_config_is_usage_error(runner, tmp_path, fault, mode):
    # a malformed address, party key, entry, path or t is the operator's error: exit 2, no traceback
    prefix = _gen(runner, tmp_path, count=16, overlap=4, seed=16)
    salt = "cc" * 16
    _commit_all(runner, prefix, 2, salt)
    cfg_path = _config(tmp_path, prefix, 2, salt)
    cfg = json.loads(Path(cfg_path).read_text())
    mutate, message, _ = CONFIG_FAULTS[fault]
    mutate(cfg)
    Path(cfg_path).write_text(json.dumps(cfg))
    result = runner.invoke(main, ["run", "--config", cfg_path,
                                  "--out-dir", str(tmp_path / "out")] + MODES[mode])
    assert result.exit_code == 2, result.output
    assert message in result.output


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("config", NON_OBJECT_CONFIGS)
def test_non_object_config_is_usage_error(runner, tmp_path, config, mode):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(NON_OBJECT_CONFIGS[config]))
    result = runner.invoke(main, ["run", "--config", str(cfg_path),
                                  "--out-dir", str(tmp_path / "out")] + MODES[mode])
    assert result.exit_code == 2, result.output
    assert "config must be a JSON object" in result.output


@pytest.mark.parametrize("mode", MODES)
def test_out_dir_that_is_a_file_is_usage_error(runner, tmp_path, monkeypatch, mode):
    # refused before the session runs or its process connects: the dealer does not wait
    # for clients, and no party dials it
    monkeypatch.setattr(cli, "DEALER_IDLE_S", 5)
    prefix = _gen(runner, tmp_path, count=16, overlap=4, seed=24)
    salt = "3f" * 16
    _commit_all(runner, prefix, 2, salt)
    cfg = _config(tmp_path, prefix, 2, salt)
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    t0 = time.monotonic()
    result = runner.invoke(main, ["run", "--config", cfg, "--out-dir", str(out)] + MODES[mode])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "--out-dir" in result.output
    assert time.monotonic() - t0 < 3
    assert out.read_text() == "not a directory\n"


def test_local_transport_failure_exits_4(runner, tmp_path, monkeypatch):
    # a bus run that loses the masked vector goes quiet with both parties waiting
    prefix = _gen(runner, tmp_path, count=16, overlap=4, seed=18)
    salt = "ee" * 16
    _commit_all(runner, prefix, 2, salt)
    cfg = _config(tmp_path, prefix, 2, salt)
    deliver = transport.BusNetwork.deliver

    def lossy(self, src, dst, env):
        if env.msg_type != psi2.MSG_MASKED_VECTOR:
            deliver(self, src, dst, env)

    monkeypatch.setattr(transport.BusNetwork, "deliver", lossy)
    result = runner.invoke(main, ["run", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "transport failure: " in result.output and "parties [1, 2]" in result.output


def _readme_commands():
    """(command, its --options) of each `authpsi` line in README's fenced sh blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    script = "\n".join(re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S))
    commands = []
    for line in script.replace("\\\n", " ").splitlines():
        words = line.split("#")[0].split()
        if words[:1] == ["authpsi"]:
            commands.append((words[1], {w.split("=")[0] for w in words if w.startswith("--")}))
    return commands


def test_readme_uses_only_options_the_cli_has():
    # a walkthrough line with an option its command lost fails here, not on a reader's shell
    commands = _readme_commands()
    assert {name for name, _ in commands} >= {"gen", "commit", "run"}
    for name, options in commands:
        known = {opt for param in main.commands[name].params for opt in param.opts}
        assert options <= known, (name, sorted(options - known))


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _connect_as_party_2(port):
    """A raw connection to the process under test, once it listens, introduced as party 2."""
    deadline = time.monotonic() + 10
    while True:
        try:
            raw = socket.create_connection(("127.0.0.1", port), timeout=10)
            break
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)
    raw.sendall((2).to_bytes(2, "big"))
    return raw


def _send_malformed_frame(port):
    """Send one 5-byte frame as party 2 and wait for the hang-up."""
    with _connect_as_party_2(port) as raw:
        raw.sendall((5).to_bytes(4, "big") + bytes(5))
        raw.recv(1)


@pytest.mark.parametrize("role", [0, 1], ids=["dealer", "party"])
def test_malformed_frame_exits_4_at_once(runner, tmp_path, role):
    prefix = _gen(runner, tmp_path, count=16, overlap=4, seed=14)
    salt = "aa" * 16
    _commit_all(runner, prefix, 2, salt)
    cfg_path = _config(tmp_path, prefix, 2, salt)
    cfg = json.loads(Path(cfg_path).read_text())
    # the endpoints this process sends to accept and ignore its traffic
    sinks = {i: transport.TcpNode(i, ("127.0.0.1", 0), {}) for i in (0, 2) if i != role}
    port = _free_port()
    entries = {0: cfg["dealer"], 1: cfg["parties"]["1"], 2: cfg["parties"]["2"]}
    entries[role]["address"] = f"127.0.0.1:{port}"
    for i, sink in sinks.items():
        entries[i]["address"] = f"127.0.0.1:{sink.bound_port}"
    Path(cfg_path).write_text(json.dumps(cfg))
    sender = threading.Thread(target=_send_malformed_frame, args=(port,))
    sender.start()
    try:
        t0 = time.monotonic()
        result = runner.invoke(main, ["run", "--config", cfg_path,
                                      "--role", str(role), "--out-dir", str(tmp_path / "out")])
        elapsed = time.monotonic() - t0
    finally:
        sender.join(timeout=10)
        for sink in sinks.values():
            sink.close()
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "malformed frame" in result.output
    assert elapsed < 5


@pytest.mark.parametrize("role", [0, 1], ids=["dealer", "party"])
def test_busy_listen_address_exits_4(runner, tmp_path, role):
    # an address this process cannot listen on is a transport failure, not a traceback
    prefix = _gen(runner, tmp_path, count=16, overlap=4, seed=23)
    salt = "3e" * 16
    _commit_all(runner, prefix, 2, salt)
    cfg_path = _config(tmp_path, prefix, 2, salt)
    cfg = json.loads(Path(cfg_path).read_text())
    with socket.create_server(("127.0.0.1", 0)) as busy:
        entry = cfg["dealer"] if role == 0 else cfg["parties"]["1"]
        entry["address"] = f"127.0.0.1:{busy.getsockname()[1]}"
        Path(cfg_path).write_text(json.dumps(cfg))
        result = runner.invoke(main, ["run", "--config", cfg_path,
                                      "--role", str(role), "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "cannot listen on" in result.output


def _send_malformed_dealer_request(port, session_id):
    """Send a two-party session's dealer, as party 2, one well-framed OPRF request,
    which it is not owed."""
    with _connect_as_party_2(port) as raw:
        raw.sendall(transport.Envelope(session_id, opprf.MSG_OPRF_DEALER, bytes(16)).to_frame())


def test_malformed_dealer_request_exits_3_at_once(runner, tmp_path):
    prefix = _gen(runner, tmp_path, count=16, overlap=4, seed=15)
    salt = "bb" * 16
    _commit_all(runner, prefix, 2, salt)
    cfg_path = _config(tmp_path, prefix, 2, salt)
    cfg = json.loads(Path(cfg_path).read_text())
    port = _free_port()
    cfg["dealer"]["address"] = f"127.0.0.1:{port}"
    Path(cfg_path).write_text(json.dumps(cfg))
    sender = threading.Thread(target=_send_malformed_dealer_request,
                              args=(port, bytes.fromhex(salt)))
    sender.start()
    try:
        t0 = time.monotonic()
        result = runner.invoke(main, ["run", "--config", cfg_path,
                                      "--role", "0", "--out-dir", str(tmp_path / "out")])
        elapsed = time.monotonic() - t0
    finally:
        sender.join(timeout=10)
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "party 2: unexpected message 0x15 from party 2" in result.output
    assert elapsed < 5
    # the dealer reports its own links and names its refusal under its index
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["aborted"] is True
    assert report["abort_reasons"] == {"0": "party 2: unexpected message 0x15 from party 2"}
    assert set(report["bytes_by_party"]) == {"0", "2"}
    assert set(report["phase_ms"]) == {"0"} and set(report["phase_ms"]["0"]) == {"0x15"}


@pytest.mark.parametrize("construction,parties", [("2pc", 2), ("npc", 3)])
def test_dealer_reads_no_party_file(runner, tmp_path, monkeypatch, construction, parties):
    # the dealer works out its clients from the config alone, so its host
    # needs no party's dataset or root; with no client coming it ends at
    # its idle cap
    monkeypatch.setattr(cli, "DEALER_IDLE_S", 0.2)
    extra = {"t": 1} if construction == "npc" else None
    cfg_path = _config(tmp_path, str(tmp_path / "absent"), parties, "cc" * 16, extra)
    result = runner.invoke(main, ["run", "--config", cfg_path,
                                  "--role", "0", "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert "dealer served 0 responses" in result.output
    assert json.loads((tmp_path / "out" / "report.json").read_text())["abort_reasons"] == {}


def _cli_env():
    """The environment for `python -m authpsi.cli` with this source tree on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_processes(config_path, roles, out_dir, tamper=None):
    """`authpsi run --role I` for each of `roles` (0 is the dealer), each its own process.

    Returns I -> (exit code, stdout, stderr, `time.monotonic()` at its exit)."""
    env = _cli_env()
    procs = {}
    t0 = time.monotonic()
    try:
        for i in roles:
            args = [sys.executable, "-m", "authpsi.cli", "run", "--config", config_path,
                    "--role", str(i), "--out-dir", str(out_dir / str(i))]
            if tamper is not None and i == tamper[0]:
                args += ["--tamper", tamper[1]]
            procs[i] = subprocess.Popen(args, env=env, stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE, text=True)
        # their output is a few lines, so polling cannot fill a pipe
        ended = {}
        while len(ended) < len(procs) and time.monotonic() - t0 < 60:
            ended.update({i: time.monotonic() for i, proc in procs.items()
                          if i not in ended and proc.poll() is not None})
            time.sleep(0.02)
        outputs = {i: proc.communicate(timeout=60) for i, proc in procs.items()}
        return {i: (proc.returncode, *outputs[i], ended.get(i)) for i, proc in procs.items()}
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


@pytest.mark.parametrize("construction,parties,tamper", [
    ("2pc", 2, None),
    ("npc", 3, None),
    ("npc", 3, (3, "flip-element:0")),
    ("2pc", 2, (2, "flip-element:0")),
], ids=["2pc", "3x1", "3x1-tampered-at-3", "2pc-tampered-at-2"])
def test_networked_run_matches_local(runner, tmp_path, construction, parties, tamper):
    # the dealer and every party in its own process, over TCP on free ports
    prefix = _gen(runner, tmp_path, count=24, parties=parties, overlap=6, seed=19)
    salt = "ff" * 16
    _commit_all(runner, prefix, parties, salt)
    extra = {"t": 1} if construction == "npc" else None
    cfg_path = _config(tmp_path, prefix, parties, salt, extra)
    cfg = json.loads(Path(cfg_path).read_text())
    for entry in [cfg["dealer"], *cfg["parties"].values()]:
        entry["address"] = f"127.0.0.1:{_free_port()}"
    Path(cfg_path).write_text(json.dumps(cfg))

    results = _run_processes(cfg_path, range(parties + 1), tmp_path / "net", tamper)
    # the dealer serves until its clients have hung up; every dealer client
    # dials the dealer before it starts, so the dealer sees each one hang up,
    # also one that aborts without a request
    assert results[0][0] == 0, results[0][2]
    last_party = max(results[i][3] for i in range(1, parties + 1))
    assert results[0][3] - last_party < 5, {i: r[3] for i, r in results.items()}
    if tamper is not None:
        # a party asks the dealer only once every root it is owed has passed
        # the gate, so an honest party, whose gate fails, asks it nothing
        dealer_report = json.loads((tmp_path / "net" / "0" / "report.json").read_text())
        for i in range(1, parties + 1):
            if i != tamper[0]:
                assert results[i][0] == 3, results[i][2]
                assert f"root from party {tamper[0]}" in results[i][2]
                assert not dealer_report["bytes_by_party"].get(str(i), {}).get("sent"), i
        return
    assert re.search(r"dealer served [1-9]\d* responses", results[0][1]), results[0][1]
    assert all(code == 0 for code, _, _, _ in results.values()), results
    local = runner.invoke(main, ["run", "--config", cfg_path, "--out-dir", str(tmp_path / "local")])
    assert local.exit_code == 0, local.output
    output_party = 1 if construction == "2pc" else parties
    networked = (tmp_path / "net" / str(output_party) / "intersection.txt").read_text()
    assert networked == (tmp_path / "local" / "intersection.txt").read_text()
    # every process reports in one shape, the dealer's too, and a run without --role alike
    local_keys = set(json.loads((tmp_path / "local" / "report.json").read_text()))
    assert "elapsed_ms" in local_keys
    for i in range(parties + 1):
        report = json.loads((tmp_path / "net" / str(i) / "report.json").read_text())
        assert set(report) == local_keys, i
        assert report["aborted"] is False, i
    assert networked.split() == sorted(e.hex() for e in datasets.read_dataset(f"{prefix}_core.dat"))


def test_dealer_refusal_ends_a_networked_party(runner, tmp_path):
    # the dealer and party 1 run as processes; party 2 is a node here that,
    # once party 1's root is in (party 1 dials the dealer before it starts),
    # sends the dealer an OPRF key request, which a 2pc dealer is not owed.
    # The dealer's abort reaches party 1 at once, not after its 30 s wait
    prefix = _gen(runner, tmp_path, count=16, overlap=4, seed=16)
    salt = "dd" * 16
    _commit_all(runner, prefix, 2, salt)
    cfg_path = _config(tmp_path, prefix, 2, salt)
    cfg = json.loads(Path(cfg_path).read_text())
    ports = {i: _free_port() for i in (0, 1, 2)}
    for i, entry in ((0, cfg["dealer"]), (1, cfg["parties"]["1"]), (2, cfg["parties"]["2"])):
        entry["address"] = f"127.0.0.1:{ports[i]}"
    Path(cfg_path).write_text(json.dumps(cfg))
    node = transport.TcpNode(2, ("127.0.0.1", ports[2]), {0: ("127.0.0.1", ports[0])})
    received, sent_at = [], []

    def party_2():
        received.append(node.recv(timeout=20))
        sent_at.append(time.monotonic())
        node.deliver(2, transport.DEALER_INDEX,
                     transport.Envelope(bytes.fromhex(salt), opprf.MSG_OPRF_DEALER, b""))
        received.append(node.recv(timeout=10))

    fake = threading.Thread(target=party_2)
    fake.start()
    try:
        results = _run_processes(cfg_path, [0, 1], tmp_path / "net")
    finally:
        fake.join(timeout=30)
        node.close()
    reason = "dealer: party 2: unexpected message 0x15 from party 2"
    assert received[0][0] == 1 and received[0][2].msg_type == psi2.MSG_ROOT_PROOFS
    assert results[1][0] == 3, results[1][2]
    assert f"session aborted at party 1: {reason}" in results[1][2]
    assert results[1][3] - sent_at[0] < 5
    assert results[0][0] == 3, results[0][2]
    assert "session aborted at the dealer: party 2: unexpected message 0x15" in results[0][2]
