"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import sessions  # noqa: E402
import speed  # noqa: E402
from authpsi import harness, psi2, psin  # noqa: E402

TINY = {
    "psi2": sessions.Workload("tiny-psi2", parties=2, n=1 << 8),
    "psin": sessions.Workload("tiny-psin", parties=3, n=1 << 8, t=1),
    "tamper": sessions.Workload("tiny-tamper", parties=2, n=1 << 8, tamper=True),
}


def traced_session(workload, seed=5, index=0):
    tracer = layers.Tracer()
    inp = sessions.make_input(workload, seed, index)
    with tracer.active():
        out = sessions.run_session(workload, inp, tracer)
    return tracer, out


@pytest.mark.parametrize("kind", ["psi2", "psin"])
def test_correct_output_passes_and_wrong_expected_set_fails(kind):
    workload = TINY[kind]
    inp = sessions.make_input(workload, 3, 0)
    assert len(inp.expected) == workload.n // 4
    assert sessions.run_session(workload, inp).ok

    wrong = dataclasses.replace(inp, expected=set(list(inp.expected)[1:]))
    out = sessions.run_session(workload, wrong)
    assert not out.ok
    assert out.detail.startswith("wrong output")


def test_every_tamper_kind_aborts_and_is_not_judged_honest():
    workload = TINY["tamper"]
    kinds = set()
    for index in range(8):
        inp = sessions.make_input(workload, 9, index)
        kinds.add((inp.tamper.kind, inp.tamper.party))
        assert sessions.run_session(workload, inp).ok, inp.tamper
        as_honest = dataclasses.replace(inp, tamper=None)
        run_result = sessions.call_session(workload, inp, sessions.commit(inp), None)
        ok, detail = sessions.judge(workload, as_honest, run_result)
        assert not ok and "aborted" in detail
    assert len(kinds) == 8


def test_escaped_exception_counts_as_failure():
    workload = TINY["psi2"]
    inp = sessions.make_input(workload, 3, 0)
    inp.sets[1][1] = inp.sets[1][0]  # duplicate element: the engine config refuses it
    out = sessions.run_session(workload, inp)
    assert not out.ok
    assert out.detail.startswith("exception")


def test_inputs_follow_the_seed():
    a = sessions.make_input(TINY["tamper"], 4, 2)
    b = sessions.make_input(TINY["tamper"], 4, 2)
    c = sessions.make_input(TINY["tamper"], 5, 2)
    assert a.sets == b.sets and a.session_id == b.session_id and a.tamper == b.tamper
    assert a.sets != c.sets


@pytest.mark.parametrize("kind", ["psi2", "psin", "tamper"])
def test_per_type_bytes_sum_to_protocol_bytes(kind):
    tracer, out = traced_session(TINY[kind])
    assert out.ok
    values, _ = tracer.per_layer(1)
    per_type = {k: v for k, v in values.items() if k.startswith("transport.bytes.")}
    assert per_type
    assert sum(per_type.values()) == out.protocol_bytes


ABSENT = {
    "psi2": ("zeroshare.", "opprf."),
    "psin": ("psi2.output_digest.", "psi2.hash_to_mask.", "vole."),
    "tamper": ("zeroshare.", "opprf.", "psi2.output_digest.", "okvs.decode_batch.", "vole.extend."),
}


@pytest.mark.parametrize("kind", ["psi2", "psin", "tamper"])
def test_named_metrics_present_or_absent_with_reason(kind):
    tracer, out = traced_session(TINY[kind])
    assert out.ok
    values, absent = tracer.per_layer(1)
    assert all(absent.values())
    assert set(absent) == {m for m in layers.NAMED_METRICS if m.startswith(ABSENT[kind])}
    for metric in set(layers.NAMED_METRICS) - set(absent):
        assert values[metric] > 0, metric


def test_self_times_add_up_to_session_time():
    tracer, _ = traced_session(TINY["psin"])
    in_session = [s for (root, _), s in tracer.stats.items() if root == layers.ROOT_SESSION]
    session = tracer.stats[(layers.ROOT_SESSION, layers.ROOT_SESSION)]
    assert sum(s.self_s for s in in_session) == pytest.approx(session.total_s, rel=1e-9)
    for span in tracer.spans:
        sid, parent, session_id, name, start, end = span
        assert end >= start
        if parent is not None:
            assert tracer.spans[parent][4] <= start and end <= tracer.spans[parent][5]


def test_wrappers_reach_by_name_imports_and_are_removed():
    original = psi2.decode_root_proofs
    tracer = layers.Tracer()
    with tracer.active():
        assert psin.decode_root_proofs is psi2.decode_root_proofs is harness.decode_root_proofs
        assert psi2.decode_root_proofs is not original
    assert psin.decode_root_proofs is original and harness.decode_root_proofs is original


def test_spec_names_and_units_match_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    values, _ = traced_session(TINY["psi2"])[0].per_layer(1)
    for m in spec["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"], m
        assert m["name"] in values or m["name"].startswith(("transport.bytes.", "trace.")), m
    e2e = set(run.end_to_end(TINY["psi2"], [{"ok": True, "session_s": 1.0, "setup_s": [1.0],
                                               "wall_session_s": 1.0, "wall_setup_s": [1.0],
                                               "kernel_s": 1.0, "protocol_bytes": 1,
                                               "setup_bytes": 1, "maxrss_mb": 1.0}]))
    for m in spec["end_to_end"]:
        assert run.unit_of(m["name"]) == m["unit"], m
        assert m["name"] in e2e, m


def test_speed_probe_charges_only_its_own_ticks_and_scales_by_their_kernel_time():
    probe = speed.Probe()
    probe.starts, probe.ends = [1.0, 2.0, 3.0], [1.1, 2.1, 3.1]
    probe.kernel_s = [2 * speed.REFERENCE_S, 4 * speed.REFERENCE_S, 6 * speed.REFERENCE_S]
    assert probe.busy_s(0.0, 10.0) == pytest.approx(0.3)
    assert probe.busy_s(1.05, 2.05) == pytest.approx(0.1)
    assert probe.mean_kernel_s(1.5, 3.5) == pytest.approx(5 * speed.REFERENCE_S)
    assert probe.mean_kernel_s(2.5, 2.9) == pytest.approx(4 * speed.REFERENCE_S)  # last tick before
    assert probe.reference_s(0.0, 10.0, probe.mean_kernel_s(0.0, 10.0)) == \
        pytest.approx(9.7 / 4 ** speed.ELASTICITY)
    assert probe.reference_s(0.0, 10.0, speed.REFERENCE_S) == pytest.approx(9.7)


def test_probed_run_reports_reference_and_wall_seconds():
    records, tracer = run.measure(TINY["psi2"], 3, 0.5, trace=False)
    assert tracer is None and all(r["ok"] for r in records)
    values = run.end_to_end(TINY["psi2"], records)
    assert values["session_s"] > 0 and values["setup_s"] > 0
    assert values["wall_session_s"] > 0 and values["probe_kernel_s"] > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
