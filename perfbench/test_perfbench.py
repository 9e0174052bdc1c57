"""Tests of the benchmark itself, at reduced size.

Run from the repository root with::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import UNITS as LAYER_UNITS  # noqa: E402
from worker import HostProbe  # noqa: E402
from workloads import WORKLOADS, Case, check  # noqa: E402


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    gated = {
        name: (unit, better)
        for name, (unit, better, is_gated) in run.END_TO_END.items()
        if is_gated
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == gated
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == LAYER_UNITS


def test_end_to_end_prints_every_metric_with_unit_and_direction(capsys):
    result = run.end_to_end("flood-n400", seed=0, seconds=0, small=True)
    out = capsys.readouterr().out
    for name, (unit, better, _gated) in run.END_TO_END.items():
        assert f"  {name} = " in out
        assert f" {unit} ({better} is better)" in out
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(WORKLOADS["flood-n400"].cases)
    assert set(result["metrics"]) == {
        name for name, (_u, _b, gated) in run.END_TO_END.items() if gated
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _good_record(**changes) -> dict:
    record = {
        "protocol": "dcop",
        "rounds": 2,
        "delivery_ratio": 1.0,
        "payload_ok": True,
        "fingerprint": "f",
    }
    record.update(changes)
    return record


@pytest.mark.parametrize(
    "case, record",
    [
        (Case("dcop"), {"protocol": "dcop", "error": "RuntimeError()"}),
        (Case("dcop", True, 2), _good_record(delivery_ratio=0.999)),
        (Case("dcop", True, 2), _good_record(rounds=3)),
        (Case("tcop", True, 6), _good_record(rounds=None)),
        (Case("dcop"), _good_record(payload_ok=False)),
    ],
)
def test_each_output_check_fails_on_a_violating_result(case, record):
    assert check(case, record)


def test_checks_pass_a_good_result_and_spare_lossy_sessions():
    assert check(Case("dcop", True, 2), _good_record()) == []
    assert check(Case("dcop"), _good_record(delivery_ratio=0.99, rounds=3)) == []


def test_a_fingerprint_mismatch_between_runs_counts_as_failed():
    records = [_good_record(), _good_record(protocol="tcop", rounds=6)]
    first = {"records": records}
    second = {"records": [records[0], dict(records[1], fingerprint="g")]}
    attempted, failed, messages = run.judge("flood-n400", [first, second])
    assert (attempted, failed) == (4, 1)
    assert "trajectory differs" in messages[0]


def test_run_s_is_scaled_to_the_nominal_host_speed():
    fast = {"records": [{"run_s": 2.0, "probe_s": run.PROBE_NOMINAL_S}]}
    slow = {"records": [{"run_s": 3.0, "probe_s": 1.5 * run.PROBE_NOMINAL_S}]}
    unprobed = {"records": [{"run_s": 2.5}]}
    slow_scaled = 3.0 / 1.5**run.PROBE_ELASTICITY
    assert 2.0 < slow_scaled < 2.5
    assert run.corrected_run_s([fast, slow, unprobed]) == pytest.approx(slow_scaled)
    assert run.corrected_run_s([fast, unprobed]) == pytest.approx(2.25)


def test_host_probe_samples_while_busy_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostProbe() as probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(probe.times) >= 2 and all(t > 0 for t in probe.times)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_traced_run_matches_untraced_and_reports_every_layer_metric(capsys):
    result = run.per_layer("churn-audited", seed=0, small=True)
    out = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(LAYER_UNITS)
    for name, (unit, better) in LAYER_UNITS.items():
        assert f"  {name} = " in out
        assert f" {unit} ({better} is better)" in out
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["obs.events"] > 0 and metrics["groupcomm.vc_us"] > 0
    assert 0 < metrics["bench.attributed_share"] <= 1


def test_traced_and_untraced_fingerprints_are_equal():
    untraced = run.worker("timed", "fec-payload", 1, small=True)
    traced = run.worker("traced", "fec-payload", 1, small=True)
    assert [r["fingerprint"] for r in traced["records"]] == [
        r["fingerprint"] for r in untraced["records"]
    ]


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flood-n400"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
