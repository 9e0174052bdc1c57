"""Tests for the repro-experiments CLI."""

import pytest

from repro.experiments.cli import main


def test_fig10_quick_prints_table(capsys):
    rc = main(["fig10", "--quick"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 10" in out
    assert "rounds" in out
    assert "H" in out


def test_csv_output(capsys):
    rc = main(["fig10", "--quick", "--csv"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "H,rounds,control_packets" in out


def test_seed_changes_nothing_structural(capsys):
    main(["fig10", "--quick", "--seed", "7"])
    out = capsys.readouterr().out
    assert "Figure 10" in out


def test_trace_subcommand_emits_timeline_and_chrome_trace(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    rc = main(
        [
            "trace", "--protocol", "tcop", "--quick",
            "--n", "12", "--H", "4", "--trace-out", str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    # the wave timeline, rendered as markdown, with the round count the
    # session reported
    assert "coordination timeline" in printed
    assert "| round |" in printed
    assert "rounds=" in printed
    # the chrome trace-event document is valid JSON with ≥1 named track
    # per participant (leaf + 12 peers + the waves track)
    doc = json.loads(out.read_text())
    tracks = [
        e for e in doc["traceEvents"] if e.get("name") == "thread_name"
    ]
    assert len(tracks) == 1 + 1 + 12
    assert doc["displayTimeUnit"] == "ms"


def test_trace_subcommand_optional_outputs(tmp_path, capsys):
    import json

    jsonl = tmp_path / "trace.jsonl"
    summary = tmp_path / "summary.json"
    rc = main(
        [
            "trace", "--protocol", "dcop", "--quick",
            "--n", "10", "--H", "4",
            "--trace-out", str(tmp_path / "t.json"),
            "--jsonl-out", str(jsonl),
            "--summary-out", str(summary),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    lines = jsonl.read_text().splitlines()
    assert lines and all(json.loads(line) for line in lines)
    doc = json.loads(summary.read_text())
    assert doc["result"]["type"] == "session_result"
    assert doc["timeseries"]["type"] == "series"


def test_unknown_model_names_fail_with_one_line_error(capsys):
    # unknown registry names exit 2 with a single stderr line, never a
    # traceback; the message lists what IS available
    for argv in (
        ["trace", "--quick", "--protocol", "nope"],
        ["trace", "--quick", "--latency", "warp"],
        ["audit", "--quick", "--loss", "gremlins"],
    ):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("repro-experiments: error:")
        assert "available:" in captured.err
        assert captured.err.count("\n") == 1


def test_malformed_model_params_fail_cleanly(capsys):
    rc = main(["trace", "--quick", "--protocol", "tcop:badpair"])
    assert rc == 2
    assert "key=value" in capsys.readouterr().err


def test_out_paths_create_parent_directories(tmp_path, capsys):
    out = tmp_path / "deep" / "nested" / "trace.json"
    rc = main(
        [
            "trace", "--protocol", "tcop", "--quick",
            "--n", "10", "--H", "4", "--trace-out", str(out),
            "--jsonl-out", str(tmp_path / "other" / "t.jsonl"),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    assert out.exists()
    assert (tmp_path / "other" / "t.jsonl").exists()


def test_audit_subcommand_fresh_run_and_replay(tmp_path, capsys):
    import json

    jsonl = tmp_path / "trace.jsonl"
    report = tmp_path / "reports" / "audit.json"
    rc = main(
        [
            "trace", "--protocol", "tcop", "--quick",
            "--n", "10", "--H", "4",
            "--trace-out", str(tmp_path / "t.json"),
            "--jsonl-out", str(jsonl),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    # fresh audited run, report written through a missing parent dir
    rc = main(
        [
            "audit", "--protocol", "tcop", "--quick",
            "--n", "10", "--H", "4", "--report-out", str(report),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "audit PASS" in out
    doc = json.loads(report.read_text())
    assert doc["type"] == "audit_report" and doc["passed"] is True
    # replay mode over the recorded JSONL
    rc = main(["audit", "--from-jsonl", str(jsonl)])
    assert rc == 0
    assert "audit PASS" in capsys.readouterr().out
    # missing trace file: clean one-line failure
    rc = main(["audit", "--from-jsonl", str(tmp_path / "absent.jsonl")])
    assert rc == 2
    assert main(["audit", "--quick", "--auditors", "tree,bogus"]) == 2
    capsys.readouterr()


def test_regress_subcommand_gates_artifacts(tmp_path, capsys):
    import json

    base, fresh = tmp_path / "base", tmp_path / "fresh"
    base.mkdir(), fresh.mkdir()
    payload = {
        "bench": "demo", "total_wall_s": 1.0,
        "tests": {"t": {"wall_s": 1.0, "scalars": {"rounds": 9}}},
    }
    (base / "BENCH_demo.json").write_text(json.dumps(payload))
    (fresh / "BENCH_demo.json").write_text(json.dumps(payload))
    rc = main(["regress", "--baseline", str(base), "--fresh", str(fresh)])
    assert rc == 0
    assert "regress: OK" in capsys.readouterr().out
    # a slowdown beyond tolerance flips the exit code
    slow = dict(payload, total_wall_s=10.0)
    (fresh / "BENCH_demo.json").write_text(json.dumps(slow))
    rc = main(["regress", "--baseline", str(base), "--fresh", str(fresh)])
    assert rc == 1
    assert "regress: FAILED" in capsys.readouterr().out
    # ...and a looser tolerance absorbs it
    rc = main(
        [
            "regress", "--baseline", str(base), "--fresh", str(fresh),
            "--wall-tolerance", "20",
        ]
    )
    capsys.readouterr()
    assert rc == 0
    # missing inputs fail cleanly
    assert main(["regress", "--baseline", str(base)]) == 2
    assert main(
        ["regress", "--baseline", str(tmp_path / "nope"), "--fresh", str(fresh)]
    ) == 2
    capsys.readouterr()


def test_perf_subcommand_profiles_a_run(tmp_path, capsys):
    import json

    profile_out = tmp_path / "profile.json"
    collapsed_out = tmp_path / "stacks.collapsed"
    trace_out = tmp_path / "trace.json"
    rc = main(
        [
            "perf", "--protocol", "tcop", "--quick",
            "--n", "12", "--H", "4",
            "--profile-out", str(profile_out),
            "--collapsed-out", str(collapsed_out),
            "--trace-out", str(trace_out),
            "--top", "3",
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    # the headline digest plus exactly --top hottest-site lines
    assert "attributed" in printed
    assert sum(1 for line in printed.splitlines() if "calls" in line) == 3
    # the profile report round-trips from disk
    doc = json.loads(profile_out.read_text())
    assert doc["type"] == "profile_report"
    assert doc["protocol"] == "TCoP"
    assert doc["attributed_share"] >= 0.95
    # collapsed stacks: every line is "repro;<subsystem>;<site> <µs>"
    lines = collapsed_out.read_text().splitlines()
    assert lines and all(
        line.startswith("repro;") and line.rsplit(" ", 1)[1].isdigit()
        for line in lines
    )
    # the chrome trace gained the profiler's counter tracks
    chrome = json.loads(trace_out.read_text())
    counters = {
        e["name"] for e in chrome["traceEvents"] if e["ph"] == "C"
    }
    assert counters == {"heap depth", "events processed"}


def test_perf_subcommand_profiles_the_untraced_run(tmp_path, capsys):
    """Without --trace-out, perf profiles the configuration a user runs:
    no trace bus, so no tracing subsystem in the profile."""
    import json

    base = ["perf", "--protocol", "tcop", "--quick", "--n", "12", "--H", "4"]
    untraced, traced = tmp_path / "untraced.json", tmp_path / "traced.json"
    assert main(base + ["--profile-out", str(untraced)]) == 0
    assert main(
        base + [
            "--profile-out", str(traced),
            "--trace-out", str(tmp_path / "trace.json"),
        ]
    ) == 0
    capsys.readouterr()
    assert "tracing" not in json.loads(untraced.read_text())["subsystems"]
    assert "tracing" in json.loads(traced.read_text())["subsystems"]


def test_perf_subcommand_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["perf", "--protocol", "dcop", "--quick", "--n", "8", "--H", "4"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "profile_dcop.json").exists()


def test_regress_gate_scalar_flag(tmp_path, capsys):
    import json

    base, fresh = tmp_path / "base", tmp_path / "fresh"
    base.mkdir(), fresh.mkdir()

    def payload(throughput):
        return {
            "bench": "kernel", "total_wall_s": 1.0,
            "tests": {"t": {"wall_s": 1.0, "scalars": {
                "events_per_wall_s_total": throughput,
            }}},
        }

    (base / "BENCH_kernel.json").write_text(json.dumps(payload(1000.0)))
    (fresh / "BENCH_kernel.json").write_text(json.dumps(payload(500.0)))
    # ungated: the throughput collapse is informational only
    rc = main(["regress", "--baseline", str(base), "--fresh", str(fresh)])
    assert rc == 0
    capsys.readouterr()
    # gated: the same collapse fails the run
    rc = main(
        [
            "regress", "--baseline", str(base), "--fresh", str(fresh),
            "--gate-scalar", "events_per_wall_s_total:25%",
        ]
    )
    assert rc == 1
    assert "gated_scalar" in capsys.readouterr().out
    # within tolerance passes, and a malformed gate exits 2
    rc = main(
        [
            "regress", "--baseline", str(base), "--fresh", str(fresh),
            "--gate-scalar", "events_per_wall_s_total:60%",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert main(
        [
            "regress", "--baseline", str(base), "--fresh", str(fresh),
            "--gate-scalar", "no-tolerance",
        ]
    ) == 2
    capsys.readouterr()


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_experiment_argument_required():
    with pytest.raises(SystemExit):
        main([])


def test_detector_and_retransmit_flags_accepted(tmp_path, capsys):
    rc = main(
        [
            "trace", "--protocol", "dcop", "--quick",
            "--n", "8", "--H", "3",
            "--detector", "accrual:phi_suspect=1.5,window=16",
            "--retransmit", "adaptive=1,jitter=0.5",
            "--trace-out", str(tmp_path / "t.json"),
        ]
    )
    assert rc == 0
    assert "coordination timeline" in capsys.readouterr().out


def test_unknown_detector_name_fails_with_exit_2(capsys):
    rc = main(["trace", "--protocol", "dcop", "--detector", "bogus"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown detector" in err
    assert "accrual" in err  # the error lists what IS available


def test_bad_detector_params_fail_with_exit_2(capsys):
    rc = main(
        ["trace", "--protocol", "dcop", "--detector", "accrual:nope=3"]
    )
    assert rc == 2
    assert "bad --detector" in capsys.readouterr().err


def test_bad_retransmit_values_fail_with_exit_2(capsys):
    # field exists but value violates the policy invariant
    rc = main(
        ["trace", "--protocol", "dcop", "--retransmit", "backoff=0.5"]
    )
    assert rc == 2
    assert "bad --retransmit" in capsys.readouterr().err
    # unknown field
    rc = main(
        ["trace", "--protocol", "dcop", "--retransmit", "warp=9"]
    )
    assert rc == 2
    # malformed pair (no '=')
    rc = main(["trace", "--protocol", "dcop", "--retransmit", "adaptive"])
    assert rc == 2
    assert "expected key=value" in capsys.readouterr().err


def test_jobs_auto_selects_executor(capsys):
    # '--jobs auto' must run and print the same table a serial run does
    rc = main(["fig10", "--quick", "--jobs", "auto"])
    assert rc == 0
    auto_out = capsys.readouterr().out
    main(["fig10", "--quick"])
    assert auto_out == capsys.readouterr().out


def test_jobs_rejects_garbage(capsys):
    for bad in ("bogus", "0", "-2"):
        with pytest.raises(SystemExit) as exc:
            main(["fig10", "--quick", "--jobs", bad])
        assert exc.value.code == 2
        capsys.readouterr()


def test_trace_capacity_flag_caps_a_single_session(capsys):
    rc = main(
        [
            "trace", "--protocol", "dcop", "--quick",
            "--n", "6", "--H", "2",
            "--capacity", "packets_per_delta=4,queue_limit=16",
        ]
    )
    assert rc == 0
    assert "trace:" in capsys.readouterr().out


def test_trace_capacity_flag_rejects_garbage(capsys):
    rc = main(
        ["trace", "--quick", "--capacity", "packets_per_delta=-1"]
    )
    assert rc == 2
    assert "capacity" in capsys.readouterr().err
    rc = main(["trace", "--quick", "--capacity", "nonsense"])
    assert rc == 2
    capsys.readouterr()


def test_trace_join_storm_runs_a_swarm(tmp_path, capsys):
    import json

    out = tmp_path / "swarm.json"
    rc = main(
        [
            "trace", "--protocol", "dcop",
            "--n", "6", "--H", "2", "--packets", "20",
            "--capacity", "packets_per_delta=6",
            "--join-storm", "leaves=3,rate_per_delta=1.0",
            "--trace-out", str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "leaf" in printed.lower()
    assert "retries=" in printed
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]


def test_join_storm_refused_by_perf_and_spans(capsys):
    for sub in ("perf", "spans"):
        rc = main([sub, "--quick", "--join-storm", "leaves=2"])
        assert rc == 2
        assert "join-storm" in capsys.readouterr().err
