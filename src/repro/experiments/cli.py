"""Command-line entry point: ``repro-experiments <experiment> [--quick]``."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.experiments.ablations import (
    run_ams_overhead,
    run_churn,
    run_fault_tolerance,
    run_gray,
    run_hetero_flooding,
    run_heterogeneous,
    run_loss_recovery,
    run_multi_leaf,
    run_overload,
    run_parity_sweep,
    run_protocol_comparison,
    run_rate_adaptation,
    run_receipt_capacity,
    run_scaling,
)
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11
from repro.experiments.fig12 import run_fig12

_QUICK_HS = [2, 5, 10, 30, 60, 100]


def _fail(message: str) -> int:
    """One-line error on stderr, no traceback; argparse-style exit code."""
    print(f"repro-experiments: error: {message}", file=sys.stderr)
    return 2


def _ensure_parent(path: str) -> Path:
    """Create the parent directory of an ``--out``-style path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _parse_model_spec(text: str):
    """``name`` or ``name:key=val,key=val`` → (name, params).

    Values parse as int, then float, then stay strings.
    """
    name, _, raw = text.partition(":")
    params = {}
    if raw:
        for pair in raw.split(","):
            key, eq, value = pair.partition("=")
            if not eq or not key:
                raise ValueError(
                    f"bad model parameter {pair!r} in {text!r} "
                    "(expected key=value)"
                )
            for cast in (int, float):
                try:
                    value = cast(value)
                    break
                except ValueError:
                    continue
            params[key.strip()] = value
    return name.strip(), params


def _parse_params(text: str) -> dict:
    """``key=val,key=val`` → params dict (int, then float, then str)."""
    params = {}
    for pair in text.split(","):
        key, eq, value = pair.partition("=")
        if not eq or not key.strip():
            raise ValueError(
                f"bad parameter {pair!r} in {text!r} (expected key=value)"
            )
        for cast in (int, float):
            try:
                value = cast(value)
                break
            except ValueError:
                continue
        params[key.strip()] = value
    return params


def _parse_partition(text: str):
    """``P1+P2@AT`` or ``P1+P2@AT:HEAL`` → (groups, at, heal_at).

    ``+`` joins the peers of one isolated component; ``/`` separates
    several components (everyone unlisted stays with the leaf).  ``AT``
    is the split time in ms; an optional ``:HEAL`` heals the partition.
    Example: ``CP3+CP4@500:900``.
    """
    body, at_sep, when = text.partition("@")
    if not at_sep or not body.strip() or not when:
        raise ValueError(
            f"bad partition {text!r} (expected PEERS@AT or PEERS@AT:HEAL, "
            "e.g. CP3+CP4@500:900)"
        )
    groups = tuple(
        tuple(peer.strip() for peer in group.split("+") if peer.strip())
        for group in body.split("/")
    )
    at_raw, colon, heal_raw = when.partition(":")
    try:
        at = float(at_raw)
        heal_at = float(heal_raw) if colon else None
    except ValueError:
        raise ValueError(
            f"bad partition time in {text!r} (expected numbers, "
            "e.g. CP3+CP4@500:900)"
        ) from None
    return groups, at, heal_at


def _jobs_arg(text: str):
    """``--jobs`` value: a positive int, or ``auto`` for core probing."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid jobs value {text!r} (expected a positive integer "
            "or 'auto')"
        ) from None
    if jobs < 1:
        raise argparse.ArgumentTypeError("jobs must be >= 1 (or 'auto')")
    return jobs


def _make_executor(args):
    """``--jobs N`` → a ParallelExecutor; ``--jobs auto`` probes the
    available core count; default (or 1) stays serial."""
    jobs = getattr(args, "jobs", None)
    if jobs == "auto":
        from repro.experiments.parallel import auto_executor

        return auto_executor()
    if jobs and jobs > 1:
        from repro.experiments.parallel import ParallelExecutor

        return ParallelExecutor(jobs=jobs)
    return None


def _figures(args) -> list[tuple[str, object]]:
    kw = {}
    if args.quick:
        kw = {"h_values": _QUICK_HS, "content_packets": 200}
    executor = _make_executor(args)
    ex = {"executor": executor}
    out = []
    if args.experiment in ("fig10", "all"):
        out.append(("Figure 10", run_fig10(seed=args.seed, **kw, **ex)))
    if args.experiment in ("fig11", "all"):
        out.append(("Figure 11", run_fig11(seed=args.seed, **kw, **ex)))
    if args.experiment in ("fig12", "all"):
        out.append(("Figure 12", run_fig12(seed=args.seed, **kw, **ex)))
    if args.experiment in ("ablations", "all"):
        out.append(("EX-A", run_protocol_comparison(seed=args.seed)))
        out.append(("EX-B", run_fault_tolerance(seed=args.seed)))
        out.append(("EX-C", run_loss_recovery(seed=args.seed)))
        out.append(("EX-D", run_parity_sweep(seed=args.seed)))
        out.append(("EX-E", run_scaling(seed=args.seed, **ex)))
        out.append(("EX-F", run_heterogeneous(seed=args.seed)))
        out.append(("EX-G", run_ams_overhead(seed=args.seed)))
        out.append(("EX-H", run_multi_leaf(seed=args.seed)))
        out.append(("EX-I", run_rate_adaptation()))
        out.append(("EX-J", run_receipt_capacity(seed=args.seed)))
        out.append(("EX-K", run_hetero_flooding()))
        churn_kw = {"content_packets": 200} if args.quick else {}
        out.append(("EX-L", run_churn(seed=args.seed, **churn_kw, **ex)))
        gray_kw = {"content_packets": 100} if args.quick else {}
        out.append(("EX-N", run_gray(seed=args.seed, **gray_kw, **ex)))
        overload_kw = (
            {"content_packets": 40, "leaves": 6} if args.quick else {}
        )
        out.append(
            ("EX-O", run_overload(seed=args.seed, **overload_kw, **ex))
        )
    if executor is not None:
        executor.close()
    return out


def _build_session_spec(args, audit=None):
    """Shared spec construction for ``trace``/``audit``; name-validated.

    Returns a :class:`SessionSpec`, or an *int* exit status when a model
    name does not resolve (the caller propagates it).
    """
    from repro.core.base import ProtocolConfig
    from repro.obs import TraceConfig
    from repro.streaming.faults import PartitionPlan
    from repro.streaming.spec import (
        DetectorSpec,
        LatencySpec,
        LinkFaultSpec,
        LossSpec,
        ProtocolSpec,
        SessionSpec,
        available_factories,
    )

    models = {}
    for category, option in (
        ("protocol", args.protocol),
        ("latency", args.latency),
        ("loss", args.loss),
        ("link_fault", args.link_fault),
        ("detector", args.detector),
    ):
        if option is None:
            models[category] = None
            continue
        try:
            name, params = _parse_model_spec(option)
        except ValueError as exc:
            return _fail(str(exc))
        known = available_factories(category)
        if name not in known:
            return _fail(
                f"unknown {category} {name!r} "
                f"(available: {', '.join(known)})"
            )
        models[category] = (name, params)

    retransmit_policy = None
    if args.retransmit is not None:
        from repro.net.overlay import RetransmitPolicy

        try:
            retransmit_policy = RetransmitPolicy(
                **_parse_params(args.retransmit)
            )
        except (TypeError, ValueError) as exc:
            return _fail(f"bad --retransmit {args.retransmit!r}: {exc}")

    partition_plan = None
    if args.partition is not None:
        try:
            groups, at, heal_at = _parse_partition(args.partition)
            partition_plan = PartitionPlan(
                components=groups, at=at, heal_at=heal_at
            )
        except ValueError as exc:
            return _fail(str(exc))

    upload_capacity = None
    if getattr(args, "capacity", None) is not None:
        from repro.net.capacity import CapacityPolicy

        try:
            upload_capacity = CapacityPolicy(**_parse_params(args.capacity))
        except (TypeError, ValueError) as exc:
            return _fail(f"bad --capacity {args.capacity!r}: {exc}")

    config = ProtocolConfig(
        n=args.n,
        H=args.H,
        fault_margin=1,
        seed=args.seed,
        content_packets=100 if args.quick else args.packets,
    )
    detector_spec = None
    if models["detector"]:
        detector_spec = DetectorSpec(*models["detector"])
        try:
            detector_spec.build()  # eager: bad params fail here, not mid-run
        except (TypeError, ValueError) as exc:
            return _fail(f"bad --detector {args.detector!r}: {exc}")

    protocol_name, protocol_params = models["protocol"]
    return SessionSpec(
        config=config,
        protocol=ProtocolSpec(protocol_name, protocol_params),
        latency=LatencySpec(*models["latency"]) if models["latency"] else None,
        loss=LossSpec(*models["loss"]) if models["loss"] else None,
        link_fault=(
            LinkFaultSpec(*models["link_fault"])
            if models["link_fault"]
            else None
        ),
        partition_plan=partition_plan,
        detector_policy=detector_spec,
        retransmit_policy=retransmit_policy,
        upload_capacity=upload_capacity,
        trace=TraceConfig(),
        audit=audit,
    )


def _build_swarm_spec(args, audit=True):
    """``--join-storm`` → a :class:`SwarmSpec`; int exit status on error.

    The swarm owns capacity, tracing, and auditing, so the session
    template is built bare and those concerns move to the swarm level
    (``--capacity`` becomes the shared per-peer budget).
    """
    import dataclasses

    from repro.streaming.faults import JoinStormPlan
    from repro.streaming.swarm import AdmissionPolicy, SwarmSpec

    template = _build_session_spec(args)
    if isinstance(template, int):
        return template
    capacity = template.upload_capacity
    template = dataclasses.replace(
        template, upload_capacity=None, trace=None, audit=None
    )
    try:
        params = (
            _parse_params(args.join_storm) if args.join_storm.strip() else {}
        )
        plan = JoinStormPlan(**params)
    except (TypeError, ValueError) as exc:
        return _fail(f"bad --join-storm {args.join_storm!r}: {exc}")
    try:
        return SwarmSpec(
            session=template,
            join_plan=plan,
            capacity=capacity,
            admission=AdmissionPolicy(),
            audit=audit,
        )
    except (TypeError, ValueError) as exc:
        return _fail(str(exc))


def _run_trace(args) -> int:
    """``trace`` subcommand: one traced session + timeline + exporters."""
    from repro.obs import (
        wave_timeline,
        write_chrome_trace,
        write_jsonl,
        write_run_summary,
    )

    if args.join_storm is not None:
        spec = _build_swarm_spec(args)
        if isinstance(spec, int):
            return spec
        result = spec.run()
        bus = result.trace
        assert bus is not None
        print(result.summary())
        for outcome in result.outcomes:
            print(
                f"  {outcome.leaf_id}: "
                f"{'admitted' if outcome.admitted else 'gave up'} "
                f"after {outcome.attempts} attempt(s), "
                f"receipt={outcome.receipt_rate:.3f}, "
                f"delivery={outcome.delivery_ratio:.3f}"
            )
        print(
            f"trace: {len(bus.events)} events "
            f"({bus.dropped_events} dropped), retries={result.retries}, "
            f"shed={result.shed_data}+{result.shed_parity}p"
        )
        protocol_name, _ = _parse_model_spec(args.protocol)
        trace_out = _ensure_parent(
            args.trace_out or f"trace_swarm_{protocol_name}.json"
        )
        write_chrome_trace(bus, trace_out)
        print(f"wrote Chrome trace-event JSON to {trace_out}", file=sys.stderr)
        if args.jsonl_out:
            write_jsonl(bus, _ensure_parent(args.jsonl_out))
            print(f"wrote JSONL trace to {args.jsonl_out}", file=sys.stderr)
        return 0

    spec = _build_session_spec(args)
    if isinstance(spec, int):
        return spec
    session = spec.build()
    result = session.run()
    bus = result.trace
    assert bus is not None

    timeline = wave_timeline(
        bus,
        title=(
            f"{result.protocol} coordination timeline "
            f"(n={spec.config.n}, H={spec.config.H})"
        ),
    )
    print(timeline.to_markdown())
    print(result.summary())
    print(
        f"trace: {len(bus.events)} events "
        f"({bus.dropped_events} dropped), rounds={result.rounds}, "
        f"sync={result.sync_time}"
    )

    protocol_name, _ = _parse_model_spec(args.protocol)
    trace_out = _ensure_parent(
        args.trace_out or f"trace_{protocol_name}.json"
    )
    write_chrome_trace(bus, trace_out)
    print(
        f"wrote Chrome trace-event JSON to {trace_out} "
        "(open in chrome://tracing or https://ui.perfetto.dev)",
        file=sys.stderr,
    )
    if args.jsonl_out:
        write_jsonl(bus, _ensure_parent(args.jsonl_out))
        print(f"wrote JSONL trace to {args.jsonl_out}", file=sys.stderr)
    if args.summary_out:
        write_run_summary(result, _ensure_parent(args.summary_out))
        print(f"wrote run summary to {args.summary_out}", file=sys.stderr)
    return 0


def _run_audit(args) -> int:
    """``audit`` subcommand: auditors over a fresh run or a JSONL trace."""
    from repro.obs.audit import AuditConfig, replay_jsonl

    try:
        audit_config = AuditConfig(
            auditors=tuple(args.auditors.split(","))
            if args.auditors
            else AuditConfig().auditors
        )
    except ValueError as exc:
        return _fail(str(exc))

    if args.from_jsonl:
        source = Path(args.from_jsonl)
        if not source.exists():
            return _fail(f"trace file not found: {source}")
        report = replay_jsonl(source, config=audit_config)
    elif args.join_storm is not None:
        # swarm runs default to the capacity auditor unless --auditors
        # names an explicit set
        spec = _build_swarm_spec(
            args, audit=audit_config if args.auditors else True
        )
        if isinstance(spec, int):
            return spec
        result = spec.run()
        report = result.audit
        assert report is not None and not isinstance(report, dict)
        print(result.summary())
    else:
        spec = _build_session_spec(args, audit=audit_config)
        if isinstance(spec, int):
            return spec
        result = spec.run()
        report = result.audit
        assert report is not None and not isinstance(report, dict)
        print(result.summary())

    print(report.summary())
    for violation in report.violations():
        print(f"  {violation.auditor}/{violation.code}: {violation.message}")
        for line in violation.evidence:
            print(f"    {line}")
    if args.report_out:
        report.write(_ensure_parent(args.report_out))
        print(f"wrote audit report to {args.report_out}", file=sys.stderr)
    return 0 if report.passed else 1


def _run_perf(args) -> int:
    """``perf`` subcommand: one profiled session + profile exporters."""
    import dataclasses

    from repro.obs import write_chrome_trace, write_collapsed
    from repro.obs.prof import ProfileConfig

    if args.join_storm is not None:
        return _fail("--join-storm is only supported by 'trace' and 'audit'")
    spec = _build_session_spec(args)
    if isinstance(spec, int):
        return spec
    # profile the configuration a user runs: untraced, unless the Chrome
    # export below needs the run's trace bus
    spec = dataclasses.replace(
        spec,
        profile=ProfileConfig(),
        trace=spec.trace if args.trace_out else None,
    )
    result = spec.run()
    profile = result.profile
    assert profile is not None and not isinstance(profile, dict)

    print(result.summary())
    print(profile.summary(top=args.top))

    protocol_name, _ = _parse_model_spec(args.protocol)
    profile_out = _ensure_parent(
        args.profile_out or f"profile_{protocol_name}.json"
    )
    profile.write(profile_out)
    print(f"wrote profile report to {profile_out}", file=sys.stderr)
    if args.collapsed_out:
        write_collapsed(profile, _ensure_parent(args.collapsed_out))
        print(
            f"wrote collapsed stacks to {args.collapsed_out} "
            "(feed to flamegraph.pl / speedscope)",
            file=sys.stderr,
        )
    if args.trace_out:
        assert result.trace is not None
        write_chrome_trace(
            result.trace, _ensure_parent(args.trace_out), profile=profile
        )
        print(
            f"wrote Chrome trace-event JSON (+ counter tracks) to "
            f"{args.trace_out}",
            file=sys.stderr,
        )
    return 0


def _run_spans(args) -> int:
    """``spans`` subcommand: causal spans + critical-path attribution."""
    import dataclasses

    from repro.obs import write_chrome_trace
    from repro.obs.spans import SpanConfig, spans_from_jsonl

    if args.from_jsonl:
        source = Path(args.from_jsonl)
        if not source.exists():
            return _fail(f"trace file not found: {source}")
        report = spans_from_jsonl(source, config=SpanConfig())
        bus = None
    else:
        if args.join_storm is not None:
            return _fail(
                "--join-storm is only supported by 'trace' and 'audit'"
            )
        spec = _build_session_spec(args)
        if isinstance(spec, int):
            return spec
        # playback on, so journeys extend through buffer consumption
        spec = dataclasses.replace(spec, playback=True, spans=SpanConfig())
        result = spec.run()
        report = result.spans
        assert report is not None and not isinstance(report, dict)
        bus = result.trace
        print(result.summary())

    print(report.summary(top=args.top))
    if args.critical_path:
        print(report.render_critical_path())
    if args.report_out:
        report.write(_ensure_parent(args.report_out))
        print(f"wrote span report to {args.report_out}", file=sys.stderr)
    if args.trace_out and bus is not None:
        write_chrome_trace(bus, _ensure_parent(args.trace_out), spans=report)
        print(
            f"wrote Chrome trace-event JSON (+ span tracks) to "
            f"{args.trace_out}",
            file=sys.stderr,
        )
    return 0


def _run_regress(args) -> int:
    """``regress`` subcommand: diff fresh artifacts against a baseline."""
    from repro.experiments.regress import compare_dirs, parse_scalar_gate

    if args.fresh is None:
        return _fail("regress needs --fresh DIR (the artifacts to gate)")
    baseline = Path(args.baseline)
    fresh = Path(args.fresh)
    for label, directory in (("baseline", baseline), ("fresh", fresh)):
        if not directory.is_dir():
            return _fail(f"{label} directory not found: {directory}")
    gate_scalars = {}
    for text in args.gate_scalar or ():
        try:
            key, gate = parse_scalar_gate(text)
        except ValueError as exc:
            return _fail(str(exc))
        gate_scalars[key] = gate
    report = compare_dirs(
        baseline,
        fresh,
        wall_tolerance=args.wall_tolerance,
        gate_scalars=gate_scalars or None,
    )
    print(report.render())
    if args.report_out:
        _ensure_parent(args.report_out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True)
        )
        print(f"wrote regress report to {args.report_out}", file=sys.stderr)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation figures of Itaya et al., "
            "'Distributed Coordination Protocols to Realize Scalable "
            "Multimedia Streaming in P2P Overlay Networks' (ICPP 2006)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[
            "fig10", "fig11", "fig12", "ablations", "all",
            "trace", "audit", "perf", "spans", "regress",
        ],
        help=(
            "which figure/ablation to run, 'trace' for one traced run, "
            "'audit' to run the protocol auditors, 'perf' for one "
            "profiled run, 'spans' for causal spans + latency "
            "attribution, 'regress' to diff artifact directories"
        ),
    )
    parser.add_argument(
        "--quick", action="store_true", help="coarser H grid, shorter content"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        metavar="N",
        help=(
            "fan sweep runs out over N worker processes, or 'auto' to "
            "pick serial vs parallel from the measured core count "
            "(results are identical to serial; default 1)"
        ),
    )
    parser.add_argument(
        "--csv", action="store_true", help="emit CSV instead of tables"
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="also save all artifacts as one JSON document",
    )
    trace_group = parser.add_argument_group(
        "trace/audit", "options for the 'trace' and 'audit' subcommands"
    )
    trace_group.add_argument(
        "--protocol",
        default="tcop",
        metavar="NAME[:k=v,...]",
        help=(
            "registered protocol to run (see repro.streaming."
            "available_factories('protocol')); default tcop"
        ),
    )
    trace_group.add_argument(
        "--latency",
        metavar="NAME[:k=v,...]",
        help="registered latency model, e.g. constant:delay=10",
    )
    trace_group.add_argument(
        "--loss",
        metavar="NAME[:k=v,...]",
        help="registered loss model, e.g. bernoulli:p=0.01",
    )
    trace_group.add_argument(
        "--link-fault",
        metavar="NAME[:k=v,...]",
        help=(
            "registered link fault applied to every channel, e.g. "
            "chaos:dup_p=0.1,reorder_p=0.2,max_delay=20"
        ),
    )
    trace_group.add_argument(
        "--detector",
        metavar="NAME[:k=v,...]",
        help=(
            "registered failure-detector policy, e.g. "
            "accrual:phi_suspect=1.5,window=16 or fixed:suspect_after=2"
        ),
    )
    trace_group.add_argument(
        "--retransmit",
        metavar="k=v,...",
        help=(
            "reliable control-plane retransmit policy fields, e.g. "
            "adaptive=1,max_retries=6,jitter=0.5"
        ),
    )
    trace_group.add_argument(
        "--partition",
        metavar="PEERS@AT[:HEAL]",
        help=(
            "partition the listed peers away from the leaf at time AT ms "
            "(+ joins peers of one component, / separates components, "
            ":HEAL heals), e.g. CP3+CP4@500:900"
        ),
    )
    trace_group.add_argument(
        "--capacity",
        metavar="k=v,...",
        help=(
            "finite per-peer upload budget fields, e.g. "
            "packets_per_delta=6,queue_limit=32 (alone: caps the single "
            "session's uplinks; with --join-storm: the swarm's shared "
            "pool)"
        ),
    )
    trace_group.add_argument(
        "--join-storm",
        nargs="?",
        const="",
        metavar="k=v,...",
        help=(
            "run a multi-leaf swarm with admission control instead of a "
            "single session ('trace'/'audit' only); fields of "
            "JoinStormPlan, e.g. leaves=8,rate_per_delta=0.5,mode=flash "
            "(bare flag: defaults)"
        ),
    )
    trace_group.add_argument("--n", type=int, default=24, help="contents peers")
    trace_group.add_argument("--H", type=int, default=6, help="fan-out")
    trace_group.add_argument(
        "--packets", type=int, default=200, help="content length"
    )
    trace_group.add_argument(
        "--trace-out",
        metavar="PATH",
        help="Chrome trace-event output (default trace_<protocol>.json)",
    )
    trace_group.add_argument(
        "--jsonl-out", metavar="PATH", help="also dump the raw JSONL trace"
    )
    trace_group.add_argument(
        "--summary-out", metavar="PATH", help="also dump a run-summary JSON"
    )
    audit_group = parser.add_argument_group(
        "audit", "options for the 'audit' subcommand"
    )
    audit_group.add_argument(
        "--from-jsonl",
        metavar="PATH",
        help="audit a recorded JSONL trace instead of running a session",
    )
    audit_group.add_argument(
        "--auditors",
        metavar="NAMES",
        help="comma-separated auditor names (default: all registered)",
    )
    audit_group.add_argument(
        "--report-out",
        metavar="PATH",
        help="write the audit/regress report as JSON",
    )
    perf_group = parser.add_argument_group(
        "perf", "options for the 'perf' subcommand"
    )
    perf_group.add_argument(
        "--profile-out",
        metavar="PATH",
        help="profile-report JSON output (default profile_<protocol>.json)",
    )
    perf_group.add_argument(
        "--collapsed-out",
        metavar="PATH",
        help="also dump collapsed stacks for flamegraph tooling",
    )
    perf_group.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="hottest callback sites to list in the summary (default 10)",
    )
    spans_group = parser.add_argument_group(
        "spans", "options for the 'spans' subcommand"
    )
    spans_group.add_argument(
        "--critical-path",
        action="store_true",
        help="print the coordination and playback critical-path segments",
    )
    regress_group = parser.add_argument_group(
        "regress", "options for the 'regress' subcommand"
    )
    regress_group.add_argument(
        "--baseline",
        metavar="DIR",
        default="bench_artifacts",
        help="baseline artifact directory (default bench_artifacts)",
    )
    regress_group.add_argument(
        "--fresh", metavar="DIR", help="fresh artifact directory to gate"
    )
    regress_group.add_argument(
        "--wall-tolerance",
        type=float,
        default=0.5,
        metavar="FRAC",
        help=(
            "relative wall-time slack before a slowdown regresses "
            "(default 0.5 = +50%%)"
        ),
    )
    regress_group.add_argument(
        "--gate-scalar",
        action="append",
        metavar="KEY:TOL%[:min|max]",
        help=(
            "hard-gate a (perf) scalar with a relative tolerance; 'min' "
            "(default) fails a drop below baseline*(1-TOL), 'max' fails "
            "a rise above baseline*(1+TOL); repeatable, e.g. "
            "events_per_wall_s_n100_p400:25%%"
        ),
    )
    args = parser.parse_args(argv)

    if args.experiment == "trace":
        return _run_trace(args)
    if args.experiment == "audit":
        return _run_audit(args)
    if args.experiment == "perf":
        return _run_perf(args)
    if args.experiment == "spans":
        return _run_spans(args)
    if args.experiment == "regress":
        return _run_regress(args)

    start = time.time()
    artifacts = {}
    for name, artifact in _figures(args):
        artifacts[name] = artifact
        table = artifact if hasattr(artifact, "render") else None
        if hasattr(artifact, "to_table"):
            table = artifact.to_table()
        print(f"== {name} ==")
        print(table.to_csv() if args.csv else table.render())
    if args.out:
        from repro.metrics.io import save_artifacts

        save_artifacts(artifacts, _ensure_parent(args.out))
        print(
            f"saved {len(artifacts)} artifacts to {args.out}", file=sys.stderr
        )
    print(f"done in {time.time() - start:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
