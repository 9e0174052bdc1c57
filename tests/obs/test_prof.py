"""The instrumenting profiler: attribution, telemetry, zero perturbation.

The pinned guarantee is the last one: a profiled run follows a
byte-identical trajectory to an unprofiled run of the same seed — the
profiler only ever *observes* dispatch, so traces, receipt figures, and
audit verdicts must all agree exactly.
"""

import gc
import json
import pickle

import pytest

from repro.core.base import ProtocolConfig
from repro.obs import TraceConfig, trace_to_jsonl
from repro.obs.audit import AuditConfig
from repro.obs.prof import (
    ProfileConfig,
    ProfileReport,
    SUBSYSTEMS,
    subsystem_of_module,
)
from repro.streaming.spec import ProtocolSpec, SessionSpec

PROTOCOLS = ["dcop", "tcop", "broadcast"]


def build_spec(protocol, *, profile=None, audit=None, seed=7):
    config = ProtocolConfig(
        n=14, H=5, fault_margin=1, content_packets=120, seed=seed
    )
    return SessionSpec(
        config=config,
        protocol=ProtocolSpec(protocol, {}),
        trace=TraceConfig(),
        audit=audit,
        profile=profile,
    )


@pytest.fixture(scope="module")
def profiled_result():
    return build_spec("tcop", profile=ProfileConfig()).run()


# ----------------------------------------------------------------------
# the zero-perturbation guarantee
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_profiled_run_is_byte_identical_to_unprofiled(protocol):
    plain = build_spec(protocol, audit=AuditConfig()).run()
    hooks = list(gc.callbacks)
    threshold = gc.get_threshold()
    # collect often, so the profiler's GC hook fires inside the run
    gc.set_threshold(50, 2, 2)
    try:
        profiled = build_spec(
            protocol, audit=AuditConfig(), profile=ProfileConfig()
        ).run()
    finally:
        gc.set_threshold(*threshold)
    # the GC hook is installed only while the profiled run lasts
    assert gc.callbacks == hooks
    assert profiled.profile.resources["gc_collections_gen0"] > 0

    # trajectories: byte-for-byte equal JSONL traces
    assert trace_to_jsonl(plain.trace) == trace_to_jsonl(profiled.trace)
    # receipt figures: the summary line carries rounds, control traffic,
    # rate, and delivery — all must agree exactly
    assert plain.summary() == profiled.summary()
    assert plain.receipt_rate == profiled.receipt_rate
    assert plain.delivery_ratio == profiled.delivery_ratio
    # audit verdicts agree auditor by auditor
    assert plain.audit.to_dict() == profiled.audit.to_dict()
    # and the profiler actually ran
    assert profiled.profile is not None
    assert profiled.profile.events_processed > 0


def test_equal_seed_profiles_have_equal_trajectory_counters():
    """Wall times are machine noise; trajectory counters are not."""
    a = build_spec("dcop", profile=ProfileConfig()).run().profile
    b = build_spec("dcop", profile=ProfileConfig()).run().profile
    assert a.events_processed == b.events_processed
    assert a.events_scheduled == b.events_scheduled
    assert a.cancelled_events == b.cancelled_events
    assert a.heap_peak == b.heap_peak
    assert a.callback_calls == b.callback_calls
    assert {k: v["count"] for k, v in a.event_kinds.items()} == {
        k: v["count"] for k, v in b.event_kinds.items()
    }
    # deterministic sampling: identical counter-sample positions
    assert a.counters["ts_ms"] == b.counters["ts_ms"]
    assert a.counters["heap_depth"] == b.counters["heap_depth"]
    assert a.counters["events_processed"] == b.counters["events_processed"]


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def test_fig10_style_run_attributes_dispatch_time(profiled_result):
    """The acceptance bar: ≥95% of dispatch wall lands in named buckets."""
    config = ProtocolConfig(
        n=100, H=60, fault_margin=1, content_packets=200, seed=0
    )
    spec = SessionSpec(
        config=config,
        protocol=ProtocolSpec("dcop", {}),
        trace=TraceConfig(),
        profile=ProfileConfig(),
    )
    profile = spec.run().profile
    assert profile.attributed_share >= 0.95
    # every bucket the ledger names is a known subsystem
    assert set(profile.subsystems) <= set(SUBSYSTEMS)
    # the staples of a coordination run all show up (DCoP's protocol
    # logic runs inline in the agent loops, so "protocol" appears only
    # for generator-looped protocols like TCoP — see the sites test)
    for name in ("overlay", "agents", "tracing", "engine"):
        assert name in profile.subsystems
    # shares are a probability-style breakdown of dispatch wall
    total = sum(e["share"] for e in profile.subsystems.values())
    assert total == pytest.approx(1.0, abs=0.02)


def test_timer_payloads_are_credited_to_their_site():
    """A Timer's callback is a shared trampoline; the profiler credits
    its payload, so a channel delivery lands in ``overlay``."""
    from repro.net.overlay import Overlay
    from repro.obs.prof import SimProfiler
    from repro.sim import Environment

    env = Environment()
    profiler = SimProfiler()
    env.hooks.profiler = profiler
    overlay = Overlay(env)
    overlay.add_node("a")
    overlay.add_node("b")
    overlay.send("a", "b", "control")

    def payload():
        pass

    env.call_later(1.0, payload)
    profiler.start()
    env.run()
    profiler.stop()
    sites = {(e["subsystem"], e["site"]) for e in profiler.report().sites}
    assert ("overlay", "_deliver") in sites
    assert ("other", payload.__qualname__) in sites
    assert not any("fire_timer" in site for _sub, site in sites)


def test_gc_pauses_are_reported_and_the_hook_removed():
    from repro.obs.prof import SimProfiler

    profiler = SimProfiler()
    hooks = list(gc.callbacks)
    profiler.start()
    assert len(gc.callbacks) == len(hooks) + 1
    gc.collect()
    profiler.stop()
    assert gc.callbacks == hooks
    gc.collect()  # outside the window: not counted
    resources = profiler.report().resources
    assert resources["gc_collections_gen2"] == 1
    assert resources["gc_s"] > 0
    assert resources["gc_s"] <= profiler.wall_s
    assert "gc:" in profiler.report().summary()


def test_sites_are_sorted_and_subsystem_tagged(profiled_result):
    profile = profiled_result.profile
    walls = [site["wall_s"] for site in profile.sites]
    assert walls == sorted(walls, reverse=True)
    assert all(site["subsystem"] in SUBSYSTEMS for site in profile.sites)
    sites = {site["site"] for site in profile.sites}
    # tracing's own cost is carved out of the emitting callbacks
    assert "TraceBus.emit" in sites
    tracing = profile.subsystems["tracing"]
    assert tracing["wall_s"] > 0
    # TCoP's selection loop is a generator: its resume callbacks must
    # attribute to the protocol, not to the engine's Process plumbing
    assert "TCoP._selection_loop" in sites
    assert profile.subsystems["protocol"]["wall_s"] > 0


def test_subsystem_of_module_mapping():
    assert subsystem_of_module("repro.sim.engine") == "engine"
    assert subsystem_of_module("repro.net.overlay") == "overlay"
    assert subsystem_of_module("repro.core.tcop") == "protocol"
    assert subsystem_of_module("repro.streaming.session") == "agents"
    assert subsystem_of_module("repro.fec.rs") == "fec"
    assert subsystem_of_module("repro.obs.trace") == "tracing"
    assert subsystem_of_module("somewhere.else") == "other"


# ----------------------------------------------------------------------
# scheduler + resource telemetry
# ----------------------------------------------------------------------
def test_scheduler_telemetry(profiled_result):
    profile = profiled_result.profile
    assert profile.events_scheduled >= profile.events_processed
    assert profile.heap_peak > 0
    # TCoP's interrupt-heavy handshake leaves cancelled-event waste
    assert profile.cancelled_events > 0
    assert profile.events_per_sim_ms > 0
    assert profile.events_per_wall_s > 0


def test_resource_telemetry(profiled_result):
    resources = profiled_result.profile.resources
    assert resources["peak_rss_kb"] > 0
    assert resources["messages_sent"] > 0
    assert resources["trace_events"] == len(profiled_result.trace.events)
    assert resources["trace_events_dropped"] == 0


def test_tracemalloc_option():
    profile = build_spec(
        "dcop", profile=ProfileConfig(trace_malloc=True)
    ).run().profile
    assert profile.resources["tracemalloc_peak_kb"] > 0


def test_counter_samples_are_bounded_and_monotonic(profiled_result):
    counters = profiled_result.profile.counters
    config = ProfileConfig()
    assert 0 < len(counters["ts_ms"]) <= config.max_samples
    assert counters["ts_ms"] == sorted(counters["ts_ms"])
    assert counters["events_processed"] == sorted(
        counters["events_processed"]
    )
    assert len(counters["heap_depth"]) == len(counters["ts_ms"])


# ----------------------------------------------------------------------
# report round-trips and exports
# ----------------------------------------------------------------------
def test_report_json_round_trip(profiled_result, tmp_path):
    profile = profiled_result.profile
    clone = ProfileReport.from_dict(profile.to_dict())
    assert clone.to_dict() == profile.to_dict()
    path = tmp_path / "profile.json"
    profile.write(path)
    assert ProfileReport.read(path).to_dict() == profile.to_dict()
    # strict JSON: no NaN/Infinity/objects sneak in
    json.loads(json.dumps(profile.to_dict(), allow_nan=False))


def test_detach_converts_profile_to_dict(profiled_result):
    detached = profiled_result.detach()
    assert isinstance(detached.profile, dict)
    assert detached.profile["type"] == "profile_report"
    assert pickle.loads(pickle.dumps(detached)).profile == detached.profile


def test_collapsed_stack_format(profiled_result):
    text = profiled_result.profile.to_collapsed()
    lines = text.splitlines()
    assert lines
    accounted = 0
    for line in lines:
        stack, _, micros = line.rpartition(" ")
        frames = stack.split(";")
        assert frames[0] == "repro"
        assert len(frames) == 3
        assert frames[1] in SUBSYSTEMS
        accounted += int(micros)
    # the collapsed view accounts for the full dispatch wall (±rounding)
    dispatch_us = profiled_result.profile.dispatch_wall_s * 1e6
    assert accounted == pytest.approx(dispatch_us, abs=len(lines) + 1)


# ----------------------------------------------------------------------
# config and spec plumbing
# ----------------------------------------------------------------------
def test_profile_config_validation():
    with pytest.raises(ValueError):
        ProfileConfig(sample_every=0)
    with pytest.raises(ValueError):
        ProfileConfig(max_samples=0)


def test_profile_true_means_defaults():
    result = build_spec("dcop", profile=True).run()
    assert result.profile is not None
    assert result.profile.events_processed > 0


def test_profile_spec_pickles():
    spec = build_spec("dcop", profile=ProfileConfig(sample_every=64))
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.profile.sample_every == 64


def test_unprofiled_session_has_no_profiler_hot_path():
    result = build_spec("dcop").run()
    assert result.profile is None
