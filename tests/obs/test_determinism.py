"""Satellite: equal-seed runs emit byte-identical traces.

The trace pipeline keeps every payload a JSON primitive and serializes
with sorted keys, so two sessions built from the same ``ProtocolConfig``
(hence the same ``RandomStreams`` seed) must produce byte-for-byte equal
JSONL dumps — including under control loss, crashes, and churn, whose
randomness all comes off named seeded streams.
"""

import json

import pytest

from repro.core import DCoP, ProtocolConfig, TCoP
from repro.net.loss import BernoulliLoss
from repro.net.overlay import RetransmitPolicy
from repro.obs import TraceConfig, trace_to_chrome, trace_to_jsonl
from repro.streaming import (
    ChurnPlan,
    DetectorPolicy,
    FaultPlan,
    SessionSpec,
)


def build_plain(proto, seed):
    config = ProtocolConfig(
        n=14, H=5, fault_margin=1, content_packets=120, seed=seed
    )
    return SessionSpec(config, proto(), trace=TraceConfig()).build()


def build_chaotic(proto, seed):
    """Chaos-matrix shape: control loss + a scripted crash + churn."""
    config = ProtocolConfig(
        n=10, H=4, fault_margin=1, tau=1.0, delta=8.0,
        content_packets=150, seed=seed,
    )
    probe = SessionSpec(config, proto()).build()
    victim = probe.leaf_select(config.H)[0]
    plan = FaultPlan()
    plan.crash(victim, 60.0)
    return SessionSpec(
        config,
        proto(),
        control_loss=lambda: BernoulliLoss(0.05),
        fault_plan=plan,
        retransmit_policy=RetransmitPolicy(),
        detector_policy=DetectorPolicy(),
        churn_plan=ChurnPlan(
            rate_per_delta=0.03, min_live=6, mean_downtime_deltas=6.0
        ),
        trace=TraceConfig(),
    ).build()


@pytest.mark.parametrize("proto", [DCoP, TCoP], ids=["dcop", "tcop"])
def test_equal_seed_runs_are_byte_identical(proto):
    a = build_plain(proto, seed=11).run()
    b = build_plain(proto, seed=11).run()
    assert trace_to_jsonl(a.trace) == trace_to_jsonl(b.trace)
    # the derived chrome document is equal too
    assert json.dumps(trace_to_chrome(a.trace), sort_keys=True) == json.dumps(
        trace_to_chrome(b.trace), sort_keys=True
    )
    # and the sampled time series
    assert a.timeseries.x == b.timeseries.x
    assert a.timeseries.columns == b.timeseries.columns


def test_different_seeds_diverge():
    a = build_plain(DCoP, seed=11).run()
    b = build_plain(DCoP, seed=12).run()
    assert trace_to_jsonl(a.trace) != trace_to_jsonl(b.trace)


@pytest.mark.parametrize("proto", [DCoP, TCoP], ids=["dcop", "tcop"])
def test_chaos_matrix_runs_are_byte_identical(proto):
    """Churn + loss + crashes draw only from named seeded streams."""
    a = build_chaotic(proto, seed=13).run()
    b = build_chaotic(proto, seed=13).run()
    dump_a, dump_b = trace_to_jsonl(a.trace), trace_to_jsonl(b.trace)
    assert dump_a == dump_b
    # the chaos actually happened (otherwise this test proves nothing)
    kinds = a.trace.counts_by_kind
    assert kinds.get("peer.crash", 0) >= 1
    assert kinds.get("msg.drop", 0) >= 1
    assert kinds.get("msg.retransmit", 0) >= 1
