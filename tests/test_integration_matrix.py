"""Integration matrix: every protocol × channel condition × fault regime.

A coarse-grained safety net over the whole stack: each cell must run to
quiescence, keep its invariants, and hit the delivery level its
configuration entitles it to.
"""

import pytest

from repro.core import (
    AMSCoordination,
    BroadcastCoordination,
    CentralizedCoordination,
    DCoP,
    ProtocolConfig,
    ScheduleBasedCoordination,
    SingleSourceStreaming,
    TCoP,
    UnicastChainCoordination,
)
from repro.net.loss import BernoulliLoss
from repro.streaming import FaultPlan, SessionSpec

PROTOCOLS = [
    ("dcop", DCoP, 1),
    ("tcop", TCoP, 1),
    ("broadcast", BroadcastCoordination, 1),
    ("chain", UnicastChainCoordination, 0),
    ("centralized", CentralizedCoordination, 1),
    ("schedule", ScheduleBasedCoordination, 1),
    ("single", SingleSourceStreaming, 0),
    ("ams", AMSCoordination, 0),
]


def build(protocol_cls, margin, loss=None, crash=None):
    cfg = ProtocolConfig(
        n=10, H=4, fault_margin=margin, tau=1.0, delta=8.0,
        content_packets=150, seed=6,
    )
    session = SessionSpec(
        cfg,
        protocol_cls(),
        loss=(lambda: BernoulliLoss(loss)) if loss else None,
        fault_plan=FaultPlan().crash(crash, 60.0) if crash else None,
    ).build()
    return session


@pytest.mark.parametrize("name,cls,margin", PROTOCOLS)
def test_lossless_no_faults(name, cls, margin):
    session = build(cls, margin)
    r = session.run()
    assert r.all_active, name
    assert r.delivery_ratio == 1.0, name
    assert r.elapsed > 0
    # quiescence: nothing left scheduled
    assert len(session.env) == 0


@pytest.mark.parametrize("name,cls,margin", PROTOCOLS)
def test_mild_loss_still_terminates(name, cls, margin):
    session = build(cls, margin, loss=0.02)
    r = session.run()
    assert r.delivery_ratio > 0.9, name
    assert len(session.env) == 0


@pytest.mark.parametrize(
    "name,cls,margin",
    [p for p in PROTOCOLS if p[0] not in ("single", "schedule")],
)
def test_one_crash_still_terminates_and_mostly_delivers(name, cls, margin):
    """Crash a mid-roster peer: flooding/group protocols route around it
    or recover via parity; the run must still drain."""
    session = build(cls, margin, crash="CP5")
    r = session.run()
    assert r.delivery_ratio > 0.85, name
    assert len(session.env) == 0


@pytest.mark.parametrize("name,cls,margin", PROTOCOLS)
def test_result_fields_consistent(name, cls, margin):
    r = build(cls, margin).run()
    assert r.control_packets_at_sync <= r.control_packets_total
    assert r.protocol == cls().name or r.protocol  # name populated
    assert sum(r.messages_by_kind.values()) >= r.control_packets_total
    if r.completed_at is not None:
        assert r.completed_at <= r.elapsed
