"""Tests for the AMS baseline: state exchange, takeover, traffic."""

import pytest

from repro.core import AMSCoordination, DCoP, ProtocolConfig
from repro.streaming import FaultPlan, SessionSpec


def config(**kw):
    defaults = dict(
        n=12, H=3, fault_margin=0, tau=1.0, delta=10.0,
        content_packets=300, seed=1,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def test_validation():
    with pytest.raises(ValueError):
        AMSCoordination(state_period_deltas=0)
    with pytest.raises(ValueError):
        AMSCoordination(takeover_after_periods=0)


def test_all_peers_active_in_one_round():
    r = SessionSpec(config(), AMSCoordination()).run()
    assert r.all_active
    assert r.rounds == 1  # leaf contacts everyone directly


def test_disjoint_shares_cover_content():
    r = SessionSpec(config(), AMSCoordination()).run()
    assert r.delivery_ratio == 1.0
    assert r.receipt_rate == pytest.approx(1.0)  # margin 0: no parity


def test_quadratic_state_traffic():
    """Every peer gossips to every other peer each period: cbcast traffic
    ≈ n(n-1) × (#periods) ≫ DCoP's total."""
    n = 12
    cfg = config(n=n)
    ams = SessionSpec(cfg, AMSCoordination()).run()
    dcop = SessionSpec(config(n=n), DCoP()).run()
    cbcast = ams.messages_by_kind["cbcast"]
    periods = cbcast / (n * (n - 1))
    assert periods >= 3  # several exchange rounds over the stream's life
    assert cbcast > 3 * dcop.control_packets_total


def test_state_exchange_terminates():
    """The simulation drains: state loops stop once the group resolves."""
    session = SessionSpec(config(), AMSCoordination()).build()
    r = session.run()
    # quiescence well before the deadline backstop (3×duration + 40δ)
    assert r.elapsed < 3 * 300 + 400


def test_takeover_recovers_crash_without_parity():
    cfg = config()
    session = SessionSpec(
        cfg, AMSCoordination(), fault_plan=FaultPlan().crash("CP3", 100.0)
    ).build()
    r = session.run()
    assert r.delivery_ratio == 1.0
    # the adopted share re-sends a few packets the victim managed to send
    # after its last state report
    assert r.completed_at is not None


def test_takeover_is_single_successor():
    """Exactly one live peer adopts a victim's share (ring rule)."""
    cfg = config()
    session = SessionSpec(
        cfg, AMSCoordination(), fault_plan=FaultPlan().crash("CP5", 100.0)
    ).build()
    session.run()
    adopters = [
        pid
        for pid, agent in session.peers.items()
        if "CP5" in agent.scratch.get("adopted", set())
    ]
    assert len(adopters) == 1


def test_no_parity_dcop_loses_what_ams_recovers():
    """Same crash, same margin 0: AMS's state exchange recovers, plain
    DCoP does not."""
    cfg = config()
    victim = "CP3"
    ams = SessionSpec(
        cfg, AMSCoordination(), fault_plan=FaultPlan().crash(victim, 100.0)
    ).run()
    dcop = SessionSpec(
        config(), DCoP(), fault_plan=FaultPlan().crash(victim, 100.0)
    ).run()
    assert ams.delivery_ratio == 1.0
    assert dcop.delivery_ratio <= ams.delivery_ratio


def test_multiple_crashes_recovered():
    cfg = config(n=10, content_packets=400)
    plan = FaultPlan().crash("CP2", 80.0).crash("CP7", 160.0)
    r = SessionSpec(cfg, AMSCoordination(), fault_plan=plan).run()
    assert r.delivery_ratio == 1.0


def test_deterministic_given_seed():
    a = SessionSpec(config(), AMSCoordination()).run()
    b = SessionSpec(config(), AMSCoordination()).run()
    assert a.messages_by_kind == b.messages_by_kind
    assert a.completed_at == b.completed_at
