"""Tests for the baseline coordination protocols (§3.1 + related work)."""

import pytest

from repro.core import (
    BroadcastCoordination,
    CentralizedCoordination,
    ProtocolConfig,
    ScheduleBasedCoordination,
    SingleSourceStreaming,
    UnicastChainCoordination,
)
from repro.streaming import SessionSpec


def run(protocol_cls, n=10, H=4, fault_margin=1, **kw):
    defaults = dict(tau=1.0, delta=10.0, content_packets=250, seed=3)
    defaults.update(kw)
    cfg = ProtocolConfig(n=n, H=H, fault_margin=fault_margin, **defaults)
    return SessionSpec(cfg, protocol_cls()).run()


class TestBroadcast:
    def test_single_round(self):
        r = run(BroadcastCoordination)
        assert r.rounds == 1

    def test_quadratic_control_traffic(self):
        n = 8
        r = run(BroadcastCoordination, n=n)
        # n requests + n(n-1) state exchanges
        assert r.control_packets_total == n + n * (n - 1)

    def test_high_initial_redundancy(self):
        """Before the reschedule the leaf hears every packet n times."""
        r = run(BroadcastCoordination, n=6, content_packets=150)
        assert r.receipt_rate > 1.5
        assert r.delivery_ratio == 1.0

    def test_reschedule_reduces_redundancy(self):
        """With a long content the post-reschedule regime dominates, so the
        receipt rate is far below n."""
        n = 6
        r = run(BroadcastCoordination, n=n, content_packets=800)
        assert r.receipt_rate < n / 2


class TestUnicastChain:
    def test_n_rounds(self):
        n = 12
        r = run(UnicastChainCoordination, n=n, fault_margin=0)
        assert r.rounds == n

    def test_n_control_packets(self):
        n = 12
        r = run(UnicastChainCoordination, n=n, fault_margin=0)
        # 1 request + (n-1) handoffs
        assert r.control_packets_total == n

    def test_minimal_redundancy(self):
        r = run(UnicastChainCoordination, n=8, fault_margin=0)
        assert r.receipt_rate == pytest.approx(1.0)
        assert r.delivery_ratio == 1.0


class TestCentralized:
    def test_round_count(self):
        """request → prepare → ready → start: all peers active at round 4
        (the controller itself at round 3)."""
        r = run(CentralizedCoordination, n=10)
        assert r.rounds == 4

    def test_linear_traffic(self):
        n = 10
        r = run(CentralizedCoordination, n=n)
        # 1 request + (n-1) prepare + (n-1) ready + (n-1) start
        assert r.control_packets_total == 1 + 3 * (n - 1)

    def test_complete_delivery(self):
        r = run(CentralizedCoordination, n=10)
        assert r.delivery_ratio == 1.0

    def test_single_peer_degenerate(self):
        r = run(CentralizedCoordination, n=1, H=1)
        assert r.all_active
        assert r.delivery_ratio == 1.0


class TestScheduleBased:
    def test_single_round_h_packets(self):
        r = run(ScheduleBasedCoordination, n=10, H=4)
        assert r.rounds == 1
        assert r.control_packets_total == 4

    def test_only_h_peers_active(self):
        cfg = ProtocolConfig(
            n=10, H=4, fault_margin=1, delta=10.0, content_packets=250, seed=3
        )
        session = SessionSpec(cfg, ScheduleBasedCoordination()).build()
        r = session.run()
        assert r.all_active
        assert len(r.activation_times) == 4

    def test_receipt_rate_is_exact_formula(self):
        """One enhancement level: rate = (h+1)/h with h = H - margin."""
        r = run(ScheduleBasedCoordination, n=10, H=5, fault_margin=1)
        # interval 4 → (4+1)/4 = 1.25, modulo the short-tail segment
        assert r.receipt_rate == pytest.approx(1.25, abs=0.02)

    def test_complete_delivery(self):
        assert run(ScheduleBasedCoordination).delivery_ratio == 1.0


class TestSingleSource:
    def test_one_peer_serves_all(self):
        cfg = ProtocolConfig(
            n=10, H=4, fault_margin=0, delta=10.0, content_packets=250, seed=3
        )
        session = SessionSpec(cfg, SingleSourceStreaming()).build()
        r = session.run()
        assert r.all_active
        assert len(r.activation_times) == 1
        assert r.delivery_ratio == 1.0
        assert r.receipt_rate == pytest.approx(1.0)
        assert r.control_packets_total == 1

    def test_delivery_takes_content_duration(self):
        """At rate τ the single source needs ~l/τ ms."""
        cfg = ProtocolConfig(
            n=5, H=2, fault_margin=0, tau=1.0, delta=10.0,
            content_packets=250, seed=3,
        )
        session = SessionSpec(cfg, SingleSourceStreaming()).build()
        r = session.run()
        assert r.completed_at == pytest.approx(250 + 2 * 10, rel=0.1)
