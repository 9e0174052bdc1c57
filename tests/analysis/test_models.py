"""Tests for the closed-form models and their agreement with the simulator."""

import pytest

from repro.analysis import (
    dcop_control_packets_exact_large_h,
    expected_rounds_dcop,
    expected_rounds_tcop,
    initial_receipt_rate,
    parity_overhead,
)
from repro.core import DCoP, TCoP, ProtocolConfig
from repro.streaming import SessionSpec


def test_parity_overhead_values():
    assert parity_overhead(60, 1) == pytest.approx(60 / 59)
    assert parity_overhead(2, 1) == pytest.approx(2.0)
    assert parity_overhead(10, 0) == 1.0


def test_initial_receipt_rate_paper_point():
    """H=60, h=1: 1 + 1/59 ≈ 1.017 — the neighbourhood of the paper's
    1.019 DCoP value."""
    assert initial_receipt_rate(60, 1) == pytest.approx(1.0169, abs=1e-3)


def test_expected_rounds_boundaries():
    assert expected_rounds_dcop(100, 100) == 1
    assert expected_rounds_dcop(100, 60) == 2
    assert expected_rounds_tcop(100, 100) == 3
    assert expected_rounds_tcop(100, 60) == 6


def test_expected_rounds_monotone_in_h():
    rounds = [expected_rounds_dcop(100, h) for h in (2, 5, 10, 30, 60, 100)]
    assert all(a >= b for a, b in zip(rounds, rounds[1:]))


def test_expected_rounds_validation():
    with pytest.raises(ValueError):
        expected_rounds_dcop(10, 0)
    with pytest.raises(ValueError):
        expected_rounds_dcop(10, 11)


def test_control_packet_closed_form():
    assert dcop_control_packets_exact_large_h(100, 100) == 100
    assert dcop_control_packets_exact_large_h(100, 60) == 60 + 60 * 40
    with pytest.raises(ValueError):
        dcop_control_packets_exact_large_h(100, 10)


def test_tcop_control_packet_closed_form():
    from repro.analysis import tcop_control_packets_exact_large_h

    assert tcop_control_packets_exact_large_h(100, 100) == 300
    assert tcop_control_packets_exact_large_h(100, 60) == 5020
    with pytest.raises(ValueError):
        tcop_control_packets_exact_large_h(100, 10)


@pytest.mark.parametrize("n,H", [(10, 7), (20, 14), (30, 20)])
def test_tcop_closed_form_matches_simulation(n, H):
    from repro.analysis import tcop_control_packets_exact_large_h

    cfg = ProtocolConfig(
        n=n, H=H, fault_margin=1, delta=10.0, content_packets=250, seed=1
    )
    sim = SessionSpec(cfg, TCoP()).run()
    assert sim.control_packets_total == tcop_control_packets_exact_large_h(n, H)


@pytest.mark.parametrize("H", [10, 20, 30])
def test_model_vs_simulation_rounds(H):
    """The occupancy model predicts the simulated round count within ±2
    for mid-range H (it is exact at the H≥n/2 boundary, checked above)."""
    n = 40
    cfg = ProtocolConfig(
        n=n, H=H, fault_margin=1, delta=10.0, content_packets=250, seed=1
    )
    sim = SessionSpec(cfg, DCoP()).run()
    model = expected_rounds_dcop(n, H)
    assert abs(sim.rounds - model) <= 2


def test_model_vs_simulation_tcop_ratio():
    """TCoP's simulated rounds are ≈3× its wave count."""
    n, H = 30, 20
    cfg = ProtocolConfig(
        n=n, H=H, fault_margin=1, delta=10.0, content_packets=250, seed=1
    )
    sim = SessionSpec(cfg, TCoP()).run()
    assert sim.rounds == expected_rounds_tcop(n, H)


def test_receipt_rate_floor_holds_in_simulation():
    for H in (5, 10, 15):
        cfg = ProtocolConfig(
            n=30, H=H, fault_margin=1, delta=10.0, content_packets=300, seed=2
        )
        sim = SessionSpec(cfg, DCoP()).run()
        assert sim.receipt_rate >= initial_receipt_rate(H, 1) - 1e-6
