"""Behavioural tests for DCoP on small, fully checkable configurations."""

import pytest

from repro.core import DCoP, ProtocolConfig
from repro.streaming import SessionSpec


def run(n, H, **kw):
    defaults = dict(
        fault_margin=1, tau=1.0, delta=10.0, content_packets=300, seed=3
    )
    defaults.update(kw)
    cfg = ProtocolConfig(n=n, H=H, **defaults)
    return SessionSpec(cfg, DCoP()).run()


def test_all_peers_activate():
    r = run(n=12, H=4)
    assert r.all_active
    assert len(r.activation_times) == 12


def test_h_equals_n_single_round():
    r = run(n=10, H=10)
    assert r.rounds == 1
    assert r.control_packets_total == 10  # just the requests


def test_two_rounds_when_h_covers_majority():
    """H >= n-H: first wave knows everyone, second wave reaches the rest."""
    r = run(n=10, H=7)
    assert r.rounds == 2


def test_control_packet_count_closed_form_large_h():
    """H >= n-H with view-carrying requests: exactly H + H(n-H) packets."""
    from repro.analysis import dcop_control_packets_exact_large_h

    for n, H in ((10, 7), (20, 15), (30, 20)):
        r = run(n=n, H=H)
        assert r.control_packets_total == dcop_control_packets_exact_large_h(n, H)


def test_rounds_decrease_with_h():
    rounds = [run(n=30, H=h).rounds for h in (2, 5, 10, 20, 30)]
    assert all(a >= b for a, b in zip(rounds, rounds[1:]))
    assert rounds[-1] == 1


def test_leaf_receives_complete_content():
    r = run(n=12, H=4)
    assert r.delivery_ratio == 1.0


def test_receipt_rate_at_least_parity_floor():
    from repro.analysis import initial_receipt_rate

    r = run(n=20, H=10)
    assert r.receipt_rate >= initial_receipt_rate(10, 1) - 1e-9


def test_no_parity_receipt_rate_one():
    """margin 0: every packet delivered exactly once — rate exactly 1."""
    r = run(n=12, H=4, fault_margin=0)
    assert r.receipt_rate == pytest.approx(1.0)
    assert r.duplicate_packets == 0
    assert r.delivery_ratio == 1.0


def test_deterministic_given_seed():
    a = run(n=15, H=5, seed=11)
    b = run(n=15, H=5, seed=11)
    assert a.activation_times == b.activation_times
    assert a.control_packets_total == b.control_packets_total
    assert a.receipt_rate == b.receipt_rate


def test_different_seeds_differ():
    a = run(n=30, H=5, seed=1)
    b = run(n=30, H=5, seed=2)
    assert a.activation_times != b.activation_times


def test_views_monotone_and_final():
    cfg = ProtocolConfig(
        n=12, H=4, fault_margin=1, delta=10.0, content_packets=300, seed=3
    )
    session = SessionSpec(cfg, DCoP()).build()
    session.run()
    # after quiescence every active peer's view is consistent: it contains
    # itself and only existing peers
    for agent in session.peers.values():
        assert agent.peer_id in agent.view
        assert agent.view <= set(session.peer_ids)


def test_redundant_parents_merge_streams():
    """With small H some peer ends up with more than one stream (multiple
    parents) — DCoP's defining redundancy."""
    cfg = ProtocolConfig(
        n=20, H=3, fault_margin=1, delta=10.0, content_packets=300, seed=5
    )
    session = SessionSpec(cfg, DCoP()).build()
    session.run()
    stream_counts = [len(a.streams) for a in session.peers.values()]
    assert max(stream_counts) > 1


def test_data_packets_never_duplicated_to_leaf():
    """Assignments are disjoint: each data seq arrives from exactly one
    peer (parity with identical covers may repeat, data must not)."""
    from collections import Counter

    cfg = ProtocolConfig(
        n=12, H=4, fault_margin=1, delta=10.0, content_packets=200, seed=7
    )
    session = SessionSpec(cfg, DCoP()).build()
    seen = Counter()
    original = session.leaf.node.on_deliver

    def spy(msg):
        if msg.kind == "packet" and not msg.body.is_parity:
            seen[msg.body.label] += 1
        original(msg)

    session.leaf.node.on_deliver = spy
    session.run()
    assert seen and max(seen.values()) == 1
    assert set(seen) == set(range(1, 201))


def test_request_without_view_still_synchronizes():
    r = run(n=12, H=4, request_carries_view=False)
    assert r.all_active
    # without the carried view first-wave peers may select each other, so
    # traffic is at least the view-carrying variant's
    r2 = run(n=12, H=4, request_carries_view=True)
    assert r.control_packets_total >= r2.control_packets_total


def test_unsynchronized_when_run_cut_short():
    cfg = ProtocolConfig(
        n=40, H=2, fault_margin=1, delta=10.0, content_packets=300, seed=3
    )
    session = SessionSpec(cfg, DCoP()).build()
    r = session.run(until=15.0)  # only the first wave has fired
    assert not r.all_active
    assert r.rounds is None
