"""Tests for channels, nodes, and overlay traffic accounting."""

import pytest

from repro.net import (
    BernoulliLoss,
    Channel,
    ConstantLatency,
    Message,
    Overlay,
    UniformLatency,
)
from repro.sim import Environment, RandomStreams


def make_overlay(**kw):
    env = Environment()
    ov = Overlay(env, streams=RandomStreams(7), **kw)
    return env, ov


def test_message_validation():
    with pytest.raises(ValueError):
        Message("a", "b", kind="", body=None)
    with pytest.raises(ValueError):
        Message("a", "b", kind="x", size_bytes=-1)


def test_message_latency_requires_delivery():
    m = Message("a", "b", "x")
    with pytest.raises(RuntimeError):
        _ = m.latency


def test_send_delivers_after_latency():
    env, ov = make_overlay(default_latency=ConstantLatency(2.5))
    ov.add_node("a")
    b = ov.add_node("b")
    got = []

    def receiver():
        msg = yield b.receive()
        got.append((env.now, msg.body))

    env.process(receiver())
    ov.send("a", "b", "control", body="hi")
    env.run()
    assert got == [(2.5, "hi")]


def test_on_deliver_hook_bypasses_mailbox():
    env, ov = make_overlay()
    ov.add_node("a")
    b = ov.add_node("b")
    seen = []
    b.on_deliver = lambda m: seen.append(m.kind)
    ov.send("a", "b", "control")
    env.run()
    assert seen == ["control"]
    assert len(b.mailbox) == 0


def test_traffic_stats_by_kind():
    env, ov = make_overlay()
    for nid in ("a", "b", "c"):
        ov.add_node(nid)
    ov.send("a", "b", "request")
    ov.send("a", "c", "control")
    ov.send("b", "c", "control")
    env.run()
    assert ov.traffic.sent("request") == 1
    assert ov.traffic.sent("control") == 2
    assert ov.traffic.total_sent() == 3
    assert ov.traffic.control_packets() == 3


def test_control_packets_excludes_media():
    env, ov = make_overlay()
    ov.add_node("a")
    ov.add_node("b")
    ov.send("a", "b", "packet")
    ov.send("a", "b", "control")
    env.run()
    assert ov.traffic.control_packets() == 1


def test_loss_counted_and_not_delivered():
    env, ov = make_overlay(default_loss_factory=lambda: BernoulliLoss(1.0))
    ov.add_node("a")
    b = ov.add_node("b")
    ov.send("a", "b", "control")
    env.run()
    assert ov.traffic.dropped_by_kind["control"] == 1
    assert len(b.mailbox) == 0


def test_channel_stats():
    env, ov = make_overlay(default_latency=ConstantLatency(1.0))
    ov.add_node("a")
    ov.add_node("b")
    ov.send("a", "b", "x", size_bytes=100)
    ov.send("a", "b", "x", size_bytes=50)
    env.run()
    st = ov.channel("a", "b")
    assert st.sent == 2
    assert st.delivered == 2
    assert st.dropped == 0
    assert st.bytes_sent == 150
    assert st.mean_latency == pytest.approx(1.0)
    assert st.loss_ratio == 0.0


def test_crashed_node_discards_deliveries():
    env, ov = make_overlay()
    ov.add_node("a")
    b = ov.add_node("b")
    b.crash()
    ov.send("a", "b", "control")
    env.run()
    assert b.dropped_while_down == 1
    assert len(b.mailbox) == 0
    b.recover()
    ov.send("a", "b", "control")
    env.run()
    assert len(b.mailbox) == 1


def test_crashed_node_sends_nothing():
    env, ov = make_overlay()
    a = ov.add_node("a")
    b = ov.add_node("b")
    a.crash()
    ov.send("a", "b", "control")
    env.run()
    assert len(b.mailbox) == 0
    assert ov.traffic.sent("control") == 0
    assert ov.traffic.dropped_by_kind["control"] == 1


def test_duplicate_node_rejected():
    _, ov = make_overlay()
    ov.add_node("a")
    with pytest.raises(ValueError):
        ov.add_node("a")


def test_unknown_endpoint_rejected():
    _, ov = make_overlay()
    ov.add_node("a")
    with pytest.raises(KeyError):
        ov.channel("a", "nope")


def test_channel_is_cached_per_direction():
    _, ov = make_overlay()
    ov.add_node("a")
    ov.add_node("b")
    assert ov.channel("a", "b") is ov.channel("a", "b")
    assert ov.channel("a", "b") is not ov.channel("b", "a")


def test_per_pair_override():
    env, ov = make_overlay(default_latency=ConstantLatency(1.0))
    ov.add_node("a")
    b = ov.add_node("b")
    ov.configure_channel("a", "b", latency=ConstantLatency(9.0))
    arrivals = []
    b.on_deliver = lambda m: arrivals.append(env.now)
    ov.send("a", "b", "x")
    env.run()
    assert arrivals == [9.0]


def test_override_after_materialization_rejected():
    _, ov = make_overlay()
    ov.add_node("a")
    ov.add_node("b")
    ov.channel("a", "b")
    with pytest.raises(RuntimeError):
        ov.configure_channel("a", "b", latency=ConstantLatency(2))


def test_bandwidth_serialization_delay():
    env = Environment()
    ov = Overlay(
        env,
        streams=RandomStreams(1),
        default_latency=ConstantLatency(1.0),
        bandwidth_bytes_per_ms=100.0,
    )
    ov.add_node("a")
    b = ov.add_node("b")
    arrivals = []
    b.on_deliver = lambda m: arrivals.append(env.now)
    # two 200-byte messages: serialization 2ms each, queued back-to-back
    ov.send("a", "b", "x", size_bytes=200)
    ov.send("a", "b", "x", size_bytes=200)
    env.run()
    assert arrivals == [3.0, 5.0]


def test_jittered_latency_varies():
    env, ov = make_overlay(default_latency=UniformLatency(1, 5))
    ov.add_node("a")
    b = ov.add_node("b")
    arrivals = []
    b.on_deliver = lambda m: arrivals.append(m.latency)
    for _ in range(20):
        ov.send("a", "b", "x")
    env.run()
    assert len(set(arrivals)) > 5
    assert all(1 <= lat <= 5 for lat in arrivals)


def test_deterministic_given_seed():
    def run():
        env, ov = make_overlay(default_latency=UniformLatency(1, 5))
        ov.add_node("a")
        b = ov.add_node("b")
        arrivals = []
        b.on_deliver = lambda m: arrivals.append(env.now)
        for _ in range(5):
            ov.send("a", "b", "x")
        env.run()
        return arrivals

    assert run() == run()


def test_send_log_records_times():
    env, ov = make_overlay()
    ov.add_node("a")
    ov.add_node("b")

    def proc():
        yield env.timeout(4)
        ov.send("a", "b", "control")

    env.process(proc())
    env.run()
    assert ov.traffic.send_log == [("control", 4, "a", "b")]


def test_overlay_repr():
    _, ov = make_overlay()
    ov.add_node("a")
    assert "1 nodes" in repr(ov)
