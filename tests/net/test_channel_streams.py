"""Which channels get a named RNG stream, and that they draw from it.

A channel opens ``channel/{src}->{dst}`` only when its loss model,
latency model or link fault can draw (``draws``); channels whose models
never draw carry no generator at all.  Streams are seeded by name, so a
channel that has one draws exactly what a fresh ``RandomStreams(seed)``
yields under that name.
"""

import numpy as np
import pytest

from repro.net import (
    BernoulliLoss,
    Channel,
    ConstantLatency,
    GilbertElliottLoss,
    LatencyModel,
    LossModel,
    Message,
    Node,
    NormalLatency,
    Overlay,
    UniformLatency,
)
from repro.net.linkfault import DuplicateFault, ReorderFault
from repro.sim import Environment, RandomStreams

SEED = 11
SENDS = 60


def channel_streams(overlay):
    return sorted(n for n in overlay.streams._streams if n.startswith("channel/"))


def run_traffic(env, send, dst_node):
    """Send ``SENDS`` messages one per ms; return (arrival, body) pairs."""
    arrivals = []
    dst_node.on_deliver = lambda m: arrivals.append((env.now, m.body))

    def sender():
        for i in range(SENDS):
            send(i)
            yield env.timeout(1.0)

    env.process(sender())
    env.run()
    return arrivals


def test_clean_overlay_opens_no_channel_stream():
    env = Environment()
    ov = Overlay(env, streams=RandomStreams(SEED))
    for name in ("a", "b", "c"):
        ov.add_node(name)
    for src, dst in (("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")):
        for _ in range(3):
            ov.send(src, dst, "control")
    env.run()
    assert ov.traffic.delivered_by_kind["control"] == 12
    assert channel_streams(ov) == []
    assert all(ch.rng is None for ch in ov.channels.values())


def test_clean_per_pair_constant_latency_opens_no_stream():
    env = Environment()
    ov = Overlay(
        env,
        streams=RandomStreams(SEED),
        latency_factory=lambda src, dst: ConstantLatency(2.0 + len(src + dst)),
    )
    ov.add_node("a")
    ov.add_node("b")
    ov.send("a", "b", "control")
    ov.send("b", "a", "control")
    env.run()
    assert channel_streams(ov) == []


#: name -> (overlay kwargs, per-pair override or None, fresh models for
#: the reference channel: (latency, loss, fault))
CASES = {
    "bernoulli": (
        {"default_loss_factory": lambda: BernoulliLoss(0.3)},
        None,
        lambda: (ConstantLatency(1.0), BernoulliLoss(0.3), None),
    ),
    "gilbert_elliott": (
        {"default_loss_factory": lambda: GilbertElliottLoss(0.2, 0.4)},
        None,
        lambda: (ConstantLatency(1.0), GilbertElliottLoss(0.2, 0.4), None),
    ),
    "uniform_latency": (
        {"default_latency": UniformLatency(1.0, 5.0)},
        None,
        lambda: (UniformLatency(1.0, 5.0), None, None),
    ),
    "normal_latency": (
        {"default_latency": NormalLatency(3.0, 1.0, floor=0.5)},
        None,
        lambda: (NormalLatency(3.0, 1.0, floor=0.5), None, None),
    ),
    "link_fault": (
        {"link_fault_factory": lambda: ReorderFault(0.5, 4.0)},
        None,
        lambda: (ConstantLatency(1.0), None, ReorderFault(0.5, 4.0)),
    ),
    "configure_channel": (
        {},
        lambda: {"loss": BernoulliLoss(0.4), "fault": DuplicateFault(0.3)},
        lambda: (ConstantLatency(1.0), BernoulliLoss(0.4), DuplicateFault(0.3)),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_drawing_channel_uses_its_named_stream(case):
    overlay_kw, override, reference = CASES[case]
    env = Environment()
    ov = Overlay(env, streams=RandomStreams(SEED), **overlay_kw)
    ov.add_node("a")
    b = ov.add_node("b")
    if override is not None:
        ov.configure_channel("a", "b", **override())
    got = run_traffic(env, lambda i: ov.send("a", "b", "control", body=i), b)

    name = "channel/a->b"
    assert ov.channels[("a", "b")].rng is ov.streams.get(name)
    assert channel_streams(ov) == [name]

    # the same models on a bare channel fed from a fresh family's stream
    latency, loss, fault = reference()
    env2 = Environment()
    src, dst = Node(env2, "a"), Node(env2, "b")
    ref = Channel(
        env2, src, dst, latency=latency, loss=loss, fault=fault,
        rng=RandomStreams(SEED).get(name),
    )
    want = run_traffic(
        env2, lambda i: ref.send(Message("a", "b", "control", body=i)), dst
    )
    assert got == want
    # the drawn fates did perturb the clean schedule
    assert got != [(i + 1.0, i) for i in range(SENDS)]


def test_configure_channel_override_opens_only_that_pair():
    env = Environment()
    ov = Overlay(env, streams=RandomStreams(SEED))
    ov.add_node("a")
    ov.add_node("b")
    ov.configure_channel("a", "b", loss=BernoulliLoss(0.5))
    ov.send("a", "b", "control")
    ov.send("b", "a", "control")
    env.run()
    assert channel_streams(ov) == ["channel/a->b"]
    assert ov.channels[("b", "a")].rng is None


class CoinLoss(LossModel):
    """A user model that does not declare ``draws``."""

    def drops(self, rng):
        assert isinstance(rng, np.random.Generator)
        return bool(rng.random() < 0.5)


class JitterLatency(LatencyModel):
    """A user model that does not declare ``draws``."""

    def sample(self, rng):
        assert isinstance(rng, np.random.Generator)
        return 1.0 + float(rng.random())

    @property
    def mean(self):
        return 1.5


def test_user_models_without_draws_still_get_a_generator():
    assert CoinLoss.draws and JitterLatency.draws
    for overlay_kw in (
        {"default_loss_factory": CoinLoss},
        {"default_latency": JitterLatency()},
    ):
        env = Environment()
        ov = Overlay(env, streams=RandomStreams(SEED), **overlay_kw)
        ov.add_node("a")
        ov.add_node("b")
        for _ in range(10):
            ov.send("a", "b", "control")
        env.run()
        assert ov.channels[("a", "b")].rng is ov.streams.get("channel/a->b")


def test_bare_channel_with_drawing_model_falls_back_to_a_generator():
    env = Environment()
    ch = Channel(env, Node(env, "a"), Node(env, "b"), loss=CoinLoss())
    assert isinstance(ch.rng, np.random.Generator)


def test_bare_channel_sends_and_delivers():
    env = Environment()
    a, b = Node(env, "a"), Node(env, "b")
    ch = Channel(env, a, b)
    assert ch.rng is None
    got = []
    b.on_deliver = lambda m: got.append((env.now, m.body))
    ch.send(Message("a", "b", "control", body="hi"))
    env.run()
    assert got == [(1.0, "hi")]
    assert ch.stats.sent == ch.stats.delivered == 1


def test_control_loss_draws_from_its_named_stream():
    env = Environment()
    ov = Overlay(
        env,
        streams=RandomStreams(SEED),
        control_loss_factory=lambda: BernoulliLoss(0.5),
    )
    ov.add_node("a")
    b = ov.add_node("b")
    got = run_traffic(env, lambda i: ov.send("a", "b", "control", body=i), b)

    rng = RandomStreams(SEED).get("ctrl-loss/a->b")
    model = BernoulliLoss(0.5)
    kept = [i for i in range(SENDS) if not model.drops(rng)]
    assert [body for _t, body in got] == kept
    assert 0 < len(kept) < SENDS
    # the clean data channel behind the control-loss stage draws nothing
    assert channel_streams(ov) == []
