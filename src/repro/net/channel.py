"""A logical point-to-point channel with bandwidth, latency and loss."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.linkfault import LinkFault
from repro.net.loss import NO_LOSS, LossModel
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.sim.engine import Environment


def draws_rng(
    latency: LatencyModel, loss: LossModel, fault: Optional[LinkFault]
) -> bool:
    """Whether a channel with these models can draw from its generator."""
    return latency.draws or loss.draws or fault is not None


class Channel:
    """Unidirectional channel ``src → dst``.

    ``bandwidth_bytes_per_ms`` of ``None`` (default) means serialization is
    negligible — the paper's "reliable high-speed communication like 10 Gbps
    Ethernet".  Delivery order is FIFO for equal sampled latencies; jittered
    latencies may reorder, as real UDP streams do.

    ``rng`` feeds the loss and latency models and the link fault.  It may
    be None when none of them draws (:func:`draws_rng`); a channel whose
    models draw and that is given no generator falls back to
    ``default_rng(0)``.

    A clean channel is one GC-tracked object: the delivery counters live
    in its own slots, and a :class:`ConstantLatency` is kept as its float
    delay, so an overlay with n² first-use links gives the cyclic
    collector n² objects to scan instead of three times that.
    """

    __slots__ = (
        "env", "src", "dst", "_latency", "_delay", "loss", "fault",
        "bandwidth", "rng", "_link_free_at",
        # delivery accounting
        "sent", "delivered", "dropped", "bytes_sent", "latencies_sum",
        "duplicated",
    )

    def __init__(
        self,
        env: "Environment",
        src: "Node",
        dst: "Node",
        latency: Optional[LatencyModel] = None,
        loss: Optional[LossModel] = None,
        bandwidth_bytes_per_ms: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
        fault: Optional[LinkFault] = None,
    ) -> None:
        if bandwidth_bytes_per_ms is not None and bandwidth_bytes_per_ms <= 0:
            raise ValueError("bandwidth must be positive when given")
        self.env = env
        self.src = src
        self.dst = dst
        if latency is None:
            latency = ConstantLatency(1.0)
        if type(latency) is ConstantLatency:
            #: fixed one-way delay; None when ``_latency`` samples it
            self._delay: Optional[float] = latency.delay
            self._latency: Optional[LatencyModel] = None
        else:
            self._delay = None
            self._latency = latency
        self.loss = loss if loss is not None else NO_LOSS
        #: optional link fault (duplicate/reorder/sever) on top of ``loss``
        self.fault = fault
        self.bandwidth = bandwidth_bytes_per_ms
        if rng is None and draws_rng(latency, self.loss, fault):
            rng = np.random.default_rng(0)
        self.rng = rng
        #: next time the link is free to begin serializing (bandwidth mode)
        self._link_free_at = 0.0
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.bytes_sent = 0
        self.latencies_sum = 0.0
        #: extra copies produced by a duplicating link fault
        self.duplicated = 0

    @property
    def loss_ratio(self) -> float:
        return self.dropped / self.sent if self.sent else 0.0

    @property
    def mean_latency(self) -> float:
        return self.latencies_sum / self.delivered if self.delivered else 0.0

    def send(self, message: Message) -> None:
        """Fire-and-forget transmission (UDP-like, as in the paper)."""
        now = self.env.now
        message.sent_at = now
        self.sent += 1
        self.bytes_sent += message.size_bytes

        if self.loss.drops(self.rng):
            self.dropped += 1
            return

        if self.fault is not None:
            extra_delays = self.fault.apply(self.rng, now)
            if not extra_delays:
                self.dropped += 1
                return
        else:
            extra_delays = (0.0,)

        delay = self._delay
        if delay is None:
            delay = self._latency.sample(self.rng)
            if delay < 0:  # pragma: no cover - models enforce this already
                raise ValueError("latency model produced a negative delay")

        if self.bandwidth is not None:
            start = max(now, self._link_free_at)
            serialization = message.size_bytes / self.bandwidth
            self._link_free_at = start + serialization
            delay += (start - now) + serialization

        self.duplicated += len(extra_delays) - 1

        for index, extra in enumerate(extra_delays):
            # one Timer per copy — the cheap fire-and-forget path (a
            # spawned generator would cost three scheduled events); a
            # plain function with the channel as an argument, so the
            # in-flight delivery holds no bound method
            self.env.call_later(
                delay + extra, _deliver, self, message, index > 0
            )

    def send_batch(self, message: Message) -> Tuple[int, int, int]:
        """Transmit a whole media batch as one delivery event.

        ``message.body`` must be a :class:`~repro.media.batch.PacketBatch`
        whose ``offsets_ms`` give each packet's nominal send instant
        relative to *now*.  Per-packet fates are applied up front — loss
        (vectorized where the model allows), link faults (sequential, so
        stateful faults evolve exactly as if sent one by one), latency
        (vectorized), and bandwidth serialization — then a single timer
        fires at the last survivor's arrival carrying the delivered batch
        in modeled arrival order.  Returns ``(delivered, dropped,
        duplicated)`` packet counts for the overlay's accounting.
        """
        batch = message.body
        k = len(batch)
        now = self.env.now
        message.sent_at = now
        self.sent += k
        self.bytes_sent += message.size_bytes

        lost = self.loss.drops_batch(self.rng, k)
        survivors = [i for i in range(k) if not lost[i]]
        dropped = k - len(survivors)

        if self.fault is not None:
            fates = self.fault.apply_batch(self.rng, now, len(survivors))
        else:
            fates = None
        if self._delay is None:
            delays = self._latency.sample_batch(self.rng, len(survivors))
        else:
            delays = np.full(len(survivors), self._delay)

        offsets = batch.offsets_ms
        packets = batch.packets
        duplicated = 0
        deliveries: list[tuple[float, bool, object]] = []
        for j, i in enumerate(survivors):
            extra_delays = (0.0,) if fates is None else fates[j]
            if not extra_delays:
                dropped += 1
                continue
            offset = offsets[i]
            delay = float(delays[j])
            if self.bandwidth is not None:
                # serialize at the packet's nominal send instant
                nominal = now + offset
                start = max(nominal, self._link_free_at)
                serialization = (
                    message.size_bytes / k
                ) / self.bandwidth
                self._link_free_at = start + serialization
                delay += (start - nominal) + serialization
            duplicated += len(extra_delays) - 1
            for index, extra in enumerate(extra_delays):
                deliveries.append(
                    (offset + delay + extra, index > 0, packets[i], offset)
                )

        self.dropped += dropped
        self.duplicated += duplicated
        if not deliveries:
            return (0, dropped, duplicated)

        deliveries.sort(key=lambda d: d[0])
        arrival = deliveries[-1][0]
        self.env.call_later(arrival, _deliver_batch, self, message, deliveries)
        return (len(deliveries) - duplicated, dropped, duplicated)

    def __repr__(self) -> str:
        return f"<Channel {self.src.node_id}->{self.dst.node_id}>"


def _deliver(channel: Channel, message: Message, duplicate: bool) -> None:
    """Hand one in-flight message to the channel's destination."""
    message.delivered_at = channel.env.now
    channel.delivered += 1
    channel.latencies_sum += message.delivered_at - message.sent_at
    channel.dst.deliver(message, duplicate=duplicate)


def _deliver_batch(channel: Channel, message: Message, deliveries: list) -> None:
    """Hand an in-flight media batch to the channel's destination."""
    from repro.media.batch import PacketBatch

    message.delivered_at = channel.env.now
    channel.delivered += len(deliveries)
    # modeled per-copy one-way transit (nominal send offset -> arrival)
    channel.latencies_sum += sum(
        arrival - offset for arrival, _dup, _pkt, offset in deliveries
    )
    message.body = PacketBatch(
        tuple(pkt for _a, _d, pkt, _o in deliveries),
        np.fromiter(
            (a for a, _d, _p, _o in deliveries),
            dtype=np.float64,
            count=len(deliveries),
        ),
        dup=np.fromiter(
            (d for _a, d, _p, _o in deliveries),
            dtype=bool,
            count=len(deliveries),
        ),
    )
    channel.dst.deliver(message)
