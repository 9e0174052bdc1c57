"""Outside-in layer tracing for the benchmark's traced run.

The program carries no spans of its own for this.  :class:`LayerTracer`
wraps public callables of each layer from outside, patching each name
where callers look it up (a class attribute, or every ``repro`` module
that imported a function by name), and keeps a stack of open spans so a
span's self time is its duration minus the wrapped children it enclosed.
Aggregates stay in memory per callable; :func:`layer_metrics` turns them
into the per-layer metrics once the run is over.

The wrappers are passive: they never draw random numbers or schedule
events, so a traced session follows the same trajectory as an untraced
one, which the benchmark checks by comparing send-log fingerprints.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List

#: the layers spans are attributed to, in stack order
LAYERS = ("sim", "net", "media", "fec", "core", "streaming", "obs", "groupcomm")


class Span:
    """Aggregate of one wrapped callable."""

    __slots__ = ("layer", "calls", "total_ns", "self_ns")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class LayerTracer:
    """Span stack plus per-callable aggregates and plain counters."""

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[list] = []
        self._undo: list = []

    # -- wrapping ------------------------------------------------------
    def timed(self, name: str, fn: Callable, note: Callable = None) -> Callable:
        """``fn`` wrapped in a span named ``<layer>.<callable>``.

        ``note(args, result)`` runs after the span closes, for counts
        measured where the work happens (packets, bytes, heap size).
        """
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = Span(name.split(".", 1)[0])
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                span.calls += 1
                span.total_ns += took
                span.self_ns += took - frame[0]
                if stack:
                    stack[-1][0] += took
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def to_json(self) -> dict:
        return {
            "spans": {
                name: [s.layer, s.calls, s.total_ns, s.self_ns]
                for name, s in self.spans.items()
            },
            "counts": self.counts,
        }

    @classmethod
    def from_json(cls, data: dict) -> "LayerTracer":
        tracer = cls()
        for name, (layer, calls, total_ns, self_ns) in data["spans"].items():
            span = tracer.spans[name] = Span(layer)
            span.calls, span.total_ns, span.self_ns = calls, total_ns, self_ns
        tracer.counts = dict(data["counts"])
        return tracer

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def peak(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr: str, name: str, note=None) -> None:
        self._set(cls, attr, self.timed(name, cls.__dict__[attr], note))

    def patch_function(self, fn: Callable, name: str, note=None) -> None:
        """Wrap ``fn`` under every name a ``repro`` module holds it by."""
        wrapper = self.timed(name, fn, note)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the traced callables ------------------------------------------
    @contextmanager
    def installed(self, session):
        """Wrap every traced callable for the duration of ``session.run()``.

        Installed after ``build()``, so set-up work is not traced; the
        session's own hooks (node ``on_deliver`` callbacks, trace-bus
        subscribers) are wrapped on the session object.
        """
        from repro.core.base import Assignment, CoordinationProtocol
        from repro.fec import ParityDecoder, divide, divide_all, enhance
        from repro.fec.xor import xor_payloads
        from repro.groupcomm.vector_clock import CausalityTracker
        from repro.media.sequence import PacketSequence
        from repro.net.node import Node
        from repro.net.overlay import Overlay
        from repro.obs.trace import TraceBus
        from repro.sim.engine import Environment
        from repro.sim.rng import RandomStreams
        from repro.streaming.contents_peer import ContentsPeerAgent
        from repro.streaming.session import StreamingSession
        from repro.streaming.stream import Stream

        count, peak = self.count, self.peak
        scheduler = type(session.env.scheduler)

        # repro.sim
        def note_push(args, _result):
            peak("sim.heap_peak", len(args[0]))

        def note_pop(_args, entry):
            if entry[3]._tombstone:
                count("sim.tombstoned")

        self.patch_method(scheduler, "push", "sim.push", note_push)
        self.patch_method(scheduler, "pop", "sim.pop", note_pop)
        self.patch_method(Environment, "call_later", "sim.call_later")
        self._patch_first_use(
            RandomStreams, "get", "sim.rng_new",
            lambda streams, key: key in streams._streams,
        )

        # repro.net
        self.patch_method(Overlay, "send", "net.send")
        self._patch_first_use(
            Overlay, "channel", "net.channel_new",
            lambda overlay, src, dst: (src, dst) in overlay.channels,
        )
        self.patch_method(Node, "deliver", "net.deliver")

        # repro.media
        def note_sequence(args, _result):
            count("media.seq_packets", len(args[0]._packets))

        self.patch_method(Assignment, "build_plan", "media.build_plan")
        self.patch_method(PacketSequence, "__init__", "media.sequence", note_sequence)
        self.patch_method(Stream, "pop_next", "media.pop_next")
        self.patch_method(Stream, "handoff", "media.handoff")

        # repro.fec
        def note_packets(key):
            return lambda args, _result: count(key, len(args[0]))

        def note_xor(args, result):
            if result is not None and hasattr(args[0], "__len__"):
                count("fec.xor_bytes", len(result) * len(args[0]))

        self.patch_function(enhance, "fec.enhance", note_packets("fec.enhance_packets"))
        self.patch_function(divide, "fec.divide", note_packets("fec.divide_packets"))
        self.patch_function(
            divide_all, "fec.divide_all", note_packets("fec.divide_packets")
        )
        self.patch_function(xor_payloads, "fec.xor_payloads", note_xor)
        self.patch_method(ParityDecoder, "add", "fec.decoder_add")

        # repro.core
        for cls in type(session.protocol).__mro__:
            for attr in ("handle_peer_message", "handle_leaf_message", "reissue"):
                if attr in cls.__dict__:
                    self.patch_method(cls, attr, f"core.{attr}")
            if cls is CoordinationProtocol:
                break
        self.patch_method(
            StreamingSession, "record_activation", "core.record_activation"
        )

        # repro.streaming
        for node in session.overlay.nodes.values():
            if node.on_deliver is not None:
                node.on_deliver = self.timed("streaming.on_deliver", node.on_deliver)
        self.patch_method(ContentsPeerAgent, "merge_view", "streaming.merge_view")
        self.patch_method(
            ContentsPeerAgent, "select_children", "streaming.select_children"
        )
        self.patch_method(
            ContentsPeerAgent, "residual_data_seqs", "streaming.residual_data_seqs"
        )

        # repro.obs / repro.groupcomm
        self.patch_method(TraceBus, "emit", "obs.emit")
        bus = session.trace_bus
        if bus is not None:
            bus.subscribers[:] = [
                self.timed("obs.on_event", callback) for callback in bus.subscribers
            ]
        self.patch_method(CausalityTracker, "on_send", "groupcomm.on_send")
        self.patch_method(CausalityTracker, "on_recv", "groupcomm.on_recv")
        try:
            yield self
        finally:
            self.restore()

    def _patch_first_use(self, cls, attr: str, name: str, exists) -> None:
        """Time only the calls that create what ``exists`` looks up."""
        original = cls.__dict__[attr]
        creating = self.timed(name, original)

        def first_use(obj, *args):
            if exists(obj, *args):
                return original(obj, *args)
            return creating(obj, *args)

        self._set(cls, attr, first_use)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: per_layer metric -> (unit, better); the order the benchmark prints them in.
#: Costs, counts of work and shares of time are better lower.
UNITS = {
    "sim.events": ("count", "lower"),
    "sim.push_ns": ("ns", "lower"),
    "sim.pop_ns": ("ns", "lower"),
    "sim.heap_peak": ("count", "lower"),
    "sim.cancelled_share": ("ratio", "lower"),
    "sim.rng_streams": ("count", "lower"),
    "sim.rng_get_us": ("us", "lower"),
    "net.msgs": ("count", "lower"),
    "net.send_us": ("us", "lower"),
    "net.channels": ("count", "lower"),
    "net.channel_new_us": ("us", "lower"),
    "net.channels_per_msg": ("ratio", "lower"),
    "net.deliver_us": ("us", "lower"),
    "net.drop_share": ("ratio", "lower"),
    "net.retransmits": ("count", "lower"),
    "net.dedup_share": ("ratio", "lower"),
    "net.channel_new_share": ("ratio", "lower"),
    "media.plan_us": ("us", "lower"),
    "media.seq_copies_per_pkt": ("ratio", "lower"),
    "media.pop_ns": ("ns", "lower"),
    "media.handoff_us": ("us", "lower"),
    "fec.enhance_ns_per_pkt": ("ns", "lower"),
    "fec.divide_ns_per_pkt": ("ns", "lower"),
    "fec.decode_ns_per_pkt": ("ns", "lower"),
    "fec.xor_mb_per_s": ("MB/s", "higher"),
    "fec.recovered": ("count", "higher"),
    "fec.recover_share": ("ratio", "higher"),
    "core.msgs": ("count", "lower"),
    "core.handle_us": ("us", "lower"),
    "core.us_per_activation": ("us", "lower"),
    "core.reissues": ("count", "lower"),
    "core.sync_rounds": ("rounds", "lower"),
    "core.synced_share": ("ratio", "higher"),
    "streaming.agent_us_per_msg": ("us", "lower"),
    "streaming.merge_view_us": ("us", "lower"),
    "streaming.select_us": ("us", "lower"),
    "streaming.residual_us": ("us", "lower"),
    "streaming.receipt_rate": ("ratio", "lower"),
    "obs.events": ("count", "lower"),
    "obs.emit_us": ("us", "lower"),
    "obs.audit_us": ("us", "lower"),
    "obs.audit_violations": ("count", "lower"),
    "groupcomm.vc_us": ("us", "lower"),
    **{f"{layer}.share": ("ratio", "lower") for layer in LAYERS},
    "bench.trace_overhead_x": ("x", "lower"),
    "bench.attributed_share": ("ratio", "higher"),
}


def _div(a: float, b: float, empty: float = 0.0) -> float:
    return a / b if b else empty


def layer_metrics(
    tracer: LayerTracer,
    records: List[dict],
    model: Dict[str, float],
    traced_run_s: float,
    untraced_run_s: float,
) -> Dict[str, float]:
    """Every per-layer metric from one traced run of a workload.

    ``records`` are the sessions' :func:`workloads.session_record` dicts
    (traffic totals, losses) and ``model`` the workload's model metrics.
    Costs per call are inclusive of wrapped children unless the name says
    self time (send, deliver, protocol handling, emit, agent).
    """
    spans, counts = tracer.spans, tracer.counts
    records = [r for r in records if "error" not in r]
    empty = Span("")

    def span(name: str) -> Span:
        return spans.get(name, empty)

    def total(*names: str) -> int:
        return sum(span(n).total_ns for n in names)

    def calls(*names: str) -> int:
        return sum(span(n).calls for n in names)

    def self_ns(*names: str) -> int:
        return sum(span(n).self_ns for n in names)

    def rsum(key: str) -> int:
        return sum(r[key] for r in records)

    run_ns = traced_run_s * 1e9
    layer_self = {layer: 0 for layer in LAYERS}
    for s in spans.values():
        layer_self[s.layer] += s.self_ns
    pops = calls("sim.pop")
    tombstoned = counts.get("sim.tombstoned", 0)
    msgs = rsum("msgs")
    handlers = ("core.handle_peer_message", "core.handle_leaf_message")
    emits = calls("obs.emit")

    out = {
        "sim.events": pops - tombstoned,
        "sim.push_ns": _div(self_ns("sim.push"), calls("sim.push")),
        "sim.pop_ns": _div(self_ns("sim.pop"), pops),
        "sim.heap_peak": counts.get("sim.heap_peak", 0),
        "sim.cancelled_share": _div(tombstoned, pops),
        "sim.rng_streams": calls("sim.rng_new"),
        "sim.rng_get_us": _div(total("sim.rng_new"), calls("sim.rng_new")) / 1e3,
        "net.msgs": msgs,
        "net.send_us": _div(self_ns("net.send"), calls("net.send")) / 1e3,
        "net.channels": rsum("channels"),
        "net.channel_new_us": _div(
            total("net.channel_new"), calls("net.channel_new")
        ) / 1e3,
        "net.channels_per_msg": _div(rsum("channels"), msgs),
        "net.deliver_us": _div(self_ns("net.deliver"), calls("net.deliver")) / 1e3,
        "net.drop_share": _div(rsum("dropped"), msgs),
        "net.retransmits": rsum("retransmits"),
        "net.dedup_share": _div(rsum("dedup"), rsum("delivered_ctrl")),
        "net.channel_new_share": _div(total("net.channel_new"), run_ns),
        "media.plan_us": _div(
            total("media.build_plan"), calls("media.build_plan")
        ) / 1e3,
        "media.seq_copies_per_pkt": _div(
            counts.get("media.seq_packets", 0), rsum("content_packets")
        ),
        "media.pop_ns": _div(self_ns("media.pop_next"), calls("media.pop_next")),
        "media.handoff_us": _div(
            total("media.handoff"), calls("media.handoff")
        ) / 1e3,
        "fec.enhance_ns_per_pkt": _div(
            total("fec.enhance"), counts.get("fec.enhance_packets", 0)
        ),
        "fec.divide_ns_per_pkt": _div(
            total("fec.divide", "fec.divide_all"),
            counts.get("fec.divide_packets", 0),
        ),
        "fec.decode_ns_per_pkt": _div(
            total("fec.decoder_add"), calls("fec.decoder_add")
        ),
        "fec.xor_mb_per_s": _div(
            counts.get("fec.xor_bytes", 0) * 1e3, total("fec.xor_payloads")
        ),
        "fec.recovered": rsum("recovered_data"),
        # nothing lost means nothing left unrecovered
        "fec.recover_share": _div(rsum("recovered_data"), rsum("lost_data"), 1.0),
        "core.msgs": calls(*handlers),
        "core.handle_us": _div(self_ns(*handlers), calls(*handlers)) / 1e3,
        "core.us_per_activation": _div(
            self_ns(*handlers, "core.reissue"), calls("core.record_activation")
        ) / 1e3,
        "core.reissues": calls("core.reissue"),
        "core.sync_rounds": model["sync_rounds"],
        "core.synced_share": model["synced_share"],
        "streaming.agent_us_per_msg": _div(
            self_ns("streaming.on_deliver"), calls("streaming.on_deliver")
        ) / 1e3,
        "streaming.merge_view_us": _div(
            total("streaming.merge_view"), calls("streaming.merge_view")
        ) / 1e3,
        "streaming.select_us": _div(
            total("streaming.select_children"), calls("streaming.select_children")
        ) / 1e3,
        "streaming.residual_us": _div(
            total("streaming.residual_data_seqs"),
            calls("streaming.residual_data_seqs"),
        ) / 1e3,
        "streaming.receipt_rate": model["receipt_rate"],
        "obs.events": emits,
        "obs.emit_us": _div(self_ns("obs.emit"), emits) / 1e3,
        "obs.audit_us": _div(total("obs.on_event"), emits) / 1e3,
        "obs.audit_violations": model["audit_violations"],
        "groupcomm.vc_us": _div(
            total("groupcomm.on_send", "groupcomm.on_recv"),
            calls("groupcomm.on_send", "groupcomm.on_recv"),
        ) / 1e3,
        **{f"{layer}.share": _div(layer_self[layer], run_ns) for layer in LAYERS},
        "bench.trace_overhead_x": _div(traced_run_s, untraced_run_s),
        "bench.attributed_share": _div(sum(layer_self.values()), run_ns),
    }
    return out
