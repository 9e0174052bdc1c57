"""DCoP — the redundant distributed coordination protocol (§3.4).

Flow (one δ-round per wave):

1. The leaf selects ``H`` contents peers and sends each a content request
   carrying its share of the initial ``H``-way division of the enhanced
   packet sequence (and, per §2's coordinated ``Div``, the identity of the
   selected set — which doubles as the request's view).
2. On receipt, a peer activates, merges the carried view, selects up to
   ``H`` peers outside its view, splits its stream for them (Mark → Esq →
   Div) and sends each a control packet with its assignment.
3. On receipt of a control packet a peer activates another stream (it may
   already be active — redundant selection merges by running the streams
   side by side, which is exactly ``pkt_i ∪ pkt_ji`` since assignments are
   disjoint) and floods further while its view is not full.

A peer stops selecting when ``Select`` comes back empty (view covers all
``n`` peers), which is the paper's ``|VW_i| = n`` termination rule.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from repro.core.base import (
    Assignment,
    ControlMessage,
    CoordinationProtocol,
    ProtocolConfig,
    RequestMessage,
)
from repro.media.sequence import PacketSequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.contents_peer import ContentsPeerAgent
    from repro.streaming.session import StreamingSession


@lru_cache(maxsize=None)
def empty_assignment(n_parts: int, index: int) -> Assignment:
    """Assignment that activates a peer with nothing to transmit.

    Sent when a parent committed to a child but its stream has already run
    dry — the child still synchronizes (counts as active) so coordination
    metrics remain well-defined on short contents.  Assignments are
    immutable, so one instance per ``(n_parts, index)`` serves every such
    message (most DCoP control messages at n=400 carry one).
    """
    return Assignment(
        basis=PacketSequence(),
        n_parts=n_parts,
        index=index,
        interval=0,
        rate=1.0,
    )


class DCoP(CoordinationProtocol):
    """Redundant flooding coordination (a peer may have several parents)."""

    name = "DCoP"

    # fan-out used by peers when flooding; the unicast-chain baseline
    # overrides this to 1.
    def fanout(self, config: ProtocolConfig) -> int:
        return config.H

    def initial_count(self, config: ProtocolConfig) -> int:
        """How many peers the leaf contacts."""
        return config.H

    # ------------------------------------------------------------------
    def initiate(self, session: "StreamingSession") -> None:
        cfg = session.config
        m = self.initial_count(cfg)
        selected = session.leaf_select(m)
        view = session.views.mask(selected) if cfg.request_carries_view else 0
        basis = session.content.packet_sequence()
        from repro.core.base import parity_interval_for, rate_for

        interval = parity_interval_for(m, cfg.fault_margin)
        rate = rate_for(cfg.tau, m, interval)
        tracer = session.env.hooks.tracer
        if tracer is not None:
            tracer.wave_start(1, session.leaf.peer_id, targets=m)
        for i, pid in enumerate(selected):
            assignment = Assignment(
                basis=basis, n_parts=m, index=i, interval=interval, rate=rate
            )
            session.send_control(
                session.leaf.peer_id,
                pid,
                "request",
                RequestMessage(session.leaf.peer_id, view, assignment, hops=1),
            )

    # ------------------------------------------------------------------
    def handle_peer_message(self, agent: "ContentsPeerAgent", message) -> None:
        if message.kind == "request":
            self._on_request(agent, message.body)
        elif message.kind == "control":
            self._on_control(agent, message.body)
        # other kinds (media echoes etc.) are ignored

    def _on_request(self, agent: "ContentsPeerAgent", req: RequestMessage) -> None:
        agent.merge_view(req.view)
        stream = agent.activate_with(req.assignment, hops=req.hops)
        self._flood(agent, stream, next_hops=req.hops + 1)

    def _on_control(self, agent: "ContentsPeerAgent", ctl: ControlMessage) -> None:
        agent.merge_view(ctl.view | agent.session.views.bit[ctl.sender])
        stream = agent.activate_with(ctl.assignment, hops=ctl.hops)
        if not agent.view_full:
            self._flood(agent, stream, next_hops=ctl.hops + 1)

    # ------------------------------------------------------------------
    def _flood(self, agent: "ContentsPeerAgent", stream, next_hops: int) -> None:
        """Select children outside the view and hand the stream off."""
        cfg = agent.session.config
        children = agent.select_children(self.fanout(cfg))
        if not children:
            return
        tracer = agent.env.hooks.tracer
        if tracer is not None:
            tracer.wave_start(next_hops, agent.peer_id, targets=len(children))
        plan = agent.handoff_stream(stream, children)
        agent.merge_view(agent.session.views.mask(children))
        view = agent.view
        n_parts = len(children) + 1
        for i, child in enumerate(children):
            assignment = (
                plan.assignments[i]
                if plan is not None
                else empty_assignment(n_parts, i + 1)
            )
            agent.send_control(
                child,
                "control",
                ControlMessage(agent.peer_id, view, assignment, hops=next_hops),
            )
