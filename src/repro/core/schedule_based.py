"""Schedule-based coordination — the Liu–Vuong [8] baseline.

The requesting leaf computes the whole transmission schedule itself and
sends it to each of the ``H`` chosen contents peers, which start
"synchronously according to the schedule".  One round, exactly ``H``
control packets, no peer-to-peer coordination at all — but the leaf is a
schedule bottleneck and nothing adapts if a peer fails (no flooding to
recruit replacements).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.base import (
    Assignment,
    CoordinationProtocol,
    RequestMessage,
    parity_interval_for,
    rate_for,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.contents_peer import ContentsPeerAgent
    from repro.streaming.session import StreamingSession


class ScheduleBasedCoordination(CoordinationProtocol):
    """Leaf-computed schedule shipped to H peers; no flooding."""

    name = "ScheduleBased"

    def initiate(self, session: "StreamingSession") -> None:
        cfg = session.config
        selected = session.leaf_select(cfg.H)
        session.expected_active = set(selected)
        basis = session.content.packet_sequence()
        interval = parity_interval_for(cfg.H, cfg.fault_margin)
        rate = rate_for(cfg.tau, cfg.H, interval)
        view = session.views.mask(selected)
        for i, pid in enumerate(selected):
            assignment = Assignment(
                basis=basis, n_parts=cfg.H, index=i, interval=interval, rate=rate
            )
            session.overlay.send(
                session.leaf.peer_id,
                pid,
                "request",
                body=RequestMessage(session.leaf.peer_id, view, assignment),
                size_bytes=cfg.control_size,
            )

    def handle_peer_message(self, agent: "ContentsPeerAgent", message) -> None:
        if message.kind == "request":
            req: RequestMessage = message.body
            agent.merge_view(req.view)
            agent.activate_with(req.assignment)
