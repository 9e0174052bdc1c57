"""Single-source streaming — the traditional model §2 argues against.

One contents peer serves the entire content at the content rate.  The peer
is a single point of failure and a bandwidth bottleneck; the fault-
tolerance ablation bench crashes it mid-stream to quantify exactly that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.base import (
    Assignment,
    CoordinationProtocol,
    RequestMessage,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.contents_peer import ContentsPeerAgent
    from repro.streaming.session import StreamingSession


class SingleSourceStreaming(CoordinationProtocol):
    """One peer, the whole content, no parity, no coordination.

    ``server_id`` pins the serving peer (a real content provider is a fixed
    host — every leaf hits the same server, which is exactly the §2
    bottleneck argument the multi-leaf ablation measures); ``None`` lets
    the leaf pick a random peer.
    """

    name = "SingleSource"

    def __init__(self, server_id: str | None = None) -> None:
        self.server_id = server_id

    def initiate(self, session: "StreamingSession") -> None:
        cfg = session.config
        server = (
            self.server_id
            if self.server_id is not None
            else session.leaf_select(1)[0]
        )
        if server not in session.peers:
            raise ValueError(f"unknown server {server!r}")
        session.expected_active = {server}
        assignment = Assignment(
            basis=session.content.packet_sequence(),
            n_parts=1,
            index=0,
            interval=0,
            rate=cfg.tau,
        )
        session.overlay.send(
            session.leaf.peer_id,
            server,
            "request",
            body=RequestMessage(
                session.leaf.peer_id, session.views.bit[server], assignment
            ),
            size_bytes=cfg.control_size,
        )

    def handle_peer_message(self, agent: "ContentsPeerAgent", message) -> None:
        if message.kind == "request":
            req: RequestMessage = message.body
            agent.merge_view(req.view)
            agent.activate_with(req.assignment)
