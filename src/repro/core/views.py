"""Peer views as bitmasks over one session's contents peers.

A view ``VW_i`` is a subset of the ``n`` contents peers, so it is stored
as an ``int`` whose bit ``i`` stands for the ``i``-th peer id in sorted
order.  The paper's ``VW_i ∪ VW_j`` is then an integer OR, its
``|VW_i| = n`` termination rule a popcount, and ``CP − VW_i`` the
complement bits — read in ascending order, which is the order
``sorted(set(peer_ids) - view)`` gives.  Merging a view costs a few
machine words instead of a set update over up to ``n`` strings.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple


class PeerViews:
    """The bit assignment of one session's peers, and view arithmetic."""

    __slots__ = ("ids", "bit", "full")

    def __init__(self, peer_ids: Iterable[str]) -> None:
        #: peer ids in bit order (sorted)
        self.ids: Tuple[str, ...] = tuple(sorted(peer_ids))
        #: peer id -> its one-bit mask
        self.bit: Dict[str, int] = {
            pid: 1 << i for i, pid in enumerate(self.ids)
        }
        if len(self.bit) != len(self.ids):
            raise ValueError("peer ids must be unique")
        #: the view holding every peer
        self.full: int = (1 << len(self.ids)) - 1

    def mask(self, peer_ids: Iterable[str]) -> int:
        """The view holding exactly ``peer_ids``."""
        bit = self.bit
        view = 0
        for pid in peer_ids:
            view |= bit[pid]
        return view

    def members(self, view: int) -> List[str]:
        """The peer ids in ``view``, in sorted order."""
        ids = self.ids
        # one pass over the binary digits, least significant first:
        # cheaper than peeling bits off an n-bit int one at a time
        return [
            ids[i] for i, digit in enumerate(bin(view)[:1:-1]) if digit == "1"
        ]
