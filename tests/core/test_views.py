"""Peer views as bitmasks agree with the set model they replace.

A contents peer's view ``VW_i`` is an ``int`` over the session's peers
(bit i = the i-th peer id in sorted order).  The reference below is the
``set`` representation: ``VW_i ∪ VW_j`` as a set union, ``|VW_i| >= n``
as its length, and ``Select`` drawing from ``sorted(set(peers) - VW_i)``.
Every observable — the view's members, ``view_full``, the children
``select_children`` returns and the RNG draws it makes — must match.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DCoP, ProtocolConfig
from repro.core.views import PeerViews
from repro.streaming import SessionSpec
from repro.streaming.contents_peer import ContentsPeerAgent

#: plain ``CP{i}`` ids (sorted order is not numeric order past CP9)
plain_ids = st.integers(min_value=1, max_value=40).map(
    lambda n: [f"CP{i}" for i in range(1, n + 1)]
)
#: arbitrary unique names, as a swarm or a user may give its peers
named_ids = st.lists(
    st.text(
        alphabet="abcXYZ019-/_:.", min_size=1, max_size=6
    ),
    min_size=1,
    max_size=40,
    unique=True,
).map(lambda ids: [f"peer/{pid}" for pid in ids])


def _agent_for(peer_ids, owner, seed):
    """A contents peer of a session whose peers are ``peer_ids``."""
    n = len(peer_ids)
    session = SessionSpec(
        ProtocolConfig(n=n, H=1, content_packets=1, seed=0), DCoP()
    ).build()
    session.peer_ids = list(peer_ids)
    session.views = PeerViews(peer_ids)
    # a CP{i} owner reuses the session's node for that id
    agent = ContentsPeerAgent(
        session, owner, node=session.overlay.nodes.get(owner)
    )
    agent.rng = np.random.default_rng(seed)
    return agent


def _reference_select(peer_ids, view, m, rng):
    """``select_children`` as the set model computes it."""
    candidates = sorted(set(peer_ids) - view)
    if not candidates or m == 0:
        return []
    k = min(m, len(candidates))
    picked = rng.choice(len(candidates), size=k, replace=False)
    return [candidates[i] for i in sorted(picked)]


ops = st.lists(
    st.one_of(
        st.tuples(st.just("merge"), st.lists(st.integers(0, 10**6), max_size=8)),
        st.tuples(st.just("select"), st.integers(0, 12)),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(
    peer_ids=st.one_of(plain_ids, named_ids),
    owner_pick=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
    steps=ops,
)
def test_bitmask_view_matches_the_set_model(peer_ids, owner_pick, seed, steps):
    owner = peer_ids[owner_pick % len(peer_ids)]
    agent = _agent_for(peer_ids, owner, seed)
    views = agent.session.views
    ref_view = {owner}
    ref_rng = np.random.default_rng(seed)
    n = len(peer_ids)

    for op, arg in steps:
        if op == "merge":
            merged = {peer_ids[i % n] for i in arg}
            agent.merge_view(views.mask(merged))
            ref_view |= merged
        else:
            got = agent.select_children(arg)
            want = _reference_select(peer_ids, ref_view, arg, ref_rng)
            assert got == want
            # same draws: both generators are in the same state after
            assert (
                agent.rng.bit_generator.state == ref_rng.bit_generator.state
            )
            # the protocols merge what they selected
            agent.merge_view(views.mask(got))
            ref_view |= set(got)
        assert views.members(agent.view) == sorted(ref_view)
        assert agent.view.bit_count() == len(ref_view)
        assert agent.view_full == (len(ref_view) >= n)


@settings(max_examples=60, deadline=None)
@given(peer_ids=st.one_of(plain_ids, named_ids), data=st.data())
def test_mask_and_members_round_trip(peer_ids, data):
    views = PeerViews(peer_ids)
    subset = data.draw(st.sets(st.sampled_from(peer_ids)))
    view = views.mask(subset)
    assert views.members(view) == sorted(subset)
    assert view.bit_count() == len(subset)
    assert views.mask(peer_ids) == views.full
    assert views.members(views.full & ~view) == sorted(set(peer_ids) - subset)


def test_duplicate_peer_ids_are_rejected():
    with pytest.raises(ValueError, match="unique"):
        PeerViews(["CP1", "CP2", "CP1"])


def test_unknown_peer_id_has_no_bit():
    with pytest.raises(KeyError):
        PeerViews(["CP1", "CP2"]).mask(["leaf"])
