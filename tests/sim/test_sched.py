"""Tests for the kernel's event queue: ordering, tombstone
cancellation, timer pooling, and the hooks facade."""

import warnings

import pytest

from repro.sim import Environment, HeapScheduler, SimHooks, Timer
from repro.sim.engine import _TIMER_POOL_MAX


# ----------------------------------------------------------------------
# pop order
# ----------------------------------------------------------------------
def _drain(sched):
    out = []
    while len(sched):
        out.append(sched.pop())
    return out


class TestOrdering:
    ENTRIES = [
        # (time, priority, eid) tuples crafted to tie on time and on
        # priority, and to arrive far out of order
        (25.0, 1, 0),
        (3.0, 1, 1),
        (3.0, 0, 2),
        (3.0, 1, 3),
        (0.0, 1, 4),
        (99.5, -1, 5),
        (10.0, 1, 6),
        (9.999, 1, 7),
        (10.0, 0, 8),
        (55.0, 1, 9),
        (0.0, 0, 10),
    ]

    def test_pops_in_time_priority_eid_order(self):
        heap = HeapScheduler()
        for entry in self.ENTRIES:
            heap.push(entry + (None,))
        assert [e[:3] for e in _drain(heap)] == sorted(self.ENTRIES)

    def test_interleaved_push_pop(self):
        # each pop returns the least entry pending at that moment
        heap, pending = HeapScheduler(), []
        for i, entry in enumerate(self.ENTRIES):
            heap.push(entry + (None,))
            pending.append(entry)
            if i % 3 == 2:
                least = min(pending)
                pending.remove(least)
                assert heap.pop()[:3] == least
        assert [e[:3] for e in _drain(heap)] == sorted(pending)

    def test_peek_time(self):
        sched = HeapScheduler()
        assert sched.peek_time() == float("inf")
        sched.push((7.0, 1, 0, None))
        sched.push((2.0, 1, 1, None))
        assert sched.peek_time() == 2.0
        sched.pop()
        assert sched.peek_time() == 7.0

    def test_pop_empty_raises_index_error(self):
        with pytest.raises(IndexError):
            HeapScheduler().pop()

# ----------------------------------------------------------------------
# environment integration
# ----------------------------------------------------------------------
class TestEnvironmentSelection:
    def test_default_is_heap(self):
        env = Environment()
        assert isinstance(env.scheduler, HeapScheduler)
        env.call_later(3.0, lambda: None)
        assert len(env) == len(env.scheduler) == 1
        assert env.peek() == 3.0


# ----------------------------------------------------------------------
# timers: cancellation + pooling
# ----------------------------------------------------------------------
class TestTimers:
    def test_call_later_fires_with_args(self):
        env = Environment()
        seen = []
        env.call_later(4.0, seen.append, "x")
        env.run(until=10)
        assert seen == ["x"]

    def test_cancel_before_fire_is_a_noop_dispatch(self):
        env = Environment()
        seen = []
        timer = env.call_later(4.0, seen.append, "x")
        assert isinstance(timer, Timer)
        timer.cancel()
        env.run(until=10)
        assert seen == []
        assert env.now == 10

    def test_tombstone_skip_counted_by_profiler(self):
        from repro.obs.prof import SimProfiler

        env = Environment()
        env.hooks.profiler = prof = SimProfiler()
        env.call_later(1.0, lambda: None).cancel()
        env.call_later(2.0, lambda: None)
        env.run(until=5)
        assert prof.tombstone_skips == 1
        assert prof.report().resources["tombstone_skips"] == 1.0

    def test_fired_timers_are_pooled_and_reused(self):
        env = Environment()
        first = env.call_later(1.0, lambda: None)
        env.run(until=2)
        assert env._timer_pool  # recycled after firing
        second = env.call_later(1.0, lambda: None)
        assert second is first  # same object, reinitialized
        env.run(until=4)

    def test_cancelled_timers_are_recycled_on_skip(self):
        env = Environment()
        t = env.call_later(1.0, lambda: None)
        t.cancel()
        env.call_later(2.0, lambda: None)
        env.run(until=5)
        assert t in env._timer_pool

    def test_pool_is_bounded(self):
        env = Environment()
        for _ in range(_TIMER_POOL_MAX + 100):
            env.call_later(1.0, lambda: None)
        env.run(until=2)
        assert len(env._timer_pool) <= _TIMER_POOL_MAX

    def test_waited_on_timer_is_not_recycled(self):
        env = Environment()
        timer = env.call_later(1.0, lambda: None)
        got = []

        def waiter():
            got.append((yield timer))

        env.process(waiter())
        env.run(until=3)
        assert got == [None]
        assert timer not in env._timer_pool


# ----------------------------------------------------------------------
# hooks facade
# ----------------------------------------------------------------------
class TestHooks:
    def test_hooks_present_and_empty(self):
        env = Environment()
        assert isinstance(env.hooks, SimHooks)
        assert env.hooks.tracer is None
        assert env.hooks.profiler is None

    def test_hooks_api_emits_no_warning(self):
        env = Environment()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env.hooks.tracer = None
            assert env.hooks.profiler is None


# ----------------------------------------------------------------------
# memory layout
# ----------------------------------------------------------------------
class TestSlots:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda env: env.event(),
            lambda env: env.timeout(1.0),
            lambda env: env.call_later(1.0, lambda: None),
        ],
        ids=["Event", "Timeout", "Timer"],
    )
    def test_hot_events_have_no_dict(self, factory):
        obj = factory(Environment())
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.scratch = 1

    def test_message_has_no_dict(self):
        from repro.net.message import Message

        msg = Message(kind="packet", src="a", dst="b", body=None)
        assert not hasattr(msg, "__dict__")

    def test_first_send_on_a_clean_link_adds_one_tracked_object(self):
        """A clean directed link is one GC-tracked object: the counters
        live in the channel and a constant latency is kept as a float."""
        import gc

        from repro.net.latency import ConstantLatency
        from repro.net.overlay import Overlay

        env = Environment()
        # per-pair constant latencies, as sessions draw them
        overlay = Overlay(
            env, latency_factory=lambda src, dst: ConstantLatency(10.0)
        )
        for node_id in ("warm", "a", "b"):
            overlay.add_node(node_id).on_deliver = lambda message: None
        # fill the timer pool and the traffic counters' keys first
        overlay.send("warm", "a", "control")
        env.run()

        def tracked():
            # a collection untracks the tuples it finds holding only
            # atoms, so repeat until the census is stable
            for _ in range(3):
                gc.collect()
            return len(gc.get_objects())

        before = tracked()
        overlay.send("a", "b", "control")
        env.run()
        # was three: Channel, ChannelStats and the pair's ConstantLatency
        assert tracked() - before <= 1
        assert ("a", "b") in overlay.channels

    def test_scheduled_channel_delivery_holds_no_bound_method(self):
        import gc
        import inspect

        from repro.net.overlay import Overlay
        from repro.sim.events import fire_timer

        env = Environment()
        overlay = Overlay(env)
        overlay.add_node("a")
        overlay.add_node("b")
        overlay.send("a", "b", "control")
        (entry,) = env.scheduler._queue
        timer = entry[3]
        assert type(timer) is Timer
        assert timer.callbacks == [fire_timer]
        held = [
            *gc.get_referents(timer), *timer.callbacks, *timer._args
        ]
        assert not any(inspect.ismethod(obj) for obj in held)
        env.run()
        assert overlay.nodes["b"].mailbox.items
