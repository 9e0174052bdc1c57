"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

from itertools import count
from typing import Any, Generator, Optional, Union

from repro.sim.events import AllOf, AnyOf, Event, NORMAL, Timeout, Timer
from repro.sim.process import Process
from repro.sim.sched import HeapScheduler

#: Fired timers are recycled through a bounded free list; past this size
#: they are simply dropped for the garbage collector.
_TIMER_POOL_MAX = 512


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at an event."""

    @classmethod
    def callback(cls, event: Event) -> None:
        if event.ok:
            raise cls(event.value)
        event.defused()
        raise event.value


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class SimHooks:
    """Instrumentation facade: the one opt-in slot the hot path checks.

    Every instrumented site reads ``env.hooks`` (always present) and
    guards on its ``tracer`` / ``profiler`` members being ``None``::

        tr = self.env.hooks.tracer
        if tr is not None:
            tr.emit("msg.send", src, dst=dst, kind=kind)

    so an uninstrumented run pays one attribute load plus one ``None``
    check per hook and builds no strings or kwargs.  ``tracer`` is a
    :class:`repro.obs.trace.TraceBus` when the owning session enables
    tracing; ``profiler`` is a :class:`repro.obs.prof.SimProfiler` when
    profiling is on.  Both are passive observers (no RNG draws, no
    scheduling), so instrumented trajectories are byte-identical to
    uninstrumented ones.
    """

    __slots__ = ("tracer", "profiler")

    def __init__(self) -> None:
        self.tracer = None
        self.profiler = None


class Environment:
    """A discrete-event simulation environment.

    Time starts at ``initial_time`` and only advances through event
    processing; the unit is whatever the model chooses (this reproduction
    uses milliseconds throughout).

    Pending events live in a :class:`~repro.sim.sched.HeapScheduler`,
    popped in ``(time, priority, eid)`` order.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = initial_time
        self._sched = HeapScheduler()
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: instrumentation facade — always present; see :class:`SimHooks`
        self.hooks = SimHooks()
        self._timer_pool: list[Timer] = []

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def scheduler(self) -> HeapScheduler:
        """The event queue holding this environment's pending events."""
        return self._sched

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain.

        Tombstoned (cancelled) entries still count until popped, so the
        reported time is a lower bound on the next *processed* event.
        """
        return self._sched.peek_time()

    def __len__(self) -> int:
        return len(self._sched)

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator)

    def call_later(self, delay: float, fn, *args) -> Timer:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        The cheap fire-and-forget path: one scheduled event, no generator
        machinery.  Returns the :class:`Timer`, whose ``cancel()``
        tombstones it (lazy removal).  Fired timers are pooled — do not
        cancel a handle after its scheduled instant.
        """
        pool = self._timer_pool
        if pool:
            timer = pool.pop()
            timer._fn = fn
            timer._args = args
            timer.callbacks = [timer._fire]
            timer._tombstone = False
            self._schedule(timer, NORMAL, delay)
            return timer
        return Timer(self, delay, fn, args)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # scheduling / execution
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        sched = self._sched
        sched.push((self._now + delay, priority, next(self._eid), event))
        profiler = self.hooks.profiler
        if profiler is not None:
            profiler.note_schedule(len(sched))

    def _recycle(self, timer: Timer) -> None:
        timer._fn = None
        timer._args = ()
        pool = self._timer_pool
        if len(pool) < _TIMER_POOL_MAX:
            pool.append(timer)

    def step(self) -> None:
        """Process the next scheduled event.

        Tombstoned (cancelled) entries are discarded unprocessed.  Raises
        :class:`EmptySchedule` when the queue is empty, and re-raises any
        *un-defused* event failure (a process crash nobody waited on) so
        model bugs surface instead of silently vanishing.
        """
        sched = self._sched
        profiler = self.hooks.profiler
        while True:
            try:
                now, _, _, event = sched.pop()
            except IndexError:
                raise EmptySchedule() from None
            if not event._tombstone:
                break
            if profiler is not None:
                profiler.note_skip()
            if type(event) is Timer:
                self._recycle(event)

        self._now = now
        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None
        if profiler is None:
            for callback in callbacks:
                callback(event)
        else:
            # identical call order and exception propagation, with a
            # perf_counter bracket around each callback
            profiler.dispatch(self._now, event, callbacks, len(sched))

        if not event._ok and not event._defused:
            exc = event._value
            raise exc
        if type(event) is Timer and len(callbacks) == 1:
            # nobody else held a wait on it — safe to reuse
            self._recycle(event)

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a number (run to that
        simulated time), or an :class:`Event` (run until it is processed and
        return its value).
        """
        at_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            at_event = until
            if at_event.callbacks is None:
                # Already processed.
                if at_event.ok:
                    return at_event.value
                raise at_event.value
            at_event.callbacks.append(StopSimulation.callback)
        else:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon} lies in the past (now={self._now})"
                )
            at_event = Event(self)
            at_event._ok = True
            at_event._value = None
            # Priority below NORMAL-scheduled events at the same time would
            # process them first; we want the horizon to win, so use a
            # priority that sorts ahead of everything at `horizon`.
            self._sched.push((horizon, -1, next(self._eid), at_event))
            profiler = self.hooks.profiler
            if profiler is not None:
                profiler.note_schedule(len(self._sched))
            at_event.callbacks.append(StopSimulation.callback)

        try:
            while True:
                self.step()
        except StopSimulation as stop:
            return stop.args[0] if stop.args else None
        except EmptySchedule:
            if at_event is not None and not at_event.triggered:
                if isinstance(until, Event):
                    raise RuntimeError(
                        "simulation ran out of events before "
                        f"{until!r} was triggered"
                    ) from None
            return None
