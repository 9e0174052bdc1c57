"""Discrete-event simulation kernel.

A self-contained, simpy-like discrete-event simulation core used as the
substrate for every timing experiment in this reproduction.  Processes are
plain Python generators that ``yield`` events; the :class:`Environment`
advances simulated time by popping scheduled events from a binary heap and
resuming the processes that wait on them.

The public surface mirrors the small subset of simpy semantics the paper's
simulation needs:

* :class:`Environment` — the event loop / clock.
* :class:`Event`, :class:`Timeout`, :class:`Process` — waitables.
* :class:`AnyOf` / :class:`AllOf` — composite conditions.
* :class:`Interrupt` — asynchronous process interruption.
* :class:`Store`, :class:`PriorityStore`, :class:`FilterStore` — message
  queues used for peer mailboxes.
* :class:`Resource` — capacity-limited resource with FIFO queueing.

Nothing in this package knows about networks or streaming; it is a generic
kernel and unit-tested in isolation.
"""

from repro.sim.engine import Environment, SimHooks, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, Timeout, Timer, ConditionValue
from repro.sim.process import Interrupt, Process
from repro.sim.sched import HeapScheduler
from repro.sim.resources import (
    Preempted,
    PreemptiveResource,
    PriorityRequest,
    PriorityResource,
    Resource,
)
from repro.sim.stores import FilterStore, PriorityItem, PriorityStore, Store
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Environment",
    "Event",
    "FilterStore",
    "HeapScheduler",
    "Interrupt",
    "Preempted",
    "PreemptiveResource",
    "PriorityRequest",
    "PriorityResource",
    "PriorityItem",
    "PriorityStore",
    "Process",
    "RandomStreams",
    "Resource",
    "SimHooks",
    "StopSimulation",
    "Store",
    "Timeout",
    "Timer",
]
