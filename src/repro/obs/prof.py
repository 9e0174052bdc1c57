"""The instrumenting simulator profiler: where wall-time and memory go.

The `repro.obs` trace/metrics/audit stack observes protocol *correctness*;
this module observes *cost*.  A :class:`SimProfiler` hangs on the
environment (``env.hooks.profiler``, the same opt-in slot pattern as
``env.hooks.tracer``) and the engine routes every event dispatch through
:meth:`SimProfiler.dispatch`, which

* times each callback with ``time.perf_counter`` and attributes the
  exclusive wall-time to a **callback site** (the resumed generator or
  bound method) and its **subsystem** (engine, overlay, protocol, agents,
  fec, media, tracing, harness — derived from the defining module);
* classifies the dispatched event by **kind** (``Timeout``, ``Process``,
  ``_Initialize``, …);
* maintains **scheduler telemetry**: heap-depth high-water mark, events
  scheduled vs processed (churn), cancelled-event waste (events popped
  with an empty callback list — heap traffic nobody consumed), and
  deterministic heap-depth samples against *simulated* time, exported as
  Perfetto counter tracks;
* separately meters **tracing itself**: when the session also traces,
  :meth:`instrument_trace_bus` wraps ``TraceBus.emit`` so the time spent
  recording events is carved out of the emitting callback's share and
  attributed to the ``tracing`` subsystem.

The profiler is **passive**: it draws no random numbers, schedules no
events, and never touches model state, so a profiled run follows a
byte-identical trajectory (traces, receipt tables, audit verdicts) to an
unprofiled equal-seed run — pinned by ``tests/obs/test_prof.py``.  Only
the wall-clock figures inside the resulting :class:`ProfileReport` are
machine-dependent; the trajectory-derived counters (events processed,
heap peak, counter-sample positions) are deterministic.

Resource telemetry rides along: peak RSS (``resource.getrusage``, where
available), optional ``tracemalloc`` peak, allocation counters (events
scheduled ≈ Event allocations, messages sent ≈ Message allocations),
trace-buffer growth, and the cyclic garbage collector's pauses during the
run (``gc_s`` and collections per generation, timed through
``gc.callbacks``, which the profiler joins only while its window is open).

Enable through the spec::

    spec = SessionSpec(config, profile=ProfileConfig())
    result = spec.run()
    result.profile.subsystems["agents"]["wall_s"]
    result.profile.to_collapsed()      # flamegraph.pl / speedscope input

or on the CLI: ``repro-experiments perf --protocol dcop``.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.sim.events import fire_timer
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import TraceBus
    from repro.sim.events import Event
    from repro.streaming.session import StreamingSession

__all__ = [
    "ProfileConfig",
    "ProfileReport",
    "SimProfiler",
    "subsystem_of_module",
]

#: top-level ``repro.<package>`` → named subsystem of the attribution
#: tables; anything outside ``repro`` lands in ``other``
_SUBSYSTEM_BY_PACKAGE = {
    "sim": "engine",
    "net": "overlay",
    "core": "protocol",
    "groupcomm": "protocol",
    "streaming": "agents",
    "fec": "fec",
    "media": "media",
    "obs": "tracing",
    "metrics": "tracing",
    "experiments": "harness",
    "analysis": "harness",
    "viz": "harness",
}

#: every subsystem a report may name (fixed vocabulary, docs-facing)
SUBSYSTEMS = (
    "engine", "overlay", "protocol", "agents", "fec",
    "media", "tracing", "harness", "other",
)


def subsystem_of_module(module: str) -> str:
    """``repro.net.channel`` → ``overlay``; unknown modules → ``other``."""
    parts = module.split(".")
    if parts and parts[0] == "repro" and len(parts) > 1:
        return _SUBSYSTEM_BY_PACKAGE.get(parts[1], "other")
    return "other"


def _subsystem_of_file(filename: str) -> str:
    """Attribute a code object by its defining file's package."""
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro" and i + 1 < len(parts):
            nxt = parts[i + 1]
            if nxt.endswith(".py"):
                return "other"  # a top-level repro module
            return _SUBSYSTEM_BY_PACKAGE.get(nxt, "other")
    return "other"


@dataclass(frozen=True)
class ProfileConfig:
    """What the profiler records and how densely it samples.

    ``sample_every`` is counted in *dispatches* (not wall time), so the
    counter-sample positions are a pure function of the trajectory and
    two equal-seed profiled runs sample at identical simulated instants.
    When ``max_samples`` would be exceeded the stride doubles and the
    collected samples are decimated (every other one kept) — still
    deterministic.  ``trace_malloc`` turns on :mod:`tracemalloc` for the
    run (noticeably slower; off by default).
    """

    sample_every: int = 256
    max_samples: int = 4096
    trace_malloc: bool = False

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.max_samples < 2:
            raise ValueError("max_samples must be >= 2")


@dataclass
class ProfileReport:
    """One profiled run, as plain JSON-able data.

    ``subsystems``/``sites``/``event_kinds`` attribute the measured
    dispatch wall-time; ``counters`` holds the deterministic sim-time
    sample tracks the Perfetto exporter turns into counter rails;
    ``resources`` is the memory/allocation telemetry.  Round-trips
    through :meth:`to_dict`/:meth:`from_dict` exactly like trace and
    audit artifacts do through ``SessionResult.detach()``.
    """

    protocol: str
    seed: int
    sim_time_ms: float
    wall_s: float
    dispatch_wall_s: float
    events_processed: int
    events_scheduled: int
    cancelled_events: int
    heap_peak: int
    callback_calls: int
    #: subsystem -> {"calls", "wall_s", "share"} (share of dispatch wall)
    subsystems: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: descending wall-time: {"subsystem", "site", "calls", "wall_s"}
    sites: List[Dict[str, Any]] = field(default_factory=list)
    #: event class name -> {"count", "wall_s"}
    event_kinds: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: parallel sample arrays: ts_ms, heap_depth, events_processed
    counters: Dict[str, List[float]] = field(default_factory=dict)
    resources: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # derived figures
    # ------------------------------------------------------------------
    @property
    def events_per_wall_s(self) -> float:
        """Dispatch throughput — the kernel-optimization headline number."""
        return self.events_processed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def events_per_sim_ms(self) -> float:
        """Event churn per simulated millisecond (machine-independent)."""
        if self.sim_time_ms <= 0:
            return 0.0
        return self.events_processed / self.sim_time_ms

    @property
    def sim_ms_per_wall_s(self) -> float:
        """Simulated milliseconds advanced per wall-clock second.

        The batched-media headline: batching cuts *events* per simulated
        packet, so the same session fast-forwards through more simulated
        time per second of wall clock even though ``events_per_wall_s``
        (a per-event dispatch cost) barely moves.
        """
        return self.sim_time_ms / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def attributed_share(self) -> float:
        """Fraction of dispatch wall-time attributed to *named* subsystems
        (everything except ``other``).  The acceptance bar is ≥ 0.95."""
        if self.dispatch_wall_s <= 0:
            return 1.0
        named = sum(
            entry["wall_s"]
            for name, entry in self.subsystems.items()
            if name != "other"
        )
        return named / self.dispatch_wall_s

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "profile_report",
            "protocol": self.protocol,
            "seed": self.seed,
            "sim_time_ms": self.sim_time_ms,
            "wall_s": self.wall_s,
            "dispatch_wall_s": self.dispatch_wall_s,
            "events_processed": self.events_processed,
            "events_scheduled": self.events_scheduled,
            "cancelled_events": self.cancelled_events,
            "heap_peak": self.heap_peak,
            "callback_calls": self.callback_calls,
            "events_per_wall_s": self.events_per_wall_s,
            "events_per_sim_ms": self.events_per_sim_ms,
            "sim_ms_per_wall_s": self.sim_ms_per_wall_s,
            "attributed_share": self.attributed_share,
            "subsystems": self.subsystems,
            "sites": self.sites,
            "event_kinds": self.event_kinds,
            "counters": self.counters,
            "resources": self.resources,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ProfileReport":
        if payload.get("type") != "profile_report":
            raise ValueError(
                f"not a profile_report payload: {payload.get('type')!r}"
            )
        return cls(
            protocol=payload["protocol"],
            seed=payload["seed"],
            sim_time_ms=payload["sim_time_ms"],
            wall_s=payload["wall_s"],
            dispatch_wall_s=payload["dispatch_wall_s"],
            events_processed=payload["events_processed"],
            events_scheduled=payload["events_scheduled"],
            cancelled_events=payload["cancelled_events"],
            heap_peak=payload["heap_peak"],
            callback_calls=payload["callback_calls"],
            subsystems=payload.get("subsystems", {}),
            sites=payload.get("sites", []),
            event_kinds=payload.get("event_kinds", {}),
            counters=payload.get("counters", {}),
            resources=payload.get("resources", {}),
        )

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True)
        )

    @classmethod
    def read(cls, path: Union[str, Path]) -> "ProfileReport":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------
    # flamegraph export
    # ------------------------------------------------------------------
    def to_collapsed(self) -> str:
        """Collapsed-stack lines for flamegraph.pl / speedscope / inferno.

        One line per attributed site — ``repro;<subsystem>;<site> <µs>``
        — plus a trailing frame for dispatch overhead the callbacks did
        not account for (heap pops, bookkeeping).
        """
        lines = []
        for entry in self.sites:
            us = int(round(entry["wall_s"] * 1e6))
            if us <= 0:
                continue
            site = str(entry["site"]).replace(";", ",").replace(" ", "_")
            lines.append(f"repro;{entry['subsystem']};{site} {us}")
        accounted = sum(e["wall_s"] for e in self.sites)
        overhead_us = int(round(max(0.0, self.dispatch_wall_s - accounted) * 1e6))
        if overhead_us > 0:
            lines.append(f"repro;engine;dispatch_overhead {overhead_us}")
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    def summary(self, top: int = 0) -> str:
        """Human-readable digest (the ``perf`` subcommand's headline).

        With ``top > 0``, appends the N hottest callback sites, one
        per line.
        """
        shares = ", ".join(
            f"{name}={entry['share']:.0%}"
            for name, entry in sorted(
                self.subsystems.items(),
                key=lambda kv: -kv[1]["wall_s"],
            )
        )
        lines = [
            f"{self.protocol} seed={self.seed}: "
            f"{self.events_processed} events in {self.wall_s:.3f}s wall "
            f"({self.events_per_wall_s:,.0f} ev/s, "
            f"{self.events_per_sim_ms:.1f} ev/sim-ms), "
            f"heap peak {self.heap_peak}, "
            f"cancelled {self.cancelled_events}, "
            f"attributed {self.attributed_share:.1%} [{shares}]"
        ]
        res = self.resources
        if "gc_s" in res:
            gens = [res.get(f"gc_collections_gen{g}", 0.0) for g in range(3)]
            lines.append(
                f"  gc: {res['gc_s']:.3f}s in {int(sum(gens))} collections "
                f"(gen0 {int(gens[0])}, gen1 {int(gens[1])}, "
                f"gen2 {int(gens[2])})"
            )
        for site in self.sites[:top] if top > 0 else []:
            lines.append(
                f"  {site['wall_s'] * 1e3:9.3f} ms  {site['calls']:>8} "
                f"calls  {site['subsystem']}:{site['site']}"
            )
        return "\n".join(lines)


class SimProfiler:
    """Passive wall-time/allocation profiler for one simulation run.

    Installed on ``env.hooks.profiler`` by the session when
    ``SessionSpec.profile`` is set; the engine's ``step``/``_schedule``
    call :meth:`dispatch`/:meth:`note_schedule`.  All accounting is
    read-only with respect to the model, so enabling it cannot perturb
    the trajectory.
    """

    def __init__(self, config: Optional[ProfileConfig] = None) -> None:
        self.config = config if config is not None else ProfileConfig()
        #: (subsystem, site) -> [calls, wall_s]
        self._sites: Dict[Tuple[str, str], List[float]] = {}
        #: event class name -> [count, wall_s]
        self._event_kinds: Dict[str, List[float]] = {}
        self._code_site: Dict[Any, Tuple[str, str]] = {}
        self.dispatches = 0
        self.callback_calls = 0
        self.scheduled = 0
        self.cancelled = 0
        self.tombstone_skips = 0
        self.heap_peak = 0
        self.dispatch_wall = 0.0
        #: wall spent inside instrumented TraceBus.emit during the
        #: currently running callback (carved out of its share)
        self._nested_wall = 0.0
        self._emit_depth = 0
        self._stride = self.config.sample_every
        self._samples_ts: List[float] = []
        self._samples_heap: List[int] = []
        self._samples_events: List[int] = []
        self._wall = 0.0
        self._started_at: Optional[float] = None
        self._tracemalloc_peak = 0
        #: cyclic-GC pauses inside the run window (see :meth:`_on_gc`)
        self._gc_wall = 0.0
        self._gc_collections = [0, 0, 0]
        self._gc_started: Optional[float] = None

    # ------------------------------------------------------------------
    # run bracketing
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open a run window (sessions bracket ``env.run`` with this)."""
        if self._started_at is None:
            self._started_at = perf_counter()
            gc.callbacks.append(self._on_gc)
            if self.config.trace_malloc:
                import tracemalloc

                if not tracemalloc.is_tracing():
                    tracemalloc.start()

    def stop(self) -> None:
        """Close the window; repeated ``run()`` calls accumulate."""
        if self._started_at is not None:
            self._wall += perf_counter() - self._started_at
            self._started_at = None
            gc.callbacks.remove(self._on_gc)
            self._gc_started = None
            if self.config.trace_malloc:
                import tracemalloc

                if tracemalloc.is_tracing():
                    _, peak = tracemalloc.get_traced_memory()
                    self._tracemalloc_peak = max(self._tracemalloc_peak, peak)
                    tracemalloc.stop()

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """``gc.callbacks`` hook: time one collection, count its generation."""
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None:
            self._gc_wall += perf_counter() - self._gc_started
            self._gc_started = None
            self._gc_collections[info["generation"]] += 1

    @property
    def wall_s(self) -> float:
        if self._started_at is not None:
            return self._wall + (perf_counter() - self._started_at)
        return self._wall

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def note_schedule(self, heap_len: int) -> None:
        """One event pushed; ``heap_len`` is the depth after the push."""
        self.scheduled += 1
        if heap_len > self.heap_peak:
            self.heap_peak = heap_len

    def note_skip(self) -> None:
        """One tombstoned entry discarded by the pop loop (lazy cancel)."""
        self.tombstone_skips += 1

    def dispatch(self, now: float, event: "Event", callbacks, heap_len: int) -> None:
        """Run one popped event's callbacks, timed and attributed.

        Exactly replicates the engine's bare loop (same call order, same
        exception propagation) with a ``perf_counter`` bracket around
        each callback.
        """
        t0 = perf_counter()
        self.dispatches += 1
        if not callbacks:
            self.cancelled += 1
        try:
            for callback in callbacks:
                nested0 = self._nested_wall
                c0 = perf_counter()
                try:
                    callback(event)
                finally:
                    dt = perf_counter() - c0
                    nested = self._nested_wall - nested0
                    self.callback_calls += 1
                    key = self._site_of(callback, event)
                    stat = self._sites.get(key)
                    if stat is None:
                        stat = self._sites[key] = [0, 0.0]
                    stat[0] += 1
                    stat[1] += max(0.0, dt - nested)
        finally:
            total = perf_counter() - t0
            self.dispatch_wall += total
            kind = type(event).__name__
            kstat = self._event_kinds.get(kind)
            if kstat is None:
                kstat = self._event_kinds[kind] = [0, 0.0]
            kstat[0] += 1
            kstat[1] += total
            if self.dispatches % self._stride == 0:
                self._sample(now, heap_len)

    def _sample(self, now: float, heap_len: int) -> None:
        self._samples_ts.append(now)
        self._samples_heap.append(heap_len)
        self._samples_events.append(self.dispatches)
        if len(self._samples_ts) >= self.config.max_samples:
            # decimate and double the stride — stays deterministic
            self._samples_ts = self._samples_ts[::2]
            self._samples_heap = self._samples_heap[::2]
            self._samples_events = self._samples_events[::2]
            self._stride *= 2

    # ------------------------------------------------------------------
    # attribution
    # ------------------------------------------------------------------
    def _site_of(self, callback, event=None) -> Tuple[str, str]:
        """(subsystem, site) for one callback dispatched on ``event``.

        A :class:`~repro.sim.events.Timer`'s callback is a trampoline,
        attributed to the timer's payload ``_fn`` (a channel delivery
        lands in ``overlay``, not ``engine``); a
        :class:`~repro.sim.process.Process` resumption to the *generator
        it drives* (that is where the time goes); any other bound method
        or function to its defining module.  Results are cached by code
        object.
        """
        if callback is fire_timer and event._fn is not None:
            return self._site_of(event._fn)
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Process):
            code = owner._generator.gi_code
            cached = self._code_site.get(code)
            if cached is None:
                qualname = getattr(
                    owner._generator, "__qualname__", code.co_name
                )
                cached = (_subsystem_of_file(code.co_filename), qualname)
                self._code_site[code] = cached
            return cached
        func = getattr(callback, "__func__", callback)
        code = getattr(func, "__code__", func)
        cached = self._code_site.get(code)
        if cached is None:
            module = getattr(func, "__module__", "") or ""
            site = getattr(func, "__qualname__", None) or repr(func)
            cached = (subsystem_of_module(module), site)
            self._code_site[code] = cached
        return cached

    # ------------------------------------------------------------------
    # tracing-overhead metering
    # ------------------------------------------------------------------
    def instrument_trace_bus(self, bus: "TraceBus") -> None:
        """Wrap ``bus.emit`` so trace-recording time is attributed to the
        ``tracing`` subsystem instead of the emitting callback.

        Pure pass-through — arguments and behavior are untouched, only a
        ``perf_counter`` bracket is added, so the traced event stream is
        byte-identical.  Re-entrant emits (an auditor publishing an
        ``audit.violation`` from inside a subscriber callback) are only
        metered at the outermost level to avoid double counting.
        """
        original = bus.emit
        profiler = self

        def timed_emit(kind: str, subject: str, /, **data) -> None:
            if profiler._emit_depth:
                return original(kind, subject, **data)
            profiler._emit_depth += 1
            t0 = perf_counter()
            try:
                return original(kind, subject, **data)
            finally:
                dt = perf_counter() - t0
                profiler._emit_depth -= 1
                profiler._nested_wall += dt
                stat = profiler._sites.get(("tracing", "TraceBus.emit"))
                if stat is None:
                    stat = profiler._sites[("tracing", "TraceBus.emit")] = [0, 0.0]
                stat[0] += 1
                stat[1] += dt

        bus.emit = timed_emit  # instance attribute shadows the method

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self, session: Optional["StreamingSession"] = None) -> ProfileReport:
        """Fold the counters into a :class:`ProfileReport`.

        With a ``session``, the report is labelled with its protocol and
        seed and the resource telemetry includes overlay/trace growth.
        """
        subsystems: Dict[str, Dict[str, float]] = {}
        for (subsystem, _site), (calls, wall) in self._sites.items():
            entry = subsystems.setdefault(
                subsystem, {"calls": 0, "wall_s": 0.0, "share": 0.0}
            )
            entry["calls"] += calls
            entry["wall_s"] += wall
        dispatch_wall = self.dispatch_wall
        for entry in subsystems.values():
            entry["share"] = (
                entry["wall_s"] / dispatch_wall if dispatch_wall > 0 else 0.0
            )
        sites = [
            {
                "subsystem": subsystem,
                "site": site,
                "calls": int(calls),
                "wall_s": wall,
            }
            for (subsystem, site), (calls, wall) in self._sites.items()
        ]
        # the residual between the outer dispatch bracket and the summed
        # per-callback brackets is heap-pop/accounting overhead — book it
        # against the engine so the ledger always adds up to 100%
        residual = dispatch_wall - sum(wall for _c, wall in self._sites.values())
        if residual > 0:
            entry = subsystems.setdefault(
                "engine", {"calls": 0, "wall_s": 0.0, "share": 0.0}
            )
            entry["wall_s"] += residual
            entry["share"] = (
                entry["wall_s"] / dispatch_wall if dispatch_wall > 0 else 0.0
            )
            sites.append(
                {
                    "subsystem": "engine",
                    "site": "[dispatch overhead]",
                    "calls": int(self.dispatches),
                    "wall_s": residual,
                }
            )
        sites.sort(key=lambda e: (-e["wall_s"], e["subsystem"], e["site"]))
        event_kinds = {
            kind: {"count": int(count), "wall_s": wall}
            for kind, (count, wall) in sorted(self._event_kinds.items())
        }

        resources: Dict[str, float] = {
            "events_scheduled": self.scheduled,
            "heap_peak": self.heap_peak,
            "tombstone_skips": float(self.tombstone_skips),
            "gc_s": self._gc_wall,
            **{
                f"gc_collections_gen{generation}": float(count)
                for generation, count in enumerate(self._gc_collections)
            },
        }
        try:
            import resource as _resource

            resources["peak_rss_kb"] = float(
                _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
            )
        except (ImportError, AttributeError):  # pragma: no cover - win
            pass
        if self._tracemalloc_peak:
            resources["tracemalloc_peak_kb"] = self._tracemalloc_peak / 1024.0
        elif self.config.trace_malloc:
            import tracemalloc

            if tracemalloc.is_tracing():
                _, peak = tracemalloc.get_traced_memory()
                resources["tracemalloc_peak_kb"] = peak / 1024.0

        protocol = "?"
        seed = -1
        sim_time = 0.0
        if session is not None:
            protocol = session.protocol.name
            seed = session.config.seed
            sim_time = session.env.now
            traffic = session.overlay.traffic
            resources["messages_sent"] = float(traffic.total_sent())
            bus = session.trace_bus
            if bus is not None:
                resources["trace_events"] = float(len(bus.events))
                resources["trace_events_dropped"] = float(bus.dropped_events)

        return ProfileReport(
            protocol=protocol,
            seed=seed,
            sim_time_ms=sim_time,
            wall_s=self.wall_s,
            dispatch_wall_s=dispatch_wall,
            events_processed=self.dispatches,
            events_scheduled=self.scheduled,
            cancelled_events=self.cancelled,
            heap_peak=self.heap_peak,
            callback_calls=self.callback_calls,
            subsystems=subsystems,
            sites=sites,
            event_kinds=event_kinds,
            counters={
                "ts_ms": list(self._samples_ts),
                "heap_depth": list(self._samples_heap),
                "events_processed": list(self._samples_events),
            },
            resources=resources,
        )

    def __repr__(self) -> str:
        return (
            f"<SimProfiler {self.dispatches} dispatches, "
            f"{self.callback_calls} callbacks, heap peak {self.heap_peak}>"
        )
