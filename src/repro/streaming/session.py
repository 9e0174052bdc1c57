"""Streaming session: builds the simulated system and collects results.

Sessions are constructed from a declarative
:class:`~repro.streaming.spec.SessionSpec`, via :meth:`SessionSpec.build`
or :meth:`StreamingSession.from_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dataclass_replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.audit import AuditReport, Auditor
    from repro.obs.prof import ProfileReport, SimProfiler
    from repro.obs.spans import SpanBuilder, SpanReport
    from repro.streaming.adaptive import RateAdaptationMonitor
    from repro.streaming.health import HealthMonitor
    from repro.streaming.repair import RepairMonitor
    from repro.streaming.spec import SessionSpec

from repro.core.base import ProtocolConfig
from repro.media.content import MediaContent
from repro.net.latency import ConstantLatency
from repro.net.message import Message
from repro.net.overlay import ControlPlane, Overlay
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceBus, TraceConfig
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.streaming.contents_peer import ContentsPeerAgent
from repro.streaming.detector import FailureDetector
from repro.streaming.leaf_peer import LeafPeerAgent
from repro.streaming.recoordination import ReCoordinator, data_seqs_of


@dataclass
class SessionResult:
    """Everything the experiment harness reads from one run."""

    config: ProtocolConfig
    protocol: str
    #: peer_id -> activation time (ms)
    activation_times: Dict[str, float]
    #: time at which the last contents peer became active, or None
    sync_time: Optional[float]
    #: sync time expressed in δ rounds (the paper's Figures 10–11 y-axis)
    rounds: Optional[int]
    #: coordination messages sent up to (and including) the sync instant
    control_packets_at_sync: int
    #: coordination messages over the whole run
    control_packets_total: int
    messages_by_kind: Dict[str, int]
    #: leaf receipt rate normalized to the content rate (Fig. 12 y-axis)
    receipt_rate: float
    #: fraction of data packets held by the leaf (received or recovered)
    delivery_ratio: float
    recovered_packets: int
    duplicate_packets: int
    #: leaf playback stats (only meaningful when playback enabled)
    underruns: int
    overruns: int
    #: packets dropped at the leaf because arrivals exceeded ρ_s (§3.1)
    receive_overruns: int
    completed_at: Optional[float]
    elapsed: float
    # --- churn-tolerance metrics (defaults keep older call sites valid) ---
    #: control-plane retransmissions per message kind (empty without a
    #: retransmit policy)
    retransmissions_by_kind: Dict[str, int] = field(default_factory=dict)
    #: messages the control plane abandoned after exhausting retries
    retransmit_give_ups: int = 0
    #: duplicate control deliveries suppressed by msg-id dedup
    duplicates_suppressed: int = 0
    #: peers suspected (or confirmed) failed at collection time
    suspected_peers: List[str] = field(default_factory=list)
    confirmed_failures: List[str] = field(default_factory=list)
    #: suspicions raised against peers that were actually alive
    false_suspicions: int = 0
    #: peer -> ms from ground-truth crash to detector confirmation
    detection_latencies: Dict[str, float] = field(default_factory=dict)
    #: residual re-floods performed by the leaf
    recoordinations: int = 0
    #: mean ms from ground-truth crash to residual re-flood, when any
    mean_handoff_latency: Optional[float] = None
    # --- partition / link-fault metrics ----------------------------------
    #: extra message copies produced by duplicating link faults
    link_duplicates: int = 0
    #: link-fault duplicates suppressed by the agents' dedup windows
    link_duplicates_suppressed: int = 0
    #: packets playback abandoned under the buffer's skip policy
    playback_skips: int = 0
    # --- gray-failure / quarantine metrics -------------------------------
    #: circuit-breaker trips performed by the health monitor
    quarantines: int = 0
    #: quarantined peers readmitted after half-open probe successes
    readmissions: int = 0
    #: quarantines of peers with no injected fault of any kind
    false_quarantines: int = 0
    #: peers still quarantined at collection time
    quarantined_peers: List[str] = field(default_factory=list)
    # --- observability handles (present only when tracing was enabled) ---
    #: the session's :class:`~repro.obs.trace.TraceBus`, finalized — or,
    #: after :meth:`detach`, its exported JSON-able dict form
    trace: Union["TraceBus", Dict[str, Any], None] = field(
        default=None, repr=False, compare=False
    )
    #: sampled run time series as a :class:`~repro.metrics.series.SweepSeries`
    #: — or, after :meth:`detach`, its exported JSON-able dict form
    timeseries: Optional[object] = field(
        default=None, repr=False, compare=False
    )
    #: per-run :class:`~repro.obs.audit.AuditReport` (present only when
    #: auditing was enabled) — or, after :meth:`detach`, its dict form
    audit: Union["AuditReport", Dict[str, Any], None] = field(
        default=None, repr=False, compare=False
    )
    #: per-run :class:`~repro.obs.prof.ProfileReport` (present only when
    #: profiling was enabled) — or, after :meth:`detach`, its dict form
    profile: Union["ProfileReport", Dict[str, Any], None] = field(
        default=None, repr=False, compare=False
    )
    #: per-run :class:`~repro.obs.spans.SpanReport` (present only when
    #: span building was enabled) — or, after :meth:`detach`, its dict form
    spans: Union["SpanReport", Dict[str, Any], None] = field(
        default=None, repr=False, compare=False
    )

    @property
    def all_active(self) -> bool:
        return self.sync_time is not None

    @property
    def mean_detection_latency(self) -> Optional[float]:
        if not self.detection_latencies:
            return None
        values = list(self.detection_latencies.values())
        return sum(values) / len(values)

    @property
    def total_retransmissions(self) -> int:
        return sum(self.retransmissions_by_kind.values())

    def summary(self) -> str:
        return (
            f"{self.protocol}: n={self.config.n} H={self.config.H} "
            f"rounds={self.rounds} ctrl@sync={self.control_packets_at_sync} "
            f"ctrl total={self.control_packets_total} "
            f"rate={self.receipt_rate:.3f} delivery={self.delivery_ratio:.3f}"
        )

    def detach(self) -> "SessionResult":
        """A copy safe to pickle and ship across process boundaries.

        The runtime handles are swapped for their exported JSON-able
        forms: ``trace`` (a live :class:`~repro.obs.trace.TraceBus`
        holding the whole simulation object graph) becomes a dict of
        event records plus trace statistics, ``timeseries`` becomes
        the :func:`~repro.metrics.io.series_to_dict` payload, and
        ``audit`` becomes the report's ``to_dict()`` form.  Every
        scalar field is untouched.  Idempotent: detaching an already
        detached (or trace-less) result returns ``self``.

        Sweep executors detach every worker result, so parallel and
        serial sweeps return identical value-only objects.
        """
        from repro.obs.trace import TraceBus

        trace = self.trace
        timeseries = self.timeseries
        audit = self.audit
        profile = self.profile
        spans = self.spans
        detached = False
        if audit is not None and not isinstance(audit, dict):
            audit = audit.to_dict()
            detached = True
        if profile is not None and not isinstance(profile, dict):
            profile = profile.to_dict()
            detached = True
        if spans is not None and not isinstance(spans, dict):
            spans = spans.to_dict()
            detached = True
        if isinstance(trace, TraceBus):
            from repro.obs.exporters import event_to_dict

            trace = {
                "type": "trace",
                "events": [event_to_dict(e) for e in trace.events],
                "dropped_events": trace.dropped_events,
                "counts_by_kind": dict(trace.counts_by_kind),
                "participants": list(trace.participants),
            }
            detached = True
        if timeseries is not None and not isinstance(timeseries, dict):
            from repro.metrics.io import series_to_dict

            timeseries = series_to_dict(timeseries)
            detached = True
        if not detached:
            return self
        return dataclass_replace(
            self,
            trace=trace,
            timeseries=timeseries,
            audit=audit,
            profile=profile,
            spans=spans,
        )


class StreamingSession:
    """One simulated multi-source streaming run.

    Construct from a :class:`~repro.streaming.spec.SessionSpec` —
    ``spec.build()``, :meth:`from_spec`, or ``StreamingSession(spec)`` —
    which captures every knob as a picklable value.  ``swarm`` and
    ``leaf_id`` attach the session to a shared swarm substrate (see
    :meth:`for_swarm`).
    """

    def __init__(
        self,
        spec: "SessionSpec",
        swarm=None,
        leaf_id: Optional[str] = None,
    ) -> None:
        from repro.streaming.spec import (
            SessionSpec,
            resolve_detector_policy,
            resolve_latency,
            resolve_link_fault_factory,
            resolve_loss_factory,
            resolve_protocol,
        )

        if not isinstance(spec, SessionSpec):
            raise TypeError(
                "StreamingSession takes a SessionSpec, not "
                f"{type(spec).__name__}; build a SessionSpec(config=..., "
                "protocol=..., ...) and call spec.build()"
            )
        config = spec.config
        protocol = resolve_protocol(spec.protocol)
        latency = resolve_latency(spec.latency)
        loss_factory = resolve_loss_factory(spec.loss)
        control_loss_factory = resolve_loss_factory(spec.control_loss)
        link_fault_factory = resolve_link_fault_factory(spec.link_fault)
        buffer_capacity = spec.buffer_capacity
        playback = spec.playback
        fault_plan = spec.fault_plan
        repair_policy = spec.repair_policy
        adaptation_policy = spec.adaptation_policy
        leaf_receipt_rate = spec.leaf_receipt_rate
        leaf_receive_buffer = spec.leaf_receive_buffer
        peer_capacities = spec.peer_capacities
        retransmit_policy = spec.retransmit_policy
        detector_policy = resolve_detector_policy(spec.detector_policy)
        churn_plan = spec.churn_plan
        trace = spec.trace
        audit = spec.audit
        spans = spec.spans if spec.spans is not False else None
        if (audit is not None or spans is not None) and trace is None:
            # auditors and span builders subscribe to the bus, so either
            # implies tracing
            trace = TraceConfig()

        self.spec = spec
        self.config = config
        self.protocol = protocol
        #: owning swarm (None outside swarm mode)
        self.swarm = swarm
        #: coordination-context tag stamped on this session's control
        #: traffic: the leaf id in swarm mode, None otherwise
        self.ctx: Optional[str] = leaf_id
        if spec.media_batch < 0:
            raise ValueError("media_batch must be >= 0 (δ units)")
        #: batched media plane: per-slot window in ms (0 = per-packet)
        self.media_batch_window_ms = (
            spec.media_batch * config.delta if spec.media_batch > 0 else 0.0
        )
        self.profiler: Optional["SimProfiler"] = None
        self.metrics_registry: Optional[MetricsRegistry] = None
        if swarm is not None:
            # shared substrate: the swarm owns env, streams, overlay,
            # content, tracing, and all per-run observability
            self.env = swarm.env
            self.streams = swarm.streams
            self.trace_bus = swarm.trace_bus
        else:
            self.env = Environment()
            self.streams = RandomStreams(config.seed)
            # --- observability (opt-in; hooks no-op when tracer=None) ---
            self.trace_bus: Optional[TraceBus] = None
            if trace is not None:
                self.trace_bus = TraceBus(trace, self.env)
                self.env.hooks.tracer = self.trace_bus
            # --- performance profiler (opt-in; passive — trajectories
            # are byte-identical with it on or off) ----------------------
            profile = spec.profile
            if profile is not None and profile is not False:
                from repro.obs.prof import ProfileConfig, SimProfiler

                if profile is True:
                    profile = ProfileConfig()
                self.profiler = SimProfiler(profile)
                self.env.hooks.profiler = self.profiler
                if self.trace_bus is not None:
                    # meter trace recording as its own subsystem
                    self.profiler.instrument_trace_bus(self.trace_bus)
        latency_factory = None
        if latency is None:
            # Default: each directed pair gets a constant latency drawn once
            # from δ·U(1−s, 1+s) — hosts in an overlay are not equidistant.
            # This both matches the paper's "control delay ≈ δ" regime and
            # gives TCoP's first-offer-wins rule realistic tie-breaking
            # (with exactly equal delays every child would adopt the same
            # earliest parent).  Rounds are counted in hops, so the spread
            # never skews Figures 10/11.
            spread = config.pair_latency_spread
            pair_rng = self.streams.get("latency/pairs")

            def latency_factory(src: str, dst: str) -> ConstantLatency:
                factor = 1.0 + spread * (2.0 * pair_rng.random() - 1.0)
                return ConstantLatency(config.delta * factor)

        if swarm is not None:
            self.overlay = swarm.overlay
            self.content = swarm.content
        else:
            self.overlay = Overlay(
                self.env,
                streams=self.streams,
                default_latency=latency,
                default_loss_factory=loss_factory,
                latency_factory=latency_factory,
                control_loss_factory=control_loss_factory,
                link_fault_factory=link_fault_factory,
            )
            self.content = MediaContent(
                "content",
                n_packets=config.content_packets,
                packet_size=config.packet_size,
                rate=config.tau,
                seed=config.seed,
                with_payload=config.with_payload,
            )
        self.leaf = LeafPeerAgent(
            self,
            peer_id=leaf_id if leaf_id is not None else "leaf",
            buffer_capacity=buffer_capacity,
            playback=playback,
            max_receipt_rate=leaf_receipt_rate,
            receive_buffer_packets=leaf_receive_buffer,
            skip_after_misses=spec.playback_skip_misses,
        )
        if swarm is not None:
            self.peer_ids: List[str] = list(swarm.peer_ids)
        else:
            self.peer_ids = [f"CP{i}" for i in range(1, config.n + 1)]
        #: per-peer uplink capacity in packets/ms (absent = unlimited);
        #: §5's heterogeneous environment — a peer cannot exceed this no
        #: matter what rate its assignments ask for
        self.peer_capacities: Dict[str, float] = dict(peer_capacities or {})
        #: per-peer finite upload budgets (absent = the seed's infinite
        #: uplink); in swarm mode the dict is *shared* across every leaf
        #: session so one physical peer's budget covers all its sessions
        if swarm is not None:
            self.upload_budgets = swarm.upload_budgets
            self.peers: Dict[str, ContentsPeerAgent] = {}
            for pid in self.peer_ids:
                hub = swarm.hubs[pid]
                agent = ContentsPeerAgent(self, pid, node=hub.node)
                hub.attach(self.leaf.peer_id, agent)
                self.peers[pid] = agent
        else:
            from repro.net.capacity import UploadBudget

            self.upload_budgets = {}
            if spec.upload_capacity is not None:
                for pid in self.peer_ids:
                    self.upload_budgets[pid] = UploadBudget(
                        pid, spec.upload_capacity, config.delta, self.env
                    )
            self.peers = {
                pid: ContentsPeerAgent(self, pid) for pid in self.peer_ids
            }
        self.activation_log: List[tuple[str, float]] = []
        self.faults_fired: list = []
        #: protocol-private per-session state (TCoP pending offers, …)
        self.protocol_state: dict = {}
        #: peers the protocol intends to activate (None = all of them);
        #: set by single-source / schedule-based strategies
        self.expected_active: Optional[set] = None
        self._initiated = False
        # --- churn-tolerance subsystems (all opt-in) -------------------
        self.control_plane: Optional[ControlPlane] = None
        if retransmit_policy is not None:
            self.control_plane = ControlPlane(
                self.overlay, retransmit_policy, config.delta
            )
            self.control_plane.ctx = self.ctx
            self.control_plane.on_give_up = self._on_control_give_up
        self.detector: Optional[FailureDetector] = None
        self.recoordinator: Optional[ReCoordinator] = None
        if detector_policy is not None:
            self.detector = FailureDetector(self, detector_policy)
            if detector_policy.recoordinate:
                self.recoordinator = ReCoordinator(self)
                self.detector.on_confirm = self.recoordinator.handle_failure
        self.churn_plan = churn_plan
        if churn_plan is not None:
            churn_plan.install(self)
        if fault_plan is not None:
            fault_plan.install(self)
        self.partition_plan = spec.partition_plan
        if spec.partition_plan is not None:
            spec.partition_plan.install(self)
        self.repair_monitor: Optional["RepairMonitor"] = None
        if repair_policy is not None:
            from repro.streaming.repair import RepairMonitor

            self.repair_monitor = RepairMonitor(self, repair_policy)
        self.adaptation_monitor: Optional["RateAdaptationMonitor"] = None
        if adaptation_policy is not None:
            from repro.streaming.adaptive import RateAdaptationMonitor

            self.adaptation_monitor = RateAdaptationMonitor(
                self, adaptation_policy
            )
        self.health: Optional["HealthMonitor"] = None
        if spec.health_policy is not None:
            from repro.streaming.health import HealthMonitor

            # raises when no detector is configured: quarantine judges
            # peers by the detector's evidence (φ, residuals, last_heard)
            self.health = HealthMonitor(self, spec.health_policy)
        self.auditors: List["Auditor"] = []
        self._audit_report: Optional["AuditReport"] = None
        self.span_builder: Optional["SpanBuilder"] = None
        if swarm is not None:
            # the swarm owns observability; just announce this leaf as a
            # trace participant alongside the shared contents peers
            if self.trace_bus is not None:
                self.trace_bus.participants.append(self.leaf.peer_id)
            return
        if self.trace_bus is not None:
            self.trace_bus.participants = [self.leaf.peer_id, *self.peer_ids]
            if trace.metrics:
                self._wire_metrics(trace)
        # --- online auditors (read-only subscribers; opt-in) -----------
        if audit is not None:
            from repro.obs.audit import build_auditors

            self.auditors = build_auditors(audit)
            for auditor in self.auditors:
                auditor.bind(self.trace_bus, self)
                self.trace_bus.subscribe(auditor.on_event)
        # --- causal span builder (read-only subscriber; opt-in) --------
        if spans is not None:
            from repro.obs.spans import SpanBuilder, SpanConfig

            if spans is True:
                spans = SpanConfig()
            self.span_builder = SpanBuilder(spans)
            self.span_builder.bind(self.trace_bus, self)
            self.trace_bus.subscribe(self.span_builder.on_event)

    @classmethod
    def from_spec(cls, spec: "SessionSpec") -> "StreamingSession":
        """Build a session from a declarative spec."""
        return cls(spec)

    @classmethod
    def for_swarm(
        cls, spec: "SessionSpec", swarm, leaf_id: str
    ) -> "StreamingSession":
        """Attach one leaf session to a shared swarm substrate.

        The session reuses the swarm's environment, overlay, RNG streams,
        content, and contents-peer hubs instead of creating its own; its
        control traffic is tagged with ``leaf_id`` as the coordination
        context so the hubs can route replies to this leaf's agents.
        Per-session observability (auditors, spans, profiler, metrics) is
        owned by the swarm, not the leaf.
        """
        return cls(spec, swarm=swarm, leaf_id=leaf_id)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _wire_metrics(self, trace: TraceConfig) -> None:
        """Register the run's instruments and start the sim-time sampler."""
        registry = MetricsRegistry()
        self.metrics_registry = registry
        self.trace_bus.registry = registry
        registry.counter("ctrl_sends")
        registry.counter("media_sends")
        registry.gauge(
            "active_peers",
            lambda: sum(
                1 for p in self.peers.values() if p.active and not p.crashed
            ),
        )
        registry.gauge(
            "in_flight_control", lambda: self.trace_bus.in_flight_control
        )
        registry.gauge("buffer_level", lambda: self.leaf.buffer.level)
        registry.gauge("receipt_rate", self._windowed_receipt_rate)
        registry.histogram(
            "arrival_gap_ms",
            bounds=[b / self.config.tau for b in (0.25, 0.5, 1, 2, 4, 8)],
        )
        self._rr_prev = (0, self.env.now)
        self._gap_cursor = 0
        period = trace.sample_period_deltas * self.config.delta
        self.env.process(self._sample_loop(registry, period, trace.max_samples))

    def _windowed_receipt_rate(self) -> float:
        """Leaf arrivals over the last sample window, normalized to τ."""
        now = self.env.now
        count = len(self.leaf.arrival_times)
        prev_count, prev_t = self._rr_prev
        self._rr_prev = (count, now)
        if now <= prev_t:
            return 0.0
        return (count - prev_count) / (now - prev_t) / self.config.tau

    def _sample_loop(self, registry: MetricsRegistry, period: float, max_samples: int):
        """Snapshot all instruments once per period of simulated time.

        Self-terminating: stops when the leaf holds the full content, when
        the event queue has otherwise drained (nothing left to observe), or
        after ``max_samples`` ticks — so tracing never keeps a simulation
        alive materially past its natural end.
        """
        hist = registry.histograms["arrival_gap_ms"]
        for _ in range(max_samples):
            yield self.env.timeout(period)
            registry.sample(self.env.now)
            arrivals = self.leaf.arrival_times
            while self._gap_cursor + 1 < len(arrivals):
                hist.observe(
                    arrivals[self._gap_cursor + 1] - arrivals[self._gap_cursor]
                )
                self._gap_cursor += 1
            if self.leaf.decoder.complete or len(self.env) == 0:
                return

    # ------------------------------------------------------------------
    # reliable control plane
    # ------------------------------------------------------------------
    def send_control(
        self,
        src: str,
        dst: str,
        kind: str,
        body=None,
        *,
        size_bytes: Optional[int] = None,
        reliable: bool = True,
    ) -> None:
        """Send one coordination message.

        Routed through the :class:`~repro.net.overlay.ControlPlane` (ack +
        retransmit) when the session has one and ``reliable`` is left on;
        plain fire-and-forget otherwise.  Leaf-originated assignments are
        also registered with the failure detector so a peer that dies
        before its first heartbeat is still covered.
        """
        size = self.config.control_size if size_bytes is None else size_bytes
        if self.detector is not None and src == self.leaf.peer_id:
            assignment = getattr(body, "assignment", None)
            if assignment is not None:
                self.detector.expect(dst, data_seqs_of(assignment))
                if self.health is not None:
                    self.health.note_promise(dst, assignment.rate)
        if reliable and self.control_plane is not None:
            self.control_plane.send(src, dst, kind, body, size)
        else:
            self.overlay.send(
                src, dst, kind, body=body, size_bytes=size, ctx=self.ctx
            )

    def upload_budget_for(self, peer_id: str):
        """The peer's finite upload budget, or None (infinite uplink)."""
        return self.upload_budgets.get(peer_id)

    def intercept_control(self, message: Message) -> bool:
        """Ack/dedup bookkeeping for an inbound message.

        Returns True when the message is consumed by the control plane
        (an ack, or a duplicate of an already-delivered retransmission).
        """
        if self.control_plane is None:
            return False
        return self.control_plane.intercept(message)

    def note_control_applied(self, receiver: str, message: Message) -> None:
        """An agent is about to *apply* a non-packet message.

        Emits the ``ctrl.apply`` trace event the duplicate-effect auditor
        checks: one logical control message (one wire ``uid``, one
        control-plane ``msg_id``) may change receiver state at most once.
        """
        if self.trace_bus is not None:
            self.trace_bus.emit(
                "ctrl.apply",
                receiver,
                kind=message.kind,
                src=message.src,
                uid=message.uid,
                mid=message.msg_id,
            )

    def note_duplicate_suppressed(self, receiver: str, message: Message) -> None:
        """An agent's dedup window suppressed a link-fault duplicate."""
        self.overlay.traffic.link_dupes_suppressed_by_kind[message.kind] += 1
        if self.trace_bus is not None:
            self.trace_bus.emit(
                "msg.dedup",
                receiver,
                kind=message.kind,
                src=message.src,
                uid=message.uid,
            )

    def _on_control_give_up(self, src: str, dst: str, kind: str, body) -> None:
        """Retries exhausted toward ``dst``: treat it as unreachable.

        The abandoned assignment (if the message carried one) is noted as
        the destination's residual so re-coordination can re-flood it —
        this covers parent→child handoffs the leaf never witnessed (the
        parent, in effect, reports its failed handoff).
        """
        if self.detector is None or dst not in self.peers:
            return
        assignment = getattr(body, "assignment", None)
        if assignment is not None:
            self.detector.expect(dst, data_seqs_of(assignment))
        self.detector.report_unreachable(dst)

    def crash_time_of(self, peer_id: str) -> Optional[float]:
        """Ground-truth instant of the peer's most recent crash, if any."""
        from repro.streaming.faults import CrashFault

        latest: Optional[float] = None
        for event in self.faults_fired:
            if getattr(event, "peer_id", None) != peer_id:
                continue
            kind = getattr(event, "kind", None)
            is_crash = kind == "crash" or (
                kind is None and isinstance(event, CrashFault)
            )
            if not is_crash:
                continue
            at = getattr(event, "at", None)
            if at is not None and (latest is None or at > latest):
                latest = at
        return latest

    # ------------------------------------------------------------------
    def record_activation(self, peer_id: str, time: float, hops: int) -> None:
        self.activation_log.append((peer_id, time, hops))
        if self.trace_bus is not None:
            self.trace_bus.emit("peer.activate", peer_id, round=hops)

    @property
    def selection_rng(self):
        """RNG stream for the leaf's initial selection."""
        return self.streams.get("select/leaf")

    def leaf_select(self, m: int) -> list[str]:
        """The leaf's random choice of ``m`` initial contents peers."""
        rng = self.selection_rng
        picked = rng.choice(len(self.peer_ids), size=m, replace=False)
        return [self.peer_ids[i] for i in sorted(picked)]

    # ------------------------------------------------------------------
    def initiate(self) -> None:
        """Kick off coordination (idempotent); swarm joins call this
        directly since the shared environment is run by the swarm."""
        if not self._initiated:
            self.protocol.initiate(self)
            self._initiated = True

    def run(self, until: Optional[float] = None) -> SessionResult:
        """Initiate the protocol, run the simulation, collect metrics."""
        if not self._initiated:
            self.protocol.initiate(self)
            self._initiated = True
        if self.profiler is not None:
            self.profiler.start()
            try:
                self.env.run(until=until)
            finally:
                self.profiler.stop()
        else:
            self.env.run(until=until)
        return self._collect()

    def _collect(self) -> SessionResult:
        cfg = self.config
        activation_times = {pid: t for pid, t, _h in self.activation_log}
        activation_hops = {pid: h for pid, _t, h in self.activation_log}
        expected = (
            self.expected_active
            if self.expected_active is not None
            else set(self.peer_ids)
        )
        live_peers = [
            p for p in self.peer_ids
            if p in expected and not self.peers[p].crashed
        ]
        all_active = all(pid in activation_times for pid in live_peers)
        sync_time: Optional[float] = None
        rounds: Optional[int] = None
        if all_active and activation_times and live_peers:
            sync_time = max(activation_times[pid] for pid in live_peers)
            # rounds are counted in coordination hops (request = 1), which
            # is exact regardless of per-pair latency heterogeneity
            rounds = max(activation_hops[pid] for pid in live_peers)

        traffic = self.overlay.traffic
        coordination_kinds = [
            k for k in traffic.sent_by_kind if k != "packet"
        ]
        total_ctrl = sum(traffic.sent_by_kind[k] for k in coordination_kinds)
        if sync_time is not None:
            at_sync = sum(
                1
                for kind, t, _src, _dst in traffic.send_log
                if kind != "packet" and t <= sync_time + 1e-9
            )
        else:
            at_sync = total_ctrl

        decoder = self.leaf.decoder
        det = self.detector
        rec = self.recoordinator
        timeseries = None
        if self.auditors and self._audit_report is None:
            # finish before finalize() so audit.* events emitted here are
            # part of the log the finalizer sorts into time order
            for auditor in self.auditors:
                auditor.finish(self)
            from repro.obs.audit import AuditReport

            self._audit_report = AuditReport.from_auditors(
                self.protocol.name, cfg.seed, self.auditors
            )
        spans_report = None
        if self.span_builder is not None:
            # like the auditors: before finalize(), reading only — the
            # builder never perturbs the trajectory
            spans_report = self.span_builder.finish(self)
        if self.trace_bus is not None:
            self.trace_bus.finalize()
            if self.metrics_registry is not None:
                timeseries = self.metrics_registry.to_series(
                    title=f"{self.protocol.name} run timeseries"
                )
        handoff_latencies = (
            [h.latency for h in rec.handoffs if h.latency is not None]
            if rec is not None
            else []
        )
        return SessionResult(
            config=cfg,
            protocol=self.protocol.name,
            activation_times=activation_times,
            sync_time=sync_time,
            rounds=rounds,
            control_packets_at_sync=at_sync,
            control_packets_total=total_ctrl,
            messages_by_kind=dict(traffic.sent_by_kind),
            receipt_rate=self.leaf.receipt_rate(),
            delivery_ratio=decoder.delivery_ratio(),
            recovered_packets=len(decoder.recovered),
            duplicate_packets=decoder.duplicate_count,
            underruns=self.leaf.buffer.underruns,
            overruns=self.leaf.buffer.overruns,
            receive_overruns=self.leaf.receive_overruns,
            completed_at=self.leaf.completed_at,
            elapsed=self.env.now,
            retransmissions_by_kind=dict(traffic.retransmissions_by_kind),
            retransmit_give_ups=sum(traffic.give_ups_by_kind.values()),
            duplicates_suppressed=sum(
                traffic.duplicates_suppressed_by_kind.values()
            ),
            suspected_peers=sorted(det.suspects) if det is not None else [],
            confirmed_failures=(
                sorted(det.confirmed_failures) if det is not None else []
            ),
            false_suspicions=det.false_suspicions if det is not None else 0,
            detection_latencies=(
                dict(det.detection_latencies) if det is not None else {}
            ),
            recoordinations=rec.recoordinations if rec is not None else 0,
            mean_handoff_latency=(
                sum(handoff_latencies) / len(handoff_latencies)
                if handoff_latencies
                else None
            ),
            link_duplicates=sum(traffic.duplicated_by_kind.values()),
            link_duplicates_suppressed=sum(
                traffic.link_dupes_suppressed_by_kind.values()
            ),
            playback_skips=self.leaf.buffer.skips,
            quarantines=(
                self.health.quarantines if self.health is not None else 0
            ),
            readmissions=(
                self.health.readmissions if self.health is not None else 0
            ),
            false_quarantines=(
                self.health.false_quarantines
                if self.health is not None
                else 0
            ),
            quarantined_peers=(
                sorted(self.health.quarantined)
                if self.health is not None
                else []
            ),
            trace=self.trace_bus,
            timeseries=timeseries,
            audit=self._audit_report,
            profile=(
                self.profiler.report(self)
                if self.profiler is not None
                else None
            ),
            spans=spans_report,
        )

    def __repr__(self) -> str:
        return (
            f"<StreamingSession {self.protocol.name} n={self.config.n} "
            f"H={self.config.H} t={self.env.now}>"
        )
