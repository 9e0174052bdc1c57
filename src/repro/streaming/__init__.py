"""Streaming engine: transmitting peers, the receiving leaf, sessions.

* :class:`Stream` — one transmission plan (phased packet list + rate) on a
  contents peer; splits for child handoffs happen here.
* :class:`ContentsPeerAgent` — a contents peer: mailbox handling delegated
  to the coordination protocol, transmit loops per stream.
* :class:`LeafPeerAgent` — the requesting leaf: receives media packets into
  a :class:`~repro.fec.ParityDecoder`, tracks arrival statistics, and can
  play the content back through a :class:`PlaybackBuffer`.
* :class:`SessionSpec` — a frozen, picklable *description* of one session
  (config + declarative protocol/latency/loss specs + plans/policies);
  ``spec.build()`` materializes the live :class:`StreamingSession`.  The
  only construction API.
* :class:`StreamingSession` — builds the whole simulated system a spec
  describes and runs it to produce a :class:`SessionResult`.
* :mod:`repro.streaming.faults` — crash / rate-degradation / churn
  injection, plus network partitions and one-way link cuts
  (:class:`PartitionPlan`, :class:`LinkCut`).
* :mod:`repro.streaming.detector` — leaf-side heartbeat failure detector.
* :mod:`repro.streaming.recoordination` — mid-stream residual re-flooding.
* :mod:`repro.streaming.swarm` — multi-leaf flash-crowd runs over one
  shared overlay: :class:`SwarmSpec` + :class:`JoinStormPlan` drive many
  leaf sessions against finite per-peer upload budgets with admission
  control and retry/backoff (:class:`AdmissionPolicy`).
"""

from repro.streaming.stream import Phase, Stream, HandoffPlan
from repro.streaming.buffer import BufferEvent, PlaybackBuffer
from repro.streaming.contents_peer import ContentsPeerAgent
from repro.streaming.leaf_peer import LeafPeerAgent
from repro.streaming.session import SessionResult, StreamingSession
from repro.streaming.spec import (
    DetectorSpec,
    LatencySpec,
    LinkFaultSpec,
    LossSpec,
    ProtocolSpec,
    SessionSpec,
    available_factories,
    register_detector,
    register_latency,
    register_link_fault,
    register_loss,
    register_protocol,
)
from repro.streaming.faults import (
    ChurnEvent,
    ChurnPlan,
    CrashFault,
    DegradeFault,
    FaultPlan,
    FlapFault,
    JoinStormPlan,
    LinkCut,
    PartitionEvent,
    PartitionPlan,
)
from repro.streaming.swarm import (
    AdmissionController,
    AdmissionPolicy,
    LeafOutcome,
    PeerHub,
    SwarmResult,
    SwarmSession,
    SwarmSpec,
)
from repro.streaming.detector import DetectorPolicy, FailureDetector, Heartbeat
from repro.streaming.health import HealthMonitor, HealthPolicy, QuarantineRecord
from repro.streaming.recoordination import HandoffRecord, ReCoordinator
from repro.streaming.repair import RepairMonitor, RepairPolicy, RepairRequest
from repro.streaming.adaptive import (
    AdaptRequest,
    RateAdaptationMonitor,
    RateAdaptationPolicy,
)

__all__ = [
    "AdaptRequest",
    "AdmissionController",
    "AdmissionPolicy",
    "BufferEvent",
    "RateAdaptationMonitor",
    "RateAdaptationPolicy",
    "ChurnEvent",
    "ChurnPlan",
    "ContentsPeerAgent",
    "CrashFault",
    "DegradeFault",
    "DetectorPolicy",
    "DetectorSpec",
    "FailureDetector",
    "FaultPlan",
    "FlapFault",
    "HandoffPlan",
    "HandoffRecord",
    "HealthMonitor",
    "HealthPolicy",
    "Heartbeat",
    "JoinStormPlan",
    "LatencySpec",
    "LeafOutcome",
    "LeafPeerAgent",
    "LinkCut",
    "LinkFaultSpec",
    "LossSpec",
    "PartitionEvent",
    "PartitionPlan",
    "PeerHub",
    "Phase",
    "PlaybackBuffer",
    "ProtocolSpec",
    "QuarantineRecord",
    "ReCoordinator",
    "RepairMonitor",
    "RepairPolicy",
    "RepairRequest",
    "SessionResult",
    "SessionSpec",
    "Stream",
    "StreamingSession",
    "SwarmResult",
    "SwarmSession",
    "SwarmSpec",
    "available_factories",
    "register_detector",
    "register_latency",
    "register_link_fault",
    "register_loss",
    "register_protocol",
]
