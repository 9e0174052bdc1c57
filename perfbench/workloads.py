"""The benchmark's three workloads, their output checks and per-session records.

Every session is built only through the public ``SessionSpec`` /
``ProtocolConfig`` / ``LossSpec`` API with the defaults a user gets, except
two settings pinned so that the environment cannot change what is measured:
the binary-heap scheduler (whatever ``REPRO_SCHEDULER`` says) and the
per-packet media plane (``media_batch=0``).

This module imports :mod:`repro` lazily, inside the functions, so that a
worker can time the cold import itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Case:
    """One session of a workload and what its output must satisfy.

    ``clean`` sessions stream over loss-free channels, so every data packet
    must reach the leaf; ``expect_rounds`` is the round count a clean
    session must synchronize in (None: not checked).
    """

    protocol: str
    clean: bool = False
    expect_rounds: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    cases: Tuple[Case, ...]
    #: (case, seed, small) -> SessionSpec
    spec: Callable


def _pinned(**kw):
    """Settings every benchmark session pins, whatever the environment says."""
    return dict(scheduler="heap", media_batch=0.0, **kw)


def _flood_spec(case: Case, seed: int, small: bool):
    from repro import ProtocolConfig, ProtocolSpec, SessionSpec

    n, H, packets = (40, 20, 100) if small else (400, 60, 400)
    config = ProtocolConfig(
        n=n, H=H, fault_margin=1, content_packets=packets, seed=seed
    )
    return SessionSpec(config, ProtocolSpec(case.protocol), **_pinned())


def _fec_spec(case: Case, seed: int, small: bool):
    from repro import (
        LossSpec,
        ProtocolConfig,
        ProtocolSpec,
        RetransmitPolicy,
        SessionSpec,
    )

    n, H, packets = (40, 20, 600) if small else (100, 60, 6000)
    config = ProtocolConfig(
        n=n,
        H=H,
        fault_margin=1,
        content_packets=packets,
        with_payload=True,
        seed=seed,
    )
    if case.clean:
        return SessionSpec(config, ProtocolSpec(case.protocol), **_pinned())
    return SessionSpec(
        config,
        ProtocolSpec(case.protocol),
        **_pinned(
            loss=LossSpec("bursty", {"rate": 0.01}),
            retransmit_policy=RetransmitPolicy(),
        ),
    )


def _churn_spec(case: Case, seed: int, small: bool):
    from repro import (
        AuditConfig,
        ChurnPlan,
        DetectorPolicy,
        LossSpec,
        ProtocolConfig,
        ProtocolSpec,
        RetransmitPolicy,
        SessionSpec,
    )

    n, H, packets, min_live = (40, 8, 200, 12) if small else (60, 12, 2000, 20)
    config = ProtocolConfig(
        n=n, H=H, fault_margin=1, content_packets=packets, seed=seed
    )
    return SessionSpec(
        config,
        ProtocolSpec(case.protocol),
        **_pinned(
            control_loss=LossSpec("bernoulli", {"p": 0.05}),
            retransmit_policy=RetransmitPolicy(),
            detector_policy=DetectorPolicy(),
            churn_plan=ChurnPlan(rate_per_delta=0.05, min_live=min_live),
            audit=AuditConfig(),
        ),
    )


#: Why each workload was chosen, and the layer split that shows it, is in
#: README.md: each one makes a different layer dominate.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # channel creation, RNG setup, coordination and the kernel
        Workload(
            "flood-n400", (Case("dcop", True, 2), Case("tcop", True, 6)), _flood_spec
        ),
        # byte XOR, enhance/divide and parity decoding
        Workload("fec-payload", (Case("dcop"), Case("tcop", True, 6)), _fec_spec),
        # timers, heartbeats, retransmits and repro.obs (the only audited one)
        Workload("churn-audited", (Case("dcop"), Case("tcop")), _churn_spec),
    )
}


def build_specs(name: str, seed: int, small: bool = False) -> List[Tuple[Case, object]]:
    """The workload's ``(case, SessionSpec)`` pairs for ``seed``."""
    workload = WORKLOADS[name]
    return [(case, workload.spec(case, seed, small)) for case in workload.cases]


def fingerprint(send_log) -> str:
    """Hash of the overlay's send log: one entry per wire send, recorded
    with or without tracing, so equal trajectories give equal hashes."""
    return hashlib.sha256(repr(send_log).encode()).hexdigest()


def session_record(case: Case, session, result) -> dict:
    """The JSON-able numbers the benchmark reads from one finished session."""
    traffic = session.overlay.traffic
    decoder = session.leaf.decoder
    content = session.config.content_packets
    recovered = sum(1 for label in decoder.recovered if isinstance(label, int))
    missing = content - len(decoder.data_seqs_held())
    delivered_ctrl = sum(
        v for k, v in traffic.delivered_by_kind.items() if k != "packet"
    )
    return {
        "protocol": case.protocol,
        "rounds": result.rounds,
        "control_packets": result.control_packets_total,
        "delivery_ratio": result.delivery_ratio,
        "receipt_rate": result.receipt_rate,
        "audit_violations": (
            result.audit.violation_count if result.audit is not None else 0
        ),
        "payload_ok": decoder.verify_against(session.content),
        "fingerprint": fingerprint(traffic.send_log),
        "content_packets": content,
        "recovered_data": recovered,
        "lost_data": recovered + missing,
        "msgs": traffic.total_sent(),
        "dropped": sum(traffic.dropped_by_kind.values()),
        "channels": len(session.overlay.channels),
        "retransmits": sum(traffic.retransmissions_by_kind.values()),
        "dedup": sum(traffic.duplicates_suppressed_by_kind.values())
        + sum(traffic.link_dupes_suppressed_by_kind.values()),
        "delivered_ctrl": delivered_ctrl,
    }


def check(case: Case, record: dict) -> List[str]:
    """Failed output checks of one session (empty when it passed)."""
    if "error" in record:
        return [f"{case.protocol} raised: {record['error']}"]
    failures = []
    if not record["payload_ok"]:
        failures.append(f"{case.protocol}: a held payload differs from the content")
    if case.clean and record["delivery_ratio"] != 1.0:
        failures.append(
            f"{case.protocol}: delivery_ratio {record['delivery_ratio']} != 1.0 "
            "on a clean session"
        )
    if case.expect_rounds is not None and record["rounds"] != case.expect_rounds:
        failures.append(
            f"{case.protocol}: synchronized in {record['rounds']} rounds, "
            f"expected {case.expect_rounds}"
        )
    return failures


def model_metrics(records: List[dict]) -> Dict[str, float]:
    """The workload's model-level metrics over its sessions' records.

    These are exact under equal seeds: a pure speed-up leaves them
    identical, a model change moves them.
    """
    ok = [r for r in records if "error" not in r]
    synced = [r["rounds"] for r in ok if r["rounds"] is not None]
    return {
        "sync_rounds": sum(synced) / len(synced) if synced else 0.0,
        "synced_share": len(synced) / len(records),
        "control_packets": sum(r["control_packets"] for r in ok),
        "delivery_ratio": min((r["delivery_ratio"] for r in ok), default=0.0),
        "receipt_rate": (
            sum(r["receipt_rate"] for r in ok) / len(ok) if ok else 0.0
        ),
        "audit_violations": sum(r["audit_violations"] for r in ok),
    }
