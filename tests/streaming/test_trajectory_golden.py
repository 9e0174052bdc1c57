"""Golden trajectory pins: send-log hashes of fixed reduced-size sessions.

The equivalence suites compare two configurations with each other
(traced vs untraced, profiled vs not); a change that moved every path
the same way would pass them all.  These hashes were recorded once and
are compared against fixed values, so any change to who sends what to
whom, and when, fails here — a pure speed-up must leave them untouched.
Each hash covers ``overlay.traffic.send_log``: one
``(kind, time, src, dst)`` entry per wire send.

Three groups are pinned:

* five reduced-size DCoP/TCoP sessions with loss and link faults, run
  untraced;
* all ten protocols clean, and DCoP/TCoP/AMS under churn, partition and
  gray faults, run with tracing and every auditor on — the only place
  the chaos gauntlets meet the auditors for dcop/tcop/ams together;
* one DCoP flash-crowd swarm with admission control.

The audited groups also pin the auditors' verdict.  Two verdicts are
``False`` by design: broadcast has every peer transmit every packet, so
the allocation auditor flags double assignment; and under gray faults a
degraded (not down) peer gets confirmed failed, which the detector
auditor reports as a false confirm.

If a change is *meant* to move a trajectory, re-record the hash and say
why in the change log.
"""

import dataclasses
import hashlib

import pytest

from repro import LossSpec, ProtocolConfig, ProtocolSpec, RetransmitPolicy, SessionSpec
from repro.net.capacity import CapacityPolicy
from repro.obs import AuditConfig, TraceConfig
from repro.streaming import (
    AdmissionPolicy,
    ChurnPlan,
    DetectorPolicy,
    FaultPlan,
    HealthPolicy,
    JoinStormPlan,
    LinkFaultSpec,
    PartitionPlan,
    RepairPolicy,
    SwarmSpec,
)
from repro.streaming.spec import DetectorSpec


def _config():
    return ProtocolConfig(n=40, H=20, fault_margin=1, content_packets=100, seed=0)


#: name -> (spec factory, send-log length, sha256 of repr(send_log))
GOLDEN = {
    "dcop_clean": (
        lambda: SessionSpec(_config(), ProtocolSpec("dcop")),
        546,
        "c73a10d6e8898c57e04350a2ac6175a26480d9cc2523af4e5c8710c3994e494b",
    ),
    "tcop_clean": (
        lambda: SessionSpec(_config(), ProtocolSpec("tcop")),
        999,
        "beb51974a04d0f165c26d06ef568f93724431e348e18d2ff8acb0dd26ce7753e",
    ),
    "dcop_bursty_loss": (
        lambda: SessionSpec(
            _config(),
            ProtocolSpec("dcop"),
            loss=LossSpec("bursty", {"rate": 0.05}),
            retransmit_policy=RetransmitPolicy(),
        ),
        966,
        "d1cb63abe3667071da7aafef4b5bb6a09f92c23734aedebe9ccadf4753c868c4",
    ),
    "tcop_control_loss": (
        lambda: SessionSpec(
            _config(),
            ProtocolSpec("tcop"),
            control_loss=LossSpec("bernoulli", {"p": 0.05}),
            retransmit_policy=RetransmitPolicy(),
        ),
        1814,
        "6ef8bfbc1b4d8f21245d52fa7a498fa62fbc38762b199eec57fb99105ae5b337",
    ),
    "dcop_link_fault": (
        lambda: SessionSpec(
            _config(),
            ProtocolSpec("dcop"),
            link_fault=LinkFaultSpec(
                "chaos", {"dup_p": 0.1, "reorder_p": 0.2, "max_delay": 20.0}
            ),
            retransmit_policy=RetransmitPolicy(),
        ),
        1232,
        "e54d8c3a0a94e4ea54f7b43feac0d8771ff8f7fab42e5750683a99e82240205c",
    ),
}


def assert_send_log(session, length, digest):
    log = session.overlay.traffic.send_log
    assert len(log) == length
    assert hashlib.sha256(repr(log).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_send_log_matches_recorded_hash(name):
    make_spec, length, digest = GOLDEN[name]
    session = make_spec().build()
    session.run()
    assert_send_log(session, length, digest)


# ----------------------------------------------------------------------
# audited sessions: all ten protocols clean, three under chaos
# ----------------------------------------------------------------------
def audited_config(**kw):
    defaults = dict(
        n=10, H=4, fault_margin=1, tau=1.0, delta=8.0,
        content_packets=120, seed=17,
    )
    defaults.update(kw)
    return ProtocolConfig(**defaults)


def base_spec(protocol):
    params = (
        {"bandwidths": [2.0, 1.0, 1.0, 1.0]}
        if protocol == "hetero_schedule"
        else {}
    )
    return SessionSpec(
        config=audited_config(),
        protocol=ProtocolSpec(protocol, params),
        trace=TraceConfig(),
        audit=AuditConfig(),
    )


def churn_spec(protocol):
    return dataclasses.replace(
        base_spec(protocol),
        control_loss=LossSpec("bernoulli", {"p": 0.10}),
        churn_plan=ChurnPlan(
            rate_per_delta=0.03, min_live=6, mean_downtime_deltas=6.0
        ),
        retransmit_policy=RetransmitPolicy(),
        detector_policy=DetectorPolicy(),
    )


def partition_spec(protocol):
    cfg = audited_config()
    return dataclasses.replace(
        base_spec(protocol),
        link_fault=LinkFaultSpec(
            "chaos",
            {"dup_p": 0.1, "reorder_p": 0.2, "max_delay": 2 * cfg.delta},
        ),
        partition_plan=PartitionPlan(
            components=(("CP7",),), at=60.0, heal_at=200.0
        ),
        retransmit_policy=RetransmitPolicy(),
        detector_policy=DetectorPolicy(),
    )


def gray_spec(protocol):
    cfg = audited_config()
    probe = SessionSpec(config=cfg, protocol=ProtocolSpec("dcop")).build()
    first = probe.leaf_select(cfg.H)
    plan = (
        FaultPlan()
        .flap(first[0], at=60.0, down_for=4 * cfg.delta,
              period=12 * cfg.delta, count=3)
        .degrade(first[1], at=40.0, factor=0.1)
    )
    return dataclasses.replace(
        base_spec(protocol),
        fault_plan=plan,
        link_fault=LinkFaultSpec(
            "stutter", {"period": 8 * cfg.delta, "stall": 2 * cfg.delta}
        ),
        retransmit_policy=RetransmitPolicy(adaptive=True),
        detector_policy=DetectorSpec("accrual"),
        repair_policy=RepairPolicy(),
        health_policy=HealthPolicy(),
    )


#: protocol -> (send-log length, sha256 of repr(send_log), audit passed)
CLEAN_GOLDEN = {
    "dcop": (257, "7a6068f665bafc53d54d8e6c75294ad714b925417fce42db571b510ad4e7ced5", True),
    "tcop": (312, "9ed475479981c9b1203c50e2499e2f1e60cd4ff23dc9fb1558d0e996f7160005", True),
    "broadcast": (465, "8cb3644ca4c87b7544af6ef76881797ad3b20c3af64ceca0b4bb9104c053a35c", False),
    "centralized": (162, "1a85d7c7f0d94c0ab3e48cfd960d7a61e930b3d7b6c9770714187e197bff6af6", True),
    "schedule_based": (164, "b7e57d48af27b8944d930a37e7d54174ef1e9b840fa52b486ee76cb52a1f7349", True),
    "single_source": (121, "f6c0a88486a4dcbe05b4652695b47b660f9bec3753dc583801383865b8021e96", True),
    "unicast_chain": (1690, "ea85d01d4789cb3ef279e653293793106ce4fe36851f6213d7b059d51b9bae15", True),
    "ams": (954, "6743aa0d0b7111c31cece4c6044cc1ecb75179aa0e76abe4850831ac2f254d73", True),
    "hetero_schedule": (164, "32c36fadd7389e8f02c2abfcd92da1b102114b0f1ce00a165452f512b48a8e24", True),
    "hetero_dcop": (257, "7a6068f665bafc53d54d8e6c75294ad714b925417fce42db571b510ad4e7ced5", True),
}


@pytest.mark.parametrize("protocol", sorted(CLEAN_GOLDEN))
def test_audited_clean_send_log_matches_recorded_hash(protocol):
    length, digest, audit_passed = CLEAN_GOLDEN[protocol]
    session = base_spec(protocol).build()
    result = session.run()
    assert result.delivery_ratio == 1.0
    assert result.audit.passed is audit_passed, result.audit.summary()
    assert_send_log(session, length, digest)


#: (scenario, protocol) -> (send-log length, sha256, audit passed)
CHAOS_GOLDEN = {
    ("churn", "dcop"): (442, "eaec18cc53a52dd58d3dee8fdb7051cd4e8f2ac8aa90f6d77965bc1b3fe455d1", True),
    ("churn", "tcop"): (502, "20200544d24ae3ec99e6d20616786f7619b9178d2659dddd019478f351de4f94", True),
    ("churn", "ams"): (2127, "871d3f2a6b08012e84ea3482b9e7b3a5b57811731ff09e57d4e6bdd08e13d988", True),
    ("partition", "dcop"): (483, "2470631affbcc29f56e5c4225adc3ff8f29ccec77080d2058968d98b879994ae", True),
    ("partition", "tcop"): (616, "6e0b8bd620ce0739430f034b1901b2c45fb9cb265a253ce6ce5ef207ccf962cf", True),
    ("partition", "ams"): (1757, "29b04ba82f6883e301b8db3aabaaf7e61e6c5dcb32e6a30425f15b1fe116fb03", True),
    ("gray", "dcop"): (744, "139cefd9242a19450045d1551fc97f63de7855c40f84b44a8295c2de03c1029e", False),
    ("gray", "tcop"): (946, "026ab9a70df81e2db7391ce8fd61ad9561e5855eedc7ee48ed6c90993e944606", False),
    ("gray", "ams"): (3866, "d973492b3daf3b603f13f1c4d4a8907aab33641df55233c0b8124079f0023242", False),
}

SCENARIOS = {"churn": churn_spec, "partition": partition_spec, "gray": gray_spec}


@pytest.mark.parametrize(
    "scenario,protocol",
    sorted(CHAOS_GOLDEN),
    ids=[f"{scenario}-{protocol}" for scenario, protocol in sorted(CHAOS_GOLDEN)],
)
def test_chaos_send_log_matches_recorded_hash(scenario, protocol):
    length, digest, audit_passed = CHAOS_GOLDEN[(scenario, protocol)]
    session = SCENARIOS[scenario](protocol).build()
    result = session.run()
    assert result.elapsed < 1e7
    assert result.audit.passed is audit_passed, result.audit.summary()
    assert_send_log(session, length, digest)


# ----------------------------------------------------------------------
# one flash-crowd swarm: shared overlay, admission control, a spike
# ----------------------------------------------------------------------
def test_swarm_send_log_matches_recorded_hash():
    spec = SwarmSpec(
        session=SessionSpec(
            config=ProtocolConfig(
                n=6, H=3, fault_margin=1, tau=1.0, delta=8.0,
                content_packets=30, seed=11,
            ),
            protocol=ProtocolSpec("dcop"),
        ),
        join_plan=JoinStormPlan(
            leaves=6, rate_per_delta=2.0, spike_at_deltas=2.0, spike_leaves=2
        ),
        capacity=CapacityPolicy(packets_per_delta=4.0),
        admission=AdmissionPolicy(),
    )
    swarm = spec.build()
    result = swarm.run()
    assert result.audit_passed
    assert len(result.trace.events) == 2690
    assert_send_log(
        swarm, 552, "0d056f86bc2a218c936cbc05f3dbb18ebe98463474510b2e1758de3e1773cb63"
    )
