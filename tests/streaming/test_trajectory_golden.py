"""Golden trajectory pins: send-log hashes of fixed reduced-size sessions.

The equivalence suites compare two configurations with each other
(heap vs calendar, traced vs untraced, profiled vs not); a change that
moved every path the same way would pass them all.  These hashes were
recorded once and are compared against fixed values, so any change to
who sends what to whom, and when, fails here — a pure speed-up must
leave them untouched.  Each hash covers ``overlay.traffic.send_log``:
one ``(kind, time, src, dst)`` entry per wire send.

If a change is *meant* to move a trajectory, re-record the hash and say
why in the change log.
"""

import hashlib

import pytest

from repro import LossSpec, ProtocolConfig, ProtocolSpec, RetransmitPolicy, SessionSpec
from repro.streaming import LinkFaultSpec


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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_send_log_matches_recorded_hash(name):
    make_spec, length, digest = GOLDEN[name]
    session = make_spec().build()
    session.run()
    log = session.overlay.traffic.send_log
    assert len(log) == length
    assert hashlib.sha256(repr(log).encode()).hexdigest() == digest
