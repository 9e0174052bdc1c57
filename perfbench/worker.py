"""One benchmark repetition in a fresh interpreter.

Usage (``run.py`` starts it with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py {setup,timed,traced} WORKLOAD SEED [--small]

* ``setup``  — cold ``import repro`` plus ``build()`` of every session,
  with :class:`HostProbe` timing the host's speed alongside;
* ``timed``  — set-up, then ``run()`` of each session with tracing off,
  with :class:`HostProbe` timing the host's speed alongside;
* ``traced`` — the same, with :class:`layers.LayerTracer` wrapped around
  each layer during ``run()``.

Prints one JSON object on stdout.  Sessions run one after another; the
previous session is released and collected before the next is built, so
its garbage is not charged to the next set-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import time
import traceback

#: seconds between two host-speed probes during a timed ``run()`` or a set-up
PROBE_PERIOD_S = 0.05


def probe_loop() -> None:
    """The fixed host-speed probe: about half a millisecond of updates to
    one small dict, whose only container allocation is the dict, so it
    seldom triggers or pays for the session's garbage collection."""
    d = {}
    for i in range(4000):
        d[i & 511] = d.get(i & 511, 0) + i


class HostProbe:
    """Times :func:`probe_loop` from a ``SIGALRM`` handler every
    :data:`PROBE_PERIOD_S` seconds while ``run()`` goes.

    The host is a shared VM whose cores run up to 1.7x slower while a
    neighbour is busy; the probe's times say how fast the host was while
    this session ran or was set up.  ``run.py`` scales the time by them.
    One probe may be entered several times; its times accumulate.
    """

    def __init__(self) -> None:
        self.times = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        probe_loop()
        self.times.append(time.perf_counter() - start)

    def __enter__(self) -> "HostProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)

    setup_probe = HostProbe()
    with setup_probe:
        start = time.perf_counter()
        import repro  # noqa: F401  (the cold import is part of set-up)

        setup_s = time.perf_counter() - start
    from workloads import build_specs, session_record

    tracer = None
    if args.mode == "traced":
        from layers import LayerTracer

        tracer = LayerTracer()
    records, run_s = [], 0.0
    for case, spec in build_specs(args.workload, args.seed, args.small):
        with setup_probe:
            start = time.perf_counter()
            session = spec.build()
            setup_s += time.perf_counter() - start
        if args.mode == "setup":
            del session
            continue
        result, probe = None, HostProbe()
        try:
            with tracer.installed(session) if tracer else probe:
                start = time.perf_counter()
                result = session.run()
                took = time.perf_counter() - start
            record = session_record(case, session, result)
        except Exception as exc:  # a failed session is counted, not fatal
            traceback.print_exc()
            record = {"protocol": case.protocol, "error": repr(exc)}
            took = 0.0
        # the probes ran inside run(); their time is not the session's
        record["run_s"] = took - sum(probe.times)
        if probe.times:
            record["probe_s"] = statistics.median(probe.times)
        run_s += record["run_s"]
        records.append(record)
        del session, result
        gc.collect()

    out = {
        # the probes ran inside the set-up; their time is not set-up's
        "setup_s": setup_s - sum(setup_probe.times),
        "run_s": run_s,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if setup_probe.times:
        out["setup_probe_s"] = statistics.median(setup_probe.times)
    if tracer is not None:
        out["trace"] = tracer.to_json()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
