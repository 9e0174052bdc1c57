"""Bench KERNEL — event-kernel scaling matrix (peers × packets).

Each cell runs one profiled DCoP session and records the simulator's own
cost model: events processed, peak heap depth and cancelled-event waste
(trajectory-derived, deterministic under equal seeds — exact-compared by
``repro.experiments.regress``), plus events-per-wall-second throughput
(machine-dependent, key contains ``wall`` so it stays informational
unless explicitly gated via ``regress --gate-scalar``).  This is the
baseline any future kernel-speed work (see ROADMAP) must move.

A companion matrix, ``test_bench_kernel_batched_media``, pits the
batched media plane (``SessionSpec.media_batch``) against the per-packet
plane on media-dominant topologies, recording simulated-time throughput
(``sim_ms_per_wall_s``) and its batched/unbatched speedup.  Batching
collapses each per-slot subsequence into one delivery event, so the
gain scales with packets-per-stream; deeply divided overlays (DCoP at
large H) see none, a single-source firehose sees several-fold.
"""

import time

from repro.core.base import ProtocolConfig
from repro.obs.prof import ProfileConfig
from repro.obs.trace import TraceConfig
from repro.streaming.spec import ProtocolSpec, SessionSpec

#: (contents peers, content packets) — grows each axis separately
MATRIX = [
    (10, 200),
    (25, 400),
    (50, 400),
    (100, 400),
    (100, 800),
    (200, 400),
]


def _run_cell(n: int, packets: int):
    spec = SessionSpec(
        config=ProtocolConfig(
            n=n,
            H=min(n, 60),
            fault_margin=1,
            seed=0,
            content_packets=packets,
        ),
        protocol=ProtocolSpec("dcop", {}),
        profile=ProfileConfig(),
    )
    return spec.run()


def test_bench_kernel_scaling(benchmark, bench_scalars):
    results = benchmark.pedantic(
        lambda: [(n, p, _run_cell(n, p)) for n, p in MATRIX],
        rounds=1,
        iterations=1,
    )

    print()
    print(
        f"{'n':>5} {'packets':>8} {'events':>8} {'heap':>6} "
        f"{'cancelled':>10} {'ev/wall-s':>10} {'attributed':>11}"
    )
    total_events = 0
    total_wall = 0.0
    for n, p, result in results:
        profile = result.profile
        print(
            f"{n:>5} {p:>8} {profile.events_processed:>8} "
            f"{profile.heap_peak:>6} {profile.cancelled_events:>10} "
            f"{profile.events_per_wall_s:>10,.0f} "
            f"{profile.attributed_share:>11.1%}"
        )
        cell = f"n{n}_p{p}"
        bench_scalars[f"events_{cell}"] = profile.events_processed
        bench_scalars[f"heap_peak_{cell}"] = profile.heap_peak
        bench_scalars[f"cancelled_{cell}"] = profile.cancelled_events
        bench_scalars[f"events_per_wall_s_{cell}"] = round(
            profile.events_per_wall_s, 1
        )
        bench_scalars[f"sim_ms_per_wall_s_{cell}"] = round(
            profile.sim_ms_per_wall_s, 1
        )
        total_events += profile.events_processed
        total_wall += profile.wall_s
    bench_scalars["events_per_wall_s_total"] = round(
        total_events / total_wall, 1
    )

    # streaming itself must be healthy in every cell
    assert all(result.delivery_ratio == 1.0 for _n, _p, result in results)
    # the profiler's ledger accounts for (nearly) all dispatch time
    assert all(
        result.profile.attributed_share >= 0.95
        for _n, _p, result in results
    )
    # event volume and heap pressure grow with the overlay (p=400 axis)
    n_axis = [
        (n, result.profile)
        for n, p, result in results
        if p == 400
    ]
    events = [profile.events_processed for _n, profile in n_axis]
    heaps = [profile.heap_peak for _n, profile in n_axis]
    assert events == sorted(events) and len(set(events)) == len(events)
    assert heaps == sorted(heaps) and len(set(heaps)) == len(heaps)


# ----------------------------------------------------------------------
# batched media plane
# ----------------------------------------------------------------------
#: (protocol, n, H, packets, media_batch) — media-dominant cells where
#: per-stream rate × window spans many packets, plus a divided-overlay
#: cell (tcop) where batches are small and the gain honestly vanishes
BATCH_MATRIX = [
    ("single_source", 20, 4, 2000, 2.0),
    ("single_source", 50, 4, 5000, 5.0),
    ("tcop", 50, 8, 2000, 5.0),
]


def _run_media_cell(protocol: str, n: int, H: int, packets: int, batch: float):
    spec = SessionSpec(
        config=ProtocolConfig(
            n=n, H=H, fault_margin=1, seed=0, content_packets=packets
        ),
        protocol=ProtocolSpec(protocol, {}),
        profile=ProfileConfig(),
        media_batch=batch,
    )
    return spec.run()


def test_bench_kernel_batched_media(benchmark, bench_scalars):
    def matrix():
        out = []
        for protocol, n, H, packets, batch in BATCH_MATRIX:
            plain = _run_media_cell(protocol, n, H, packets, 0.0)
            batched = _run_media_cell(protocol, n, H, packets, batch)
            out.append((protocol, n, packets, batch, plain, batched))
        return out

    results = benchmark.pedantic(matrix, rounds=1, iterations=1)

    print()
    print(
        f"{'cell':>28} {'events':>8} {'ev(batched)':>12} "
        f"{'sim-ms/s':>10} {'batched':>10} {'speedup':>8}"
    )
    for protocol, n, packets, batch, plain, batched in results:
        pp, bp = plain.profile, batched.profile
        speedup = (
            bp.sim_ms_per_wall_s / pp.sim_ms_per_wall_s
            if pp.sim_ms_per_wall_s > 0
            else 0.0
        )
        cell = f"{protocol}_n{n}_p{packets}"
        print(
            f"{cell + f'@{batch}δ':>28} {pp.events_processed:>8} "
            f"{bp.events_processed:>12} {pp.sim_ms_per_wall_s:>10,.0f} "
            f"{bp.sim_ms_per_wall_s:>10,.0f} {speedup:>8.2f}×"
        )
        bench_scalars[f"events_{cell}"] = pp.events_processed
        bench_scalars[f"events_batched_{cell}"] = bp.events_processed
        # ``wall`` in the key keeps these informational for regress
        bench_scalars[f"sim_ms_per_wall_s_{cell}"] = round(
            pp.sim_ms_per_wall_s, 1
        )
        bench_scalars[f"sim_ms_per_wall_s_batched_{cell}"] = round(
            bp.sim_ms_per_wall_s, 1
        )
        # simulated peer-milliseconds per wall-second: the scalable-
        # streaming headline (how much overlay·time one wall-second buys)
        bench_scalars[f"sim_peer_ms_per_wall_s_batched_{cell}"] = round(
            n * bp.sim_ms_per_wall_s, 1
        )
        bench_scalars[f"batched_speedup_wall_{cell}"] = round(speedup, 2)

    # semantics preserved in every cell, both planes
    assert all(
        plain.delivery_ratio == 1.0 and batched.delivery_ratio == 1.0
        for *_cell, plain, batched in results
    )
    # the media-dominant headline cell gains at least 2× simulated-time
    # throughput from batching (measured ~4× on the reference machine)
    headline = results[1]
    assert (
        headline[5].profile.sim_ms_per_wall_s
        >= 2.0 * headline[4].profile.sim_ms_per_wall_s
    )
    # batching strictly cuts the event count wherever batches form
    assert all(
        batched.profile.events_processed < plain.profile.events_processed
        for *_cell, plain, batched in results
    )


# ----------------------------------------------------------------------
# lazy trace payloads
# ----------------------------------------------------------------------
def _run_traced_cell(trace):
    spec = SessionSpec(
        config=ProtocolConfig(
            n=20, H=4, fault_margin=1, seed=0, content_packets=2000
        ),
        protocol=ProtocolSpec("single_source", {}),
        trace=trace,
    )
    return spec.run()


def test_bench_kernel_lazy_trace(benchmark, bench_scalars):
    """Cost of tracing a media-dominant cell at three filter widths.

    ``TraceBus.emit`` materializes the payload tuple and the
    :class:`TraceEvent` lazily — when the kind's category is filtered
    out and nobody subscribed, it returns right after the counter
    updates.  A narrow filter on a media firehose should therefore cost
    a small fraction of a full trace.  Wall ratios are informational
    (``wall`` keys); the stored-event counts and per-kind totals are
    trajectory-derived and exact-compared by regress.
    """
    def cells():
        out = []
        for name, trace in (
            ("off", None),
            ("lazy", TraceConfig(categories=frozenset({"wave"}))),
            ("full", TraceConfig()),
        ):
            t0 = time.perf_counter()
            result = _run_traced_cell(trace)
            out.append((name, result, time.perf_counter() - t0))
        return out

    results = benchmark.pedantic(cells, rounds=1, iterations=1)

    print()
    by_name = {}
    for name, result, wall in results:
        bus = result.trace
        stored = len(bus.events) if bus is not None else 0
        emitted = (
            sum(bus.counts_by_kind.values()) if bus is not None else 0
        )
        print(
            f"{name:>6}: {wall:.3f} s wall, "
            f"{stored} stored / {emitted} emitted"
        )
        by_name[name] = (result, wall, stored, emitted)
        if bus is not None:
            bench_scalars[f"trace_events_stored_{name}"] = stored
            bench_scalars[f"trace_events_emitted_{name}"] = emitted
    for name in ("lazy", "full"):
        bench_scalars[f"trace_overhead_wall_x_{name}"] = round(
            by_name[name][1] / by_name["off"][1], 2
        )

    # tracing is passive at any filter width: identical trajectories
    off, lazy, full = (by_name[k][0] for k in ("off", "lazy", "full"))
    assert off.summary() == lazy.summary() == full.summary()
    # the filter rejected the media firehose from the log but the
    # pre-filter counters still saw every packet emit
    assert by_name["lazy"][2] < by_name["full"][2] // 10
    assert by_name["lazy"][3] == by_name["full"][3]
