"""Metrics registry: instruments, sampling, and SweepSeries export."""

import pytest

from repro.metrics import SweepSeries
from repro.obs import (
    Counter,
    EmptyHistogramError,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceConfig,
)
from repro.core import ProtocolConfig, TCoP
from repro.streaming import SessionSpec


def test_counter_is_monotone():
    c = Counter("sends")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_reads_through_callable():
    state = {"v": 3}
    g = Gauge("level", lambda: state["v"])
    assert g.read() == 3.0
    state["v"] = 7
    assert g.read() == 7.0


def test_histogram_buckets_and_mean():
    h = Histogram("gaps", [1.0, 2.0, 4.0])
    for v in (0.5, 1.0, 3.0, 100.0):
        h.observe(v)
    # edges are inclusive upper bounds; 100 lands in the +inf tail bucket
    assert h.bucket_counts == [2, 0, 1, 1]
    assert h.count == 4
    assert h.mean == pytest.approx(104.5 / 4)
    assert h.summary()["bounds"] == [1.0, 2.0, 4.0]
    with pytest.raises(ValueError):
        Histogram("empty", [])
    with pytest.raises(ValueError):
        Histogram("unsorted", [2.0, 1.0])


def test_histogram_percentile_reads_bucket_edges():
    h = Histogram("gaps", [1.0, 2.0, 4.0])
    for v in (0.5, 0.6, 1.5, 3.0):
        h.observe(v)
    assert h.percentile(50) == 1.0
    assert h.percentile(75) == 2.0
    assert h.percentile(100) == 4.0
    # past-the-last-edge observations report the last finite edge
    h.observe(99.0)
    assert h.percentile(100) == 4.0
    with pytest.raises(ValueError):
        h.percentile(101)
    with pytest.raises(ValueError):
        h.percentile(-1)


def test_empty_histogram_refuses_percentile_but_summarizes():
    h = Histogram("gaps", [1.0, 2.0])
    with pytest.raises(EmptyHistogramError) as exc:
        h.percentile(99)
    # the error names the instrument and is an ordinary ValueError too,
    # so existing broad handlers keep working
    assert "gaps" in str(exc.value)
    assert isinstance(exc.value, ValueError)
    assert h.mean is None
    assert h.summary() == {
        "count": 0,
        "mean": None,
        "bounds": [1.0, 2.0],
        "bucket_counts": [0, 0, 0],
    }


def test_registry_rejects_duplicate_names():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x", lambda: 0)
    with pytest.raises(ValueError):
        reg.histogram("x", [1.0])
    # but re-requesting a counter returns the same instrument
    assert reg.counter("x") is reg.counter("x")


def test_sampling_snapshots_counters_and_gauges():
    reg = MetricsRegistry()
    c = reg.counter("sends")
    state = {"v": 10}
    reg.gauge("level", lambda: state["v"])
    reg.sample(0.0)
    c.inc(4)
    state["v"] = 6
    reg.sample(10.0)
    series = reg.to_series()
    assert isinstance(series, SweepSeries)
    assert series.x == [0.0, 10.0]
    assert series.series("sends") == [0.0, 4.0]
    assert series.series("level") == [10.0, 6.0]


def test_sample_times_must_not_regress():
    reg = MetricsRegistry()
    reg.counter("x")
    reg.sample(5.0)
    with pytest.raises(ValueError):
        reg.sample(4.0)


def test_mid_run_registration_backfills_zeros():
    reg = MetricsRegistry()
    reg.counter("early")
    reg.sample(0.0)
    reg.sample(1.0)
    late = reg.counter("late")
    late.inc()
    reg.sample(2.0)
    series = reg.to_series()
    assert series.series("late") == [0.0, 0.0, 1.0]


def test_inc_auto_registers():
    reg = MetricsRegistry()
    reg.inc("sends", 3)
    reg.inc("sends")
    assert reg.counters["sends"].value == 4.0


def test_empty_registry_refuses_export():
    with pytest.raises(ValueError):
        MetricsRegistry().to_series()


def test_session_timeseries_columns_and_coverage():
    config = ProtocolConfig(n=12, H=4, fault_margin=1, content_packets=100, seed=5)
    result = SessionSpec(config, TCoP(), trace=TraceConfig()).run()
    series = result.timeseries
    assert series is not None
    assert series.series_names == sorted(
        [
            "active_peers",
            "buffer_level",
            "ctrl_sends",
            "in_flight_control",
            "media_sends",
            "receipt_rate",
        ]
    )
    assert len(series.x) >= 2
    # counters are monotone over time; the active population reaches n
    ctrl = series.series("ctrl_sends")
    assert ctrl == sorted(ctrl)
    assert max(series.series("active_peers")) == config.n
    # the sampler is rate-limited by max_samples
    assert len(series.x) <= TraceConfig().max_samples


def test_session_metrics_can_be_disabled():
    config = ProtocolConfig(n=12, H=4, fault_margin=1, content_packets=100, seed=5)
    result = SessionSpec(
        config, TCoP(), trace=TraceConfig(metrics=False)
    ).run()
    assert result.trace is not None
    assert result.timeseries is None
