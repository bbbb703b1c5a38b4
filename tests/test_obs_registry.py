"""Unit tests for the hierarchical metrics registry and its instruments.

The naming semantics are load-bearing: reports slice the registry by
dot-prefix, so the name space must stay a proper tree (no leaf that is
also an interior node) and every name must own exactly one instrument
kind.  The statistics (percentiles, sample stdev, windowed rates) are
what every latency and throughput figure is computed from.
"""

import bisect
import math
import random

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    Meter,
    MetricNameError,
    MetricsRegistry,
)
from repro.obs.registry import percentile_of_sorted, sample_stdev, summarize


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_accumulates(self, registry):
        counter = registry.counter("a.b")
        counter.increment()
        counter.increment(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(ValueError):
            registry.counter("a").increment(-1)

    def test_gauge_set_and_read(self, registry):
        gauge = registry.gauge("g")
        gauge.set(7.0)
        assert gauge.value == 7.0

    def test_gauge_tracks_callback(self, registry):
        state = {"v": 1.0}
        gauge = registry.gauge("g")
        gauge.track(lambda: state["v"])
        state["v"] = 42.0
        assert gauge.value == 42.0

    def test_gauge_set_clears_callback(self, registry):
        gauge = registry.gauge("g")
        gauge.track(lambda: 99.0)
        gauge.set(1.0)
        assert gauge.value == 1.0

    def test_histogram_summary(self, registry):
        hist = registry.histogram("h")
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        summary = hist.snapshot()
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(2.0)


class TestRegistration:
    def test_same_name_same_kind_returns_same_instrument(self, registry):
        assert registry.counter("x.y") is registry.counter("x.y")

    def test_kind_collision_raises(self, registry):
        registry.counter("x.y")
        with pytest.raises(MetricNameError):
            registry.histogram("x.y")
        with pytest.raises(MetricNameError):
            registry.gauge("x.y")

    def test_leaf_cannot_become_interior(self, registry):
        registry.counter("a.b")
        with pytest.raises(MetricNameError):
            registry.counter("a.b.c")

    def test_interior_cannot_become_leaf(self, registry):
        registry.counter("a.b.c")
        with pytest.raises(MetricNameError):
            registry.counter("a.b")

    def test_sibling_names_coexist(self, registry):
        registry.counter("a.b")
        registry.gauge("a.c")
        registry.histogram("a.d.e")
        assert len(registry) == 3

    @pytest.mark.parametrize("bad", ["", ".", "a..b", "a b", "a.b!", ".a", "a."])
    def test_invalid_segments_rejected(self, registry, bad):
        with pytest.raises(MetricNameError):
            registry.counter(bad)

    def test_allowed_charset(self, registry):
        registry.counter("Smart.replica-3.write_quorum_wait")
        assert "Smart.replica-3.write_quorum_wait" in registry

    def test_kinds_tagged(self, registry):
        assert isinstance(registry.counter("c"), Counter)
        assert isinstance(registry.gauge("g"), Gauge)
        assert isinstance(registry.histogram("h"), Histogram)
        assert isinstance(registry.meter("m"), Meter)

    def test_same_name_same_instrument(self, registry):
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("y") is registry.histogram("y")
        assert registry.meter("z") is registry.meter("z")

    def test_meter_kind_collision_raises(self, registry):
        registry.meter("m")
        with pytest.raises(MetricNameError):
            registry.histogram("m")
        registry.histogram("h")
        with pytest.raises(MetricNameError):
            registry.meter("h")

    def test_repeated_lookup_constructs_nothing(self, registry, monkeypatch):
        # the hub resolves instruments by name on every message; a hit
        # must return the registered instrument without building one
        built = []
        for cls in (Counter, Gauge, Histogram):
            original = cls.__init__

            def counting_init(self, name, _original=original):
                built.append(name)
                _original(self, name)

            monkeypatch.setattr(cls, "__init__", counting_init)
        counter = registry.counter("sim.network.messages_sent")
        gauge = registry.gauge("sim.cpu.0.utilization")
        histogram = registry.histogram("ordering.frontend.1000.latency")
        assert len(built) == 3
        built.clear()
        for _ in range(3):
            assert registry.counter("sim.network.messages_sent") is counter
            assert registry.gauge("sim.cpu.0.utilization") is gauge
            assert registry.histogram("ordering.frontend.1000.latency") is histogram
        assert built == []
        with pytest.raises(MetricNameError):
            registry.gauge("sim.network.messages_sent")
        assert built == []


class TestQueries:
    def test_subtree_is_dot_boundary_aware(self, registry):
        registry.counter("smart.replica.1.decided")
        registry.counter("smart.replicant")  # shares a string prefix only
        names = set(registry.subtree("smart.replica"))
        assert names == {"smart.replica.1.decided"}

    def test_subtree_includes_exact_leaf(self, registry):
        registry.counter("a.b")
        assert set(registry.subtree("a.b")) == {"a.b"}

    def test_snapshot_filtered_by_prefix(self, registry):
        registry.counter("a.x").increment(1)
        registry.counter("b.y").increment(2)
        assert registry.snapshot("a") == {"a.x": 1.0}

    def test_snapshot_unfiltered_sorted(self, registry):
        registry.counter("b").increment()
        registry.counter("a").increment()
        assert list(registry.snapshot()) == ["a", "b"]

    def test_tree_nests_by_segment(self, registry):
        registry.counter("sim.cpu.0.steals").increment(4)
        registry.gauge("sim.net.util").set(0.5)
        tree = registry.tree()
        assert tree["sim"]["cpu"]["0"]["steals"] == 4.0
        assert tree["sim"]["net"]["util"] == 0.5

    def test_get_missing_returns_none(self, registry):
        assert registry.get("nope") is None
        assert "nope" not in registry

    def test_snapshot_contains_all(self, registry):
        registry.counter("c").increment()
        registry.histogram("l").record(1.0)
        registry.meter("m").record(0.0, 1.0)
        registry.gauge("g").set(2.0)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"c", "g", "l", "m"}
        assert snapshot["m"] == {"total": 1.0, "rate": 0.0}
        assert snapshot["l"]["count"] == 1.0


class TestPercentileOfSorted:
    def test_empty_is_nan(self):
        assert math.isnan(percentile_of_sorted([], 50.0))
        assert math.isnan(percentile_of_sorted([], 0.0))

    def test_single_sample_is_every_percentile(self):
        for p in (0.0, 50.0, 95.0, 100.0):
            assert percentile_of_sorted([7.5], p) == 7.5

    def test_p0_p100_are_extremes(self):
        data = [1.0, 4.0, 9.0]
        assert percentile_of_sorted(data, 0.0) == 1.0
        assert percentile_of_sorted(data, 100.0) == 9.0

    def test_linear_interpolation(self):
        # rank = 0.25 * 3 = 0.75 between 1.0 and 2.0
        assert percentile_of_sorted([1.0, 2.0, 3.0, 4.0], 25.0) == pytest.approx(1.75)
        assert percentile_of_sorted([1.0, 2.0], 50.0) == pytest.approx(1.5)

    def test_p95_of_hundred(self):
        data = [float(i) for i in range(100)]
        assert percentile_of_sorted(data, 95.0) == pytest.approx(94.05)

    def test_out_of_range_rejected(self):
        for p in (-0.1, 100.1, 1000.0):
            with pytest.raises(ValueError):
                percentile_of_sorted([1.0], p)


class TestSampleStdev:
    def test_fewer_than_two_is_nan(self):
        assert math.isnan(sample_stdev([]))
        assert math.isnan(sample_stdev([3.0]))

    def test_bessel_correction(self):
        # variance of [2, 4, 4, 4, 5, 5, 7, 9] is 32/7 with n-1
        data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        assert sample_stdev(data) == pytest.approx(math.sqrt(32.0 / 7.0))

    def test_constant_samples_zero(self):
        assert sample_stdev([5.0, 5.0, 5.0]) == 0.0

    def test_precomputed_mean_matches(self):
        data = [1.0, 2.0, 6.0]
        assert sample_stdev(data, mean=3.0) == pytest.approx(sample_stdev(data))


class TestSummarize:
    def test_keys(self):
        assert set(summarize([1.0])) == {
            "count", "mean", "median", "p95", "stdev", "min", "max",
        }

    def test_empty_all_nan_except_count(self):
        stats = summarize([])
        assert stats["count"] == 0.0
        for key in ("mean", "median", "p95", "stdev", "min", "max"):
            assert math.isnan(stats[key]), key

    def test_values(self):
        stats = summarize([3.0, 1.0, 2.0, 4.0])
        assert stats["count"] == 4.0
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["median"] == pytest.approx(2.5)
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
        assert stats["stdev"] == pytest.approx(sample_stdev([1.0, 2.0, 3.0, 4.0]))

    def test_input_order_irrelevant(self):
        assert summarize([3.0, 1.0, 2.0]) == summarize([1.0, 2.0, 3.0])


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_increment(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(5)
        assert counter.value == 6


class TestHistogram:
    def test_empty_stats_are_nan(self):
        recorder = Histogram("h")
        assert math.isnan(recorder.mean)
        assert math.isnan(recorder.median)

    def test_mean(self):
        recorder = Histogram("h")
        recorder.extend([1.0, 2.0, 3.0])
        assert recorder.mean == pytest.approx(2.0)

    def test_median_odd(self):
        recorder = Histogram("h")
        recorder.extend([3.0, 1.0, 2.0])
        assert recorder.median == pytest.approx(2.0)

    def test_median_even_interpolates(self):
        recorder = Histogram("h")
        recorder.extend([1.0, 2.0, 3.0, 4.0])
        assert recorder.median == pytest.approx(2.5)

    def test_p90(self):
        recorder = Histogram("h")
        recorder.extend(float(i) for i in range(1, 11))
        assert recorder.p90 == pytest.approx(9.1)

    def test_percentile_bounds(self):
        recorder = Histogram("h")
        recorder.extend([5.0, 1.0])
        assert recorder.percentile(0) == 1.0
        assert recorder.percentile(100) == 5.0
        with pytest.raises(ValueError):
            recorder.percentile(101)

    def test_min_max(self):
        recorder = Histogram("h")
        recorder.extend([4.0, 2.0, 9.0])
        assert recorder.minimum == 2.0
        assert recorder.maximum == 9.0

    def test_reset(self):
        recorder = Histogram("h")
        recorder.record(1.0)
        recorder.reset()
        assert recorder.count == 0
        recorder.record(2.0)
        assert recorder.median == 2.0

    def test_empty_percentiles_are_nan(self):
        recorder = Histogram("h")
        assert math.isnan(recorder.percentile(50.0))
        assert math.isnan(recorder.p95)
        assert math.isnan(recorder.minimum)
        assert math.isnan(recorder.maximum)

    def test_single_sample_percentiles(self):
        recorder = Histogram("h")
        recorder.record(3.5)
        for p in (0.0, 50.0, 100.0):
            assert recorder.percentile(p) == 3.5

    def test_p95(self):
        recorder = Histogram("h")
        recorder.extend(float(i) for i in range(1, 101))
        assert recorder.p95 == pytest.approx(95.05)

    def test_stdev(self):
        recorder = Histogram("h")
        assert math.isnan(recorder.stdev)
        recorder.record(1.0)
        assert math.isnan(recorder.stdev)
        recorder.extend([2.0, 3.0])
        assert recorder.stdev == pytest.approx(1.0)

    def test_cached_sort_invalidated_by_record(self):
        # regression: the cached sorted view must be rebuilt after a
        # mid-run insertion, or percentiles silently report stale data
        recorder = Histogram("h")
        recorder.extend([3.0, 1.0])
        assert recorder.median == pytest.approx(2.0)  # builds the cache
        recorder.record(100.0)
        assert recorder.median == pytest.approx(3.0)
        assert recorder.maximum == 100.0

    def test_cached_sort_invalidated_by_reset(self):
        recorder = Histogram("h")
        recorder.extend([5.0, 6.0])
        assert recorder.median == pytest.approx(5.5)  # builds the cache
        recorder.reset()
        recorder.record(1.0)
        assert recorder.median == 1.0

    def test_queries_never_disturb_arrival_order(self):
        # regression: an earlier revision sorted the sample list in
        # place, so querying a percentile mid-run destroyed the arrival
        # order that order-sensitive statistics rely on
        recorder = Histogram("h")
        recorder.extend([3.0, 1.0, 2.0])
        recorder.median
        recorder.percentile(90.0)
        assert recorder.samples == [3.0, 1.0, 2.0]
        recorder.observe(0.5)
        assert recorder.samples == [3.0, 1.0, 2.0, 0.5]

    def test_summary_keys(self):
        recorder = Histogram("h")
        recorder.record(1.0)
        summary = recorder.summary()
        assert set(summary) == {
            "count", "mean", "median", "p90", "p95", "stdev", "min", "max",
        }
        assert recorder.snapshot() == summary

    def test_interleaved_record_and_query(self):
        """Queries between insertions must see the up-to-date sample set
        (the lazy sort cache invalidates on every record)."""
        recorder = Histogram("h")
        recorder.extend([5.0, 1.0])
        assert recorder.median == pytest.approx(3.0)
        recorder.record(0.0)
        assert recorder.median == pytest.approx(1.0)
        assert recorder.minimum == 0.0
        recorder.record(9.0)
        assert recorder.maximum == 9.0

    def test_lazy_sort_matches_insort_reference(self):
        """Percentiles from the amortized append+sort scheme are identical
        to an insort-per-sample reference over random interleavings."""
        rng = random.Random(20180625)
        recorder = Histogram("h")
        reference: list = []
        for _ in range(500):
            sample = rng.expovariate(1.0)
            recorder.record(sample)
            bisect.insort(reference, sample)
            if rng.random() < 0.2:
                for p in (0.0, 25.0, 50.0, 90.0, 95.0, 100.0):
                    assert recorder.percentile(p) == percentile_of_sorted(reference, p)
        assert recorder._sorted_samples() == reference
        summary = recorder.summary()
        # mean/stdev accumulate in insertion order, the reference sums in
        # sorted order — equal up to float addition reordering only
        assert summary["mean"] == pytest.approx(sum(reference) / 500.0, rel=1e-12)
        assert summary["stdev"] == pytest.approx(sample_stdev(reference), rel=1e-9)
        for key, p in (("median", 50.0), ("p90", 90.0), ("p95", 95.0)):
            assert summary[key] == percentile_of_sorted(reference, p)
        assert summary["min"] == reference[0]
        assert summary["max"] == reference[-1]
        assert summary["count"] == 500.0


class TestMeter:
    def test_rate_over_window(self):
        meter = Meter("m")
        for i in range(11):
            meter.record(float(i), 10.0)
        assert meter.rate() == pytest.approx(110.0 / 10.0)

    def test_rate_with_explicit_window(self):
        meter = Meter("m")
        for i in range(11):
            meter.record(float(i), 1.0)
        assert meter.rate(start=5.0, end=10.0) == pytest.approx(6.0 / 5.0)

    def test_empty_meter_rate_zero(self):
        assert Meter("m").rate() == 0.0

    def test_out_of_order_rejected(self):
        meter = Meter("m")
        meter.record(2.0)
        with pytest.raises(ValueError):
            meter.record(1.0)

    def test_total(self):
        meter = Meter("m")
        meter.record(0.0, 5.0)
        meter.record(1.0, 7.0)
        assert meter.total == 12.0

    def test_snapshot_is_total_and_rate(self):
        meter = Meter("m")
        meter.record(0.0, 2.0)
        meter.record(2.0, 4.0)
        assert meter.snapshot() == {"total": 6.0, "rate": 3.0}
