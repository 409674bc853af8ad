"""Direct unit tests for the SLO percentile/aggregation math.

``build_report`` was previously only exercised through whole server runs;
these tests pin its arithmetic down on hand-built request records
(columnarized with ``RequestRecords.from_records``): empty traces,
single-request traces, latency ties, byte provenance sums and the
deterministic text rendering.
"""

import math

import pytest

from repro.serving.cache import CacheStats
from repro.serving.metrics import RequestRecords, ServedRequest, build_report
from repro.storage.bandwidth import StorageBandwidthModel

BANDWIDTH = StorageBandwidthModel()


def record(
    request_id=0,
    arrival=0.0,
    latency=0.010,
    resolution=32,
    bytes_from_store=1000,
    bytes_from_cache=0,
    total_bytes=4000,
    batch_size=1,
    prediction=1,
    label=1,
) -> ServedRequest:
    """A ServedRequest with a given latency and a plausible timeline inside it."""
    completion = arrival + latency
    return ServedRequest(
        request_id=request_id,
        key=f"img{request_id}",
        arrival_time=arrival,
        ready_time=arrival + 0.25 * latency,
        dispatch_time=arrival + 0.5 * latency,
        completion_time=completion,
        resolution=resolution,
        scans_read=3,
        bytes_from_store=bytes_from_store,
        bytes_from_cache=bytes_from_cache,
        total_bytes=total_bytes,
        batch_size=batch_size,
        prediction=prediction,
        label=label,
    )


def fold(served, **kwargs):
    """``build_report`` over hand-built object records."""
    return build_report(RequestRecords.from_records(served), **kwargs)


class TestEdgeCases:
    def test_empty_trace_yields_a_well_defined_empty_report(self):
        # Regression: this used to raise, which made "every arrival was
        # dropped" unreportable once admission control existed.
        report = fold([], bandwidth=BANDWIDTH, store_requests=0)
        assert report.num_requests == 0
        assert report.duration_s == 0.0
        assert report.throughput_rps == 0.0
        assert report.mean_latency_ms is None
        assert report.p50_latency_ms is None
        assert report.p95_latency_ms is None
        assert report.p99_latency_ms is None
        assert report.mean_queue_wait_ms is None
        assert report.mean_batch_size is None
        assert report.accuracy is None
        assert report.bytes_from_store == 0
        assert report.baseline_bytes == 0
        assert report.resolution_histogram == {}
        # The empty report still formats and round-trips deterministically.
        assert "requests served        0" in report.format()
        assert fold([], bandwidth=BANDWIDTH, store_requests=0) == report

    def test_empty_trace_keeps_drop_accounting(self):
        report = fold(
            [], bandwidth=BANDWIDTH, store_requests=0, dropped_requests=7
        )
        assert report.dropped_requests == 7
        assert report.offered_requests == 7
        assert report.drop_rate == 1.0
        assert "requests dropped       7" in report.format()

    def test_single_request_trace(self):
        report = fold([record(latency=0.02)], bandwidth=BANDWIDTH, store_requests=1)
        assert report.num_requests == 1
        assert report.duration_s == pytest.approx(0.02)
        assert report.throughput_rps == pytest.approx(50.0)
        # With one sample every percentile is that sample.
        assert (
            report.mean_latency_ms
            == report.p50_latency_ms
            == report.p95_latency_ms
            == report.p99_latency_ms
            == pytest.approx(20.0)
        )
        assert report.mean_queue_wait_ms == pytest.approx(5.0)
        assert report.mean_batch_size == 1.0
        assert report.resolution_histogram == {32: 1}

    def test_zero_duration_reports_infinite_throughput(self):
        # Degenerate but representable: completion == arrival.
        report = fold([record(latency=0.0)], bandwidth=BANDWIDTH, store_requests=1)
        assert report.duration_s == 0.0
        assert math.isinf(report.throughput_rps)

    def test_unlabelled_requests_make_accuracy_none(self):
        # None rather than NaN: NaN is invalid strict JSON and never
        # compares equal, which would break the Report round-trip contract.
        report = fold(
            [record(label=None)], bandwidth=BANDWIDTH, store_requests=1
        )
        assert report.accuracy is None
        assert "accuracy               n/a" in report.format()
        from repro.api.reports import Report

        assert Report.from_json(report.to_json()) == report


class TestPercentiles:
    def test_latency_ties_collapse_all_percentiles(self):
        served = [record(request_id=i, arrival=0.001 * i, latency=0.010) for i in range(10)]
        report = fold(served, bandwidth=BANDWIDTH, store_requests=10)
        # All-identical latencies (up to float noise in completion - arrival)
        # collapse every percentile onto the common value.
        assert report.p50_latency_ms == pytest.approx(10.0)
        assert report.p95_latency_ms == pytest.approx(10.0)
        assert report.p99_latency_ms == pytest.approx(10.0)

    def test_percentiles_are_monotone_and_interpolated(self):
        served = [
            record(request_id=i, arrival=0.0, latency=0.001 * (i + 1)) for i in range(100)
        ]
        report = fold(served, bandwidth=BANDWIDTH, store_requests=100)
        assert report.p50_latency_ms <= report.p95_latency_ms <= report.p99_latency_ms
        # Latencies 1..100 ms: numpy's linear interpolation puts p50 at 50.5.
        assert report.p50_latency_ms == pytest.approx(50.5)
        assert report.mean_latency_ms == pytest.approx(50.5)

    def test_report_is_order_independent(self):
        served = [record(request_id=i, arrival=0.002 * i, latency=0.001 * (i + 1)) for i in range(7)]
        forward = fold(served, bandwidth=BANDWIDTH, store_requests=7)
        backward = fold(list(reversed(served)), bandwidth=BANDWIDTH, store_requests=7)
        assert forward == backward


class TestAggregation:
    def test_byte_provenance_and_savings(self):
        served = [
            record(request_id=0, bytes_from_store=1000, bytes_from_cache=0, total_bytes=5000),
            record(request_id=1, bytes_from_store=0, bytes_from_cache=3000, total_bytes=5000),
        ]
        report = fold(served, bandwidth=BANDWIDTH, store_requests=1)
        assert report.bytes_from_store == 1000
        assert report.bytes_from_cache == 3000
        assert report.baseline_bytes == 10_000
        assert report.bytes_saved == 9000
        assert report.relative_bytes_saved == pytest.approx(0.9)

    def test_transfer_pricing_matches_the_bandwidth_model(self):
        served = [record(bytes_from_store=50_000)]
        report = fold(served, bandwidth=BANDWIDTH, store_requests=3)
        estimate = BANDWIDTH.estimate(50_000, num_requests=3)
        assert report.transfer_seconds == estimate.seconds
        assert report.transfer_dollars == estimate.dollars

    def test_transfer_pricing_includes_prefetch_traffic(self):
        # Prefetched bytes ride real store GETs, so they are priced with
        # the demand bytes even though no request waited on them.
        served = [record(bytes_from_store=50_000)]
        report = fold(
            served, bandwidth=BANDWIDTH, store_requests=4, prefetch_bytes=10_000
        )
        estimate = BANDWIDTH.estimate(60_000, num_requests=4)
        assert report.transfer_seconds == estimate.seconds
        assert report.transfer_dollars == estimate.dollars

    def test_accuracy_counts_only_labelled_requests(self):
        served = [
            record(request_id=0, prediction=1, label=1),
            record(request_id=1, prediction=2, label=1),
            record(request_id=2, prediction=0, label=None),
        ]
        report = fold(served, bandwidth=BANDWIDTH, store_requests=3)
        assert report.accuracy == pytest.approx(50.0)

    def test_cache_stats_and_degradation_flow_through(self):
        stats = CacheStats(lookups=10, hits=6, partial_hits=2, misses=2)
        report = fold(
            [record()],
            bandwidth=BANDWIDTH,
            store_requests=1,
            cache_stats=stats,
            degraded_requests=4,
        )
        assert report.cache_hit_rate == pytest.approx(0.8)
        assert report.degraded_requests == 4


class TestFormat:
    def test_format_is_deterministic_and_complete(self):
        served = [record(request_id=i, resolution=24 if i % 2 else 48) for i in range(4)]
        stats = CacheStats(lookups=4, hits=2, misses=2)
        report = fold(
            [*served],
            bandwidth=BANDWIDTH,
            store_requests=4,
            cache_stats=stats,
            degraded_requests=1,
        )
        text = report.format()
        assert text == report.format()
        assert "requests served        4" in text
        assert "cache hit rate         50.0 %" in text
        assert "degraded requests      1" in text
        # Histogram renders in ascending resolution order.
        assert text.index("24px: 2") < text.index("48px: 2")

    def test_format_omits_absent_sections(self):
        report = fold([record()], bandwidth=BANDWIDTH, store_requests=1)
        text = report.format()
        assert "cache hit rate" not in text
        assert "degraded requests" not in text
