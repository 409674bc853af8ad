"""Per-run SLO reporting for the serving simulator.

A serving run records every completed request with its full timeline
(arrival → ready → dispatch → completion) and byte provenance (store vs
cache).  :func:`build_report` folds those records into an
:class:`SLOReport`: throughput, latency percentiles, batching behaviour,
cache effectiveness, admission drops, prefetch payoff, bytes read versus
the all-data baseline, and the dollar cost of the bytes actually moved
(via :class:`~repro.storage.bandwidth.StorageBandwidthModel`, the paper's
cloud-economics model).  Reports are plain frozen dataclasses so two
deterministic runs can be compared with ``==``; they are also
:class:`~repro.api.reports.Report` subclasses, so they serialize through
the unified ``to_dict``/``from_dict`` schema the CLI and sweeps share.

Million-request runs cannot afford one Python object per completion, so
the server accumulates the fourteen fields columnar in a
:class:`RequestRecords` (typed ``array`` columns, zero per-request object
churn), and :func:`build_report` folds those columns directly.
:class:`ServedRequest` remains the per-request object view: the payload of
:class:`~repro.serving.events.RequestCompleted` and the output of
:meth:`RequestRecords.materialize`.

An empty record list (every arrival dropped, or a zero-length run) is a
well-defined report — zero requests, ``None`` percentiles — not an error:
an admission policy that sheds all load is a legitimate outcome the
control plane must be able to describe.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.api.reports import Report, report_type
from repro.storage.bandwidth import StorageBandwidthModel

from repro.serving.cache import CacheStats


@dataclass(frozen=True)
class ServedRequest:
    """Timeline and accounting for one completed request."""

    request_id: int
    key: str
    arrival_time: float
    ready_time: float  # reads + resolution selection finished
    dispatch_time: float  # batch started executing on a worker
    completion_time: float
    resolution: int
    scans_read: int
    bytes_from_store: int
    bytes_from_cache: int
    total_bytes: int
    batch_size: int
    prediction: int
    label: int | None

    @property
    def latency(self) -> float:
        return self.completion_time - self.arrival_time

    @property
    def queue_wait(self) -> float:
        return self.dispatch_time - self.ready_time

    @property
    def correct(self) -> bool | None:
        if self.label is None:
            return None
        return self.prediction == self.label


class RequestRecords:
    """Columnar accumulator for completed requests (the only record store).

    Holds the same fourteen fields as :class:`ServedRequest`, one typed
    ``array`` column per field instead of one frozen object per request —
    appending a completion is fourteen C-level appends, and a million-
    request run holds megabytes of flat buffers instead of a million
    dataclass instances.  ``label`` uses ``-1`` as the ``None`` sentinel
    (class labels are non-negative).

    :func:`build_report` consumes the columns directly; :meth:`materialize`
    rebuilds the equivalent :class:`ServedRequest` list for consumers that
    want objects, and :meth:`from_records` goes the other way.
    """

    __slots__ = (
        "request_ids",
        "keys",
        "arrival_times",
        "ready_times",
        "dispatch_times",
        "completion_times",
        "resolutions",
        "scans_read",
        "bytes_from_store",
        "bytes_from_cache",
        "total_bytes",
        "batch_sizes",
        "predictions",
        "labels",
    )

    def __init__(self) -> None:
        self.request_ids = array("q")
        self.keys: list[str] = []
        self.arrival_times = array("d")
        self.ready_times = array("d")
        self.dispatch_times = array("d")
        self.completion_times = array("d")
        self.resolutions = array("q")
        self.scans_read = array("q")
        self.bytes_from_store = array("q")
        self.bytes_from_cache = array("q")
        self.total_bytes = array("q")
        self.batch_sizes = array("q")
        self.predictions = array("q")
        self.labels = array("q")

    def __len__(self) -> int:
        return len(self.request_ids)

    def append(
        self,
        request_id: int,
        key: str,
        arrival_time: float,
        ready_time: float,
        dispatch_time: float,
        completion_time: float,
        resolution: int,
        scans_read: int,
        bytes_from_store: int,
        bytes_from_cache: int,
        total_bytes: int,
        batch_size: int,
        prediction: int,
        label: int | None,
    ) -> None:
        """Record one completion (field-for-field a :class:`ServedRequest`)."""
        self.request_ids.append(request_id)
        self.keys.append(key)
        self.arrival_times.append(arrival_time)
        self.ready_times.append(ready_time)
        self.dispatch_times.append(dispatch_time)
        self.completion_times.append(completion_time)
        self.resolutions.append(resolution)
        self.scans_read.append(scans_read)
        self.bytes_from_store.append(bytes_from_store)
        self.bytes_from_cache.append(bytes_from_cache)
        self.total_bytes.append(total_bytes)
        self.batch_sizes.append(batch_size)
        self.predictions.append(prediction)
        self.labels.append(-1 if label is None else label)

    @classmethod
    def from_records(cls, served: Iterable[ServedRequest]) -> "RequestRecords":
        """Columnarize object records, in iteration order."""
        records = cls()
        for record in served:
            records.append_record(record)
        return records

    def append_record(self, record: ServedRequest) -> None:
        """Append an existing object record."""
        self.append(
            record.request_id,
            record.key,
            record.arrival_time,
            record.ready_time,
            record.dispatch_time,
            record.completion_time,
            record.resolution,
            record.scans_read,
            record.bytes_from_store,
            record.bytes_from_cache,
            record.total_bytes,
            record.batch_size,
            record.prediction,
            record.label,
        )

    def extend(self, other: "RequestRecords") -> None:
        """Concatenate another accumulator's columns onto this one."""
        self.request_ids.extend(other.request_ids)
        self.keys.extend(other.keys)
        self.arrival_times.extend(other.arrival_times)
        self.ready_times.extend(other.ready_times)
        self.dispatch_times.extend(other.dispatch_times)
        self.completion_times.extend(other.completion_times)
        self.resolutions.extend(other.resolutions)
        self.scans_read.extend(other.scans_read)
        self.bytes_from_store.extend(other.bytes_from_store)
        self.bytes_from_cache.extend(other.bytes_from_cache)
        self.total_bytes.extend(other.total_bytes)
        self.batch_sizes.extend(other.batch_sizes)
        self.predictions.extend(other.predictions)
        self.labels.extend(other.labels)

    def materialize(self) -> list[ServedRequest]:
        """The equivalent :class:`ServedRequest` objects, in append order."""
        return [
            ServedRequest(
                request_id=self.request_ids[i],
                key=self.keys[i],
                arrival_time=self.arrival_times[i],
                ready_time=self.ready_times[i],
                dispatch_time=self.dispatch_times[i],
                completion_time=self.completion_times[i],
                resolution=self.resolutions[i],
                scans_read=self.scans_read[i],
                bytes_from_store=self.bytes_from_store[i],
                bytes_from_cache=self.bytes_from_cache[i],
                total_bytes=self.total_bytes[i],
                batch_size=self.batch_sizes[i],
                prediction=self.predictions[i],
                label=None if self.labels[i] < 0 else self.labels[i],
            )
            for i in range(len(self))
        ]


@report_type("slo")
@dataclass(frozen=True)
class SLOReport(Report):
    """Aggregate service-level metrics for one serving run.

    The latency/batch statistics are ``None`` when ``num_requests`` is zero
    (percentiles of an empty population are undefined), as is ``accuracy``
    when no served request carried a label; every byte and count field is
    still well-defined.
    """

    num_requests: int
    duration_s: float
    throughput_rps: float
    mean_latency_ms: float | None
    p50_latency_ms: float | None
    p95_latency_ms: float | None
    p99_latency_ms: float | None
    mean_queue_wait_ms: float | None
    mean_batch_size: float | None
    accuracy: float | None
    bytes_from_store: int
    bytes_from_cache: int
    baseline_bytes: int
    bytes_saved: int
    relative_bytes_saved: float
    transfer_seconds: float
    transfer_dollars: float
    cache_hit_rate: float | None
    degraded_requests: int
    resolution_histogram: dict = field(default_factory=dict)
    dropped_requests: int = 0
    prefetch_bytes: int = 0
    prefetch_hits: int = 0
    prefetch_wasted_bytes: int = 0

    @property
    def offered_requests(self) -> int:
        """Arrivals the run saw: served plus dropped."""
        return self.num_requests + self.dropped_requests

    @property
    def drop_rate(self) -> float:
        """Fraction of offered requests the admission policy dropped."""
        if self.offered_requests == 0:
            return 0.0
        return self.dropped_requests / self.offered_requests

    @classmethod
    def _decode(cls, data: dict) -> "SLOReport":
        data = dict(data)
        # JSON object keys are strings; histogram keys are resolutions.
        data["resolution_histogram"] = {
            int(resolution): count
            for resolution, count in data.get("resolution_histogram", {}).items()
        }
        return cls(**data)

    def format(self) -> str:
        """Deterministic plain-text rendering of the report."""
        if self.num_requests == 0:
            lines = [
                "requests served        0",
                f"requests dropped       {self.dropped_requests}",
            ]
            if self.cache_hit_rate is not None:
                lines.append(
                    f"cache hit rate         {100.0 * self.cache_hit_rate:.1f} %"
                )
            return "\n".join(lines)
        lines = [
            f"requests served        {self.num_requests}",
            f"duration               {self.duration_s:.4f} s",
            f"throughput             {self.throughput_rps:.1f} req/s",
            f"latency mean/p50       {self.mean_latency_ms:.2f} / {self.p50_latency_ms:.2f} ms",
            f"latency p95/p99        {self.p95_latency_ms:.2f} / {self.p99_latency_ms:.2f} ms",
            f"mean queue wait        {self.mean_queue_wait_ms:.2f} ms",
            f"mean batch size        {self.mean_batch_size:.2f}",
            (
                f"accuracy               {self.accuracy:.1f} %"
                if self.accuracy is not None
                else "accuracy               n/a (unlabelled)"
            ),
            f"bytes from store       {self.bytes_from_store}",
            f"bytes from cache       {self.bytes_from_cache}",
            f"bytes saved vs full    {self.bytes_saved} ({100.0 * self.relative_bytes_saved:.1f} %)",
            f"transfer time / cost   {self.transfer_seconds:.4f} s / ${self.transfer_dollars:.6f}",
        ]
        if self.cache_hit_rate is not None:
            lines.append(f"cache hit rate         {100.0 * self.cache_hit_rate:.1f} %")
        if self.degraded_requests:
            lines.append(f"degraded requests      {self.degraded_requests}")
        if self.dropped_requests:
            lines.append(
                f"dropped requests       {self.dropped_requests} "
                f"({100.0 * self.drop_rate:.1f} % of offered)"
            )
        if self.prefetch_bytes:
            lines.append(
                f"prefetch bytes         {self.prefetch_bytes} "
                f"({self.prefetch_hits} hits, {self.prefetch_wasted_bytes} wasted)"
            )
        histogram = ", ".join(
            f"{resolution}px: {count}"
            for resolution, count in sorted(self.resolution_histogram.items())
        )
        lines.append(f"resolution mix         {histogram}")
        return "\n".join(lines)


def _percentile_ms(latencies: np.ndarray, q: float) -> float:
    return float(np.percentile(latencies, q) * 1e3)


def build_report(
    records: RequestRecords,
    bandwidth: StorageBandwidthModel,
    store_requests: int,
    cache_stats: CacheStats | None = None,
    degraded_requests: int = 0,
    dropped_requests: int = 0,
    prefetch_bytes: int = 0,
    prefetch_hits: int = 0,
    prefetch_wasted_bytes: int = 0,
) -> SLOReport:
    """Fold completed requests into one :class:`SLOReport`.

    ``store_requests`` is the number of GET operations issued against the
    store (a full cache hit issues none), which the bandwidth model prices
    separately from the bytes moved.  Empty ``records`` — every arrival
    dropped, or nothing offered — yield the well-defined empty report
    (zero requests, ``None`` percentiles) rather than raising.

    The statistics do not depend on append order: the ordered float
    reductions (means, percentiles) run over a stable argsort by request
    id, and the integer folds are exact.  Histogram keys come out
    ascending.
    """
    if not records:
        # Even with nothing served, prefetch GETs may have moved bytes.
        transfer = bandwidth.estimate(prefetch_bytes, num_requests=store_requests)
        return SLOReport(
            num_requests=0,
            duration_s=0.0,
            throughput_rps=0.0,
            mean_latency_ms=None,
            p50_latency_ms=None,
            p95_latency_ms=None,
            p99_latency_ms=None,
            mean_queue_wait_ms=None,
            mean_batch_size=None,
            accuracy=None,
            bytes_from_store=0,
            bytes_from_cache=0,
            baseline_bytes=0,
            bytes_saved=0,
            relative_bytes_saved=0.0,
            transfer_seconds=transfer.seconds,
            transfer_dollars=transfer.dollars,
            cache_hit_rate=cache_stats.hit_rate if cache_stats is not None else None,
            degraded_requests=degraded_requests,
            resolution_histogram={},
            dropped_requests=dropped_requests,
            prefetch_bytes=prefetch_bytes,
            prefetch_hits=prefetch_hits,
            prefetch_wasted_bytes=prefetch_wasted_bytes,
        )
    order = np.argsort(np.frombuffer(records.request_ids, dtype=np.int64), kind="stable")
    arrivals = np.frombuffer(records.arrival_times, dtype=np.float64)[order]
    completions = np.frombuffer(records.completion_times, dtype=np.float64)[order]
    latencies = completions - arrivals
    waits = (
        np.frombuffer(records.dispatch_times, dtype=np.float64)
        - np.frombuffer(records.ready_times, dtype=np.float64)
    )[order]
    duration = float(completions.max()) - float(arrivals.min())

    labels = np.frombuffer(records.labels, dtype=np.int64)
    predictions = np.frombuffer(records.predictions, dtype=np.int64)
    labelled = labels >= 0
    num_labelled = int(labelled.sum())
    accuracy = (
        100.0 * int((predictions[labelled] == labels[labelled]).sum()) / num_labelled
        if num_labelled
        else None
    )

    bytes_from_store = int(np.sum(np.frombuffer(records.bytes_from_store, dtype=np.int64)))
    bytes_from_cache = int(np.sum(np.frombuffer(records.bytes_from_cache, dtype=np.int64)))
    baseline_bytes = int(np.sum(np.frombuffer(records.total_bytes, dtype=np.int64)))
    transfer = bandwidth.estimate(
        bytes_from_store + prefetch_bytes, num_requests=store_requests
    )

    values, counts = np.unique(
        np.frombuffer(records.resolutions, dtype=np.int64), return_counts=True
    )
    histogram = {int(value): int(count) for value, count in zip(values, counts)}

    count = len(records)
    return SLOReport(
        num_requests=count,
        duration_s=duration,
        throughput_rps=count / duration if duration > 0 else float("inf"),
        mean_latency_ms=float(latencies.mean() * 1e3),
        p50_latency_ms=_percentile_ms(latencies, 50),
        p95_latency_ms=_percentile_ms(latencies, 95),
        p99_latency_ms=_percentile_ms(latencies, 99),
        mean_queue_wait_ms=float(waits.mean() * 1e3),
        mean_batch_size=float(
            np.mean(np.frombuffer(records.batch_sizes, dtype=np.int64)[order])
        ),
        accuracy=accuracy,
        bytes_from_store=bytes_from_store,
        bytes_from_cache=bytes_from_cache,
        baseline_bytes=baseline_bytes,
        bytes_saved=baseline_bytes - bytes_from_store,
        relative_bytes_saved=(
            1.0 - bytes_from_store / baseline_bytes if baseline_bytes > 0 else 0.0
        ),
        transfer_seconds=transfer.seconds,
        transfer_dollars=transfer.dollars,
        cache_hit_rate=cache_stats.hit_rate if cache_stats is not None else None,
        degraded_requests=degraded_requests,
        resolution_histogram=histogram,
        dropped_requests=dropped_requests,
        prefetch_bytes=prefetch_bytes,
        prefetch_hits=prefetch_hits,
        prefetch_wasted_bytes=prefetch_wasted_bytes,
    )
