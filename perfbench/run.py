"""Layered host-time benchmark of the serving simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-hot --seed 7 --seconds 40 --trace 0

Each workload is one example config served through the public
``repro.api.Engine`` (``load_config`` -> ``build_store``/``build_backbone``/
``build_trace`` -> ``serve``).  The only changes made to a config are
``serving.num_requests`` and the arrival seed.  One process and one thread
(BLAS is pinned to one thread) serve pre-generated open-loop traces.

A run repeats set-up + serve until ``--seconds`` have passed.  Every
repetition starts from a fresh ``Engine``: no decode cache or memo carries
over.  Repetition ``i`` serves the trace of arrival seed ``--seed`` for
``i = 0`` and of a seed spawned from ``(--seed, i)`` after that, so one run
averages over several traces.  An untimed warm-up serves the ``i = 0``
trace first; its report fingerprint must equal repetition 0's.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions of the ``i = 0`` trace and prints the
per-layer metrics (see ``perfbench/tracer.py`` and ``perfbench/README.md``).
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# The load shape is one thread: pin BLAS before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    config: str
    num_requests: int
    why: str
    #: The layer group the traced run should find leading in self time.
    predicted_lead: str


WORKLOADS = {
    "fleet-hot": Workload(
        "examples/configs/serving_million.json",
        100_000,
        "4-shard static fleet, Poisson, Zipf 1.1 over 8 keys, no cache: "
        "ingest and the event loop dominate, the backbone almost never runs",
        "ingest",
    ),
    "server-burst-prefetch": Workload(
        "examples/configs/serving_prefetch.json",
        1_000,
        "single server, ON-OFF bursts, scan-LRU cache, next-scan prefetch: "
        "event-emitting path, backbone forwards dominate",
        "backbone",
    ),
    "elastic-diurnal": Workload(
        "examples/configs/serving_autoscale.json",
        600,
        "elastic fleet, threshold autoscaler, diurnal Poisson: per-epoch "
        "server re-runs and cold scale-outs, scale-model forwards dominate",
        "scale_model",
    ),
}

#: Fewest timed repetitions, and traced/untraced pairs, whose medians a run reports.
MIN_REPS = 3
MIN_TRACED_PAIRS = 2

#: Span names of the traced run grouped into the layers whose shares of the
#: traced serve time are compared against each workload's prediction.
LAYER_GROUPS = {
    "loop": ("server.run",),
    "ingest": (
        "store.read",
        "cache.read_through",
        "read_policy.scans_for",
        "bandwidth.estimate",
        "codec.decode",
        "codec.cumulative_bytes",
    ),
    "scale_model": ("scale_model", "policy.select"),
    "backbone": ("backbone",),
}

#: Span names reported as ``<name>.calls``, ``.self_s`` and ``.us_per_call``.
TIMED = (
    "store.read",
    "cache.read_through",
    "read_policy.scans_for",
    "bandwidth.estimate",
    "codec.decode",
    "codec.cumulative_bytes",
    "preprocess",
    "batcher.add",
    "batch_cost.batch_seconds",
    "records.append",
    "prefetch.plan",
)


#: Reference :func:`host_probe` time: about its median on the 2-vCPU host the
#: benchmark was tuned on.  Timings are scaled by (probe time / this) so that
#: host-wide slowdowns lasting minutes, which the probe also sees, do not
#: read as changes of the simulator.
PROBE_REFERENCE_S = 0.087


def host_probe() -> float:
    """Host seconds of a fixed mix of interpreter, allocation and matmul work.

    It runs no simulator code, so a change to the simulator cannot move it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    left = rng.standard_normal((64, 300)).astype(np.float32)
    right = rng.standard_normal((300, 400)).astype(np.float32)
    begin = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    table = {}
    for i in range(40_000):
        table[("key", i)] = [i]
    for _ in range(200):
        left @ right
    return time.perf_counter() - begin


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_repro():
    """Import the simulator from this checkout's ``src`` (exit 2 if absent)."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        fail(f"no simulator sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401

    import repro.api.engine  # noqa: F401


def spawned_seed(seed: int, index: int) -> int:
    """Arrival seed of repetition ``index``: ``seed`` itself, then spawned ones."""
    if index == 0:
        return seed
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# -- correctness ------------------------------------------------------------------


class RunCapture:
    """Keep each ``InferenceServer.run``'s served records and drops for checking."""

    def __init__(self) -> None:
        from repro.serving.server import InferenceServer

        self.cls = InferenceServer
        self.original = InferenceServer.run
        self.runs: list[tuple[object, list]] = []
        capture = self
        original = self.original

        def run(server, trace):
            report = original(server, trace)
            served = (
                server.last_records
                if server.last_records is not None
                else server.last_served
            )
            capture.runs.append((served, server.last_dropped))
            return report

        InferenceServer.run = run

    def uninstall(self) -> None:
        self.cls.run = self.original


def served_columns(runs) -> tuple:
    """Request id, arrival and completion time of every served request."""
    import numpy as np

    ids, arrivals, completions, dropped = [], [], [], []
    for served, drops in runs:
        if hasattr(served, "request_ids"):
            ids.append(np.asarray(served.request_ids, dtype=np.int64))
            arrivals.append(np.asarray(served.arrival_times, dtype=np.float64))
            completions.append(np.asarray(served.completion_times, dtype=np.float64))
        else:
            ids.append(np.array([r.request_id for r in served], dtype=np.int64))
            arrivals.append(np.array([r.arrival_time for r in served], dtype=np.float64))
            completions.append(
                np.array([r.completion_time for r in served], dtype=np.float64)
            )
        dropped.extend(request.request_id for request, _ in drops)
    empty = np.empty(0)
    return (
        np.concatenate(ids) if ids else empty.astype(np.int64),
        np.concatenate(arrivals) if arrivals else empty,
        np.concatenate(completions) if completions else empty,
        np.asarray(dropped, dtype=np.int64),
    )


def count_failed(trace, report, runs) -> int:
    """Offered requests that are missing, duplicated or finish before arriving.

    Also counts any disagreement between the report's served + dropped
    totals and the number of offered requests.
    """
    import numpy as np

    offered = getattr(trace, "request_ids", None)
    if offered is None:
        offered = [request.request_id for request in trace]
    offered = np.asarray(offered, dtype=np.int64)
    ids, arrivals, completions, dropped = served_columns(runs)
    all_ids, counts = np.unique(np.concatenate([ids, dropped]), return_counts=True)
    once = all_ids[counts == 1]
    early = ids[completions < arrivals]
    good = np.setdiff1d(np.intersect1d(once, offered), early)
    failed = len(offered) - len(good)
    slo = getattr(report, "fleet", report)
    mismatch = abs(slo.num_requests + slo.dropped_requests - len(offered))
    return max(failed, mismatch)


def fingerprint(report) -> str:
    return hashlib.sha256(report.to_json(indent=None).encode()).hexdigest()


def simulated_stats(report) -> dict:
    """Simulated outputs printed beside each run (not end-to-end metrics)."""
    slo = getattr(report, "fleet", report)
    return {
        "p50_ms": slo.p50_latency_ms,
        "p99_ms": slo.p99_latency_ms,
        "drop_rate": slo.drop_rate,
        "bytes_from_store": slo.bytes_from_store,
        "cache_hit_rate": slo.cache_hit_rate,
        "mean_batch_size": slo.mean_batch_size,
    }


# -- one repetition ----------------------------------------------------------------


@dataclass
class Rep:
    seed: int
    offered: int
    setup_s: float
    serve_s: float
    failed: int
    sha256: str
    stats: dict

    @property
    def requests_per_s(self) -> float:
        return self.offered / self.serve_s


def run_rep(workload: Workload, seed: int, on_setup_done=None) -> Rep:
    """Set up a fresh engine, serve its trace once, check the result."""
    from repro.api.config import EngineConfig, load_config
    from repro.api.engine import Engine

    # Free the previous repetition's cyclic garbage now, so that no collector
    # pass over it lands in this repetition's timings (a fresh process has
    # none).
    gc.collect()
    capture = RunCapture()
    try:
        start = time.perf_counter()
        data = load_config(str(ROOT / workload.config)).to_dict()
        data["serving"]["num_requests"] = workload.num_requests
        data["serving"]["arrivals"]["options"]["seed"] = seed
        engine = Engine(EngineConfig.from_dict(data))
        store = engine.build_store()
        read_policy = engine.build_read_policy()
        for key in store.keys():
            encoded = store.metadata(key).encoded
            for resolution in engine.resolutions:
                read_policy.scans_for(encoded, resolution, key=key)
        engine.build_backbone()
        trace = engine.build_trace()
        setup_s = time.perf_counter() - start
        if on_setup_done is not None:
            on_setup_done()
        start = time.perf_counter()
        report = engine.serve(trace)
        serve_s = time.perf_counter() - start
    finally:
        capture.uninstall()
    return Rep(
        seed=seed,
        offered=len(trace),
        setup_s=setup_s,
        serve_s=serve_s,
        failed=count_failed(trace, report, capture.runs),
        sha256=fingerprint(report),
        stats=simulated_stats(report),
    )


def print_rep(label: str, rep: Rep) -> None:
    stats = " ".join(
        f"{name}={value:.6g}" if isinstance(value, float) else f"{name}={value}"
        for name, value in rep.stats.items()
    )
    print(
        f"{label:<10} seed={rep.seed} offered={rep.offered} failed={rep.failed} "
        f"setup_s={rep.setup_s:.4f} serve_s={rep.serve_s:.4f} "
        f"req/s={rep.requests_per_s:.1f} report_sha256={rep.sha256} {stats}",
        flush=True,
    )


# -- the traced run ------------------------------------------------------------------


def install_tracer(tracer) -> None:
    """Wrap the public callables of every measured layer."""
    from repro.api.engine import Engine
    from repro.codec.progressive import ProgressiveImage
    from repro.core.policies import ResolutionPolicy
    from repro.core.scale_model import ScaleModelPredictor
    from repro.imaging.transforms import InferencePreprocessor
    from repro.serving import metrics
    from repro.serving.arrivals import ArrivalProcess
    from repro.serving.autoscale import AutoscalePolicy
    from repro.serving.batcher import BatchCostModel, DynamicBatcher
    from repro.serving.cache import ScanCache
    from repro.serving.control import AdmissionPolicy, PrefetchPolicy
    from repro.serving.elastic import ElasticFleet
    from repro.serving.fleet import ConsistentHashRouter, ReplicaRouter, ShardedFleet
    from repro.serving.metrics import RequestRecords
    from repro.serving.server import InferenceServer
    from repro.storage.bandwidth import StorageBandwidthModel
    from repro.storage.policy import ScanReadPolicy
    from repro.storage.store import ImageStore

    wrap = tracer.wrap_method
    wrap(Engine, "serve", "engine.serve")
    wrap(Engine, "build_store", "engine.build_store")
    wrap(Engine, "build_backbone", "engine.build_backbone")
    wrap(Engine, "build_server", "engine.build_server")
    tracer.wrap_subclasses(ArrivalProcess, "stream", "arrivals.stream")
    wrap(InferenceServer, "run", "server.run")
    wrap(ImageStore, "read", "store.read")
    wrap(ImageStore, "read_additional", "store.read")
    wrap(ScanCache, "read_through", "cache.read_through")
    wrap(ScanReadPolicy, "scans_for", "read_policy.scans_for")
    wrap(StorageBandwidthModel, "estimate", "bandwidth.estimate")
    wrap(ProgressiveImage, "decode", "codec.decode")
    wrap(ProgressiveImage, "cumulative_bytes", "codec.cumulative_bytes")
    tracer.wrap_subclasses(ResolutionPolicy, "select", "policy.select")
    tracer.wrap_subclasses(ResolutionPolicy, "select_cached", "policy.select")
    wrap(ScaleModelPredictor, "predict_probabilities", "scale_model")
    wrap(InferencePreprocessor, "__call__", "preprocess")
    wrap(DynamicBatcher, "add", "batcher.add")
    tracer.wrap_subclasses(BatchCostModel, "batch_seconds", "batch_cost.batch_seconds")
    wrap(RequestRecords, "append", "records.append")
    tracer.wrap_function(metrics, "build_report", "report.build")
    wrap(ShardedFleet, "run", "fleet.run")
    wrap(ShardedFleet, "partition", "fleet.partition")
    for router in (ConsistentHashRouter, ReplicaRouter):
        wrap(router, "route", "router.route")
        wrap(router, "route_request", "router.route")
    wrap(ElasticFleet, "run", "elastic.run")
    tracer.wrap_subclasses(AutoscalePolicy, "decide", "autoscale.decide")
    tracer.wrap_subclasses(PrefetchPolicy, "plan", "prefetch.plan")
    tracer.wrap_subclasses(AdmissionPolicy, "admit", "admission.admit")


def wrap_backbone(tracer, config_path: str):
    """Trace the backbone's forward; its input shapes give the FLOP count."""
    from repro.api.config import load_config
    from repro.api.engine import Engine

    backbone = Engine(load_config(str(ROOT / config_path))).build_backbone()
    tracer.wrap_method(
        type(backbone),
        "forward",
        "backbone",
        observe=lambda module, inputs: tuple(int(d) for d in inputs.shape),
    )
    return backbone


def backbone_gflop(backbone, shapes) -> float:
    """FLOPs (2 x MACs) of the traced forwards, from their input tensor shapes."""
    from repro.nn.flops import trace_model

    total = 0
    for shape, count in shapes.items():
        total += count * 2 * sum(layer.macs for layer in trace_model(backbone, shape))
    return total / 1e9


def layer_metrics(serve, setup, shapes, backbone, rep: Rep) -> dict:
    """Per-layer metrics of one traced repetition (self times in host seconds)."""
    from tracer import SpanStats

    def get(name):
        return serve.get(name) or SpanStats()

    values: dict[str, float] = {}
    server = get("server.run")
    values["server.runs"] = server.calls
    values["server.self_s"] = server.self_s
    values["server.us_per_call"] = server.us_per_call
    for name in TIMED:
        stats = get(name)
        values[f"{name}.calls"] = stats.calls
        values[f"{name}.self_s"] = stats.self_s
        values[f"{name}.us_per_call"] = stats.us_per_call
    values["cache.hit_rate"] = rep.stats["cache_hit_rate"] or 0.0
    selects = get("policy.select").calls
    scale = get("scale_model")
    values["policy.select.calls"] = selects
    values["scale_model.forwards"] = scale.calls
    values["scale_model.self_s"] = scale.self_s
    values["policy.memo_hit_ratio"] = 1 - scale.calls / selects if selects else 0.0
    batches = get("batch_cost.batch_seconds").calls
    forward = get("backbone")
    forwards = forward.calls
    values["batches"] = batches
    values["backbone.forwards"] = forwards
    values["backbone.self_s"] = forward.self_s
    values["backbone.memo_hit_ratio"] = 1 - forwards / batches if batches else 0.0
    gflop = backbone_gflop(backbone, shapes)
    values["backbone.gflop"] = gflop
    values["backbone.gflop_per_s"] = gflop / forward.self_s if forward.self_s else 0.0
    values["report.build_s"] = get("report.build").inclusive_s
    values["fleet.partition_s"] = get("fleet.partition").inclusive_s
    values["router.route.calls"] = get("router.route").calls
    elastic = get("elastic.run").calls
    values["elastic.server_runs"] = server.calls_by_parent["elastic.run"]
    values["elastic.servers_built"] = get("engine.build_server").calls_by_parent[
        "elastic.run"
    ]
    # Segments are the autoscale epochs plus the final drain (no fault schedule).
    values["elastic.segments"] = (get("autoscale.decide").calls + 1) if elastic else 0
    values["admission.admit.calls"] = get("admission.admit").calls
    for metric, name in (
        ("engine.build_store_s", "engine.build_store"),
        ("engine.build_backbone_s", "engine.build_backbone"),
        ("arrivals.stream_s", "arrivals.stream"),
    ):
        values[metric] = setup[name].inclusive_s if name in setup else 0.0
    group_self_s = {
        group: sum(get(name).self_s for name in names)
        for group, names in LAYER_GROUPS.items()
    }
    values["ingest.self_s"] = group_self_s["ingest"]
    total = sum(stats.self_s for stats in serve.values())
    for group, self_s in group_self_s.items():
        values[f"{group}.share"] = self_s / total if total else 0.0
    return values


#: Deterministic work counters: they must repeat exactly across same-seed runs.
COUNTERS = (
    "backbone.forwards",
    "scale_model.forwards",
    "policy.select.calls",
    "policy.memo_hit_ratio",
    "backbone.memo_hit_ratio",
    "store.read.calls",
    "cache.read_through.calls",
    "server.runs",
    "elastic.servers_built",
    "batches",
)


def measure_traced(workload: Workload, seed: int, deadline: float) -> tuple[dict, int, int, bool]:
    """Alternate untraced and traced repetitions of one trace until ``deadline``."""
    from tracer import Tracer

    warmup = run_rep(workload, seed)
    print_rep("warm-up", warmup)
    tracer = Tracer()
    tracer.calibrate()
    print(f"tracer cost per span: {1e6 * tracer.cost_in_self:.3f} us in the callee, "
          f"{1e6 * tracer.cost_in_parent:.3f} us in its caller (subtracted)")
    install_tracer(tracer)
    backbone = wrap_backbone(tracer, workload.config)
    untraced: list[Rep] = []
    traced: list[tuple[Rep, dict]] = []
    durations: list[float] = []
    try:
        while len(traced) < MIN_TRACED_PAIRS or (
            time.perf_counter() + statistics.median(durations) < deadline
        ):
            begin = time.perf_counter()
            tracer.uninstall()
            rep = run_rep(workload, seed)
            untraced.append(rep)
            print_rep(f"untraced {len(untraced) - 1}", rep)
            install_tracer(tracer)
            wrap_backbone(tracer, workload.config)
            tracer.clear()
            phases = {}

            def setup_done():
                phases["setup"] = tracer.aggregate()
                tracer.clear()

            rep = run_rep(workload, seed, on_setup_done=setup_done)
            serve = tracer.aggregate()
            shapes = dict(tracer.observed.get("backbone", {}))
            traced.append(
                (rep, layer_metrics(serve, phases["setup"], shapes, backbone, rep))
            )
            print_rep(f"traced {len(traced) - 1}", rep)
            durations.append(time.perf_counter() - begin)
    finally:
        tracer.uninstall()
    if tracer.missing:
        print("untraced (not found): " + ", ".join(sorted(set(tracer.missing))))

    reps = [warmup, *untraced, *(rep for rep, _ in traced)]
    attempted = sum(rep.offered for rep in reps[1:])
    failed = sum(rep.failed for rep in reps[1:])
    deterministic = len({rep.sha256 for rep in reps}) == 1
    counter_sets = [tuple(values[name] for name in COUNTERS) for _, values in traced]
    counters_repeat = len(set(counter_sets)) == 1
    if not deterministic or not counters_repeat:
        failed = attempted

    metrics = {
        name: statistics.median(values[name] for _, values in traced)
        for name in traced[0][1]
    }
    metrics["trace.overhead_ratio"] = statistics.median(
        rep.requests_per_s for rep, _ in traced
    ) / statistics.median(rep.requests_per_s for rep in untraced)

    print("work counters (deterministic; identical across same-seed runs: "
          f"{'yes' if counters_repeat else 'NO'})")
    for name in COUNTERS:
        print(f"  {name:<28}{traced[0][1][name]}")
    print(f"report fingerprints identical across {len(reps)} same-seed runs: "
          f"{'yes' if deterministic else 'NO'}")
    print("per-layer metrics (host time; medians over traced runs)")
    for name, value in metrics.items():
        print(f"  {name:<36}{value:.6g}")
    shares = {group: metrics[f"{group}.share"] for group in LAYER_GROUPS}
    lead = max(shares, key=shares.get)
    verdict = "met" if lead == workload.predicted_lead else "NOT MET"
    print(f"layer shares of traced serve time: "
          + ", ".join(f"{group}={share:.3f}" for group, share in shares.items()))
    print(f"prediction: {workload.predicted_lead} leads; measured lead: {lead} ({verdict})")
    return metrics, attempted, failed, deterministic and counters_repeat


def measure(workload: Workload, seed: int, deadline: float) -> tuple[dict, int, int, bool]:
    """Timed repetitions until ``deadline``; end-to-end metrics as medians.

    Each repetition is preceded by a host probe; the timings are scaled by
    the run's median probe time over :data:`PROBE_REFERENCE_S`.
    """
    warmup = run_rep(workload, seed)
    print_rep("warm-up", warmup)
    reps: list[Rep] = []
    probes: list[float] = []
    durations: list[float] = []
    while len(reps) < MIN_REPS or (
        time.perf_counter() + statistics.median(durations) < deadline
    ):
        begin = time.perf_counter()
        probes.append(host_probe())
        rep = run_rep(workload, spawned_seed(seed, len(reps)))
        durations.append(time.perf_counter() - begin)
        reps.append(rep)
        print_rep(f"rep {len(reps) - 1}", rep)
    attempted = sum(rep.offered for rep in reps)
    failed = sum(rep.failed for rep in reps)
    deterministic = reps[0].sha256 == warmup.sha256
    if not deterministic:
        failed += reps[0].offered - reps[0].failed
    print(f"report fingerprint of seed {seed} repeats: {'yes' if deterministic else 'NO'}")
    print(f"failed_ops_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    requests_per_s = statistics.median(rep.requests_per_s for rep in reps)
    setup_s = statistics.median(rep.setup_s for rep in reps)
    host_factor = statistics.median(probes) / PROBE_REFERENCE_S
    print(f"host probe {statistics.median(probes):.6f} s (factor {host_factor:.4f}); "
          f"unscaled: requests_per_s {requests_per_s:.2f} setup_s {setup_s:.4f}")
    metrics = {
        "requests_per_s": requests_per_s * host_factor,
        "setup_s": setup_s / host_factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, attempted, failed, deterministic


UNITS = {"requests_per_s": "req/s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith(("ratio", "rate", "share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="arrival seed (default: the workload config's own arrival seed)",
    )
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    import_repro()
    workload = WORKLOADS[args.workload]
    if not (ROOT / workload.config).is_file():
        fail(f"missing workload config {workload.config}")
    seed = args.seed
    if seed is None:
        from repro.api.config import load_config

        seed = load_config(str(ROOT / workload.config)).serving.arrivals.options["seed"]
    print(f"workload {args.workload}: {workload.why}")
    print(f"config {workload.config} num_requests={workload.num_requests} "
          f"arrival_seed={seed} trace={args.trace} nproc={os.cpu_count()}", flush=True)
    deadline = started + args.seconds
    measure_fn = measure_traced if args.trace else measure
    metrics, attempted, failed, deterministic = measure_fn(workload, seed, deadline)
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
