"""Memo purity: every memo table in the serving path equals its reference.

The event loop memoizes five pure stages — the progressive decode per
``(image, scans)``, preprocessing per ``(key, scans_read, resolution)``,
the scale model's choice per ``(key, stage1_scans)``, whole-batch
execution per batch signature, and each key's ingest plan (its read
outcome per chosen resolution).  Each memo is only sound if a hit returns
exactly what a fresh computation would.  These properties check that
bit for bit, against the un-memoized function each memo wraps, over
random keys, scan counts, resolutions and batch compositions.  The draws
repeat keys on purpose, so most lookups after the first are memo hits.
"""

from __future__ import annotations

import copy
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codec.progressive import ProgressiveEncoder
from repro.core.policies import DynamicResolutionPolicy, StaticResolutionPolicy
from repro.core.scale_model import ScaleModelPredictor
from repro.data.dataset import SyntheticDataset
from repro.data.profiles import IMAGENET_LIKE
from repro.nn.mobilenet import mobilenet_tiny
from repro.nn.module import Module
from repro.serving.arrivals import Request
from repro.serving.cache import ScanCache
from repro.serving.policies import LoadAdaptiveResolutionPolicy
from repro.serving.server import InferenceServer, ServerConfig, _InFlight
from repro.storage.policy import ScanReadPolicy
from repro.storage.store import ImageStore

RESOLUTIONS = (24, 32, 48)
NUM_KEYS = 4

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _build_store(samples) -> ImageStore:
    store = ImageStore(encoder=ProgressiveEncoder(quality=85))
    for key, image, label in samples:
        store.put(key, image, label=label)
    return store


@pytest.fixture(scope="module")
def samples():
    profile = type(IMAGENET_LIKE)(
        name="memo-tiny",
        num_classes=4,
        storage_resolution_mean=72,
        storage_resolution_std=6,
        object_scale_mean=IMAGENET_LIKE.object_scale_mean,
        object_scale_std=IMAGENET_LIKE.object_scale_std,
        texture_weight=IMAGENET_LIKE.texture_weight,
        detail_sensitivity=IMAGENET_LIKE.detail_sensitivity,
    )
    dataset = SyntheticDataset(profile, size=NUM_KEYS, seed=21)
    return [(f"img{sample.index}", sample.render(), sample.label) for sample in dataset]


@pytest.fixture(scope="module")
def reference_store(samples) -> ImageStore:
    """Never memoizes: every read is a fresh decode."""
    return _build_store(samples)


class _BrightestValue(Module):
    """A backbone whose prediction is the flat index of each input's largest
    value.  An untrained CNN predicts nearly one class for every input, so a
    stale memo hit would go unseen; here most changes of key, scan count,
    resolution or row order move the prediction."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(len(x), -1)


@pytest.fixture(scope="module")
def server(samples) -> InferenceServer:
    """A server whose memo tables persist across every hypothesis example."""
    return InferenceServer(
        _build_store(samples),
        _BrightestValue(),
        StaticResolutionPolicy(32),
        ServerConfig(resolutions=RESOLUTIONS, scale_resolution=24),
    )


def _fresh_decode(reference_store: ImageStore, key: str, scans: int) -> np.ndarray:
    encoded = reference_store.metadata(key).encoded
    assert getattr(encoded, "_decode_cache", None) is None
    return encoded.decode(scans)


def _assert_bitwise(memoized: np.ndarray, fresh: np.ndarray) -> None:
    assert memoized.dtype == fresh.dtype
    assert memoized.shape == fresh.shape
    assert memoized.tobytes() == fresh.tobytes()


def _clamp(store: ImageStore, key: str, scans: int) -> int:
    return min(scans, store.metadata(key).encoded.num_scans)


def _item(server: InferenceServer, key: str, scans: int) -> _InFlight:
    image, _ = server.store.read(key, scans)
    return _InFlight(
        request=Request(request_id=0, key=key, arrival_time=0.0),
        image=image,
        resolution=0,
        scans_read=scans,
        bytes_from_store=0,
        bytes_from_cache=0,
        total_bytes=0,
        ready_time=0.0,
    )


@given(
    draws=st.lists(
        st.tuples(st.integers(0, NUM_KEYS - 1), st.integers(1, 10)),
        min_size=1,
        max_size=12,
    )
)
@_SETTINGS
def test_decode_cache_matches_a_fresh_decode(server, reference_store, draws) -> None:
    for key_index, scans in draws:
        key = f"img{key_index}"
        scans = _clamp(server.store, key, scans)
        cached, _ = server.store.read(key, scans)
        _assert_bitwise(cached, _fresh_decode(reference_store, key, scans))


@given(
    draws=st.lists(
        st.tuples(
            st.integers(0, NUM_KEYS - 1),
            st.integers(1, 10),
            st.sampled_from(RESOLUTIONS + (40,)),
        ),
        min_size=1,
        max_size=12,
    )
)
@_SETTINGS
def test_preprocess_memo_matches_the_preprocessor(
    server, reference_store, draws
) -> None:
    for key_index, scans, resolution in draws:
        key = f"img{key_index}"
        scans = _clamp(server.store, key, scans)
        memoized = server._preprocessed(_item(server, key, scans), resolution)
        fresh = server.preprocessor(_fresh_decode(reference_store, key, scans), resolution)
        _assert_bitwise(memoized, fresh)


def _dynamic_policy() -> DynamicResolutionPolicy:
    scale_model = mobilenet_tiny(num_classes=len(RESOLUTIONS), seed=1)
    return DynamicResolutionPolicy(
        ScaleModelPredictor(scale_model, RESOLUTIONS, scale_resolution=24)
    )


@given(
    draws=st.lists(
        st.tuples(st.integers(0, NUM_KEYS - 1), st.integers(1, 10), st.integers(0, 30)),
        min_size=1,
        max_size=10,
    )
)
@_SETTINGS
def test_select_cached_matches_select(server, reference_store, draws) -> None:
    """Memoized choices, restored ``last_probabilities`` and the load-adaptive
    wrapper's degradation tallies all equal a fresh ``select``."""
    memoized = LoadAdaptiveResolutionPolicy(_dynamic_policy(), RESOLUTIONS, queue_threshold=8)
    reference = LoadAdaptiveResolutionPolicy(_dynamic_policy(), RESOLUTIONS, queue_threshold=8)
    for key_index, scans, queue_depth in draws:
        key = f"img{key_index}"
        scans = _clamp(server.store, key, scans)
        image, _ = server.store.read(key, scans)
        memoized.observe_queue_depth(queue_depth)
        reference.observe_queue_depth(queue_depth)
        choice = memoized.select_cached(image, (key, scans))
        expected = reference.select(_fresh_decode(reference_store, key, scans))
        assert choice == expected
        _assert_bitwise(
            memoized.inner.last_probabilities, reference.inner.last_probabilities
        )
    assert memoized.degraded_requests == reference.degraded_requests
    assert memoized.total_steps_shed == reference.total_steps_shed


@given(
    resolution=st.sampled_from(RESOLUTIONS),
    members=st.lists(
        st.tuples(st.integers(0, NUM_KEYS - 1), st.integers(1, 10)),
        min_size=1,
        max_size=4,
    ),
)
@_SETTINGS
def test_batch_memo_matches_a_fresh_forward(
    server, reference_store, resolution, members
) -> None:
    """Whole-batch execution equals concatenate-and-forward, per signature.

    Each drawn batch also runs reversed and with every scan count one
    lower: near-identical signatures a sloppy memo key would confuse.
    The batch then runs again, so its second execution is a memo hit.
    """
    batch = [
        (f"img{key_index}", _clamp(server.store, f"img{key_index}", scans))
        for key_index, scans in members
    ]
    variants = [batch, batch[::-1], [(key, max(1, scans - 1)) for key, scans in batch], batch]
    for pairs in variants:
        memoized = server._execute(
            resolution, [_item(server, key, scans) for key, scans in pairs]
        )
        inputs = np.concatenate(
            [
                server.preprocessor(_fresh_decode(reference_store, key, scans), resolution)
                for key, scans in pairs
            ],
            axis=0,
        )
        server.backbone.eval()
        fresh = np.argmax(server.backbone(inputs), axis=1)
        _assert_bitwise(memoized, fresh)


# -- ingest plans ------------------------------------------------------------------

THRESHOLDS = {24: 0.90, 32: 0.92, 48: 0.95}
SCALE_MODEL_SECONDS = 0.0004
#: The keys' objects are 3.4-5.4 KB, so this holds only a few prefixes at a
#: time: cached draws see hits, partial hits, misses and evictions.
CACHE_BYTES = 6_000


@pytest.fixture(scope="module")
def encoded_samples(samples):
    encoder = ProgressiveEncoder(quality=85)
    return [(key, encoder.encode(image), label) for key, image, label in samples]


@pytest.fixture(scope="module")
def scan_decisions(encoded_samples) -> dict:
    """Every (key, resolution) SSIM decision, computed once: the read
    policy's own cache is not the memo under test here."""
    read_policy = ScanReadPolicy(ssim_thresholds=THRESHOLDS)
    for key, encoded, _ in encoded_samples:
        for resolution in RESOLUTIONS:
            read_policy.scans_for(encoded, resolution, key=key)
    return read_policy.cache


@pytest.fixture(scope="module")
def predictor() -> ScaleModelPredictor:
    scale_model = mobilenet_tiny(num_classes=len(RESOLUTIONS), seed=1)
    return ScaleModelPredictor(scale_model, RESOLUTIONS, scale_resolution=24)


def _policy(kind: str, predictor: ScaleModelPredictor):
    if kind == "static":
        return StaticResolutionPolicy(32)
    dynamic = DynamicResolutionPolicy(predictor)
    if kind == "dynamic":
        return dynamic
    return LoadAdaptiveResolutionPolicy(dynamic, RESOLUTIONS, queue_threshold=8)


def _plan_server(encoded_samples, scan_decisions, policy, cache) -> InferenceServer:
    """A server with no plans yet, over its own store (own byte counters)."""
    store = ImageStore()
    for key, encoded, label in encoded_samples:
        store.put_encoded(key, encoded, label=label)
    return InferenceServer(
        store,
        _BrightestValue(),
        policy,
        ServerConfig(
            resolutions=RESOLUTIONS,
            scale_resolution=24,
            scale_model_seconds=SCALE_MODEL_SECONDS,
        ),
        read_policy=ScanReadPolicy(ssim_thresholds=THRESHOLDS, cache=dict(scan_decisions)),
        cache=cache,
    )


@pytest.fixture(scope="module")
def warm_servers(encoded_samples, scan_decisions, predictor):
    """One server per (policy, cache) shape whose plans persist across every
    hypothesis example, so most ingests replay a recorded plan."""
    servers: dict = {}

    def get(kind: str, cached: bool) -> InferenceServer:
        if (kind, cached) not in servers:
            servers[(kind, cached)] = _plan_server(
                encoded_samples,
                scan_decisions,
                _policy(kind, predictor),
                ScanCache(CACHE_BYTES) if cached else None,
            )
        return servers[(kind, cached)]

    return get


def _ingest(server: InferenceServer, request: Request, now: float, depth: int):
    """One ingest, plus the store and server counter increments it caused."""
    store = server.store
    before = (store.read_count, store.total_bytes_read, server.store_requests)
    item = server._ingest(request, now, depth)
    after = (store.read_count, store.total_bytes_read, server.store_requests)
    return item, tuple(a - b for a, b in zip(after, before))


def _assert_same_item(warm: _InFlight, fresh: _InFlight) -> None:
    for item_field in fields(_InFlight):
        left = getattr(warm, item_field.name)
        right = getattr(fresh, item_field.name)
        if isinstance(left, np.ndarray):
            _assert_bitwise(left, right)
        elif isinstance(left, float):
            assert left.hex() == right.hex(), item_field.name
        else:
            assert left == right, item_field.name


@pytest.mark.parametrize("cached", [False, True], ids=["cacheless", "cached"])
@pytest.mark.parametrize("kind", ["static", "dynamic", "adaptive"])
@given(
    draws=st.lists(
        st.tuples(
            st.integers(0, NUM_KEYS - 1),
            st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
            st.integers(0, 30),
        ),
        min_size=1,
        max_size=6,
    )
)
@_SETTINGS
def test_ingest_plan_matches_a_fresh_server(
    encoded_samples, scan_decisions, predictor, warm_servers, kind, cached, draws
) -> None:
    """A warm server's ingest equals a plan-less server's, bit for bit.

    Same key, arrival time and queue depth give equal ``_InFlight`` fields
    and equal increments of ``store.read_count``, ``store.total_bytes_read``
    and ``server.store_requests``.  A cached fresh server starts from a copy
    of the warm cache, since residency is state the plan must not capture.
    ``ready_time`` is also checked against the transfer model directly.
    """
    warm = warm_servers(kind, cached)
    scale_seconds = 0.0 if kind == "static" else SCALE_MODEL_SECONDS
    for request_id, (key_index, now, depth) in enumerate(draws):
        request = Request(request_id=request_id, key=f"img{key_index}", arrival_time=now)
        fresh = _plan_server(
            encoded_samples,
            scan_decisions,
            _policy(kind, predictor),
            copy.deepcopy(warm.cache),
        )
        warm_item, warm_deltas = _ingest(warm, request, now, depth)
        fresh_item, fresh_deltas = _ingest(fresh, request, now, depth)
        _assert_same_item(warm_item, fresh_item)
        assert warm_deltas == fresh_deltas
        if cached:
            assert warm.cache.lru_keys() == fresh.cache.lru_keys()
            assert warm.cache.bytes_cached == fresh.cache.bytes_cached
        transfer = fresh.bandwidth.estimate(
            fresh_item.bytes_from_store, num_requests=fresh_deltas[2]
        )
        expected = now + transfer.seconds + scale_seconds
        assert fresh_item.ready_time.hex() == expected.hex()
