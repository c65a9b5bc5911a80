"""Unit tests for the LRU cache and the service metrics block."""

import threading

import pytest

from repro.obs.digest import percentile
from repro.service import LRUCache, ServiceMetrics


class TestLRUCache:
    def test_basic_get_put(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_ratio() == 0.5

    def test_eviction_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert len(cache) == 2

    def test_evict_where(self):
        cache = LRUCache(8)
        for digest in ("d1", "d2"):
            for program in ("p1", "p2"):
                cache.put((digest, program), f"{digest}:{program}")
        evicted = cache.evict_where(lambda key: key[0] == "d1")
        assert evicted == 2
        assert ("d1", "p1") not in cache
        assert ("d2", "p1") in cache

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_thread_safety_smoke(self):
        cache = LRUCache(64)
        errors = []

        def work(seed):
            try:
                for i in range(500):
                    cache.put((seed, i % 100), i)
                    cache.get((seed, (i * 7) % 100))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cache) <= 64


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50) is None

    def test_single(self):
        assert percentile([3.0], 99) == 3.0

    def test_interpolation(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 50) == pytest.approx(2.5)
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 4.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestServiceMetrics:
    def test_request_accounting(self):
        metrics = ServiceMetrics()
        metrics.observe_request("GET /platforms", 200, 0.010)
        metrics.observe_request("GET /platforms", 404, 0.005)
        metrics.observe_request("POST /preselect", 429, 0.001)
        snap = metrics.snapshot()
        assert snap["requests_total"] == 3
        assert snap["errors_total"] == 1  # the 404 (429 counted separately)
        assert snap["overloads_total"] == 1
        assert snap["by_endpoint"]["GET /platforms"] == 2
        assert snap["by_status"]["429"] == 1
        assert snap["latency_s"]["count"] == 3
        assert snap["latency_s"]["p50"] == pytest.approx(0.005)

    def test_queue_depth_and_high_water(self):
        metrics = ServiceMetrics()
        assert metrics.enter_queue() == 1
        assert metrics.enter_queue() == 2
        metrics.exit_queue()
        metrics.exit_queue()
        metrics.exit_queue()  # never below zero
        snap = metrics.snapshot()
        assert snap["queue"]["depth"] == 0
        assert snap["queue"]["high_water"] == 2

    def test_cache_ratios(self):
        metrics = ServiceMetrics()
        snap = metrics.snapshot()
        assert snap["platform_cache"]["hit_ratio"] is None
        metrics.record_platform_cache(True)
        metrics.record_platform_cache(False)
        metrics.record_preselect_cache(True)
        snap = metrics.snapshot()
        assert snap["platform_cache"]["hit_ratio"] == 0.5
        assert snap["preselect_cache"] == {
            "hits": 1,
            "misses": 0,
            "hit_ratio": 1.0,
        }

    def test_latency_window_is_bounded(self):
        metrics = ServiceMetrics(latency_window=16)
        for i in range(100):
            metrics.observe_request("GET /", 200, float(i))
        snap = metrics.snapshot()
        assert snap["latency_s"]["count"] == 16
        assert snap["latency_s"]["p50"] >= 84  # only the newest survive
