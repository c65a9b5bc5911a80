"""Instrument semantics and digest-shape parity with the service."""

import threading

from repro.obs import MetricsRegistry, digest_summary, percentile


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.counter("hits") is c  # get-or-create

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(3)
        g.add(-1)
        assert g.value == 2.0

    def test_histogram_digest_shape(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        snap = h.snapshot()
        assert set(snap) == {"count", "p50", "p99", "sum"}
        assert snap["count"] == 4
        assert snap["sum"] == 10.0
        assert snap["p50"] == percentile([1.0, 2.0, 3.0, 4.0], 50)

    def test_histogram_window_bounds_reservoir_not_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("w", window=4)
        for v in range(100):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["count"] == 100  # total observations
        assert snap["p50"] >= 96.0  # percentile over the last 4 only

    def test_get_spans_families(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.gauge("b")
        reg.histogram("c")
        assert reg.get("a").value == 0
        assert reg.get("b").value == 0.0
        assert reg.get("c").count == 0
        assert reg.get("missing") is None

    def test_thread_safety_of_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("n")

        def bump():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestRegistryPayload:
    def test_payload_sorted_and_fingerprint_stable(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a").inc(2)
        reg.gauge("m").set(1.5)
        reg.histogram("h").observe(0.25)
        payload = reg.to_payload()
        assert list(payload["counters"]) == ["a", "z"]
        assert payload["gauges"]["m"] == 1.5
        assert reg.fingerprint() == reg.fingerprint()
        assert reg.snapshot() == payload

    def test_shared_digest_shape_with_service_metrics(self):
        """ServiceMetrics latencies and obs histograms use one digest."""
        from repro.service.metrics import ServiceMetrics

        service = ServiceMetrics()
        reg = MetricsRegistry()
        for v in [0.1, 0.2, 0.3]:
            service.observe_request("/x", 200, v)
            reg.histogram("latency_s").observe(v)
        service_digest = service.snapshot()["latency_s"]
        obs_digest = reg.histogram("latency_s").snapshot()
        assert service_digest == digest_summary([0.1, 0.2, 0.3])
        assert service_digest["p50"] == obs_digest["p50"]
        assert service_digest["p99"] == obs_digest["p99"]


class TestDigestHelpers:
    def test_percentile_edge_cases(self):
        assert percentile([], 50) is None
        assert percentile([7.0], 99) == 7.0
        assert percentile([1.0, 2.0], 0) == 1.0
        assert percentile([1.0, 2.0], 100) == 2.0

    def test_digest_summary_empty(self):
        assert digest_summary([]) == {"count": 0, "p50": None, "p99": None}
