"""Operational counters for the platform registry service.

One :class:`ServiceMetrics` instance is shared by the store and the
server: the store records cache hits/misses, the server records request
outcomes, queue pressure and latencies.  ``snapshot()`` is the payload
of ``GET /metrics``.

Latency percentiles are computed over a bounded reservoir (the most
recent ``latency_window`` observations) — good enough for p50/p99 of a
live service without unbounded memory.  The percentile math itself
lives in :mod:`repro.obs.digest`, shared with the observability
histograms so every digest in the toolchain has the same shape.
"""

from __future__ import annotations

import threading
from collections import Counter, deque

from repro.obs.digest import digest_summary, fingerprint_payload

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Thread-safe counter block for the registry service."""

    def __init__(self, *, latency_window: int = 2048):
        self._lock = threading.Lock()
        self.requests_total = 0
        self.errors_total = 0
        self.overloads_total = 0
        self.by_endpoint: Counter = Counter()
        self.by_status: Counter = Counter()
        self.platform_cache_hits = 0
        self.platform_cache_misses = 0
        self.preselect_cache_hits = 0
        self.preselect_cache_misses = 0
        self.queue_depth = 0
        self.queue_high_water = 0
        self._latencies: deque = deque(maxlen=latency_window)

    # -- store-side ---------------------------------------------------------
    def record_platform_cache(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.platform_cache_hits += 1
            else:
                self.platform_cache_misses += 1

    def record_preselect_cache(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.preselect_cache_hits += 1
            else:
                self.preselect_cache_misses += 1

    # -- server-side --------------------------------------------------------
    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        with self._lock:
            self.requests_total += 1
            self.by_endpoint[endpoint] += 1
            self.by_status[status] += 1
            if status == 429:
                self.overloads_total += 1
            elif status >= 400:
                self.errors_total += 1
            self._latencies.append(seconds)

    def enter_queue(self) -> int:
        """Register one queued/in-flight request; returns the new depth."""
        with self._lock:
            self.queue_depth += 1
            self.queue_high_water = max(self.queue_high_water, self.queue_depth)
            return self.queue_depth

    def exit_queue(self) -> None:
        with self._lock:
            self.queue_depth = max(0, self.queue_depth - 1)

    # -- reporting ----------------------------------------------------------
    def _ratio(self, hits: int, misses: int):
        total = hits + misses
        return hits / total if total else None

    def snapshot(self) -> dict:
        """JSON-serializable state (the ``GET /metrics`` payload)."""
        with self._lock:
            samples = list(self._latencies)
            return {
                "requests_total": self.requests_total,
                "errors_total": self.errors_total,
                "overloads_total": self.overloads_total,
                "by_endpoint": dict(self.by_endpoint),
                "by_status": {str(k): v for k, v in self.by_status.items()},
                "platform_cache": {
                    "hits": self.platform_cache_hits,
                    "misses": self.platform_cache_misses,
                    "hit_ratio": self._ratio(
                        self.platform_cache_hits, self.platform_cache_misses
                    ),
                },
                "preselect_cache": {
                    "hits": self.preselect_cache_hits,
                    "misses": self.preselect_cache_misses,
                    "hit_ratio": self._ratio(
                        self.preselect_cache_hits, self.preselect_cache_misses
                    ),
                },
                "queue": {
                    "depth": self.queue_depth,
                    "high_water": self.queue_high_water,
                },
                "latency_s": digest_summary(samples),
            }

    def to_payload(self) -> dict:
        """Alias of :meth:`snapshot` — the uniform report-object verb
        (``SelectionReport``/``LintReport``/``RunResult`` parity)."""
        return self.snapshot()

    def fingerprint(self) -> str:
        """Stable sha256 over :meth:`to_payload`."""
        return fingerprint_payload(self.to_payload())

    def __repr__(self) -> str:
        return (
            f"ServiceMetrics(requests={self.requests_total},"
            f" errors={self.errors_total}, overloads={self.overloads_total})"
        )
