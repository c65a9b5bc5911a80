"""Shared numeric digests and payload fingerprints.

One home for the summary math every metrics surface uses, so
:class:`~repro.service.metrics.ServiceMetrics` and the observability
histograms (:mod:`repro.obs.metrics`) report the *same* p50/p99 shape,
and every report object (``SelectionReport``, ``LintReport``,
``RunResult``, tuning payloads, …) derives its ``fingerprint()`` from
one canonical-JSON convention.

Stdlib only — importable from the lowest layers without pulling in the
model or toolchain packages.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Optional, Sequence

__all__ = ["percentile", "digest_summary", "fingerprint_payload"]


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """q-th percentile (0..100) by linear interpolation; None when empty."""
    if not samples:
        return None
    if not 0 <= q <= 100:
        raise ValueError("percentile q must be in [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def digest_summary(
    samples: Sequence[float], *, percentiles: Iterable[int] = (50, 99)
) -> dict:
    """The canonical ``{"count", "p50", "p99", ...}`` summary block.

    The same shape ``ServiceMetrics.snapshot()`` reports for request
    latencies, so dashboards and tests treat every latency/size digest
    in the toolchain identically.
    """
    summary: dict = {"count": len(samples)}
    for q in percentiles:
        summary[f"p{q}"] = percentile(samples, q)
    return summary


def fingerprint_payload(payload: dict) -> str:
    """Stable sha256 over a JSON-serializable payload.

    Canonicalization is ``json.dumps(sort_keys=True)`` with compact
    separators — the convention ``SelectionReport.fingerprint()``
    established and every ``to_payload()``-bearing report now shares.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
