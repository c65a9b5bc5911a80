"""Blocking client for the platform registry service.

A **thin sync facade** over
:class:`~repro.service.async_client.AsyncRegistryClient`: every call is
submitted to one shared background event loop, so blocking callers get
the async client's connection pooling, request coalescing and
immutable-digest caching for free.  The caller's contextvars travel into
the loop, so traced calls still produce one client span under the
caller's active span.

Construction takes a base URL *or* a
:class:`~repro.service.async_client.RegistryEndpoint` — the unified
entry-point object shared with the async client and with
``Session(registry=...)``; timeouts, pool size, caching and the retry
policy are set on the endpoint.

Overload handling mirrors the runtime's fault idiom: on ``429`` the
client honours the server's ``Retry-After`` (bounded by its own
:class:`~repro.runtime.faults.FaultPolicy` backoff curve) and retries up
to ``policy.max_retries`` times before surfacing
:class:`~repro.errors.ServiceOverloadError`.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.model.platform import Platform
from repro.service.async_client import (
    LOOP_RUNNER,
    AsyncRegistryClient,
    RegistryEndpoint,
)

__all__ = ["RegistryClient"]


class RegistryClient:
    """Synchronous registry client bound to one endpoint."""

    def __init__(self, endpoint: Union[str, RegistryEndpoint] = "127.0.0.1:8787"):
        self.endpoint = RegistryEndpoint.parse(endpoint)
        self._async = AsyncRegistryClient(self.endpoint)

    # -- low-level ----------------------------------------------------------
    def _call(self, coro):
        """Run one client coroutine on the shared loop, propagating the
        caller's context (and with it any active span)."""
        return LOOP_RUNNER.submit(coro)

    def request(
        self,
        method: str,
        path: str,
        *,
        body: Optional[bytes] = None,
        params: Optional[dict] = None,
    ) -> dict:
        """One JSON round trip with 429-aware retry; raises rehydrated
        library exceptions on error responses.

        When a tracer is active the round trip runs under a
        ``registry.client.request`` span whose trace id travels in the
        ``X-Repro-Trace-Id`` header — the server opens its request span
        under the same id and echoes the header back, so one trace shows
        both halves of the trip.
        """
        return self._call(
            self._async.request(method, path, body=body, params=params)
        )

    # -- registry operations -------------------------------------------------
    def health(self) -> dict:
        return self._call(self._async.health())

    def metrics(self) -> dict:
        return self._call(self._async.metrics())

    def info(self) -> dict:
        return self._call(self._async.info())

    def platforms(self) -> list[dict]:
        return self._call(self._async.platforms())

    def publish(
        self,
        name: str,
        descriptor: Union[str, bytes, Platform],
        *,
        strict_lint: bool = False,
    ) -> dict:
        """Publish XML text or an in-memory :class:`Platform` under ``name``.

        With ``strict_lint`` the registry lints the descriptor first and
        rejects error-severity findings with
        :class:`~repro.errors.LintError` (the finding payloads ride along
        on the exception's ``diagnostics``).
        """
        return self._call(
            self._async.publish(name, descriptor, strict_lint=strict_lint)
        )

    def put_blob(
        self, xml_text: Union[str, bytes], *, strict_lint: bool = False
    ) -> dict:
        """Content-addressed tagless write (``PUT /blobs/{digest}``)."""
        return self._call(self._async.put_blob(xml_text, strict_lint=strict_lint))

    def fetch(self, ref: str) -> dict:
        """``{"ref", "digest", "name", "xml"}`` of a stored version.

        Full-digest refs are served from the client's immutable cache
        once seen — no revalidation, ever.  Tag refs revalidate unless
        the endpoint sets a ``tag_ttl_s`` staleness window.
        """
        return self._call(self._async.fetch(ref))

    def platform(self, ref: str) -> Platform:
        """Fetch and parse a descriptor (client-side digest cache applies)."""
        return self._call(self._async.platform(ref))

    def resolve(self, ref: str) -> str:
        """Tag/prefix → digest (one tiny round trip, TTL-cached)."""
        return self._call(self._async.resolve(ref))

    def delete_tag(self, name: str) -> dict:
        return self._call(self._async.delete_tag(name))

    def retag(self, name: str, ref: str) -> dict:
        return self._call(self._async.retag(name, ref))

    def query(self, ref: str, selector: Optional[str] = None) -> dict:
        return self._call(self._async.query(ref, selector))

    def lint(self, ref: str) -> dict:
        """Lint a stored version; returns the ``LintReport`` payload plus
        the resolved digest (findings never raise — inspect ``ok``)."""
        return self._call(self._async.lint(ref))

    def diff(self, old_ref: str, new_ref: str) -> dict:
        return self._call(self._async.diff(old_ref, new_ref))

    def preselect(
        self,
        platform_ref: str,
        source: str,
        *,
        expert_variants: bool = False,
        require_fallback: bool = True,
    ) -> dict:
        """Pre-select one program; returns ``{"cached", "report"}``."""
        return self._call(
            self._async.preselect(
                platform_ref,
                source,
                expert_variants=expert_variants,
                require_fallback=require_fallback,
            )
        )

    def preselect_batch(self, platform_ref: str, programs: list) -> list[dict]:
        """Batched pre-selection: one round trip, one result per program."""
        return self._call(self._async.preselect_batch(platform_ref, programs))

    # -- tuning profiles -----------------------------------------------------
    def profiles(self) -> list[dict]:
        """Summaries of every tuning profile stored on the registry."""
        return self._call(self._async.profiles())

    def publish_profile(self, ref: str, profile) -> dict:
        """Attach a tuning profile to a stored descriptor version.

        ``profile`` is either a :class:`~repro.tune.database.TuningDatabase`
        or its wire payload (``TuningDatabase.to_payload()``); it must
        contain samples for the digest ``ref`` resolves to.
        """
        return self._call(self._async.publish_profile(ref, profile))

    def fetch_profile(self, ref: str) -> dict:
        """``{"digest", "profile"}`` — the stored tuning payload of ``ref``."""
        return self._call(self._async.fetch_profile(ref))

    # -- lifecycle -----------------------------------------------------------
    def cache_stats(self) -> dict:
        """Pool/cache/coalescing counters of the underlying async client."""
        return self._async.cache_stats()

    def close(self) -> None:
        """Release pooled connections (idempotent; clients are otherwise
        safe to abandon — the pool holds only daemon-loop resources)."""
        self._call(self._async.aclose())

    def __repr__(self) -> str:
        return f"RegistryClient({self.endpoint.base_url})"
