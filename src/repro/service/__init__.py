"""Platform registry service: a concurrent PDL store + remote selection API.

The paper's descriptors are built to be *shared* — "base descriptors for
common platforms may be provided a priori", with later toolchain stages
filling in ``unfixed`` properties.  This package is that sharing layer:
a content-addressed, versioned store of PDL documents
(:class:`DescriptorStore`) behind a stdlib-only asyncio JSON-over-HTTP
server (:class:`RegistryServer`), exposing the existing toolchain over
the wire — queries (:mod:`repro.query`), structural diffs
(:mod:`repro.pdl.diff`) and batched Cascabel variant pre-selection
(:mod:`repro.cascabel.selection`).

:class:`AsyncRegistryClient` is the primary client — pooled,
coalescing, immutable-digest caching — with :class:`RegistryClient` as
its blocking facade; both take a :class:`RegistryEndpoint`.

Quick start::

    from repro.service import DescriptorStore, RegistryClient, ServerThread

    with ServerThread() as url:              # seeds the shipped catalog
        client = RegistryClient(url)
        client.platforms()                   # tags -> digests
        client.preselect("xeon_x5550_2gpu", annotated_source)

See ``docs/registry-service.md`` for the wire protocol, caching and
overload semantics.
"""

from repro.service.async_client import AsyncRegistryClient, RegistryEndpoint
from repro.service.cache import LRUCache, TTLCache
from repro.service.client import RegistryClient
from repro.service.metrics import ServiceMetrics
from repro.service.server import RegistryServer, ServerThread, ServiceConfig
from repro.service.store import DescriptorStore, PublishResult

__all__ = [
    "DescriptorStore",
    "PublishResult",
    "LRUCache",
    "TTLCache",
    "ServiceMetrics",
    "ServiceConfig",
    "RegistryServer",
    "ServerThread",
    "RegistryClient",
    "RegistryEndpoint",
    "AsyncRegistryClient",
]
