"""End-to-end tests: in-process server + blocking client over real HTTP."""

import pytest

from repro.pdl import load_platform, write_pdl
from repro.service import RegistryClient, ServerThread


@pytest.fixture(scope="module")
def service():
    """One seeded server shared by the module (ephemeral port)."""
    with ServerThread() as url:
        yield RegistryClient(url)


class TestEndToEnd:
    def test_acceptance_flow(self, service, program_source):
        """The issue's acceptance scenario: boot in-process, publish a
        catalog descriptor, batched /preselect for a CUDA+x86 program,
        observe a cache hit on the second identical request via /metrics."""
        # publish a catalog descriptor under a deployment tag
        xml = write_pdl(load_platform("xeon_x5550_2gpu"))
        published = service.publish("prod-gpubox", xml)
        assert published["digest"]

        before = service.metrics()["preselect_cache"]
        first = service.preselect_batch(
            "prod-gpubox", [{"source": program_source}]
        )
        second = service.preselect_batch(
            "prod-gpubox", [{"source": program_source}]
        )
        assert first[0]["cached"] is False
        assert second[0]["cached"] is True
        assert first[0]["report"] == second[0]["report"]

        report = second[0]["report"]
        names = [v["name"] for v in report["selected"]["Idgemm"]]
        assert names == ["dgemm_gpu", "dgemm_cpu"]  # cuda kept, x86 fallback
        assert "dgemm_spe" in report["pruned"]

        after = service.metrics()["preselect_cache"]
        assert after["hits"] >= before["hits"] + 1

    def test_publish_status_codes(self, service):
        xml = write_pdl(load_platform("cell_qs22"))
        # new content under a fresh tag -> the blob may already be seeded,
        # so publish something genuinely new: rename the platform
        platform = load_platform("cell_qs22")
        platform.name = "cell-variant"
        fresh = service.publish("cell-variant", write_pdl(platform))
        assert fresh["created"] is True
        again = service.publish("cell-variant", write_pdl(platform))
        assert again["created"] is False
        seeded = service.publish("cell-copy", xml)
        assert seeded["created"] is False  # identical to the seeded blob

    def test_list_and_fetch_roundtrip(self, service):
        platforms = service.platforms()
        names = {p["name"] for p in platforms}
        assert "xeon_x5550_2gpu" in names
        record = service.fetch("xeon_x5550_2gpu")
        assert record["xml"].startswith("<?xml")
        # fetch by digest prefix returns the same content
        by_prefix = service.fetch(record["digest"][:16])
        assert by_prefix["xml"] == record["xml"]

    def test_parsed_platform_client_side(self, service):
        platform = service.platform("xeon_x5550_2gpu")
        assert platform.total_pu_count() == 11
        assert {pu.id for pu in platform.workers()} == {"cpu", "gpu0", "gpu1"}

    def test_remote_query(self, service):
        payload = service.query("xeon_x5550_2gpu", "//Worker[ARCHITECTURE=gpu]")
        assert {m["id"] for m in payload["matches"]} == {"gpu0", "gpu1"}
        summary = service.query("cell_qs22")
        assert "spe" in summary["architectures"]

    def test_remote_diff(self, service):
        payload = service.diff("xeon_x5550_dual", "xeon_x5550_2gpu")
        assert not payload["identical"]
        assert any(c["kind"] == "pu-added" for c in payload["changes"])

    def test_retag_and_delete(self, service):
        service.publish("staging", write_pdl(load_platform("xeon_x5550_dual")))
        moved = service.retag("staging", "xeon_x5550_2gpu")
        assert moved["moved"] is True
        assert (
            service.fetch("staging")["digest"]
            == service.fetch("xeon_x5550_2gpu")["digest"]
        )
        deleted = service.delete_tag("staging")
        assert deleted["deleted"] is True

    def test_metrics_shape(self, service):
        service.health()
        snapshot = service.metrics()
        assert snapshot["requests_total"] > 0
        assert "p50" in snapshot["latency_s"]
        assert "p99" in snapshot["latency_s"]
        assert snapshot["queue"]["high_water"] >= 1
        assert "GET /metrics" in snapshot["by_endpoint"]
        assert snapshot["store"]["blobs"] >= 5

    def test_index_lists_endpoints(self, service):
        info = service.info()
        assert "POST /preselect" in info["endpoints"]
        assert "GET /platforms/{ref}" in info["endpoints"]

    def test_batched_preselect_mixed_entries(self, service, program_source):
        cpu_only = program_source.replace(
            "cuda,opencl", "opencl"
        )  # different content -> distinct memo entry
        results = service.preselect_batch(
            "xeon_x5550_2gpu",
            [
                {"source": program_source},
                {"source": cpu_only},
                {"source": program_source},  # duplicate within one batch
            ],
        )
        assert len(results) == 3
        assert results[2]["cached"] is True
        assert results[0]["report"]["fingerprint"] == results[2]["report"][
            "fingerprint"
        ]


class TestShutdown:
    def test_cancel_while_closing_finishes_the_handler(self):
        """Loop shutdown cancels handlers; one already waiting in its
        ``finally`` for ``writer.wait_closed()`` must still finish
        normally, or the stream protocol's done-callback logs the
        CancelledError as an unhandled exception."""
        import asyncio

        from repro.service import RegistryServer
        from repro.service.store import DescriptorStore

        class EofReader:
            async def readline(self):
                return b""

        class ParkedWriter:
            def __init__(self):
                self.closing = asyncio.Event()

            def close(self):
                pass

            async def wait_closed(self):
                self.closing.set()
                await asyncio.Event().wait()  # a peer that never closes

        async def scenario():
            server = RegistryServer(DescriptorStore(), seed_catalog=False)
            writer = ParkedWriter()
            task = asyncio.create_task(
                server._handle_connection(EofReader(), writer)
            )
            await asyncio.wait_for(writer.closing.wait(), timeout=5)
            task.cancel()
            await asyncio.wait([task], timeout=5)
            assert task.done()
            assert not task.cancelled()
            assert task.exception() is None

        asyncio.run(scenario())
