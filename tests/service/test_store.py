"""Unit tests for the content-addressed descriptor store."""

import sys
import threading

import pytest

from repro.errors import PDLError, UnknownPlatformError
from repro.pdl import load_platform, write_pdl
from repro.pdl.catalog import content_digest
from repro.service import DescriptorStore


def xml_of(name: str) -> str:
    return write_pdl(load_platform(name))


class TestPublish:
    def test_publish_returns_digest(self):
        store = DescriptorStore()
        result = store.publish("gpubox", xml_of("xeon_x5550_2gpu"))
        assert result.created and not result.moved
        assert len(result.digest) == 64
        assert store.tags() == {"gpubox": result.digest}

    def test_publish_is_idempotent(self):
        store = DescriptorStore()
        first = store.publish("gpubox", xml_of("xeon_x5550_2gpu"))
        second = store.publish("gpubox", xml_of("xeon_x5550_2gpu"))
        assert second.digest == first.digest
        assert not second.created and not second.moved

    def test_formatting_does_not_change_identity(self):
        """Digest is over the canonical serialization, not raw bytes."""
        store = DescriptorStore()
        canonical = xml_of("cell_qs22")
        reformatted = canonical.replace(
            '<?xml version="1.0" encoding="UTF-8"?>\n',
            '<?xml version="1.0" encoding="UTF-8"?>\n\n',
        )
        assert content_digest(canonical) != content_digest(reformatted)
        a = store.publish("cell-a", canonical)
        b = store.publish("cell-b", reformatted)
        assert a.digest == b.digest
        assert len(store.digests()) == 1

    def test_tag_move_keeps_old_blob(self):
        store = DescriptorStore()
        v1 = store.publish("box", xml_of("xeon_x5550_dual"))
        v2 = store.publish("box", xml_of("xeon_x5550_2gpu"))
        assert v2.moved and v1.digest != v2.digest
        assert store.tags()["box"] == v2.digest
        # the old version is still fetchable by digest
        assert store.xml(v1.digest) == xml_of("xeon_x5550_dual")

    def test_malformed_xml_rejected_before_storing(self):
        store = DescriptorStore()
        with pytest.raises(PDLError):
            store.publish("junk", "<Platform><unclosed>")
        assert store.tags() == {}
        assert store.digests() == []


class TestResolve:
    def test_resolve_by_tag_digest_and_prefix(self):
        store = DescriptorStore()
        result = store.publish("gpubox", xml_of("xeon_x5550_2gpu"))
        assert store.resolve("gpubox") == result.digest
        assert store.resolve(result.digest) == result.digest
        assert store.resolve(result.digest[:12]) == result.digest

    def test_short_prefix_not_resolved(self):
        store = DescriptorStore()
        result = store.publish("gpubox", xml_of("xeon_x5550_2gpu"))
        with pytest.raises(UnknownPlatformError):
            store.resolve(result.digest[:4])

    def test_unknown_ref(self):
        store = DescriptorStore()
        with pytest.raises(UnknownPlatformError, match="unknown platform"):
            store.resolve("vax11")

    def test_delete_tag_keeps_blob(self):
        store = DescriptorStore()
        result = store.publish("box", xml_of("cell_qs22"))
        digest = store.delete_tag("box")
        assert digest == result.digest
        with pytest.raises(UnknownPlatformError):
            store.resolve("box")
        assert store.xml(digest)
        with pytest.raises(UnknownPlatformError):
            store.delete_tag("box")


class TestPlatformCache:
    def test_parsed_platform_is_cached(self, seeded_store):
        before = seeded_store.metrics.snapshot()["platform_cache"]
        p1 = seeded_store.platform("xeon_x5550_2gpu")
        p2 = seeded_store.platform("xeon_x5550_2gpu")
        after = seeded_store.metrics.snapshot()["platform_cache"]
        assert after["hits"] >= before["hits"] + 1
        assert p1.total_pu_count() == p2.total_pu_count() == 11

    def test_store_parses_bypass_the_module_parse_cache(self):
        # the store's LRU is its only parse cache: publishes, blob puts
        # and LRU-miss fetches leave the catalog's module cache alone
        from repro.pdl.catalog import parse_cache_info

        box, cell = xml_of("xeon_x5550_2gpu"), xml_of("cell_qs22")
        before = parse_cache_info()
        store = DescriptorStore(platform_cache_size=1)
        store.publish("box", box)
        store.put_blob(cell)  # evicts "box"
        fetched = store.platform("box")  # LRU miss: parses again
        assert fetched.total_pu_count() == 11
        assert store.metrics.snapshot()["platform_cache"]["misses"] >= 1
        assert parse_cache_info() == before

    def test_cached_copies_are_independent(self, seeded_store):
        p1 = seeded_store.platform("cell_qs22")
        p1.name = "mutated"
        p1.pu("spe").quantity = 1
        p2 = seeded_store.platform("cell_qs22")
        assert p2.name != "mutated"
        assert p2.pu("spe").quantity == 8


class TestCachedMaster:
    """Pre-selection reads the LRU's parsed platform in place, so nothing
    a caller does to a fetched platform may reach it, and pre-selection
    itself must leave it as parsed."""

    def test_preselect_leaves_the_cached_master_unchanged(self, program_source):
        store = DescriptorStore()
        store.publish("box", xml_of("xeon_x5550_2gpu"))
        for expert_variants in (False, True):
            store.preselect("box", program_source, expert_variants=expert_variants)
        assert write_pdl(store.platform("box")) == store.xml("box")

    def test_mutating_a_fetched_platform_changes_no_later_read(
        self, program_source
    ):
        clean = DescriptorStore()
        clean.publish("box", xml_of("xeon_x5550_2gpu"))
        expected, _ = clean.preselect("box", program_source)
        store = DescriptorStore(platform_cache_size=1)
        store.publish("box", xml_of("xeon_x5550_2gpu"))
        store.publish("cell", xml_of("cell_qs22"))  # evicts "box"
        for _ in range(2):  # an LRU miss, then a hit
            fetched = store.platform("box")
            fetched.name = "mutated"
            for pu in fetched.workers():
                pu.descriptor.remove("ARCHITECTURE")
        assert write_pdl(store.platform("box")) == store.xml("box")
        payload, cached = store.preselect("box", program_source)
        assert not cached
        assert payload == expected

    def test_concurrent_preselections_agree(self, program_source):
        programs = [
            program_source.replace("dgemm_", f"dgemm{i}_") for i in range(6)
        ]
        refs = {"box": xml_of("xeon_x5550_2gpu"), "cell": xml_of("cell_qs22")}
        reference = DescriptorStore()
        # one platform slot and two memo slots: most calls miss both caches
        store = DescriptorStore(platform_cache_size=1, preselect_cache_size=2)
        for ref, xml in refs.items():
            reference.publish(ref, xml)
            store.publish(ref, xml)
        expected = {
            (ref, i): reference.preselect(ref, program)[0]
            for ref in refs
            for i, program in enumerate(programs)
        }
        results: dict[int, list] = {}
        errors: list = []

        def worker(k: int) -> None:
            try:
                results[k] = [
                    ((ref, i), store.preselect(ref, programs[i])[0])
                    for _ in range(3)
                    for i in (*range(k, len(programs)), *range(k))
                    for ref in refs
                ]
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(k,)) for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(results) == [0, 1, 2, 3]
        for pairs in results.values():
            assert len(pairs) == 3 * len(programs) * len(refs)
            for key, payload in pairs:
                assert payload == expected[key]


class TestPreselect:
    def test_memoized_second_call(self, seeded_store, program_source):
        payload1, hit1 = seeded_store.preselect("xeon_x5550_2gpu", program_source)
        payload2, hit2 = seeded_store.preselect("xeon_x5550_2gpu", program_source)
        assert (hit1, hit2) == (False, True)
        assert payload1 == payload2
        assert payload1["fingerprint"] == payload2["fingerprint"]
        selected = payload1["selected"]["Idgemm"]
        assert [v["name"] for v in selected] == ["dgemm_gpu", "dgemm_cpu"]

    def test_memo_keyed_by_options(self, seeded_store, program_source):
        _, hit_a = seeded_store.preselect(
            "xeon_x5550_2gpu", program_source, expert_variants=True
        )
        _, hit_b = seeded_store.preselect(
            "xeon_x5550_2gpu", program_source, expert_variants=False
        )
        assert hit_a is False and hit_b is False

    def test_tag_move_invalidates(self, seeded_store, program_source):
        seeded_store.publish("target", seeded_store.xml("xeon_x5550_2gpu"))
        gpu_payload, hit = seeded_store.preselect("target", program_source)
        assert not hit
        assert "dgemm_gpu" in [
            v["name"] for v in gpu_payload["selected"]["Idgemm"]
        ]
        # move the tag to the CPU-only platform: same request, fresh result
        seeded_store.retag("target", "xeon_x5550_dual")
        cpu_payload, hit = seeded_store.preselect("target", program_source)
        assert not hit
        assert "dgemm_gpu" in cpu_payload["pruned"]
        assert cpu_payload["digest"] != gpu_payload["digest"]

    def test_different_digest_different_memo_entry(
        self, seeded_store, program_source
    ):
        _, h1 = seeded_store.preselect("xeon_x5550_2gpu", program_source)
        _, h2 = seeded_store.preselect("xeon_x5550_dual", program_source)
        assert h1 is False and h2 is False


class TestDelegation:
    def test_query_summary_and_selector(self, seeded_store):
        summary = seeded_store.query("xeon_x5550_2gpu")
        assert summary["total_pus"] == 11
        assert "gpu" in summary["architectures"]
        matches = seeded_store.query(
            "xeon_x5550_2gpu", "//Worker[ARCHITECTURE=gpu]"
        )
        assert {m["id"] for m in matches["matches"]} == {"gpu0", "gpu1"}

    def test_diff(self, seeded_store):
        payload = seeded_store.diff("xeon_x5550_dual", "xeon_x5550_2gpu")
        assert not payload["identical"]
        kinds = {c["kind"] for c in payload["changes"]}
        assert "pu-added" in kinds
        same = seeded_store.diff("cell_qs22", "cell_qs22")
        assert same["identical"]

    def test_seed_catalog_publishes_everything(self, seeded_store):
        from repro.pdl import available_platforms

        assert sorted(seeded_store.tags()) == available_platforms()
