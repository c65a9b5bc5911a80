"""Concurrent-access tests: parallel publish/fetch/preselect against one
store (no torn reads), tag-move invalidation under load, and 429
behaviour when the server's request queue is full."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ServiceOverloadError
from repro.pdl import load_platform, write_pdl
from repro.pdl.catalog import content_digest
from repro.service import (
    DescriptorStore,
    RegistryClient,
    RegistryEndpoint,
    ServerThread,
    ServiceConfig,
)


class TestStoreConcurrency:
    def test_parallel_publish_fetch_no_torn_reads(self):
        """Writers flip one tag between two versions while readers fetch;
        every read must observe one of the two exact canonical documents,
        and the digest must always match the returned content."""
        store = DescriptorStore()
        gpu_xml = write_pdl(load_platform("xeon_x5550_2gpu"))
        cpu_xml = write_pdl(load_platform("xeon_x5550_dual"))
        store.publish("box", gpu_xml)
        valid = {
            content_digest(store.xml("box")): store.xml("box"),
        }
        store.publish("box", cpu_xml)
        valid[content_digest(store.xml("box"))] = store.xml("box")
        errors = []
        stop = threading.Event()

        def writer(xml):
            while not stop.is_set():
                store.publish("box", xml)

        def reader():
            while not stop.is_set():
                try:
                    digest = store.resolve("box")
                    xml = store.xml(digest)
                    if content_digest(xml) != digest:
                        errors.append("digest/content mismatch")
                    if xml not in valid.values():
                        errors.append("torn read: unknown content")
                    platform = store.platform("box")
                    if platform.total_pu_count() not in (9, 11):
                        errors.append(
                            f"torn parse: {platform.total_pu_count()} PUs"
                        )
                except Exception as exc:  # noqa: BLE001
                    errors.append(f"reader raised {exc!r}")

        threads = [
            threading.Thread(target=writer, args=(gpu_xml,)),
            threading.Thread(target=writer, args=(cpu_xml,)),
            *[threading.Thread(target=reader) for _ in range(4)],
        ]
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert errors == []

    def test_parallel_preselect_consistent_memo(self, program_source):
        """N threads preselecting the same key agree on the payload and
        produce exactly one distinct fingerprint."""
        store = DescriptorStore()
        store.seed_catalog()

        def work(_):
            payload, _hit = store.preselect("xeon_x5550_2gpu", program_source)
            return payload["fingerprint"]

        with ThreadPoolExecutor(max_workers=8) as pool:
            fingerprints = set(pool.map(work, range(32)))
        assert len(fingerprints) == 1
        stats = store.stats()["preselect_cache"]
        assert stats["hits"] + stats["misses"] == 32

    def test_tag_move_invalidation_under_load(self, program_source):
        """Readers preselecting against a moving tag must always get the
        report matching the digest the tag pointed at — never a stale
        memoized result from the other version."""
        store = DescriptorStore()
        store.seed_catalog()
        store.publish("target", store.xml("xeon_x5550_2gpu"))
        gpu_digest = store.resolve("xeon_x5550_2gpu")
        cpu_digest = store.resolve("xeon_x5550_dual")
        expectations = {
            gpu_digest: lambda p: "dgemm_gpu"
            in [v["name"] for v in p["selected"]["Idgemm"]],
            cpu_digest: lambda p: "dgemm_gpu" in p["pruned"],
        }
        errors = []
        stop = threading.Event()

        def mover():
            flip = True
            while not stop.is_set():
                store.retag("target", gpu_digest if flip else cpu_digest)
                flip = not flip

        def selector():
            while not stop.is_set():
                payload, _ = store.preselect("target", program_source)
                check = expectations.get(payload["digest"])
                if check is None:
                    errors.append(f"unknown digest {payload['digest'][:8]}")
                elif not check(payload):
                    errors.append(
                        f"stale selection for digest {payload['digest'][:8]}"
                    )

        threads = [
            threading.Thread(target=mover),
            *[threading.Thread(target=selector) for _ in range(4)],
        ]
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert errors == []


MIXED_PROGRAM = """\
#pragma cascabel task : x86 : I{name} : {name}_cpu : (C: readwrite, A: read, B: read)
void {name}(double *C, double *A, double *B) {{ }}

#pragma cascabel task : cuda,opencl : I{name} : {name}_gpu : (C: readwrite, A: read, B: read)
void {name}_gpu(double *C, double *A, double *B) {{ }}
"""


def _mixed_workload(url, total, workers):
    """``total`` requests from ``workers`` client threads: 60% fetch of
    three catalog refs, 30% pre-selection of three programs, 10% query."""
    programs = [MIXED_PROGRAM.format(name=n) for n in ("dgemm", "dtrsm", "spmv")]
    refs = ("xeon_x5550_2gpu", "xeon_x5550_dual", "cell_qs22")
    errors = []

    def work():
        client = RegistryClient(url)
        try:
            for i in range(total // workers):
                slot = i % 10
                if slot < 6:
                    client.fetch(refs[i % len(refs)])
                elif slot < 9:
                    client.preselect("xeon_x5550_2gpu", programs[i % len(programs)])
                else:
                    client.query("xeon_x5550_2gpu", "//Worker[ARCHITECTURE=gpu]")
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == [], errors


class TestMixedWorkload:
    def test_steady_state_is_served_from_the_caches(self):
        """After a 40-request warm-up, 240 mixed requests from four
        threads: selections come from the memo, parses from the LRU."""
        from repro.pdl.catalog import clear_parse_cache

        clear_parse_cache()
        config = ServiceConfig(max_queue=128, executor_threads=4)
        with ServerThread(config=config) as url:
            _mixed_workload(url, total=40, workers=4)
            _mixed_workload(url, total=240, workers=4)
            snapshot = RegistryClient(url).metrics()
        assert snapshot["preselect_cache"]["hit_ratio"] > 0.9
        assert snapshot["platform_cache"]["hit_ratio"] > 0.9
        assert snapshot["errors_total"] == 0


class _SlowStore(DescriptorStore):
    """Store whose preselect blocks until released (overload fixture)."""

    def __init__(self):
        super().__init__()
        self.released = threading.Event()

    def preselect(self, ref, program_source, **kwargs):
        self.released.wait(timeout=30)
        return super().preselect(ref, program_source, **kwargs)


def _wait_until(condition, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


class TestServerOverload:
    def test_429_when_queue_full(self, program_source):
        """With a queue bound of 1 and slow handlers, concurrent clients
        must see 429 + Retry-After instead of hangs or drops."""
        store = _SlowStore()
        store.seed_catalog()
        config = ServiceConfig(max_queue=1, executor_threads=2)
        with ServerThread(store, config=config, seed_catalog=False) as url:
            outcomes = []

            def fire():
                client = RegistryClient(
                    RegistryEndpoint.parse(url, retry_policy=None)
                )
                try:
                    result = client.preselect("xeon_x5550_2gpu", program_source)
                    outcomes.append(("ok", result["report"]["platform"]))
                except ServiceOverloadError as exc:
                    outcomes.append(("overload", exc.retry_after))

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for t in threads:
                t.start()
            # the admitted request holds the one slot until released
            _wait_until(lambda: len(outcomes) == 5)
            store.released.set()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)

            statuses = [kind for kind, _ in outcomes]
            assert len(outcomes) == 6
            assert "ok" in statuses  # the admitted request completed
            assert "overload" in statuses  # the excess was shed
            retry_afters = [
                ra for kind, ra in outcomes if kind == "overload"
            ]
            assert all(ra is not None and ra > 0 for ra in retry_afters)

            # health and metrics stay reachable during/after overload
            client = RegistryClient(url)
            assert client.health() == {"status": "ok"}
            snapshot = client.metrics()
            assert snapshot["overloads_total"] >= statuses.count("overload")
            assert snapshot["queue"]["high_water"] >= 1

    def test_client_retry_eventually_succeeds(self, program_source):
        """The default client retries 429s with backoff and completes once
        capacity frees up.

        The store holds the admitted request until the server has turned
        another one away; from then on every request is served at once, so
        the queue drains well inside the default retry budget (three
        retries, 0.35 s of backoff) whatever the host's speed.
        """
        store = _SlowStore()
        store.seed_catalog()
        config = ServiceConfig(max_queue=1, executor_threads=1)
        server = ServerThread(store, config=config, seed_catalog=False)
        with server as url:
            metrics = server.server.metrics
            results = []

            def fire():
                client = RegistryClient(url)  # default retry policy
                results.append(
                    client.preselect("xeon_x5550_2gpu", program_source)
                )

            threads = [threading.Thread(target=fire) for _ in range(3)]
            for t in threads:
                t.start()
            _wait_until(lambda: metrics.overloads_total >= 1)
            store.released.set()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert metrics.overloads_total >= 1  # a 429 was retried
            assert len(results) == 3
            platforms = {r["report"]["platform"] for r in results}
            assert platforms == {"xeon-x5550-2gpu"}  # descriptor's own name
