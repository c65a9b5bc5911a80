"""Tests for device-memory capacity modeling and LRU eviction."""

import pytest

from repro.model.builder import PlatformBuilder
from repro.pdl.catalog import load_platform
from repro.runtime.capacity import CapacityError, MemoryCapacityManager
from repro.runtime.coherence import AccessMode, CoherenceDirectory, TransferNeed
from repro.runtime.data import DataHandle
from repro.runtime.engine import RuntimeEngine
from repro.experiments.workloads import submit_tiled_dgemm


def mb(n):
    return n * 2**20


class TestManagerUnit:
    def setup_method(self):
        self.coherence = CoherenceDirectory()
        self.mgr = MemoryCapacityManager(self.coherence, {0: None, 1: mb(30)})
        self.writebacks = []

        def charge(need, when):
            self.writebacks.append(need)
            return when + 0.001

        self.charge = charge

    def handle(self, megabytes, name):
        # float64: 2^20 bytes = 128x1024 doubles
        return DataHandle(shape=(megabytes * 128, 1024), name=name)

    def fetch(self, handle, now):
        """Simulate a read fetch of ``handle`` into node 1 at ``now``."""
        ready = self.mgr.make_room(1, handle.nbytes, now, writeback=self.charge)
        need = self.coherence.required_transfer(handle, 1, AccessMode.READ)
        if need is not None:
            self.coherence.note_transfer(need)
        self.mgr.note_resident(handle, 1, max(ready, now))
        return ready

    def test_fits_without_eviction(self):
        a = self.handle(10, "a")
        self.fetch(a, 0.0)
        assert self.mgr.eviction_count == 0
        assert self.mgr.resident_bytes(1) == a.nbytes

    def test_lru_eviction_order(self):
        a, b, c = (self.handle(12, x) for x in "abc")
        self.fetch(a, 0.0)
        self.fetch(b, 1.0)
        self.mgr.touch(a, 1, 2.0)  # a is now most-recently used
        self.fetch(c, 3.0)  # needs room: b (LRU) must go, not a
        assert self.mgr.eviction_count == 1
        assert not self.coherence.is_valid_on(b, 1)
        assert self.coherence.is_valid_on(a, 1)

    def test_clean_copy_dropped_without_writeback(self):
        a, b = self.handle(20, "a"), self.handle(20, "b")
        self.fetch(a, 0.0)  # a also valid at home: clean copy
        self.fetch(b, 1.0)  # evicts a
        assert self.mgr.eviction_count == 1
        assert self.writebacks == []  # no write-back needed

    def test_dirty_sole_copy_written_back(self):
        a, b = self.handle(20, "a"), self.handle(20, "b")
        self.fetch(a, 0.0)
        # node 1 writes a: exclusive dirty owner
        self.coherence.note_access(a, 1, AccessMode.READWRITE)
        self.mgr.note_invalidated(a, 1)
        self.fetch(b, 1.0)  # evicting a requires write-back
        assert [n.handle.name for n in self.writebacks] == ["a"]
        assert self.coherence.is_valid_on(a, 0)  # home valid again
        assert not self.coherence.is_valid_on(a, 1)
        assert self.mgr.writeback_bytes == a.nbytes

    def test_pinned_handles_not_evicted(self):
        a, b = self.handle(20, "a"), self.handle(20, "b")
        self.fetch(a, 0.0)
        self.mgr.pin(a, 1)
        with pytest.raises(CapacityError, match="pinned"):
            self.fetch(b, 1.0)
        self.mgr.unpin(a, 1)
        self.fetch(b, 2.0)  # now fine

    def test_oversized_handle_rejected(self):
        whale = self.handle(40, "whale")
        with pytest.raises(CapacityError, match="entirely"):
            self.mgr.make_room(1, whale.nbytes, 0.0, writeback=self.charge)

    def test_unbounded_node_ignores_capacity(self):
        whale = self.handle(4000, "whale")
        assert self.mgr.make_room(0, whale.nbytes, 5.0,
                                  writeback=self.charge) == 5.0

    def test_nested_pins(self):
        a = self.handle(10, "a")
        self.fetch(a, 0.0)
        self.mgr.pin(a, 1)
        self.mgr.pin(a, 1)
        self.mgr.unpin(a, 1)
        b = self.handle(25, "b")
        with pytest.raises(CapacityError):
            self.fetch(b, 1.0)  # still pinned once
        self.mgr.unpin(a, 1)
        self.fetch(b, 2.0)


class TestEngineIntegration:
    def test_fig5_size_fits_device_memory(self):
        engine = RuntimeEngine(load_platform("xeon_x5550_2gpu"),
                               scheduler="dmda", model_capacity=True)
        submit_tiled_dgemm(engine, 8192, 1024)
        result = engine.run()
        # the paper's working set fits: capacity modeling is ~invisible
        assert result.eviction_count < 20
        assert result.writeback_bytes < 2**28
        assert result.makespan == pytest.approx(5.86, rel=0.05)

    def test_oversubscription_triggers_evictions(self):
        engine = RuntimeEngine(load_platform("xeon_x5550_2gpu"),
                               scheduler="dmda", model_capacity=True)
        submit_tiled_dgemm(engine, 16384, 1024)  # 3x 2 GiB > device memory
        result = engine.run()
        assert result.eviction_count > 100
        assert result.writeback_bytes > 2**30
        # streaming degrades gracefully: within 15% of unbounded memory
        unbounded = RuntimeEngine(load_platform("xeon_x5550_2gpu"),
                                  scheduler="dmda")
        submit_tiled_dgemm(unbounded, 16384, 1024)
        assert result.makespan < unbounded.run().makespan * 1.15

    def test_capacity_never_loses_data(self, rng):
        """Functional run on a tiny-memory platform: results stay correct
        even with heavy eviction."""
        import numpy as np

        platform = (
            PlatformBuilder("tiny")
            .master("m", architecture="x86_64")
            .worker("cpu", architecture="x86_64")
            .worker("gpu0", architecture="gpu",
                    properties={"PEAK_GFLOPS_DP": "100", "DGEMM_EFFICIENCY": "0.7"})
            .interconnect("m", "cpu", type="SHM")
            .interconnect("m", "gpu0", type="PCIe", bandwidth="5.7 GB/s")
            .build()
        )
        # give gpu0 a memory of only ~0.4 MiB: a few 128x128 tiles
        from repro.model.entities import MemoryRegion
        from repro.model.properties import Property, PropertyValue

        region = MemoryRegion("gpu0-mem")
        region.descriptor.add(Property("SIZE", PropertyValue("400", "kB")))
        platform.pu("gpu0").add_memory_region(region)

        engine = RuntimeEngine(platform, scheduler="dmda",
                               model_capacity=True, execute_kernels=True)
        handles = submit_tiled_dgemm(engine, 512, 128, materialize=True)
        a, b = handles.A.array.copy(), handles.B.array.copy()
        result = engine.run()
        assert result.eviction_count > 0  # memory pressure was real
        np.testing.assert_allclose(handles.C.array, a @ b, rtol=1e-8)

    def test_default_off_preserves_baseline(self):
        times = {}
        for cap in (False, True):
            engine = RuntimeEngine(load_platform("xeon_x5550_2gpu"),
                                   scheduler="dmda", model_capacity=cap)
            submit_tiled_dgemm(engine, 4096, 512)
            times[cap] = engine.run().makespan
        # at fitting sizes, enabling the model changes almost nothing
        assert times[True] == pytest.approx(times[False], rel=0.02)
