"""Unit tests for the DynamicPlatform monitor."""

import pytest

from repro.dynamic import (
    DynamicPlatform,
    FrequencyChange,
    PUOffline,
    PUOnline,
    available_workers,
)
from repro.pdl.catalog import load_platform


@pytest.fixture
def dyn():
    return DynamicPlatform(load_platform("xeon_x5550_2gpu"))


class TestRevisions:
    def test_baseline(self, dyn):
        assert dyn.revision == 0
        assert dyn.log == []
        assert dyn.available_lane_count() == 10

    def test_apply_bumps_revision(self, dyn):
        r1 = dyn.apply(PUOffline("gpu0"))
        r2 = dyn.apply(PUOffline("gpu1"))
        assert (r1, r2) == (1, 2)
        assert len(dyn.log) == 2
        assert dyn.available_lane_count() == 8

    def test_apply_all(self, dyn):
        rev = dyn.apply_all([PUOffline("gpu0"), PUOnline("gpu0")])
        assert rev == 2
        assert dyn.available_lane_count() == 10

    def test_failed_event_does_not_log(self, dyn):
        with pytest.raises(Exception):
            dyn.apply(PUOffline("ghost"))
        assert dyn.revision == 0 and dyn.log == []

    def test_events_for(self, dyn):
        dyn.apply(PUOffline("gpu0"))
        dyn.apply(PUOffline("gpu1"))
        dyn.apply(PUOnline("gpu0"))
        assert len(dyn.events_for("gpu0")) == 2
        assert len(dyn.events_for("cpu")) == 0


class TestSnapshots:
    def test_snapshot_is_isolated(self, dyn):
        snap = dyn.snapshot()
        dyn.apply(PUOffline("gpu0"))
        assert available_workers(snap) != available_workers(dyn.platform)
        assert len(available_workers(snap)) == 3
        assert len(available_workers(dyn.platform)) == 2

    def test_snapshot_validates(self, dyn):
        dyn.apply(PUOffline("gpu0"))
        dyn.snapshot().validate()

    def test_snapshot_after_full_event_cycle(self, dyn):
        # both GPUs out and back, a DVFS dip and restore: all 11 PUs stay
        dyn.apply_all([
            PUOffline("gpu0", reason="thermal"),
            PUOffline("gpu1", reason="driver"),
            FrequencyChange("cpu", new_ghz=2.0),
            PUOnline("gpu0"),
            PUOnline("gpu1"),
            FrequencyChange("cpu", new_ghz=2.66),
        ])
        assert dyn.snapshot().total_pu_count() == 11


class TestSubscriptions:
    def test_callbacks_fired(self, dyn):
        seen = []
        dyn.subscribe(lambda rev, ev: seen.append((rev, ev.pu_id)))
        dyn.apply(PUOffline("gpu0"))
        dyn.apply(FrequencyChange("cpu", new_ghz=2.0))
        assert seen == [(1, "gpu0"), (2, "cpu")]

    def test_unsubscribe(self, dyn):
        seen = []
        unsub = dyn.subscribe(lambda rev, ev: seen.append(rev))
        dyn.apply(PUOffline("gpu0"))
        unsub()
        dyn.apply(PUOnline("gpu0"))
        assert seen == [1]
        unsub()  # idempotent


class TestEngineIntegration:
    def test_engine_skips_offline_workers(self, dyn):
        from repro.runtime.engine import RuntimeEngine

        dyn.apply(PUOffline("gpu0"))
        engine = RuntimeEngine(dyn.snapshot())
        ids = {w.instance_id for w in engine.workers}
        assert "gpu0" not in ids and "gpu1" in ids
        assert len(engine.workers) == 9

    def test_all_workers_offline_rejected(self, dyn):
        from repro.errors import RuntimeEngineError
        from repro.runtime.engine import RuntimeEngine

        for pu_id in ("cpu", "gpu0", "gpu1"):
            dyn.apply(PUOffline(pu_id))
        with pytest.raises(RuntimeEngineError, match="available"):
            RuntimeEngine(dyn.snapshot())
