"""Satellite guard: seeded determinism across runs and worker counts.

Identical seeds must produce byte-identical descriptor digests and
frontier fingerprints whether the sweep ran serially, in a 4-worker
pool, or on another day — the whole point of digest-sorted collation
and wall-clock-free payloads.
"""

import pytest

from repro.explore.score import WorkloadSpec
from repro.explore.sweep import run_exploration
from repro.explore.synth import synthesize

WORKLOAD = WorkloadSpec(name="dgemm", n=256, block_size=128)


class TestSynthesisDeterminism:
    def test_digests_identical_across_runs(self):
        first = synthesize("tiny", "sys-medium", seed=9)
        second = synthesize("tiny", "sys-medium", seed=9)
        assert [c.digest for c in first.candidates] == [
            c.digest for c in second.candidates
        ]
        assert first.fingerprint() == second.fingerprint()

    def test_sampled_synthesis_tracks_the_seed(self):
        base = synthesize("dgemm-default", "sys-large", seed=1, max_points=15)
        same = synthesize("dgemm-default", "sys-large", seed=1, max_points=15)
        other = synthesize("dgemm-default", "sys-large", seed=2, max_points=15)
        assert base.fingerprint() == same.fingerprint()
        assert base.fingerprint() != other.fingerprint()


class TestSweepDeterminism:
    @pytest.fixture(scope="class")
    def serial_report(self):
        return run_exploration(
            "tiny", "sys-medium", workload=WORKLOAD, seed=9, processes=1
        )

    def test_rerun_is_byte_identical(self, serial_report):
        again = run_exploration(
            "tiny", "sys-medium", workload=WORKLOAD, seed=9, processes=1
        )
        assert again.fingerprint() == serial_report.fingerprint()
        assert again.to_payload() == serial_report.to_payload()

    def test_pool_of_four_matches_serial(self, serial_report):
        pooled = run_exploration(
            "tiny", "sys-medium", workload=WORKLOAD, seed=9, processes=4
        )
        assert pooled.fingerprint() == serial_report.fingerprint()
        assert pooled.to_payload() == serial_report.to_payload()

    def test_spawn_pool_matches_serial(self, serial_report):
        # the strictest portability check: spawn workers share no state
        # with the parent beyond the pickled job itself
        pooled = run_exploration(
            "tiny",
            "sys-medium",
            workload=WORKLOAD,
            seed=9,
            processes=2,
            mp_context="spawn",
        )
        assert pooled.fingerprint() == serial_report.fingerprint()

    def test_sampled_default_space_pool_matches_serial(self):
        """48 points of the dgemm-default space under sys-large, scored
        on DGEMM 1024/256: a pool of four reports what one process does,
        and every point scores ok."""
        from repro.explore.pareto import build_report
        from repro.explore.sweep import sweep

        workload = WorkloadSpec(name="dgemm", n=1024, block_size=256)
        synthesis = synthesize("dgemm-default", "sys-large", seed=0, max_points=48)
        serial = sweep(synthesis.candidates, workload, processes=1)
        pooled = sweep(synthesis.candidates, workload, processes=4)
        assert all(score.status == "ok" for score in serial)
        assert (
            build_report(synthesis, pooled, workload).fingerprint()
            == build_report(synthesis, serial, workload).fingerprint()
        )
