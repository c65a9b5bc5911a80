"""Unit tests for abstract platform-pattern matching."""

import pytest

from repro.errors import PatternMatchError
from repro.model.builder import PlatformBuilder
from repro.query.patterns import find_matches, match_pattern, pattern_matches


def pattern(archs=None, quantity=1, worker_props=None):
    """Master + one Worker pattern (Listing 1 shape)."""
    b = PlatformBuilder("pat").master("pm")
    b.worker("pw", architecture=archs, quantity=quantity,
             properties=worker_props or {})
    return b.build(validate=False)


class TestBasicMatching:
    def test_listing1_pattern_on_gpgpu(self, gpgpu_platform):
        m = match_pattern(pattern("gpu"), gpgpu_platform)
        assert m.concrete("pm").id == "host"
        assert m.concrete("pw").architecture == "gpu"

    def test_no_match_raises(self, cpu_platform):
        with pytest.raises(PatternMatchError):
            match_pattern(pattern("gpu"), cpu_platform)
        assert not pattern_matches(pattern("gpu"), cpu_platform)

    def test_all_matches_enumerated(self, gpgpu_platform):
        matches = find_matches(pattern("gpu"), gpgpu_platform)
        workers = {m.concrete("pw").id for m in matches}
        assert workers == {"gpu0", "gpu1"}
        assert len(matches) == 2

    def test_gpu_worker_found_on_200_worker_platform(self):
        from repro.experiments.scenarios import synthetic_manycore_platform

        assert pattern_matches(pattern("gpu"), synthetic_manycore_platform(200))

    def test_limit(self, gpgpu_platform):
        assert len(find_matches(pattern(None), gpgpu_platform, limit=2)) == 2

    def test_property_constraints(self, gpgpu_platform):
        matches = find_matches(
            pattern(worker_props={"MODEL": "GeForce GTX 285"}), gpgpu_platform
        )
        assert [m.concrete("pw").id for m in matches] == ["gpu1"]

    def test_quantity_constraint(self, gpgpu_platform):
        # needs at least 4 identical workers -> only the cpu entity (x8)
        matches = find_matches(pattern(None, quantity=4), gpgpu_platform)
        assert [m.concrete("pw").id for m in matches] == ["cpu"]

    def test_group_constraint(self, gpgpu_platform):
        pat = (
            PlatformBuilder("pat").master("pm")
            .worker("pw", groups=("gpus",)).build(validate=False)
        )
        matches = find_matches(pat, gpgpu_platform)
        assert {m.concrete("pw").id for m in matches} == {"gpu0", "gpu1"}

    def test_unmapped_pattern_id_raises(self, gpgpu_platform):
        m = match_pattern(pattern("gpu"), gpgpu_platform)
        with pytest.raises(PatternMatchError):
            m.concrete("nope")


class TestHierarchyAndKinds:
    def test_worker_pattern_matches_hybrid(self, cluster_platform):
        # a Hybrid is a Worker towards its controller
        pat = (
            PlatformBuilder("pat").master("pm").worker("pw").build(validate=False)
        )
        matches = find_matches(pat, cluster_platform)
        matched_ids = {m.concrete("pw").id for m in matches}
        assert "node0" in matched_ids  # the Hybrid
        assert "node0-gpu0" in matched_ids  # deep Workers too

    def test_strict_kinds(self, cluster_platform):
        pat = (
            PlatformBuilder("pat").master("pm").worker("pw").build(validate=False)
        )
        matches = find_matches(pat, cluster_platform, strict_kinds=True)
        matched_ids = {m.concrete("pw").id for m in matches}
        assert "node0" not in matched_ids
        assert matched_ids == {"node0-gpu0", "node1-spe"}

    def test_descendant_control_transitivity(self, cluster_platform):
        # Master->Worker[gpu] matches even though the gpu sits below a Hybrid
        m = match_pattern(pattern("gpu"), cluster_platform)
        assert m.concrete("pm").id == "head"
        assert m.concrete("pw").id == "node0-gpu0"

    def test_hybrid_pattern(self, cluster_platform):
        pat = (
            PlatformBuilder("pat")
            .master("pm")
            .hybrid("ph")
            .worker("pw", architecture="spe")
            .end()
            .build(validate=False)
        )
        m = match_pattern(pat, cluster_platform)
        assert m.concrete("ph").id == "node1"
        assert m.concrete("pw").id == "node1-spe"

    def test_hybrid_pattern_needs_a_hybrid(self, gpgpu_platform):
        pat = (
            PlatformBuilder("pat")
            .master("pm")
            .hybrid("ph")
            .worker("pw", architecture="spe")
            .end()
            .build(validate=False)
        )
        assert find_matches(pat, gpgpu_platform, limit=50) == []

    def test_two_distinct_siblings(self, gpgpu_platform):
        pat = (
            PlatformBuilder("pat")
            .master("pm")
            .worker("p1", architecture="gpu")
            .worker("p2", architecture="gpu")
            .build(validate=False)
        )
        matches = find_matches(pat, gpgpu_platform)
        for m in matches:
            assert m.concrete("p1").id != m.concrete("p2").id
        pairs = {(m.concrete("p1").id, m.concrete("p2").id) for m in matches}
        assert ("gpu0", "gpu1") in pairs and ("gpu1", "gpu0") in pairs

    def test_oversized_pattern_fails(self, gpgpu_platform):
        pat = (
            PlatformBuilder("pat")
            .master("pm")
            .worker("p1", architecture="gpu")
            .worker("p2", architecture="gpu")
            .worker("p3", architecture="gpu")
            .build(validate=False)
        )
        assert not pattern_matches(pat, gpgpu_platform)

    def test_pattern_against_subtree(self, cluster_platform):
        node0 = cluster_platform.pu("node0")
        pat_worker = pattern("gpu")
        # the Hybrid node0 can play the Master role for the anchor
        matches = find_matches(pat_worker, node0)
        assert matches
        assert matches[0].concrete("pm").id == "node0"


class TestCellPattern:
    def test_ppe_spe_pattern(self, cell_platform):
        pat = (
            PlatformBuilder("pat")
            .master("pm", properties={"ARCHITECTURE": "ppc64"})
            .worker("pw", architecture="spe", quantity=8)
            .build(validate=False)
        )
        m = match_pattern(pat, cell_platform)
        assert m.concrete("pm").id == "ppe0"
        assert m.concrete("pw").id == "spe"

    def test_mapping_report(self, cell_platform):
        m = match_pattern(pattern("spe"), cell_platform)
        ids = m.concrete_ids()
        assert ids == {"pm": "ppe0", "pw": "spe"}
        assert len(m) == 2
