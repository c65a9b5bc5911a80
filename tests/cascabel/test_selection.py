"""Unit tests for static variant pre-selection (Cascabel step 2)."""

import pytest

from repro.errors import SelectionError
from repro.model.builder import PlatformBuilder
from repro.cascabel.cli import sample_source
from repro.cascabel.frontend import parse_program
from repro.cascabel.mapping import map_tasks
from repro.cascabel.repository import TaskRepository
from repro.cascabel.selection import (
    eligible_variants,
    preselect,
    target_available,
)
from repro.pdl.catalog import load_platform

PROGRAM = """\
#pragma cascabel task : x86 : Idgemm : dgemm_cpu : (C: readwrite, A: read, B: read)
void matmul(double *C, double *A, double *B) { }

#pragma cascabel task : cuda,opencl : Idgemm : dgemm_gpu : (C: readwrite, A: read, B: read)
void matmul_gpu(double *C, double *A, double *B) { }

#pragma cascabel task : cellsdk : Idgemm : dgemm_spe : (C: readwrite, A: read, B: read)
void matmul_spe(double *C, double *A, double *B) { }
"""


def repo_and_program():
    program = parse_program(PROGRAM)
    repo = TaskRepository()
    repo.register_program(program)
    return repo, program


class TestTargetAvailability:
    def test_gpu_targets(self, gpgpu_platform, cpu_platform):
        assert target_available("cuda", gpgpu_platform)
        assert target_available("opencl", gpgpu_platform)
        assert not target_available("cuda", cpu_platform)

    def test_cell_targets(self, cell_platform, gpgpu_platform):
        assert target_available("cellsdk", cell_platform)
        assert not target_available("cellsdk", gpgpu_platform)

    def test_x86_portable_serial(self, cell_platform, gpgpu_platform):
        # serial C runs wherever a Master exists (paper §IV-A)
        assert target_available("x86", gpgpu_platform)
        assert target_available("x86", cell_platform)

    def test_unknown_target(self, gpgpu_platform):
        assert not target_available("riscv", gpgpu_platform)


class TestPreselection:
    def test_gpu_platform_keeps_cuda_prunes_spe(self, gpgpu_platform):
        repo, program = repo_and_program()
        report = preselect(repo, program, gpgpu_platform)
        names = [v.name for v in report.variants_for("Idgemm")]
        assert "dgemm_gpu" in names and "dgemm_cpu" in names
        assert "dgemm_spe" not in names
        assert "dgemm_spe" in report.pruned

    def test_cpu_platform_keeps_only_fallback(self, cpu_platform):
        repo, program = repo_and_program()
        report = preselect(repo, program, cpu_platform)
        names = [v.name for v in report.variants_for("Idgemm")]
        assert names == ["dgemm_cpu"]
        assert set(report.pruned) == {"dgemm_gpu", "dgemm_spe"}

    def test_cell_platform_keeps_spe(self, cell_platform):
        repo, program = repo_and_program()
        report = preselect(repo, program, cell_platform)
        names = [v.name for v in report.variants_for("Idgemm")]
        assert "dgemm_spe" in names and "dgemm_cpu" in names

    def test_accelerator_ordered_first(self, gpgpu_platform):
        repo, program = repo_and_program()
        report = preselect(repo, program, gpgpu_platform)
        variants = report.variants_for("Idgemm")
        assert not variants[0].is_fallback
        assert variants[-1].is_fallback
        assert report.accelerator_variants("Idgemm")[0].name == "dgemm_gpu"
        assert report.fallback("Idgemm").name == "dgemm_cpu"

    def test_required_pattern_prunes(self, gpgpu_platform):
        repo, program = repo_and_program()
        two_gpu_pattern = (
            PlatformBuilder("pat").master("m")
            .worker("w1", architecture="gpu")
            .worker("w2", architecture="gpu")
            .worker("w3", architecture="gpu")
            .build(validate=False)
        )
        repo.register_expert_variant(
            "Idgemm", "dgemm_3gpu", ("cuda",), required_pattern=two_gpu_pattern
        )
        report = preselect(repo, program, gpgpu_platform)
        assert "dgemm_3gpu" in report.pruned
        assert "pattern" in report.pruned["dgemm_3gpu"]

    def test_required_pattern_matching_keeps(self, gpgpu_platform):
        repo, program = repo_and_program()
        pattern = (
            PlatformBuilder("pat").master("m")
            .worker("w", properties={"MODEL": "GeForce GTX 480"})
            .build(validate=False)
        )
        repo.register_expert_variant(
            "Idgemm", "dgemm_gtx480", ("cuda",), required_pattern=pattern
        )
        report = preselect(repo, program, gpgpu_platform)
        assert "dgemm_gtx480" in [v.name for v in report.variants_for("Idgemm")]

    def test_no_variant_at_all_raises(self, gpgpu_platform):
        program = parse_program(
            "#pragma cascabel task : cellsdk : Ionly : v : (A: read)\n"
            "void f(double *A) { }\n",
        )
        repo = TaskRepository()
        repo.register_program(program)
        with pytest.raises(SelectionError, match="no variant is suitable"):
            preselect(repo, program, gpgpu_platform)

    def test_missing_fallback_raises(self, gpgpu_platform):
        program = parse_program(
            "#pragma cascabel task : cuda : Igpuonly : v : (A: read)\n"
            "void f(double *A) { }\n",
        )
        repo = TaskRepository()
        repo.register_program(program)
        with pytest.raises(SelectionError, match="fallback"):
            preselect(repo, program, gpgpu_platform)
        # relaxed mode allows it
        report = preselect(repo, program, gpgpu_platform, require_fallback=False)
        assert [v.name for v in report.variants_for("Igpuonly")] == ["v"]

    def test_summary_text(self, gpgpu_platform):
        repo, program = repo_and_program()
        report = preselect(repo, program, gpgpu_platform)
        text = report.summary()
        assert "Idgemm" in text and "pruned dgemm_spe" in text


class TestEligibleVariants:
    def test_prune_reasons_informative(self, cpu_platform):
        repo, _ = repo_and_program()
        eligible, pruned = eligible_variants(
            repo.variants("Idgemm"), cpu_platform
        )
        assert [v.name for v in eligible] == ["dgemm_cpu"]
        assert pruned == {
            "dgemm_gpu": "no hardware for targets ['cuda', 'opencl']"
            " (platform architectures: ['x86_64'])",
            "dgemm_spe": "no hardware for targets ['cellsdk']"
            " (platform architectures: ['x86_64'])",
        }

    def test_platform_walked_once_per_call(self, cell_platform, monkeypatch):
        repo, _ = repo_and_program()
        walks = []
        architectures = cell_platform.architectures

        def counting_architectures():
            walks.append(1)
            return architectures()

        monkeypatch.setattr(cell_platform, "architectures", counting_architectures)
        eligible_variants(repo.variants("Idgemm"), cell_platform)
        assert len(walks) == 1


class TestDeterminism:
    """Stable ordering + cheap hashing so services can memoize reports."""

    def test_order_independent_of_registration_order(self, gpgpu_platform):
        program = parse_program(PROGRAM)
        forward = TaskRepository()
        forward.register_program(program)
        reversed_repo = TaskRepository()
        for definition in reversed(program.definitions):
            reversed_repo._register_definition(definition)
        a = preselect(forward, program, gpgpu_platform)
        b = preselect(reversed_repo, program, gpgpu_platform)
        assert [v.name for v in a.variants_for("Idgemm")] == [
            v.name for v in b.variants_for("Idgemm")
        ]
        assert a.fingerprint() == b.fingerprint()

    def test_accelerator_variants_still_first(self, gpgpu_platform):
        repo, program = repo_and_program()
        report = preselect(repo, program, gpgpu_platform)
        ordered = report.variants_for("Idgemm")
        assert [v.is_fallback for v in ordered] == [False, True]

    def test_payload_shape(self, gpgpu_platform):
        repo, program = repo_and_program()
        report = preselect(repo, program, gpgpu_platform)
        payload = report.to_payload()
        assert payload["platform"] == report.platform_name
        variants = payload["selected"]["Idgemm"]
        assert variants[0]["name"] == "dgemm_gpu"
        assert variants[0]["targets"] == ["cuda", "opencl"]
        assert variants[1]["is_fallback"] is True
        assert "dgemm_spe" in payload["pruned"]

    def test_fingerprint_distinguishes_platforms(
        self, gpgpu_platform, cpu_platform
    ):
        repo, program = repo_and_program()
        gpu = preselect(repo, program, gpgpu_platform)
        cpu = preselect(repo, program, cpu_platform)
        assert gpu.fingerprint() != cpu.fingerprint()
        # repeated runs are byte-stable
        assert gpu.fingerprint() == preselect(
            repo, program, gpgpu_platform
        ).fingerprint()


TARGET_CHOICES = (
    ("x86",), ("cuda",), ("opencl",), ("cellsdk",),
    ("cuda", "opencl"), ("cellsdk", "spe"),
)


def vendor_repository(program, n_variants):
    """XTRA-SELECT: ``n_variants`` synthetic expert variants on top of the
    program's own, a quarter of which require a platform pattern (a GTX
    285 worker, or eight SPEs) that only some targets satisfy."""
    repo = TaskRepository()
    repo.register_program(program)
    interface = program.interfaces()[0]
    gtx285_pattern = (
        PlatformBuilder("pat").master("m")
        .worker("w", properties={"MODEL": "GeForce GTX 285"})
        .build(validate=False)
    )
    spe_pattern = (
        PlatformBuilder("pat").master("m")
        .worker("w", architecture="spe", quantity=8)
        .build(validate=False)
    )
    for i in range(n_variants):
        pattern = None
        if i % 4 == 0:
            pattern = gtx285_pattern if i % 8 == 0 else spe_pattern
        repo.register_expert_variant(
            interface,
            f"tuned_{i:04d}",
            TARGET_CHOICES[i % len(TARGET_CHOICES)],
            required_pattern=pattern,
            provenance=f"vendor kit {i % 7}",
        )
    return repo


class TestVendorScaleRepository:
    @pytest.fixture(scope="class")
    def program(self):
        return parse_program(sample_source("dgemm_serial"))

    def test_1001_variants_on_the_gpu_box(self, program):
        report = preselect(
            vendor_repository(program, 1000), program,
            load_platform("xeon_x5550_2gpu"),
        )
        kept = len(report.variants_for(program.interfaces()[0]))
        pruned = len(report.pruned)
        assert kept + pruned == 1001
        assert pruned >= 300  # every cell-targeted + gtx285-pattern variant

    def test_pruning_is_platform_specific(self, program):
        repo = vendor_repository(program, 1000)
        pruned = {
            name: len(preselect(repo, program, load_platform(name)).pruned)
            for name in ("xeon_x5550_dual", "xeon_x5550_2gpu", "cell_qs22")
        }
        assert len(set(pruned.values())) == 3
        # the Cell box prunes every cuda/opencl-only variant
        assert pruned["cell_qs22"] > pruned["xeon_x5550_2gpu"]

    def test_pruning_halves_the_mapping_input(self, program):
        platform = load_platform("xeon_x5550_dual")
        repo = vendor_repository(program, 400)
        raw = repo.variants(program.interfaces()[0])
        eligible, _ = eligible_variants(raw, platform)
        assert len(eligible) < len(raw) / 2
        # the CPU-only box maps everything onto its one worker entity
        mapping = map_tasks(program, preselect(repo, program, platform), platform)
        assert mapping.mappings[0].total_lanes == 8
