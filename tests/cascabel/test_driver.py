"""Integration tests: the full Cascabel pipeline (FIG4)."""

import pytest

from repro.cascabel.cli import sample_source
from repro.cascabel.driver import translate
from repro.cascabel.frontend import parse_program


class TestTranslate:
    def test_full_pipeline_dgemm_gpu(self, gpgpu_platform):
        result = translate(sample_source("dgemm_serial"), gpgpu_platform)
        assert result.backend_name == "starpu"
        assert result.selection.variants_for("Idgemm")
        assert result.mapping.mappings[0].total_lanes == 10
        assert len(result.output.files) == 2
        assert result.plan.link is not None

    def test_platform_by_name(self):
        result = translate(sample_source("vecadd"), "cell_qs22")
        assert result.platform.name == "cell-qs22"  # the document's own name

    def test_summary_is_complete(self, gpgpu_platform):
        result = translate(sample_source("dgemm_serial"), gpgpu_platform)
        text = result.summary()
        for expected in ("translated", "pre-selection", "task mapping",
                         "generated files", "build:"):
            assert expected in text, expected

    def test_without_builtin_variants(self, cpu_platform):
        result = translate(
            sample_source("dgemm_serial"), cpu_platform,
            with_builtin_variants=False,
        )
        names = [v.name for v in result.selection.variants_for("Idgemm")]
        assert names == ["dgemm_goto01"]

    def test_preparsed_program_accepted(self, cpu_platform):
        program = parse_program(sample_source("vecadd"))
        result = translate(program, cpu_platform)
        assert result.program is program

    def test_custom_repository_reused(self, gpgpu_platform):
        from repro.cascabel.repository import TaskRepository

        repo = TaskRepository()
        result = translate(
            sample_source("vecadd"), gpgpu_platform, repository=repo
        )
        assert result.repository is repo
        assert repo.variant_count() >= 3  # annotated + builtin variants


class TestRetargeting:
    """The paper's headline claim (XTRA-RETARGET)."""

    def test_same_source_different_outputs(self):
        source = sample_source("dgemm_serial")
        program = parse_program(source, filename="dgemm_serial.c")
        results = {
            name: translate(program, name)
            for name in ("xeon_x5550_dual", "xeon_x5550_2gpu", "cell_qs22")
        }
        # input untouched
        assert program.source == source
        # outputs genuinely differ
        contents = {
            name: r.output.main_file.content for name, r in results.items()
        }
        assert len(set(contents.values())) == 3
        # and differ in the dimensions the descriptor dictates
        assert ".cuda_funcs" in contents["xeon_x5550_2gpu"]
        assert ".cuda_funcs" not in contents["xeon_x5550_dual"]
        assert results["cell_qs22"].plan.steps[0].compiler == "ppu-gcc"
        assert results["xeon_x5550_2gpu"].plan.link.linker == "nvcc"

    def test_retarget_experiment_helper(self):
        from repro.experiments.retarget import retarget_experiment

        rows, results = retarget_experiment()
        assert len(rows) == 4
        by_platform = {r.platform: r for r in rows}
        assert by_platform["xeon-x5550-2gpu"].compilers == "gcc,nvcc"
        assert by_platform["cell-qs22"].compilers == "ppu-gcc"
        assert by_platform["xeon-x5550-dual"].variants == "dgemm_goto01"
        assert "idgemm_cublas" in by_platform["xeon-x5550-2gpu"].variants
        # the outputs differ across targets, and every translation keeps
        # the sequential fallback
        assert len({r.variants for r in rows}) >= 3
        assert len({r.compilers for r in rows}) >= 2
        for result in results:
            for interface in result.selection.selected:
                assert result.selection.fallback(interface) is not None

    def test_retarget_vecadd_picks_per_target_variants(self):
        from repro.experiments.retarget import retarget_experiment

        rows, _ = retarget_experiment(sample="vecadd")
        by_platform = {r.platform: r for r in rows}
        assert "ivecadd_spe" in by_platform["cell-qs22"].variants
        assert "ivecadd_cuda" in by_platform["xeon-x5550-2gpu"].variants
