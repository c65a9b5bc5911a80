"""PDL rule pack: every seeded defect fires its exact rule ID, and the
shipped catalog lints clean."""

from __future__ import annotations

import pytest

from repro.analysis.diagnostics import Severity
from repro.pdl.catalog import available_platforms, load_platform

from tests.analysis.conftest import (
    DANGLING_REF_XML,
    LINK_DEFECTS_XML,
    STALE_SCHEMA_XML,
    UNFILLABLE_XML,
    UNIT_CLASH_XML,
    UNKNOWN_UNIT_XML,
    UNREACHABLE_PU_XML,
    rule_ids,
)


def test_unit_clash_fires_pdl001(linter, parse):
    report = linter.lint_platform(parse(UNIT_CLASH_XML), filename="seeded.xml")
    assert rule_ids(report) == ["PDL001"]
    diag = report.diagnostics[0]
    assert diag.severity is Severity.ERROR
    assert diag.subject == "FREQUENCY"
    assert "bytes" in diag.message and "frequency" in diag.message


def test_unknown_unit_fires_pdl002(linter, parse):
    report = linter.lint_platform(parse(UNKNOWN_UNIT_XML))
    assert rule_ids(report) == ["PDL002"]
    assert "parsecs" in report.diagnostics[0].message


def test_dangling_reference_fires_pdl003(linter, parse):
    report = linter.lint_platform(parse(DANGLING_REF_XML))
    assert rule_ids(report) == ["PDL003"]
    diag = report.diagnostics[0]
    assert diag.subject == "cpu0"
    assert "vram" in diag.message


def test_unreachable_pu_fires_pdl010(linter, parse):
    report = linter.lint_platform(parse(UNREACHABLE_PU_XML))
    assert rule_ids(report) == ["PDL010"]
    diag = report.diagnostics[0]
    assert diag.subject == "gpu1"
    assert diag.severity is Severity.ERROR


def test_reachability_skipped_without_interconnects(linter, parse):
    # same topology minus the interconnect: connectivity is implied by the
    # control hierarchy, so PDL010 must stay silent
    xml = UNREACHABLE_PU_XML[: UNREACHABLE_PU_XML.index("<Interconnect")] + (
        "</Master>\n</Platform>"
    )
    report = linter.lint_platform(parse(xml))
    assert rule_ids(report) == []


def test_link_defects_fire_pdl011_and_pdl012(linter, parse):
    report = linter.lint_platform(parse(LINK_DEFECTS_XML))
    assert sorted(rule_ids(report)) == ["PDL011", "PDL012"]
    by_rule = {d.rule: d for d in report}
    assert by_rule["PDL011"].subject == "pcie0"
    assert by_rule["PDL012"].subject == "dma1"


def test_stale_schema_fires_pdl020(linter, parse):
    report = linter.lint_platform(parse(STALE_SCHEMA_XML))
    assert rule_ids(report) == ["PDL020"]
    assert "9.9" in report.diagnostics[0].message


def test_unfillable_unfixed_fires_pdl030(linter, parse):
    report = linter.lint_platform(parse(UNFILLABLE_XML))
    assert rule_ids(report) == ["PDL030"]
    assert "MAGIC_FACTOR" in report.diagnostics[0].message


@pytest.mark.parametrize("name", available_platforms())
def test_shipped_catalog_lints_clean(linter, name):
    report = linter.lint_platform(load_platform(name), filename=name)
    assert rule_ids(report) == [], report.summary()


@pytest.mark.parametrize("rows,cols", [(4, 4), (8, 8), (16, 16)])
def test_serialized_mesh_descriptors_lint_ok(linter, parse, rows, cols):
    """The XTRA-SCALE mesh family with per-tile memories, written to XML
    and parsed back (up to 257 PUs), passes the lint gate."""
    from repro.experiments.scenarios import synthetic_mesh_platform
    from repro.pdl.writer import write_pdl

    platform = synthetic_mesh_platform(rows, cols, distributed_memory=True)
    report = linter.lint_platform(parse(write_pdl(platform)))
    assert report.ok, report.summary()


def test_reports_are_reproducible(linter, parse):
    one = linter.lint_platform(parse(LINK_DEFECTS_XML)).to_payload()
    two = linter.lint_platform(parse(LINK_DEFECTS_XML)).to_payload()
    assert one == two
