"""Interference (IFR) rule pack: every seeded hazard fires its exact
rule ID, declarations round-trip, and shipped + synthesized platforms
stay clean."""

from __future__ import annotations

import pytest

from repro.analysis.diagnostics import Severity
from repro.model.contention import collect_contention_domains, split_members
from repro.pdl.catalog import available_platforms, load_platform
from repro.pdl.parser import parse_pdl
from repro.pdl.writer import write_pdl

from tests.analysis.conftest import (
    IFR_ASYMMETRIC_XML,
    IFR_BUDGET_CONFLICT_XML,
    IFR_CROSS_DOMAIN_XML,
    IFR_DANGLING_MEMBER_XML,
    IFR_MEMBER_EXCEEDS_XML,
    IFR_NO_BUDGET_XML,
    IFR_OVERSUBSCRIBED_XML,
    IFR_SHARED_CHANNEL_XML,
    rule_ids,
)


# -- seeded hazards -----------------------------------------------------------
def test_shared_channel_fires_ifr001(linter, parse):
    report = linter.lint_interference(parse(IFR_SHARED_CHANNEL_XML))
    assert rule_ids(report) == ["IFR001"]
    diag = report.diagnostics[0]
    assert diag.severity is Severity.ERROR
    assert diag.subject == "main"
    assert "gpu0" in diag.message and "gpu1" in diag.message


def test_quantity_expansion_counts_clients(linter, parse):
    """One Worker entity with quantity=8 is already a shared channel."""
    xml = IFR_SHARED_CHANNEL_XML.replace(
        '<Worker id="gpu0" quantity="1">', '<Worker id="gpu0" quantity="8">'
    )
    report = linter.lint_interference(parse(xml))
    assert rule_ids(report) == ["IFR001"]
    assert "9 client PUs" in report.diagnostics[0].message


def test_missing_budget_fires_ifr002(linter, parse):
    report = linter.lint_interference(parse(IFR_NO_BUDGET_XML))
    assert rule_ids(report) == ["IFR002"]
    assert report.diagnostics[0].subject == "ddr"


def test_budget_conflict_fires_ifr003(linter, parse):
    report = linter.lint_interference(parse(IFR_BUDGET_CONFLICT_XML))
    assert rule_ids(report) == ["IFR003"]
    message = report.diagnostics[0].message
    assert "shm" in message and "main" in message  # both claims cited


def test_over_subscription_fires_ifr004_as_note(linter, parse):
    report = linter.lint_interference(parse(IFR_OVERSUBSCRIBED_XML))
    assert rule_ids(report) == ["IFR004"]
    diag = report.diagnostics[0]
    assert diag.severity is Severity.NOTE
    assert report.ok  # notes do not gate


def test_dangling_member_fires_ifr005(linter, parse):
    report = linter.lint_interference(parse(IFR_DANGLING_MEMBER_XML))
    assert rule_ids(report) == ["IFR005"]
    assert "ghost-link" in report.diagnostics[0].message


def test_cross_domain_route_fires_ifr006(linter, parse):
    report = linter.lint_interference(parse(IFR_CROSS_DOMAIN_XML))
    assert rule_ids(report) == ["IFR006"]
    diag = report.diagnostics[0]
    assert diag.severity is Severity.WARNING
    assert "ib0" in diag.message


def test_asymmetric_membership_fires_ifr007(linter, parse):
    report = linter.lint_interference(parse(IFR_ASYMMETRIC_XML))
    assert rule_ids(report) == ["IFR007"]
    diag = report.diagnostics[0]
    assert diag.severity is Severity.WARNING
    assert diag.subject == "pcie-down"


def test_member_exceeds_budget_fires_ifr008(linter, parse):
    report = linter.lint_interference(parse(IFR_MEMBER_EXCEEDS_XML))
    # a link faster than the whole channel also over-subscribes it
    assert rule_ids(report) == ["IFR004", "IFR008"]
    by_rule = {d.rule: d for d in report.diagnostics}
    assert by_rule["IFR008"].severity is Severity.ERROR
    assert by_rule["IFR008"].subject == "shm"


def test_lint_platform_includes_interference_pack(linter, parse):
    """The combined platform report carries IFR findings too."""
    report = linter.lint_platform(parse(IFR_SHARED_CHANNEL_XML))
    assert "IFR001" in rule_ids(report)


def test_stripped_catalog_descriptor_fires_ifr001(linter):
    """Removing the Figure-5 declarations reintroduces the hazard."""
    platform = load_platform("xeon_x5550_2gpu")
    xml = write_pdl(platform)
    for token in (
        "CONTENTION_DOMAIN",
        "CONTENTION_BANDWIDTH",
        "CONTENTION_MEMBERS",
    ):
        assert token in xml or token == "CONTENTION_MEMBERS"
    import re

    stripped = re.sub(
        r"\s*<Property[^>]*>\s*<name>CONTENTION_[A-Z_]+</name>.*?</Property>",
        "",
        xml,
        flags=re.DOTALL,
    )
    report = linter.lint_interference(parse_pdl(stripped, validate=False))
    assert "IFR001" in rule_ids(report)


# -- clean surfaces -----------------------------------------------------------
@pytest.mark.parametrize("name", available_platforms())
def test_shipped_catalog_interference_clean(linter, name):
    report = linter.lint_interference(load_platform(name))
    assert rule_ids(report) == [], report.summary()


def test_mesh_platforms_interference_clean(linter):
    from repro.experiments.scenarios import synthetic_mesh_platform

    for rows, cols, distributed in (
        (4, 4, False), (4, 4, True), (8, 8, True), (16, 16, True),
    ):
        platform = synthetic_mesh_platform(
            rows, cols, distributed_memory=distributed
        )
        report = linter.lint_interference(platform)
        assert rule_ids(report) == [], (rows, cols, report.summary())


def test_synthesized_platforms_interference_clean(linter):
    """The explore synthesizer declares its shared ddr channel, so every
    budget-feasible candidate passes the IFR gate."""
    from repro.explore import synthesize

    result = synthesize("tiny", "sys-medium")
    assert result.candidates
    for candidate in result.candidates:
        report = linter.lint_interference(candidate.platform)
        assert rule_ids(report) == [], report.summary()


# -- collector ----------------------------------------------------------------
def test_split_members_accepts_whitespace_and_commas():
    assert split_members(" ib0, ib1\n shm ") == ["ib0", "ib1", "shm"]


def test_collector_on_figure5_platform():
    platform = load_platform("xeon_x5550_2gpu")
    domains = {d.name: d for d in collect_contention_domains(platform)}
    assert sorted(domains) == ["ddr", "ioh"]
    ddr = domains["ddr"]
    assert sorted(m.id for m in ddr.members) == ["main", "shm"]
    assert ddr.budget_bps == pytest.approx(25.6 * 2**30)
    ioh = domains["ioh"]
    assert [m.id for m in ioh.link_members()] == ["pcie0", "pcie1"]
    assert ioh.link_subscription_bps() <= ioh.budget_bps


def test_collector_members_list_enrollment():
    platform = load_platform("hybrid_cluster")
    domains = {d.name: d for d in collect_contention_domains(platform)}
    head = domains["head-ddr"]
    via = {m.id: m.via for m in head.members}
    assert via["head-mem"] == "property"
    assert via["ib0"] == "members-list" and via["ib1"] == "members-list"
    assert head.dangling == []


def test_declarations_roundtrip_through_writer():
    """CONTENTION_* survive write → parse → collect byte-for-byte."""
    platform = load_platform("xeon_x5550_2gpu")
    reparsed = parse_pdl(write_pdl(platform))
    before = [d.to_payload() for d in collect_contention_domains(platform)]
    after = [d.to_payload() for d in collect_contention_domains(reparsed)]
    assert before == after
