"""Writer determinism and parse↔write round-trip tests (LST1)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.model.builder import PlatformBuilder
from repro.model.entities import Interconnect, Master, MemoryRegion, Worker
from repro.model.platform import Platform
from repro.model.properties import Property, PropertyValue
from repro.pdl.catalog import available_platforms, load_platform
from repro.pdl.parser import parse_pdl
from repro.pdl.writer import write_pdl


def platforms_equal(a: Platform, b: Platform) -> bool:
    """Structural + property equality of two platforms."""
    pus_a, pus_b = list(a.walk()), list(b.walk())
    if len(pus_a) != len(pus_b):
        return False
    for pa, pb in zip(pus_a, pus_b):
        if (pa.id, pa.kind, pa.quantity, pa.groups) != (
            pb.id, pb.kind, pb.quantity, pb.groups,
        ):
            return False
        props_a = [(p.name, p.value.text, p.value.unit, p.fixed, p.type_name)
                   for p in pa.descriptor]
        props_b = [(p.name, p.value.text, p.value.unit, p.fixed, p.type_name)
                   for p in pb.descriptor]
        if props_a != props_b:
            return False
        if [r.id for r in pa.memory_regions] != [r.id for r in pb.memory_regions]:
            return False
        ics_a = [(i.from_pu, i.to_pu, i.type, i.scheme, i.bidirectional)
                 for i in pa.interconnects]
        ics_b = [(i.from_pu, i.to_pu, i.type, i.scheme, i.bidirectional)
                 for i in pb.interconnects]
        if ics_a != ics_b:
            return False
    return True


class TestShippedRoundtrip:
    @pytest.mark.parametrize("name", available_platforms())
    def test_roundtrip_lossless(self, name):
        original = load_platform(name, validate=False)
        text = write_pdl(original)
        reparsed = parse_pdl(text, validate=False, name=original.name)
        assert platforms_equal(original, reparsed)

    @pytest.mark.parametrize("name", available_platforms())
    def test_double_roundtrip_fixed_point(self, name):
        """write(parse(write(p))) == write(p) — serialization is stable."""
        platform = load_platform(name, validate=False)
        once = write_pdl(platform)
        twice = write_pdl(parse_pdl(once, validate=False, name=platform.name))
        assert once == twice


class TestWriterOutput:
    def test_figure5_descriptor_keeps_device_models(self):
        assert "GeForce GTX 480" in write_pdl(load_platform("xeon_x5550_2gpu"))

    def test_deterministic(self, small_platform):
        assert write_pdl(small_platform) == write_pdl(small_platform)

    def test_declares_used_namespaces_only(self, small_platform):
        text = write_pdl(small_platform)
        assert "xmlns=" in text
        assert "xmlns:ocl" not in text  # no ocl properties used
        small_platform.pu("gpu0").descriptor.add(
            Property("DEVICE_NAME", "GTX", fixed=False,
                     type_name="ocl:oclDevicePropertyType")
        )
        text2 = write_pdl(small_platform)
        assert "xmlns:ocl=" in text2 and "xmlns:xsi=" in text2

    def test_escaping(self):
        m = Master("m")
        m.descriptor.add(Property("NOTE", 'a <b> & "c"'))
        text = write_pdl(Platform("esc", [m]))
        assert "&lt;b&gt;" in text and "&amp;" in text
        reparsed = parse_pdl(text, validate=False)
        assert reparsed.pu("m").descriptor.get_str("NOTE") == 'a <b> & "c"'

    def test_no_xml_declaration_option(self, small_platform):
        text = write_pdl(small_platform, xml_declaration=False)
        assert not text.startswith("<?xml")

    def test_unit_attribute_emitted(self):
        m = Master("m")
        prop = Property("FREQ", PropertyValue("2.66", "GHz"))
        m.descriptor.add(prop)
        text = write_pdl(Platform("u", [m]))
        assert 'unit="GHz"' in text


# ---------------------------------------------------------------------------
# property-based round-trip over generated platforms
# ---------------------------------------------------------------------------
_ident = st.from_regex(r"[A-Za-z_][A-Za-z0-9_\-]{0,8}", fullmatch=True)
_value_text = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" .-_/<&>'\""
    ),
    min_size=0,
    max_size=20,
).map(str.strip)


@st.composite
def generated_platforms(draw):
    builder = PlatformBuilder(draw(_ident) or "p")
    builder.master("m0", architecture=draw(st.sampled_from(["x86", "x86_64"])))
    n_workers = draw(st.integers(1, 4))
    used = set()
    for i in range(n_workers):
        props = {}
        for _ in range(draw(st.integers(0, 3))):
            key = draw(_ident)
            if key and key not in props and key != "ARCHITECTURE":
                props[key] = draw(_value_text)
        groups = tuple(
            g for g in draw(st.lists(_ident, max_size=2)) if g
        )
        builder.worker(
            f"w{i}",
            architecture=draw(st.sampled_from(["gpu", "x86_64", "spe"])),
            quantity=draw(st.integers(1, 8)),
            properties=props,
            groups=groups,
        )
        if draw(st.booleans()):
            builder.interconnect(
                "m0", f"w{i}", type=draw(st.sampled_from(["PCIe", "SHM", "EIB"])),
                id=f"ic{i}",
            )
    return builder.build(validate=False)


@given(generated_platforms())
@settings(max_examples=50, deadline=None)
def test_generated_roundtrip(platform):
    text = write_pdl(platform)
    reparsed = parse_pdl(text, validate=False, name=platform.name)
    assert platforms_equal(platform, reparsed)
