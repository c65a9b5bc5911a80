"""Unit tests for PDL generation from discovery sources (LST2)."""

import pytest

from repro.discovery.generator import (
    generate_from_hwloc,
    generate_from_opencl,
    generate_host_platform,
    generate_machine_platform,
    opencl_properties,
)
from repro.discovery.hwloc_sim import synthetic_topology, TopologyObject
from repro.discovery.opencl_sim import SimulatedOpenCLRuntime
from repro.errors import DiscoveryError
from repro.pdl.parser import parse_pdl
from repro.pdl.validator import validate_document
from repro.pdl.writer import write_pdl


class TestOpenCLGeneration:
    def runtime(self):
        return SimulatedOpenCLRuntime.for_machine(
            gpus=["GeForce GTX 480", "GeForce GTX 285"]
        )

    def test_listing1_shape(self):
        platform = generate_from_opencl(self.runtime())
        master = platform.masters[0]
        assert master.architecture == "x86_64"
        assert [w.id for w in platform.workers()] == ["gpu0", "gpu1"]
        assert all(ic.type == "PCIe" for ic in platform.interconnects())

    def test_listing2_properties_generated(self):
        platform = generate_from_opencl(self.runtime())
        d = platform.pu("gpu0").descriptor
        prop = d.find("GLOBAL_MEM_SIZE")
        assert prop.type_name == "ocl:oclDevicePropertyType"
        assert prop.fixed is False  # generated, re-instantiable
        assert prop.value.unit == "kB"
        assert prop.value.as_int() == 1_572_864

    def test_cuda_property_added_for_nvidia(self):
        platform = generate_from_opencl(self.runtime())
        prop = platform.pu("gpu0").descriptor.find("COMPUTE_CAPABILITY")
        assert prop.type_name == "cuda:cudaDevicePropertyType"
        assert prop.value.as_str() == "2.0"

    def test_memory_regions_created(self):
        platform = generate_from_opencl(self.runtime())
        mem = platform.find_memory_region("gpu0-mem")
        assert mem.size_bytes == 1_572_864 * 1024

    def test_no_gpus_raises(self):
        with pytest.raises(DiscoveryError, match="no GPU devices"):
            generate_from_opencl(SimulatedOpenCLRuntime())

    def test_opencl_properties_cover_all_info_keys(self):
        device = self.runtime().all_devices("GPU")[0]
        props = opencl_properties(device)
        assert {p.name for p in props} == set(device.get_info())


class TestHwlocGeneration:
    def test_cpu_worker_collapsed_with_quantity(self):
        platform = generate_from_hwloc(synthetic_topology("X5550"))
        cpu = platform.pu("cpu")
        assert cpu.quantity == 8
        assert cpu.descriptor.get_float("PEAK_GFLOPS_DP") == pytest.approx(10.64)

    def test_hwloc_typed_properties(self):
        platform = generate_from_hwloc(synthetic_topology("X5550"))
        cache = platform.pu("cpu").descriptor.find("CACHE_SIZE")
        assert cache.type_name == "hwloc:hwlocObjPropertyType"
        assert cache.value.as_quantity() == 8192 * 1024

    def test_memory_region_from_machine(self):
        platform = generate_from_hwloc(
            synthetic_topology("X5550", memory_gb=48)
        )
        assert platform.find_memory_region("main").size_bytes == 48 * 1024**3

    def test_empty_topology_raises(self):
        with pytest.raises(DiscoveryError, match="no Core"):
            generate_from_hwloc(TopologyObject("Machine", 0))


class TestFullPipeline:
    def test_fig5_testbed_regenerated(self):
        platform = generate_machine_platform(
            cpu="Intel Xeon X5550",
            gpus=["GeForce GTX 480", "GeForce GTX 285"],
        )
        assert platform.total_pu_count() == 11  # host + 8 cpus + 2 gpus
        assert platform.architectures() == {"x86_64", "gpu"}
        report = validate_document(platform)
        assert report.ok
        # the Listing-2 property block on gpu0
        names = {p.name for p in platform.pu("gpu0").descriptor
                 if p.namespace == "ocl"}
        assert {"DEVICE_NAME", "MAX_COMPUTE_UNITS", "GLOBAL_MEM_SIZE",
                "LOCAL_MEM_SIZE"} <= names
        # a generated descriptor round-trips through the language, with
        # Listing-2 style units
        text = write_pdl(platform)
        assert 'unit="kB"' in text
        reparsed = parse_pdl(text)
        assert reparsed.total_pu_count() == 11

    def test_generated_matches_shipped_shape(self):
        from repro.pdl.catalog import load_platform

        generated = generate_machine_platform(
            cpu="Intel Xeon X5550",
            gpus=["GeForce GTX 480", "GeForce GTX 285"],
        )
        shipped = load_platform("xeon_x5550_2gpu")
        assert generated.total_pu_count() == shipped.total_pu_count()
        assert generated.architectures() == shipped.architectures()
        assert {w.quantity for w in generated.workers()} == {
            w.quantity for w in shipped.workers()
        }

    def test_host_platform_best_effort(self):
        platform = generate_host_platform(name="here")
        assert platform.name == "here"
        assert validate_document(platform).ok

    def test_host_platform_with_gpus(self):
        platform = generate_host_platform(name="here", gpu_models=["GTX 480"])
        assert any(pu.architecture == "gpu" for pu in platform.workers())
