"""Unit tests for the simulated OpenCL runtime."""

import pytest

from repro.discovery.opencl_sim import SimulatedOpenCLRuntime
from repro.errors import DiscoveryError


class TestEnumeration:
    def test_fig5_machine(self):
        rt = SimulatedOpenCLRuntime.for_machine(
            cpu="Intel Xeon X5550",
            gpus=["GeForce GTX 480", "GeForce GTX 285"],
        )
        platforms = rt.get_platforms()
        names = [p.name for p in platforms]
        assert "NVIDIA CUDA" in names
        nvidia = next(p for p in platforms if p.name == "NVIDIA CUDA")
        assert [d.info("DEVICE_NAME") for d in nvidia.get_devices("GPU")] == [
            "GeForce GTX 480",
            "GeForce GTX 285",
        ]
        # two GPUs and the host CPU, each answering a full info query
        assert len([d.get_info() for d in rt.all_devices()]) == 3

    def test_cpu_under_amd_platform(self):
        rt = SimulatedOpenCLRuntime.for_machine(cpu="Intel Xeon X5550")
        amd = rt.get_platforms()[0]
        assert amd.name.startswith("AMD")
        cpus = amd.get_devices("CPU")
        assert len(cpus) == 1
        assert cpus[0].info("MAX_COMPUTE_UNITS") == 8

    def test_amd_gpu_routing(self):
        rt = SimulatedOpenCLRuntime.for_machine(gpus=["Radeon HD 5870"])
        platforms = rt.get_platforms()
        assert len(platforms) == 1 and platforms[0].name.startswith("AMD")

    def test_all_devices_filter(self):
        rt = SimulatedOpenCLRuntime.for_machine(
            cpu="X5550", gpus=["GTX 480"]
        )
        assert len(rt.all_devices()) == 2
        assert len(rt.all_devices("GPU")) == 1
        assert len(rt.all_devices("CPU")) == 1


class TestDeviceInfo:
    def device(self):
        rt = SimulatedOpenCLRuntime.for_machine(gpus=["GTX 480"])
        return rt.all_devices("GPU")[0]

    def test_listing2_keys(self):
        # exactly the queries shown in the paper's Listing 2
        info = self.device().get_info()
        assert info["DEVICE_NAME"] == "GeForce GTX 480"
        assert info["MAX_COMPUTE_UNITS"] == 15
        assert info["MAX_WORK_ITEM_DIMENSIONS"] == 3
        assert info["GLOBAL_MEM_SIZE"] == (1_572_864, "kB")
        assert info["LOCAL_MEM_SIZE"] == (48, "kB")

    def test_unknown_key_raises(self):
        with pytest.raises(DiscoveryError, match="does not answer"):
            self.device().info("WARP_DRIVE")

    def test_platform_info(self):
        rt = SimulatedOpenCLRuntime.for_machine(gpus=["GTX 480"])
        info = rt.get_platforms()[0].get_info()
        assert info["PLATFORM_VENDOR"] == "NVIDIA Corporation"
        assert "OpenCL 1.1" in info["PLATFORM_VERSION"]
