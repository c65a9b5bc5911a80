"""Multi-hop routing over a mesh NoC platform (query-layer workout)."""

import pytest

from repro.experiments.scenarios import synthetic_mesh_platform
from repro.query.paths import InterconnectGraph
from repro.query.selectors import select


@pytest.fixture(scope="module")
def mesh():
    return synthetic_mesh_platform(4, 5)


@pytest.fixture(scope="module")
def graph(mesh):
    return InterconnectGraph(mesh)


class TestMeshStructure:
    def test_platform_valid(self, mesh):
        mesh.validate()
        assert len(mesh.workers()) == 20

    def test_link_count(self, mesh):
        # horizontal: 4*(5-1)=16, vertical: (4-1)*5=15, io: 1
        assert len(mesh.interconnects()) == 16 + 15 + 1

    def test_selector_on_mesh_coordinates(self, mesh):
        row2 = select(mesh, "Worker[MESH_ROW=2]")
        assert len(row2) == 5
        corner = select(mesh, "Worker[MESH_ROW=3][MESH_COL=4]")
        assert [pu.id for pu in corner] == ["t3_4"]


class TestRouting:
    def test_manhattan_distance(self, graph):
        route = graph.shortest("t0_0", "t3_4")
        assert route.hop_count == 3 + 4  # Manhattan distance in the grid

    def test_route_stays_in_grid(self, graph):
        route = graph.shortest("t1_1", "t2_3")
        assert route.hop_count == 3
        for node in route.nodes:
            assert node.startswith("t")

    def test_host_reaches_far_corner_via_injection_tile(self, graph):
        route = graph.shortest("host", "t3_4")
        assert route.nodes[0] == "host"
        assert route.nodes[1] == "t0_0"  # IO attaches at the corner
        assert route.hop_count == 1 + 7

    def test_neighbor_hop(self, graph):
        assert graph.shortest("t1_2", "t1_3").hop_count == 1
        assert graph.shortest("t1_2", "t2_2").hop_count == 1

    def test_transfer_time_scales_with_hops(self, graph):
        near = graph.shortest("t0_0", "t0_1", weight="latency")
        far = graph.shortest("t0_0", "t3_4", weight="latency")
        nbytes = 2**20
        assert far.transfer_time(nbytes) > near.transfer_time(nbytes) * 5

    def test_all_pairs_connected(self, graph, mesh):
        assert graph.is_connected()
        assert graph.reachable("t0_0") == {
            pu.id for pu in mesh.walk() if pu.id != "t0_0"
        }

    def test_symmetric_hop_counts(self, graph):
        assert (
            graph.shortest("t0_3", "t3_0").hop_count
            == graph.shortest("t3_0", "t0_3").hop_count
        )


def test_8x8_corner_routes_follow_manhattan_distance():
    graph = InterconnectGraph(synthetic_mesh_platform(8, 8))
    corners = ("t0_0", "t0_7", "t7_0", "t7_7")
    total = sum(
        graph.shortest(a, b).hop_count
        for a in corners for b in corners if a != b
    )
    # corner-to-corner distances in an 8x8 grid: 7, 7 or 14
    assert total == 2 * (7 + 14 + 7) + 2 * (7 + 7 + 14)


class TestMeshRuntime:
    def test_engine_runs_on_mesh(self, mesh):
        from repro.runtime.engine import RuntimeEngine
        from repro.experiments.workloads import submit_tiled_dgemm

        engine = RuntimeEngine(mesh, scheduler="dmda")
        submit_tiled_dgemm(engine, 2048, 512)
        result = engine.run()
        assert len(result.trace.tasks) == 64
        # shared-memory mesh: all tiles on node 0, no NoC traffic modeled
        assert result.transfer_count == 0
        # 20 tiles at 3.4 GF each ≈ 68 GF aggregate; sanity-band the time
        assert 0.1 < result.makespan < 5.0

    def test_distributed_memory_mesh_pays_noc_transfers(self):
        from repro.runtime.engine import RuntimeEngine
        from repro.experiments.scenarios import synthetic_mesh_platform
        from repro.experiments.workloads import submit_tiled_dgemm

        dist = synthetic_mesh_platform(3, 3, distributed_memory=True)
        engine = RuntimeEngine(dist, scheduler="dmda")
        assert len(engine.node_anchor) == 10  # host RAM + 9 tile memories
        submit_tiled_dgemm(engine, 1024, 256)
        result = engine.run()
        assert result.transfer_count > 0  # operands hop over the NoC
        assert result.bytes_transferred > 0

    def test_distributed_memory_slower_than_shared(self):
        """Shared memory models no NoC traffic; per-tile memories move
        operands over it and are not faster (DGEMM 1024/256 on 3x3, and
        2048/256 on 4x4 as in the XTRA-MESH table)."""
        from repro.runtime.engine import RuntimeEngine
        from repro.experiments.scenarios import synthetic_mesh_platform
        from repro.experiments.workloads import submit_tiled_dgemm

        for rows, cols, n in ((3, 3, 1024), (4, 4, 2048)):
            results = {}
            for distributed in (False, True):
                platform = synthetic_mesh_platform(
                    rows, cols, distributed_memory=distributed
                )
                engine = RuntimeEngine(platform, scheduler="dmda")
                submit_tiled_dgemm(engine, n, 256)
                results[distributed] = engine.run()
            assert results[False].transfer_count == 0, (rows, cols)
            assert results[True].transfer_count > 0, (rows, cols)
            assert results[True].makespan >= results[False].makespan
