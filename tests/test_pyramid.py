import numpy as np
import pytest

from oracles import union_find_components
from specmesh.errors import StructuralError
from specmesh.graphs import build_mesh_graph, graph_from_edges
from specmesh.pyramid import build_pyramid


@pytest.fixture(scope="module")
def ico_graph(ico162):
    return build_mesh_graph(ico162.positions, ico162.faces)


@pytest.fixture(scope="module")
def ico_pyramid(ico_graph):
    return build_pyramid(ico_graph, [41, 81, 162], seed=0)


class TestBuildPyramid:
    def test_single_level(self, ico_graph):
        p = build_pyramid(ico_graph, [162], seed=0)
        assert p.level_sizes == [162]
        assert p.parent_maps == ()
        assert p.levels[0] is ico_graph

    def test_exact_level_sizes(self, ico_pyramid):
        assert ico_pyramid.level_sizes == [41, 81, 162]

    def test_hand_template_sizes(self, hand_graph):
        p = build_pyramid(hand_graph, [617, 1234, 2468, 4023], seed=0)
        assert p.level_sizes == [617, 1234, 2468, 4023]
        assert p.levels[-1] is hand_graph

    def test_parent_maps_surjective(self, ico_pyramid):
        for i, pmap in enumerate(ico_pyramid.parent_maps):
            n_coarse = ico_pyramid.level_sizes[i]
            assert pmap.shape[0] == ico_pyramid.level_sizes[i + 1]
            assert set(pmap.tolist()) == set(range(n_coarse))

    def test_parent_chains_terminate(self, ico_pyramid):
        # following the parent maps from the finest level ends inside the coarsest
        chain = np.arange(ico_pyramid.level_sizes[-1])
        for pmap in reversed(ico_pyramid.parent_maps):
            chain = pmap[chain]
        assert chain.min() >= 0 and chain.max() < ico_pyramid.level_sizes[0]

    def test_connectivity_preserved(self, ico_pyramid):
        for g in ico_pyramid.levels:
            assert union_find_components(g.n_vertices, g.edge_array()) == 1

    def test_coarse_graph_is_contracted_fine_graph(self, ico_pyramid):
        for i, pmap in enumerate(ico_pyramid.parent_maps):
            fine, coarse = ico_pyramid.levels[i + 1], ico_pyramid.levels[i]
            contracted = {(int(pmap[u]), int(pmap[v])) for u, v in fine.edge_array()
                          if pmap[u] != pmap[v]}
            contracted |= {(v, u) for u, v in contracted}
            rows, cols = coarse.adjacency.nonzero()
            assert set(zip(rows.tolist(), cols.tolist())) == contracted
            assert np.all(coarse.adjacency.data == 1.0)
            # coarse ids are numbered in order of each one's first fine child
            first_child = [int(np.flatnonzero(pmap == c)[0]) for c in range(coarse.n_vertices)]
            assert np.all(np.diff(first_child) > 0)

    def test_deterministic(self, ico_graph):
        a = build_pyramid(ico_graph, [41, 81, 162], seed=7)
        b = build_pyramid(ico_graph, [41, 81, 162], seed=7)
        for ga, gb in zip(a.levels, b.levels):
            assert np.array_equal(ga.positions, gb.positions)
            assert (ga.adjacency != gb.adjacency).nnz == 0
        for ma, mb in zip(a.parent_maps, b.parent_maps):
            assert np.array_equal(ma, mb)

    def test_bad_sizes_rejected(self, ico_graph):
        with pytest.raises(StructuralError):
            build_pyramid(ico_graph, [81, 41, 162], seed=0)
        with pytest.raises(StructuralError):
            build_pyramid(ico_graph, [41, 81, 161], seed=0)
        with pytest.raises(StructuralError):
            build_pyramid(ico_graph, [], seed=0)

    def test_unreachable_target_rejected(self):
        # two disjoint paths cannot merge down to one vertex
        g = graph_from_edges(np.zeros((6, 3)), [(0, 1), (1, 2), (3, 4), (4, 5)])
        with pytest.raises(StructuralError):
            build_pyramid(g, [1, 6], seed=0)

