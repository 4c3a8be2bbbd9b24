import numpy as np
import pytest
import scipy.sparse as sp

from conftest import mesh_adjacency
from oracles import union_find_components
from specmesh.errors import StructuralError
from specmesh.graphs import adjacency_matrix
from specmesh.pyramid import build_pyramid


def _edges(adjacency):
    """Unique (i, j) edges, i < j, of a symmetric adjacency."""
    return np.column_stack(sp.triu(adjacency, k=1).nonzero())


def _sizes(levels):
    return [level.shape[0] for level in levels]


@pytest.fixture(scope="module")
def ico_graph(ico162):
    return mesh_adjacency(ico162)


@pytest.fixture(scope="module")
def ico_pyramid(ico_graph):
    return build_pyramid(ico_graph, [41, 81, 162], seed=0)


class TestBuildPyramid:
    def test_single_level(self, ico_graph):
        levels, parent_maps = build_pyramid(ico_graph, [162], seed=0)
        assert _sizes(levels) == [162]
        assert parent_maps == ()
        assert levels[0] is ico_graph

    def test_exact_level_sizes(self, ico_pyramid):
        assert _sizes(ico_pyramid[0]) == [41, 81, 162]

    def test_hand_template_sizes(self, hand_graph):
        levels, _ = build_pyramid(hand_graph, [617, 1234, 2468, 4023], seed=0)
        assert _sizes(levels) == [617, 1234, 2468, 4023]
        assert levels[-1] is hand_graph

    def test_parent_maps_surjective(self, ico_pyramid):
        levels, parent_maps = ico_pyramid
        for i, pmap in enumerate(parent_maps):
            n_coarse = levels[i].shape[0]
            assert pmap.shape[0] == levels[i + 1].shape[0]
            assert set(pmap.tolist()) == set(range(n_coarse))

    def test_parent_chains_terminate(self, ico_pyramid):
        # following the parent maps from the finest level ends inside the coarsest
        levels, parent_maps = ico_pyramid
        chain = np.arange(levels[-1].shape[0])
        for pmap in reversed(parent_maps):
            chain = pmap[chain]
        assert chain.min() >= 0 and chain.max() < levels[0].shape[0]

    def test_connectivity_preserved(self, ico_pyramid):
        for level in ico_pyramid[0]:
            assert union_find_components(level.shape[0], _edges(level)) == 1

    def test_coarse_graph_is_contracted_fine_graph(self, ico_pyramid):
        levels, parent_maps = ico_pyramid
        for i, pmap in enumerate(parent_maps):
            fine, coarse = levels[i + 1], levels[i]
            contracted = {(int(pmap[u]), int(pmap[v])) for u, v in _edges(fine)
                          if pmap[u] != pmap[v]}
            contracted |= {(v, u) for u, v in contracted}
            rows, cols = coarse.nonzero()
            assert set(zip(rows.tolist(), cols.tolist())) == contracted
            assert np.all(coarse.data == 1.0)
            assert coarse.has_sorted_indices
            # coarse ids are numbered in order of each one's first fine child
            first_child = [int(np.flatnonzero(pmap == c)[0]) for c in range(coarse.shape[0])]
            assert np.all(np.diff(first_child) > 0)

    def test_deterministic(self, ico_graph):
        a = build_pyramid(ico_graph, [41, 81, 162], seed=7)
        b = build_pyramid(ico_graph, [41, 81, 162], seed=7)
        for ga, gb in zip(a[0], b[0]):
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(ga, attr), getattr(gb, attr))
        for ma, mb in zip(a[1], b[1]):
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
        g = adjacency_matrix([(0, 1), (1, 2), (3, 4), (4, 5)], 6)
        with pytest.raises(StructuralError):
            build_pyramid(g, [1, 6], seed=0)
