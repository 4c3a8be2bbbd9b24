import numpy as np
import pytest

from oracles import central_difference, union_find_components
from specmesh.errors import ArgumentError, StructuralError
from specmesh.graphs import build_mesh_graph, graph_from_edges
from specmesh.pyramid import build_pyramid, load_pyramid, save_pyramid, upsample_signal


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
        coarsest = ico_pyramid.level_sizes[0]
        for v in range(ico_pyramid.level_sizes[-1]):
            assert 0 <= ico_pyramid.trace_to_coarsest(v) < coarsest

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


class TestUpsampleSignal:
    def test_identity_weights(self, ico_pyramid):
        rng = np.random.default_rng(0)
        signal = rng.normal(size=(41, 3))
        out = upsample_signal(ico_pyramid, 0, signal, np.eye(41))
        assert np.allclose(out, signal)

    def test_shape_41_to_81(self, ico_pyramid):
        rng = np.random.default_rng(1)
        out = upsample_signal(ico_pyramid, 0, rng.normal(size=(41, 3)),
                              rng.normal(size=(81, 41)), rng.normal(size=(81, 3)))
        assert out.shape == (81, 3)

    def test_weight_gradient_matches_finite_differences(self, ico_pyramid):
        rng = np.random.default_rng(2)
        signal = rng.normal(size=(41, 3))
        probe = rng.normal(size=(81, 3))
        weight = rng.normal(size=(81, 41))

        def scalar(w):
            return float(np.sum(upsample_signal(ico_pyramid, 0, signal, w) * probe))

        analytic = probe @ signal.T
        numeric = central_difference(scalar, weight.copy(), h=1e-4)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic), 1e-6)
        assert rel.max() < 1e-4

    def test_shape_mismatch_rejected(self, ico_pyramid):
        with pytest.raises(ArgumentError):
            upsample_signal(ico_pyramid, 0, np.zeros((40, 3)), np.eye(41))
        with pytest.raises(ArgumentError):
            upsample_signal(ico_pyramid, 0, np.zeros((41, 3)), np.zeros((81, 40)))
        with pytest.raises(ArgumentError):
            upsample_signal(ico_pyramid, 5, np.zeros((41, 3)), np.eye(41))


class TestPersistence:
    def test_roundtrip(self, ico_pyramid, tmp_path):
        save_pyramid(ico_pyramid, tmp_path / "pyr")
        back = load_pyramid(tmp_path / "pyr")
        assert back.level_sizes == ico_pyramid.level_sizes
        for ga, gb in zip(back.levels, ico_pyramid.levels):
            assert np.array_equal(ga.positions, gb.positions)
            assert (ga.adjacency != gb.adjacency).nnz == 0
        for ma, mb in zip(back.parent_maps, ico_pyramid.parent_maps):
            assert np.array_equal(ma, mb)

    def test_deterministic_bytes(self, ico_pyramid, tmp_path):
        save_pyramid(ico_pyramid, tmp_path / "a")
        save_pyramid(ico_pyramid, tmp_path / "b")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
