import numpy as np
import pytest

from conftest import mesh_adjacency, random_mesh_graph
from specmesh import graphs
from specmesh.errors import ArgumentError
from specmesh.graphs import adjacency_matrix, eigendecompose, laplacian
from specmesh.meshes import TriMesh
from specmesh.primitives import hand_template, icosphere
from specmesh.segmentation import segment


def _disjoint_spheres_graph(n_spheres, subdivisions=1):
    meshes = [icosphere(subdivisions, center=(3.0 * i, 0, 0)) for i in range(n_spheres)]
    pos = np.concatenate([m.positions for m in meshes])
    faces = []
    offset = 0
    for m in meshes:
        faces.append(m.faces + offset)
        offset += m.n_vertices
    return (mesh_adjacency(TriMesh(pos, np.concatenate(faces))),
            [m.n_vertices for m in meshes])


def _clustered_graph(seed=0):
    """Four dense 12-node cliques joined by single bridges: unambiguous clusters."""
    rng = np.random.default_rng(seed)
    edges = []
    for c in range(4):
        base = 12 * c
        edges += [(base + i, base + j) for i in range(12) for j in range(i + 1, 12)
                  if rng.random() < 0.8]
        edges += [(base + i, base + i + 1) for i in range(11)]
    edges += [(11, 12), (23, 24), (35, 36)]
    return adjacency_matrix(edges, 48)


class TestSegment:
    def test_two_disjoint_spheres_recovered(self):
        g, sizes = _disjoint_spheres_graph(2)
        labels = segment(g, K=2)
        first, second = labels[: sizes[0]], labels[sizes[0]:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_three_components_recovered(self):
        g, sizes = _disjoint_spheres_graph(3)
        labels = segment(g, K=3)
        bounds = np.cumsum([0] + sizes)
        groups = [set(labels[bounds[i]:bounds[i + 1]].tolist()) for i in range(3)]
        assert all(len(grp) == 1 for grp in groups)
        assert len(set().union(*groups)) == 3

    def test_k_one_all_zero(self):
        g = random_mesh_graph(30, seed=3)
        labels = segment(g, K=1)
        assert labels.dtype == np.int32 and np.all(labels == 0)

    def test_icosphere_seven_clusters_nonempty(self, ico162):
        labels = segment(mesh_adjacency(ico162), K=7)
        assert labels.dtype == np.int32
        assert np.all(np.bincount(labels, minlength=7) > 0)

    def test_deterministic(self):
        g = _clustered_graph()
        assert np.array_equal(segment(g, K=4), segment(g, K=4))

    @pytest.mark.parametrize("perm_seed", range(5))
    def test_relabeling_invariance(self, perm_seed):
        g = _clustered_graph()
        base = segment(g, K=4)
        rng = np.random.default_rng(perm_seed)
        perm = rng.permutation(g.shape[0])
        # vertex i of the permuted graph is vertex perm[i] of the original
        adj = g.toarray()[np.ix_(perm, perm)]
        edges = np.argwhere(np.triu(adj, 1))
        permuted = adjacency_matrix(edges, g.shape[0])
        labels = segment(permuted, K=4)
        partition = lambda lab: {frozenset(np.flatnonzero(lab == k).tolist()) for k in range(4)}
        original_on_permuted = base[perm]
        assert partition(labels) == partition(original_on_permuted)

    @pytest.mark.parametrize("level", [0, 1], ids=["617", "1234"])
    def test_arpack_labels_equal_dense(self, hand_levels, level, monkeypatch):
        g = hand_levels[level]
        assert graphs._use_arpack(g.shape[0], 8)
        arpack = segment(g, K=7)
        monkeypatch.setattr(graphs, "ARPACK_MIN_VERTICES", 10**9)
        dense = segment(g, K=7)
        assert np.array_equal(arpack, dense)

    def test_toy_hand_arpack_labels_equal_dense(self, monkeypatch):
        # the toy config's 4-ring hand: the eigenvalues segment embeds are
        # distinct, so the labels do not hang on a solver's choice of basis
        hand = hand_template(159)
        g = mesh_adjacency(hand)
        assert not graphs._use_arpack(g.shape[0], 8)
        dense = segment(g, K=7)
        monkeypatch.setattr(graphs, "ARPACK_MIN_VERTICES", 0)
        assert graphs._use_arpack(g.shape[0], 8)
        assert np.array_equal(segment(g, K=7), dense)

    def test_two_large_disjoint_spheres_arpack(self):
        g, sizes = _disjoint_spheres_graph(2, subdivisions=3)
        assert g.shape[0] == 1284 and graphs._use_arpack(g.shape[0], 3)
        vals, _ = eigendecompose(laplacian(g), 3)
        null = vals < graphs.ZERO_EIGENVALUE_TOL
        assert null.tolist() == [True, True, False]
        labels = segment(g, K=2)
        assert len(set(labels[: sizes[0]].tolist())) == 1
        assert len(set(labels[sizes[0]:].tolist())) == 1
        assert labels[0] != labels[-1]

    def test_bad_arguments(self):
        g = random_mesh_graph(10, seed=0)
        with pytest.raises(ArgumentError):
            segment(g, K=0)
        with pytest.raises(ArgumentError):
            segment(g, K=11)

