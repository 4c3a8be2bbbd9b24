import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from conftest import mesh_adjacency, random_mesh_graph
from oracles import jacobi_eigh, union_find_components
from specmesh import graphs
from specmesh.errors import ArgumentError, NumericalError, StructuralError
from specmesh.graphs import (
    adjacency_matrix,
    eigendecompose,
    lambda_max,
    laplacian,
    scaled_laplacian,
)
from specmesh.meshes import TriMesh, edge_set


def _path_graph(n):
    return adjacency_matrix([(i, i + 1) for i in range(n - 1)], n)


def _face_graph(faces, n_vertices=3):
    return mesh_adjacency(TriMesh(np.zeros((n_vertices, 3)), np.asarray(faces, dtype=np.int32)))


class TestBuildMeshGraph:
    def test_single_triangle_is_k3(self):
        a = _face_graph([[0, 1, 2]]).toarray()
        assert np.array_equal(a, np.ones((3, 3)) - np.eye(3))
        assert np.array_equal(a.sum(axis=1), [2, 2, 2])

    def test_two_triangles_sharing_edge(self):
        g = _face_graph([[0, 1, 2], [1, 3, 2]], n_vertices=4)
        assert np.array_equal(g.toarray().sum(axis=1), [2, 3, 3, 2])

    def test_hand_template_counts(self, hand_mesh, hand_graph):
        assert hand_graph.shape == (4023, 4023)
        assert hand_mesh.n_faces == 8016
        # one connected surface: no stray vertices
        assert union_find_components(4023, edge_set(hand_mesh)) == 1

    def test_unique_edges_give_the_face_edge_adjacency(self, hand_mesh, hand_graph):
        # every face's three edges, shared ones twice, collapse to the same CSR
        f = hand_mesh.faces
        sides = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        every = adjacency_matrix(sides, hand_mesh.n_vertices)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(hand_graph, attr), getattr(every, attr))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(StructuralError):
            _face_graph([[0, 1, 3]])
        with pytest.raises(StructuralError):
            adjacency_matrix([(0, -1)], 3)

    def test_degenerate_face_rejected(self):
        with pytest.raises(StructuralError):
            _face_graph([[0, 1, 1]])

    def test_adjacency_symmetric_zero_diagonal(self):
        g = random_mesh_graph(40, seed=3)
        a = g.toarray()
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert set(np.unique(a)) == {0.0, 1.0}  # repeated chords count once
        assert np.array_equal(laplacian(g).diagonal(), a.sum(axis=1))


class TestLaplacian:
    def test_single_edge(self):
        g = adjacency_matrix([(0, 1)], 2)
        assert np.array_equal(laplacian(g).toarray(), [[1, -1], [-1, 1]])

    def test_k3(self):
        g = _face_graph([[0, 1, 2]])
        expected = 2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3))
        assert np.array_equal(laplacian(g).toarray(), expected)

    def test_p3_eigenvalues(self):
        lap = laplacian(_path_graph(3))
        oracle_vals, _ = jacobi_eigh(lap.toarray())
        assert np.allclose(oracle_vals, [0.0, 1.0, 3.0], atol=1e-10)
        vals, _ = eigendecompose(lap, 3)
        assert np.allclose(vals, [0.0, 1.0, 3.0], atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_row_sums_and_psd(self, seed):
        g = random_mesh_graph(30, seed=seed)
        mat = laplacian(g)
        assert np.max(np.abs(np.asarray(mat.sum(axis=1)).ravel())) < 1e-10
        rng = np.random.default_rng(seed)
        for _ in range(100):
            x = rng.normal(size=g.shape[0])
            assert x @ (mat @ x) >= -1e-9


class TestEigendecompose:
    def test_connected_constant_nullvector(self):
        g = random_mesh_graph(25, seed=1)
        vals, vecs = eigendecompose(laplacian(g), 1)
        assert 0.0 <= vals[0] < 1e-8
        assert np.allclose(vecs[:, 0], 1.0 / np.sqrt(25), atol=1e-8)

    def test_two_components_double_zero(self):
        g = adjacency_matrix([(0, 1), (1, 2), (3, 4), (4, 5)], 6)
        vals, _ = eigendecompose(laplacian(g), 2)
        assert np.all(vals < 1e-8)

    def test_matches_dense_oracles_at_full_k(self):
        g = random_mesh_graph(50, seed=7)
        lap = laplacian(g)
        vals, _ = eigendecompose(lap, 50)
        dense = lap.toarray()
        np_vals = np.linalg.eigvalsh(dense)
        assert np.max(np.abs(vals - np_vals)) < 1e-6
        jac_vals, _ = jacobi_eigh(dense)
        assert np.max(np.abs(vals - jac_vals)) < 1e-6

    def test_orthonormal_and_residual(self):
        g = random_mesh_graph(40, seed=11)
        lap = laplacian(g)
        vals, u = eigendecompose(lap, 40)
        assert np.max(np.abs(u.T @ u - np.eye(40))) < 1e-8
        for i in range(40):
            res = lap @ u[:, i] - vals[i] * u[:, i]
            scale = max(vals[i], 1.0)
            assert np.linalg.norm(res) / scale < 1e-6

    def test_reconstructs_laplacian(self):
        g = random_mesh_graph(30, seed=2)
        lap = laplacian(g)
        vals, vecs = eigendecompose(lap, 30)
        rebuilt = vecs @ np.diag(vals) @ vecs.T
        dense = lap.toarray()
        assert np.linalg.norm(rebuilt - dense) / np.linalg.norm(dense) < 1e-6

    def test_deterministic_bitwise(self):
        g = random_mesh_graph(35, seed=5)
        lap = laplacian(g)
        a = eigendecompose(lap, 10)
        b = eigendecompose(lap, 10)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_sign_convention(self):
        g = random_mesh_graph(20, seed=9)
        _, vecs = eigendecompose(laplacian(g), 20)
        for j in range(20):
            col = vecs[:, j]
            lead = col[np.abs(col) > 1e-10][0]
            assert lead > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_eigenvalue_count_matches_components(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        n_parts = int(rng.integers(1, 5))
        sizes = np.full(n_parts, n // n_parts)
        sizes[: n % n_parts] += 1
        edges = []
        offset = 0
        for s in sizes:
            edges += [(offset + i, offset + i + 1) for i in range(s - 1)]
            for _ in range(s):
                u, v = rng.integers(s, size=2)
                if u != v:
                    edges.append((offset + u, offset + v))
            offset += s
        g = adjacency_matrix(edges, n)
        vals, _ = eigendecompose(laplacian(g), n)
        n_zero = int(np.sum(vals < 1e-8))
        assert n_zero == union_find_components(n, edges) == n_parts

    def test_k_out_of_range(self):
        g = _path_graph(4)
        with pytest.raises(ArgumentError):
            eigendecompose(laplacian(g), 0)
        with pytest.raises(ArgumentError):
            eigendecompose(laplacian(g), 5)


def _sign_fixed(vectors):
    """Columns flipped so the first component above 1e-10 in magnitude is positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        lead = out[np.argmax(np.abs(out[:, j]) > 1e-10), j]
        if lead < 0:
            out[:, j] *= -1.0
    return out


class TestArpackPath:
    """Graphs above the dense/ARPACK crossover: the hand pyramid's coarse levels."""

    K = 8  # what segmentation asks for with the default 7 clusters

    @pytest.fixture(scope="class", params=[0, 1], ids=["617", "1234"])
    def lap(self, request, hand_levels):
        lap = laplacian(hand_levels[request.param])
        assert graphs._use_arpack(lap.shape[0], self.K)
        return lap

    def test_matches_dense_eigh(self, lap):
        got_vals, got_vecs = eigendecompose(lap, self.K)
        vals, vecs = scipy.linalg.eigh(lap.toarray(), subset_by_index=[0, self.K])
        assert np.max(np.abs(got_vals - vals[:self.K])) < 1e-12
        gaps = np.diff(vals)
        simple = np.minimum(np.r_[np.inf, gaps[:-1]], gaps) > 1e-6
        assert simple.sum() >= self.K - 1
        expected = _sign_fixed(vecs[:, :self.K])
        assert np.max(np.abs(got_vecs[:, simple] - expected[:, simple])) < 1e-10

    def test_lambda_max_matches_dense(self, lap):
        dense = scipy.linalg.eigvalsh(lap.toarray())[-1]
        assert abs(lambda_max(lap) - dense) / dense < 1e-13

    def test_deterministic_bitwise(self, lap):
        a, b = eigendecompose(lap, self.K), eigendecompose(lap, self.K)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert lambda_max(lap) == lambda_max(lap)

    def test_nonconvergence_is_numerical_error(self, lap, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        with pytest.raises(NumericalError):
            eigendecompose(lap, self.K)
        with pytest.raises(NumericalError):
            lambda_max(lap)

    def test_small_graphs_stay_dense(self):
        assert not graphs._use_arpack(159, 8)  # toy template segmentation
        assert not graphs._use_arpack(80, 1)  # toy decoder levels
        assert not graphs._use_arpack(1234, 1234)  # full spectrum


class TestScaledLaplacian:
    def test_single_edge(self):
        g = adjacency_matrix([(0, 1)], 2)
        scaled = scaled_laplacian(laplacian(g), 2.0)
        assert np.allclose(scaled.toarray(), [[0, -1], [-1, 0]])

    def test_k3_eigenvalues(self):
        g = _face_graph([[0, 1, 2]])
        scaled = scaled_laplacian(laplacian(g), 3.0)
        vals, _ = jacobi_eigh(scaled.toarray())
        assert np.allclose(vals, [-1.0, 1.0, 1.0], atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_spectrum_inside_unit_interval(self, seed):
        g = random_mesh_graph(25, seed=seed)
        lap = laplacian(g)
        scaled = scaled_laplacian(lap, lambda_max(lap))
        vals = np.linalg.eigvalsh(scaled.toarray())
        assert vals.min() >= -1.0 - 1e-9
        assert vals.max() <= 1.0 + 1e-9

    def test_nonpositive_lambda_rejected(self):
        g = _path_graph(3)
        with pytest.raises(ArgumentError):
            scaled_laplacian(laplacian(g), 0.0)
        with pytest.raises(ArgumentError):
            scaled_laplacian(laplacian(g), -1.0)
