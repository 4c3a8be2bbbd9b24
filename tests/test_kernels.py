import numpy as np
import pytest
from oracles import ray_crossings_loop

from specmesh.kernels import BACKEND, _geomnp
from specmesh.primitives import cube, icosphere

try:
    from specmesh.kernels import _geomfast
    BACKENDS = [_geomnp, _geomfast]
except ImportError:  # extension not built; fallback still fully covered
    _geomfast = None
    BACKENDS = [_geomnp]


def _ray_workload(seed, n_pts=200):
    rng = np.random.default_rng(seed)
    mesh = icosphere(2, radius=0.75)
    tri = mesh.positions[mesh.faces]
    pts = rng.uniform(-1.2, 1.2, size=(n_pts, 3))
    dirs = rng.normal(size=(n_pts, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return pts, dirs, tri, mesh


class TestBackendsAgree:
    @pytest.mark.skipif(_geomfast is None, reason="compiled kernels unavailable")
    @pytest.mark.parametrize("seed", range(3))
    def test_ray_crossings_match(self, seed):
        pts, dirs, tri, _ = _ray_workload(seed)
        c1, g1 = _geomnp.ray_crossings(pts, dirs, tri)
        c2, g2 = _geomfast.ray_crossings(pts, dirs, tri)
        assert np.array_equal(c1, c2)
        assert np.array_equal(g1, g2)

    @pytest.mark.skipif(_geomfast is None, reason="compiled kernels unavailable")
    @pytest.mark.parametrize("seed", range(3))
    def test_nearest_vertex_match(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(50, 3))
        r = rng.normal(size=(80, 3))
        i1, d1 = _geomnp.nearest_vertex(q, r)
        i2, d2 = _geomfast.nearest_vertex(q, r)
        assert np.array_equal(i1, i2)
        assert np.allclose(d1, d2, atol=1e-14)
        excl = rng.integers(-1, 80, size=50)
        i1, d1 = _geomnp.nearest_vertex(q, r, excl)
        i2, d2 = _geomfast.nearest_vertex(q, r, excl)
        assert np.array_equal(i1, i2)

    @pytest.mark.skipif(_geomfast is None, reason="compiled kernels unavailable")
    @pytest.mark.parametrize("seed", range(3))
    def test_point_triangle_match(self, seed):
        rng = np.random.default_rng(seed)
        mesh = cube(0.8)
        tri = mesh.positions[mesh.faces]
        pts = rng.uniform(-1, 1, size=(60, 3))
        d1 = _geomnp.point_triangle_dists(pts, tri)
        d2 = _geomfast.point_triangle_dists(pts, tri)
        assert np.allclose(d1, d2, atol=1e-12)


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _fixture_around_sphere():
    """Seeded points inside, outside and across an icosphere."""
    return _ray_workload(21, n_pts=150)[:3]


def _fixture_near_surface():
    """Points within 1e-3 of the surface, on both sides of it."""
    rng = np.random.default_rng(22)
    mesh = icosphere(2, radius=0.75)
    scale = 1.0 + rng.uniform(-1e-3, 1e-3, size=(mesh.n_vertices, 1)) / 0.75
    return mesh.positions * scale, _unit(rng.normal(size=(mesh.n_vertices, 3))), \
        mesh.positions[mesh.faces]


def _fixture_far():
    """Points a kilometre out, half of them aimed near the mesh."""
    rng = np.random.default_rng(23)
    mesh = icosphere(2, radius=0.75)
    pts = 1e3 * _unit(rng.normal(size=(40, 3)))
    dirs = _unit(rng.normal(size=(40, 3)))
    dirs[:20] = _unit(-pts[:20] + rng.uniform(-0.5, 0.5, size=(20, 3)))
    return pts, dirs, mesh.positions[mesh.faces]


def _fixture_vertex_aim():
    """A ray aimed straight at a vertex, plus one from inside at another."""
    mesh = icosphere(1)
    pts = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    dirs = _unit([mesh.positions[0] - pts[0], mesh.positions[5]])
    return pts, dirs, mesh.positions[mesh.faces]


def _fixture_in_plane():
    """Rays lying in the plane of the cube's +y faces, none reaching them."""
    mesh = cube(1.0)
    pts = np.array([[2.0, 0.5, 0.0], [2.0, 0.5, 0.0], [0.0, 0.5, 3.0]])
    dirs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    return pts, dirs, mesh.positions[mesh.faces]


def _fixture_cube():
    """Seeded points around a 12-face mesh, whose last cluster is short."""
    rng = np.random.default_rng(25)
    mesh = cube(1.0)
    pts = rng.uniform(-1.0, 1.0, size=(100, 3))
    return pts, _unit(rng.normal(size=(100, 3))), mesh.positions[mesh.faces]


def _fixture_long_unscaled():
    """More points than one chunk, with directions of assorted lengths."""
    rng = np.random.default_rng(24)
    mesh = icosphere(1)
    pts = rng.uniform(-1.3, 1.3, size=(300, 3))
    dirs = _unit(rng.normal(size=(300, 3))) * rng.uniform(0.1, 10.0, size=(300, 1))
    return pts, dirs, mesh.positions[mesh.faces]


RAY_FIXTURES = {
    "around_sphere": _fixture_around_sphere,
    "near_surface": _fixture_near_surface,
    "far": _fixture_far,
    "vertex_aim": _fixture_vertex_aim,
    "in_plane": _fixture_in_plane,
    "cube": _fixture_cube,
    "long_unscaled": _fixture_long_unscaled,
}


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.__name__.split("_")[-1])
class TestRayCrossingsOracle:
    @pytest.mark.parametrize("name", RAY_FIXTURES)
    def test_matches_loop_oracle(self, impl, name):
        pts, dirs, tri = RAY_FIXTURES[name]()
        counts, grazing = impl.ray_crossings(pts, dirs, tri)
        want_counts, want_grazing = ray_crossings_loop(pts, dirs, tri)
        assert counts.tolist() == want_counts
        assert grazing.tolist() == want_grazing

    def test_in_plane_ray_grazes(self, impl):
        # the ray never reaches the +y faces, yet lies in their plane
        counts, grazing = impl.ray_crossings(*_fixture_in_plane())
        assert counts.tolist() == [0, 0, 0]
        assert grazing.tolist() == [1, 1, 1]

    def test_empty_mesh(self, impl):
        pts, dirs, _ = _fixture_around_sphere()
        counts, grazing = impl.ray_crossings(pts, dirs, np.zeros((0, 3, 3)))
        assert counts.tolist() == ray_crossings_loop(pts, dirs, [])[0] == [0] * len(pts)
        assert grazing.tolist() == [0] * len(pts)


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda m: m.__name__.split("_")[-1])
class TestKernelSemantics:
    def test_parity_inside_outside(self, impl):
        mesh = icosphere(1)
        tri = mesh.positions[mesh.faces]
        pts = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        dirs = np.array([[0.2, 0.3, 0.93], [0.5, 0.5, 0.7]])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        counts, grazing = impl.ray_crossings(pts, dirs, tri)
        assert grazing[0] == 0 and grazing[1] == 0
        assert counts[0] % 2 == 1
        assert counts[1] % 2 == 0

    def test_grazing_flagged_on_vertex_hit(self, impl):
        mesh = icosphere(1)
        tri = mesh.positions[mesh.faces]
        # aim straight at a vertex: must be flagged, not silently counted
        origin = np.array([[2.0, 0.0, 0.0]])
        towards = mesh.positions[0] - origin[0]
        towards /= np.linalg.norm(towards)
        _, grazing = impl.ray_crossings(origin, towards[None, :], tri)
        assert grazing[0] == 1

    def test_nearest_vertex_brute_force(self, impl):
        rng = np.random.default_rng(11)
        q = rng.normal(size=(25, 3))
        r = rng.normal(size=(40, 3))
        idx, dist = impl.nearest_vertex(q, r)
        d2 = np.sum((q[:, None] - r[None]) ** 2, axis=2)
        assert np.array_equal(idx, np.argmin(d2, axis=1))
        assert np.allclose(dist, np.sqrt(d2.min(axis=1)), atol=1e-14)

    def test_nearest_vertex_excludes_self(self, impl):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
        idx, dist = impl.nearest_vertex(pts, pts, np.array([0, 1, 2]))
        assert idx.tolist() == [1, 0, 1]
        assert np.allclose(dist, [1.0, 1.0, 2.0])

    def test_point_triangle_analytic(self, impl):
        tri = np.array([[[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]])
        pts = np.array([
            [0.25, 0.25, 0.5],   # above interior: distance = height
            [-1.0, -1.0, 0.0],   # beyond vertex a
            [0.5, -2.0, 0.0],    # below edge ab
            [2.0, 2.0, 0.0],     # beyond edge bc
        ])
        d = impl.point_triangle_dists(pts, tri)
        expected = [0.5, np.sqrt(2.0), 2.0, 1.5 * np.sqrt(2.0)]
        assert np.allclose(d, expected, atol=1e-12)

    def test_point_triangle_sampling_oracle(self, impl):
        rng = np.random.default_rng(5)
        tri = rng.normal(size=(3, 3, 3))
        pts = rng.normal(size=(10, 3)) * 1.5
        d = impl.point_triangle_dists(pts, tri)
        # oracle: dense barycentric sampling of each triangle
        grid = []
        n = 220
        for i in range(n + 1):
            for j in range(n + 1 - i):
                grid.append((i / n, j / n))
        grid = np.array(grid)
        samples = []
        for t in tri:
            samples.append((1 - grid[:, :1] - grid[:, 1:]) * t[0] + grid[:, :1] * t[1] + grid[:, 1:] * t[2])
        samples = np.concatenate(samples)
        brute = np.min(np.linalg.norm(pts[:, None] - samples[None], axis=2), axis=1)
        assert np.all(d <= brute + 1e-12)
        assert np.allclose(d, brute, atol=2e-2)  # sampling resolution bound


def test_backend_reports_name():
    assert BACKEND in ("numpy", "cython")
