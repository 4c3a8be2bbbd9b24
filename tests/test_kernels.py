import numpy as np
import pytest
from oracles import nearest_vertex_loop, point_triangle_dists_dense, ray_crossings_loop

from specmesh import kernels
from specmesh.primitives import cube, icosphere


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _fixture_around_sphere():
    """Seeded points inside, outside and across an icosphere."""
    rng = np.random.default_rng(21)
    mesh = icosphere(2, radius=0.75)
    pts = rng.uniform(-1.2, 1.2, size=(150, 3))
    return pts, _unit(rng.normal(size=(150, 3))), mesh.positions[mesh.faces]


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


class TestRayCrossingsOracle:
    @pytest.mark.parametrize("name", RAY_FIXTURES)
    def test_matches_loop_oracle(self, name):
        pts, dirs, tri = RAY_FIXTURES[name]()
        counts, grazing = kernels.ray_crossings(pts, dirs, kernels.FaceClusters(tri))
        want_counts, want_grazing = ray_crossings_loop(pts, dirs, tri)
        assert counts.tolist() == want_counts
        assert grazing.tolist() == want_grazing

    def test_in_plane_ray_grazes(self):
        # the ray never reaches the +y faces, yet lies in their plane
        pts, dirs, tri = _fixture_in_plane()
        counts, grazing = kernels.ray_crossings(pts, dirs, kernels.FaceClusters(tri))
        assert counts.tolist() == [0, 0, 0]
        assert grazing.tolist() == [1, 1, 1]

    def test_empty_mesh(self):
        pts, dirs, _ = _fixture_around_sphere()
        no_faces = kernels.FaceClusters(np.zeros((0, 3, 3)))
        counts, grazing = kernels.ray_crossings(pts, dirs, no_faces)
        assert counts.tolist() == ray_crossings_loop(pts, dirs, [])[0] == [0] * len(pts)
        assert grazing.tolist() == [0] * len(pts)


class TestRayHits:
    @pytest.mark.parametrize("name", RAY_FIXTURES)
    def test_hits_bincount_to_the_crossing_counts(self, name):
        pts, dirs, tri = RAY_FIXTURES[name]()
        faces = kernels.FaceClusters(tri)
        ray, t, grazing = kernels.ray_hits(pts, dirs, faces)
        want_counts, want_grazing = ray_crossings_loop(pts, dirs, tri)
        assert ray.shape == t.shape
        assert np.bincount(ray, minlength=len(pts)).tolist() == want_counts
        assert grazing.tolist() == want_grazing
        counts, crossing_grazing = kernels.ray_crossings(pts, dirs, faces)
        assert counts.dtype == np.int64 and counts.tolist() == want_counts
        assert np.array_equal(crossing_grazing, grazing)

    @pytest.mark.parametrize("name", RAY_FIXTURES)
    def test_each_crossing_lies_on_the_surface(self, name):
        # origin + t * dir is on a face, to rounding at the points' scale
        pts, dirs, tri = RAY_FIXTURES[name]()
        ray, t, _ = kernels.ray_hits(pts, dirs, kernels.FaceClusters(tri))
        assert np.all(t > kernels._EPS_T)
        at = pts[ray] + t[:, None] * dirs[ray]
        scale = 1.0 + np.abs(pts[ray]).max(axis=1)
        assert np.all(np.array(point_triangle_dists_dense(at, tri)) <= 1e-12 * scale)

    def test_fixture_has_crossings(self):
        # the checks above hold vacuously for a ray that crosses nothing
        pts, dirs, tri = _fixture_around_sphere()
        assert kernels.ray_hits(pts, dirs, kernels.FaceClusters(tri))[0].size > 20

    def test_empty_inputs(self):
        pts, dirs, tri = _fixture_around_sphere()
        ray, t, grazing = kernels.ray_hits(pts, dirs, kernels.FaceClusters(np.zeros((0, 3, 3))))
        assert ray.size == t.size == 0 and grazing.tolist() == [0] * len(pts)
        ray, t, grazing = kernels.ray_hits(np.zeros((0, 3)), np.zeros((0, 3)),
                                           kernels.FaceClusters(tri))
        assert ray.size == t.size == grazing.size == 0


class TestFaceClusters:
    def test_len_is_face_count(self):
        for make in RAY_FIXTURES.values():
            tri = make()[2]
            assert len(kernels.FaceClusters(tri)) == len(tri)
        assert len(kernels.FaceClusters(np.zeros((0, 3, 3)))) == 0

    def test_box_is_corner_min_and_max(self):
        for make in RAY_FIXTURES.values():
            tri = make()[2]
            faces = kernels.FaceClusters(tri)
            assert np.array_equal(faces.lo, tri.reshape(-1, 3).min(axis=0))
            assert np.array_equal(faces.hi, tri.reshape(-1, 3).max(axis=0))
        empty = kernels.FaceClusters(np.zeros((0, 3, 3)))
        assert empty.lo.tolist() == [np.inf] * 3 and empty.hi.tolist() == [-np.inf] * 3

    def test_one_object_serves_every_call(self):
        # a call must leave the prepared arrays as it found them
        pts, dirs, tri = _fixture_around_sphere()
        faces = kernels.FaceClusters(tri)
        want = ray_crossings_loop(pts, dirs, tri)
        for _ in range(2):
            counts, grazing = kernels.ray_crossings(pts, dirs, faces)
            assert (counts.tolist(), grazing.tolist()) == want
            dists = kernels.point_triangle_dists(pts, faces)
            assert np.array_equal(dists, point_triangle_dists_dense(pts, tri))


def _fixture_hairline():
    """Vertices, edge midpoints and face centroids of an icosphere, pushed
    off its surface by at most 1e-6, plus its exact vertices."""
    rng = np.random.default_rng(26)
    mesh = icosphere(2, radius=0.75)
    tri = mesh.positions[mesh.faces]
    on = np.concatenate([mesh.positions, 0.5 * (tri[:, 0] + tri[:, 1]), tri.mean(axis=1)])
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    push = np.concatenate([_unit(mesh.positions), _unit(normal), _unit(normal)])
    pts = on + rng.uniform(-1e-6, 1e-6, size=(len(on), 1)) * push
    return np.concatenate([pts, mesh.positions]), tri


# (query points, faces): the ray fixtures' points and meshes, and one more
DISTANCE_FIXTURES = {name: (lambda make=make: make()[::2]) for name, make in RAY_FIXTURES.items()}
DISTANCE_FIXTURES["hairline"] = _fixture_hairline


def _assert_nearest_matches_loop(query, ref):
    idx, dist = kernels.nearest_vertex(query, ref)
    want_idx, want_dist = nearest_vertex_loop(query, ref)
    assert idx.dtype == np.int64
    assert np.array_equal(idx, np.array(want_idx, dtype=np.int64))
    assert np.array_equal(dist, np.array(want_dist, dtype=np.float64))


class TestNearestVertexOracle:
    @pytest.mark.parametrize("name", DISTANCE_FIXTURES)
    def test_fixture_against_face_corners(self, name):
        # every vertex repeats once per incident face, so ties are everywhere
        pts, tri = DISTANCE_FIXTURES[name]()
        ref = np.asarray(tri).reshape(-1, 3)
        _assert_nearest_matches_loop(pts, ref)

    @pytest.mark.parametrize("subdivisions", [1, 2])
    def test_icosphere_self_query(self, subdivisions):
        # symmetric: each edge midpoint ties, or nearly ties, between the
        # edge's two ends
        mesh = icosphere(subdivisions)
        pts = mesh.positions
        edges = mesh.faces[:, :2]
        _assert_nearest_matches_loop(pts, pts)
        _assert_nearest_matches_loop(0.5 * (pts[edges[:, 0]] + pts[edges[:, 1]]), pts)

    def test_duplicated_references(self):
        rng = np.random.default_rng(28)
        base = rng.normal(size=(30, 3))
        ref = np.concatenate([base, base[::3], base[:5]])
        query = np.concatenate([rng.normal(size=(40, 3)), base])
        _assert_nearest_matches_loop(query, ref)

    def test_equidistant_query_takes_lowest_index(self):
        ref = np.array([[0.0, 5.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        query = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        idx, dist = kernels.nearest_vertex(query, ref)
        assert idx.tolist() == [1, 1]
        _assert_nearest_matches_loop(query, ref)

    def test_empty_query(self):
        idx, dist = kernels.nearest_vertex(np.zeros((0, 3)), icosphere(1).positions)
        assert idx.shape == dist.shape == (0,)


class TestPointTriangleOracle:
    @pytest.mark.parametrize("name", DISTANCE_FIXTURES)
    def test_matches_dense_oracle(self, name):
        pts, tri = DISTANCE_FIXTURES[name]()
        dists = kernels.point_triangle_dists(pts, kernels.FaceClusters(tri))
        assert np.array_equal(dists, point_triangle_dists_dense(pts, tri))

    def test_empty_inputs(self):
        faces = kernels.FaceClusters(cube(1.0).positions[cube(1.0).faces])
        assert kernels.point_triangle_dists(np.zeros((0, 3)), faces).shape == (0,)
        pts = np.ones((2, 3))
        no_faces = kernels.FaceClusters(np.zeros((0, 3, 3)))
        assert kernels.point_triangle_dists(pts, no_faces).tolist() == [np.inf] * 2


class TestKernelSemantics:
    def test_parity_inside_outside(self):
        mesh = icosphere(1)
        tri = mesh.positions[mesh.faces]
        pts = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        dirs = np.array([[0.2, 0.3, 0.93], [0.5, 0.5, 0.7]])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        counts, grazing = kernels.ray_crossings(pts, dirs, kernels.FaceClusters(tri))
        assert grazing[0] == 0 and grazing[1] == 0
        assert counts[0] % 2 == 1
        assert counts[1] % 2 == 0

    def test_grazing_flagged_on_vertex_hit(self):
        mesh = icosphere(1)
        tri = mesh.positions[mesh.faces]
        # aim straight at a vertex: must be flagged, not silently counted
        origin = np.array([[2.0, 0.0, 0.0]])
        towards = mesh.positions[0] - origin[0]
        towards /= np.linalg.norm(towards)
        _, grazing = kernels.ray_crossings(origin, towards[None, :], kernels.FaceClusters(tri))
        assert grazing[0] == 1

    def test_nearest_vertex_brute_force(self):
        rng = np.random.default_rng(11)
        q = rng.normal(size=(25, 3))
        r = rng.normal(size=(40, 3))
        idx, dist = kernels.nearest_vertex(q, r)
        d2 = np.sum((q[:, None] - r[None]) ** 2, axis=2)
        assert np.array_equal(idx, np.argmin(d2, axis=1))
        assert np.allclose(dist, np.sqrt(d2.min(axis=1)), atol=1e-14)

    def test_point_triangle_analytic(self):
        tri = np.array([[[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]])
        pts = np.array([
            [0.25, 0.25, 0.5],   # above interior: distance = height
            [-1.0, -1.0, 0.0],   # beyond vertex a
            [0.5, -2.0, 0.0],    # below edge ab
            [2.0, 2.0, 0.0],     # beyond edge bc
        ])
        d = kernels.point_triangle_dists(pts, kernels.FaceClusters(tri))
        expected = [0.5, np.sqrt(2.0), 2.0, 1.5 * np.sqrt(2.0)]
        assert np.allclose(d, expected, atol=1e-12)

    def test_point_triangle_sampling_oracle(self):
        rng = np.random.default_rng(5)
        tri = rng.normal(size=(3, 3, 3))
        pts = rng.normal(size=(10, 3)) * 1.5
        d = kernels.point_triangle_dists(pts, kernels.FaceClusters(tri))
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
    assert kernels.BACKEND == "numpy"
