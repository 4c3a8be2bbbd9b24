import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import capped_hand, pushed_left
from oracles import (morton_codes_loop, nearest_vertex_loop, point_triangle_dists_dense,
                     ray_crossings_loop)

import specmesh
from specmesh import kernels
from specmesh.primitives import cube, icosphere


def soup_dists(points, tri):
    """``point_triangle_dists`` against a triangle soup, bounded by the KD-tree
    of its corners."""
    tri = np.asarray(tri, dtype=np.float64)
    return kernels.point_triangle_dists(points, kernels.FaceClusters(tri),
                                        kernels._kdtree(tri.reshape(-1, 3)))


def cluster_runs(n_tri):
    """Each cluster's faces, as a slice: runs of ``_CLUSTER``, the last short."""
    return [slice(lo, min(lo + kernels._CLUSTER, n_tri))
            for lo in range(0, n_tri, kernels._CLUSTER)]


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


def _fixture_in_plane_far():
    """Two cubes, and a ray along +x in the plane of cube A's +y faces that
    never reaches cube A and crosses cube B twice."""
    a = cube(1.0)
    b = cube(1.0, center=(0.0, 0.3, 3.0))
    tri = np.concatenate([a.positions[a.faces], b.positions[b.faces]])
    return np.array([[-2.0, 0.5, 3.1]]), np.array([[1.0, 0.0, 0.0]]), tri


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


def _fixture_sphere_columns():
    """Rays along +z on a grid over a moved sphere, as the voxel passes cast
    them: parallel to every face whose normal has no z component."""
    mesh = icosphere(2, radius=0.75, center=(0.1, -0.05, 0.02))
    xy = np.stack(np.meshgrid(np.linspace(-0.8, 0.9, 9), np.linspace(-0.9, 0.8, 8)),
                  axis=-1).reshape(-1, 2)
    pts = np.column_stack([xy, np.full(len(xy), -2.0)])
    return pts, np.tile([0.0, 0.0, 1.0], (len(pts), 1)), mesh.positions[mesh.faces]


def _fixture_cube_columns():
    """Rays along -x, some in the planes of the cube's y and z faces: those
    that reach such a face graze, and the two at (0.5, 2.0) and (3.0, -0.5),
    which never do, do not."""
    mesh = cube(1.0)
    yz = [(0.5, 0.0), (-0.5, 0.2), (0.1, 0.5), (0.3, -0.5), (0.5, 2.0), (3.0, -0.5),
          (0.1, 0.2), (0.5 + 1e-12, 0.1), (-0.2, 0.5 - 1e-8), (0.7, 0.7)]
    pts = np.array([(2.0, y, z) for y, z in yz])
    return pts, np.tile([-1.0, 0.0, 0.0], (len(pts), 1)), mesh.positions[mesh.faces]


def _fixture_tilted_columns():
    """Rays along +x against a quad tilted 1e-7 off the x axis, which they
    cross far out, and a quad parallel to it, in whose plane some lie."""
    tilted = [[0.0, -1.0, 0.0], [10.0, -1.0, 1e-6], [10.0, 1.0, 1e-6], [0.0, 1.0, 0.0]]
    level = [[0.0, 0.5, -1.0], [10.0, 0.5, -1.0], [10.0, 0.5, 1.0], [0.0, 0.5, 1.0]]
    tri = np.array([[q[0], q[1], q[2]] for q in (tilted, level)]
                   + [[q[0], q[2], q[3]] for q in (tilted, level)])
    yz = [(0.2, 2e-7), (-0.3, 5e-7), (0.1, 9e-7), (0.0, -1e-7), (0.3, 1.1e-6),
          (0.5, 0.3), (0.5, 2.0), (0.5 + 1e-8, 0.0), (-0.5, 5e-7)]
    pts = np.array([(-1.0, y, z) for y, z in yz])
    return pts, np.tile([1.0, 0.0, 0.0], (len(pts), 1)), tri


RAY_FIXTURES = {
    "around_sphere": _fixture_around_sphere,
    "near_surface": _fixture_near_surface,
    "far": _fixture_far,
    "vertex_aim": _fixture_vertex_aim,
    "in_plane": _fixture_in_plane,
    "in_plane_far": _fixture_in_plane_far,
    "cube": _fixture_cube,
    "long_unscaled": _fixture_long_unscaled,
    "sphere_columns": _fixture_sphere_columns,
    "cube_columns": _fixture_cube_columns,
    "tilted_columns": _fixture_tilted_columns,
}


class TestRayCrossingsOracle:
    @pytest.mark.parametrize("name", RAY_FIXTURES)
    def test_matches_loop_oracle(self, name):
        pts, dirs, tri = RAY_FIXTURES[name]()
        counts, grazing = kernels.ray_crossings(pts, dirs, kernels.FaceClusters(tri))
        want_counts, want_grazing = ray_crossings_loop(pts, dirs, tri)
        assert counts.tolist() == want_counts
        assert grazing.tolist() == want_grazing

    def test_in_plane_ray_grazes_only_faces_it_reaches(self):
        # the rays lie in the plane of the +y faces but never reach them
        pts, dirs, tri = _fixture_in_plane()
        faces = kernels.FaceClusters(tri)
        counts, grazing = kernels.ray_crossings(pts, dirs, faces)
        assert counts.tolist() == [0, 0, 0]
        assert grazing.tolist() == [0, 0, 0]
        # in the same plane, along the faces
        counts, grazing = kernels.ray_crossings([[2.0, 0.5, 0.1]], [[-1.0, 0.0, 0.0]], faces)
        assert counts.tolist() == [0]
        assert grazing.tolist() == [1]
        # cube A's +y plane holds the ray, which crosses cube B cleanly
        pts, dirs, tri = _fixture_in_plane_far()
        counts, grazing = kernels.ray_crossings(pts, dirs, kernels.FaceClusters(tri))
        assert counts.tolist() == [2]
        assert grazing.tolist() == [0]

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


def _per_ray(ray, t, n):
    """Each ray's crossings as the bytes of its sorted t values."""
    order = np.lexsort((t, ray))
    ray, t = ray[order], t[order]
    return [t[ray == r].tobytes() for r in range(n)]


def assert_rays_independent(pts, dirs, faces):
    """Each ray's crossings and grazing flag are the same cast alone, with
    all the others, and with all the others in reverse order."""
    ray, t, grazing = kernels.ray_hits(pts, dirs, faces)
    together = _per_ray(ray, t, len(pts))
    for r in range(len(pts)):
        alone = kernels.ray_hits(pts[r:r + 1], dirs[r:r + 1], faces)
        assert _per_ray(alone[0], alone[1], 1) == [together[r]]
        assert alone[2].tolist() == [grazing[r]]
    flip = np.arange(len(pts))[::-1]
    ray_f, t_f, grazing_f = kernels.ray_hits(pts[flip], dirs[flip], faces)
    assert _per_ray(ray_f, t_f, len(pts)) == [together[r] for r in flip]
    assert np.array_equal(grazing_f, grazing[flip])
    return grazing


class TestRayIndependence:
    """A ray's crossings, t values and grazing flag do not depend on the
    other rays of its call, so a point's interior flag does not depend on
    the other points of its batch."""

    @pytest.mark.parametrize("name", RAY_FIXTURES)
    def test_alone_and_reordered_equal_together(self, name):
        pts, dirs, tri = RAY_FIXTURES[name]()
        assert_rays_independent(pts, dirs, kernels.FaceClusters(tri))

    def test_hand_scale_rays(self):
        # left-hand vertices in the right hand's box at the 150 mm push, each
        # cast 7 times in seeded directions. The cluster culls read BLAS
        # products at shapes the icosphere fixtures never reach, so CI also
        # runs this on forced OpenBLAS kernels
        right = capped_hand()
        faces = right.face_clusters
        left = pushed_left(right, 0.150).positions
        pts = left[np.all((left >= faces.lo) & (left <= faces.hi), axis=1)][::12]
        assert 200 <= len(pts) <= 220
        pts = np.tile(pts, (7, 1))
        dirs = _unit(np.random.default_rng(0).normal(size=(len(pts), 3)))
        assert assert_rays_independent(pts, dirs, faces).any()


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

    def test_spheres_as_reductions_give_them(self):
        # the build takes spheres from the corner columns; they equal the
        # reductions over every corner of a face, and over every face sphere
        # of a cluster, bit for bit. Cluster k is the run of faces from
        # k * _CLUSTER, the last run short
        slack = 1.0 + kernels._SPHERE_SLACK
        for make in RAY_FIXTURES.values():
            faces = kernels.FaceClusters(make()[2])
            tri = faces.tri
            face_center = 0.5 * (tri.min(axis=1) + tri.max(axis=1))
            face_radius = np.linalg.norm(tri - face_center[:, None], axis=2).max(axis=1) * slack
            assert faces.face_center.tobytes() == face_center.tobytes()
            assert faces.face_radius.tobytes() == face_radius.tobytes()
            runs = cluster_runs(len(faces))
            assert len(faces.center) == len(faces.radius) == len(runs)
            for k, run in enumerate(runs):
                corners = tri[run].reshape(-1, 3)
                center = 0.5 * (corners.min(axis=0) + corners.max(axis=0))
                radius = (np.linalg.norm(face_center[run] - center, axis=1)
                          + face_radius[run]).max()
                assert faces.center[k].tobytes() == center.tobytes()
                assert faces.radius[k].tobytes() == (radius * slack).tobytes()

    def test_cluster_spheres_hold_their_faces_spheres(self):
        # so the cluster test never drops a pair the face-sphere test keeps
        for make in RAY_FIXTURES.values():
            faces = kernels.FaceClusters(make()[2])
            for k, run in enumerate(cluster_runs(len(faces))):
                gap = np.linalg.norm(faces.face_center[run] - faces.center[k], axis=1)
                assert np.all(gap + faces.face_radius[run] <= faces.radius[k])

    def test_holds_only_arrays_set_by_the_constructor(self):
        faces = kernels.FaceClusters(_fixture_around_sphere()[2])
        held = dict(vars(faces))
        assert all(isinstance(value, np.ndarray) for value in held.values())
        pts, dirs, _ = _fixture_around_sphere()
        kernels.ray_crossings(pts, dirs, faces)
        kernels.point_triangle_dists(pts, faces, kernels._kdtree(faces.tri.reshape(-1, 3)))
        assert vars(faces).keys() == held.keys()
        assert all(vars(faces)[key] is value for key, value in held.items())

    def test_one_object_serves_every_call(self):
        # a call must leave the prepared arrays as it found them
        pts, dirs, tri = _fixture_around_sphere()
        faces, tree = kernels.FaceClusters(tri), kernels._kdtree(tri.reshape(-1, 3))
        want = ray_crossings_loop(pts, dirs, tri)
        for _ in range(2):
            counts, grazing = kernels.ray_crossings(pts, dirs, faces)
            assert (counts.tolist(), grazing.tolist()) == want
            dists = kernels.point_triangle_dists(pts, faces, tree)
            assert np.array_equal(dists, point_triangle_dists_dense(pts, tri))


class TestMortonCodes:
    """The shift-and-mask spread gives the codes of the bit-by-bit loop."""

    def assert_codes_match_loop(self, grid):
        codes = kernels._morton_codes(grid)
        assert codes.tolist() == morton_codes_loop(grid)

    def test_random_grids(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 7, 1000):
            self.assert_codes_match_loop(rng.integers(0, 1024, size=(n, 3)))

    def test_duplicate_rows(self):
        rng = np.random.default_rng(32)
        grid = rng.integers(0, 1024, size=(20, 3))
        self.assert_codes_match_loop(np.concatenate([grid, grid[::2], grid[:3]]))

    def test_extremes(self):
        corners = np.array([(x, y, z) for x in (0, 1023) for y in (0, 1023) for z in (0, 1023)])
        self.assert_codes_match_loop(corners)
        assert kernels._morton_codes(np.full((1, 3), 1023)).tolist() == [2**30 - 1]
        one_bit = np.array([[1 << b, 0, 0] for b in range(10)] + [[0, 1 << b, 0] for b in range(10)]
                           + [[0, 0, 1 << b] for b in range(10)])
        self.assert_codes_match_loop(one_bit)

    def test_order_is_the_stable_sort_of_the_codes(self):
        # centroids on a coarse lattice, so many share a grid cell
        rng = np.random.default_rng(33)
        centroids = rng.integers(0, 5, size=(500, 3)) * 0.25 - 0.3
        lo = centroids.min(axis=0)
        grid = np.clip((centroids - lo) * (1023.0 / np.ptp(centroids, axis=0).max()), 0, 1023)
        want = np.argsort(morton_codes_loop(grid.astype(np.int64)), kind="stable")
        assert np.array_equal(kernels._morton_order(centroids), want)


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


def nearest(query, ref):
    """``nearest_vertex`` with a KD-tree of ``ref``."""
    return kernels.nearest_vertex(query, ref, kernels._kdtree(ref))


def _assert_nearest_matches_loop(query, ref):
    idx, dist = nearest(query, ref)
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
        idx, dist = nearest(query, ref)
        assert idx.tolist() == [1, 1]
        _assert_nearest_matches_loop(query, ref)

    def test_empty_query(self):
        idx, dist = nearest(np.zeros((0, 3)), icosphere(1).positions)
        assert idx.shape == dist.shape == (0,)


class TestPointTriangleOracle:
    @pytest.mark.parametrize("name", DISTANCE_FIXTURES)
    def test_matches_dense_oracle(self, name):
        pts, tri = DISTANCE_FIXTURES[name]()
        dists = soup_dists(pts, tri)
        assert np.array_equal(dists, point_triangle_dists_dense(pts, tri))

    @pytest.mark.parametrize("name", DISTANCE_FIXTURES)
    def test_mesh_vertex_tree_equals_corner_tree(self, name):
        # every vertex of a closed mesh is a face corner, so its vertex tree
        # gives the bound the tree of the 3F corners gives, and the same bits
        pts = DISTANCE_FIXTURES[name]()[0]
        for mesh in (icosphere(2, radius=0.75), cube(1.0)):
            tri = mesh.positions[mesh.faces]
            dists = kernels.point_triangle_dists(pts, mesh.face_clusters, mesh.vertex_tree)
            assert dists.tobytes() == soup_dists(pts, tri).tobytes()
            assert np.array_equal(dists, point_triangle_dists_dense(pts, tri))

    def test_empty_inputs(self):
        mesh = cube(1.0)
        assert kernels.point_triangle_dists(np.zeros((0, 3)), mesh.face_clusters,
                                            mesh.vertex_tree).shape == (0,)
        assert soup_dists(np.ones((2, 3)), np.zeros((0, 3, 3))).tolist() == [np.inf] * 2


def band_points(tri, gaps):
    """Each face's centroid, and the points ``gaps`` off it along the face's
    unit normal."""
    normal = _unit(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]))
    return (tri.mean(axis=1)[:, None] + np.asarray(gaps)[:, None] * normal[:, None]).reshape(-1, 3)


BAND_GAPS = [0.0, 1e-10, -5e-9, 9e-9, -2e-8, 3e-8, 1e-6]


def assert_band_equals_dense(pts, tri, tols):
    """``near_surface`` equals the dense distances' comparison at each tol;
    returns the flags at the first."""
    faces = kernels.FaceClusters(tri)
    trees = kernels.face_center_trees(faces)
    dists = point_triangle_dists_dense(pts, tri)
    flags = [kernels.near_surface(pts, faces, trees, tol) for tol in tols]
    for got, tol in zip(flags, tols):
        assert np.array_equal(got, dists <= tol)
    return flags[0]


class TestNearSurface:
    """``near_surface`` against the distance to every face."""

    @pytest.mark.parametrize("name", DISTANCE_FIXTURES)
    def test_matches_dense_oracle(self, name):
        pts, tri = DISTANCE_FIXTURES[name]()
        assert_band_equals_dense(pts, tri, (1e-8, 1e-6, 1e-3, 0.3))

    def test_band_edge_on_each_side(self):
        tri = icosphere(2).positions[icosphere(2).faces][::7]
        near = assert_band_equals_dense(band_points(tri, BAND_GAPS), tri, (1e-8,))
        assert near.reshape(len(tri), -1).tolist() == [[True] * 4 + [False] * 3] * len(tri)

    def test_hand_scale_band(self):
        # the capped hand's face radii run from under 2 mm to 28 mm (the
        # wrist fan, its last 26 faces), so its faces fall in several classes
        hand = capped_hand()
        tri = hand.positions[hand.faces]
        picked = np.concatenate([tri[-26::2], tri[:-26:620]])
        near = assert_band_equals_dense(band_points(picked, BAND_GAPS), tri, (1e-8, 2e-3))
        assert near.reshape(len(picked), -1).tolist() == [[True] * 4 + [False] * 3] * len(picked)
        assert len(hand.face_trees) >= 4

    def test_classes_hold_every_face_once(self):
        hand = capped_hand()
        faces = hand.face_clusters
        trees = kernels.face_center_trees(faces)
        idx = np.concatenate([i for i, _, _ in trees])
        assert np.array_equal(np.sort(idx), np.arange(len(faces)))
        for i, tree, reach in trees:
            radius = faces.face_radius[i]
            assert reach == radius.max() and reach < 2.0 * radius.min()
            assert np.array_equal(tree.data, faces.face_center[i])

    def test_empty_inputs(self):
        mesh = cube(1.0)
        trees = kernels.face_center_trees(mesh.face_clusters)
        assert kernels.near_surface(np.zeros((0, 3)), mesh.face_clusters, trees,
                                    1e-8).shape == (0,)
        empty = kernels.FaceClusters(np.zeros((0, 3, 3)))
        assert kernels.face_center_trees(empty) == ()
        assert not kernels.near_surface(np.zeros((2, 3)), empty, (), 1e-8).any()


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
        idx, dist = nearest(q, r)
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
        d = soup_dists(pts, tri)
        expected = [0.5, np.sqrt(2.0), 2.0, 1.5 * np.sqrt(2.0)]
        assert np.allclose(d, expected, atol=1e-12)

    def test_point_triangle_sampling_oracle(self):
        rng = np.random.default_rng(5)
        tri = rng.normal(size=(3, 3, 3))
        pts = rng.normal(size=(10, 3)) * 1.5
        d = soup_dists(pts, tri)
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


LAZY_SPATIAL_SCRIPT = """
import sys
import specmesh.kernels, specmesh.model, specmesh.primitives, specmesh.refine, specmesh.scenes
assert "scipy.spatial" not in sys.modules, "a module-level import loads scipy.spatial"
import numpy as np
specmesh.kernels.nearest_vertex(np.zeros((1, 3)), np.ones((2, 3)),
                                specmesh.kernels._kdtree(np.ones((2, 3))))
assert "scipy.spatial" in sys.modules
"""


def test_scipy_spatial_loads_on_first_use():
    # the model processes import the kernels without calling them, and
    # need not carry scipy.spatial (about 6 MB of RSS)
    src = str(Path(specmesh.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", LAZY_SPATIAL_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
