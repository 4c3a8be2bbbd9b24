import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial

import specmesh
from conftest import tree_owners
from oracles import (
    arap_covariances_add_at,
    arap_global_step_dense,
    collision_loss_loop,
    point_triangle_dists_dense,
    points_interior_dense,
    procrustes_rotations_svd,
    sphere_contains,
    voxel_flags_per_center,
)
from specmesh import kernels, meshes, refine
from specmesh.errors import ArgumentError
from specmesh.meshes import TriMesh, edge_set
from specmesh.primitives import apply_rigid, cube, hand_template, icosphere, rotation_matrix
from specmesh.refine import (
    PENETRATION_TOL,
    RefineConfig,
    collision_mask,
    plausibility_metrics,
    points_interior,
    refine_mesh,
)


def with_stray_vertex(mesh):
    """The mesh with one more vertex, at its centroid, on no face."""
    positions = np.concatenate([mesh.positions, mesh.positions.mean(axis=0, keepdims=True)])
    return TriMesh(positions=positions, faces=mesh.faces)


def overlapping_spheres(radius=1.0, separation=1.5):
    a = icosphere(2, radius=radius, center=(0.0, 0.0, 0.0))
    b = icosphere(2, radius=radius, center=(separation * radius, 0.0, 0.0))
    return a, b


def dense_interior(points, mesh):
    """``points_interior_dense`` against the mesh's faces."""
    return points_interior_dense(points, mesh.positions[mesh.faces])


def assert_equals_oracle(points, mesh):
    """``points_interior``'s flags and contact count equal the brute-force
    oracle's; returns them."""
    interior, contact = points_interior(points, mesh)
    want, want_contact = dense_interior(points, mesh)
    assert np.array_equal(interior, want) and contact == want_contact
    return interior, contact


def near_face_points(mesh, gaps):
    """Points at each distance of ``gaps`` inside the mesh's first faces (a
    negative gap is outside), off their centroids along the unit normal."""
    tri = mesh.positions[mesh.faces[:len(gaps)]]
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    return tri.mean(axis=1) - np.asarray(gaps)[:, None] * normal


def assert_contact(result, target):
    """The ``"contact"`` stop's rule at the returned mesh: there are source
    vertices inside the target, and the brute-force distance puts every one
    of them within ``PENETRATION_TOL`` of the target's surface."""
    assert result.stop_reason == "contact"
    interior, _ = points_interior(result.mesh.positions, target)
    assert interior.any()
    dists = point_triangle_dists_dense(result.mesh.positions[interior],
                                       target.positions[target.faces])
    assert dists.max() <= PENETRATION_TOL


def recording_rays(monkeypatch):
    """Records the origins of each ``ray_crossings`` call of ``refine``."""
    cast = []
    ray_crossings = refine.ray_crossings
    monkeypatch.setattr(refine, "ray_crossings",
                        lambda *args: cast.append(args[0].copy()) or ray_crossings(*args))
    return cast


BAND_GAPS = [1e-10, -1e-10, 5e-9, -5e-9, 2e-8, -2e-8, 1e-6, -1e-6]


class TestPointInMesh:
    def test_cube_centroid_inside(self):
        c = cube(1.0, center=(0.2, -0.1, 0.3))
        interior, contact = assert_equals_oracle(c.positions.mean(axis=0)[None], c)
        assert interior.tolist() == [True] and contact == 0

    def test_far_point_outside(self):
        interior, contact = assert_equals_oracle(np.array([[10.0, 10.0, 10.0]]), cube(1.0))
        assert interior.tolist() == [False] and contact == 0

    def test_sphere_parity_matches_analytic(self):
        mesh = icosphere(3)  # 642 vertices: a tight sphere approximation
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.3, 1.3, size=(1000, 3))
        radii = np.linalg.norm(pts, axis=1)
        # exclude the geometric shell where the faceted sphere differs from
        # the analytic one, plus the spec's 1e-6 surface band
        inradius = np.min(np.linalg.norm(
            mesh.positions[mesh.faces].mean(axis=1), axis=1))
        test_idx = np.flatnonzero((radii < inradius - 1e-6) | (radii > 1.0 + 1e-6))
        interior, contact = points_interior(pts[test_idx], mesh)
        assert contact == 0
        analytic = sphere_contains(pts[test_idx], (0, 0, 0), 1.0)
        inside_faceted = radii[test_idx] < inradius
        assert np.array_equal(interior, inside_faceted)
        # analytic sphere agrees wherever the faceted hull is conclusive
        assert np.array_equal(interior, analytic & inside_faceted | inside_faceted)

    def test_surface_point_is_in_contact_and_casts_no_ray(self, monkeypatch):
        # every ray from a corner grazes the faces that meet there; the
        # corner is in contact, and contact is exterior
        c = cube(1.0)
        cast = recording_rays(monkeypatch)
        interior, contact = assert_equals_oracle(c.positions[:1], c)
        assert interior.tolist() == [False] and contact == 1
        assert cast == []

    def test_band_edge(self, monkeypatch):
        # within CONTACT_TOL of the surface on either side: contact, exterior,
        # no ray; farther inside: interior
        mesh = icosphere(2)
        gaps = np.array(BAND_GAPS)
        points = near_face_points(mesh, gaps)
        cast = recording_rays(monkeypatch)
        interior, contact = assert_equals_oracle(points, mesh)
        band = np.abs(gaps) <= refine.CONTACT_TOL
        assert contact == band.sum() == 4
        assert interior.tolist() == (gaps > refine.CONTACT_TOL).tolist()
        assert np.array_equal(cast[0], points[~band])

    def test_grazing_points_draw_again_alone(self, monkeypatch, caplog):
        # rays from point 1 are made to graze in their first `graze` rounds:
        # each later round casts from it alone, in a new direction, and it
        # takes the parity of its first ray that does not graze
        mesh = icosphere(2, radius=0.5)
        points = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.45, 0.0], [0.4, 0.4, 0.0]])
        ray_crossings = refine.ray_crossings
        for graze, rows, flags in ((2, [4, 1, 1], [True, True, True, False]),
                                   (refine.MAX_RAY_RETRIES, [4] + [1] * 7,
                                    [True, False, True, False])):
            calls = []

            def crossings(origins, dirs, faces):
                counts, grazing = ray_crossings(origins, dirs, faces)
                calls.append((origins.copy(), dirs.copy()))
                if len(calls) <= graze:
                    grazing = np.where(np.all(origins == points[1], axis=1), 1, grazing)
                return counts, grazing

            monkeypatch.setattr(refine, "ray_crossings", crossings)
            caplog.clear()
            interior, contact = points_interior(points, mesh)
            assert interior.tolist() == flags and contact == 0
            assert [len(origins) for origins, _ in calls] == rows
            assert all(np.array_equal(origins, points[1:2]) for origins, _ in calls[1:])
            dirs = np.concatenate([calls[0][1][1:2]] + [d for _, d in calls[1:]])
            assert len(np.unique(dirs, axis=0)) == len(dirs)
            unresolved = graze == refine.MAX_RAY_RETRIES
            assert ("ray parity unresolved for 1 points" in caplog.text) == unresolved


def point_in_mesh_fixtures():
    """(points, mesh) of each TestPointInMesh case."""
    rng = np.random.default_rng(0)
    c = cube(1.0, center=(0.2, -0.1, 0.3))
    cases = [(c.positions.mean(axis=0)[None], c),
             (np.array([[10.0, 10.0, 10.0]]), cube(1.0)),
             (rng.uniform(-1.3, 1.3, size=(1000, 3))[::4], icosphere(3)),
             (cube(1.0).positions[:1], cube(1.0))]
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.8, 0.8, size=(64, 3))
    cases.append((pts[np.abs(np.linalg.norm(pts, axis=1) - 0.5) > 1e-4], icosphere(2, radius=0.5)))
    cases.append((near_face_points(icosphere(2), BAND_GAPS), icosphere(2)))
    return cases


# perfbench's refine_pairs placements: 642-vertex spheres of 50 mm radius,
# 87.5 mm apart in three directions that meet the triangles differently
PAIR_DIRECTIONS = [(1.0, 0.0, 0.0), (0.0, 0.6, 0.8), (0.48, -0.6, 0.64)]


class TestBoxCull:
    """``points_interior`` casts no ray from a point beyond the target's box."""

    def test_flags_equal_oracle_on_point_in_mesh_fixtures(self):
        for points, mesh in point_in_mesh_fixtures():
            assert_equals_oracle(points, mesh)

    @pytest.mark.parametrize("direction", PAIR_DIRECTIONS)
    def test_flags_equal_oracle_on_overlapping_pairs(self, direction):
        target = icosphere(3, radius=0.05)
        source = target.with_positions(target.positions + 0.0875 * np.array(direction))
        for a, b in ((source, target), (target, source)):
            interior, _ = points_interior(a.positions, b)
            assert interior.any() and not interior.all()
            # every 8th vertex against the brute force: a ray tests every face
            assert_equals_oracle(a.positions[::8], b)

    def test_points_beyond_the_slack_cast_no_ray(self, monkeypatch):
        target = icosphere(2, radius=0.5, center=(0.1, -0.2, 0.3))
        faces = target.face_clusters
        slack = refine._BOX_SLACK * (1.0 + np.abs(faces.lo) + np.abs(faces.hi))
        extreme = target.positions[np.argmax(target.positions[:, 0])]
        assert extreme[0] == faces.hi[0]
        beyond = np.array([extreme + [2.0 * slack[0], 0.0, 0.0],
                           extreme + [2.0 * refine.CONTACT_TOL, 0.0, 0.0],
                           [faces.lo[0] - 2.0 * slack[0], 0.3, 0.3],
                           [0.1, faces.hi[1] + 0.1, 0.3],
                           [0.1, -0.2, faces.lo[2] - 1.0]])
        within = np.array([extreme + [0.5 * slack[0], 0.0, 0.0], [0.1, -0.2, 0.3]])
        cast = recording_rays(monkeypatch)
        points = np.concatenate([beyond, within])
        interior, contact = points_interior(points, target)
        assert not interior[:len(beyond)].any() and interior[-1]
        # the points 2 slack beyond and 0.5 slack within the box lie within
        # CONTACT_TOL of the surface: both count in contact, as in the
        # oracle, which has no box, and only the center casts
        assert contact == 2 == dense_interior(points, target)[1]
        assert [origins.tolist() for origins in cast] == [within[1:].tolist()]
        # the target's extreme vertex lies on the box and on the surface: it
        # is in contact, exterior, and casts no ray
        cast.clear()
        interior, contact = points_interior(extreme[None], target)
        assert not interior[0] and contact == 1 and cast == []

    def test_empty_soup_is_all_exterior_with_no_ray(self, monkeypatch):
        cast = recording_rays(monkeypatch)
        pts = np.random.default_rng(2).uniform(-1.0, 1.0, size=(10, 3))
        empty = TriMesh(positions=np.zeros((0, 3)), faces=np.zeros((0, 3), dtype=np.int32))
        interior, contact = points_interior(pts, empty)
        assert not interior.any() and contact == 0
        assert cast == []

    def test_empty_and_culled_inputs(self, monkeypatch, caplog):
        mesh = icosphere(2)
        cast = recording_rays(monkeypatch)
        for points in (np.zeros((0, 3)), np.full((5, 3), 3.0)):
            interior, contact = points_interior(points, mesh)
            assert interior.shape == (len(points),) and not interior.any() and contact == 0
        assert cast == [] and caplog.records == []


def column_passes(a, b, monkeypatch):
    """Both voxel passes of a plausibility report on (a, b): the column
    pass's flags, the per-center flags, and what each pass cast.

    Each pass logs the rows of its ``ray_hits`` calls (``columns``), the
    centers it sent to ``points_interior`` (``unsure``) and the origins that
    reached ``ray_crossings`` (``cast``).
    """
    h = refine.VOXEL_CM / 100.0  # the report's voxel edge, in meters
    axes = refine._voxel_axes(a, b, h)
    want = voxel_flags_per_center(axes, a, b)
    log = []
    ray_hits, ray_crossings = refine.ray_hits, refine.ray_crossings
    points_interior = refine.points_interior
    monkeypatch.setattr(refine, "ray_hits", lambda *args: log[-1]["columns"].append(
        len(args[0])) or ray_hits(*args))
    monkeypatch.setattr(refine, "ray_crossings", lambda *args: log[-1]["cast"].extend(
        map(tuple, args[0])) or ray_crossings(*args))
    monkeypatch.setattr(refine, "points_interior", lambda *args: log[-1]["unsure"].extend(
        map(tuple, args[0])) or points_interior(*args))
    got = [np.ones([x.size for x in axes], dtype=bool)]
    for mesh in (a, b):
        log.append({"columns": [], "unsure": [], "cast": []})
        got.append(refine._voxels_interior(axes, h, got[-1], mesh))
    monkeypatch.undo()
    return got, want, log


def assert_per_center_equals_oracle(a, b, want):
    """The per-center flags of a cube pair equal the brute-force oracle's
    (12 faces each, so every center can test every face)."""
    axes = refine._voxel_axes(a, b, refine.VOXEL_CM / 100.0)
    dense = voxel_flags_per_center(axes, a, b, dense_interior)
    assert all(np.array_equal(flags, dense_flags) for flags, dense_flags in zip(want, dense))


def assert_passes_match_oracle(got, want, log):
    """Flags equal the oracle's center by center, and each pass casts one
    ray per column that holds a cell plus rays from unsure centers only."""
    cells, passes = got[0], got[1:]
    along = int(np.argmax(cells.shape))
    for flags, want_flags, record in zip(passes, want, log):
        assert np.array_equal(flags, want_flags)
        assert record["columns"] == [int(cells.any(axis=along).sum())]
        assert set(record["cast"]) <= set(record["unsure"])
        assert len(set(record["unsure"])) == len(record["unsure"])
        cells = flags
    assert passes[1].any()


class TestColumnParity:
    """``_voxels_interior`` reads each center's flag from one ray per column."""

    @pytest.mark.parametrize("direction", PAIR_DIRECTIONS)
    def test_overlapping_pairs_match_per_center_oracle(self, direction, monkeypatch):
        target = icosphere(3, radius=0.05)
        source = target.with_positions(target.positions + 0.0875 * np.array(direction))
        for a, b in ((source, target), (target, source)):
            got, want, log = column_passes(a, b, monkeypatch)
            assert_passes_match_oracle(got, want, log)
            assert not got[1].all()

    @pytest.mark.parametrize("center_b, columns", [((0.05, 0.05, 0.05), 20),
                                                   ((0.1, 0.05, 0.05), 10)],
                             ids=["coincident", "half_overlap"])
    def test_columns_on_face_diagonals_fall_back(self, center_b, columns, monkeypatch):
        # grid columns run along the cubes' face diagonals, so their rays
        # graze; every center of such a column is resolved by its own rays
        a = cube(0.10, center=(0.05, 0.05, 0.05))
        b = cube(0.10, center=center_b)
        got, want, log = column_passes(a, b, monkeypatch)
        assert_passes_match_oracle(got, want, log)
        assert_per_center_equals_oracle(a, b, want)
        assert [len(record["unsure"]) for record in log] == [20 * columns] * 2
        assert got[2].sum() == 8000 * columns // 20

    def test_rotated_cube_matches_per_center_oracle(self, monkeypatch):
        a = apply_rigid(cube(0.10), rotation_matrix((1.0, 2.0, 0.5), 0.7), (0.01, 0.0, 0.0))
        b = cube(0.10, center=(0.03, 0.01, 0.0))
        got, want, log = column_passes(a, b, monkeypatch)
        assert_passes_match_oracle(got, want, log)
        assert_per_center_equals_oracle(a, b, want)
        assert not got[2].all()

    def test_centers_near_a_crossing_fall_back(self, monkeypatch):
        # the first center of each column lies on the cube's -x face, where
        # the column's ray crosses it; no column runs along a face diagonal
        mesh = cube(0.10, center=(0.05, 0.05, 0.05))
        axes = [0.01 * np.arange(10), 0.0123 + 0.02 * np.arange(4), 0.0171 + 0.02 * np.arange(4)]
        unsure = []
        points_interior = refine.points_interior
        monkeypatch.setattr(refine, "points_interior", lambda *args: unsure.extend(
            map(tuple, args[0])) or points_interior(*args))
        cells = np.ones((10, 4, 4), dtype=bool)
        flags = refine._voxels_interior(axes, 0.01, cells, mesh)
        assert len(unsure) == 16 and {p[0] for p in unsure} == {0.0}
        # a center on the surface is in contact and reads exterior
        assert not flags[0].any() and flags[1:].all()


# Refines one overlapping pair of 642-vertex spheres and prints, as JSON, a
# hash of the refined positions, both reports, the iteration count and
# the divergence flag.
REFINE_SCRIPT = """
import hashlib, json
from dataclasses import asdict
import numpy as np
from specmesh import primitives, refine

target = primitives.icosphere(3, radius=0.05)
source = target.with_positions(target.positions + 0.0875 * np.array([0.48, -0.6, 0.64]))
result = refine.refine_mesh(source, target, refine.RefineConfig(max_iters=30))
print(json.dumps({"positions": hashlib.sha256(result.mesh.positions.tobytes()).hexdigest(),
                  "before": asdict(result.before), "after": asdict(result.after),
                  "iterations": result.iterations, "diverged": result.diverged}))
"""


def test_refine_mesh_independent_of_blas_threads():
    src = str(Path(specmesh.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", REFINE_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    one, two = runs
    assert one["before"]["max_penetration_mm"] > one["after"]["max_penetration_mm"]
    assert one == two


class TestCollisionMask:
    def test_disjoint_spheres_all_false(self):
        a = icosphere(1, radius=0.5, center=(0, 0, 0))
        b = icosphere(1, radius=0.5, center=(3.0, 0, 0))
        mask = collision_mask(a, b)
        assert mask.dtype == bool and mask.shape == (a.n_vertices,)
        assert not mask.any()

    def test_contained_sphere_all_true(self):
        small = icosphere(1, radius=0.3)
        big = icosphere(2, radius=1.0)
        assert collision_mask(small, big).all()

    def test_lens_region_matches_signed_distance_oracle(self):
        a, b = overlapping_spheres()
        mask = collision_mask(a, b)
        analytic = sphere_contains(a.positions, (1.5, 0.0, 0.0), 1.0)
        assert np.array_equal(mask, analytic)
        assert mask.sum() > 0

    def test_non_watertight_target_rejected(self):
        a = icosphere(1)
        holed = TriMesh(positions=a.positions, faces=a.faces[:-1])
        with pytest.raises(ArgumentError):
            collision_mask(a, holed)

    def test_one_mesh_twice_rejected(self):
        # against its own faces a vertex always reads zero depth
        mesh = icosphere(2, radius=0.05)
        with pytest.raises(ArgumentError, match="distinct"):
            collision_mask(mesh, mesh)
        with pytest.raises(ArgumentError, match="distinct"):
            refine_mesh(mesh, mesh, RefineConfig())
        with pytest.raises(ArgumentError, match="distinct"):
            plausibility_metrics(mesh, mesh)


class TestCollisionLoss:
    """The collision term of refinement sums |x_s - y_t| over the gated pairs."""

    def test_empty_mask_zero(self):
        a, b = overlapping_spheres()
        src_idx, tgt_idx = refine._gated_pairs(a, np.zeros(a.n_vertices, dtype=bool), b)
        assert src_idx.size == 0 and tgt_idx.size == 0

    def test_single_vertex_contributes_its_distance(self):
        a, b = overlapping_spheres()
        full = collision_mask(a, b)
        v = int(np.flatnonzero(full)[0])
        single = np.zeros(a.n_vertices, dtype=bool)
        single[v] = True
        src_idx, tgt_idx = refine._gated_pairs(a, single, b)
        d2 = np.sum((b.positions - a.positions[v]) ** 2, axis=1)
        nn = int(np.argmin(d2))
        if float(a.normals[v] @ b.normals[nn]) < 0:
            assert src_idx.tolist() == [v] and tgt_idx.tolist() == [nn]
            dist = float(np.linalg.norm(a.positions[v] - b.positions[tgt_idx[0]]))
            assert abs(dist - float(np.sqrt(d2[nn]))) < 1e-12
        else:
            assert src_idx.size == 0

    def test_same_facing_pairs_gated_out(self):
        # inside a concentric sphere every vertex is interior, but its nearest
        # target vertex faces the same way, so the opposing-normal gate keeps none
        small = icosphere(1, radius=0.3)
        big = icosphere(2, radius=1.0)
        mask = collision_mask(small, big)
        assert mask.sum() == small.n_vertices == 42
        src_idx, tgt_idx = refine._gated_pairs(small, mask, big)
        assert src_idx.size == 0 and tgt_idx.size == 0

    def test_matches_double_loop_oracle(self):
        a, b = overlapping_spheres()
        mask = collision_mask(a, b)
        src_idx, tgt_idx = refine._gated_pairs(a, mask, b)
        fast = float(np.linalg.norm(a.positions[src_idx] - b.positions[tgt_idx], axis=1).sum())
        slow = collision_loss_loop(a.positions, a.normals, mask,
                                   b.positions, b.normals)
        assert slow > 0
        assert abs(fast - slow) < 1e-10


def arap_for(mesh):
    """The ``_Arap`` of a mesh's topology, at its positions as rest."""
    return refine._arap(mesh)


def arap_energy(mesh, deformed):
    """ARAP energy of a mesh at deformed positions, after the best rotations."""
    return arap_for(mesh).local(deformed)[0]


class TestArap:
    def test_rest_is_zero(self, ico162):
        energy, rot = arap_for(ico162).local(ico162.positions)
        assert energy == 0.0
        # every cell is unmoved, so every rotation is the identity exactly
        assert np.array_equal(rot, np.broadcast_to(np.eye(3), rot.shape))

    def test_rigid_motion_is_zero(self, ico162):
        rot = rotation_matrix((1.0, 2.0, 0.5), 0.9)
        moved = apply_rigid(ico162, rot, (0.3, -0.2, 1.0))
        energy, rots = arap_for(ico162).local(moved.positions)
        assert energy < 1e-8
        assert np.abs(rots - rot).max() < 1e-12

    def test_uniform_scale_energy(self, ico162):
        energy = arap_energy(ico162, 2.0 * ico162.positions)
        edges = edge_set(ico162)
        i, j = edges[:, 0], edges[:, 1]
        # optimal rotations are the identity: residual per directed edge is
        # exactly one rest edge vector
        expected = 2.0 * float(np.sum((ico162.positions[i] - ico162.positions[j]) ** 2))
        assert abs(energy - expected) / expected < 1e-12
        # direct minimization check: random rotations never beat the optimum
        rng = np.random.default_rng(0)
        e_rest = np.concatenate([ico162.positions[i] - ico162.positions[j],
                                 ico162.positions[j] - ico162.positions[i]])
        e_def = 2.0 * e_rest
        best_random = np.inf
        for _ in range(50):
            r = rotation_matrix(rng.normal(size=3), rng.uniform(0, np.pi))
            best_random = min(best_random, float(np.sum((e_def - e_rest @ r.T) ** 2)))
        assert energy <= best_random + 1e-9

    def test_nonnegative(self, ico162):
        rng = np.random.default_rng(3)
        wiggled = ico162.positions + rng.normal(scale=0.05, size=ico162.positions.shape)
        assert arap_energy(ico162, wiggled) >= 0.0

    @pytest.mark.parametrize("mesh", [icosphere(2), hand_template(159), hand_template(4023)],
                             ids=["ico", "hand", "hand4023"])
    def test_covariances_equal_add_at(self, mesh):
        # the incidence's rows sum one outer product per edge into both of its
        # cells in the order np.add.at sums the directed edges
        edges = edge_set(mesh)
        rng = np.random.default_rng(4)
        deformed = mesh.positions + rng.normal(scale=0.01, size=mesh.positions.shape)
        got = refine._arap(mesh).covariances(deformed)
        assert np.array_equal(got, arap_covariances_add_at(mesh.positions, deformed, edges))

    def test_local_energy_equals_directed_residuals(self, ico162):
        # the local step's energy, summed over both directions of each edge,
        # against the per-cell residuals of its own rotations
        rng = np.random.default_rng(5)
        deformed = ico162.positions + rng.normal(scale=0.02, size=ico162.positions.shape)
        energy, rot = arap_for(ico162).local(deformed)
        edges = edge_set(ico162)
        i, j = edges[:, 0], edges[:, 1]
        rest = ico162.positions
        total = 0.0
        for a, b in ((i, j), (j, i)):
            residual = (deformed[a] - deformed[b]
                        - np.einsum("nab,nb->na", rot[a], rest[a] - rest[b]))
            total += float(np.sum(residual**2))
        assert abs(energy - total) <= 1e-12 * total
        assert_proper_rotations(rot)


def mesh_covariances(mesh, deformed):
    """ARAP cell covariances of a mesh at deformed positions."""
    return arap_for(mesh).covariances(deformed)


def covariance_case(case, hand_mesh):
    """(V, 3, 3) covariances: perturbed meshes, then random draws."""
    rng = np.random.default_rng(6)
    if case in ("icosphere", "hand"):
        mesh = icosphere(3, radius=0.05) if case == "icosphere" else hand_mesh
        return mesh_covariances(
            mesh, mesh.positions + rng.normal(scale=5e-4, size=mesh.positions.shape))
    s = rng.normal(size=(2000, 3, 3))
    if case == "det_negative":
        s[np.linalg.det(s) > 0, 0] *= -1.0
    elif case in ("rank_2", "near_planar"):
        u, sigma, vt = np.linalg.svd(s)
        sigma[:, 2] = 0.0 if case == "rank_2" else 8e-6 * sigma[:, 0]
        s = u @ (sigma[:, :, None] * vt)
    return s


def assert_proper_rotations(r):
    assert np.abs(np.linalg.det(r) - 1.0).max() <= 1e-14
    assert np.abs(np.transpose(r, (0, 2, 1)) @ r - np.eye(3)).max() <= 1e-14


class TestBestRotations:
    """The local step's closed-form rotations against the SVD oracle."""

    @pytest.mark.parametrize("case", ["icosphere", "hand", "random", "det_negative", "rank_2",
                                      "near_planar"])
    def test_equal_svd_oracle(self, case, hand_mesh):
        s = covariance_case(case, hand_mesh)
        r = refine._best_rotations(s)
        assert np.abs(r - procrustes_rotations_svd(s)).max() <= 1e-12
        assert_proper_rotations(r)

    @pytest.mark.parametrize("case", ["icosphere_on_a_line", "hand_on_a_line", "rank_1",
                                      "special"])
    def test_non_unique_optimum_reaches_oracle_trace(self, case, hand_mesh):
        # many rotations are optimal here, so only tr(R s) is compared
        rng = np.random.default_rng(7)
        if case.endswith("on_a_line"):
            mesh = icosphere(3, radius=0.05) if case.startswith("icosphere") else hand_mesh
            s = mesh_covariances(mesh, mesh.positions * [1.0, 0.0, 0.0])
        elif case == "rank_1":
            s = rng.normal(size=(500, 3, 1)) * rng.normal(size=(500, 1, 3))
        else:
            # exact double and triple eigenvalues of Horn's 4x4 matrix
            s = np.array([np.diag(d) for d in ([1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [-1.0, -1.0, -1.0],
                                               [1.0, 1.0, -1.0], [3.0, -3.0, 0.0])])
        r = refine._best_rotations(s)
        trace = np.einsum("vij,vji->v", r, s)
        want = np.einsum("vij,vji->v", procrustes_rotations_svd(s), s)
        assert np.abs(trace - want).max() <= 1e-12 * np.abs(s).max()
        assert_proper_rotations(r)


class TestGlobalStep:
    """The banded Cholesky global step against a dense solve of its system."""

    @pytest.mark.parametrize("mesh_name", ["icosphere", "hand"])
    def test_equals_dense_solve(self, mesh_name, hand_mesh):
        mesh = icosphere(3, radius=0.05) if mesh_name == "icosphere" else hand_mesh
        n = mesh.n_vertices
        rng = np.random.default_rng(9)
        edges = edge_set(mesh)
        x = mesh.positions + rng.normal(scale=1e-3, size=mesh.positions.shape)
        rot = np.array([rotation_matrix(rng.normal(size=3), rng.uniform(0.0, 0.3))
                        for _ in range(n)])
        src_idx = np.sort(rng.choice(n, 40, replace=False))
        y = x[src_idx] + rng.normal(scale=5e-3, size=(40, 3))
        got = refine._arap(mesh).solve(x, rot, src_idx, y)
        want = arap_global_step_dense(mesh.positions, edges, x, rot, src_idx, y)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestRefineMesh:
    def test_disjoint_input_unchanged(self):
        a = icosphere(1, radius=0.04, center=(0, 0, 0))
        b = icosphere(1, radius=0.04, center=(0.3, 0, 0))
        result = refine_mesh(a, b, RefineConfig(max_iters=50))
        assert result.mesh is a
        assert result.before.max_penetration_mm == 0.0
        assert result.before.intersection_volume_cm3 == 0.0
        assert result.after.max_penetration_mm == 0.0
        assert result.stop_reason == "no_interior"
        assert result.unpaired_interior == 0

    def test_contained_sphere_has_no_pair_and_is_returned(self):
        # every vertex is interior, but the opposing-normal gate leaves no pair
        small = icosphere(1, radius=0.03)
        big = icosphere(2, radius=0.1)
        result = refine_mesh(small, big, RefineConfig())
        assert result.mesh is small
        assert result.iterations == 1
        assert result.stop_reason == "no_gated_pair"
        assert result.unpaired_interior == small.n_vertices
        assert not result.diverged

    @pytest.mark.parametrize("direction, before_mm, after", zip(
        PAIR_DIRECTIONS, (12.446842023327882, 11.936249510422211, 11.994713425330856),
        ((0.3329343158238046, 0.0), (0.8360076054366088, 0.25), (1.0019299490183475, 0.375))))
    def test_pair_placements_resolve_in_pinned_iterations(self, direction, before_mm, after):
        # the loop path on perfbench's refine_pairs placements, at the origin:
        # the first solve leaves every interior source vertex in contact. The
        # report after also counts the target's vertices inside the refined
        # source, so it can read deeper than PENETRATION_TOL
        target = icosphere(3, radius=0.05)
        source = target.with_positions(target.positions + 0.0875 * np.array(direction))
        result = refine_mesh(source, target, RefineConfig(max_iters=30))
        assert result.iterations == 2
        assert_contact(result, target)
        assert result.unpaired_interior == 0
        assert abs(result.before.max_penetration_mm - before_mm) <= 1e-9
        assert abs(result.after.max_penetration_mm - after[0]) <= 1e-9
        assert result.after.intersection_volume_cm3 == after[1]
        assert result.mesh is not source

    def test_input_in_contact_comes_back_unchanged(self):
        # a refined placement is already within PENETRATION_TOL: refining it
        # again stops at its first iterate and returns it as is
        target = icosphere(3, radius=0.05)
        source = target.with_positions(target.positions + 0.0875 * np.array(PAIR_DIRECTIONS[2]))
        refined = refine_mesh(source, target, RefineConfig(max_iters=30)).mesh
        result = refine_mesh(refined, target, RefineConfig(max_iters=30))
        assert result.iterations == 1
        assert_contact(result, target)
        assert result.mesh is refined
        assert result.after is result.before
        assert result.before.max_penetration_mm > PENETRATION_TOL * 1000.0

    @pytest.mark.parametrize("shift, unpaired", [(0.03, 39), (0.02, 51), (0.01, 65)])
    def test_deep_overlap_has_no_gated_pair(self, shift, unpaired):
        # a known failure: with the centers a radius or less apart, no interior
        # vertex passes the opposing-normal gate, so nothing moves
        a = icosphere(2, radius=0.03)
        b = icosphere(2, radius=0.03, center=(shift, 0.0, 0.0))
        result = refine_mesh(a, b, RefineConfig())
        assert result.mesh is a
        assert result.iterations == 1
        assert result.stop_reason == "no_gated_pair"
        assert result.unpaired_interior == unpaired
        assert result.after is result.before

    def test_max_iters_stops_at_the_best_iterate(self):
        # one iteration evaluates the input and takes one step, which is never
        # evaluated, so the input is the best iterate seen
        a = icosphere(2, radius=0.03, center=(0, 0, 0))
        b = icosphere(2, radius=0.03, center=(0.045, 0, 0))
        result = refine_mesh(a, b, RefineConfig(max_iters=1))
        assert result.stop_reason == "max_iters"
        assert result.iterations == 1
        assert result.mesh is a
        assert result.after is result.before
        assert result.unpaired_interior == 0  # every interior vertex has a pair
        assert not result.diverged

    def test_overlapping_spheres_resolve(self):
        # unit configuration at hand scale: radius 3 cm, centers 1.5 r apart
        a = icosphere(2, radius=0.03, center=(0, 0, 0))
        b = icosphere(2, radius=0.03, center=(0.045, 0, 0))
        result = refine_mesh(a, b, RefineConfig())
        assert result.before.max_penetration_mm > 5.0
        # the report after reads b's vertices inside the refined a too: 1.59 mm
        assert result.after.max_penetration_mm <= 0.11 * result.before.max_penetration_mm
        assert np.array_equal(result.mesh.faces, a.faces)
        assert not result.diverged
        assert_contact(result, b)
        assert result.unpaired_interior == 0
        assert result.iterations == 3

    def test_each_step_never_raises_the_held_objective(self):
        # majorize-minimize: with the mask and pairs found at x_k held, the
        # global step from x_k cannot raise collision + rigidity
        a = icosphere(2, radius=0.03, center=(0, 0, 0))
        b = icosphere(2, radius=0.03, center=(0.045, 0, 0))
        arap = arap_for(a)
        x = a.positions
        steps = 0
        for _ in range(20):
            current = a.with_positions(x)
            src_idx, tgt_idx = refine._gated_pairs(
                current, points_interior(x, b)[0], b)
            if src_idx.size == 0:
                break
            y = b.positions[tgt_idx]
            energy, rot = arap.local(x)
            held_before = np.linalg.norm(x[src_idx] - y, axis=1).sum() + energy
            x = arap.solve(x, rot, src_idx, y)
            held_after = (np.linalg.norm(x[src_idx] - y, axis=1).sum()
                          + arap.local(x)[0])
            assert held_after <= held_before * (1.0 + 1e-12)
            steps += 1
        assert steps >= 5

    def test_component_without_pairs_stays_put(self):
        # a component that holds no pair translates freely in the Laplacian,
        # so it must be left out of the solve rather than solved arbitrarily
        near = icosphere(2, radius=0.03, center=(0, 0, 0))
        far = icosphere(2, radius=0.03, center=(0, 0.2, 0))
        source = TriMesh(positions=np.concatenate([near.positions, far.positions]),
                         faces=np.concatenate([near.faces, far.faces + near.n_vertices]))
        target = icosphere(2, radius=0.03, center=(0.045, 0, 0))
        result = refine_mesh(source, target, RefineConfig())
        moved = result.mesh.positions
        assert moved[near.n_vertices:].tobytes() == far.positions.tobytes()
        assert not np.array_equal(moved[:near.n_vertices], near.positions)
        assert result.before.max_penetration_mm > 5.0
        assert_contact(result, target)
        assert not result.diverged

    def test_non_watertight_target_rejected(self):
        a = icosphere(1)
        holed = TriMesh(positions=a.positions, faces=a.faces[:-1])
        with pytest.raises(ArgumentError):
            refine_mesh(a, holed, RefineConfig())
        # a NaN or infinite position is rejected as well, naming its mesh
        source, target = overlapping_spheres(radius=0.03)
        for name, index, value in (("target", 5, np.nan), ("source", 7, np.inf),
                                   ("source", 0, np.nan), ("target", 3, -np.inf)):
            meshes = {"source": source, "target": target}
            positions = meshes[name].positions.copy()
            positions[index, 1] = value
            meshes[name] = meshes[name].with_positions(positions)
            with pytest.raises(ArgumentError, match=f"'{name}' has a NaN or infinite"):
                refine_mesh(meshes["source"], meshes["target"], RefineConfig())

    def test_vertex_on_no_face_rejected(self):
        # a stray vertex leaves the mesh watertight, but the distance bound
        # of point_triangle_dists is the nearest vertex, which must lie on
        # the surface
        source, target = overlapping_spheres(radius=0.03)
        for name in ("source", "target"):
            pair = {"source": source, "target": target}
            pair[name] = with_stray_vertex(pair[name])
            assert meshes.is_watertight(pair[name])
            with pytest.raises(ArgumentError, match=f"'{name}' has a vertex on no face"):
                refine_mesh(pair["source"], pair["target"], RefineConfig())

    def test_face_clusters_built_per_mesh_not_per_ray_call(self, monkeypatch, caplog):
        # one source vertex sits exactly on a target vertex, so every ray
        # from it would graze; it is in contact instead, and casts none
        source = icosphere(1, radius=0.03)
        target = icosphere(1, radius=0.03, center=(0.045, 0.0, 0.0))
        d2 = np.sum((source.positions[:, None] - target.positions[None]) ** 2, axis=2)
        k, m = np.unravel_index(np.argmin(d2), d2.shape)
        positions = source.positions.copy()
        positions[k] = target.positions[m]
        source = source.with_positions(positions)
        builds, cast = [], []
        morton_order, ray_crossings = kernels._morton_order, refine.ray_crossings
        monkeypatch.setattr(kernels, "_morton_order",
                            lambda c: builds.append(len(c)) or morton_order(c))
        monkeypatch.setattr(refine, "ray_crossings",
                            lambda *args: cast.append(args) or ray_crossings(*args))
        checked = []
        is_watertight = refine.is_watertight
        monkeypatch.setattr(refine, "is_watertight",
                            lambda mesh: checked.append(mesh) or is_watertight(mesh))
        result = refine_mesh(source, target, RefineConfig())
        assert result.iterations >= 3
        assert caplog.records == []
        # against the target, the vertex casts no ray
        assert any(faces is target.face_clusters for _, _, faces in cast)
        stuck = sum(int(np.all(rows == positions[k], axis=1).sum())
                    for rows, _, faces in cast if faces is target.face_clusters)
        assert stuck == 0
        # the target once for the loop and both reports, the source for the
        # report before, the refined mesh for the report after
        assert len(builds) == 3
        assert len(checked) == 2 and checked[0] is target and checked[1] is source
        assert points_interior(positions[k:k + 1], target) == (np.array([False]), 1)

    def test_outputs_do_not_depend_on_the_direction_draw(self, monkeypatch):
        # points_interior draws its rays from a generator it makes: seeded 0,
        # 1 or 2, it gives the refine_pairs placements the same output bytes
        default_rng = np.random.default_rng
        runs = []
        for seed in range(3):
            made = []
            monkeypatch.setattr(np.random, "default_rng",
                                lambda *_: made.append(seed) or default_rng(seed))
            outputs = []
            for direction in PAIR_DIRECTIONS:
                target = icosphere(3, radius=0.05)
                source = target.with_positions(target.positions + 0.0875 * np.array(direction))
                result = refine_mesh(source, target, RefineConfig(max_iters=30))
                outputs.append((result.mesh.positions.tobytes(), result.before, result.after,
                                result.iterations, result.stop_reason, result.unpaired_interior))
            assert made
            runs.append(outputs)
        assert runs[0] == runs[1] == runs[2]

    def test_config_validation(self):
        with pytest.raises(ArgumentError):
            RefineConfig(max_iters=0)


def counting_builds(monkeypatch):
    """Records what refinement builds: FaceClusters (their face counts),
    KD-trees (their points), edge counts and ARAP topologies."""
    built = {"faces": [], "trees": [], "edge_counts": 0, "arap": 0}
    morton_order, cKDTree = kernels._morton_order, scipy.spatial.cKDTree
    edge_counts, rcm = meshes._edge_counts, refine.reverse_cuthill_mckee
    monkeypatch.setattr(kernels, "_morton_order",
                        lambda c: built["faces"].append(len(c)) or morton_order(c))
    monkeypatch.setattr(scipy.spatial, "cKDTree",
                        lambda points: built["trees"].append(points) or cKDTree(points))

    def count(key, fn):
        def call(*args, **kwargs):
            built[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(meshes, "_edge_counts", count("edge_counts", edge_counts))
    monkeypatch.setattr(refine, "reverse_cuthill_mckee", count("arap", rcm))
    return built


class TestCaches:
    """Refinement builds each structure of a surface once (``TriMesh``)."""

    def test_refine_then_report_builds_each_structure_once(self, monkeypatch):
        target = icosphere(3, radius=0.05)
        source = target.with_positions(target.positions + 0.0875 * np.array(PAIR_DIRECTIONS[1]))
        built = counting_builds(monkeypatch)
        result = refine_mesh(source, target, RefineConfig(max_iters=30))
        report = plausibility_metrics(result.mesh, target)
        assert report == result.after and result.iterations == 2
        # the target, the source and the refined mesh, once each
        assert built["faces"] == [1280] * 3
        # one topology: the three meshes share it
        assert built["edge_counts"] == 1 and built["arap"] == 1
        # one vertex tree per mesh: the target's, for the pairs and the depth
        # of the source's vertices, and the source's and the refined mesh's,
        # for the depth of the target's vertices inside each
        meshes = (target, source, result.mesh)
        owners = tree_owners(built["trees"], meshes)
        assert None not in owners
        assert [o for o in owners if o[0] == "vertices"] == [
            ("vertices", 0), ("vertices", 1), ("vertices", 2)]
        # and each mesh's face center trees, once: the loop's flags and each
        # report's ask for them
        assert sorted(o for o in owners if o[0] == "faces") == [
            ("faces", i) for i, mesh in enumerate(meshes) for _ in mesh.face_trees]
        # a second report on the same meshes builds nothing
        before = {key: list(value) if isinstance(value, list) else value
                  for key, value in built.items()}
        assert plausibility_metrics(result.mesh, target) == report
        assert built == before

    def test_target_vertex_tree_built_once_per_refinement(self, monkeypatch):
        source, target = overlapping_spheres(radius=0.03)
        built = counting_builds(monkeypatch)
        nearest, queries = refine.nearest_vertex, []
        monkeypatch.setattr(refine, "nearest_vertex",
                            lambda *args: queries.append(args) or nearest(*args))
        dists, measured = refine.point_triangle_dists, []
        monkeypatch.setattr(refine, "point_triangle_dists",
                            lambda *args: measured.append(args) or dists(*args))
        result = refine_mesh(source, target, RefineConfig())
        # one query per iteration: the contact stop comes after the pairs
        assert len(queries) == result.iterations == 3
        assert all(args[2] is target.vertex_tree for args in queries)
        at_target = [t for t in built["trees"] if t is target.positions]
        assert len(at_target) == 1
        # the depth kernel bounds by the vertex tree of the surface it measures
        surfaces = (source, target, result.mesh)
        assert measured and all(
            any(args[1] is m.face_clusters and args[2] is m.vertex_tree for m in surfaces)
            for args in measured)

    def test_arap_topology_shared_by_moved_meshes(self):
        mesh = icosphere(2)
        moved = mesh.with_positions(mesh.positions + 1.0)
        assert refine._arap(moved)._t is refine._arap(mesh)._t
        other = icosphere(2)  # equal faces, but a topology of its own
        assert refine._arap(other)._t is not refine._arap(mesh)._t


class TestPlausibilityMetrics:
    def test_disjoint_zeros(self):
        a = icosphere(1, radius=0.03, center=(0, 0, 0))
        b = icosphere(1, radius=0.03, center=(0.2, 0, 0))
        report = plausibility_metrics(a, b)
        assert report.max_penetration_mm == 0.0
        assert report.intersection_volume_cm3 == 0.0

    def test_coincident_cubes_volume(self):
        a = cube(0.10, center=(0.05, 0.05, 0.05))
        b = cube(0.10, center=(0.05, 0.05, 0.05))
        report = plausibility_metrics(a, b)
        assert abs(report.intersection_volume_cm3 - 1000.0) / 1000.0 <= 0.06

    def test_half_overlapping_cubes_volume(self):
        a = cube(0.10, center=(0.0, 0.0, 0.0))
        b = cube(0.10, center=(0.05, 0.0, 0.0))
        report = plausibility_metrics(a, b)
        assert abs(report.intersection_volume_cm3 - 500.0) / 500.0 <= 0.06

    def test_oversized_voxel_grid_rejected(self):
        # 1.1 m cubes, as from meshes in the wrong unit: 220^3 voxels of 0.5 cm
        with pytest.raises(ArgumentError, match="cells; are the meshes in meters"):
            plausibility_metrics(cube(1.1), cube(1.1, center=(0.01, 0.0, 0.0)))

    def test_non_watertight_rejected(self):
        a = icosphere(1)
        holed = TriMesh(positions=a.positions, faces=a.faces[:-1])
        with pytest.raises(ArgumentError):
            plausibility_metrics(a, holed)
        # a NaN or infinite position is rejected as well, naming its mesh
        meshes = overlapping_spheres(radius=0.03)
        for k, value in ((0, np.nan), (1, np.inf), (1, np.nan), (0, -np.inf)):
            positions = meshes[k].positions.copy()
            positions[4, 2] = value
            args = list(meshes)
            args[k] = meshes[k].with_positions(positions)
            with pytest.raises(ArgumentError, match=f"'{'ab'[k]}' has a NaN or infinite"):
                plausibility_metrics(*args)

    def test_vertex_on_no_face_rejected(self):
        a, b = overlapping_spheres(radius=0.03)
        with pytest.raises(ArgumentError, match="'a' has a vertex on no face"):
            plausibility_metrics(with_stray_vertex(a), b)
        with pytest.raises(ArgumentError, match="'b' has a vertex on no face"):
            plausibility_metrics(a, with_stray_vertex(b))

    def test_checks_each_mesh_once(self, monkeypatch):
        checked = []

        def counting(mesh):
            checked.append(mesh)
            return is_watertight(mesh)

        is_watertight = refine.is_watertight
        monkeypatch.setattr(refine, "is_watertight", counting)
        a, b = overlapping_spheres(radius=0.03)
        assert plausibility_metrics(a, b).max_penetration_mm > 0
        assert len(checked) == 2 and checked[0] is a and checked[1] is b
        holed = TriMesh(positions=b.positions, faces=b.faces[:-1])
        with pytest.raises(ArgumentError):
            plausibility_metrics(holed, a)
