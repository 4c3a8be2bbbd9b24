import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specmesh
from oracles import (
    arap_covariances_add_at,
    collision_loss_loop,
    points_interior_uncut,
    sphere_contains,
    voxel_flags_per_center,
)
from specmesh import kernels, refine
from specmesh.errors import ArgumentError
from specmesh.meshes import TriMesh, edge_set
from specmesh.primitives import apply_rigid, cube, hand_template, icosphere, rotation_matrix
from specmesh.refine import (
    CollisionMask,
    RefineConfig,
    arap_energy,
    collision_mask,
    plausibility_metrics,
    points_interior,
    refine_mesh,
)


def overlapping_spheres(radius=1.0, separation=1.5):
    a = icosphere(2, radius=radius, center=(0.0, 0.0, 0.0))
    b = icosphere(2, radius=radius, center=(separation * radius, 0.0, 0.0))
    return a, b


class TestPointInMesh:
    def test_cube_centroid_inside(self):
        c = cube(1.0, center=(0.2, -0.1, 0.3))
        interior, failures = points_interior(c.positions.mean(axis=0)[None],
                                             refine._face_clusters(c), seed=0)
        assert failures == 0
        assert interior.tolist() == [True]

    def test_far_point_outside(self):
        interior, failures = points_interior(np.array([[10.0, 10.0, 10.0]]),
                                             refine._face_clusters(cube(1.0)), seed=0)
        assert failures == 0
        assert interior.tolist() == [False]

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
        interior, failures = points_interior(pts[test_idx], refine._face_clusters(mesh), seed=3)
        assert failures == 0
        analytic = sphere_contains(pts[test_idx], (0, 0, 0), 1.0)
        inside_faceted = radii[test_idx] < inradius
        assert np.array_equal(interior, inside_faceted)
        # analytic sphere agrees wherever the faceted hull is conclusive
        assert np.array_equal(interior, analytic & inside_faceted | inside_faceted)

    def test_direction_seed_invariance(self):
        mesh = icosphere(2, radius=0.5)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.8, 0.8, size=(64, 3))
        dist_to_surface = np.abs(np.linalg.norm(pts, axis=1) - 0.5)
        pts = pts[dist_to_surface > 1e-4]
        faces = refine._face_clusters(mesh)
        results = []
        for seed in range(16):
            interior, failures = points_interior(pts, faces, seed=seed)
            assert failures == 0
            results.append(interior)
        for r in results[1:]:
            assert np.array_equal(r, results[0])

    def test_surface_point_grazes_and_reads_exterior(self):
        # every ray from a corner grazes the faces that meet there, so no
        # retry resolves it; the surface bounds the interior, hence exterior
        c = cube(1.0)
        corner = c.positions[:1]
        interior, failures = points_interior(corner, refine._face_clusters(c), seed=0)
        assert failures == 1
        assert not interior[0]


def point_in_mesh_fixtures():
    """(points, mesh, seed) of each TestPointInMesh case."""
    rng = np.random.default_rng(0)
    c = cube(1.0, center=(0.2, -0.1, 0.3))
    cases = [(c.positions.mean(axis=0)[None], c, 0),
             (np.array([[10.0, 10.0, 10.0]]), cube(1.0), 0),
             (rng.uniform(-1.3, 1.3, size=(1000, 3)), icosphere(3), 3),
             (cube(1.0).positions[:1], cube(1.0), 0)]
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.8, 0.8, size=(64, 3))
    pts = pts[np.abs(np.linalg.norm(pts, axis=1) - 0.5) > 1e-4]
    cases += [(pts, icosphere(2, radius=0.5), seed) for seed in range(16)]
    return cases


# perfbench's refine_pairs placements: 642-vertex spheres of 50 mm radius,
# 87.5 mm apart in three directions that meet the triangles differently
PAIR_DIRECTIONS = [(1.0, 0.0, 0.0), (0.0, 0.6, 0.8), (0.48, -0.6, 0.64)]


class TestBoxCull:
    """``points_interior`` casts no ray from a point beyond the target's box."""

    def test_flags_equal_uncut_on_point_in_mesh_fixtures(self):
        for points, mesh, seed in point_in_mesh_fixtures():
            faces = refine._face_clusters(mesh)
            got = points_interior(points, faces, seed)
            want = points_interior_uncut(points, faces, seed)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    @pytest.mark.parametrize("direction", PAIR_DIRECTIONS)
    def test_flags_equal_uncut_on_overlapping_pairs(self, direction):
        target = icosphere(3, radius=0.05)
        source = target.with_positions(target.positions + 0.0875 * np.array(direction))
        for a, b in ((source, target), (target, source)):
            faces = refine._face_clusters(b)
            interior, failures = points_interior(a.positions, faces, seed=0)
            want, want_failures = points_interior_uncut(a.positions, faces, seed=0)
            assert np.array_equal(interior, want) and failures == want_failures
            assert interior.any() and not interior.all()

    def test_points_beyond_the_slack_cast_no_ray(self, monkeypatch):
        target = icosphere(2, radius=0.5, center=(0.1, -0.2, 0.3))
        faces = refine._face_clusters(target)
        slack = refine._BOX_SLACK * (1.0 + np.abs(faces.lo) + np.abs(faces.hi))
        extreme = target.positions[np.argmax(target.positions[:, 0])]
        assert extreme[0] == faces.hi[0]
        beyond = np.array([extreme + [2.0 * slack[0], 0.0, 0.0],
                           [faces.lo[0] - 2.0 * slack[0], 0.3, 0.3],
                           [0.1, faces.hi[1] + 0.1, 0.3],
                           [0.1, -0.2, faces.lo[2] - 1.0]])
        within = np.array([extreme + [0.5 * slack[0], 0.0, 0.0], [0.1, -0.2, 0.3]])
        cast = []
        ray_crossings = refine.ray_crossings
        monkeypatch.setattr(refine, "ray_crossings",
                            lambda *args: cast.extend(map(tuple, args[0])) or ray_crossings(*args))
        interior, _ = points_interior(np.concatenate([beyond, within]), faces, seed=0)
        assert not interior[:len(beyond)].any() and interior[-1]
        assert not set(map(tuple, beyond)) & set(cast)
        assert set(map(tuple, within)) <= set(cast)
        # the target's extreme vertex lies on the box: it casts, grazes and
        # is reported unresolved, as with no cull
        cast.clear()
        interior, failures = points_interior(extreme[None], faces, seed=0)
        assert len(cast) == refine.MAX_RAY_RETRIES
        assert failures == 1 and not interior[0]

    def test_empty_soup_is_all_exterior_with_no_ray(self, monkeypatch):
        calls = []
        monkeypatch.setattr(refine, "ray_crossings", lambda *args: calls.append(args))
        pts = np.random.default_rng(2).uniform(-1.0, 1.0, size=(10, 3))
        interior, failures = points_interior(pts, kernels.FaceClusters(np.zeros((0, 3, 3))), 0)
        assert not interior.any() and failures == 0
        assert calls == []


def column_passes(a, b, monkeypatch, seed=0):
    """Both voxel passes of a plausibility report on (a, b): the column
    pass's flags, the per-center oracle's, and what each pass cast.

    Each pass logs the rows of its ``ray_hits`` calls (``columns``), the
    centers it sent to ``points_interior`` (``unsure``) and the origins that
    reached ``ray_crossings`` (``cast``).
    """
    h = 0.005  # the report's default voxel edge, in meters
    faces_a, faces_b = refine._face_clusters(a), refine._face_clusters(b)
    axes = refine._voxel_axes(a, b, h)
    want = voxel_flags_per_center(axes, faces_a, faces_b, seed)
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
    for faces, pass_seed in ((faces_a, seed + 1), (faces_b, seed + 2)):
        log.append({"columns": [], "unsure": [], "cast": []})
        got.append(refine._voxels_interior(axes, h, got[-1], faces, pass_seed))
    return got, want, log


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
            monkeypatch.undo()

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
        assert [len(record["unsure"]) for record in log] == [20 * columns] * 2
        assert got[2].sum() == 8000 * columns // 20

    def test_rotated_cube_matches_per_center_oracle(self, monkeypatch):
        a = apply_rigid(cube(0.10), rotation_matrix((1.0, 2.0, 0.5), 0.7), (0.01, 0.0, 0.0))
        b = cube(0.10, center=(0.03, 0.01, 0.0))
        got, want, log = column_passes(a, b, monkeypatch)
        assert_passes_match_oracle(got, want, log)
        assert not got[2].all()

    def test_centers_near_a_crossing_fall_back(self, monkeypatch):
        # the first center of each column lies on the cube's -x face, where
        # the column's ray crosses it; no column runs along a face diagonal
        faces = refine._face_clusters(cube(0.10, center=(0.05, 0.05, 0.05)))
        axes = [0.01 * np.arange(10), 0.0123 + 0.02 * np.arange(4), 0.0171 + 0.02 * np.arange(4)]
        unsure = []
        points_interior = refine.points_interior
        monkeypatch.setattr(refine, "points_interior", lambda *args: unsure.extend(
            map(tuple, args[0])) or points_interior(*args))
        cells = np.ones((10, 4, 4), dtype=bool)
        flags = refine._voxels_interior(axes, 0.01, cells, faces, seed=1)
        assert len(unsure) == 16 and {p[0] for p in unsure} == {0.0}
        # a center on the surface never resolves and reads exterior
        assert not flags[0].any() and flags[1:].all()


# Refines one overlapping pair of 642-vertex spheres and prints, as JSON, a
# hash of the refined positions, both reports, the iteration count and
# the divergence flag.
REFINE_SCRIPT = """
import hashlib, json
import numpy as np
from specmesh import primitives, refine

target = primitives.icosphere(3, radius=0.05)
source = target.with_positions(target.positions + 0.0875 * np.array([0.48, -0.6, 0.64]))
result = refine.refine_mesh(source, target, refine.RefineConfig(max_iters=30))
print(json.dumps({"positions": hashlib.sha256(result.mesh.positions.tobytes()).hexdigest(),
                  "before": result.before.to_dict(), "after": result.after.to_dict(),
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
        assert not collision_mask(a, b, seed=0).interior.any()

    def test_contained_sphere_all_true(self):
        small = icosphere(1, radius=0.3)
        big = icosphere(2, radius=1.0)
        assert collision_mask(small, big, seed=0).interior.all()

    def test_lens_region_matches_signed_distance_oracle(self):
        a, b = overlapping_spheres()
        mask = collision_mask(a, b, seed=0)
        analytic = sphere_contains(a.positions, (1.5, 0.0, 0.0), 1.0)
        assert np.array_equal(mask.interior, analytic)
        assert mask.interior.sum() > 0

    def test_non_watertight_target_rejected(self):
        a = icosphere(1)
        holed = TriMesh(positions=a.positions, faces=a.faces[:-1])
        with pytest.raises(ArgumentError):
            collision_mask(a, holed, seed=0)

    def test_one_mesh_twice_rejected(self):
        # against its own faces a vertex always reads zero depth
        mesh = icosphere(2, radius=0.05)
        with pytest.raises(ArgumentError, match="distinct"):
            collision_mask(mesh, mesh, seed=0)
        with pytest.raises(ArgumentError, match="distinct"):
            refine_mesh(mesh, mesh, RefineConfig())
        with pytest.raises(ArgumentError, match="distinct"):
            plausibility_metrics(mesh, mesh)


class TestCollisionLoss:
    """The collision term of refinement sums |x_s - y_t| over the gated pairs."""

    def test_empty_mask_zero(self):
        a, b = overlapping_spheres()
        mask = CollisionMask(interior=np.zeros(a.n_vertices, dtype=bool))
        src_idx, tgt_idx = refine._gated_pairs(a, mask, b)
        assert src_idx.size == 0 and tgt_idx.size == 0

    def test_single_vertex_contributes_its_distance(self):
        a, b = overlapping_spheres()
        full = collision_mask(a, b, seed=0)
        v = int(np.flatnonzero(full.interior)[0])
        single = np.zeros(a.n_vertices, dtype=bool)
        single[v] = True
        src_idx, tgt_idx = refine._gated_pairs(a, CollisionMask(interior=single), b)
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
        mask = collision_mask(small, big, seed=0)
        assert mask.interior.sum() == small.n_vertices == 42
        src_idx, tgt_idx = refine._gated_pairs(small, mask, big)
        assert src_idx.size == 0 and tgt_idx.size == 0

    def test_matches_double_loop_oracle(self):
        a, b = overlapping_spheres()
        mask = collision_mask(a, b, seed=0)
        src_idx, tgt_idx = refine._gated_pairs(a, mask, b)
        fast = float(np.linalg.norm(a.positions[src_idx] - b.positions[tgt_idx], axis=1).sum())
        slow = collision_loss_loop(a.positions, a.normals, mask.interior,
                                   b.positions, b.normals)
        assert slow > 0
        assert abs(fast - slow) < 1e-10


class TestArap:
    def test_rest_is_zero(self, ico162):
        assert arap_energy(ico162, ico162.positions) == 0.0

    def test_rigid_motion_is_zero(self, ico162):
        rot = rotation_matrix((1.0, 2.0, 0.5), 0.9)
        moved = apply_rigid(ico162, rot, (0.3, -0.2, 1.0))
        assert arap_energy(ico162, moved.positions) < 1e-8

    def test_uniform_scale_energy(self, ico162):
        energy = arap_energy(ico162, 2.0 * ico162.positions)
        es = edge_set(ico162)
        # optimal rotations are the identity: residual per directed edge is
        # exactly one rest edge vector
        expected = 2.0 * float(np.sum(es.lengths**2))
        assert abs(energy - expected) / expected < 1e-12
        # direct minimization check: random rotations never beat the optimum
        rng = np.random.default_rng(0)
        edges = es.edges
        i, j = edges[:, 0], edges[:, 1]
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

    @pytest.mark.parametrize("mesh", [icosphere(2), hand_template(159)], ids=["ico", "hand"])
    def test_covariances_equal_add_at(self, mesh):
        # the owner matrix's product sums each cell's rows as np.add.at does
        edges = edge_set(mesh).edges.astype(np.int64)
        rng = np.random.default_rng(4)
        deformed = mesh.positions + rng.normal(scale=0.01, size=mesh.positions.shape)
        got, _, _ = refine._cell_covariances(mesh.positions, deformed, edges,
                                             refine._owner_sum(edges, mesh.n_vertices))
        assert np.array_equal(got, arap_covariances_add_at(mesh.positions, deformed, edges))

    def test_shape_mismatch_rejected(self, ico162):
        with pytest.raises(ArgumentError):
            arap_energy(ico162, ico162.positions[:-1])


class TestRefineMesh:
    def test_disjoint_input_unchanged(self):
        a = icosphere(1, radius=0.04, center=(0, 0, 0))
        b = icosphere(1, radius=0.04, center=(0.3, 0, 0))
        result = refine_mesh(a, b, RefineConfig(max_iters=50))
        assert result.mesh is a
        assert result.before.max_penetration_mm == 0.0
        assert result.before.intersection_volume_cm3 == 0.0
        assert result.after.max_penetration_mm == 0.0

    def test_contained_sphere_has_no_pair_and_is_returned(self):
        # every vertex is interior, but the opposing-normal gate leaves no pair
        small = icosphere(1, radius=0.03)
        big = icosphere(2, radius=0.1)
        result = refine_mesh(small, big, RefineConfig())
        assert result.mesh is small
        assert result.iterations == 1

    def test_overlapping_spheres_resolve(self):
        # unit configuration at hand scale: radius 3 cm, centers 1.5 r apart
        a = icosphere(2, radius=0.03, center=(0, 0, 0))
        b = icosphere(2, radius=0.03, center=(0.045, 0, 0))
        result = refine_mesh(a, b, RefineConfig(arap_weight=1.0))
        assert result.before.max_penetration_mm > 5.0
        assert result.after.max_penetration_mm <= 0.05 * result.before.max_penetration_mm
        assert result.after.max_penetration_mm <= result.before.max_penetration_mm
        assert np.array_equal(result.mesh.faces, a.faces)
        assert not result.diverged
        assert result.iterations <= 20

    def test_each_step_never_raises_the_held_objective(self):
        # majorize-minimize: with the mask and pairs found at x_k held, the
        # global step from x_k cannot raise collision + w * rigidity
        a = icosphere(2, radius=0.03, center=(0, 0, 0))
        b = icosphere(2, radius=0.03, center=(0.045, 0, 0))
        weight = 1.0
        edges = edge_set(a).edges.astype(np.int64)
        step = refine._GlobalStep(a.positions, edges, weight)
        owner_sum = refine._owner_sum(edges, a.n_vertices)
        x = a.positions
        b_faces = refine._face_clusters(b)
        steps = 0
        for _ in range(20):
            current = a.with_positions(x)
            src_idx, tgt_idx = refine._gated_pairs(
                current, refine._collision_mask(current, b_faces, seed=0), b)
            if src_idx.size == 0:
                break
            y = b.positions[tgt_idx]
            energy, rot = refine._arap_local(a.positions, x, edges, owner_sum)
            held_before = np.linalg.norm(x[src_idx] - y, axis=1).sum() + weight * energy
            x = step(x, rot, src_idx, y)
            held_after = (np.linalg.norm(x[src_idx] - y, axis=1).sum()
                          + weight * arap_energy(a, x))
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
        assert result.after.max_penetration_mm == 0.0
        assert not result.diverged

    def test_non_watertight_target_rejected(self):
        a = icosphere(1)
        holed = TriMesh(positions=a.positions, faces=a.faces[:-1])
        with pytest.raises(ArgumentError):
            refine_mesh(a, holed, RefineConfig())

    def test_face_clusters_built_per_mesh_not_per_ray_call(self, monkeypatch, caplog):
        # one source vertex sits exactly on a target vertex, so every ray
        # from it grazes and points_interior spends all its retry rounds
        source = icosphere(1, radius=0.03)
        target = icosphere(1, radius=0.03, center=(0.045, 0.0, 0.0))
        d2 = np.sum((source.positions[:, None] - target.positions[None]) ** 2, axis=2)
        k, m = np.unravel_index(np.argmin(d2), d2.shape)
        positions = source.positions.copy()
        positions[k] = target.positions[m]
        source = source.with_positions(positions)
        builds, ray_calls = [], []
        morton_order, ray_crossings = kernels._morton_order, refine.ray_crossings
        monkeypatch.setattr(kernels, "_morton_order",
                            lambda c: builds.append(len(c)) or morton_order(c))
        monkeypatch.setattr(refine, "ray_crossings",
                            lambda *args: ray_calls.append(len(args[0])) or ray_crossings(*args))
        result = refine_mesh(source, target, RefineConfig())
        assert result.iterations >= 3
        assert "ray parity unresolved" in caplog.text
        assert len(ray_calls) > 40
        # two meshes for the report before, the target for the whole loop,
        # two meshes for the report after
        assert len(builds) == 5

    def test_config_validation(self):
        with pytest.raises(ArgumentError):
            RefineConfig(max_iters=0)
        with pytest.raises(ArgumentError):
            RefineConfig(arap_weight=-1.0)

    def test_zero_arap_weight_rejected(self):
        # with no rigidity term the global step has no unique solution
        with pytest.raises(ArgumentError):
            RefineConfig(arap_weight=0.0)


class TestPlausibilityMetrics:
    def test_disjoint_zeros(self):
        a = icosphere(1, radius=0.03, center=(0, 0, 0))
        b = icosphere(1, radius=0.03, center=(0.2, 0, 0))
        report = plausibility_metrics(a, b)
        assert report.max_penetration_mm == 0.0
        assert report.intersection_volume_cm3 == 0.0
        assert report.voxel_size_cm == 0.5

    def test_coincident_cubes_volume(self):
        a = cube(0.10, center=(0.05, 0.05, 0.05))
        b = cube(0.10, center=(0.05, 0.05, 0.05))
        report = plausibility_metrics(a, b, voxel_cm=0.5)
        assert abs(report.intersection_volume_cm3 - 1000.0) / 1000.0 <= 0.06

    def test_half_overlapping_cubes_volume(self):
        a = cube(0.10, center=(0.0, 0.0, 0.0))
        b = cube(0.10, center=(0.05, 0.0, 0.0))
        report = plausibility_metrics(a, b, voxel_cm=0.5)
        assert abs(report.intersection_volume_cm3 - 500.0) / 500.0 <= 0.06

    def test_non_watertight_rejected(self):
        a = icosphere(1)
        holed = TriMesh(positions=a.positions, faces=a.faces[:-1])
        with pytest.raises(ArgumentError):
            plausibility_metrics(a, holed)

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

    def test_bad_voxel_rejected(self):
        a, b = overlapping_spheres(radius=0.03)
        with pytest.raises(ArgumentError):
            plausibility_metrics(a, b, voxel_cm=0.0)
