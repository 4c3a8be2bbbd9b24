"""Inference-time mesh refinement and plausibility metrics.

Interior vertices are found by ray-parity tests (seeded directions, grazing
hits retried), pulled toward their nearest opposing-normal vertex on the
other surface, and regularized by an as-rigid-as-possible energy with
closed-form per-cell rotations. Plausibility is reported as maximum
penetration depth (mm) and voxelized intersection volume (cm^3).

Meshes are in meters; watertightness is required wherever parity or volume
is computed.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericalError
from .kernels import nearest_vertex, point_triangle_dists, ray_crossings
from .meshes import TriMesh, edge_set, is_watertight

_LOGGER = logging.getLogger(__name__)

MAX_RAY_RETRIES = 8
_SELF_OFFSET_FACTOR = 1e-3  # of mean edge length, along the vertex normal
_MAX_VOXELS = 4_000_000


@dataclass(frozen=True)
class CollisionMask:
    """Per-vertex interior flags against a watertight target surface."""

    interior: np.ndarray  # (V,) bool
    ray_failures: int = 0  # points whose retries ran out (treated exterior)

    @property
    def any(self) -> bool:
        return bool(self.interior.any())


@dataclass(frozen=True)
class RefineConfig:
    arap_weight: float = 1.0
    max_iters: int = 200
    step_size: float = 1e-2
    convergence_tol: float = 1e-7
    ray_direction_seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ArgumentError("max_iters must be >= 1")
        if not self.step_size > 0:
            raise ArgumentError("step_size must be positive")
        if self.arap_weight < 0:
            raise ArgumentError("arap_weight must be >= 0")


@dataclass(frozen=True)
class PlausibilityReport:
    max_penetration_mm: float
    intersection_volume_cm3: float
    voxel_size_cm: float

    def to_dict(self) -> dict:
        return {
            "max_penetration_mm": self.max_penetration_mm,
            "intersection_volume_cm3": self.intersection_volume_cm3,
            "voxel_size_cm": self.voxel_size_cm,
        }


@dataclass
class RefineResult:
    mesh: TriMesh
    before: PlausibilityReport
    after: PlausibilityReport
    diverged: bool
    iterations: int


def _random_directions(n: int, rng: np.random.Generator) -> np.ndarray:
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def points_interior(points: np.ndarray, mesh: TriMesh, seed: int):
    """Ray-parity interior test for a batch of points.

    Grazing rays are retried with fresh seeded directions up to
    MAX_RAY_RETRIES times; points that never resolve are reported exterior
    and counted in the second return value.
    """
    tri = mesh.positions[mesh.faces]
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    interior = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for _ in range(MAX_RAY_RETRIES):
        if active.size == 0:
            break
        dirs = _random_directions(active.size, rng)
        counts, grazing = ray_crossings(points[active], dirs, tri)
        ok = grazing == 0
        interior[active[ok]] = (counts[ok] % 2) == 1
        active = active[~ok]
    failures = int(active.size)
    if failures:
        _LOGGER.warning("ray parity unresolved for %d points; treated exterior", failures)
    return interior, failures


def point_in_mesh(p, mesh: TriMesh, seed: int = 0) -> bool:
    """True iff a seeded random ray from p crosses the surface oddly.

    Raises:
        ArgumentError: mesh is not watertight.
    """
    if not is_watertight(mesh):
        raise ArgumentError("point_in_mesh requires a watertight mesh")
    interior, failures = points_interior(np.asarray(p, float).reshape(1, 3), mesh, seed)
    if failures:
        raise NumericalError("ray parity unresolved after retries")
    return bool(interior[0])


def collision_mask(source: TriMesh, target: TriMesh, seed: int = 0) -> CollisionMask:
    """Interior flags of source vertices against the target surface.

    Pass the same mesh object twice for self-penetration: origins are then
    nudged outward along the vertex normal, so healthy surface points test
    exterior.

    Raises:
        ArgumentError: target is not watertight.
    """
    if not is_watertight(target):
        raise ArgumentError("collision mask requires a watertight target")
    return _collision_mask(source, target, seed)


def _collision_mask(source: TriMesh, target: TriMesh, seed: int) -> CollisionMask:
    """``collision_mask`` without the watertightness check."""
    if source is target:
        # Nudging each origin just off its own surface keeps full-surface
        # parity meaningful: a healthy vertex tests exterior from either
        # side of its sheet, a penetrated one stays wrapped by the other
        # sheet. Excluding the incident fan instead would punch a hole in
        # the closed surface and flip the parity of rays passing through it.
        eps = _SELF_OFFSET_FACTOR * float(edge_set(source).lengths.mean())
        origins = source.positions + eps * source.normals
        interior, failures = points_interior(origins, target, seed)
    else:
        interior, failures = points_interior(source.positions, target, seed)
    return CollisionMask(interior=interior, ray_failures=failures)


def _gated_pairs(source: TriMesh, mask: CollisionMask, target: TriMesh):
    """(source idx, target idx) pairs that pass the opposing-normal gate."""
    masked = np.flatnonzero(mask.interior)
    if masked.size == 0:
        return masked, masked
    self_mode = source is target
    exclude = masked if self_mode else None
    nn_idx, _ = nearest_vertex(source.positions[masked], target.positions, exclude)
    dots = np.einsum("ij,ij->i", source.normals[masked], target.normals[nn_idx])
    keep = dots < 0.0
    return masked[keep], nn_idx[keep]


def collision_loss(source: TriMesh, mask: CollisionMask, target: TriMesh) -> float:
    """Sum of distances from masked vertices to their nearest target vertex,
    counted only when the two vertex normals oppose."""
    if mask.interior.shape[0] != source.n_vertices:
        raise ArgumentError("mask does not match source vertex count")
    src_idx, tgt_idx = _gated_pairs(source, mask, target)
    if src_idx.size == 0:
        return 0.0
    return float(np.linalg.norm(
        source.positions[src_idx] - target.positions[tgt_idx], axis=1).sum())


def _collision_grad(source: TriMesh, mask: CollisionMask, target: TriMesh):
    """(loss, d loss / d source positions, source idx, target idx) with the
    gated pairs held fixed."""
    grad = np.zeros_like(source.positions)
    src_idx, tgt_idx = _gated_pairs(source, mask, target)
    if src_idx.size == 0:
        return 0.0, grad, src_idx, tgt_idx
    diff = source.positions[src_idx] - target.positions[tgt_idx]
    dist = np.linalg.norm(diff, axis=1)
    unit = diff / np.maximum(dist, 1e-12)[:, None]
    np.add.at(grad, src_idx, unit)
    if source is target:
        np.add.at(grad, tgt_idx, -unit)
    return float(dist.sum()), grad, src_idx, tgt_idx


def _arap_rotations(rest: np.ndarray, deformed: np.ndarray, edges: np.ndarray,
                    n_vertices: int):
    """Per-cell optimal rotations (orthogonal Procrustes with det +1)."""
    i, j = edges[:, 0], edges[:, 1]
    e_rest = np.concatenate([rest[i] - rest[j], rest[j] - rest[i]])
    e_def = np.concatenate([deformed[i] - deformed[j], deformed[j] - deformed[i]])
    owner = np.concatenate([i, j])
    s = np.zeros((n_vertices, 3, 3))
    np.add.at(s, owner, e_rest[:, :, None] * e_def[:, None, :])
    degenerate = np.linalg.norm(s, axis=(1, 2)) < 1e-30
    if degenerate.any():
        _LOGGER.warning("%d degenerate cells skipped in rigidity energy",
                        int(degenerate.sum()))
        s[degenerate] = np.eye(3)
    u, _, vt = np.linalg.svd(s)
    r = np.transpose(vt, (0, 2, 1)) @ np.transpose(u, (0, 2, 1))
    dets = np.linalg.det(r)
    flip = dets < 0
    if flip.any():
        vt_f = vt[flip].copy()
        vt_f[:, -1, :] *= -1.0
        r[flip] = np.transpose(vt_f, (0, 2, 1)) @ np.transpose(u[flip], (0, 2, 1))
    # the SVD of an unmoved cell rounds to a rotation a few ulp off identity
    moved = np.any(e_def != e_rest, axis=1)
    r[np.bincount(owner, weights=moved, minlength=n_vertices) == 0] = np.eye(3)
    return r, owner, e_rest, e_def


def arap_energy(rest: TriMesh, deformed_positions: np.ndarray) -> float:
    """Sum over cells of the residual after the best per-cell rotation.

    Zero exactly for rigid motions; grows with local stretching or shear.
    """
    deformed_positions = np.asarray(deformed_positions, dtype=np.float64)
    if deformed_positions.shape != rest.positions.shape:
        raise ArgumentError("deformed positions must match rest topology")
    return _arap_energy(rest, deformed_positions, edge_set(rest).edges.astype(np.int64))


def _arap_residual(rest: TriMesh, deformed: np.ndarray, edges: np.ndarray):
    """Per half-edge residual after the best per-cell rotation."""
    r, owner, e_rest, e_def = _arap_rotations(rest.positions, deformed, edges,
                                              rest.n_vertices)
    return e_def - np.einsum("nab,nb->na", r[owner], e_rest)


def _arap_energy(rest: TriMesh, deformed: np.ndarray, edges: np.ndarray) -> float:
    """``arap_energy`` on precomputed edges, without the shape check."""
    return float(np.sum(_arap_residual(rest, deformed, edges)**2))


def _arap_grad(rest: TriMesh, deformed: np.ndarray, edges: np.ndarray):
    """(energy, gradient) with rotations held at their per-cell optimum."""
    residual = _arap_residual(rest, deformed, edges)
    energy = float(np.sum(residual**2))
    grad = np.zeros_like(deformed)
    half = edges.shape[0]
    i, j = edges[:, 0], edges[:, 1]
    np.add.at(grad, i, 2.0 * residual[:half])
    np.add.at(grad, j, -2.0 * residual[:half])
    np.add.at(grad, j, 2.0 * residual[half:])
    np.add.at(grad, i, -2.0 * residual[half:])
    return energy, grad


def refine_mesh(source: TriMesh, target: TriMesh, config: RefineConfig) -> RefineResult:
    """Push interior vertices out of the target while keeping the source
    shape locally rigid.

    Gradient descent with backtracking line search on
    ``collision + arap_weight * rigidity``; the interior mask is recomputed
    every iteration. Returns the best iterate (never worse than the input)
    with before/after plausibility reports; topology is untouched.

    Raises:
        ArgumentError: target is not watertight.
    """
    if not is_watertight(target):
        raise ArgumentError("refinement requires a watertight target")
    self_mode = source is target
    before = plausibility_metrics(source, source if self_mode else target)
    rest = source
    edges = edge_set(rest).edges.astype(np.int64)
    x = source.positions.copy()
    best_x = x.copy()
    best_loss = np.inf
    prev_loss = np.inf
    rises = 0
    diverged = False
    iterations = 0
    for it in range(config.max_iters):
        iterations = it + 1
        current = rest.with_positions(x)
        opposite = current if self_mode else target
        mask = _collision_mask(current, opposite, config.ray_direction_seed)
        col_loss, col_grad, src_idx, tgt_idx = _collision_grad(current, mask, opposite)
        if config.arap_weight > 0:
            arap_val, arap_g = _arap_grad(rest, x, edges)
        else:
            arap_val, arap_g = 0.0, np.zeros_like(x)
        loss = col_loss + config.arap_weight * arap_val
        if loss < best_loss:
            best_loss = loss
            best_x = x.copy()
        if it == 0 and col_loss == 0.0 and not mask.any:
            # nothing penetrates: the input is already the answer
            return RefineResult(mesh=source, before=before, after=before,
                                diverged=False, iterations=1)
        if abs(prev_loss - loss) < config.convergence_tol:
            break
        if loss > prev_loss:
            rises += 1
            if rises >= 10:
                diverged = True
                break
        else:
            rises = 0
        prev_loss = loss
        grad = col_grad + config.arap_weight * arap_g
        gnorm2 = float(np.sum(grad**2))
        if gnorm2 == 0.0:
            break
        step = config.step_size

        def surrogate(pos):
            # collision pairs and gates frozen for the line search
            val = 0.0
            if src_idx.size:
                anchors = pos[tgt_idx] if self_mode else target.positions[tgt_idx]
                val += float(np.linalg.norm(pos[src_idx] - anchors, axis=1).sum())
            if config.arap_weight > 0:
                val += config.arap_weight * _arap_energy(rest, pos, edges)
            return val

        base = loss  # the surrogate at x
        accepted = False
        for _ in range(20):
            candidate = x - step * grad
            if surrogate(candidate) <= base - 1e-4 * step * gnorm2:
                x = candidate
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    refined = rest.with_positions(best_x)
    after = plausibility_metrics(refined, refined if self_mode else target)
    return RefineResult(mesh=refined, before=before, after=after,
                        diverged=diverged, iterations=iterations)


def plausibility_metrics(a: TriMesh, b: TriMesh, voxel_cm: float = 0.5,
                         seed: int = 0) -> PlausibilityReport:
    """Maximum penetration depth and voxelized intersection volume.

    Penetration is the largest distance from an interior vertex of either
    mesh to the other surface, in millimeters. Volume counts voxel centers
    (edge ``voxel_cm``) interior to both meshes.

    Raises:
        ArgumentError: a mesh is not watertight or the voxel grid would
            exceed the supported size.
    """
    if not voxel_cm > 0:
        raise ArgumentError("voxel_cm must be positive")
    self_mode = a is b
    for mesh in (a, b):
        if not is_watertight(mesh):
            raise ArgumentError("plausibility metrics require watertight meshes")
    if self_mode:
        mask = collision_mask(a, a, seed)
        interior_pts = a.positions[mask.interior]
        tri = a.positions[a.faces]
        max_pen = float(point_triangle_dists(interior_pts, tri).max()) if interior_pts.size else 0.0
        return PlausibilityReport(max_penetration_mm=1000.0 * max_pen,
                                  intersection_volume_cm3=0.0, voxel_size_cm=voxel_cm)
    pen = 0.0
    for src, dst in ((a, b), (b, a)):
        mask = collision_mask(src, dst, seed)
        pts = src.positions[mask.interior]
        if pts.size:
            pen = max(pen, float(point_triangle_dists(pts, dst.positions[dst.faces]).max()))
    h = voxel_cm / 100.0  # meters
    lo = np.maximum(a.positions.min(axis=0), b.positions.min(axis=0))
    hi = np.minimum(a.positions.max(axis=0), b.positions.max(axis=0))
    volume = 0.0
    if np.all(hi > lo):
        steps = np.maximum(np.ceil((hi - lo) / h).astype(np.int64), 1)
        if int(np.prod(steps)) > _MAX_VOXELS:
            raise ArgumentError(
                f"voxel grid {steps.tolist()} exceeds {_MAX_VOXELS} cells; "
                "increase voxel_cm")
        axes = [lo[c] + h * (np.arange(steps[c]) + 0.5) for c in range(3)]
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        centers = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
        in_a, _ = points_interior(centers, a, seed + 1)
        candidates = centers[in_a]
        if candidates.size:
            in_b, _ = points_interior(candidates, b, seed + 2)
            volume = float(in_b.sum()) * voxel_cm**3
    return PlausibilityReport(max_penetration_mm=1000.0 * pen,
                              intersection_volume_cm3=volume, voxel_size_cm=voxel_cm)
