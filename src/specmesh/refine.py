"""Inference-time mesh refinement and plausibility metrics.

Interior vertices are found by ray-parity tests (seeded directions, grazing
hits retried; a point beyond the target's bounding box is exterior without a
ray, which spares most of the source's vertices) and pulled toward their
nearest opposing-normal vertex on the other surface, while an
as-rigid-as-possible energy keeps the source locally rigid. Refinement
alternates ARAP's local step (closed-form per-cell rotations) with a global
step, one sparse linear solve in which the L1 pull is reweighted least
squares; it stops when no vertex penetrates.
Plausibility is reported as maximum penetration depth (mm) and voxelized
intersection volume (cm^3). The volume reads the centers of a voxel grid by
scanline parity (Nooruddin & Turk, TVCG 2003): one ray per grid column,
along the grid's longest axis, and a center is inside when an odd number of
the ray's crossings lie past it. Only the centers of a column whose ray
grazes, or that lie within ``_EPS_T`` of a crossing, cast rays of their own.

Every check is between two distinct meshes, as for the two hands: passing
one mesh object as both source and target is rejected, because a vertex
measured against its own surface always reads zero depth.

Meshes are in meters; watertightness is required wherever parity or volume
is computed.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .errors import ArgumentError
from .kernels import (FaceClusters, _EPS_T, nearest_vertex, point_triangle_dists, ray_crossings,
                      ray_hits)
from .meshes import TriMesh, edge_set, is_watertight

_LOGGER = logging.getLogger(__name__)

MAX_RAY_RETRIES = 8
_MAX_VOXELS = 4_000_000
_DIST_FLOOR = 1e-9  # meters; caps a pair's collision weight 1 / d in the solve
_BOX_SLACK = 1e-9  # relative growth of the target's box before a point counts as beyond it


@dataclass(frozen=True)
class CollisionMask:
    """Per-vertex interior flags against a watertight target surface."""

    interior: np.ndarray  # (V,) bool

    @property
    def any(self) -> bool:
        return bool(self.interior.any())


@dataclass(frozen=True)
class RefineConfig:
    arap_weight: float = 1.0
    max_iters: int = 200
    convergence_tol: float = 1e-7

    def __post_init__(self):
        if self.max_iters < 1:
            raise ArgumentError("max_iters must be >= 1")
        # with no rigidity term the global step has no unique solution
        if not self.arap_weight > 0:
            raise ArgumentError("arap_weight must be positive")


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


def _face_clusters(mesh: TriMesh) -> FaceClusters:
    """The mesh's faces, prepared for the triangle kernels."""
    return FaceClusters(mesh.positions[mesh.faces])


def points_interior(points: np.ndarray, faces: FaceClusters, seed: int):
    """Ray-parity interior test for a batch of points against a surface.

    ``faces`` is the surface's ``FaceClusters``; every retry round reuses it.
    Grazing rays are retried with fresh seeded directions up to
    MAX_RAY_RETRIES times; points that never resolve are reported exterior
    and counted in the second return value. A point on the surface, such as
    a vertex that coincides with a vertex of the other mesh to rounding,
    never resolves: every ray from it grazes the surface at its origin. The
    surface is the boundary of the interior, so exterior is the right answer
    there too.

    A watertight surface's interior lies inside its box (``faces.lo``,
    ``faces.hi``), so a point beyond the box on any axis by more than
    ``_BOX_SLACK * (1 + |lo| + |hi|)`` is exterior and casts no ray; a point
    on the box, such as the surface's extreme vertex, casts rays as any
    other. The first round draws directions for every point and then drops
    those beyond the box, so each point that casts gets the direction it
    would get with no cull, and so does every retry unless a ray from beyond
    the box would have grazed.
    """
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    interior = np.zeros(n, dtype=bool)
    slack = _BOX_SLACK * (1.0 + np.abs(faces.lo) + np.abs(faces.hi))
    with np.errstate(invalid="ignore"):  # an empty soup's box gives inf - inf: no point is in
        in_box = np.all((points >= faces.lo - slack) & (points <= faces.hi + slack), axis=1)
    active = np.arange(n)
    for _ in range(MAX_RAY_RETRIES):
        dirs = _random_directions(active.size, rng)
        cast = in_box[active]
        active, dirs = active[cast], dirs[cast]
        if active.size == 0:
            break
        counts, grazing = ray_crossings(points[active], dirs, faces)
        ok = grazing == 0
        interior[active[ok]] = (counts[ok] % 2) == 1
        active = active[~ok]
    failures = int(active.size)
    if failures:
        _LOGGER.warning("ray parity unresolved for %d points; treated exterior", failures)
    return interior, failures


def _reject_self(source: TriMesh, target: TriMesh, what: str) -> None:
    if source is target:
        raise ArgumentError(f"{what} needs two distinct meshes; got one mesh twice")


def collision_mask(source: TriMesh, target: TriMesh, seed: int = 0) -> CollisionMask:
    """Interior flags of source vertices against the target surface.

    Raises:
        ArgumentError: source and target are one mesh, or target is not
            watertight.
    """
    _reject_self(source, target, "collision mask")
    if not is_watertight(target):
        raise ArgumentError("collision mask requires a watertight target")
    return _collision_mask(source, _face_clusters(target), seed)


def _collision_mask(source: TriMesh, target_faces: FaceClusters, seed: int) -> CollisionMask:
    """``collision_mask`` without its checks, on the target's ``FaceClusters``."""
    interior, _ = points_interior(source.positions, target_faces, seed)
    return CollisionMask(interior=interior)


def _gated_pairs(source: TriMesh, mask: CollisionMask, target: TriMesh):
    """(source idx, target idx) pairs that pass the opposing-normal gate."""
    masked = np.flatnonzero(mask.interior)
    if masked.size == 0:
        return masked, masked
    nn_idx, _ = nearest_vertex(source.positions[masked], target.positions)
    dots = np.einsum("ij,ij->i", source.normals[masked], target.normals[nn_idx])
    keep = dots < 0.0
    return masked[keep], nn_idx[keep]


def _owner_sum(edges: np.ndarray, n_vertices: int) -> sp.csr_matrix:
    """(V, 2E) matrix of ones that sums each directed edge's row into the
    cell that owns it: edge (i, j) as i -> j into cell i, then as j -> i into
    cell j. Each row's entries run in edge order, so its product sums them
    in the order ``np.add.at`` would, to the same bits."""
    owner = np.concatenate([edges[:, 0], edges[:, 1]])
    return sp.csr_matrix((np.ones(owner.size), (owner, np.arange(owner.size))),
                         shape=(n_vertices, owner.size))


def _cell_covariances(rest: np.ndarray, deformed: np.ndarray, edges: np.ndarray,
                      owner_sum: sp.csr_matrix):
    """(V, 3, 3) sums of e_rest e_def^T over each cell's directed edges,
    with the (2E, 3) directed rest and deformed edge vectors."""
    i, j = edges[:, 0], edges[:, 1]
    e_rest = np.concatenate([rest[i] - rest[j], rest[j] - rest[i]])
    e_def = np.concatenate([deformed[i] - deformed[j], deformed[j] - deformed[i]])
    outer = (e_rest[:, :, None] * e_def[:, None, :]).reshape(-1, 9)
    return (owner_sum @ outer).reshape(-1, 3, 3), e_rest, e_def


def _arap_rotations(rest: np.ndarray, deformed: np.ndarray, edges: np.ndarray,
                    owner_sum: sp.csr_matrix):
    """Per-cell optimal rotations (orthogonal Procrustes with det +1)."""
    s, e_rest, e_def = _cell_covariances(rest, deformed, edges, owner_sum)
    owner = np.concatenate([edges[:, 0], edges[:, 1]])
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
    r[np.bincount(owner, weights=moved, minlength=s.shape[0]) == 0] = np.eye(3)
    return r, owner, e_rest, e_def


def _arap_local(rest: np.ndarray, deformed: np.ndarray, edges: np.ndarray,
                owner_sum: sp.csr_matrix):
    """(energy, per-cell rotations) at the deformed positions; ``owner_sum``
    is ``_owner_sum`` of the edges, built once per topology."""
    r, owner, e_rest, e_def = _arap_rotations(rest, deformed, edges, owner_sum)
    residual = e_def - np.einsum("nab,nb->na", r[owner], e_rest)
    return float(np.sum(residual**2)), r


def arap_energy(rest: TriMesh, deformed_positions: np.ndarray) -> float:
    """Sum over cells of the residual after the best per-cell rotation.

    Zero exactly for rigid motions; grows with local stretching or shear.
    """
    deformed_positions = np.asarray(deformed_positions, dtype=np.float64)
    if deformed_positions.shape != rest.positions.shape:
        raise ArgumentError("deformed positions must match rest topology")
    edges = edge_set(rest).edges.astype(np.int64)
    return _arap_local(rest.positions, deformed_positions, edges,
                       _owner_sum(edges, rest.n_vertices))[0]


class _GlobalStep:
    """The global step of the local-global scheme on one source topology.

    With the rotations R held, the rigidity energy is the quadratic
    ``4 (x^T L x / 2 - b^T x) + const``, with L the uniform edge Laplacian and
    ``b_i = sum_j (R_i + R_j) (r_i - r_j) / 2``; each pair's ``|x_s - y_t|``
    is majorized by ``|x_s - y_t|^2 / (2 d_s) + d_s / 2``, d_s its current
    length (at least ``_DIST_FLOOR``). Both bounds touch the objective at the
    current iterate, so their minimizer, one sparse SPD solve, does not raise
    it while the pairs hold.
    """

    def __init__(self, rest: np.ndarray, edges: np.ndarray, weight: float):
        n, m = rest.shape[0], edges.shape[0]
        i, j = edges[:, 0], edges[:, 1]
        cols = np.tile(np.arange(m), 2)
        # signed edge incidence B (+1 at i, -1 at j for edge (i, j)): L = B B^T,
        # and b = B h with h_e = (R_i + R_j) (r_i - r_j) / 2
        self._inc = sp.csr_matrix((np.repeat([1.0, -1.0], m), (np.concatenate([i, j]), cols)),
                                  shape=(n, m))
        self._four_w_lap = 4.0 * weight * (self._inc @ self._inc.T).tocsr()
        _, self._component = connected_components(self._four_w_lap, directed=False)
        self._i, self._j = i, j
        self._e_rest = rest[i] - rest[j]
        self._weight = weight

    def __call__(self, x: np.ndarray, rot: np.ndarray, src_idx: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
        """Minimizer of both majorizers at x; src_idx holds at least one pair."""
        h = 0.5 * np.einsum("eab,eb->ea", rot[self._i] + rot[self._j], self._e_rest)
        rhs = 4.0 * self._weight * (self._inc @ h)
        diag = np.zeros(x.shape[0])
        diag[src_idx] = 1.0 / np.maximum(np.linalg.norm(x[src_idx] - y, axis=1), _DIST_FLOOR)
        rhs[src_idx] += diag[src_idx, None] * y
        # a component without a pair is free to translate in L, so its solve
        # is arbitrary: it stays where it is, bit for bit
        live = np.flatnonzero(np.isin(self._component, self._component[src_idx]))
        system = self._four_w_lap + sp.diags(diag, format="csr")
        if live.size < x.shape[0]:
            system = system[live][:, live]
        out = x.copy()
        out[live] = splu(system.tocsc()).solve(rhs[live])
        return out


def refine_mesh(source: TriMesh, target: TriMesh, config: RefineConfig) -> RefineResult:
    """Push interior vertices out of the target while keeping the source
    shape locally rigid.

    Minimizes ``collision + arap_weight * rigidity`` by local-global steps
    (ARAP's scheme, with the L1 collision term as iteratively reweighted
    least squares). Each iteration finds the interior vertices and their
    gated pairs at the current positions and stops once none remains; the
    local step fits the per-cell rotations and the global step is one
    sparse solve (``_GlobalStep``). It also stops when the objective changes
    by less than ``convergence_tol`` or after ``max_iters`` iterations, and
    reports divergence after 10 consecutive rises. Returns the best iterate
    (never worse than the input) with before/after plausibility reports;
    topology is untouched, and an input with no pair is returned as is.

    Raises:
        ArgumentError: source and target are one mesh, or target is not
            watertight.
    """
    _reject_self(source, target, "refinement")
    if not is_watertight(target):
        raise ArgumentError("refinement requires a watertight target")
    before = plausibility_metrics(source, target)
    rest = source.positions
    edges = edge_set(source).edges.astype(np.int64)
    global_step = _GlobalStep(rest, edges, config.arap_weight)
    owner_sum = _owner_sum(edges, source.n_vertices)
    target_faces = _face_clusters(target)  # the target never moves
    x = best_x = rest.copy()
    best_loss = prev_loss = np.inf
    rises = 0
    diverged = False
    iterations = 0
    for it in range(config.max_iters):
        iterations = it + 1
        current = source.with_positions(x)
        src_idx, tgt_idx = _gated_pairs(current, _collision_mask(current, target_faces, seed=0),
                                        target)
        if src_idx.size == 0 and it == 0:
            # nothing penetrates: the input is already the answer
            return RefineResult(mesh=source, before=before, after=before,
                                diverged=False, iterations=1)
        y = target.positions[tgt_idx]
        energy, rot = _arap_local(rest, x, edges, owner_sum)
        loss = float(np.linalg.norm(x[src_idx] - y, axis=1).sum()) \
            + config.arap_weight * energy
        if loss < best_loss:
            best_loss, best_x = loss, x
        if src_idx.size == 0 or abs(prev_loss - loss) < config.convergence_tol:
            break
        if loss > prev_loss:
            rises += 1
            if rises >= 10:
                diverged = True
                break
        else:
            rises = 0
        prev_loss = loss
        x = global_step(x, rot, src_idx, y)
    del target_faces  # the report after builds its own: hold one copy at a time
    refined = source.with_positions(best_x)
    after = plausibility_metrics(refined, target)
    return RefineResult(mesh=refined, before=before, after=after,
                        diverged=diverged, iterations=iterations)


def _voxel_axes(a: TriMesh, b: TriMesh, h: float):
    """Voxel center coordinates per axis, edge ``h``, over the overlap of the
    two meshes' vertex boxes; None when the boxes do not overlap.

    Raises:
        ArgumentError: the grid would exceed ``_MAX_VOXELS`` cells.
    """
    lo = np.maximum(a.positions.min(axis=0), b.positions.min(axis=0))
    hi = np.minimum(a.positions.max(axis=0), b.positions.max(axis=0))
    if not np.all(hi > lo):
        return None
    steps = np.maximum(np.ceil((hi - lo) / h).astype(np.int64), 1)
    if int(np.prod(steps)) > _MAX_VOXELS:
        raise ArgumentError(
            f"voxel grid {steps.tolist()} exceeds {_MAX_VOXELS} cells; increase voxel_cm")
    return [lo[c] + h * (np.arange(steps[c]) + 0.5) for c in range(3)]


def _voxels_interior(axes, h: float, cells: np.ndarray, faces: FaceClusters,
                     seed: int) -> np.ndarray:
    """Flags of the grid centers in ``cells`` that lie inside the surface.

    ``axes`` holds the centers' coordinates per axis and ``cells`` is a bool
    grid of their shape. Each column along the axis with the most centers
    that holds a cell casts one ray along that axis, from a distance ``h``
    before both the surface's box (``faces.lo``) and the first center. A
    center is inside when an odd number of the ray's crossings lie past it,
    which for a closed surface is the parity of any ray from it. A center
    whose column ray grazes, or that lies within ``_EPS_T`` of a crossing,
    goes to ``points_interior`` with ``seed`` instead.
    """
    along = int(np.argmax([x.size for x in axes]))
    across = [c for c in range(3) if c != along]
    shape = [axes[c].size for c in across] + [axes[along].size]
    n = shape[-1]
    cells = np.moveaxis(cells, along, -1).reshape(-1, n)

    def centers(col, k):
        out = np.empty((col.size, 3))
        for c, i in zip(across, np.unravel_index(col, shape[:2])):
            out[:, c] = axes[c][i]
        out[:, along] = axes[along][k]
        return out

    cols = np.flatnonzero(cells.any(axis=1))
    start = min(faces.lo[along], axes[along][0]) - h
    origins = centers(cols, 0)
    origins[:, along] = start
    dirs = np.zeros((cols.size, 3))
    dirs[:, along] = 1.0
    ray, t, grazing = ray_hits(origins, dirs, faces)
    t_center = axes[along] - start
    # slot s: the crossing lies past centers 0..s-1 and not past the others
    slot = np.searchsorted(t_center, t)
    in_slot = np.bincount(ray * (n + 1) + slot, minlength=cols.size * (n + 1))
    past = np.cumsum(in_slot.reshape(cols.size, n + 1)[:, :0:-1], axis=1)[:, ::-1]
    inside = np.zeros_like(cells)
    inside[cols] = past % 2 == 1
    unsure = np.zeros_like(cells)
    unsure[cols[grazing == 1]] = True
    for k in (np.maximum(slot - 1, 0), np.minimum(slot, n - 1)):  # the centers either side
        near = np.abs(t - t_center[k]) <= _EPS_T
        unsure[cols[ray[near]], k[near]] = True
    unsure &= cells
    inside[unsure], _ = points_interior(centers(*np.nonzero(unsure)), faces, seed)
    inside &= cells
    return np.moveaxis(inside.reshape(shape), -1, along)


def plausibility_metrics(a: TriMesh, b: TriMesh, voxel_cm: float = 0.5,
                         seed: int = 0) -> PlausibilityReport:
    """Maximum penetration depth and voxelized intersection volume.

    Penetration is the largest distance from an interior vertex of either
    mesh to the other surface, in millimeters. Volume counts voxel centers
    (edge ``voxel_cm``) interior to both meshes, over the overlap of the two
    vertex boxes: first the centers interior to a, then those of them
    interior to b, each pass by ``_voxels_interior``, one parity ray per
    grid column (seeds ``seed + 1`` and ``seed + 2`` for its fallback).

    Raises:
        ArgumentError: a and b are one mesh, a mesh is not watertight or the
            voxel grid would exceed the supported size.
    """
    _reject_self(a, b, "plausibility metrics")
    if not voxel_cm > 0:
        raise ArgumentError("voxel_cm must be positive")
    for mesh in (a, b):
        if not is_watertight(mesh):
            raise ArgumentError("plausibility metrics require watertight meshes")
    faces_a, faces_b = _face_clusters(a), _face_clusters(b)
    pen = 0.0
    for src, dst_faces in ((a, faces_b), (b, faces_a)):
        mask = _collision_mask(src, dst_faces, seed)
        pts = src.positions[mask.interior]
        if pts.size:
            pen = max(pen, float(point_triangle_dists(pts, dst_faces).max()))
    h = voxel_cm / 100.0  # meters
    axes = _voxel_axes(a, b, h)
    volume = 0.0
    if axes is not None:
        in_a = _voxels_interior(axes, h, np.ones([x.size for x in axes], dtype=bool),
                                faces_a, seed + 1)
        in_both = _voxels_interior(axes, h, in_a, faces_b, seed + 2)
        volume = float(in_both.sum()) * voxel_cm**3
    return PlausibilityReport(max_penetration_mm=1000.0 * pen,
                              intersection_volume_cm3=volume, voxel_size_cm=voxel_cm)
