"""Geometry kernels of collision refinement, in NumPy and SciPy.

``ray_hits`` lists each ray-triangle crossing, as its ray and ray
parameter t, and flags grazing rays; ``ray_crossings`` counts those
crossings per ray, the parity test of one point per ray, while a column of
voxel centers reads its parities from the t of one ray. ``nearest_vertex``
finds the nearest reference vertex, and ``point_triangle_dists`` the
distance to the nearest triangle.

``nearest_vertex`` asks a ``scipy.spatial.cKDTree`` for the distance to the
nearest vertex, takes every vertex within a hair of that distance, and picks
among them by the same squared-distance expression a brute-force search
uses, lowest index first on ties: the result is that of testing every pair.

The two triangle kernels take one hierarchy per mesh, a ``FaceClusters``
built from the mesh's faces once and shared by every call against that
surface. It sorts the faces along a Morton curve of their centroids
(Karras, HPG 2012), cuts them into clusters of ``_CLUSTER`` faces, each with
a conservative bounding sphere, and holds the per-face columns of the ray
test. A chunk of queries is tested against all spheres at once, and the pair
test runs only on the faces of the clusters that pass:

- ``ray_hits`` keeps the clusters a ray reaches and runs the
  Moller-Trumbore test (Moller & Trumbore, JGT 1997). A ray lying in the
  plane of a face grazes it even where it never reaches the face, so a
  near-parallel prefilter, one ``dirs @ normals.T`` product per chunk, adds
  those few pairs.
- ``point_triangle_dists`` bounds each point's answer by its distance to the
  nearest mesh vertex, keeps the clusters whose sphere comes within that
  bound, and runs Ericson's closest-point case split on their faces.

Crossings, counts, grazing flags and distances are the same as from testing
every pair.
"""
from __future__ import annotations

import itertools

import numpy as np

BACKEND = "numpy"  # run context read by perfbench/workloads.py

_CHUNK = 256  # query points per chunk of point_triangle_dists
_RAY_CHUNK = 64  # rays per chunk; keeps ray_crossings' temporaries small
_CLUSTER = 8  # faces per bounding sphere
_EPS_BARY = 1e-9  # barycentric closeness to an edge counts as grazing
_EPS_T = 1e-9  # ray parameter closeness to the origin counts as grazing
_EPS_PLANE = 1e-9  # origin-to-plane distance for parallel rays
# Culling slack, orders of magnitude above rounding error: relative growth
# of each bounding sphere, the |d . n| / (|d| |e1| |e2|) the parallel
# prefilter keeps, and the relative growth of the KD-tree's nearest distance
# before nearest_vertex gathers the vertices to compare.
_SPHERE_SLACK = 1e-6
_PARALLEL_SLACK = 1e-9
_BALL_SLACK = 1e-9


def _kdtree(points):
    """``scipy.spatial.cKDTree`` over the points."""
    # Imported on first use: scipy.spatial brings scipy.special and
    # scipy.sparse along, about 5 MB, which a process that imports the
    # kernels without calling them (the model benchmarks) need not carry.
    from scipy.spatial import cKDTree

    return cKDTree(points)


def _morton_order(centroids):
    """Order of the points along a 30-bit Morton curve over their bounding box."""
    lo = centroids.min(axis=0)
    extent = max(float((centroids.max(axis=0) - lo).max()), 1e-300)
    grid = np.clip((centroids - lo) * (1023.0 / extent), 0, 1023).astype(np.uint64)
    code = np.zeros(len(centroids), dtype=np.uint64)
    for bit in range(10):
        for axis in range(3):
            code |= ((grid[:, axis] >> np.uint64(bit)) & np.uint64(1)) << np.uint64(3 * bit + axis)
    return np.argsort(code, kind="stable")


class FaceClusters:
    """A triangle soup prepared once for both triangle kernels.

    The faces are sorted along a Morton curve of their centroids and cut
    into clusters of ``_CLUSTER`` faces with conservative bounding spheres,
    and the per-face columns of the Moller-Trumbore test are computed.
    Nothing here changes after construction, so one object serves any
    number of kernel calls against the same surface. ``len()`` is the face
    count.

    Attributes: ``tri``, the (F, 3, 3) faces in Morton order; ``members``,
    the (K, _CLUSTER) face indices of each cluster, where the last cluster
    may be short and its padding indices run past the last face; ``center``,
    ``radius`` (slack-grown) and ``center_sq`` (|center|^2) of each sphere;
    ``cluster_of``, each face's cluster; ``normal`` (e1 x e2), ``det_eps``
    and ``parallel_tol`` per face; ``face_cols``, the rows v0, e1, e2,
    normal, |normal| and ``det_eps`` that ``_pair_test`` reads; and ``lo``
    and ``hi``, the (3,) axis-aligned box of all corners, which for an empty
    soup is (+inf, -inf) and holds no point.
    """

    def __init__(self, tri):
        tri = np.asarray(tri, dtype=np.float64)
        n_tri = tri.shape[0]
        if n_tri:  # an empty soup has no bounding box to order by
            tri = tri[_morton_order(tri.mean(axis=1))]
        n_clusters = -(-n_tri // _CLUSTER)
        self.tri = tri
        self.members = np.arange(n_clusters * _CLUSTER).reshape(n_clusters, _CLUSTER)
        self.cluster_of = np.arange(n_tri) // _CLUSTER
        # the padding of a short last cluster repeats a face for the sphere only
        corners = tri[np.minimum(self.members, n_tri - 1)].reshape(n_clusters, 3 * _CLUSTER, 3)
        self.center = 0.5 * (corners.min(axis=1) + corners.max(axis=1))
        self.radius = np.linalg.norm(corners - self.center[:, None, :], axis=2).max(axis=1)
        self.radius *= 1.0 + _SPHERE_SLACK
        self.center_sq = np.einsum("kc,kc->k", self.center, self.center)
        self.lo = tri.reshape(-1, 3).min(axis=0, initial=np.inf)
        self.hi = tri.reshape(-1, 3).max(axis=0, initial=-np.inf)
        v0 = tri[:, 0]
        e1 = tri[:, 1] - v0
        e2 = tri[:, 2] - v0
        self.normal = np.cross(e1, e2)
        norm_n = np.linalg.norm(self.normal, axis=1)
        self.det_eps = 1e-12 * np.maximum(norm_n, 1e-30)
        self.parallel_tol = (_PARALLEL_SLACK * np.linalg.norm(e1, axis=1)
                             * np.linalg.norm(e2, axis=1))
        self.face_cols = np.concatenate([v0.T, e1.T, e2.T, self.normal.T, norm_n[None],
                                         self.det_eps[None]])

    def __len__(self):
        return self.tri.shape[0]


def _cluster_pairs(hit, members, n_tri):
    """(query row, face) columns for every face of every hit cluster, by row."""
    row, cl = np.nonzero(hit)
    row = np.repeat(row, _CLUSTER)
    face = members[cl].reshape(-1)
    if n_tri % _CLUSTER:
        keep = face < n_tri
        row, face = row[keep], face[keep]
    return row, face


def _pair_test(ray, face):
    """Moller-Trumbore test of matching columns: (inside, grazing, t) per pair,
    t the ray parameter of the plane hit (meaningless for a parallel pair).

    ``ray`` rows are origin and direction components, ``face`` rows are v0,
    e1, e2, normal components, |normal| and the parallel threshold.
    """
    px, py, pz, dx, dy, dz = ray
    ax, ay, az, e1x, e1y, e1z, e2x, e2y, e2z, nx, ny, nz, norm_n, det_eps = face
    pvx = dy * e2z - dz * e2y
    pvy = dz * e2x - dx * e2z
    pvz = dx * e2y - dy * e2x
    det = e1x * pvx + e1y * pvy + e1z * pvz
    tvx = px - ax
    tvy = py - ay
    tvz = pz - az
    parallel = np.abs(det) < det_eps
    safe_det = np.where(parallel, 1.0, det)
    u = (tvx * pvx + tvy * pvy + tvz * pvz) / safe_det
    qvx = tvy * e1z - tvz * e1y
    qvy = tvz * e1x - tvx * e1z
    qvz = tvx * e1y - tvy * e1x
    v = (dx * qvx + dy * qvy + dz * qvz) / safe_det
    t = (e2x * qvx + e2y * qvy + e2z * qvz) / safe_det
    inside = (
        ~parallel
        & (u > _EPS_BARY)
        & (v > _EPS_BARY)
        & (u + v < 1.0 - _EPS_BARY)
        & (t > _EPS_T)
    )
    loose = (
        ~parallel
        & (u > -_EPS_BARY)
        & (v > -_EPS_BARY)
        & (u + v < 1.0 + _EPS_BARY)
        & (t > -_EPS_T)
    )
    plane_dist = np.abs(tvx * nx + tvy * ny + tvz * nz) / np.maximum(norm_n, 1e-30)
    on_plane = parallel & (plane_dist < _EPS_PLANE)
    return inside, (loose & ~inside) | on_plane, t


def ray_hits(origins, dirs, faces):
    """Every ray-triangle crossing of the rays against a ``FaceClusters``.

    Returns (ray, t, grazing): the ray index and ray parameter of each
    crossing, under the strict interior test, and per ray the flag of
    ``ray_crossings``. Crossings come grouped by chunk of ``_RAY_CHUNK`` rays,
    in no order within a chunk. Only faces in the bounding spheres a ray
    reaches, and faces the ray is nearly parallel to, get the pair test; the
    result equals testing every pair.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    n_pts = origins.shape[0]
    grazing = np.zeros(n_pts, dtype=np.uint8)
    hit_ray, hit_t = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    n_tri = len(faces)
    if n_tri == 0:
        return hit_ray[0], hit_t[0], grazing
    center, radius, center_sq = faces.center, faces.radius, faces.center_sq
    ray_cols = np.concatenate([origins.T, dirs.T])

    for lo in range(0, n_pts, _RAY_CHUNK):
        hi = min(lo + _RAY_CHUNK, n_pts)
        p = origins[lo:hi]
        d = dirs[lo:hi]
        d_norm = np.linalg.norm(d, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = d / d_norm[:, None]
        # Squared distance from each sphere center to the ray, a half-line
        # that may start up to _EPS_T behind its origin; expanding |c - p|^2
        # rounds by under 1e-14 (|p|^2 + |c|^2), which the last term covers.
        p_sq = np.einsum("rc,rc->r", p, p)
        along = np.maximum(unit @ center.T - np.einsum("rc,rc->r", unit, p)[:, None], 0.0)
        gap_sq = p_sq[:, None] - 2.0 * (p @ center.T) + center_sq - along * along
        reach = radius + (2.0 * _EPS_T) * d_norm[:, None]
        hit = gap_sq <= reach * reach + 1e-12 * (p_sq + center_sq.max())[:, None]
        ray, face = _cluster_pairs(hit, faces.members, n_tri)
        # Rays in a face's plane graze it wherever they are: keep the
        # near-parallel pairs that the sphere test dropped.
        with np.errstate(divide="ignore"):
            tol = (faces.parallel_tol * np.fmax.reduce(d_norm)
                   + faces.det_eps / np.fmin.reduce(d_norm))
        dn = d @ faces.normal.T
        near = np.abs(dn, out=dn) <= tol
        if near.any():
            near_ray, near_face = np.nonzero(near)
            missed = ~hit[near_ray, faces.cluster_of[near_face]]
            ray = np.concatenate([ray, near_ray[missed]])
            face = np.concatenate([face, near_face[missed]])
        inside, graz, t = _pair_test(ray_cols[:, lo + ray], faces.face_cols[:, face])
        hit_ray.append(lo + ray[inside])
        hit_t.append(t[inside])
        grazing[lo:hi] = np.bincount(ray[graz], minlength=hi - lo) > 0
    return np.concatenate(hit_ray), np.concatenate(hit_t), grazing


def ray_crossings(origins, dirs, faces):
    """Count ray-triangle crossings per point against a ``FaceClusters``.

    Returns (counts, grazing): crossings use strict interior tests; the
    grazing flag marks rays that pass within epsilon of a triangle edge,
    plane, or the origin itself and should be retried with a new direction.
    The counts are the ``ray_hits`` crossings per ray.
    """
    ray, _, grazing = ray_hits(origins, dirs, faces)
    return np.bincount(ray, minlength=len(grazing)), grazing


def nearest_vertex(query, ref):
    """Index and distance of the nearest reference vertex per query point.

    Ties resolve to the lowest index. With no reference vertices, every
    query gets index 0 and distance inf.
    """
    query = np.asarray(query, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    n = query.shape[0]
    idx = np.zeros(n, dtype=np.int64)
    dist = np.full(n, np.inf)
    if n == 0:
        return idx, dist
    tree = _kdtree(ref)
    radius, _ = tree.query(query)
    # The tree rounds distances its own way: widen the radius so every vertex
    # that ties with the nearest after re-scoring is gathered. With no
    # reference vertices the radius is infinite and gathers nothing.
    radius = np.where(np.isfinite(radius), radius * (1.0 + _BALL_SLACK), 0.0)
    ball = tree.query_ball_point(query, radius)
    sizes = np.fromiter(map(len, ball), dtype=np.int64, count=n)
    row = np.repeat(np.arange(n), sizes)
    col = np.fromiter(itertools.chain.from_iterable(ball), dtype=np.int64, count=row.size)
    d2 = np.sum((query[row] - ref[col]) ** 2, axis=1)
    order = np.lexsort((col, d2, row))
    row, col, d2 = row[order], col[order], d2[order]
    first = np.ones(row.size, dtype=bool)
    first[1:] = row[1:] != row[:-1]
    idx[row[first]] = col[first]
    dist[row[first]] = np.sqrt(d2[first])
    return idx, dist


def _closest_point_dists(p, a, b, c):
    """Distance from each row of ``p`` to the triangle in the same row of
    ``a``, ``b``, ``c``, by Ericson's case split over the triangle's regions."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ic,ic->i", ab, ap)
    d2 = np.einsum("ic,ic->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ic,ic->i", ab, bp)
    d4 = np.einsum("ic,ic->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ic,ic->i", ab, cp)
    d6 = np.einsum("ic,ic->i", ac, cp)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    denom_ab = d1 - d3
    denom_ac = d2 - d6
    region_b = (d3 >= 0) & (d4 <= d3)
    region_c = (d6 >= 0) & (d5 <= d6)
    t_ab = np.divide(d1, denom_ab, out=np.zeros_like(d1), where=denom_ab != 0)
    edge_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    t_ac = np.divide(d2, denom_ac, out=np.zeros_like(d2), where=denom_ac != 0)
    edge_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    seg = (d4 - d3) / np.where((d4 - d3) + (d5 - d6) == 0, 1.0, (d4 - d3) + (d5 - d6))
    edge_bc = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    denom = va + vb + vc
    vv = np.divide(vb, denom, out=np.zeros_like(vb), where=denom != 0)
    ww = np.divide(vc, denom, out=np.zeros_like(vc), where=denom != 0)
    # later regions take precedence, in the order of Ericson's early returns
    closest = a + vv[:, None] * ab + ww[:, None] * ac
    closest = np.where(edge_bc[:, None], b + seg[:, None] * (c - b), closest)
    closest = np.where(edge_ac[:, None], a + np.clip(t_ac, 0, 1)[:, None] * ac, closest)
    closest = np.where(edge_ab[:, None], a + np.clip(t_ab, 0, 1)[:, None] * ab, closest)
    closest = np.where(region_c[:, None], c, closest)
    closest = np.where(region_b[:, None], b, closest)
    vertex_a = (d1 <= 0) & (d2 <= 0)
    closest = np.where(vertex_a[:, None], a, closest)
    return np.linalg.norm(p - closest, axis=1)


def point_triangle_dists(points, faces):
    """Distance from each point to the nearest triangle of a ``FaceClusters``.

    Only faces in the bounding spheres that come within a point's
    nearest-vertex distance get the closest-point test; the result equals
    testing every face. With no faces every distance is inf.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    out = np.full(n, np.inf)
    n_tri = len(faces)
    if n == 0 or n_tri == 0:
        return out
    tri, center, radius, center_sq = faces.tri, faces.center, faces.radius, faces.center_sq
    # the nearest vertex bounds the nearest face from above
    bound, _ = _kdtree(tri.reshape(-1, 3)).query(points)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        p = points[lo:hi]
        # Keep a sphere when |p - c| - r <= bound. Expanding |p - c|^2 rounds
        # by under 1e-14 (|p|^2 + |c|^2), which the last term covers.
        p_sq = np.einsum("rc,rc->r", p, p)
        gap_sq = p_sq[:, None] - 2.0 * (p @ center.T) + center_sq
        reach = radius + bound[lo:hi, None]
        hit = gap_sq <= reach * reach + 1e-12 * (p_sq + center_sq.max())[:, None]
        row, face = _cluster_pairs(hit, faces.members, n_tri)
        dists = _closest_point_dists(p[row], tri[face, 0], tri[face, 1], tri[face, 2])
        # every point keeps the cluster of its nearest vertex's faces
        starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        out[lo:hi] = np.minimum.reduceat(dists, starts)
    return out
