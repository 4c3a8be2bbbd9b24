"""Geometry kernels of collision refinement, in NumPy and SciPy.

``ray_hits`` lists each ray-triangle crossing, as its ray and ray
parameter t, and flags grazing rays; ``ray_crossings`` counts those
crossings per ray, the parity test of one point per ray, while a column of
voxel centers reads its parities from the t of one ray. ``nearest_vertex``
finds the nearest reference vertex, ``point_triangle_dists`` the
distance to the nearest triangle, and ``near_surface`` whether a point
lies within a fixed distance of a triangle.

``nearest_vertex`` asks the caller's ``scipy.spatial.cKDTree`` of the
reference vertices for the distance to the nearest one, takes every vertex
within a hair of that distance, and picks among them by the same
squared-distance expression a brute-force search uses, lowest index first on
ties: the result is that of testing every pair.

The two triangle kernels take one ``FaceClusters`` per surface, built from
its faces once and shared by every call against that surface. It sorts the
faces along a Morton curve of their centroids (Karras, HPG 2012) and cuts
them into clusters, each a run of ``_CLUSTER`` consecutive faces with a
bounding sphere that holds its faces' own spheres, and holds the per-face
columns of the ray test. A chunk of queries is tested against all spheres
at once, and the pair test runs only on the faces of the clusters that pass:

- ``ray_hits`` keeps the clusters a ray reaches, then the faces of those
  whose own bounding sphere it reaches (about one in fourteen, for rays
  between two overlapping 642-vertex icospheres), and runs the
  Moller-Trumbore test (Moller & Trumbore, JGT 1997) on them. A ray parallel
  to a face grazes it when it lies in the face's plane and meets the face's
  grown bounding sphere, so no pair that test drops can graze.
- ``point_triangle_dists`` bounds each point's answer by its distance to the
  nearest vertex of the surface, from the caller's KD-tree of them, keeps
  the clusters whose sphere comes within that bound, and runs Ericson's
  closest-point case split on their faces.

``near_surface`` has a fixed bound, so it needs no clusters: it reads the
caller's ``face_center_trees``, one KD-tree of face centers per
power-of-two class of face radius, gathers from each the faces whose
sphere comes within the bound, and runs the same closest-point test on
them.

Crossings, counts, grazing flags, distances and flags are the same as from
testing every pair. A ray's crossings, t values and grazing flag are also
the same whatever other rays share its call: the pair test is elementwise,
and the sphere tests only decide which pairs are tested, conservatively.
So a point's flag from ``refine.points_interior`` does not depend on the
other points of its batch.
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
# of each bounding sphere, and of the KD-tree's nearest distance before
# nearest_vertex gathers the vertices to compare.
_SPHERE_SLACK = 1e-6
_BALL_SLACK = 1e-9


def _kdtree(points):
    """``scipy.spatial.cKDTree`` over the points."""
    # Imported on first use: scipy.spatial brings scipy.special and
    # scipy.sparse along, about 5 MB, which a process that imports the
    # kernels without calling them (the model benchmarks) need not carry.
    from scipy.spatial import cKDTree

    return cKDTree(points)


def _morton_codes(grid):
    """30-bit Morton code of each row of an (N, 3) integer grid in [0, 1023]:
    bit b of column c goes to bit 3 b + c."""
    x = np.asarray(grid, dtype=np.uint32)
    # spread each coordinate's 10 bits so that two zero bits follow each one
    for shift, mask in ((16, 0x030000FF), (8, 0x0300F00F), (4, 0x030C30C3), (2, 0x09249249)):
        x = (x | (x << shift)) & mask
    return x[:, 0] | (x[:, 1] << 1) | (x[:, 2] << 2)


def _morton_order(centroids):
    """Order of the points along a 30-bit Morton curve over their bounding box."""
    lo = centroids.min(axis=0)
    extent = max(float((centroids.max(axis=0) - lo).max()), 1e-300)
    grid = np.clip((centroids - lo) * (1023.0 / extent), 0, 1023).astype(np.uint32)
    return np.argsort(_morton_codes(grid), kind="stable")


def _length(x):
    """|x| over a last axis of 3, summed in ``np.linalg.norm``'s order."""
    return np.sqrt(x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1] + x[..., 2] * x[..., 2])


class FaceClusters:
    """A triangle soup prepared once for both triangle kernels.

    The faces are sorted along a Morton curve of their centroids and cut
    into clusters: cluster k is the run of ``_CLUSTER`` faces from
    ``k * _CLUSTER``, the last run maybe short. Every face and cluster gets
    a bounding sphere, and the per-face columns of the Moller-Trumbore test
    are computed. It holds only arrays, all set here and never changed, so
    one object serves any number of kernel calls against the same surface;
    the KD-tree that bounds ``point_triangle_dists`` is the caller's.
    ``len()`` is the face count.

    Attributes: ``tri``, the (F, 3, 3) faces in Morton order;
    ``face_center`` and ``face_radius`` (slack-grown), each face's own
    bounding sphere; ``center``, ``radius`` and ``center_sq`` (|center|^2)
    of each cluster's sphere, which holds its faces' spheres (the radius is
    the largest |center - face_center| + face_radius, slack-grown);
    ``face_cols``, the rows v0, e1, e2, normal (e1 x e2), |normal| and the
    parallel threshold that ``_pair_test`` reads; and ``lo`` and ``hi``, the
    (3,) axis-aligned box of all corners, which for an empty soup is
    (+inf, -inf) and holds no point.
    """

    def __init__(self, tri):
        tri = np.asarray(tri, dtype=np.float64)
        n_tri = tri.shape[0]
        if n_tri:  # an empty soup has no bounding box to order by
            tri = tri[_morton_order(tri.mean(axis=1))]
        n_clusters = -(-n_tri // _CLUSTER)
        self.tri = tri
        # Boxes and spheres from the three corner columns: NumPy reduces a
        # short middle axis row by row, which took most of the build.
        a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
        face_lo = np.minimum(np.minimum(a, b), c)
        face_hi = np.maximum(np.maximum(a, b), c)
        self.face_center = 0.5 * (face_lo + face_hi)
        self.face_radius = np.maximum(np.maximum(_length(a - self.face_center),
                                                 _length(b - self.face_center)),
                                      _length(c - self.face_center))
        self.face_radius *= 1.0 + _SPHERE_SLACK
        # each cluster's faces; a short last run repeats its last face, which
        # leaves the sphere as it is
        members = np.minimum(np.arange(n_clusters * _CLUSTER), n_tri - 1).reshape(-1, _CLUSTER)
        self.center = 0.5 * (np.minimum.reduce(face_lo[members], axis=1)
                             + np.maximum.reduce(face_hi[members], axis=1))
        self.radius = (_length(self.face_center[members] - self.center[:, None, :])
                       + self.face_radius[members]).max(axis=1)
        self.radius *= 1.0 + _SPHERE_SLACK
        self.center_sq = np.einsum("kc,kc->k", self.center, self.center)
        self.lo = np.minimum.reduce(face_lo, axis=0, initial=np.inf)
        self.hi = np.maximum.reduce(face_hi, axis=0, initial=-np.inf)
        v0 = a
        e1 = tri[:, 1] - v0
        e2 = tri[:, 2] - v0
        normal = np.cross(e1, e2)
        norm_n = np.linalg.norm(normal, axis=1)
        det_eps = 1e-12 * np.maximum(norm_n, 1e-30)
        self.face_cols = np.concatenate([v0.T, e1.T, e2.T, normal.T, norm_n[None],
                                         det_eps[None]])

    def __len__(self):
        return self.tri.shape[0]


def _cluster_hits(p, faces, grow, along=None):
    """Whether query r reaches cluster k, as a (len(p), K) bool array.

    It does when the sphere of k, grown by ``grow[r]``, holds the point
    ``p[r]`` or, given ``along`` (each center's ray parameter, clipped at 0),
    meets the ray from ``p[r]``. Expanding |c - p|^2 rounds by under
    1e-14 (|p|^2 + |c|^2), which the last term covers.
    """
    p_sq = np.einsum("rc,rc->r", p, p)
    gap_sq = p_sq[:, None] - 2.0 * (p @ faces.center.T) + faces.center_sq
    if along is not None:
        gap_sq -= along * along
    reach = faces.radius + grow[:, None]
    return gap_sq <= reach * reach + 1e-12 * (p_sq + faces.center_sq.max())[:, None]


def _cluster_pairs(hit, n_tri):
    """(query row, face) columns for every face of every hit cluster, by row."""
    row, cl = np.nonzero(hit)
    row = np.repeat(row, _CLUSTER)
    face = (cl[:, None] * _CLUSTER + np.arange(_CLUSTER)).reshape(-1)
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
    in no order within a chunk. Only faces whose bounding sphere, and whose
    cluster's sphere, a ray reaches get the pair test; the result equals
    testing every pair.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    n_pts = origins.shape[0]
    grazing = np.zeros(n_pts, dtype=np.uint8)
    hit_ray, hit_t = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    n_tri = len(faces)
    if n_tri == 0:
        return hit_ray[0], hit_t[0], grazing
    ray_cols = np.concatenate([origins.T, dirs.T])

    for lo in range(0, n_pts, _RAY_CHUNK):
        hi = min(lo + _RAY_CHUNK, n_pts)
        p = origins[lo:hi]
        d = dirs[lo:hi]
        d_norm = np.linalg.norm(d, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = d / d_norm[:, None]
        # the ray is a half-line that may start up to _EPS_T behind its origin
        along = np.maximum(unit @ faces.center.T - np.einsum("rc,rc->r", unit, p)[:, None], 0.0)
        hit = _cluster_hits(p, faces, (2.0 * _EPS_T) * d_norm, along)
        ray, face = _cluster_pairs(hit, n_tri)
        # of the faces of those clusters, keep the ones whose own sphere the
        # ray meets; |c - p|^2 - along^2 rounds by under 1e-15 |c - p|^2
        diff = np.take(faces.face_center, face, axis=0) - np.take(p, ray, axis=0)
        dist_sq = np.einsum("ic,ic->i", diff, diff)
        along = np.maximum(np.einsum("ic,ic->i", np.take(unit, ray, axis=0), diff), 0.0)
        reach = faces.face_radius[face] + (2.0 * _EPS_T) * d_norm[ray]
        keep = dist_sq - along * along <= reach * reach + 1e-12 * dist_sq
        ray, face = ray[keep], face[keep]
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


def nearest_vertex(query, ref, tree):
    """Index and distance of the nearest reference vertex per query point.

    ``tree`` is a ``scipy.spatial.cKDTree`` of ``ref``, such as a mesh's
    ``vertex_tree``. Ties resolve to the lowest index. With no reference
    vertices, every query gets index 0 and distance inf.
    """
    query = np.asarray(query, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    n = query.shape[0]
    idx = np.zeros(n, dtype=np.int64)
    dist = np.full(n, np.inf)
    if n == 0:
        return idx, dist
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


def point_triangle_dists(points, faces, tree):
    """Distance from each point to the nearest triangle of a ``FaceClusters``.

    ``tree`` is a ``scipy.spatial.cKDTree`` of points that each lie on a
    face, such as the vertices of a mesh with no vertex off its faces (its
    ``vertex_tree``); a point's distance to the nearest of them bounds its
    answer. Only faces in the bounding spheres that come within that bound
    get the closest-point test; the result equals testing every face. With
    no faces every distance is inf.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    out = np.full(n, np.inf)
    n_tri = len(faces)
    if n == 0 or n_tri == 0:
        return out
    tri = faces.tri
    bound, _ = tree.query(points)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        p = points[lo:hi]
        # keep a sphere when |p - c| - r <= bound
        hit = _cluster_hits(p, faces, bound[lo:hi])
        row, face = _cluster_pairs(hit, n_tri)
        dists = _closest_point_dists(p[row], tri[face, 0], tri[face, 1], tri[face, 2])
        # every point keeps the cluster of a face that holds its nearest tree point
        starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        out[lo:hi] = np.minimum.reduceat(dists, starts)
    return out


def face_center_trees(faces):
    """The faces of a ``FaceClusters`` in classes of radius, for ``near_surface``.

    A face's class is the binary exponent of its (slack-grown) radius, so
    the radii of one class are within a factor of 2 of each other. Returns
    one (face indices, ``scipy.spatial.cKDTree`` of their centers, largest
    radius) per class, smallest radii first; none for an empty soup.
    """
    classes = np.frexp(faces.face_radius)[1]
    trees = []
    for c in np.unique(classes):
        idx = np.flatnonzero(classes == c)
        trees.append((idx, _kdtree(faces.face_center[idx]), float(faces.face_radius[idx].max())))
    return tuple(trees)


def near_surface(points, faces, trees, tol):
    """Whether each point lies within ``tol`` of a triangle of a ``FaceClusters``.

    ``trees`` is ``face_center_trees(faces)``, such as a mesh's
    ``face_trees``. A point within ``tol`` of a face lies within the face's
    radius plus ``tol`` of its center, so each class's tree gathers every
    face of the class that can be that near, within its largest radius plus
    ``tol``, and Ericson's closest-point test decides on those. The result
    equals testing every face.
    """
    points = np.asarray(points, dtype=np.float64)
    near = np.zeros(points.shape[0], dtype=bool)
    tri = faces.tri
    for idx, tree, reach in trees:
        ball = tree.query_ball_point(points, reach + tol)
        sizes = np.fromiter(map(len, ball), dtype=np.int64, count=len(ball))
        row = np.repeat(np.arange(len(ball)), sizes)
        face = idx[np.fromiter(itertools.chain.from_iterable(ball), dtype=np.int64,
                               count=row.size)]
        dists = _closest_point_dists(points[row], tri[face, 0], tri[face, 1], tri[face, 2])
        near[row[dists <= tol]] = True
    return near
