"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive (loops, dense math, classic textbook
iterations) and shares no code with the library paths it checks. There are
a few exceptions. ``points_interior_uncut`` casts its rays with the library's
``ray_crossings``, which has oracles of its own, because what it checks is
the box cull around that kernel; ``points_interior_ray_by_ray`` does too,
one ray per call, and so does ``refine``'s direction draw, because what it
checks is the bookkeeping of the retry rounds around them.
``voxel_flags_per_center`` runs the library's ``points_interior``, checked
against the oracles above, once per voxel center, because what it checks is
the column pass that replaced that loop. The autodiff references at the end
compose the fused tape nodes out of the primitive ones, whose own gradients
the tests check (the upsampling one takes its interpolation matrices from
the model). ``train_step_two_phase`` runs the model's forward, losses and Adam,
because what it checks is when ``train_step`` steps each parameter.
"""
from __future__ import annotations

import logging
import math

import numpy as np

from specmesh import autodiff as ad
from specmesh.kernels import ray_crossings
from specmesh.model import _interp_matrix, compute_losses, forward
from specmesh.refine import _BOX_SLACK, MAX_RAY_RETRIES, _random_directions, points_interior


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = math.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta == 0:
                    t = 1.0
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a), kind="stable")
    return np.diag(a)[order], v[:, order]


def union_find_components(n: int, edges) -> int:
    """Number of connected components by plain union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[ru] = rv
    return len({find(i) for i in range(n)})


def l1_mesh_loop(pred, gt) -> float:
    total = 0.0
    count = 0
    for i in range(len(pred)):
        for c in range(3):
            total += abs(pred[i][c] - gt[i][c])
            count += 1
    return total / count


def reproject_loop(pred, gt2d, cams) -> float:
    """Weak-perspective reprojection L1: camera row n is (scale, tx, ty) and
    vertex i projects to scale * (x_i, y_i) + (tx, ty) in view n."""
    total = 0.0
    count = 0
    for n in range(len(gt2d)):
        scale, shift = cams[n][0], (cams[n][1], cams[n][2])
        for i in range(len(pred)):
            for c in range(2):
                total += abs(scale * pred[i][c] + shift[c] - gt2d[n][i][c])
                count += 1
    return total / count


def mpve_loop(pred, gt) -> float:
    total = 0.0
    for i in range(len(pred)):
        d2 = 0.0
        for c in range(3):
            d2 += (pred[i][c] - gt[i][c]) ** 2
        total += math.sqrt(d2)
    return 1000.0 * total / len(pred)


def ray_crossings_loop(origins, dirs, tri):
    """Moller-Trumbore test of every ray against every face, one pair at a time.

    Same rules as the geometry kernels: a hit strictly inside the face and
    ahead of the origin counts; a hit within 1e-9 of an edge or of the
    origin marks the ray as grazing, and so does a ray parallel to a face,
    within 1e-9 of its plane, that meets the face's bounding sphere. That
    sphere is centered on the face's box, holds its corners with a relative
    1e-6 to spare, and is grown by 2e-9 |d| for the origin's slack; the ray
    meets it when the squared distance from its center to the half-line
    exceeds its squared radius by at most 1e-12 of the squared distance to
    the origin. Returns (counts, grazing) as Python lists.
    """
    eps = 1e-9

    def sub(a, b):
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2])

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])

    faces = [tuple(tuple(float(x) for x in corner) for corner in face) for face in tri]
    counts, grazing = [], []
    for origin, direction in zip(origins, dirs):
        o = tuple(float(x) for x in origin)
        d = tuple(float(x) for x in direction)
        hits = 0
        graze = 0
        for a, b, c in faces:
            e1 = sub(b, a)
            e2 = sub(c, a)
            n = cross(e1, e2)
            n_len = max(math.sqrt(dot(n, n)), 1e-30)
            tvec = sub(o, a)
            pvec = cross(d, e2)
            det = dot(e1, pvec)
            if abs(det) < 1e-12 * n_len:
                if abs(dot(tvec, n)) / n_len < eps:
                    center = tuple(0.5 * (min(a[k], b[k], c[k]) + max(a[k], b[k], c[k]))
                                   for k in range(3))
                    radius = max(math.sqrt(dot(sub(x, center), sub(x, center)))
                                 for x in (a, b, c)) * (1.0 + 1e-6)
                    d_len = math.sqrt(dot(d, d))
                    reach = radius + 2.0 * eps * d_len
                    gap = sub(center, o)
                    along = max(dot(d, gap) / d_len, 0.0)
                    if dot(gap, gap) - along * along <= reach * reach + 1e-12 * dot(gap, gap):
                        graze = 1
                continue
            qvec = cross(tvec, e1)
            u = dot(tvec, pvec) / det
            v = dot(d, qvec) / det
            t = dot(e2, qvec) / det
            if u > eps and v > eps and u + v < 1.0 - eps and t > eps:
                hits += 1
            elif u > -eps and v > -eps and u + v < 1.0 + eps and t > -eps:
                graze = 1
        counts.append(hits)
        grazing.append(graze)
    return counts, grazing


def morton_codes_loop(grid) -> list:
    """30-bit Morton code of each row of an (N, 3) integer grid in [0, 1023],
    one bit at a time: bit b of column c goes to bit 3 b + c."""
    codes = []
    for row in np.asarray(grid).tolist():
        code = 0
        for bit in range(10):
            for axis in range(3):
                code |= ((int(row[axis]) >> bit) & 1) << (3 * bit + axis)
        codes.append(code)
    return codes


def nearest_vertex_loop(query, ref):
    """Nearest reference vertex per query point, one pair at a time.

    Ties go to the lowest index; with no reference vertices a query gets
    (0, inf). The squared distance adds the axes in order, x then y then z,
    as a NumPy sum over the last axis does. Returns (indices, distances) as
    Python lists.
    """
    refs = [tuple(float(x) for x in r) for r in ref]
    idx, dist = [], []
    for q in query:
        qx, qy, qz = (float(x) for x in q)
        best_j, best_d2 = 0, math.inf
        for j, (rx, ry, rz) in enumerate(refs):
            dx, dy, dz = qx - rx, qy - ry, qz - rz
            d2 = dx * dx + dy * dy + dz * dz
            if d2 < best_d2:
                best_j, best_d2 = j, d2
        idx.append(best_j)
        dist.append(math.sqrt(best_d2))
    return idx, dist


def farthest_point_dense(positions, n_keep: int, seed: int) -> list:
    """Farthest-point walk on Euclidean distances, one step at a time.

    Starts at vertex ``seed mod V``; each step takes the vertex with the
    largest distance to the kept set, lowest index first on ties. Returns
    the kept indices sorted.
    """
    positions = np.asarray(positions, dtype=np.float64)
    kept = [seed % len(positions)]
    dist = np.linalg.norm(positions - positions[kept[0]], axis=1)
    for _ in range(n_keep - 1):
        kept.append(int(np.argmax(dist)))
        dist = np.minimum(dist, np.linalg.norm(positions - positions[kept[-1]], axis=1))
    return sorted(kept)


def point_triangle_dists_dense(points, tri):
    """Distance from each point to the nearest triangle, testing every face.

    Ericson's closest-point case split (Real-Time Collision Detection,
    5.1.5) on dense (points x faces) arrays: the brute-force reference the
    culled kernel must equal bit for bit.
    """
    points = np.asarray(points, dtype=np.float64)
    tri = np.asarray(tri, dtype=np.float64)
    n = points.shape[0]
    out = np.full(n, np.inf)
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab = b - a
    ac = c - a
    chunk = 256  # points per dense block
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        p = points[lo:hi][:, None, :]  # (P, 1, 3)
        ap = p - a[None, :, :]
        d1 = np.einsum("fc,pfc->pf", ab, ap)
        d2 = np.einsum("fc,pfc->pf", ac, ap)
        bp = p - b[None, :, :]
        d3 = np.einsum("fc,pfc->pf", ab, bp)
        d4 = np.einsum("fc,pfc->pf", ac, bp)
        cp = p - c[None, :, :]
        d5 = np.einsum("fc,pfc->pf", ab, cp)
        d6 = np.einsum("fc,pfc->pf", ac, cp)
        va = d3 * d6 - d5 * d4
        vb = d5 * d2 - d1 * d6
        vc = d1 * d4 - d3 * d2
        denom_ab = d1 - d3
        denom_ac = d2 - d6
        # closest point per region of the triangle (Ericson's case split)
        closest = a[None, :, :] + np.zeros_like(ap)
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
        interior = a[None] + vv[..., None] * ab[None] + ww[..., None] * ac[None]
        closest = np.where(edge_bc[..., None], b[None] + seg[..., None] * (c - b)[None], interior)
        closest = np.where(edge_ac[..., None], a[None] + np.clip(t_ac, 0, 1)[..., None] * ac[None], closest)
        closest = np.where(edge_ab[..., None], a[None] + np.clip(t_ab, 0, 1)[..., None] * ab[None], closest)
        closest = np.where(region_c[..., None], c[None] + np.zeros_like(ap), closest)
        closest = np.where(region_b[..., None], b[None] + np.zeros_like(ap), closest)
        vertex_a = (d1 <= 0) & (d2 <= 0)
        closest = np.where(vertex_a[..., None], a[None] + np.zeros_like(ap), closest)
        dists = np.linalg.norm(p - closest, axis=2)
        out[lo:hi] = dists.min(axis=1)
    return out


def points_interior_uncut(points, faces, seed: int):
    """Ray-parity interior flags with every point casting rays, box or not.

    The retry rounds of ``refine.points_interior`` without its bounding-box
    cull: each round draws one seeded unit direction per unresolved point,
    and grazing points retry up to MAX_RAY_RETRIES times. ``faces`` is a
    ``FaceClusters``. Returns (interior flags, unresolved count).
    """
    rng = np.random.default_rng(seed)
    interior = np.zeros(len(points), dtype=bool)
    active = np.arange(len(points))
    for _ in range(MAX_RAY_RETRIES):
        if active.size == 0:
            break
        d = rng.normal(size=(active.size, 3))
        d = d / np.linalg.norm(d, axis=1, keepdims=True)
        counts, grazing = ray_crossings(points[active], d, faces)
        ok = grazing == 0
        interior[active[ok]] = counts[ok] % 2 == 1
        active = active[~ok]
    return interior, int(active.size)


def points_interior_ray_by_ray(points, faces, seed: int):
    """``refine.points_interior``'s rounds with one ray per ``ray_crossings``
    call, point by point.

    Round 1 draws one direction per point, in the box or not, and each point
    in the box casts its ray; every later round draws one direction per
    point still grazing, in order, and each casts its own, up to
    MAX_RAY_RETRIES rounds. A point's flag is the parity of its first ray
    that does not graze. Logs the same warning, on the ``specmesh.refine``
    logger. Returns (interior flags, unresolved count, rays cast per point).
    """
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    interior = np.zeros(n, dtype=bool)
    cast = np.zeros(n, dtype=int)
    slack = _BOX_SLACK * (1.0 + np.abs(faces.lo) + np.abs(faces.hi))
    with np.errstate(invalid="ignore"):  # an empty soup's box gives inf - inf: no point is in
        in_box = np.all((points >= faces.lo - slack) & (points <= faces.hi + slack), axis=1)
    grazing = [i for i in range(n) if in_box[i]]
    dirs = _random_directions(n, rng)[in_box]
    for _ in range(MAX_RAY_RETRIES):
        still = []
        for i, d in zip(grazing, dirs):
            counts, flags = ray_crossings(points[i:i + 1], d[None], faces)
            cast[i] += 1
            if flags[0]:
                still.append(i)
            else:
                interior[i] = counts[0] % 2 == 1
        grazing = still
        if not grazing:
            break
        dirs = _random_directions(len(grazing), rng)
    failures = len(grazing)
    if failures:
        logging.getLogger("specmesh.refine").warning(
            "ray parity unresolved for %d points; treated exterior", failures)
    return interior, failures, cast


def voxel_flags_per_center(axes, faces_a, faces_b):
    """Interior flags of the voxel centers of a plausibility report, one ray
    per center.

    Every center of the grid with coordinates ``axes`` runs
    ``points_interior`` against ``faces_a`` with seed 1, and the centers
    inside a run it against ``faces_b`` with seed 2. Returns (inside a,
    inside both) as bool grids of the axes' shape.
    """
    shape = [x.size for x in axes]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    in_a, _ = points_interior(centers, faces_a, 1)
    in_both = np.zeros_like(in_a)
    if in_a.any():
        in_both[in_a], _ = points_interior(centers[in_a], faces_b, 2)
    return in_a.reshape(shape), in_both.reshape(shape)


def arap_covariances_add_at(rest, deformed, edges):
    """(V, 3, 3) per-cell sums of e_rest e_def^T, scattered by ``np.add.at``.

    Each edge (i, j) adds its i -> j outer product to cell i and its j -> i
    one to cell j, all i -> j first, in edge order.
    """
    i, j = edges[:, 0], edges[:, 1]
    e_rest = np.concatenate([rest[i] - rest[j], rest[j] - rest[i]])
    e_def = np.concatenate([deformed[i] - deformed[j], deformed[j] - deformed[i]])
    s = np.zeros((rest.shape[0], 3, 3))
    np.add.at(s, np.concatenate([i, j]), e_rest[:, :, None] * e_def[:, None, :])
    return s


def procrustes_rotations_svd(s):
    """(V, 3, 3) rotations R maximizing tr(R s) for each covariance s, by SVD.

    With s = U S V^T the best orthogonal matrix is V U^T; where its
    determinant is negative, the last singular vector flips, which gives the
    best proper rotation.
    """
    u, _, vt = np.linalg.svd(s)
    r = np.transpose(vt, (0, 2, 1)) @ np.transpose(u, (0, 2, 1))
    flip = np.linalg.det(r) < 0
    if flip.any():
        vt_f = vt[flip].copy()
        vt_f[:, -1, :] *= -1.0
        r[flip] = np.transpose(vt_f, (0, 2, 1)) @ np.transpose(u[flip], (0, 2, 1))
    return r


def arap_global_step_dense(rest, edges, x, rot, src_idx, y):
    """ARAP's global step with its pairs, as one dense ``np.linalg.solve``.

    Minimizes ``|(x_i - x_j) - R_i (r_i - r_j)|^2`` summed over both
    directions of each edge (ARAP's energy with the rotations held), plus
    ``|x_s - y_s|^2 / (2 d_s)`` per pair, d_s = |x_s - y_s| at the given x,
    by its dense normal equations ``(4 L + D) x = 4 b + D y``, with
    ``b_i = sum_j (R_i + R_j)(r_i - r_j) / 2``. Every component needs a pair.
    """
    n = rest.shape[0]
    i, j = edges[:, 0], edges[:, 1]
    system = np.zeros((n, n))
    np.add.at(system, (i, j), -1.0)
    np.add.at(system, (j, i), -1.0)
    np.add.at(system, (i, i), 1.0)
    np.add.at(system, (j, j), 1.0)
    system *= 4.0
    half = 0.5 * np.einsum("eab,eb->ea", rot[i] + rot[j], rest[i] - rest[j])
    rhs = np.zeros((n, 3))
    np.add.at(rhs, i, half)
    np.add.at(rhs, j, -half)
    rhs *= 4.0
    pull = 1.0 / np.linalg.norm(x[src_idx] - y, axis=1)
    system[src_idx, src_idx] += pull
    rhs[src_idx] += pull[:, None] * y
    return np.linalg.solve(system, rhs)


def edge_loss_direct(lengths) -> float:
    """Direct evaluation: mean |l^2 - mean(l^2)|."""
    sq = [float(l) ** 2 for l in lengths]
    mu = sum(sq) / len(sq)
    return sum(abs(s - mu) for s in sq) / len(sq)


def collision_loss_loop(src_positions, src_normals, mask, tgt_positions, tgt_normals) -> float:
    """Double loop over Eq.-style collision loss: nearest opposing-normal vertex."""
    total = 0.0
    for i in range(len(src_positions)):
        if not mask[i]:
            continue
        best_j = -1
        best_d = math.inf
        for j in range(len(tgt_positions)):
            d = math.dist(src_positions[i], tgt_positions[j])
            if d < best_d:
                best_d = d
                best_j = j
        dot = sum(src_normals[i][c] * tgt_normals[best_j][c] for c in range(3))
        if dot < 0:
            total += best_d
    return total


def dense_chebyshev_reference(l_dense: np.ndarray, lam_max: float, theta: np.ndarray,
                              signal: np.ndarray) -> np.ndarray:
    """Chebyshev filtering through an explicit eigendecomposition.

    Uses numpy's eigh (a different LAPACK driver than the library) and
    evaluates g(lam) = sum_k theta_k T_k(2 lam / lam_max - 1) per channel.
    """
    w, u = np.linalg.eigh(l_dense)
    scaled = 2.0 * w / lam_max - 1.0
    coeffs = u.T @ signal
    out = np.zeros((l_dense.shape[0], theta.shape[2]))
    for k in range(theta.shape[0]):
        tk = np.cos(k * np.arccos(np.clip(scaled, -1.0, 1.0)))
        out += u @ (tk[:, None] * coeffs) @ theta[k]
    return out


def central_difference(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Dense central finite-difference gradient of a scalar function."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def sphere_contains(points: np.ndarray, center, radius: float) -> np.ndarray:
    """Analytic interior test for a sphere."""
    return np.linalg.norm(points - np.asarray(center), axis=1) < radius


class WholeArrayAdam:
    """Adam with one new array per expression, the reference for the
    in-place, chunked ``autodiff.Adam``."""

    def __init__(self, params: dict, lr: float = 1e-4):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, params: dict):
        self.t += 1
        b1, b2 = 0.9, 0.999
        for key, p in params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[key] = b1 * self.m[key] + (1 - b1) * g
            self.v[key] = b2 * self.v[key] + (1 - b2) * g * g
            m_hat = self.m[key] / (1 - b1**self.t)
            v_hat = self.v[key] / (1 - b2**self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def train_step_two_phase(params: dict, opt, batch, assets, config, bn_state: dict) -> dict:
    """A training step that finishes ``backward()`` before one ``opt.step``
    over every parameter, the reference for ``model.train_step``, which
    steps each parameter inside the walk."""
    for p in params.values():
        p.grad = None
    output = forward(batch.features, params, assets, config, bn_state, train=True)
    losses = compute_losses(output, batch, assets)
    losses["total"].backward()
    opt.step(params)
    return {name: float(t.data) for name, t in losses.items()}


def layer_norm_composed(a, gain, bias):
    """Layer normalization built from 13 primitive tape nodes."""
    mu = ad.reduce_mean(a, axis=-1, keepdims=True)
    centered = a - mu
    var = ad.reduce_mean(ad.mul(centered, centered), axis=-1, keepdims=True)
    inv = ad.div(ad.constant(1.0), ad.sqrt(ad.add(var, ad.constant(1e-6))))
    return ad.add(ad.mul(ad.mul(centered, inv), gain), bias)


def linear_composed(x, weight, bias=None):
    """x @ weight (+ bias) as a matmul node and a broadcasting add node."""
    out = ad.matmul(x, weight)
    return out if bias is None else ad.add(out, bias)


def upconv3x3_composed(x, weight):
    """Bilinear x2 upsampling then a valid 3x3 convolution, from primitive
    tape nodes: an axis_matrix node per grid axis, then an im2col take, a
    reshape and a linear node on the upsampled grid."""
    n, h, w, c_in = x.shape
    up = ad.axis_matrix(x, _interp_matrix(2 * h, h), axis=1)
    up = ad.axis_matrix(up, _interp_matrix(2 * w, w), axis=2)
    hu, wu = 2 * h, 2 * w
    ho, wo = hu - 2, wu - 2
    rows = np.arange(ho)[:, None, None, None]
    cols = np.arange(wo)[None, :, None, None]
    dy = np.arange(3)[None, None, :, None]
    dx = np.arange(3)[None, None, None, :]
    idx = ((rows + dy) * wu + (cols + dx)).reshape(-1)
    patches = ad.take(ad.reshape(up, (n, hu * wu, c_in)), idx, axis=1)
    patches = ad.reshape(patches, (n, ho * wo, 9 * c_in))
    out = ad.linear(patches, ad.reshape(weight, (9 * c_in, weight.shape[3])))
    return ad.reshape(out, (n, ho, wo, weight.shape[3]))


def attention_composed(q, k, v, heads: int):
    """Multi-head scaled dot-product attention from primitive tape nodes:
    split heads, q k^T, scale, softmax, times v, merge heads."""
    tokens, inner = q.shape
    dk = inner // heads

    def split(t):
        return ad.transpose(ad.reshape(t, (tokens, heads, dk)), (1, 0, 2))

    scores = ad.matmul(split(q), ad.transpose(split(k), (0, 2, 1)))
    weights = ad.softmax(scores * ad.constant(1.0 / math.sqrt(dk)), axis=-1)
    ctx = ad.matmul(weights, split(v))
    return ad.reshape(ad.transpose(ctx, (1, 0, 2)), (tokens, inner))
