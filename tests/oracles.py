"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive (loops, dense math, classic textbook
iterations) and shares no code with the library paths it checks.
"""
from __future__ import annotations

import math

import numpy as np


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


def mse_loop(pred, gt) -> float:
    total = 0.0
    for i in range(len(pred)):
        d2 = 0.0
        for c in range(3):
            d2 += (pred[i][c] - gt[i][c]) ** 2
        total += d2
    return total / len(pred)


def mpve_loop(pred, gt) -> float:
    total = 0.0
    for i in range(len(pred)):
        d2 = 0.0
        for c in range(3):
            d2 += (pred[i][c] - gt[i][c]) ** 2
        total += math.sqrt(d2)
    return 1000.0 * total / len(pred)


def chamfer_loop(a, b) -> float:
    def directed(x, y):
        total = 0.0
        for p in x:
            best = math.inf
            for q in y:
                d2 = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2
                best = min(best, d2)
            total += best
        return total / len(x)

    return 0.5 * (directed(a, b) + directed(b, a))


def ray_crossings_loop(origins, dirs, tri):
    """Moller-Trumbore test of every ray against every face, one pair at a time.

    Same rules as the geometry kernels: a hit strictly inside the face and
    ahead of the origin counts; a hit within 1e-9 of an edge or of the
    origin, or a ray parallel to a face and within 1e-9 of its plane, marks
    the ray as grazing. Returns (counts, grazing) as Python lists.
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


def nearest_vertex_loop(query, ref, exclude=None):
    """Nearest reference vertex per query point, one pair at a time.

    ``exclude`` gives one reference index per query to skip, ``-1`` for
    none. Ties go to the lowest index; a query with no reference left gets
    (0, inf). The squared distance adds the axes in order, x then y then z,
    as a NumPy sum over the last axis does. Returns (indices, distances) as
    Python lists.
    """
    refs = [tuple(float(x) for x in r) for r in ref]
    idx, dist = [], []
    for i, q in enumerate(query):
        qx, qy, qz = (float(x) for x in q)
        skip = -1 if exclude is None else int(exclude[i])
        best_j, best_d2 = 0, math.inf
        for j, (rx, ry, rz) in enumerate(refs):
            if j == skip:
                continue
            dx, dy, dz = qx - rx, qy - ry, qz - rz
            d2 = dx * dx + dy * dy + dz * dz
            if d2 < best_d2:
                best_j, best_d2 = j, d2
        idx.append(best_j)
        dist.append(math.sqrt(best_d2))
    return idx, dist


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
