"""The geometry kernels and refinement at the scale of the model's hands:
the full-config hand, capped at the wrist, against its mirror image.

The mirrored left hand starts with its box centre 180 mm from the right
hand's along -x and is pushed along +x; pushes of 150, 160 and 170 mm put
the centres 30, 20 and 10 mm apart (the hand is 83 mm wide in x).
"""
import functools

import numpy as np
import pytest
import scipy.spatial
from conftest import capped_hand, pushed_left, tree_owners
from oracles import point_triangle_dists_dense, points_interior_dense

from specmesh import refine
from specmesh.meshes import is_watertight

# push (m): plausibility_metrics(left, right) as (penetration mm, volume cm^3)
REPORTS = {
    0.150: (21.484944260013823, 283.0),
    0.160: (17.775894125100866, 399.75),
    0.170: (9.795896189534803, 526.875),
}


def test_capped_hand_is_closed_and_faces_out():
    hand = capped_hand()
    assert (hand.n_vertices, hand.n_faces) == (4023, 8042)
    assert is_watertight(hand)
    assert np.all(np.bincount(hand.faces.ravel(), minlength=hand.n_vertices) > 0)
    tri = hand.positions[hand.faces]
    volume = np.einsum("ic,ic->i", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])).sum() / 6.0
    assert 1e6 * volume == pytest.approx(659.3, abs=0.05)


@pytest.mark.parametrize("push", [0.150, 0.160])
def test_flags_equal_oracle(push):
    # every 32nd left-hand vertex in the right hand's box: each of the
    # oracle's rays tests all 8042 faces, and its distances come in blocks
    # of 16 points
    right = capped_hand()
    left = pushed_left(right, push).positions
    faces = right.face_clusters
    points = left[np.all((left >= faces.lo) & (left <= faces.hi), axis=1)][::32]
    assert 75 <= len(points) <= 100
    interior, contact = refine.points_interior(points, right)
    want, want_contact = points_interior_dense(points, right.positions[right.faces])
    assert np.array_equal(interior, want) and contact == want_contact == 0
    assert 10 <= interior.sum() < len(points)


def test_reports_pinned_with_one_tree_per_mesh(monkeypatch):
    # the cluster culls read BLAS products, so CI also runs this test on
    # forced OpenBLAS kernels; the icosphere fixtures never reach these shapes
    right = capped_hand()
    lefts = [pushed_left(right, push) for push in REPORTS]
    trees, cKDTree = [], scipy.spatial.cKDTree
    monkeypatch.setattr(scipy.spatial, "cKDTree",
                        lambda points: trees.append(points) or cKDTree(points))
    for left, (depth, volume) in zip(lefts, REPORTS.values()):
        report = refine.plausibility_metrics(left, right)
        assert report.max_penetration_mm == pytest.approx(depth, rel=1e-12, abs=0)
        assert report.intersection_volume_cm3 == volume
    # each hand's vertex tree and face center trees, once: the right hand
    # serves all three reports
    meshes = [right] + lefts
    owners = tree_owners(trees, meshes)
    assert None not in owners
    assert sorted(o for o in owners if o[0] == "vertices") == [("vertices", i) for i in range(4)]
    assert all(len(t) == 4023 for t, o in zip(trees, owners) if o[0] == "vertices")
    assert sorted(o for o in owners if o[0] == "faces") == [
        ("faces", i) for i, mesh in enumerate(meshes) for _ in mesh.face_trees]


@functools.cache
def refined(push):
    """The capped right hand, the left hand pushed by ``push`` and
    ``refine_mesh(left, right, RefineConfig(max_iters=30))``."""
    right = capped_hand()
    left = pushed_left(right, push)
    return right, left, refine.refine_mesh(left, right, refine.RefineConfig(max_iters=30))


def test_refinement_pinned():
    # the 150 mm pair stops at contact after 4 iterations. LAPACK's banded
    # Cholesky calls BLAS at bandwidth 42, so the refined positions' bits,
    # and the last digits of the depth after, depend on the OpenBLAS kernel:
    # depths are compared to a relative 1e-12, as the reports above
    _, _, result = refined(0.150)
    assert (result.iterations, result.stop_reason, result.unpaired_interior) == (4, "contact", 2)
    for report, (depth, volume) in ((result.before, REPORTS[0.150]),
                                    (result.after, (2.2880832868135967, 1.25))):
        assert report.max_penetration_mm == pytest.approx(depth, rel=1e-12, abs=0)
        assert report.intersection_volume_cm3 == volume


@pytest.mark.parametrize("push", [0.150, 0.160])
def test_contact_stop_leaves_every_interior_vertex_within_tolerance(push):
    # the stop reads the source's vertices only: each left-hand vertex inside
    # the right hand lies within PENETRATION_TOL of it, by the brute-force
    # distance over all 8042 faces
    right, _, result = refined(push)
    assert result.stop_reason == "contact"
    interior, _ = refine.points_interior(result.mesh.positions, right)
    assert interior.sum() >= 300
    dists = point_triangle_dists_dense(result.mesh.positions[interior],
                                       right.positions[right.faces])
    assert dists.max() <= refine.PENETRATION_TOL


def test_contact_iterate_returned_not_the_input():
    # at 160 mm the input has a lower objective (collision + rigidity) than
    # the iterate in contact, so a best-iterate return would hand back the
    # unmoved input, 17.78 mm deep
    right, left, result = refined(0.160)
    assert (result.iterations, result.stop_reason, result.unpaired_interior) == (5, "contact", 0)
    assert result.mesh is not left
    assert result.after.max_penetration_mm == pytest.approx(1.2594384282407514, rel=1e-12, abs=0)
    assert result.after.intersection_volume_cm3 == 1.0
    arap = refine._arap(left)

    def objective(mesh):
        interior, _ = refine.points_interior(mesh.positions, right)
        src, tgt = refine._gated_pairs(mesh, interior, right)
        pull = np.linalg.norm(mesh.positions[src] - right.positions[tgt], axis=1).sum()
        return pull + arap.local(mesh.positions)[0]

    assert objective(left) < objective(result.mesh)


def test_deep_push_keeps_its_recorded_failure():
    # at 170 mm no interior vertex passes the opposing-normal gate after the
    # third iterate, and the report deepens: a known failure (ROADMAP,
    # Direction 6)
    _, left, result = refined(0.170)
    assert (result.iterations, result.stop_reason, result.unpaired_interior) == (
        3, "no_gated_pair", 1726)
    assert result.mesh is not left
    assert result.after.max_penetration_mm == pytest.approx(10.696770094955758, rel=1e-12, abs=0)
    assert result.after.intersection_volume_cm3 == 504.5
