"""The geometry kernels and refinement at the scale of the model's hands:
the full-config hand, capped at the wrist, against its mirror image.

The mirrored left hand starts with its box centre 180 mm from the right
hand's along -x and is pushed along +x; pushes of 150, 160 and 170 mm put
the centres 30, 20 and 10 mm apart (the hand is 83 mm wide in x).
"""
import numpy as np
import pytest
import scipy.spatial
from conftest import capped_hand, pushed_left, tree_owners
from oracles import points_interior_dense

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


def test_refinement_pinned():
    # the 150 mm pair after 4 iterations. LAPACK's banded Cholesky calls BLAS
    # at bandwidth 42, so the refined positions' bits, and the last digits
    # of the depth after, depend on the OpenBLAS kernel: depths are compared
    # to a relative 1e-12, as the reports above
    right = capped_hand()
    result = refine.refine_mesh(pushed_left(right, 0.150), right, refine.RefineConfig(max_iters=4))
    assert (result.iterations, result.stop_reason, result.unpaired_interior) == (4, "max_iters", 2)
    for report, (depth, volume) in ((result.before, REPORTS[0.150]),
                                    (result.after, (2.2880832868135967, 1.25))):
        assert report.max_penetration_mm == pytest.approx(depth, rel=1e-12, abs=0)
        assert report.intersection_volume_cm3 == volume
