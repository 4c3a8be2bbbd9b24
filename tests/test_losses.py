import numpy as np
import pytest

from oracles import edge_loss_direct, l1_mesh_loop, mpve_loop, reproject_loop
from specmesh import model as M
from specmesh.scenes import SceneSpec, build_scene


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


@pytest.fixture(scope="module")
def toy_losses():
    """Tape loss terms of one toy forward, and its inputs."""
    config = M.toy_config()
    assets = M.build_assets(config)
    params = M.init_parameters(config, assets)
    # the camera head starts at scale 1 and shift 0; move it off that point
    rng = np.random.default_rng(4)
    for name in ("camera_w", "camera_b"):
        params[name].data += 0.1 * rng.standard_normal(params[name].data.shape)
    scene = build_scene(SceneSpec(seed=3), assets, config)
    output = M.forward(scene.features, params, assets, config, {}, train=True)
    terms = {name: float(t.data) for name, t in
             M.compute_losses(output, scene, assets).items()}
    return terms, output.pred_vertices.data, output.cameras.data, scene, assets.mesh_edges


def test_every_term_on(toy_losses):
    terms = toy_losses[0]
    assert sorted(terms) == ["edge", "mesh", "reproj2d", "total"]
    assert terms["total"] == terms["mesh"] + terms["reproj2d"] + terms["edge"]


def test_tape_terms_equal_loop_oracles(toy_losses):
    terms, pred, cams, scene, e = toy_losses
    lengths = np.linalg.norm(pred[e[:, 0]] - pred[e[:, 1]], axis=1)
    assert _close(terms["mesh"], l1_mesh_loop(pred, scene.gt_vertices))
    assert _close(terms["reproj2d"], reproject_loop(pred, scene.gt2d, cams))
    assert _close(terms["edge"], edge_loss_direct(lengths))


def test_numpy_losses_equal_loop_oracles(toy_losses):
    # mpve is the one NumPy loss left: perfbench reports it
    _, pred, _, scene, _ = toy_losses
    assert _close(M.mpve(pred, scene.gt_vertices), mpve_loop(pred, scene.gt_vertices))
    assert M.mpve(pred, scene.gt_vertices) > 0
