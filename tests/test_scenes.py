import numpy as np
import pytest

from specmesh import autodiff as ad
from specmesh import model as M
from specmesh.scenes import SceneSpec, build_scene


@pytest.fixture(scope="module")
def toy():
    config = M.toy_config()
    return config, M.build_assets(config)


def scene_arrays(scene):
    return [scene.features, scene.gt_vertices, scene.gt2d] + [
        np.r_[cam.scale, cam.translation] for cam in scene.gt_cameras]


class TestBuildScene:
    def test_deterministic_per_seed(self, toy):
        config, assets = toy
        first = scene_arrays(build_scene(SceneSpec(seed=4), assets, config))
        again = scene_arrays(build_scene(SceneSpec(seed=4), assets, config))
        other = scene_arrays(build_scene(SceneSpec(seed=5), assets, config))
        for a, b, c in zip(first, again, other):
            assert a.tobytes() == b.tobytes()
            assert not np.array_equal(a, c)

    def test_gt2d_is_each_cameras_projection(self, toy):
        config, assets = toy
        scene = build_scene(SceneSpec(seed=6), assets, config)
        assert len(scene.gt_cameras) == config.n_views
        assert scene.gt2d.shape == (config.n_views, 2 * assets.n_hand_vertices, 2)
        for view, cam in zip(scene.gt2d, scene.gt_cameras):
            # weak perspective: u = scale * (x, y) + translation
            assert np.allclose(view, cam.scale * scene.gt_vertices[:, :2] + cam.translation,
                               rtol=0.0, atol=1e-15)

    def test_one_view_per_config_view(self, toy):
        _, assets = toy
        config = M.toy_config(n_views=3)
        scene = build_scene(SceneSpec(seed=8), assets, config)
        assert len(scene.gt_cameras) == 3
        assert scene.gt2d.shape[0] == scene.features.shape[0] == 3

    def test_posed_hands_are_rigid_copies_of_the_template(self, toy):
        config, assets = toy
        scene = build_scene(SceneSpec(seed=7), assets, config)
        v = assets.n_hand_vertices
        for h, hand in enumerate(assets.hands):
            posed = scene.gt_vertices[h * v:(h + 1) * v]
            rest = hand.positions
            # a rigid motion keeps every pairwise distance
            d_posed = np.linalg.norm(posed[:, None] - posed[None], axis=-1)
            d_rest = np.linalg.norm(rest[:, None] - rest[None], axis=-1)
            assert np.abs(d_posed - d_rest).max() < 1e-12


def test_toy_overfits_one_scene(toy):
    # 60 steps cut the total loss 14.4x, at one BLAS thread and at two
    config, assets = toy
    params = M.init_parameters(config, assets)
    opt = ad.Adam(params, lr=config.learning_rate)
    bn_state = {}
    scene = build_scene(SceneSpec(seed=1), assets, config)
    losses = [M.train_step(params, opt, scene, assets, config, bn_state)["total"]
              for _ in range(60)]
    assert np.all(np.isfinite(losses))
    assert losses[0] / losses[-1] > 10.0
