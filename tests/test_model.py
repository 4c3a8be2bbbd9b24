import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import specmesh
from oracles import upconv3x3_composed
from specmesh import autodiff as ad
from specmesh import model as M
from specmesh.errors import ArgumentError, NumericalError, ParseError
from specmesh.graphs import build_mesh_graph, lambda_max, laplacian, scaled_laplacian
from specmesh.pyramid import build_pyramid
from specmesh.scenes import SceneSpec, build_scene


@pytest.fixture(scope="module")
def full():
    config = M.ModelConfig()
    return config, M.build_assets(config)


class TestFullConfigAssets:
    def test_one_operator_per_coarse_level(self, full):
        config, assets = full
        assert [op.shape[0] for op in assets.scaled_ops] == [617, 1234, 2468]
        assert assets.pyramid.level_sizes == list(config.decoder_sizes)

    def test_operators_equal_mirrored_hands_own(self, full):
        config, assets = full
        left = assets.hands[1]
        pyramid = build_pyramid(build_mesh_graph(left.positions, left.faces),
                                config.decoder_sizes, seed=config.seed)
        for level, op in enumerate(assets.scaled_ops):
            lap = laplacian(pyramid.levels[level])
            own = scaled_laplacian(lap, lambda_max(lap))
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(op, attr), getattr(own, attr))

    def test_spectra_inside_unit_interval(self, full):
        _, assets = full
        for op in assets.scaled_ops:
            vals = scipy.linalg.eigvalsh(op.toarray())
            assert vals[0] >= -1.0 - 1e-12
            assert vals[-1] <= 1.0 + 1e-12

    def test_no_dense_eigensolve(self, monkeypatch):
        def dense_solve(*args, **kwargs):
            raise AssertionError("dense eigensolver called during full-config set-up")

        monkeypatch.setattr(scipy.linalg, "eigh", dense_solve)
        assets = M.build_assets(M.ModelConfig())
        assert len(assets.scaled_ops) == 3


class TestForwardTokens:
    def test_region_feature_then_template_position(self):
        # token i is its cluster's fused feature followed by its kept template vertex
        config = M.toy_config()
        assets = M.build_assets(config)
        params = M.init_parameters(config, assets)
        scene = build_scene(SceneSpec(seed=2), assets, config)
        out = M.forward(scene.features, params, assets, config, {}, train=True)
        expected = np.concatenate([out.f_r.data[assets.token_labels], assets.token_positions],
                                  axis=1)
        assert out.tokens.shape == (config.n_tokens, config.feature_width + 3)
        assert out.tokens.data.tobytes() == expected.tobytes()


class TestFusionMatchesOracle:
    """fusion_forward against the same fusion with each upconv3x3 node
    replaced by the upsample-then-im2col composition (toy config)."""

    @staticmethod
    def fusion_arrays(config, params, features) -> dict:
        """Train-mode outputs and the gradients of a probe of them, then
        eval-mode outputs and the batch-norm running statistics, by name."""
        for p in params.values():
            p.grad = None
        bn_state = {}
        f_prime, mask = M.fusion_forward(features, params, config, bn_state, train=True)
        rng = np.random.default_rng(4)
        sum(ad.reduce_sum(t * ad.constant(rng.normal(size=t.shape)))
            for t in (f_prime, mask)).backward()
        arrays = {"train f_prime": f_prime.data, "train mask": mask.data}
        arrays.update({f"grad {name}": p.grad for name, p in params.items()
                       if p.grad is not None})
        f_prime, mask = M.fusion_forward(features, params, config, bn_state, train=False)
        arrays.update({"eval f_prime": f_prime.data, "eval mask": mask.data})
        arrays.update({f"{key} {stat}": stats[stat] for key, stats in bn_state.items()
                       for stat in ("mean", "var")})
        return arrays

    def test_train_and_eval_mode(self, perturbed_toy, monkeypatch):
        config, _, params = perturbed_toy
        features = M.synth_backbone_features(3, config)
        got = self.fusion_arrays(config, params, features)
        monkeypatch.setattr(ad, "upconv3x3", lambda x, w, taps: upconv3x3_composed(x, w))
        want = self.fusion_arrays(config, params, features)
        assert sorted(got) == sorted(want)
        # both stages of both branches, and every fusion and mask parameter
        assert sum(name.endswith(" var") for name in want) == 4
        assert sum(name.startswith("grad ") for name in want) == 13
        for name, ref in want.items():
            err = np.abs(got[name] - ref).max() / np.abs(ref).max()
            assert err <= 1e-12, f"{name}: {err:.3e}"


# Builds the toy assets, takes one train step and prints, as JSON, a hash of
# each asset array (dtype, shape and bytes) and the step's total loss.
TOY_SETUP_SCRIPT = """
import hashlib, json
import numpy as np
from specmesh import autodiff as ad, model as M
from specmesh.scenes import SceneSpec, build_scene

config = M.toy_config()
assets = M.build_assets(config)
arrays = {"token_labels": assets.token_labels, "token_positions": assets.token_positions,
          "mesh_edges": assets.mesh_edges}
for level, op in enumerate(assets.scaled_ops):
    for attr in ("indptr", "indices", "data"):
        arrays[f"op{level}_{attr}"] = getattr(op, attr)
hashes = {name: hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()
          for name, a in arrays.items()}
params = M.init_parameters(config, assets)
opt = ad.Adam(params, lr=config.learning_rate)
scene = build_scene(SceneSpec(seed=1), assets, config)
loss = M.train_step(params, opt, scene, assets, config, {})["total"]
print(json.dumps({"hashes": hashes, "loss": loss}))
"""


def test_toy_setup_independent_of_blas_threads():
    # the toy hand's segmentation embeds no repeated eigenvalue, so the
    # token layout, and with it the first loss, cannot follow LAPACK's
    # per-thread-count choice of eigenbasis
    src = str(Path(specmesh.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", TOY_SETUP_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    one, two = runs
    assert one["hashes"] == two["hashes"]
    assert abs(one["loss"] - two["loss"]) <= 1e-12 * abs(one["loss"])


@pytest.fixture(scope="module")
def trained_toy():
    """Toy config after one train step: parameters and BN statistics are non-trivial."""
    config = M.toy_config()
    assets = M.build_assets(config)
    params = M.init_parameters(config, assets)
    opt = ad.Adam(params, lr=config.learning_rate)
    bn_state = {}
    scene = build_scene(SceneSpec(seed=1), assets, config)
    M.train_step(params, opt, scene, assets, config, bn_state)
    return config, params, bn_state


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, trained_toy, tmp_path):
        config, params, bn_state = trained_toy
        M.save_checkpoint(tmp_path, params, config, bn_state)
        loaded, loaded_config, loaded_bn = M.load_checkpoint(tmp_path)
        assert loaded_config == config
        assert loaded_config.config_hash() == config.config_hash()
        assert sorted(loaded) == sorted(params)
        for name, tensor in params.items():
            assert loaded[name].data.dtype == np.float64
            assert loaded[name].data.shape == tensor.data.shape
            assert loaded[name].data.tobytes() == tensor.data.tobytes()
        assert bn_state and sorted(loaded_bn) == sorted(bn_state)
        for key, stats in bn_state.items():
            for stat in ("mean", "var"):
                assert loaded_bn[key][stat].tobytes() == stats[stat].tobytes()

    def test_config_hash_mismatch_rejected(self, trained_toy, tmp_path):
        config, params, bn_state = trained_toy
        M.save_checkpoint(tmp_path, params, config, bn_state)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["seed"] += 1  # edited config, stale hash
        path.write_text(json.dumps(manifest))
        with pytest.raises(ArgumentError, match="hash"):
            M.load_checkpoint(tmp_path)

    def test_unknown_config_key_is_parse_error(self, trained_toy, tmp_path):
        # checkpoints saved while the config had a template setting carry it
        config, params, bn_state = trained_toy
        M.save_checkpoint(tmp_path, params, config, bn_state)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["template"] = "hand"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="template"):
            M.load_checkpoint(tmp_path)

    @pytest.mark.parametrize("text", [
        "not json",
        "{}",
        json.dumps({"config": {"n_views": "x"}, "config_hash": "0"}),
        json.dumps({"config": {"decoder_sizes": 5}, "config_hash": "0"}),
        json.dumps({"config": {"feature_width": "32"}, "config_hash": "0"}),
    ])
    def test_malformed_manifest_is_parse_error(self, trained_toy, tmp_path, text):
        config, params, bn_state = trained_toy
        M.save_checkpoint(tmp_path, params, config, bn_state)
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(ParseError, match="manifest.json"):
            M.load_checkpoint(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("feature_width", "32"), ("feature_width", 32.0), ("n_clusters", True),
        ("seed", None), ("learning_rate", "1e-3"), ("learning_rate", False),
        ("decoder_sizes", [40, 80.0, 159]), ("decoder_sizes", [40, "80", 159]),
    ])
    def test_wrongly_typed_config_value_is_parse_error(self, trained_toy, tmp_path, key, value):
        # the hash is recomputed over the edited config, so only the type is wrong
        config, params, bn_state = trained_toy
        M.save_checkpoint(tmp_path, params, config, bn_state)
        path = tmp_path / "manifest.json"
        edited = dict(config.to_dict(), **{key: value})
        digest = hashlib.sha256(json.dumps(edited, sort_keys=True).encode()).hexdigest()[:16]
        path.write_text(json.dumps({"config": edited, "config_hash": digest}))
        with pytest.raises(ParseError, match=f"manifest.json.*{key}"):
            M.load_checkpoint(tmp_path)

    def test_numbers_of_either_json_form_load(self):
        # JSON writes 0.001 and 1 alike as numbers; a float field takes an int
        config = M.ModelConfig.from_dict(dict(M.toy_config().to_dict(), learning_rate=1))
        assert config.learning_rate == 1

    @pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 5), (0, 4), ()])
    def test_special_values_roundtrip_bit_exact(self, tmp_path, shape):
        payload_nan = np.frombuffer(np.uint64(0x7FF8_0000_DEAD_BEEF).tobytes(), np.float64)[0]
        specials = [-0.0, np.inf, -np.inf, 5e-324, payload_nan, -5e-324]
        x = np.random.default_rng(0).normal(size=shape)
        flat = x.reshape(-1)
        flat[:len(specials)] = specials[:flat.size]
        M.save_checkpoint(tmp_path, {"x": ad.parameter(x)}, M.toy_config(),
                          {"bn": {"mean": x, "var": -x}})
        params, _, bn_state = M.load_checkpoint(tmp_path)
        for loaded, saved in ((params["x"].data, x), (bn_state["bn"]["mean"], x),
                              (bn_state["bn"]["var"], -x)):
            assert loaded.dtype == np.float64 and loaded.shape == shape
            assert loaded.tobytes() == saved.tobytes()

    def test_directory_holds_manifest_and_npz(self, trained_toy, tmp_path):
        config, params, bn_state = trained_toy
        M.save_checkpoint(tmp_path, params, config, bn_state)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "tensors.npz"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(manifest) == ["config", "config_hash"]
        with np.load(tmp_path / "tensors.npz") as archive:
            bn_keys = {f"bn/{key}/{stat}" for key in bn_state for stat in ("mean", "var")}
            assert set(archive.files) == set(params) | bn_keys

    def test_not_a_zip_is_parse_error(self, trained_toy, tmp_path):
        config, params, bn_state = trained_toy
        M.save_checkpoint(tmp_path, params, config, bn_state)
        for blob in (b"", b"not a zip archive"):
            (tmp_path / "tensors.npz").write_bytes(blob)
            with pytest.raises(ParseError, match="tensors.npz"):
                M.load_checkpoint(tmp_path)
        (tmp_path / "tensors.npz").unlink()
        with pytest.raises(ParseError, match="tensors.npz"):
            M.load_checkpoint(tmp_path)

    def test_truncated_npz_is_parse_error(self, trained_toy, tmp_path):
        config, params, bn_state = trained_toy
        M.save_checkpoint(tmp_path, params, config, bn_state)
        path = tmp_path / "tensors.npz"
        blob = path.read_bytes()
        for size in (len(blob) - 1, len(blob) // 2, 100):
            path.write_bytes(blob[:size])
            with pytest.raises(ParseError, match="tensors.npz"):
                M.load_checkpoint(tmp_path)

    def test_corrupt_deflate_stream_is_parse_error(self, trained_toy, tmp_path):
        config, params, bn_state = trained_toy
        M.save_checkpoint(tmp_path, params, config, bn_state)
        path = tmp_path / "tensors.npz"
        np.savez_compressed(path, x=np.ones(100))
        blob = bytearray(path.read_bytes())
        name_len, extra_len = (int.from_bytes(blob[i:i + 2], "little") for i in (26, 28))
        blob[30 + name_len + extra_len] = 0x07  # first deflate block: reserved type 3
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="tensors.npz"):
            M.load_checkpoint(tmp_path)

    @pytest.mark.parametrize("array", [
        np.array([1.0, "a"], dtype=object),
        np.arange(3, dtype=np.int64),
        np.ones(3, dtype=np.float32),
    ], ids=["object", "int64", "float32"])
    def test_non_float64_array_is_parse_error(self, trained_toy, tmp_path, array):
        config, params, bn_state = trained_toy
        M.save_checkpoint(tmp_path, params, config, bn_state)
        np.savez(tmp_path / "tensors.npz", x=array)
        with pytest.raises(ParseError, match="tensors.npz"):
            M.load_checkpoint(tmp_path)

    def test_bad_batch_norm_keys_are_parse_errors(self, trained_toy, tmp_path):
        config, params, bn_state = trained_toy
        M.save_checkpoint(tmp_path, params, config, bn_state)
        for key in ("bn/a/b/mean", "bn/a/std", "bn/a/mean"):
            np.savez(tmp_path / "tensors.npz", **{key: np.ones(3)})
            with pytest.raises(ParseError, match="tensors.npz"):
                M.load_checkpoint(tmp_path)

    def test_transposed_parameter_loads_c_contiguous_and_trains(self, trained_toy, tmp_path):
        config, params, bn_state = trained_toy
        saved = {name: ad.Tensor(t.data, requires_grad=True) for name, t in params.items()}
        saved["project_w"] = ad.Tensor(params["project_w"].data.T.copy().T, requires_grad=True)
        assert not saved["project_w"].data.flags.c_contiguous
        M.save_checkpoint(tmp_path, saved, config, bn_state)
        loaded, loaded_config, loaded_bn = M.load_checkpoint(tmp_path)
        assert np.array_equal(loaded["project_w"].data, params["project_w"].data)
        assert all(t.data.flags.c_contiguous for t in loaded.values())
        assets = M.build_assets(loaded_config)
        opt = ad.Adam(loaded, lr=loaded_config.learning_rate)
        scene = build_scene(SceneSpec(seed=2), assets, loaded_config)
        losses = M.train_step(loaded, opt, scene, assets, loaded_config, loaded_bn)
        assert np.isfinite(losses["total"])


@pytest.fixture(scope="module")
def perturbed_toy():
    """Toy parameters at init plus a seeded perturbation: a generic state
    whose every bit comes from seeds. A trained state would not do, because
    Adam's first step is about lr * sign(g), and the sign of a near-zero
    gradient entry depends on the BLAS's rounding and thread count."""
    config = M.toy_config()
    assets = M.build_assets(config)
    params = M.init_parameters(config, assets)
    rng = np.random.default_rng(5)
    for name in sorted(params):
        params[name].data += 1e-2 * rng.standard_normal(params[name].data.shape)
    return config, assets, params


# One tensor per parameter group, three seeded entries each.
GRADCHECK_TENSORS = (
    "fuse_a_conv1_w", "fuse_b_conv2_w", "fuse_a_bn2_gain", "fuse_a_bn1_gain",
    "fuse_b_bn2_bias", "mask_conv_w", "enc0_0_q_w", "enc0_1_k_w", "enc1_0_v_w",
    "enc1_3_o_w", "enc0_2_q_b", "enc1_1_v_b", "enc0_0_o_b", "enc0_0_ln1_gain",
    "enc1_2_ln2_bias", "enc0_3_ffn1_w", "enc1_0_ffn2_b", "reduce0_w", "reduce0_b",
    "project_w", "project_b", "dec0_up0_w", "dec1_up2_b", "dec0_cheb1", "dec1_cheb0",
    "camera_w", "camera_b",
)


def l1_argument_signs(out, scene, assets) -> np.ndarray:
    """Signs of every L1 argument in compute_losses: the mesh residuals, the
    reprojection residuals and the edge-length deviations."""
    pred, cams = out.pred_vertices.data, out.cameras.data
    proj = pred[None, :, 0:2] * cams[:, None, 0:1] + cams[:, None, 1:3]
    d = pred[assets.mesh_edges[:, 0]] - pred[assets.mesh_edges[:, 1]]
    sq = np.sum(d * d, axis=1)
    args = (pred - scene.gt_vertices, proj - scene.gt2d, sq - sq.mean())
    return np.concatenate([np.sign(a).ravel() for a in args])


class TestWholeModelGradient:
    """Backward through forward and compute_losses (toy config, train mode)
    against central differences of the total loss."""

    def test_every_parameter_group(self, perturbed_toy):
        config, assets, params = perturbed_toy
        scene = build_scene(SceneSpec(seed=2), assets, config)

        def total() -> tuple[ad.Tensor, np.ndarray]:
            """The total loss and the signs of its L1 arguments."""
            out = M.forward(scene.features, params, assets, config, {}, train=True)
            return M.compute_losses(out, scene, assets)["total"], l1_argument_signs(
                out, scene, assets)

        for p in params.values():
            p.grad = None
        total()[0].backward()
        rng = np.random.default_rng(11)

        def entries(size):
            """Three seeded entries, then further seeded ones as replacements."""
            drawn = rng.choice(size, size=3, replace=False)
            yield from drawn
            yield from rng.permutation(np.setdiff1d(np.arange(size), drawn))

        h = 1e-5
        for name in GRADCHECK_TENSORS:
            flat = params[name].data.reshape(-1)
            analytic = params[name].grad.reshape(-1)
            checked = 0
            for i in entries(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up, up_signs = total()
                flat[i] = orig - h
                down, down_signs = total()
                flat[i] = orig
                if not np.array_equal(up_signs, down_signs):
                    continue  # an L1 kink inside the step: no valid central difference
                numeric = (up.item() - down.item()) / (2 * h)
                err = abs(analytic[i] - numeric)
                assert err <= 1e-5 * max(abs(numeric), abs(analytic[i])) + 1e-10, \
                    f"{name}[{i}]: analytic {analytic[i]:.9e} numeric {numeric:.9e}"
                checked += 1
                if checked == 3:
                    break
            assert checked == 3, f"{name}: {checked} entries checked"


class TestFirstNonfinite:
    def params(self, **arrays):
        return {name: ad.parameter(np.asarray(a, dtype=np.float64), name=name)
                for name, a in arrays.items()}

    def test_names_first_nan_or_inf_in_name_order(self):
        params = self.params(a=[1.0, 2.0], b=[0.0, np.inf], c=[np.nan, 1.0])
        assert M._first_nonfinite(params) == "b"
        params["b"].data[1] = -np.inf
        assert M._first_nonfinite(params) == "b"
        params["b"].data[1] = 0.0
        assert M._first_nonfinite(params) == "c"

    def test_finite_tensor_whose_sum_overflows_passes(self):
        big = np.finfo(np.float64).max
        params = self.params(a=[big, big, big], b=[-big, -big, big, 1.0])
        with np.errstate(over="ignore"):
            assert not np.isfinite(params["a"].data.sum())
        assert M._first_nonfinite(params) is None

    def test_train_step_names_the_tensor(self):
        config = M.toy_config()
        assets = M.build_assets(config)
        params = M.init_parameters(config, assets)
        params["project_b"].data[1] = np.nan
        opt = ad.Adam(params, lr=config.learning_rate)
        scene = build_scene(SceneSpec(seed=1), assets, config)
        with pytest.raises(NumericalError, match="'project_b' before step"):
            M.train_step(params, opt, scene, assets, config, {})
