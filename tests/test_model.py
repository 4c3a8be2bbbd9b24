import contextlib
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
from conftest import mesh_adjacency
from oracles import attention_composed, train_step_two_phase, upconv3x3_composed
from specmesh import autodiff as ad
from specmesh import model as M
from specmesh.errors import ArgumentError, NumericalError, ParseError
from specmesh.graphs import lambda_max, laplacian, scaled_laplacian
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
        assert assets.n_hand_vertices == config.decoder_sizes[-1]

    def test_operators_equal_mirrored_hands_own(self, full):
        config, assets = full
        left = assets.hands[1]
        levels, _ = build_pyramid(mesh_adjacency(left), config.decoder_sizes, seed=config.seed)
        for level, op in enumerate(assets.scaled_ops):
            lap = laplacian(levels[level])
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
        bn_state, staged = {}, {}
        f_prime, mask = M.fusion_forward(features, params, config, bn_state, train=True,
                                         staged=staged)
        bn_state.update(staged)
        rng = np.random.default_rng(4)
        sum(ad.reduce_sum(t * ad.constant(rng.normal(size=t.shape)))
            for t in (f_prime, mask)).backward()
        arrays = {"train f_prime": f_prime.data, "train mask": mask.data}
        arrays.update({f"grad {name}": p.grad for name, p in params.items()
                       if p.grad is not None})
        f_prime, mask = M.fusion_forward(features, params, config, bn_state, train=False,
                                         staged={})
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


class TestAttentionMatchesOracle:
    """The whole toy model with each attention node replaced by the
    primitive-node composition: a backward that recomputes the softmax must
    agree with one that kept it, inside the real model."""

    @staticmethod
    def step_arrays(config, assets, params, scene) -> tuple[np.ndarray, dict]:
        """Train-mode prediction and every parameter gradient of the total loss."""
        for p in params.values():
            p.grad = None
        output = M.forward(scene.features, params, assets, config, {}, train=True)
        M.compute_losses(output, scene, assets)["total"].backward()
        return output.pred_vertices.data, {name: p.grad for name, p in params.items()}

    def test_train_step_gradients(self, perturbed_toy, monkeypatch):
        config, assets, params = perturbed_toy
        scene = build_scene(SceneSpec(seed=2), assets, config)
        got_pred, got = self.step_arrays(config, assets, params, scene)
        monkeypatch.setattr(ad, "attention", attention_composed)
        want_pred, want = self.step_arrays(config, assets, params, scene)
        assert got_pred.tobytes() == want_pred.tobytes()
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

    @pytest.mark.parametrize("key", ["template", "n_clusters", "n_heads", "sublayers",
                                     "backbone_grid", "ffn_factor"])
    def test_unknown_config_key_is_parse_error(self, trained_toy, tmp_path, key):
        # checkpoints saved while the config had these settings carry them
        config, params, bn_state = trained_toy
        M.save_checkpoint(tmp_path, params, config, bn_state)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"][key] = 7
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match=f"unknown config keys.*{key}"):
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
        ("feature_width", "32"), ("feature_width", 32.0), ("n_views", True),
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

    @pytest.mark.parametrize("key, value", [
        ("n_views", 0), ("n_blocks", 0), ("cheb_order", 0), ("feature_width", 0),
        ("backbone_channels", 0), ("n_tokens", 33), ("n_tokens", 0), ("n_tokens", 400),
        ("seed", -1),
        ("decoder_sizes", [80, 40, 159]), ("decoder_sizes", []),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", 0.0), ("learning_rate", -1.0),
    ])
    def test_out_of_range_config_value_is_argument_error(self, tmp_path, key, value):
        # a manifest can carry any of these; unchecked, cheb_order 0 or empty
        # decoder_sizes end in an IndexError, feature_width 0 or seed -1 in a
        # ValueError, n_tokens 0 in an error naming another value and a NaN
        # learning_rate in a NumericalError naming a parameter, deep in
        # set-up or train_step
        with pytest.raises(ArgumentError, match=key):
            M.toy_config(**{key: value})
        edited = dict(M.toy_config().to_dict(), **{key: value})
        digest = hashlib.sha256(json.dumps(edited, sort_keys=True).encode()).hexdigest()[:16]
        (tmp_path / "manifest.json").write_text(json.dumps({"config": edited,
                                                            "config_hash": digest}))
        with pytest.raises(ArgumentError, match=key):
            M.load_checkpoint(tmp_path)

    def test_too_many_tokens_names_the_template_size(self):
        # 400 tokens are 200 per hand, more than the 159-vertex toy template has
        with pytest.raises(ArgumentError, match=r"n_tokens.*decoder_sizes\[-1\] = 159"):
            M.toy_config(n_tokens=400)
        M.toy_config(n_tokens=318)

    def test_numbers_of_either_json_form_load(self):
        # JSON writes 0.001 and 1 alike as numbers; a float field takes an int
        config = M.ModelConfig.from_dict(dict(M.toy_config().to_dict(), learning_rate=1))
        assert config.learning_rate == 1

    @pytest.mark.parametrize("name", ["project_b", "project_w", "dec0_cheb0",
                                      "fuse_a_conv1_w", "dec1_up2_w"])
    def test_special_values_roundtrip_bit_exact(self, trained_toy, tmp_path, name):
        config, params, bn_state = trained_toy
        big = np.finfo(np.float64).max
        specials = [-0.0, big, -big, 5e-324, np.finfo(np.float64).tiny, -5e-324]
        x = params[name].data.copy()
        x.reshape(-1)[:len(specials)] = specials[:x.size]
        mean = bn_state["fuse_b_bn2"]["mean"].copy()
        mean[:len(specials)] = specials
        var = np.abs(mean)
        var[:1] = -0.0  # not below zero
        M.save_checkpoint(tmp_path, dict(params, **{name: ad.parameter(x)}), config,
                          dict(bn_state, fuse_b_bn2={"mean": mean, "var": var}))
        loaded, _, loaded_bn = M.load_checkpoint(tmp_path)
        for got, saved in ((loaded[name].data, x), (loaded_bn["fuse_b_bn2"]["mean"], mean),
                           (loaded_bn["fuse_b_bn2"]["var"], var)):
            assert got.dtype == np.float64 and got.shape == saved.shape
            assert got.tobytes() == saved.tobytes()

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

    @pytest.mark.parametrize("key, value", [
        ("project_b", np.nan), ("project_b", -np.inf), ("bn/fuse_b_bn2/mean", np.inf),
        ("bn/fuse_a_bn1/var", np.nan), ("bn/fuse_a_bn1/var", -1e-3),
    ])
    def test_nonfinite_tensor_or_negative_variance_is_parse_error(self, trained_toy, tmp_path,
                                                                 key, value):
        # unchecked, an eval forward on such a checkpoint warns in a square
        # root or fails on a non-finite value without naming the tensor
        config, params, bn_state = trained_toy
        M.save_checkpoint(tmp_path, params, config, bn_state)
        path = tmp_path / "tensors.npz"
        with np.load(path) as archive:
            tensors = {name: archive[name].copy() for name in archive.files}
        tensors[key].reshape(-1)[1] = value
        np.savez(path, **tensors)
        with pytest.raises(ParseError, match=f"tensors.npz.*'{key}'"):
            M.load_checkpoint(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("enc0_0_q_w", None), ("enc0_0_q_w", np.ones((3, 3))), ("bn/fuse_a_bn1/mean", None),
        ("bn/fuse_a_bn1/var", None), ("dec0_up9_w", np.ones((3, 3))),
    ], ids=["missing", "wrong-shape", "missing-bn-mean", "missing-bn-var", "unknown"])
    def test_tensor_the_config_cannot_run_is_parse_error(self, trained_toy, tmp_path, key,
                                                         value):
        # unchecked, these load and then fail in the eval forward, with a
        # KeyError or NumPy's matmul error that names no tensor
        config, params, bn_state = trained_toy
        M.save_checkpoint(tmp_path, params, config, bn_state)
        path = tmp_path / "tensors.npz"
        with np.load(path) as archive:
            tensors = {name: archive[name] for name in archive.files}
        tensors.pop(key, None)
        if value is not None:
            tensors[key] = value
        np.savez(path, **tensors)
        with pytest.raises(ParseError, match=f"tensors.npz.*'{key}'"):
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


class TestEvalForward:
    """Eval mode runs on constant views of the parameters and builds no tape."""

    def test_builds_no_tape_and_equals_taped_composition(self, perturbed_toy):
        config, assets, params = perturbed_toy
        bn_state = {}
        M.forward(M.synth_backbone_features(1, config), params, assets, config, bn_state,
                  train=True)
        features = M.synth_backbone_features(2, config)
        out = M.forward(features, params, assets, config, bn_state, train=False)
        for t in (out.pred_vertices, out.cameras, out.f_r, out.tokens):
            assert t._node is None and t._backward is None
        # the same stages on the grad-requiring parameters, which tape
        f_prime, mask = M.fusion_forward(features, params, config, bn_state, train=False,
                                         staged={})
        f_r = M.fuse_views(f_prime, mask)
        cams = M.camera_head(f_r, params, config)
        region = ad.take(f_r, assets.token_labels, axis=0)
        tokens = ad.concat([region, ad.constant(assets.token_positions)], axis=1)
        pred = M.decoder_forward(M.transformer_forward(tokens, params, config), assets,
                                 params, config)
        assert pred._backward is not None and cams._backward is not None
        assert out.pred_vertices.data.tobytes() == pred.data.tobytes()
        assert out.cameras.data.tobytes() == cams.data.tobytes()

    def test_missing_running_statistics_is_argument_error(self, perturbed_toy):
        config, assets, params = perturbed_toy
        with pytest.raises(ArgumentError, match="fuse_a_bn1 has no running statistics"):
            M.forward(M.synth_backbone_features(2, config), params, assets, config, {},
                      train=False)

    @pytest.mark.parametrize("poison, error", [
        (None, "batch-norm fuse_a_bn1"),
        (("fuse_b_conv2_w", 1e300), "batch-norm fuse_b_bn2"),
        (("project_w", 1.5e308), "transformer forward"),
    ], ids=["features", "fuse_b_bn2", "transformer"])
    def test_nonfinite_batch_leaves_running_statistics_unchanged(self, perturbed_toy, poison,
                                                                 error):
        # a step that raises before its walk commits none of its statistics,
        # not even those of the layers that ran before the failure
        config, assets, start = perturbed_toy
        params = params_copy(start)
        bn_state = {}
        M.forward(M.synth_backbone_features(1, config), params, assets, config, bn_state,
                  train=True)
        before = {name: {stat: a.tobytes() for stat, a in stats.items()}
                  for name, stats in bn_state.items()}
        scene = build_scene(SceneSpec(seed=2), assets, config)
        if poison is None:
            scene.features[1, 3, 4, 5] = np.nan
        else:
            name, value = poison
            kept = params[name].data.copy()
            params[name].data[...] = value
        opt = ad.Adam(params, lr=config.learning_rate)
        # the poisoned weights overflow on the way to the error; NaN features do not
        quiet = (contextlib.nullcontext() if poison is None
                 else np.errstate(over="ignore", invalid="ignore"))
        with quiet, pytest.raises(NumericalError, match=error):
            M.train_step(params, opt, scene, assets, config, bn_state)
        assert {name: {stat: a.tobytes() for stat, a in stats.items()}
                for name, stats in bn_state.items()} == before
        if poison is not None:
            params[name].data[...] = kept
        out = M.forward(M.synth_backbone_features(3, config), params, assets, config,
                        bn_state, train=False)
        assert np.all(np.isfinite(out.pred_vertices.data))

    def test_train_mode_forward_commits_at_its_end(self, perturbed_toy):
        config, assets, params = perturbed_toy
        features = M.synth_backbone_features(1, config)
        bn_state, staged = {}, {}
        M.forward(features, params, assets, config, bn_state, train=True, staged=staged)
        assert bn_state == {} and sorted(staged) == sorted(M.BN_LAYERS)
        M.forward(features, params, assets, config, bn_state, train=True)
        assert sorted(bn_state) == sorted(M.BN_LAYERS)
        for name in M.BN_LAYERS:
            for stat in ("mean", "var"):
                assert bn_state[name][stat].tobytes() == staged[name][stat].tobytes()


@pytest.mark.parametrize("shape", [(3, 7, 7, 64), (1, 7, 7, 64), (2, 6, 7, 64), (2, 7, 7, 32)])
def test_wrong_feature_shape_is_argument_error(perturbed_toy, shape):
    config, assets, params = perturbed_toy
    with pytest.raises(ArgumentError, match=r"features must be \(2, 7, 7, 64\), got"):
        M.forward(np.zeros(shape), params, assets, config, {}, train=True)


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


def params_copy(params: dict) -> dict:
    return {name: ad.parameter(p.data, name=name) for name, p in params.items()}


class TestTrainStep:
    """train_step steps Adam on each parameter inside the backward walk."""

    def test_matches_two_phase_oracle_bits(self, perturbed_toy):
        config, assets, start = perturbed_toy
        scenes = [build_scene(SceneSpec(seed=s), assets, config) for s in (1, 2, 3)]
        runs = []
        for step in (M.train_step, train_step_two_phase):
            params, bn_state = params_copy(start), {}
            opt = ad.Adam(params, lr=config.learning_rate)
            losses = [step(params, opt, scene, assets, config, bn_state) for scene in scenes]
            runs.append((params, opt, losses))
        (mine, opt, losses), (ref, ref_opt, ref_losses) = runs
        assert losses == ref_losses
        assert opt.t == ref_opt.t == {name: 3 for name in start}
        for name in start:
            for got, want in ((mine[name].data, ref[name].data), (opt.m[name], ref_opt.m[name]),
                              (opt.v[name], ref_opt.v[name])):
                assert got.tobytes() == want.tobytes(), name
            assert mine[name].grad is None, name

    def test_each_step_finds_earlier_gradients_dropped(self, perturbed_toy):
        config, assets, start = perturbed_toy
        params = params_copy(start)
        params["unused"] = ad.parameter(np.ones(3), name="unused")
        params["unused"].grad = np.ones(3)  # left from outside: must step as zero
        opt = ad.Adam(params, lr=config.learning_rate)
        step, stepped = opt.step, []

        def spy(subset):
            assert all(params[name].grad is None for name in stepped)
            step(subset)
            stepped.extend(subset)

        opt.step = spy
        M.train_step(params, opt, build_scene(SceneSpec(seed=1), assets, config), assets,
                     config, {})
        assert sorted(stepped) == sorted(params)
        assert stepped[-1] == "unused"  # the walk never reaches it
        assert all(p.grad is None for p in params.values())
        assert np.array_equal(params["unused"].data, np.ones(3))  # zero gradient, zero step


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

    def test_train_step_names_the_first_tensor_it_made_nonfinite(self, perturbed_toy,
                                                                 monkeypatch):
        # the walk steps project_w before fuse_a_conv1_w; the error names the
        # first of the two in name order, once every parameter has stepped
        config, assets, start = perturbed_toy
        params = params_copy(start)
        opt = ad.Adam(params, lr=config.learning_rate)
        step, stepped = opt.step, []

        def poisoning(subset):
            step(subset)
            stepped.extend(subset)
            for name in set(subset) & {"project_w", "fuse_a_conv1_w"}:
                params[name].data[0, 0] = np.nan

        monkeypatch.setattr(opt, "step", poisoning)
        scene = build_scene(SceneSpec(seed=1), assets, config)
        with pytest.raises(NumericalError, match="'fuse_a_conv1_w' after step"):
            M.train_step(params, opt, scene, assets, config, {})
        assert stepped.index("project_w") < stepped.index("fuse_a_conv1_w")
        assert sorted(stepped) == sorted(params)
