import os
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import LockstepPool
from oracles import (WholeArrayAdam, attention_composed, central_difference,
                     layer_norm_composed, linear_composed, upconv3x3_composed)
from specmesh import autodiff as ad
from specmesh import model as M
from specmesh.errors import ArgumentError
from specmesh.graphs import adjacency_matrix, lambda_max, laplacian, scaled_laplacian
from specmesh.scenes import SceneSpec, build_scene


def fd_ok(build_loss, arrays: dict, h=1e-4, tol=1e-4):
    """Analytic gradients vs central differences for every input array."""
    tensors = {k: ad.parameter(v, name=k) for k, v in arrays.items()}
    loss = build_loss(tensors)
    loss.backward()
    for key, arr in arrays.items():
        def scalar(x, key=key):
            probe = {k: ad.constant(v if k != key else x) for k, v in arrays.items()}
            return build_loss(probe).item()

        numeric = central_difference(scalar, arr.copy(), h=h)
        analytic = tensors[key].grad
        assert analytic is not None, key
        denom = np.maximum.reduce([np.abs(analytic), np.abs(numeric),
                                   np.full_like(numeric, 1e-6)])
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() < tol, f"{key}: max rel err {rel.max():.3e}"


def tape(root: ad.Tensor) -> dict:
    """Every graph node reachable from ``root``, each once, mapped to the
    arrays its backward closure holds, through nested closures, lists and
    tuples. Asserts that no closure holds a Tensor: closures hold graph
    nodes, shapes and the arrays they read, so a tensor the caller drops
    frees its data unless a closure still holds that very array."""
    held, stack = {}, [root._node]
    while stack:
        node = stack.pop()
        if node in held:
            continue
        arrays, todo, seen = [], [node.backward], set()
        while todo:
            item = todo.pop()
            if id(item) in seen:
                continue
            seen.add(id(item))
            assert not isinstance(item, ad.Tensor), f"a backward closure holds {item}"
            if isinstance(item, np.ndarray):
                arrays.append(item)
            elif isinstance(item, (list, tuple)):
                todo.extend(item)
            elif callable(item) and getattr(item, "__closure__", None):
                todo.extend(cell.cell_contents for cell in item.__closure__)
        held[node] = arrays
        stack.extend(node.parents)
    return held


RNG = np.random.default_rng(42)


class TestElementwise:
    def test_add_mul_broadcast(self):
        fd_ok(lambda t: (t["a"] * t["b"] + t["c"]).sum(),
              {"a": RNG.normal(size=(4, 5)), "b": RNG.normal(size=(5,)),
               "c": RNG.normal(size=(1, 5))})

    def test_div(self):
        fd_ok(lambda t: (t["a"] / t["b"]).sum(),
              {"a": RNG.normal(size=(3, 4)), "b": RNG.uniform(1.0, 2.0, size=(3, 4))})

    def test_relu_exp_sqrt_abs(self):
        fd_ok(lambda t: (ad.relu(t["a"]) + ad.exp(t["b"]) + ad.sqrt(t["c"]) + ad.absolute(t["d"])).sum(),
              {"a": RNG.normal(size=(6,)) + 0.3, "b": RNG.normal(size=(6,)) * 0.3,
               "c": RNG.uniform(0.5, 2.0, size=(6,)), "d": RNG.normal(size=(6,)) + 0.4})

    def test_neg_sub(self):
        fd_ok(lambda t: (t["a"] - t["b"]).mean(), {"a": RNG.normal(size=(7,)), "b": RNG.normal(size=(7,))})


class TestMatmulAndShapes:
    def test_matmul_2d(self):
        fd_ok(lambda t: (t["a"] @ t["b"]).sum(),
              {"a": RNG.normal(size=(3, 4)), "b": RNG.normal(size=(4, 2))})

    def test_matmul_batched(self):
        fd_ok(lambda t: (t["a"] @ t["b"]).sum(),
              {"a": RNG.normal(size=(2, 3, 4)), "b": RNG.normal(size=(2, 4, 5))})

    def test_matmul_broadcast_weight(self):
        fd_ok(lambda t: (t["a"] @ t["w"]).sum(),
              {"a": RNG.normal(size=(2, 3, 4)), "w": RNG.normal(size=(4, 5))})

    def test_reshape_transpose_concat(self):
        def loss(t):
            x = ad.reshape(t["a"], (2, 6))
            y = ad.transpose(t["b"], (1, 0))
            return (ad.concat([x, y], axis=0)).sum()

        fd_ok(loss, {"a": RNG.normal(size=(3, 4)), "b": RNG.normal(size=(6, 4))})

    def test_take_with_repeats(self):
        idx = np.array([0, 2, 2, 1])
        fd_ok(lambda t: ad.take(t["a"], idx, axis=0).sum(),
              {"a": RNG.normal(size=(3, 5))})

    def test_axis_matrix(self):
        m = RNG.normal(size=(6, 4))
        fd_ok(lambda t: ad.axis_matrix(t["a"], m, axis=1).sum(),
              {"a": RNG.normal(size=(2, 4, 3))})


class TestReductions:
    def test_sum_mean_axes(self):
        fd_ok(lambda t: (t["a"].sum(axis=0) * t["a"].mean(axis=1)[0]).sum(),
              {"a": RNG.normal(size=(3, 3))})

    def test_max_routes_to_first(self):
        a = ad.parameter(np.array([[1.0, 3.0, 3.0], [2.0, 0.0, 1.0]]))
        out = ad.reduce_max(a, axis=1).sum()
        out.backward()
        assert np.array_equal(a.grad, [[0, 1, 0], [1, 0, 0]])

    def test_max_gradient(self):
        fd_ok(lambda t: ad.reduce_max(t["a"], axis=0).sum(),
              {"a": RNG.normal(size=(4, 3))})


class TestSoftmaxAndNorm:
    def test_softmax_rows_sum_to_one(self):
        x = ad.constant(RNG.normal(size=(5, 7)))
        y = ad.softmax(x, axis=1)
        assert np.max(np.abs(y.data.sum(axis=1) - 1.0)) < 1e-12

    def test_softmax_gradient(self):
        probe = RNG.normal(size=(3, 4))
        fd_ok(lambda t: (ad.softmax(t["a"], axis=1) * ad.constant(probe)).sum(),
              {"a": RNG.normal(size=(3, 4))})

    def test_layer_norm_gradient(self):
        probe = RNG.normal(size=(4, 6))
        fd_ok(lambda t: (ad.layer_norm(t["x"], t["g"], t["b"]) * ad.constant(probe)).sum(),
              {"x": RNG.normal(size=(4, 6)), "g": RNG.uniform(0.5, 1.5, size=(6,)),
               "b": RNG.normal(size=(6,))})


OPS_RNG = np.random.default_rng(9)  # its own stream: RNG's draws for other tests stay put
SIGNED = OPS_RNG.uniform(0.5, 2.0, size=(3, 4)) * np.where(OPS_RNG.random((3, 4)) < 0.5, -1, 1)
RESAMPLE = OPS_RNG.normal(size=(5, 4))
SINGLE_PARENT_OPS = [
    pytest.param(ad.neg, SIGNED, id="neg"),
    pytest.param(lambda a: ad.reshape(a, (4, 3)), SIGNED, id="reshape"),
    pytest.param(lambda a: ad.transpose(a, (1, 0)), SIGNED, id="transpose"),
    pytest.param(lambda a: ad.getitem(a, (slice(1, 3), 2)), SIGNED, id="getitem"),
    pytest.param(lambda a: ad.take(a, [0, 2, 2], axis=1), SIGNED, id="take"),
    pytest.param(lambda a: ad.reduce_sum(a, axis=0), SIGNED, id="reduce_sum"),
    pytest.param(lambda a: ad.reduce_max(a, axis=1), SIGNED, id="reduce_max"),
    pytest.param(ad.relu, SIGNED, id="relu"),
    pytest.param(ad.absolute, SIGNED, id="absolute"),
    pytest.param(ad.exp, SIGNED, id="exp"),
    pytest.param(ad.sqrt, np.abs(SIGNED), id="sqrt"),
    pytest.param(lambda a: ad.softmax(a, axis=1), SIGNED, id="softmax"),
    pytest.param(lambda a: ad.axis_matrix(a, RESAMPLE, axis=1), SIGNED, id="axis_matrix"),
]


class TestNoTapeWithoutGradient:
    """A tensor that needs no gradient has no graph node: no parents, no closure."""

    @pytest.mark.parametrize("op, x", SINGLE_PARENT_OPS)
    def test_op_on_constant_keeps_no_tape(self, op, x):
        out = op(ad.constant(x))
        assert not out.requires_grad
        assert out._node is None and out._backward is None

    @pytest.mark.parametrize("op, x", SINGLE_PARENT_OPS)
    def test_op_on_parameter_gradient(self, op, x):
        probe = ad.constant(OPS_RNG.normal(size=op(ad.constant(x)).shape))
        fd_ok(lambda t: (op(t["a"]) * probe).sum(), {"a": x})

    def test_constructor_drops_parents_of_a_constant(self):
        a = ad.parameter(np.ones(2))
        out = ad.Tensor(a.data * 2.0, False, (a,), lambda g: None)
        assert out._node is None and out._backward is None


GAIN, BIAS = OPS_RNG.uniform(0.5, 1.5, size=(4,)), OPS_RNG.normal(size=(4,))
FREES_INPUT_OPS = [  # the adjoint of each reads nothing of its input's data
    pytest.param(ad.neg, SIGNED, id="neg"),
    pytest.param(lambda a: ad.add(a, ad.exp(a)), SIGNED, id="add"),
    pytest.param(lambda a: ad.mul(a, ad.constant(SIGNED)), SIGNED, id="mul_by_constant"),
    pytest.param(lambda a: ad.div(a, ad.constant(SIGNED)), SIGNED, id="div_by_constant"),
    pytest.param(lambda a: ad.matmul(a, ad.constant(RESAMPLE.T)), SIGNED, id="matmul_constant"),
    pytest.param(lambda a: ad.reshape(a, (4, 3)), SIGNED, id="reshape"),
    pytest.param(lambda a: ad.transpose(a, (1, 0)), SIGNED, id="transpose"),
    pytest.param(lambda a: ad.concat([a, ad.exp(a)], axis=1), SIGNED, id="concat"),
    pytest.param(lambda a: ad.getitem(a, (slice(1, 3), 2)), SIGNED, id="getitem"),
    pytest.param(lambda a: ad.take(a, [0, 2, 2], axis=1), SIGNED, id="take"),
    pytest.param(lambda a: ad.reduce_sum(a, axis=0), SIGNED, id="reduce_sum"),
    pytest.param(ad.relu, SIGNED, id="relu"),
    pytest.param(ad.exp, SIGNED, id="exp"),
    pytest.param(ad.sqrt, np.abs(SIGNED), id="sqrt"),
    pytest.param(lambda a: ad.softmax(a, axis=1), SIGNED, id="softmax"),
    pytest.param(lambda a: ad.axis_matrix(a, RESAMPLE, axis=1), SIGNED, id="axis_matrix"),
    pytest.param(lambda a: ad.layer_norm(a, ad.parameter(GAIN), ad.parameter(BIAS)), SIGNED,
                 id="layer_norm"),
]


class TestTapeKeepsOnlyWhatClosuresRead:
    """A graph node does not hold its tensor's data; a closure holds only the
    arrays its adjoint reads."""

    @pytest.mark.parametrize("op, x", FREES_INPUT_OPS)
    def test_input_array_freed_while_the_graph_lives(self, op, x):
        probe = ad.constant(OPS_RNG.normal(size=op(ad.constant(x)).shape))

        def build(leaf, watch=None):
            hidden = leaf * 1.0  # an interior tensor as the op's input
            if watch is not None:
                watch.append(weakref.ref(hidden.data))
            return (op(hidden) * probe).sum()

        leaf, watch = ad.parameter(x), []
        loss = build(leaf, watch)
        tape(loss)  # asserts that no closure holds a Tensor
        assert watch[0]() is None  # the caller dropped it and no closure reads it
        loss.backward()
        numeric = central_difference(lambda v: build(ad.constant(v)).item(), x.copy())
        assert np.allclose(leaf.grad, numeric, rtol=1e-6, atol=1e-8)

    def test_relu_mask_at_signed_zero_and_nan(self):
        x = np.array([-0.0, 0.0, np.nan, -np.inf, -1.0, 5e-324, 2.0, np.inf])
        probe = OPS_RNG.normal(size=x.shape)
        a = ad.parameter(x)
        (ad.relu(a) * ad.constant(probe)).sum().backward()
        assert a.grad.tobytes() == (probe * (x > 0)).tobytes()

    def test_train_mode_model_tape_holds_no_tensor(self):
        config = M.toy_config()
        assets = M.build_assets(config)
        params = M.init_parameters(config, assets)
        scene = build_scene(SceneSpec(seed=3), assets, config)
        output = M.forward(scene.features, params, assets, config, {}, train=True)
        held = tape(M.compute_losses(output, scene, assets)["total"])
        assert {p._node for p in params.values()} <= held.keys()

    @pytest.mark.parametrize("key", [
        np.array([0, 0, 2]), [0, 0, 2], np.array([True, False, True]),
        (slice(None), np.array([1, 1])), True, np.True_,
    ], ids=["int_array", "list", "bool_array", "tuple_with_array", "bool", "numpy_bool"])
    def test_getitem_rejects_advanced_keys(self, key):
        with pytest.raises(ArgumentError, match="ad.take"):
            ad.getitem(ad.parameter(SIGNED), key)


def backward_keeps_upstream_grads(loss):
    """Run ``loss.backward()`` and assert that no node's gradient changed
    after its own backward ran, i.e. no later accumulation wrote into an
    array that a node's ``grad`` still holds."""
    consumed = []
    for node in tape(loss):
        if node.backward is not None:
            def spy(g, node=node, original=node.backward):
                consumed.append((node, g.copy()))
                original(g)

            node.backward = spy
    loss.backward()
    assert consumed
    for node, grad in consumed:
        assert np.array_equal(node.grad, grad), node


def ownership_ok(build_loss, arrays: dict):
    fd_ok(build_loss, arrays)
    backward_keeps_upstream_grads(build_loss({k: ad.parameter(v) for k, v in arrays.items()}))


class TestGradientOwnership:
    """A node's backward may hand ``_accumulate`` its gradient array as the
    first gradient of a parent only if nothing else holds that array."""

    def test_add_same_tensor_twice(self):
        probe = ad.constant(RNG.normal(size=(3, 4)))
        ownership_ok(lambda t: (ad.add(t["x"], t["x"]) * probe).sum(),
                     {"x": RNG.normal(size=(3, 4))})

    def test_mul_same_tensor_twice(self):
        probe = ad.constant(RNG.normal(size=(3, 4)))
        ownership_ok(lambda t: (ad.mul(t["x"], t["x"]) * probe).sum(),
                     {"x": RNG.normal(size=(3, 4))})

    def test_add_operands_reached_by_different_paths(self):
        probe = ad.constant(RNG.normal(size=(3, 4)))

        def loss(t):
            x = t["x"]
            summed = ad.add(ad.reshape(ad.reshape(x, (12,)), (3, 4)), ad.relu(x))
            return (ad.add(summed, t["y"]) * probe).sum() + (t["y"] * t["y"]).sum()

        ownership_ok(loss, {"x": RNG.normal(size=(3, 4)) + 0.3, "y": RNG.normal(size=(3, 4))})

    def test_add_passes_one_array_to_both_operands(self):
        probe = ad.constant(RNG.normal(size=(2, 5)))
        ownership_ok(lambda t: (ad.add(t["a"], t["b"]) * probe).sum() + ad.exp(t["a"]).sum(),
                     {"a": RNG.normal(size=(2, 5)) * 0.3, "b": RNG.normal(size=(2, 5))})

    @pytest.mark.parametrize("view", [
        lambda x: ad.reshape(x, (4, 3)),
        lambda x: ad.transpose(x, (1, 0)),
        lambda x: ad.concat([ad.exp(x), x], axis=1),
        lambda x: x[1:3],
    ], ids=["reshape", "transpose", "concat", "getitem"])
    @pytest.mark.parametrize("view_first", [True, False])
    def test_view_gradient_then_accumulate(self, view, view_first):
        x = RNG.normal(size=(3, 4))
        probe = ad.constant(RNG.normal(size=view(ad.constant(x)).shape))

        def loss(t):
            through_view = (view(t["x"]) * probe).sum()
            direct = (t["x"] * t["x"]).sum()
            # add's first operand reaches x first in the backward pass
            return through_view + direct if view_first else direct + through_view

        ownership_ok(loss, {"x": x})


def rel_err(a, b) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


def assert_fused_matches(fused, composed, arrays: dict, tol=1e-12):
    """Forward and every input gradient of ``fused`` equal ``composed``'s
    within ``tol`` relative to the reference's largest magnitude."""
    probe = RNG.normal(size=fused(*(ad.constant(a) for a in arrays.values())).shape)
    results = []
    for build in (fused, composed):
        inputs = [ad.parameter(a) for a in arrays.values()]
        out = build(*inputs)
        (out * ad.constant(probe)).sum().backward()
        results.append([out.data] + [t.grad for t in inputs])
    for name, got, want in zip(["forward", *arrays], *results):
        assert rel_err(got, want) < tol, f"{name}: {rel_err(got, want):.3e}"


class TestFusedNodes:
    def test_attention_matches_composition(self):
        arrays = {k: RNG.normal(size=(7, 6)) for k in "qkv"}
        assert_fused_matches(lambda q, k, v: ad.attention(q, k, v, 2),
                             lambda q, k, v: attention_composed(q, k, v, 2), arrays)

    def test_attention_gradient(self):
        for tokens, inner, heads in ((5, 6, 3), (9, 4, 1)):
            probe = RNG.normal(size=(tokens, inner))
            fd_ok(lambda t: (ad.attention(t["q"], t["k"], t["v"], heads)
                             * ad.constant(probe)).sum(),
                  {k: RNG.normal(size=(tokens, inner)) for k in "qkv"})

    def test_attention_forward_bits_equal_composition(self):
        q, k, v = (ad.constant(RNG.normal(size=(9, 6))) for _ in range(3))
        assert np.array_equal(ad.attention(q, k, v, 3).data, attention_composed(q, k, v, 3).data)

    def test_attention_rejects_ragged_heads(self):
        q = ad.constant(np.ones((4, 5)))
        with pytest.raises(ArgumentError):
            ad.attention(q, q, q, 2)
        q = ad.constant(np.ones((4, 6)))
        for heads in (0, -2):
            with pytest.raises(ArgumentError, match=f"heads={heads}"):
                ad.attention(q, q, q, heads)

    def test_attention_keeps_no_tokens_squared_array(self):
        tokens = 200
        q, k, v = (ad.parameter(RNG.normal(size=(tokens, 6))) for _ in range(3))
        out = ad.attention(q, k, v, 3)
        sizes = [a.size for a in tape(out)[out._node]]
        assert sizes and max(sizes) < tokens * tokens
        (out * out).sum().backward()
        assert all(t.grad.shape == (tokens, 6) for t in (q, k, v))

    def test_layer_norm_matches_composition(self):
        arrays = {"x": RNG.normal(size=(4, 6)), "g": RNG.uniform(0.5, 1.5, size=(6,)),
                  "b": RNG.normal(size=(6,))}
        assert_fused_matches(ad.layer_norm, layer_norm_composed, arrays)

    def test_layer_norm_forward_bits_equal_composition(self):
        x, g, b = (ad.constant(RNG.normal(size=s)) for s in ((5, 7), (7,), (7,)))
        assert np.array_equal(ad.layer_norm(x, g, b).data, layer_norm_composed(x, g, b).data)

    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
    def test_linear_matches_composition(self, shape):
        arrays = {"x": RNG.normal(size=shape), "w": RNG.normal(size=(4, 3)),
                  "b": RNG.normal(size=(3,))}
        assert_fused_matches(ad.linear, linear_composed, arrays)
        del arrays["b"]
        assert_fused_matches(ad.linear, linear_composed, arrays)

    def test_linear_gradient(self):
        probe = RNG.normal(size=(2, 3, 5))
        fd_ok(lambda t: (ad.linear(t["x"], t["w"], t["b"]) * ad.constant(probe)).sum(),
              {"x": RNG.normal(size=(2, 3, 4)), "w": RNG.normal(size=(4, 5)),
               "b": RNG.normal(size=(5,))})

    def test_upconv3x3_matches_composition(self):
        # two images, a 4x5 grid and 3 -> 2 channels: a swapped grid axis or
        # a transposed tap changes the result
        arrays = {"x": RNG.normal(size=(2, 4, 5, 3)), "w": RNG.normal(size=(3, 3, 3, 2))}
        taps = M._upconv_taps(4, 5)
        assert_fused_matches(lambda x, w: ad.upconv3x3(x, w, taps), upconv3x3_composed, arrays)

    def test_upconv3x3_gradient(self):
        taps = M._upconv_taps(3, 2)
        probe = RNG.normal(size=(2, 4, 2, 3))
        fd_ok(lambda t: (ad.upconv3x3(t["x"], t["w"], taps) * ad.constant(probe)).sum(),
              {"x": RNG.normal(size=(2, 3, 2, 2)), "w": RNG.normal(size=(3, 3, 2, 3))})

    def test_upconv3x3_rejects_taps_of_another_grid(self):
        x = ad.constant(np.ones((1, 4, 5, 2)))
        with pytest.raises(ArgumentError):
            ad.upconv3x3(x, ad.constant(np.ones((3, 3, 2, 2))), M._upconv_taps(4, 4))


class TestChebPrimitive:
    def test_gradcheck_theta_and_signal(self):
        g = adjacency_matrix([(i, i + 1) for i in range(7)] + [(0, 4), (2, 6)], 8)
        lap = laplacian(g)
        scaled = scaled_laplacian(lap, lambda_max(lap))
        probe = RNG.normal(size=(8, 2))
        fd_ok(lambda t: (ad.cheb_filter(scaled, t["theta"], t["x"]) * ad.constant(probe)).sum(),
              {"theta": RNG.normal(size=(3, 3, 2)) * 0.5, "x": RNG.normal(size=(8, 3))})


def final_reports(build_loss, arrays: dict) -> list:
    """Walk one graph with ``backward(on_final)`` and return the names of
    the reported leaves, in report order.

    A second graph over the same arrays is walked with plain ``backward()``.
    Every leaf with ``requires_grad`` that the walk reaches must be reported
    exactly once, after every node that consumes it has been walked, with
    the plain walk's gradient bit for bit. The callback then overwrites the
    leaf's data with NaN and drops its gradient, as an in-place optimizer
    step would, so a closure that read a leaf after its report would carry
    NaN into a later leaf's gradient.
    """
    plain = {k: ad.parameter(v) for k, v in arrays.items()}
    build_loss(plain).backward()
    leaves = {k: ad.parameter(v) for k, v in arrays.items()}
    names = {t._node: k for k, t in leaves.items()}
    loss = build_loss(leaves)
    consumers, reached = {}, set()
    for node in tape(loss):
        if node in names:
            reached.add(names[node])
        for p in node.parents:
            consumers.setdefault(p, []).append(node)
    reports = []

    def on_final(leaf):
        assert leaf.requires_grad
        assert all(node.backward is ad._walked for node in consumers.get(leaf._node, ()))
        name = names[leaf._node]
        want = plain[name].grad
        assert (leaf.grad is None) == (want is None), name
        if want is not None:
            assert leaf.grad.tobytes() == want.tobytes(), name
        reports.append(name)
        leaf.data[...] = np.nan
        leaf.grad = None

    loss.backward(on_final)
    assert sorted(reports) == sorted(reached)
    return reports


class TestOnFinal:
    """``backward(on_final)`` reports each leaf once its gradient is final."""

    def test_leaf_with_two_consumers(self):
        probe = ad.constant(RNG.normal(size=(3, 3)))
        reports = final_reports(
            lambda t: (ad.mul(t["w"], t["w"]) * probe).sum() + (t["w"] @ t["x"]).sum(),
            {"w": RNG.normal(size=(3, 3)), "x": RNG.normal(size=(3, 2))})
        assert sorted(reports) == ["w", "x"]

    def test_leaf_reached_only_through_views(self):
        # x's gradient reads the reshape's data, a view of w
        reports = final_reports(
            lambda t: (ad.exp(ad.reshape(t["w"], (4, 3)) @ t["x"])
                       * ad.transpose(t["v"], (1, 0))[0:4]).sum(),
            {"w": RNG.normal(size=(2, 6)), "x": RNG.normal(size=(3, 2)),
             "v": RNG.normal(size=(2, 5))})
        assert sorted(reports) == ["v", "w", "x"]

    def test_unreached_leaf_and_constants_are_not_reported(self):
        probe = RNG.normal(size=(4,))
        reports = final_reports(
            lambda t: (t["a"] * ad.constant(probe)
                       + ad.constant(np.ones(4)) * ad.constant(2.0)).sum(),
            {"a": RNG.normal(size=(4,)), "idle": RNG.normal(size=(4,))})
        assert reports == ["a"]

    def test_consumer_without_gradient(self):
        def build(t):
            mid = t["w"] * t["u"]
            stop = ad.Tensor(mid.data, True, (mid,), lambda g: None)  # passes no gradient
            return (stop + t["w"]).sum()

        reports = final_reports(build, {"w": RNG.normal(size=(5,)), "u": RNG.normal(size=(5,))})
        assert sorted(reports) == ["u", "w"]  # u is reported with no gradient

    def test_leaf_root_is_reported_once(self):
        reports = final_reports(lambda t: t["s"], {"s": np.array(1.5)})
        assert reports == ["s"]


class TestMachinery:
    def test_backward_requires_scalar(self):
        with pytest.raises(ArgumentError):
            ad.parameter(np.ones(3)).backward()

    def test_grad_accumulates_over_reuse(self):
        a = ad.parameter(np.array([2.0]))
        out = (a * a + a).sum()
        out.backward()
        assert np.allclose(a.grad, 2 * 2.0 + 1.0)

    def test_second_backward_on_released_graph_raises(self):
        a = ad.parameter(np.array([1.5]))
        square = a * a
        loss = square.sum()
        loss.backward()
        first = a.grad.copy()
        with pytest.raises(ArgumentError, match="already walked"):
            loss.backward()
        with pytest.raises(ArgumentError, match="already walked"):
            (square * 2.0).sum().backward()  # a held interior node is walked too
        assert np.array_equal(a.grad, first)
        a.grad = None
        (a * a).sum().backward()  # a new graph over the same leaf
        assert np.array_equal(a.grad, first)

    def test_backward_releases_the_tape(self):
        x0, w0 = RNG.normal(size=(4, 3)), RNG.normal(size=(3,))
        probe = RNG.normal(size=(4, 3))
        saved = []

        def build(x, w):
            e = ad.exp(x * w)  # the caller never holds this node
            saved.append(weakref.ref(e.data))
            return (e * ad.constant(probe)).sum()

        x, w = ad.parameter(x0), ad.parameter(w0)
        loss = build(x, w)
        assert saved[0]() is not None
        loss.backward()
        assert saved[0]() is None  # freed while ``loss`` is still held
        for leaf, start, scalar in (
                (x, x0, lambda v: build(ad.constant(v), ad.constant(w0)).item()),
                (w, w0, lambda v: build(ad.constant(x0), ad.constant(v)).item())):
            numeric = central_difference(scalar, start.copy())
            assert np.allclose(leaf.grad, numeric, rtol=1e-6, atol=1e-8)

    def test_adam_zero_lr_is_identity(self):
        p = ad.parameter(RNG.normal(size=(4, 4)))
        before = p.data.copy()
        opt = ad.Adam({"p": p}, lr=0.0)
        (p * p).sum().backward()
        opt.step({"p": p})
        assert np.array_equal(p.data, before)

    def test_adam_equals_whole_array_adam_bits(self):
        shapes = {"w": (70_000,), "b": (3, 5), "idle": (4,), "m": (33, 1001)}
        rng = np.random.default_rng(7)
        start = {k: rng.normal(size=s) for k, s in shapes.items()}
        mine = {k: ad.parameter(v) for k, v in start.items()}
        ref = {k: ad.parameter(v) for k, v in start.items()}
        opt, oracle = ad.Adam(mine, lr=1e-2), WholeArrayAdam(ref, lr=1e-2)
        for _ in range(20):
            for key, shape in shapes.items():
                g = None if key == "idle" else rng.normal(size=shape) * rng.uniform(1e-6, 1e2)
                mine[key].grad = ref[key].grad = g
            opt.step(mine)
            oracle.step(ref)
        for key in shapes:
            for got, want in ((mine[key].data, ref[key].data), (opt.m[key], oracle.m[key]),
                              (opt.v[key], oracle.v[key])):
                assert got.tobytes() == want.tobytes(), key

    def test_adam_step_allocates_no_parameter_sized_array(self):
        rng = np.random.default_rng(3)
        shapes = [(2048, 1024), (1_500_000,), (257, 3001), (7,)]
        params = {str(i): ad.parameter(rng.normal(size=s)) for i, s in enumerate(shapes)}
        assert sum(p.data.size for p in params.values()) >= 4_000_000
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
        opt = ad.Adam(params)
        tracemalloc.start()
        try:
            opt.step(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_adam_rejects_unknown_key_before_updating(self):
        p, q = ad.parameter(np.ones(3)), ad.parameter(np.ones(2))
        opt = ad.Adam({"p": p})
        p.grad = np.ones(3)
        with pytest.raises(ArgumentError, match="'q'"):
            opt.step({"p": p, "q": q})
        assert np.array_equal(p.data, np.ones(3)) and opt.t == {"p": 0}

    @pytest.mark.parametrize("grad_shape", [(4, 3), (13,), (11,)])
    def test_adam_rejects_gradient_of_another_shape_before_updating(self, grad_shape):
        shape = (3, 4) if len(grad_shape) == 2 else (12,)
        a, p = ad.parameter(np.ones(5)), ad.parameter(np.ones(shape))
        opt = ad.Adam({"a": a, "p": p})
        a.grad, p.grad = np.ones(5), np.ones(grad_shape)
        with pytest.raises(ArgumentError, match=r"'p'.*\(3, 4\)|'p'.*\(12,\)"):
            opt.step({"a": a, "p": p})
        assert np.array_equal(a.data, np.ones(5)) and np.array_equal(p.data, np.ones(shape))
        assert opt.t == {"a": 0, "p": 0} and not opt.m["a"].any()

    def test_adam_rejects_strided_parameter(self):
        p = ad.parameter(np.ones((3, 4)))
        opt = ad.Adam({"p": p})
        p.data = np.ones((4, 3)).T
        p.grad = np.ones((3, 4))
        with pytest.raises(ArgumentError):
            opt.step({"p": p})

    def test_adam_descends_quadratic(self):
        p = ad.parameter(np.array([5.0, -3.0]))
        opt = ad.Adam({"p": p}, lr=0.1)


        def step(leaf):
            opt.step({"p": leaf})
            leaf.grad = None

        for _ in range(300):
            (p * p).sum().backward(on_final=step)
        assert np.abs(p.data).max() < 1e-2


def pooled_gradients(build, shapes: dict, rng) -> list:
    """The output of ``build`` on parameters of ``shapes`` drawn from
    ``rng``, then each parameter's gradient of a random weighting of it."""
    inputs = {k: ad.parameter(rng.normal(size=s)) for k, s in shapes.items()}
    out = build(**inputs)
    (out * ad.constant(rng.normal(size=out.shape))).sum().backward()
    return [out.data] + [t.grad for t in inputs.values()]


def pooled_adam_steps(rng) -> list:
    params = {k: ad.parameter(rng.normal(size=s))
              for k, s in (("w", (200_000,)), ("m", (300, 700)), ("b", (70,)))}
    opt = ad.Adam(params, lr=1e-2)
    for _ in range(3):
        for p in params.values():
            p.grad = rng.normal(size=p.shape)
        opt.step(params)
    return [a for k in params for a in (params[k].data, opt.m[k], opt.v[k])]


# case -> (run on a generator, pooled runs at width 2). Every case is above
# the floor, and each row-blocked product has 128 rows or more, so it is cut.
POOLED_CASES = {
    "attention": (lambda rng: pooled_gradients(
        lambda q, k, v: ad.attention(q, k, v, 3), dict.fromkeys("qkv", (256, 96)), rng), 2),
    "linear": (lambda rng: pooled_gradients(
        ad.linear, {"x": (256, 192), "weight": (192, 192), "bias": (192,)}, rng), 2),
    "matmul": (lambda rng: pooled_gradients(
        ad.matmul, {"a": (320, 160), "b": (160, 192)}, rng), 2),
    "upconv3x3": (lambda rng: pooled_gradients(
        lambda x, weight: ad.upconv3x3(x, weight, M._upconv_taps(12, 12)),
        {"x": (4, 12, 12, 64), "weight": (3, 3, 64, 128)}, rng), 4),
    "adam": (pooled_adam_steps, 6),
}


class TestPool:
    """Pieces on ``autodiff.POOL`` give the same bits at any width."""

    @pytest.mark.parametrize("case", POOLED_CASES)
    def test_same_bytes_at_width_1_and_2(self, case, pool_of_width, monkeypatch):
        monkeypatch.setattr(ad, "_ROW_CUTS", True)  # cut rows at any BLAS thread count
        run, pooled = POOLED_CASES[case]
        pool_of_width(1)
        inline = run(np.random.default_rng(11))
        pool = pool_of_width(2)
        both = run(np.random.default_rng(11))
        assert pool.pooled_runs == pooled and len(pool.threads) == 2
        assert len(inline) == len(both)
        for got, want in zip(both, inline):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_below_the_floor_runs_inline(self):
        pool = LockstepPool()
        try:
            pool.run([lambda: None] * 4, ad.POOL_FLOOR - 1)
            assert pool.pooled_runs == 0 and pool.threads == set()
        finally:
            pool.close()

    def test_pieces_run_in_the_callers_context(self):
        # NumPy keeps np.errstate in a contextvar; a thread of its own would
        # only warn about the overflow
        big, barrier = np.full(4, 1e300), threading.Barrier(2, timeout=60)

        def piece():
            barrier.wait()  # one piece on each thread
            try:
                big * big
            except Exception as exc:
                return type(exc), threading.current_thread()

        pool = ad.Pool(2)
        try:
            with np.errstate(over="raise"):
                (first, on_a), (second, on_b) = pool.run([piece, piece], ad.POOL_FLOOR)
        finally:
            pool.close()
        assert (first, second) == (FloatingPointError, FloatingPointError) and on_a is not on_b

    def test_pooled_attention_raises_as_inline(self, pool_of_width):
        q = ad.constant(np.full((256, 96), 1e200))  # q k^T overflows
        raised = []
        for width in (1, 2):
            pool = pool_of_width(width)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError) as info:
                ad.attention(q, q, q, 3)
            raised.append(str(info.value))
        assert raised == ["overflow encountered in matmul"] * 2
        assert {kind for kind, _ in pool.raised} == {FloatingPointError}
        assert any(thread is not threading.main_thread() for _, thread in pool.raised)

    def test_first_failing_piece_raises_after_every_piece_ran(self):
        ran = []

        def piece(i):
            ran.append(i)
            if i % 2:
                raise ValueError(f"piece {i}")

        pool = LockstepPool()
        try:
            with pytest.raises(ValueError, match="piece 1"):
                pool.run([lambda i=i: piece(i) for i in range(6)], ad.POOL_FLOOR)
        finally:
            pool.close()
        assert sorted(ran) == list(range(6))

    def test_every_piece_runs_once_under_contention(self):
        # more threads than cores and a short switch interval, so a lost
        # claim or count would run a piece twice, skip one or end a run early
        def runs():
            pool = ad.Pool(4)
            try:
                for _ in range(300):
                    counts = [0] * 40

                    def piece(i):
                        counts[i] += 1
                        return i

                    got = pool.run([lambda i=i: piece(i) for i in range(40)], ad.POOL_FLOOR)
                    checked.append(got == list(range(40)) and counts == [1] * 40)
            finally:
                pool.close()

        checked, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=runs, daemon=True)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and checked == [True] * 300

    def test_width_is_cpus_over_blas_threads(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        for blas, width in ((1, cpus), (2, max(1, cpus // 2)), (cpus + 1, 1), (None, 1)):
            monkeypatch.setattr(ad, "_blas_threads", lambda blas=blas: blas)
            assert ad.pool_width() == width


# (left, right) operand shapes of the 2-D products that a full-config
# forward (M.ModelConfig()) hands to linear and matmul: the transformer's
# projections and feed-forward layers at token widths 259, 130 and 65, then
# the decoder's vertex maps of each hand
FULL_CONFIG_PRODUCTS = [
    ((804, 259), (259, 261)), ((804, 261), (261, 259)), ((804, 259), (259, 518)),
    ((804, 518), (518, 259)), ((804, 259), (259, 130)),
    ((804, 130), (130, 132)), ((804, 132), (132, 130)), ((804, 130), (130, 260)),
    ((804, 260), (260, 130)), ((804, 130), (130, 65)),
    ((804, 65), (65, 66)), ((804, 66), (66, 65)), ((804, 65), (65, 130)),
    ((804, 65), (65, 3)),
    ((617, 402), (402, 3)), ((1234, 617), (617, 3)), ((2468, 1234), (1234, 3)),
    ((4023, 2468), (2468, 3)),
]


class TestRowCuts:
    """Row cuts keep the bits of the uncut products, on the BLAS kernel and
    thread count the tests run with, for the full config's shapes."""

    def test_cut_only_at_one_blas_thread(self):
        assert ad._ROW_CUTS == (ad._blas_threads() == 1)
        assert len(ad._row_blocks(804)) == (2 if ad._ROW_CUTS else 1)

    @pytest.mark.parametrize("left, right", FULL_CONFIG_PRODUCTS)
    def test_linear_and_matmul_products(self, left, right):
        rng = np.random.default_rng(5)
        a, b, bias = rng.normal(size=left), rng.normal(size=right), rng.normal(size=right[1])
        assert ad._rowwise_matmul(a, b).tobytes() == (a @ b).tobytes()
        uncut = a @ b
        uncut += bias
        assert ad._rowwise_matmul(a, b, bias).tobytes() == uncut.tobytes()

    @pytest.mark.parametrize("inner", [261, 132, 66])
    def test_attention_products(self, inner):
        # a head's q k^T and weights @ v, by the row blocks attention uses
        tokens, heads, rng = 804, M.N_HEADS, np.random.default_rng(6)
        qh, kh, vh = (rng.normal(size=(tokens, inner)).reshape(tokens, heads, -1)
                      .transpose(1, 0, 2) for _ in range(3))
        for h in range(heads):
            scores = qh[h] @ kh[h].T
            out = scores @ vh[h]
            for rows in ad._row_blocks(tokens):
                assert np.matmul(qh[h][rows], kh[h].T).tobytes() == scores[rows].tobytes()
                assert np.matmul(scores[rows], vh[h]).tobytes() == out[rows].tobytes()
