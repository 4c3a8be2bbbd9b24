import numpy as np
import pytest

from conftest import random_mesh_graph
from oracles import central_difference, dense_chebyshev_reference
from specmesh import autodiff as ad
from specmesh import model as M
from specmesh.errors import ArgumentError
from specmesh.graphs import adjacency_matrix, eigendecompose, lambda_max, laplacian, scaled_laplacian


def _theta(order, f_in, f_out, rng):
    bound = 1.0 / np.sqrt(order * f_in)
    return rng.uniform(-bound, bound, size=(order, f_in, f_out))


def _full_setup(n, seed, f_in=3, f_out=3, order=3):
    g = random_mesh_graph(n, seed=seed)
    lap = laplacian(g)
    lam = lambda_max(lap)
    scaled = scaled_laplacian(lap, lam)
    eigenvalues, _ = eigendecompose(lap, n)
    rng = np.random.default_rng(seed + 1000)
    theta = _theta(order, f_in, f_out, rng)
    signal = rng.normal(size=(n, f_in))
    return lap, lam, scaled, eigenvalues, theta, signal


def cheb(scaled, theta, signal) -> np.ndarray:
    """The filter's forward value on constant inputs."""
    return ad.cheb_filter(scaled, ad.constant(theta), ad.constant(signal)).data


def cheb_grads(scaled, theta, signal, upstream):
    """(grad_theta, grad_signal) of sum(cheb_filter * upstream), through backward()."""
    t, x = ad.parameter(theta), ad.parameter(signal)
    (ad.cheb_filter(scaled, t, x) * ad.constant(upstream)).sum().backward()
    return t.grad, x.grad


class TestChebyshevFilter:
    def test_order_one_identity_map(self):
        _, _, scaled, _, _, signal = _full_setup(18, seed=5)
        theta = np.eye(3)[None, :, :]
        out = cheb(scaled, theta, signal)
        assert np.max(np.abs(out - signal)) < 1e-12

    @pytest.mark.parametrize("order", [3, 4, 5, 6])
    def test_matches_dense_oracle(self, order):
        lap, lam, scaled, _, theta, signal = _full_setup(50, seed=6, order=order)
        fast = cheb(scaled, theta, signal)
        reference = dense_chebyshev_reference(lap.toarray(), lam, theta, signal)
        assert np.linalg.norm(fast - reference) / np.linalg.norm(reference) < 1e-5

    def test_linear_in_signal(self):
        _, _, scaled, _, theta, signal = _full_setup(30, seed=7)
        rng = np.random.default_rng(8)
        other = rng.normal(size=signal.shape)
        a, b = 0.7, -1.3
        combined = cheb(scaled, theta, a * signal + b * other)
        split = a * cheb(scaled, theta, signal) + b * cheb(scaled, theta, other)
        assert np.max(np.abs(combined - split)) < 1e-9

    def test_recurrence_bounded_in_eigenbasis(self):
        _, _, scaled, eigenvalues, _, _ = _full_setup(20, seed=9)
        lam_scaled = 2.0 * eigenvalues / eigenvalues[-1] - 1.0
        t_prev = np.ones_like(lam_scaled)
        t_cur = lam_scaled.copy()
        for _ in range(8):
            assert np.max(np.abs(t_prev)) <= 1.0 + 1e-9
            t_prev, t_cur = t_cur, 2.0 * lam_scaled * t_cur - t_prev

    def test_shape_mismatch_rejected(self):
        _, _, scaled, _, theta, signal = _full_setup(10, seed=10)
        with pytest.raises(ArgumentError):
            cheb(scaled, theta, signal[:, :2])
        with pytest.raises(ArgumentError):
            cheb(scaled, theta, signal[:-1])
        with pytest.raises(ArgumentError):
            cheb(scaled, theta[0], signal)


class TestFilterGradient:
    def test_zero_upstream_zero_grads(self):
        _, _, scaled, _, theta, signal = _full_setup(12, seed=11)
        gt, gs = cheb_grads(scaled, theta, signal, np.zeros((12, 3)))
        assert np.all(gt == 0)
        assert np.all(gs == 0)

    def test_matches_finite_differences(self):
        _, _, scaled, _, theta, signal = _full_setup(14, seed=12, f_in=2, f_out=3)
        rng = np.random.default_rng(13)
        probe = rng.normal(size=(14, 3))
        gt, gs = cheb_grads(scaled, theta, signal, probe)

        def loss_theta(th):
            return float(np.sum(cheb(scaled, th, signal) * probe))

        def loss_signal(x):
            return float(np.sum(cheb(scaled, theta, x) * probe))

        num_t = central_difference(loss_theta, theta.copy(), h=1e-4)
        num_s = central_difference(loss_signal, signal.copy(), h=1e-4)
        rel_t = np.abs(gt - num_t) / np.maximum.reduce([np.abs(gt), np.abs(num_t), np.full_like(gt, 1e-6)])
        rel_s = np.abs(gs - num_s) / np.maximum.reduce([np.abs(gs), np.abs(num_s), np.full_like(gs, 1e-6)])
        assert rel_t.max() < 1e-4
        assert rel_s.max() < 1e-4

    def test_symmetry_preserved(self):
        # symmetric operator + symmetric perturbation pattern: gradient wrt a
        # signal shared by two symmetric vertices stays equal
        g = adjacency_matrix([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
        lap = laplacian(g)
        scaled = scaled_laplacian(lap, lambda_max(lap))
        theta = _theta(3, 1, 1, np.random.default_rng(0))
        signal = np.array([[1.0], [2.0], [1.0], [2.0]])
        upstream = np.array([[1.0], [1.0], [1.0], [1.0]])
        _, gs = cheb_grads(scaled, theta, signal, upstream)
        # vertices 0/2 and 1/3 are interchangeable in C4 with this signal
        assert abs(gs[0, 0] - gs[2, 0]) < 1e-12
        assert abs(gs[1, 0] - gs[3, 0]) < 1e-12


class TestSpecValidation:
    def test_theta_init_bounds(self):
        config = M.toy_config()
        params = M.init_parameters(config, M.build_assets(config))
        cheb_names = [name for name in params if name.startswith("dec") and "_cheb" in name]
        assert len(cheb_names) == 2 * (len(config.decoder_sizes) - 1)
        for name in cheb_names:
            theta = params[name].data
            assert theta.shape == (config.cheb_order, 3, 3)
            assert np.max(np.abs(theta)) <= 1.0 / np.sqrt(3 * config.cheb_order)
