"""Chebyshev-polynomial spectral graph convolution, as used by the decoder.

A filter g(lam) = sum_k theta_k T_k(2 lam / lam_max - 1) is evaluated by the
T_k recurrence on the rescaled Laplacian, without any eigenvectors; the
coefficients theta are the learned parameters.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ArgumentError


def _cheb_basis(scaled_l: sp.csr_matrix, signal: np.ndarray, order: int) -> list[np.ndarray]:
    """T_0 x .. T_{order-1} x via the recurrence T_k = 2 L~ T_{k-1} - T_{k-2}."""
    basis = [signal]
    if order >= 2:
        basis.append(scaled_l @ signal)
    for _ in range(2, order):
        basis.append(2.0 * (scaled_l @ basis[-1]) - basis[-2])
    return basis


def chebyshev_filter(scaled_l: sp.csr_matrix, theta: np.ndarray,
                     signal: np.ndarray) -> np.ndarray:
    """Fast spectral filtering: sum_k T_k(L~) signal theta_k.

    ``scaled_l`` must already be rescaled into [-1, 1]; theta is
    (order, F_in, F_out) and the result is (|V|, F_out).

    Raises:
        ArgumentError: shape mismatch between theta, signal, and operator.
    """
    theta = np.asarray(theta, dtype=np.float64)
    signal = np.asarray(signal, dtype=np.float64)
    if theta.ndim != 3:
        raise ArgumentError(f"theta must be (order, F_in, F_out), got {theta.shape}")
    if signal.ndim != 2:
        raise ArgumentError(f"signal must be (|V|, F_in), got {signal.shape}")
    n = scaled_l.shape[0]
    if signal.shape[0] != n:
        raise ArgumentError(f"signal rows {signal.shape[0]} != |V| {n}")
    if signal.shape[1] != theta.shape[1]:
        raise ArgumentError(f"signal channels {signal.shape[1]} != theta F_in {theta.shape[1]}")
    basis = _cheb_basis(scaled_l, signal, theta.shape[0])
    out = np.zeros((n, theta.shape[2]))
    for k, tk in enumerate(basis):
        out += tk @ theta[k]
    return out


def filter_gradient(scaled_l: sp.csr_matrix, theta: np.ndarray, signal: np.ndarray,
                    upstream_grad: np.ndarray):
    """Analytic gradients of :func:`chebyshev_filter`.

    Returns (grad_theta, grad_signal). Uses the symmetry of the rescaled
    Laplacian: d/dx [T_k(L~) x theta_k] pulled back through T_k equals
    T_k(L~) applied to the upstream gradient.
    """
    theta = np.asarray(theta, dtype=np.float64)
    signal = np.asarray(signal, dtype=np.float64)
    upstream_grad = np.asarray(upstream_grad, dtype=np.float64)
    order = theta.shape[0]
    basis = _cheb_basis(scaled_l, signal, order)
    grad_theta = np.stack([tk.T @ upstream_grad for tk in basis], axis=0)
    g_basis = _cheb_basis(scaled_l, upstream_grad, order)
    grad_signal = np.zeros_like(signal)
    for k in range(order):
        grad_signal += g_basis[k] @ theta[k].T
    return grad_theta, grad_signal


def init_theta(order: int, f_in: int, f_out: int, rng: np.random.Generator) -> np.ndarray:
    """Fan-in scaled uniform init for Chebyshev coefficients."""
    bound = 1.0 / np.sqrt(order * f_in)
    return rng.uniform(-bound, bound, size=(order, f_in, f_out))
