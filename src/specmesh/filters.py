"""Spectral graph convolution: exact filtering in the Fourier basis and the
fast Chebyshev-polynomial approximation used by the decoder.

The dense route computes U g(Lambda) U^T x from a full eigendecomposition
and serves as the oracle; the Chebyshev route evaluates the same filter by
the T_k recurrence on the rescaled Laplacian without any eigenvectors. The
closed-form Gaussian and inverse-square-root filter functions are fixed
(non-learned); Chebyshev coefficients are the learned parameters.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse as sp

from .errors import ArgumentError
from .graphs import Spectrum


@dataclass(frozen=True)
class ChebyshevSpec:
    """Learned polynomial filter: theta has shape (order, F_in, F_out)."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim != 3 or theta.shape[0] < 1:
            raise ArgumentError(f"theta must be (order>=1, F_in, F_out), got {theta.shape}")
        object.__setattr__(self, "theta", theta)

    @property
    def order(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class GaussianSpec:
    """Fixed low-pass filter g(lam) = exp(-lam^2 / (2 sigma^2))."""

    sigma: float = 0.5

    def __post_init__(self):
        if not self.sigma > 0:
            raise ArgumentError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class InverseSqrtSpec:
    """Fixed filter g(lam) = lam^(-1/2); eigenvalues below the tolerance are
    clamped to it so the zero eigenvalue stays finite."""

    tolerance: float = 1e-8

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ArgumentError(f"tolerance must be positive, got {self.tolerance}")


FilterSpec = Union[ChebyshevSpec, GaussianSpec, InverseSqrtSpec]


def gaussian_response(eigenvalues: np.ndarray, sigma: float = 0.5) -> np.ndarray:
    return np.exp(-(eigenvalues**2) / (2.0 * sigma**2))


def inverse_sqrt_response(eigenvalues: np.ndarray, tolerance: float = 1e-8) -> np.ndarray:
    return 1.0 / np.sqrt(np.maximum(eigenvalues, tolerance))


def dense_spectral_filter(spectrum: Spectrum, filt: FilterSpec, signal: np.ndarray) -> np.ndarray:
    """Exact spectral filtering U g(Lambda) U^T signal.

    Requires the full spectrum (k = |V|); partial spectra would silently
    project the signal, so they are rejected.

    Raises:
        ArgumentError: partial spectrum or shape mismatch.
    """
    n = spectrum.n_vertices
    if spectrum.k != n:
        raise ArgumentError(f"dense filtering needs the full spectrum: k={spectrum.k} != |V|={n}")
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim == 1:
        signal = signal[:, None]
    if signal.shape[0] != n:
        raise ArgumentError(f"signal must have {n} rows, got {signal.shape}")
    u = spectrum.eigenvectors
    coeffs = u.T @ signal  # (n, F) spectral coefficients
    if isinstance(filt, GaussianSpec):
        return u @ (gaussian_response(spectrum.eigenvalues, filt.sigma)[:, None] * coeffs)
    if isinstance(filt, InverseSqrtSpec):
        return u @ (inverse_sqrt_response(spectrum.eigenvalues, filt.tolerance)[:, None] * coeffs)
    if isinstance(filt, ChebyshevSpec):
        lam_max = float(spectrum.eigenvalues[-1])
        if lam_max <= 0:
            raise ArgumentError("chebyshev dense filter needs a positive largest eigenvalue")
        scaled = 2.0 * spectrum.eigenvalues / lam_max - 1.0
        theta = filt.theta
        if theta.shape[1] != signal.shape[1]:
            raise ArgumentError(
                f"theta F_in {theta.shape[1]} != signal channels {signal.shape[1]}")
        out = np.zeros((n, theta.shape[2]))
        t_prev = np.ones(n)
        t_cur = scaled.copy()
        for k in range(theta.shape[0]):
            tk = t_prev if k == 0 else t_cur
            out += u @ (tk[:, None] * coeffs) @ theta[k]
            if k >= 1:
                t_prev, t_cur = t_cur, 2.0 * scaled * t_cur - t_prev
        return out
    raise ArgumentError(f"unknown filter spec {type(filt).__name__}")


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
