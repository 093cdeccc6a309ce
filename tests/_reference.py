"""References the tests hold the package against.

No command, criterion or benchmark job of the package calls these: each is
an independent route to a quantity the package computes another way, kept
here so the tests can compare the two.

* :func:`causal_matrix`, a causal kernel's N x N matrix, built from its lag
  row for the tests that compare dense matrices;
* :func:`neumann_first_correction`, the dense first term of the Neumann
  series for the finite window's dressed response, on the N x N bare
  response matrix;
* :func:`spectral_density_sine_transform`, the sine transform of the
  band-limited spectral density, which the branch-cut kernel must reproduce;
* :func:`noise_double_convolution`, the noise kernel's double convolution
  with two G factors on N x N matrices, which the package forms one column
  at a time.
"""

from __future__ import annotations

import numpy as np

from netbath.finite_time import TwoTimeKernel, _check_window, bare_response
from netbath.model import ModelParams, _band
from netbath.timedomain import TimeKernel, _band_nodes, _quad_order, \
    _sine_sum, spectral_density

# Peak float64 arrays of neumann_first_correction besides its inputs, by
# tracemalloc at N = 661 to 1,984: 5.00-5.02 N x N, the one step on the bare
# response matrix, whose build is 1.00-1.01.
_BARE_SQUARES = 5.1


def _compose(x: np.ndarray, y: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid-weighted causal composition, (X * Y)[i,j] ~ int X[i,l] Y[l,j] dl.

    For causal factors the integration variable runs l in [i, j]; endpoint
    weights are halved.  The weight pattern factorizes per variable, so the
    composition is associative at the discrete level.
    """
    out = x @ y
    out -= 0.5 * np.diag(x)[:, None] * y
    out -= 0.5 * x * np.diag(y)[None, :]
    return dt * out


def causal_matrix(kernel: TwoTimeKernel) -> np.ndarray:
    """A causal kernel's N x N matrix K[i, j] = row[j - i], zero below the
    diagonal: exactly Toeplitz, built a row at a time."""
    row = kernel.row
    out = np.zeros((row.size, row.size))
    for i in range(row.size):
        out[i, i:] = row[:row.size - i]
    return out


def _bare_matrix(params: ModelParams, times: np.ndarray) -> np.ndarray:
    """The bare response A[i, j] = G0(t_j - t_i) on the grid, zero below the
    diagonal: the matrix of its stationary kernel, N sines for the N x N
    matrix, and exactly Toeplitz."""
    _check_window(times.size, "bare response matrix",
                  rows=_BARE_SQUARES * times.size)
    return causal_matrix(TwoTimeKernel.from_stationary(
        times, lambda u: bare_response(params, u)))


def neumann_first_correction(kI_upstream: TwoTimeKernel, params: ModelParams) -> np.ndarray:
    """First-order term int int G0 kI G0 of the Neumann series for G."""
    a = _bare_matrix(params, kI_upstream.times)
    return _compose(a, _compose(causal_matrix(kI_upstream), a, kI_upstream.dt),
                    kI_upstream.dt)


def spectral_density_sine_transform(params: ModelParams, tau_grid) -> TimeKernel:
    """Integrate J(w) sin(w tau) dw over the band with the same node rule.

    Uses the substitution w = lambda_pp * x and evaluates J through
    :func:`spectral_density`, so agreement with :func:`branch_cut_kernel`
    checks the density's formula and prefactor rather than repeating the
    kernel quadrature verbatim.  The band rule and the default order are
    :func:`branch_cut_kernel`'s.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if not _band(params):
        return TimeKernel(tau_grid, np.zeros_like(tau_grid), params)
    # The quadrature weights for sqrt(s(1-s)), with the variables changed to
    # w = lambda_pp x; J carries the square-root factors.
    x, _, w_cheb = _band_nodes(params, _quad_order(params, tau_grid))
    omega = params.lambda_pp * x
    jvals = spectral_density(params, omega)
    q2 = params.q**2
    # dw = lambda_pp (1-q^2) ds / (2x); sqrt(s(1-s)) = sqrt((x^2-q^2)(1-x^2))/(1-q^2)
    coeff = 0.25 * w_cheb * jvals * params.lambda_pp * (1.0 - q2) / (2.0 * x) \
        * (1.0 - q2) / np.sqrt((x**2 - q2) * (1.0 - x**2))
    values = _sine_sum(tau_grid, omega, coeff)
    return TimeKernel(tau=tau_grid, values=values, params=params)


def noise_double_convolution(kR_values: np.ndarray, G: TwoTimeKernel,
                             c: float) -> np.ndarray:
    """``C^2 int_0^t int_0^s kR(t',s') G(t',t-t') G(s',s-s')`` on the N x N
    matrix ``kR_values``, by trapezoid weights on G's dense matrix."""
    times = G.times
    # Weighted columns: w_l in [0, t_i], halved at both ends, times C.
    gw = causal_matrix(G)
    gw *= G.dt
    gw[0, :] *= 0.5
    idx = np.arange(times.size)
    gw[idx, idx] *= 0.5
    gw *= c
    conv = gw.T @ kR_values @ gw
    del gw
    return conv
