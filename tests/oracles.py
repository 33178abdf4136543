"""Reference routes that only the tests reach.

`block` forms one Littlewood-Paley block, the oracle of `besov.block_norms`
and `besov.block_rms`; `dealiased_product` forms exact spectral products
through the grid transforms, the route the convolution oracle and the
product identities check; `picard_solve` iterates the discrete mild map
to its fixed point, the exponential-Euler trajectory of `solver.step`;
`wick_action_per_order` is the Wick action summed order by order with
`np.sum`, the oracle of `wick.wick_action_values`; `full_window_inverse` is
the inverse transform of a whole-lattice window by the route the grid took
before coefficients were half windows; `to_spectral`, `heat_norm_curve` and
`sample_points` build the tests' fields, Besov curves and sample
coordinates.
"""

import numpy as np

import wickflow.grid as grid_module
from wickflow import (
    ConfigurationError,
    NonContractionError,
    SpectralField,
    apply_semigroup,
)
from wickflow.besov import BesovSpec, DyadicPartition, _check_grid, besov_norm, build_partition
from wickflow.grid import _check_same_grid, _dft_matrices, _window
from wickflow.ou import step_constants
from wickflow.solver import nonlinear_term
from wickflow.wick import PolynomialSpec, _c_value, _hermite_orders


def sample_points(grid) -> tuple:
    """The M x M coordinate arrays (x1, x2) of the grid's samples,
    x_m = 2 pi m / M along each axis."""
    x = grid.L * np.arange(grid.M) / grid.M
    return x[:, None] * np.ones(grid.M)[None, :], np.ones(grid.M)[:, None] * x[None, :]


def to_spectral(grid, values) -> SpectralField:
    """The field of samples on the grid; exact for band-limited samples."""
    return SpectralField(grid, grid.values_to_coeffs(np.asarray(values, dtype=np.float64)))


def full_window_inverse(grid, coeffs, band=None) -> np.ndarray:
    """Samples of whole-lattice windows (..., 2K+1, 2K+1) at `band`, by the
    route the grid took before coefficients were half windows: column 0 and
    the sums c_j + conj c_{-j} of the columns j = 1..s against the rows of
    `grid._dft_matrices` with j > 0 not doubled, or scattered at 0.5/L on
    the FFT route; the real part of the full inverse for any complex window."""
    s = grid.K if band is None else band
    idx, rows = _window(s, grid.M)
    coeffs = coeffs[..., idx[:, None], idx]
    neg = -np.arange(2 * s + 1) % (2 * s + 1)
    H = np.concatenate((coeffs[..., :1], coeffs[..., 1:s + 1]
                        + np.conj(coeffs[..., neg, :s:-1])), axis=-1)
    if grid.M <= grid_module.DFT_MAX_M:
        E, G, _, _ = _dft_matrices(s, grid.M)
        G = G.copy()
        G[2:] *= 0.5
        return (E @ H).view(np.float64) @ G
    half = np.zeros(H.shape[:-2] + (grid.M, s + 1), dtype=np.complex128)
    half[..., rows, 0] = H[..., 0] * (1.0 / grid.L)
    half[..., rows, 1:] = H[..., 1:] * (0.5 / grid.L)
    half = np.fft.ifft(half, axis=-2, norm="forward")
    return np.fft.irfft(half, n=grid.M, axis=-1, norm="forward")


def heat_norm_curve(u: SpectralField, spec: BesovSpec, t_grid,
                    partition: DyadicPartition | None = None) -> np.ndarray:
    """||e^{tA} u|| in the given Besov norm along a time grid."""
    partition = partition or build_partition(u.grid)
    return np.array([besov_norm(apply_semigroup(u, t), spec, partition) for t in t_grid])


def wick_action_per_order(values: np.ndarray, P: PolynomialSpec, c: float,
                          cell_area: float) -> float:
    """The Wick action from the samples of u, each order's integral taken by
    `np.sum` (He_0 = 1 as the scalar times values.size)."""
    total = 0.0
    for a_n, he in zip(P.a, _hermite_orders(values, _c_value(c), P.degree)):
        if a_n != 0.0:
            total += a_n * (float(np.sum(he)) if np.ndim(he) else he * values.size)
    return total * cell_area


def block(u: SpectralField, j: int, partition: DyadicPartition) -> SpectralField:
    """Littlewood-Paley block: the multiplier of annulus j applied to u."""
    _check_grid(u, partition)
    return SpectralField(u.grid, u.coeffs * partition.multiplier(j)[:, :u.grid.K + 1])


def dealiased_product(fields, degree: int | None = None) -> SpectralField:
    """Exact spectral product of band-limited fields, truncated to the window.

    `degree` defaults to the number of factors; pass it explicitly when the
    factors are themselves powers so the padding check stays honest.
    """
    fields = list(fields)
    if not fields:
        raise ConfigurationError("dealiased_product needs at least one field")
    _check_same_grid(*fields)
    grid = fields[0].grid
    d = len(fields) if degree is None else int(degree)
    grid.assert_product_degree(d)
    prod = grid.coeffs_to_values(fields[0].coeffs)
    for f in fields[1:]:
        prod = prod * grid.coeffs_to_values(f.coeffs)
    return SpectralField(grid, grid.values_to_coeffs(prod))


def picard_solve(y0: SpectralField, zbar_values: list, c: float, delta: float, P,
                 tol: float = 1e-8, max_iter: int = 200):
    """Fixed-point iteration of the discrete mild map on a frozen zbar path,
    given by its samples `zbar_values[m]` at t = m delta and counterterm c.

    The map uses left-endpoint phi-1 quadrature, so its fixed point is
    exactly the exponential-Euler trajectory; cross-checking the two is a
    consistency test of both code paths.  Returns (path, residual_history),
    the path as fields; raises if the residual grows (horizon too large to
    contract).
    """
    grid = y0.grid
    n = len(zbar_values) - 1
    if n < 1:
        raise ConfigurationError("picard_solve needs zbar samples at least at t=0 and t=delta")
    decay, _, weight = step_constants(grid, delta)
    y = y0.coeffs
    path = [y] * (n + 1)
    residuals = []
    grow = 0
    for _ in range(max_iter):
        new = [y]
        for m in range(n):
            F = nonlinear_term(grid, path[m], zbar_values[m], P, c)
            new.append(decay * new[m] - weight * F)
        res = max(float(np.max(np.abs(a - b))) for a, b in zip(new, path))
        residuals.append(res)
        path = new
        if res < tol:
            return [SpectralField(grid, u) for u in path], residuals
        if len(residuals) >= 2 and res > residuals[-2]:
            grow += 1
            if grow >= 3:
                raise NonContractionError(
                    f"Picard residual grew ({residuals[-2]:.3g} -> {res:.3g}); "
                    "shrink the horizon"
                )
        else:
            grow = 0
    raise NonContractionError(f"Picard iteration did not reach tol={tol} in {max_iter} sweeps")
