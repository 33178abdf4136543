"""Reference routes that only the tests reach.

`block` forms one Littlewood-Paley block, the oracle of `besov.block_norms`
and `besov.block_rms`; `dealiased_product` forms exact spectral products
through the grid transforms, the route the convolution oracle and the
product identities check; `picard_solve` iterates the discrete mild map
to its fixed point, the exponential-Euler trajectory of `solver.step`;
`wick_action_per_order` is the Wick action summed order by order with
`np.sum`, the oracle of `wick.wick_action_values`; `to_spectral`,
`heat_norm_curve` and `sample_points` build the tests' fields, Besov
curves and sample coordinates.
"""

import numpy as np

from wickflow import (
    ConfigurationError,
    NonContractionError,
    RealField,
    SpectralField,
    apply_semigroup,
)
from wickflow.besov import BesovSpec, DyadicPartition, _check_grid, besov_norm, build_partition
from wickflow.grid import _check_same_grid
from wickflow.ou import step_constants
from wickflow.solver import nonlinear_term
from wickflow.wick import PolynomialSpec, _c_value, _hermite_orders


def sample_points(grid) -> tuple:
    """The M x M coordinate arrays (x1, x2) of the grid's samples,
    x_m = 2 pi m / M along each axis."""
    x = grid.L * np.arange(grid.M) / grid.M
    return x[:, None] * np.ones(grid.M)[None, :], np.ones(grid.M)[:, None] * x[None, :]


def to_spectral(f: RealField) -> SpectralField:
    """Forward transform; exact for band-limited samples."""
    return SpectralField(f.grid, f.grid.values_to_coeffs(f.values))


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
    return SpectralField(u.grid, u.coeffs * partition.multiplier(j))


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
    consistency test of both code paths.  It iterates on half windows, as
    the solver steps.  Returns (path, residual_history), the path as full
    fields; raises if the residual grows (horizon too large to contract).
    """
    grid = y0.grid
    n = len(zbar_values) - 1
    if n < 1:
        raise ConfigurationError("picard_solve needs zbar samples at least at t=0 and t=delta")
    h = grid.K + 1
    decay, _, weight = (a[:, :h] for a in step_constants(grid, delta))
    y = grid.half_window(y0.coeffs)
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
            return [SpectralField(grid, grid.full_window(u)) for u in path], residuals
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
