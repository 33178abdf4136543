"""Stochastic convolution (infinite-dimensional OU process) and Wick towers.

The cylindrical Wiener process is realized as independent standard complex
Gaussians per retained mode pair, constrained by Hermitian symmetry so the
field stays real.  Mode k of Z(t) = int_0^t e^{(t-s)A} dW(s) is a scalar
OU process with rate lambda_k and stationary variance 1/(2 lambda_k); the
update over a step of size delta uses the exact transition law

    z_k <- e^{-lambda_k delta} z_k + xi_k sqrt((1 - e^{-2 lambda_k delta}) / (2 lambda_k)),

so Z carries no time-discretization error and all counterterm identities
hold deterministically per sample.  `ou_step(z, delta, rng)` takes that
step and returns the new field; the solver keeps the time.

Noise source.  `noise_source(grid, rng, n_steps)` yields each step's
Hermitian normals in stream order, as half windows, and every draw of the
module comes from it: `hermitian_normals` is one step of it and `ou_step`
adds one innovation of `ou_innovations`.  It draws S = `block_steps(grid)`
steps with one `standard_normal((S, 2, n, n))` and one
`symmetrize_normals` call, bitwise the per-step draws, and leaves the rng
where they would.  S is as many steps as fit their complex normals
(16 n^2 bytes, n = 2K + 1) in `BLOCK_BYTES` = 64 KiB, at least one: 50 at
K = 4, 9 at K = 10, 1 at K = 32.  Above about 100 KiB, near glibc's
128 KiB mmap threshold, a block costs more per step than single draws.
`ou_innovations` scales them into the per-step innovations sigma * xi,
the one noise stream of the solver and of `OUNoisePath`; the pCN
proposals and `besov.block_norms` size their blocks by `block_steps`.  A
solve that raises `BlowUpError` may leave its rng up to one block ahead.

The towers below read the exact lattice mode sums of `wick` as floats:

    c_C      = (2 pi)^{-2} sum_k 1/(2 lambda_k)            (counterterm_C(grid))
    c_t(t)   = -(2 pi)^{-2} sum_k e^{-2 lambda_k t}/(2 lambda_k)   (counterterm_t(grid, t))
    c_{C_t}  = c_C + c_t(t)                                 (law of Z(t) from 0)

Seed convention: trajectory i of an ensemble uses streams derived from
(master_seed, i); substream 0 samples initial data, substream 1 drives the
noise, so runs that differ only in initialization share the Wiener path.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError
from .grid import SpectralField, TorusGrid, apply_semigroup
from .wick import WickTower, binomial_fold, counterterm_C, counterterm_t, hermite_tower_values


def substream(master_seed: int, trajectory: int, role: int) -> np.random.Generator:
    """The documented stream-split convention: (master_seed, trajectory, role)."""
    return np.random.default_rng([int(master_seed), int(trajectory), int(role)])


BLOCK_BYTES = 64 * 1024  # complex normals drawn at once; larger blocks cost more per step


def block_steps(grid: TorusGrid) -> int:
    """Steps of (2K+1)^2 complex normals that fit in `BLOCK_BYTES`, at least 1."""
    n = 2 * grid.K + 1
    return max(1, BLOCK_BYTES // (16 * n * n))


def noise_source(grid: TorusGrid, rng: np.random.Generator, n_steps: int):
    """Yield the Hermitian normals of n_steps steps, drawn `block_steps(grid)`
    at a time; the last block is shorter, so exactly n_steps steps are drawn."""
    n = 2 * grid.K + 1
    size = block_steps(grid)
    for start in range(0, n_steps, size):
        draws = rng.standard_normal((min(size, n_steps - start), 2, n, n))
        yield from symmetrize_normals(grid, draws)


def ou_innovations(grid: TorusGrid, delta: float, rng: np.random.Generator, n_steps: int):
    """Yield the exact OU innovations sigma * xi of n_steps steps of size delta,
    xi from `noise_source`: Z advances by Z <- decay * Z + the next one."""
    sigma = step_constants(grid, delta).sigma
    return (sigma * xi for xi in noise_source(grid, rng, n_steps))


def hermitian_normals(grid: TorusGrid, rng: np.random.Generator) -> np.ndarray:
    """The half window of complex standard normals xi with
    xi(-k) = conj(xi(k)), E|xi(k)|^2 = 1.

    Built by symmetrizing an i.i.d. complex array; the self-paired k = 0
    entry comes out real with unit variance.  One step of `noise_source`.
    """
    return next(noise_source(grid, rng, 1))


def symmetrize_normals(grid: TorusGrid, draws: np.ndarray) -> np.ndarray:
    """`hermitian_normals` of given real draws of shape (..., 2, n, n).

    draws[..., 0, :, :] are the real parts and draws[..., 1, :, :] the
    imaginary parts, in the order the stream gives them, over the whole
    lattice; leading axes are a batch, and each slice equals the unbatched
    result bitwise.
    """
    n, h = 2 * grid.K + 1, grid.K + 1
    batch = draws.shape[:-3]
    raw = np.empty(batch + (n, n), dtype=np.complex128)
    raw.real = draws[..., 0, :, :]
    raw.imag = draws[..., 1, :, :]
    raw *= math.sqrt(0.5)
    mirror = raw.reshape(batch + (n * n,)).take(grid._neg_flat, axis=-1)
    return (raw[..., :h] + np.conj(mirror.reshape(batch + (n, h)))) * math.sqrt(0.5)


def stationary_std(grid: TorusGrid) -> np.ndarray:
    """Per-mode std of the truncated free field, sqrt(1/(2 lambda_k)), on the
    half window."""
    return np.sqrt(1.0 / (2.0 * grid.lam[:, :grid.K + 1]))


def sample_stationary(grid: TorusGrid, rng: np.random.Generator) -> SpectralField:
    """Exact sample of the truncated free field: mode k has std sqrt(1/(2 lambda_k))."""
    return SpectralField(grid, stationary_std(grid) * hermitian_normals(grid, rng))


class StepConstants(NamedTuple):
    """Per-mode constants of one time step of size delta (read-only half windows).

    decay  = e^{-lambda delta}, the semigroup over one step;
    sigma  = sqrt((1 - decay^2) / (2 lambda)), the std of the exact OU innovation;
    weight = delta * drift_scale * (1 - e^{-lambda delta}) / (lambda delta),
             the exponential-Euler phi-1 weight of the frozen nonlinearity.
    """

    decay: np.ndarray
    sigma: np.ndarray
    weight: np.ndarray


@functools.lru_cache(maxsize=64)
def step_constants(grid: TorusGrid, delta: float, drift_scale: float = 1.0) -> StepConstants:
    """The constants of a step, computed once per (grid, delta, drift_scale)."""
    decay = np.exp(-grid.lam * delta)
    sigma = np.sqrt((1.0 - decay**2) / (2.0 * grid.lam))
    x = grid.lam * delta
    weight = delta * drift_scale * ((1.0 - np.exp(-x)) / x)
    out = [np.ascontiguousarray(a[:, :grid.K + 1]) for a in (decay, sigma, weight)]
    for a in out:
        a.flags.writeable = False  # shared by every caller of the cache
    return StepConstants(*out)


def ou_step(z: SpectralField, delta: float, rng: np.random.Generator) -> SpectralField:
    """Advance the stochastic convolution z by one step of its exact transition law."""
    if not delta > 0:
        raise DomainError(f"step size must be > 0, got {delta}")
    grid = z.grid
    decay = step_constants(grid, delta).decay
    return SpectralField(grid, decay * z.coeffs + next(ou_innovations(grid, delta, rng, 1)))


def ct_tower(z: SpectralField, t: float, n_orders: int) -> WickTower:
    """Tower of Z(t) Wick-ordered with respect to its own law C_t."""
    grid = z.grid
    grid.assert_product_degree(max(n_orders - 1, 1))
    values = grid.coeffs_to_values(z.coeffs)
    c_Ct = counterterm_C(grid) + counterterm_t(grid, t)
    raw = hermite_tower_values(values, c_Ct, n_orders)
    return WickTower(grid=grid, t=t, kind="C_t", counterterm=c_Ct, raw=raw)


def convert_tower(tower: WickTower) -> WickTower:
    """Reorder a C_t tower with respect to the stationary covariance C:

        :Z^n:_C = sum_l c_t^l n!/((n-2l)! l! 2^l) :Z^{n-2l}:_{C_t}.

    A finite linear recombination, exact per sample at the lattice level.
    """
    if tower.kind != "C_t":
        raise ConfigurationError(f"convert_tower expects a C_t tower, got kind {tower.kind!r}")
    ct = counterterm_t(tower.grid, tower.t)
    raw = np.empty_like(tower.raw)
    for n in range(tower.n_orders):
        acc = np.zeros_like(tower.raw[0])
        for l in range(n // 2 + 1):
            coeff = ct**l * math.factorial(n) / (
                math.factorial(n - 2 * l) * math.factorial(l) * 2**l
            )
            acc += coeff * tower.raw[n - 2 * l]
        raw[n] = acc
    return WickTower(
        grid=tower.grid, t=tower.t, kind="C", counterterm=counterterm_C(tower.grid), raw=raw
    )


def build_tower(z: SpectralField, z0: SpectralField | None, t: float,
                n_orders: int) -> WickTower:
    """Tower of zbar(t) = Z(t) + e^{tA} z0, Wick-ordered w.r.t. C.

    Route: order Z against its own law C_t, convert to C, then fold in the
    heat-propagated initial datum binomially,

        :zbar^n: = sum_k C(n, k) V^{n-k} :Z^k:_C,   V = e^{tA} z0.
    """
    grid = z.grid
    base = convert_tower(ct_tower(z, t, n_orders))
    if z0 is None:
        return base
    if z0.grid != grid:
        raise ConfigurationError("initial datum lives on a different grid")
    v = grid.coeffs_to_values(apply_semigroup(z0, t).coeffs)
    raw = np.stack([binomial_fold(v, base.raw, n) for n in range(n_orders)])
    return WickTower(grid=grid, t=t, kind="C", counterterm=base.counterterm, raw=raw)


class OUNoisePath:
    """Pre-generated OU innovations on a fixed fine mesh, exactly coarsenable.

    The exact transition over consecutive steps composes as

        eta_[0,2d] = e^{-lambda d} eta_[0,d] + eta_[d,2d],

    so innovations drawn at the finest resolution determine the innovations
    of any coarser dyadic mesh of the same Wiener path.  This is what makes
    "same noise, different step size" comparisons well defined.
    """

    def __init__(self, grid: TorusGrid, delta: float, n_steps: int,
                 rng: np.random.Generator | None = None, innovations=None):
        if not delta > 0:
            raise DomainError(f"step size must be > 0, got {delta}")
        if n_steps < 0:
            raise ConfigurationError(f"a noise path needs n_steps >= 0, got {n_steps}")
        self.grid = grid
        self.delta = float(delta)
        self.n_steps = int(n_steps)
        shape = (self.n_steps, 2 * grid.K + 1, grid.K + 1)
        if innovations is None:
            if rng is None:
                raise ConfigurationError("OUNoisePath needs an rng or explicit innovations")
            innovations = np.fromiter(ou_innovations(grid, self.delta, rng, self.n_steps),
                                      np.dtype((np.complex128, shape[1:])), self.n_steps)
        self.innovations = np.asarray(innovations, dtype=np.complex128)
        if self.innovations.shape != shape:
            raise ConfigurationError(f"innovations of shape {self.innovations.shape}, "
                                     f"expected {shape}")

    def coarsen(self, factor: int) -> "OUNoisePath":
        if factor < 1:
            raise ConfigurationError(f"coarsening factor must be >= 1, got {factor}")
        if factor == 1:
            return self
        if self.n_steps % factor != 0:
            raise ConfigurationError(
                f"cannot coarsen {self.n_steps} steps by factor {factor}"
            )
        decay = step_constants(self.grid, self.delta).decay
        m = self.n_steps // factor
        out = np.zeros((m,) + self.innovations.shape[1:], dtype=np.complex128)
        for j in range(m):
            acc = self.innovations[j * factor]
            for i in range(1, factor):
                acc = decay * acc + self.innovations[j * factor + i]
            out[j] = acc
        return OUNoisePath(self.grid, self.delta * factor, m, innovations=out)
