"""Exponential integrator for the shifted form of the renormalized dynamics.

The unknown X splits as X = Y + zbar, where zbar(t) = e^{tA} z + Z(t)
carries all the roughness (Z is the stochastic convolution) and the
remainder Y solves a classically well-posed equation driven by the Wick
tower of zbar:

    dY/dt = A Y - sum_{k=1}^{2N} k a_k sum_{l=0}^{k-1} C(k-1, l)
                   Y^l :zbar^{k-1-l}:,        Y(0) = y.

On the lattice :zbar^j: = He_j(zbar; c_C) pointwise, so the Hermite
binomial identity makes the inner sum exactly :(Y + zbar)^{k-1}:_C and a
step evaluates :p(Y + zbar):_C by one Hermite recurrence at the samples
of Y plus those of zbar, with no tower of zbar; the paper's tower route
(`ou.build_tower`) stays a verified identity outside the solver.

Time stepping is first-order exponential Euler with the exact phi-1
weight, per mode

    Y_{n+1} = e^{-lambda delta} Y_n
              - delta * (1 - e^{-lambda delta})/(lambda delta) * F_n,

which is unconditionally stable and treats the linear part exactly.  Z
advances by its exact transition law, so the only scheme error is the
frozen-nonlinearity error in Y.

The same `solve` runs both splittings of X.  With Y(0) = 0 and
zbar(0) = z it is the splitting of Da Prato and Debussche, whose rough part
starts at the datum; with Y(0) = z - z1 and zbar(0) = z1 for a stationary
sample z1 (`solve(z - z1, z1, ...)`) it is the stationary-reference
splitting.  Both reconstruct the same X, which `run_equivalence` checks.

Y, Z, zbar and the samples of zbar live on the compute grid of the
caller's grid (`TorusGrid.compute_grid`), the smallest one on which the
step is exact; records move the coefficients back onto the caller's grid,
so every recorded field and observable is the caller's.

Half windows.  X is a real field, so the columns ky < 0 of Y, Z and zbar
are the conjugate mirrors of the columns ky > 0.  A solve carries Y, Z,
zbar and the datum's coefficients as half windows, their (2K+1) x (K+1)
columns ky >= 0, and slices the step constants to them once; `step` and
`nonlinear_term` act on half windows, which the grid transforms take as
they are.  y0 and z0 enter as their Hermitian halves
(`TorusGrid.half_window`), bitwise their first K+1 columns when they are
exactly Hermitian (samples, chain states, their differences, zero).
Records expand to full windows by the conjugate mirrors
(`TorusGrid.full_window`), as `values_to_coeffs` fills them.

Noise and records.  Z advances by Z <- e^{-lambda delta} Z + eta_n, with
eta_n = sigma * xi_n the n-th innovation of one stream (`ou.noise_source`,
taken on the half window: bitwise the columns ky >= 0 of
`ou.ou_innovations`), whether the noise is given as a seed (its stream
(seed, 0, 1)), a Generator or a frozen `OUNoisePath`; the three give
bitwise the same run.  A `Trajectory`
records itself at t = 0, after every `record_every` steps and at T;
`record_every=None` records the start and the end only.  Records of
`solve` also take their observables (`field_observables` and sup_Y, two
inverse transforms each), which `simulate` writes; `stationary_solve`
records fields only, since its callers read X at T alone.

Drift scaling: with the free measure fixed to mode variance 1/(2 lambda_k)
and unit cylindrical noise, the dynamics that preserves the Gibbs density
exp(-integral :q:) carries HALF the gradient of the action (the Langevin
drift is (1/2) d log(density)).  `stationary_solve` therefore runs with
drift_scale = 1/2; the plain `solve` integrates the shifted equation
with the literal coefficients (drift_scale = 1), which is what the
deterministic scheme tests exercise.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BlowUpError, ConfigurationError
from .grid import SpectralField, TorusGrid
from .ou import OUNoisePath, noise_source, step_constants, substream
from .wick import (
    PolynomialSpec, _c_value, _hermite_orders, counterterm_C, wick2_integral,
    wick_nonlinearity_values,
)

BLOWUP_THRESHOLD = 1e8  # a step whose coefficients exceed this in modulus blows up


@dataclass(frozen=True)
class SolverConfig:
    delta: float
    T: float
    record_every: int | None = None  # None: the start and the end only
    drift_scale: float = 1.0

    def __post_init__(self):
        if not (0 < self.delta <= self.T):
            raise ConfigurationError(f"need 0 < delta <= T, got delta={self.delta}, T={self.T}")
        if self.record_every is not None and self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")

    @property
    def n_steps(self) -> int:
        ratio = self.T / self.delta
        if not math.isfinite(ratio):
            raise ConfigurationError(f"T/delta = {self.T}/{self.delta} is not a finite step count")
        n = round(ratio)
        if abs(n * self.delta - self.T) > 1e-9 * self.T:
            raise ConfigurationError(
                f"T={self.T} is not an integer multiple of delta={self.delta}"
            )
        return n


MODE_OBSERVABLES = [
    (0, 0), (1, 0), (0, 1), (1, 1), (1, -1),
    (2, 0), (0, 2), (2, 1), (1, 2), (2, -1), (-1, 2), (2, 2), (2, -2),
]


def field_observables(X: SpectralField, c) -> dict:
    """The registered observables of a field X, Wick-ordered with counterterm c.

    wick2 and wick4 are the integrals of :X^2: (by Parseval, `wick2_integral`)
    and :X^4: (over the samples); mode2_<k1>_<k2> is |X_k|^2 for every k of
    MODE_OBSERVABLES that the grid retains.
    """
    grid = X.grid
    *_, he4 = _hermite_orders(grid.coeffs_to_values(X.coeffs), _c_value(c), 4)
    out = {"wick2": wick2_integral(X, c), "wick4": float(np.sum(he4)) * grid.cell_area}
    for k in MODE_OBSERVABLES:
        if max(abs(k[0]), abs(k[1])) <= grid.K:
            out[f"mode2_{k[0]}_{k[1]}"] = abs(X.get_mode(*k)) ** 2
    return out


def nonlinear_term(grid: TorusGrid, Y: np.ndarray, zbar_values: np.ndarray,
                   P: PolynomialSpec | None, c: float) -> np.ndarray:
    """The shifted-equation nonlinearity

        F = sum_{k=1}^{2N} k a_k sum_{l=0}^{k-1} C(k-1, l) Y^l :zbar^{k-1-l}:_c,

    evaluated as :p(Y + zbar):_c at the samples of Y plus `zbar_values`, the
    samples of zbar on `grid`, pointwise on that dealiased grid and
    projected to the window.  Y is a half or full window of coefficients
    (`TorusGrid.coeffs_to_values`); F is returned as a half window.
    P = None: F = 0.
    """
    if P is None:
        return np.zeros((2 * grid.K + 1, grid.K + 1), dtype=np.complex128)
    grid.assert_product_degree(max(P.degree - 1, 1))
    x = grid.coeffs_to_values(Y) + zbar_values
    F = wick_nonlinearity_values(x, P, c)
    return grid.values_to_coeffs(F, half=True)


def step(grid: TorusGrid, Y: np.ndarray, zbar_values: np.ndarray, decay: np.ndarray,
         weight: np.ndarray, P: PolynomialSpec | None, c: float) -> np.ndarray:
    """One exponential-Euler step of the shifted equation on half windows:
    decay * Y - weight * F, with `decay` and `weight` the half windows of
    `ou.step_constants` (`half_constants`)."""
    return decay * Y - weight * nonlinear_term(grid, Y, zbar_values, P, c)


def half_constants(grid: TorusGrid, cfg: SolverConfig):
    """decay, sigma and weight of `ou.step_constants` for cfg's step, and
    lambda, sliced to the half window once per solve."""
    h = grid.K + 1
    decay, sigma, weight = step_constants(grid, cfg.delta, cfg.drift_scale)
    return decay[:, :h], sigma[:, :h], weight[:, :h], grid.lam[:, :h]


def _heat_flow(v: np.ndarray, lam: np.ndarray, t: float) -> np.ndarray:
    """e^{tA} of the coefficients v of the modes with eigenvalues -lam."""
    return v * np.exp(-lam * t)


def _innovations(grid: TorusGrid, noise, cfg: SolverConfig, sigma: np.ndarray):
    """The half windows of the per-step OU innovations sigma * xi of a solve
    on `grid`: xi drawn from a seed's stream (seed, 0, 1) or a Generator by
    `ou.noise_source`, or read from a frozen path; bitwise the columns
    ky >= 0 of `ou.ou_innovations`."""
    h = grid.K + 1
    if isinstance(noise, OUNoisePath):
        if abs(noise.delta - cfg.delta) > 1e-12 * cfg.delta or noise.n_steps < cfg.n_steps:
            raise ConfigurationError("noise path does not match the solver schedule")
        return iter(noise.innovations[:, :, :h])
    rng = noise if isinstance(noise, np.random.Generator) else substream(int(noise), 0, 1)
    return (sigma * xi[:, :h] for xi in noise_source(grid, rng, cfg.n_steps))


class Trajectory:
    """Recorded snapshots and observables of one run, X = Y + zbar on `grid`
    Wick-ordered with counterterm c; `record` appends one time, `observe`
    the observables of the last record, and `_run` turns `times` and each
    of `observables` into arrays when the run ends.  A stationary solve
    records fields only: its `observables` stay empty.

    Each recorded X is formed as Y + zbar, so `reconstruction_defect`, the
    largest |X - Y - zbar| over the records, measures only the rounding of
    that sum; the `identities` suite checks X - Y against a zbar rebuilt
    from the noise path instead.
    """

    def __init__(self, grid: TorusGrid, c: float):
        self.grid = grid
        self.c = c
        self.times = []
        self.Y = []
        self.X = []
        self.zbar = []
        self.observables = {}
        self.reconstruction_defect = 0.0

    def record(self, t, Y, zbar):
        """Append time t with Y and zbar given as half windows."""
        X = Y + zbar
        self.times.append(t)
        for fields, half in ((self.Y, Y), (self.X, X), (self.zbar, zbar)):
            fields.append(SpectralField(self.grid, self.grid.full_window(half)))
        defect = float(np.max(np.abs(X - Y - zbar)))
        self.reconstruction_defect = max(self.reconstruction_defect, defect)

    def observe(self, Y):
        """Append the observables of the last record, whose Y is the half
        window Y: `field_observables` of X and sup_Y, the largest |Y| over
        the grid's samples."""
        obs = field_observables(self.X[-1], self.c)
        obs["sup_Y"] = float(np.max(np.abs(self.grid.coeffs_to_values(Y))))
        for name, value in obs.items():
            self.observables.setdefault(name, []).append(value)


def _run(grid, cfg, P, Y0, z_init_datum, noise, c=None, observe=True):
    """The loop of every solve, on half windows: step Y against the samples
    of zbar = Z + e^{tA} v on the compute grid, advance Z by the exact OU
    step Z <- decay * Z + the next innovation of the noise
    (`_innovations`), and record X = Y + zbar on `grid`, all with
    counterterm c (default c_C of `grid`); with `observe` each record also
    takes its observables (`Trajectory.observe`).  A step whose Y is not
    finite or exceeds `BLOWUP_THRESHOLD` raises `BlowUpError` with its start
    time and Y there."""
    cgrid = grid.compute_grid(P.degree if P is not None else 2)
    decay, sigma, weight, lam = half_constants(cgrid, cfg)
    innovations = _innovations(cgrid, noise, cfg, sigma)
    n_steps = cfg.n_steps
    c = _c_value(counterterm_C(grid) if c is None else c)
    traj = Trajectory(grid, c)
    Y = cgrid.half_window(Y0.coeffs)
    Z = np.zeros_like(Y)
    v = cgrid.half_window(z_init_datum.coeffs) if z_init_datum is not None else None

    def zbar_at(t):
        return Z + _heat_flow(v, lam, t) if v is not None else Z

    def record(t):
        traj.record(t, Y, zbar)
        if observe:
            traj.observe(Y)

    zbar = zbar_at(0.0)
    zbar_values = cgrid.coeffs_to_values(zbar)
    record(0.0)
    for n in range(n_steps):
        t = n * cfg.delta
        new = step(cgrid, Y, zbar_values, decay, weight, P, c)
        if not np.abs(new).max() <= BLOWUP_THRESHOLD:  # also NaN and inf
            raise BlowUpError(t=t, last_state=SpectralField(grid, grid.full_window(Y)))
        Y = new
        Z = decay * Z + next(innovations)
        t_next = (n + 1) * cfg.delta
        zbar = zbar_at(t_next)
        zbar_values = cgrid.coeffs_to_values(zbar)
        if n + 1 == n_steps or cfg.record_every and (n + 1) % cfg.record_every == 0:
            record(t_next)
    traj.times = np.array(traj.times)
    traj.observables = {name: np.array(v) for name, v in traj.observables.items()}
    return traj


def solve(y0, z0, noise, cfg: SolverConfig, P: PolynomialSpec,
          c: float | None = None, grid: TorusGrid | None = None) -> Trajectory:
    """Integrate the shifted equation with Y(0) = y0 (default 0) and
    zbar = Z + e^{tA} z0, X = Y + zbar, Wick-ordered with counterterm c
    (default `counterterm_C(grid)`).

    y0 and z0 enter as their Hermitian halves (`TorusGrid.half_window`): a
    window whose columns ky < 0 are not the mirrors of its columns ky > 0
    stands for the real field that `coeffs_to_values` samples from it, and
    the trajectory records that field's Y and X."""
    if grid is None:
        grid = y0.grid if y0 is not None else (z0.grid if z0 is not None else None)
    if grid is None:
        raise ConfigurationError("solve needs y0, z0 or an explicit grid")
    if y0 is None:
        y0 = SpectralField.zero(grid)
    if z0 is not None and z0.grid != grid:
        raise ConfigurationError("y0 and z0 live on different grids")
    return _run(grid, cfg, P, y0, z0, noise, c)


def stationary_solve(eta, noise, cfg: SolverConfig, P: PolynomialSpec,
                     c: float | None = None) -> Trajectory:
    """Measure-preserving dynamics started from eta (typically a Gibbs sample).

    The rough part is the zero-initial convolution Z with C-ordered Wick
    powers; the initial datum propagates inside Y (Y(0) = eta, X = Y + Z).
    Runs with drift_scale = 1/2: that is the Langevin drift for the density
    exp(-integral :q:) relative to the mode-variance-1/(2 lambda) free
    measure under unit cylindrical noise.

    The trajectory records Y, X and zbar at cfg's schedule but no
    observables (`Trajectory.observables` stays empty): its callers read
    X at T alone and observe it with their own counterterm.
    """
    cfg = replace(cfg, drift_scale=0.5 * cfg.drift_scale)
    return _run(eta.grid, cfg, P, eta, None, noise, c, observe=False)
