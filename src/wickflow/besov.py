"""Littlewood-Paley blocks, Besov norms and regularity diagnostics.

A dyadic partition of unity (chi, theta) is built by telescoping a single
smooth radial profile S (1 inside radius 1, 0 outside 4/3):

    chi(xi) = S(|xi|),   theta(xi) = S(|xi|/2) - S(|xi|),

so chi + sum_j theta(2^{-j} xi) collapses to S(2^{-(J+1)} |xi|), which is
identically 1 on the finite lattice once enough annuli are kept.  The
partition is therefore exact by construction (residual at roundoff), the
theta supports sit inside the annulus [3/4, 8/3] scaled by 2^j, and blocks
two or more apart have disjoint supports.

The one Besov norm is B^alpha_{inf,inf}, the norm every suite reads: the
largest block sup norm over the grid's samples, weighted 2^{j alpha} and 1
for the low block j = -1 (an equivalent norm that keeps scaling and
monotonicity in alpha exact).  A block is band-limited by construction,
so `block_norms` forms and transforms each one on the half window of its
band alone.  The regularity fit reads block root mean
squares (measure dx/(2pi)^2) by Parseval on the coefficients, no transform.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .grid import SpectralField, TorusGrid, _window
from .ou import block_steps

_PLATEAU_RADIUS = 1.0       # S == 1 inside; theta vanishes below this
_SUPPORT_RADIUS = 4.0 / 3.0  # S == 0 outside; theta support ends at twice this


@functools.cache
def _bump_cdf():
    """The normalized CDF of the bump exp(-1/(1-u^2)) at 4097 points of
    [-1, 1], by the trapezoid rule: `_smooth_step`'s table, built once per
    process and read only."""
    u = np.linspace(-1.0, 1.0, 4097)
    with np.errstate(divide="ignore", over="ignore"):
        bump = np.where(np.abs(u) < 1.0, np.exp(-1.0 / np.maximum(1.0 - u * u, 1e-300)), 0.0)
    cdf = np.concatenate(([0.0], np.cumsum((bump[1:] + bump[:-1]) * 0.5 * (u[1] - u[0]))))
    cdf /= cdf[-1]
    u.flags.writeable = cdf.flags.writeable = False
    return u, cdf


def _smooth_step(s: np.ndarray) -> np.ndarray:
    """C^infinity transition 1 -> 0 on [0, 1], from the bump exp(-1/(1-u^2))."""
    u, cdf = _bump_cdf()
    return 1.0 - np.interp(np.clip(s, 0.0, 1.0) * 2.0 - 1.0, u, cdf)


def _profile(r: np.ndarray) -> np.ndarray:
    """S(r): 1 for r <= 1, 0 for r >= 4/3, smooth monotone between.

    The late transition keeps each annulus broad (smaller estimator
    variance on coarse lattices) while the induced theta supports stay
    inside the standard annulus [3/4, 8/3]."""
    return _smooth_step((np.asarray(r, dtype=np.float64) - _PLATEAU_RADIUS)
                        / (_SUPPORT_RADIUS - _PLATEAU_RADIUS))


@dataclass(frozen=True)
class BesovSpec:
    """The regularity alpha of a B^alpha_{inf,inf} norm."""

    alpha: float

    def __post_init__(self):
        if not isinstance(self.alpha, numbers.Real) or not math.isfinite(self.alpha):
            raise DomainError(f"Besov alpha must be a finite real number, got {self.alpha!r}")


class DyadicPartition:
    """Evaluated multiplier profiles of all blocks on a grid's lattice.

    Blocks run j = -1 .. j_max; `j_usable` counts the annuli whose dyadic
    scale stays at or below half the cutoff (floor(log2 K) - 1), the range
    regularity fits should trust.
    """

    def __init__(self, grid: TorusGrid):
        if grid.K < 2:
            raise ConfigurationError(f"need K >= 2 for at least two annuli, got K={grid.K}")
        self.grid = grid
        r = np.sqrt(grid.ksq.astype(np.float64))
        r_max = float(np.max(r))
        # last annulus index needed for S(2^-(J+1) r) == 1 on the whole lattice
        self.j_max = max(1, math.ceil(math.log2(r_max / _PLATEAU_RADIUS)) - 1)
        self.j_usable = max(1, math.floor(math.log2(grid.K)) - 1)
        profiles = [_profile(r)]  # chi at j = -1
        for j in range(self.j_max + 1):
            profiles.append(_profile(r / 2 ** (j + 1)) - _profile(r / 2**j))
        self.profiles = np.stack(profiles)  # index 0 is block -1
        # each block's band: the largest |k|_inf at which its profile is
        # nonzero (profiles are exactly 0.0 outside their supports)
        kinf = np.maximum(np.abs(grid.kx), np.abs(grid.ky))
        self.bands = [int(np.max(kinf, where=p != 0.0, initial=0)) for p in self.profiles]
        # the batches of `block_norms`, `ou.block_steps(grid)` blocks each:
        # the first block, the largest band s of the batch, the rows of its
        # sub-window and the blocks' profiles on the half window (2s+1, s+1)
        self._batches = []
        size = block_steps(grid)
        for start in range(0, len(self.bands), size):
            s = max(self.bands[start:start + size])
            rows = _window(s, grid.M)[0]
            self._batches.append((start, s, rows, self.profiles[start:start + size][
                :, rows[:, None], rows[:s + 1]]))

    def multiplier(self, j: int) -> np.ndarray:
        if not -1 <= j <= self.j_max:
            raise DomainError(f"block index {j} outside -1..{self.j_max}")
        return self.profiles[j + 1]

    def sum_residual(self) -> float:
        return float(np.max(np.abs(self.profiles.sum(axis=0) - 1.0)))


def build_partition(grid: TorusGrid) -> DyadicPartition:
    return DyadicPartition(grid)


def _check_grid(u: SpectralField, partition: DyadicPartition) -> None:
    if partition.grid != u.grid:
        raise ConfigurationError("partition built for a different grid")


def block_norms(u: SpectralField, partition: DyadicPartition) -> np.ndarray:
    """Sup norms over the grid's samples of all blocks, j = -1 .. j_max.

    Blocks are formed over their bands and inverse-transformed
    `ou.block_steps(grid)` at a time (as many as fit a block's coefficients
    in 64 KiB: all of them at K = 4 and K = 10, three at K = 16, one at
    K = 32), through the batch axis of `coeffs_to_values`.  u's Hermitian
    half (`TorusGrid.half_window`) is taken once; each batch multiplies its
    blocks' profiles into the half window (2s+1, s+1) of its largest band s
    and transforms its live blocks over the largest band among them
    (`DyadicPartition.bands`: K for a batch holding the outer block, 1, 2,
    5, 10, 21, 32, 32 at K = 32), which every block of the batch lies
    inside.  For a window whose columns ky > 0 mirror its columns ky < 0
    exactly, as every real field's do here, each norm is bitwise that of
    its full-window block's own transform over that band.  A block with no
    nonzero coefficient has norm exactly 0.0 and is not transformed.
    """
    _check_grid(u, partition)
    grid = u.grid
    half = grid.half_window(u.coeffs)
    out = np.zeros(partition.j_max + 2)
    for start, s, rows, profiles in partition._batches:
        blocks = (half if s == grid.K else half[rows, :s + 1]) * profiles
        live = [j for j, b in enumerate(blocks) if b.any()]
        if not live:
            continue
        band = max(partition.bands[start + j] for j in live)
        if len(live) < len(blocks):
            blocks = blocks[live]
        if band < s:
            blocks = blocks[:, _window(band, grid.M)[0], :band + 1]
        v = grid.coeffs_to_values(blocks, band=band)
        out[start + np.array(live)] = np.maximum(v.max(axis=(1, 2)), -v.min(axis=(1, 2)))
    return out


def block_rms(u: SpectralField, partition: DyadicPartition) -> np.ndarray:
    """Root mean squares of all blocks, sqrt(sum_k |theta_j(k) u_k|^2) / (2 pi)."""
    _check_grid(u, partition)
    return np.sqrt(np.sum(np.abs(u.coeffs * partition.profiles) ** 2, axis=(1, 2))) / u.grid.L


def besov_norm(u: SpectralField, spec: BesovSpec, partition: DyadicPartition | None = None) -> float:
    """Grid Besov norm max_j 2^{j alpha} ||Delta_j u||_inf; block -1 carries weight 1."""
    partition = partition or build_partition(u.grid)
    weights = np.array([1.0] + [2.0 ** (j * spec.alpha) for j in range(partition.j_max + 1)])
    return float(np.max(weights * block_norms(u, partition)))


def regularity_estimate(u: SpectralField, partition: DyadicPartition | None = None):
    """Least-squares regularity exponent from block-amplitude decay.

    Fits log2 of the block root-mean-square amplitudes (`block_rms`)
    against j over the trusted annuli j = 1 .. j_usable and returns
    (alpha_hat, residual); alpha_hat is minus the slope.  For Gaussian-type
    fields the rms amplitude tracks the Hoelder-scale exponent cleanly (a
    flat spectrum gives -1 in two dimensions, the free field 0-), whereas block sup
    norms carry a logarithmic extreme-value growth that biases the slope
    by about -0.2 on these lattice sizes; the calibration bands used by
    the experiments are stated for the rms variant.  Returns (None, None)
    when the blocks are degenerate.
    """
    partition = partition or build_partition(u.grid)
    if partition.j_usable < 3:
        raise ConfigurationError("regularity fit needs at least three usable annuli (K >= 16)")
    js = np.arange(1, partition.j_usable + 1)
    norms = block_rms(u, partition)[js + 1]
    if np.any(norms <= 0.0):
        return None, None
    y = np.log2(norms)
    A = np.vstack([js, np.ones_like(js)]).T
    (slope, _), res, *_ = np.linalg.lstsq(A, y, rcond=None)
    residual = float(np.sqrt(res[0])) if res.size else 0.0
    return float(-slope), residual

