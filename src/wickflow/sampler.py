"""Preconditioned Crank-Nicolson sampling of the renormalized Gibbs measure.

The target is nu ~ exp(-V(phi)) mu restricted to the truncated mode space,
with V(phi) = integral of the Wick-ordered interaction and mu the exact
Gaussian free field of the lattice.  The pCN proposal

    phi' = sqrt(1 - rho^2) phi + rho xi,     xi ~ mu,

preserves mu exactly, so the Metropolis ratio only sees the change of V:
accept with probability min(1, exp(V(phi) - V(phi'))).  The kernel is
reversible with respect to nu for every rho in (0, 1], and in the free
case (V = 0) the chain is exactly an AR(1) in every mode.

V is evaluated on the compute grid of the chain's grid, where its
quadrature is exact; samples and their observables stay on the chain's grid.

Draws.  Each proposal takes from the chain's rng two (n, n) standard
normals (xi's real and imaginary parts, as `sample_stationary` draws
them) and then one uniform, accepted or not.  The draws do not depend on
the state, so the chain takes them `ou.block_steps(grid)` proposals ahead
(as many xi as fit in `ou.BLOCK_BYTES`: 50 at K = 4, 9 at K = 10, 1 at
K = 32), in that order, and symmetrizes and transforms a block's xi in
one batched call each (the inverse on xi's half windows: xi is exactly
Hermitian).  After a chain, its rng has
advanced to the end of the last block drawn.

Cost.  Past its share of the block, a proposal costs its arithmetic and
runs no transform: the state carries phi's samples v(phi) on the compute
grid, the proposal's are gamma v(phi), then += rho v(xi), with gamma =
sqrt(1 - rho^2), V(phi') is one Hermite recurrence and one sum per nonzero
order, and an accept combines the coefficients the same way: about 15 us
a step at K = 4, 7 us of it the block's draws (2-core Xeon, numpy 2.4).
Samples and accept decisions are bitwise those of drawing and combining
per proposal; V(phi') differs from a fresh transform's at rounding level.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .besov import BesovSpec, besov_norm, build_partition
from .errors import ConfigurationError, DomainError
from .grid import RealField, SpectralField, TorusGrid
from .ou import block_steps, sample_stationary, stationary_std, symmetrize_normals
from .solver import field_observables
from .wick import wick2_integral, wick_action, wick_action_values

_partition_for = functools.cache(build_partition)
MIN_ACCEPTANCE = 0.01  # below it a chain has not warmed up: the step parameter is too large


class _Proposals:
    """The draws of a chain's next `size` = `ou.block_steps(grid)` proposals:
    proposal `next` is `xi[next]`, `values[next]` (its samples on `cgrid`,
    None in the free case) and `u[next]`; `pcn_step` reads them in place.
    """

    def __init__(self, grid: TorusGrid, cgrid: TorusGrid | None, rng: np.random.Generator):
        n = 2 * grid.K + 1
        self.grid, self.cgrid, self.rng = grid, cgrid, rng
        self.cell_area = None if cgrid is None else cgrid.cell_area
        self.std = stationary_std(grid)
        self.size = block_steps(grid)
        self.draws = np.empty((self.size, 2, n, n))
        self.next = self.size

    def refill(self):
        self.xi = self.values = None  # the spent block goes before the next is made
        self.u = u = []
        normal, uniform = self.rng.standard_normal, self.rng.random
        for d in self.draws:  # per proposal: xi's normals, then its uniform
            normal(out=d)
            u.append(uniform())
        self.xi = self.std * symmetrize_normals(self.grid, self.draws)
        self.values = (None if self.cgrid is None
                       else self.cgrid.coeffs_to_values(self.xi[..., :self.grid.K + 1]))
        self.next = 0


@dataclass
class ChainState:
    """phi, its action V(phi) and the chain's rng and counters.

    `values` are phi's samples on the compute grid where V is evaluated,
    a plain array (None in the free case, P = None); they change only on
    accept.
    `proposals` holds the draws taken ahead from `rng` (see the module
    docstring); states of one chain share it, as they share `rng`.  Build
    a chain's first state with `initial`.
    """

    phi: SpectralField
    action: float
    rng: np.random.Generator
    proposals: _Proposals = field(repr=False, compare=False)
    values: np.ndarray | None = None
    accepted: int = 0
    proposed: int = 0

    @classmethod
    def initial(cls, phi: SpectralField, P, c, rng) -> "ChainState":
        if P is None:
            return cls(phi, 0.0, rng, _Proposals(phi.grid, None, rng))
        cgrid = phi.grid.compute_grid(P.degree)
        values = cgrid.coeffs_to_values(phi.coeffs[:, :phi.grid.K + 1])
        return cls(phi, wick_action(RealField(cgrid, values), P, c), rng,
                   _Proposals(phi.grid, cgrid, rng), values)


def pcn_step(state: ChainState, rho: float, P, c) -> tuple[ChainState, bool]:
    """One pCN proposal/accept step; returns (new state, accepted?).

    Raises `ConfigurationError` if the proposal's action is not finite.
    """
    if not 0.0 < rho <= 1.0:
        raise DomainError(f"step parameter must lie in (0, 1], got {rho}")
    block = state.proposals
    if block.next == block.size:
        block.refill()
    j = block.next
    block.next = j + 1
    gamma = math.sqrt(1.0 - rho * rho)
    values, v_new = None, 0.0
    if state.values is not None:
        values = gamma * state.values
        values += rho * block.values[j]
        v_new = wick_action_values(values, P, c, block.cell_area)
        if not math.isfinite(v_new):
            raise ConfigurationError(f"pCN proposal action is not finite: {v_new}")
    if math.log(block.u[j]) < (state.action - v_new):
        coeffs = gamma * state.phi.coeffs
        coeffs += rho * block.xi[j]
        return ChainState(SpectralField(state.phi.grid, coeffs), v_new, state.rng, block, values,
                          state.accepted + 1, state.proposed + 1), True
    return ChainState(state.phi, state.action, state.rng, block, state.values,
                      state.accepted, state.proposed + 1), False


@dataclass
class ChainResult:
    samples: list
    observables: dict
    acceptance_rate: float
    iat_wick2: float
    accept_history: np.ndarray


def observables(phi: SpectralField, P, c) -> dict:
    """Registered scalar observables of one field configuration: those of
    `solver.field_observables` plus its B^{-0.1}_{inf,inf} norm, "besov"."""
    out = field_observables(phi, c)
    out["besov"] = besov_norm(phi, BesovSpec(-0.1), _partition_for(phi.grid))
    return out


def integrated_autocorrelation(series: np.ndarray, window_factor: float = 5.0) -> float:
    """Sokal-windowed IAT estimate: 1 + 2 sum rho_k up to the adaptive cutoff."""
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    if n < 16 or np.var(x) == 0.0:
        return 1.0
    x = x - x.mean()
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n] / n
    rho = acov / acov[0]
    tau = 1.0
    for k in range(1, n // 2):
        tau += 2.0 * rho[k]
        if k >= window_factor * tau:
            break
    return float(max(tau, 1.0))


def run_chain(init: ChainState, n_steps: int, burn_in: int, thinning: int,
              rho: float, P, c) -> ChainResult:
    """Drive the chain, discard burn-in, thin, and report diagnostics.

    The acceptance rate is that of this call's `n_steps` proposals, also
    when `init` has stepped before.  Warns when it drops below
    `MIN_ACCEPTANCE` (step parameter too large for the target).
    """
    if n_steps <= burn_in:
        raise ConfigurationError(f"n_steps={n_steps} must exceed burn_in={burn_in}")
    if thinning < 1:
        raise ConfigurationError("thinning must be >= 1")
    state = init
    samples = []
    wick2 = []
    accepts = np.zeros(n_steps, dtype=bool)
    h2 = None
    for i in range(n_steps):
        state, acc = pcn_step(state, rho, P, c)
        accepts[i] = acc
        if acc:
            h2 = None
        if i >= burn_in:
            if h2 is None:  # recomputed only when phi moved
                h2 = wick2_integral(state.phi, c)
            wick2.append(h2)
            if (i - burn_in) % thinning == 0:
                samples.append(state.phi.copy())
    rate = int(accepts.sum()) / n_steps
    if rate < MIN_ACCEPTANCE:
        warnings.warn(f"pCN acceptance rate {rate:.2%} < {MIN_ACCEPTANCE:.0%}: "
                      "step parameter too large")
    wick2 = np.asarray(wick2, dtype=np.float64)
    return ChainResult(
        samples=samples,
        observables={"wick2": wick2},
        acceptance_rate=rate,
        iat_wick2=integrated_autocorrelation(wick2),
        accept_history=accepts,
    )


def gibbs_samples(grid: TorusGrid, P, c, n_samples: int, rho: float,
                  burn_in: int, thinning: int, rng: np.random.Generator):
    """Convenience: equilibrated, thinned draws from the truncated Gibbs measure."""
    state = ChainState.initial(sample_stationary(grid, rng), P, c, rng)
    n_steps = burn_in + n_samples * thinning
    result = run_chain(state, n_steps, burn_in, thinning, rho, P, c)
    if len(result.samples) < n_samples:
        raise ConfigurationError("chain produced fewer samples than requested")
    return result.samples[:n_samples], result
