"""Spectral Galerkin simulator and verification suite for Wick-renormalized
scalar field dynamics on the 2-torus: renormalized nonlinearities, exact
stochastic convolution, the shifted-equation solver, Gibbs sampling, and
Besov-regularity diagnostics."""

from .errors import BlowUpError, ConfigurationError, DomainError, NonContractionError, WarmupError
from .grid import SpectralField, TorusGrid, apply_semigroup
from .ou import (
    OUNoisePath,
    build_tower,
    convert_tower,
    ct_tower,
    ou_step,
    sample_stationary,
    substream,
)
from .wick import (
    PolynomialSpec,
    WickTower,
    binomial_identity_check,
    counterterm_C,
    counterterm_t,
    field_tower,
    hermite,
    recombine,
    wick_action,
    wick_power,
)

__version__ = "0.1.0"
