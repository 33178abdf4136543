"""Hermite polynomials, counterterms, Wick powers and the Wick action.

Wick ordering of a Gaussian field with pointwise variance c replaces the
n-th power by the variance-scaled (probabilists') Hermite polynomial,

    :u^n:_c = c^{n/2} P_n(c^{-1/2} u)  =  He_n(u; c),

where He_n(x; c) satisfies He_0 = 1, He_1 = x and the recurrence

    He_{m+1}(x; c) = x He_m(x; c) - m c He_{m-1}(x; c).

The recurrence is written once, in `_hermite_orders`, which yields the
orders one after another from two buffers; every evaluator here (a single
order, a stacked tower, the nonlinearity, the action) reads from it,
except the integral of :u^2:, which `wick2_integral` takes by Parseval.  It
is numerically stable and degenerates gracefully to plain powers at c = 0
(the unrenormalized limit).  A counterterm is a plain float c >= 0.  All
pointwise evaluation happens on the dealiased fine grid; public operations
return fields projected back to the retained window.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .grid import RealField, SpectralField, TorusGrid

HERMITE_MAX_ORDER = 64


@dataclass(frozen=True)
class PolynomialSpec:
    """Coefficients a_0..a_{2N} of the interaction q(phi) = sum a_n phi^n.

    The induced drift polynomial is p(phi) = q'(phi) = sum n a_n phi^{n-1}.
    The leading coefficient a_{2N} must be positive (confining potential).
    """

    N: int
    a: tuple

    def __init__(self, N: int, a):
        a = tuple(float(x) for x in a)
        if N < 1:
            raise ConfigurationError(f"N must be >= 1, got {N}")
        if len(a) != 2 * N + 1:
            raise ConfigurationError(
                f"need 2N+1={2 * N + 1} coefficients a_0..a_{2 * N}, got {len(a)}"
            )
        if not all(math.isfinite(x) for x in a):
            raise ConfigurationError(f"coefficients must be finite, got {a}")
        if not a[2 * N] > 0:
            raise ConfigurationError(f"leading coefficient a_{2 * N} must be > 0")
        object.__setattr__(self, "N", int(N))
        object.__setattr__(self, "a", a)

    @classmethod
    def quartic(cls, a4: float = 0.25, a2: float = 0.0, a1: float = 0.0) -> "PolynomialSpec":
        return cls(2, (0.0, a1, a2, 0.0, a4))

    @classmethod
    def quadratic(cls, a2: float) -> "PolynomialSpec":
        return cls(1, (0.0, 0.0, a2))

    @property
    def degree(self) -> int:
        return 2 * self.N


def _c_value(c) -> float:
    value = float(c)
    if value < 0:
        raise DomainError(f"counterterm must be >= 0, got {value}")
    return value


def _hermite_orders(x: np.ndarray, c: float, n: int):
    """Yield He_0(x; c) .. He_n(x; c), the recurrence in two buffers.

    He_0 is the scalar 1.0 and He_1 is x itself: a caller that returns an
    order must make an array of the first and copy the second.
    """
    yield 1.0
    if n == 0:
        return
    prev, cur = 1.0, x
    yield cur
    for m in range(1, n):
        nxt = x * cur
        nxt -= m * c * prev
        prev, cur = cur, nxt
        yield cur


def _check_order(n: int) -> None:
    if n < 0:
        raise DomainError(f"Hermite order must be >= 0, got {n}")
    if n > HERMITE_MAX_ORDER:
        raise DomainError(f"Hermite order {n} exceeds supported maximum {HERMITE_MAX_ORDER}")


def hermite(n: int, x: float) -> float:
    """Probabilists' Hermite polynomial P_n(x) = He_n(x; 1)."""
    return float(hermite_variance(n, x, 1.0))


def hermite_variance(n: int, x, c: float):
    """He_n(x; c) = c^{n/2} P_n(c^{-1/2} x); works on scalars and arrays."""
    _check_order(n)
    x = np.asarray(x, dtype=np.float64)
    if n == 0:
        return np.ones_like(x)
    for he in _hermite_orders(x, c, n):
        pass
    return he.copy() if he is x else he


def hermite_tower_values(x: np.ndarray, c: float, n_orders: int) -> np.ndarray:
    """All orders He_0(x; c) .. He_{n_orders-1}(x; c), stacked."""
    if n_orders < 1:
        raise DomainError("need at least one tower order")
    _check_order(n_orders - 1)
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((n_orders,) + x.shape, dtype=np.float64)
    for m, he in enumerate(_hermite_orders(x, c, n_orders - 1)):
        out[m] = he
    return out


def binomial_identity_check(n: int, s: float, t: float) -> float:
    """Residual of the Hermite binomial identity

        P_n(s + t) = sum_m C(n, m) P_m(s) t^{n-m}.

    Returns the backward-relative residual |lhs - rhs| normalized by
    (1 + |lhs| + sum_m |terms|).  The term-sum in the denominator matters:
    for opposite-sign s, t of size ~5 the summands reach 1e9 while the sum
    is O(1), so the raw difference carries an irreducible float64
    cancellation error of order 1e-7 even though the identity is exact
    (the tests confirm exactness separately in integer arithmetic).
    Well-conditioned inputs give 0 exactly.
    """
    lhs = hermite(n, s + t)
    terms = [math.comb(n, m) * hermite(m, s) * t ** (n - m) for m in range(n + 1)]
    rhs = math.fsum(terms)
    scale = 1.0 + abs(lhs) + math.fsum(abs(x) for x in terms)
    return abs(lhs - rhs) / scale


def counterterm_C(grid: TorusGrid) -> float:
    """Exact pointwise variance of the truncated free field N(0, (1/2)(-Lap+1)^{-1}).

    Each retained mode contributes 1/(2 lambda_k); the basis normalization
    turns the mode sum into a pointwise variance with the (2 pi)^{-2} factor.
    """
    return float(np.sum(1.0 / (2.0 * grid.lam))) / (2.0 * np.pi) ** 2


def counterterm_t(grid: TorusGrid, t: float) -> float:
    """c_t(t) = -(2 pi)^{-2} sum_k e^{-2 lambda_k t}/(2 lambda_k), the shift from the
    stationary variance c_C to the variance c_C + c_t(t) of Z(t) started at 0.

    Nonpositive and nondecreasing in t, with c_t(0) = -c_C and c_t -> 0.
    """
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t}")
    return -float(np.sum(np.exp(-2.0 * grid.lam * t) * (1.0 / (2.0 * grid.lam)))) * (
        1.0 / (2.0 * np.pi) ** 2)


@dataclass
class WickTower:
    """The family {:zbar^j:}_{j=0..n_orders-1} at one time point.

    `raw` holds exact pointwise values on the fine grid, shape
    (n_orders, M, M); keeping the unprojected samples is what makes the
    recombination identities exact at finite dimension.  `order` gives a
    window-projected field.
    """

    grid: TorusGrid
    t: float
    kind: str
    counterterm: float
    raw: np.ndarray

    @property
    def n_orders(self) -> int:
        return self.raw.shape[0]

    def order_values(self, j: int) -> np.ndarray:
        if not 0 <= j < self.n_orders:
            raise ConfigurationError(f"tower order {j} missing (have 0..{self.n_orders - 1})")
        return self.raw[j]

    def order(self, j: int) -> SpectralField:
        return SpectralField(self.grid, self.grid.values_to_coeffs(self.order_values(j)))


def field_tower(z, c, n_orders: int) -> WickTower:
    """Wick tower of a single field with a fixed counterterm (kind "C")."""
    cval = _c_value(c)
    grid, values = _field_values(z)
    grid.assert_product_degree(max(n_orders - 1, 1))
    raw = hermite_tower_values(values, cval, n_orders)
    return WickTower(grid=grid, t=0.0, kind="C", counterterm=cval, raw=raw)


def _field_values(u):
    if isinstance(u, RealField):
        return u.grid, u.values
    if isinstance(u, SpectralField):
        return u.grid, u.grid.coeffs_to_values(u.coeffs)
    raise ConfigurationError(f"expected a field, got {type(u).__name__}")


def _return_like(u, grid: TorusGrid, values: np.ndarray):
    """Project pointwise results to the window, in the caller's representation."""
    coeffs = grid.values_to_coeffs(values)
    if isinstance(u, RealField):
        return RealField(grid, grid.coeffs_to_values(coeffs))
    return SpectralField(grid, coeffs)


def wick_power(u, n: int, c):
    """:u^n:_c as a field, dealiased and projected to the window."""
    if n < 0:
        raise DomainError(f"Wick power order must be >= 0, got {n}")
    cval = _c_value(c)
    grid, values = _field_values(u)
    if n >= 2:
        grid.assert_product_degree(n)
    return _return_like(u, grid, hermite_variance(n, values, cval))


def wick_nonlinearity_values(values: np.ndarray, P: PolynomialSpec, c: float) -> np.ndarray:
    """Pointwise :p(u):_c = sum_n n a_n He_{n-1}(u; c) at the samples of u."""
    x = np.asarray(values, dtype=np.float64)
    out = None
    for n, he in enumerate(_hermite_orders(x, c, P.degree - 1), start=1):
        if P.a[n] != 0.0:
            term = n * P.a[n] * he
            if out is None:
                out = term
            else:
                out += term  # the a_1 term is a scalar; the top one is an array
    return out


def wick_action(u, P: PolynomialSpec | None, c) -> float:
    """The Wick-ordered action integral(sum_n a_n :u^n:_c) over the torus.

    Quadrature is exact: the integrand is a trigonometric polynomial of
    degree at most 2N*K which the fine grid resolves.  P = None (the free
    case) gives 0.
    """
    if P is None:
        return 0.0
    grid, values = _field_values(u)
    if P.degree * grid.K + 1 > grid.M:
        raise ConfigurationError(
            f"grid M={grid.M} too small for exact degree-{P.degree} quadrature at K={grid.K}"
        )
    return wick_action_values(values, P, c, grid.cell_area)


def wick_action_values(values: np.ndarray, P: PolynomialSpec, c: float,
                       cell_area: float) -> float:
    """The Wick action from the samples of u on a grid of cells of `cell_area`;
    exact on the grids `wick_action` accepts.  He_0 = 1 sums to values.size."""
    orders = _hermite_orders(values, _c_value(c), P.degree)
    next(orders)
    total = P.a[0] * values.size
    for a_n, he in zip(P.a[1:], orders):
        if a_n != 0.0:
            total += a_n * float(he.sum())
    return total * cell_area


def wick2_integral(u: SpectralField, c) -> float:
    """integral :u^2:_c over the torus by Parseval, sum_k |u_k|^2 - L^2 c."""
    coeffs = u.coeffs
    return float(np.vdot(coeffs, coeffs).real) - u.grid.L**2 * _c_value(c)


def recombine(y, tower: WickTower, n: int):
    """Reassemble :(y + zbar)^n: from y-powers and the tower of zbar:

        sum_k C(n, k) y^{n-k} :zbar^k:

    Exact at finite dimension because the tower keeps unprojected samples.
    """
    grid, yvals = _field_values(y)
    if tower.grid != grid:
        raise ConfigurationError("tower and field live on different grids")
    if n >= tower.n_orders:
        raise ConfigurationError(
            f"tower holds orders 0..{tower.n_orders - 1}, recombination needs {n}"
        )
    if n >= 2:
        grid.assert_product_degree(n)
    return _return_like(y, grid, binomial_fold(yvals, tower.raw, n))


def binomial_fold(y: np.ndarray, raw: np.ndarray, n: int) -> np.ndarray:
    """Pointwise sum_k C(n, k) y^{n-k} raw[k]: :(y + z)^n: from the tower samples raw of z."""
    out = raw[n].copy()
    ypow = np.ones_like(y)
    for k in range(n - 1, -1, -1):
        ypow = ypow * y
        out += math.comb(n, k) * ypow * raw[k]
    return out
