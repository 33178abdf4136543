import math
from fractions import Fraction

import numpy as np
import pytest

from wickflow import (
    ConfigurationError,
    DomainError,
    PolynomialSpec,
    RealField,
    SpectralField,
    TorusGrid,
    binomial_identity_check,
    counterterm_C,
    field_tower,
    hermite,
    recombine,
    sample_stationary,
    to_real,
    wick_action,
    wick_power,
)
from wickflow.solver import SolverConfig, field_observables, nonlinear_term, stationary_solve
from wickflow.wick import (
    hermite_tower_values,
    hermite_variance,
    wick_action_values,
    wick_nonlinearity_values,
)
from oracles import to_spectral, wick_action_per_order


def hermite_closed_sum(n, x):
    """The explicit alternating-sum formula, kept as a test oracle."""
    return sum(
        (-1) ** j * math.factorial(n) / (math.factorial(n - 2 * j) * math.factorial(j) * 2**j)
        * x ** (n - 2 * j)
        for j in range(n // 2 + 1)
    )


def test_hermite_reference_values():
    assert hermite(2, 3.0) == pytest.approx(8.0, abs=1e-14)   # x^2 - 1
    assert hermite(3, 2.0) == pytest.approx(2.0, abs=1e-14)   # x^3 - 3x
    assert hermite(4, 1.0) == pytest.approx(-2.0, abs=1e-14)  # x^4 - 6x^2 + 3


def test_hermite_matches_closed_formula():
    rng = np.random.default_rng(0)
    for n in range(13):
        for x in rng.uniform(-4, 4, 8):
            ref = hermite_closed_sum(n, x)
            assert hermite(n, x) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_hermite_order_bounds():
    with pytest.raises(DomainError):
        hermite(-1, 0.0)
    with pytest.raises(DomainError):
        hermite(65, 0.0)


def test_binomial_identity_hand_values():
    # n=2: P2(2) = 3 versus P2(1) + 2 P1(1) + 1 = 0 + 2 + 1
    assert binomial_identity_check(2, 1.0, 1.0) == 0.0
    # n=3: P3(2) = 2 versus (1-3) + 3*0 + 3*1 + 1
    assert binomial_identity_check(3, 1.0, 1.0) == 0.0


def test_binomial_identity_t_zero():
    rng = np.random.default_rng(1)
    for n in range(11):
        for s in rng.uniform(-5, 5, 5):
            assert binomial_identity_check(n, s, 0.0) < 1e-15


def test_binomial_identity_sampled():
    rng = np.random.default_rng(2)
    for n in range(11):
        for _ in range(50):
            s, t = rng.uniform(-5, 5, 2)
            assert binomial_identity_check(n, s, t) <= 1e-12


def test_binomial_identity_exact_in_rational_arithmetic():
    # the identity itself is exact; verify with no rounding at all
    def P(n, x):
        if n == 0:
            return Fraction(1)
        prev, cur = Fraction(1), x
        for m in range(1, n):
            prev, cur = cur, x * cur - m * prev
        return cur

    rng = np.random.default_rng(3)
    for n in range(11):
        s = Fraction(int(rng.integers(-40, 40)), 8)
        t = Fraction(int(rng.integers(-40, 40)), 8)
        lhs = P(n, s + t)
        rhs = sum(math.comb(n, m) * P(m, s) * t ** (n - m) for m in range(n + 1))
        assert lhs == rhs


def test_counterterm_single_mode():
    assert counterterm_C(TorusGrid(0)) == pytest.approx(1.0 / (8 * np.pi**2), rel=1e-14)


def test_counterterm_nine_mode_oracle():
    # independent sum over the 9 modes of the K = 1 lattice
    oracle = 0.0
    for k1 in (-1, 0, 1):
        for k2 in (-1, 0, 1):
            oracle += 1.0 / (2.0 * (1 + k1**2 + k2**2))
    oracle /= (2 * np.pi) ** 2
    assert counterterm_C(TorusGrid(1)) == pytest.approx(oracle, rel=1e-14)
    assert oracle == pytest.approx((2 * np.pi) ** -2 * (13.0 / 6.0), rel=1e-12)


def test_counterterm_monotone_in_K():
    values = [counterterm_C(TorusGrid(K)) for K in range(6)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_wick_power_constants():
    grid = TorusGrid(2)
    u = to_spectral(RealField.constant(grid, 2.0))
    c = 1.0
    w2 = to_real(wick_power(u, 2, c)).values
    w3 = to_real(wick_power(u, 3, c)).values
    assert np.max(np.abs(w2 - 3.0)) < 1e-12   # phi^2 - c at phi = 2
    assert np.max(np.abs(w3 - 2.0)) < 1e-12   # phi^3 - 3 c phi at phi = 2


def test_wick_power_low_orders():
    grid = TorusGrid(2)
    u = sample_stationary(grid, np.random.default_rng(4))
    c = counterterm_C(grid)
    one = wick_power(u, 0, c)
    assert one.get_mode(0, 0) == pytest.approx(2 * np.pi, rel=1e-13)
    ident = wick_power(u, 1, c)
    assert np.max(np.abs(ident.coeffs - u.coeffs)) < 1e-12


def test_wick_power_realfield_roundtrip():
    grid = TorusGrid(2)
    f = to_real(sample_stationary(grid, np.random.default_rng(5)))
    out = wick_power(f, 2, 0.3)
    assert isinstance(out, RealField)


def test_negative_counterterm_rejected():
    grid = TorusGrid(2)
    u = sample_stationary(grid, np.random.default_rng(6))
    with pytest.raises(DomainError):
        wick_power(u, 2, -0.1)
    with pytest.raises(DomainError):
        wick_action(u, PolynomialSpec.quartic(0.25), -1.0)
    with pytest.raises(DomainError):  # the dynamics' nonlinearity
        stationary_solve(u, 0, SolverConfig(delta=0.1, T=0.1), PolynomialSpec.quartic(0.25), c=-1.0)


def test_wick_power_zero_counterterm_classical():
    grid = TorusGrid(2, max_degree=3)
    u = sample_stationary(grid, np.random.default_rng(7))
    vals = grid.coeffs_to_values(u.coeffs)
    w = wick_power(u, 3, 0.0)
    oracle = grid.values_to_coeffs(vals**3)
    assert np.max(np.abs(w.coeffs - oracle)) < 1e-12


def test_wick_nonlinearity_quartic_constant():
    grid = TorusGrid(2)
    P = PolynomialSpec.quartic(0.25)
    u = to_spectral(RealField.constant(grid, 2.0))
    out = grid.coeffs_to_values(nonlinear_term(grid, u.coeffs, np.zeros((grid.M, grid.M)), P, 1.0))
    assert np.max(np.abs(out - 2.0)) < 1e-12  # 4 a4 :phi^3: = :2^3: at c = 1


def test_wick_nonlinearity_linear_case():
    grid = TorusGrid(3)
    P = PolynomialSpec.quadratic(0.7)
    u = sample_stationary(grid, np.random.default_rng(8))
    out = nonlinear_term(grid, u.coeffs, np.zeros((grid.M, grid.M)), P, counterterm_C(grid))
    assert np.max(np.abs(grid.full_window(out) - 2 * 0.7 * u.coeffs)) < 1e-12


def test_wick_nonlinearity_classical_limit():
    grid = TorusGrid(2, max_degree=4)
    P = PolynomialSpec.quartic(0.25, a2=0.5)
    u = sample_stationary(grid, np.random.default_rng(9))
    vals = grid.coeffs_to_values(u.coeffs)
    classical = grid.values_to_coeffs(vals**3 + 2 * 0.5 * vals)
    out = nonlinear_term(grid, u.coeffs, np.zeros((grid.M, grid.M)), P, 0.0)
    assert np.max(np.abs(grid.full_window(out) - classical)) < 1e-11


def test_wick_action_constant_field():
    grid = TorusGrid(2, max_degree=4)
    P = PolynomialSpec.quartic(0.25)
    c = counterterm_C(grid)
    phi0 = 1.3
    u = to_spectral(RealField.constant(grid, phi0))
    expected = (2 * np.pi) ** 2 * 0.25 * (phi0**4 - 6 * c * phi0**2 + 3 * c**2)
    assert wick_action(u, P, c) == pytest.approx(expected, rel=1e-13)


def test_wick_action_zero_field():
    grid = TorusGrid(2, max_degree=4)
    P = PolynomialSpec.quartic(0.25)
    c = 0.37
    u = SpectralField.zero(grid)
    assert wick_action(u, P, c) == pytest.approx((2 * np.pi) ** 2 * 0.25 * 3 * c**2, rel=1e-13)


def test_wick_action_free_case():
    grid = TorusGrid(2)
    u = sample_stationary(grid, np.random.default_rng(10))
    assert wick_action(u, None, 0.1) == 0.0


def test_wick_action_gradient_matches_nonlinearity():
    # central finite differences of the action along random directions
    grid = TorusGrid(3, max_degree=4)
    P = PolynomialSpec.quartic(0.25, a2=-0.3, a1=0.2)
    c = counterterm_C(grid)
    rng = np.random.default_rng(11)
    u = sample_stationary(grid, rng)
    grad = grid.full_window(nonlinear_term(grid, u.coeffs, np.zeros((grid.M, grid.M)), P, c))
    for _ in range(4):
        v = sample_stationary(grid, rng)
        eps = 1e-5
        plus = wick_action(u + eps * v, P, c)
        minus = wick_action(u - eps * v, P, c)
        fd = (plus - minus) / (2 * eps)
        pairing = float(np.real(np.sum(grad * np.conj(v.coeffs))))
        assert fd == pytest.approx(pairing, rel=1e-6, abs=1e-6)


# the quadratic model, a quartic with every a_n != 0 and a sextic
ACTION_MODELS = {
    "quadratic": PolynomialSpec.quadratic(0.5),
    "quartic-every-term": PolynomialSpec(2, (0.3, -0.7, 0.2, 1.1, 0.25)),
    "sextic": PolynomialSpec(3, (0.0, 0.4, -0.5, 0.0, 0.3, 0.0, 0.1)),
}


@pytest.mark.parametrize("K", [0, 4, 10])
@pytest.mark.parametrize("model", sorted(ACTION_MODELS))
@pytest.mark.parametrize("zero_c", [False, True])
def test_wick_action_values_equal_the_per_order_sum_bitwise(K, model, zero_c):
    P = ACTION_MODELS[model]
    grid = TorusGrid(K, max_degree=P.degree)
    cgrid = grid.compute_grid(P.degree)
    c = 0.0 if zero_c else counterterm_C(grid)
    phi = sample_stationary(grid, np.random.default_rng([K, P.degree]))
    values = cgrid.coeffs_to_values(phi.coeffs)
    action = wick_action_values(values, P, c, cgrid.cell_area)
    assert type(action) is float
    assert action == wick_action_per_order(values, P, c, cgrid.cell_area)
    with pytest.raises(DomainError):
        wick_action_values(values, P, -1e-3, cgrid.cell_area)


def test_recombine_constants():
    grid = TorusGrid(2, max_degree=4)
    c = 0.41
    z = to_spectral(RealField.constant(grid, 1.0))
    tower = field_tower(z, c, 4)
    y = to_spectral(RealField.constant(grid, 1.0))
    out = to_real(recombine(y, tower, 3)).values
    assert np.max(np.abs(out - (8.0 - 6.0 * c))) < 1e-12  # :2^3:_c


def test_recombine_trivial_cases():
    grid = TorusGrid(3, max_degree=4)
    c = counterterm_C(grid)
    rng = np.random.default_rng(12)
    z = sample_stationary(grid, rng)
    tower = field_tower(z, c, 4)
    zero = SpectralField.zero(grid)
    for n in range(4):
        out = recombine(zero, tower, n)
        assert np.max(np.abs(out.coeffs - tower.order(n).coeffs)) < 1e-12
    y = sample_stationary(grid, rng)
    out1 = recombine(y, tower, 1)
    assert np.max(np.abs(out1.coeffs - (y + z).coeffs)) < 1e-12


def test_recombine_missing_order_rejected():
    grid = TorusGrid(2)
    z = sample_stationary(grid, np.random.default_rng(13))
    tower = field_tower(z, 0.2, 3)
    with pytest.raises(ConfigurationError):
        recombine(z, tower, 3)


def test_recombination_identity_random_fields():
    grid = TorusGrid(8, max_degree=6)
    c = counterterm_C(grid)
    rng = np.random.default_rng(14)
    u, z = sample_stationary(grid, rng), sample_stationary(grid, rng)
    tower = field_tower(z, c, 6)
    for n in range(6):
        lhs = recombine(u - z, tower, n).coeffs
        rhs = wick_power(u, n, c).coeffs
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def test_tower_invariants():
    grid = TorusGrid(3, max_degree=4)
    z = sample_stationary(grid, np.random.default_rng(15))
    tower = field_tower(z, 0.3, 4)
    assert np.max(np.abs(tower.order_values(0) - 1.0)) == 0.0
    assert np.max(np.abs(tower.order_values(1) - grid.coeffs_to_values(z.coeffs))) < 1e-12
    assert tower.n_orders == 4


def test_wick_square_moments_monte_carlo():
    # Wick moment identities: E[:phi^2:(x)] = 0, E[(:phi^2:(x))^2] = 2 c^2
    grid = TorusGrid(3, max_degree=2)
    c = counterterm_C(grid)
    rng = np.random.default_rng(16)
    n = 3000
    means, sq = np.empty(n), np.empty(n)
    for i in range(n):
        phi = sample_stationary(grid, rng)
        w2 = hermite_variance(2, grid.coeffs_to_values(phi.coeffs), c)
        means[i] = w2.mean()
        sq[i] = (w2**2).mean()
    z_mean = means.mean() / (means.std(ddof=1) / np.sqrt(n))
    z_var = (sq.mean() - 2 * c**2) / (sq.std(ddof=1) / np.sqrt(n))
    assert abs(z_mean) < 3.0
    assert abs(z_var) < 3.0


def test_polynomial_spec_validation():
    with pytest.raises(ConfigurationError):
        PolynomialSpec(2, (0, 0, 0, 0, 0.0))   # leading coefficient must be positive
    with pytest.raises(ConfigurationError):
        PolynomialSpec(2, (0, 0, 0.5))          # wrong length
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            PolynomialSpec(2, (0, 0, 0, 0, bad))  # NaN would pass `a_4 <= 0`
        with pytest.raises(ConfigurationError):
            PolynomialSpec(2, (0, 0, bad, 0, 0.25))
    P = PolynomialSpec.quartic(0.25, a2=0.1)
    assert P.degree == 4 and P.a[4] == 0.25


@pytest.mark.parametrize("P", [
    PolynomialSpec.quartic(0.25, a2=0.4, a1=0.1),
    PolynomialSpec(3, (0.0, 0.05, 0.3, -0.1, 0.2, 0.0, 0.1)),
], ids=["quartic-a2-a1", "sextic"])
@pytest.mark.parametrize("c", [0.0, 0.37])
def test_wick_nonlinearity_values_equal_the_stacked_tower_sum_bitwise(P, c):
    x = 2.0 * np.random.default_rng(9).standard_normal((34, 34))
    tower = hermite_tower_values(x, c, P.degree)
    expected = np.zeros_like(x)
    for n in range(1, P.degree + 1):
        if P.a[n] != 0.0:
            expected += n * P.a[n] * tower[n - 1]
    assert np.array_equal(wick_nonlinearity_values(x, P, c), expected)


def written_out_orders(x, c, n):
    """He_0 .. He_n by the recurrence, written out as each evaluator once wrote it."""
    he = [np.ones_like(x), x.copy()]
    for m in range(1, n):
        he.append(x * he[m] - m * c * he[m - 1])
    return he[:n + 1]


# (K, max_degree) giving M = 18 and M = 130, fine enough for an exact degree-8 action
EVALUATOR_GRIDS = {18: (2, 7), 130: (16, 7)}


@pytest.mark.parametrize("M", sorted(EVALUATOR_GRIDS))
@pytest.mark.parametrize("c", [0.0, 0.3])
@pytest.mark.parametrize("n", range(9))
def test_hermite_evaluators_equal_the_written_out_recurrence_bitwise(n, c, M):
    grid = TorusGrid(*EVALUATOR_GRIDS[M])
    assert grid.M == M
    x = 1.5 * np.random.default_rng([n, M]).standard_normal((M, M))
    he = written_out_orders(x, c, n)
    single = hermite_variance(n, x, c)
    assert np.array_equal(single, he[n]) and not np.shares_memory(single, x)
    assert np.array_equal(hermite_tower_values(x, c, n + 1), np.stack(he))
    # a polynomial of even degree 2N >= n with a zero coefficient, as the evaluators skip those
    N = max(1, (n + 1) // 2)
    a = np.random.default_rng([n, 1]).uniform(-1.0, 1.0, 2 * N + 1)
    a[1], a[-1] = 0.0, 0.5
    P = PolynomialSpec(N, a)
    he = written_out_orders(x, c, P.degree)
    expected = np.zeros_like(x)
    for k in range(1, P.degree + 1):
        if P.a[k] != 0.0:
            expected += k * P.a[k] * he[k - 1]
    assert np.array_equal(wick_nonlinearity_values(x, P, c), expected)
    total = 0.0
    for k in range(P.degree + 1):
        if P.a[k] != 0.0:
            total += P.a[k] * float(np.sum(he[k]))
    assert wick_action(RealField(grid, x), P, c) == total * grid.cell_area


@pytest.mark.parametrize("M", sorted(EVALUATOR_GRIDS))
@pytest.mark.parametrize("c", [0.0, 0.3])
def test_field_observables_equal_the_written_out_recurrence_bitwise(c, M):
    grid = TorusGrid(*EVALUATOR_GRIDS[M])
    X = sample_stationary(grid, np.random.default_rng([M, 2]))
    he = written_out_orders(grid.coeffs_to_values(X.coeffs), c, 4)
    obs = field_observables(X, c)
    # wick2 by Parseval on the coefficients, wick4 over the samples
    assert obs["wick2"] == float(np.vdot(X.coeffs, X.coeffs).real) - grid.L**2 * c
    assert obs["wick2"] == pytest.approx(float(np.sum(he[2])) * grid.cell_area, rel=1e-12)
    assert obs["wick4"] == float(np.sum(he[4])) * grid.cell_area
