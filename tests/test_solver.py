import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickflow import (
    BlowUpError,
    ConfigurationError,
    NonContractionError,
    OUNoisePath,
    PolynomialSpec,
    SpectralField,
    TorusGrid,
    counterterm_C,
    field_tower,
    sample_stationary,
    substream,
)
from wickflow import solver as solver_module
from wickflow import wick as wick_module
from wickflow.grid import apply_semigroup
from wickflow.ou import build_tower, hermitian_normals, ou_step, step_constants
from wickflow.sampler import observables
from wickflow.solver import (
    SolverConfig,
    ensemble,
    nonlinear_term,
    solve,
    stationary_solve,
    step,
)
from wickflow.wick import recombine, wick_nonlinearity_values

from oracles import picard_solve, to_spectral


def zero_noise_path(grid, delta, n_steps):
    shape = (n_steps, 2 * grid.K + 1, grid.K + 1)
    return OUNoisePath(grid, delta, n_steps, innovations=np.zeros(shape, dtype=np.complex128))


def test_nonlinear_term_quartic_structure():
    # a4 = 1/4: F = :zbar^3: + 3 Y :zbar^2: + 3 Y^2 zbar + Y^3
    grid = TorusGrid(4, max_degree=4)
    rng = substream(0, 0, 1)
    zbar = sample_stationary(grid, rng)
    Y = sample_stationary(grid, rng)
    c = counterterm_C(grid)
    tower = field_tower(zbar, c, 4)
    P = PolynomialSpec.quartic(0.25)
    F = nonlinear_term(grid, Y.coeffs, grid.coeffs_to_values(zbar.coeffs), P, c)
    yv = grid.coeffs_to_values(Y.coeffs)
    oracle = (tower.order_values(3) + 3 * yv * tower.order_values(2)
              + 3 * yv**2 * tower.order_values(1) + yv**3)
    oracle_coeffs = grid.values_to_coeffs(oracle)
    assert np.max(np.abs(F - oracle_coeffs)) < 1e-12 * (1 + np.max(np.abs(oracle_coeffs)))


def test_nonlinear_term_constants():
    # Y = zbar = 1 with counterterm c: F = :2^3:_c = 8 - 6c for p = phi^3
    grid = TorusGrid(2, max_degree=4)
    c = 0.3
    one = to_spectral(grid, np.ones((grid.M, grid.M)))
    F = nonlinear_term(grid, one.coeffs, grid.coeffs_to_values(one.coeffs),
                       PolynomialSpec.quartic(0.25), c)
    assert F[0, 0].real == pytest.approx(2 * np.pi * (8 - 6 * c), rel=1e-12)


def test_nonlinear_term_linear_case():
    grid = TorusGrid(3, max_degree=4)
    Y = sample_stationary(grid, substream(1, 0, 1))
    F = nonlinear_term(grid, Y.coeffs, np.zeros((grid.M, grid.M)), PolynomialSpec.quadratic(0.8),
                       0.0)
    assert np.max(np.abs(F - 2 * 0.8 * Y.coeffs)) < 1e-12


def test_nonlinear_term_collapses_to_wick_polynomial():
    # F(Y, tower(zbar)) = :p(Y + zbar): - the recombination collapse
    grid = TorusGrid(5, max_degree=4)
    rng = substream(2, 0, 1)
    zbar, Y = sample_stationary(grid, rng), sample_stationary(grid, rng)
    c = counterterm_C(grid)
    P = PolynomialSpec.quartic(0.25, a2=0.3)
    F = nonlinear_term(grid, Y.coeffs, grid.coeffs_to_values(zbar.coeffs), P, c)
    x = grid.coeffs_to_values((Y + zbar).coeffs)
    direct = SpectralField(grid, grid.values_to_coeffs(wick_nonlinearity_values(x, P, c)))
    assert np.max(np.abs(F - direct.coeffs)) < 1e-11 * (1 + np.max(np.abs(direct.coeffs)))


@settings(max_examples=60, deadline=None)
@given(K=st.integers(0, 8), N=st.sampled_from([1, 2, 3]),
       c=st.floats(0.0, 2.0), extra=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_nonlinear_term_is_the_recombination_of_every_tower_order(K, N, c, extra, seed):
    # F = sum_k k a_k :(Y + zbar)^{k-1}:, each power recombined from the tower of zbar
    grid = TorusGrid(K, max_degree=2 * N + extra)
    rng = np.random.default_rng(seed)
    zbar, Y = sample_stationary(grid, rng), sample_stationary(grid, rng)
    a = list(rng.uniform(-1.0, 1.0, 2 * N + 1))
    a[2 * N] = abs(a[2 * N]) + 0.1
    P = PolynomialSpec(N, a)
    tower = field_tower(zbar, c, 2 * N + extra)
    F = nonlinear_term(grid, Y.coeffs, grid.coeffs_to_values(zbar.coeffs), P, c)
    oracle = SpectralField.zero(grid)
    for k in range(1, 2 * N + 1):
        oracle = oracle + recombine(Y, tower, k - 1) * (k * P.a[k])
    assert np.max(np.abs(F - oracle.coeffs)) <= 1e-12 * (1 + np.max(np.abs(oracle.coeffs)))


def tower_route_final_state(z0, path, cfg, P):
    """(Y(T), X(T)) by the paper's route: build_tower each step, then the binomial
    fold sum_k k a_k sum_l C(k-1, l) Y^l :zbar^{k-1-l}: of the shifted equation."""
    grid = z0.grid
    decay, _, weight = step_constants(grid, cfg.delta, cfg.drift_scale)
    Y, Z = SpectralField.zero(grid), SpectralField.zero(grid)
    for n in range(cfg.n_steps):
        tower = build_tower(Z, z0, n * cfg.delta, P.degree)
        yv = grid.coeffs_to_values(Y.coeffs)
        F = np.zeros_like(yv)
        for k in range(1, P.degree + 1):
            for l in range(k):
                F += k * P.a[k] * math.comb(k - 1, l) * yv**l * tower.order_values(k - 1 - l)
        Y = SpectralField(grid, decay * Y.coeffs - weight * grid.values_to_coeffs(F))
        Z = SpectralField(grid, decay * Z.coeffs + path.innovations[n])
    return Y, Y + Z + apply_semigroup(z0, cfg.T)


@pytest.mark.parametrize("P", [
    PolynomialSpec.quartic(0.25, a2=0.4, a1=0.1),
    PolynomialSpec(3, (0.0, 0.05, 0.3, -0.1, 0.2, 0.0, 0.1)),
], ids=["quartic-a2", "sextic"])
def test_solve_matches_the_tower_route_step_by_step(P):
    grid = TorusGrid(4, max_degree=P.degree)
    cfg = SolverConfig(delta=1e-3, T=0.04, record_every=7)
    path = OUNoisePath(grid, cfg.delta, cfg.n_steps, substream(21, 0, 1))
    z0 = sample_stationary(grid, substream(21, 0, 0))
    traj = solve(None, z0, path, cfg, P)
    for got, expected in zip((traj.Y[-1], traj.X[-1]), tower_route_final_state(z0, path, cfg, P)):
        scale = np.max(np.abs(expected.coeffs))
        assert np.max(np.abs(got.coeffs - expected.coeffs)) <= 1e-12 * scale


@pytest.mark.parametrize("K, M, compute_M", [(4, 22, 18), (10, 52, 42)])
def test_a_seed_its_stream_and_its_frozen_path_give_bitwise_equal_records(K, M, compute_M):
    grid = TorusGrid(K, max_degree=4)
    assert (grid.M, grid.compute_grid(4).M) == (M, compute_M)
    P = PolynomialSpec.quartic(0.25, a2=0.2)
    cfg = SolverConfig(delta=1e-3, T=0.06, record_every=25)  # a noise block is 50 or 9 steps
    z0 = sample_stationary(grid, substream(19, 0, 0))
    path = OUNoisePath(grid, cfg.delta, cfg.n_steps, substream(19, 0, 1))
    first, *others = (solve(None, z0, noise, cfg, P) for noise in (19, substream(19, 0, 1), path))
    for other in others:
        assert np.array_equal(other.times, first.times) and len(first.times) == 4
        for a, b in zip(first.Y + first.X + first.zbar, other.Y + other.X + other.zbar):
            assert np.array_equal(a.coeffs, b.coeffs)
        assert other.observables.keys() == first.observables.keys()
        for name, values in first.observables.items():
            assert np.array_equal(other.observables[name], values), name


def test_step_pure_semigroup_when_free():
    grid = TorusGrid(2)
    Y = sample_stationary(grid, substream(4, 0, 1))
    decay, _, weight = step_constants(grid, 0.05)
    out = step(grid, Y.coeffs, np.zeros((grid.M, grid.M)), decay, weight, None, 0.0)
    expected = Y.coeffs * np.exp(-grid.lam * 0.05)[:, :grid.K + 1]
    assert np.max(np.abs(out - expected)) < 1e-14


def test_step_constants_are_cached_and_bitwise_equal_to_inline_formulas():
    grid = TorusGrid(4, max_degree=4)
    delta = 2e-3
    decay = np.exp(-grid.lam * delta)
    sigma = np.sqrt((1.0 - decay**2) / (2.0 * grid.lam))
    x = grid.lam * delta
    phi1 = (1.0 - np.exp(-x)) / x
    P = PolynomialSpec.quartic(0.25, a2=0.1)
    Y = sample_stationary(grid, substream(1, 0, 0))
    z = sample_stationary(grid, substream(1, 0, 1))
    zv = grid.coeffs_to_values(z.coeffs)
    h = grid.K + 1
    y = Y.coeffs
    consts = step_constants(grid, delta, 0.3)
    for got, full in zip(consts, (decay, sigma, delta * 0.3 * phi1)):
        assert np.array_equal(got, full[:, :h])
    expected = decay[:, :h] * y - delta * 0.3 * phi1[:, :h] * nonlinear_term(grid, y, zv, P, 0.0)
    assert np.array_equal(step(grid, y, zv, consts.decay, consts.weight, P, 0.0), expected)
    moved = ou_step(z, delta, substream(2, 0, 1)).coeffs
    xi = hermitian_normals(grid, substream(2, 0, 1))
    assert np.array_equal(moved, decay[:, :h] * z.coeffs + sigma[:, :h] * xi)
    path = OUNoisePath(grid, delta, 2, rng=substream(3, 0, 1))
    rng = substream(3, 0, 1)
    innovations = [sigma[:, :h] * hermitian_normals(grid, rng) for _ in range(2)]
    assert np.array_equal(path.innovations, innovations)
    assert consts is step_constants(TorusGrid(4, max_degree=4), delta, 0.3)
    assert not any(a.flags.writeable for a in consts)


def test_step_linear_closed_form_and_order():
    # a2 only, zbar = 0, single mode: Y(t) = y e^{-(lambda + 2 a2) t}
    grid = TorusGrid(2)
    P = PolynomialSpec.quadratic(0.5)
    zeros = np.zeros((grid.M, grid.M))
    y0 = SpectralField.zero(grid)
    y0.set_mode(0, 0, 1.0)  # lambda_0 = 1, rate 1 + 2*0.5 = 2
    errors = []
    for delta in (0.01, 0.005, 0.0025):
        cfg = SolverConfig(delta=delta, T=1.0)
        decay, _, weight = step_constants(grid, cfg.delta)
        Y = y0.coeffs
        for _ in range(cfg.n_steps):
            Y = step(grid, Y, zeros, decay, weight, P, 0.0)
        errors.append(abs(Y[0, 0].real - np.exp(-2.0)))
    assert abs(Y[0, 0].real - 0.1353352832366127) < 1e-3
    for e1, e2 in zip(errors, errors[1:]):
        assert 1.7 <= e1 / e2 <= 2.3  # first order


def test_solve_quartic_runs_and_bounded():
    grid = TorusGrid(8, max_degree=4)
    cfg = SolverConfig(delta=1e-3, T=0.25, record_every=50)
    traj = solve(None, None, 42, cfg, PolynomialSpec.quartic(0.25), grid=grid)
    sup = traj.observables["sup_Y"]
    assert np.all(np.isfinite(sup))
    assert sup[-1] < 1e2  # a-priori boundedness, qualitative


def test_solve_zero_noise_zero_init():
    grid = TorusGrid(3, max_degree=4)
    cfg = SolverConfig(delta=0.01, T=0.1, record_every=5)
    path = zero_noise_path(grid, 0.01, 10)
    traj = solve(None, None, path, cfg, PolynomialSpec.quartic(0.25), grid=grid)
    # Wick constants of the zero field force no motion only in odd orders;
    # the quartic drift at the zero state is :p(0): = 0 since p is odd here
    assert max(float(np.max(np.abs(X.coeffs))) for X in traj.X) < 1e-12


def test_solve_deterministic_given_seed():
    grid = TorusGrid(4, max_degree=4)
    cfg = SolverConfig(delta=2e-3, T=0.05, record_every=5)
    P = PolynomialSpec.quartic(0.25)
    t1 = solve(None, None, 9, cfg, P, grid=grid)
    t2 = solve(None, None, 9, cfg, P, grid=grid)
    for a, b in zip(t1.X, t2.X):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_reconstruction_identity():
    grid = TorusGrid(4, max_degree=4)
    cfg = SolverConfig(delta=1e-3, T=0.05, record_every=10)
    z0 = sample_stationary(grid, substream(5, 0, 0))
    traj = solve(None, z0, substream(5, 0, 1), cfg, PolynomialSpec.quartic(0.25))
    assert traj.reconstruction_defect < 1e-12
    for t, X, Y, zb in zip(traj.times, traj.X, traj.Y, traj.zbar):
        assert np.max(np.abs(X.coeffs - Y.coeffs - zb.coeffs)) < 1e-12


def test_recorded_observables_equal_sampler_observables_bitwise():
    grid = TorusGrid(4, max_degree=4)
    P = PolynomialSpec.quartic(0.25)
    cfg = SolverConfig(delta=1e-3, T=0.02, record_every=5)
    z0 = sample_stationary(grid, substream(8, 0, 0))
    traj = solve(None, z0, substream(8, 0, 1), cfg, P)
    assert len(traj.X) == 5
    for i, X in enumerate(traj.X):
        obs = observables(X, P, counterterm_C(grid))
        assert set(traj.observables) == set(obs) - {"besov"} | {"sup_Y"}
        for name in set(obs) - {"besov"}:
            assert traj.observables[name][i] == obs[name], name


def test_scheme_self_convergence_on_fixed_path():
    grid = TorusGrid(8, max_degree=4)
    P = PolynomialSpec.quartic(0.25)
    fine = 2.5e-4
    T = 0.1
    path = OUNoisePath(grid, fine, round(T / fine), substream(6, 0, 1))
    finals = {}
    for delta in (2e-3, 1e-3, 5e-4):
        cfg = SolverConfig(delta=delta, T=T)
        traj = solve(None, None, path.coarsen(round(delta / fine)), cfg, P, grid=grid)
        finals[delta] = grid.full_window(traj.X[-1].coeffs)
    d1 = np.sqrt(np.sum(np.abs(finals[2e-3] - finals[1e-3]) ** 2))
    d2 = np.sqrt(np.sum(np.abs(finals[1e-3] - finals[5e-4]) ** 2))
    assert 1.7 <= d1 / d2 <= 2.3


def test_alternative_splitting_coupled_and_relation():
    grid = TorusGrid(6, max_degree=4)
    P = PolynomialSpec.quartic(0.25)
    T, delta = 0.1, 1e-3
    path = OUNoisePath(grid, delta, round(T / delta), substream(7, 0, 1))
    z0 = sample_stationary(grid, substream(7, 0, 0))
    z1 = sample_stationary(grid, substream(7, 0, 2))
    cfg = SolverConfig(delta=delta, T=T)
    ta = solve(None, z0, path, cfg, P)
    tb = solve(z0 - z1, z1, path, cfg, P)  # the stationary-reference splitting
    # same mild equation, same path: reconstructions agree to roundoff
    assert np.max(np.abs(ta.X[-1].coeffs - tb.X[-1].coeffs)) < 1e-11
    rel = ta.Y[-1] - (tb.Y[-1] + apply_semigroup(z1, T) - apply_semigroup(z0, T))
    assert np.max(np.abs(rel.coeffs)) < 1e-11


def test_alternative_splitting_degenerate_init():
    # Z1(0) = z forces Y1(0) = 0: the two splittings coincide pathwise
    grid = TorusGrid(4, max_degree=4)
    P = PolynomialSpec.quartic(0.25)
    T, delta = 0.05, 1e-3
    path = OUNoisePath(grid, delta, round(T / delta), substream(8, 0, 1))
    z0 = sample_stationary(grid, substream(8, 0, 0))
    cfg = SolverConfig(delta=delta, T=T, record_every=10)
    ta = solve(None, z0, path, cfg, P)
    tb = solve(z0 - z0, z0.copy(), path, cfg, P)
    for a, b in zip(ta.Y, tb.Y):
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12


def test_picard_linear_convergence():
    grid = TorusGrid(2)
    P = PolynomialSpec.quadratic(0.5)
    delta, T = 0.005, 0.1
    n = round(T / delta)
    zbar_values = [np.zeros((grid.M, grid.M))] * (n + 1)
    y0 = sample_stationary(grid, substream(9, 0, 0))
    path, residuals = picard_solve(y0, zbar_values, 0.0, delta, P)
    assert len(residuals) <= 30
    assert residuals[-1] < 1e-8
    # fixed point coincides with the step integrator
    decay, _, weight = step_constants(grid, delta)
    Y = y0.coeffs
    for _ in range(n):
        Y = step(grid, Y, zbar_values[0], decay, weight, P, 0.0)
    assert np.max(np.abs(path[-1].coeffs - Y)) < 1e-10


def test_picard_zero_data():
    grid = TorusGrid(2)
    P = PolynomialSpec.quartic(0.25)
    zbar_values = [np.zeros((grid.M, grid.M))] * 5
    path, residuals = picard_solve(SpectralField.zero(grid), zbar_values, 0.0, 0.01, P)
    assert len(residuals) == 1
    assert all(float(np.max(np.abs(u.coeffs))) == 0.0 for u in path)


def test_picard_non_contraction_raises():
    grid = TorusGrid(2, max_degree=4)
    P = PolynomialSpec.quartic(5.0)
    rng = substream(10, 0, 1)
    big = 40.0 * sample_stationary(grid, rng)
    n = 40
    zbar_values = [grid.coeffs_to_values(big.coeffs)] * (n + 1)
    with pytest.raises(NonContractionError):
        picard_solve(40.0 * sample_stationary(grid, rng), zbar_values, 0.1, 0.05, P, max_iter=60)


def test_stationary_solve_deterministic_coupling():
    grid = TorusGrid(4, max_degree=4)
    P = PolynomialSpec.quartic(0.25)
    eta = sample_stationary(grid, substream(11, 0, 0))
    cfg = SolverConfig(delta=1e-3, T=0.02, record_every=10)
    a = stationary_solve(eta, 33, cfg, P)
    b = stationary_solve(eta.copy(), 33, cfg, P)
    assert np.array_equal(a.X[-1].coeffs, b.X[-1].coeffs)


def test_a_stationary_solve_records_its_fields_at_the_schedule_and_no_observables(monkeypatch):
    grid = TorusGrid(4, max_degree=4)
    P = PolynomialSpec.quartic(0.25)
    eta = sample_stationary(grid, substream(23, 0, 0))
    cfg = SolverConfig(delta=1e-3, T=0.02, record_every=5)
    # the same run with observing records, as `solve` records
    observing = solver_module._run(grid, replace(cfg, drift_scale=0.5), P, eta, None, 23)
    assert len(observing.observables["sup_Y"]) == 5
    monkeypatch.setattr(solver_module, "field_observables",
                        lambda *args: pytest.fail("a stationary solve observed a record"))
    real = TorusGrid.coeffs_to_values
    inverses = []
    monkeypatch.setattr(TorusGrid, "coeffs_to_values",
                        lambda self, coeffs, band=None: inverses.append(None) or real(self, coeffs, band))
    traj = stationary_solve(eta, 23, cfg, P)
    assert traj.observables == {}
    # one per nonlinear term and one per zbar: none for the records
    assert len(inverses) == 2 * cfg.n_steps + 1
    assert np.array_equal(traj.times, observing.times) and len(traj.times) == 5
    for got, expected in zip(traj.Y + traj.X + traj.zbar, observing.Y + observing.X + observing.zbar):
        assert np.array_equal(got.coeffs, expected.coeffs)
    assert len(traj.X) == 5 and traj.reconstruction_defect == observing.reconstruction_defect


def test_stationary_solve_gaussian_conjugacy_small():
    # quadratic-only interaction: mode variance 1/(2(lambda_k + a2))
    grid = TorusGrid(2, max_degree=2)
    a2 = 0.5
    P = PolynomialSpec.quadratic(a2)
    cfg = SolverConfig(delta=0.01, T=4.0)
    n = 300
    run = functools.partial(stationary_solve, cfg=cfg, P=P)
    vals = np.array([abs(traj.X[-1].get_mode(0, 0)) ** 2
                     for traj in ensemble(run, [SpectralField.zero(grid)] * n, 12)])
    target = 1.0 / (2 * (1 + a2))
    z = (vals.mean() - target) / (vals.std(ddof=1) / np.sqrt(n))
    assert abs(z) < 3.0


def test_blow_up_detected():
    grid = TorusGrid(2, max_degree=4)
    P = PolynomialSpec.quartic(0.25)
    huge = to_spectral(grid, np.full((grid.M, grid.M), 1e5))
    cfg = SolverConfig(delta=0.5, T=1.0)
    with pytest.raises(BlowUpError):
        solve(huge, None, 13, cfg, P)


def test_blow_up_reports_the_time_and_state_of_the_failing_step(monkeypatch):
    grid = TorusGrid(3, max_degree=4)
    P = PolynomialSpec.quartic(0.25)
    cfg = SolverConfig(delta=1e-3, T=0.01)
    z0 = sample_stationary(grid, substream(14, 0, 0))
    before = solve(None, z0, substream(14, 0, 1), replace(cfg, T=0.003), P)
    real_step = solver_module.step
    calls = []

    def fails_at_the_fourth(*args):
        calls.append(None)
        out = real_step(*args)
        return out * np.nan if len(calls) == 4 else out

    monkeypatch.setattr(solver_module, "step", fails_at_the_fourth)
    with pytest.raises(BlowUpError) as err:
        solve(None, z0, substream(14, 0, 1), cfg, P)
    assert err.value.t == pytest.approx(3e-3)
    assert err.value.last_state.grid is grid
    assert np.array_equal(err.value.last_state.coeffs, before.Y[-1].coeffs)


def test_no_solve_builds_a_wick_tower(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the solver built a Wick tower")

    monkeypatch.setattr(wick_module, "hermite_tower_values", forbidden)
    monkeypatch.setattr(wick_module, "field_tower", forbidden)
    grid = TorusGrid(3, max_degree=4)
    P = PolynomialSpec.quartic(0.25, a2=0.2)
    cfg = SolverConfig(delta=1e-3, T=0.005, record_every=2)
    z0 = sample_stationary(grid, substream(15, 0, 0))
    z1 = sample_stationary(grid, substream(15, 0, 2))
    runs = [
        solve(None, z0, 15, cfg, P),
        stationary_solve(z0, 15, cfg, P),
        solve(z0 - z1, z1, 15, cfg, P),
    ]
    for traj in runs:
        assert len(traj.X) == 4 and np.all(np.isfinite(traj.X[-1].coeffs))


def test_solve_steps_on_the_compute_grid_and_reports_on_the_callers(monkeypatch):
    grid = TorusGrid(4, max_degree=8)  # M = 38; the quartic step is exact on M = 18
    small = TorusGrid(4, max_degree=3)
    assert grid.compute_grid(4) == small and small.M < grid.M
    P = PolynomialSpec.quartic(0.25, a2=0.4, a1=0.1)
    cfg = SolverConfig(delta=1e-3, T=0.02, record_every=5)
    z0 = sample_stationary(grid, substream(17, 0, 0))
    seen = []
    real_term = solver_module.nonlinear_term
    monkeypatch.setattr(solver_module, "nonlinear_term",
                        lambda g, Y, zv, P, c: seen.append(g.M) or real_term(g, Y, zv, P, c))
    traj = solve(None, z0, substream(17, 0, 1), cfg, P)
    assert seen == [small.M] * cfg.n_steps
    monkeypatch.undo()
    assert traj.grid is grid
    assert all(f.grid is grid for f in traj.Y + traj.X + traj.zbar)
    for Y, sup in zip(traj.Y, traj.observables["sup_Y"]):
        assert sup == np.max(np.abs(grid.coeffs_to_values(Y.coeffs)))
    on_small = solve(None, SpectralField(small, z0.coeffs), substream(17, 0, 1), cfg, P)
    monkeypatch.setattr(TorusGrid, "compute_grid", lambda self, degree: self)
    on_grid = solve(None, z0, substream(17, 0, 1), cfg, P)  # every step on M = 38
    for other in (on_small, on_grid):
        for got, expected in zip(traj.X + traj.Y, other.X + other.Y):
            scale = np.max(np.abs(expected.coeffs))
            assert np.max(np.abs(got.coeffs - expected.coeffs)) <= 1e-12 * scale


def test_solve_on_a_grid_too_small_for_the_step_still_raises():
    grid = TorusGrid(8, max_degree=2)  # M = 34; the sextic step needs M >= 49
    P = PolynomialSpec(3, (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1))
    assert grid.compute_grid(P.degree) is grid
    with pytest.raises(ConfigurationError):
        solve(None, None, 3, SolverConfig(delta=1e-3, T=0.002), P, grid=grid)


def test_blow_up_state_lives_on_the_callers_grid():
    grid = TorusGrid(2, max_degree=8)
    assert grid.compute_grid(4).M < grid.M
    huge = to_spectral(grid, np.full((grid.M, grid.M), 1e5))
    with pytest.raises(BlowUpError) as err:
        solve(huge, None, 13, SolverConfig(delta=0.5, T=1.0), PolynomialSpec.quartic(0.25))
    assert err.value.last_state.grid is grid


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(delta=0.2, T=0.1)
    with pytest.raises(ConfigurationError):
        SolverConfig(delta=0.1, T=1.0, record_every=0)
    with pytest.raises(ConfigurationError):
        SolverConfig(delta=0.3, T=1.0).n_steps  # not an integer multiple
