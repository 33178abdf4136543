import dataclasses
import math

import numpy as np
import pytest
from scipy import stats as scistats

from wickflow import (
    ConfigurationError,
    DomainError,
    PolynomialSpec,
    RealField,
    SpectralField,
    TorusGrid,
    counterterm_C,
    sample_stationary,
    substream,
    wick_action,
)
from wickflow import sampler as sampler_module
from wickflow.sampler import (
    ChainState,
    ChainResult,
    gibbs_samples,
    integrated_autocorrelation,
    observables,
    pcn_step,
    run_chain,
)
from wickflow.solver import field_observables
from wickflow.wick import hermite_variance
from oracles import to_spectral


def make_chain(grid, P, c, seed):
    rng = substream(seed, 0, 0)
    return ChainState.initial(sample_stationary(grid, rng), P, c, rng)


def test_free_case_always_accepts_and_targets_mu():
    grid = TorusGrid(3)
    c = counterterm_C(grid)
    state = make_chain(grid, None, c, 0)
    n = 4000
    stats = np.empty(n)
    for i in range(n):
        state, acc = pcn_step(state, 0.7, None, c)
        assert acc
        stats[i] = np.sum(np.abs(state.phi.coeffs) ** 2) / (2 * np.pi) ** 2
    # spatial variance statistic has expectation counterterm_C under mu;
    # account for chain autocorrelation in the standard error
    tau = integrated_autocorrelation(stats)
    z = (stats.mean() - c) / (stats.std(ddof=1) / np.sqrt(n / tau))
    assert abs(z) < 3.0


def test_quadratic_equilibrium_mode_variance():
    # a2 = 0.5: stationary variance of the zero mode is 1/3
    grid = TorusGrid(2, max_degree=2)
    P = PolynomialSpec.quadratic(0.5)
    c = counterterm_C(grid)
    state = make_chain(grid, P, c, 1)
    n, burn = 40000, 2000
    vals = []
    for i in range(n):
        state, _ = pcn_step(state, 0.6, P, c)
        if i >= burn:
            vals.append(abs(state.phi.get_mode(0, 0)) ** 2)
    vals = np.asarray(vals)
    tau = integrated_autocorrelation(vals)
    z = (vals.mean() - 1.0 / 3.0) / (vals.std(ddof=1) / np.sqrt(len(vals) / tau))
    assert abs(z) < 3.0


def test_detailed_balance_single_mode():
    # K = 0 quartic: empirical transition pair counts are symmetric
    grid = TorusGrid(0, max_degree=4)
    P = PolynomialSpec.quartic(1.0)
    c = counterterm_C(grid)
    state = make_chain(grid, P, c, 2)
    n, burn = 60000, 2000
    xs = np.empty(n)
    for i in range(n):
        state, _ = pcn_step(state, 0.8, P, c)
        xs[i] = state.phi.get_mode(0, 0).real
    xs = xs[burn:]
    edges = np.quantile(xs, np.linspace(0, 1, 6))
    edges[0], edges[-1] = -np.inf, np.inf
    bins = np.digitize(xs, edges) - 1
    counts = np.zeros((5, 5))
    for a, b in zip(bins[:-1], bins[1:]):
        counts[a, b] += 1
    for i in range(5):
        for j in range(i + 1, 5):
            nab, nba = counts[i, j], counts[j, i]
            if nab + nba >= 25:
                z = (nab - nba) / np.sqrt(nab + nba)
                assert abs(z) < 4.0, (i, j, nab, nba)


def test_acceptance_invariant_under_action_offset():
    # the constant coefficient a_0 adds a_0 |T^2| = 1e6 to V; only differences of V enter
    grid = TorusGrid(2, max_degree=4)
    P = PolynomialSpec.quartic(0.25)
    shifted = PolynomialSpec(2, (1e6 / (2 * np.pi) ** 2,) + P.a[1:])
    c = counterterm_C(grid)
    r1 = run_chain(make_chain(grid, P, c, 3), 400, 0, 1, 0.4, P, c)
    r2 = run_chain(make_chain(grid, shifted, c, 3), 400, 0, 1, 0.4, shifted, c)
    assert np.array_equal(r1.accept_history, r2.accept_history)


def test_free_case_iat_matches_ar1():
    # pCN on a Gaussian target is exactly AR(1) with coefficient sqrt(1-rho^2)
    grid = TorusGrid(1)
    c = counterterm_C(grid)
    rho = 0.5
    state = make_chain(grid, None, c, 4)
    n = 60000
    series = np.empty(n)
    for i in range(n):
        state, _ = pcn_step(state, rho, None, c)
        series[i] = state.phi.get_mode(0, 0).real
    gamma = np.sqrt(1 - rho**2)
    expected = (1 + gamma) / (1 - gamma)
    est = integrated_autocorrelation(series)
    assert est == pytest.approx(expected, rel=0.25)


def test_run_chain_bookkeeping():
    grid = TorusGrid(1)
    c = counterterm_C(grid)
    res = run_chain(make_chain(grid, None, c, 5), 30, 0, 1, 0.5, None, c)
    assert len(res.samples) == 30
    assert res.acceptance_rate == 1.0
    res2 = run_chain(make_chain(grid, None, c, 5), 100, 40, 20, 0.5, None, c)
    assert len(res2.samples) == 3
    with pytest.raises(ConfigurationError):
        run_chain(make_chain(grid, None, c, 5), 10, 10, 1, 0.5, None, c)
    with pytest.raises(DomainError):
        pcn_step(make_chain(grid, None, c, 5), 1.5, None, c)


def test_run_chain_wick2_by_parseval_matches_grid_sum_and_leaves_chain_unchanged():
    grid = TorusGrid(4, max_degree=4)
    P = PolynomialSpec.quartic(0.25)
    c = counterterm_C(grid)
    n_steps, burn_in, thinning, rho = 120, 20, 10, 0.9
    res = run_chain(make_chain(grid, P, c, 11), n_steps, burn_in, thinning, rho, P, c)
    # reference: the same chain stepped by hand, wick2 as a grid sum
    state = make_chain(grid, P, c, 11)
    accepts, samples, wick2 = [], [], []
    for i in range(n_steps):
        state, acc = pcn_step(state, rho, P, c)
        accepts.append(acc)
        if i >= burn_in:
            xv = grid.coeffs_to_values(state.phi.coeffs)
            wick2.append(float(np.sum(xv * xv)) * grid.cell_area - grid.L**2 * c)
            if (i - burn_in) % thinning == 0:
                samples.append(state.phi.coeffs)
    assert 0 < sum(accepts) < n_steps  # both branches ran
    assert np.array_equal(res.accept_history, accepts)
    assert len(res.samples) == len(samples)
    assert all(np.array_equal(s.coeffs, ref) for s, ref in zip(res.samples, samples))
    np.testing.assert_allclose(res.observables["wick2"], wick2, rtol=1e-12, atol=0.0)


def test_run_chain_wick2_of_thinned_states_equals_field_observables_bitwise():
    # one route for the integral of :phi^2:, wick.wick2_integral, in the chain and the solver
    grid = TorusGrid(10)
    P = PolynomialSpec.quartic(0.25)
    c = counterterm_C(grid)
    burn_in, thinning = 30, 7
    res = run_chain(make_chain(grid, P, c, 12), 150, burn_in, thinning, 0.6, P, c)
    thinned = res.observables["wick2"][::thinning]
    assert len(thinned) == len(res.samples) == 18
    assert 0.0 < res.acceptance_rate < 1.0
    for value, sample in zip(thinned, res.samples):
        assert value == field_observables(sample, c)["wick2"]


def test_low_acceptance_warning():
    grid = TorusGrid(2, max_degree=4)
    P = PolynomialSpec.quartic(200.0)
    c = counterterm_C(grid)
    with pytest.warns(UserWarning, match="acceptance"):
        run_chain(make_chain(grid, P, c, 6), 600, 0, 1, 1.0, P, c)


def test_action_cache_consistency():
    grid = TorusGrid(2, max_degree=4)
    P = PolynomialSpec.quartic(0.25, a2=0.1)
    c = counterterm_C(grid)
    state = make_chain(grid, P, c, 7)
    for _ in range(50):
        state, _ = pcn_step(state, 0.5, P, c)
    assert state.action == pytest.approx(wick_action(state.phi, P, c), abs=1e-10)


def test_non_finite_proposal_action_raises():
    grid = TorusGrid(2, max_degree=4)
    P = PolynomialSpec.quartic(0.25)
    c = counterterm_C(grid)
    state = make_chain(grid, P, c, 7)
    assert isinstance(state.values, np.ndarray)
    for bad in (np.nan, np.inf, 1e300):  # the last overflows in the quartic
        values = state.values.copy()
        values[1, 2] = bad
        with pytest.raises(ConfigurationError, match="not finite"), np.errstate(all="ignore"):
            pcn_step(dataclasses.replace(state, values=values), 0.5, P, c)


def test_chain_on_the_compute_grid_accepts_as_on_the_observation_grid(monkeypatch):
    grid = TorusGrid(10, max_degree=4)  # M = 52; the quartic action is exact on M = 42
    assert grid.compute_grid(4).M == 42
    P = PolynomialSpec.quartic(0.25, a2=0.3)
    c = counterterm_C(grid)
    seen = set()
    monkeypatch.setattr(sampler_module, "wick_action",
                        lambda u, P, c: seen.add(u.grid.M) or wick_action(u, P, c))
    res = run_chain(make_chain(grid, P, c, 12), 500, 100, 50, 0.3, P, c)
    assert seen == {42}
    monkeypatch.setattr(TorusGrid, "compute_grid", lambda self, degree: self)
    ref = run_chain(make_chain(grid, P, c, 12), 500, 100, 50, 0.3, P, c)
    assert 0.05 < res.acceptance_rate < 0.95
    assert np.array_equal(res.accept_history, ref.accept_history)
    assert all(s.grid is grid and np.array_equal(s.coeffs, r.coeffs)
               for s, r in zip(res.samples, ref.samples))


def oracle_chain(grid, P, c, seed, rhos):
    """The chain drawn per proposal, each action from a fresh transform of
    phi', with the size of its terms: the action expanded in monomials
    a_n c^k phi'^(n-2k), each taken in modulus, which is
    sum_n |a_n| integral He_n(|phi'|; -c) and bounds the rounding of V."""
    rng = substream(seed, 0, 0)
    phi = sample_stationary(grid, rng)

    def action(u):
        if P is None:
            return 0.0, 0.0
        cgrid = grid.compute_grid(P.degree)
        values = cgrid.coeffs_to_values(u.coeffs)
        size = sum(abs(a) * hermite_variance(n, np.abs(values), -c).sum()
                   for n, a in enumerate(P.a))
        return wick_action(SpectralField(cgrid, u.coeffs), P, c), size * cgrid.cell_area

    v = action(phi)
    history, actions, samples = [], [], []
    for rho in rhos:
        xi = sample_stationary(grid, rng)
        prop = SpectralField(grid, math.sqrt(1.0 - rho * rho) * phi.coeffs + rho * xi.coeffs)
        v_new = action(prop)
        accept = math.log(rng.uniform()) < (v[0] - v_new[0])
        if accept:
            phi, v = prop, v_new
        history.append(accept)
        actions.append(v)
        samples.append(phi.coeffs)
    return history, actions, samples


# A K = 0 block holds 4096 proposals, so the K = 0 chains cross three blocks.
# The action is checked against the size of its terms, not its value: a
# quartic chain meets values near 0 by cancellation (V = 5.1e-6 at step 2490
# of quartic-K0, off by 7.5e-18).
@pytest.mark.parametrize("K, P, seed, rhos", [
    (4, PolynomialSpec.quadratic(0.5), 3, [0.5] * 300),
    (4, PolynomialSpec.quadratic(0.5), 7, [0.5] * 300),
    (4, PolynomialSpec.quadratic(0.5), 910, [0.5] * 300),
    (10, PolynomialSpec.quartic(0.25, a2=0.3), 12, [0.3] * 200),
    (0, PolynomialSpec.quartic(1.0), 2, [0.8] * 12300),
    (0, None, 2, [0.8] * 12300),
    (3, None, 4, [0.7] * 250),
    (4, PolynomialSpec.quartic(0.25), 5, [0.2, 0.9, 0.5, 1.0, 0.05] * 60),
], ids=["quadratic-K4-seed3", "quadratic-K4-seed7", "quadratic-K4-seed910", "quartic-K10",
        "quartic-K0", "free-K0", "free", "changing-rho"])
def test_block_drawn_chain_equals_the_per_proposal_chain(K, P, seed, rhos):
    grid = TorusGrid(K, max_degree=2 if P is None else P.degree)
    c = counterterm_C(grid)
    history, actions, samples = oracle_chain(grid, P, c, seed, rhos)
    state = make_chain(grid, P, c, seed)
    for i, rho in enumerate(rhos):
        state, accept = pcn_step(state, rho, P, c)
        assert accept == history[i], i
        assert np.array_equal(state.phi.coeffs, samples[i]), i
        value, size = actions[i]
        assert abs(state.action - value) <= 1e-12 * size, i
    assert len(rhos) > 3 * state.proposals.size
    if P is not None:
        assert 0 < sum(history) < len(rhos)  # both branches ran


@pytest.mark.parametrize("P, blocks", [(PolynomialSpec.quartic(0.25), 2), (None, 0)])
def test_steps_transform_one_block_at_a_time(monkeypatch, P, blocks):
    grid = TorusGrid(4, max_degree=4)
    c = counterterm_C(grid)
    state = make_chain(grid, P, c, 3)
    calls = []
    original = TorusGrid.coeffs_to_values
    monkeypatch.setattr(TorusGrid, "coeffs_to_values",
                        lambda self, coeffs: calls.append(coeffs.shape) or original(self, coeffs))
    size = state.proposals.size
    for _ in range(size + 1):
        state, _ = pcn_step(state, 0.5, P, c)
    assert len(calls) == blocks
    assert all(shape[0] == size for shape in calls)


def test_chain_rng_ends_at_the_end_of_its_last_block():
    grid = TorusGrid(2)
    c = counterterm_C(grid)
    state = make_chain(grid, None, c, 5)
    size = state.proposals.size
    for _ in range(size + 3):
        state, _ = pcn_step(state, 0.5, None, c)
    ref = substream(5, 0, 0)
    sample_stationary(grid, ref)  # phi(0), then two blocks of proposals
    for _ in range(2 * size):
        sample_stationary(grid, ref)
        ref.uniform()
    assert state.rng.bit_generator.state == ref.bit_generator.state


def test_continued_chain_reports_the_acceptance_of_its_own_steps():
    grid = TorusGrid(2, max_degree=4)
    P = PolynomialSpec.quartic(1.0)
    c = counterterm_C(grid)
    state = make_chain(grid, P, c, 13)
    for _ in range(200):
        state, _ = pcn_step(state, 1.0, P, c)
    res = run_chain(state, 100, 0, 1, 0.1, P, c)
    assert res.acceptance_rate == res.accept_history.sum() / 100
    lifetime = (state.accepted + res.accept_history.sum()) / (state.proposed + 100)
    assert abs(lifetime - res.acceptance_rate) > 0.05


def test_observables_reference_values():
    grid = TorusGrid(2, max_degree=4)
    P = PolynomialSpec.quartic(0.25)
    c = counterterm_C(grid)
    phi0 = 0.9
    obs = observables(to_spectral(RealField.constant(grid, phi0)), P, c)
    assert obs["wick2"] == pytest.approx((2 * np.pi) ** 2 * (phi0**2 - c), rel=1e-12)
    zero = observables(SpectralField.zero(grid), P, c)
    assert zero["wick4"] == pytest.approx((2 * np.pi) ** 2 * 3 * c**2, rel=1e-12)
    assert zero["mode2_0_0"] == 0.0


def test_free_sample_mean_wick2_zero():
    grid = TorusGrid(3)
    c = counterterm_C(grid)
    rng = np.random.default_rng(8)
    n = 2000
    vals = np.empty(n)
    for i in range(n):
        phi = sample_stationary(grid, rng)
        vals[i] = np.sum(np.abs(phi.coeffs) ** 2) - (2 * np.pi) ** 2 * c
    z = vals.mean() / (vals.std(ddof=1) / np.sqrt(n))
    assert abs(z) < 3.0


def test_pcn_free_invariance_two_sample_ks():
    # chain marginals versus direct free-field samples, KS at 1%
    grid = TorusGrid(2)
    c = counterterm_C(grid)
    rho = 0.9
    state = make_chain(grid, None, c, 9)
    n, thin = 30000, 10
    chain_obs = {"wick2": [], "m00": [], "m10r": [], "m11i": [], "m20r": []}
    for i in range(n):
        state, _ = pcn_step(state, rho, None, c)
        if i % thin == 0:
            phi = state.phi
            chain_obs["wick2"].append(np.sum(np.abs(phi.coeffs) ** 2))
            chain_obs["m00"].append(phi.get_mode(0, 0).real)
            chain_obs["m10r"].append(phi.get_mode(1, 0).real)
            chain_obs["m11i"].append(phi.get_mode(1, 1).imag)
            chain_obs["m20r"].append(phi.get_mode(2, 0).real)
    rng = np.random.default_rng(10)
    direct = {k: [] for k in chain_obs}
    for _ in range(n // thin):
        phi = sample_stationary(grid, rng)
        direct["wick2"].append(np.sum(np.abs(phi.coeffs) ** 2))
        direct["m00"].append(phi.get_mode(0, 0).real)
        direct["m10r"].append(phi.get_mode(1, 0).real)
        direct["m11i"].append(phi.get_mode(1, 1).imag)
        direct["m20r"].append(phi.get_mode(2, 0).real)
    for name in chain_obs:
        ks = scistats.ks_2samp(np.asarray(chain_obs[name]), np.asarray(direct[name]))
        assert ks.pvalue > 0.01, name


def test_gibbs_samples_helper():
    grid = TorusGrid(2, max_degree=4)
    P = PolynomialSpec.quartic(0.25)
    c = counterterm_C(grid)
    samples, result = gibbs_samples(grid, P, c, 8, 0.4, 200, 25, substream(11, 0, 0))
    assert len(samples) == 8
    assert isinstance(result, ChainResult)
    assert 0.05 < result.acceptance_rate <= 1.0
