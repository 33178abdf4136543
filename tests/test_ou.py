import numpy as np
import pytest

from wickflow import (
    ConfigurationError,
    DomainError,
    OUNoisePath,
    SpectralField,
    TorusGrid,
    build_tower,
    convert_tower,
    counterterm_C,
    counterterm_t,
    ct_tower,
    ou_step,
    sample_stationary,
    substream,
    wick_power,
)
from wickflow.besov import BesovSpec, besov_norm, build_partition
from wickflow.grid import apply_semigroup
from wickflow.ou import (
    BLOCK_BYTES, block_steps, hermitian_normals, noise_source, step_constants,
)
from wickflow.solver import SolverConfig, solve, stationary_solve
from wickflow.wick import PolynomialSpec
from oracles import to_spectral


def test_substream_deterministic_and_split():
    a = substream(7, 3, 1).standard_normal(4)
    b = substream(7, 3, 1).standard_normal(4)
    c = substream(7, 4, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_hermitian_normals_statistics():
    grid = TorusGrid(2)
    rng = np.random.default_rng(0)
    n = 4000
    acc = np.zeros((5, 3))
    for _ in range(n):
        xi = hermitian_normals(grid, rng)
        assert SpectralField(grid, xi).hermitian_defect() < 1e-14
        acc += np.abs(xi) ** 2
    acc /= n
    # E|xi_k|^2 = 1 for every mode, 3 standard errors (chi^2 spread ~ 1/sqrt(n))
    assert np.max(np.abs(acc - 1.0)) < 3.5 * np.sqrt(2.0 / n)
    xi0 = np.array([hermitian_normals(grid, rng)[0, 0] for _ in range(2000)])
    assert np.max(np.abs(xi0.imag)) == 0.0  # self-paired mode stays real


@pytest.mark.parametrize("K", [0, 1, 4, 32])
def test_hermitian_normals_equal_the_roll_formula_bitwise(K):
    # element [i, j] of the flipped-and-rolled array is raw[-i % n, -j % n]
    grid = TorusGrid(K)
    n = 2 * K + 1
    rng = np.random.default_rng(K)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    raw *= np.sqrt(0.5)
    flipped = np.conj(np.roll(raw[::-1, ::-1], (1, 1), axis=(0, 1)))
    expected = ((raw + flipped) * np.sqrt(0.5))[:, :K + 1]
    got_rng = np.random.default_rng(K)
    assert np.array_equal(hermitian_normals(grid, got_rng), expected)
    assert got_rng.standard_normal() == rng.standard_normal()  # the same draws consumed


def test_block_steps_fill_the_byte_budget():
    for K in range(41):
        size, step_bytes = block_steps(TorusGrid(K)), 16 * (2 * K + 1) ** 2
        assert size * step_bytes <= BLOCK_BYTES or size == 1
        assert (size + 1) * step_bytes > BLOCK_BYTES
    assert [block_steps(TorusGrid(K)) for K in (4, 10, 32)] == [50, 9, 1]


BLOCK_EDGES = pytest.mark.parametrize(
    "extra", [-1, 0, 1], ids=["below-one-block", "one-block", "one-block-plus-one"])


@BLOCK_EDGES
@pytest.mark.parametrize("K", [2, 4, 10, 32])
def test_noise_source_equals_per_step_hermitian_normals_bitwise(K, extra):
    grid = TorusGrid(K)
    n_steps = block_steps(grid) + extra
    rng, ref = substream(K, 0, 1), substream(K, 0, 1)
    drawn = 0
    for xi in noise_source(grid, rng, n_steps):
        assert np.array_equal(xi, hermitian_normals(grid, ref)), drawn
        drawn += 1
    assert drawn == n_steps
    assert rng.bit_generator.state == ref.bit_generator.state


@BLOCK_EDGES
@pytest.mark.parametrize("run", ["solve", "stationary_solve", "OUNoisePath"])
def test_a_generator_ends_where_per_step_draws_leave_it(run, extra):
    grid = TorusGrid(4, max_degree=4)
    n_steps = block_steps(grid) + extra
    delta = 1e-3
    cfg = SolverConfig(delta=delta, T=n_steps * delta)
    P = PolynomialSpec.quartic(0.25)
    rng, ref = substream(9, 0, 1), substream(9, 0, 1)
    z = SpectralField.zero(grid)
    if run == "OUNoisePath":
        sigma = step_constants(grid, delta).sigma
        path = OUNoisePath(grid, delta, n_steps, rng)
        expected = [sigma * hermitian_normals(grid, ref) for _ in range(n_steps)]
        assert np.array_equal(path.innovations, np.reshape(expected, path.innovations.shape))
    else:
        y0 = sample_stationary(grid, substream(9, 0, 0))
        if run == "solve":
            traj = solve(y0, None, rng, cfg, P)
        else:
            traj = stationary_solve(y0, rng, cfg, P)
        for _ in range(n_steps):
            z = ou_step(z, delta, ref)
        assert np.array_equal(traj.zbar[-1].coeffs, z.coeffs)  # zbar = Z: the noise, bitwise
    assert rng.bit_generator.state == ref.bit_generator.state


def test_ou_mode_variance_ito_isometry():
    # Var(z_k(t)) = (1 - e^{-2 lambda t})/(2 lambda), Monte Carlo within 3 SE
    grid = TorusGrid(1)
    t = 0.3
    n = 4000
    vals = np.empty(n, dtype=complex)
    rng = np.random.default_rng(1)
    for i in range(n):
        vals[i] = ou_step(SpectralField.zero(grid), t, rng).get_mode(1, 0)
    lam = 2.0
    target = (1 - np.exp(-2 * lam * t)) / (2 * lam)
    est = np.mean(np.abs(vals) ** 2)
    se = np.std(np.abs(vals) ** 2, ddof=1) / np.sqrt(n)
    assert abs(est - target) < 3 * se


def test_ou_stationary_limit():
    grid = TorusGrid(1)
    n = 4000
    rng = np.random.default_rng(2)
    vals = np.empty(n, dtype=complex)
    for i in range(n):
        vals[i] = ou_step(SpectralField.zero(grid), 6.0, rng).get_mode(1, 1)  # about stationary
    lam = 3.0
    est = np.mean(np.abs(vals) ** 2)
    se = np.std(np.abs(vals) ** 2, ddof=1) / np.sqrt(n)
    assert abs(est - 1 / (2 * lam)) < 3 * se


def test_ou_step_composition_in_law():
    # one step of delta and two of delta/2 share mean and variance
    grid = TorusGrid(1)
    delta = 0.4
    n = 4000
    one, two = np.empty(n, complex), np.empty(n, complex)
    rng = np.random.default_rng(3)
    z0 = sample_stationary(grid, rng)
    for i in range(n):
        one[i] = ou_step(z0, delta, rng).get_mode(1, 0)
        two[i] = ou_step(ou_step(z0, delta / 2, rng), delta / 2, rng).get_mode(1, 0)
    for series in (one, two):
        assert abs(np.mean(series) - np.exp(-2 * delta) * z0.get_mode(1, 0)) < 4 * np.std(series) / np.sqrt(n)
    v1, v2 = np.var(one), np.var(two)
    se = np.sqrt(2.0 / n) * max(v1, v2)
    assert abs(v1 - v2) < 4 * se


def test_ou_step_rejects_nonpositive_delta():
    with pytest.raises(DomainError):
        ou_step(SpectralField.zero(TorusGrid(1)), 0.0, np.random.default_rng(4))


@pytest.mark.parametrize("make", [
    lambda grid, rng: ou_step(SpectralField.zero(grid), np.nan, rng),
    lambda grid, rng: OUNoisePath(grid, np.nan, 2, rng),
], ids=["ou_step", "OUNoisePath"])
def test_nan_step_size_is_a_domain_error(make):
    with pytest.raises(DomainError):
        make(TorusGrid(1), np.random.default_rng(4))


@pytest.mark.parametrize("factor", [0, -2])
def test_noise_path_rejects_a_coarsening_factor_below_one(factor):
    path = OUNoisePath(TorusGrid(1), 0.05, 4, np.random.default_rng(4))
    with pytest.raises(ConfigurationError):
        path.coarsen(factor)


def test_noise_path_rejects_a_negative_step_count():
    with pytest.raises(ConfigurationError):
        OUNoisePath(TorusGrid(1), 0.05, -1, np.random.default_rng(4))


@pytest.mark.parametrize("shape", [(3, 3, 4), (4, 3, 3), (3, 9), (3, 3, 3)])
def test_noise_path_rejects_innovations_of_the_wrong_shape(shape):
    with pytest.raises(ConfigurationError):
        OUNoisePath(TorusGrid(1), 0.05, 3, innovations=np.zeros(shape, dtype=np.complex128))


def test_stationary_sample_pointwise_variance():
    # spatial mean of phi(x)^2 has expectation counterterm_C
    grid = TorusGrid(4)
    c = counterterm_C(grid)
    rng = np.random.default_rng(5)
    n = 3000
    stats = np.empty(n)
    for i in range(n):
        phi = sample_stationary(grid, rng)
        stats[i] = np.sum(np.abs(grid.full_window(phi.coeffs)) ** 2) / (2 * np.pi) ** 2  # Parseval
    z = (stats.mean() - c) / (stats.std(ddof=1) / np.sqrt(n))
    assert abs(z) < 3.0


def test_stationary_sample_mean_zero_and_ou_invariance():
    grid = TorusGrid(2)
    rng = np.random.default_rng(6)
    n = 3000
    before, after = np.empty(n, complex), np.empty(n, complex)
    for i in range(n):
        phi = sample_stationary(grid, rng)
        before[i] = phi.get_mode(1, 0)
        after[i] = ou_step(phi, 0.25, rng).get_mode(1, 0)
    for series in (before, after):
        se = series.std(ddof=1) / np.sqrt(n)
        assert abs(series.mean()) < 3 * se
    vb, va = np.var(before), np.var(after)
    assert abs(vb - va) < 4 * np.sqrt(2.0 / n) * max(vb, va)


def test_counterterm_t_single_mode_closed_form():
    grid = TorusGrid(0)
    for t in (0.1, 0.5, 2.0):
        assert counterterm_t(grid, t) == pytest.approx(-np.exp(-2 * t) / (8 * np.pi**2), rel=1e-13)
    assert counterterm_t(grid, 0.0) == pytest.approx(-counterterm_C(grid), rel=1e-14)
    with pytest.raises(DomainError):
        counterterm_t(grid, -0.5)


def test_counterterm_t_structure():
    for K in (0, 2, 5):
        grid = TorusGrid(K)
        assert counterterm_C(grid) + counterterm_t(grid, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert counterterm_t(grid, 50.0) == pytest.approx(0.0, abs=1e-15)
        cts = [counterterm_t(grid, t) for t in np.linspace(0.0, 3.0, 7)]
        assert all(b >= a for a, b in zip(cts, cts[1:]))  # nondecreasing
        assert all(v <= 0 for v in cts)


def test_counterterm_t_is_its_mode_sum_bitwise():
    for K in range(41):
        grid = TorusGrid(K)
        for t in (0.0, 0.01, 0.3, 2.0):
            expected = -float(np.sum(np.exp(-2.0 * grid.lam * t) * (1.0 / (2.0 * grid.lam)))) * (
                1.0 / (2.0 * np.pi) ** 2)
            assert counterterm_t(grid, t) == expected, (K, t)


def test_convert_tower_low_order_identities():
    # :Z^2:_C = :Z^2:_{C_t} + c_t and :Z^3:_C = :Z^3:_{C_t} + 3 c_t Z, per sample
    grid = TorusGrid(4, max_degree=4)
    z = ou_step(SpectralField.zero(grid), 0.2, substream(11, 0, 1))
    ct = counterterm_t(grid, 0.2)
    tower_ct = ct_tower(z, 0.2, 4)
    tower_c = convert_tower(tower_ct)
    zv = grid.coeffs_to_values(z.coeffs)
    lhs2 = tower_c.order_values(2)
    assert np.max(np.abs(lhs2 - (tower_ct.order_values(2) + ct))) < 1e-12
    lhs3 = tower_c.order_values(3)
    rhs3 = tower_ct.order_values(3) + 3 * ct * zv
    assert np.max(np.abs(lhs3 - rhs3)) < 1e-12 * (1 + np.max(np.abs(lhs3)))


def test_convert_tower_zero_ct_is_identity():
    grid = TorusGrid(3, max_degree=4)
    t = 60.0  # c_t(60) ~ e^{-120}: conversion degenerates to the identity
    tower_ct = ct_tower(ou_step(SpectralField.zero(grid), t, substream(12, 0, 1)), t, 4)
    tower_c = convert_tower(tower_ct)
    assert np.max(np.abs(tower_c.raw - tower_ct.raw)) < 1e-12


def test_convert_tower_requires_ct_kind():
    grid = TorusGrid(2, max_degree=4)
    z = sample_stationary(grid, substream(13, 0, 1))
    tower_c = convert_tower(ct_tower(z, 0.1, 3))
    with pytest.raises(ConfigurationError):
        convert_tower(tower_c)


def test_ct_tower_matches_wick_power():
    grid = TorusGrid(4, max_degree=4)
    z = ou_step(SpectralField.zero(grid), 0.15, substream(14, 0, 1))
    tower = ct_tower(z, 0.15, 4)
    for n in range(4):
        direct = wick_power(z, n, counterterm_C(grid) + counterterm_t(grid, 0.15))
        assert np.max(np.abs(tower.order(n).coeffs - direct.coeffs)) < 1e-12 * (
            1 + np.max(np.abs(direct.coeffs)))


def test_build_tower_zero_initial_datum():
    grid = TorusGrid(3, max_degree=4)
    z = ou_step(SpectralField.zero(grid), 0.3, substream(15, 0, 1))
    with_zero = build_tower(z, SpectralField.zero(grid), 0.3, 4)
    without = build_tower(z, None, 0.3, 4)
    assert np.max(np.abs(with_zero.raw - without.raw)) < 1e-13


def test_build_tower_constants_deterministic():
    # Z = zeta, V = v constants: order 2 equals (zeta+v)^2 - c_C exactly
    grid = TorusGrid(1, max_degree=4)
    c = counterterm_C(grid)
    zeta, v = 0.8, -0.35
    t = 0.25
    z = to_spectral(grid, np.full((grid.M, grid.M), zeta))
    z0 = to_spectral(grid, np.full((grid.M, grid.M), v / np.exp(-t)))  # e^{tA} on k=0 is e^{-t}
    tower = build_tower(z, z0, t, 3)
    vals = tower.order_values(2)
    expected = (zeta + v) ** 2 - c
    assert np.max(np.abs(vals - expected)) < 1e-12
    direct = wick_power(to_spectral(grid, np.full((grid.M, grid.M), zeta + v)), 2, c)
    assert np.max(np.abs(tower.order(2).coeffs - direct.coeffs)) < 1e-12


def test_build_tower_order_one():
    grid = TorusGrid(3, max_degree=4)
    rng = substream(16, 0, 1)
    z = ou_step(SpectralField.zero(grid), 0.4, rng)
    z0 = sample_stationary(grid, rng)
    tower = build_tower(z, z0, 0.4, 3)
    zbar = z + apply_semigroup(z0, 0.4)
    assert np.max(np.abs(tower.order(1).coeffs - zbar.coeffs)) < 1e-12


def test_chaos_mean_zero():
    # E[:Z^n(t):_{C_t}(x)] = 0 for n = 2, 3 within 3 SE
    grid = TorusGrid(2, max_degree=4)
    rng = np.random.default_rng(17)
    n_samples = 2000
    t = 0.35
    stats = {2: np.empty(n_samples), 3: np.empty(n_samples)}
    for i in range(n_samples):
        tower = ct_tower(ou_step(SpectralField.zero(grid), t, rng), t, 4)
        stats[2][i] = tower.order_values(2).mean()
        stats[3][i] = tower.order_values(3).mean()
    for n in (2, 3):
        z = stats[n].mean() / (stats[n].std(ddof=1) / np.sqrt(n_samples))
        assert abs(z) < 3.0


def test_noise_path_coarsening_exact():
    grid = TorusGrid(2)
    path = OUNoisePath(grid, 0.05, 8, substream(18, 0, 1))
    coarse = path.coarsen(4)
    z = sample_stationary(grid, substream(18, 0, 0))
    fine = z.coeffs
    for i in range(4):
        fine = step_constants(grid, path.delta).decay * fine + path.innovations[i]
    direct = step_constants(grid, coarse.delta).decay * z.coeffs + coarse.innovations[0]
    assert np.max(np.abs(fine - direct)) < 1e-14
    with pytest.raises(ConfigurationError):
        path.coarsen(3)


def test_time_regularity_modulus_shrinks():
    # modulus of continuity of :Z^2: in a negative-regularity norm decreases
    # with the time gap (trend averaged over a few paths)
    grid = TorusGrid(8, max_degree=4)
    part = build_partition(grid)
    spec = BesovSpec(-0.1)
    gaps = (0.08, 0.04, 0.02)
    moduli = np.zeros(len(gaps))
    n_paths = 5
    for p in range(n_paths):
        rng = substream(19, p, 1)
        t = 0.5  # start from a well-developed state
        z = ou_step(SpectralField.zero(grid), t, rng)
        fine = gaps[-1]
        snaps = []
        for _ in range(round(gaps[0] / fine) + 1):
            tower = ct_tower(z, t, 3)
            snaps.append((t, SpectralField(grid, grid.values_to_coeffs(tower.order_values(2)))))
            z, t = ou_step(z, fine, rng), t + fine
        for g, gap in enumerate(gaps):
            worst = 0.0
            for (t1, u1) in snaps:
                for (t2, u2) in snaps:
                    if 0 < t2 - t1 <= gap + 1e-12:
                        worst = max(worst, besov_norm(u1 - u2, spec, part))
            moduli[g] += worst / n_paths
    assert moduli[0] > moduli[1] > moduli[2]
