import numpy as np
import pytest

from wickflow import (
    ConfigurationError,
    DomainError,
    SpectralField,
    TorusGrid,
    apply_semigroup,
    sample_stationary,
)
from wickflow import besov as besov_module
from wickflow.besov import (
    BesovSpec,
    DyadicPartition,
    besov_norm,
    block_norms,
    block_rms,
    build_partition,
    regularity_estimate,
)
from wickflow.ou import block_steps, hermitian_normals
from oracles import block, heat_norm_curve, sample_points, to_spectral


@pytest.fixture(scope="module")
def g16():
    return TorusGrid(16)


@pytest.fixture(scope="module")
def p16(g16):
    return build_partition(g16)


def smooth_step_rebuilt(s):
    """`besov._smooth_step` with its bump table rebuilt on each call."""
    u = np.linspace(-1.0, 1.0, 4097)
    with np.errstate(divide="ignore", over="ignore"):
        bump = np.where(np.abs(u) < 1.0, np.exp(-1.0 / np.maximum(1.0 - u * u, 1e-300)), 0.0)
    cdf = np.concatenate(([0.0], np.cumsum((bump[1:] + bump[:-1]) * 0.5 * (u[1] - u[0]))))
    cdf /= cdf[-1]
    return 1.0 - np.interp(np.clip(s, 0.0, 1.0) * 2.0 - 1.0, u, cdf)


def test_the_smooth_step_table_is_built_once_and_its_profiles_stay_bitwise():
    s = np.linspace(-0.25, 1.25, 3001)
    assert np.array_equal(besov_module._smooth_step(s), smooth_step_rebuilt(s))
    built = besov_module._bump_cdf.cache_info().misses
    partition = build_partition(TorusGrid(32, max_degree=2))
    assert besov_module._bump_cdf.cache_info().misses == built == 1
    r = np.sqrt(partition.grid.ksq.astype(np.float64))
    step = lambda x: smooth_step_rebuilt((x - 1.0) / (4.0 / 3.0 - 1.0))  # noqa: E731
    assert np.array_equal(partition.profiles[0], step(r))
    for j in range(partition.j_max + 1):
        assert np.array_equal(partition.profiles[j + 1], step(r / 2 ** (j + 1)) - step(r / 2**j))


def test_partition_sums_to_one_exactly(p16):
    assert p16.sum_residual() < 1e-12


def test_partition_supports(p16, g16):
    r = np.sqrt(g16.ksq.astype(float))
    chi = p16.multiplier(-1)
    assert np.all(chi[r > 4.0 / 3.0] == 0.0)  # ball support
    for j in range(p16.j_max + 1):
        theta = p16.multiplier(j)
        inside = (r >= 0.75 * 2**j) & (r <= (8.0 / 3.0) * 2**j)
        assert np.all(theta[~inside] == 0.0)  # annulus support


def test_partition_disjointness_two_apart(p16):
    for i in range(-1, p16.j_max + 1):
        for j in range(i + 2, p16.j_max + 1):
            overlap = p16.multiplier(i) * p16.multiplier(j)
            assert np.max(np.abs(overlap)) == 0.0


def test_usable_block_count():
    assert build_partition(TorusGrid(16)).j_usable == 3  # floor(log2 16) - 1
    assert build_partition(TorusGrid(8)).j_usable == 2
    with pytest.raises(ConfigurationError):
        build_partition(TorusGrid(1))


def test_block_reconstruction(p16, g16):
    u = sample_stationary(g16, np.random.default_rng(0))
    total = np.zeros_like(u.coeffs)
    for j in range(-1, p16.j_max + 1):
        total += block(u, j, p16).coeffs
    assert np.max(np.abs(total - u.coeffs)) < 1e-12


def test_block_constant_only_low(p16, g16):
    u = to_spectral(g16, np.full((g16.M, g16.M), 2.0))
    low = block(u, -1, p16)
    assert np.max(np.abs(low.coeffs - u.coeffs)) < 1e-13
    for j in range(0, p16.j_max + 1):
        # the DC mode carries exactly zero annulus weight; residual entries
        # are transform roundoff of the constant samples
        assert np.max(np.abs(block(u, j, p16).coeffs)) < 1e-12


def test_block_pure_mode_weights(p16, g16):
    u = SpectralField.zero(g16)
    u.set_mode(4, 0, 1.0)
    u.set_mode(-4, 0, 1.0)
    total = 0.0
    for j in range(-1, p16.j_max + 1):
        w = block(u, j, p16).get_mode(4, 0).real
        assert w == pytest.approx(p16.multiplier(j)[4, 0], abs=1e-15)
        total += w
    assert total == pytest.approx(1.0, abs=1e-13)


def test_block_out_of_range(p16, g16):
    u = sample_stationary(g16, np.random.default_rng(1))
    with pytest.raises(DomainError):
        block(u, p16.j_max + 1, p16)
    with pytest.raises(DomainError):
        block(u, -2, p16)


def test_besov_norm_constant_all_specs(g16, p16):
    u = to_spectral(g16, np.full((g16.M, g16.M), -2.5))
    for alpha in (0.7, -0.3, 1.0, 0.5, 0.0):
        assert besov_norm(u, BesovSpec(alpha), p16) == pytest.approx(2.5, rel=1e-12)


def test_besov_norm_cosine_against_multiplier_oracle(g16, p16):
    # u = cos(4 x1): peak |u| = 1, annuli j with theta(2^-j * 4) != 0 share it
    x1, _ = sample_points(g16)
    u = to_spectral(g16, np.cos(4 * x1))
    alpha = 1.0
    norm = besov_norm(u, BesovSpec(alpha), p16)
    oracle = 0.0
    for j in range(-1, p16.j_max + 1):
        w = p16.multiplier(j)[4, 0]  # multiplier value at |k| = 4
        if w > 0:
            weight = 1.0 if j == -1 else 2.0 ** (j * alpha)
            oracle = max(oracle, weight * w * 1.0)
    assert norm == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), 1j, "0.5", None])
def test_besov_spec_rejects_a_non_finite_or_non_real_alpha(alpha):
    with pytest.raises(DomainError):
        BesovSpec(alpha)


def test_besov_norm_homogeneous(g16, p16):
    u = sample_stationary(g16, np.random.default_rng(2))
    spec = BesovSpec(-0.4)
    assert besov_norm(2.0 * u, spec, p16) == pytest.approx(
        2.0 * besov_norm(u, spec, p16), rel=1e-12)


def test_besov_norm_monotone_in_alpha(g16, p16):
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = sample_stationary(g16, rng)
        norms = [besov_norm(u, BesovSpec(a), p16) for a in (-1.0, -0.3, 0.0, 0.4, 1.2)]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(norms, norms[1:]))


def test_regularity_smooth_field(g16, p16):
    u = SpectralField(g16, np.exp(-g16.ksq[:, :17].astype(float) / 4.0) * (1.0 + 0j))
    alpha, res = regularity_estimate(u, p16)
    assert alpha > 2.0


def test_regularity_white_noise_band(g16, p16):
    vals = []
    for i in range(25):
        u = SpectralField(g16, hermitian_normals(g16, np.random.default_rng([5, i])))
        alpha, _ = regularity_estimate(u, p16)
        vals.append(alpha)
    assert np.mean(vals) == pytest.approx(-1.0, abs=0.2)


def test_regularity_free_field_band(g16, p16):
    vals = []
    for i in range(25):
        alpha, _ = regularity_estimate(sample_stationary(g16, np.random.default_rng([6, i])), p16)
        vals.append(alpha)
    assert -0.3 <= np.mean(vals) <= 0.05


def test_regularity_degenerate_flag(g16, p16):
    alpha, res = regularity_estimate(SpectralField.zero(g16), p16)
    assert alpha is None and res is None


def test_regularity_needs_three_annuli():
    grid = TorusGrid(8)
    with pytest.raises(ConfigurationError):
        regularity_estimate(sample_stationary(grid, np.random.default_rng(7)))


def smoothing_ratio(u, alpha, delta, t_grid, partition):
    """max_t t^{delta/2} ||e^{tA}u||_{alpha+delta} / ||u||_alpha, as criterion 10 forms it."""
    t = np.asarray(t_grid, dtype=np.float64)
    curve = heat_norm_curve(u, BesovSpec(alpha + delta), t, partition)
    return float(np.max(t ** (delta / 2.0) * curve / besov_norm(u, BesovSpec(alpha), partition)))


def test_schauder_contraction_at_zero_gain(g16, p16):
    rng = np.random.default_rng(8)
    t_grid = np.geomspace(1e-3, 1.0, 8)
    for _ in range(3):
        u = sample_stationary(g16, rng)
        ratio = smoothing_ratio(u, -0.1, 0.0, t_grid, p16)
        assert ratio <= 1.0 + 1e-10


def test_schauder_single_mode_closed_form(g16, p16):
    u = SpectralField.zero(g16)
    u.set_mode(4, 0, 1.0)
    u.set_mode(-4, 0, 1.0)
    alpha, delta = -0.1, 0.6
    t_grid = [0.01, 0.1, 0.5]
    got = smoothing_ratio(u, alpha, delta, t_grid, p16)
    # single mode: every block norm scales by e^{-lambda t}; ratio is
    # max_t t^{delta/2} e^{-lambda t} * N_{alpha+delta} / N_alpha
    lam = 1.0 + 16.0
    def weighted_max(a):
        best = 0.0
        for j in range(-1, p16.j_max + 1):
            w = p16.multiplier(j)[4, 0]
            weight = 1.0 if j == -1 else 2.0 ** (j * a)
            best = max(best, weight * w)
        return best
    expected = max(t ** (delta / 2) * np.exp(-lam * t) for t in t_grid)
    expected *= weighted_max(alpha + delta) / weighted_max(alpha)
    assert got == pytest.approx(expected, rel=1e-10)


def test_schauder_bounded_on_free_fields(g16, p16):
    rng = np.random.default_rng(9)
    t_grid = np.geomspace(0.002, 0.05, 6)
    for _ in range(3):
        u = sample_stationary(g16, rng)
        assert smoothing_ratio(u, -0.2, 0.5, t_grid, p16) < 10.0


def test_heat_norm_curve_monotone(g16, p16):
    u = sample_stationary(g16, np.random.default_rng(10))
    t_grid = np.geomspace(5e-3, 0.5, 8)
    curve = heat_norm_curve(u, BesovSpec(0.3), t_grid, p16)
    assert np.all(np.diff(curve) < 0)  # smoothing decays the stronger norm


def batch_bands(field, partition):
    """Per block, the band `block_norms` transforms it over: the largest band
    of the nonzero blocks in its batch of `ou.block_steps(grid)`."""
    live = [block(field, j, partition).coeffs.any() for j in range(-1, partition.j_max + 1)]
    size, bands = block_steps(field.grid), []
    for start in range(0, len(live), size):
        batch = [b for b, on in zip(partition.bands[start:start + size], live[start:start + size]) if on]
        bands += [max(batch, default=0)] * len(live[start:start + size])
    return bands


def per_block_norms(field, partition, transform, bands):
    """Each block's sup norm by its own transform over `bands`, 0.0 for an empty block."""
    norms = np.zeros(partition.j_max + 2)
    for j in range(-1, partition.j_max + 1):
        coeffs = block(field, j, partition).coeffs
        if coeffs.any():
            norms[j + 1] = np.max(np.abs(transform(field.grid, coeffs, bands[j + 1])))
    return norms


def test_block_norms_skip_zero_blocks_bit_for_bit():
    # a field restricted to |k|_inf <= 4 on the K = 32 grid leaves the
    # annuli j >= 3 empty, as in the Wick convergence suite
    K = 32
    grid = TorusGrid(K, max_degree=3)
    partition = build_partition(grid)
    assert partition.bands == [1, 2, 5, 10, 21, 32, 32]
    u = sample_stationary(grid, np.random.default_rng(21))
    mask = ((np.abs(grid.kx) <= 4) & (np.abs(grid.ky) <= 4))[:, :K + 1]
    v = SpectralField(grid, np.where(mask, u.coeffs, 0.0))
    unskipped = np.array([
        np.max(np.abs(grid.coeffs_to_values(block(v, j, partition).coeffs, band=partition.bands[j + 1])))
        for j in range(-1, partition.j_max + 1)
    ])
    norms = block_norms(v, partition)
    assert np.array_equal(norms, unskipped)
    assert np.count_nonzero(norms == 0.0) == 3
    full_band = per_block_norms(v, partition, TorusGrid.coeffs_to_values, [None] * norms.size)
    np.testing.assert_allclose(norms, full_band, rtol=1e-14, atol=0)


@pytest.mark.parametrize("K", [4, 10, 16, 32])
def test_batched_block_norms_equal_the_per_block_loop_bitwise(K, monkeypatch):
    grid = TorusGrid(K)
    partition = build_partition(grid)
    u = sample_stationary(grid, np.random.default_rng(K))
    # leaves the annuli j >= 2 empty
    mask = ((np.abs(grid.kx) <= 2) & (np.abs(grid.ky) <= 2))[:, :K + 1]
    band = SpectralField(grid, np.where(mask, u.coeffs, 0.0))
    original = TorusGrid.coeffs_to_values
    seen = []
    monkeypatch.setattr(TorusGrid, "coeffs_to_values",
                        lambda self, coeffs, band=None: seen.append((coeffs, band))
                        or original(self, coeffs, band))
    for field, empty in ((u, 0), (band, partition.j_max - 1)):
        loop = per_block_norms(field, partition, original, batch_bands(field, partition))
        norms = block_norms(field, partition)
        assert np.array_equal(norms, loop)
        assert np.count_nonzero(norms == 0.0) == empty
        full_band = per_block_norms(field, partition, original, [None] * norms.size)
        np.testing.assert_allclose(norms, full_band, rtol=1e-14, atol=0)
    # each batch is its live blocks on the half window of their band
    assert seen and all(c.shape[1:] == (2 * s + 1, s + 1) for c, s in seen)
    assert all(c.any(axis=(1, 2)).all() for c, _ in seen)


def transform_block_rms(u, partition):
    """Block root mean squares over the grid's samples, j = -1 .. j_max: the
    route `regularity_estimate` took before Parseval, kept as the oracle."""
    grid = u.grid
    return np.array([np.sqrt(np.mean(grid.coeffs_to_values(block(u, j, partition).coeffs) ** 2))
                     for j in range(-1, partition.j_max + 1)])


@pytest.mark.parametrize("K", [4, 10, 16, 32])
def test_block_rms_by_parseval_matches_the_transform_route(K):
    grid = TorusGrid(K)
    partition = build_partition(grid)
    u = sample_stationary(grid, np.random.default_rng([K, 3]))
    oracle = transform_block_rms(u, partition)
    np.testing.assert_allclose(block_rms(u, partition), oracle, rtol=1e-15, atol=0)
    if partition.j_usable >= 3:  # the fit reads these amplitudes
        js = np.arange(1, partition.j_usable + 1)
        slope = np.polyfit(js, np.log2(oracle[js + 1]), 1)[0]
        assert regularity_estimate(u, partition)[0] == pytest.approx(-slope, abs=1e-12)


def test_regularity_estimate_runs_no_transform(g16, p16, monkeypatch):
    u = sample_stationary(g16, np.random.default_rng(12))
    monkeypatch.setattr(TorusGrid, "coeffs_to_values",
                        lambda self, coeffs: pytest.fail("regularity_estimate transformed"))
    alpha, _ = regularity_estimate(u, p16)
    assert np.isfinite(alpha)


def test_the_partition_is_built_once_per_grid_and_read_only():
    grid = TorusGrid(8)
    partition = build_partition(grid)
    assert build_partition(TorusGrid(8)) is partition
    assert build_partition(TorusGrid(8, max_degree=4)) is not partition  # another M
    assert not partition.profiles.flags.writeable
    assert not any(profiles.flags.writeable for *_, profiles in partition._batches)
    with pytest.raises(ValueError):
        partition.profiles[0, 0] = 2.0
