import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickflow import (
    ConfigurationError,
    DomainError,
    SpectralField,
    TorusGrid,
    apply_semigroup,
    sample_stationary,
)
import wickflow.grid as grid_module
from wickflow.grid import DFT_MAX_M
from wickflow.ou import symmetrize_normals
from oracles import dealiased_product, full_window_inverse, sample_points, to_spectral


def random_field(grid, seed):
    return sample_stationary(grid, np.random.default_rng(seed))


def test_round_trip_identity():
    grid = TorusGrid(6)
    u = random_field(grid, 0)
    back = to_spectral(grid, grid.coeffs_to_values(u.coeffs))
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12 * u.l2_norm()


def test_constant_field_coefficient():
    # direct integral of a constant against e_0 = (2 pi)^{-1}: c * (2 pi)^2 / (2 pi)
    grid = TorusGrid(3)
    u = to_spectral(grid, np.full((grid.M, grid.M), 3.0))
    assert u.get_mode(0, 0) == pytest.approx(2.0 * np.pi * 3.0, rel=1e-14)
    rest = u.coeffs.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-12


def test_single_mode_cosine():
    grid = TorusGrid(3)
    x1, _ = sample_points(grid)
    u = to_spectral(grid, np.cos(x1))
    a, b = u.get_mode(1, 0), u.get_mode(-1, 0)
    assert a == pytest.approx(b, abs=1e-13)
    assert abs(a.imag) < 1e-13
    assert a.real == pytest.approx(np.pi, rel=1e-13)  # cos x = pi (e_k + e_{-k})
    others = u.coeffs.copy()
    others[1, 0] = others[-1 % 7, 0] = 0.0
    assert np.max(np.abs(others)) < 1e-12


def test_parseval():
    grid = TorusGrid(5)
    u = random_field(grid, 1)
    l2_real = np.sqrt(np.sum(grid.coeffs_to_values(u.coeffs) ** 2) * grid.cell_area)
    assert l2_real == pytest.approx(u.l2_norm(), rel=1e-12)


def test_hermitian_symmetry_of_real_samples():
    grid = TorusGrid(4)
    u = random_field(grid, 2)
    assert u.hermitian_defect() < 1e-13


def test_semigroup_single_mode():
    grid = TorusGrid(2)
    u = SpectralField.zero(grid)
    u.set_mode(1, 0, 1.0)
    v = apply_semigroup(u, 0.5)  # lambda = 2 -> e^{-1}
    assert v.get_mode(1, 0).real == pytest.approx(0.36787944117144233, rel=1e-14)


def test_semigroup_identity_and_law():
    grid = TorusGrid(4)
    u = random_field(grid, 3)
    assert np.max(np.abs(apply_semigroup(u, 0.0).coeffs - u.coeffs)) == 0.0
    ab = apply_semigroup(apply_semigroup(u, 0.3), 0.45)
    once = apply_semigroup(u, 0.75)
    assert np.max(np.abs(ab.coeffs - once.coeffs)) < 1e-12


def test_semigroup_decay_monotone_in_t_and_k():
    grid = TorusGrid(4)
    for t1, t2 in [(0.1, 0.2), (0.5, 1.0)]:
        m1 = np.exp(-grid.lam * t1)
        m2 = np.exp(-grid.lam * t2)
        assert np.all(m2 < m1)
    m = np.exp(-grid.lam * 0.3)
    assert m[0, 0] == np.max(m)  # |k| = 0 decays slowest


def test_semigroup_negative_time_rejected():
    grid = TorusGrid(2)
    with pytest.raises(DomainError):
        apply_semigroup(SpectralField.zero(grid), -0.1)


def brute_force_product_coeffs(u, v):
    """Convolution oracle: (uv)^_k = (2 pi)^{-1} sum_{k1+k2=k} u_{k1} v_{k2}."""
    grid = u.grid
    K, n = grid.K, 2 * grid.K + 1
    out = np.zeros((n, n), dtype=np.complex128)
    wn = grid.wavenumbers
    uc, vc = grid.full_window(u.coeffs), grid.full_window(v.coeffs)
    for i1 in range(n):
        for j1 in range(n):
            for i2 in range(n):
                for j2 in range(n):
                    k1 = wn[i1] + wn[i2]
                    k2 = wn[j1] + wn[j2]
                    if abs(k1) <= K and abs(k2) <= K:
                        out[k1 % n, k2 % n] += uc[i1, j1] * vc[i2, j2]
    return out[:, :K + 1] / (2.0 * np.pi)


def test_dealiased_product_matches_convolution_oracle():
    grid = TorusGrid(2)
    u, v = random_field(grid, 4), random_field(grid, 5)
    prod = dealiased_product([u, v])
    oracle = brute_force_product_coeffs(u, v)
    assert np.max(np.abs(prod.coeffs - oracle)) < 1e-12


def test_product_of_constants():
    grid = TorusGrid(3)
    a = to_spectral(grid, np.full((grid.M, grid.M), 2.0))
    b = to_spectral(grid, np.full((grid.M, grid.M), 3.0))
    p = grid.coeffs_to_values(dealiased_product([a, b]).coeffs)
    assert np.max(np.abs(p - 6.0)) < 1e-12


def test_cosine_square_identity():
    # cos^2 x = 1/2 + cos(2x)/2, exact once 2K is retained
    grid = TorusGrid(2)
    x1, _ = sample_points(grid)
    u = to_spectral(grid, np.cos(x1))
    sq = grid.coeffs_to_values(dealiased_product([u, u]).coeffs)
    expected = 0.5 + 0.5 * np.cos(2 * x1)
    assert np.max(np.abs(sq - expected)) < 1e-12


def test_product_commutative():
    grid = TorusGrid(2)
    u, v = random_field(grid, 6), random_field(grid, 7)
    uv = dealiased_product([u, v])
    vu = dealiased_product([v, u])
    assert np.max(np.abs(vu.coeffs - uv.coeffs)) < 1e-13


def test_product_associative_when_intermediates_stay_in_band():
    # grouping only commutes with the window restriction when no
    # intermediate product exceeds the cutoff
    grid = TorusGrid(6, max_degree=3)
    rng = np.random.default_rng(8)
    fields = []
    for _ in range(3):
        f = sample_stationary(grid, rng)
        mask = ((np.abs(grid.kx) <= 2) & (np.abs(grid.ky) <= 2))[:, :grid.K + 1]
        fields.append(SpectralField(grid, np.where(mask, f.coeffs, 0.0)))
    u, v, w = fields
    uv_w = dealiased_product([dealiased_product([u, v]), w], degree=3)
    u_vw = dealiased_product([u, dealiased_product([v, w])], degree=3)
    scale = max(1.0, np.max(np.abs(uv_w.coeffs)))
    assert np.max(np.abs(uv_w.coeffs - u_vw.coeffs)) < 1e-12 * scale


def test_insufficient_padding_rejected():
    grid = TorusGrid(4, max_degree=2)  # M = 18 supports at most degree 4 at K = 4
    u = random_field(grid, 9)
    with pytest.raises(ConfigurationError):
        dealiased_product([u] * 5)


def test_grid_mismatch_rejected():
    u = random_field(TorusGrid(2), 10)
    v = random_field(TorusGrid(3), 11)
    with pytest.raises(ConfigurationError):
        dealiased_product([u, v])


def test_real_field_shape_checked():
    grid = TorusGrid(2)
    for shape in ((3, 3), (5, 2), (5,), ()):
        with pytest.raises(ConfigurationError, match=r"half window \(5, 3\)"):
            SpectralField(grid, np.zeros(shape))
    with pytest.raises(ConfigurationError, match=rf"\(\.\.\., {grid.M}, {grid.M}\)"):
        grid.values_to_coeffs(np.zeros((3, 3)))


@pytest.mark.parametrize("route", ["dense", "fft"])
@pytest.mark.parametrize("K", [1, 4, 10])
def test_a_full_window_is_rejected_naming_the_half_shape(K, route, monkeypatch):
    monkeypatch.setattr(grid_module, "DFT_MAX_M", 10**6 if route == "dense" else -1)
    grid = TorusGrid(K)
    n = 2 * K + 1
    half = rf"half window \(\.\.\., {n}, {K + 1}\)"
    for full in (np.ones((n, n), dtype=np.complex128), np.ones((2, n, n), dtype=np.complex128)):
        for band in (None, K - 1):
            with pytest.raises(ConfigurationError, match=half):
                grid.coeffs_to_values(full, band=band)
        with pytest.raises(ConfigurationError, match=rf"\(\.\.\., {grid.M}, {grid.M}\)"):
            grid.values_to_coeffs(full.real)  # (2K+1)^2 is never a grid of samples
    with pytest.raises(ConfigurationError, match=rf"half window \({n}, {K + 1}\)"):
        SpectralField(grid, np.ones((n, n)))


def test_dealiasing_grid_size_rule():
    # M >= 2(2K+1) floor and (d+1)K+1 for degree-d products
    g3 = TorusGrid(8, max_degree=3)
    assert g3.M >= 2 * (2 * 8 + 1)
    g7 = TorusGrid(8, max_degree=7)
    assert g7.M >= 8 * 8 + 1
    g7.assert_product_degree(7)
    with pytest.raises(ConfigurationError):
        g7.assert_product_degree(9)


# -- pruned real transforms against the full complex FFT ----------------------

# (K, max_degree), id: K at the default degree (M = 4K + 2), M = 98 and 102
# (the dense route's old bound), the FFT-hostile quartic K = 16 grid
# (M = 82 = 2 * 41), and the FFT route's grids M = 162 and 194 = 2 * 97
TRANSFORM_KS = [pytest.param(K, d, id=i) for K, d, i in (
    (0, 3, "0"), (1, 3, "1"), (4, 3, "4"), (32, 3, "32"),
    (24, 3, "24"), (25, 3, "25"), (16, 4, "16-quartic"),
    (32, 4, "32-quartic"), (48, 3, "48"))]


def full_inverse(grid, coeffs):
    """Re of the full M x M inverse FFT of the zero-padded window."""
    idx = grid.wavenumbers % grid.M
    big = np.zeros((grid.M, grid.M), dtype=np.complex128)
    big[np.ix_(idx, idx)] = coeffs
    return np.fft.ifft2(big).real * (grid.M**2 / grid.L)


def full_forward(grid, values):
    idx = grid.wavenumbers % grid.M
    return np.fft.fft2(values)[np.ix_(idx, idx)] * (grid.L / grid.M**2)


def assert_rel_close(a, b, rel):
    assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


@pytest.mark.parametrize("K, max_degree", TRANSFORM_KS)
def test_inverse_transform_matches_full_fft_for_non_hermitian_input(K, max_degree):
    grid = TorusGrid(K, max_degree)
    n = 2 * K + 1
    rng = np.random.default_rng(100 + K)
    coeffs = rng.standard_normal((n, K + 1)) + 1j * rng.standard_normal((n, K + 1))
    assert_rel_close(grid.coeffs_to_values(coeffs), full_inverse(grid, grid.full_window(coeffs)),
                     1e-14)


@pytest.mark.parametrize("K, max_degree", TRANSFORM_KS)
def test_inverse_transform_matches_full_fft_for_single_modes(K, max_degree):
    grid = TorusGrid(K, max_degree)
    for k1, k2 in {(K, K), (-K, K), (K, -K), (-K, -K), (K, 0), (-K, 0), (0, 0)}:
        u = SpectralField.zero(grid)
        u.set_mode(k1, k2, 0.7 - 1.3j)
        assert_rel_close(grid.coeffs_to_values(u.coeffs),
                         full_inverse(grid, grid.full_window(u.coeffs)), 1e-14)


@pytest.mark.parametrize("K, max_degree", TRANSFORM_KS)
def test_forward_transform_matches_full_fft_and_is_hermitian(K, max_degree):
    grid = TorusGrid(K, max_degree)
    values = np.random.default_rng(200 + K).standard_normal((grid.M, grid.M))
    coeffs = grid.values_to_coeffs(values)
    assert_rel_close(grid.full_window(coeffs), full_forward(grid, values), 1e-14)
    u = SpectralField(grid, coeffs)
    for k1 in range(-K, K + 1):
        for k2 in range(1, K + 1):
            assert u.get_mode(-k1, -k2) == np.conj(u.get_mode(k1, k2))


@pytest.mark.parametrize("K, M, M_compute", [(32, 162, 130), (16, 82, 66), (10, 52, 42), (8, 42, 34)])
def test_compute_grid_is_the_smallest_exact_grid_of_the_quartic(K, M, M_compute):
    grid = TorusGrid(K, max_degree=4)
    small = grid.compute_grid(4)
    assert (grid.M, small.M, small.K) == (M, M_compute, K)
    assert small.M >= 4 * K + 1 and small.M % 2 == 0
    assert TorusGrid(K, max_degree=4).compute_grid(4) is small  # built once
    assert small.compute_grid(4) is small


def test_transform_grids_lie_on_both_routes():
    assert TorusGrid(32).M <= DFT_MAX_M < TorusGrid(32, max_degree=4).M
    assert TorusGrid(24, max_degree=4).M <= DFT_MAX_M < TorusGrid(48).M


def test_compute_grid_keeps_a_grid_that_is_not_larger():
    quadratic = TorusGrid(4, max_degree=2)  # the 2(2K+1) floor: M = 18 either way
    assert quadratic.compute_grid(2) is quadratic
    too_small = TorusGrid(8, max_degree=2)  # a sextic step needs M >= 49
    assert too_small.compute_grid(6) is too_small
    with pytest.raises(ConfigurationError):
        too_small.compute_grid(6).assert_product_degree(5)


@pytest.mark.parametrize("K, max_degree", [pytest.param(10, 3, id="10")]
                         + [p for p in TRANSFORM_KS if p.id != "1"])
def test_batched_inverse_transform_equals_each_unbatched_call_bitwise(K, max_degree):
    grid = TorusGrid(K, max_degree)
    n = 2 * K + 1
    rng = np.random.default_rng([K, 1])
    coeffs = rng.standard_normal((3, n, K + 1)) + 1j * rng.standard_normal((3, n, K + 1))
    batched = grid.coeffs_to_values(coeffs)
    assert batched.shape == (3, grid.M, grid.M)
    for b in range(3):
        assert np.array_equal(batched[b], grid.coeffs_to_values(coeffs[b]))


# -- half windows ----------------------------------------------------------------

# (K, max_degree, M): K = 0, where the two windows coincide, the dense route's
# M = 18, 42 and 130 and the FFT route's M = 158 = 2 * 79 and 162
HALF_GRIDS = [pytest.param(K, d, M, id=f"K{K}-M{M}") for K, d, M in (
    (0, 3, 2), (4, 2, 18), (10, 3, 42), (32, 3, 130), (39, 3, 158), (32, 4, 162))]


@pytest.mark.parametrize("K, max_degree, M", HALF_GRIDS)
def test_half_window_transforms_equal_the_full_window_transforms_bitwise(K, max_degree, M):
    grid = TorusGrid(K, max_degree)
    assert grid.M == M and (M <= DFT_MAX_M) == (M <= 130)
    n = 2 * K + 1
    rng = np.random.default_rng([K, M])
    half = symmetrize_normals(grid, rng.standard_normal((3, 2, n, n)))
    coeffs = grid.full_window(half)  # exactly Hermitian
    neg = -np.arange(n) % n
    assert np.array_equal(coeffs[..., :K + 1], half)
    assert np.array_equal(coeffs[..., neg[:, None], neg], np.conj(coeffs))
    for band in sorted({0, K // 2, K}) + [None]:
        samples = full_window_inverse(grid, coeffs, band=band)
        assert np.array_equal(grid.coeffs_to_values(half, band=band), samples)
        for b in range(3):
            assert np.array_equal(grid.coeffs_to_values(half[b], band=band), samples[b])


@settings(max_examples=60, deadline=None)
@given(K=st.integers(0, 8), max_degree=st.integers(1, 5), dense=st.booleans(),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_a_full_window_and_its_hermitian_half_give_bitwise_equal_samples(
        K, max_degree, dense, seed, data):
    grid = TorusGrid(K, max_degree)
    n = 2 * K + 1
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    half = coeffs[:, :K + 1].copy()
    for i in range(n):
        for j in range(1, K + 1):
            half[i, j] = (coeffs[i, j] + np.conj(coeffs[-i % n, -j % n])) / 2
    band = data.draw(st.none() | st.integers(0, K))
    bound = grid_module.DFT_MAX_M
    grid_module.DFT_MAX_M = 10**6 if dense else -1
    try:
        assert np.array_equal(grid.coeffs_to_values(half, band=band),
                              full_window_inverse(grid, coeffs, band=band))
    finally:
        grid_module.DFT_MAX_M = bound


# -- band-limited transforms ---------------------------------------------------

ROUTES = {"dense": 10**6, "fft": -1}


def band_mask(grid, s):
    return (np.abs(grid.kx) <= s) & (np.abs(grid.ky) <= s)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("K", [4, 10, 32])
def test_band_transforms_are_the_projected_full_transforms(K, route, monkeypatch):
    monkeypatch.setattr(grid_module, "DFT_MAX_M", ROUTES[route])
    grid = TorusGrid(K)
    n = 2 * K + 1
    rng = np.random.default_rng([K, 7])
    coeffs = rng.standard_normal((3, n, K + 1)) + 1j * rng.standard_normal((3, n, K + 1))
    values = rng.standard_normal((grid.M, grid.M))
    for s in sorted({0, 1, K // 2, K}):
        inside = band_mask(grid, s)
        samples = grid.coeffs_to_values(coeffs, band=s)
        for b in range(3):
            full = grid.full_window(coeffs[b])
            assert_rel_close(samples[b], full_inverse(grid, np.where(inside, full, 0.0)), 1e-14)
            assert np.array_equal(samples[b], grid.coeffs_to_values(coeffs[b], band=s))
        window = grid.full_window(grid.values_to_coeffs(values, band=s))
        assert_rel_close(window, np.where(inside, full_forward(grid, values), 0.0), 1e-14)
        assert np.all(window[~inside] == 0.0)
        u = SpectralField(grid, window[:, :K + 1])
        for k1 in range(-K, K + 1):
            for k2 in range(1, K + 1):
                assert u.get_mode(-k1, -k2) == np.conj(u.get_mode(k1, k2))
    assert np.array_equal(grid.coeffs_to_values(coeffs, band=K), grid.coeffs_to_values(coeffs))
    assert np.array_equal(grid.values_to_coeffs(values, band=K), grid.values_to_coeffs(values))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("K", [4, 10, 32])
def test_a_bands_own_half_window_transforms_as_the_window_at_that_band_bitwise(K, route,
                                                                              monkeypatch):
    monkeypatch.setattr(grid_module, "DFT_MAX_M", ROUTES[route])
    grid = TorusGrid(K)
    n = 2 * K + 1
    rng = np.random.default_rng([K, 9])
    half = rng.standard_normal((3, n, K + 1)) + 1j * rng.standard_normal((3, n, K + 1))
    for s in sorted({0, 1, K // 2, K - 1}):
        idx = np.fft.fftfreq(2 * s + 1, d=1.0 / (2 * s + 1)).astype(int)  # |kx| <= s, wrap order
        own = half[..., idx, :s + 1]
        samples = grid.coeffs_to_values(half, band=s)
        assert np.array_equal(grid.coeffs_to_values(own, band=s), samples)
        for b in range(3):
            assert np.array_equal(grid.coeffs_to_values(own[b], band=s), samples[b])


@pytest.mark.parametrize("route", ROUTES)
def test_transforms_reject_a_window_or_samples_of_another_shape(route, monkeypatch):
    monkeypatch.setattr(grid_module, "DFT_MAX_M", ROUTES[route])
    grid = TorusGrid(4)  # M = 18; the dense route is the K = 4 solver's
    M = grid.M
    for shape, band in (((9, 9), None), ((5, 5), None), ((9, 4), None), ((9, 10), None),
                        ((8, 9), None), ((10, 9), None), ((1, 5), None), ((9, 2), None),
                        ((9,), None), ((), None), ((2, 9, 4), None), ((9, 9), 2), ((5, 5), 2),
                        ((5, 4), 2), ((9, 8), 2), ((3, 2), 2), ((9,), 2)):
        with pytest.raises(ConfigurationError, match=r"half window \(\.\.\., 9, 5\)"):
            grid.coeffs_to_values(np.ones(shape, dtype=np.complex128), band=band)
    with pytest.raises(ConfigurationError, match=r"band=2 \(\.\.\., 5, 3\)"):
        grid.coeffs_to_values(np.ones((5, 4), dtype=np.complex128), band=2)
    for shape in ((M, M + 1), (M - 1, M), (M + 2, M), (1, M), (M,), ()):
        for band in (None, 2):
            with pytest.raises(ConfigurationError, match=rf"\(\.\.\., {M}, {M}\)"):
                grid.values_to_coeffs(np.ones(shape), band=band)


@pytest.mark.parametrize("route", ROUTES)
def test_a_batch_of_samples_transforms_as_each_slice_bitwise(route, monkeypatch):
    monkeypatch.setattr(grid_module, "DFT_MAX_M", ROUTES[route])
    grid = TorusGrid(10)
    values = np.random.default_rng(10).standard_normal((3, grid.M, grid.M))
    for band in (None, 4):
        batched = grid.values_to_coeffs(values, band=band)
        assert batched.shape == (3, 21, 11)
        for b in range(3):
            assert np.array_equal(batched[b], grid.values_to_coeffs(values[b], band=band))


@pytest.mark.parametrize("band", [-1, 5, 1.0, "2", True, np.float64(2.0)])
def test_bad_band_rejected(band):
    grid = TorusGrid(4)
    with pytest.raises(ConfigurationError):
        grid.coeffs_to_values(np.zeros((9, 5), dtype=np.complex128), band=band)
    with pytest.raises(ConfigurationError):
        grid.values_to_coeffs(np.zeros((grid.M, grid.M)), band=band)
