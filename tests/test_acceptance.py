"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines as they
complete.  All experiments are deterministic given the seeds fixed here;
statistical criteria use the pre-registered 3-standard-error rules.  The
heavy invariance criterion dominates the runtime (about 100 s of a 165-s
tier-1 run on a 2-core host with Python 3.11 and numpy 2.4); criterion 5
takes 35-50 s and everything else seconds.
"""

import math

import numpy as np
import pytest

from wickflow import (
    OUNoisePath,
    PolynomialSpec,
    SpectralField,
    TorusGrid,
    binomial_identity_check,
    convert_tower,
    counterterm_C,
    ct_tower,
    field_tower,
    hermite,
    ou_step,
    recombine,
    sample_stationary,
    substream,
    wick_power,
)
from wickflow.besov import BesovSpec, besov_norm, build_partition
from wickflow.experiments import (
    ExperimentConfig,
    run_equivalence,
    run_gaussian_exactness,
    run_invariance,
    run_regularity,
    run_wick_convergence,
)
from wickflow.ou import step_constants
from wickflow.solver import SolverConfig, step
from oracles import heat_norm_curve


def report(num, name, passed, detail):
    line = f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}  {name}: {detail}"
    print("\n" + line)
    assert passed, line


def test_criterion_01_hermite_binomial_identity():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for n in range(11):
        for _ in range(1000):
            s, t = rng.uniform(-5.0, 5.0, 2)
            worst = max(worst, binomial_identity_check(n, s, t))
    report(1, "Hermite binomial identity", worst < 1e-12,
           f"max residual {worst:.3e} over n <= 10, 10^3 draws each")


def test_criterion_02_covariance_conversion():
    grid = TorusGrid(8, max_degree=6)
    cC = counterterm_C(grid)
    worst = 0.0
    rng = substream(2026, 0, 1)
    for t in (0.01, 0.1, 1.0):
        for _ in range(100):
            z = ou_step(SpectralField.zero(grid), t, rng)
            tower = convert_tower(ct_tower(z, t, 6))
            for n in range(6):
                lhs = tower.order(n).coeffs
                rhs = wick_power(z, n, cC).coeffs
                worst = max(worst, float(
                    np.max(np.abs(lhs - rhs)) / (1.0 + np.max(np.abs(lhs)))))
    report(2, "covariance conversion identity", worst < 1e-12,
           f"max relative residual {worst:.3e}, n <= 5, K = 8, 100 samples x 3 times")


def test_criterion_03_recombination_identity():
    grid = TorusGrid(8, max_degree=6)
    c = counterterm_C(grid)
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng([2026, 3, i])
        u, z = sample_stationary(grid, rng), sample_stationary(grid, rng)
        tower = field_tower(z, c, 6)
        for n in range(6):
            lhs = recombine(u - z, tower, n).coeffs
            rhs = wick_power(u, n, c).coeffs
            worst = max(worst, float(
                np.max(np.abs(lhs - rhs)) / (1.0 + np.max(np.abs(rhs)))))
    report(3, "recombination identity", worst < 1e-10,
           f"max relative residual {worst:.3e}, n <= 5, K = 8")


def test_criterion_04_free_field_calibration():
    worst_z = 0.0
    detail = []
    for K in (4, 8):
        grid = TorusGrid(K)
        c = counterterm_C(grid)
        rng = np.random.default_rng([2026, 4, K])
        n = 10_000
        stats = np.empty(n)
        for i in range(n):
            phi = sample_stationary(grid, rng)
            # spatial mean of phi(x)^2 via Parseval; expectation is c exactly
            stats[i] = np.sum(np.abs(grid.full_window(phi.coeffs)) ** 2) / (2 * np.pi) ** 2
        z = (stats.mean() - c) / (stats.std(ddof=1) / math.sqrt(n))
        worst_z = max(worst_z, abs(z))
        detail.append(f"K={K}: z={z:+.2f}")
    report(4, "free-field calibration", worst_z <= 3.0, ", ".join(detail))


def test_criterion_05_gaussian_submodel_exactness():
    res = run_gaussian_exactness(K=4, a2=0.5, seed=2026, n_chain=200_000,
                                 n_traj=1024, T=6.0, delta=0.01)
    k0_chain = res["chain"]["0_0"]
    k0_sde = res["sde"]["0_0"]
    detail = (f"chain max |z| = {res['max_abs_z_chain']:.2f}, "
              f"sde max |z| = {res['max_abs_z_sde']:.2f}; k=0 variance "
              f"chain {k0_chain['mean']:.4f} / sde {k0_sde['mean']:.4f} vs 1/3")
    report(5, "Gaussian submodel exactness", res["pass"], detail)


@pytest.mark.slow
def test_criterion_06_invariance_of_gibbs_measure():
    cfg = ExperimentConfig(K=10, delta=5e-4, T=0.5, n_traj=256, rho=0.3,
                           burn_in=3000, thinning=120, master_seed=0, threads=2)
    rep = run_invariance(cfg, negative_control=True)
    r = rep["results"]
    detail = (f"max |z| at delta = {r['max_abs_z_delta']:.2f}, "
              f"at delta/2 = {r['max_abs_z_half_delta']:.2f}; "
              f"negative control max |z| = {r['negative_control_max_abs_z']:.2f}")
    report(6, "invariance of the Gibbs measure", rep["pass"], detail)


def test_criterion_07_splitting_equivalence():
    rep = run_equivalence(ExperimentConfig(master_seed=2026))
    r = rep["results"]
    detail = (f"fitted order {r['fitted_order']:.3f} over deltas {r['deltas']}, "
              f"coupled same-step gap {max(r['coupled_same_delta_gap']):.2e}")
    report(7, "splitting equivalence", rep["pass"], detail)


def test_criterion_08_scheme_convergence_linear():
    grid = TorusGrid(2)
    P = PolynomialSpec.quadratic(0.5)
    zeros = np.zeros((grid.M, grid.M))  # the samples of zbar = 0
    y0 = SpectralField.zero(grid)
    y0.set_mode(0, 0, 1.0)
    y0.set_mode(1, 0, 0.5)
    y0.set_mode(-1, 0, 0.5)
    errors = []
    for delta in (0.01, 0.005, 0.0025):
        cfg = SolverConfig(delta=delta, T=1.0)
        decay, _, weight = step_constants(grid, cfg.delta)
        Y = y0.coeffs
        for _ in range(cfg.n_steps):
            Y = step(grid, Y, zeros, decay, weight, P, 0.0)
        Y = SpectralField(grid, Y)
        err = max(
            abs(Y.get_mode(0, 0).real - np.exp(-(1 + 1.0))),      # lambda = 1
            abs(Y.get_mode(1, 0).real - 0.5 * np.exp(-(2 + 1.0))),  # lambda = 2
        )
        errors.append(err)
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    ok = all(1.7 <= r <= 2.3 for r in ratios)
    report(8, "linear scheme convergence", ok,
           f"errors {['%.2e' % e for e in errors]}, ratios {['%.2f' % r for r in ratios]}")


def test_criterion_09_regularity_bands():
    rep = run_regularity(ExperimentConfig(master_seed=2026), n_runs=100)
    r = rep["results"]
    detail = (f"alpha(Z) in [-0.3, 0.05]: {r['alpha_Z']['frac_in_band']:.0%} "
              f"(mean {r['alpha_Z']['mean']:+.3f}); "
              f"alpha(Y) >= 0.5: {r['alpha_Y']['frac_above_0.5']:.0%} "
              f"(mean {r['alpha_Y']['mean']:+.3f})")
    report(9, "regularity bands", rep["pass"], detail)


def test_criterion_10_besov_machinery():
    grid = TorusGrid(16)
    part = build_partition(grid)
    residual = part.sum_residual()
    rng = np.random.default_rng([2026, 10])
    recon_worst = 0.0
    for _ in range(5):
        u = sample_stationary(grid, rng)
        total = np.zeros_like(u.coeffs)
        for j in range(-1, part.j_max + 1):
            total += u.coeffs * part.multiplier(j)[:, :grid.K + 1]
        recon_worst = max(recon_worst, float(np.max(np.abs(total - u.coeffs))))

    # Schauder smoothing at delta = 0.5 from the field's own regularity
    # scale (alpha = -0.2, the measured block-decay exponent of the
    # truncated free field): ratio bounded by 10, small-t log-slope of the
    # smoothed norm near -delta/2
    alpha, delta = -0.2, 0.5
    t_grid = np.geomspace(0.002, 0.05, 8)
    ratios, slopes = [], []
    for i in range(30):
        u = sample_stationary(grid, np.random.default_rng([2026, 10, i]))
        base = besov_norm(u, BesovSpec(alpha), part)
        curve = heat_norm_curve(u, BesovSpec(alpha + delta), t_grid, part)
        ratios.append(float(np.max(t_grid ** (delta / 2) * curve / base)))
        slopes.append(float(np.polyfit(np.log(t_grid), np.log(curve), 1)[0]))
    max_ratio = max(ratios)
    mean_slope = float(np.mean(slopes))
    ok = (residual < 1e-12 and recon_worst < 1e-12 and max_ratio < 10.0
          and -delta / 2 - 0.1 <= mean_slope <= -delta / 2 + 0.1)
    report(10, "Besov machinery", ok,
           f"partition residual {residual:.1e}, reconstruction {recon_worst:.1e}, "
           f"smoothing ratio {max_ratio:.2f}, small-t slope {mean_slope:.3f} "
           f"(band [{-delta/2-0.1:.2f}, {-delta/2+0.1:.2f}])")


def test_criterion_11_wick_power_convergence():
    rep = run_wick_convergence(ExperimentConfig(master_seed=2026), n_pairs=200)
    r = rep["results"]
    detail = (f"monotone in {r['fraction_monotone']:.0%} of 200 paired samples, "
              f"mean windowed distances {['%.3f' % d for d in r['mean_distances']]}")
    report(11, "Wick-power convergence across cutoffs", rep["pass"], detail)
