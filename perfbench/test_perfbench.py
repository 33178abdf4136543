"""Tests of the benchmark itself: each output check passes on the program's
output and fails on a wrong one; the tracer counts what ran; the command
prints every metric that BENCHMARK.json names."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from wickflow import snapshots, solver  # noqa: E402
from wickflow.besov import BesovSpec, besov_norm, build_partition  # noqa: E402
from wickflow.experiments import (  # noqa: E402
    ExperimentConfig,
    run_gaussian_exactness,
    run_simulate,
)
from wickflow.grid import TorusGrid  # noqa: E402
from wickflow.ou import sample_stationary  # noqa: E402


@pytest.fixture(scope="module")
def simulate_output(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("simulate"))
    cfg = ExperimentConfig(K=8, T=0.02, delta=1e-3, record_every=5, n_traj=1, master_seed=7,
                           formats=("csv", "wck1"))
    run_simulate(cfg, out_dir=out)
    K, M, fields = reference.read_wck1(os.path.join(out, "trajectory_000.wck1"))
    with open(os.path.join(out, "trajectory_000.csv"), encoding="utf-8") as fh:
        csv_text = fh.read()
    return cfg, K, M, fields, csv_text


def test_reference_reproduces_snapshot_and_perturbation_fails(simulate_output):
    cfg, K, M, fields, _ = simulate_output
    expected = reference.final_snapshot(K, M, cfg.a, cfg.delta, 20, cfg.master_seed, 0)
    assert checks.check_snapshot(fields[-1], expected) == []
    perturbed = fields[-1].copy()
    perturbed[3, 5] += 1e-8 * np.max(np.abs(perturbed))
    assert checks.check_snapshot(perturbed, expected)


def test_reference_with_doubled_counterterm_fails(simulate_output):
    cfg, K, M, fields, _ = simulate_output
    doubled = 2.0 * reference.stationary_counterterm(K)
    expected = reference.final_snapshot(K, M, cfg.a, cfg.delta, 20, cfg.master_seed, 0, c=doubled)
    assert checks.check_snapshot(fields[-1], expected)


def test_wick2_column_matches_snapshots_and_edits_fail(simulate_output):
    _, K, _, fields, csv_text = simulate_output
    c = reference.stationary_counterterm(K)
    assert len(fields) == 5
    assert checks.check_wick2_column(csv_text, fields, c) == []
    assert checks.check_wick2_column(csv_text, fields, 2.0 * c)
    lines = csv_text.strip().split("\n")
    col = lines[0].split(",").index("wick2")
    row = lines[2].split(",")
    row[col] = repr(float(row[col]) * (1.0 + 1e-6))
    edited = "\n".join(lines[:2] + [",".join(row)] + lines[3:])
    assert checks.check_wick2_column(edited, fields, c)
    assert checks.check_wick2_column(csv_text, fields[:-1], c)


def test_gaussian_check_fails_on_shifted_target_and_broken_symmetry():
    res = run_gaussian_exactness(K=4, a2=0.5, seed=3, n_chain=4000, n_traj=checks.GAUSS_TRAJ,
                                 T=2.0, delta=0.02)
    assert checks.check_gaussian(res, 0.5) == []
    shifted = lambda k, a2: 1.5 * checks.closed_form_variance(k, a2)  # noqa: E731
    assert checks.check_gaussian(res, 0.5, variance=shifted)
    res["sde"]["1_-2"]["mean"] *= 1.0 + 1e-9
    assert any("differs from mode -k" in p for p in checks.check_gaussian(res, 0.5))


def _invariance_results(z=0.5, acceptance=0.9):
    family = {f"obs{i}": {"z": z * (-1) ** i} for i in range(16)}
    return {"drift_at_delta": family, "drift_at_half_delta": dict(family),
            "negative_control": dict(family), "chain_acceptance": acceptance}


def test_invariance_check_bounds_and_finiteness():
    assert checks.check_invariance(_invariance_results()) == []
    assert checks.check_invariance(_invariance_results(z=checks.INVARIANCE_Z + 0.1))
    assert checks.check_invariance(_invariance_results(acceptance=1.0))
    assert checks.check_invariance(_invariance_results(acceptance=0.01))
    broken = _invariance_results()
    broken["negative_control"]["obs3"] = {"z": float("nan")}
    assert checks.check_invariance(broken)


def test_wick_check_fails_on_reversed_distances():
    good = {"fraction_monotone": 0.95, "mean_distances": [0.15, 0.07, 0.03]}
    assert checks.check_wick_convergence(good) == []
    assert checks.check_wick_convergence(dict(good, mean_distances=[0.03, 0.07, 0.15]))
    assert checks.check_wick_convergence(dict(good, fraction_monotone=0.85))


def test_besov_check_homogeneity_and_partition():
    grid = TorusGrid(8, max_degree=2)
    part = build_partition(grid)
    u = sample_stationary(grid, np.random.default_rng(1))
    spec = BesovSpec(-0.2)
    norm_u, norm_2u = besov_norm(u, spec, part), besov_norm(2.0 * u, spec, part)
    total = part.profiles.sum(axis=0)
    assert checks.check_besov(norm_u, norm_2u, total) == []
    assert checks.check_besov(norm_u, norm_2u * (1 + 1e-9), total)
    assert checks.check_besov(norm_u, norm_2u, total * (1 + 1e-9))


def test_fixed_bounds_match_their_formulas():
    a = 1e-5 / 27 / 2
    n = checks.GAUSS_TRAJ
    expected = {
        "complex": (stats.gamma.ppf(a, n) / n, stats.gamma.isf(a, n) / n),
        "real": (stats.chi2.ppf(a, n) / n, stats.chi2.isf(a, n) / n),
        "pooled": (stats.gamma.ppf(a, 12 * n) / (12 * n), stats.gamma.isf(a, 12 * n) / (12 * n)),
    }
    for key, (lo, hi) in expected.items():
        assert checks.GAUSS_BOUNDS[key] == pytest.approx((lo, hi), rel=1e-12)
    assert checks.CHAIN_Z == pytest.approx(stats.norm.isf(a), rel=1e-12)
    t = stats.t.isf(1e-5 / 32 / 2, checks.INVARIANCE_TRAJ - 1)
    assert checks.INVARIANCE_Z == pytest.approx(t, rel=1e-12)


def test_tracer_counts_solver_steps_and_restores_functions(monkeypatch):
    monkeypatch.delattr(snapshots, "write_snapshots")  # as if a later change removed it
    original = solver.step
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solver.step is not original
        cfg = solver.SolverConfig(delta=1e-3, T=0.01, record_every=5)
        solver.solve(None, None, 3, cfg, ExperimentConfig().polynomial(), grid=TorusGrid(4, 4))
        layers = tracer.round_metrics()
    finally:
        tracer.uninstall()
    assert solver.step is original
    assert tracer.missing == ["snapshots.write_snapshots"]
    assert layers["snapshots.write_snapshots.calls"] is None
    assert layers["solver.steps"] == 10
    # 2 per nonlinear term, 1 per tower rebuilt on 8 of the steps, 3 at the
    # start and 3 at each of the 2 records (tower plus X and Y samples)
    assert layers["grid.transforms_per_solver_step"] == pytest.approx((2 * 10 + 8 + 3 + 2 * 3) / 10)
    assert layers["solver.step.self_s"] > 0.0


def test_command_prints_every_metric_and_refuses_a_bare_directory(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in tracing.PER_LAYER]
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [*bench["command"], "--workload", "wick-k32", "--seed", "5", "--seconds", "0.1",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in bench[group]}
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([*bench["command"], "--workload", "wick-k32", "--seed", "5",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
