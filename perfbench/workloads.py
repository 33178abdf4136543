"""The four workloads: inputs made from the seed, one timed call, its check.

A workload object is built once per process (set-up); `call()` is the
round that gets timed and `check(out)` lists what is wrong with the
round's output.  Every round repeats the same inputs, so every round must
produce the same `fingerprint(out)` as the first.  `kernel` sizes the
calibration kernel: (K, fine-grid M, FFT pairs, loop steps, reference s).
"""

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import checks
import reference
from wickflow import cli
from wickflow.besov import BesovSpec, besov_norm, build_partition
from wickflow.experiments import (
    ExperimentConfig,
    run_gaussian_exactness,
    run_invariance,
    run_wick_convergence,
)
from wickflow.grid import SpectralField, TorusGrid


class Workload:
    def fingerprint(self, out):
        return json.dumps(out, sort_keys=True)

    def final_checks(self):
        """Checks made once per run, after the rounds."""
        return []


class GaussK4(Workload):
    """Criterion 5 in shape: quadratic model at K=4, pCN chain plus an SDE ensemble."""

    kernel = (4, 18, 70, 2000, 0.003)
    sizes = dict(K=4, a2=0.5, n_chain=4000, n_traj=checks.GAUSS_TRAJ, T=2.0, delta=0.02)

    def __init__(self, seed, scratch):
        self.seed = seed
        self.steps_per_round = self.sizes["n_traj"] * round(self.sizes["T"] / self.sizes["delta"])

    def call(self):
        return run_gaussian_exactness(seed=self.seed, **self.sizes)

    def check(self, res):
        return checks.check_gaussian(res, self.sizes["a2"])


class InvarianceK10(Workload):
    """Criterion 6 in shape: quartic model at K=10, pCN warm-up, three drift ensembles."""

    kernel = (10, 52, 30, 2000, 0.003)
    n_traj, T, delta = checks.INVARIANCE_TRAJ, 0.02, 1e-3

    def __init__(self, seed, scratch):
        burn_in, thinning = 500, 20
        self.cfg = ExperimentConfig(K=10, delta=self.delta, T=self.T, n_traj=self.n_traj,
                                    rho=0.3, burn_in=burn_in, thinning=thinning,
                                    n_steps=burn_in + self.n_traj * thinning,
                                    master_seed=seed, threads=1)
        self.cfg.validate()
        # delta, delta/2 and the negative control at delta
        self.steps_per_round = self.n_traj * 4 * round(self.T / self.delta)

    def call(self):
        return run_invariance(self.cfg, negative_control=True)

    def check(self, report):
        return checks.check_invariance(report["results"])


class SimulateK32(Workload):
    """The `simulate` command at K=32 in-process, writing CSV, JSON and WCK1."""

    kernel = (32, 162, 4, 2000, 0.0035)
    config = {"grid": {"K": 32}, "solver": {"delta": 1e-3, "T": 0.15, "record_every": 10},
              "ensemble": {"n_traj": 2}, "output": {"formats": ["csv", "json", "wck1"]}}

    def __init__(self, seed, scratch):
        self.seed = seed
        self.out = os.path.join(scratch, "simulate")
        os.makedirs(self.out, exist_ok=True)
        cfg_path = os.path.join(scratch, "simulate.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        self.argv = ["simulate", "--k", "32", "--threads", "1", "--config", cfg_path,
                     "--out", self.out, "--seed", str(seed)]
        self.cfg = cli.resolve_config(cli.build_parser().parse_args(self.argv))
        self.n_steps = round(self.cfg.T / self.cfg.delta)
        self.steps_per_round = self.cfg.n_traj * self.n_steps
        self.expected = None

    def call(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, code):
        if code != 0:
            return [f"simulate exited with {code}"]
        with open(os.path.join(self.out, "simulate_report.json"), encoding="utf-8") as fh:
            if json.load(fh)["pass"] is not True:
                return ["simulate report does not pass"]
        problems = []
        c = reference.stationary_counterterm(self.cfg.K)
        for i in range(self.cfg.n_traj):
            K, M, fields = reference.read_wck1(os.path.join(self.out, f"trajectory_{i:03d}.wck1"))
            with open(os.path.join(self.out, f"trajectory_{i:03d}.csv"), encoding="utf-8") as fh:
                problems += checks.check_wick2_column(fh.read(), fields, c)
            if i == 0:
                if self.expected is None:
                    self.expected = reference.final_snapshot(
                        K, M, self.cfg.a, self.cfg.delta, self.n_steps, self.seed, 0)
                problems += checks.check_snapshot(fields[-1], self.expected)
        return problems

    def fingerprint(self, code):
        digest = hashlib.sha256(str(code).encode())
        for name in sorted(os.listdir(self.out)):
            with open(os.path.join(self.out, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
        return digest.hexdigest()


class WickK32(Workload):
    """Criterion 11 in shape: Wick squares at nested cutoffs in a Besov norm at K=32."""

    kernel = (32, 130, 5, 2000, 0.0033)
    n_pairs = 48
    steps_per_round = 0

    def __init__(self, seed, scratch):
        self.seed = seed
        self.cfg = ExperimentConfig(master_seed=seed)
        self.grid = TorusGrid(32, max_degree=2)
        self.partition = build_partition(self.grid)

    def call(self):
        return run_wick_convergence(self.cfg, n_pairs=self.n_pairs)

    def check(self, report):
        return checks.check_wick_convergence(report["results"])

    def final_checks(self):
        values = np.random.default_rng([self.seed, 11]).standard_normal((self.grid.M, self.grid.M))
        u = SpectralField(self.grid, self.grid.values_to_coeffs(values))
        spec = BesovSpec(-0.2)
        return checks.check_besov(besov_norm(u, spec, self.partition),
                                  besov_norm(2.0 * u, spec, self.partition),
                                  self.partition.profiles.sum(axis=0))


WORKLOADS = {
    "gauss-k4": GaussK4,
    "invariance-k10": InvarianceK10,
    "simulate-k32": SimulateK32,
    "wick-k32": WickK32,
}
