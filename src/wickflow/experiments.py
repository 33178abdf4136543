"""The experiment suites behind the command-line front end.

Every suite is a pure function of an `ExperimentConfig`: deterministic
given (config, master_seed) in sequential mode, returning a JSON-ready
report that states the parameters that ran and a version string.  Each
command is declared once, by `command` on its suite: the config fields the
suite reads (the CLI accepts their keys and flags), the fields it fixes
itself, and its summary lines.  Statistical pass/fail rules are fixed here
(3 combined standard errors, pre-registered observable lists); nothing is
tuned per run.
"""

import contextlib
import functools
import math
import numbers
import os
import subprocess
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .besov import BesovSpec, besov_norm, build_partition, regularity_estimate
from .errors import BlowUpError, ConfigurationError, WarmupError
from .grid import SpectralField, TorusGrid, apply_semigroup
from .ou import (
    OUNoisePath, build_tower, convert_tower, ct_tower, ou_step, sample_stationary, substream,
)
from .sampler import (
    MIN_ACCEPTANCE, ChainState, gibbs_samples, integrated_autocorrelation, observables, run_chain,
)
from .snapshots import write_snapshots
from .solver import SolverConfig, Trajectory, solve, stationary_solve
from .wick import (
    PolynomialSpec,
    binomial_identity_check,
    counterterm_C,
    counterterm_t,
    field_tower,
    hermite,
    hermite_variance,
    recombine,
    wick_power,
)


@functools.cache
def version_string() -> str:
    """Package version plus `git describe` of the checkout, looked up once per process."""
    try:
        desc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        tag = desc.stdout.strip() if desc.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        tag = ""
    return f"wickflow {__version__}" + (f" ({tag})" if tag else "")


def _param(default, key: str, flag: str | None = None, help: str | None = None):
    """A config field set by the config-file `key` ("section.key") and, if named, a flag."""
    return field(default=default, metadata={"key": key, "flag": flag, "help": help})


@dataclass
class ExperimentConfig:
    """Resolved run configuration; each field names its config-file key
    (sections mirror the schema) and its command-line flag, if any."""

    K: int = _param(8, "grid.K", "--k")
    dealiasing_degree: int = _param(4, "grid.dealiasing_degree")
    N: int = _param(2, "polynomial.N")
    a: tuple = _param((0.0, 0.0, 0.0, 0.0, 0.25), "polynomial.a")
    delta: float = _param(1e-3, "solver.delta", "--dt")
    T: float = _param(0.25, "solver.T")
    record_every: int = _param(50, "solver.record_every")
    rho: float = _param(0.3, "sampler.rho")
    n_steps: int = _param(20000, "sampler.n_steps")
    burn_in: int = _param(3000, "sampler.burn_in")
    thinning: int = _param(120, "sampler.thinning")
    n_traj: int = _param(4, "ensemble.n_traj")
    master_seed: int = _param(0, "ensemble.master_seed", "--seed")
    out_dir: str = _param("wickflow-out", "output.dir", "--out")
    formats: tuple = _param(("csv", "json"), "output.formats")
    threads: int = _param(1, "threads", "--threads", "trajectory-level parallelism "
                          "(default: available cores; 1 = reproducibility reference)")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build and validate a config; unknown sections or keys are errors."""
        cfg = cls(**config_fields(data))
        cfg.validate()
        return cfg

    def validate(self) -> None:
        types = {int: numbers.Integral, float: numbers.Real, str: str, tuple: (list, tuple)}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, types[f.type]):
                raise ConfigurationError(f"{f.name} must be {f.type.__name__}, got {value!r}")
            if f.type is float:
                setattr(self, f.name, _finite_float(f.name, value))
        if any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in self.a):
            raise ConfigurationError(f"coefficients a must be numbers, got {self.a!r}")
        if not all(isinstance(x, str) for x in self.formats):
            raise ConfigurationError(f"formats must be strings, got {self.formats!r}")
        self.a = tuple(_finite_float("a", x) for x in self.a)
        self.formats = tuple(self.formats)
        PolynomialSpec(self.N, self.a)  # enforces a_{2N} > 0 and the coefficient count
        if self.K < 0:
            raise ConfigurationError("K must be >= 0")
        if self.dealiasing_degree < 1:  # TorusGrid's own max_degree rule
            raise ConfigurationError("dealiasing_degree must be >= 1")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be >= 0")
        self.solver_config().n_steps  # 0 < delta <= T, record_every >= 1, whole finite steps
        if self.burn_in < 0 or self.thinning < 1:
            raise ConfigurationError("need burn_in >= 0 and thinning >= 1")
        if not (0 < self.rho <= 1):
            raise ConfigurationError("rho must lie in (0, 1]")
        if self.n_traj < 1:
            raise ConfigurationError("n_traj must be >= 1")
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")
        bad = set(self.formats) - {"csv", "json", "wck1"}
        if bad:
            raise ConfigurationError(f"unknown output formats: {sorted(bad)}")

    def polynomial(self) -> PolynomialSpec:
        return PolynomialSpec(self.N, self.a)

    def grid(self) -> TorusGrid:
        return TorusGrid(self.K, max_degree=max(self.dealiasing_degree, 2 * self.N))

    def solver_config(self) -> SolverConfig:
        return SolverConfig(delta=self.delta, T=self.T, record_every=self.record_every)


def _finite_float(name: str, value) -> float:
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")
    return value


KEYS = {f.name: f.metadata["key"] for f in fields(ExperimentConfig)}  # field -> config key


def config_fields(data) -> dict:
    """The fields a config file sets, by name; unknown sections or keys are errors."""
    if not isinstance(data, dict):
        raise ConfigurationError("a config must be a JSON object")
    names = {key: name for name, key in KEYS.items()}
    kw = {}
    for section, body in data.items():
        if section in names:  # a top-level key: threads
            kw[names[section]] = body
        elif section not in {key.partition(".")[0] for key in names}:
            raise ConfigurationError(f"unknown config section {section!r}")
        elif not isinstance(body, dict):
            raise ConfigurationError(f"config section {section!r} must be an object")
        elif unknown := sorted(key for key in body if f"{section}.{key}" not in names):
            raise ConfigurationError(f"unknown keys in section {section!r}: {unknown}")
        else:
            kw.update((names[f"{section}.{key}"], value) for key, value in body.items())
    return kw


class Suite(NamedTuple):
    """One command: its suite, the fields it reads and fixes, its summary lines."""
    run: Callable
    reads: frozenset
    fixed: dict
    summary: Callable


SUITES = {}  # command name -> Suite, in the order the suites are declared


def command(name: str, reads, summary=lambda results: (), **fixed):
    """Declare the decorated suite as the command `name`: it reads the fields
    `reads` and runs on a copy of its config with the fields in `fixed` set;
    its report states both, and the CLI prints `summary(results)`."""
    def declare(run):
        @functools.wraps(run)
        def suite(cfg, *args, **kwargs):
            return run(replace(cfg, **fixed), *args, **kwargs)

        SUITES[name] = Suite(suite, frozenset(reads), fixed, summary)
        return suite
    return declare


MODEL = ("dealiasing_degree", "N", "a")  # the fields of the model: its grid padding and P


def _report(name: str, cfg: ExperimentConfig, results: dict, passed, **ran) -> dict:
    """The report of command `name`.  Its `config` states what ran: the fields
    the command reads or fixes, then `ran`, the suite's own constants,
    keyword arguments and derived sizes."""
    suite = SUITES[name]
    stated = {f.name: getattr(cfg, f.name) for f in fields(cfg)
              if f.name in suite.reads or f.name in suite.fixed}
    return {
        "experiment": name.replace("-", "_"),
        "version": version_string(),
        "config": {**stated, **ran},
        "results": results,
        "pass": bool(passed) if passed is not None else None,
    }


def _sizes(grid: TorusGrid, P: PolynomialSpec) -> dict:
    """M of the observation grid and of the compute grid the dynamics runs on."""
    return {"M": grid.M, "compute_M": grid.compute_grid(P.degree).M}


@contextlib.contextmanager
def _noise_stream(seed: int, i: int):
    """Trajectory i's noise stream (seed, i, 1), named in a `BlowUpError` raised inside."""
    try:
        yield substream(seed, i, 1)
    except BlowUpError as err:
        err.trajectory, err.stream = i, (seed, i, 1)
        raise


def _check_warmup(acceptance_rate: float) -> None:
    """The warm-up rule of the chain suites: exit 4 below `MIN_ACCEPTANCE`."""
    if acceptance_rate < MIN_ACCEPTANCE:
        raise WarmupError(f"chain warm-up failure: acceptance {acceptance_rate:.2%} "
                          f"below {MIN_ACCEPTANCE:.0%}")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _trajectory_rows(traj: Trajectory):
    names = sorted(traj.observables)
    header = ["t"] + names
    rows = []
    for i, t in enumerate(traj.times):
        rows.append([float(t)] + [float(traj.observables[k][i]) for k in names])
    return header, rows


@command("simulate", ("K", *MODEL, "delta", "T", "record_every", "n_traj", "master_seed",
                      "out_dir", "formats"))
def run_simulate(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Integrate `n_traj` trajectories of the shifted equation and dump observables."""
    grid = cfg.grid()
    P = cfg.polynomial()
    scfg = cfg.solver_config()
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    sups = []
    defect = 0.0
    for i in range(cfg.n_traj):
        with _noise_stream(cfg.master_seed, i) as rng:
            traj = solve(None, None, rng, scfg, P, grid=grid)
        sups.append(float(traj.observables["sup_Y"][-1]))
        defect = max(defect, float(traj.reconstruction_defect))
        if "csv" in cfg.formats:
            header, rows = _trajectory_rows(traj)
            _write_csv(os.path.join(out, f"trajectory_{i:03d}.csv"), header, rows)
        if "wck1" in cfg.formats:
            write_snapshots(os.path.join(out, f"trajectory_{i:03d}.wck1"), traj.X)
    results = {"n_traj": cfg.n_traj, "final_sup_Y": sups,
               "max_reconstruction_defect": defect}
    return _report("simulate", cfg, results, all(np.isfinite(sups)), out_dir=out,
                   **_sizes(grid, P), solver_steps=scfg.n_steps)


@command("gibbs", ("K", *MODEL, "rho", "n_steps", "burn_in", "thinning", "master_seed",
                   "out_dir", "formats"))
def run_gibbs(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Run the pCN chain, dump thinned samples and diagnostics; a chain that warms up passes."""
    grid = cfg.grid()
    P = cfg.polynomial()
    c = counterterm_C(grid)
    rng = substream(cfg.master_seed, 0, 0)
    state = ChainState.initial(sample_stationary(grid, rng), P, c, rng)
    result = run_chain(state, cfg.n_steps, cfg.burn_in, cfg.thinning, cfg.rho, P, c)
    _check_warmup(result.acceptance_rate)
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    if "csv" in cfg.formats:
        rows = [[i, float(v)] for i, v in enumerate(result.observables["wick2"])]
        _write_csv(os.path.join(out, "chain_wick2.csv"), ["index", "wick2"], rows)
    if "wck1" in cfg.formats and result.samples:
        write_snapshots(os.path.join(out, "chain_samples.wck1"), result.samples)
    results = {
        "acceptance_rate": result.acceptance_rate,
        "iat_wick2": result.iat_wick2,
        "n_samples": len(result.samples),
    }
    return _report("gibbs", cfg, results, True, out_dir=out, **_sizes(grid, P))


@command("identities", ("master_seed",), lambda r: (
    f"{name:<24s} max residual {v:.3e}  {'ok' if v < 1e-10 else 'FAIL'}"
    for name, v in r["max_residuals"].items()),
    K=8, dealiasing_degree=6, N=2, a=(0.0, 0.0, 0.0, 0.0, 0.25), delta=1e-3, T=0.02, record_every=5)
def run_identities(cfg: ExperimentConfig) -> dict:
    """Deterministic identity suites; PASS iff every residual < 1e-10.

    Residuals are relative: |lhs - rhs| / (1 + |lhs|), elementwise max.
    """
    seed = cfg.master_seed
    out = {}

    rng = np.random.default_rng([seed, 101])
    worst = 0.0
    for n in range(11):
        for _ in range(100):
            s, t = rng.uniform(-5, 5, 2)
            worst = max(worst, binomial_identity_check(n, s, t) / (1 + abs(hermite(n, s + t))))
    out["hermite_binomial"] = worst

    # covariance conversion, n <= 5, K = 8, OU samples at several times
    g = cfg.grid()
    cC = counterterm_C(g)
    zero = SpectralField.zero(g)
    worst = 0.0
    rng = substream(seed, 0, 1)
    for t in (0.01, 0.1, 1.0):
        for _ in range(20):
            z = ou_step(zero, t, rng)
            tower = convert_tower(ct_tower(z, t, 6))
            for n in range(6):
                lhs = tower.order(n).coeffs
                rhs = wick_power(z, n, cC).coeffs
                worst = max(worst, float(np.max(np.abs(lhs - rhs)) / (1 + np.max(np.abs(lhs)))))
    out["covariance_conversion"] = worst

    # recombination, n <= 5, random band-limited fields
    worst = 0.0
    for i in range(20):
        r = np.random.default_rng([seed, 103, i])
        u, z = sample_stationary(g, r), sample_stationary(g, r)
        tower = field_tower(z, cC, 6)
        for n in range(6):
            lhs = recombine(u - z, tower, n).coeffs
            rhs = wick_power(u, n, cC).coeffs
            worst = max(worst, float(np.max(np.abs(lhs - rhs)) / (1 + np.max(np.abs(rhs)))))
    out["recombination"] = worst

    # initial-datum tower vs direct Wick power of zbar
    worst = 0.0
    rng = substream(seed, 0, 2)
    for t in (0.05, 0.5):
        z = ou_step(zero, t, rng)
        z0 = sample_stationary(g, rng)
        tower = build_tower(z, z0, t, 6)
        zbar = z + apply_semigroup(z0, t)
        for n in range(6):
            lhs = tower.order(n).coeffs
            rhs = wick_power(zbar, n, cC).coeffs
            worst = max(worst, float(np.max(np.abs(lhs - rhs)) / (1 + np.max(np.abs(rhs)))))
    out["initial_datum_tower"] = worst

    # reconstruction along a short quartic run: X(T) - Y(T) against
    # zbar(T) = Z(T) + e^{TA} z0, with Z(T) composed from the run's own noise path
    scfg = cfg.solver_config()
    P = cfg.polynomial()
    n = scfg.n_steps
    path = OUNoisePath(g, scfg.delta, n, substream(seed, 1, 1))
    z0 = sample_stationary(g, substream(seed, 1, 0))
    traj = solve(None, z0, path, scfg, P)
    zbar = path.coarsen(n).innovations[0] + apply_semigroup(z0, scfg.T).coeffs
    out["reconstruction"] = float(np.max(np.abs(traj.X[-1].coeffs - traj.Y[-1].coeffs - zbar)))

    return _report("identities", cfg, {"max_residuals": out}, all(v < 1e-10 for v in out.values()),
                   **_sizes(g, P), solver_steps=n)


def _pmap(fn, payloads, threads):
    # the pool starts all its workers at once: no more than payloads or cores
    workers = min(threads, len(payloads), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(p) for p in payloads]
    from concurrent.futures import ProcessPoolExecutor  # imported here: it loads multiprocessing

    chunk = max(1, len(payloads) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, payloads, chunksize=chunk))


def _drift_end(scfg, P, c, c_obs, seed, item):
    """Observables (counterterm c_obs) at time T of trajectory i, started from
    the Gibbs sample eta and run with counterterm c."""
    i, eta = item
    with _noise_stream(seed, i) as rng:
        traj = stationary_solve(eta, rng, scfg, P, c=c)
    return observables(traj.X[-1], P, c_obs)


def _drift_zscores(samples, start_obs, cfg, scfg, c, c_obs, seed):
    """Paired drift z-score of every observable of `sampler.observables`;
    `start_obs[i]` holds the observables of `samples[i]`, and the dynamics
    runs on `scfg` with counterterm c."""
    end = functools.partial(_drift_end, scfg, cfg.polynomial(), c, c_obs, seed)
    end_obs = _pmap(end, list(enumerate(samples)), cfg.threads)
    stats = {}
    for name in start_obs[0]:
        start = np.asarray([o0[name] for o0 in start_obs])
        end = np.asarray([oT[name] for oT in end_obs])
        d = end - start
        se = d.std(ddof=1) / math.sqrt(len(d))  # combined SE of the paired drift
        stats[name] = {
            "mean0": float(np.mean(start)),
            "meanT": float(np.mean(end)),
            "se": float(se),
            "z": float(d.mean() / se) if se > 0 else 0.0,
        }
    return stats


def _invariance_lines(results):
    for tag in ("drift_at_delta", "drift_at_half_delta"):
        stats = results[tag]
        worst = max(stats, key=lambda n: abs(stats[n]["z"]))
        yield f"{tag}: max |z| = {abs(stats[worst]['z']):.2f} ({worst})"
    if (z := results.get("negative_control_max_abs_z")) is not None:
        yield f"negative control max |z| = {z:.2f} (must exceed 3)"


@command("invariance", ("K", *MODEL, "delta", "T", "rho", "burn_in", "thinning", "n_traj",
                        "master_seed", "threads"), _invariance_lines)
def run_invariance(cfg: ExperimentConfig, negative_control: bool = True) -> dict:
    """Drift test of the Gibbs measure under the measure-preserving dynamics.

    Pre-registered rule: evolve `n_traj` Gibbs samples to T at step delta
    and delta/2, compute the paired drift z-score of every registered
    observable.  PASS iff all |z| <= 3 at delta/2 AND (all |z| <= 3 at
    delta OR the worst |z| shrinks when the step is halved) - an O(delta)
    scheme bias must shrink with the step, genuine non-invariance does not.
    The negative control reruns the coarse test with all counterterms
    doubled inside the dynamics (observables and initial chain keep the
    true counterterm) and must FAIL, i.e. some registered |z| > 3.
    """
    if cfg.n_traj < 2:  # a drift's standard error needs two trajectories
        raise ConfigurationError(f"invariance needs n_traj >= 2, got {cfg.n_traj}")
    grid = cfg.grid()
    P = cfg.polynomial()
    c_obs = counterterm_C(grid)
    rng = substream(cfg.master_seed, 0, 0)
    samples, chain = gibbs_samples(grid, P, c_obs, cfg.n_traj, cfg.rho,
                                   cfg.burn_in, cfg.thinning, rng)
    _check_warmup(chain.acceptance_rate)
    start = [observables(eta, P, c_obs) for eta in samples]

    full, half = (SolverConfig(delta=d, T=cfg.T) for d in (cfg.delta, cfg.delta / 2))
    stats_d = _drift_zscores(samples, start, cfg, full, c_obs, c_obs, seed=cfg.master_seed + 1)
    stats_h = _drift_zscores(samples, start, cfg, half, c_obs, c_obs, seed=cfg.master_seed + 2)
    zmax_d = max(abs(s["z"]) for s in stats_d.values())
    zmax_h = max(abs(s["z"]) for s in stats_h.values())
    passed = (zmax_h <= 3.0) and (zmax_d <= 3.0 or zmax_h < zmax_d)

    results = {
        "chain_acceptance": chain.acceptance_rate,
        "chain_iat_wick2": chain.iat_wick2,
        "drift_at_delta": stats_d,
        "drift_at_half_delta": stats_h,
        "max_abs_z_delta": zmax_d,
        "max_abs_z_half_delta": zmax_h,
    }

    if negative_control:
        stats_b = _drift_zscores(samples, start, cfg, full, 2.0 * c_obs, c_obs,
                                 seed=cfg.master_seed + 3)
        zmax_b = max(abs(s["z"]) for s in stats_b.values())
        results["negative_control"] = stats_b
        results["negative_control_max_abs_z"] = zmax_b
        results["negative_control_fails"] = zmax_b > 3.0
        passed = passed and (zmax_b > 3.0)

    return _report("invariance", cfg, results, passed, negative_control=negative_control,
                   deltas=[full.delta, half.delta], solver_steps=[full.n_steps, half.n_steps],
                   **_sizes(grid, P))


def _mode_powers(fields, modes) -> dict:
    """{k: [|phi_k|^2 for phi in fields]}: each field's modes gathered by one
    index, squared by Python's complex abs as `abs(phi.get_mode(*k)) ** 2` is."""
    n = 2 * fields[0].grid.K + 1
    idx = np.array(modes) % n
    picked = np.array([phi.coeffs[idx[:, 0], idx[:, 1]] for phi in fields])
    return {k: [abs(z) ** 2 for z in col.tolist()] for k, col in zip(modes, picked.T)}


def run_gaussian_exactness(K: int = 4, a2: float = 0.5, seed: int = 0,
                           n_chain: int = 200_000, n_traj: int = 1024,
                           T: float = 6.0, delta: float = 0.01) -> dict:
    """Mode variances of the quadratic model against 1/(2(lambda_k + a2)):
    criterion 5 of the acceptance suite, not a command.

    Checks the pCN equilibrium and the long-time marginal of the
    measure-preserving dynamics (ensemble from zero initial data).
    """
    grid = TorusGrid(K, max_degree=2)
    P = PolynomialSpec.quadratic(a2)
    c = counterterm_C(grid)
    modes = [(k1, k2) for k1 in range(-2, 3) for k2 in range(-2, 3)]
    target = {k: 1.0 / (2.0 * (1 + k[0]**2 + k[1]**2 + a2)) for k in modes}

    # every 10th state from the 10% burn-in on, to step n_chain
    burn = n_chain // 10
    samples, _ = gibbs_samples(grid, P, c, len(range(burn, n_chain, 10)), 0.5, burn, 10,
                               substream(seed, 0, 0))
    chain_vals = _mode_powers(samples, modes)

    finals = []
    scfg = SolverConfig(delta=delta, T=T)
    for i in range(n_traj):
        with _noise_stream(seed, i) as rng:
            finals.append(stationary_solve(SpectralField.zero(grid), rng, scfg, P).X[-1])
    sde_vals = _mode_powers(finals, modes)

    def zscores(values):
        out = {}
        for k in modes:
            v = np.asarray(values[k])
            se = v.std(ddof=1) / math.sqrt(v.size)
            # chain samples are thinned but still correlated: inflate by IAT
            out[f"{k[0]}_{k[1]}"] = {
                "mean": float(v.mean()), "target": target[k],
                "z": float((v.mean() - target[k]) / se), "se": float(se),
            }
        return out

    chain_stats = zscores(chain_vals)
    sde_stats = zscores(sde_vals)
    # correct the chain z for autocorrelation of the thinned series
    for k in modes:
        series = np.asarray(chain_vals[k])
        tau = integrated_autocorrelation(series)
        entry = chain_stats[f"{k[0]}_{k[1]}"]
        entry["z"] = entry["z"] / math.sqrt(tau)
        entry["iat"] = float(tau)
    cz = max(abs(v["z"]) for v in chain_stats.values())
    sz = max(abs(v["z"]) for v in sde_stats.values())
    return {
        "chain": chain_stats, "sde": sde_stats,
        "max_abs_z_chain": cz, "max_abs_z_sde": sz,
        "pass": bool(cz <= 3.0 and sz <= 3.0),
    }


@command("regularity", (*MODEL, "master_seed"), lambda r: [
    f"alpha(Z) in band: {r['alpha_Z']['frac_in_band']:.2%}, "
    f"alpha(Y) >= 0.5: {r['alpha_Y']['frac_above_0.5']:.2%}"], K=16, T=0.1, delta=1e-3)
def run_regularity(cfg: ExperimentConfig, n_runs: int = 100) -> dict:
    """Regularity-exponent bands for the rough part, its Wick square, and Y.

    Quartic runs at K = 16 to T = 0.1; pre-registered bands:
    alpha(Z) in [-0.3, 0.05], alpha(Y) >= 0.5, each in >= 95% of runs.
    """
    grid = cfg.grid()
    part = build_partition(grid)
    P = cfg.polynomial()
    c_CT = counterterm_C(grid) + counterterm_t(grid, cfg.T)  # the variance of Z(T)
    scfg = SolverConfig(delta=cfg.delta, T=cfg.T)
    a_z, a_z2, a_y = [], [], []
    rows = []
    for i in range(n_runs):
        with _noise_stream(cfg.master_seed, i) as rng:
            traj = solve(None, None, rng, scfg, P, grid=grid)
        Z = traj.zbar[-1]
        Y = traj.Y[-1]
        z2 = wick_power(Z, 2, c_CT)
        az, rz = regularity_estimate(Z, part)
        az2, _ = regularity_estimate(z2, part)
        ay, ry = regularity_estimate(Y, part)
        a_z.append(az), a_z2.append(az2), a_y.append(ay)
        rows.append((i, az, az2, ay))
    a_z, a_z2, a_y = map(np.asarray, (a_z, a_z2, a_y))
    frac_z = float(np.mean((a_z >= -0.3) & (a_z <= 0.05)))
    frac_y = float(np.mean(a_y >= 0.5))
    results = {
        "n_runs": n_runs,
        "alpha_Z": {"mean": float(a_z.mean()), "min": float(a_z.min()),
                    "max": float(a_z.max()), "frac_in_band": frac_z},
        "alpha_wick2_Z": {"mean": float(a_z2.mean()), "min": float(a_z2.min()),
                          "max": float(a_z2.max())},
        "alpha_Y": {"mean": float(a_y.mean()), "min": float(a_y.min()),
                    "frac_above_0.5": frac_y},
        "rows": rows,
    }
    return _report("regularity", cfg, results, frac_z >= 0.95 and frac_y >= 0.95,
                   n_runs=n_runs, **_sizes(grid, P), solver_steps=scfg.n_steps)


@command("equivalence", (*MODEL, "master_seed"), lambda r: [
    f"fitted order {r['fitted_order']:.3f} "
    f"(coupled same-step gap {max(r['coupled_same_delta_gap']):.2e})"], K=8, T=0.2)
def run_equivalence(cfg: ExperimentConfig) -> dict:
    """Agreement of the two reconstructions of X on a fixed Wiener path.

    Both splittings are driven by the same innovations (the exact OU
    transition composes across dyadic refinements, so one fine path defines
    every coarser run).  Two diagnostics:

    * coupled gap: the two reconstructions at the same step size; for this
      integrator the recombination identity collapses both recursions into
      the same update, so the gap sits at roundoff (reported, must be tiny);
    * convergence order: the coarse-step runs of one splitting against a
      fine-step reference computed with the other; the discrepancy is then
      the genuine scheme error and must decay at fitted order >= 0.9 over
      delta in {4e-3, 2e-3, 1e-3}; the report's `deltas` end with the fine step.
    """
    grid = cfg.grid()
    P = cfg.polynomial()
    T = cfg.T
    deltas = (4e-3, 2e-3, 1e-3)
    fine = deltas[-1] / 8.0
    runs = {d: SolverConfig(delta=d, T=T) for d in (*deltas, fine)}
    path = OUNoisePath(grid, fine, runs[fine].n_steps, substream(cfg.master_seed, 0, 1))
    z0 = sample_stationary(grid, substream(cfg.master_seed, 0, 0))
    z1_init = sample_stationary(grid, substream(cfg.master_seed, 0, 2))

    # the stationary-reference splitting: Y(0) = z0 - z1, rough part started at z1
    ref = solve(z0 - z1_init, z1_init, path, runs[fine], P)

    gaps, coupled = [], []
    relation_defect = 0.0
    for delta in deltas:
        cpath = path.coarsen(round(delta / fine))
        ta = solve(None, z0, cpath, runs[delta], P)
        tb = solve(z0 - z1_init, z1_init, cpath, runs[delta], P)
        gaps.append(float(np.sqrt(np.sum(np.abs(ta.X[-1].coeffs - ref.X[-1].coeffs) ** 2))))
        coupled.append(float(np.max(np.abs(ta.X[-1].coeffs - tb.X[-1].coeffs))))
        # the defining relation between the two remainders, checked directly
        rel = ta.Y[-1] - (tb.Y[-1] + apply_semigroup(z1_init, T) - apply_semigroup(z0, T))
        relation_defect = max(relation_defect, float(np.max(np.abs(rel.coeffs))))

    order = float(np.polyfit(np.log(deltas), np.log(gaps), 1)[0])
    results = {
        "deltas": list(deltas),
        "gap_to_fine_reference": gaps,
        "fitted_order": order,
        "coupled_same_delta_gap": coupled,
        "remainder_relation_defect": relation_defect,
    }
    passed = order >= 0.9 and max(coupled) < 1e-10 and relation_defect < 1e-10
    return _report("equivalence", cfg, results, passed, deltas=list(runs),
                   solver_steps=[r.n_steps for r in runs.values()], **_sizes(grid, P))


@command("wick-convergence", ("master_seed",), lambda r: [
    f"monotone fraction {r['fraction_monotone']:.2%}, mean distances {r['mean_distances']}"],
    K=32)
def run_wick_convergence(cfg: ExperimentConfig, n_pairs: int = 200) -> dict:
    """Cutoff stability of the Wick square in a negative-regularity norm.

    One stationary sample on the K = 32 grid is projected to nested
    cutoffs, as the inverse transform of its half window with `band` = K'
    (bitwise that of the full window: the sample is exactly Hermitian);
    each Wick square uses its own cutoff's counterterm.  The squares converge as
    distributions, i.e. pairings with any fixed test function stabilize,
    so the differences are compared on the frequency window every member
    of the family resolves (|k|_inf <= 4), the only coefficients the
    squares' forward transforms compute (`band` = 4), before taking the
    B^{-0.2}_{inf,inf} norm on one fixed analysis partition:

        d_K = || (:phi_K^2: - :phi_{2K}^2:) restricted to the window ||.

    Unrestricted norms stall at these cutoffs: the un-cancelled top-octave
    chaos of the finer square decays only like K^{-0.2} polylog(K), which
    is invisible below K of order 10^3.  The windowed distances must
    decrease over K in {4, 8, 16} for >= 90% of paired samples.
    """
    Ks = (4, 8, 16)
    family = (*Ks, cfg.K)  # each cutoff and its double
    big = TorusGrid(cfg.K, max_degree=2)
    part = build_partition(big)
    spec = BesovSpec(-0.2)
    cterm = {K: counterterm_C(TorusGrid(K, max_degree=2)) for K in family}

    monotone = 0
    dists = []
    for i in range(n_pairs):
        phi = sample_stationary(big, np.random.default_rng([cfg.master_seed, 77, i]))
        half = big.half_window(phi.coeffs)
        wick_sq = {}
        for K in family:
            vals = big.coeffs_to_values(half, band=K)
            wick_sq[K] = big.values_to_coeffs(hermite_variance(2, vals, cterm[K]), band=min(Ks))
        d = [besov_norm(SpectralField(big, wick_sq[K] - wick_sq[2 * K]), spec, part) for K in Ks]
        dists.append(d)
        if d[0] > d[1] > d[2]:
            monotone += 1
    frac = monotone / n_pairs
    dists = np.asarray(dists)
    results = {
        "cutoffs": list(Ks),
        "fraction_monotone": frac,
        "mean_distances": [float(x) for x in dists.mean(axis=0)],
    }
    return _report("wick-convergence", cfg, results, frac >= 0.9, cutoffs=list(Ks),
                   n_pairs=n_pairs, M=big.M)
