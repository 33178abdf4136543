import concurrent.futures
import copy
import functools
import json
import os
import pickle
import re
import subprocess
import sys
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from wickflow import PolynomialSpec, SpectralField, TorusGrid, __version__, cli, experiments, solver
from wickflow.cli import main
from wickflow.errors import BlowUpError, ConfigurationError, DomainError, WarmupError
from wickflow.experiments import ExperimentConfig
from wickflow.sampler import ChainState, gibbs_samples, pcn_step
from wickflow.solver import SolverConfig


def write_config(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return str(path)


SMALL_SIM = {
    "grid": {"K": 3},
    "solver": {"delta": 2e-3, "T": 0.02, "record_every": 5},
    "ensemble": {"n_traj": 2, "master_seed": 7},
    "output": {"formats": ["csv", "json", "wck1"]},
}


def test_simulate_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path / "c.json", SMALL_SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
    assert (out / "trajectory_000.csv").exists()
    assert (out / "trajectory_001.wck1").exists()
    report = json.loads((out / "simulate_report.json").read_text())
    assert report["pass"] is True
    assert report["config"]["K"] == 3
    assert report["version"].startswith("wickflow")


def test_simulate_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path / "c.json", SMALL_SIM)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a), "--threads", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b), "--threads", "1"]) == 0
    assert (a / "trajectory_000.csv").read_bytes() == (b / "trajectory_000.csv").read_bytes()


def test_flag_overrides(tmp_path):
    cfg = write_config(tmp_path / "c.json", SMALL_SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--seed", "99", "--k", "2", "--threads", "1"]) == 0
    report = json.loads((out / "simulate_report.json").read_text())
    assert report["config"]["master_seed"] == 99
    assert report["config"]["K"] == 2


def test_env_var_out_dir(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c.json", SMALL_SIM)
    env_out = tmp_path / "envdir"
    monkeypatch.setenv("WICKFLOW_OUT", str(env_out))
    assert main(["simulate", "--config", cfg, "--threads", "1"]) == 0
    assert (env_out / "simulate_report.json").exists()


def test_invalid_polynomial_exit_2(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"polynomial": {"N": 2, "a": [0, 0, 0, 0, 0.0]}})
    assert main(["simulate", "--config", cfg]) == 2


def test_unknown_section_exit_2(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"grids": {"K": 3}})
    assert main(["simulate", "--config", cfg]) == 2


@pytest.mark.parametrize("data", [
    {"grid": {"k": 3}},                # unknown key inside a section, once run at K=8
    {"solver": {"T": float("inf")}},   # json writes Infinity; once an OverflowError
    {"grid": {"K": float("nan")}},
    {"threads": -3},
    {"grid": 3},                        # a section that is not an object
    {"grid": {"K": 3.5}},               # once ran at K=3 and exited 0
    {"grid": {"K": "8"}},               # once a TypeError traceback
    {"ensemble": {"n_traj": 2.5}},      # once a TypeError traceback
    {"grid": {"K": True}},
    {"threads": 1.0},
    {"sampler": {"burn_in": 10.0}},
    {"ensemble": {"master_seed": "7"}},
    {"solver": {"T": "0.25"}},
    {"sampler": {"rho": True}},
    {"polynomial": {"a": [0, 0, 0, 0, "0.25"]}},
    {"polynomial": {"a": 0.25}},
    {"output": {"formats": "csv"}},
    {"output": {"dir": 5}},
    {"solver": {"T": 1e300, "delta": 1e-300}},  # once an OverflowError traceback
    {"solver": {"T": 1.0, "delta": 0.3}},       # once made the out dir, then exited 2
    {"solver": {"record_every": 0}},
    {"sampler": {"burn_in": -5}},               # once ran and exited 0
    {"sampler": {"thinning": 0}},
    {"ensemble": {"master_seed": -1}},          # once a ValueError traceback
    {"solver": {"T": 10**400}},                 # once an OverflowError traceback
    {"polynomial": {"a": [0, 0, 0, 0, 10**400]}},
    {"grid": {"dealiasing_degree": -3}},        # once ran and reported -3 on an M of degree 4
    {"grid": {"dealiasing_degree": 0}},
], ids=["unknown-key", "infinite-T", "nan-K", "negative-threads", "section-not-object",
        "fractional-K", "string-K", "fractional-n_traj", "bool-K", "float-threads",
        "float-burn_in", "string-seed", "string-T", "bool-rho", "string-coefficient",
        "scalar-a", "string-formats", "integer-dir", "overflowing-step-count",
        "T-not-a-multiple-of-delta", "zero-record_every", "negative-burn_in", "zero-thinning",
        "negative-seed", "huge-integer-T", "huge-integer-coefficient",
        "negative-dealiasing_degree", "zero-dealiasing_degree"])
def test_invalid_config_exit_2(tmp_path, data):
    cfg = write_config(tmp_path / "c.json", data)
    command = "gibbs" if "sampler" in data else "simulate"  # the command that reads the keys
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_threads_flag_below_one_exit_2(tmp_path):
    assert main(["simulate", "--threads", "0", "--out", str(tmp_path / "out")]) == 2


def test_invariance_with_one_trajectory_exit_2(tmp_path):
    # one paired drift has no standard error; this once reported FAIL (exit 1)
    cfg = write_config(tmp_path / "c.json", {
        "grid": {"K": 2}, "ensemble": {"n_traj": 1}, "sampler": {"burn_in": 100, "thinning": 10},
    })
    out = tmp_path / "out"
    assert main(["invariance", "--config", cfg, "--out", str(out), "--threads", "1"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["gibbs", "identities"])
def test_out_dir_that_cannot_be_created_exit_2_before_the_command_runs(
        tmp_path, capsys, monkeypatch, command):
    # a gibbs run once finished its chain and then died with a NotADirectoryError traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setitem(cli.COMMANDS, command, lambda cfg: pytest.fail("the command ran"))
    assert main([command, "--out", str(blocker / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_a_failed_command_removes_only_an_empty_dir_it_made(tmp_path, monkeypatch):
    def fail(cfg):
        raise ConfigurationError("late")

    monkeypatch.setitem(cli.COMMANDS, "gibbs", fail)
    assert main(["gibbs", "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    (tmp_path / "kept").mkdir()
    assert main(["gibbs", "--out", str(tmp_path / "kept")]) == 2
    assert (tmp_path / "kept").is_dir()


@pytest.mark.parametrize("error, code", [
    (WarmupError("acceptance below 1%"), 4),
    (ConfigurationError("a message that mentions warm-up"), 2),
], ids=["warmup-error", "config-error-saying-warm-up"])
def test_warmup_exit_code_follows_the_error_type(tmp_path, monkeypatch, error, code):
    def fail(cfg):
        raise error

    monkeypatch.setitem(cli.COMMANDS, "gibbs", fail)
    assert main(["gibbs", "--out", str(tmp_path / "out")]) == code


def test_gibbs_below_one_percent_acceptance_exit_4(tmp_path):
    # this once wrote its outputs and reported FAIL (exit 1)
    cfg = write_config(tmp_path / "c.json", {
        "grid": {"K": 4}, "polynomial": {"N": 2, "a": [0, 0, 0, 0, 1000]},
        "sampler": {"rho": 1.0, "n_steps": 600, "burn_in": 100, "thinning": 10},
    })
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="acceptance"):
        assert main(["gibbs", "--config", cfg, "--out", str(out)]) == 4
    assert not out.exists()


def test_bad_json_exit_2(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == 2


def test_identities_command(tmp_path):
    out = tmp_path / "out"
    assert main(["identities", "--out", str(out)]) == 0
    report = json.loads((out / "identities_report.json").read_text())
    assert report["pass"] is True
    assert all(v < 1e-10 for v in report["results"]["max_residuals"].values())


def test_gibbs_command(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "grid": {"K": 2},
        "sampler": {"rho": 0.4, "n_steps": 400, "burn_in": 100, "thinning": 20},
        "output": {"formats": ["csv", "json", "wck1"]},
    })
    out = tmp_path / "out"
    assert main(["gibbs", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "chain_samples.wck1").exists()
    assert (out / "chain_wick2.csv").exists()


def test_config_schema_round_trip():
    cfg = ExperimentConfig.from_dict(SMALL_SIM)
    assert cfg.K == 3 and cfg.n_traj == 2
    resolved = asdict(cfg)
    assert resolved["delta"] == 2e-3


def test_version_string_runs_git_once_per_process(monkeypatch):
    calls = []

    def fake_run(args, **kwargs):
        calls.append(args)
        return subprocess.CompletedProcess(args, 0, stdout="abc123\n", stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)  # imported by the call
    experiments.version_string.cache_clear()
    try:
        reports = [experiments._report("identities", ExperimentConfig(), {}, True) for _ in range(2)]
    finally:
        experiments.version_string.cache_clear()
    assert len(calls) == 1
    assert reports[0]["version"] == reports[1]["version"] == f"wickflow {__version__} (abc123)"


def test_importing_the_command_line_loads_no_subprocess_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = "import sys, wickflow.cli; print('subprocess' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.returncode == 0 and out.stdout.strip() == "False", out.stderr


# a valid value of each config key
KEY_VALUES = {
    "grid.K": 4, "grid.dealiasing_degree": 4, "polynomial.N": 2, "polynomial.a": [0, 0, 0, 0, 0.5],
    "solver.delta": 0.01, "solver.T": 0.5, "solver.record_every": 3,
    "sampler.rho": 0.9, "sampler.n_steps": 500, "sampler.burn_in": 10, "sampler.thinning": 2,
    "ensemble.n_traj": 3, "ensemble.master_seed": 5, "output.dir": "elsewhere",
    "output.formats": ["csv"],
}


def config_of(keys):
    data = {}
    for name in keys:
        section, key = name.split(".")
        data.setdefault(section, {})[key] = KEY_VALUES[name]
    return data


@pytest.mark.parametrize("command, flag", [
    ("gibbs", "--dt"),
    ("gibbs", "solver.delta"),
    *((command, flag) for command in ("identities", "regularity", "equivalence", "wick-convergence")
      for flag in ("--k", "--dt", "grid.K", "solver.delta")),
    ("identities", "solver.T"),
    ("identities", "solver.record_every"),
    ("identities", "sampler.rho"),
    ("identities", "polynomial.a"),
    ("identities", "output.formats"),
    ("simulate", "sampler.rho"),
    ("simulate", "sampler.burn_in"),
    ("gibbs", "solver.T"),
    ("gibbs", "ensemble.n_traj"),
    ("invariance", "sampler.n_steps"),
    ("invariance", "solver.record_every"),
    ("invariance", "output.formats"),
    ("regularity", "ensemble.n_traj"),
    ("equivalence", "solver.T"),
    ("wick-convergence", "polynomial.a"),
    ("wick-convergence", "grid.dealiasing_degree"),
    # every command took --threads and only invariance read it
    *((command, "--threads") for command in ("gibbs", "identities", "equivalence",
                                             "wick-convergence")),
])
def test_flag_a_command_ignores_exit_2(tmp_path, capsys, command, flag):
    # the command never reads the key: the flag, or the config key, once ran
    # and was dropped silently (the report still named it)
    out = tmp_path / "out"
    if flag.startswith("--"):
        args = [flag, {"--k": "4", "--threads": "2"}.get(flag, "0.01")]
    else:
        args = ["--config", write_config(tmp_path / "c.json", config_of([flag]))]
    assert main([command, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and flag in err and "has no effect" in err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_command_accepts_the_keys_it_reads(tmp_path, command):
    keys = {experiments.KEYS[name] for name in cli.accepted(command)} - {"threads"}
    data = config_of(sorted(keys))
    if "threads" in cli.accepted(command):
        data["threads"] = 2
    argv = [command, "--config", write_config(tmp_path / "c.json", data), "--seed", "9",
            "--out", str(tmp_path / "out")]
    argv += ["--k", "5"] if "grid.K" in keys else []
    argv += ["--dt", "0.05"] if "solver.delta" in keys else []
    cfg = cli.resolve_config(cli.build_parser().parse_args(argv))  # runs nothing
    assert cfg.master_seed == 9 and cfg.out_dir == str(tmp_path / "out")
    assert cfg.threads == 2 or "threads" not in data
    resolved = json.loads(json.dumps(asdict(cfg)))  # tuples as JSON lists
    for name in keys - {"ensemble.master_seed", "output.dir", "grid.K", "solver.delta"}:
        assert resolved[name.split(".")[1]] == KEY_VALUES[name], name


# JSON values of every kind, with the bounds and overflows that configs have hit
EDGES = st.sampled_from([0, -1, 1e-300, 1e300, 1.7976931348623157e308, 10**400, -10**400,
                         float("nan"), float("inf")])
JSON_VALUES = st.one_of(
    st.integers(-3, 40), st.integers(), st.floats(), EDGES, st.booleans(), st.none(),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-2, 3), st.floats(-1, 2), EDGES), max_size=7),
)
# every key, the top-level threads, whole sections and names no section has
CONFIG_KEYS = sorted(KEY_VALUES) + ["threads", "grid", "sampler", "x", "solver.x"]


@st.composite
def configs(draw):
    data = {}
    for name in draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=6)):
        value = draw(st.one_of(st.just(KEY_VALUES.get(name, 2)), st.integers(-3, 40),
                               st.floats(-1.0, 2.0), JSON_VALUES))
        section, _, key = name.partition(".")
        if not key:
            data[section] = value
        elif isinstance(data.setdefault(section, {}), dict):
            data[section][key] = value
    return data


@settings(max_examples=300, deadline=None)
@given(data=configs(), command=st.sampled_from(sorted(cli.COMMANDS)),
       flags=st.fixed_dictionaries({}, optional={
           "--seed": st.integers(-2, 10**20), "--k": st.integers(-2, 10**20),
           "--threads": st.integers(-2, 10**20), "--dt": st.floats()}))
def test_config_resolution_returns_a_valid_config_or_a_config_error(
        tmp_path_factory, data, command, flags):
    # runs no experiment: only ExperimentConfig.from_dict and cli.resolve_config
    path = write_config(tmp_path_factory.getbasetemp() / "fuzz.json", data)
    argv = [command, "--config", path] + [f"{flag}={value}" for flag, value in flags.items()]
    for by_command, resolve in (
            (False, lambda: ExperimentConfig.from_dict(copy.deepcopy(data))),
            (True, lambda: cli.resolve_config(cli.build_parser().parse_args(argv)))):
        try:
            cfg = resolve()
        except (ConfigurationError, DomainError):
            continue
        cfg.validate()
        if by_command and ("--threads" in flags or "threads" in data):
            assert "threads" in cli.accepted(command)  # a command that runs no ensemble rejects it
        assert cfg.solver_config().n_steps >= 1 and cfg.polynomial().degree == 2 * cfg.N
        assert cfg.dealiasing_degree >= 1  # TorusGrid's max_degree rule


def test_identities_reconstruction_residual_sees_a_wrong_zbar(monkeypatch):
    # the residual once compared X - Y with the zbar that X was formed from and
    # could not fail; with no heat flow of the datum it must
    monkeypatch.setattr(solver, "_heat_flow", lambda v, lam, t: v)
    report = experiments.run_identities(ExperimentConfig())
    assert report["results"]["max_residuals"]["reconstruction"] > 1e-10
    assert report["pass"] is False


def test_invariance_pool_never_outnumbers_trajectories_or_cores(monkeypatch):
    # the pool starts all its workers up front: --threads 5000 once forked 5000
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads, chunksize=1):
            return map(fn, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfg = ExperimentConfig(K=2, n_traj=3, T=2e-3, delta=1e-3, burn_in=100, thinning=10,
                           threads=10_000)
    serial = experiments.run_invariance(replace(cfg, threads=1))["results"]
    # one pool per drift ensemble: at delta, at delta/2 and the negative control
    for cores, expected in ((64, [3, 3, 3]), (2, [2, 2, 2]), (None, [])):
        sizes.clear()
        monkeypatch.setattr(solver.os, "cpu_count", lambda: cores)
        assert experiments.run_invariance(cfg)["results"] == serial
        assert sizes == expected


ENSEMBLE_RUNS = {  # small runs of the suites that read threads, and the outputs to compare
    "simulate": (dict(K=3, delta=2e-3, T=0.02, record_every=5, n_traj=3, master_seed=7,
                      formats=("csv", "json", "wck1")), {}),
    "regularity": (dict(master_seed=3), {"n_runs": 3}),
    "invariance": (dict(K=4, n_traj=8, T=0.01, delta=1e-3, rho=0.3, n_steps=400, burn_in=200,
                        thinning=10, master_seed=5), {}),
}


@pytest.mark.parametrize("command", sorted(ENSEMBLE_RUNS))
def test_ensemble_suites_at_two_threads_equal_one_thread(tmp_path, monkeypatch, command):
    # only invariance once ran its trajectories in worker processes
    monkeypatch.setattr(solver.os, "cpu_count", lambda: 2)
    fields, kwargs = ENSEMBLE_RUNS[command]
    assert "threads" in experiments.SUITES[command].reads
    outputs = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        cfg = ExperimentConfig(**fields, out_dir=str(out), threads=threads)
        cfg.validate()
        report = cli.COMMANDS[command](cfg, **kwargs)
        assert report["config"]["threads"] == threads
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        outputs.append((report["results"], files))
    assert outputs[1] == outputs[0]
    assert command != "simulate" or len(outputs[0][1]) == 6  # a CSV and a WCK1 per trajectory


def test_suites_read_no_observable_of_a_stationary_record(monkeypatch):
    # the records of `stationary_solve` take no observables; observing them
    # again, as every record did before, must leave each result's bits as they are
    cfg = ExperimentConfig(K=4, n_traj=4, T=0.01, delta=1e-3, rho=0.3,
                           n_steps=200, burn_in=100, thinning=10, master_seed=8, threads=1)
    cfg.validate()

    def run_both():
        return (experiments.run_invariance(cfg, negative_control=True),
                experiments.run_gaussian_exactness(seed=8, n_chain=400, n_traj=4, T=0.04,
                                                   delta=0.02))

    reports = run_both()
    real_run, real_observe = solver._run, solver.Trajectory.observe
    observed = []
    monkeypatch.setattr(solver, "_run", lambda *args, **kwargs: real_run(
        *args, **{**kwargs, "observe": True}))
    monkeypatch.setattr(solver.Trajectory, "observe",
                        lambda self, Y: observed.append(None) or real_observe(self, Y))
    observing = run_both()
    # two records per trajectory: 3 drift ensembles and the Gaussian check's
    assert len(observed) == 2 * (3 * cfg.n_traj + 4)
    assert json.dumps(observing, sort_keys=True) == json.dumps(reports, sort_keys=True)
    assert reports[0]["results"]["negative_control_max_abs_z"] > 0.0


def test_config_file_threads_is_not_replaced_by_the_core_count(tmp_path, monkeypatch):
    # the core count once overwrote a config file's threads
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    for data, argv, threads in (({"threads": 3}, [], 3), ({"threads": 3}, ["--threads", "2"], 2),
                                ({}, [], 5)):
        args = ["simulate", "--config", write_config(tmp_path / "c.json", data), *argv]
        assert cli.resolve_config(cli.build_parser().parse_args(args)).threads == threads


def test_blow_up_error_survives_pickling():
    # a BlowUpError once failed to unpickle, so a worker's blow-up broke the pool
    assert pickle.loads(pickle.dumps(BlowUpError(t=0.5))).t == 0.5
    state = SpectralField.zero(TorusGrid(2))
    err = BlowUpError(t=0.25, last_state=state)
    err.trajectory, err.stream = 3, (7, 3, 1)
    back = pickle.loads(pickle.dumps(err))
    assert (back.t, back.trajectory, back.stream) == (0.25, 3, (7, 3, 1))
    assert np.array_equal(back.last_state.coeffs, state.coeffs) and str(back) == str(err)
    assert str(err) == "solution blew up at t=0.25 in trajectory 3, stream (7, 3, 1)"


def test_a_blow_up_in_a_worker_is_re_raised_with_its_trajectory(monkeypatch):
    monkeypatch.setattr(solver.os, "cpu_count", lambda: 2)
    grid = TorusGrid(2, max_degree=4)
    run = functools.partial(solver.stationary_solve, cfg=SolverConfig(delta=1e-3, T=2e-3),
                            P=PolynomialSpec.quartic(0.25))
    eta = experiments.sample_stationary(grid, np.random.default_rng(1))
    huge = SpectralField(grid, eta.coeffs * 1e9)  # its first step passes BLOWUP_THRESHOLD
    with pytest.raises(BlowUpError) as err:
        list(solver.ensemble(run, [eta, huge, eta], 11, threads=2))
    assert (err.value.t, err.value.trajectory, err.value.stream) == (0.0, 1, (11, 1, 1))


def test_a_blow_up_in_the_gaussian_check_names_its_trajectory(monkeypatch):
    monkeypatch.setattr(solver, "BLOWUP_THRESHOLD", 0.0)  # the first step off zero blows up
    with pytest.raises(BlowUpError) as err:
        experiments.run_gaussian_exactness(seed=5, n_chain=100, n_traj=2, T=0.04, delta=0.02)
    assert (err.value.trajectory, err.value.stream) == (0, (5, 0, 1))


@pytest.mark.parametrize("n_chain", [400, 405])
def test_the_gaussian_check_chain_is_the_hand_written_pcn_loop(n_chain):
    # the check once drove its own pCN loop: every 10th state from step n_chain // 10
    res = experiments.run_gaussian_exactness(seed=3, n_chain=n_chain, n_traj=2, T=0.04,
                                             delta=0.02)
    grid = TorusGrid(4, max_degree=2)
    P = PolynomialSpec.quadratic(0.5)
    c = experiments.counterterm_C(grid)
    rng = experiments.substream(3, 0, 0)
    state = ChainState.initial(experiments.sample_stationary(grid, rng), P, c, rng)
    vals = []
    for i in range(n_chain):
        state, _ = pcn_step(state, 0.5, P, c)
        if i >= n_chain // 10 and i % 10 == 0:
            vals.append(abs(state.phi.get_mode(1, -2)) ** 2)
    assert res["chain"]["1_-2"]["mean"] == float(np.mean(vals))
    assert res["chain"]["1_-2"]["iat"] == experiments.integrated_autocorrelation(np.array(vals))


def test_the_gaussian_check_reads_its_modes_as_get_mode_does_bitwise():
    # the chain's thinned samples and the SDE ensemble's final states, drawn as the check draws them
    seed, n_chain, n_traj, scfg = 3, 400, 4, SolverConfig(delta=0.02, T=0.04)
    res = experiments.run_gaussian_exactness(seed=seed, n_chain=n_chain, n_traj=n_traj,
                                             T=scfg.T, delta=scfg.delta)
    grid = TorusGrid(4, max_degree=2)
    P = PolynomialSpec.quadratic(0.5)
    c = experiments.counterterm_C(grid)
    burn = n_chain // 10
    chain, _ = gibbs_samples(grid, P, c, len(range(burn, n_chain, 10)), 0.5, burn, 10,
                             experiments.substream(seed, 0, 0))
    sde = [solver.stationary_solve(SpectralField.zero(grid), experiments.substream(seed, i, 1),
                                   scfg, P).X[-1] for i in range(n_traj)]
    modes = [(k1, k2) for k1 in range(-2, 3) for k2 in range(-2, 3)]
    for name, fields in (("chain", chain), ("sde", sde)):
        expected = {k: [abs(phi.get_mode(*k)) ** 2 for phi in fields] for k in modes}
        assert experiments._mode_powers(fields, modes) == expected
        for k in modes:
            assert res[name][f"{k[0]}_{k[1]}"]["mean"] == float(np.mean(expected[k]))


@pytest.mark.parametrize("command, data, stream", [
    ("simulate", SMALL_SIM, "(7, 0, 1)"),
    ("regularity", {"ensemble": {"master_seed": 4}}, "(4, 0, 1)"),
    ("invariance", {"grid": {"K": 2}, "ensemble": {"n_traj": 2, "master_seed": 4},
                    "sampler": {"burn_in": 100, "thinning": 10}}, "(5, 0, 1)"),
])
def test_forced_blow_up_exits_3_naming_its_trajectory(tmp_path, capsys, monkeypatch,
                                                     command, data, stream):
    # in one process, and in two worker processes of `solver.ensemble`
    monkeypatch.setattr(solver, "BLOWUP_THRESHOLD", 0.0)
    monkeypatch.setattr(solver.os, "cpu_count", lambda: 2)
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path / "c.json", data), "--out", str(out)]
    for threads in ("1", "2"):
        assert main(argv + ["--threads", threads]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(rf"blow-up: solution blew up at t=\S+ in trajectory 0, "
                            rf"stream {re.escape(stream)}\n", err)
        assert not out.exists()


# what each command runs, small; the suites fix the rest
STATED_RUNS = {
    "simulate": (dict(K=3, delta=2e-3, T=0.02, record_every=5, n_traj=2, master_seed=7), {}),
    "gibbs": (dict(K=2, rho=0.4, n_steps=400, burn_in=100, thinning=20), {}),
    "invariance": (dict(K=3, n_traj=3, T=0.004, delta=2e-3, burn_in=100, thinning=10),
                   {"negative_control": False}),
    "identities": ({}, {}),
    "regularity": ({}, {"n_runs": 2}),
    "equivalence": ({}, {}),
    "wick-convergence": ({}, {"n_pairs": 2}),
}
# the constants each suite fixes, with the sizes they give in STATED_RUNS
FIXED = {
    "invariance": dict(deltas=[2e-3, 1e-3], solver_steps=[2, 4]),
    "identities": dict(K=8, dealiasing_degree=6, N=2, a=[0, 0, 0, 0, 0.25], delta=1e-3, T=0.02,
                       record_every=5, M=58, compute_M=34, solver_steps=20),
    "regularity": dict(K=16, T=0.1, delta=1e-3, M=82, compute_M=66, solver_steps=100),
    "equivalence": dict(K=8, T=0.2, deltas=[4e-3, 2e-3, 1e-3, 1.25e-4],
                        solver_steps=[50, 100, 200, 1600], M=42, compute_M=34),
    "wick-convergence": dict(K=32, cutoffs=[4, 8, 16], M=130),
}


def listed(value):
    return value if isinstance(value, list) else [value]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_report_states_what_ran(tmp_path, monkeypatch, command):
    grids, solver_configs = [], []

    class RecordedGrid(TorusGrid):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            grids.append(self)

    class RecordedSolverConfig(SolverConfig):
        def __post_init__(self):
            super().__post_init__()
            solver_configs.append(self)

    fields, kwargs = STATED_RUNS[command]
    cfg = ExperimentConfig(**fields, out_dir=str(tmp_path), threads=1)
    cfg.validate()
    monkeypatch.setattr(experiments, "TorusGrid", RecordedGrid)
    monkeypatch.setattr(experiments, "SolverConfig", RecordedSolverConfig)
    config = json.loads(json.dumps(cli.COMMANDS[command](cfg, **kwargs)["config"]))
    suite = experiments.SUITES[command]

    # every field stated is one the command reads or fixes; those it reads as given
    assert set(config) & set(experiments.KEYS) == suite.reads | set(suite.fixed)
    given = json.loads(json.dumps(asdict(cfg)))
    assert all(config[name] == given[name] for name in suite.reads)
    assert all(config[name] == value for name, value in {**FIXED.get(command, {}),
                                                         **kwargs}.items())
    # the grids and solver schedules the suite built
    assert grids
    for grid in grids:
        if grid.K in config.get("cutoffs", []):
            continue  # the counterterm of a cutoff
        assert (grid.K, grid.M) == (config["K"], config["M"])
        if "compute_M" in config:
            assert grid.compute_grid(2 * config["N"]).M == config["compute_M"]
    assert bool(solver_configs) == ("T" in config)
    steps = dict(zip(listed(config.get("deltas", config.get("delta"))),
                     listed(config.get("solver_steps"))))
    for scfg in solver_configs:
        assert scfg.T == config["T"] and steps[scfg.delta] == scfg.n_steps
        assert scfg.record_every == config.get("record_every")


@pytest.mark.parametrize("command, kwargs, M", [
    ("regularity", {"n_runs": 1}, 114),
    ("equivalence", {}, 58),
])
def test_a_sextic_model_runs_on_the_grid_its_products_need(command, kwargs, M):
    # both once padded their grid for degree 4 only, and a sextic raised there;
    # the default quartic's M = 82 and 42 are pinned in FIXED
    cfg = ExperimentConfig(N=3, a=(0.0,) * 6 + (0.1,))
    assert cli.COMMANDS[command](cfg, **kwargs)["config"]["M"] == M


def readme_reads_table():
    """The rows of the README's table of the config keys each command reads."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    table = re.search(r"^\| command \| reads.*?\n\n", text, re.S | re.M).group(0)
    rows = [[re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:3]]
            for line in table.strip().splitlines() if not line.startswith("| ---")]
    return rows[0][1], rows[1:]


def test_readme_lists_the_keys_each_command_accepts():
    accepted = {command: {experiments.KEYS[name] for name in cli.accepted(command)}
                for command in cli.COMMANDS}
    common, rows = readme_reads_table()
    assert set(common) == set.intersection(*accepted.values())
    listed_commands = [command for commands, _ in rows for command in commands]
    assert sorted(listed_commands) == sorted(cli.COMMANDS)
    for commands, keys in rows:
        for command in commands:
            assert set(keys) == accepted[command] - set(common), command
