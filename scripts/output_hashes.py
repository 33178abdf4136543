"""Print sha256 hashes of wickflow's outputs at one seed, to compare checkouts.

    python3 scripts/output_hashes.py [--seed 1200] > hashes.txt

Run from the root of a checkout; it imports `wickflow` from `./src` with one
BLAS thread, as `perfbench/run.py` does, and prints one `name sha256` line
per output:

* the reports of the four benchmark suites at the sizes in
  `perfbench/README.md` (`gauss-k4`, `invariance-k10`, `simulate-k32`,
  `wick-k32`), and every file the `simulate-k32` command writes (its CSV,
  WCK1 and report);
* every file `wickflow gibbs --k 8` writes at its default chain (CSV, WCK1
  and report), and the accept history and samples of that chain and of
  the `gauss-k4` chain, run directly through `sampler`.

A report is hashed as JSON with sorted keys, without its `version` and
`config.out_dir`, which name the checkout and the directory, not what ran.
Run it in two checkouts and diff the outputs: equal lines are equal bits.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

from wickflow import TorusGrid, counterterm_C, sample_stationary, substream  # noqa: E402
from wickflow import cli  # noqa: E402
from wickflow.experiments import (  # noqa: E402
    ExperimentConfig,
    run_gaussian_exactness,
    run_invariance,
    run_wick_convergence,
)
from wickflow.sampler import ChainState, gibbs_samples, run_chain  # noqa: E402
from wickflow.wick import PolynomialSpec  # noqa: E402

SIMULATE = {"grid": {"K": 32}, "solver": {"delta": 1e-3, "T": 0.15, "record_every": 10},
            "ensemble": {"n_traj": 2}, "output": {"formats": ["csv", "json", "wck1"]}}
GIBBS = {"output": {"formats": ["csv", "json", "wck1"]}}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_hash(report: dict) -> str:
    report = {k: v for k, v in report.items() if k != "version"}
    report["config"] = {k: v for k, v in report.get("config", {}).items() if k != "out_dir"}
    return sha(json.dumps(report, sort_keys=True, default=str).encode())


def chain_hashes(result, samples) -> tuple:
    return (sha(np.asarray(result.accept_history, dtype=bool).tobytes()),
            sha(b"".join(phi.coeffs.tobytes() for phi in samples)))


def command_hashes(name: str, config: dict, flags: list, tmp: str):
    """Run `wickflow name` in-process into a fresh directory and hash what it
    wrote; returns the config the command resolved."""
    out = os.path.join(tmp, name)
    cfg_path = os.path.join(tmp, f"{name}.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    argv = [name, "--config", cfg_path, "--out", out, *flags]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    yield f"{name} exit", str(code)
    for fname in sorted(os.listdir(out)):
        with open(os.path.join(out, fname), "rb") as fh:
            data = fh.read()
        yield f"{name} {fname}", (report_hash(json.loads(data)) if fname.endswith(".json")
                                  else sha(data))
    return cli.resolve_config(cli.build_parser().parse_args(argv))


def hashes(seed: int, tmp: str):
    yield "gauss-k4 report", report_hash(run_gaussian_exactness(
        K=4, a2=0.5, n_chain=4000, n_traj=16, T=2.0, delta=0.02, seed=seed))
    burn_in, thinning, n_traj = 500, 20, 32
    cfg = ExperimentConfig(K=10, delta=1e-3, T=0.02, n_traj=n_traj, rho=0.3, burn_in=burn_in,
                           thinning=thinning, n_steps=burn_in + n_traj * thinning,
                           master_seed=seed, threads=1)
    yield "invariance-k10 report", report_hash(run_invariance(cfg, negative_control=True))
    yield from command_hashes("simulate", SIMULATE,
                              ["--k", "32", "--threads", "1", "--seed", str(seed)], tmp)
    yield "wick-k32 report", report_hash(
        run_wick_convergence(ExperimentConfig(master_seed=seed), n_pairs=48))

    gibbs = yield from command_hashes("gibbs", GIBBS, ["--k", "8", "--seed", str(seed)], tmp)
    grid, P = gibbs.grid(), gibbs.polynomial()
    c = counterterm_C(grid)
    rng = substream(seed, 0, 0)  # the stream and start `run_gibbs` takes
    state = ChainState.initial(sample_stationary(grid, rng), P, c, rng)
    result = run_chain(state, gibbs.n_steps, gibbs.burn_in, gibbs.thinning, gibbs.rho, P, c)
    accepts, samples = chain_hashes(result, result.samples)
    yield "gibbs chain accept_history", accepts
    yield "gibbs chain samples", samples

    grid = TorusGrid(4, max_degree=2)  # the gauss-k4 chain, as run_gaussian_exactness runs it
    burn = 4000 // 10
    samples, result = gibbs_samples(grid, PolynomialSpec.quadratic(0.5), counterterm_C(grid),
                                    len(range(burn, 4000, 10)), 0.5, burn, 10,
                                    substream(seed, 0, 0))
    accepts, samples = chain_hashes(result, samples)
    yield "gauss-k4 chain accept_history", accepts
    yield "gauss-k4 chain samples", samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1200)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in hashes(args.seed, tmp):
            print(f"{name} {digest}", flush=True)


if __name__ == "__main__":
    main()
