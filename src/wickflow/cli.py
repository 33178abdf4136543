"""Command-line front end.

Subcommands: simulate | gibbs | invariance | identities | regularity |
equivalence | wick-convergence.  A JSON config file supplies the schema
sections (grid, polynomial, solver, sampler, ensemble, output); the flags
--seed/--out/--k/--dt/--threads override the corresponding fields.  Each
command accepts only the config keys it reads (`READS`, plus the
`COMMON_KEYS` every command takes), and --k or --dt only where it reads
grid.K or solver.delta; any other key or flag is a config error, so none
is silently dropped.  The environment
variable WICKFLOW_OUT overrides the output directory.  Every run writes
<out>/<command>_report.json embedding the resolved config and version
string.

The output directory is created before the command runs, and removed
again if the command created it and failed before writing into it.

Exit codes: 0 success/PASS, 1 experiment reported FAIL, 2 usage, config
or output error (an output directory or file that cannot be written),
3 trajectory blow-up, 4 chain warm-up failure (`WarmupError`: the pCN
acceptance of `gibbs` or `invariance` fell below 1%).
"""

import argparse
import json
import os
import sys

from .errors import BlowUpError, ConfigurationError, DomainError, WarmupError
from .experiments import (
    ExperimentConfig,
    run_equivalence,
    run_gibbs,
    run_identities,
    run_invariance,
    run_regularity,
    run_simulate,
    run_wick_convergence,
    version_string,
)

COMMANDS = {
    "simulate": run_simulate,
    "gibbs": run_gibbs,
    "invariance": run_invariance,
    "identities": run_identities,
    "regularity": run_regularity,
    "equivalence": run_equivalence,
    "wick-convergence": run_wick_convergence,
}

# the config keys each command reads, besides the keys every command takes;
# the other commands fix their own grid, model, step or sample counts
COMMON_KEYS = {"ensemble.master_seed", "output.dir", "threads"}
_MODEL = {"grid.dealiasing_degree", "polynomial.N", "polynomial.a"}
READS = {
    "simulate": {"grid.K", *_MODEL, "solver.delta", "solver.T", "solver.record_every",
                 "ensemble.n_traj", "output.formats"},
    "gibbs": {"grid.K", *_MODEL, "sampler.rho", "sampler.n_steps", "sampler.burn_in",
              "sampler.thinning", "output.formats"},
    "invariance": {"grid.K", *_MODEL, "solver.delta", "solver.T", "sampler.rho",
                   "sampler.burn_in", "sampler.thinning", "ensemble.n_traj"},
    "identities": set(),
    "regularity": _MODEL,
    "equivalence": _MODEL,
    "wick-convergence": set(),
}
FLAG_KEYS = {"k": "grid.K", "dt": "solver.delta"}  # the flags that override a config key


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wickflow",
        description="Spectral Galerkin simulator and verification suite for "
                    "Wick-renormalized scalar field dynamics on the 2-torus.",
    )
    parser.add_argument("--version", action="version", version=version_string())
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override ensemble.master_seed")
        p.add_argument("--out", help="override output.dir")
        p.add_argument("--k", type=int, help="override grid.K")
        p.add_argument("--dt", type=float, help="override solver.delta")
        p.add_argument("--threads", type=int, help="trajectory-level parallelism "
                       "(default: available cores; 1 = reproducibility reference)")
    return parser


def resolve_config(args) -> ExperimentConfig:
    reads = COMMON_KEYS | READS[args.command]
    for flag, key in FLAG_KEYS.items():
        if getattr(args, flag) is not None and key not in reads:
            raise ConfigurationError(f"--{flag} has no effect on {args.command}")
    data = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    cfg = ExperimentConfig.from_dict(data)  # data is now an object of objects and threads
    given = {f"{section}.{key}" for section, body in data.items() if section != "threads"
             for key in body}
    unread = sorted(given - reads)
    if unread:
        raise ConfigurationError(f"config key {', '.join(unread)} has no effect on {args.command}")
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.k is not None:
        cfg.K = args.k
    if args.dt is not None:
        cfg.delta = args.dt
    if args.out is not None:
        cfg.out_dir = args.out
    env_out = os.environ.get("WICKFLOW_OUT")
    if env_out:
        cfg.out_dir = env_out
    cfg.threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    cfg.validate()
    return cfg


def _print_report(report: dict) -> None:
    results = report["results"]
    print(f"[{report['experiment']}] {report['version']}")
    if report["experiment"] == "identities":
        for name, value in results["max_residuals"].items():
            status = "ok" if value < 1e-10 else "FAIL"
            print(f"  {name:<24s} max residual {value:.3e}  {status}")
    elif report["experiment"] == "invariance":
        for tag in ("drift_at_delta", "drift_at_half_delta"):
            stats = results[tag]
            worst = max(stats, key=lambda n: abs(stats[n]["z"]))
            print(f"  {tag}: max |z| = {abs(stats[worst]['z']):.2f} ({worst})")
        if "negative_control_max_abs_z" in results:
            print(f"  negative control max |z| = {results['negative_control_max_abs_z']:.2f} "
                  f"(must exceed 3)")
    elif report["experiment"] == "equivalence":
        print(f"  fitted order {results['fitted_order']:.3f} "
              f"(coupled same-step gap {max(results['coupled_same_delta_gap']):.2e})")
    elif report["experiment"] == "regularity":
        print(f"  alpha(Z) in band: {results['alpha_Z']['frac_in_band']:.2%}, "
              f"alpha(Y) >= 0.5: {results['alpha_Y']['frac_above_0.5']:.2%}")
    elif report["experiment"] == "wick_convergence":
        print(f"  monotone fraction {results['fraction_monotone']:.2%}, "
              f"mean distances {results['mean_distances']}")
    if report["pass"] is not None:
        print(f"  => {'PASS' if report['pass'] else 'FAIL'}")


def _run(command: str, cfg: ExperimentConfig) -> int:
    try:
        report = COMMANDS[command](cfg)
    except WarmupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (ConfigurationError, DomainError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except BlowUpError as err:
        print(f"blow-up: {err}", file=sys.stderr)
        return 3
    path = os.path.join(cfg.out_dir, f"{command.replace('-', '_')}_report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, default=str)
    _print_report(report)
    return 0 if (report["pass"] is None or report["pass"]) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ConfigurationError, DomainError, OSError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    fresh = not os.path.isdir(cfg.out_dir)
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)  # before the command, which may run for long
        code = _run(args.command, cfg)
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        code = 2
    if code and fresh and os.path.isdir(cfg.out_dir) and not os.listdir(cfg.out_dir):
        os.rmdir(cfg.out_dir)  # a failed command leaves no empty output directory behind
    return code


if __name__ == "__main__":
    sys.exit(main())
