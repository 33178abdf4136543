"""Command-line front end: one subcommand per suite in `experiments.SUITES`.

A JSON config file supplies the schema sections (grid, polynomial, solver,
sampler, ensemble, output); the flags --seed/--out/--k/--dt/--threads
override the fields `ExperimentConfig` names them for.  A command accepts
the keys and flags of the fields its suite reads, plus output.dir and
threads; any other is a config error, so none is silently dropped.
WICKFLOW_OUT overrides the output directory.  Every run writes
<out>/<command>_report.json, whose `config` states the parameters that
ran, and prints the suite's summary lines.

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
from dataclasses import fields

from .errors import BlowUpError, ConfigurationError, DomainError, WarmupError
from .experiments import KEYS, SUITES, ExperimentConfig, config_fields, version_string

COMMANDS = {name: suite.run for name, suite in SUITES.items()}
FLAGGED = [f for f in fields(ExperimentConfig) if f.metadata["flag"]]  # fields a flag sets


def accepted(command: str) -> set:
    """The fields a key or flag may set for `command`: those its suite reads, the
    report's directory, and threads (every command takes --threads for now)."""
    return SUITES[command].reads | {"out_dir", "threads"}


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
        for f in FLAGGED:
            p.add_argument(f.metadata["flag"], dest=f.name, type=f.type,
                           help=f.metadata["help"] or f"override {KEYS[f.name]}")
    return parser


def resolve_config(args) -> ExperimentConfig:
    accepts = accepted(args.command)
    flags = [f for f in FLAGGED if getattr(args, f.name) is not None]
    data = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    cfg = ExperimentConfig.from_dict(data)  # data is now an object of objects and threads
    given = config_fields(data)
    ignored = ([f.metadata["flag"] for f in flags if f.name not in accepts]
               + sorted(KEYS[name] for name in given if name not in accepts))
    if ignored:
        raise ConfigurationError(f"{', '.join(ignored)} has no effect on {args.command}")
    for f in flags:
        setattr(cfg, f.name, getattr(args, f.name))
    cfg.out_dir = os.environ.get("WICKFLOW_OUT") or cfg.out_dir
    if args.threads is None and "threads" not in given:
        cfg.threads = os.cpu_count() or 1
    cfg.validate()
    return cfg


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
    print(f"[{report['experiment']}] {report['version']}")
    for line in SUITES[command].summary(report["results"]):
        print(f"  {line}")
    if report["pass"] is not None:
        print(f"  => {'PASS' if report['pass'] else 'FAIL'}")
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
