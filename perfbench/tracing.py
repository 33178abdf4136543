"""Per-layer tracing from outside the package.

`Tracer.install()` replaces each listed public function of wickflow by a
timing wrapper wherever the function is looked up: in its own module, in
every wickflow module that imported it by name, in dicts of such modules
(the CLI's command table), and on `TorusGrid` for the two transforms.
Each wrapper records a span (name, start, end, parent); a layer's self
time is its spans' durations minus the time covered by child spans.  A
listed name that the package no longer has is reported as missing.
"""

import functools
import importlib
import os
import sys
import time

LAYER_FUNCTIONS = {
    "grid": ["TorusGrid.coeffs_to_values", "TorusGrid.values_to_coeffs", "apply_semigroup"],
    "wick": ["hermite_tower_values", "hermite_variance", "wick_action", "wick_power"],
    "ou": ["ou_step", "build_tower", "hermitian_normals", "sample_stationary"],
    "solver": ["solve", "stationary_solve", "step", "nonlinear_term"],
    "sampler": ["run_chain", "pcn_step", "observables"],
    "besov": ["besov_norm", "block_norms", "build_partition"],
    "snapshots": ["write_snapshots"],
    "experiments": ["run_gaussian_exactness", "run_invariance", "run_simulate",
                    "run_wick_convergence"],
    "cli": ["main"],
}
TRANSFORMS = ("grid.coeffs_to_values", "grid.values_to_coeffs")
SOLVER_ENTRIES = ("solver.solve", "solver.stationary_solve")
SPAN_NAMES = [f"{layer}.{q.rpartition('.')[2]}"
              for layer, qs in LAYER_FUNCTIONS.items() for q in qs]
DERIVED = [
    ("solver.steps", "count"),
    ("grid.transforms", "count"),
    ("grid.transforms_per_solver_step", "1/step"),
    ("grid.fft_points", "computed_points"),
    ("sampler.pcn_steps", "count"),
    ("sampler.accept_ratio", "ratio"),
    ("snapshots.bytes_written", "B"),
    ("experiments.csv_bytes", "B"),
    ("trace.overhead_s", "s"),
]
PER_LAYER = ([(f"{n}.calls", "count") for n in SPAN_NAMES]
             + [(f"{n}.self_s", "s") for n in SPAN_NAMES] + DERIVED)


class Tracer:
    """Spans and counts of one round at a time; `clock` gives the time stamps."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.patches = []
        self.missing = []
        self.spans = None
        self.reset()

    def reset(self):
        """Start a new round: zero every count.  Spans are recorded while `spans` is a list."""
        self.stack = []
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.solver_depth = 0
        self.transforms = self.solver_transforms = self.fft_points = 0
        self.accepted = self.bytes_written = 0

    def _after(self, name, args, kwargs, result):
        if name in TRANSFORMS:
            self.transforms += 1
            self.fft_points += args[0].M ** 2
            self.solver_transforms += self.solver_depth > 0
        elif name == "sampler.pcn_step":
            self.accepted += bool(result[1])
        elif name == "snapshots.write_snapshots":
            self.bytes_written += os.path.getsize(kwargs.get("path", args[0] if args else None))

    def _wrap(self, name, fn):
        entry = name in SOLVER_ENTRIES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = None
            if self.spans is not None:
                index = len(self.spans)
                self.spans.append(None)
            parent = self.stack[-1][2] if self.stack else None
            frame = [self.clock(), 0.0, index]  # start, time in child spans, span index
            self.stack.append(frame)
            self.solver_depth += entry
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self.solver_depth -= entry
                self.stack.pop()
                duration = end - frame[0]
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if self.stack:
                    self.stack[-1][1] += duration
                if index is not None:
                    self.spans[index] = (name, frame[0], end, parent)
            self._after(name, args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"wickflow.{layer}") for layer in LAYER_FUNCTIONS}
        package = [m for n, m in sys.modules.items()
                   if n == "wickflow" or n.startswith("wickflow.")]
        for layer, qualnames in LAYER_FUNCTIONS.items():
            for qualname in qualnames:
                name = f"{layer}.{qualname.rpartition('.')[2]}"
                owner, attr = modules[layer], qualname
                if "." in qualname:
                    cls, _, attr = qualname.partition(".")
                    owner = getattr(owner, cls, None)
                fn = getattr(owner, attr, None)
                if not callable(fn):
                    self.missing.append(name)
                    continue
                wrapped = self._wrap(name, fn)
                if owner is not modules[layer]:
                    self._patch(owner, attr, wrapped, setattr)
                    continue
                for module in package:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, key, wrapped, setattr)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is fn:
                                    self._patch(value, k, wrapped, dict.__setitem__)

    def _patch(self, owner, key, wrapped, setter):
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        self.patches.append((owner, key, original, setter))
        setter(owner, key, wrapped)

    def uninstall(self):
        for owner, key, original, setter in reversed(self.patches):
            setter(owner, key, original)
        self.patches = []

    def round_metrics(self):
        """This round's counts and raw self times, keyed by per-layer metric name."""
        out = {}
        for name in SPAN_NAMES:
            missing = name in self.missing
            out[f"{name}.calls"] = None if missing else self.calls[name]
            out[f"{name}.self_s"] = None if missing else self.self_s[name]
        steps = self.calls["solver.step"]
        pcn = self.calls["sampler.pcn_step"]
        out.update({
            "solver.steps": steps,
            "grid.transforms": self.transforms,
            "grid.transforms_per_solver_step": self.solver_transforms / steps if steps else 0.0,
            "grid.fft_points": self.fft_points,
            "sampler.pcn_steps": pcn,
            "sampler.accept_ratio": self.accepted / pcn if pcn else 0.0,
            "snapshots.bytes_written": self.bytes_written,
        })
        return out
