"""Benchmark of wickflow's suites, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src.  The
process repeats one round of the workload (the same inputs every round)
for S seconds, checks every round's output, and prints as its last stdout
line one JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: `setup_s` (process start to
ready) and `wall_s` (median seconds of one round), both rescaled by the
calibration kernel, and `peak_rss_mib`.  --trace 1 spends half the run
untraced and half traced and reports the per-layer metrics of
`tracing.PER_LAYER`.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

PACE_S = 0.04  # seconds of round between two kernel slices
CALIBRATION_SLICES = 8  # slices that end the set-up and rescale it
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def process_age():
    """Seconds since this process started (the OS start stamp, in 10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rpartition(")")[2].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Kernel:
    """Calibration kernel, no wickflow code: `fft_pairs` round trips of a
    (2K+1)^2 coefficient window through an M x M FFT pair, as the program's
    grid transforms do, then a Python float loop of `loop` steps.  One call
    is a slice of a few milliseconds."""

    def __init__(self, K, size, fft_pairs, loop, reference_s):
        import numpy as np

        self.np = np
        self.size, self.fft_pairs, self.loop, self.reference_s = size, fft_pairs, loop, reference_s
        n = 2 * K + 1
        idx = np.fft.fftfreq(n, 1.0 / n).round().astype(int) % size
        self.window = np.ix_(idx, idx)
        self.coeffs = np.random.default_rng(0).standard_normal((n, n)) + 0j

    def __call__(self):
        np = self.np
        start = time.perf_counter()
        c = self.coeffs
        for _ in range(self.fft_pairs):
            big = np.zeros((self.size, self.size), dtype=np.complex128)
            big[self.window] = c
            c = np.fft.fft2(np.fft.ifft2(big).real)[self.window]
        s = 0.0
        for i in range(self.loop):
            s += (i & 7) * 0.5 - s * 1e-9
        return time.perf_counter() - start


class Pacer:
    """Interleaves kernel slices with a round at a fine grain.

    Inside `with pacer:` a SIGALRM handler runs one slice every `interval`
    seconds, wherever the program is, so the slices sample the host's speed
    all through the round; a slice also runs just before and after it.  The
    seconds the slices take are left out of `clock()`, and the round's time
    is rescaled by kernel.reference_s / (mean slice time): host slowdowns
    that the process cannot see stretch the slices like the round."""

    def __init__(self, kernel, interval):
        self.kernel, self.interval = kernel, interval
        self.spent = 0.0
        self.slices = []

    def clock(self):
        return time.perf_counter() - self.spent

    def sample(self):
        start = time.perf_counter()
        self.slices.append(self.kernel())
        self.spent += time.perf_counter() - start

    def _tick(self, signum, frame):
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self):
        return self.kernel.reference_s / statistics.fmean(self.slices)


def run_rounds(workload, pacer, seconds, state, tracer=None):
    """Repeat the round until `seconds` pass (at least once), checking each."""
    deadline = time.perf_counter() + seconds
    rounds = []
    while not rounds or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        pacer.slices = []
        pacer.sample()
        start = pacer.clock()
        try:
            with pacer:
                out = workload.call()
            raw = pacer.clock() - start
            problems = workload.check(out)
            fingerprint = workload.fingerprint(out)
            if state.setdefault("fingerprint", fingerprint) != fingerprint:
                problems.append("output differs from the first round's")
        except Exception:  # a round that raises is a failed operation, reported below
            raw = pacer.clock() - start
            problems = [traceback.format_exc()]
        pacer.sample()
        layers = None
        if tracer is not None:
            layers = tracer.round_metrics()
            if tracer.spans:  # keep the spans of the first traced round only
                state["spans"], tracer.spans = tracer.spans, None
        for p in problems:
            print(f"round {len(rounds)}: {p}", file=sys.stderr)
        rounds.append({"raw": raw, "scale": pacer.scale(), "ok": not problems, "layers": layers})
    return rounds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv=None):
    args = parse_args(argv)
    # numpy is first imported below, so its BLAS sees one thread
    os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("WICKFLOW_OUT", None)  # the CLI would write there instead of --out
    if not os.path.isfile(os.path.join(SRC, "wickflow", "__init__.py")):
        print(f"error: no wickflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=out_dir)
    try:
        return measure(args, workloads.WORKLOADS[args.workload], tracing, out_dir, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, workload_cls, tracing, out_dir, scratch):
    workload = workload_cls(args.seed, scratch)
    kernel = Kernel(*workload_cls.kernel)
    kernel()  # warm the FFT caches before the measured slices
    calibration = [kernel() for _ in range(CALIBRATION_SLICES)]
    setup_raw = process_age()
    setup_s = setup_raw * kernel.reference_s / statistics.fmean(calibration)
    pacer = Pacer(kernel, PACE_S)
    state = {}

    problems = []
    if args.trace == 0:
        rounds = run_rounds(workload, pacer, args.seconds, state)
    else:
        plain = run_rounds(workload, pacer, args.seconds / 2, state)
        tracer = tracing.Tracer(pacer.clock)
        tracer.install()
        tracer.spans = []
        try:
            traced = run_rounds(workload, pacer, args.seconds / 2, state, tracer)
        finally:
            tracer.uninstall()
        rounds = plain + traced
        spans_path = os.path.join(out_dir, f"trace-{args.workload}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": state.get("spans", [])}, fh)
        for name in tracer.missing:
            print(f"trace: {name} is missing from the package", file=sys.stderr)
    problems += workload.final_checks()

    ok = [r for r in rounds if r["ok"]]
    attempted, failed = len(rounds), len(rounds) - len(ok)
    timed = ok or rounds
    raw_q = quartiles([r["raw"] for r in timed])
    wall_q = quartiles([r["raw"] * r["scale"] for r in timed])
    print(f"# {args.workload} seed {args.seed}: {attempted} rounds, {failed} failed; "
          f"round raw s q1/median/q3 = {raw_q[0]:.4f}/{raw_q[1]:.4f}/{raw_q[2]:.4f}, "
          f"rescaled = {wall_q[0]:.4f}/{wall_q[1]:.4f}/{wall_q[2]:.4f}; "
          f"setup raw {setup_raw:.4f} s, rescaled {setup_s:.4f} s")

    if args.trace == 0:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_q[1], "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        traced_ok = [r for r in traced if r["ok"]] or traced
        metrics = layer_metrics(tracing, traced_ok)
        for r in traced_ok:
            if r["layers"]["solver.steps"] != workload.steps_per_round:
                problems.append(f"traced round ran {r['layers']['solver.steps']} solver steps, "
                                f"configuration implies {workload.steps_per_round}")
        plain_wall = statistics.median(r["raw"] * r["scale"] for r in plain)
        traced_wall = statistics.median(r["raw"] * r["scale"] for r in traced_ok)
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        metrics["experiments.csv_bytes"] = (csv_bytes(scratch), "B")
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    result = {
        "correct": bool(ok) and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(tracing, rounds):
    """Median over traced rounds of each per-layer metric; self times rescaled like wall_s."""
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        if name not in rounds[0]["layers"]:
            continue
        values = [r["layers"][name] for r in rounds]
        if values[0] is None:
            metrics[name] = (None, unit)
            continue
        if name.endswith(".self_s"):
            values = [v * r["scale"] for v, r in zip(values, rounds)]
            metrics[name] = (statistics.median(values), unit)
        else:  # counts repeat from round to round; keep one that occurred
            metrics[name] = (statistics.median_low(values), unit)
    return metrics


def csv_bytes(scratch):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(scratch) for f in files if f.endswith(".csv"))


if __name__ == "__main__":
    sys.exit(main())
