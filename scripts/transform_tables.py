"""Time the two grid-transform routes, to place `grid.DFT_MAX_M`, and `besov_norm`.

    python3 scripts/transform_tables.py [--repeats 9] [--parent ROOT] > tables.json

Run from the root of a checkout; it imports `wickflow` from `./src` with one
BLAS thread, as `perfbench/run.py` does.  Three tables, microseconds per call,
each the median of `--repeats` interleaved timeit loops of >= 10 ms:

* crossover: per grid (K, max_degree), the single inverse of a full
  window and of a half window (the (2K+1) x (K+1) columns ky >= 0 that the
  solver steps), the single forward and one slice of an 8-slice batched
  inverse, on the FFT route (`DFT_MAX_M` set below M) and on the dense
  route (set above M);
* band: on the K = 32 grid (M = 130), the inverse and forward with
  `band` = s on both routes;
* besov: `besov_norm` (alpha = -0.2, on a partition built beforehand) at
  K = 4, 10, 16 and 32 (default degree: M = 18, 42, 66, 130), of a
  stationary sample and of that sample restricted to |k|_inf <= 4.  With
  `--parent ROOT` the same calls run also on the `wickflow` of the
  checkout at ROOT (say, a parent commit), loaded into this process under
  another name and timed interleaved with this checkout's; the table says
  whether the two trees' norms are equal.

Writes one JSON object to stdout and the tables as markdown to stderr.
"""

import argparse
import importlib
import importlib.util
import json
import os
import sys
import timeit

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import wickflow.grid as grid_module  # noqa: E402
from wickflow import sample_stationary  # noqa: E402
from wickflow.grid import TorusGrid  # noqa: E402

# (K, max_degree) and their M: both sides of the bound, FFT-friendly sizes
# and the FFT-hostile 82 = 2*41, 122 = 2*61, 146 = 2*73, 158 = 2*79 and
# 194 = 2*97
GRIDS = [(4, 2), (10, 3), (10, 4), (16, 3), (16, 4), (24, 3), (25, 3), (24, 4),
         (32, 3), (34, 3), (36, 3), (37, 3), (38, 3), (39, 3), (32, 4), (48, 3),
         (51, 4)]
BANDS = [0, 1, 2, 4, 5, 8, 10, 16, 21, 32]
ROUTES = {"fft": -1, "dense": 10**6}


def per_call_us(fn, repeats, per=1):
    """Median over interleaved repeats, a list of thunks -> microseconds each."""
    loops = []
    for f in fn:
        f()  # fill the caches
        n, t = 1, 0.0
        while t < 0.01:
            n *= 2
            t = timeit.timeit(f, number=n)
        loops.append(n)
    times = [[] for _ in fn]
    for _ in range(repeats):
        for i, f in enumerate(fn):
            times[i].append(timeit.timeit(f, number=loops[i]) / loops[i])
    return [round(float(np.median(t)) * 1e6 / per, 1) for t in times]


def routed(route, f):
    def call():
        grid_module.DFT_MAX_M = ROUTES[route]
        return f()
    return call


def crossover(repeats):
    rows = []
    for K, d in GRIDS:
        g = TorusGrid(K, d)
        n = 2 * K + 1
        rng = np.random.default_rng(K)
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = g.half_window(c)
        batch = rng.standard_normal((8, n, n)) + 1j * rng.standard_normal((8, n, n))
        v = rng.standard_normal((g.M, g.M))
        row = {"K": K, "max_degree": d, "M": g.M}
        for name, f, per in (("inverse", lambda: g.coeffs_to_values(c), 1),
                             ("inverse_half", lambda: g.coeffs_to_values(h), 1),
                             ("forward", lambda: g.values_to_coeffs(v), 1),
                             ("inverse_batch8", lambda: g.coeffs_to_values(batch), 8)):
            fft, dense = per_call_us([routed("fft", f), routed("dense", f)], repeats, per)
            row.update({f"{name}_fft_us": fft, f"{name}_dense_us": dense,
                        f"{name}_fft_over_dense": round(fft / dense, 2)})
        rows.append(row)
        print(f"| {g.M} | {row['inverse_fft_us']:.0f}/{row['inverse_dense_us']:.0f} "
              f"| {row['inverse_half_fft_us']:.0f}/{row['inverse_half_dense_us']:.0f} "
              f"| {row['forward_fft_us']:.0f}/{row['forward_dense_us']:.0f} "
              f"| {row['inverse_batch8_fft_us']:.0f}/{row['inverse_batch8_dense_us']:.0f} |",
              file=sys.stderr)
    return rows


def band_table(repeats, K=32, d=3):
    g = TorusGrid(K, d)
    n = 2 * K + 1
    rng = np.random.default_rng(0)
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v = rng.standard_normal((g.M, g.M))
    rows = []
    for s in BANDS:
        row = {"band": s}
        for name, f in (("inverse", lambda: g.coeffs_to_values(c, band=s)),
                        ("forward", lambda: g.values_to_coeffs(v, band=s))):
            fft, dense = per_call_us([routed("fft", f), routed("dense", f)], repeats)
            row.update({f"{name}_fft_us": fft, f"{name}_dense_us": dense})
        rows.append(row)
        print(f"| {s} | {row['inverse_fft_us']:.0f}/{row['inverse_dense_us']:.0f} "
              f"| {row['forward_fft_us']:.0f}/{row['forward_dense_us']:.0f} |", file=sys.stderr)
    return {"K": K, "max_degree": d, "M": g.M, "rows": rows}


def load_tree(root, name):
    """The `wickflow` package of the checkout at `root`, imported as `name`."""
    init = os.path.join(root, "src", "wickflow", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return name


def besov_table(repeats, parent=None):
    trees = {"change": "wickflow"}
    if parent is not None:
        trees["parent"] = load_tree(parent, "wickflow_parent")
    rows = []
    for K in (4, 10, 16, 32):
        g = TorusGrid(K)
        u = sample_stationary(g, np.random.default_rng(K)).coeffs
        inside = (np.abs(g.kx) <= 4) & (np.abs(g.ky) <= 4)
        for field, coeffs in (("stationary", u), ("band 4", np.where(inside, u, 0.0))):
            calls, norms = [], {}
            for side, name in trees.items():
                grid_m = importlib.import_module(f"{name}.grid")
                besov = importlib.import_module(f"{name}.besov")
                tg = grid_m.TorusGrid(K)
                x = grid_m.SpectralField(tg, coeffs.copy())
                part, spec = besov.build_partition(tg), besov.BesovSpec(-0.2)
                norms[side] = besov.besov_norm(x, spec, part)
                calls.append(lambda b=besov, x=x, p=part, a=spec: b.besov_norm(x, a, p))
            times = dict(zip(trees, per_call_us(calls, repeats)))
            row = {"K": K, "M": g.M, "field": field, **{f"{k}_us": v for k, v in times.items()}}
            if parent is not None:
                row["change_over_parent"] = round(times["change"] / times["parent"], 3)
                row["norms_equal"] = norms["change"] == norms["parent"]
            rows.append(row)
            print(f"| {K} | {g.M} | {field} | " + " | ".join(f"{v:.1f}" for v in times.values())
                  + " |", file=sys.stderr)
    return {"trees": list(trees), "parent": parent, "rows": rows}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--parent", metavar="ROOT",
                        help="time besov_norm also on the checkout at ROOT")
    args = parser.parse_args(argv)
    bound = grid_module.DFT_MAX_M
    print("| M | inverse | inverse, half window | forward | inverse, per slice of 8 |"
          "  (FFT/dense, us)", file=sys.stderr)
    cross = crossover(args.repeats)
    print("| band | inverse | forward |  (FFT/dense, us, M = 130)", file=sys.stderr)
    bands = band_table(args.repeats)
    grid_module.DFT_MAX_M = bound
    print("| K | M | field | besov_norm, this checkout" + (" | parent" if args.parent else "")
          + " |  (us)", file=sys.stderr)
    besov = besov_table(args.repeats, args.parent)
    json.dump({
        "method": f"scripts/transform_tables.py --repeats {args.repeats}: one process, one BLAS "
                  "thread; microseconds per call (per slice for the batch), median of interleaved "
                  "timeit loops of >= 10 ms; the route forced by setting grid.DFT_MAX_M",
        "environment": {"python": sys.version.split()[0], "numpy": np.__version__,
                        "cores": os.cpu_count()},
        "DFT_MAX_M": bound, "crossover": cross, "band": bands, "besov": besov,
    }, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
