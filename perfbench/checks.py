"""Output checks of the four workloads, one function each.

Each check returns a list of problems (empty when the output is correct).
Statistical bounds are fixed here, before any seed is drawn: each is a
Bonferroni bound at family-wise level ALPHA = 1e-5 over the distinct
statistics of one round.  Mode k and mode -k of a real field carry the
same |phi_k|^2, so the 25 modes |k|_inf <= 2 of the Gaussian check are 13
distinct tests.
"""

import math

import numpy as np

GAUSS_MODES = [(k1, k2) for k1 in range(-2, 3) for k2 in range(-2, 3)]
DISTINCT_MODES = [k for k in GAUSS_MODES if k > (0, 0)]  # one of each pair (k, -k), k != 0


def closed_form_variance(k, a2):
    """Stationary variance 1/(2(1 + |k|^2 + a2)) of mode k of the quadratic model."""
    return 1.0 / (2.0 * (1.0 + k[0] ** 2 + k[1] ** 2 + a2))


# Bounds for one round at ALPHA over 27 tests (13 chain z-scores, 13 SDE
# modes, the pooled SDE ratio), each two-sided at a = ALPHA / 27 / 2, for
# GAUSS_TRAJ trajectories.  n * mean / variance is Gamma(n, 1) for a complex
# mode, chi^2_n for the real k = 0 mode and Gamma(12 n, 1) for the 12
# distinct complex modes pooled.  test_perfbench recomputes them with scipy.
GAUSS_TRAJ = 16
GAUSS_BOUNDS = {
    "complex": (0.19329009235072214, 2.821073668635587),  # gamma.ppf/isf(a, n) / n
    "real": (0.07225218647267209, 3.9164008578567184),  # chi2.ppf/isf(a, n) / n
    "pooled": (0.6751777527184015, 1.4109370043584921),  # gamma.ppf/isf(a, 12n) / 12n
}
CHAIN_Z = 5.083588252079274  # norm.isf(a)
# |z| over the 32 true-dynamics z-scores of INVARIANCE_TRAJ paired drifts:
# Student t with INVARIANCE_TRAJ - 1 d.o.f., t.isf(ALPHA / 32 / 2, 31).
INVARIANCE_TRAJ = 32
INVARIANCE_Z = 6.483439426016041


def check_gaussian(res, a2, variance=closed_form_variance):
    """`run_gaussian_exactness` output (GAUSS_TRAJ trajectories): mode variances
    of the pCN chain and of the SDE ensemble, and their k / -k symmetry."""
    problems = []
    for part in ("chain", "sde"):
        for k in GAUSS_MODES:
            m, m_neg = res[part][f"{k[0]}_{k[1]}"]["mean"], res[part][f"{-k[0]}_{-k[1]}"]["mean"]
            if not abs(m - m_neg) <= 1e-12 * abs(m):
                problems.append(f"{part}: mode {k} mean {m!r} differs from mode -k {m_neg!r}")
    for k in [(0, 0)] + DISTINCT_MODES:
        entry = res["chain"][f"{k[0]}_{k[1]}"]
        z = (entry["mean"] - variance(k, a2)) / (entry["se"] * math.sqrt(entry["iat"]))
        if not abs(z) <= CHAIN_Z:
            problems.append(f"chain: mode {k} z = {z:.2f} beyond {CHAIN_Z:.2f}")
    ratios = {k: res["sde"][f"{k[0]}_{k[1]}"]["mean"] / variance(k, a2)
              for k in [(0, 0)] + DISTINCT_MODES}
    pooled = float(np.mean([ratios[k] for k in DISTINCT_MODES]))
    for k, r in list(ratios.items()) + [("pooled", pooled)]:
        lo, hi = GAUSS_BOUNDS["real" if k == (0, 0) else "pooled" if k == "pooled" else "complex"]
        if not lo <= r <= hi:
            problems.append(f"sde: mode {k} variance ratio {r:.3f} outside [{lo:.3f}, {hi:.3f}]")
    return problems


def check_invariance(results):
    """`run_invariance` results (INVARIANCE_TRAJ trajectories): finite z-scores,
    bounded true-dynamics drift, chain acceptance in (1%, 100%)."""
    problems = []
    families = ("drift_at_delta", "drift_at_half_delta", "negative_control")
    zs = {f: [s["z"] for s in results[f].values()] for f in families}
    if not all(math.isfinite(z) for f in families for z in zs[f]):
        problems.append("non-finite z-score")
    true_z = zs["drift_at_delta"] + zs["drift_at_half_delta"]
    worst = max(abs(z) for z in true_z)
    if len(true_z) != 32 or not worst <= INVARIANCE_Z:
        problems.append(f"true dynamics max |z| = {worst:.2f} over {len(true_z)} z-scores; "
                        f"bound {INVARIANCE_Z:.2f} over 32")
    if not 0.01 < results["chain_acceptance"] < 1.0:
        problems.append(f"chain acceptance {results['chain_acceptance']!r} outside (1%, 100%)")
    return problems


def check_snapshot(snapshot, expected, rtol=1e-10):
    """A WCK1 field against the reference samples, relative to the field's size."""
    scale = float(np.max(np.abs(expected)))
    err = float(np.max(np.abs(snapshot - expected))) / scale
    return [] if err <= rtol else [f"snapshot differs from reference by {err:.3e} relative"]


def check_wick2_column(csv_text, fields, c):
    """The CSV `wick2` column against the integral of x^2 - c over each WCK1 field."""
    lines = csv_text.strip().split("\n")
    col = lines[0].split(",").index("wick2")
    column = [float(line.split(",")[col]) for line in lines[1:]]
    if len(column) != len(fields):
        return [f"{len(column)} CSV records for {len(fields)} snapshots"]
    M = fields.shape[-1]
    cell = (2.0 * np.pi / M) ** 2
    problems = []
    for i, (value, x) in enumerate(zip(column, fields)):
        own = float(np.sum(x * x - c)) * cell
        if not abs(value - own) <= 1e-10 * (1.0 + float(np.sum(x * x)) * cell):
            problems.append(f"record {i}: CSV wick2 {value!r} but snapshot gives {own!r}")
    return problems


def check_wick_convergence(results):
    """`run_wick_convergence` results: mostly monotone pairs, strictly decreasing means."""
    problems = []
    if not results["fraction_monotone"] >= 0.9:
        problems.append(f"fraction_monotone {results['fraction_monotone']!r} < 0.9")
    d = results["mean_distances"]
    if not all(d[i] > d[i + 1] for i in range(len(d) - 1)):
        problems.append(f"mean distances {d!r} do not strictly decrease")
    return problems


def check_besov(norm_u, norm_2u, partition_sum):
    """Homogeneity ||2u|| = 2||u|| and the partition of unity, both to rounding."""
    problems = []
    if not abs(norm_2u - 2.0 * norm_u) <= 1e-12 * abs(norm_2u):
        problems.append(f"||2u|| = {norm_2u!r} but 2||u|| = {2.0 * norm_u!r}")
    residual = float(np.max(np.abs(partition_sum - 1.0)))
    if not residual <= 1e-12:
        problems.append(f"partition sums to 1 only within {residual:.3e}")
    return problems
