"""Per-pair bias and null behaviour of LM_adj on the C4 acceptance cell.

The cell is (T, n, k) = (100, 200, 3) with normal errors under dgp 2 (the
feedback design) or dgp 1 (strictly exogenous regressors). Each
replication's panel comes from the stream the acceptance suite uses
(``derive_stream(20240501, 0, rep)``), is fitted with per-unit OLS, and is
reduced to

- the mean over ordered pairs i != j of (T-k) rho_ij^2 - mu_ij, and
- the LM_adj statistic built from the pair moments (mu_ij, sigma_ij).

The script prints T times the per-pair bias with its Monte Carlo standard
error over replications, and the mean, variance and 5 percent upper-tail
rejection frequency of LM_adj. ``--overlap-free`` replaces the exact
moments by those of disjoint design column spaces (Q_i'Q_j = 0), which
drops the cross-design overlap ||Q_i'Q_j||_F^2 from mu_ij and sigma_ij.

    PYTHONPATH=src python scripts/lmadj_diagnostic.py --dgp 2 --reps 2000
    PYTHONPATH=src python scripts/lmadj_diagnostic.py --dgp 1 --reps 150 --overlap-free
"""

from __future__ import annotations

import argparse

import numpy as np

from panelcd.correlation import correlation_matrix, moment_weights, projection_moment_grids
from panelcd.dgp import DgpConfig, generate_panel
from panelcd.mc import derive_stream
from panelcd.panel import fit

T, N, K = 100, 200, 3
ROOT_SEED = 20240501
Z_05 = 1.6448536269514722


def _moments(bases, t, k, overlap_free):
    if not overlap_free:
        # the full (n, n) grids, each unordered pair mirrored from its tile
        mu, sigma = np.empty((N, N)), np.empty((N, N))
        for rows, cols, *tiles in projection_moment_grids(bases, t, k):
            for out, tile in zip((mu, sigma), tiles):
                if rows == cols:
                    lower = np.tril_indices(len(tile), -1)
                    tile[lower] = tile.T[lower]
                out[rows, cols] = tile
                out[cols, rows] = tile.T
        return mu, sigma
    a1, a2 = moment_weights(t, k)
    tr = t - 2 * k
    return tr / (t - k), np.sqrt(tr * tr * a1 + 2.0 * tr * a2)


def run(dgp, reps, overlap_free):
    cfg = DgpConfig(dgp=dgp, t=T, n=N, k=K)
    off = ~np.eye(N, dtype=bool)
    bias, stats = np.empty(reps), np.empty(reps)
    for r in range(reps):
        gen = generate_panel(cfg, derive_stream(ROOT_SEED, 0, r))
        resid = fit(gen.panel, gen.model_spec, keep_bases=True)
        te, ke = resid.t_eff, resid.k_eff
        x = (te - ke) * correlation_matrix(resid).rho ** 2
        mu, sigma = _moments(resid.ortho_bases, te, ke, overlap_free)
        bias[r] = np.mean((x - mu)[off])
        stats[r] = np.sum(((x - mu) / sigma)[off]) / np.sqrt(2.0 * N * (N - 1))
    return {
        "T*bias": T * bias.mean(),
        "T*bias_se": T * bias.std(ddof=1) / np.sqrt(reps),
        "LM_adj_mean": stats.mean(),
        "LM_adj_var": stats.var(ddof=1),
        "LM_adj_freq_pct": 100.0 * np.mean(stats > Z_05),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dgp", type=int, default=2, choices=(1, 2))
    ap.add_argument("--reps", type=int, default=2000)
    ap.add_argument("--overlap-free", action="store_true")
    a = ap.parse_args(argv)
    out = run(a.dgp, a.reps, a.overlap_free)
    label = f"dgp{a.dgp} ({T},{N}) k={K} reps={a.reps} seed={ROOT_SEED}"
    label += " overlap-free" if a.overlap_free else " exact"
    print(label + ": " + ", ".join(f"{key}={val:.4f}" for key, val in out.items()))


if __name__ == "__main__":
    main()
