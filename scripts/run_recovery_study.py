"""Sampling-properties study: parameter recovery across panel sizes.

Simulates the baseline design at several (regions, periods) combinations,
fits each with the default chain settings, and prints posterior means,
medians and 95% HDIs alongside the realised population values, plus the
per-draw correlation of each latent block with its truth.

Usage:
    python scripts/run_recovery_study.py [--quick] [--out results.csv]
"""

import argparse
import sys

import numpy as np

from hiddenpop.analysis import chain_summary, rho_hat
from hiddenpop.data import _write_rows
from hiddenpop.sampler import ChainConfig, run_chain
from hiddenpop.simulate import DgpConfig, simulate

SIZES = [(7, 7, 5), (7, 7, 10), (10, 10, 5), (10, 10, 10), (14, 14, 10)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short chains and the two smallest sizes only")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--out", default=None, help="optional CSV destination")
    args = parser.parse_args(argv)

    sizes = SIZES[:2] if args.quick else SIZES
    # the full run is ChainConfig's defaults
    chain_kwargs = dict(n_iter=4000, burn_in=2000) if args.quick else {}

    rows = []
    for rows_, cols, periods in sizes:
        n = rows_ * cols
        truth = simulate(DgpConfig(grid_rows=rows_, grid_cols=cols,
                                   n_periods=periods, seed=args.seed))
        draws = run_chain(truth.dataset, truth.graph, ChainConfig(seed=1, **chain_kwargs))
        summary = {r["parameter"]: r for r in chain_summary(draws)}
        rho = {
            "eta_plus": rho_hat(draws.eta_plus, truth.true_eta_plus),
            "u_plus": rho_hat(draws.u_plus.reshape(draws.n_draws, -1),
                              truth.true_u_plus.ravel()),
            "v": rho_hat(draws.v, truth.true_v),
        }
        label = f"N={n} T={periods}"
        print(f"\n== {label} ==")
        print(f"  population: -eta {(-truth.true_eta_plus).mean():+.3f}"
              f"  -u {(-truth.true_u_plus).mean():+.3f}"
              f"  v median {np.median(truth.true_v):+.3f}")
        for name in ("beta_1", "beta_2", "sigma_eta", "sigma_u", "sigma_v",
                     "sigma_alpha", "sigma_eps", "minus_eta_plus", "minus_u_plus"):
            r = summary[name]
            print(f"  {name:>15}: mean {r['mean']:+.3f}  median {r['median']:+.3f}"
                  f"  hdi ({r['hdi_lower']:+.3f}, {r['hdi_upper']:+.3f})")
        print(f"  correlations with truth: eta {rho['eta_plus']:.3f}"
              f"  u {rho['u_plus']:.3f}  v {rho['v']:.3f}")
        print(f"  acceptance: alpha {draws.accept_rate_alpha:.2f}"
              f"  eps {draws.accept_rate_eps:.2f}")
        for name, r in summary.items():
            rows.append([label, name, r["mean"], r["median"],
                         r["hdi_lower"], r["hdi_upper"]])

    if args.out:
        _write_rows(args.out, ["size", "parameter", "mean", "median",
                               "hdi_lower", "hdi_upper"], rows)
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
