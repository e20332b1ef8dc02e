"""Hidden-population interval coverage and MAPE across panel sizes.

For each size: simulate, fit, compute the predictive interval of the
hidden population per cell at the requested credibility levels, score its
Beta-Binomial coverage against the simulated truth, and summarise the
absolute percentage error of the point estimates.

Usage:
    python scripts/run_coverage_study.py [--quick] [--levels 0.90,0.95,0.99]
"""

import argparse
import sys

import numpy as np

from hiddenpop.analysis import (
    DEFAULT_COVERAGE_LEVELS,
    coverage_report,
    mape_summary,
    predictive_intervals,
)
from hiddenpop.cli import _parse_levels
from hiddenpop.sampler import ChainConfig, run_chain
from hiddenpop.simulate import DgpConfig, simulate

SIZES = [(7, 7, 5), (7, 7, 10), (10, 10, 5), (10, 10, 10), (14, 14, 10)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=301)
    parser.add_argument("--levels", type=_parse_levels,
                        default=list(DEFAULT_COVERAGE_LEVELS))
    args = parser.parse_args(argv)

    sizes = SIZES[:2] if args.quick else SIZES
    # the full run is ChainConfig's defaults
    chain_kwargs = dict(n_iter=4000, burn_in=2000) if args.quick else {}

    print(f"{'size':>14} {'level':>6} {'coverage':>9} {'95% hdi':>18}")
    for rows_, cols, periods in sizes:
        truth = simulate(DgpConfig(grid_rows=rows_, grid_cols=cols,
                                   n_periods=periods, seed=args.seed))
        draws = run_chain(truth.dataset, truth.graph, ChainConfig(seed=1, **chain_kwargs))
        y_level = np.exp(truth.dataset.y)
        label = f"N={rows_ * cols} T={periods}"
        rng = np.random.default_rng(9)
        point, bounds = predictive_intervals(draws, y_level, args.levels)
        for level, (lo, hi) in zip(args.levels, bounds):
            rep = coverage_report(lo, hi, truth.true_p, level, rng=rng)
            print(f"{label:>14} {level:>6.2f} {rep.posterior_mean_coverage:>9.3f}"
                  f"   ({rep.coverage_hdi[0]:.3f}, {rep.coverage_hdi[1]:.3f})")
        out = mape_summary(point, truth.true_p)
        print(f"{label:>14}   MAPE average {out.average:.4f}  median {out.median:.4f}"
              f"  hdi ({out.hdi_lower:.4f}, {out.hdi_upper:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
