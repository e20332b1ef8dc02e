"""Signal-ratio sweep: estimator behaviour as lambda = (s_eta + s_u) / s_eps varies.

Rebuilds the noise scale for each target ratio (holding the one-sided
scales fixed), fits the model, and reports slope recovery and the scale
estimates. Small ratios sit in the weak-identification regime where the
one-sided components are hard to separate from noise.

Usage:
    python scripts/run_lambda_sweep.py [--quick] [--ratios 0.1,0.7,1,7,10]
"""

import argparse
import sys

import numpy as np

from hiddenpop.analysis import hdi
from hiddenpop.sampler import ChainConfig, run_chain
from hiddenpop.simulate import DgpConfig, lambda_of, make_lambda_scenario, simulate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=401)
    parser.add_argument("--ratios", default="0.1,0.223,0.316,0.7,1.0,7.0,10.0")
    args = parser.parse_args(argv)

    ratios = [float(x) for x in args.ratios.split(",")]
    # the full run is ChainConfig's defaults
    chain_kwargs = dict(n_iter=4000, burn_in=2000) if args.quick else {}

    print(f"{'true lambda':>12} {'sigma_eps':>10} {'beta1':>7} {'beta1 hdi':>18}"
          f" {'post lambda':>12} {'sigma_alpha hdi':>20}")
    for ratio in ratios:
        config = make_lambda_scenario(ratio, DgpConfig(seed=args.seed))
        truth = simulate(config)
        draws = run_chain(truth.dataset, truth.graph, ChainConfig(seed=1, **chain_kwargs))
        b1 = float(draws.beta[:, 0].mean())
        lo, hi = hdi(draws.beta[:, 0], 0.95)
        lam_draws = ((np.sqrt(draws.sigma2_eta) + np.sqrt(draws.sigma2_u))
                     / np.sqrt(draws.sigma2_eps))
        la, ha = hdi(np.sqrt(draws.sigma2_alpha), 0.95)
        print(f"{lambda_of(config):>12.3f} {config.sigma_eps:>10.3f} {b1:>7.3f}"
              f"   ({lo:.3f}, {hi:.3f}) {float(lam_draws.mean()):>12.3f}"
              f"     ({la:.3f}, {ha:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
