"""Checks of the benchmark's own bulk-ESS routine.

Run with `python -m pytest perfbench/tests` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from ess import bulk_ess, ess_from_chains  # noqa: E402


def _ar1(rho: float, shape: tuple[int, int], seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(shape) * np.sqrt(1.0 - rho * rho)
    out = np.empty(shape)
    out[:, 0] = rng.standard_normal(shape[0])
    for t in range(1, shape[1]):
        out[:, t] = rho * out[:, t - 1] + noise[:, t]
    return out


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_ar1_matches_closed_form(rho):
    # A stationary AR(1) has ESS = n (1 - rho) / (1 + rho). With 4 x 25000
    # draws the estimator's relative error is a few percent even at 0.9.
    chains = _ar1(rho, (4, 25_000), seed=11)
    expected = chains.size * (1.0 - rho) / (1.0 + rho)
    assert bulk_ess(chains) == pytest.approx(expected, rel=0.08)
    assert ess_from_chains(chains) == pytest.approx(expected, rel=0.08)


def test_bulk_ess_ignores_monotone_transforms():
    chains = _ar1(0.7, (2, 4000), seed=3)
    assert bulk_ess(np.exp(3.0 * chains)) == pytest.approx(bulk_ess(chains), rel=1e-12)


def test_split_exposes_a_drifting_chain():
    # Half the chain sits at one level and half at another: a single chain
    # looks well mixed around its own mean only if it is not split.
    rng = np.random.default_rng(5)
    drift = np.concatenate([rng.standard_normal(2000), 5.0 + rng.standard_normal(2000)])
    assert bulk_ess(drift) < 0.05 * drift.size


def test_rejects_non_finite_and_short_chains():
    with pytest.raises(ValueError):
        bulk_ess(np.array([0.0, 1.0, np.nan, 2.0, 3.0, 4.0, 5.0, 6.0]))
    with pytest.raises(ValueError):
        bulk_ess(np.arange(6.0))
