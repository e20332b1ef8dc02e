"""Unconditional spatial screening via standardized incidence ratios.

Expected counts standardise within each period (every region gets the
period's aggregate rate applied to its own population); the ratio of
observed to expected is smoothed through a gamma prior on the relative
risk, giving closed-form posterior exceedance probabilities used to flag
hot spots at fixed credibility tiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .data import CountPanel, _write_columns

DEFAULT_PRIOR_NU = 0.01
DEFAULT_PRIOR_ALPHA = 0.01
DEFAULT_TIERS = (0.90, 0.95, 0.99)


@dataclass(frozen=True)
class SirTable:
    sir: np.ndarray          # (N, T) observed / expected
    expected: np.ndarray     # (N, T)
    exceedance: np.ndarray   # (N, T) P(relative risk > 1)
    regions: np.ndarray
    times: np.ndarray


def compute_sir(panel: CountPanel, nu: float = DEFAULT_PRIOR_NU,
                alpha: float = DEFAULT_PRIOR_ALPHA) -> SirTable:
    """Expected counts, incidence ratios and exceedance probabilities.

    One standardisation per period: E_it = n_it * (sum_i s_it) / (sum_i
    n_it), so expected counts sum to the observed counts within each
    period. The ratio s/E is also the Poisson maximum-likelihood estimate
    of the relative risk. The exceedance takes the observed counts, not
    (s/E) * E, which rounds.
    """
    s = panel.s.astype(float)
    n = panel.n
    s_tot = s.sum(axis=0)
    if np.any(s_tot <= 0):
        bad = ", ".join(f"time={label}" for label in panel.times[s_tot <= 0].tolist())
        raise ValueError(f"periods with zero total count: {bad}")
    expected = n * (s_tot / n.sum(axis=0))[None, :]
    return SirTable(
        sir=s / expected, expected=expected,
        exceedance=exceedance_probability(s, expected, nu, alpha),
        regions=panel.regions, times=panel.times,
    )


def exceedance_probability(s, expected, nu: float = DEFAULT_PRIOR_NU,
                           alpha: float = DEFAULT_PRIOR_ALPHA):
    """P(relative risk > 1 | s, E) under the gamma-Poisson model.

    The risk posterior is Gamma(shape s + nu, rate E + alpha), so the
    exceedance is the regularized upper incomplete gamma function at the
    rate (shape/rate parameterisation, not shape/scale).
    """
    s = np.asarray(s, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if np.any(s < 0):
        raise ValueError("counts must be nonnegative")
    if np.any(expected <= 0):
        raise ValueError("expected counts must be positive")
    if not (nu > 0 and alpha > 0):
        raise ValueError("prior parameters must be positive")
    out = gammaincc(s + nu, expected + alpha)
    return float(out) if out.ndim == 0 else out


def flag_hotspots(table: SirTable, thresholds=DEFAULT_TIERS) -> np.ndarray:
    """Tier label per cell: the highest threshold its exceedance reaches.

    Thresholds are inclusive (an exceedance of exactly 0.90 earns the 90
    tier); cells under every threshold are labelled 'none'. A tier is
    labelled with its threshold in percent to 6 significant digits
    (0.905 -> '90.5'); two thresholds that share a label are rejected.
    """
    tiers = np.full(table.exceedance.shape, "none", dtype=object)
    labels = {}
    for thr in sorted(thresholds):
        label = f"{thr * 100:g}"
        if label in labels:
            raise ValueError(f"thresholds {labels[label]} and {thr} share the tier label "
                             f"{label!r}")
        labels[label] = thr
        tiers[table.exceedance >= thr] = label
    return tiers


def write_sir_csv(table: SirTable, tiers: np.ndarray, path) -> None:
    _write_columns(path, ["region", "time", "sir", "expected", "exceedance", "tier"],
                   table.regions, table.times,
                   [table.sir, table.expected, table.exceedance, tiers])
