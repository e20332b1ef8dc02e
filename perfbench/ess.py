"""Rank-normalised split bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021),
"Rank-normalization, folding, and localization: an improved R-hat for
assessing convergence of MCMC", Bayesian Analysis 16(2):

1. split every chain in half, so within-chain drift shows up as
   between-chain variance;
2. replace the pooled draws by normal scores of their ranks
   (Blom offsets 3/8 and 1/4), which makes the estimate robust to heavy
   tails and invariant under monotone transforms;
3. combine the per-chain autocovariances with the between-chain variance
   into a multi-chain autocorrelation, and sum it with Geyer's initial
   monotone positive sequence.

Only numpy and scipy are used, so the benchmark does not depend on the
package it measures for its own yardstick.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _split(draws: np.ndarray) -> np.ndarray:
    """(M, n) chains -> (2M, n // 2) half-chains; a middle draw is dropped."""
    half = draws.shape[1] // 2
    return np.concatenate([draws[:, :half], draws[:, -half:]], axis=0)


def _rank_normalise(draws: np.ndarray) -> np.ndarray:
    ranks = rankdata(draws, method="average").reshape(draws.shape)
    return ndtri((ranks - 0.375) / (draws.size + 0.25))


def _autocovariance(chains: np.ndarray) -> np.ndarray:
    """Biased (divide-by-n) autocovariance of each row, lags 0..n-1."""
    n = chains.shape[1]
    centred = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spectrum * np.conj(spectrum), n=size, axis=1)[:, :n] / n


def ess_from_chains(chains: np.ndarray) -> float:
    """Effective sample size of (M, n) chains, no splitting or ranking.

    The autocorrelation at lag t is 1 - (W - mean_m acov_m(t)) / var_plus,
    with W the mean within-chain variance and var_plus the pooled
    marginal variance estimate; the lag sum stops at the first negative
    pair and the pair sums are forced to be non-increasing.
    """
    chains = np.asarray(chains, dtype=float)
    m, n = chains.shape
    if n < 4:
        raise ValueError(f"need at least 4 draws per chain, got {n}")
    acov = _autocovariance(chains)
    within = acov[:, 0].mean() * n / (n - 1)
    var_plus = within * (n - 1) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if not var_plus > 0:
        return float(m * n)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Pair sums P_k = rho(2k) + rho(2k+1), truncated at the first negative
    # one (Geyer's initial positive sequence) ...
    n_pairs = n // 2
    pairs = rho[: 2 * n_pairs].reshape(n_pairs, 2).sum(axis=1)
    negative = np.flatnonzero(pairs < 0)
    pairs = pairs[: negative[0]] if negative.size else pairs
    # ... then made monotone (Geyer's initial monotone sequence).
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * pairs.sum()
    tau = max(tau, 1.0 / np.log10(m * n))
    return float(m * n / tau)


def bulk_ess(draws) -> float:
    """Bulk ESS of one scalar quantity; draws shaped (n,) or (chains, n)."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if not np.all(np.isfinite(draws)):
        raise ValueError("draws contain non-finite values")
    return ess_from_chains(_rank_normalise(_split(draws)))
