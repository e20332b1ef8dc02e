"""Probability kernels shared by every sampler update.

The panel covariance that appears throughout the model is the compound
symmetric matrix

    Sigma = sigma2_eps * I_T + sigma2_alpha * 1_T 1_T'

which has the rank-one closed-form inverse

    Sigma^{-1} = a * I_T - c * 1_T 1_T',
    a = 1 / sigma2_eps,
    c = sigma2_alpha / (sigma2_eps * (sigma2_eps + T * sigma2_alpha)).

Nothing here ever materialises Sigma densely outside of test oracles; all
quadratic forms use the (a, c) pair so one product costs O(T).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri

# Standardized lower bound beyond which inverse-CDF sampling loses accuracy
# and exponential rejection is essentially rejection-free.
_TAIL_SWITCH = 4.0

# Median of the chi-squared distribution with one degree of freedom.
CHI2_DF1_MEDIAN = 0.45493642311957283


class NumericalError(RuntimeError):
    """Linear-algebra failure carrying a condition-number diagnostic."""

    def __init__(self, message: str, condition: float | None = None):
        if condition is not None:
            message = f"{message} (condition number ~ {condition:.3e})"
        super().__init__(message)
        self.condition = condition


def _robert_tail(a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal draws conditioned on exceeding a, for large a.

    Exponential rejection (Robert 1995): propose a + Exp(lam)/lam with
    lam = (a + sqrt(a^2 + 4)) / 2 and accept with probability
    exp(-(z - lam)^2 / 2). Acceptance is > 0.9 for a > 1, so the loop
    terminates almost immediately in the regime where it is used.
    """
    a = np.asarray(a, dtype=float)
    lam = 0.5 * (a + np.sqrt(a * a + 4.0))
    out = np.empty(a.shape)
    pending = np.arange(a.size)
    a_flat, lam_flat, out_flat = a.ravel(), lam.ravel(), out.reshape(-1)
    while pending.size:
        ap = a_flat[pending]
        lp = lam_flat[pending]
        z = ap + rng.exponential(size=pending.size) / lp
        accept = rng.random(pending.size) <= np.exp(-0.5 * (z - lp) ** 2)
        out_flat[pending[accept]] = z[accept]
        pending = pending[~accept]
    return out


def truncated_normal(mean, sd, lower=0.0, *, rng: np.random.Generator) -> np.ndarray:
    """Vectorized exact sampler for Normal(mean, sd^2) given X > 0.

    Central regime: inverse survival-function sampling, which stays exact
    for untruncated draws as the bound recedes. Deep tail (standardized
    bound above 4): exponential rejection, which never stalls no matter
    how far the mean sits below the bound. The generator is consumed in a
    fixed order: one uniform per central cell first, then the tail
    proposals. sd broadcasts against mean. The bound is 0 for every
    caller; `lower` only lets a caller name it and must be 0.
    """
    if lower != 0.0:
        raise ValueError(f"truncated_normal draws above 0 only, got lower={lower!r}")
    mean = np.asarray(mean, dtype=float)
    # b is minus the standardized bound and w minus the standardized draw,
    # so the central path needs no negations: x = mean - sd * w
    b = mean / sd
    deep = b < -_TAIL_SWITCH
    if np.count_nonzero(deep):
        w = np.empty(b.shape)
        central = ~deep
        w[central] = _inverse_survival(b[central], rng)
        w[deep] = -_robert_tail(-b[deep], rng)
    else:
        w = _inverse_survival(b, rng)
    x = mean - sd * w
    # Guard against rounding onto the bound itself; draws are strictly above.
    return np.maximum(x, math.nextafter(0.0, math.inf))


def _inverse_survival(b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Minus a standard-normal draw conditioned on exceeding -b, for moderate b."""
    # q uniform on (0, S(-b)] = (0, Phi(b)]; inverting the survival keeps
    # precision in the tail where the CDF saturates.
    q = (1.0 - rng.random(b.shape)) * ndtr(b)
    return ndtri(q)


def sample_inverse_gamma(shape: float, scale: float, rng: np.random.Generator) -> float:
    """Draw X with density proportional to x^(-shape-1) exp(-scale/x)."""
    if not (shape > 0.0 and scale > 0.0):
        raise ValueError(f"shape and scale must be positive, got {shape}, {scale}")
    g = rng.gamma(shape)
    while g == 0.0:  # underflow guard, only reachable for tiny shapes
        g = rng.gamma(shape)
    return scale / g


def _inverse_factors(sigma2_eps: float, sigma2_alpha: float, t: int) -> tuple[float, float]:
    """(a, c) of Sigma^{-1} = a * I - c * 11', unvalidated for the sampler's hot path."""
    return 1.0 / sigma2_eps, sigma2_alpha / (sigma2_eps * (sigma2_eps + t * sigma2_alpha))


def _logdet(sigma2_eps: float, sigma2_alpha: float, t: int) -> float:
    """log |Sigma|, unvalidated for the sampler's hot path."""
    return (t - 1) * math.log(sigma2_eps) + math.log(sigma2_eps + t * sigma2_alpha)


def mh_scaled_chisq_step(log_target, current: float, rng: np.random.Generator,
                         step_scale: float) -> tuple[float, bool]:
    """One Metropolis-Hastings move of a scalar with a median-centred
    chi-squared proposal.

    Proposes value' = value * (z / m)^s with z ~ chi2(1) and m the chi2(1)
    median, so the proposal's median is the current value and moves are
    multiplicative. The Hastings correction for this asymmetric kernel is

        (s - 1) * log(z / m) + (z - m^2 / z) / 2.

    A -inf target marks a truncated support: a proposal outside it is
    rejected, and any proposal inside it from a state outside is taken.
    Returns (new_value, accepted). The move runs on Python floats with the
    bits and the stream of the elementwise oracle in the tests, which three
    rules keep: the logs are numpy's, whose vector code can differ from
    libm's in the last bit; (z / m)^s is Python's `**`, libm's pow as on a
    numpy scalar; and one uniform is drawn on every step, also when the
    outcome is already decided.
    """
    z = rng.chisquare(1.0)
    zm = z / CHI2_DF1_MEDIAN
    proposal = current * zm**step_scale
    correction = (step_scale - 1.0) * np.log(zm) + 0.5 * (z - CHI2_DF1_MEDIAN**2 / z)
    lt_prop = log_target(proposal)
    lt_cur = log_target(current)
    log_u = np.log(rng.random())
    if lt_prop == -math.inf:
        return current, False
    if lt_cur == -math.inf or log_u < lt_prop - lt_cur + correction:
        return proposal, True
    return current, False
