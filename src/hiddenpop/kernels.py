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
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
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


def make_rng(seed) -> np.random.Generator:
    """Seeded random stream; every sampling routine takes one explicitly."""
    return np.random.default_rng(seed)


def split_rng(seed, n: int) -> list[np.random.Generator]:
    """n independent streams derived from one master seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


@dataclass(frozen=True)
class TruncatedNormalSpec:
    """Normal(mean, variance) conditioned on exceeding lower_bound."""

    mean: float
    variance: float
    lower_bound: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("truncated normal requires finite mean and variance")
        if self.variance <= 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")
        if not math.isfinite(self.lower_bound):
            raise ValueError("lower bound must be finite")


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
    """Vectorized exact sampler for Normal(mean, sd^2) given X > lower.

    Central regime: inverse survival-function sampling, which stays exact
    for untruncated draws as the bound recedes. Deep tail (standardized
    bound above 4): exponential rejection, which never stalls no matter
    how far the mean sits below the bound. The generator is consumed in a
    fixed order: one uniform per central cell first, then the tail
    proposals. sd and lower broadcast against mean.
    """
    mean = np.asarray(mean, dtype=float)
    # b is minus the standardized bound and w minus the standardized draw,
    # so the central path needs no negations: x = mean - sd * w.
    b = (mean - lower) / sd
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
    above = (math.nextafter(lower, math.inf) if isinstance(lower, (int, float))
             else np.nextafter(lower, np.inf))
    return np.maximum(x, above)


def _inverse_survival(b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Minus a standard-normal draw conditioned on exceeding -b, for moderate b."""
    # q uniform on (0, S(-b)] = (0, Phi(b)]; inverting the survival keeps
    # precision in the tail where the CDF saturates.
    q = (1.0 - rng.random(np.shape(b))) * ndtr(b)
    return ndtri(q)


def sample_truncated_normal(spec: TruncatedNormalSpec, rng: np.random.Generator) -> float:
    """One exact draw from the one-sided law described by spec."""
    value = truncated_normal(
        np.array(spec.mean), math.sqrt(spec.variance), spec.lower_bound, rng=rng
    )
    return float(value)


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


@dataclass(frozen=True)
class CompoundSymmetricCov:
    """sigma2_eps * I_T + sigma2_alpha * 11' and its rank-one algebra."""

    sigma2_eps: float
    sigma2_alpha: float
    t_len: int

    def __post_init__(self):
        if not (math.isfinite(self.sigma2_eps) and self.sigma2_eps > 0.0):
            raise ValueError(f"sigma2_eps must be positive, got {self.sigma2_eps}")
        if not (math.isfinite(self.sigma2_alpha) and self.sigma2_alpha >= 0.0):
            raise ValueError(f"sigma2_alpha must be nonnegative, got {self.sigma2_alpha}")
        if self.t_len < 1:
            raise ValueError(f"t_len must be >= 1, got {self.t_len}")

    @property
    def inverse_factors(self) -> tuple[float, float]:
        """(a, c) such that Sigma^{-1} = a * I - c * 11'."""
        return _inverse_factors(self.sigma2_eps, self.sigma2_alpha, self.t_len)

    @property
    def one_inv_one(self) -> float:
        """1' Sigma^{-1} 1 = T / (sigma2_eps + T * sigma2_alpha)."""
        return self.t_len / (self.sigma2_eps + self.t_len * self.sigma2_alpha)

    @property
    def logdet(self) -> float:
        return _logdet(self.sigma2_eps, self.sigma2_alpha, self.t_len)

    def dense(self) -> np.ndarray:
        t = self.t_len
        return self.sigma2_eps * np.eye(t) + self.sigma2_alpha * np.ones((t, t))

    def inverse(self) -> np.ndarray:
        """Dense T x T inverse, for callers that genuinely need the matrix."""
        a, c = self.inverse_factors
        t = self.t_len
        return a * np.eye(t) - c * np.ones((t, t))

    def quad_form(self, x: np.ndarray, y: np.ndarray | None = None) -> float:
        """x' Sigma^{-1} y in O(T)."""
        if y is None:
            y = x
        a, c = self.inverse_factors
        return float(a * np.dot(x, y) - c * np.sum(x) * np.sum(y))


def sigma_inverse(cov: CompoundSymmetricCov) -> np.ndarray:
    return cov.inverse()


def conditional_mvn(mean, cov, index: int, others) -> tuple[float, float]:
    """Univariate conditional law of one coordinate of a multivariate normal.

    Returns (cond_mean, cond_var) of component `index` given the remaining
    components fixed at `others`, via the Schur complement

        mean_1 + Cov_12 Cov_22^{-1} (others - mean_2),
        cov_11 - Cov_12 Cov_22^{-1} Cov_21.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    t = mean.size
    if not 0 <= index < t:
        raise ValueError(f"index {index} out of range for dimension {t}")
    if t == 1:
        return float(mean[0]), float(cov[0, 0])
    others = np.asarray(others, dtype=float)
    if others.size != t - 1:
        raise ValueError(f"expected {t - 1} conditioning values, got {others.size}")
    rest = np.delete(np.arange(t), index)
    cov22 = cov[np.ix_(rest, rest)]
    cov12 = cov[index, rest]
    try:
        factor = cho_factor(cov22)
    except (LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalError(
            "conditioning block is not positive definite", np.linalg.cond(cov22)
        ) from exc
    w = cho_solve(factor, others - mean[rest])
    cond_mean = mean[index] + cov12 @ w
    cond_var = cov[index, index] - cov12 @ cho_solve(factor, cov12)
    return float(cond_mean), float(cond_var)


def mh_scaled_chisq_step(log_target, current, rng: np.random.Generator, step_scale: float = 1.0):
    """One Metropolis-Hastings move with a median-centred chi-squared proposal.

    Proposes value' = value * (z / m)^s with z ~ chi2(1) and m the chi2(1)
    median, so the proposal's median is the current value and moves are
    multiplicative. The Hastings correction for this asymmetric kernel is

        (s - 1) * log(z / m) + (z - m^2 / z) / 2.

    Works elementwise on arrays; returns (new_value, accepted_mask).
    """
    current = np.asarray(current, dtype=float)
    z = rng.chisquare(1.0, size=current.shape)
    ratio = (z / CHI2_DF1_MEDIAN) ** step_scale
    proposal = current * ratio
    correction = (step_scale - 1.0) * np.log(z / CHI2_DF1_MEDIAN) + 0.5 * (
        z - CHI2_DF1_MEDIAN**2 / z
    )
    lt_prop = np.asarray(log_target(proposal), dtype=float)
    lt_cur = np.asarray(log_target(current), dtype=float)
    # -inf target values (truncated support) must not produce NaN accepts:
    # a proposal outside the support is always rejected, and any in-support
    # proposal from an out-of-support state is always taken. Zeroing the
    # -inf current values keeps inf - inf out of the difference.
    inside = lt_prop != -np.inf
    escape = lt_cur == -np.inf
    log_accept = lt_prop - np.where(escape, 0.0, lt_cur) + correction
    accept = inside & (escape | (np.log(rng.random(current.shape)) < log_accept))
    return np.where(accept, proposal, current), accept
