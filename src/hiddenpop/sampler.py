"""Data-augmented Gibbs sampler for the five-component spatial panel model.

The response decomposes as

    y_it = x_it' beta + alpha_i + v_i - eta_i+ - u_it+ + eps_it

with alpha_i ~ N(0, s2_alpha), eps_it ~ N(0, s2_eps), eta_i+ and u_it+
half-normal one-sided errors, and v an intrinsic CAR field. alpha is never
sampled: it is marginalised exactly through the compound symmetric panel
covariance Sigma = s2_eps I + s2_alpha 11'.

One sweep updates, in order:

    beta            K-variate normal (GLS form through Sigma^{-1})
    u+              truncated-MVN block, one coordinate at a time
    eta+            truncated normal per region
    v               sequential CAR sweep, each region seeing the latest
                    values of its neighbours
    (level)         joint (v, eta+) translation move
    s2_v            scaled chi-squared using the pairwise CAR quadratic form
    s2_u, s2_eta    inverse gamma
    s2_alpha, s2_eps  Metropolis-Hastings with median-centred chi2(1)
                    multiplicative proposals

All updates draw from exact full conditionals except the Metropolis moves.
Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import signal
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtr, gammaincinv

from .data import PanelDataset
from .kernels import (
    NumericalError,
    _inverse_factors,
    _logdet,
    mh_scaled_chisq_step,
    sample_inverse_gamma,
    truncated_normal,
)
from .spatial import SpatialGraph, car_quadratic_form

VARIANCE_FLOOR = 1e-12


# The model's one prior. Slopes: N(0, BETA_PRIOR_SCALE * I). The two-sided
# variances s2_eps, s2_alpha and s2_v: scaled chi-squared, QBAR / s2 ~
# chi2(NBAR). The one-sided variances s2_u and s2_eta: inverse gamma with
# shape V0 / 2 and scale V0 log(r*)^2, anchored so that the prior median
# report rate exp(-u+) is r* (R_STAR_U for the transient errors, R_STAR_ETA
# for the permanent ones).
BETA_PRIOR_SCALE = 1000.0
QBAR = 1e-4
NBAR = 1.0
V0 = 10.0
R_STAR_U = 0.85
R_STAR_ETA = 0.70
IG_SCALE_U = V0 * math.log(R_STAR_U) ** 2
IG_SCALE_ETA = V0 * math.log(R_STAR_ETA) ** 2

# Step scales s of the s2_alpha and s2_eps proposals value * (z / median)^s,
# z ~ chi2(1): s = 1 is the plain chi2(1) jump, and smaller s moves less.
MH_STEP_ALPHA = 0.25
MH_STEP_EPS = 0.4

# The error decomposition of this model is only weakly identified: the
# marginalised heterogeneity, the intrinsic spatial field and the permanent
# one-sided error all compete for region-level variation, and the transient
# one-sided error competes with the noise for cell-level variation. A finite
# chain can wander into degenerate allocations (spatial variance collapsing
# to zero while another channel absorbs everything). Four guards keep the
# decomposition away from those corners: a truncated-prior band on s2_alpha,
# ALPHA_FLOOR_SHARE to ALPHA_CAP_SHARE times the between-region residual
# variance / T; truncated-prior floors on s2_eps (EPS_FLOOR_SHARE times the
# within-region variance) and on s2_v (V_FLOOR_SHARE times the between-region
# variance); and the level move along the direction the likelihood cannot see
# (spatial level vs permanent one-sided level). run_chain reads the shares at
# call time, so an ablation turns one bound off by patching its floor share
# to 0 or ALPHA_CAP_SHARE to inf.
ALPHA_FLOOR_SHARE = 0.35
ALPHA_CAP_SHARE = 2.0
EPS_FLOOR_SHARE = 0.05
V_FLOOR_SHARE = 0.1


@dataclass
class ChainConfig:
    """Chain settings."""

    n_iter: int = 20000
    burn_in: int = 10000
    thin: int = 5
    seed: int = 0
    chains: int = 1   # chain i of run_chain runs at seed + i

    def __post_init__(self):
        if self.burn_in >= self.n_iter:
            raise ValueError("burn_in must be smaller than n_iter")
        if self.burn_in < 0 or self.thin < 1:
            raise ValueError("burn_in must be >= 0 and thin >= 1")
        if self.chains < 1:
            raise ValueError(f"chains must be >= 1, got {self.chains}")

    @property
    def n_stored(self) -> int:
        return (self.n_iter - self.burn_in) // self.thin


@dataclass
class ParameterState:
    """One full draw of the augmented parameter vector."""

    beta: np.ndarray
    u_plus: np.ndarray     # (N, T), strictly positive
    eta_plus: np.ndarray   # (N,), strictly positive
    v: np.ndarray          # (N,)
    sigma2_alpha: float
    sigma2_eps: float
    sigma2_v: float
    sigma2_u: float
    sigma2_eta: float


@dataclass
class PosteriorDraws:
    """Thinned post-burn-in chain plus the metadata needed downstream."""

    beta: np.ndarray          # (S, K)
    u_plus: np.ndarray        # (S, N, T)
    eta_plus: np.ndarray      # (S, N)
    v: np.ndarray             # (S, N)
    sigma2_alpha: np.ndarray  # (S,)
    sigma2_eps: np.ndarray
    sigma2_v: np.ndarray
    sigma2_u: np.ndarray
    sigma2_eta: np.ndarray
    seed: int
    n_iter: int
    burn_in: int
    thin: int
    avg_row_sum: float
    accept_rate_alpha: float
    accept_rate_eps: float
    floored_count: int
    chain_id: np.ndarray      # (S,) chain index per draw
    # Share of sweeps whose level move was accepted; NaN for draws read
    # back from draws.npz, which does not store it.
    accept_rate_level: float = math.nan

    @property
    def n_draws(self) -> int:
        return self.beta.shape[0]


def _back_substitute(chol: list, b: list) -> list:
    """x with L' x = b, for a lower triangular L as nested lists."""
    k = len(b)
    x = [0.0] * k
    for i in range(k - 1, -1, -1):
        acc = b[i]
        for m in range(i + 1, k):
            acc -= chol[m][i] * x[m]
        x[i] = acc / chol[i][i]
    return x


def beta_posterior_moments(state: ParameterState, data: PanelDataset):
    """Mean and lower Cholesky factor of the precision of the slope full
    conditional, as (K,) and (K, K) arrays.

    Precision = a X'X - c G + I / BETA_PRIOR_SCALE (the prior mean is zero),
    with Sigma^{-1} = a I - c 11' in the rank-one form and the panel's
    constants X'X and G = sum_i (X_i'1)(X_i'1)', computed once per panel;
    rhs_k = sum_it x_itk (Sigma^{-1} ytil_i)_t is one pairwise sum per
    regressor plane. The K x K factor and its two triangular solves run on
    Python floats, where numpy's linear algebra would cost more in call
    overhead than in arithmetic, so a call costs O(N T K + K^3). A
    precision that is not positive definite, NaN included, raises
    NumericalError.
    """
    a, c = _inverse_factors(state.sigma2_eps, state.sigma2_alpha, data.n_periods)
    ytil = data.y - state.u_plus - (state.v + state.eta_plus)[:, None]
    pull = a * ytil - (c * ytil.sum(axis=1))[:, None]    # Sigma^{-1} ytil_i, per region
    rhs = np.add.reduce(data.regressor_planes * pull, axis=(1, 2)).tolist()
    xtx, gram = data.regressor_gram
    prior = 1.0 / BETA_PRIOR_SCALE
    k = len(rhs)
    chol = [[0.0] * k for _ in range(k)]
    half = []    # L^{-1} rhs
    for i, (row, xtx_i, gram_i) in enumerate(zip(chol, xtx, gram)):
        for j in range(i + 1):
            s = a * xtx_i[j] - c * gram_i[j] + (prior if j == i else 0.0)
            for m in range(j):
                s -= row[m] * chol[j][m]
            if j < i:
                row[j] = s / chol[j][j]
                continue
            # `not s > 0` also stops a NaN precision
            if not s > 0.0:
                prec = a * np.array(xtx) - c * np.array(gram) + prior * np.eye(k)
                condition = np.linalg.cond(prec) if np.isfinite(prec).all() else math.nan
                raise NumericalError(
                    "slope posterior precision is not positive definite", condition)
            row[i] = math.sqrt(s)
        acc = rhs[i]
        for m in range(i):
            acc -= row[m] * half[m]
        half.append(acc / row[i])
    return np.array(_back_substitute(chol, half)), np.array(chol, dtype=float).reshape(k, k)


def update_beta(state: ParameterState, data: PanelDataset,
                rng: np.random.Generator) -> np.ndarray:
    mean, chol = beta_posterior_moments(state, data)
    z = rng.standard_normal(mean.size).tolist()
    # chol is the lower factor of the precision; solving L' x = z gives a
    # draw with covariance prec^{-1}
    return mean + _back_substitute(chol.tolist(), z)


def _omega_factors(a: float, c: float, sigma2_u: float, t: int) -> tuple[float, float]:
    """(e, f) with Omega = (Sigma^{-1} + I/s2_u)^{-1} = e I + f 11'."""
    p = a + 1.0 / sigma2_u
    e = 1.0 / p
    f = c / (p * (p - t * c))
    return e, f


def update_u_plus(state: ParameterState, resid: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Gibbs sub-sweep over t = 1..T of the truncated-MVN block.

    The joint conditional of u_i+ is N(mu, Omega) restricted to the
    positive orthant with Omega = (Sigma^{-1} + I/s2_u)^{-1}. Because Omega
    is compound symmetric, the univariate conditional of coordinate t given
    the others has closed-form mean mu_t + k (sum_{s != t} (u_s - mu_s))
    and a variance shared by all coordinates; regions are conditionally
    independent, so each step draws all N coordinates at once. `resid` is
    y - X beta.
    """
    n, t = resid.shape
    a, c = _inverse_factors(state.sigma2_eps, state.sigma2_alpha, t)
    e, f = _omega_factors(a, c, state.sigma2_u, t)

    r = resid - (state.v + state.eta_plus)[:, None]
    row = r.sum(axis=1)
    # mu = Omega Sigma^{-1} r reduces to e*a*r + kappa * (1'r) per cell.
    kappa = f * (a - c * t) - e * c
    mu = e * a * r + kappa * row[:, None]

    coupling = f / (e + (t - 1) * f)
    cond_sd = math.sqrt(e * (e + t * f) / (e + (t - 1) * f))

    u = state.u_plus.copy()
    dev = u - mu    # column s still holds its old value when it is drawn
    resid_sum = dev.sum(axis=1)
    for s in range(t):
        cond_mean = mu[:, s] + coupling * (resid_sum - dev[:, s])
        new = truncated_normal(cond_mean, cond_sd, rng=rng)
        resid_sum += new - u[:, s]
        u[:, s] = new
    return u


def update_eta_plus(state: ParameterState, rows: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Truncated normal N+(m_i, psi2) with psi2 = s2_eta / (1 + s2_eta 1'Sigma^{-1}1).

    `rows` holds the row sums of y - X beta - u+, the residual base that
    every update after u+'s reads; 1'(y_i - X_i beta - u_i+ - v_i 1) is
    then rows_i - T v_i.
    """
    t = state.u_plus.shape[1]
    denom = state.sigma2_eps + t * state.sigma2_alpha
    one_inv_one = t / denom
    psi2 = state.sigma2_eta / (1.0 + state.sigma2_eta * one_inv_one)
    m = psi2 * (rows - t * state.v) / denom
    return truncated_normal(m, math.sqrt(psi2), rng=rng)


def update_v(state: ParameterState, rows: np.ndarray, graph: SpatialGraph,
             rng: np.random.Generator) -> np.ndarray:
    """Sequential CAR sweep.

    Region i's full conditional is normal with precision
    1'Sigma^{-1}1 + row_sum_i / s2_v and mean proportional to the data
    pull plus the weighted sum of the *current* neighbour values, so the
    sweep must be sequential. `rows` holds the row sums of
    y - X beta - u+, so the data pull of region i is
    (rows_i - T eta_i+) / (s2_eps + T s2_alpha).

    The neighbours j > i have not been updated when region i is drawn, so
    one np.bincount over the graph's i < j edge arrays gives every region's
    weighted sum over them, and with it everything except the sum over the
    already updated neighbours j < i, before the loop. The loop then walks
    only each region's lower neighbours, on Python floats: per region, a
    numpy call costs more than its handful of multiply-adds.
    """
    n = graph.n_regions
    t = state.u_plus.shape[1]
    denom = state.sigma2_eps + t * state.sigma2_alpha
    inv_s2v = 1.0 / float(state.sigma2_v)
    var = 1.0 / (t / denom + graph.row_sums * inv_s2v)
    upper = np.bincount(graph.edge_i, weights=graph.edge_w * state.v[graph.edge_j],
                        minlength=n)
    z = rng.standard_normal(n)
    # v_i = var_i (pull_i + (upper_i + lower_i) / s2_v) + sd_i z_i
    known = (var * ((rows - t * state.eta_plus) / denom + inv_s2v * upper)
             + np.sqrt(var) * z).tolist()
    gain = (var * inv_s2v).tolist()
    v = []
    for k, g, lower in zip(known, gain, graph._lower):
        acc = 0.0
        for j, w in lower:
            acc += w * v[j]
        v.append(k + g * acc)
    return np.array(v)


def update_sigma2_v(state: ParameterState, graph: SpatialGraph,
                    rng: np.random.Generator, floor: float) -> float:
    """Scaled chi-squared draw: (QBAR + v'(D_w - W)v) / chi2(df).

    df is (N - 1) + NBAR: the quadratic form has rank N - 1 on a
    connected graph, so this is the conditional implied by the intrinsic
    CAR joint law. A positive floor truncates the prior support below;
    the draw then comes from the truncated conditional via its inverse CDF.
    """
    quad = car_quadratic_form(graph, state.v)
    dof = graph.n_regions - 1 + NBAR
    scale = QBAR + quad
    if floor <= 0.0:
        return scale / rng.chisquare(dof)
    # sigma2_v >= floor  <=>  chi2 draw <= scale / floor; chdtr and
    # 2 * gammaincinv(df / 2, .) are the chi2(df) CDF and its inverse
    upper_mass = chdtr(dof, scale / floor)
    if upper_mass <= 0.0:
        return floor
    draw = 2 * gammaincinv(dof / 2, rng.random() * upper_mass)
    # gammaincinv returns a numpy scalar; a Python float keeps the next
    # sweep's scalar arithmetic off numpy
    return float(max(scale / draw, floor))


def update_sigma2_u(state: ParameterState, rng: np.random.Generator) -> float:
    n_total = state.u_plus.size
    shape = 0.5 * (n_total + V0)
    scale = 0.5 * (float((state.u_plus * state.u_plus).sum()) + 2.0 * IG_SCALE_U)
    return sample_inverse_gamma(shape, scale, rng)


def update_sigma2_eta(state: ParameterState, rng: np.random.Generator) -> float:
    n = state.eta_plus.size
    shape = 0.5 * (n + V0)
    scale = 0.5 * (float((state.eta_plus * state.eta_plus).sum()) + 2.0 * IG_SCALE_ETA)
    return sample_inverse_gamma(shape, scale, rng)


def _marginal_loglik_terms(base: np.ndarray, rows: np.ndarray, state: ParameterState):
    """Sufficient statistics of the Sigma-marginalised Gaussian likelihood:
    the sums of squares of the residual y - X beta - u+ - v - eta+ and of
    its row sums, from the base y - X beta - u+ and the base's row sums."""
    level = state.v + state.eta_plus
    r = base - level[:, None]
    ss = float((r * r).sum())
    rows = rows - base.shape[1] * level
    ss_rows = float((rows * rows).sum())
    return ss, ss_rows


def _scaled_chisq_log_prior(s2: float) -> float:
    """Log density of s2 when QBAR / s2 ~ chi2(NBAR)."""
    # numpy's log, not math.log: the two can differ in the last bit
    return -(0.5 * NBAR + 1.0) * float(np.log(s2)) - 0.5 * QBAR / s2


def update_sigma2_alpha_eps_mh(state: ParameterState, base: np.ndarray, rows: np.ndarray,
                               rng: np.random.Generator,
                               alpha_cap: float, alpha_floor: float, eps_floor: float):
    """Two independent MH moves for the heterogeneity and noise variances.

    Both targets are the Sigma-marginalised Gaussian likelihood times a
    scaled chi-squared prior; neither conditional has a standard form
    because the parameter enters through both |Sigma| and Sigma^{-1}.
    alpha_cap / eps_floor truncate the respective prior supports; proposals
    outside are rejected, which is exact MH for the truncated-prior model.
    `base` is y - X beta - u+ and `rows` its row sums.
    """
    n, t = base.shape
    ss, ss_rows = _marginal_loglik_terms(base, rows, state)

    def loglik(s2_alpha: float, s2_eps: float) -> float:
        a, c = _inverse_factors(s2_eps, s2_alpha, t)
        return -0.5 * n * _logdet(s2_eps, s2_alpha, t) - 0.5 * (a * ss - c * ss_rows)

    s2_eps_cur = state.sigma2_eps

    def target_alpha(s2: float) -> float:
        if s2 > alpha_cap or s2 < alpha_floor:
            return -math.inf
        return loglik(s2, s2_eps_cur) + _scaled_chisq_log_prior(s2)

    new_alpha, acc_alpha = mh_scaled_chisq_step(
        target_alpha, state.sigma2_alpha, rng, MH_STEP_ALPHA
    )

    def target_eps(s2: float) -> float:
        if s2 < eps_floor:
            return -math.inf
        return loglik(new_alpha, s2) + _scaled_chisq_log_prior(s2)

    new_eps, acc_eps = mh_scaled_chisq_step(
        target_eps, state.sigma2_eps, rng, MH_STEP_EPS
    )
    return new_alpha, new_eps, (acc_alpha, acc_eps)


def update_level(state: ParameterState, rng: np.random.Generator) -> bool:
    """Metropolis move along the level direction the likelihood cannot see.

    Shifting the spatial field and the permanent one-sided errors together
    leaves every residual unchanged (the fit depends on their difference)
    and leaves the CAR quadratic form unchanged, so the acceptance ratio
    involves only the half-normal prior of the permanent errors. Without
    this move the common level performs an unconstrained random walk.
    Operates on the mirrored-sign fields used inside the chain.
    """
    n = state.eta_plus.size
    scale = 0.5 * math.sqrt(state.sigma2_eta / n)
    delta = rng.normal(0.0, scale)
    eta = state.eta_plus
    eta_new = eta - delta
    if np.minimum.reduce(eta_new) <= 0.0:
        return False
    log_ratio = 0.5 * (
        float((eta * eta).sum()) - float((eta_new * eta_new).sum())
    ) / state.sigma2_eta
    if -rng.exponential() < log_ratio:
        state.eta_plus = eta_new
        state.v = state.v + delta
        return True
    return False


def residual_variance_split(data: PanelDataset) -> tuple[np.ndarray, float, float, np.ndarray]:
    """(beta, between_var, within_var, region_means) of pooled OLS: the slopes,
    and the between- and within-region variances and region means of the
    residuals."""
    n, t, k = data.x.shape
    xf = data.x.reshape(n * t, k)
    yf = data.y.reshape(n * t)
    beta, *_ = np.linalg.lstsq(xf, yf, rcond=None)
    resid = (yf - xf @ beta).reshape(n, t)
    region_means = resid.mean(axis=1)
    within_var = float(np.var(resid - region_means[:, None]))
    between_var = float(np.var(region_means))
    return beta, between_var, within_var, region_means


def initial_state(data: PanelDataset, split: tuple[np.ndarray, float, float, np.ndarray],
                  alpha_floor: float, alpha_cap: float) -> ParameterState:
    """Deterministic starting point.

    Pooled least squares for the slopes; the centred region means of the
    residuals seed the spatial field. Starting v at zero is a trap: the CAR
    quadratic form would be zero, the first s2_v draw would be near the
    prior scale QBAR, and the field would be frozen flat for the rest of
    the run. Region-level variation is deliberately assigned to v rather
    than to the (marginalised) heterogeneity at the start, since the data
    alone cannot separate the two. `split` is residual_variance_split(data).

    s2_alpha starts inside its band [alpha_floor, alpha_cap]: at the band's
    geometric mean when both bounds are positive and finite, otherwise at
    a small share of the between-region variance moved into the band, so
    that every guard ablation starts from a state its target supports.
    """
    n, t, _ = data.x.shape
    beta, between_var, within_var, region_means = split

    s2_u = IG_SCALE_U / (0.5 * V0 - 1.0)       # the prior means
    s2_eta = IG_SCALE_ETA / (0.5 * V0 - 1.0)
    if alpha_floor > 0 and alpha_cap < math.inf:
        s2_alpha = math.sqrt(max(alpha_floor, 1e-12) * alpha_cap)
    else:
        s2_alpha = min(max(1e-3 * between_var, 1e-6, alpha_floor), 0.5 * alpha_cap)
    return ParameterState(
        beta=beta,
        u_plus=np.full((n, t), math.sqrt(s2_u)),
        eta_plus=np.full(n, math.sqrt(s2_eta)),
        v=region_means - region_means.mean(),
        sigma2_alpha=s2_alpha,
        sigma2_eps=max(within_var, 1e-4),
        sigma2_v=max(between_var, 1e-4),
        sigma2_u=s2_u,
        sigma2_eta=s2_eta,
    )


class SamplerError(RuntimeError):
    """Numerical failure inside the chain, annotated with the iteration."""


def _sweep(state: ParameterState, work: PanelDataset, graph: SpatialGraph,
           bounds: tuple[float, float, float, float], rng: np.random.Generator):
    """One sweep of the mirrored panel `work`, in place on `state`, in the
    order of the module docstring. `bounds` is (alpha_floor, alpha_cap,
    eps_floor, v_floor). A variance drawn below VARIANCE_FLOOR is raised to
    it. Returns the alpha, eps and level acceptances and the count of raised
    variances, as ints."""
    alpha_floor, alpha_cap, eps_floor, v_floor = bounds
    state.beta = update_beta(state, work, rng)
    # beta is fixed for the rest of the sweep, and so is y - X beta
    resid = work.y - np.einsum("knt,k->nt", work.regressor_planes, state.beta)
    state.u_plus = update_u_plus(state, resid, rng)
    # and after u+, so is the base y - X beta - u+ of every later residual
    base = resid - state.u_plus
    rows = base.sum(axis=1)
    state.eta_plus = update_eta_plus(state, rows, rng)
    state.v = update_v(state, rows, graph, rng)
    acc_level = update_level(state, rng)
    state.sigma2_v = update_sigma2_v(state, graph, rng, floor=v_floor)
    state.sigma2_u = update_sigma2_u(state, rng)
    state.sigma2_eta = update_sigma2_eta(state, rng)
    state.sigma2_alpha, state.sigma2_eps, (acc_alpha, acc_eps) = update_sigma2_alpha_eps_mh(
        state, base, rows, rng, alpha_cap=alpha_cap, alpha_floor=alpha_floor, eps_floor=eps_floor)
    # no update after a variance's draw reads it: flooring here is flooring at the draw
    floored = 0
    for name in ("sigma2_v", "sigma2_u", "sigma2_eta", "sigma2_alpha", "sigma2_eps"):
        if getattr(state, name) < VARIANCE_FLOOR:
            setattr(state, name, VARIANCE_FLOOR)
            floored += 1
    return int(acc_alpha), int(acc_eps), int(acc_level), floored


def _run_one(idx: int, work: PanelDataset, graph: SpatialGraph, split: tuple,
             bounds: tuple[float, float, float, float], chain: ChainConfig,
             out: PosteriorDraws, stored_row=None) -> tuple[int, int, int, int]:
    """Run chain `idx` of the mirrored panel `work` at seed chain.seed + idx
    and store its thinned draws in the idx-th block of n_stored rows of
    `out`, calling `stored_row(idx, rows)`, if given, after each stored row
    with the rows stored so far. Returns the chain's accepted alpha, eps and
    level moves and its count of raised variances."""
    alpha_floor, alpha_cap, _, _ = bounds
    rng = np.random.default_rng(chain.seed + idx)
    state = initial_state(work, split, alpha_floor, alpha_cap)
    accepted_alpha = accepted_eps = accepted_level = floored = 0
    stored = idx * chain.n_stored
    for it in range(1, chain.n_iter + 1):
        try:
            acc_a, acc_e, acc_l, n_floored = _sweep(state, work, graph, bounds, rng)
        except NumericalError as exc:
            raise SamplerError(f"iteration {it}: {exc}") from exc
        accepted_alpha += acc_a
        accepted_eps += acc_e
        accepted_level += acc_l
        floored += n_floored

        if it > chain.burn_in and (it - chain.burn_in) % chain.thin == 0:
            for name, value in vars(state).items():
                getattr(out, name)[stored] = -value if name in ("beta", "v") else value
            stored += 1
            if stored_row is not None:
                stored_row(idx, stored - idx * chain.n_stored)
    return accepted_alpha, accepted_eps, accepted_level, floored


def _worker_count(chains: int) -> int:
    """Processes that run `chains` chains: one per core this process may
    use, at most one per chain, and one where fork is not available or
    this process is daemonic (a pool worker), which may not start any."""
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(chains, cores or 1)


def _shared_empty(shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Uninitialised float arrays of the given shapes, all views of one
    anonymous shared mapping: a forked worker's writes land in the parent's
    arrays, so no draw is copied or pickled."""
    sizes = [math.prod(shape) for shape in shapes.values()]
    buf = mmap.mmap(-1, max(8 * sum(sizes), 1))
    arrays, offset = {}, 0
    for (name, shape), size in zip(shapes.items(), sizes):
        arrays[name] = np.frombuffer(buf, count=size, offset=offset).reshape(shape)
        offset += 8 * size
    return arrays


def _serve(conn, idxs: range, *args) -> None:
    """Worker body: run chains `idxs` with `_run_one(idx, *args)` and send
    back their counts, or the exception that stopped them."""
    # an interrupt reaches the parent, which stops every worker
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        reply = [_run_one(idx, *args) for idx in idxs]
    except Exception as exc:
        reply = exc
    conn.send(reply)
    conn.close()


def run_chain(data: PanelDataset, graph: SpatialGraph,
              chain: ChainConfig | None = None, *, on_rows=None) -> PosteriorDraws:
    """Run `chain.chains` chains and return their thinned post-burn-in draws.

    Chain i runs at seed chain.seed + i and fills the i-th block of n_stored
    rows (`chain_id` i). The acceptance rates are the means of the per-chain
    rates.

    The chains run on w = min(chains, usable cores) processes; there is no
    setting for w, and the draws do not depend on it. This process runs
    chains 0, w, 2w, ...; w - 1 workers started with the `fork` start method
    run the rest, round-robin, writing their rows in place into draw arrays
    on anonymous shared memory and sending back only their counts or an
    error. Every worker is joined before this function returns or raises.
    Where fork is not available, or in a daemonic process such as a pool
    worker, w is 1 and no process starts. Python 3.12 and later warn on a
    fork from a process that has threads, such as a multi-threaded BLAS's.

    `on_rows(draws, n)`, if given, is called in this process, never in a
    worker, each time n grows: the number of leading rows of the draws this
    call returns that hold their final values. That is after each row this
    process stores and after each worker's reply, and always after every
    worker has started, so a hook may start a thread. With 3 chains on 2
    cores, chain 2's rows wait for the worker's chain 1. The hook runs
    inside this call's time, between sweeps.
    """
    chain = chain or ChainConfig()
    if graph.n_regions != data.n_regions:
        raise ValueError(f"graph has {graph.n_regions} regions but panel has {data.n_regions}")
    if data.n_periods < 2:
        # with one period the region effect and the noise enter every cell
        # alike, so the likelihood cannot tell sigma2_alpha from sigma2_eps
        raise ValueError(f"panel has {data.n_periods} period(s); a fit needs at least 2")

    # The one-sided components depress the observed response, while every
    # update below is written for the mirrored model in which they enter
    # positively. The chain therefore runs on the negated panel; beta and
    # the spatial field flip sign on output, everything else is invariant.
    work = PanelDataset(y=-data.y, x=data.x, regions=data.regions, times=data.times)

    n, t, k = work.x.shape
    split = residual_variance_split(work)
    n_stored = chain.n_stored
    n_total = chain.chains * n_stored

    _, between_var, within_var, _ = split
    alpha_floor = ALPHA_FLOOR_SHARE * between_var / t
    alpha_cap = ALPHA_CAP_SHARE * between_var / t
    bounds = (alpha_floor, alpha_cap, EPS_FLOOR_SHARE * within_var, V_FLOOR_SHARE * between_var)

    workers = _worker_count(chain.chains)
    shapes = {"beta": (n_total, k), "u_plus": (n_total, n, t), "eta_plus": (n_total, n),
              "v": (n_total, n)}
    shapes.update(dict.fromkeys(
        ("sigma2_alpha", "sigma2_eps", "sigma2_v", "sigma2_u", "sigma2_eta"), (n_total,)))
    arrays = (_shared_empty(shapes) if workers > 1
              else {name: np.empty(shape) for name, shape in shapes.items()})
    out = PosteriorDraws(
        **arrays,
        seed=chain.seed,
        n_iter=chain.n_iter,
        burn_in=chain.burn_in,
        thin=chain.thin,
        avg_row_sum=graph.average_degree,
        accept_rate_alpha=0.0,
        accept_rate_eps=0.0,
        floored_count=0,
        chain_id=np.repeat(np.arange(chain.chains, dtype=np.int64), n_stored),
    )
    args = (work, graph, split, bounds, chain, out)

    final = [0] * chain.chains   # rows of each chain that hold their final values
    reported = 0

    def report(idx: int, rows: int) -> None:
        nonlocal reported
        final[idx] = rows
        n = 0
        for count in final:
            n += count
            if count < n_stored:
                break
        if n > reported:
            reported = n
            on_rows(out, n)

    stored_row = report if on_rows is not None else None
    counts = [None] * chain.chains   # alpha, eps, level moves and raised variances
    started = []
    try:
        for first in range(1, workers):
            ctx = multiprocessing.get_context("fork")
            idxs = range(first, chain.chains, workers)
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_serve, args=(send, idxs, *args), daemon=True)
            proc.start()
            started.append((proc, recv, idxs))
            # the worker now holds the only write end, so its death reads as EOF
            send.close()
        for idx in range(0, chain.chains, workers):
            counts[idx] = _run_one(idx, *args, stored_row)
        for proc, recv, idxs in started:
            try:
                reply = recv.recv()
            except EOFError:
                proc.join()
                raise SamplerError(f"the worker running chain(s) {list(idxs)} ended without "
                                   f"a reply (exit code {proc.exitcode})") from None
            if isinstance(reply, Exception):
                raise reply
            for idx, value in zip(idxs, reply):
                counts[idx] = value
                if stored_row is not None:
                    stored_row(idx, n_stored)
    except BaseException:
        for proc, _, _ in started:
            proc.terminate()
        raise
    finally:
        for proc, recv, _ in started:
            proc.join()
            recv.close()

    rates = np.array([c[:3] for c in counts]) / chain.n_iter
    out.accept_rate_alpha = float(np.mean(rates[:, 0]))
    out.accept_rate_eps = float(np.mean(rates[:, 1]))
    out.accept_rate_level = float(np.mean(rates[:, 2]))
    out.floored_count = sum(c[3] for c in counts)
    return out
