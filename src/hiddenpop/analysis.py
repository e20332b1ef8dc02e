"""Everything derived from stored posterior draws.

Highest-density intervals, hidden-population predictive intervals and
their Beta-Binomial coverage, MAPE of the point estimates against
simulated truth, per-draw correlation diagnostics, and the uncaptured
percentage / signal-ratio summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaincinv

from .data import _write_columns, _write_rows
from .sampler import PosteriorDraws

MIN_HDI_DRAWS = 100
# the credibility levels `hiddenpop analyze --truth` scores when --levels is left out
DEFAULT_COVERAGE_LEVELS = (0.90, 0.95, 0.99)
# rho_hat squares its centred draws this many values at a time
_BLOCK_ELEMENTS = 1 << 15
# halvings of (0, 1 - mass) in the search for the coverage posterior's HDI
_BISECTION_STEPS = 45


def hdi(draws, level: float) -> tuple[float, float]:
    """Shortest contiguous interval holding at least `level` of the draws.

    Sorted-window search: with S draws the window spans ceil(level*S) + 1
    order statistics, ties broken toward the smallest lower endpoint.
    """
    x = np.asarray(draws, dtype=float).ravel()
    _check_draw_count(x.size)
    lo, hi = _hdi_columns(np.sort(x)[:, None], level)
    return float(lo[0]), float(hi[0])


def _check_draw_count(n_draws: int) -> None:
    if n_draws < MIN_HDI_DRAWS:
        raise ValueError(f"need at least {MIN_HDI_DRAWS} draws for an HDI, got {n_draws}")


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")


def _hdi_columns(sorted_cols: np.ndarray, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Shortest sorted window over each column of a pre-sorted (draws x cells)
    matrix; the one HDI search, with no draw-count guard."""
    _check_level(level)
    s = sorted_cols.shape[0]
    m = int(np.ceil(level * s))
    if m >= s:
        return sorted_cols[0], sorted_cols[-1]
    widths = sorted_cols[m:, :] - sorted_cols[:-m, :]
    idx = widths.argmin(axis=0)
    cols = np.arange(sorted_cols.shape[1])
    return sorted_cols[idx, cols], sorted_cols[idx + m, cols]


def hidden_population_draws(draws: PosteriorDraws, y_observed: np.ndarray) -> np.ndarray:
    """Per-draw hidden-population values Y * exp(eta+ + u+), shape (S, N, T).

    y_observed is on the level scale (not logs) and may contain zeros, in
    which case the cell is identically zero in every draw. The values are
    built in place in the one array returned.
    """
    y_observed = np.asarray(y_observed, dtype=float)
    if np.any(y_observed < 0):
        raise ValueError("observed level values must be nonnegative")
    out = np.add(draws.eta_plus[:, :, None], draws.u_plus)
    np.exp(out, out=out)
    return np.multiply(y_observed, out, out=out)


def predictive_intervals(draws: PosteriorDraws, y_observed: np.ndarray, levels, *,
                         cells: np.ndarray | None = None):
    """Posterior mean and HDI bounds of the hidden population at each level.

    The (S, N, T) hidden-population draws are sorted once and the window
    search runs once per level. They are built here unless `cells` holds
    them already, as `hidden_population_draws(draws, y_observed)` returns
    them; `cells` is then sorted in place. Returns (point, [(lower, upper)
    for each level]), every array of shape (N, T). Every level must lie in
    (0, 1).
    """
    levels = list(levels)
    for level in levels:
        _check_level(level)
    _check_draw_count(draws.n_draws)
    if cells is None:
        cells = hidden_population_draws(draws, y_observed)
    flat = cells.reshape(draws.n_draws, -1)
    shape = y_observed.shape
    point = flat.mean(axis=0).reshape(shape)
    flat.sort(axis=0)
    bounds = []
    for level in levels:
        lo, hi = _hdi_columns(flat, level)
        bounds.append((lo.reshape(shape), hi.reshape(shape)))
    return point, bounds


@dataclass(frozen=True)
class CoverageReport:
    nominal_level: float
    posterior_mean_coverage: float
    coverage_hdi: tuple[float, float]
    a: int
    b: int


def coverage_report(lower: np.ndarray, upper: np.ndarray, true_p: np.ndarray,
                    level: float) -> CoverageReport:
    """Beta-Binomial summary of how often the intervals caught the truth.

    Indicator per cell, flat Beta(1, 1) prior, so the posterior is
    Beta(a, b) = Beta(1 + hits, 1 + misses); the point estimate is its mean
    a / (a + b) and the attached interval is its exact 95% HDI.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    true_p = np.asarray(true_p, dtype=float)
    if not lower.shape == upper.shape == true_p.shape:
        raise ValueError("interval bounds and truth must share one shape")
    hits = int(np.sum((true_p >= lower) & (true_p <= upper)))
    total = true_p.size
    a, b = 1 + hits, 1 + total - hits
    return CoverageReport(
        nominal_level=level,
        posterior_mean_coverage=a / (a + b),
        coverage_hdi=_beta_hdi(a, b, 0.95),
        a=a, b=b,
    )


def _beta_hdi(a: int, b: int, mass: float) -> tuple[float, float]:
    """Shortest interval holding `mass` of Beta(a, b), for a, b >= 1.

    With a == 1 the density never rises, so the interval starts at 0; with
    b == 1 (and a > 1) it never falls, so it ends at 1. Otherwise the
    density is unimodal and vanishes at 0 and 1, and the interval is
    [I^-1(p), I^-1(p + mass)] for the lower-tail mass p in (0, 1 - mass)
    at which the two ends have one density. A p whose lower end has the
    lower density is too small, so p is found by bisection; its
    _BISECTION_STEPS halvings leave p within 1e-15 of the root.
    """
    if a == 1:
        return 0.0, float(betaincinv(a, b, mass))
    if b == 1:
        return float(betaincinv(a, b, 1.0 - mass)), 1.0

    def log_kernel(x: float) -> float:
        if not 0.0 < x < 1.0:
            return -math.inf
        return (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)

    below, above = 0.0, 1.0 - mass
    for _ in range(_BISECTION_STEPS):
        p = 0.5 * (below + above)
        if log_kernel(betaincinv(a, b, p)) < log_kernel(betaincinv(a, b, p + mass)):
            below = p
        else:
            above = p
    p = 0.5 * (below + above)
    return float(betaincinv(a, b, p)), float(betaincinv(a, b, p + mass))


@dataclass(frozen=True)
class MapeSummary:
    average: float
    median: float
    hdi_lower: float
    hdi_upper: float
    n_excluded: int
    per_draw: bool


def mape_summary(estimate: np.ndarray, true_p: np.ndarray) -> MapeSummary:
    """Absolute percentage error of the hidden-population estimate per cell.

    `estimate` is either the (N, T) posterior-mean point estimate, as
    `predictive_intervals` returns it, giving |P - E[P]| / P (the per-draw
    average of this quantity is the quantity itself, so none is taken), or
    the (S, N, T) `hidden_population_draws`, giving the per-draw variant
    that averages |P - P^(s)| / P over draws. Cells with true P = 0 are
    excluded and counted; a truth with no other cell is an error.
    """
    estimate = np.asarray(estimate, dtype=float)
    true_p = np.asarray(true_p, dtype=float)
    per_draw = estimate.shape[1:] == true_p.shape
    if not per_draw and estimate.shape != true_p.shape:
        raise ValueError(f"estimate of shape {estimate.shape} does not fit truth "
                         f"of shape {true_p.shape}")
    keep = true_p != 0.0
    if not keep.any():
        raise ValueError("no cell has a nonzero true P, so no percentage error is defined")
    n_excluded = int(np.sum(~keep))
    if per_draw:
        err = np.subtract(true_p, estimate)
        np.divide(err, np.where(keep, true_p, 1.0), out=err)
        cellwise = np.abs(err, out=err).mean(axis=0)[keep]
    else:
        cellwise = np.abs((true_p[keep] - estimate[keep]) / true_p[keep])
    # across cells, where few cells is legitimate: no draw-count guard
    lo, hi = _hdi_columns(np.sort(cellwise)[:, None], 0.95)
    return MapeSummary(
        average=float(cellwise.mean()),
        median=float(np.median(cellwise)),
        hdi_lower=float(lo[0]), hdi_upper=float(hi[0]),
        n_excluded=n_excluded, per_draw=per_draw,
    )


def rho_hat(draw_matrix: np.ndarray, truth: np.ndarray) -> float:
    """Average over draws of the Pearson correlation with the truth vector."""
    draw_matrix = np.asarray(draw_matrix, dtype=float)
    truth = np.asarray(truth, dtype=float).ravel()
    if draw_matrix.ndim != 2 or draw_matrix.shape[1] != truth.size:
        raise ValueError(
            f"draws must be (S, {truth.size}), got {draw_matrix.shape}"
        )
    t_c = truth - truth.mean()
    t_norm = np.sqrt(np.sum(t_c * t_c))
    if t_norm == 0.0:
        raise ValueError("truth vector has zero variance; correlation undefined")
    d_c = draw_matrix - draw_matrix.mean(axis=1, keepdims=True)
    # each row's sum of squares is its own pairwise sum, so a block of rows
    # at a time gives the bits of one pass without a second full-size array
    d_norm = np.empty(len(d_c))
    step = max(1, _BLOCK_ELEMENTS // max(1, d_c.shape[1]))
    for start in range(0, len(d_c), step):
        block = d_c[start:start + step]
        d_norm[start:start + step] = np.sum(block * block, axis=1)
    np.sqrt(d_norm, out=d_norm)
    if np.any(d_norm == 0.0):
        raise ValueError("a draw has zero variance; correlation undefined")
    return float(np.mean(d_c @ t_c / (d_norm * t_norm)))


@dataclass(frozen=True)
class UncapturedSummary:
    permanent_pct: float
    total_pct: float
    lambda_stat: float
    spatial_share: float
    cell: np.ndarray = field(compare=False)


def uncaptured_summaries(draws: PosteriorDraws,
                         out: np.ndarray | None = None) -> UncapturedSummary:
    """Posterior means of the uncaptured percentages and variability shares.

    permanent: 1 - exp(-eta+) averaged over draws and regions;
    total: 1 - exp(-(eta+ + u+)) averaged over draws and cells, and `cell`
    its (N, T) average over draws alone;
    lambda: (sigma_eta + sigma_u) / sigma_eps per draw, then averaged;
    spatial share: marginal spatial sd over the total sd, where the
    marginal spatial sd is sigma_v / (0.7 * average row sum) and the total
    pools it with the other four components on the sd scale.

    The per-draw cells 1 - exp(-(eta+ + u+)) are built in place in one
    (S, N, T) array: `out`, if given, whose values are overwritten.
    """
    permanent = float(np.mean(1.0 - np.exp(-draws.eta_plus)))
    uncaptured = np.add(draws.eta_plus[:, :, None], draws.u_plus, out=out)
    np.negative(uncaptured, out=uncaptured)
    np.exp(uncaptured, out=uncaptured)
    np.subtract(1.0, uncaptured, out=uncaptured)
    total = float(np.mean(uncaptured))
    s_eta = np.sqrt(draws.sigma2_eta)
    s_u = np.sqrt(draws.sigma2_u)
    s_eps = np.sqrt(draws.sigma2_eps)
    s_alpha = np.sqrt(draws.sigma2_alpha)
    lam = float(np.mean((s_eta + s_u) / s_eps))
    msd = np.sqrt(draws.sigma2_v) / (0.7 * draws.avg_row_sum)
    total_sd = np.sqrt(msd**2 + s_alpha**2 + s_eps**2 + s_eta**2 + s_u**2)
    share = float(np.mean(msd / total_sd))
    return UncapturedSummary(permanent, total, lam, share, uncaptured.mean(axis=0))


def chain_summary(draws: PosteriorDraws, level: float = 0.95) -> list[dict]:
    """Posterior mean / median / HDI rows for every reported quantity.

    Scale parameters are summarised on the standard-deviation scale. The
    one-sided blocks report the negated components (their effect on the
    response); their mean/median aggregate the per-unit posterior means
    and the HDI is taken over the per-draw cross-unit average. The HDIs
    come from one sort of the (draws x quantities) matrix.
    """
    _check_draw_count(draws.n_draws)
    sd = {name.replace("sigma2_", "sigma_"): np.sqrt(getattr(draws, name))
          for name in ("sigma2_eta", "sigma2_u", "sigma2_v", "sigma2_alpha", "sigma2_eps")}
    scalars = {**{f"beta_{k + 1}": draws.beta[:, k] for k in range(draws.beta.shape[1])},
               **sd, "lambda": (sd["sigma_eta"] + sd["sigma_u"]) / sd["sigma_eps"]}
    per_draw = np.column_stack([*scalars.values(), -draws.eta_plus.mean(axis=1),
                                -draws.u_plus.mean(axis=(1, 2)), draws.v.mean(axis=1)])
    per_unit = {"minus_eta_plus": -draws.eta_plus.mean(axis=0),        # per region
                "minus_u_plus": -draws.u_plus.mean(axis=0).ravel(),    # per cell
                "v": draws.v.mean(axis=0)}
    lower, upper = _hdi_columns(np.sort(per_draw, axis=0), level)
    return [{"parameter": name, "mean": float(np.mean(values)),
             "median": float(np.median(values)),
             "hdi_lower": float(lo), "hdi_upper": float(hi)}
            for (name, values), lo, hi in zip({**scalars, **per_unit}.items(), lower, upper)]


def write_summary_csv(rows: list[dict], path) -> None:
    _write_rows(path, ["parameter", "mean", "median", "hdi_lower", "hdi_upper"],
                [[r["parameter"], r["mean"], r["median"], r["hdi_lower"], r["hdi_upper"]]
                 for r in rows])


def write_coverage_csv(reports: list[CoverageReport], path) -> None:
    _write_rows(path,
                ["level", "mean_coverage", "hdi_lower", "hdi_upper", "a", "b"],
                [[r.nominal_level, r.posterior_mean_coverage,
                  r.coverage_hdi[0], r.coverage_hdi[1], r.a, r.b]
                 for r in reports])


def write_mape_csv(summaries: list[MapeSummary], path) -> None:
    _write_rows(path,
                ["variant", "average", "median", "hdi_lower", "hdi_upper", "n_excluded"],
                [["per_draw" if s.per_draw else "point", s.average, s.median,
                  s.hdi_lower, s.hdi_upper, s.n_excluded]
                 for s in summaries])


def write_uncaptured_csv(cell: np.ndarray, regions, times, path,
                         group_by: str | None = None) -> None:
    """The (N, T) uncaptured grid per cell, or its mean per region
    (group_by='region') or per period (group_by='period')."""
    if group_by == "region":
        _write_rows(path, ["region", "pct"],
                    [[int(r), float(p)] for r, p in zip(regions, cell.mean(axis=1))])
    elif group_by == "period":
        _write_rows(path, ["time", "pct"],
                    [[int(t), float(p)] for t, p in zip(times, cell.mean(axis=0))])
    elif group_by is None:
        _write_columns(path, ["region", "time", "pct"], regions, times, [cell])
    else:
        raise ValueError(f"unknown grouping {group_by!r}")
