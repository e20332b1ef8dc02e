"""Dense reference implementations that the tests compare the sampler with.

The sampler never forms the panel covariance densely: it works with the
rank-one factors `kernels._inverse_factors` and `kernels._logdet`. These
oracles build the dense matrices around those same factors, so a dense
check of an oracle is a check of the formulas the sampler runs.

`graph_from_edges` builds a graph from an edge list the way the package
builds one from a checked adjacency file. The oracles at the end are the
graph builder, the slope moments, the CAR sweep and the Metropolis-Hastings
move as they ran before they were vectorised or moved onto Python floats;
the tests hold the package to them bit for bit where the arithmetic is the
same, and within 1e-12 where only the order of the sums differs. Then
comes the panel CSV writer as it formatted one row per `%`, which the block
writer must match byte for byte. The last is the Monte Carlo summary of
the coverage posterior that `analysis.coverage_report` made before it
summarised the posterior exactly; the exact values must lie within its
Monte Carlo error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from hiddenpop import sampler
from hiddenpop.analysis import hdi
from hiddenpop.data import FLOAT_FMT
from hiddenpop.kernels import CHI2_DF1_MEDIAN, NumericalError, _inverse_factors, _logdet
from hiddenpop.spatial import SpatialGraph


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
        """Dense T x T inverse from the rank-one factors."""
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


def queen_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """Queen-contiguity edges, each once, in the cell-by-cell order the
    original grid builder enumerated them."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    edges.append((r * cols + c, rr * cols + cc))
    return edges


def per_edge_graph(n_regions: int, edges) -> SimpleNamespace:
    """Every array of a graph as the original per-edge builder and the
    per-region loops of the original constructor produced them: each edge
    appended to both endpoints' neighbour and weight lists in input order,
    row sums as one numpy sum per row, the i < j edge arrays region by
    region, and each region's lower (neighbour, weight) pairs, j < i, as
    Python numbers."""
    nbr = [[] for _ in range(n_regions)]
    wts = [[] for _ in range(n_regions)]
    for edge in edges:
        i, j = int(edge[0]), int(edge[1])
        w = float(edge[2]) if len(edge) > 2 else 1.0
        nbr[i].append(j)
        wts[i].append(w)
        nbr[j].append(i)
        wts[j].append(w)
    neighbors = [np.array(n, dtype=np.intp) for n in nbr]
    weights = [np.array(w, dtype=float) for w in wts]
    ei, ej, ew = [], [], []
    for i in range(n_regions):
        mask = neighbors[i] > i
        ei.extend([i] * int(mask.sum()))
        ej.extend(neighbors[i][mask].tolist())
        ew.extend(weights[i][mask].tolist())
    return SimpleNamespace(
        n_regions=n_regions, neighbors=neighbors, weights=weights,
        row_sums=np.array([w.sum() for w in weights]),
        edge_i=np.asarray(ei, dtype=np.intp), edge_j=np.asarray(ej, dtype=np.intp),
        edge_w=np.asarray(ew, dtype=float),
        _lower=tuple(tuple((j, w) for j, w in zip(n, ws) if j < i)
                     for i, (n, ws) in enumerate(zip(nbr, wts))),
    )


def graph_from_edges(n_regions: int, edges) -> SpatialGraph:
    """A graph from (i, j) or (i, j, weight) tuples of region positions,
    each undirected edge once, through the package's one builder. The
    builder checks nothing, so the edges must make a valid graph: every
    region on an edge, no self-loop or repeated edge, weights finite and
    > 0."""
    i, j, w = zip(*((e[0], e[1], e[2] if len(e) > 2 else 1.0) for e in edges))
    return SpatialGraph._from_pairs(n_regions, np.array(i, dtype=np.intp),
                                    np.array(j, dtype=np.intp), np.array(w, dtype=float))


def beta_posterior_moments(state, data):
    """Mean and lower Cholesky factor of the slope precision through
    numpy's linear algebra, as the sampler formed them before its K x K
    factor moved onto Python floats."""
    n, t, k = data.x.shape
    a, c = _inverse_factors(state.sigma2_eps, state.sigma2_alpha, t)
    ytil = data.y - state.u_plus - state.v[:, None] - state.eta_plus[:, None]
    xtx = np.einsum("ntk,ntl->kl", data.x, data.x)
    xs = data.x.sum(axis=1)
    cxs = c * xs.T
    prec = a * xtx - cxs @ xs
    prec.flat[:: k + 1] += 1.0 / sampler.BETA_PRIOR_SCALE
    rhs = a * np.einsum("ntk,nt->k", data.x, ytil) - cxs @ ytil.sum(axis=1)
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "slope posterior precision is not positive definite", np.linalg.cond(prec)
        ) from exc
    return np.linalg.solve(prec, rhs), chol


def update_v_dot(state, resid, reference, rng) -> np.ndarray:
    """The sequential CAR sweep with one numpy dot product per region, as
    the sampler ran it before it walked a table of Python floats and split
    each region's neighbours at i. `resid` is y - X beta; `reference` is
    the `per_edge_graph` of the graph's edges, whose per-region lists the
    sweep walks."""
    n, t = resid.shape
    denom = state.sigma2_eps + t * state.sigma2_alpha
    one_inv_one = t / denom
    r = resid - state.u_plus - state.eta_plus[:, None]
    data_pull = (r.sum(axis=1) / denom).tolist()

    v = state.v.copy()
    z = rng.standard_normal(n)
    inv_s2v = 1.0 / state.sigma2_v
    var = 1.0 / (one_inv_one + reference.row_sums * inv_s2v)
    noise = (np.sqrt(var) * z).tolist()
    var = var.tolist()
    for i, (nbr, wts) in enumerate(zip(reference.neighbors, reference.weights)):
        v[i] = var[i] * (data_pull[i] + inv_s2v * wts.dot(v[nbr])) + noise[i]
    return v


def mh_scaled_chisq_step(log_target, current, rng, step_scale: float):
    """The median-centred chi2(1) Metropolis-Hastings move elementwise on
    arrays, as the sampler ran it before it moved onto one Python float.
    Returns (new_value, accepted_mask)."""
    current = np.asarray(current, dtype=float)
    z = rng.chisquare(1.0, size=current.shape)
    ratio = (z / CHI2_DF1_MEDIAN) ** step_scale
    proposal = current * ratio
    correction = (step_scale - 1.0) * np.log(z / CHI2_DF1_MEDIAN) + 0.5 * (
        z - CHI2_DF1_MEDIAN**2 / z
    )
    lt_prop = np.asarray(log_target(proposal), dtype=float)
    lt_cur = np.asarray(log_target(current), dtype=float)
    # a proposal outside the support is always rejected, and any in-support
    # proposal from an out-of-support state is always taken; zeroing the
    # -inf current values keeps inf - inf out of the difference
    inside = lt_prop != -np.inf
    escape = lt_cur == -np.inf
    log_accept = lt_prop - np.where(escape, 0.0, lt_cur) + correction
    accept = inside & (escape | (np.log(rng.random(current.shape)) < log_accept))
    return np.where(accept, proposal, current), accept


def write_columns_by_row(path, header: list[str], regions, times, columns) -> None:
    """`data._write_columns` as it ran before it formatted blocks of rows:
    one tuple and one `%` per (region, time) cell."""
    n, t = len(regions), len(times)
    columns = [np.broadcast_to(c, (n, t)) for c in columns]
    row = ",".join(["%d", "%d"] + ["%s" if c.dtype.kind in "OUS" else FLOAT_FMT
                                   for c in columns]) + "\r\n"
    cells = zip(np.repeat(regions, t).tolist(), np.tile(times, n).tolist(),
                *(c.ravel().tolist() for c in columns))
    Path(path).write_text(",".join(header) + "\r\n" + "".join([row % r for r in cells]),
                          newline="")


def coverage_posterior_by_draws(a: int, b: int, rng, n_draws: int = 20000):
    """The mean and 95% HDI of the coverage posterior Beta(a, b) as
    `analysis.coverage_report` estimated them from n_draws Beta variates:
    their mean and their sample HDI, the shortest window of sorted draws
    (the Chen & Shao 1999 estimator). Returns (mean, (lower, upper))."""
    draws = rng.beta(a, b, n_draws)
    return float(draws.mean()), hdi(draws, 0.95)
