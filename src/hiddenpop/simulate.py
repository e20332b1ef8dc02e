"""Data-generating processes for the Monte Carlo studies.

Baseline design: a queen-contiguity lattice, standard-normal driver z and
its (raw-weight) spatial lag as the two regressors with slopes
(0.5, -0.5), half-normal one-sided errors, Gaussian heterogeneity and
noise, and an intrinsic CAR spatial field drawn on the subspace
orthogonal to the constant vector.

Scenario helpers rescale the noise scale to hit a target signal ratio
lambda = (sigma_eta + sigma_u) / sigma_eps, and the noise law can be
switched to a scaled Student-t for heavy-tail robustness runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import PanelDataset, _check_values, _read_panel, _write_columns
from .spatial import SpatialGraph, build_queen_grid

_TRUTH_HEADER = ["region", "time", "u_plus", "eta_plus", "v", "alpha", "P"]


@dataclass(frozen=True)
class DgpConfig:
    grid_rows: int = 7
    grid_cols: int = 7
    n_periods: int = 5
    beta_true: tuple[float, ...] = (0.5, -0.5)
    sigma_alpha: float = 0.1
    sigma_eta: float = 0.5
    sigma_u: float = 0.2
    sigma_eps: float = 0.1
    sigma_v: float = 0.4
    eps_t_df: float | None = None   # None -> Gaussian noise, else Student-t df
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma_alpha", "sigma_eta", "sigma_u", "sigma_eps", "sigma_v"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.eps_t_df is not None and not self.eps_t_df > 2:
            raise ValueError("Student-t noise needs df > 2")
        if self.grid_rows * self.grid_cols < 2 or self.n_periods < 1:
            raise ValueError("grid must have >= 2 cells and >= 1 period")

    @property
    def n_regions(self) -> int:
        return self.grid_rows * self.grid_cols


@dataclass
class SimulatedTruth:
    """A simulated panel together with every latent component that made it."""

    dataset: PanelDataset
    graph: SpatialGraph
    true_u_plus: np.ndarray    # (N, T)
    true_eta_plus: np.ndarray  # (N,)
    true_v: np.ndarray         # (N,)
    true_alpha: np.ndarray     # (N,)
    true_p: np.ndarray         # (N, T), hidden population on the level scale
    config: DgpConfig


def lambda_of(config: DgpConfig) -> float:
    """Signal ratio (sigma_eta + sigma_u) / sigma_eps."""
    return (config.sigma_eta + config.sigma_u) / config.sigma_eps


def make_lambda_scenario(target_lambda: float, base: DgpConfig) -> DgpConfig:
    """Rescale sigma_eps so the scenario hits the requested signal ratio."""
    if not target_lambda > 0:
        raise ValueError("target lambda must be positive")
    sigma_eps = (base.sigma_eta + base.sigma_u) / target_lambda
    return replace(base, sigma_eps=sigma_eps)


def draw_centered_car(graph: SpatialGraph, sigma_v: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Spatial field with precision (D_w - W) / sigma2_v on the proper subspace.

    The intrinsic law has no joint density along the constant vector, so the
    draw lives on its orthogonal complement: for each eigenpair (lam, q) of
    D_w - W with lam > 0, add q * N(0, sigma2_v / lam). The result sums to
    zero on a connected graph.
    """
    prec = graph.dense_precision()
    eigval, eigvec = np.linalg.eigh(prec)
    keep = eigval > 1e-9 * eigval.max()
    z = rng.standard_normal(int(keep.sum()))
    return eigvec[:, keep] @ (sigma_v * z / np.sqrt(eigval[keep]))


def simulate(config: DgpConfig) -> SimulatedTruth:
    """Generate one panel realisation with all latent truths attached."""
    rng = np.random.default_rng(config.seed)
    graph = build_queen_grid(config.grid_rows, config.grid_cols)
    n, t = config.n_regions, config.n_periods
    beta = np.asarray(config.beta_true, dtype=float)

    z = rng.standard_normal((n, t))
    lag = graph.dense_weight_matrix() @ z
    x = np.stack([z, lag], axis=2)

    alpha = rng.normal(0.0, config.sigma_alpha, n)
    v = draw_centered_car(graph, config.sigma_v, rng)
    eta_plus = np.abs(rng.normal(0.0, config.sigma_eta, n))
    u_plus = np.abs(rng.normal(0.0, config.sigma_u, (n, t)))
    if config.eps_t_df is None:
        eps = rng.normal(0.0, config.sigma_eps, (n, t))
    else:
        eps = config.sigma_eps * rng.standard_t(config.eps_t_df, (n, t))

    y = (x @ beta + alpha[:, None] + v[:, None]
         - eta_plus[:, None] - u_plus + eps)
    # P = Y * exp(eta+ + u+) on the level scale, computed from the same sum
    # so the reconstruction identity holds to rounding.
    true_p = np.exp(y + eta_plus[:, None] + u_plus)

    dataset = PanelDataset(y=y, x=x)
    return SimulatedTruth(
        dataset=dataset,
        graph=graph,
        true_u_plus=u_plus,
        true_eta_plus=eta_plus,
        true_v=v,
        true_alpha=alpha,
        true_p=true_p,
        config=config,
    )


def write_truth_csv(truth: SimulatedTruth, path) -> None:
    per_region = [a[:, None] for a in (truth.true_eta_plus, truth.true_v, truth.true_alpha)]
    _write_columns(path, _TRUTH_HEADER, truth.dataset.regions, truth.dataset.times,
                   [truth.true_u_plus, *per_region, truth.true_p])


def read_truth_csv(path):
    """Truth sidecar -> dict of arrays keyed like the writer's columns.

    Every value must be finite and every P nonnegative. The per-region
    columns (eta_plus, v, alpha) must repeat one value in every period of a
    region; a region where they differ is an error.
    """
    regions, times, values = _read_panel(path, _TRUTH_HEADER)
    finite = [(np.isfinite, "a finite number")]
    _check_values(path, values, [finite] * 4 + [finite + [(lambda p: p >= 0, "nonnegative")]])
    u_plus, eta, v, alpha, p = values
    per_region = {}
    for name, col in (("eta_plus", eta), ("v", v), ("alpha", alpha)):
        first = col[:, :1]
        differs = col != first
        if differs.any():
            i, j = np.argwhere(differs)[0]
            raise ValueError(
                f"{Path(path).name}: {name} differs across the periods of region="
                f"{regions[i]}: {first[i, 0].item()} at time={times[0]}, "
                f"{col[i, j].item()} at time={times[j]}")
        per_region[name] = first[:, 0].copy()
    return {"u_plus": u_plus, **per_region, "p": p, "regions": regions, "times": times}
