"""Workload definitions, seeded input generation and output checks.

Every workload is one user session run through `hiddenpop.cli.main`:
`fit` a simulated panel, `analyze` the draws against the simulated truth,
and `sir`-screen a counts file. The workloads differ in the sizes that
decide which layer dominates. All sizes and check tolerances are fixed
here, before any timing is taken.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LEVELS = "0.90,0.95,0.99"
BETA_TRUE = (0.5, -0.5)       # the simulate subcommand's default slopes
BETA_TOLERANCE = 0.1          # max |posterior-mean beta_k - truth|


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid: tuple[int, int]
    periods: int
    chains: int
    iters: int
    burnin: int
    thin: int
    counts: tuple[int, int]   # (regions, periods) of the screened counts file

    @property
    def stored_draws(self) -> int:
        return self.chains * ((self.iters - self.burnin) // self.thin)

    @property
    def sweeps(self) -> int:
        return self.chains * self.iters


WORKLOADS = {w.name: w for w in (
    Workload("paper-7x7x5",
             "paper panel size, one chain: a sweep is ~1 ms of tiny numpy/scipy calls, "
             "so per-call overhead dominates fit_s",
             grid=(7, 7), periods=5, chains=1, iters=600, burnin=100, thin=5,
             counts=(49, 5)),
    Workload("stress-30x30x10",
             "900 regions x 10 periods, 100 stored draws at thin 1: the update_v loop, "
             "save_draws and the CSV reads dominate",
             grid=(30, 30), periods=10, chains=1, iters=150, burnin=50, thin=1,
             counts=(900, 10)),
    Workload("chains-7x7x5x2",
             "paper panel with two chains: runs the run_chains thread pool, where the "
             "chains contend for the interpreter lock",
             grid=(7, 7), periods=5, chains=2, iters=350, burnin=100, thin=5,
             counts=(49, 5)),
    Workload("screen-2000x10",
             "sir screen of 2000 regions x 10 periods: the counts reader and the sir "
             "layer dominate; the fit is a short paper-size one",
             grid=(7, 7), periods=5, chains=1, iters=600, burnin=100, thin=5,
             counts=(2000, 10)),
)}


def write_counts_csv(path: Path, n_regions: int, n_periods: int, seed: int) -> None:
    """Gamma-Poisson counts with populations of 10^3 to 10^6 per region.

    Populations are large enough that every period has a positive total,
    which `compute_sir` requires.
    """
    rng = np.random.default_rng([seed, n_regions, n_periods])
    population = np.round(np.exp(rng.uniform(np.log(1e3), np.log(1e6), n_regions)))
    growth = 1.0 + 0.01 * np.arange(n_periods)
    pop = np.round(population[:, None] * growth[None, :]).astype(np.int64)
    risk = rng.gamma(20.0, 1.0 / 20.0, (n_regions, n_periods))
    counts = rng.poisson(2e-3 * pop * risk)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "time", "count", "population"])
        for i in range(n_regions):
            for t in range(n_periods):
                writer.writerow([i, t, int(counts[i, t]), int(pop[i, t])])


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


SCALARS = ("sigma2_alpha", "sigma2_eps", "sigma2_v", "sigma2_u", "sigma2_eta")


def check_fit(out: Path, workload: Workload) -> tuple[list[str], dict]:
    """Problems found in a fit's outputs, plus what the report needs."""
    problems = []
    with np.load(out / "draws.npz") as z:
        arrays = {name: z[name] for name in z.files}
    for name, arr in arrays.items():
        if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
            problems.append(f"draws.npz member {name} has non-finite values")
    n_draws = arrays["beta"].shape[0]
    if n_draws != workload.stored_draws:
        problems.append(f"{n_draws} stored draws, expected {workload.stored_draws}")

    accept = {r["quantity"]: float(r["value"]) for r in _csv_rows(out / "acceptance.csv")}
    for key in ("accept_rate_alpha", "accept_rate_eps"):
        if not 0.0 < accept.get(key, -1.0) < 1.0:
            problems.append(f"{key}={accept.get(key)} outside (0, 1)")

    beta_mean = arrays["beta"].mean(axis=0)
    gap = float(np.max(np.abs(beta_mean - np.asarray(BETA_TRUE))))
    if not gap <= BETA_TOLERANCE:
        problems.append(f"posterior-mean beta {beta_mean.round(4).tolist()} is {gap:.3f} "
                        f"from {list(BETA_TRUE)} (tolerance {BETA_TOLERANCE})")
    if not (out / "summary.csv").is_file():
        problems.append("summary.csv missing")

    chains = arrays["chain_id"]
    n_chains = int(chains.max()) + 1 if chains.size else 0
    scalars = {f"beta_{k + 1}": arrays["beta"][:, k] for k in range(arrays["beta"].shape[1])}
    scalars.update({name: arrays[name] for name in SCALARS})
    by_chain = {name: values.reshape(n_chains, -1) for name, values in scalars.items()}
    info = {
        "sha256": sha256(out / "draws.npz"),
        "draws_bytes": (out / "draws.npz").stat().st_size,
        "accept_rate_alpha": accept.get("accept_rate_alpha"),
        "accept_rate_eps": accept.get("accept_rate_eps"),
        "floored_draws": accept.get("floored_draws"),
        "n_draws": n_draws,
        "n_regions": int(arrays["u_plus"].shape[1]),
        "n_periods": int(arrays["u_plus"].shape[2]),
        "by_chain": by_chain,
    }
    return problems, info


def check_analyze(out: Path, n_levels: int) -> list[str]:
    path = out / "coverage.csv"
    if not path.is_file():
        return ["coverage.csv missing"]
    rows = _csv_rows(path)
    if len(rows) != n_levels:
        return [f"coverage.csv has {len(rows)} rows, expected {n_levels}"]
    return []


def check_sir(out: Path, n_cells: int) -> list[str]:
    path = out / "sir.csv"
    if not path.is_file():
        return ["sir.csv missing"]
    rows = _csv_rows(path)
    problems = []
    if len(rows) != n_cells:
        problems.append(f"sir.csv has {len(rows)} rows, expected {n_cells}")
    exceed = np.array([float(r["exceedance"]) for r in rows])
    if not np.all((exceed >= 0.0) & (exceed <= 1.0)):
        problems.append("sir.csv has exceedance probabilities outside [0, 1]")
    return problems
