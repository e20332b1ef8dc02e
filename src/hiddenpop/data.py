"""Panel containers and the plain-CSV formats the pipeline exchanges.

Panel CSV:   header `region,time,y,x1,...,xK`, one row per region-period.
Counts CSV:  header `region,time,count,population`.
Truth CSV:   header `region,time,u_plus,eta_plus,v,alpha,P` (simulation sidecar).

All panels are balanced; region and time labels may be arbitrary integers
but are stored in sorted order internally.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.6g"


def _fmt(x) -> str:
    return FLOAT_FMT % float(x)


@dataclass
class PanelDataset:
    """Balanced N x T panel of responses with K regressors."""

    y: np.ndarray              # (N, T), response on log scale
    x: np.ndarray              # (N, T, K)
    regions: np.ndarray = None  # (N,) labels
    times: np.ndarray = None    # (T,) labels

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if self.y.ndim != 2:
            raise ValueError(f"y must be (N, T), got shape {self.y.shape}")
        if self.x.shape[:2] != self.y.shape or self.x.ndim != 3:
            raise ValueError(f"x must be (N, T, K), got {self.x.shape} vs y {self.y.shape}")
        if not np.all(np.isfinite(self.y)) or not np.all(np.isfinite(self.x)):
            raise ValueError("panel contains non-finite values")
        if self.regions is None:
            self.regions = np.arange(self.n_regions)
        if self.times is None:
            self.times = np.arange(self.n_periods)
        self.regions = np.asarray(self.regions)
        self.times = np.asarray(self.times)

    @property
    def n_regions(self) -> int:
        return self.y.shape[0]

    @property
    def n_periods(self) -> int:
        return self.y.shape[1]

    @property
    def k_regressors(self) -> int:
        return self.x.shape[2]

    @cached_property
    def regressor_gram(self) -> tuple[np.ndarray, np.ndarray]:
        """(sum_it x_it x_it', X_i'1 per region): the slope update's constants.

        Computed on first use and kept, like the finiteness check, on the
        understanding that the panel does not change after construction.
        """
        return np.einsum("ntk,ntl->kl", self.x, self.x), self.x.sum(axis=1)

    def to_csv(self, path) -> None:
        k = self.k_regressors
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["region", "time"] + ["y"] + [f"x{j + 1}" for j in range(k)])
            for i in range(self.n_regions):
                for t in range(self.n_periods):
                    row = [int(self.regions[i]), int(self.times[t]), _fmt(self.y[i, t])]
                    row += [_fmt(self.x[i, t, j]) for j in range(k)]
                    writer.writerow(row)

    @classmethod
    def from_csv(cls, path) -> "PanelDataset":
        path = Path(path)
        with path.open() as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:3]] != ["region", "time", "y"]:
                raise ValueError(f"{path.name}: expected header region,time,y,x1,...")
            k = len(header) - 3
            rows = [r for r in reader if r]
        if not rows:
            raise ValueError(f"{path.name}: no data rows")
        cells = {}
        for r in rows:
            key = (int(r[0]), int(r[1]))
            if key in cells:
                raise ValueError(f"{path.name}: duplicate cell region={key[0]} time={key[1]}")
            cells[key] = [float(v) for v in r[2:]]
        regions = sorted({key[0] for key in cells})
        times = sorted({key[1] for key in cells})
        n, t = len(regions), len(times)
        if len(cells) != n * t:
            raise ValueError(f"{path.name}: unbalanced panel ({len(cells)} cells for {n}x{t})")
        y = np.empty((n, t))
        x = np.empty((n, t, k))
        for (ri, ti), vals in cells.items():
            i, j = regions.index(ri), times.index(ti)
            y[i, j] = vals[0]
            x[i, j, :] = vals[1:]
        return cls(y=y, x=x, regions=np.array(regions), times=np.array(times))


@dataclass
class CountPanel:
    """Observed counts and populations per region-period."""

    s: np.ndarray  # (N, T) nonnegative integer counts
    n: np.ndarray  # (N, T) positive populations
    regions: np.ndarray = None
    times: np.ndarray = None

    def __post_init__(self):
        self.s = np.asarray(self.s)
        self.n = np.asarray(self.n, dtype=float)
        if self.s.shape != self.n.shape or self.s.ndim != 2:
            raise ValueError("counts and populations must share an (N, T) shape")
        if np.any(self.s < 0) or not np.all(self.s == np.floor(self.s)):
            raise ValueError("counts must be nonnegative integers")
        if np.any(self.n <= 0) or not np.all(np.isfinite(self.n)):
            raise ValueError("populations must be positive")
        self.s = self.s.astype(np.int64)
        if self.regions is None:
            self.regions = np.arange(self.s.shape[0])
        if self.times is None:
            self.times = np.arange(self.s.shape[1])
        self.regions = np.asarray(self.regions)
        self.times = np.asarray(self.times)

    @classmethod
    def from_csv(cls, path) -> "CountPanel":
        path = Path(path)
        with path.open() as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            expected = ["region", "time", "count", "population"]
            if header is None or [h.strip() for h in header] != expected:
                raise ValueError(f"{path.name}: expected header {','.join(expected)}")
            rows = [r for r in reader if r]
        if not rows:
            raise ValueError(f"{path.name}: no data rows")
        cells = {}
        for r in rows:
            key = (int(r[0]), int(r[1]))
            if key in cells:
                raise ValueError(f"{path.name}: duplicate cell region={key[0]} time={key[1]}")
            cells[key] = (float(r[2]), float(r[3]))
        regions = sorted({key[0] for key in cells})
        times = sorted({key[1] for key in cells})
        n_r, n_t = len(regions), len(times)
        if len(cells) != n_r * n_t:
            raise ValueError(f"{path.name}: unbalanced panel")
        s = np.empty((n_r, n_t))
        pop = np.empty((n_r, n_t))
        for (ri, ti), (cnt, p) in cells.items():
            i, j = regions.index(ri), times.index(ti)
            s[i, j] = cnt
            pop[i, j] = p
        return cls(s=s, n=pop, regions=np.array(regions), times=np.array(times))
