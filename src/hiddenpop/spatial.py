"""Contiguity graphs and the intrinsic CAR precision structure D_w - W.

A graph is built only from its undirected edge list, by `build_queen_grid`
or by `load_adjacency`, which checks every edge of a file, and keeps what
the sampler reads: the row sums, the i < j edge arrays and each region's
(neighbour, weight) pairs of its lower neighbours j < i. The dense
precision matrix is only ever materialised for test oracles and for
drawing ground-truth spatial fields, never inside the sampler.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


class SpatialGraph:
    """Undirected contiguity graph with finite, positive edge weights.

    Built by `build_queen_grid` or `load_adjacency`, never from its fields.
    Every region must have at least one neighbour (the CAR conditional
    variance sigma2_v / row_sum is undefined otherwise) and the diagonal
    is zero. An undirected edge list is symmetric by construction, so with
    positive weights D_w - W is diagonally dominant, hence positive
    semidefinite.
    """

    n_regions: int
    row_sums: np.ndarray
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_w: np.ndarray
    # per region i, the (neighbour, weight) pairs of its neighbours j < i as
    # Python ints and floats in neighbour-list order: the table the
    # sequential CAR sweep walks
    _lower: tuple

    def __init__(self, *args, **kwargs):
        raise TypeError("build a SpatialGraph with build_queen_grid or load_adjacency")

    @property
    def average_degree(self) -> float:
        return float(self.row_sums.mean())

    @classmethod
    def _from_pairs(cls, n_regions: int, i: np.ndarray, j: np.ndarray,
                    w: np.ndarray) -> "SpatialGraph":
        """The one builder, on undirected edge arrays that its callers have
        made valid: each edge as i -> j then j -> i, sorted stably by
        source, so each region keeps the edges' order."""
        src = np.column_stack([i, j]).ravel()
        order = np.argsort(src, kind="stable")
        owner = src[order]
        nbr = np.column_stack([j, i]).ravel()[order]
        wts = np.repeat(w, 2)[order]

        graph = object.__new__(cls)
        graph.n_regions = n_regions
        bounds = np.cumsum(np.bincount(owner, minlength=n_regions)).tolist()
        rows = list(zip([0] + bounds, bounds))
        # one numpy sum per row: np.add.reduceat adds long rows in another order
        graph.row_sums = np.array([np.add.reduce(wts[a:b]) for a, b in rows])
        upper = nbr > owner
        graph.edge_i, graph.edge_j, graph.edge_w = owner[upper], nbr[upper], wts[upper]
        lower = nbr < owner
        pairs = list(zip(nbr[lower].tolist(), wts[lower].tolist()))
        bounds = np.cumsum(np.bincount(owner[lower], minlength=n_regions)).tolist()
        graph._lower = tuple(tuple(pairs[a:b]) for a, b in zip([0] + bounds, bounds))
        return graph

    def dense_weight_matrix(self) -> np.ndarray:
        w = np.zeros((self.n_regions, self.n_regions))
        w[self.edge_i, self.edge_j] = self.edge_w
        w[self.edge_j, self.edge_i] = self.edge_w
        return w

    def dense_precision(self) -> np.ndarray:
        """D_w - W, for oracles and for simulating ground-truth fields."""
        w = self.dense_weight_matrix()
        return np.diag(self.row_sums) - w


def build_queen_grid(rows: int, cols: int) -> SpatialGraph:
    """Lattice where cells sharing an edge or a corner are neighbours."""
    if rows * cols < 2:
        raise ValueError("grid must contain at least two cells")
    # edges cell by cell in row-major order, each to its E, SW, S and SE cell
    r, c = np.divmod(np.arange(rows * cols), cols)
    step = np.array([[0, 1], [1, -1], [1, 0], [1, 1]])
    rr, cc = r[:, None] + step[:, 0], c[:, None] + step[:, 1]
    inside = (rr < rows) & (cc >= 0) & (cc < cols)
    i = np.broadcast_to(np.arange(rows * cols)[:, None], inside.shape)[inside]
    j = (rr * cols + cc)[inside]
    return SpatialGraph._from_pairs(rows * cols, i, j, np.ones(i.size))


def load_adjacency(path, regions) -> SpatialGraph:
    """Read an edge-list file: one `i j [weight]` triple per line.

    Endpoints are region labels, joined by label only: the graph's region k
    is `regions[k]`. `#` starts a comment and each undirected edge appears
    exactly once, with a weight (default 1) that is finite and > 0.
    Self-loops, duplicate edges (in either orientation), bad weights,
    labels outside `regions` and isolated regions are rejected with the
    offending line (the lowest, if several are bad) or region named. This
    is the one check of a graph from outside the package.
    """
    path = Path(path)
    regions = np.asarray(regions)
    position = {label: k for k, label in enumerate(regions.tolist())}
    ends_i, ends_j, weights = [], [], []
    seen: dict[tuple[int, int], int] = {}
    with path.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path.name}:{lineno}: expected `i j [weight]`, got {raw!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise ValueError(f"{path.name}:{lineno}: unparsable entry {raw!r}") from exc
            if i == j:
                raise ValueError(f"{path.name}:{lineno}: self-loop on region {i}")
            if not (np.isfinite(w) and w > 0):
                raise ValueError(f"{path.name}:{lineno}: edge weight must be finite and > 0, "
                                 f"got {parts[2]}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(
                    f"{path.name}:{lineno}: duplicate edge {key}, first seen on line {seen[key]}"
                )
            for label in (i, j):
                if label not in position:
                    raise ValueError(f"{path.name}:{lineno}: region {label} is not in the panel")
            seen[key] = lineno
            ends_i.append(position[i])
            ends_j.append(position[j])
            weights.append(w)
    if not weights:
        raise ValueError(f"{path.name}: no edges found")
    i, j = np.array(ends_i, dtype=np.intp), np.array(ends_j, dtype=np.intp)
    isolated = regions[np.bincount(np.concatenate([i, j]), minlength=regions.size) == 0]
    if isolated.size:
        raise ValueError(
            f"{path.name}: isolated region(s) with no edges: {isolated.tolist()}"
        )
    return SpatialGraph._from_pairs(regions.size, i, j, np.array(weights, dtype=float))


def car_quadratic_form(graph: SpatialGraph, v: np.ndarray) -> float:
    """v' (D_w - W) v via the pairwise form sum_{i<j} w_ij (v_i - v_j)^2."""
    v = np.asarray(v, dtype=float)
    if v.shape != (graph.n_regions,):
        raise ValueError(f"expected vector of length {graph.n_regions}, got {v.shape}")
    diff = v[graph.edge_i] - v[graph.edge_j]
    return float((graph.edge_w * diff * diff).sum())
