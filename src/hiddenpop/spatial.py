"""Contiguity graphs and the intrinsic CAR precision structure D_w - W.

Graphs are stored as adjacency lists with cached row sums; the dense
precision matrix is only ever materialised for test oracles and for
drawing ground-truth spatial fields, never inside the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class SpatialGraph:
    """Symmetric contiguity graph with nonnegative edge weights.

    Every region must have at least one neighbour (the CAR conditional
    variance sigma2_v / row_sum is undefined otherwise) and the diagonal
    is zero by construction. Symmetry plus nonnegative weights make
    D_w - W diagonally dominant, hence positive semidefinite.
    """

    n_regions: int
    neighbors: list[np.ndarray]
    weights: list[np.ndarray]
    row_sums: np.ndarray = field(init=False)
    edge_i: np.ndarray = field(init=False)
    edge_j: np.ndarray = field(init=False)
    edge_w: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n_regions < 1:
            raise ValueError("graph needs at least one region")
        if len(self.neighbors) != self.n_regions or len(self.weights) != self.n_regions:
            raise ValueError("neighbor/weight lists must have one entry per region")
        self.neighbors = [np.asarray(n, dtype=np.intp) for n in self.neighbors]
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]

        lookup = []
        for i, (nbr, wts) in enumerate(zip(self.neighbors, self.weights)):
            if nbr.size != wts.size:
                raise ValueError(f"region {i}: neighbor/weight length mismatch")
            if nbr.size == 0:
                raise ValueError(f"region {i} is isolated; every region needs a neighbor")
            if np.any(nbr == i):
                raise ValueError(f"region {i} lists itself as a neighbor")
            if np.any((nbr < 0) | (nbr >= self.n_regions)):
                raise ValueError(f"region {i} references an out-of-range neighbor")
            if np.unique(nbr).size != nbr.size:
                raise ValueError(f"region {i} lists a duplicate neighbor")
            if np.any(wts < 0) or not np.all(np.isfinite(wts)):
                raise ValueError(f"region {i} has a negative or non-finite edge weight")
            lookup.append(dict(zip(nbr.tolist(), wts.tolist())))
        for i in range(self.n_regions):
            for j, w in lookup[i].items():
                if lookup[j].get(i) != w:
                    raise ValueError(f"asymmetric edge between regions {i} and {j}")

        self.row_sums = np.array([w.sum() for w in self.weights])
        ei, ej, ew = [], [], []
        for i in range(self.n_regions):
            mask = self.neighbors[i] > i
            ei.extend([i] * int(mask.sum()))
            ej.extend(self.neighbors[i][mask].tolist())
            ew.extend(self.weights[i][mask].tolist())
        self.edge_i = np.asarray(ei, dtype=np.intp)
        self.edge_j = np.asarray(ej, dtype=np.intp)
        self.edge_w = np.asarray(ew, dtype=float)

    @property
    def average_degree(self) -> float:
        return float(self.row_sums.mean())

    @classmethod
    def from_edges(cls, n_regions: int, edges) -> "SpatialGraph":
        """Build from an iterable of (i, j) or (i, j, weight) tuples."""
        nbr = [[] for _ in range(n_regions)]
        wts = [[] for _ in range(n_regions)]
        for edge in edges:
            i, j = int(edge[0]), int(edge[1])
            w = float(edge[2]) if len(edge) > 2 else 1.0
            nbr[i].append(j)
            wts[i].append(w)
            nbr[j].append(i)
            wts[j].append(w)
        return cls(n_regions, [np.array(n, dtype=np.intp) for n in nbr],
                   [np.array(w) for w in wts])

    def dense_weight_matrix(self) -> np.ndarray:
        w = np.zeros((self.n_regions, self.n_regions))
        for i, (nbr, wts) in enumerate(zip(self.neighbors, self.weights)):
            w[i, nbr] = wts
        return w

    def dense_precision(self) -> np.ndarray:
        """D_w - W, for oracles and for simulating ground-truth fields."""
        w = self.dense_weight_matrix()
        return np.diag(self.row_sums) - w


def build_queen_grid(rows: int, cols: int) -> SpatialGraph:
    """Lattice where cells sharing an edge or a corner are neighbours."""
    if rows * cols < 2:
        raise ValueError("grid must contain at least two cells")
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    edges.append((i, rr * cols + cc))
    return SpatialGraph.from_edges(rows * cols, edges)


def load_adjacency(path, regions=None) -> SpatialGraph:
    """Read an edge-list file: one `i j [weight]` triple per line.

    Endpoints are region labels: the graph's region k is `regions[k]`, or
    label k (0-based) when `regions` is None. `#` starts a comment and each
    undirected edge appears exactly once. Self-loops, duplicate edges (in
    either orientation), labels outside `regions` and isolated regions are
    rejected with the offending line or region named.
    """
    path = Path(path)
    edges, lines = [], []
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
            if regions is None and (i < 0 or j < 0):
                raise ValueError(f"{path.name}:{lineno}: negative region index")
            if w <= 0:
                raise ValueError(f"{path.name}:{lineno}: edge weight must be positive")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(
                    f"{path.name}:{lineno}: duplicate edge {key}, first seen on line {seen[key]}"
                )
            seen[key] = lineno
            edges.append((i, j, w))
            lines.append(lineno)
    if not edges:
        raise ValueError(f"{path.name}: no edges found")
    if regions is None:
        regions = range(max(max(i, j) for i, j, _ in edges) + 1)
    regions = np.asarray(regions)
    position = {label: k for k, label in enumerate(regions.tolist())}
    for (i, j, _), lineno in zip(edges, lines):
        for label in (i, j):
            if label not in position:
                raise ValueError(f"{path.name}:{lineno}: region {label} is not in the panel")
    edges = [(position[i], position[j], w) for i, j, w in edges]
    degree = np.zeros(regions.size, dtype=int)
    for i, j, _ in edges:
        degree[i] += 1
        degree[j] += 1
    isolated = regions[degree == 0]
    if isolated.size:
        raise ValueError(
            f"{path.name}: isolated region(s) with no edges: {isolated.tolist()}"
        )
    return SpatialGraph.from_edges(regions.size, edges)


def car_quadratic_form(graph: SpatialGraph, v: np.ndarray) -> float:
    """v' (D_w - W) v via the pairwise form sum_{i<j} w_ij (v_i - v_j)^2."""
    v = np.asarray(v, dtype=float)
    if v.shape != (graph.n_regions,):
        raise ValueError(f"expected vector of length {graph.n_regions}, got {v.shape}")
    diff = v[graph.edge_i] - v[graph.edge_j]
    return float(np.sum(graph.edge_w * diff * diff))
