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
    # per region, its (neighbour, weight) pairs as Python ints and floats in
    # neighbour-list order: the table the sequential CAR sweep walks
    _pairs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_regions
        if n < 1:
            raise ValueError("graph needs at least one region")
        if len(self.neighbors) != n or len(self.weights) != n:
            raise ValueError("neighbor/weight lists must have one entry per region")
        self.neighbors = [np.asarray(a, dtype=np.intp) for a in self.neighbors]
        self.weights = [np.asarray(a, dtype=float) for a in self.weights]

        # Each per-region check is one boolean per region; a graph fails at
        # its lowest failing region, with the first check there that fails.
        sizes = np.array([a.size for a in self.neighbors])
        mismatch = sizes != np.array([a.size for a in self.weights])
        whole = np.flatnonzero(~mismatch)
        owner = np.repeat(whole, sizes[whole])
        nbr = np.concatenate([self.neighbors[i] for i in whole] or [np.empty(0, np.intp)])
        wts = np.concatenate([self.weights[i] for i in whole] or [np.empty(0)])
        order = np.lexsort((nbr, owner))
        repeated = (np.diff(owner[order]) == 0) & (np.diff(nbr[order]) == 0)

        def regions_with(bad):
            hit = np.zeros(n, dtype=bool)
            hit[owner[bad]] = True
            return hit

        checks = (
            (mismatch, "region {}: neighbor/weight length mismatch"),
            (sizes == 0, "region {} is isolated; every region needs a neighbor"),
            (regions_with(nbr == owner), "region {} lists itself as a neighbor"),
            (regions_with((nbr < 0) | (nbr >= n)),
             "region {} references an out-of-range neighbor"),
            (regions_with(order[1:][repeated]), "region {} lists a duplicate neighbor"),
            (regions_with((wts < 0) | ~np.isfinite(wts)),
             "region {} has a negative or non-finite edge weight"),
        )
        failing = np.stack([hit for hit, _ in checks])
        if failing.any():
            region = int(np.flatnonzero(failing.any(axis=0))[0])
            raise ValueError(checks[int(np.argmax(failing[:, region]))][1].format(region))

        # every edge i -> j needs j -> i with the same weight; `order` sorts
        # the edges by (i, j), so the reverse of each is found by bisection
        keys = (owner * n + nbr)[order]
        at = np.minimum(np.searchsorted(keys, nbr * n + owner), keys.size - 1)
        asymmetric = (keys[at] != nbr * n + owner) | (wts[order][at] != wts)
        if asymmetric.any():
            e = int(np.argmax(asymmetric))
            raise ValueError(f"asymmetric edge between regions {owner[e]} and {nbr[e]}")

        # one numpy sum per row: np.add.reduceat adds long rows in another order
        self.row_sums = np.array([np.add.reduce(w) for w in self.weights])
        upper = nbr > owner
        self.edge_i = owner[upper]
        self.edge_j = nbr[upper]
        self.edge_w = wts[upper]
        pairs = list(zip(nbr.tolist(), wts.tolist()))
        bounds = np.cumsum(sizes).tolist()
        self._pairs = tuple(tuple(pairs[a:b]) for a, b in zip([0] + bounds, bounds))

    @property
    def average_degree(self) -> float:
        return float(self.row_sums.mean())

    @classmethod
    def from_edges(cls, n_regions: int, edges) -> "SpatialGraph":
        """Build from an iterable of (i, j) or (i, j, weight) tuples.

        Region r lists the other endpoint of each edge that touches r, in
        the order the edges come.
        """
        edges = [(int(e[0]), int(e[1]), float(e[2]) if len(e) > 2 else 1.0) for e in edges]
        i, j, w = zip(*edges) if edges else ((), (), ())
        return cls._from_pairs(n_regions, np.array(i, dtype=np.intp),
                               np.array(j, dtype=np.intp), np.array(w, dtype=float))

    @classmethod
    def _from_pairs(cls, n_regions: int, i: np.ndarray, j: np.ndarray,
                    w: np.ndarray) -> "SpatialGraph":
        """from_edges on edge arrays: each edge as i -> j then j -> i, sorted
        stably by source, so each region keeps the edges' order."""
        src = np.column_stack([i, j]).ravel()
        if src.size and not 0 <= src.min() <= src.max() < n_regions:
            raise ValueError(f"edge endpoint out of range for {n_regions} regions")
        order = np.argsort(src, kind="stable")
        dst = np.column_stack([j, i]).ravel()[order]
        wts = np.repeat(w, 2)[order]
        bounds = np.searchsorted(src[order], np.arange(n_regions + 1)).tolist()
        rows = list(zip(bounds, bounds[1:]))
        return cls(n_regions, [dst[a:b] for a, b in rows], [wts[a:b] for a, b in rows])

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
    # edges cell by cell in row-major order, each to its E, SW, S and SE cell
    r, c = np.divmod(np.arange(rows * cols), cols)
    step = np.array([[0, 1], [1, -1], [1, 0], [1, 1]])
    rr, cc = r[:, None] + step[:, 0], c[:, None] + step[:, 1]
    inside = (rr < rows) & (cc >= 0) & (cc < cols)
    i = np.broadcast_to(np.arange(rows * cols)[:, None], inside.shape)[inside]
    j = (rr * cols + cc)[inside]
    return SpatialGraph._from_pairs(rows * cols, i, j, np.ones(i.size))


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
