"""Contiguity graphs and the intrinsic CAR precision structure D_w - W.

A graph is built only from its undirected edge list and keeps what the
sampler reads: the row sums, the i < j edge arrays and each region's
(neighbour, weight) pairs. The dense precision matrix is only ever
materialised for test oracles and for drawing ground-truth spatial fields,
never inside the sampler.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


class SpatialGraph:
    """Undirected contiguity graph with finite, positive edge weights.

    Built by `from_edges` or `build_queen_grid`, never from its fields.
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
    # per region, its (neighbour, weight) pairs as Python ints and floats in
    # neighbour-list order: the table the sequential CAR sweep walks
    _pairs: tuple

    def __init__(self, *args, **kwargs):
        raise TypeError("build a SpatialGraph with SpatialGraph.from_edges or build_queen_grid")

    @property
    def average_degree(self) -> float:
        return float(self.row_sums.mean())

    @classmethod
    def from_edges(cls, n_regions: int, edges) -> "SpatialGraph":
        """Build from an iterable of (i, j) or (i, j, weight) tuples, each
        undirected edge once.

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
        """The one builder, on undirected edge arrays: each edge as i -> j
        then j -> i, sorted stably by source, so each region keeps the
        edges' order."""
        src = np.column_stack([i, j]).ravel()
        if src.size and not 0 <= src.min() <= src.max() < n_regions:
            raise ValueError(f"edge endpoint out of range for {n_regions} regions")
        if n_regions < 1:
            raise ValueError("graph needs at least one region")
        order = np.argsort(src, kind="stable")
        owner = src[order]
        nbr = np.column_stack([j, i]).ravel()[order]
        wts = np.repeat(w, 2)[order]

        # Each check is one boolean per region; a graph fails at its lowest
        # failing region, with the first check there that fails.
        def regions_with(bad):
            hit = np.zeros(n_regions, dtype=bool)
            hit[owner[bad]] = True
            return hit

        sizes = np.bincount(owner, minlength=n_regions)
        by_pair = np.lexsort((nbr, owner))
        repeated = (np.diff(owner[by_pair]) == 0) & (np.diff(nbr[by_pair]) == 0)
        checks = (
            (sizes == 0, "region {} is isolated; every region needs a neighbor"),
            (regions_with(nbr == owner), "region {} lists itself as a neighbor"),
            (regions_with(by_pair[1:][repeated]), "region {} lists a duplicate neighbor"),
            (regions_with(~(np.isfinite(wts) & (wts > 0))),
             "region {} has an edge weight that is not finite and > 0"),
        )
        failing = np.stack([hit for hit, _ in checks])
        if failing.any():
            region = int(np.flatnonzero(failing.any(axis=0))[0])
            raise ValueError(checks[int(np.argmax(failing[:, region]))][1].format(region))

        graph = object.__new__(cls)
        graph.n_regions = n_regions
        bounds = np.cumsum(sizes).tolist()
        rows = list(zip([0] + bounds, bounds))
        # one numpy sum per row: np.add.reduceat adds long rows in another order
        graph.row_sums = np.array([np.add.reduce(wts[a:b]) for a, b in rows])
        upper = nbr > owner
        graph.edge_i, graph.edge_j, graph.edge_w = owner[upper], nbr[upper], wts[upper]
        pairs = list(zip(nbr.tolist(), wts.tolist()))
        graph._pairs = tuple(tuple(pairs[a:b]) for a, b in rows)
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
    offending line or region named.
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
            if not (np.isfinite(w) and w > 0):
                raise ValueError(f"{path.name}:{lineno}: edge weight must be finite and > 0, "
                                 f"got {parts[2]}")
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
    regions = np.asarray(regions)
    position = {label: k for k, label in enumerate(regions.tolist())}
    for (i, j, _), lineno in zip(edges, lines):
        for label in (i, j):
            if label not in position:
                raise ValueError(f"{path.name}:{lineno}: region {label} is not in the panel")
    edges = [(position[i], position[j], w) for i, j, w in edges]
    degree = np.bincount([k for edge in edges for k in edge[:2]], minlength=regions.size)
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
