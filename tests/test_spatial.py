import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hiddenpop.analysis import uncaptured_summaries
from hiddenpop.sampler import PosteriorDraws
from hiddenpop.spatial import SpatialGraph, build_queen_grid, car_quadratic_form, load_adjacency
from oracles import per_edge_graph, queen_edges

GRAPH_ARRAYS = ("row_sums", "edge_i", "edge_j", "edge_w")


def assert_same_graph(graph, reference):
    """Every array equal bit for bit, with the same dtype, and the same
    (neighbour, weight) pairs per region in the same order."""
    assert graph.n_regions == reference.n_regions
    for name in GRAPH_ARRAYS:
        a, b = getattr(graph, name), getattr(reference, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert graph._pairs == reference._pairs


def degrees(graph):
    """Neighbour count per region, from the i < j edge arrays."""
    ends = np.concatenate([graph.edge_i, graph.edge_j])
    return np.bincount(ends, minlength=graph.n_regions)


class TestQueenGrid:
    def test_two_by_two_complete(self):
        g = build_queen_grid(2, 2)
        assert degrees(g).tolist() == [3, 3, 3, 3]

    def test_seven_by_seven_against_enumeration(self):
        g = build_queen_grid(7, 7)
        grid = degrees(g).reshape(7, 7)
        # brute-force oracle over the lattice
        expected = np.zeros((7, 7), dtype=int)
        for r in range(7):
            for c in range(7):
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        if dr == dc == 0:
                            continue
                        if 0 <= r + dr < 7 and 0 <= c + dc < 7:
                            expected[r, c] += 1
        assert np.array_equal(grid, expected)
        corners = [grid[0, 0], grid[0, 6], grid[6, 0], grid[6, 6]]
        assert corners == [3, 3, 3, 3]
        assert grid[0, 3] == 5 and grid[3, 0] == 5
        assert grid[3, 3] == 8
        assert g.edge_i.size == 2 * (6 * 7) + 2 * (6 * 6)

    def test_path_graph(self):
        g = build_queen_grid(1, 3)
        assert degrees(g).tolist() == [1, 2, 1]

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_queen_grid(1, 1)

    @pytest.mark.parametrize("rows, cols", [(1, 2), (2, 1), (1, 5), (4, 1), (2, 2),
                                            (3, 4), (7, 7), (30, 30)])
    def test_equals_the_per_edge_builder(self, rows, cols):
        assert_same_graph(build_queen_grid(rows, cols),
                          per_edge_graph(rows * cols, queen_edges(rows, cols)))


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            SpatialGraph.from_edges(2, [(0, 1), (0, 0)])

    def test_isolated_region_rejected(self):
        with pytest.raises(ValueError, match="isolated"):
            SpatialGraph.from_edges(2, [])

    def test_asymmetric_rejected(self):
        # an edge list holds each edge once, so the only way to give i -> j
        # and j -> i different weights is to list the edge twice
        with pytest.raises(ValueError, match="^region 0 lists a duplicate neighbor$"):
            SpatialGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 2.0)])

    # (n_regions, edges, message): one case per check of the builder, then
    # cases that pin which check speaks first: an endpoint out of range
    # before anything else, then the lowest failing region, and at that
    # region the checks in the order listed
    CASES = [
        (0, [], "graph needs at least one region"),
        (3, [(0, 1), (1, 3)], "edge endpoint out of range for 3 regions"),
        (3, [(0, 1), (-1, 2)], "edge endpoint out of range for 3 regions"),
        (3, [(0, 1)], "region 2 is isolated; every region needs a neighbor"),
        (2, [(0, 1), (1, 1)], "region 1 lists itself as a neighbor"),
        (3, [(0, 1), (1, 2), (2, 1)], "region 1 lists a duplicate neighbor"),
        (2, [(0, 1, -1.0)], "region 0 has an edge weight that is not finite and > 0"),
        (2, [(0, 1, 0.0)], "region 0 has an edge weight that is not finite and > 0"),
        (3, [(0, 1), (1, 2, np.nan)], "region 1 has an edge weight that is not finite and > 0"),
        (2, [(0, 1, np.inf)], "region 0 has an edge weight that is not finite and > 0"),
        # out of range before a region check, even with no region at all
        (3, [(1, 1), (0, 5)], "edge endpoint out of range for 3 regions"),
        (0, [(0, 1)], "edge endpoint out of range for 0 regions"),
        # the lowest region first: isolated 0 before a self-loop at 2, a bad
        # weight at 0 before a self-loop at 1
        (3, [(1, 2), (2, 2)], "region 0 is isolated; every region needs a neighbor"),
        (2, [(0, 1, -1.0), (1, 1)], "region 0 has an edge weight that is not finite and > 0"),
        # at one region: self-loop before a duplicate and a bad weight, and
        # a duplicate before a bad weight
        (3, [(0, 1), (1, 1, -1.0), (1, 2), (2, 1)], "region 1 lists itself as a neighbor"),
        (3, [(0, 1), (1, 2, -1.0), (2, 1)], "region 1 lists a duplicate neighbor"),
    ]

    @pytest.mark.parametrize("n, edges, message", CASES)
    def test_each_check_names_its_fault(self, n, edges, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SpatialGraph.from_edges(n, edges)

    def test_no_constructor_takes_region_lists(self):
        with pytest.raises(TypeError, match="from_edges"):
            SpatialGraph(2, [np.array([1]), np.array([0])], [np.array([1.0]), np.array([1.0])])

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_from_edges_equals_the_per_edge_builder(self, data):
        # a weighted graph with every region on an edge: a random spanning
        # path plus random extra pairs, each listed once in a random
        # orientation and order, some rows long enough for numpy's
        # blocked summation
        n = data.draw(st.integers(2, 24))
        path = data.draw(st.permutations(range(n)))
        pairs = {frozenset(p) for p in zip(path, path[1:])}
        extra = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=4 * n))
        pairs |= {frozenset(p) for p in extra if p[0] != p[1]}
        pairs = data.draw(st.permutations(sorted(tuple(sorted(p)) for p in pairs)))
        weight = st.one_of(st.just(1.0), st.floats(0.0, 1e3, exclude_min=True),
                           st.floats(1e-300, 1e-3))
        edges = []
        for i, j in pairs:
            i, j = (j, i) if data.draw(st.booleans()) else (i, j)
            edges.append((i, j, data.draw(weight)) if data.draw(st.booleans()) else (i, j))
        assert_same_graph(SpatialGraph.from_edges(n, edges), per_edge_graph(n, edges))

    def test_from_edges_keeps_the_constructor_messages(self):
        with pytest.raises(ValueError, match="^region 0 lists a duplicate neighbor$"):
            SpatialGraph.from_edges(3, [(0, 1), (1, 2), (1, 0)])
        with pytest.raises(ValueError, match="^region 2 is isolated"):
            SpatialGraph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="^region 1 lists itself as a neighbor$"):
            SpatialGraph.from_edges(3, [(0, 1), (1, 1), (2, 0)])
        with pytest.raises(ValueError, match="^region 1 has an edge weight that is not finite"):
            SpatialGraph.from_edges(3, [(0, 2), (1, 2, -0.5)])
        for edge in ((0, 3), (-1, 2), (3, 4)):
            with pytest.raises(ValueError, match="^edge endpoint out of range for 3 regions$"):
                SpatialGraph.from_edges(3, [(0, 1), (1, 2), edge])

    def test_precision_is_psd(self):
        g = build_queen_grid(4, 5)
        eig = np.linalg.eigvalsh(g.dense_precision())
        assert eig.min() > -1e-10


class TestLoadAdjacency:
    def test_basic(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n0 1\n1 2\n")
        g = load_adjacency(path, np.arange(3))
        assert g.n_regions == 3
        assert g.edge_i.tolist() == [0, 1] and g.edge_j.tolist() == [1, 2]

    def test_weights_parsed(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 2.5\n1 2 1.0\n")
        g = load_adjacency(path, np.arange(3))
        assert g.row_sums[1] == pytest.approx(3.5)

    def test_self_loop_names_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n2 2\n")
        with pytest.raises(ValueError, match="edges.txt:2"):
            load_adjacency(path, np.arange(3))

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_adjacency(path, np.arange(2))

    @pytest.mark.parametrize("weight", ["0", "-0.5", "nan", "inf", "-inf"])
    def test_weight_must_be_finite_and_positive(self, tmp_path, weight):
        path = tmp_path / "edges.txt"
        path.write_text(f"0 1\n1 2 {weight}\n")
        with pytest.raises(ValueError, match=f"^edges.txt:2: edge weight must be finite and > 0, "
                                             f"got {re.escape(weight)}$"):
            load_adjacency(path, np.arange(3))

    def test_isolated_region_listed(self, tmp_path):
        # region 2 of the four appears in no edge
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 3\n")
        with pytest.raises(ValueError, match=r"\[2\]"):
            load_adjacency(path, np.arange(4))


    def test_shuffled_labelled_edges_give_the_queen_grid(self, tmp_path):
        grid = build_queen_grid(5, 5)
        labels = np.arange(101, 126)
        edges = [(labels[i], labels[j]) for i, j in zip(grid.edge_i, grid.edge_j)]
        order = np.random.default_rng(3).permutation(len(edges))
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{edges[k][1]} {edges[k][0]}\n" if k % 2 else
                                f"{edges[k][0]} {edges[k][1]}\n" for k in order))
        g = load_adjacency(path, labels)
        assert g.n_regions == 25
        assert sorted(zip(g.edge_i.tolist(), g.edge_j.tolist())) == \
            sorted(zip(grid.edge_i.tolist(), grid.edge_j.tolist()))
        assert np.array_equal(g.row_sums, grid.row_sums)

    def test_label_missing_from_regions_names_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("101 102\n102 103\n\n103 117\n")
        with pytest.raises(ValueError, match=r"edges.txt:4: region 117 is not in the panel"):
            load_adjacency(path, np.array([101, 102, 103]))

    def test_region_without_edge_listed_by_label(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("-5 7\n")
        with pytest.raises(ValueError, match=r"isolated.*\[40\]"):
            load_adjacency(path, np.array([-5, 7, 40]))


class TestCarQuadraticForm:
    def test_constant_vector_is_null(self):
        g = build_queen_grid(3, 3)
        assert car_quadratic_form(g, np.full(9, 3.7)) == pytest.approx(0.0)

    def test_path_graph_hand_value(self):
        g = SpatialGraph.from_edges(3, [(0, 1), (1, 2)])
        v = np.array([0.0, 1.0, 3.0])
        assert car_quadratic_form(g, v) == pytest.approx(5.0)
        dense = v @ g.dense_precision() @ v
        assert car_quadratic_form(g, v) == pytest.approx(dense)

    def test_dense_oracle_on_queen_grid(self):
        g = build_queen_grid(7, 7)
        rng = np.random.default_rng(0)
        v = rng.normal(size=49)
        dense = v @ g.dense_precision() @ v
        assert abs(car_quadratic_form(g, v) - dense) < 1e-10

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 10_000), st.floats(-50, 50))
    def test_nonnegative_and_shift_invariant(self, seed, shift):
        g = build_queen_grid(4, 4)
        v = np.random.default_rng(seed).normal(size=16)
        q = car_quadratic_form(g, v)
        assert q >= 0
        assert car_quadratic_form(g, v + shift) == pytest.approx(q, rel=1e-9, abs=1e-9)

    def test_length_mismatch(self):
        g = build_queen_grid(2, 2)
        with pytest.raises(ValueError):
            car_quadratic_form(g, np.zeros(5))


class TestCarConditional:
    def test_matches_dense_full_conditional(self):
        # the conditional of one coordinate under the joint precision
        # (D_w - W) / s2 must equal the neighbour-average form that
        # update_v builds from the graph's neighbours, weights and row sums
        g = build_queen_grid(4, 5)
        rng = np.random.default_rng(1)
        v = rng.normal(size=20)
        s2 = 0.37
        prec = g.dense_precision() / s2
        ends = np.concatenate([g.edge_i, g.edge_j])
        weighted_sum = np.bincount(ends, weights=np.concatenate([g.edge_w * v[g.edge_j],
                                                                 g.edge_w * v[g.edge_i]]))
        for i in range(g.n_regions):
            cond_var_dense = 1.0 / prec[i, i]
            others = np.delete(np.arange(20), i)
            cond_mean_dense = -cond_var_dense * prec[i, others] @ v[others]
            mean_form = weighted_sum[i] / g.row_sums[i]
            var_form = s2 / g.row_sums[i]
            assert abs(mean_form - cond_mean_dense) < 1e-10
            assert abs(var_form - cond_var_dense) < 1e-10

    def test_normalized_weights_sum_to_one(self):
        g = build_queen_grid(5, 5)
        ends = np.concatenate([g.edge_i, g.edge_j])
        weight_sums = np.bincount(ends, weights=np.concatenate([g.edge_w, g.edge_w]))
        assert weight_sums / g.row_sums == pytest.approx(np.ones(25))


def _spatial_share(sigma_v, avg_row_sum, other_sd):
    """Spatial share of draws whose four other components all have sd other_sd."""
    s = 100
    const = lambda value: np.full(s, value)
    draws = PosteriorDraws(
        beta=np.zeros((s, 1)), u_plus=np.ones((s, 2, 1)), eta_plus=np.ones((s, 2)),
        v=np.zeros((s, 2)), sigma2_alpha=const(other_sd**2), sigma2_eps=const(other_sd**2),
        sigma2_v=const(sigma_v**2), sigma2_u=const(other_sd**2),
        sigma2_eta=const(other_sd**2), seed=0, n_iter=s, burn_in=0, thin=1,
        avg_row_sum=avg_row_sum, accept_rate_alpha=0.3, accept_rate_eps=0.3,
        floored_count=0,
    )
    return uncaptured_summaries(draws).spatial_share


class TestMarginalSpatialSd:
    """The 0.7 rule, sigma_v / (0.7 * average row sum), as the spatial
    share of `analysis.uncaptured_summaries` applies it."""

    def test_unit_case(self):
        # marginal sd 1 against four components of sd 1/2: share 1 / sqrt(2)
        g = SpatialGraph.from_edges(2, [(0, 1)])
        assert _spatial_share(0.7, g.average_degree, 0.5) == pytest.approx(2 ** -0.5)

    def test_average_degree_case(self):
        # degree-5.8 average appears in graphs like larger lattices; build
        # the value directly from the definition
        g = build_queen_grid(7, 7)
        msd = 0.73 / (0.7 * g.average_degree)
        expected = msd / np.sqrt(msd**2 + 4 * 0.2**2)
        assert _spatial_share(0.73, g.average_degree, 0.2) == pytest.approx(expected)

    def test_reference_arithmetic(self):
        # sigma_v = 0.73 over an average degree of 5.8 gives ~0.1798
        assert 0.73 / (0.7 * 5.8) == pytest.approx(0.1798, abs=2e-4)
