from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betainc, betaincinv

from hiddenpop import analysis
from hiddenpop.analysis import (
    _hdi_columns,
    chain_summary,
    coverage_report,
    hdi,
    hidden_population_draws,
    mape_summary,
    predictive_intervals,
    rho_hat,
    uncaptured_summaries,
    write_uncaptured_csv,
)
from hiddenpop.data import FLOAT_FMT
from hiddenpop.sampler import PosteriorDraws
from oracles import coverage_posterior_by_draws


def _draws(s, n, t, *, eta=None, u=None, v=None, seed=0,
           s2_eta=0.25, s2_u=0.04, s2_eps=0.01, s2_alpha=0.01, s2_v=0.16,
           avg_row_sum=5.8):
    rng = np.random.default_rng(seed)
    eta = eta if eta is not None else np.abs(rng.normal(0, 0.5, (s, n)))
    u = u if u is not None else np.abs(rng.normal(0, 0.2, (s, n, t)))
    v = v if v is not None else rng.normal(0, 0.3, (s, n))
    const = lambda val: np.full(s, val)
    return PosteriorDraws(
        beta=rng.normal(0.5, 0.01, (s, 2)),
        u_plus=u, eta_plus=eta, v=v,
        sigma2_alpha=const(s2_alpha), sigma2_eps=const(s2_eps),
        sigma2_v=const(s2_v), sigma2_u=const(s2_u), sigma2_eta=const(s2_eta),
        seed=0, n_iter=100, burn_in=0, thin=1,
        avg_row_sum=avg_row_sum, accept_rate_alpha=0.3, accept_rate_eps=0.3,
        floored_count=0, chain_id=np.zeros(s, dtype=np.int64),
    )


class TestHdi:
    def test_integer_ladder(self):
        lo, hi = hdi(np.arange(1, 101, dtype=float), 0.90)
        assert (lo, hi) == (1.0, 91.0)

    def test_symmetric_close_to_equal_tailed(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=100_000)
        lo, hi = hdi(x, 0.95)
        ql, qh = np.quantile(x, [0.025, 0.975])
        assert abs(lo - ql) < 0.05 and abs(hi - qh) < 0.05

    def test_exponential_hugs_zero(self):
        rng = np.random.default_rng(2)
        x = rng.exponential(size=100_000)
        lo, hi = hdi(x, 0.95)
        assert lo < 0.05

    def test_mass_at_least_level(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=5000)
        for level in (0.5, 0.9, 0.99):
            lo, hi = hdi(x, level)
            assert np.mean((x >= lo) & (x <= hi)) >= level

    def test_too_few_draws(self):
        with pytest.raises(ValueError):
            hdi(np.arange(50), 0.9)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            hdi(np.arange(200), 1.5)

    def test_nan_draw_is_an_error(self):
        # sorting puts a NaN last, where it would be the upper bound
        x = np.random.default_rng(4).normal(size=200)
        x[[17, 90]] = np.nan
        with pytest.raises(ValueError, match="^2 of 200 draws are NaN"):
            hdi(x, 0.9)


class TestPredictiveIntervals:
    def test_zero_one_sided_collapses_to_observed(self):
        s, n, t = 200, 3, 2
        d = _draws(s, n, t, eta=np.full((s, n), 1e-300), u=np.full((s, n, t), 1e-300))
        y = np.abs(np.random.default_rng(4).normal(5, 1, (n, t)))
        point, [(lo, hi)] = predictive_intervals(d, y, [0.9])
        assert np.allclose(point, y)
        assert np.allclose(lo, y) and np.allclose(hi, y)

    def test_zero_observation_gives_zero_interval(self):
        s, n, t = 150, 2, 2
        d = _draws(s, n, t)
        y = np.array([[0.0, 1.0], [2.0, 0.0]])
        point, [(lo, hi)] = predictive_intervals(d, y, [0.9])
        assert point[0, 0] == lo[0, 0] == hi[0, 0] == 0.0
        assert point[1, 1] == lo[1, 1] == hi[1, 1] == 0.0
        assert hi[0, 1] > lo[0, 1] > 0

    @settings(deadline=None, max_examples=20)
    @given(scale=st.floats(0.1, 100.0))
    def test_scale_equivariance(self, scale):
        s, n, t = 150, 2, 2
        d = _draws(s, n, t, seed=5)
        y = np.abs(np.random.default_rng(6).normal(3, 1, (n, t)))
        p1, [(l1, h1)] = predictive_intervals(d, y, [0.9])
        p2, [(l2, h2)] = predictive_intervals(d, scale * y, [0.9])
        assert np.allclose(p2, scale * p1, rtol=1e-12)
        assert np.allclose(l2, scale * l1, rtol=1e-12)
        assert np.allclose(h2, scale * h1, rtol=1e-12)

    def test_single_cell_matches_grid(self):
        # the one sort and one window search per level give, for every cell
        # and level, the bounds of `hdi` on that cell's own draws
        s, n, t = 300, 3, 2
        d = _draws(s, n, t, seed=7)
        y = np.abs(np.random.default_rng(8).normal(3, 1, (n, t)))
        levels = [0.99, 0.5, 0.9]
        point, bounds = predictive_intervals(d, y, levels)
        assert len(bounds) == len(levels)
        for i in range(n):
            for j in range(t):
                cell = y[i, j] * np.exp(d.eta_plus[:, i] + d.u_plus[:, i, j])
                assert cell.mean() == pytest.approx(point[i, j])
                for level, (lo, hi) in zip(levels, bounds):
                    assert (lo[i, j], hi[i, j]) == hdi(cell, level)

    def test_given_cells_give_the_same_bounds_and_are_sorted(self):
        d = _draws(150, 4, 3, seed=9)
        y = np.abs(np.random.default_rng(10).normal(3, 1, (4, 3)))
        point, bounds = predictive_intervals(d, y, [0.5, 0.9])
        cells = hidden_population_draws(d, y)
        got_point, got_bounds = predictive_intervals(d, y, [0.5, 0.9], cells=cells)
        assert np.array_equal(got_point, point)
        for (lo, hi), (got_lo, got_hi) in zip(bounds, got_bounds):
            assert np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)
        assert np.array_equal(cells, np.sort(hidden_population_draws(d, y), axis=0))

    def test_hidden_population_draws_keep_their_bits(self):
        # built in place, the draws keep the bits of the one-expression form
        d = _draws(150, 4, 3, seed=21)
        y = np.abs(np.random.default_rng(22).normal(3, 1, (4, 3)))
        expected = y[None, :, :] * np.exp(d.eta_plus[:, :, None] + d.u_plus)
        assert np.array_equal(hidden_population_draws(d, y), expected)

    def test_overflowing_draws_warn(self):
        u = np.zeros((150, 2, 2))
        u[3, 1, 0] = 800.0
        with pytest.warns(RuntimeWarning, match="overflow"):
            cells = hidden_population_draws(_draws(150, 2, 2, u=u), np.ones((2, 2)))
        assert np.isinf(cells[3, 1, 0]) and np.isfinite(np.delete(cells.ravel(), 3 * 4 + 2)).all()

    def test_negative_observation_rejected(self):
        d = _draws(150, 2, 2)
        y = np.array([[-1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            predictive_intervals(d, y, [0.9])
        # a level outside (0, 1) is named before the draws are built from y
        for level in (-0.2, 0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match=f"got {level}"):
                predictive_intervals(d, y, [0.9, level])
            with pytest.raises(ValueError, match=f"got {level}"):
                _hdi_columns(np.sort(d.v, axis=0), level)


def _report(hits: int, misses: int):
    """coverage_report of intervals that caught the truth in `hits` cells
    and missed it in `misses`."""
    truth = np.concatenate([np.full(hits, 0.5), np.full(misses, 2.0)])
    return coverage_report(np.zeros_like(truth), np.ones_like(truth), truth, 0.9)


def _log_kernel(a, b, x):
    return (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)


# (a, b) of the coverage posterior: interior modes from the paper's 245
# cells to a million, skewed to either end, and the two one-sided shapes;
# the flat Beta(1, 1) has no one shortest interval, and is scored as [0, 0.95]
INTERIOR = [(230, 17), (17, 230), (150, 151), (2, 2), (2, 300), (300, 2),
            (2, 9001), (9001, 2), (4000, 5002), (2, 10**6), (10**6, 2)]
ONE_SIDED = [(1, 247), (247, 1), (1, 2), (2, 1)]


class TestCoverageReport:
    def test_all_hits_beta_mean(self):
        n, t = 49, 5
        lo = np.zeros((n, t))
        hi = np.full((n, t), 10.0)
        truth = np.full((n, t), 5.0)
        rep = coverage_report(lo, hi, truth, 0.9)
        assert rep.a == 246 and rep.b == 1
        assert rep.posterior_mean_coverage == 246 / 247

    def test_half_hits(self):
        n = 200
        lo = np.zeros(n)
        hi = np.concatenate([np.full(100, 10.0), np.full(100, 0.1)])
        truth = np.full(n, 5.0)
        rep = coverage_report(lo, hi, truth, 0.9)
        assert rep.posterior_mean_coverage == 0.5
        # a symmetric posterior has a symmetric HDI
        assert rep.coverage_hdi[0] == pytest.approx(1.0 - rep.coverage_hdi[1], abs=1e-12)

    def test_beta_mean_identity_is_exact(self):
        rng = np.random.default_rng(9)
        lo = np.zeros(300)
        hi = rng.uniform(0.5, 1.5, 300)
        truth = np.ones(300)
        rep = coverage_report(lo, hi, truth, 0.9)
        assert rep.posterior_mean_coverage == rep.a / (rep.a + rep.b)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            coverage_report(np.zeros(3), np.ones(3), np.ones(4), 0.9)

    @pytest.mark.parametrize("a, b", [(230, 17), (150, 151), (2, 300), (1, 247), (247, 1)])
    def test_agrees_with_the_monte_carlo_oracle(self, a, b):
        # five runs of the old estimator at 10^6 draws each; the standard error
        # of its mean is the posterior sd over sqrt(10^6), and that of its HDI
        # ends (which converge more slowly than quantiles) the sd of the runs
        n_draws = 1_000_000
        runs = [coverage_posterior_by_draws(a, b, np.random.default_rng(seed), n_draws)
                for seed in range(5)]
        mc_mean, (mc_lo, mc_hi) = runs[0]
        rep = _report(a - 1, b - 1)
        sd = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        assert abs(rep.posterior_mean_coverage - mc_mean) < 4 * sd / np.sqrt(n_draws)
        ends = np.array([run[1] for run in runs])
        mcse = ends.std(axis=0, ddof=1)
        assert np.all(np.abs(np.subtract(rep.coverage_hdi, (mc_lo, mc_hi))) < 4 * mcse)

    @pytest.mark.parametrize("a, b", INTERIOR + ONE_SIDED + [(1, 1)])
    def test_interval_holds_95_percent(self, a, b):
        lo, hi = _report(a - 1, b - 1).coverage_hdi
        assert 0.0 <= lo < hi <= 1.0
        assert abs(betainc(a, b, hi) - betainc(a, b, lo) - 0.95) < 1e-10

    @pytest.mark.parametrize("a, b", INTERIOR)
    def test_interior_mode_has_one_density_at_both_ends(self, a, b):
        lo, hi = _report(a - 1, b - 1).coverage_hdi
        assert abs(_log_kernel(a, b, lo) - _log_kernel(a, b, hi)) < 1e-8

    @pytest.mark.parametrize("a, b", INTERIOR)
    def test_root_search_takes_few_inverse_calls(self, a, b, monkeypatch):
        # a 45-step bisection on the lower-tail mass took 92
        calls = []

        def counted(*args):
            calls.append(args)
            return betaincinv(*args)

        monkeypatch.setattr(analysis, "betaincinv", counted)
        analysis._beta_hdi(a, b, 0.95)
        assert 2 <= len(calls) <= 32

    @pytest.mark.parametrize("total", [1, 2, 245, 9000])
    def test_no_hits_and_all_hits_are_one_sided(self, total):
        none = _report(0, total)
        assert (none.a, none.b) == (1, total + 1)
        assert none.coverage_hdi == (0.0, betaincinv(1, total + 1, 0.95))
        every = _report(total, 0)
        assert (every.a, every.b) == (total + 1, 1)
        assert every.coverage_hdi == (betaincinv(total + 1, 1, 1 - 0.95), 1.0)

    @pytest.mark.parametrize("a, b", INTERIOR + ONE_SIDED)
    def test_no_shorter_window_nearby(self, a, b):
        # the windows whose lower tail holds 1e-3 more or less mass are wider
        lo, hi = _report(a - 1, b - 1).coverage_hdi
        p = betainc(a, b, lo)
        shifted = [p + step for step in (-1e-3, 1e-3) if 0.0 <= p + step <= 0.05]
        assert shifted
        for q in shifted:
            assert betaincinv(a, b, q + 0.95) - betaincinv(a, b, q) > hi - lo


class TestMape:
    def test_perfect_estimates_zero(self):
        s, n, t = 200, 4, 3
        eta = np.full((s, n), 1e-300)
        u = np.full((s, n, t), 1e-300)
        d = _draws(s, n, t, eta=eta, u=u)
        y = np.abs(np.random.default_rng(11).normal(4, 1, (n, t)))
        point, _ = predictive_intervals(d, y, [])
        out = mape_summary(point, true_p=y)
        assert out.average == pytest.approx(0.0, abs=1e-12)
        assert out.median == pytest.approx(0.0, abs=1e-12)

    def test_zero_truth_excluded(self):
        s, n, t = 150, 2, 2
        d = _draws(s, n, t)
        y = np.ones((n, t))
        truth = np.array([[0.0, 1.0], [1.0, 1.0]])
        point, _ = predictive_intervals(d, y, [])
        out = mape_summary(point, truth)
        assert out.n_excluded == 1

    def test_all_zero_truth_is_an_error(self):
        # every cell excluded leaves nothing to average: an error, not an
        # IndexError from the empty HDI search or a mean-of-empty warning
        s, n, t = 150, 2, 2
        q = hidden_population_draws(_draws(s, n, t), np.ones((n, t)))
        for estimate in (q.mean(axis=0), q):
            with pytest.raises(ValueError, match="^no cell has a nonzero true P"):
                mape_summary(estimate, np.zeros((n, t)))

    def test_per_draw_variant_at_least_point(self):
        s, n, t = 200, 3, 3
        d = _draws(s, n, t, seed=12)
        y = np.abs(np.random.default_rng(13).normal(4, 1, (n, t)))
        truth = y * 1.5
        q = hidden_population_draws(d, y)
        point = mape_summary(q.mean(axis=0), truth)
        per_draw = mape_summary(q, truth)
        assert not point.per_draw and per_draw.per_draw
        # Jensen: averaging absolute errors over draws dominates the error
        # of the averaged estimate
        assert per_draw.average >= point.average - 1e-12
        # the point estimate analyze passes is the interval pass's posterior mean
        assert mape_summary(predictive_intervals(d, y, [])[0], truth) == point
        with pytest.raises(ValueError, match="does not fit"):
            mape_summary(q[:, :2], truth)


    def test_per_draw_errors_keep_their_bits(self):
        s, n, t = 150, 3, 4
        d = _draws(s, n, t, seed=24)
        y = np.abs(np.random.default_rng(25).normal(4, 1, (n, t)))
        truth = y * 1.2
        truth[0, 1] = 0.0
        q = hidden_population_draws(d, y)
        keep = truth != 0.0
        err = np.abs((truth[None, :, :] - q) / np.where(keep, truth, 1.0)[None, :, :])
        out = mape_summary(q, truth)
        cellwise = err.mean(axis=0)[keep]
        assert (out.average, out.median) == (cellwise.mean(), np.median(cellwise))
        assert out.n_excluded == 1


class TestRhoHat:
    def test_truth_equals_draws(self):
        truth = np.random.default_rng(14).normal(size=30)
        draws = np.tile(truth, (50, 1))
        assert rho_hat(draws, truth) == pytest.approx(1.0)

    def test_independent_noise_near_zero(self):
        rng = np.random.default_rng(15)
        truth = rng.normal(size=400)
        draws = rng.normal(size=(200, 400))
        assert abs(rho_hat(draws, truth)) < 2 / np.sqrt(400)

    @settings(deadline=None, max_examples=20)
    @given(a=st.floats(0.1, 10), b=st.floats(-5, 5))
    def test_affine_invariance(self, a, b):
        rng = np.random.default_rng(16)
        truth = rng.normal(size=50)
        draws = rng.normal(size=(40, 50)) + truth
        r1 = rho_hat(draws, truth)
        r2 = rho_hat(draws, a * truth + b)
        assert r2 == pytest.approx(r1, abs=1e-10)

    @pytest.mark.parametrize("block", [1, 7, 1 << 15, 1 << 40])
    def test_blocks_of_rows_keep_the_bits(self, monkeypatch, block):
        # each row's sum of squares is its own sum, whatever block it is in
        rng = np.random.default_rng(18)
        truth = rng.normal(size=900)
        draws = rng.normal(size=(45, 900)) + truth
        d_c = draws - draws.mean(axis=1, keepdims=True)
        t_c = truth - truth.mean()
        expected = float(np.mean(d_c @ t_c / (np.sqrt(np.sum(d_c * d_c, axis=1))
                                              * np.sqrt(np.sum(t_c * t_c)))))
        monkeypatch.setattr(analysis, "_BLOCK_ELEMENTS", block)
        assert rho_hat(draws, truth) == expected

    def test_zero_variance_truth(self):
        with pytest.raises(ValueError):
            rho_hat(np.random.default_rng(17).normal(size=(10, 5)), np.ones(5))


class TestUncaptured:
    def test_zero_errors_zero_percentages(self):
        s, n, t = 150, 3, 2
        d = _draws(s, n, t, eta=np.full((s, n), 1e-300), u=np.full((s, n, t), 1e-300))
        out = uncaptured_summaries(d)
        assert out.permanent_pct == pytest.approx(0.0, abs=1e-12)
        assert out.total_pct == pytest.approx(0.0, abs=1e-12)

    def test_constant_eta_arithmetic(self):
        s, n, t = 150, 4, 3
        d = _draws(s, n, t, eta=np.full((s, n), 0.2231), u=np.full((s, n, t), 1e-300))
        out = uncaptured_summaries(d)
        assert out.permanent_pct == pytest.approx(1 - np.exp(-0.2231), abs=1e-6)
        assert out.total_pct == pytest.approx(out.permanent_pct, abs=1e-6)

    def test_lambda_stat(self):
        d = _draws(150, 3, 2, s2_eta=0.25, s2_u=0.04, s2_eps=0.01)
        out = uncaptured_summaries(d)
        assert out.lambda_stat == pytest.approx((0.5 + 0.2) / 0.1, abs=1e-9)

    def test_spatial_share_formula(self):
        d = _draws(150, 3, 2, s2_v=0.73**2, s2_eta=0.35**2, s2_u=0.81**2,
                   s2_alpha=0.11**2, s2_eps=0.17**2, avg_row_sum=5.8)
        out = uncaptured_summaries(d)
        msd = 0.73 / (0.7 * 5.8)
        expected = msd / np.sqrt(msd**2 + 0.35**2 + 0.81**2 + 0.11**2 + 0.17**2)
        assert out.spatial_share == pytest.approx(expected, abs=1e-9)

    def test_cell_is_the_posterior_mean_grid(self):
        d = _draws(150, 3, 2, seed=18)
        out = uncaptured_summaries(d)
        uncaptured = 1.0 - np.exp(-(d.eta_plus[:, :, None] + d.u_plus))
        assert np.array_equal(out.cell, np.mean(uncaptured, axis=0))
        assert out.total_pct == np.mean(uncaptured)
        # the grid does not take part in equality
        assert out == replace(out, cell=np.zeros((3, 2)))

    def test_cells_can_be_built_in_a_given_array(self):
        d = _draws(150, 3, 2, seed=19)
        out = np.full((150, 3, 2), np.nan)
        given, fresh = uncaptured_summaries(d, out=out), uncaptured_summaries(d)
        assert given == fresh and np.array_equal(given.cell, fresh.cell)
        assert np.array_equal(out, 1.0 - np.exp(-(d.eta_plus[:, :, None] + d.u_plus)))

    def test_by_cell_grouping(self, tmp_path):
        d = _draws(150, 3, 2, seed=18)
        cell = uncaptured_summaries(d).cell
        regions, times = np.array([101, 102, 105]), np.array([7, 9])
        path = tmp_path / "uncaptured.csv"

        def rows(group_by):
            write_uncaptured_csv(cell, regions, times, path, group_by)
            return [line.split(",") for line in path.read_text().splitlines()]

        assert rows(None) == [["region", "time", "pct"]] + [
            [str(r), str(t), FLOAT_FMT % cell[i, j]]
            for i, r in enumerate(regions) for j, t in enumerate(times)]
        assert rows("region") == [["region", "pct"]] + [
            [str(r), FLOAT_FMT % p] for r, p in zip(regions, cell.mean(axis=1))]
        assert rows("period") == [["time", "pct"]] + [
            [str(t), FLOAT_FMT % p] for t, p in zip(times, cell.mean(axis=0))]
        with pytest.raises(ValueError, match="unknown grouping 'bogus'"):
            write_uncaptured_csv(cell, regions, times, tmp_path / "bogus.csv", "bogus")
        assert not (tmp_path / "bogus.csv").exists()


class TestChainSummary:
    def test_rows_and_sd_scale(self):
        d = _draws(200, 3, 2, seed=19)
        rows = {r["parameter"]: r for r in chain_summary(d)}
        assert set(rows) >= {
            "beta_1", "beta_2", "sigma_eta", "sigma_u", "sigma_v",
            "sigma_alpha", "sigma_eps", "lambda", "minus_eta_plus",
            "minus_u_plus", "v",
        }
        assert rows["sigma_eta"]["mean"] == pytest.approx(0.5, abs=1e-9)
        assert rows["minus_eta_plus"]["mean"] < 0
        for r in rows.values():
            assert r["hdi_lower"] <= r["hdi_upper"]

    def test_rows_are_hdi_mean_and_median_of_each_quantity(self):
        # two chains of 120 draws, every scalar varying across draws; the one
        # sorted matrix gives what `hdi`, np.mean and np.median give per row
        rng = np.random.default_rng(23)
        s = 240
        scales = ("sigma2_eta", "sigma2_u", "sigma2_v", "sigma2_alpha", "sigma2_eps")
        d = replace(_draws(s, 4, 3, seed=23), beta=rng.normal(0.5, 0.3, (s, 3)),
                    chain_id=np.repeat([0, 1], s // 2),
                    **{name: rng.gamma(2.0, 0.05, s) for name in scales})
        scalars = {f"beta_{k + 1}": d.beta[:, k] for k in range(3)}
        scalars.update({name.replace("sigma2_", "sigma_"): np.sqrt(getattr(d, name))
                        for name in scales})
        scalars["lambda"] = ((np.sqrt(d.sigma2_eta) + np.sqrt(d.sigma2_u))
                             / np.sqrt(d.sigma2_eps))
        # name -> (per-draw quantity for the HDI, values for mean and median)
        expected = {name: (x, x) for name, x in scalars.items()}
        expected["minus_eta_plus"] = (-d.eta_plus.mean(axis=1), -d.eta_plus.mean(axis=0))
        expected["minus_u_plus"] = (-d.u_plus.mean(axis=(1, 2)),
                                    -d.u_plus.mean(axis=0).ravel())
        expected["v"] = (d.v.mean(axis=1), d.v.mean(axis=0))
        for level in (0.5, 0.95):
            rows = chain_summary(d, level)
            assert [r["parameter"] for r in rows] == list(expected)
            for r in rows:
                per_draw, values = expected[r["parameter"]]
                assert (r["hdi_lower"], r["hdi_upper"]) == hdi(per_draw, level)
                assert r["mean"] == np.mean(values)
                assert r["median"] == np.median(values)

    def test_too_few_draws_share_one_message(self):
        d = _draws(99, 3, 2, seed=20)
        message = "^need at least 100 draws for an HDI, got 99$"
        with pytest.raises(ValueError, match=message):
            chain_summary(d)
        with pytest.raises(ValueError, match=message):
            hdi(d.v[:, 0], 0.9)
        with pytest.raises(ValueError, match=message):
            predictive_intervals(d, np.ones((3, 2)), [0.9])
