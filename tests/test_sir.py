from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from hiddenpop.data import CountPanel
from hiddenpop.sir import (
    compute_sir,
    exceedance_probability,
    flag_hotspots,
)


class TestComputeSir:
    def test_uniform_rates_unit_sir(self):
        n = np.array([[100.0, 200.0], [300.0, 400.0], [600.0, 400.0]])
        s = (n * 0.05).astype(int)
        table = compute_sir(CountPanel(s=s, n=n))
        assert np.allclose(table.sir, 1.0)

    def test_two_region_arithmetic(self):
        panel = CountPanel(s=np.array([[10], [30]]), n=np.array([[100.0], [100.0]]))
        table = compute_sir(panel)
        assert np.allclose(table.expected.ravel(), [20.0, 20.0])
        assert np.allclose(table.sir.ravel(), [0.5, 1.5])

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000))
    def test_expected_conserves_totals(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.uniform(50, 5000, size=(8, 4))
        s = rng.poisson(n * 0.02) + 1
        table = compute_sir(CountPanel(s=s, n=n))
        assert np.allclose(table.expected.sum(axis=0), s.sum(axis=0), atol=1e-9)

    @pytest.mark.parametrize("nu, alpha", [(0.01, 0.01), (0.5, 2.0)])
    def test_exceedance_is_taken_at_the_observed_counts(self, nu, alpha):
        rng = np.random.default_rng(3)
        n = rng.uniform(500, 50_000, size=(200, 6))
        panel = CountPanel(s=rng.poisson(n * 1e-3), n=n)
        table = compute_sir(panel, nu=nu, alpha=alpha)
        # rebuilding the counts as sir * expected rounds in some cells ...
        assert np.any(table.sir * table.expected != panel.s)
        # ... so the exceedance must come from the counts themselves
        assert np.array_equal(table.exceedance,
                              exceedance_probability(panel.s, table.expected, nu, alpha))

    def test_zero_period_total_rejected(self):
        panel = CountPanel(s=np.array([[0], [0]]), n=np.array([[10.0], [10.0]]))
        with pytest.raises(ValueError, match="zero total"):
            compute_sir(panel)

    def test_zero_total_periods_are_named_by_their_labels(self):
        s = np.array([[4, 0, 2, 0], [1, 0, 5, 0]])
        panel = CountPanel(s=s, n=np.full(s.shape, 50.0), times=np.array([2015, 2016, 2017, 2018]))
        with pytest.raises(ValueError,
                           match="^periods with zero total count: time=2016, time=2018$"):
            compute_sir(panel)


class TestExceedance:
    def test_large_expected_no_signal(self):
        assert exceedance_probability(0, 1000.0) < 1e-10

    def test_quadrature_oracle(self):
        # posterior Gamma(shape s + nu, rate E + alpha); integrate its
        # density above 1 with adaptive quadrature
        for s, e in ((30, 20.0), (5, 8.0), (100, 80.0)):
            shape, rate = s + 0.01, e + 0.01
            val, _ = integrate.quad(
                lambda x: stats.gamma.pdf(x, shape, scale=1 / rate), 1.0, np.inf
            )
            assert abs(exceedance_probability(s, e) - val) < 1e-8

    def test_balanced_cell_near_half(self):
        assert exceedance_probability(20, 20.0) == pytest.approx(0.5, abs=0.05)

    @settings(deadline=None, max_examples=50)
    @given(s=st.integers(0, 200), e=st.floats(0.5, 300))
    def test_monotone_in_count(self, s, e):
        p0 = exceedance_probability(s, e)
        p1 = exceedance_probability(s + 1, e)
        if 1e-14 < p0 and p1 < 1 - 1e-14:
            assert p1 > p0
        else:  # saturated in float precision; ordering still cannot flip
            assert p1 >= p0

    @settings(deadline=None, max_examples=50)
    @given(s=st.integers(0, 200), e=st.floats(0.5, 300))
    def test_monotone_decreasing_in_expected(self, s, e):
        p0 = exceedance_probability(s, e)
        p1 = exceedance_probability(s, e + 1.0)
        if 1e-14 < p1 and p0 < 1 - 1e-14:
            assert p1 < p0
        else:
            assert p1 <= p0

    def test_consistency_with_ml_indicator(self):
        # with a vanishing prior and large counts the exceedance approaches
        # the indicator of SIR > 1
        assert exceedance_probability(1200, 1000.0, 1e-8, 1e-8) > 0.99
        assert exceedance_probability(800, 1000.0, 1e-8, 1e-8) < 0.01

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            exceedance_probability(-1, 10.0)
        with pytest.raises(ValueError):
            exceedance_probability(1, 0.0)
        with pytest.raises(ValueError):
            exceedance_probability(1, 1.0, nu=0.0)


class TestHotspots:
    def _table(self, exceedance):
        panel = CountPanel(s=np.ones((2, 2), dtype=int), n=np.full((2, 2), 10.0))
        return replace(compute_sir(panel), exceedance=np.asarray(exceedance))

    def test_tier_bucketing(self):
        table = self._table([[0.96, 0.50], [0.995, 0.91]])
        tiers = flag_hotspots(table)
        assert tiers.tolist() == [["95", "none"], ["99", "90"]]

    def test_inclusive_boundary(self):
        table = self._table([[0.90, 0.95], [0.99, 0.8999]])
        tiers = flag_hotspots(table)
        assert tiers.tolist() == [["90", "95"], ["99", "none"]]

    def test_tier_labels_keep_the_digits_that_tell_them_apart(self):
        table = self._table([[0.901, 0.9055], [0.9991, 0.5]])
        tiers = flag_hotspots(table, (0.90, 0.905, 0.999))
        assert tiers.tolist() == [["90", "90.5"], ["99.9", "none"]]

    def test_thresholds_sharing_a_label_are_rejected(self):
        table = self._table([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match=r"^thresholds 0\.9 and 0\.9000000001 share the "
                                             r"tier label '90'$"):
            flag_hotspots(table, (0.9000000001, 0.95, 0.9))

    def test_uniform_panel_mostly_quiet(self):
        rng = np.random.default_rng(0)
        n = np.full((30, 4), 1000.0)
        s = rng.poisson(20.0, size=(30, 4))
        table = compute_sir(CountPanel(s=s, n=n))
        tiers = flag_hotspots(table)
        assert np.mean(tiers == "none") > 0.7
