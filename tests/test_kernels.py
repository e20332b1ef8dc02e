import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.special import ndtr, ndtri

from hiddenpop import sampler
from hiddenpop.kernels import (
    CHI2_DF1_MEDIAN,
    NumericalError,
    mh_scaled_chisq_step,
    sample_inverse_gamma,
    truncated_normal,
)
from oracles import CompoundSymmetricCov, conditional_mvn, sigma_inverse
from oracles import mh_scaled_chisq_step as array_mh_step


class TestTruncatedNormal:
    def test_half_normal_mean(self):
        rng = np.random.default_rng(1)
        x = truncated_normal(np.zeros(10**6), 1.0, rng=rng)
        assert abs(x.mean() - math.sqrt(2 / math.pi)) < 0.01

    def test_half_normal_variance(self):
        rng = np.random.default_rng(2)
        x = truncated_normal(np.zeros(10**6), 1.0, rng=rng)
        assert abs(x.var() - (1 - 2 / math.pi)) < 0.01

    def test_deep_tail_mean_matches_quadrature(self):
        # mean -5, sd 1, truncated at 0: compare against direct integration
        # of the tail density
        tail_mass = stats.norm.sf(0, loc=-5, scale=1)
        num, _ = integrate.quad(
            lambda x: x * stats.norm.pdf(x, loc=-5, scale=1), 0, 20
        )
        expected = num / tail_mass
        rng = np.random.default_rng(3)
        x = truncated_normal(np.full(10**6, -5.0), 1.0, rng=rng)
        assert np.all(x > 0)
        assert abs(x.mean() - expected) < 0.02

    def test_strictly_exceeds_bound_ten_million(self):
        rng = np.random.default_rng(4)
        means = rng.normal(0, 3, 10**7)
        x = truncated_normal(means, 0.5, rng=rng)
        assert np.all(x > 0.0)

    def test_bit_reproducible(self):
        a = truncated_normal(np.linspace(-6, 2, 1000), 1.3, rng=np.random.default_rng(7))
        b = truncated_normal(np.linspace(-6, 2, 1000), 1.3, rng=np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_distribution_ks(self):
        # moderate truncation, compare to scipy's truncnorm
        rng = np.random.default_rng(8)
        mu, sd = 0.4, 0.7
        x = truncated_normal(np.full(10**5, mu), sd, rng=rng)
        ref = stats.truncnorm(a=(0 - mu) / sd, b=np.inf, loc=mu, scale=sd)
        assert stats.kstest(x, ref.cdf).pvalue > 0.01


def _reference_truncated_normal(mean, sd, lower, rng):
    """The sampler as first written: every argument broadcast to a flat copy.

    Oracle for the overhead-free version, which must return the same bits
    and leave the generator in the same state.
    """
    mean = np.asarray(mean, dtype=float)
    shape = mean.shape
    mean_f = np.atleast_1d(mean).ravel()
    sd_f = np.broadcast_to(np.asarray(sd, dtype=float), shape).reshape(mean_f.shape)
    lower_f = np.broadcast_to(np.asarray(lower, dtype=float), shape).reshape(mean_f.shape)
    a = (lower_f - mean_f) / sd_f
    z = np.empty(mean_f.shape)
    deep = a > 4.0
    central = ~deep
    if np.any(central):
        ac = a[central]
        q = (1.0 - rng.uniform(size=ac.shape)) * ndtr(-ac)
        z[central] = -ndtri(q)
    if np.any(deep):
        ad = a[deep]
        lam = 0.5 * (ad + np.sqrt(ad * ad + 4.0))
        out = np.empty(ad.shape)
        pending = np.arange(ad.size)
        while pending.size:
            z_prop = ad[pending] + rng.exponential(size=pending.size) / lam[pending]
            accept = rng.uniform(size=pending.size) <= np.exp(
                -0.5 * (z_prop - lam[pending]) ** 2)
            out[pending[accept]] = z_prop[accept]
            pending = pending[~accept]
        z[deep] = out
    x = mean_f + sd_f * z
    return np.maximum(x, np.nextafter(lower_f, np.inf)).reshape(shape)


class TestTruncatedNormalOracle:
    CASES = {
        # mixed central and deep-tail cells (standardized bound a > 4)
        "mixed": (np.linspace(-9.0, 3.0, 257), 1.0),
        "mixed_2d": (np.linspace(-6.0, 1.0, 60).reshape(12, 5), 0.8),
        "all_deep": (np.full(40, -7.0), 1.0),
        "all_central": (np.linspace(-2.0, 4.0, 50), 1.3),
        "array_sd": (np.linspace(-5.0, 1.0, 30), np.linspace(0.5, 2.0, 30)),
        "single_deep": (np.array([-5.0]), 1.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_bits_and_stream(self, case, seed):
        mean, sd = self.CASES[case]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = truncated_normal(mean, sd, rng=rng)
        want = _reference_truncated_normal(mean, sd, 0.0, ref_rng)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # the same amount of the stream was consumed
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_scalar_mean(self):
        for mean in (0.3, -6.0):
            rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
            got = truncated_normal(np.array(mean), 1.0, rng=rng)
            want = _reference_truncated_normal(np.array(mean), 1.0, 0.0, ref_rng)
            assert float(got) == float(want)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("lower", [1.5, -0.5])
    def test_bound_other_than_zero_rejected(self, lower):
        # the bound is fixed at 0; a caller may name it but not move it
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match=f"^truncated_normal draws above 0 only, "
                                             f"got lower={lower}$"):
            truncated_normal(np.zeros(3), 1.0, lower, rng=rng)
        assert rng.bit_generator.state == np.random.default_rng(9).bit_generator.state
        assert truncated_normal(np.zeros(3), 1.0, 0.0, rng=rng).tobytes() == \
            truncated_normal(np.zeros(3), 1.0, rng=np.random.default_rng(9)).tobytes()


class TestInverseGamma:
    def test_mean(self):
        rng = np.random.default_rng(10)
        x = np.array([sample_inverse_gamma(3.0, 4.0, rng) for _ in range(200_000)])
        assert abs(x.mean() - 2.0) < 0.01 * 2.0 + 0.01

    def test_support(self):
        rng = np.random.default_rng(11)
        assert all(sample_inverse_gamma(5.0, 2.0, rng) > 0 for _ in range(1000))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sample_inverse_gamma(0.0, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_inverse_gamma(1.0, -1.0, np.random.default_rng(0))

    def test_anchored_prior_recovers_median_report_rate(self):
        # the sampler's one-sided variance prior, shape V0/2 and scale
        # V0 * log^2(r*): the prior median of exp(-u) with u half-normal
        # given the drawn scale sits near r*, for u+ and for eta+
        for r_star, scale in ((sampler.R_STAR_U, sampler.IG_SCALE_U),
                              (sampler.R_STAR_ETA, sampler.IG_SCALE_ETA)):
            assert scale == sampler.V0 * math.log(r_star) ** 2
            rng = np.random.default_rng(12)
            s2 = scale / rng.gamma(sampler.V0 / 2, size=10**6)
            u = np.abs(rng.normal(0.0, np.sqrt(s2)))
            assert abs(np.median(np.exp(-u)) - r_star) < 0.02


class TestCompoundSymmetricCov:
    def test_diagonal_case(self):
        cov = CompoundSymmetricCov(0.3, 0.0, 4)
        assert np.allclose(sigma_inverse(cov), np.eye(4) / 0.3)

    def test_dense_inverse_oracle(self):
        cov = CompoundSymmetricCov(0.01, 0.01, 3)
        dense = np.linalg.inv(cov.dense())
        assert np.max(np.abs(sigma_inverse(cov) - dense)) < 1e-10

    def test_scalar_case(self):
        cov = CompoundSymmetricCov(0.04, 0.25, 1)
        assert np.allclose(sigma_inverse(cov), [[1 / 0.29]])

    def test_logdet(self):
        cov = CompoundSymmetricCov(0.5, 0.2, 6)
        sign, logdet = np.linalg.slogdet(cov.dense())
        assert sign > 0
        assert abs(cov.logdet - logdet) < 1e-10

    def test_invalid(self):
        with pytest.raises(ValueError):
            CompoundSymmetricCov(-0.1, 0.0, 3)
        with pytest.raises(ValueError):
            CompoundSymmetricCov(0.1, -0.1, 3)
        with pytest.raises(ValueError):
            CompoundSymmetricCov(0.1, 0.1, 0)

    @settings(deadline=None, max_examples=100)
    @given(
        s2e=st.floats(1e-3, 1e3),
        ratio=st.floats(0.0, 1e3),
        t=st.integers(1, 20),
    )
    def test_inverse_identity_property(self, s2e, ratio, t):
        # ratio bounds the conditioning; float64 cannot hold 1e-10 when the
        # variance components differ by six orders of magnitude
        cov = CompoundSymmetricCov(s2e, ratio * s2e, t)
        prod = cov.dense() @ sigma_inverse(cov)
        assert np.max(np.abs(prod - np.eye(t))) < 1e-10

    def test_quad_form_matches_dense(self):
        rng = np.random.default_rng(20)
        cov = CompoundSymmetricCov(0.3, 0.7, 8)
        x, y = rng.normal(size=8), rng.normal(size=8)
        dense = x @ np.linalg.inv(cov.dense()) @ y
        assert abs(cov.quad_form(x, y) - dense) < 1e-10

    def test_one_inv_one_identity(self):
        cov = CompoundSymmetricCov(0.04, 0.09, 5)
        ones = np.ones(5)
        dense = ones @ np.linalg.inv(cov.dense()) @ ones
        assert abs(cov.one_inv_one - dense) < 1e-10
        assert abs(cov.one_inv_one - 5 / (0.04 + 5 * 0.09)) < 1e-12


def _schur_oracle(mean, cov, index, others):
    t = mean.size
    rest = [i for i in range(t) if i != index]
    c22 = cov[np.ix_(rest, rest)]
    c12 = cov[index, rest]
    sol = np.linalg.solve(c22, others - mean[rest])
    m = mean[index] + c12 @ sol
    v = cov[index, index] - c12 @ np.linalg.solve(c22, c12)
    return m, v


class TestConditionalMvn:
    def test_diagonal_independence(self):
        mean = np.array([1.0, -2.0, 3.0])
        cov = np.diag([0.5, 1.5, 2.5])
        m, v = conditional_mvn(mean, cov, 1, np.array([9.0, 9.0]))
        assert m == pytest.approx(-2.0)
        assert v == pytest.approx(1.5)

    def test_bivariate_textbook(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        m, v = conditional_mvn(np.zeros(2), cov, 0, np.array([1.0]))
        assert m == pytest.approx(0.5)
        assert v == pytest.approx(0.75)

    def test_random_spd_matches_schur_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            t = rng.integers(2, 9)
            a = rng.normal(size=(t, t))
            cov = a @ a.T + t * np.eye(t)
            mean = rng.normal(size=t)
            others = rng.normal(size=t - 1)
            index = int(rng.integers(0, t))
            m, v = conditional_mvn(mean, cov, index, others)
            m0, v0 = _schur_oracle(mean, cov, index, others)
            assert abs(m - m0) < 1e-9 * max(1, abs(m0))
            assert abs(v - v0) < 1e-9 * max(1, abs(v0))

    def test_singular_block_reports_condition(self):
        cov = np.ones((3, 3))  # rank one: conditioning block singular
        with pytest.raises(NumericalError):
            conditional_mvn(np.zeros(3), cov, 0, np.array([1.0, 1.0]))

    def test_t_equal_one(self):
        m, v = conditional_mvn(np.array([2.0]), np.array([[3.0]]), 0, np.array([]))
        assert (m, v) == (2.0, 3.0)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            conditional_mvn(np.zeros(2), np.eye(2), 5, np.array([0.0]))


class TestMhScaledChisq:
    """The sampler's move is scalar; the distribution checks run on the
    elementwise oracle, which runs many chains in one call, and the scalar
    move is held to the oracle bit for bit."""

    def test_chi2_median_constant(self):
        assert abs(CHI2_DF1_MEDIAN - stats.chi2.ppf(0.5, 1)) < 1e-12

    def _run_parallel(self, log_target, n_parallel, n_steps, burn, thin, seed, start):
        rng = np.random.default_rng(seed)
        cur = np.full(n_parallel, start)
        kept = []
        for step in range(n_steps):
            cur, _ = array_mh_step(log_target, cur, rng, 1.0)
            if step >= burn and (step - burn) % thin == 0:
                kept.append(cur.copy())
        return np.concatenate(kept)

    def test_prior_sampling_matches_scaled_chisq(self):
        # target = the scaled chi-squared prior itself (no data): the chain
        # marginal must match qbar / chi2(nbar)
        qbar, nbar = 1e-4, 1.0

        def log_prior(s2):
            return -(0.5 * nbar + 1.0) * np.log(s2) - 0.5 * qbar / s2

        draws = self._run_parallel(log_prior, 2000, 1100, 100, 20, 40, 1e-4)
        assert draws.size >= 10**5
        cdf = lambda s: stats.chi2.sf(qbar / s, nbar)
        assert stats.kstest(draws, cdf).pvalue > 0.01

    def test_known_normalized_target(self):
        # detailed balance at desk scale: inverse-gamma(3, 2) target
        ref = stats.invgamma(3, scale=2)

        def log_target(x):
            return -4.0 * np.log(x) - 2.0 / x

        draws = self._run_parallel(log_target, 2000, 1100, 100, 20, 41, 0.5)
        assert stats.kstest(draws, ref.cdf).pvalue > 0.01

    def test_matches_reference_on_truncated_support(self):
        # the oracle against the kernel as first written, with np.errstate
        # and np.isneginf; the current chains mix in-support and
        # out-of-support states
        def reference(log_target, current, rng, step_scale):
            current = np.asarray(current, dtype=float)
            z = rng.chisquare(1.0, size=current.shape)
            proposal = current * (z / CHI2_DF1_MEDIAN) ** step_scale
            correction = (step_scale - 1.0) * np.log(z / CHI2_DF1_MEDIAN) + 0.5 * (
                z - CHI2_DF1_MEDIAN**2 / z)
            lt_prop = np.asarray(log_target(proposal), dtype=float)
            lt_cur = np.asarray(log_target(current), dtype=float)
            with np.errstate(invalid="ignore"):
                log_accept = lt_prop - lt_cur + correction
            log_accept = np.where(np.isneginf(lt_prop), -np.inf, log_accept)
            log_accept = np.where(np.isneginf(lt_cur) & ~np.isneginf(lt_prop),
                                  np.inf, log_accept)
            accept = np.log(rng.uniform(size=current.shape)) < log_accept
            return np.where(accept, proposal, current), accept

        def log_target(s2):
            s2 = np.asarray(s2)
            return np.where((s2 < 0.5) | (s2 > 2.0), -np.inf, -1.5 * np.log(s2))

        start = np.geomspace(0.1, 10.0, 400)
        for step_scale in (0.25, 1.0):
            rng, ref_rng = np.random.default_rng(43), np.random.default_rng(43)
            with np.errstate(invalid="raise"):
                got, got_acc = array_mh_step(log_target, start, rng, step_scale)
            want, want_acc = reference(log_target, start, ref_rng, step_scale)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(got_acc, want_acc)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            # the comparison saw both accepted and rejected moves
            assert got_acc.any() and not got_acc.all()
        for cur in (0.3, 1.0):
            rng, ref_rng = np.random.default_rng(44), np.random.default_rng(44)
            got, got_acc = array_mh_step(log_target, cur, rng, 0.4)
            want, want_acc = reference(log_target, cur, ref_rng, 0.4)
            assert float(got) == float(want) and bool(got_acc) == bool(want_acc)

    def test_truncated_support_never_crossed(self):
        def log_target(s2):
            s2 = np.asarray(s2)
            out = -1.5 * np.log(s2)
            return np.where(s2 > 2.0, -np.inf, out)

        rng = np.random.default_rng(42)
        cur = np.full(500, 1.0)
        for _ in range(200):
            cur, _ = array_mh_step(log_target, cur, rng, 1.0)
        assert np.all(cur <= 2.0)
        assert np.all(np.isfinite(cur))

    @pytest.mark.parametrize("step_scale", [0.25, 0.4, 1.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_scalar_move_matches_oracle_bits_and_stream(self, seed, step_scale):
        # a truncated target on the band [0.5, 2]: chains start inside it,
        # below it and above it, and proposals leave it
        lo, hi = 0.5, 2.0
        calls = {"outside": 0, "escapes": 0}

        def log_target(s2):
            if s2 < lo or s2 > hi:
                calls["outside"] += 1
                return -math.inf
            return float(-1.5 * np.log(s2) - 0.1 / s2)

        for start in (1.0, 0.45, 2.2):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            cur = ref = start
            for _ in range(200):
                was_outside = not lo <= cur <= hi
                cur, acc = mh_scaled_chisq_step(log_target, cur, rng, step_scale)
                ref_arr, ref_acc = array_mh_step(log_target, np.array(ref), ref_rng, step_scale)
                ref = float(ref_arr)
                assert type(cur) is float and type(acc) is bool
                assert np.float64(cur).tobytes() == np.float64(ref).tobytes()
                assert acc == bool(ref_acc)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                calls["escapes"] += was_outside and acc
        # both support rules were exercised
        assert calls["outside"] > 0 and calls["escapes"] > 0
