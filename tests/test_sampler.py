import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import chdtr, gammaincinv

from hiddenpop import sampler
from hiddenpop.data import PanelDataset
from hiddenpop.kernels import _inverse_factors, _logdet, make_rng, truncated_normal
from hiddenpop.sampler import (
    ChainConfig,
    ParameterState,
    beta_posterior_moments,
    initial_state,
    residual_variance_split,
    run_chain,
    update_beta,
    update_eta_plus,
    update_level,
    update_sigma2_eta,
    update_sigma2_u,
    update_sigma2_v,
    update_u_plus,
    update_v,
    _omega_factors,
)
from hiddenpop.simulate import DgpConfig, simulate
from hiddenpop.spatial import SpatialGraph, build_queen_grid, car_quadratic_form, load_adjacency
from oracles import (CompoundSymmetricCov, conditional_mvn, per_edge_graph, queen_edges,
                     sigma_inverse, update_v_dot)


def _state(n, t, k, **overrides):
    base = dict(
        beta=np.zeros(k),
        u_plus=np.full((n, t), 1e-12),
        eta_plus=np.full(n, 1e-12),
        v=np.zeros(n),
        sigma2_alpha=0.0,
        sigma2_eps=0.1,
        sigma2_v=0.1,
        sigma2_u=0.1,
        sigma2_eta=0.1,
    )
    base.update(overrides)
    return ParameterState(**base)


def _resid(data, state):
    """y - X beta, the array the updates after beta's take."""
    return data.y - np.einsum("ntk,k->nt", data.x, state.beta)


def _panel(n, t, k, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, t, k))
    y = scale * rng.normal(size=(n, t))
    return PanelDataset(y=y, x=x)


class TestBetaUpdate:
    def test_moments_match_dense_gls_oracle(self):
        n, t, k = 12, 4, 2
        data = _panel(n, t, k, seed=1)
        state = _state(n, t, k,
                       u_plus=np.abs(np.random.default_rng(2).normal(size=(n, t))),
                       eta_plus=np.abs(np.random.default_rng(3).normal(size=n)),
                       v=np.random.default_rng(4).normal(size=n),
                       sigma2_alpha=0.3, sigma2_eps=0.4)
        mean, chol = beta_posterior_moments(state, data)
        cov = np.linalg.inv(chol @ chol.T)

        sigma = CompoundSymmetricCov(0.4, 0.3, t).dense()
        sigma_inv = np.linalg.inv(sigma)
        ytil = data.y - state.u_plus - state.v[:, None] - state.eta_plus[:, None]
        gram = sum(data.x[i].T @ sigma_inv @ data.x[i] for i in range(n))
        rhs = sum(data.x[i].T @ sigma_inv @ ytil[i] for i in range(n))
        prec = gram + np.eye(k) / 1000.0   # the fixed N(0, 1000 I) slope prior
        mean_oracle = np.linalg.solve(prec, rhs)
        cov_oracle = np.linalg.inv(prec)
        assert np.max(np.abs(mean - mean_oracle)) < 1e-8
        assert np.max(np.abs(cov - cov_oracle)) < 1e-8

    def test_draws_match_analytic_posterior(self):
        # conjugate oracle: latents frozen near zero, variances fixed, so
        # repeated slope updates sample the exact Gaussian posterior
        n, t, k = 10, 3, 2
        data = _panel(n, t, k, seed=6)
        state = _state(n, t, k, sigma2_alpha=0.0, sigma2_eps=0.3)
        mean, chol = beta_posterior_moments(state, data)
        cov = np.linalg.inv(chol @ chol.T)
        rng = make_rng(7)
        draws = np.array([update_beta(state, data, rng) for _ in range(20000)])
        mcse = np.sqrt(np.diag(cov) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 2.5 * mcse)
        emp_cov = np.cov(draws.T)
        assert np.max(np.abs(emp_cov - cov)) < 0.05 * np.max(np.abs(cov))


class TestUPlusUpdate:
    def test_tiny_scale_collapses_to_zero(self):
        n, t = 50, 4
        data = _panel(n, t, 1, seed=8)
        state = _state(n, t, 1, sigma2_u=1e-12)
        rng = make_rng(9)
        u = update_u_plus(state, _resid(data, state), rng)
        assert np.all(u > 0)
        assert u.mean() < 1e-4

    def test_t_equal_one_matches_analytic_posterior(self):
        # scalar case: the conditional is a univariate truncated normal
        n, t = 20000, 1
        rng0 = np.random.default_rng(10)
        x = np.zeros((n, t, 1))
        y = np.full((n, t), 0.45)
        data = PanelDataset(y=y, x=x)
        s2e, s2a, s2u = 0.2, 0.05, 0.3
        state = _state(n, t, 1, sigma2_eps=s2e, sigma2_alpha=s2a, sigma2_u=s2u)
        rng = make_rng(11)
        draws = np.concatenate(
            [update_u_plus(state, _resid(data, state), rng).ravel() for _ in range(5)]
        )
        sigma_scalar = s2e + s2a
        omega = 1.0 / (1.0 / sigma_scalar + 1.0 / s2u)
        mu = omega * (0.45 / sigma_scalar)
        ref = stats.truncnorm(a=(0 - mu) / math.sqrt(omega), b=np.inf,
                              loc=mu, scale=math.sqrt(omega))
        assert np.all(draws > 0)
        assert stats.kstest(draws, ref.cdf).pvalue > 0.01

    def test_coordinate_conditionals_match_dense_oracle(self, monkeypatch):
        # T > 1: Omega = inv(Sigma^{-1} + I/s2_u) must be e I + f 11', and
        # every coordinate draw must use the Schur-complement conditional of
        # N(mu, Omega) given the block's latest other coordinates
        n, t = 5, 4
        rng0 = np.random.default_rng(12)
        data = _panel(n, t, 1, seed=13)
        s2e, s2a, s2u = 0.2, 0.05, 0.3
        state = _state(n, t, 1, u_plus=np.abs(rng0.normal(size=(n, t))),
                       eta_plus=np.abs(rng0.normal(size=n)), v=rng0.normal(size=n),
                       sigma2_eps=s2e, sigma2_alpha=s2a, sigma2_u=s2u)
        sigma_inv = sigma_inverse(CompoundSymmetricCov(s2e, s2a, t))
        omega = np.linalg.inv(sigma_inv + np.eye(t) / s2u)
        e, f = _omega_factors(*_inverse_factors(s2e, s2a, t), s2u, t)
        assert np.max(np.abs(omega - (e * np.eye(t) + f * np.ones((t, t))))) < 1e-12

        calls = []

        def spy(mean, sd, lower, *, rng):
            draw = truncated_normal(mean, sd, lower, rng=rng)
            calls.append((mean.copy(), sd, draw))
            return draw

        monkeypatch.setattr(sampler, "truncated_normal", spy)
        u_new = update_u_plus(state, _resid(data, state), make_rng(14))
        resid = data.y - state.v[:, None] - state.eta_plus[:, None]   # beta = 0
        mu = resid @ (omega @ sigma_inv).T
        u = state.u_plus.copy()
        assert len(calls) == t
        for s, (mean, sd, draw) in enumerate(calls):
            for i in range(n):
                m, var = conditional_mvn(mu[i], omega, s, np.delete(u[i], s))
                assert abs(mean[i] - m) < 1e-10
                assert abs(sd**2 - var) < 1e-12
            u[:, s] = draw
        assert np.array_equal(u, u_new)

    def test_positivity_under_negative_pull(self):
        n, t = 40, 6
        data = PanelDataset(y=np.full((n, t), -3.0), x=np.zeros((n, t, 1)))
        state = _state(n, t, 1, sigma2_u=0.2)
        u = update_u_plus(state, _resid(data, state), make_rng(12))
        assert np.all(u > 0)


class TestEtaPlusUpdate:
    def test_tiny_scale_collapses(self):
        n, t = 50, 4
        data = _panel(n, t, 1, seed=13)
        state = _state(n, t, 1, sigma2_eta=1e-12)
        eta = update_eta_plus(state, _resid(data, state), make_rng(14))
        assert np.all(eta > 0)
        assert eta.mean() < 1e-4

    def test_moments_match_scalar_formula(self):
        n, t = 30000, 3
        y = np.full((n, t), 0.8)
        data = PanelDataset(y=y, x=np.zeros((n, t, 1)))
        s2e, s2a, s2eta = 0.15, 0.1, 0.4
        state = _state(n, t, 1, sigma2_eps=s2e, sigma2_alpha=s2a, sigma2_eta=s2eta)
        draws = update_eta_plus(state, _resid(data, state), make_rng(15))
        one_inv_one = t / (s2e + t * s2a)
        psi2 = s2eta / (1 + s2eta * one_inv_one)
        m = psi2 * (t * 0.8) / (s2e + t * s2a)
        ref = stats.truncnorm(a=(0 - m) / math.sqrt(psi2), b=np.inf,
                              loc=m, scale=math.sqrt(psi2))
        assert abs(draws.mean() - ref.mean()) < 0.01
        assert stats.kstest(draws, ref.cdf).pvalue > 0.01


class TestVarianceUpdates:
    def test_sigma2_v_chi2_mean_identity(self):
        # fixed field on a 16x16 grid, df = 255 + NBAR: the reciprocal
        # draw has mean df / (qbar + v'(D_w - W)v)
        g = build_queen_grid(16, 16)
        state = _state(256, 5, 1, v=np.random.default_rng(16).normal(size=256))
        expected = (255 + sampler.NBAR) / (sampler.QBAR + car_quadratic_form(g, state.v))
        rng = make_rng(16)
        draws = np.array([update_sigma2_v(state, g, rng) for _ in range(200_000)])
        assert abs(np.mean(1.0 / draws) - expected) < 0.005 * expected

    def test_sigma2_v_null_field_is_tiny(self):
        g = build_queen_grid(2, 2)
        state = _state(4, 3, 1, v=np.zeros(4))
        draw = update_sigma2_v(state, g, make_rng(17))
        assert 0 < draw < 1e-2

    def test_sigma2_v_floor_respected(self):
        g = build_queen_grid(3, 3)
        state = _state(9, 3, 1, v=np.random.default_rng(0).normal(size=9))
        rng = make_rng(18)
        draws = [update_sigma2_v(state, g, rng, floor=0.5)
                 for _ in range(200)]
        assert min(draws) >= 0.5

    def test_chi2_special_functions_match_scipy_stats_bitwise(self):
        # the floored s2_v draw calls chdtr and 2 * gammaincinv(df / 2, q)
        # directly; they must return exactly what scipy.stats.chi2 returns
        # df grid from 1 to 1000, with 246 = N*T + NBAR at the paper size
        dfs = np.concatenate([np.arange(1.0, 50.0), np.geomspace(50.0, 1000.0, 40), [246.0]])
        qs = np.concatenate([np.geomspace(1e-300, 1e-3, 30), np.linspace(0.01, 0.99, 30),
                             1.0 - np.geomspace(1e-3, 1e-16, 30)])
        for df in dfs:
            xs = stats.chi2.ppf(qs, df)
            assert np.array_equal(chdtr(df, xs), stats.chi2.cdf(xs, df))
            assert np.array_equal(2 * gammaincinv(df / 2, qs), xs)

    def test_sigma2_v_floor_matches_scipy_stats_oracle(self):
        # df = (N - 1) + NBAR: 10 on the 3x3 grid, 30 on 5x6, 300 on 15x20
        for rows, cols, floor in ((3, 3, 0.05), (3, 3, 0.5), (5, 6, 0.2), (15, 20, 1e-3)):
            g = build_queen_grid(rows, cols)
            n = rows * cols
            state = _state(n, 3, 1, v=np.random.default_rng(3).normal(size=n))
            scale = sampler.QBAR + car_quadratic_form(g, state.v)
            dof = n - 1 + sampler.NBAR
            rng, ref_rng = make_rng(31), make_rng(31)
            for _ in range(50):
                got = update_sigma2_v(state, g, rng, floor=floor)
                mass = stats.chi2.cdf(scale / floor, dof)
                want = (floor if mass <= 0.0 else max(
                    scale / stats.chi2.ppf(ref_rng.uniform() * mass, dof), floor))
                assert got == want

    def test_sigma2_u_inverse_gamma_moment(self):
        n, t = 7, 7
        u = np.abs(np.random.default_rng(19).normal(0.2, 0.05, (n, t)))
        state = _state(n, t, 1, u_plus=u)
        shape = 0.5 * (n * t + sampler.V0)
        scale = 0.5 * (np.sum(u**2) + 2 * sampler.V0 * math.log(sampler.R_STAR_U) ** 2)
        rng = make_rng(20)
        draws = np.array([update_sigma2_u(state, rng) for _ in range(100_000)])
        assert abs(draws.mean() - scale / (shape - 1)) < 0.005 * scale / (shape - 1)

    def test_sigma2_eta_null_field_moment(self):
        # 49 regions, permanent errors at zero: IG((49 + V0) / 2, V0 log^2(R_STAR_ETA))
        state = _state(49, 5, 1, eta_plus=np.full(49, 1e-9))
        rng = make_rng(21)
        draws = np.array([update_sigma2_eta(state, rng) for _ in range(100_000)])
        expected = sampler.V0 * math.log(sampler.R_STAR_ETA) ** 2 / (0.5 * (49 + sampler.V0) - 1)
        assert abs(draws.mean() - expected) < 0.01 * expected

    def test_sigma2_eta_single_region_proper(self):
        state = _state(1, 1, 1, eta_plus=np.array([1e-9]))
        draw = update_sigma2_eta(state, make_rng(22))
        assert np.isfinite(draw) and draw > 0


class TestLevelMove:
    def test_preserves_fit_and_quadratic_form(self):
        from hiddenpop.spatial import car_quadratic_form

        g = build_queen_grid(3, 3)
        rng = np.random.default_rng(23)
        state = _state(9, 4, 1,
                       eta_plus=np.abs(rng.normal(0.5, 0.2, 9)) + 0.05,
                       v=rng.normal(size=9), sigma2_eta=0.25)
        # the move operates on the mirrored-sign fields, where the fit
        # depends on the sum of the spatial and permanent components
        sum_before = state.v + state.eta_plus
        qf_before = car_quadratic_form(g, state.v)
        moved = False
        rng2 = make_rng(24)
        for _ in range(50):
            moved |= update_level(state, rng2)
        assert moved
        assert np.allclose(state.v + state.eta_plus, sum_before, atol=1e-12)
        assert car_quadratic_form(g, state.v) == pytest.approx(qf_before, abs=1e-9)
        assert np.all(state.eta_plus > 0)


class TestRunChain:
    def test_exactly_one_stored_draw(self):
        truth = simulate(DgpConfig(grid_rows=3, grid_cols=3, n_periods=3, seed=1))
        cfg = ChainConfig(n_iter=105, burn_in=100, thin=5, seed=2)
        draws = run_chain(truth.dataset, truth.graph, cfg)
        assert draws.n_draws == 1

    def test_identical_seeds_bit_identical(self):
        truth = simulate(DgpConfig(grid_rows=3, grid_cols=3, n_periods=3, seed=3))
        cfg = ChainConfig(n_iter=400, burn_in=200, thin=2, seed=11)
        a = run_chain(truth.dataset, truth.graph, cfg)
        b = run_chain(truth.dataset, truth.graph, cfg)
        for name in ("beta", "u_plus", "eta_plus", "v", "sigma2_alpha",
                     "sigma2_eps", "sigma2_v", "sigma2_u", "sigma2_eta"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_stored_draws_strictly_positive(self):
        truth = simulate(DgpConfig(grid_rows=3, grid_cols=4, n_periods=4, seed=4))
        cfg = ChainConfig(n_iter=600, burn_in=300, thin=3, seed=5)
        draws = run_chain(truth.dataset, truth.graph, cfg)
        assert np.all(draws.u_plus > 0)
        assert np.all(draws.eta_plus > 0)
        for name in ("sigma2_alpha", "sigma2_eps", "sigma2_v", "sigma2_u", "sigma2_eta"):
            assert np.all(getattr(draws, name) > 0)

    def test_graph_dimension_mismatch(self):
        truth = simulate(DgpConfig(grid_rows=3, grid_cols=3, n_periods=3, seed=6))
        wrong = build_queen_grid(2, 2)
        with pytest.raises(ValueError, match="regions"):
            run_chain(truth.dataset, wrong, ChainConfig(n_iter=20, burn_in=10, thin=1))

    def test_rank_one_identity_along_chain(self):
        # spot check the rank-one inverse and log-determinant the sampler
        # uses against dense algebra at the stored variance pairs
        truth = simulate(DgpConfig(grid_rows=3, grid_cols=3, n_periods=4, seed=7))
        cfg = ChainConfig(n_iter=300, burn_in=150, thin=5, seed=8)
        draws = run_chain(truth.dataset, truth.graph, cfg)
        t = truth.dataset.n_periods
        for s in range(draws.n_draws):
            s2e, s2a = draws.sigma2_eps[s], draws.sigma2_alpha[s]
            dense = s2e * np.eye(t) + s2a * np.ones((t, t))
            a, c = _inverse_factors(s2e, s2a, t)
            inv = a * np.eye(t) - c * np.ones((t, t))
            assert np.max(np.abs(inv - np.linalg.inv(dense))) < 1e-10
            sign, logdet = np.linalg.slogdet(dense)
            assert sign > 0
            assert abs(_logdet(s2e, s2a, t) - logdet) < 1e-10

    def test_multi_chain_stacking_and_determinism(self):
        truth = simulate(DgpConfig(grid_rows=3, grid_cols=3, n_periods=3, seed=9))
        cfg = ChainConfig(n_iter=200, burn_in=100, thin=5, seed=13, chains=2)
        a = run_chain(truth.dataset, truth.graph, cfg)
        b = run_chain(truth.dataset, truth.graph, cfg)
        assert a.n_draws == 2 * cfg.n_stored
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.chain_id, np.repeat([0, 1], cfg.n_stored))

    def test_chain_i_is_run_chain_at_seed_plus_i(self):
        # one seeding rule: chain i of a multi-chain run is the single chain
        # at seed + i, and the rates are the means of the per-chain rates
        truth = simulate(DgpConfig(grid_rows=3, grid_cols=3, n_periods=3, seed=9))
        cfg = ChainConfig(n_iter=120, burn_in=60, thin=3, seed=17)
        both = run_chain(truth.dataset, truth.graph, replace(cfg, chains=2))
        alone = [run_chain(truth.dataset, truth.graph, replace(cfg, seed=cfg.seed + idx))
                 for idx in range(2)]
        for idx, single in enumerate(alone):
            for name in ("beta", "u_plus", "eta_plus", "v", "sigma2_alpha",
                         "sigma2_eps", "sigma2_v", "sigma2_u", "sigma2_eta"):
                assert np.array_equal(getattr(both, name)[both.chain_id == idx],
                                      getattr(single, name))
        for name in ("accept_rate_alpha", "accept_rate_eps", "accept_rate_level"):
            assert getattr(both, name) == float(np.mean([getattr(a, name) for a in alone]))
        assert both.floored_count == sum(a.floored_count for a in alone)
        assert both.seed == cfg.seed

    def test_level_move_acceptance_counted(self):
        truth = simulate(DgpConfig(grid_rows=3, grid_cols=3, n_periods=3, seed=9))
        cfg = ChainConfig(n_iter=300, burn_in=100, thin=5, seed=18)
        a = run_chain(truth.dataset, truth.graph, cfg)
        assert 0.0 < a.accept_rate_level < 1.0
        pair = run_chain(truth.dataset, truth.graph, replace(cfg, chains=2))
        assert 0.0 < pair.accept_rate_level < 1.0
        off = ChainConfig(n_iter=300, burn_in=100, thin=5, seed=18, stabilize=False)
        assert math.isnan(run_chain(truth.dataset, truth.graph, off).accept_rate_level)

    def test_region_exchangeability(self):
        # permuting region labels (and the graph) permutes posterior means
        truth = simulate(DgpConfig(grid_rows=3, grid_cols=3, n_periods=4, seed=10))
        cfg = ChainConfig(n_iter=6000, burn_in=3000, thin=3, seed=14)
        base = run_chain(truth.dataset, truth.graph, cfg)

        rng = np.random.default_rng(15)
        perm = rng.permutation(9)          # new index -> old index
        inv = np.argsort(perm)
        data_p = PanelDataset(y=truth.dataset.y[perm], x=truth.dataset.x[perm])
        g = truth.graph
        graph_p = SpatialGraph.from_edges(
            9, zip(inv[g.edge_i].tolist(), inv[g.edge_j].tolist(), g.edge_w.tolist()))
        permuted = run_chain(data_p, graph_p, cfg)

        base_eta = base.eta_plus.mean(axis=0)
        perm_eta = permuted.eta_plus.mean(axis=0)
        assert np.corrcoef(perm_eta, base_eta[perm])[0, 1] > 0.9
        assert np.max(np.abs(perm_eta - base_eta[perm])) < 0.15


class TestInitialState:
    def test_valid_and_deterministic(self):
        truth = simulate(DgpConfig(grid_rows=4, grid_cols=4, n_periods=5, seed=11))
        a, b = (initial_state(truth.dataset, residual_variance_split(truth.dataset))
                for _ in range(2))
        assert np.all(a.u_plus > 0) and np.all(a.eta_plus > 0)
        for name in ("sigma2_alpha", "sigma2_eps", "sigma2_v", "sigma2_u", "sigma2_eta"):
            assert getattr(a, name) > 0
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.v, b.v)

    def test_chain_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(n_iter=100, burn_in=100)
        with pytest.raises(ValueError):
            ChainConfig(n_iter=100, burn_in=10, thin=0)

    def test_chain_count_must_be_positive(self):
        with pytest.raises(ValueError, match="^chains must be >= 1, got 0$"):
            ChainConfig(n_iter=100, burn_in=10, chains=0)

    @pytest.mark.parametrize("name", ["mh_step_scale_alpha", "mh_step_scale_eps"])
    @pytest.mark.parametrize("value", [0.0, -0.5, math.nan, math.inf, -math.inf])
    def test_step_scale_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {value}$"):
            ChainConfig(n_iter=100, burn_in=10, **{name: value})
        ChainConfig(n_iter=100, burn_in=10, **{name: 1e-3})


def test_update_v_sequential_sees_latest_values():
    # two-region graph: with a dominant CAR prior the second region's draw
    # must track the first region's freshly drawn value, not the stale one
    g = SpatialGraph.from_edges(2, [(0, 1)])
    n, t = 2, 2
    data = PanelDataset(y=np.zeros((n, t)), x=np.zeros((n, t, 1)))
    state = _state(n, t, 1, v=np.array([5.0, 5.0]),
                   sigma2_eps=1e6, sigma2_v=1e-6)
    out = update_v(state, _resid(data, state), g, make_rng(30))
    # with no data signal and tight CAR coupling both values stay close
    assert abs(out[0] - out[1]) < 0.1


class TestUpdateVAgainstDotOracle:
    """update_v sums each region's neighbours in Python floats; the oracle
    takes one numpy dot per region over the per-region lists that
    `per_edge_graph` builds from the same edges. Each sweep starts from the
    oracle's previous output, so the comparison never drifts."""

    @staticmethod
    def _sweeps(graph, edges, seed, n_sweeps=4, sigma2_v=0.7):
        reference = per_edge_graph(graph.n_regions, edges)
        n, t = graph.n_regions, 3
        data = _panel(n, t, 2, seed=seed)
        draw = np.random.default_rng(seed + 1)
        state = _state(n, t, 2, beta=draw.normal(size=2), u_plus=draw.gamma(2.0, size=(n, t)),
                       eta_plus=draw.gamma(2.0, size=n), v=draw.normal(size=n),
                       sigma2_alpha=0.05, sigma2_eps=0.3, sigma2_v=sigma2_v)
        rng, oracle_rng = make_rng(seed), make_rng(seed)
        pairs = []
        for _ in range(n_sweeps):
            got = update_v(state, _resid(data, state), graph, rng)
            want = update_v_dot(state, _resid(data, state), reference, oracle_rng)
            assert got.dtype == want.dtype and got.shape == want.shape == (n,)
            pairs.append((got, want))
            state.v = want
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        return pairs

    def test_bit_equal_on_a_queen_grid(self):
        for got, want in self._sweeps(build_queen_grid(6, 7), queen_edges(6, 7), seed=41):
            assert got.tobytes() == want.tobytes()

    def test_bit_equal_on_a_label_keyed_adjacency(self, tmp_path):
        # unit weights, labels 201.., edges shuffled and half reversed, and
        # a numpy-scalar sigma2_v, as a caller may pass one
        grid = build_queen_grid(5, 6)
        labels = np.arange(201, 231)
        order = np.random.default_rng(5).permutation(grid.edge_i.size)
        edges = [(grid.edge_j[k], grid.edge_i[k]) if k % 2 else (grid.edge_i[k], grid.edge_j[k])
                 for k in order]
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{labels[i]} {labels[j]}\n" for i, j in edges))
        graph = load_adjacency(path, labels)
        for got, want in self._sweeps(graph, edges, seed=42, sigma2_v=np.float64(0.7)):
            assert got.tobytes() == want.tobytes()

    def test_close_on_a_random_weighted_graph(self):
        # a numpy dot may fuse a multiply and an add, so non-unit weights
        # can move the last bits
        draw = np.random.default_rng(43)
        n = 40
        pairs = {(min(i, j), max(i, j)) for i, j in draw.integers(0, n, size=(160, 2)) if i != j}
        pairs |= {(i, i + 1) for i in range(n - 1)}
        edges = [(i, j, draw.gamma(2.0)) for i, j in sorted(pairs)]
        for got, want in self._sweeps(SpatialGraph.from_edges(n, edges), edges, seed=44):
            assert np.max(np.abs(got - want)) <= 1e-13


SCALARS = ("sigma2_alpha", "sigma2_eps", "sigma2_v", "sigma2_u", "sigma2_eta")


def test_chain_scalars_stay_python_floats(monkeypatch):
    # update_sigma2_v's floored path ends in scipy's gammaincinv, whose
    # numpy scalar once leaked into the state and turned every later
    # sweep's scalar arithmetic into numpy-scalar arithmetic
    truth = simulate(DgpConfig(grid_rows=3, grid_cols=3, n_periods=3, seed=5))
    types, floors = [], []
    beta_update, sigma2_v_update = sampler.update_beta, sampler.update_sigma2_v

    def beta_spy(state, *args):
        types.append({name: type(getattr(state, name)) for name in SCALARS})
        return beta_update(state, *args)

    def sigma2_v_spy(state, graph, rng, floor=0.0):
        floors.append(floor)
        draw = sigma2_v_update(state, graph, rng, floor=floor)
        types.append({"sigma2_v": type(draw)})
        return draw

    monkeypatch.setattr(sampler, "update_beta", beta_spy)
    monkeypatch.setattr(sampler, "update_sigma2_v", sigma2_v_spy)
    run_chain(truth.dataset, build_queen_grid(3, 3),
              chain=ChainConfig(n_iter=150, burn_in=50, thin=1, seed=3))
    assert len(floors) == 150 and min(floors) > 0
    assert len(types) == 300
    assert all(set(seen.values()) == {float} for seen in types)
