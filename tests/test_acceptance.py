"""Acceptance suite: every exit criterion at its stated tolerance.

Chains are expensive, so each sampled configuration is fitted once in a
session fixture and shared across criteria. One PASS/FAIL line per
criterion is printed (run with -s to watch them live).
"""

import math

import numpy as np
import pytest

from hiddenpop.analysis import (
    coverage_report,
    hdi,
    hidden_population_draws,
    mape_summary,
    predictive_intervals,
)
from hiddenpop.cli import main as cli_main
from hiddenpop.kernels import truncated_normal
from hiddenpop.sampler import ChainConfig, run_chain
from hiddenpop.simulate import DgpConfig, make_lambda_scenario, simulate
from hiddenpop.sir import exceedance_probability
from hiddenpop.spatial import build_queen_grid, car_quadratic_form
from oracles import CompoundSymmetricCov, conditional_mvn, sigma_inverse

pytestmark = pytest.mark.acceptance

PAPER_CHAIN = dict(n_iter=20000, burn_in=10000, thin=5)

SIGMA_SPANS = {
    "sigma2_eta": (0.387, 0.576),
    "sigma2_u": (0.156, 0.249),
    "sigma2_v": (0.185, 0.513),
    "sigma2_eps": (0.059, 0.131),
}


def _fit(dgp: DgpConfig, chain_seed: int = 1):
    truth = simulate(dgp)
    chain = ChainConfig(seed=chain_seed, **PAPER_CHAIN)
    draws = run_chain(truth.dataset, truth.graph, chain)
    return truth, draws


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="session")
def five_baseline_fits():
    return [_fit(DgpConfig(seed=seed)) for seed in (101, 102, 103, 104, 105)]


@pytest.fixture(scope="session")
def fit_n49t10():
    return _fit(DgpConfig(grid_rows=7, grid_cols=7, n_periods=10, seed=203))


@pytest.fixture(scope="session")
def fit_n100t5():
    return _fit(DgpConfig(grid_rows=10, grid_cols=10, n_periods=5, seed=204))


@pytest.fixture(scope="session")
def fit_n100t10():
    return _fit(DgpConfig(grid_rows=10, grid_cols=10, n_periods=10, seed=202))


@pytest.fixture(scope="session")
def fit_n196t10():
    return _fit(DgpConfig(grid_rows=14, grid_cols=14, n_periods=10, seed=201))


def test_criterion_1_baseline_recovery(five_baseline_fits):
    beta_means = []
    beta_hdis = {0: [], 1: []}
    sigma_means = {name: [] for name in SIGMA_SPANS}
    for truth, draws in five_baseline_fits:
        beta_means.append(draws.beta.mean(axis=0))
        for k in (0, 1):
            beta_hdis[k].append(hdi(draws.beta[:, k], 0.95))
        for name in SIGMA_SPANS:
            sigma_means[name].append(float(np.sqrt(getattr(draws, name)).mean()))

    avg_beta = np.mean(beta_means, axis=0)
    avg_hdi = {k: np.mean(beta_hdis[k], axis=0) for k in (0, 1)}
    avg_sigma = {name: float(np.mean(vals)) for name, vals in sigma_means.items()}

    checks = {
        "beta1_mean": abs(avg_beta[0] - 0.5) <= 0.05,
        "beta2_mean": abs(avg_beta[1] + 0.5) <= 0.05,
        "beta1_hdi": avg_hdi[0][0] <= 0.5 <= avg_hdi[0][1],
        "beta2_hdi": avg_hdi[1][0] <= -0.5 <= avg_hdi[1][1],
    }
    for name, (lo, hi) in SIGMA_SPANS.items():
        checks[name] = lo <= avg_sigma[name] <= hi

    detail = (f"beta={np.round(avg_beta, 3).tolist()}, "
              + ", ".join(f"{n.replace('sigma2_', 's_')}={avg_sigma[n]:.3f}"
                          for n in SIGMA_SPANS))
    ok = _report("1 baseline-recovery n49t5 x5 seeds", all(checks.values()), detail)
    assert ok, checks


def test_criterion_2_interval_shrinkage(five_baseline_fits, fit_n196t10):
    widths_small = []
    for _, draws in five_baseline_fits:
        lo, hi = hdi(draws.beta[:, 0], 0.95)
        widths_small.append(hi - lo)
    small = float(np.mean(widths_small))
    lo, hi = hdi(fit_n196t10[1].beta[:, 0], 0.95)
    large = hi - lo
    ok = _report("2 hdi-shrinkage n196t10", large < small,
                 f"width {large:.4f} vs {small:.4f}")
    assert ok


def test_criterion_3_coverage_calibration(fit_n100t10):
    truth, draws = fit_n100t10
    y_level = np.exp(truth.dataset.y)
    tolerances = {0.90: 0.07, 0.95: 0.05, 0.99: 0.02}
    results = {}
    ok = True
    rng = np.random.default_rng(99)
    _, bounds = predictive_intervals(draws, y_level, list(tolerances))
    for (level, tol), (lo, hi) in zip(tolerances.items(), bounds):
        rep = coverage_report(lo, hi, truth.true_p, level, rng=rng)
        results[level] = rep.posterior_mean_coverage
        ok &= abs(rep.posterior_mean_coverage - level) <= tol
    detail = ", ".join(f"{lv}: {cov:.3f}" for lv, cov in results.items())
    assert _report("3 coverage n100t10", ok, detail)


def test_criterion_4_mape(five_baseline_fits, fit_n49t10, fit_n100t5,
                          fit_n100t10, fit_n196t10):
    cases = {
        "n49t5": five_baseline_fits[0],
        "n49t10": fit_n49t10,
        "n100t5": fit_n100t5,
        "n100t10": fit_n100t10,
        "n196t10": fit_n196t10,
    }
    ok = True
    details = []
    for name, (truth, draws) in cases.items():
        point = hidden_population_draws(draws, np.exp(truth.dataset.y)).mean(axis=0)
        out = mape_summary(point, truth.true_p)
        ok &= out.median <= 0.15 and out.average <= 0.35
        details.append(f"{name} med={out.median:.3f} avg={out.average:.3f}")
    assert _report("4 mape all sizes", ok, "; ".join(details))


def test_criterion_5_signal_ratio_sweep():
    base = DgpConfig(seed=205)
    high = make_lambda_scenario(10.0, base)
    _, draws_high = _fit(high)
    b1 = float(draws_high.beta[:, 0].mean())
    ok = abs(b1 - 0.5) <= 0.06

    # weak-signal regime reported but not asserted: identification of the
    # heterogeneity scale genuinely degrades there
    low = make_lambda_scenario(0.1, DgpConfig(seed=206))
    _, draws_low = _fit(low)
    lo_a, hi_a = hdi(np.sqrt(draws_low.sigma2_alpha), 0.95)
    detail = (f"lambda=10 beta1={b1:.3f}; lambda=0.1 sigma_alpha hdi "
              f"({lo_a:.3f},{hi_a:.3f}) [reported only]")
    assert _report("5 signal-ratio sweep", ok, detail)


def test_criterion_6_heavy_tail_robustness():
    truth, draws = _fit(DgpConfig(eps_t_df=4.0, seed=209))
    lo1, hi1 = hdi(draws.beta[:, 0], 0.95)
    lo2, hi2 = hdi(draws.beta[:, 1], 0.95)
    ok = (lo1 <= 0.5 <= hi1) and (lo2 <= -0.5 <= hi2)
    assert _report("6 heavy-tail robustness", ok,
                   f"beta1 ({lo1:.3f},{hi1:.3f}), beta2 ({lo2:.3f},{hi2:.3f})")


def test_criterion_7_oracle_suites():
    rng = np.random.default_rng(7)
    ok = True

    # rank-one inverse vs dense inversion
    for _ in range(100):
        t = int(rng.integers(1, 21))
        cov = CompoundSymmetricCov(rng.uniform(0.01, 2.0),
                                   rng.uniform(0.0, 2.0), t)
        err = np.max(np.abs(cov.dense() @ sigma_inverse(cov) - np.eye(t)))
        ok &= err < 1e-10

    # conditional normal vs Schur-complement oracle
    for _ in range(200):
        t = int(rng.integers(2, 9))
        a = rng.normal(size=(t, t))
        cov = a @ a.T + t * np.eye(t)
        mean = rng.normal(size=t)
        others = rng.normal(size=t - 1)
        idx = int(rng.integers(0, t))
        m, v = conditional_mvn(mean, cov, idx, others)
        rest = [i for i in range(t) if i != idx]
        c22 = cov[np.ix_(rest, rest)]
        c12 = cov[idx, rest]
        m0 = mean[idx] + c12 @ np.linalg.solve(c22, others - mean[rest])
        v0 = cov[idx, idx] - c12 @ np.linalg.solve(c22, c12)
        ok &= abs(m - m0) < 1e-9 and abs(v - v0) < 1e-9

    # truncated normal moments vs analytic half-normal values
    x = truncated_normal(np.zeros(10**6), 1.0, rng=rng)
    ok &= abs(x.mean() - math.sqrt(2 / math.pi)) < 0.01
    ok &= abs(x.var() - (1 - 2 / math.pi)) < 0.01

    # conjugate slope chain vs analytic posterior
    from hiddenpop.data import PanelDataset
    from hiddenpop.sampler import ParameterState, beta_posterior_moments, update_beta
    data = PanelDataset(y=rng.normal(size=(10, 3)), x=rng.normal(size=(10, 3, 2)))
    state = ParameterState(beta=np.zeros(2), u_plus=np.full((10, 3), 1e-12),
                           eta_plus=np.full(10, 1e-12), v=np.zeros(10),
                           sigma2_alpha=0.0, sigma2_eps=0.3, sigma2_v=0.1,
                           sigma2_u=0.1, sigma2_eta=0.1)
    mean, chol = beta_posterior_moments(state, data)
    cov_b = np.linalg.inv(chol @ chol.T)
    betas = np.array([update_beta(state, data, rng) for _ in range(20000)])
    mcse = np.sqrt(np.diag(cov_b) / betas.shape[0])
    ok &= np.all(np.abs(betas.mean(axis=0) - mean) < 2.5 * mcse)
    ok &= np.max(np.abs(np.cov(betas.T) - cov_b)) < 0.05 * np.max(np.abs(cov_b))

    # pairwise CAR form vs dense precision product
    g = build_queen_grid(7, 7)
    for _ in range(20):
        v = rng.normal(size=49)
        dense = v @ g.dense_precision() @ v
        ok &= abs(car_quadratic_form(g, v) - dense) < 1e-10

    # exceedance probability vs quadrature
    from scipy import integrate, stats
    for s, e in ((30, 20.0), (3, 10.0), (60, 45.0)):
        val, _ = integrate.quad(
            lambda z: stats.gamma.pdf(z, s + 0.01, scale=1 / (e + 0.01)), 1.0, np.inf
        )
        ok &= abs(exceedance_probability(s, e) - val) < 1e-8

    # Beta mean identity of the coverage posterior
    rep = coverage_report(np.zeros(100), np.full(100, 2.0), np.ones(100), 0.9,
                          n_beta_draws=100_000, rng=np.random.default_rng(8))
    exact = rep.a / (rep.a + rep.b)
    sd = math.sqrt(exact * (1 - exact) / (rep.a + rep.b + 1))
    ok &= abs(rep.posterior_mean_coverage - exact) < 3 * sd / math.sqrt(100_000)

    assert _report("7 oracle suites", ok, "all independent oracles agree")


def test_criterion_8_cli_determinism(tmp_path):
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--grid", "7x7", "--periods", "5",
                     "--seed", "1", "--out", str(sim)]) == 0
    payloads = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert cli_main(["fit", "--data", str(sim / "panel.csv"),
                         "--grid", "7x7", "--seed", "7",
                         "--out", str(out)]) == 0
        payloads.append((out / "draws.npz").read_bytes())
    ok = payloads[0] == payloads[1]
    assert _report("8 determinism", ok,
                   f"{len(payloads[0])} byte draws files identical")
