import math

import numpy as np
import pytest

from hiddenpop.simulate import (
    DgpConfig,
    draw_centered_car,
    lambda_of,
    make_lambda_scenario,
    read_truth_csv,
    simulate,
    write_truth_csv,
)
from hiddenpop.spatial import build_queen_grid, car_quadratic_form


def test_reconstruction_identity():
    truth = simulate(DgpConfig(seed=1))
    beta = np.asarray(truth.config.beta_true)
    # rebuild y from the stored components; epsilon is the remainder
    eps = (truth.dataset.y - truth.dataset.x @ beta - truth.true_alpha[:, None]
           - truth.true_v[:, None] + truth.true_eta_plus[:, None] + truth.true_u_plus)
    rebuilt = (truth.dataset.x @ beta + truth.true_alpha[:, None]
               + truth.true_v[:, None] - truth.true_eta_plus[:, None]
               - truth.true_u_plus + eps)
    assert np.max(np.abs(rebuilt - truth.dataset.y)) < 1e-12


def test_hidden_population_consistency():
    truth = simulate(DgpConfig(seed=2))
    implied = np.exp(truth.dataset.y) * np.exp(
        truth.true_eta_plus[:, None] + truth.true_u_plus
    )
    assert np.allclose(truth.true_p, implied, rtol=1e-12)


def test_noiseless_limit():
    cfg = DgpConfig(sigma_alpha=1e-12, sigma_eta=1e-12, sigma_u=1e-12,
                    sigma_eps=1e-12, sigma_v=1e-12, seed=3)
    truth = simulate(cfg)
    manual = 0.5 * truth.dataset.x[:, :, 0] - 0.5 * truth.dataset.x[:, :, 1]
    assert np.max(np.abs(truth.dataset.y - manual)) < 1e-6


def test_spatial_lag_uses_raw_weights():
    truth = simulate(DgpConfig(grid_rows=3, grid_cols=3, n_periods=2, seed=4))
    w = truth.graph.dense_weight_matrix()
    lag = w @ truth.dataset.x[:, :, 0]
    assert np.allclose(truth.dataset.x[:, :, 1], lag)


def test_centered_car_field():
    g = build_queen_grid(7, 7)
    rng = np.random.default_rng(5)
    v = draw_centered_car(g, 0.4, rng)
    assert abs(v.sum()) < 1e-10


def test_centered_car_scales_with_sigma():
    g = build_queen_grid(7, 7)
    qfs = []
    for seed in range(200):
        v = draw_centered_car(g, 0.4, np.random.default_rng(seed))
        qfs.append(car_quadratic_form(g, v))
    # E[v' (D - W) v] = sigma_v^2 * rank = 0.16 * 48 on a connected graph
    assert np.mean(qfs) == pytest.approx(0.16 * 48, rel=0.1)


def test_truth_components_match_their_laws():
    cfg = DgpConfig(grid_rows=14, grid_cols=14, n_periods=10, seed=6)
    truth = simulate(cfg)
    # half-normal means: sigma * sqrt(2/pi)
    assert truth.true_eta_plus.mean() == pytest.approx(
        0.5 * math.sqrt(2 / math.pi), abs=3 * 0.5 * 0.6 / math.sqrt(196)
    )
    assert truth.true_u_plus.mean() == pytest.approx(
        0.2 * math.sqrt(2 / math.pi), abs=3 * 0.2 * 0.6 / math.sqrt(1960)
    )
    assert truth.true_alpha.std() == pytest.approx(0.1, rel=0.25)
    assert truth.true_u_plus.min() > 0 and truth.true_eta_plus.min() > 0


def test_student_t_noise():
    cfg = DgpConfig(eps_t_df=4.0, seed=7, grid_rows=10, grid_cols=10, n_periods=10)
    truth = simulate(cfg)
    beta = np.asarray(cfg.beta_true)
    eps = (truth.dataset.y - truth.dataset.x @ beta - truth.true_alpha[:, None]
           - truth.true_v[:, None] + truth.true_eta_plus[:, None] + truth.true_u_plus)
    # scaled t(4) has sd sigma * sqrt(df / (df - 2)) = sigma * sqrt(2)
    assert eps.std() == pytest.approx(0.1 * math.sqrt(2.0), rel=0.15)


def test_student_t_df_validation():
    with pytest.raises(ValueError):
        DgpConfig(eps_t_df=2.0)


def test_lambda_arithmetic():
    cfg = DgpConfig()
    assert lambda_of(cfg) == pytest.approx(7.0)
    low = make_lambda_scenario(0.7, cfg)
    assert low.sigma_eps == pytest.approx(1.0)
    assert lambda_of(low) == pytest.approx(0.7)
    high = make_lambda_scenario(10.0, cfg)
    assert high.sigma_eps == pytest.approx(0.07)
    assert lambda_of(high) == pytest.approx(10.0)


def test_lambda_scenario_validation():
    with pytest.raises(ValueError):
        make_lambda_scenario(0.0, DgpConfig())


def test_determinism():
    a = simulate(DgpConfig(seed=8))
    b = simulate(DgpConfig(seed=8))
    assert np.array_equal(a.dataset.y, b.dataset.y)
    assert np.array_equal(a.true_v, b.true_v)


def test_truth_csv_round_trip(tmp_path):
    truth = simulate(DgpConfig(grid_rows=3, grid_cols=4, n_periods=3, seed=9))
    path = tmp_path / "truth.csv"
    write_truth_csv(truth, path)
    back = read_truth_csv(path)
    assert np.allclose(back["u_plus"], truth.true_u_plus, atol=1e-4)
    assert np.allclose(back["eta_plus"], truth.true_eta_plus, atol=1e-4)
    assert np.allclose(back["v"], truth.true_v, atol=1e-4)
    assert np.allclose(back["p"], truth.true_p, rtol=1e-4)


def test_truth_csv_rejects_per_region_values_that_differ(tmp_path):
    path = tmp_path / "truth.csv"
    # a value repeated in every period passes
    path.write_text("region,time,u_plus,eta_plus,v,alpha,P\n"
                    "0,0,0.1,0.5,0.6,0.3,1.5\n0,1,0.1,0.5,0.6,0.3,1.5\n"
                    "4,0,0.1,0.5,0.2,0.3,1.5\n4,1,0.1,0.9,0.2,0.3,1.5\n")
    with pytest.raises(ValueError, match=r"^truth\.csv: eta_plus differs across the periods "
                                         r"of region=4: 0\.5 at time=0, 0\.9 at time=1$"):
        read_truth_csv(path)
    path.write_text(path.read_text().replace("0.9,0.2,0.3", "0.5,0.2,0.7"))
    with pytest.raises(ValueError, match=r"^truth\.csv: alpha differs .* region=4: 0\.3 at"):
        read_truth_csv(path)
    path.write_text(path.read_text().replace("0.5,0.2,0.7", "0.5,0.2,0.3"))
    back = read_truth_csv(path)
    assert back["v"].tolist() == [0.6, 0.2]
    assert back["eta_plus"].tolist() == [0.5, 0.5]
