import csv
import gc
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import warnings
import zipfile
import zlib

import numpy as np
import pytest

from hiddenpop.analysis import uncaptured_summaries
from hiddenpop.cli import _read_config_file, load_draws, main, save_draws
from hiddenpop.data import FLOAT_FMT
from hiddenpop.sampler import ChainConfig, PosteriorDraws, run_chain
from hiddenpop.simulate import DgpConfig, read_truth_csv, simulate
from hiddenpop.spatial import build_queen_grid


def _run(*argv):
    return main(list(argv))


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("argv, message", [
    (("fit", "--data", "panel.csv"),
     "one of the arguments --grid --adjacency is required"),
    (("fit", "--data", "panel.csv", "--grid", "3x3", "--adjacency", "edges.txt"),
     "argument --adjacency: not allowed with argument --grid"),
    (("analyze", "--draws", "draws.npz", "--by-region", "--by-period"),
     "argument --by-period: not allowed with argument --by-region"),
], ids=["no-graph", "grid-and-adjacency", "region-and-period"])
def test_missing_or_conflicting_flags_are_usage_errors(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        _run(*argv, "--out", str(tmp_path / "out"))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (("analyze", "--draws", "draws.npz", "--levels", "0.9,abc"),
     "argument --levels: expected comma-separated numbers, got '0.9,abc'"),
    (("analyze", "--draws", "draws.npz", "--truth", "truth.csv", "--levels="),
     "argument --levels: expected at least one level, got none"),
    (("sir", "--counts", "counts.csv", "--thresholds", "0.9,x"),
     "argument --thresholds: expected comma-separated numbers, got '0.9,x'"),
    (("sir", "--counts", "counts.csv", "--thresholds="),
     "argument --thresholds: expected at least one level, got none"),
    (("analyze", "--draws", "draws.npz", "--truth", "truth.csv", "--levels", "0.9,,0.95"),
     "argument --levels: empty item in '0.9,,0.95'"),
    (("analyze", "--draws", "draws.npz", "--truth", "truth.csv", "--levels", "0.9,0.90"),
     "argument --levels: level 0.9 is repeated in '0.9,0.90'"),
    (("sir", "--counts", "counts.csv", "--thresholds", "0.9,"),
     "argument --thresholds: empty item in '0.9,'"),
    (("sir", "--counts", "counts.csv", "--thresholds", "0.95,0.9,0.95"),
     "argument --thresholds: level 0.95 is repeated in '0.95,0.9,0.95'"),
    (("fit", "--data", "panel.csv", "--grid", "0x5"),
     "argument --grid: grid sides must be positive, got '0x5'"),
    (("simulate", "--grid=-3x-3"),
     "argument --grid: grid sides must be positive, got '-3x-3'"),
], ids=["level-not-a-number", "no-levels", "threshold-not-a-number", "no-thresholds",
        "empty-level", "repeated-level", "empty-threshold", "repeated-threshold",
        "zero-grid-side", "negative-grid-sides"])
def test_levels_and_grids_are_checked_when_parsed(tmp_path, capsys, argv, message):
    # each parser words its own error, naming the flag, before any file is read
    with pytest.raises(SystemExit) as exc:
        _run(*argv, "--out", str(tmp_path / "out"))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestSimulateCommand:
    def test_panel_row_count_7x7(self, tmp_path):
        out = tmp_path / "sim"
        assert _run("simulate", "--grid", "7x7", "--periods", "5",
                    "--seed", "1", "--out", str(out)) == 0
        rows = _rows(out / "panel.csv")
        assert len(rows) - 1 == 49 * 5
        assert rows[0] == ["region", "time", "y", "x1", "x2"]

    def test_panel_row_count_14x14(self, tmp_path):
        out = tmp_path / "sim"
        assert _run("simulate", "--grid", "14x14", "--periods", "10",
                    "--out", str(out)) == 0
        assert len(_rows(out / "panel.csv")) - 1 == 1960

    def test_lambda_flag_records_derived_noise_scale(self, tmp_path):
        out = tmp_path / "sim"
        assert _run("simulate", "--lambda", "0.1", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["sigma_eps"] == pytest.approx(7.0)
        assert manifest["config"]["lambda"] == pytest.approx(0.1)

    def test_truth_sidecar_written(self, tmp_path):
        out = tmp_path / "sim"
        _run("simulate", "--grid", "3x3", "--periods", "2", "--out", str(out))
        rows = _rows(out / "truth.csv")
        assert rows[0] == ["region", "time", "u_plus", "eta_plus", "v", "alpha", "P"]
        assert len(rows) - 1 == 18


class TestFitCommand:
    def test_stored_draw_count_formula(self, tmp_path):
        sim = tmp_path / "sim"
        fit = tmp_path / "fit"
        _run("simulate", "--grid", "3x3", "--periods", "3", "--seed", "2",
             "--out", str(sim))
        assert _run("fit", "--data", str(sim / "panel.csv"), "--grid", "3x3",
                    "--iters", "900", "--burnin", "400", "--thin", "5",
                    "--seed", "3", "--out", str(fit)) == 0
        draws, y = load_draws(fit / "draws.npz")
        assert draws.n_draws == (900 - 400) // 5
        assert y.shape == (9, 3)

    def test_acceptance_reports_level_move(self, tmp_path):
        sim = tmp_path / "sim"
        fit = tmp_path / "fit"
        _run("simulate", "--grid", "3x3", "--periods", "3", "--seed", "2",
             "--out", str(sim))
        assert _run("fit", "--data", str(sim / "panel.csv"), "--grid", "3x3",
                    "--iters", "600", "--burnin", "100", "--thin", "5",
                    "--seed", "3", "--out", str(fit)) == 0
        rates = {q: float(v) for q, v in _rows(fit / "acceptance.csv")[1:]}
        assert set(rates) == {"accept_rate_alpha", "accept_rate_eps", "accept_rate_level",
                              "floored_draws", "stored_draws"}
        assert 0.0 < rates["accept_rate_level"] < 1.0

    def test_determinism_bit_identical_files(self, tmp_path):
        sim = tmp_path / "sim"
        _run("simulate", "--grid", "3x3", "--periods", "3", "--seed", "4",
             "--out", str(sim))
        outs = []
        for name in ("a", "b"):
            fit = tmp_path / name
            assert _run("fit", "--data", str(sim / "panel.csv"), "--grid", "3x3",
                        "--iters", "400", "--burnin", "200", "--thin", "2",
                        "--chains", "2", "--seed", "7", "--out", str(fit)) == 0
            outs.append(fit)
        assert (outs[0] / "draws.npz").read_bytes() == (outs[1] / "draws.npz").read_bytes()
        assert (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()

    def test_dimension_mismatch_fails_cleanly(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        fit = tmp_path / "fit"
        _run("simulate", "--grid", "3x3", "--periods", "3", "--out", str(sim))
        assert _run("fit", "--data", str(sim / "panel.csv"), "--grid", "2x2",
                    "--iters", "600", "--burnin", "100", "--out", str(fit)) == 1
        assert "regions" in capsys.readouterr().err
        assert not (fit / "draws.npz").exists()

    def test_too_few_draws_fail_before_the_panel_is_read(self, tmp_path, capsys):
        # the summary's HDI needs 100 draws; the panel file does not exist,
        # so an error about it shows the draw count was checked first
        common = ("fit", "--data", str(tmp_path / "nope.csv"), "--grid", "2x2",
                  "--iters", "60", "--burnin", "10", "--thin", "1", "--out", str(tmp_path / "fit"))
        assert _run(*common) == 1
        assert "1 chain(s) x 50 stored draws is fewer than the 100" in capsys.readouterr().err
        assert _run(*common, "--chains", "2") == 1
        assert "nope.csv" in capsys.readouterr().err
        assert _run(*common, "--chains", "0") == 1
        assert "chains must be >= 1, got 0" in capsys.readouterr().err

    def test_failed_rerun_leaves_no_manifest(self, tmp_path):
        sim = tmp_path / "sim"
        fit = tmp_path / "fit"
        _run("simulate", "--grid", "3x3", "--periods", "3", "--out", str(sim))
        common = ("fit", "--data", str(sim / "panel.csv"), "--grid", "3x3", "--out", str(fit))
        assert _run(*common, "--iters", "600", "--burnin", "100") == 0
        assert (fit / "manifest.json").exists()
        assert _run(*common, "--iters", "60", "--burnin", "10", "--thin", "1") == 1
        assert not (fit / "manifest.json").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        fit = tmp_path / "fit"
        _run("simulate", "--grid", "3x3", "--periods", "3", "--out", str(sim))
        cfg = tmp_path / "chain.cfg"
        cfg.write_text("iters=600\nburnin=100\nthin=2\nseed=5\n")
        assert _run("fit", "--data", str(sim / "panel.csv"), "--grid", "3x3",
                    "--config", str(cfg), "--thin", "4", "--out", str(fit)) == 0
        manifest = json.loads((fit / "manifest.json").read_text())
        assert manifest["config"]["n_iter"] == 600
        assert manifest["config"]["thin"] == 4  # flag wins over file
        # every bad line is an error naming file:line, and nothing is written
        for line, message in (
            ("center_car=true", "unknown key 'center_car'"),
            ("car_df=246", "unknown key 'car_df'"),
            ("stabilise=false", "unknown key 'stabilise'"),
            ("seed=6", "seed repeated, first set on line 1"),
            ("stabilize=flase", "stabilize must be one of 1/true/yes/on/0/false/no/off"),
            ("iters=abc", "iters must be int, got 'abc'"),
            ("mh_step_scale_eps=wide", "mh_step_scale_eps must be float, got 'wide'"),
        ):
            cfg.write_text(f"seed=5\n# the next line is wrong\n{line}\n")
            bad = tmp_path / "bad"
            assert _run("fit", "--data", str(sim / "panel.csv"), "--grid", "3x3",
                        "--config", str(cfg), "--out", str(bad)) == 1
            assert f"{cfg}:3: {message}" in capsys.readouterr().err
            assert list(bad.iterdir()) == []

    def test_step_scale_must_be_finite_and_positive(self, tmp_path, capsys):
        # a zero scale used to freeze the variance while acceptance.csv
        # still reported a healthy acceptance rate
        sim = tmp_path / "sim"
        _run("simulate", "--grid", "2x2", "--periods", "2", "--out", str(sim))
        common = ("fit", "--data", str(sim / "panel.csv"), "--grid", "2x2",
                  "--iters", "20", "--burnin", "10")
        cfg = tmp_path / "chain.cfg"
        bad = tmp_path / "bad"
        for flag, key in (("--mh-step-alpha", "mh_step_scale_alpha"),
                          ("--mh-step-eps", "mh_step_scale_eps")):
            for value in ("0", "-0.5", "nan", "inf"):
                cfg.write_text(f"{key}={value}\n")
                for how in ((f"{flag}={value}",), ("--config", str(cfg))):
                    assert _run(*common, *how, "--out", str(bad)) == 1
                    assert f"{key} must be finite and > 0" in capsys.readouterr().err
                    assert list(bad.iterdir()) == []

    def test_no_stabilize_flag_and_key_agree(self, tmp_path):
        sim = tmp_path / "sim"
        _run("simulate", "--grid", "3x3", "--periods", "3", "--seed", "2", "--out", str(sim))
        cfg = tmp_path / "chain.cfg"
        cfg.write_text("stabilize=false\n")
        common = ("fit", "--data", str(sim / "panel.csv"), "--grid", "3x3",
                  "--iters", "300", "--burnin", "100", "--thin", "2", "--seed", "3")
        assert _run(*common, "--no-stabilize", "--out", str(tmp_path / "flag")) == 0
        assert _run(*common, "--config", str(cfg), "--out", str(tmp_path / "key")) == 0
        for name in ("flag", "key"):
            fit = tmp_path / name
            manifest = json.loads((fit / "manifest.json").read_text())
            assert manifest["config"]["stabilize"] is False
            rates = dict(_rows(fit / "acceptance.csv")[1:])
            assert rates["accept_rate_level"] == "nan"
        assert ((tmp_path / "flag" / "draws.npz").read_bytes()
                == (tmp_path / "key" / "draws.npz").read_bytes())

    def test_draws_do_not_depend_on_blas_threads(self, tmp_path):
        # simulate's own outputs move with the thread count at N=900 (its
        # dense W @ z and eigh), so the panel is simulated once, here
        truth = simulate(DgpConfig(grid_rows=30, grid_cols=30, n_periods=10, seed=61))
        truth.dataset.to_csv(tmp_path / "panel.csv")
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(sys.path)}
            subprocess.run([sys.executable, "-m", "hiddenpop", "fit",
                            "--data", str(tmp_path / "panel.csv"), "--grid", "30x30",
                            "--iters", "110", "--burnin", "10", "--thin", "1",
                            "--seed", "61", "--out", str(out)],
                           env=env, check=True, timeout=300)
            digests.append(hashlib.sha256((out / "draws.npz").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_config_file_is_closed(self, tmp_path, monkeypatch):
        # an unclosed file warns while it is collected, where the error the
        # filter makes of the warning can only reach the unraisable hook
        cfg = tmp_path / "chain.cfg"
        cfg.write_text("iters=600\n# comment\nseed = 5\n")
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert _read_config_file(cfg) == {"n_iter": 600, "seed": 5}
            gc.collect()
        assert unraisable == []

    def test_adjacency_joins_regions_by_label(self, tmp_path):
        # the same panel and graph, once labelled 0..8 in row-major order and
        # once labelled 101..109 with the rows reversed, give the same draws
        sim = tmp_path / "sim"
        _run("simulate", "--grid", "3x3", "--periods", "3", "--seed", "2",
             "--out", str(sim))
        header, *rows = (sim / "panel.csv").read_text().splitlines()
        relabelled = tmp_path / "relabelled.csv"
        relabelled.write_text("\n".join(
            [header] + [f"{int(r.split(',', 1)[0]) + 101},{r.split(',', 1)[1]}"
                        for r in reversed(rows)]) + "\n")
        graph = build_queen_grid(3, 3)
        edges = list(zip(graph.edge_i.tolist(), graph.edge_j.tolist()))
        outs = []
        for data, offset in ((sim / "panel.csv", 0), (relabelled, 101)):
            adjacency = tmp_path / f"edges{offset}.txt"
            adjacency.write_text("".join(f"{i + offset} {j + offset}\n" for i, j in edges))
            outs.append(tmp_path / f"fit{offset}")
            assert _run("fit", "--data", str(data), "--adjacency", str(adjacency),
                        "--iters", "600", "--burnin", "100", "--thin", "5",
                        "--seed", "3", "--out", str(outs[-1])) == 0
        assert (outs[0] / "draws.npz").read_bytes() == (outs[1] / "draws.npz").read_bytes()

    def test_adjacency_label_missing_from_panel(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        _run("simulate", "--grid", "2x2", "--periods", "2", "--out", str(sim))
        adjacency = tmp_path / "edges.txt"
        adjacency.write_text("0 1\n0 2\n# region 4 does not exist\n2 4\n1 3\n")
        assert _run("fit", "--data", str(sim / "panel.csv"), "--adjacency", str(adjacency),
                    "--iters", "600", "--burnin", "100", "--out", str(tmp_path / "fit")) == 1
        assert "edges.txt:4: region 4 is not in the panel" in capsys.readouterr().err

    def test_export_csv(self, tmp_path):
        sim = tmp_path / "sim"
        fit = tmp_path / "fit"
        _run("simulate", "--grid", "3x3", "--periods", "3", "--out", str(sim))
        _run("fit", "--data", str(sim / "panel.csv"), "--grid", "3x3",
             "--iters", "300", "--burnin", "100", "--thin", "2",
             "--export-csv", "--out", str(fit))
        rows = _rows(fit / "draws.csv")
        assert rows[0][:4] == ["draw", "chain", "beta_1", "beta_2"]
        assert len(rows) - 1 == 100


class TestAnalyzeCommand:
    def _pipeline(self, tmp_path, with_truth=True):
        sim = tmp_path / "sim"
        fit = tmp_path / "fit"
        _run("simulate", "--grid", "4x4", "--periods", "3", "--seed", "6",
             "--out", str(sim))
        _run("fit", "--data", str(sim / "panel.csv"), "--grid", "4x4",
             "--iters", "900", "--burnin", "400", "--thin", "5",
             "--seed", "8", "--out", str(fit))
        return sim, fit

    def test_full_outputs_with_truth(self, tmp_path):
        sim, fit = self._pipeline(tmp_path)
        an = tmp_path / "an"
        assert _run("analyze", "--draws", str(fit / "draws.npz"),
                    "--truth", str(sim / "truth.csv"),
                    "--levels", "0.90,0.95,0.99", "--out", str(an)) == 0
        cov = _rows(an / "coverage.csv")
        assert [r[0] for r in cov[1:]] == ["0.9", "0.95", "0.99"]
        assert (an / "rho.csv").exists()
        assert len(_rows(an / "uncaptured.csv")) - 1 == 16 * 3
        # --per-draw-mape adds the per-draw row and leaves the point row as it was
        assert _run("analyze", "--draws", str(fit / "draws.npz"),
                    "--truth", str(sim / "truth.csv"), "--per-draw-mape",
                    "--out", str(tmp_path / "an2")) == 0
        header, point_row, per_draw_row = _rows(tmp_path / "an2" / "mape.csv")
        assert [header, point_row] == _rows(an / "mape.csv")
        draws, y_log = load_draws(fit / "draws.npz")
        p = read_truth_csv(sim / "truth.csv")["p"]
        q = np.exp(y_log) * np.exp(draws.eta_plus[:, :, None] + draws.u_plus)
        assert per_draw_row[0] == "per_draw"
        assert float(per_draw_row[1]) == pytest.approx(np.mean(np.abs(p - q) / p), rel=1e-5)

    def test_no_truth_mode_uncaptured_only(self, tmp_path):
        sim, fit = self._pipeline(tmp_path)
        an = tmp_path / "an"
        assert _run("analyze", "--draws", str(fit / "draws.npz"),
                    "--out", str(an)) == 0
        assert (an / "uncaptured.csv").exists()
        assert not (an / "coverage.csv").exists()

    def test_uncaptured_summary_matches_library(self, tmp_path):
        sim, fit = self._pipeline(tmp_path)
        an = tmp_path / "an"
        assert _run("analyze", "--draws", str(fit / "draws.npz"),
                    "--out", str(an)) == 0
        shares = uncaptured_summaries(load_draws(fit / "draws.npz")[0])
        assert _rows(an / "uncaptured_summary.csv") == [
            ["quantity", "value"],
            ["permanent_pct", FLOAT_FMT % shares.permanent_pct],
            ["total_pct", FLOAT_FMT % shares.total_pct],
            ["lambda", FLOAT_FMT % shares.lambda_stat],
            ["spatial_share", FLOAT_FMT % shares.spatial_share],
        ]
        manifest = json.loads((an / "manifest.json").read_text())
        assert "uncaptured_summary.csv" in manifest["outputs"]

    def test_rerun_removes_the_previous_runs_outputs(self, tmp_path):
        sim, fit = self._pipeline(tmp_path)
        an = tmp_path / "an"
        assert _run("analyze", "--draws", str(fit / "draws.npz"),
                    "--truth", str(sim / "truth.csv"), "--out", str(an)) == 0
        assert (an / "coverage.csv").exists()
        assert _run("analyze", "--draws", str(fit / "draws.npz"), "--out", str(an)) == 0
        listed = json.loads((an / "manifest.json").read_text())["outputs"]
        assert sorted(path.name for path in an.iterdir()) == sorted(listed + ["manifest.json"])
        assert "coverage.csv" not in listed

    def test_rerun_keeps_its_own_inputs(self, tmp_path):
        # analyze into the fit directory: fit's manifest lists draws.npz,
        # which this run reads, so only fit's other outputs go
        sim, fit = self._pipeline(tmp_path)
        assert _run("analyze", "--draws", str(fit / "draws.npz"), "--out", str(fit)) == 0
        assert (fit / "draws.npz").exists()
        assert not (fit / "summary.csv").exists()
        assert not (fit / "acceptance.csv").exists()

    def test_levels_without_truth_is_usage_error(self, tmp_path, capsys):
        sim, fit = self._pipeline(tmp_path)
        an = tmp_path / "an"
        assert _run("analyze", "--draws", str(fit / "draws.npz"),
                    "--levels", "0.9", "--out", str(an)) == 1
        assert "truth" in capsys.readouterr().err

    @pytest.mark.parametrize("count, message", [
        ("50", "an HDI needs at least 100 draws, got 50"),
        ("-5", "an HDI needs at least 100 draws, got -5"),
        ("abc", "expected a whole number, got 'abc'"),
    ], ids=["too-few", "negative", "not-a-number"])
    def test_beta_draws_are_checked_when_parsed(self, tmp_path, capsys, count, message):
        # rejected before the draws file is even looked for
        with pytest.raises(SystemExit) as exc:
            _run("analyze", "--draws", str(tmp_path / "nope.npz"), "--beta-draws", count,
                 "--out", str(tmp_path / "an"))
        assert exc.value.code == 2
        assert f"argument --beta-draws: {message}" in capsys.readouterr().err
        assert not (tmp_path / "an").exists()

    def test_missing_draws_file_fails(self, tmp_path, capsys):
        an = tmp_path / "an"
        assert _run("analyze", "--draws", str(tmp_path / "nope.npz"),
                    "--out", str(an)) == 1

    def test_grouped_uncaptured(self, tmp_path):
        sim, fit = self._pipeline(tmp_path)
        an = tmp_path / "an"
        assert _run("analyze", "--draws", str(fit / "draws.npz"),
                    "--by-region", "--out", str(an)) == 0
        rows = _rows(an / "uncaptured.csv")
        assert rows[0] == ["region", "pct"]
        assert len(rows) - 1 == 16


class TestSirCommand:
    def test_outputs(self, tmp_path):
        counts = tmp_path / "counts.csv"
        with counts.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["region", "time", "count", "population"])
            rng = np.random.default_rng(1)
            for i in range(8):
                for t in range(3):
                    writer.writerow([i, t, int(rng.poisson(30)), 1500])
        out = tmp_path / "sir"
        assert _run("sir", "--counts", str(counts), "--out", str(out)) == 0
        rows = _rows(out / "sir.csv")
        assert rows[0] == ["region", "time", "sir", "expected", "exceedance", "tier"]
        assert len(rows) - 1 == 24

    def test_nonpositive_population_rejected(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("region,time,count,population\n0,0,3,0\n1,0,1,10\n")
        out = tmp_path / "sir"
        assert _run("sir", "--counts", str(counts), "--out", str(out)) == 1
        assert not (out / "sir.csv").exists()


class TestDrawsRoundTrip:
    def test_save_load_identity(self, tmp_path):
        truth = simulate(DgpConfig(grid_rows=3, grid_cols=3, n_periods=3, seed=12))
        draws = run_chain(truth.dataset, truth.graph,
                          ChainConfig(n_iter=200, burn_in=100, thin=5, seed=1))
        path = tmp_path / "draws.npz"
        save_draws(draws, truth.dataset.y, path)
        back, y = load_draws(path)
        assert np.array_equal(back.beta, draws.beta)
        assert np.array_equal(back.u_plus, draws.u_plus)
        assert np.array_equal(y, truth.dataset.y)
        assert back.seed == draws.seed
        assert back.avg_row_sum == pytest.approx(draws.avg_row_sum)

    @staticmethod
    def _fixed_draws(s=40, n=400, t=10):
        rng = np.random.default_rng(2024)
        draws = PosteriorDraws(
            beta=rng.normal(size=(s, 2)), u_plus=rng.exponential(size=(s, n, t)),
            eta_plus=rng.exponential(size=(s, n)), v=rng.normal(size=(s, n)),
            sigma2_alpha=rng.gamma(2.0, size=s), sigma2_eps=rng.gamma(2.0, size=s),
            sigma2_v=rng.gamma(2.0, size=s), sigma2_u=rng.gamma(2.0, size=s),
            sigma2_eta=rng.gamma(2.0, size=s), seed=9, n_iter=80, burn_in=40, thin=1,
            avg_row_sum=6.5, accept_rate_alpha=0.4, accept_rate_eps=0.3, floored_count=2)
        return draws, rng

    @classmethod
    def _saved(cls, tmp_path, layout):
        """A saved draws file with a Fortran-ordered or a reversed-stride `y`,
        and the array each member holds."""
        draws, rng = cls._fixed_draws()
        n, t = draws.v.shape[1], draws.u_plus.shape[2]
        y = rng.normal(size=(t, n)).T if layout == "fortran" else rng.normal(size=(n, t))[:, ::-1]
        path = tmp_path / "draws.npz"
        save_draws(draws, y, path)
        arrays = {name: getattr(draws, name) for name in (
            "beta", "u_plus", "eta_plus", "v", "chain_id", "sigma2_alpha", "sigma2_eps",
            "sigma2_v", "sigma2_u", "sigma2_eta")}
        arrays.update(
            y=y, meta=np.array([9, 80, 40, 1], dtype=np.int64), avg_row_sum=np.array([6.5]),
            accept_rates=np.array([0.4, 0.3]), floored=np.array([2], dtype=np.int64))
        return path, arrays

    @staticmethod
    def _members(path):
        """(name, .npy bytes, raw deflate stream) for every member."""
        with zipfile.ZipFile(path) as zf, open(path, "rb") as fh:
            for info in zf.infolist():
                assert info.compress_type == zipfile.ZIP_DEFLATED
                fh.seek(info.header_offset + 26)
                name_len, extra_len = struct.unpack("<HH", fh.read(4))
                fh.seek(name_len + extra_len, 1)
                yield info.filename[:-len(".npy")], zf.read(info), fh.read(info.compress_size)

    @pytest.mark.parametrize("layout", ["fortran", "reversed"])
    def test_members_hold_the_npy_bytes(self, tmp_path, layout):
        path, arrays = self._saved(tmp_path, layout)
        names = []
        for name, npy, _ in self._members(path):
            expected = io.BytesIO()
            np.lib.format.write_array(expected, arrays[name], allow_pickle=False)
            assert npy == expected.getvalue(), name
            names.append(name)
        assert sorted(names) == sorted(arrays)
        _, y_back = load_draws(path)
        # write_array keeps Fortran order and stores a reversed-stride array in C order
        assert y_back.flags.f_contiguous == (layout == "fortran")
        assert y_back.flags.c_contiguous == (layout == "reversed")

    def test_large_members_are_huffman_coded(self, tmp_path):
        path, _ = self._saved(tmp_path, "fortran")
        coded = {}
        for name, npy, raw in self._members(path):
            huffman = len(npy) >= 64 << 10
            comp = zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, -15,
                                    zlib.DEF_MEM_LEVEL,
                                    zlib.Z_HUFFMAN_ONLY if huffman else zlib.Z_DEFAULT_STRATEGY)
            assert raw == comp.compress(npy) + comp.flush(), name
            coded[name] = huffman
        assert coded["u_plus"] and coded["eta_plus"] and not coded["y"] and not coded["chain_id"]

    def test_default_deflate_files_still_load(self, tmp_path):
        # draws.npz as earlier versions wrote it: every member at zlib's default level
        path, _ = self._saved(tmp_path, "fortran")
        old = tmp_path / "old.npz"
        with zipfile.ZipFile(old, "w", zipfile.ZIP_DEFLATED) as zf:
            for name, npy, _ in self._members(path):
                zf.writestr(name + ".npy", npy)
        (new_draws, new_y), (old_draws, old_y) = load_draws(path), load_draws(old)
        for field in ("beta", "u_plus", "eta_plus", "v", "chain_id", "sigma2_v"):
            a, b = getattr(new_draws, field), getattr(old_draws, field)
            assert np.array_equal(a, b) and a.dtype == b.dtype and a.flags.c_contiguous
        assert np.array_equal(new_y, old_y) and old_y.flags.f_contiguous
        assert (old_draws.seed, old_draws.floored_count) == (9, 2)

    # Recorded from the writer that Huffman-codes members of at least 64 KiB;
    # u_plus (1.28 MB) spans more than one write chunk.
    @pytest.mark.parametrize("layout, digest", [
        ("fortran", "7c080e0a71987b24850f12f3a95e43b038f5eea4fe11a882544d97166d9082ea"),
        ("reversed", "da96826137d8b0f2f87fc61e0cc13e6ded1f507d212ce21feae1801ab0c87dba"),
    ], ids=["fortran", "reversed"])
    def test_draws_file_bytes_are_pinned(self, tmp_path, layout, digest):
        path, arrays = self._saved(tmp_path, layout)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        back, y_back = load_draws(path)
        assert np.array_equal(back.u_plus, arrays["u_plus"])
        assert np.array_equal(y_back, arrays["y"])

    def test_failed_save_leaves_no_file(self, tmp_path):
        draws, _ = self._fixed_draws(s=4, n=3, t=2)
        draws.v = draws.v.astype(object)
        path = tmp_path / "draws.npz"
        with pytest.raises(ValueError, match="object dtype"):
            save_draws(draws, np.ones((3, 2)), path)
        assert list(tmp_path.iterdir()) == []

    def test_manifest_lists_outputs(self, tmp_path):
        out = tmp_path / "sim"
        _run("simulate", "--grid", "3x3", "--periods", "2", "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"panel.csv", "truth.csv"}
        assert manifest["subcommand"] == "simulate"
        assert "package_version" in manifest

    def test_previous_manifest_removes_only_bare_names_inside_out(self, tmp_path):
        out = tmp_path / "sim"
        (out / "sub").mkdir(parents=True)
        for path in (tmp_path / "outside.csv", out / "sub" / "inner.csv", out / "stray.csv"):
            path.write_text("x\n")
        (out / "manifest.json").write_text(json.dumps(
            {"outputs": ["../outside.csv", "sub/inner.csv", str(out / "stray.csv"),
                         "..", ".", "", "sub", 7, "stray.csv"]}))
        assert _run("simulate", "--grid", "2x2", "--periods", "2", "--out", str(out)) == 0
        assert (tmp_path / "outside.csv").exists() and (out / "sub" / "inner.csv").exists()
        assert not (out / "stray.csv").exists()

    @pytest.mark.parametrize("text", ["{", '["stray.csv"]', '{"outputs": "stray.csv"}'])
    def test_unreadable_previous_manifest_is_removed_alone(self, tmp_path, text):
        out = tmp_path / "sim"
        out.mkdir()
        (out / "stray.csv").write_text("x\n")
        (out / "manifest.json").write_text(text)
        assert _run("simulate", "--grid", "2x2", "--periods", "2", "--out", str(out)) == 0
        assert (out / "stray.csv").exists()
        assert json.loads((out / "manifest.json").read_text())["subcommand"] == "simulate"
