import csv
import dataclasses
import errno
import hashlib
import io
import json
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import zipfile
import zlib

import numpy as np
import pytest

from hiddenpop import cli, sampler
from hiddenpop.analysis import hidden_population_draws, uncaptured_summaries, write_mape_csv
from hiddenpop.cli import load_draws, main, save_draws
from hiddenpop.data import FLOAT_FMT, PanelDataset
from hiddenpop.kernels import NumericalError
from hiddenpop.sampler import ChainConfig, PosteriorDraws, run_chain
from hiddenpop.simulate import DgpConfig, read_truth_csv, simulate
from hiddenpop.spatial import build_queen_grid


def _run(*argv):
    return main(list(argv))


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _deflated_alone(npy: bytes) -> tuple[bytes, bytes]:
    """The raw deflate stream and the zip comment save_draws writes for a
    member's .npy bytes, made from the whole member at once: zlib's default
    below 64 KiB; from 64 KiB up Huffman-only, with a full flush after each
    piece of `cli._SAVE_CHUNK_BYTES` bytes but the last, and the piece
    length and the offset of each later piece in the comment."""
    if len(npy) < 64 << 10:
        return zlib.compress(npy, wbits=-15), b""
    piece = cli._SAVE_CHUNK_BYTES
    comp = zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, -15,
                            zlib.DEF_MEM_LEVEL, zlib.Z_HUFFMAN_ONLY)
    stream, starts = comp.compress(npy[:piece]), []
    for at in range(piece, len(npy), piece):
        stream += comp.flush(zlib.Z_FULL_FLUSH)
        starts.append(len(stream))
        stream += comp.compress(npy[at:at + piece])
    index = " ".join(str(n) for n in (piece, *starts))
    return stream + comp.flush(), f"pieces {index}".encode() if starts else b""


@pytest.mark.parametrize("argv, message", [
    (("fit", "--data", "panel.csv"),
     "one of the arguments --grid --adjacency is required"),
    (("fit", "--data", "panel.csv", "--grid", "3x3", "--adjacency", "edges.txt"),
     "argument --adjacency: not allowed with argument --grid"),
    (("analyze", "--draws", "draws.npz", "--by-region", "--by-period"),
     "argument --by-period: not allowed with argument --by-region"),
    (("fit", "--data", "panel.csv", "--grid", "3x3", "--no-stabilize"),
     "unrecognized arguments: --no-stabilize"),
    (("fit", "--data", "panel.csv", "--grid", "3x3", "--config", "chain.cfg"),
     "unrecognized arguments: --config chain.cfg"),
], ids=["no-graph", "grid-and-adjacency", "region-and-period", "no-stabilize", "config-file"])
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

    def test_non_finite_value_names_file_and_line(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        panel.write_text("region,time,y,x1\n0,0,1,2\n0,1,nan,2\n1,0,1,2\n1,1,1,2\n")
        fit = tmp_path / "fit"
        assert _run("fit", "--data", str(panel), "--grid", "1x2", "--out", str(fit)) == 1
        assert capsys.readouterr().err == "error: panel.csv:3: y 'nan' is not a finite number\n"
        assert list(fit.iterdir()) == []

    def test_one_period_panel_fails_cleanly(self, tmp_path, capsys):
        for periods, code in (("1", 1), ("2", 0)):
            sim = tmp_path / f"sim{periods}"
            fit = tmp_path / f"fit{periods}"
            _run("simulate", "--grid", "3x3", "--periods", periods, "--out", str(sim))
            assert _run("fit", "--data", str(sim / "panel.csv"), "--grid", "3x3",
                        "--iters", "600", "--burnin", "100", "--out", str(fit)) == code
        assert "error: panel has 1 period(s); a fit needs at least 2" in capsys.readouterr().err
        assert list((tmp_path / "fit1").iterdir()) == []

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

    def test_panel_without_regressors_fits_and_analyzes(self, tmp_path):
        # a region,time,y panel: draws.npz holds (S, 0) slopes, and every
        # stage that follows reads them
        sim, fit, an = tmp_path / "sim", tmp_path / "fit", tmp_path / "an"
        _run("simulate", "--grid", "3x3", "--periods", "3", "--seed", "4", "--out", str(sim))
        panel = tmp_path / "panel.csv"
        panel.write_text("".join(",".join(row[:3]) + "\n" for row in _rows(sim / "panel.csv")))
        assert _run("fit", "--data", str(panel), "--grid", "3x3", "--iters", "300",
                    "--burnin", "100", "--thin", "2", "--export-csv", "--out", str(fit)) == 0
        draws, _ = load_draws(fit / "draws.npz")
        assert draws.beta.shape == (100, 0)
        rows = _rows(fit / "draws.csv")
        assert rows[0][:3] == ["draw", "chain", "sigma_alpha"] and len(rows) - 1 == 100
        assert _run("analyze", "--draws", str(fit / "draws.npz"),
                    "--truth", str(sim / "truth.csv"), "--out", str(an)) == 0
        assert len(_rows(an / "uncaptured.csv")) - 1 == 9 * 3


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

    def test_truth_with_no_nonzero_p_is_an_error(self, tmp_path, capsys):
        sim, fit = self._pipeline(tmp_path)
        rows = _rows(sim / "truth.csv")
        truth = tmp_path / "zero-truth.csv"
        with truth.open("w", newline="") as fh:
            csv.writer(fh).writerows([rows[0]] + [row[:-1] + ["0"] for row in rows[1:]])
        an = tmp_path / "an"
        for extra in ([], ["--per-draw-mape"]):
            assert _run("analyze", "--draws", str(fit / "draws.npz"), "--truth", str(truth),
                        *extra, "--out", str(an)) == 1
            assert capsys.readouterr().err == (
                f"error: {truth}: no cell has a nonzero P, so no percentage error is "
                f"defined\n")
            assert list(an.iterdir()) == []

    def test_truth_of_another_grid_names_both_files(self, tmp_path, capsys):
        sim, fit = self._pipeline(tmp_path)
        other = tmp_path / "other"
        assert _run("simulate", "--grid", "2x2", "--periods", "3", "--seed", "6",
                    "--out", str(other)) == 0
        an = tmp_path / "an"
        draws, truth = fit / "draws.npz", other / "truth.csv"
        assert _run("analyze", "--draws", str(draws), "--truth", str(truth),
                    "--out", str(an)) == 1
        assert capsys.readouterr().err == (
            f"error: {truth}: truth grid (4, 3) does not match the (16, 3) grid of {draws}\n")
        assert list(an.iterdir()) == []

    def test_levels_without_truth_is_usage_error(self, tmp_path, capsys):
        sim, fit = self._pipeline(tmp_path)
        an = tmp_path / "an"
        assert _run("analyze", "--draws", str(fit / "draws.npz"),
                    "--levels", "0.9", "--out", str(an)) == 1
        assert "truth" in capsys.readouterr().err

    def test_missing_draws_file_fails(self, tmp_path, capsys):
        an = tmp_path / "an"
        assert _run("analyze", "--draws", str(tmp_path / "nope.npz"),
                    "--out", str(an)) == 1

    def test_file_that_is_not_a_draws_file_fails(self, tmp_path, capsys):
        # an npz without the draws members (u_plus, the first member read,
        # is named), a single .npy array, an empty file and a zip cut to
        # half its length
        other = tmp_path / "other.npz"
        np.savez(other, a=np.arange(3))
        single = tmp_path / "single.npy"
        np.save(single, np.arange(3))
        empty = tmp_path / "empty.npz"
        empty.write_bytes(b"")
        cut = tmp_path / "cut.npz"
        whole = other.read_bytes()
        cut.write_bytes(whole[:len(whole) // 2])
        for path, reason in ((other, "u_plus is not a file in the archive"),
                             (single, "a single .npy array"),
                             (empty, "No data left in file"),
                             (cut, "File is not a zip file")):
            assert _run("analyze", "--draws", str(path), "--out", str(tmp_path / "an")) == 1
            assert capsys.readouterr().err == (
                f"error: {path}: not a hiddenpop draws file: {reason}\n")

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

    def test_rejected_value_names_file_and_line(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        out = tmp_path / "sir"
        for cell, message in (("-2,100", "count '-2' is not a nonnegative integer"),
                              ("2.5,100", "count '2.5' is not a nonnegative integer"),
                              ("3,0", "population '0' is not positive")):
            counts.write_text(f"region,time,count,population\n0,0,3,100\n1,0,{cell}\n")
            assert _run("sir", "--counts", str(counts), "--out", str(out)) == 1
            assert capsys.readouterr().err == f"error: counts.csv:3: {message}\n"
            assert list(out.iterdir()) == []

    def test_zero_total_periods_are_named_by_label(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("region,time,count,population\n1,2015,3,100\n2,2015,1,100\n"
                          "1,2016,0,100\n2,2016,0,100\n")
        assert _run("sir", "--counts", str(counts), "--out", str(tmp_path / "sir")) == 1
        assert capsys.readouterr().err == "error: periods with zero total count: time=2016\n"


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
            avg_row_sum=6.5, accept_rate_alpha=0.4, accept_rate_eps=0.3, floored_count=2,
            chain_id=np.zeros(s, dtype=np.int64))
        return draws, rng

    @classmethod
    def _saved(cls, tmp_path, layout, **sizes):
        """A saved draws file with a Fortran-ordered or a reversed-stride `y`,
        and the array each member holds."""
        draws, rng = cls._fixed_draws(**sizes)
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
        """(name, .npy bytes, raw deflate stream, zip comment) for every member."""
        with zipfile.ZipFile(path) as zf, open(path, "rb") as fh:
            for info in zf.infolist():
                assert info.compress_type == zipfile.ZIP_DEFLATED
                fh.seek(info.header_offset + 26)
                name_len, extra_len = struct.unpack("<HH", fh.read(4))
                fh.seek(name_len + extra_len, 1)
                yield (info.filename[:-len(".npy")], zf.read(info), fh.read(info.compress_size),
                       info.comment)

    @pytest.mark.parametrize("layout", ["fortran", "reversed"])
    def test_members_hold_the_npy_bytes(self, tmp_path, layout):
        path, arrays = self._saved(tmp_path, layout)
        names = []
        for name, npy, *_ in self._members(path):
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
        coded, comments = {}, {}
        for name, npy, raw, comment in self._members(path):
            assert (raw, comment) == _deflated_alone(npy), name
            coded[name] = len(npy) >= 64 << 10
            comments[name] = comment
        assert coded["u_plus"] and coded["eta_plus"] and not coded["y"] and not coded["chain_id"]
        # u_plus (1.28 MB) spans two 1 MiB pieces; every other member is one piece
        assert comments.pop("u_plus").split()[:2] == [b"pieces", b"1048576"]
        assert set(comments.values()) == {b""}

    # 101-byte pieces cut the 128-byte .npy header; 4099-byte pieces split
    # float64 values
    @pytest.mark.parametrize("piece", [101, 4099], ids=["header", "odd"])
    def test_pieces_hold_the_npy_bytes(self, monkeypatch, tmp_path, piece):
        monkeypatch.setattr(cli, "_SAVE_CHUNK_BYTES", piece)
        # u_plus is 72 KB, and only it reaches the 64 KiB of a Huffman-only member
        path, arrays = self._saved(tmp_path, "fortran", s=10, n=90, t=10)
        pieces = {}
        for name, npy, raw, comment in self._members(path):
            expected = io.BytesIO()
            np.lib.format.write_array(expected, arrays[name], allow_pickle=False)
            # zipfile inflates the pieces as one stream and checks its CRC-32
            assert npy == expected.getvalue(), name
            assert (raw, comment) == _deflated_alone(npy), name
            pieces[name] = len(comment.split()) - 1
        assert pieces.pop("u_plus") == -(-(128 + 72_000) // piece)
        assert set(pieces.values()) == {-1}
        back, y_back = load_draws(path)
        for name in ("beta", "u_plus", "eta_plus", "v", "chain_id", *cli._DRAWS_SCALARS):
            assert np.array_equal(getattr(back, name), arrays[name]), name
        assert np.array_equal(y_back, arrays["y"])

    @pytest.mark.parametrize("step", [1, 7, 4096])
    def test_any_inflate_step_reads_the_same_arrays(self, monkeypatch, tmp_path, step):
        # steps that cut block headers, values and the flush that ends a
        # piece, in deflated pieces and in a stored member
        monkeypatch.setattr(cli, "_SAVE_CHUNK_BYTES", 4099)
        path, arrays = self._saved(tmp_path, "fortran", s=10, n=90, t=10)
        stored = tmp_path / "stored.npz"
        np.savez(stored, **arrays)
        monkeypatch.setattr(cli, "_INFLATE_STEP_BYTES", step)
        for each in (path, stored):
            back, y_back = load_draws(each)
            assert np.array_equal(back.u_plus, arrays["u_plus"]), each
            assert np.array_equal(y_back, arrays["y"]), each

    def test_an_index_too_long_for_a_comment_is_left_out(self, monkeypatch, tmp_path):
        # 72 KB in 5-byte pieces is an index of more than 64 KiB; the member
        # is still one deflate stream, and reads as one piece
        monkeypatch.setattr(cli, "_SAVE_CHUNK_BYTES", 5)
        path, arrays = self._saved(tmp_path, "fortran", s=10, n=90, t=10)
        with zipfile.ZipFile(path) as zf:
            assert zf.getinfo("u_plus.npy").comment == b""
            assert zf.read("u_plus.npy")[128:] == arrays["u_plus"].tobytes()
        back, _ = load_draws(path)
        assert np.array_equal(back.u_plus, arrays["u_plus"])

    def test_default_deflate_files_still_load(self, tmp_path):
        # draws.npz as earlier versions wrote it: every member at zlib's default level
        path, _ = self._saved(tmp_path, "fortran")
        old = tmp_path / "old.npz"
        with zipfile.ZipFile(old, "w", zipfile.ZIP_DEFLATED) as zf:
            for name, npy, *_ in self._members(path):
                zf.writestr(name + ".npy", npy)
        (new_draws, new_y), (old_draws, old_y) = load_draws(path), load_draws(old)
        for field in ("beta", "u_plus", "eta_plus", "v", "chain_id", "sigma2_v"):
            a, b = getattr(new_draws, field), getattr(old_draws, field)
            assert np.array_equal(a, b) and a.dtype == b.dtype and a.flags.c_contiguous
        assert np.array_equal(new_y, old_y) and old_y.flags.f_contiguous
        assert (old_draws.seed, old_draws.floored_count) == (9, 2)

    # Recorded from the writer that Huffman-codes members of at least 64 KiB
    # in 1 MiB pieces; u_plus (1.28 MB) spans two pieces and two write chunks.
    @pytest.mark.parametrize("layout, digest", [
        ("fortran", "d29b1afec098592e4d927258c7a0213b5b199725c995f1418a158f80255997b6"),
        ("reversed", "04fbc28840b4ea0c9d0844c2f4470cac005149e6634aa7ce53cbd8b01c4cf0d1"),
    ], ids=["fortran", "reversed"])
    def test_draws_file_bytes_are_pinned(self, tmp_path, layout, digest):
        path, arrays = self._saved(tmp_path, layout)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        back, y_back = load_draws(path)
        assert np.array_equal(back.u_plus, arrays["u_plus"])
        assert np.array_equal(y_back, arrays["y"])

    def test_schema_names_every_stored_field_once_in_file_order(self, tmp_path):
        named = []
        for row in cli._DRAWS_SCHEMA:
            named += [row.fields] if isinstance(row.fields, str) else row.fields
        # draws.npz does not store the level move's acceptance rate
        stored = [f.name for f in dataclasses.fields(PosteriorDraws)
                  if f.name != "accept_rate_level"]
        assert sorted(named) == sorted(stored + ["y"])
        # the members of the file whose bytes test_draws_file_bytes_are_pinned pins
        path, _ = self._saved(tmp_path, "reversed")
        with zipfile.ZipFile(path) as zf:
            assert [info.filename for info in zf.infolist()] == [
                row.name + ".npy" for row in cli._DRAWS_SCHEMA]

    def test_pieces_deflate_independently(self, tmp_path):
        # Each 1 MiB piece of a Huffman-only member is what a fresh raw
        # Huffman-only compressor gives for that piece alone, ended by a
        # full flush, or by the end of the stream for the last piece; so
        # the pieces could be deflated apart and joined.
        path, _ = self._saved(tmp_path, "fortran", s=100)
        pieces = {}
        for name, npy, raw, comment in self._members(path):
            if not comment:
                continue
            piece, *starts = (int(n) for n in comment.split()[1:])
            bounds = [0, *starts, len(raw)]
            assert piece == 1 << 20 and len(bounds) - 1 == -(-len(npy) // piece)
            for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                alone = zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, -15,
                                         zlib.DEF_MEM_LEVEL, zlib.Z_HUFFMAN_ONLY)
                last = k == len(bounds) - 2
                stream = alone.compress(npy[k * piece:(k + 1) * piece]) + alone.flush(
                    zlib.Z_FINISH if last else zlib.Z_FULL_FLUSH)
                assert stream == raw[lo:hi], (name, k)
            pieces[name] = len(bounds) - 1
        # u_plus (3.2 MB) spans 4 pieces, the others fit in one
        assert pieces == {"u_plus": 4}

    def test_fortran_ordered_u_plus_loads(self, monkeypatch, tmp_path):
        # the .npy data is in the array's own order, read in pieces that
        # split its values: u_plus is 76.8 KB, over the 64 KiB from which a
        # member is Huffman-coded in pieces
        monkeypatch.setattr(cli, "_SAVE_CHUNK_BYTES", 1001)
        draws, _ = self._fixed_draws(s=6, n=400, t=4)
        draws.u_plus = np.asfortranarray(draws.u_plus)
        path = tmp_path / "draws.npz"
        save_draws(draws, np.ones((400, 4)), path)
        with zipfile.ZipFile(path) as zf:
            index = zf.getinfo("u_plus.npy").comment.split()
        assert index[:2] == [b"pieces", b"1001"] and len(index) - 1 == -(-(128 + 76_800) // 1001)
        back, _ = load_draws(path)
        assert np.array_equal(back.u_plus, draws.u_plus) and back.u_plus.flags.f_contiguous

    def test_loads_where_os_has_no_pread(self, monkeypatch, tmp_path):
        # each thread reads the file through a handle of its own, which
        # every platform has
        monkeypatch.setattr(cli, "_SAVE_CHUNK_BYTES", 4099)
        path, arrays = self._saved(tmp_path, "fortran", s=10, n=90, t=10)
        monkeypatch.delattr(os, "pread", raising=False)
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


@pytest.fixture
def deadline():
    """Fail, rather than hang, if a wait for a thread never ends."""
    def expire(signum, frame):
        raise TimeoutError("the command outlived the test's 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
class TestDrawsDeflatedWhileTheChainRuns:
    """fit deflates the large members of draws.npz on a second thread as
    the chain makes rows final, and the file keeps save_draws's bytes."""

    @pytest.fixture(scope="class")
    def panel(self, tmp_path_factory):
        # 100 stored draws of 100 regions x 5 periods: u_plus, eta_plus and
        # v are each at least 64 KiB, so all three are spooled
        path = tmp_path_factory.mktemp("panel") / "panel.csv"
        simulate(DgpConfig(grid_rows=10, grid_cols=10, n_periods=5, seed=14)).dataset.to_csv(path)
        return path

    @pytest.fixture
    def events(self, monkeypatch):
        """A log that gets "spool" when a spool starts, in order with what
        a test adds to it."""
        log = []
        start = cli._DeflateSpool._start

        def recorded_start(spool, draws):
            log.append("spool")
            start(spool, draws)

        monkeypatch.setattr(cli._DeflateSpool, "_start", recorded_start)
        return log

    @staticmethod
    def _fit(panel, out, *flags):
        return main(["fit", "--data", str(panel), "--grid", "10x10", "--iters", "110",
                     "--burnin", "10", "--thin", "1", "--seed", "8", "--out", str(out), *flags])

    @pytest.mark.parametrize("batch", [1, None], ids=["every-row", "default-batch"])
    @pytest.mark.parametrize("chains", [1, 2, 3])
    def test_file_has_the_bytes_save_draws_writes(self, monkeypatch, tmp_path, panel, events,
                                                  chains, batch):
        # 1 and 2 chains keep every member in one 1 MiB piece; with 3,
        # u_plus (1.2 MB) spans two
        self._check_spooled_file(monkeypatch, tmp_path, panel, events, chains, batch)

    @pytest.mark.parametrize("batch", [1, None], ids=["every-row", "default-batch"])
    @pytest.mark.parametrize("chains", [1, 2, 3])
    def test_pieces_have_the_bytes_save_draws_writes(self, monkeypatch, tmp_path, panel, events,
                                                     chains, batch):
        # a piece of 4099 bytes splits the rows of u_plus (4000 bytes),
        # eta_plus and v (800 bytes), and so does nearly every row batch
        monkeypatch.setattr(cli, "_SAVE_CHUNK_BYTES", 4099)
        self._check_spooled_file(monkeypatch, tmp_path, panel, events, chains, batch)

    def _check_spooled_file(self, monkeypatch, tmp_path, panel, events, chains, batch):
        # on 2 cores, 2 and 3 chains run one on a forked worker; with 3,
        # chain 2's rows wait for the worker's chain 1
        monkeypatch.setattr(sampler.os, "sched_getaffinity", lambda pid: {0, 1})
        if batch is not None:
            monkeypatch.setattr(cli, "_SPOOL_BATCH_BYTES", batch)
        returned = []
        chain = cli.run_chain

        def recorded_chain(*args, **kwargs):
            returned.append(chain(*args, **kwargs))
            events.append("returned")
            return returned[-1]

        monkeypatch.setattr(cli, "run_chain", recorded_chain)
        path = tmp_path / "fit" / "draws.npz"
        assert self._fit(panel, path.parent, "--chains", str(chains)) == 0
        assert events == ["spool", "returned"]
        save_draws(returned[0], PanelDataset.from_csv(panel).y, tmp_path / "alone.npz")
        assert path.read_bytes() == (tmp_path / "alone.npz").read_bytes()
        names = set()
        for name, npy, raw, comment in TestDrawsRoundTrip._members(path):
            assert (raw, comment) == _deflated_alone(npy), name
            names.add(name)
        assert len(names) == 15

    @pytest.mark.parametrize("thread", ["deflating", "waiting"])
    def test_failing_chain_leaves_no_file_and_no_thread(self, monkeypatch, tmp_path, panel,
                                                        events, capsys, thread):
        sweep = sampler._sweep
        calls = [0]

        def failing_sweep(*args):
            calls[0] += 1
            if calls[0] == 80:
                if thread == "waiting":
                    # ample time to deflate the 55 rows it was handed
                    time.sleep(0.5)
                raise NumericalError("planted failure")
            return sweep(*args)

        monkeypatch.setattr(sampler, "_sweep", failing_sweep)
        if thread == "deflating":
            # every row wakes the thread, which lags the chain
            monkeypatch.setattr(cli, "_SPOOL_BATCH_BYTES", 1)
        baseline = threading.active_count()
        out = tmp_path / "fit"
        assert self._fit(panel, out) == 1
        assert capsys.readouterr().err == "error: iteration 80: planted failure\n"
        assert events == ["spool"]
        # no draws.npz, no draws.npz.tmp and no spool file
        assert list(out.iterdir()) == []
        assert threading.active_count() == baseline

    def test_failing_spool_write_is_an_error(self, monkeypatch, tmp_path, panel, events, capsys):
        class FullDisk:
            def __init__(self, *args, **kwargs):
                pass

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

            def close(self):
                pass

        monkeypatch.setattr(cli.tempfile, "TemporaryFile", FullDisk)
        baseline = threading.active_count()
        out = tmp_path / "fit"
        assert self._fit(panel, out) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert events == ["spool"]
        assert list(out.iterdir()) == []
        assert threading.active_count() == baseline

    def test_failing_spool_batch_stops_the_chain_early(self, monkeypatch, tmp_path, panel,
                                                       events, capsys):
        def failing_compress(deflater, data):
            raise OSError("planted deflate failure")

        sweep = sampler._sweep
        calls = [0]

        def counted_sweep(*args):
            calls[0] += 1
            return sweep(*args)

        monkeypatch.setattr(cli._PieceDeflater, "compress", failing_compress)
        monkeypatch.setattr(sampler, "_sweep", counted_sweep)
        # every stored row is a batch, and the first one fails
        monkeypatch.setattr(cli, "_SPOOL_BATCH_BYTES", 1)
        baseline = threading.active_count()
        out = tmp_path / "fit"
        # 1000 stored rows; the hook raises the failure at a call soon after it
        assert self._fit(panel, out, "--iters", "1010") == 1
        assert capsys.readouterr().err == "error: planted deflate failure\n"
        assert events == ["spool"]
        assert 10 < calls[0] < 500
        assert list(out.iterdir()) == []
        assert threading.active_count() == baseline

    def test_no_thread_is_alive_when_a_worker_forks(self, monkeypatch, tmp_path, panel, events):
        # Python 3.12 and later warn on a fork from a process with threads,
        # and the suite turns warnings into errors
        monkeypatch.setattr(sampler.os, "sched_getaffinity", lambda pid: {0, 1})
        start = multiprocessing.context.ForkProcess.start

        def recorded_start(proc):
            events.append(("fork", threading.active_count()))
            start(proc)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", recorded_start)
        baseline = threading.active_count()
        assert self._fit(panel, tmp_path / "fit", "--chains", "2") == 0
        assert events == [("fork", baseline), "spool"]
        assert threading.active_count() == baseline


@pytest.mark.usefixtures("deadline")
class TestDrawsInflatedBesideTheAnalysis:
    """load_draws inflates u_plus a piece at a time on two threads, the
    second starting while the calling thread reads the other members; no
    output changes a byte, and the second thread never outlives the
    command."""

    @pytest.fixture(scope="class")
    def fits(self, tmp_path_factory):
        # 100 stored draws (200 with two chains) of 100 regions x 5 periods:
        # u_plus is 4000 bytes a row
        base = tmp_path_factory.mktemp("fits")
        assert main(["simulate", "--grid", "10x10", "--periods", "5", "--seed", "14",
                     "--out", str(base)]) == 0
        for chains in (1, 2):
            assert main(["fit", "--data", str(base / "panel.csv"), "--grid", "10x10",
                         "--iters", "110", "--burnin", "10", "--thin", "1", "--seed", "8",
                         "--chains", str(chains), "--out", str(base / f"chains{chains}")]) == 0
        return base

    @pytest.fixture
    def reader(self, monkeypatch):
        """Every read of the file's pieces 10 ms late, so the second thread
        is still inflating when the analysis fails, and would still be for a
        while if it were not joined; the list gets each started thread."""
        threads = []
        start, pread = cli._PieceReader.start, cli._pread

        def recorded_start(piece_reader, *args):
            start(piece_reader, *args)
            threads.append(piece_reader._executor)

        def late_pread(fh, n, at):
            time.sleep(0.01)
            return pread(fh, n, at)

        monkeypatch.setattr(cli._PieceReader, "start", recorded_start)
        monkeypatch.setattr(cli, "_pread", late_pread)
        return threads

    @staticmethod
    def _in_pieces(monkeypatch, path, piece, out):
        """The draws file at `path` saved again, in pieces of `piece` bytes."""
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_SAVE_CHUNK_BYTES", piece)
            save_draws(*load_draws(path), out)
        return out

    @staticmethod
    def _analyze(draws, out, *flags):
        return main(["analyze", "--draws", str(draws), "--out", str(out), *flags])

    # a row of u_plus is 4000 bytes; pieces of 4099 split its values
    @pytest.mark.parametrize("piece", [4000, 4099, 1 << 40], ids=["one-row", "odd", "all-rows"])
    @pytest.mark.parametrize("chains", [1, 2])
    def test_load_draws_returns_what_np_load_reads(self, monkeypatch, tmp_path, fits, piece,
                                                   chains):
        path = self._in_pieces(monkeypatch, fits / f"chains{chains}" / "draws.npz", piece,
                               tmp_path / "draws.npz")
        with np.load(path) as z:
            stored = {name: z[name] for name in z.files}
            comment = z.zip.getinfo("u_plus.npy").comment
        # the .npy header is 128 bytes
        pieces = -(-(128 + 4000 * 100 * chains) // piece)
        assert len(comment.split()) == (0 if pieces == 1 else pieces + 1)
        draws, y = load_draws(path)
        assert draws.n_draws == 100 * chains
        for name in ("beta", "u_plus", "eta_plus", "v", "chain_id", "sigma2_alpha",
                     "sigma2_eps", "sigma2_v", "sigma2_u", "sigma2_eta"):
            got = getattr(draws, name)
            assert np.array_equal(got, stored[name]) and got.dtype == stored[name].dtype, name
        assert draws.u_plus.flags.c_contiguous
        assert np.array_equal(y, stored["y"])
        assert [draws.seed, draws.n_iter, draws.burn_in, draws.thin] == stored["meta"].tolist()

    @pytest.mark.parametrize("flags", [(), ("--by-region",), ("--per-draw-mape",), None],
                             ids=["truth", "by-region", "per-draw-mape", "no-truth"])
    @pytest.mark.parametrize("chains", [1, 2])
    def test_outputs_do_not_depend_on_the_chunk_size(self, monkeypatch, tmp_path, fits,
                                                     flags, chains):
        # the chunk is the piece the draws file was written in
        truth = () if flags is None else ("--truth", str(fits / "truth.csv"), *flags)
        outputs = []
        for piece in (4000, 1 << 40):
            draws = self._in_pieces(monkeypatch, fits / f"chains{chains}" / "draws.npz", piece,
                                    tmp_path / f"draws{piece}.npz")
            out = tmp_path / f"piece{piece}"
            assert self._analyze(draws, out, *truth) == 0
            outputs.append({path.name: path.read_bytes() for path in out.glob("*.csv")})
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == (2 if flags is None else 5)

    def test_per_draw_mape_is_the_row_of_fresh_draws(self, monkeypatch, tmp_path, fits):
        summaries = []
        summary = cli.mape_summary
        monkeypatch.setattr(cli, "mape_summary", lambda *args: (
            summaries.append(summary(*args)) or summaries[-1]))
        assert self._analyze(fits / "chains1" / "draws.npz", tmp_path / "an",
                             "--truth", str(fits / "truth.csv"), "--per-draw-mape") == 0
        draws, y_log = load_draws(fits / "chains1" / "draws.npz")
        fresh = summary(hidden_population_draws(draws, np.exp(y_log)),
                        read_truth_csv(fits / "truth.csv")["p"])
        # every value to the bit, and so the row's bytes
        assert [s for s in summaries if s.per_draw] == [fresh]
        write_mape_csv([fresh], tmp_path / "fresh.csv")
        assert _rows(tmp_path / "an" / "mape.csv")[2] == _rows(tmp_path / "fresh.csv")[1]

    def test_no_thread_is_left_after_analyze(self, tmp_path, fits, reader):
        baseline = threading.active_count()
        assert self._analyze(fits / "chains1" / "draws.npz", tmp_path / "an",
                             "--truth", str(fits / "truth.csv")) == 0
        assert len(reader) == 1
        assert threading.active_count() == baseline

    def test_both_threads_inflate_pieces(self, monkeypatch, tmp_path, fits):
        path = self._in_pieces(monkeypatch, fits / "chains1" / "draws.npz", 4099,
                               tmp_path / "draws.npz")
        pieces = []
        read = cli._PieceReader._read

        def recorded_read(piece_reader, fh, k):
            pieces.append((k, threading.get_ident(), fh))
            time.sleep(0.002)
            read(piece_reader, fh, k)

        monkeypatch.setattr(cli._PieceReader, "_read", recorded_read)
        draws, _ = load_draws(path)
        # 400 128 bytes in 98 pieces, each read once, some on each thread
        assert sorted(k for k, *_ in pieces) == list(range(98))
        assert len({thread for _, thread, _ in pieces}) == 2
        assert threading.get_ident() in {thread for _, thread, _ in pieces}
        # each thread reads through a handle of its own, closed once it is done
        handles = {thread: fh for _, thread, fh in pieces}
        assert all(fh is handles[thread] for _, thread, fh in pieces)
        assert len({id(fh) for fh in handles.values()}) == 2
        assert all(fh.closed for fh in handles.values())
        with np.load(path) as z:
            assert np.array_equal(draws.u_plus, z["u_plus"])

    def test_each_piece_is_taken_once_under_fast_switching(self, monkeypatch, tmp_path, fits):
        # the two threads share one counter of pieces; with the interpreter
        # switching threads every microsecond, a piece taken twice or skipped
        # would show in the list, or as a wrong array
        path = self._in_pieces(monkeypatch, fits / "chains1" / "draws.npz", 4099,
                               tmp_path / "draws.npz")
        with np.load(path) as z:
            stored = z["u_plus"]
        taken = []
        read = cli._PieceReader._read
        monkeypatch.setattr(cli._PieceReader, "_read", lambda piece_reader, fh, k: (
            taken.append(k), read(piece_reader, fh, k)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                taken.clear()
                draws, _ = load_draws(path)
                assert sorted(taken) == list(range(98))
                assert np.array_equal(draws.u_plus, stored)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _u_plus_at(path) -> int:
        """Where the deflate stream of u_plus.npy starts in the file."""
        with zipfile.ZipFile(path) as zf, open(path, "rb") as fh:
            info = zf.getinfo("u_plus.npy")
            fh.seek(info.header_offset + 26)
            name_len, extra_len = struct.unpack("<HH", fh.read(4))
            return info.header_offset + 30 + name_len + extra_len

    def _fails_cleanly(self, bad, fits, capsys, reason):
        """analyze of `bad` is the draws-file error with `reason`, writes
        nothing, and leaves no thread behind."""
        baseline = threading.active_count()
        out = bad.parent / "an"
        assert self._analyze(bad, out, "--truth", str(fits / "truth.csv")) == 1
        assert capsys.readouterr().err == f"error: {bad}: not a hiddenpop draws file: {reason}\n"
        assert list(out.iterdir()) == []
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("damage, reason", [
        ("flipped", "Bad CRC-32 for file 'u_plus.npy'"),
        ("junk", "Error -3 while decompressing data: invalid block type"),
        ("cut-stream", "Bad CRC-32 for file 'u_plus.npy'"),
        ("short-npy", "u_plus holds fewer values than its header says"),
        ("huge-header", "u_plus holds fewer values than its header says"),
    ])
    def test_damaged_u_plus_is_an_error(self, tmp_path, fits, reader, capsys, damage, reason):
        whole = fits / "chains1" / "draws.npz"
        bad = tmp_path / "bad.npz"
        if damage in ("flipped", "junk"):
            # past the first block's header, which is inflated with the
            # .npy header, before the thread starts
            data = bytearray(whole.read_bytes())
            at = self._u_plus_at(whole) + 200_000
            if damage == "flipped":
                data[at] ^= 0xFF
            else:
                data[at:at + 64] = b"\xff" * 64
            bad.write_bytes(bytes(data))
        else:
            with zipfile.ZipFile(bad, "w", zipfile.ZIP_DEFLATED) as zf:
                for name, npy, raw, _ in TestDrawsRoundTrip._members(whole):
                    if name != "u_plus":
                        zf.writestr(name + ".npy", npy)
                    elif damage == "short-npy":
                        zf.writestr(name + ".npy", npy[:-6000])
                    elif damage == "huge-header":
                        # a shape of 8 EB, which is not allocated
                        header = io.BytesIO()
                        np.lib.format.write_array_header_1_0(header, {
                            "descr": "<f8", "fortran_order": False,
                            "shape": (10 ** 9, 10 ** 6, 1000)})
                        zf.writestr(name + ".npy", header.getvalue() + npy[128:])
                    else:
                        with zf.open(name + ".npy", "w") as member:
                            # the archive records the whole member, but
                            # holds only half its deflate stream
                            member._compressor = _CutStream(raw[:len(raw) // 2])
                            member.write(npy)
        self._fails_cleanly(bad, fits, capsys, reason)
        assert len(reader) == (0 if damage in ("short-npy", "huge-header") else 1)

    @pytest.mark.parametrize("damage, reason", [
        ("flipped", "Bad CRC-32 for file 'u_plus.npy'"),
        ("junk", "Error -3 while decompressing data: invalid block type"),
    ])
    def test_damaged_piece_is_an_error(self, monkeypatch, tmp_path, fits, reader, capsys,
                                       damage, reason):
        path = self._in_pieces(monkeypatch, fits / "chains1" / "draws.npz", 4099,
                               tmp_path / "draws.npz")
        with zipfile.ZipFile(path) as zf:
            starts = [int(n) for n in zf.getinfo("u_plus.npy").comment.split()[2:]]
        data = bytearray(path.read_bytes())
        # inside piece 60, or over the start of its first deflate block
        at = self._u_plus_at(path) + starts[59]
        if damage == "flipped":
            data[at + 1000] ^= 0xFF
        else:
            data[at:at + 64] = b"\xff" * 64
        bad = tmp_path / "bad" / "bad.npz"
        bad.parent.mkdir()
        bad.write_bytes(bytes(data))
        reader.clear()   # the thread that read the draws to save them again
        self._fails_cleanly(bad, fits, capsys, reason)
        assert len(reader) == 1

    @staticmethod
    def _with_index(path, out, index):
        """A copy of the draws file at `path` whose u_plus member has the
        comment `index(comment)`; every deflate stream is copied as it is."""
        with zipfile.ZipFile(out, "w", zipfile.ZIP_DEFLATED) as zf:
            for name, npy, raw, comment in TestDrawsRoundTrip._members(path):
                info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
                info.compress_type = zipfile.ZIP_DEFLATED
                with zf.open(info, "w") as member:
                    member._compressor = _CutStream(raw)
                    member.write(npy)
                info.comment = index(comment) if name == "u_plus" else comment
        return out

    @pytest.mark.parametrize("index, reason", [
        (lambda fields: fields[:3] + fields[4:5] + fields[3:4] + fields[5:], None),
        (lambda fields: fields[:-1] + [b"%d" % (int(fields[-1]) + 10 ** 9)], None),
        (lambda fields: fields[:-1], None),
        (lambda fields: fields + fields[-1:], None),
        (lambda fields: fields[:1] + [b"8198"] + fields[2:], None),
        (lambda fields: fields[:1] + [b"0"] + fields[2:], None),
        (lambda fields: fields[:2] + [b"x"] + fields[3:], None),
        # as many pieces as 4099 bytes give, but they end in the wrong places
        (lambda fields: fields[:1] + [b"4100"] + fields[2:], "Bad CRC-32 for file 'u_plus.npy'"),
    ], ids=["decreasing", "past-the-end", "too-few", "too-many", "wrong-count", "zero-length",
            "not-a-number", "misplaced"])
    def test_bad_piece_index_is_an_error(self, monkeypatch, tmp_path, fits, capsys, index,
                                         reason):
        path = self._in_pieces(monkeypatch, fits / "chains1" / "draws.npz", 4099,
                               tmp_path / "draws.npz")
        # the copy keeps every byte
        same = self._with_index(path, tmp_path / "same.npz", lambda comment: comment)
        assert same.read_bytes() == path.read_bytes()
        bad = tmp_path / "bad" / "bad.npz"
        bad.parent.mkdir()
        self._with_index(path, bad, lambda comment: b" ".join(index(comment.split())))
        self._fails_cleanly(bad, fits, capsys, reason or "u_plus.npy has a bad piece index")

    @pytest.mark.parametrize("writer", ["no-index", "foreign-comment", "savez_compressed",
                                        "savez"])
    def test_files_without_an_index_load(self, monkeypatch, tmp_path, fits, writer):
        # each loads as one piece, to the same arrays as the file in pieces
        path = self._in_pieces(monkeypatch, fits / "chains2" / "draws.npz", 4099,
                               tmp_path / "draws.npz")
        with np.load(path) as z:
            stored = {name: z[name] for name in z.files}
        other = tmp_path / "other.npz"
        if writer in ("no-index", "foreign-comment"):
            comment = b"" if writer == "no-index" else b"written by hand"
            self._with_index(path, other, lambda _: comment)
        else:
            getattr(np, writer)(other, **stored)
        with zipfile.ZipFile(other) as zf:
            assert zf.getinfo("u_plus.npy").compress_type == (
                zipfile.ZIP_STORED if writer == "savez" else zipfile.ZIP_DEFLATED)
        (draws, y), (other_draws, other_y) = load_draws(path), load_draws(other)
        for name in ("beta", "u_plus", "eta_plus", "v", "chain_id", *cli._DRAWS_SCALARS):
            a, b = getattr(draws, name), getattr(other_draws, name)
            assert a.tobytes() == b.tobytes() and a.dtype == b.dtype and a.shape == b.shape, name
        assert y.tobytes() == other_y.tobytes()

    @pytest.mark.parametrize("member, value, reason", [
        ("meta", np.array([9, 80], dtype=np.int64), "meta has shape (2,), not (4,)"),
        ("accept_rates", np.array([0.4]), "accept_rates has shape (1,), not (2,)"),
        ("avg_row_sum", np.array([]), "avg_row_sum has shape (0,), not (1,)"),
        ("floored", np.zeros((1, 1), dtype=np.int64), "floored has shape (1, 1), not (1,)"),
        ("eta_plus", np.zeros((50, 100)), "eta_plus has shape (50, 100), not (100, 100)"),
        ("v", np.zeros((100, 99)), "v has shape (100, 99), not (100, 100)"),
        ("sigma2_u", np.ones(99), "sigma2_u has shape (99,), not (100,)"),
        ("chain_id", np.zeros(10, dtype=np.int64), "chain_id has shape (10,), not (100,)"),
        ("beta", np.zeros(100), "beta has shape (100,), not (100, slopes)"),
        ("y", np.zeros((5, 100)), "y has shape (5, 100), not (100, 5)"),
        ("u_plus", np.zeros((100, 500)), "u_plus has shape (100, 500), "
                                         "not (draws, regions, periods)"),
    ], ids=lambda value: value if isinstance(value, str) and " " not in value else None)
    def test_members_that_do_not_agree_are_an_error(self, tmp_path, fits, capsys, member, value,
                                                    reason):
        with np.load(fits / "chains1" / "draws.npz") as z:
            stored = {name: z[name] for name in z.files}
        bad = tmp_path / "bad" / "bad.npz"
        bad.parent.mkdir()
        np.savez_compressed(bad, **{**stored, member: value})
        self._fails_cleanly(bad, fits, capsys, reason)

    @pytest.mark.parametrize("member, change, reason", [
        ("u_plus", lambda a: a + 0j, "u_plus has dtype complex128, not float64"),
        ("eta_plus", lambda a: a > 0, "eta_plus has dtype bool, not float64"),
        ("y", lambda a: a.astype(str), "y has dtype <U32, not float64"),
        ("chain_id", lambda a: a + 0.5, "chain_id has dtype float64, not int64"),
    ], ids=["complex-u_plus", "bool-eta_plus", "str-y", "float-chain_id"])
    def test_members_of_the_wrong_dtype_are_an_error(self, tmp_path, fits, reader, capsys,
                                                     member, change, reason):
        with np.load(fits / "chains1" / "draws.npz") as z:
            stored = {name: z[name] for name in z.files}
        bad = tmp_path / "bad" / "bad.npz"
        bad.parent.mkdir()
        np.savez_compressed(bad, **{**stored, member: change(stored[member])})
        self._fails_cleanly(bad, fits, capsys, reason)

    # a header of 8 EB, which is not allocated, and one that leaves values
    # out; test_damaged_u_plus_is_an_error gives u_plus the first
    @pytest.mark.parametrize("member, damage", [
        (row.name, damage) for row in cli._DRAWS_SCHEMA for damage in ("huge", "fewer")
        if (row.name, damage) != ("u_plus", "huge")])
    def test_damaged_header_is_an_error(self, tmp_path, fits, reader, capsys, member, damage):
        whole = fits / "chains1" / "draws.npz"
        bad = tmp_path / "bad.npz"
        with zipfile.ZipFile(bad, "w", zipfile.ZIP_DEFLATED) as zf:
            for name, npy, *_ in TestDrawsRoundTrip._members(whole):
                if name == member:
                    stream = io.BytesIO(npy)
                    np.lib.format.read_magic(stream)
                    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(stream)
                    header = io.BytesIO()
                    np.lib.format.write_array_header_1_0(header, {
                        "descr": np.lib.format.dtype_to_descr(dtype),
                        "fortran_order": fortran_order,
                        "shape": ((10 ** 9, 10 ** 6, 1000) if damage == "huge"
                                  else (shape[0] - 1, *shape[1:]))})
                    npy = header.getvalue() + npy[stream.tell():]
                zf.writestr(name + ".npy", npy)
        more = "fewer values" if damage == "huge" else "more bytes"
        self._fails_cleanly(bad, fits, capsys, f"{member} holds {more} than its header says")
        # u_plus is read first, and starts the thread once its header is sound
        assert len(reader) == (0 if member == "u_plus" else 1)

    def test_missing_member_is_an_error(self, tmp_path, fits, reader, capsys):
        # y is read last on the calling thread, while u_plus is still being
        # inflated on the other
        whole = fits / "chains1" / "draws.npz"
        bad = tmp_path / "bad.npz"
        with zipfile.ZipFile(bad, "w", zipfile.ZIP_DEFLATED) as zf:
            for name, npy, *_ in TestDrawsRoundTrip._members(whole):
                if name != "y":
                    zf.writestr(name + ".npy", npy)
        baseline = threading.active_count()
        out = tmp_path / "an"
        assert self._analyze(bad, out, "--truth", str(fits / "truth.csv")) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: not a hiddenpop draws file: y is not a file in the archive\n")
        assert len(reader) == 1
        assert list(out.iterdir()) == []
        assert threading.active_count() == baseline

    def test_missing_truth_file_is_an_error(self, tmp_path, fits, reader, capsys):
        # the truth file is read before the draws, so no thread starts
        baseline = threading.active_count()
        out = tmp_path / "an"
        missing = tmp_path / "nope.csv"
        assert self._analyze(fits / "chains1" / "draws.npz", out, "--truth", str(missing)) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n")
        assert reader == []
        assert list(out.iterdir()) == []
        assert threading.active_count() == baseline


class _CutStream:
    """Stands in for a zip member's compressor and writes `stream` in place
    of the member's deflate stream."""

    def __init__(self, stream: bytes):
        self._stream = stream

    def compress(self, data) -> bytes:
        return b""

    def flush(self) -> bytes:
        return self._stream
