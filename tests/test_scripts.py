"""The study scripts write their tables through the package's CSV writer."""

import csv
import importlib.util
from pathlib import Path

from hiddenpop.data import FLOAT_FMT

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recovery_study_writes_one_row_per_parameter(tmp_path, monkeypatch, capsys):
    study = _load("run_recovery_study")
    monkeypatch.setattr(study, "SIZES", [(3, 3, 2)])
    out = tmp_path / "recovery.csv"
    assert study.main(["--quick", "--out", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    assert out.read_bytes().endswith(b"\r\n")
    with out.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["size", "parameter", "mean", "median", "hdi_lower", "hdi_upper"]
    names = [row[1] for row in rows]
    assert len(rows) == len(set(names)) == 11   # chain_summary rows of one size
    assert {"beta_1", "beta_2", "sigma_v", "minus_eta_plus"} <= set(names)
    for row in rows:
        assert row[0] == "N=9 T=2"
        assert all(cell == FLOAT_FMT % float(cell) for cell in row[2:])
