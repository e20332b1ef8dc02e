"""Golden output bytes: the CSV writers must not change a single byte.

A seeded 5x5x3 `simulate` writes `panel.csv` and `truth.csv`, and `sir`
screens a counts file whose cells are a fixed formula of the region and
period. The hashes were recorded from the row-by-row `csv.writer` writers,
so a faster writer has to reproduce their bytes exactly: the `\\r\\n` line
ends, the `%.6g` floats and the integer labels.

A short seeded `fit` of that panel (100 stored draws) followed by
`analyze --truth` at three levels writes the analyze files; their hashes
were recorded while `predictive_intervals` still rebuilt and re-sorted
the hidden-population draws once per level, so the one-pass interval
search and the column writer of `uncaptured.csv` must give the same bytes.
They were re-recorded once, when `fit --seed s` took the library's stream:
they are now the outputs of `run_chain` at seed 6, saved and analyzed, as
the sweep stood before that change. `coverage.csv` alone was re-recorded
once more, when `coverage_report` replaced its Monte Carlo mean and HDI of
20 000 Beta draws with the exact ones; its `a` and `b` columns kept their
values.

The rest were recorded later, from the same fit with `--export-csv` and
from `analyze --by-region` and `--by-period`: `summary.csv`,
`acceptance.csv`, `draws.csv`, `uncaptured_summary.csv` and both grouped
`uncaptured.csv`. They pin the row writer of the small tables.

The `two-chains/` files come from the same fit with `--chains 2`. They
were recorded while each chain still ran into arrays of its own that were
then stacked: `draws.npz` pins the chain ids and the order of the draws,
and `acceptance.csv` the rates averaged over the chains, which no draws
hash covers. `two-chains/draws.npz` was re-recorded once, with the draw
digests of `tests/test_golden_draws.py`, when a rounding-level pass over
the sweep moved the draws' last bits; every CSV here kept its hash.
"""

import hashlib

import pytest

from hiddenpop.cli import main

GOLDEN = {
    "panel.csv": "bfdfc8ba8f49b003debcbacfbc9f2b0bdded0b537989ea6e9fb451c05fe3ed3b",
    "truth.csv": "752430cc6a0e03e70f7fcbbaf9646ca0da45aa41817f8e96c64cf3617bec40fc",
    "sir.csv": "ca369fc819e8876fa8c05e1f085482c1ef7d721ec6a0f54d188008438f1807f3",
    "coverage.csv": "261ba4a65d295c87814a3b777cd66e5c97c03fef9dd8dadd0561f7b9b097c915",
    "mape.csv": "7cdced05aa1e83b23b9e0fea47c98658a839f7dc9d3f1cf008bab614de7adb93",
    "rho.csv": "a05dcde7a6ff4549bdb5adb91c6aed5993a5c8bbf228cb78a7798742234009b2",
    "uncaptured.csv": "a191f1f8d671fed24e8353fc4d8533078c0167b4c2cda61e8fe423fc9015cce1",
    "summary.csv": "e15f720dbad9e74147997aecedd6523f868c94fcc6f8c297dec28e0d7efe61e0",
    "acceptance.csv": "30f58b5c0300c8d36e906eae4613fe8df4cb9c9a9018b489746eceaf53b5049d",
    "draws.csv": "27ff6552bdd4e285c4990e1a0a8931d7bb9340beb073e1773d9ab3f08d585779",
    "uncaptured_summary.csv": "ee7b1e850690df19b551e712ef3fdc52bc32fcde6988ff0539ee5e2cf2a0c893",
    "by-region/uncaptured.csv": "95c153e461e3b4a31681ad93d6510a35eb9ee6b451a9ac391780d778a4773623",
    "by-period/uncaptured.csv": "b0c12a1d05ba92b4c593dab2dd8190e4884130defe5bcb24fc2d26ee5d0519a5",
    "two-chains/draws.npz": "a7e308a1c189f873ac9e19b131e356ed3ad79239051f10059df7c3ce5f9e3d73",
    "two-chains/acceptance.csv": "c14f99fac2c6b7309723f6258d86c86584e70c956415b58b05058300eda8b1f6",
    "two-chains/summary.csv": "68b11a098838c533d756625c1cb8343988cc6d7f5b94a1b5cf66b46a181195da",
}
ANALYZE_FILES = ("coverage.csv", "mape.csv", "rho.csv", "uncaptured.csv",
                 "uncaptured_summary.csv")
FIT_FILES = ("summary.csv", "acceptance.csv", "draws.csv")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["simulate", "--grid", "5x5", "--periods", "3", "--seed", "4",
                 "--out", str(root / "sim")]) == 0
    counts = root / "counts.csv"
    counts.write_text("region,time,count,population\n" + "".join(
        f"{i},{t},{(7 * i + 3 * t) % 11 + 1},{1000 + 37 * i + 5 * t}\n"
        for i in range(25) for t in range(3)))
    assert main(["sir", "--counts", str(counts), "--out", str(root / "sir")]) == 0
    fit = ["fit", "--data", str(root / "sim" / "panel.csv"), "--grid", "5x5",
           "--iters", "300", "--burnin", "100", "--thin", "2", "--seed", "6"]
    assert main(fit + ["--export-csv", "--out", str(root / "fit")]) == 0
    assert main(fit + ["--chains", "2", "--out", str(root / "two-chains")]) == 0
    draws = str(root / "fit" / "draws.npz")
    assert main(["analyze", "--draws", draws,
                 "--truth", str(root / "sim" / "truth.csv"), "--levels", "0.90,0.95,0.99",
                 "--out", str(root / "analyze")]) == 0
    for group in ("by-region", "by-period"):
        assert main(["analyze", "--draws", draws, f"--{group}",
                     "--out", str(root / group)]) == 0
    return {"panel.csv": root / "sim" / "panel.csv", "truth.csv": root / "sim" / "truth.csv",
            "sir.csv": root / "sir" / "sir.csv",
            **{name: root / "fit" / name for name in FIT_FILES},
            **{name: root / "analyze" / name for name in ANALYZE_FILES},
            **{name: root / name for name in GOLDEN if "/" in name}}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_identical_to_recorded(outputs, name):
    assert hashlib.sha256(outputs[name].read_bytes()).hexdigest() == GOLDEN[name]
