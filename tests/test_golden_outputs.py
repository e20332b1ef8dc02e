"""Golden output bytes: the CSV writers must not change a single byte.

A seeded 5x5x3 `simulate` writes `panel.csv` and `truth.csv`, and `sir`
screens a counts file whose cells are a fixed formula of the region and
period. The hashes were recorded from the row-by-row `csv.writer` writers,
so a faster writer has to reproduce their bytes exactly: the `\\r\\n` line
ends, the `%.6g` floats and the integer labels.
"""

import hashlib

import pytest

from hiddenpop.cli import main

GOLDEN = {
    "panel.csv": "bfdfc8ba8f49b003debcbacfbc9f2b0bdded0b537989ea6e9fb451c05fe3ed3b",
    "truth.csv": "752430cc6a0e03e70f7fcbbaf9646ca0da45aa41817f8e96c64cf3617bec40fc",
    "sir.csv": "ca369fc819e8876fa8c05e1f085482c1ef7d721ec6a0f54d188008438f1807f3",
}


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
    return {"panel.csv": root / "sim" / "panel.csv", "truth.csv": root / "sim" / "truth.csv",
            "sir.csv": root / "sir" / "sir.csv"}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_identical_to_recorded(outputs, name):
    assert hashlib.sha256(outputs[name].read_bytes()).hexdigest() == GOLDEN[name]
