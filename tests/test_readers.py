"""The one balanced-panel reader behind the three CSV formats.

The oracles below are the original per-format readers, which mapped a
label to its row with `sorted_list.index` (O(N^2 T)) and parsed each cell
with `int()` or `float()`. The property tests check that the linear-time
reader returns the same arrays and labels for every format, whether
numpy's parser or the csv module reads the file; the error tests check
that each bad input names `file:line`.
"""

import csv
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiddenpop.data import CountPanel, PanelDataset
from hiddenpop.simulate import _TRUTH_HEADER, read_truth_csv


def oracle_panel(path):
    path = Path(path)
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        k = len(header) - 3
        rows = [r for r in reader if r]
    cells = {}
    for r in rows:
        key = (int(r[0]), int(r[1]))
        assert key not in cells
        cells[key] = [float(v) for v in r[2:]]
    regions = sorted({key[0] for key in cells})
    times = sorted({key[1] for key in cells})
    n, t = len(regions), len(times)
    assert len(cells) == n * t
    y = np.empty((n, t))
    x = np.empty((n, t, k))
    for (ri, ti), vals in cells.items():
        i, j = regions.index(ri), times.index(ti)
        y[i, j] = vals[0]
        x[i, j, :] = vals[1:]
    return PanelDataset(y=y, x=x, regions=np.array(regions), times=np.array(times))


def oracle_counts(path):
    path = Path(path)
    with path.open() as fh:
        reader = csv.reader(fh)
        next(reader, None)
        rows = [r for r in reader if r]
    cells = {}
    for r in rows:
        key = (int(r[0]), int(r[1]))
        assert key not in cells
        cells[key] = (float(r[2]), float(r[3]))
    regions = sorted({key[0] for key in cells})
    times = sorted({key[1] for key in cells})
    n_r, n_t = len(regions), len(times)
    assert len(cells) == n_r * n_t
    s = np.empty((n_r, n_t))
    pop = np.empty((n_r, n_t))
    for (ri, ti), (cnt, p) in cells.items():
        i, j = regions.index(ri), times.index(ti)
        s[i, j] = cnt
        pop[i, j] = p
    return CountPanel(s=s, n=pop, regions=np.array(regions), times=np.array(times))


def oracle_truth(path):
    path = Path(path)
    with path.open() as fh:
        reader = csv.reader(fh)
        next(reader, None)
        rows = [r for r in reader if r]
    cells = {(int(r[0]), int(r[1])): [float(val) for val in r[2:]] for r in rows}
    regions = sorted({key[0] for key in cells})
    times = sorted({key[1] for key in cells})
    n, t = len(regions), len(times)
    assert len(cells) == n * t
    u_plus = np.empty((n, t))
    eta = np.empty(n)
    v = np.empty(n)
    alpha = np.empty(n)
    p = np.empty((n, t))
    for (ri, ti), vals in cells.items():
        i, j = regions.index(ri), times.index(ti)
        u_plus[i, j] = vals[0]
        eta[i] = vals[1]
        v[i] = vals[2]
        alpha[i] = vals[3]
        p[i, j] = vals[4]
    return {
        "u_plus": u_plus, "eta_plus": eta, "v": v, "alpha": alpha, "p": p,
        "regions": np.array(regions), "times": np.array(times),
    }


def assert_same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


labels = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6, unique=True)
finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def panel_files(draw, fmt):
    """Text of a balanced `fmt` file, rows shuffled, blank lines strewn in."""
    regions, times = draw(labels), draw(st.lists(st.integers(-50, 50), min_size=1,
                                                  max_size=4, unique=True))
    n, t = len(regions), len(times)
    if fmt == "panel":
        k = draw(st.integers(0, 3))
        header = ["region", "time", "y"] + [f"x{j + 1}" for j in range(k)]
        values = [draw(st.lists(finite, min_size=k + 1, max_size=k + 1))
                  for _ in range(n * t)]
    elif fmt == "counts":
        header = ["region", "time", "count", "population"]
        values = [[draw(st.integers(0, 10**6)), draw(st.floats(1e-3, 1e9))]
                  for _ in range(n * t)]
    else:
        header = _TRUTH_HEADER
        per_region = [draw(st.lists(finite, min_size=3, max_size=3)) for _ in range(n)]
        # P is a count of people: nonnegative
        values = [[draw(finite), *per_region[c // t], draw(st.floats(0, 1e6))]
                  for c in range(n * t)]
    order = draw(st.permutations(range(n * t)))
    blanks = draw(st.lists(st.booleans(), min_size=n * t, max_size=n * t))
    lines = [",".join(header)]
    for c, blank in zip(order, blanks):
        if blank:
            lines.append("")
        lines.append(",".join(map(repr, [regions[c // t], times[c % t], *values[c]])))
    return "\n".join(lines) + "\n"


def _written(text):
    tmp = tempfile.TemporaryDirectory()
    path = Path(tmp.name) / "data.csv"
    path.write_text(text)
    return tmp, path


@settings(max_examples=60, deadline=None)
@given(panel_files("panel"))
def test_panel_reader_matches_oracle(text):
    tmp, path = _written(text)
    with tmp:
        got, want = PanelDataset.from_csv(path), oracle_panel(path)
    for name in ("y", "x", "regions", "times"):
        assert_same(getattr(got, name), getattr(want, name))
    assert got.x.flags.c_contiguous and got.y.flags.c_contiguous


@settings(max_examples=60, deadline=None)
@given(panel_files("counts"))
def test_counts_reader_matches_oracle(text):
    tmp, path = _written(text)
    with tmp:
        got, want = CountPanel.from_csv(path), oracle_counts(path)
    for name in ("s", "n", "regions", "times"):
        assert_same(getattr(got, name), getattr(want, name))


@settings(max_examples=60, deadline=None)
@given(panel_files("truth"))
def test_truth_reader_matches_oracle(text):
    tmp, path = _written(text)
    with tmp:
        got, want = read_truth_csv(path), oracle_truth(path)
    assert sorted(got) == sorted(want)
    for name in want:
        assert_same(got[name], want[name])


FORMATS = {
    "panel": (PanelDataset.from_csv, "region,time,y,x1", "1.5,0.5"),
    "counts": (CountPanel.from_csv, "region,time,count,population", "3,100"),
    "truth": (read_truth_csv, ",".join(_TRUTH_HEADER), "0.1,0.2,0.3,0.4,1.5"),
}


def _read(tmp_path, fmt, *lines):
    reader, _, _ = FORMATS[fmt]
    path = tmp_path / f"{fmt}.csv"
    path.write_text("".join(line + "\n" for line in lines))
    return reader(path)


def _body(fmt, cells):
    _, header, values = FORMATS[fmt]
    return [header] + [f"{r},{t},{values}" for r, t in cells]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
class TestReaderErrors:
    def test_ragged_row_names_line(self, tmp_path, fmt):
        lines = _body(fmt, [(0, 0), (0, 1), (1, 0), (1, 1)])
        lines[3] += ",9"
        with pytest.raises(ValueError, match=rf"^{fmt}\.csv:4: \d+ fields, the header has"):
            _read(tmp_path, fmt, *lines)

    def test_non_numeric_value_names_line(self, tmp_path, fmt):
        lines = _body(fmt, [(0, 0), (0, 1), (1, 0), (1, 1)])
        fields = lines[4].split(",")
        fields[2] = "abc"
        lines[4] = ",".join(fields)
        with pytest.raises(ValueError, match=rf"^{fmt}\.csv:5: \w+ 'abc' is not a number"):
            _read(tmp_path, fmt, *lines)

    def test_non_integer_label_names_line(self, tmp_path, fmt):
        lines = _body(fmt, [(0, 0), (0, 1), (1, 0), (1, 1)])
        lines[2] = "0,1.5" + lines[2][3:]
        with pytest.raises(ValueError, match=rf"^{fmt}\.csv:3: time '1.5' is not an integer"):
            _read(tmp_path, fmt, *lines)

    def test_duplicate_cell_names_both_lines(self, tmp_path, fmt):
        # the blank line counts: the rows sit on lines 2, 4, 5 and 6
        lines = _body(fmt, [(0, 0), (1, 0), (0, 1), (1, 0)])
        lines.insert(2, "")
        with pytest.raises(ValueError, match=rf"^{fmt}\.csv:6: duplicate cell region=1 "
                                             r"time=0, first seen on line 4$"):
            _read(tmp_path, fmt, *lines)

    def test_missing_cell_names_the_cell(self, tmp_path, fmt):
        lines = _body(fmt, [(5, 2), (7, 2), (5, -1)])
        with pytest.raises(ValueError, match=rf"^{fmt}\.csv: unbalanced panel \(3 cells for "
                                             r"2x2\), no row for region=7 time=-1$"):
            _read(tmp_path, fmt, *lines)

    def test_bad_header_names_line_1(self, tmp_path, fmt):
        with pytest.raises(ValueError, match=rf"^{fmt}\.csv:1: expected header region,time"):
            _read(tmp_path, fmt, "a,b,c", "1,2,3")

    def test_empty_file_names_line_1(self, tmp_path, fmt):
        with pytest.raises(ValueError, match=rf"^{fmt}\.csv:1: expected header"):
            _read(tmp_path, fmt)

    def test_header_only_has_no_data_rows(self, tmp_path, fmt):
        with pytest.raises(ValueError, match=rf"^{fmt}\.csv: no data rows"):
            _read(tmp_path, fmt, FORMATS[fmt][1])


def test_labels_sorted_whatever_the_row_order(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("region,time,count,population\n"
                    "40,3,4,400\n-2,3,2,200\n40,-7,3,300\n-2,-7,1,100\n")
    panel = CountPanel.from_csv(path)
    assert panel.regions.tolist() == [-2, 40] and panel.times.tolist() == [-7, 3]
    assert panel.s.tolist() == [[1, 2], [3, 4]]


ORACLES = {"panel": oracle_panel, "counts": oracle_counts, "truth": oracle_truth}


def _arrays(read):
    if isinstance(read, dict):
        return read
    names = ("y", "x") if isinstance(read, PanelDataset) else ("s", "n")
    return {name: getattr(read, name) for name in names + ("regions", "times")}


# region labels that int() reads; numpy's parser refuses all but the
# signed and the padded one, so those files are read by the csv module
CSV_ONLY_LABELS = {"quoted": '"3"', "underscore": "1_000", "signed": "+3", "padded": " 3 ",
                   "arabic-indic-digits": "\u0663", "mathematical-digits": "\U0001d7d7"}


@pytest.mark.parametrize("label", sorted(CSV_ONLY_LABELS))
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_labels_int_reads_match_the_oracle(tmp_path, fmt, label):
    _, header, values = FORMATS[fmt]
    token = CSV_ONLY_LABELS[label]
    path = tmp_path / f"{fmt}.csv"
    path.write_text("\n".join([header, "", f"{token},1,{values}", f"-1,1,{values}", "",
                               f"-1,0,{values}", f"{token},0,{values}", ""]) + "\n")
    got, want = _arrays(FORMATS[fmt][0](path)), _arrays(ORACLES[fmt](path))
    assert sorted(got) == sorted(want)
    for name in want:
        assert_same(got[name], want[name])


COUNTS_HEADER = FORMATS["counts"][1]


@pytest.mark.parametrize("lines, message", [
    ([COUNTS_HEADER, "0,0,3,100", "0,3.0,3,100"], "counts.csv:3: time '3.0' is not an integer"),
    ([COUNTS_HEADER, "0,0,3,100", "1e3,0,3,100"], "counts.csv:3: region '1e3' is not an integer"),
    ([COUNTS_HEADER, "0,0,3,100 # note", "0,1,3,100"],
     "counts.csv:2: population '100 # note' is not a number"),
    ([COUNTS_HEADER, "0,0,3,100", " ", "0,1,3,100"], "counts.csv:3: 1 fields, the header has 4"),
    ([COUNTS_HEADER, "0,0,3,100", "0,1,3,100,"], "counts.csv:3: 5 fields, the header has 4"),
    ([COUNTS_HEADER, "0,0,3,100", "0,1,3"], "counts.csv:3: 3 fields, the header has 4"),
    ([COUNTS_HEADER], "counts.csv: no data rows"),
    ([COUNTS_HEADER, "", "\r"], "counts.csv: no data rows"),
    # numpy's integer parser reads U+01FE as a digit (this label as 4621)
    ([COUNTS_HEADER, "0,0,3,100", "\u01fe1,0,3,100"],
     "counts.csv:3: region '\u01fe1' is not an integer"),
    # ... and skips \x1c-\x1f, which int() and float() refuse, as spaces
    ([COUNTS_HEADER, "0,0,3,100", "\x1c0,1,3,100"],
     "counts.csv:3: region '\\x1c0' is not an integer"),
    ([COUNTS_HEADER, "0,0,3,100", "0,1,3,100\x1f"],
     "counts.csv:3: population '100\\x1f' is not a number"),
], ids=["float-label", "exponent-label", "hash-in-value", "whitespace-line", "trailing-comma",
        "short-row", "header-only", "header-and-blank-lines", "non-ascii-letter-label",
        "file-separator-label", "unit-separator-value"])
def test_what_the_csv_module_rejects_numpy_does_not_accept(tmp_path, lines, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _read(tmp_path, "counts", *lines)


def test_header_only_has_no_data_rows_under_any_warning_filter(tmp_path):
    # numpy only warns about a file without rows; the CLI runs with no filter
    # that would turn that warning into an error
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match=r"^counts\.csv: no data rows$"):
            _read(tmp_path, "counts", COUNTS_HEADER, "")


PANEL_HEADER = "region,time,y,x1,x2"


@pytest.mark.parametrize("lines, message", [
    ([PANEL_HEADER, "0,0,1,2,3", "0,1,nan,2,3"], "panel.csv:3: y 'nan' is not a finite number"),
    ([PANEL_HEADER, "0,0,1,2,3", "0,1,1,2,-inf"],
     "panel.csv:3: x2 '-inf' is not a finite number"),
    ([COUNTS_HEADER, "0,0,3,100", "0,1,-2,100"],
     "counts.csv:3: count '-2' is not a nonnegative integer"),
    ([COUNTS_HEADER, "0,0,3,100", "0,1,2.5,100"],
     "counts.csv:3: count '2.5' is not a nonnegative integer"),
    ([COUNTS_HEADER, "0,0,3,100", "0,1,nan,100"],
     "counts.csv:3: count 'nan' is not a nonnegative integer"),
    ([COUNTS_HEADER, "0,0,3,100", "0,1,3,100", "1,0,3,100", "1,1,3,0"],
     "counts.csv:5: population '0' is not positive"),
    ([COUNTS_HEADER, "0,0,3,100", "0,1,3,-4"], "counts.csv:3: population '-4' is not positive"),
    ([COUNTS_HEADER, "0,0,3,100", "0,1,3,inf"],
     "counts.csv:3: population 'inf' is not a finite number"),
    # the first bad cell in file order: by line, then left to right, though
    # the rows are not in label order
    ([COUNTS_HEADER, "1,1,3,100", "1,0,3,0", "0,1,-2,100", "0,0,3,100"],
     "counts.csv:3: population '0' is not positive"),
    ([COUNTS_HEADER, "1,1,3,100", "1,0,-2,0", "0,1,3,100", "0,0,3,100"],
     "counts.csv:3: count '-2' is not a nonnegative integer"),
    # a file numpy's parser refuses is read by the csv module, with the same error
    ([COUNTS_HEADER, '"0",0,3,100', "0,1,-2,100"],
     "counts.csv:3: count '-2' is not a nonnegative integer"),
], ids=["panel-nan-y", "panel-inf-regressor", "negative-count", "fractional-count",
        "nan-count", "zero-population", "negative-population", "infinite-population",
        "first-line-wins", "first-column-wins", "csv-module-path"])
def test_a_rejected_value_names_file_and_line(tmp_path, lines, message):
    fmt = "panel" if lines[0] == PANEL_HEADER else "counts"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _read(tmp_path, fmt, *lines)


TRUTH_HEADER = FORMATS["truth"][1]


@pytest.mark.parametrize("lines, message", [
    ([TRUTH_HEADER, "0,0,0.1,0.2,0.3,0.4,1.5", "0,1,0.1,0.2,0.3,0.4,nan"],
     "truth.csv:3: P 'nan' is not a finite number"),
    ([TRUTH_HEADER, "0,0,0.1,0.2,0.3,0.4,1.5", "0,1,0.1,0.2,0.3,0.4,inf"],
     "truth.csv:3: P 'inf' is not a finite number"),
    ([TRUTH_HEADER, "0,0,0.1,0.2,0.3,0.4,1.5", "0,1,0.1,0.2,0.3,0.4,-5"],
     "truth.csv:3: P '-5' is not nonnegative"),
    ([TRUTH_HEADER, "0,0,0.1,0.2,0.3,0.4,1.5", "0,1,-inf,0.2,0.3,0.4,1.5"],
     "truth.csv:3: u_plus '-inf' is not a finite number"),
    # a per-region column that is nan in every period of its region
    ([TRUTH_HEADER, "0,0,0.1,nan,0.3,0.4,1.5", "0,1,0.1,nan,0.3,0.4,1.5"],
     "truth.csv:2: eta_plus 'nan' is not a finite number"),
], ids=["nan-p", "infinite-p", "negative-p", "infinite-u-plus", "nan-region-column"])
def test_a_rejected_truth_value_names_file_and_line(tmp_path, lines, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _read(tmp_path, "truth", *lines)


def test_a_zero_truth_p_is_read(tmp_path):
    truth = _read(tmp_path, "truth", TRUTH_HEADER, "0,0,0.1,0.2,0.3,0.4,0",
                  "0,1,0.1,0.2,0.3,0.4,1.5")
    assert truth["p"].tolist() == [[0.0, 1.5]]
