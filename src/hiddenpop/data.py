"""Panel containers and the plain-CSV formats the pipeline exchanges.

Panel CSV:   header `region,time,y,x1,...,xK`, one row per region-period.
Counts CSV:  header `region,time,count,population`.
Truth CSV:   header `region,time,u_plus,eta_plus,v,alpha,P` (simulation sidecar).

All panels are balanced; region and time labels may be arbitrary integers
but are stored in sorted order internally.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.6g"
# rows that `_write_columns` formats with one `%`, rounded down to whole regions
_WRITE_BLOCK_ROWS = 4096


def _read_panel(path, columns: list[str], regressors: bool = False):
    """Balanced panel CSV -> (sorted regions, sorted times, values (C, N, T)).

    `columns` is the whole header, or with `regressors` its start, any
    further columns being read too. Rows may come in any order and blank
    lines are skipped. Every row must have the header's width, integer
    labels and numeric values, and every (region, time) cell must appear
    exactly once; a violation is reported as `file:line`.

    numpy's C parser reads the body. A file it refuses or might misread
    (quoted cells, `1_000`, non-ASCII text, any error) or one with a
    missing or repeated cell is read again by `_read_rows`, which either
    accepts it or names the line.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        header = [h.strip() for h in next(csv.reader(fh), [])]
        if (header[:len(columns)] if regressors else header) != columns:
            expected = ",".join(columns) + (",x1,..." if regressors else "")
            raise ValueError(f"{path.name}:1: expected header {expected}")
        body = _load_body(fh, len(header))
    if body is not None:
        region, time, *values = (body[name] for name in body.dtype.names)
        panel = _scatter(path, region, time, np.array(values))
        if panel is not None:
            return panel
    return _read_rows(path, header)


def _load_body(fh, width: int):
    """The rows after the header as a structured array (int64 region and
    time, float64 values), or None where numpy refuses them or finds none."""
    text = fh.read()
    # numpy's integer parser misreads non-ASCII characters as digits (and
    # can crash on them), and it skips \x1c-\x1f as spaces where int() and
    # float() refuse them
    if not text.isascii() or any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None
    dtype = np.dtype(",".join(["i8", "i8"] + ["f8"] * (width - 2)))
    try:
        with warnings.catch_warnings():
            # loadtxt only warns about a file without rows
            warnings.simplefilter("error")
            # comments=None: the default would cut `4 # note` down to `4`
            return np.loadtxt(io.StringIO(text, newline=""), dtype=dtype, delimiter=",",
                              comments=None, ndmin=1)
    except (ValueError, Warning):
        return None


def _rows(path: Path, header: list[str]):
    """(line, row) for each non-blank row after the header, read by the csv
    module; a row without the header's width is an error."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path.name}:{reader.line_num}: {len(row)} fields, "
                                 f"the header has {len(header)}")
            yield reader.line_num, row


def _read_rows(path: Path, header: list[str]):
    """`_read_panel` by the csv module, one row at a time: slower than numpy,
    but it reads every cell `int()` and `float()` read, and it knows the
    line of each row."""
    numbered = list(_rows(path, header))
    if not numbered:
        raise ValueError(f"{path.name}: no data rows")
    lines, rows = zip(*numbered)
    fields = list(zip(*rows))
    region, time = (_parse_column(path, lines, header[c], fields[c], int) for c in (0, 1))
    values = np.array([_parse_column(path, lines, header[c], fields[c], float)
                       for c in range(2, len(header))])
    return _scatter(path, region, time, values, lines)


def _scatter(path: Path, region, time, values, lines=None):
    """One label pair and value column per row -> `_read_panel`'s result.

    Every (region, time) cell must appear exactly once. A missing or
    repeated cell raises, naming the lines from `lines`; without them it
    returns None instead.
    """
    regions, region_pos = np.unique(region, return_inverse=True)
    times, time_pos = np.unique(time, return_inverse=True)
    n, t = regions.size, times.size
    cell = region_pos * t + time_pos
    count = np.bincount(cell, minlength=n * t)
    if np.any(count != 1):
        if lines is None:
            return None
        first = {}
        for k, c in enumerate(cell.tolist()):
            if c in first:
                raise ValueError(
                    f"{path.name}:{lines[k]}: duplicate cell region={region[k]} "
                    f"time={time[k]}, first seen on line {lines[first[c]]}")
            first[c] = k
        gap = int(np.argmin(count))
        raise ValueError(
            f"{path.name}: unbalanced panel ({cell.size} cells for {n}x{t}), no row for "
            f"region={regions[gap // t]} time={times[gap % t]}")
    out = np.empty((values.shape[0], n * t))
    out[:, cell] = values
    return regions, times, out.reshape(-1, n, t)


def _parse_column(path: Path, lines: list[int], name: str, cells, cast) -> np.ndarray:
    try:
        return np.array(list(map(cast, cells)))
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        for line, cell in zip(lines, cells):
            try:
                cast(cell)
            except ValueError:
                raise ValueError(f"{path.name}:{line}: {name} {cell!r} is not {kind}") from None
        raise


def _check_values(path, values, rules) -> None:
    """Raise naming the first value cell, in file order, that breaks a rule.

    `values` is `_read_panel`'s (C, N, T) array of the file at `path`, and
    `rules[c]` the (ok, what) pairs of value column c: `ok` takes an array
    or one float and is true where the value is `what`. Only a file with a
    bad value is read again, by `_rows`.
    """
    if all(ok(values[c]).all() for c, pairs in enumerate(rules) for ok, _ in pairs):
        return
    path = Path(path)
    with path.open(newline="") as fh:
        header = [h.strip() for h in next(csv.reader(fh))]
    for line, row in _rows(path, header):
        for name, cell, pairs in zip(header[2:], row[2:], rules):
            for ok, what in pairs:
                if not ok(float(cell)):
                    raise ValueError(f"{path.name}:{line}: {name} {cell!r} is not {what}")


def _write_columns(path, header: list[str], regions, times, columns) -> None:
    """One row per (region, time) cell, regions outermost, in csv.writer's bytes.

    Labels are written as integers. Each column broadcasts to (N, T); text
    columns are written as they are and numeric ones with FLOAT_FMT. No
    cell may need quoting.

    Each region's T rows are one template, with the period labels written
    into it, so only the region label and the values are formatted. They go
    into one flat list in row order, and each block of about
    `_WRITE_BLOCK_ROWS` rows (whole regions, at least one) is formatted by
    one `%` on the region template repeated, which costs little more than
    formatting the floats alone. The file is written once, so a cell that
    fails to format leaves no file.
    """
    n, t = len(regions), len(times)
    columns = [np.broadcast_to(c, (n, t)) for c in columns]
    values = "".join("," + ("%s" if c.dtype.kind in "OUS" else FLOAT_FMT) for c in columns)
    region_rows = "".join("%s," + "%d" % time + values + "\r\n"
                          for time in np.asarray(times).tolist())
    width = 1 + len(columns)
    cells = [None] * (n * t * width)
    labels = ["%d" % region for region in np.asarray(regions).tolist()]
    cells[0::width] = [label for label in labels for _ in range(t)]
    for k, c in enumerate(columns, 1):
        cells[k::width] = c.ravel().tolist()
    cells = tuple(cells)
    per_block = max(1, _WRITE_BLOCK_ROWS // max(t, 1))
    block = region_rows * per_block
    size = t * width  # cells per region
    body = []
    for first in range(0, n, per_block):
        k = min(per_block, n - first)
        body.append((block if k == per_block else region_rows * k)
                    % cells[first * size:(first + k) * size])
    Path(path).write_text(",".join(header) + "\r\n" + "".join(body), newline="")


def _write_rows(path, header: list[str], rows) -> None:
    """A small table in csv.writer's bytes: floats with FLOAT_FMT, any other
    value as str. No cell may need quoting."""
    lines = [header] + [[FLOAT_FMT % v if isinstance(v, float) else str(v) for v in row]
                        for row in rows]
    Path(path).write_text("".join(",".join(line) + "\r\n" for line in lines), newline="")


@dataclass
class PanelDataset:
    """Balanced N x T panel of responses with K regressors."""

    y: np.ndarray              # (N, T), response on log scale
    x: np.ndarray              # (N, T, K)
    regions: np.ndarray = None  # (N,) labels
    times: np.ndarray = None    # (T,) labels

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if self.y.ndim != 2:
            raise ValueError(f"y must be (N, T), got shape {self.y.shape}")
        if self.x.shape[:2] != self.y.shape or self.x.ndim != 3:
            raise ValueError(f"x must be (N, T, K), got {self.x.shape} vs y {self.y.shape}")
        if not np.all(np.isfinite(self.y)) or not np.all(np.isfinite(self.x)):
            raise ValueError("panel contains non-finite values")
        if self.regions is None:
            self.regions = np.arange(self.n_regions)
        if self.times is None:
            self.times = np.arange(self.n_periods)
        self.regions = np.asarray(self.regions)
        self.times = np.asarray(self.times)

    @property
    def n_regions(self) -> int:
        return self.y.shape[0]

    @property
    def n_periods(self) -> int:
        return self.y.shape[1]

    @property
    def k_regressors(self) -> int:
        return self.x.shape[2]

    @cached_property
    def regressor_planes(self) -> np.ndarray:
        """x as K contiguous (N, T) planes, shape (K, N, T): plane k is x[:, :, k]."""
        return np.ascontiguousarray(np.moveaxis(self.x, -1, 0))

    @cached_property
    def regressor_gram(self) -> tuple[list, list]:
        """(X'X, G = sum_i (X_i'1)(X_i'1)'): the slope update's constants, as
        K x K nested lists of Python floats.

        Computed on first use and kept, like the finiteness check, on the
        understanding that the panel does not change after construction.
        """
        xs = self.x.sum(axis=1)
        return (np.einsum("ntk,ntl->kl", self.x, self.x).tolist(),
                np.einsum("nk,nl->kl", xs, xs).tolist())

    def to_csv(self, path) -> None:
        k = self.k_regressors
        _write_columns(path, ["region", "time", "y"] + [f"x{j + 1}" for j in range(k)],
                       self.regions, self.times,
                       [self.y] + [self.x[:, :, j] for j in range(k)])

    @classmethod
    def from_csv(cls, path) -> "PanelDataset":
        regions, times, values = _read_panel(path, ["region", "time", "y"], regressors=True)
        _check_values(path, values, [[(np.isfinite, "a finite number")]] * len(values))
        return cls(y=values[0], x=np.ascontiguousarray(np.moveaxis(values[1:], 0, -1)),
                   regions=regions, times=times)


def _is_count(s):
    # inf equals its floor, and casting it to int64 gives -2**63
    return np.isfinite(s) & (s >= 0) & (s == np.floor(s))


@dataclass
class CountPanel:
    """Observed counts and populations per region-period."""

    s: np.ndarray  # (N, T) nonnegative integer counts
    n: np.ndarray  # (N, T) positive populations
    regions: np.ndarray = None
    times: np.ndarray = None

    def __post_init__(self):
        self.s = np.asarray(self.s)
        self.n = np.asarray(self.n, dtype=float)
        if self.s.shape != self.n.shape or self.s.ndim != 2:
            raise ValueError("counts and populations must share an (N, T) shape")
        if not np.all(_is_count(self.s)):
            raise ValueError("counts must be nonnegative integers")
        if np.any(self.n <= 0) or not np.all(np.isfinite(self.n)):
            raise ValueError("populations must be positive")
        self.s = self.s.astype(np.int64)
        if self.regions is None:
            self.regions = np.arange(self.s.shape[0])
        if self.times is None:
            self.times = np.arange(self.s.shape[1])
        self.regions = np.asarray(self.regions)
        self.times = np.asarray(self.times)

    @classmethod
    def from_csv(cls, path) -> "CountPanel":
        regions, times, values = _read_panel(path, ["region", "time", "count", "population"])
        _check_values(path, values, [
            [(_is_count, "a nonnegative integer")],
            [(np.isfinite, "a finite number"), (lambda n: n > 0, "positive")]])
        s, pop = values
        return cls(s=s, n=pop, regions=regions, times=times)
