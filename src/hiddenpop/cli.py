"""Command-line pipeline: simulate -> fit -> analyze, plus SIR screening.

Every subcommand resolves its configuration (the library defaults, then
the flags given), reads its inputs and writes its outputs. `main`
owns the rest: it first removes any old manifest.json and the files it
lists, removes what the run wrote if it fails, and writes manifest.json,
with the fully resolved settings, last, so a directory without one holds no
complete run and one with it holds no file of an earlier run. Given the
same inputs and seed, the data outputs are byte-identical across runs; the
manifest differs only in its wall-clock fields.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
import threading
import time
import zipfile
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__, sir
from .analysis import (
    DEFAULT_COVERAGE_LEVELS,
    MIN_HDI_DRAWS,
    chain_summary,
    coverage_report,
    hidden_population_draws,
    mape_summary,
    predictive_intervals,
    rho_hat,
    uncaptured_summaries,
    write_coverage_csv,
    write_mape_csv,
    write_summary_csv,
    write_uncaptured_csv,
)
from .data import CountPanel, PanelDataset, _write_rows
from .sampler import ChainConfig, PosteriorDraws, SamplerError, run_chain
from .simulate import (
    DgpConfig,
    lambda_of,
    make_lambda_scenario,
    read_truth_csv,
    simulate,
    write_truth_csv,
)
from .sir import compute_sir, flag_hotspots, write_sir_csv
from .spatial import build_queen_grid, load_adjacency

OUTPUT_ROOT_ENV = "HIDDENPOP_OUTPUT_ROOT"

_DRAWS_SCALARS = ("sigma2_alpha", "sigma2_eps", "sigma2_v", "sigma2_u", "sigma2_eta")
_SAVE_CHUNK_BYTES = 1 << 20
_HUFFMAN_ONLY_MIN_BYTES = 64 << 10
# The deflate thread is woken once this many bytes of rows are final. At
# the paper size a row is 2 KB, and a wake per row cost more in hand-offs
# of the interpreter lock than the deflate it moved off the chain.
_SPOOL_BATCH_BYTES = 256 << 10
# load_draws inflates u_plus this many bytes at a time
_LOAD_CHUNK_BYTES = 256 << 10


def _out_dir(arg: str | None) -> Path:
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    out = Path(arg) if arg else root
    if not out.is_absolute():
        out = root / out
    out.mkdir(parents=True, exist_ok=True)
    return out


def save_draws(draws: PosteriorDraws, y: np.ndarray, path, *,
               spool: _DeflateSpool | None = None) -> None:
    """Persist draws in a compact columnar zip of .npy members.

    Functionally an npz readable by numpy.load, but written with pinned
    zip timestamps so identical draws produce byte-identical files. Members
    of at least 64 KiB, such as `u_plus`, are deflated with Huffman coding
    only: float64 draws hold almost no repeated strings, so the default
    match search costs about four times as long and gives a slightly larger
    stream. Smaller members keep the default level, which still pays on
    their repeats (`chain_id`, MH-rejected variances).

    The large members of `draws` are deflated on a second thread, each
    into an unlinked temporary file in the directory of `path`. `fit`
    passes the `spool` that `run_chain`'s `on_rows` hook fed as the chain
    made rows final, so that deflate runs on the second core while the
    chain sweeps; without one, a spool is made here and fed every row at
    once. The
    archive is then written as before: every member passes through
    zipfile's writer in 1 MiB chunks for its CRC and sizes, and a spooled
    member's compressor hands back the spooled stream in place of
    deflating. Deflate's output does not depend on how its input is cut,
    so the file has the same bytes either way, and saving holds no second
    in-memory copy of a member. The spool is closed on return.
    """
    path = Path(path)
    arrays = {
        "beta": draws.beta,
        "u_plus": draws.u_plus,
        "eta_plus": draws.eta_plus,
        "v": draws.v,
        "chain_id": draws.chain_id,
        "y": np.asarray(y, dtype=float),
        "meta": np.array(
            [draws.seed, draws.n_iter, draws.burn_in, draws.thin], dtype=np.int64
        ),
        "avg_row_sum": np.array([draws.avg_row_sum]),
        "accept_rates": np.array([draws.accept_rate_alpha, draws.accept_rate_eps]),
        "floored": np.array([draws.floored_count], dtype=np.int64),
    }
    for name in _DRAWS_SCALARS:
        arrays[name] = getattr(draws, name)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with spool or _DeflateSpool(path.parent) as spool:
        spool.on_rows(draws, draws.n_draws)
        streams = spool.streams(draws)
        try:
            with zipfile.ZipFile(tmp, "w", zipfile.ZIP_DEFLATED) as zf:
                for name, arr in arrays.items():
                    _write_npy_member(zf, name, arr, streams.get(name))
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    tmp.replace(path)


def _npy_parts(name: str, arr) -> tuple[bytes, np.ndarray]:
    """The header and the data, as a flat byte view, of the bytes
    np.lib.format.write_array gives for `arr` as `name`.npy."""
    arr = np.asanyarray(arr)
    if arr.dtype.hasobject:
        raise ValueError(f"draws member {name} has an object dtype")
    header = np.lib.format.header_data_from_array_1_0(arr)
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(head, header)
    # write_array keeps a Fortran-ordered array's order and writes any other
    # in C order; a flat byte view copies nothing and also takes an empty
    # array such as the (S, 0) slopes of a panel without regressors
    data = arr.T if header["fortran_order"] else np.ascontiguousarray(arr)
    return head.getvalue(), data.reshape(-1).view(np.uint8)


def _huffman_only():
    """The raw deflate stream of a member of at least 64 KiB."""
    return zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, -15,
                            zlib.DEF_MEM_LEVEL, zlib.Z_HUFFMAN_ONLY)


def _write_npy_member(zf: zipfile.ZipFile, name: str, arr, stream=None) -> None:
    """`name`.npy with the bytes np.lib.format.write_array gives, deflated
    straight into the archive in chunks; Huffman-only from 64 KiB up. A
    member with a spooled `stream` takes its deflate output from there."""
    head, data = _npy_parts(name, arr)
    info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
    info.compress_type = zipfile.ZIP_DEFLATED
    with zf.open(info, "w") as member:
        # the handle has written nothing yet, so the member is one raw
        # deflate stream either way
        if stream is not None:
            member._compressor = stream
        elif len(head) + data.nbytes >= _HUFFMAN_ONLY_MIN_BYTES:
            member._compressor = _huffman_only()
        member.write(head)
        for start in range(0, len(data), _SAVE_CHUNK_BYTES):
            member.write(data[start:start + _SAVE_CHUNK_BYTES])


class _DeflateSpool:
    """Deflates the large per-draw members of a draws file on one thread,
    rows at a time, each into an unlinked temporary file in `directory`.

    `on_rows(draws, n)` is `run_chain`'s progress hook: rows [0, n) of
    `draws` hold their final values. The first call starts the thread,
    which deflates each member of at least 64 KiB among `beta`, `u_plus`,
    `eta_plus`, `v` and the variances as its rows arrive, with the
    Huffman-only compressor `save_draws` uses, and flushes the streams once
    every row is in. The members must be C-ordered while rows are missing,
    as `run_chain`'s are. zlib and file writes release the interpreter
    lock, so the deflate runs beside the sweeps. `streams(draws)` waits
    for the thread, raises what stopped it, and returns the compressor
    stand-ins `save_draws` replays. `close` stops the thread and drops the
    files.

    The class is private, and neither the hook nor the thread calls a
    public function of the package's modules, so a tracer that wraps those
    functions records no span inside `run_chain` for the deflate.
    """

    def __init__(self, directory):
        self._directory = directory
        self._wake = threading.Condition()
        self._rows = 0   # the rows handed to the thread
        self._row_bytes = 0   # bytes per row over the spooled members
        self._stop = False
        self._error: Exception | None = None
        self._draws = None
        self._thread = None
        self._files = {}   # member name -> its spooled deflate stream

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def on_rows(self, draws: PosteriorDraws, n: int) -> None:
        """`run_chain`'s hook: rows [0, n) of `draws` are final. It calls
        no public function of the package, so a tracer adds no span under
        `run_chain`; it raises what stopped the thread, if anything did."""
        if self._error is not None:
            raise self._error
        if self._draws is None:
            self._start(draws)
        if n == draws.n_draws or (n - self._rows) * self._row_bytes >= _SPOOL_BATCH_BYTES:
            with self._wake:
                self._rows = n
                self._wake.notify()

    def _start(self, draws: PosteriorDraws) -> None:
        self._draws = draws
        rows = draws.n_draws
        members = []
        for name in ("beta", "u_plus", "eta_plus", "v", *_DRAWS_SCALARS):
            head, data = _npy_parts(name, getattr(draws, name))
            if len(head) + data.nbytes >= _HUFFMAN_ONLY_MIN_BYTES:
                members.append((name, head, data, data.nbytes // rows))
        self._row_bytes = sum(row_bytes for *_, row_bytes in members)
        for name, *_ in members:
            self._files[name] = tempfile.TemporaryFile(dir=self._directory)
        if members:
            self._thread = threading.Thread(target=self._deflate, args=(members, rows),
                                            name="draws-deflate", daemon=True)
            self._thread.start()

    def _deflate(self, members: list, rows: int) -> None:
        try:
            compressors = {name: _huffman_only() for name in self._files}
            for name, head, _, _ in members:
                self._files[name].write(compressors[name].compress(head))
            done = 0
            while done < rows:
                with self._wake:
                    while self._rows == done and not self._stop:
                        self._wake.wait()
                    if self._stop:
                        return
                    n = self._rows
                for name, _, data, row_bytes in members:
                    for start in range(done * row_bytes, n * row_bytes, _SAVE_CHUNK_BYTES):
                        if self._stop:
                            return
                        end = min(start + _SAVE_CHUNK_BYTES, n * row_bytes)
                        self._files[name].write(compressors[name].compress(data[start:end]))
                done = n
            for name, file in self._files.items():
                file.write(compressors[name].flush())
                file.flush()
        except Exception as exc:
            self._error = exc

    def streams(self, draws: PosteriorDraws) -> dict[str, _SpooledStream]:
        if draws is not self._draws:
            raise ValueError("the spool holds the deflated rows of other draws")
        if self._thread is not None:
            self._thread.join()
        if self._error is not None:
            raise self._error
        return {name: _SpooledStream(file) for name, file in self._files.items()}

    def close(self) -> None:
        if self._thread is not None:
            with self._wake:
                self._stop = True
                self._wake.notify()
            self._thread.join()
        for file in self._files.values():
            file.close()


class _SpooledStream:
    """Stands in for a zip member's compressor: each `compress(data)` call
    returns up to len(data) more bytes of the member's spooled deflate
    stream, and `flush` the rest, so at most one write chunk is in memory."""

    def __init__(self, file):
        file.seek(0)
        self._file = file

    def compress(self, data) -> bytes:
        return self._file.read(memoryview(data).nbytes)

    def flush(self) -> bytes:
        return self._file.read()


def load_draws(path) -> tuple[PosteriorDraws, np.ndarray]:
    """Inverse of save_draws; returns (draws, observed log-scale panel).

    `u_plus`, the one member that grows with draws x regions x periods, is
    inflated on a second thread, a chunk at a time, straight into its array,
    while this thread reads the other members. The thread calls no public
    function of the package, so a tracer that wraps those functions records
    no span from it. An archive that cannot be read, on either thread, is a
    ValueError naming `path`, and the thread has ended by the time this
    returns or raises.
    """
    # np.load leaves a file it opened itself open when the zip is bad
    with open(path, "rb") as fh:
        try:
            z = np.load(fh)
        except (EOFError, zipfile.BadZipFile) as exc:
            # an empty file, or a zip cut short
            raise _not_a_draws_file(path, exc) from None
        if isinstance(z, np.ndarray):
            raise ValueError(f"{path}: not a hiddenpop draws file: a single .npy array")
        with z, _MemberInflater() as u_plus:
            try:
                meta = z["meta"]
                u_plus.start(z, "u_plus")
                draws = PosteriorDraws(
                    beta=z["beta"], u_plus=u_plus.array, eta_plus=z["eta_plus"], v=z["v"],
                    sigma2_alpha=z["sigma2_alpha"], sigma2_eps=z["sigma2_eps"],
                    sigma2_v=z["sigma2_v"], sigma2_u=z["sigma2_u"], sigma2_eta=z["sigma2_eta"],
                    seed=int(meta[0]), n_iter=int(meta[1]), burn_in=int(meta[2]),
                    thin=int(meta[3]), avg_row_sum=float(z["avg_row_sum"][0]),
                    accept_rate_alpha=float(z["accept_rates"][0]),
                    accept_rate_eps=float(z["accept_rates"][1]),
                    floored_count=int(z["floored"][0]),
                    chain_id=z["chain_id"],
                )
                y = z["y"]
                u_plus.wait()
            except _ARCHIVE_ERRORS as exc:
                raise _not_a_draws_file(path, exc) from None
    if draws.n_draws == 0:
        raise ValueError(f"{path}: draws file contains no stored draws")
    return draws, y


# what reading a draws archive that is not whole, or not one, raises
_ARCHIVE_ERRORS = (KeyError, ValueError, EOFError, zipfile.BadZipFile, zlib.error)


def _not_a_draws_file(path, exc: Exception) -> ValueError:
    # a KeyError's message is its argument; a deflate stream cut short is a bare EOFError
    reason = exc.args[0] if isinstance(exc, KeyError) else str(exc) or "member data ends early"
    return ValueError(f"{path}: not a hiddenpop draws file: {reason}")


class _MemberInflater:
    """Inflates one .npy member of a zip on a thread of its own into an
    array allocated up front, `_LOAD_CHUNK_BYTES` at a time.

    `start(z, name)` reads the member's header here, allocates `array` and
    starts the thread. `wait()` joins the thread and raises what stopped it;
    `close` asks it to stop and joins it. zlib releases the interpreter lock
    while it inflates, so the caller's own reads run beside it. The class is
    private and the thread calls no public function of the package.
    """

    def __init__(self):
        self.array = None
        self._stop = False
        self._error: Exception | None = None
        self._thread = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self, z, name: str) -> None:
        if name not in z.files:
            raise KeyError(f"{name} is not a file in the archive")
        member = z.zip.open(name + ".npy")
        try:
            # save_draws and numpy.savez write version 1.0 for every draws member
            version = np.lib.format.read_magic(member)
            if version != (1, 0):
                raise ValueError(f"{name} has .npy format version {version}")
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(member)
            if dtype.hasobject or len(shape) != 3:
                raise ValueError(f"{name} is not a 3-D numeric array")
        except BaseException:
            member.close()
            raise
        # the .npy data is the array's memory in its own order
        self.array = np.empty(shape, dtype, order="F" if fortran_order else "C")
        self._thread = threading.Thread(target=self._inflate, args=(name, member),
                                        name="draws-inflate", daemon=True)
        self._thread.start()

    def _inflate(self, name: str, member) -> None:
        try:
            with member:
                data = self.array.reshape(-1, order="A").view(np.uint8)
                for at in range(0, len(data), _LOAD_CHUNK_BYTES):
                    if self._stop:
                        return
                    chunk = data[at:at + _LOAD_CHUNK_BYTES]
                    if member.readinto(chunk) != len(chunk):
                        raise EOFError(f"{name} holds fewer values than its header says")
        except Exception as exc:
            self._error = exc

    def wait(self) -> None:
        self._thread.join()
        if self._error is not None:
            raise self._error

    def close(self) -> None:
        if self._thread is not None:
            self._stop = True
            self._thread.join()


def export_draws_csv(draws: PosteriorDraws, path) -> None:
    """Scalar parameters per stored draw (slopes and standard deviations)."""
    k = draws.beta.shape[1]
    header = (["draw", "chain"] + [f"beta_{j + 1}" for j in range(k)]
              + [name.replace("sigma2_", "sigma_") for name in _DRAWS_SCALARS])
    columns = ([range(draws.n_draws), draws.chain_id.tolist()] + draws.beta.T.tolist()
               + [np.sqrt(getattr(draws, name)).tolist() for name in _DRAWS_SCALARS])
    _write_rows(path, header, zip(*columns))


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = (int(side) for side in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 7x7, got {text!r}") from None
    if rows < 1 or cols < 1:
        raise argparse.ArgumentTypeError(f"grid sides must be positive, got {text!r}")
    return rows, cols


def _parse_levels(text: str) -> list[float]:
    if not text:
        raise argparse.ArgumentTypeError("expected at least one level, got none")
    if "" in text.split(","):
        raise argparse.ArgumentTypeError(f"empty item in {text!r}")
    try:
        levels = [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    for k, lv in enumerate(levels):
        if not 0.0 < lv < 1.0:
            raise argparse.ArgumentTypeError(f"levels must lie in (0, 1), got {lv}")
        if lv in levels[:k]:
            raise argparse.ArgumentTypeError(f"level {lv} is repeated in {text!r}")
    return levels


def _manifest(out: Path, subcommand: str, config: dict, inputs: dict,
              outputs: list[str], started: float) -> None:
    payload = {
        "subcommand": subcommand,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "package_version": __version__,
        "duration_seconds": round(time.time() - started, 3),
    }
    tmp = out / "manifest.json.tmp"
    tmp.write_bytes((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())
    tmp.replace(out / "manifest.json")


def _remove_previous_run(out: Path, keep: set[Path]) -> None:
    """Remove the files the old manifest.json in `out` lists, then the manifest.

    Only bare file names are removed, so nothing outside `out` is touched,
    and never a file in `keep` (this run's inputs). A manifest that cannot
    be read is removed alone.
    """
    manifest = out / "manifest.json"
    try:
        names = json.loads(manifest.read_text())["outputs"]
    except (OSError, ValueError, KeyError, TypeError):
        names = []
    for name in names if isinstance(names, list) else []:
        if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
            continue
        path = out / name
        if path.is_file() and path.resolve() not in keep:
            path.unlink()
    manifest.unlink(missing_ok=True)


def _given(args, config_class) -> dict:
    """The fields of `config_class` whose flag was given: a flag left out
    keeps the library default."""
    return {f.name: getattr(args, f.name) for f in fields(config_class)
            if getattr(args, f.name, None) is not None}


def cmd_simulate(args, output) -> tuple[dict, dict]:
    settings = _given(args, DgpConfig)
    if args.grid is not None:
        settings["grid_rows"], settings["grid_cols"] = args.grid
    if args.beta_true is not None:
        settings["beta_true"] = tuple(args.beta_true)
    config = DgpConfig(**settings)
    if args.target_lambda is not None:
        config = make_lambda_scenario(args.target_lambda, config)
    truth = simulate(config)
    truth.dataset.to_csv(output("panel.csv"))
    write_truth_csv(truth, output("truth.csv"))
    return {**config.__dict__, "beta_true": list(config.beta_true),
            "lambda": lambda_of(config)}, {}


def cmd_fit(args, output) -> tuple[dict, dict]:
    chain = ChainConfig(**_given(args, ChainConfig))
    if chain.chains * chain.n_stored < MIN_HDI_DRAWS:
        raise ValueError(f"{chain.chains} chain(s) x {chain.n_stored} stored draws is fewer than "
                         f"the {MIN_HDI_DRAWS} draws an HDI needs")

    data = PanelDataset.from_csv(args.data)
    graph = (build_queen_grid(*args.grid) if args.grid
             else load_adjacency(args.adjacency, data.regions))
    path = output("draws.npz")
    # the large members are deflated beside the sweeps, as rows become final
    with _DeflateSpool(path.parent) as spool:
        draws = run_chain(data, graph, chain, on_rows=spool.on_rows)
        save_draws(draws, data.y, path, spool=spool)
    write_summary_csv(chain_summary(draws), output("summary.csv"))
    _write_rows(output("acceptance.csv"), ["quantity", "value"],
                [["accept_rate_alpha", draws.accept_rate_alpha],
                 ["accept_rate_eps", draws.accept_rate_eps],
                 ["accept_rate_level", draws.accept_rate_level],
                 ["floored_draws", draws.floored_count],
                 ["stored_draws", draws.n_draws]])
    if args.export_csv:
        export_draws_csv(draws, output("draws.csv"))
    graph_desc = (f"grid:{args.grid[0]}x{args.grid[1]}" if args.grid
                  else str(args.adjacency))
    return (chain.__dict__, {"data": str(args.data), "graph": graph_desc})


def cmd_analyze(args, output) -> tuple[dict, dict]:
    levels = args.levels
    if args.truth is None and levels is not None:
        raise ValueError("coverage levels were requested but no --truth file given")
    group = "region" if args.by_region else ("period" if args.by_period else None)
    truth = read_truth_csv(args.truth) if args.truth is not None else None
    draws, y_log = load_draws(args.draws)
    cells = None
    if truth is not None:
        if truth["p"].shape != y_log.shape:
            raise ValueError(
                f"truth grid {truth['p'].shape} does not match draws {y_log.shape}"
            )
        levels = levels if levels is not None else list(DEFAULT_COVERAGE_LEVELS)
        y_level = np.exp(y_log)
        cells = hidden_population_draws(draws, y_level)
        # the per-draw errors take the draws in their order, which the interval sort loses
        per_draw = [mape_summary(cells, truth["p"])] if args.per_draw_mape else []
        point, bounds = predictive_intervals(draws, y_level, levels, cells=cells)

    # with --truth, the uncaptured cells are built in the memory of the sorted
    # hidden-population draws, which is freed before rho_hat centres u_plus
    shares = uncaptured_summaries(draws, out=cells)
    del cells
    n, t = y_log.shape
    write_uncaptured_csv(shares.cell, np.arange(n), np.arange(t), output("uncaptured.csv"), group)
    _write_rows(output("uncaptured_summary.csv"), ["quantity", "value"],
                [["permanent_pct", shares.permanent_pct],
                 ["total_pct", shares.total_pct],
                 ["lambda", shares.lambda_stat],
                 ["spatial_share", shares.spatial_share]])

    if truth is not None:
        rng = np.random.default_rng(args.seed)
        reports = [coverage_report(lo, hi, truth["p"], level, rng=rng)
                   for level, (lo, hi) in zip(levels, bounds)]
        write_coverage_csv(reports, output("coverage.csv"))
        write_mape_csv([mape_summary(point, truth["p"])] + per_draw, output("mape.csv"))
        _write_rows(output("rho.csv"), ["component", "rho_hat"],
                    [["eta_plus", rho_hat(draws.eta_plus, truth["eta_plus"])],
                     ["u_plus", rho_hat(draws.u_plus.reshape(draws.n_draws, -1),
                                        truth["u_plus"].ravel())],
                     ["v", rho_hat(draws.v, truth["v"])]])

    return ({"levels": levels, "group_by": group,
             "per_draw_mape": bool(args.per_draw_mape), "seed": args.seed},
            {"draws": str(args.draws), "truth": str(args.truth) if args.truth else None})


def cmd_sir(args, output) -> tuple[dict, dict]:
    panel = CountPanel.from_csv(args.counts)
    table = compute_sir(panel, nu=args.nu, alpha=args.alpha)
    tiers = flag_hotspots(table, tuple(args.thresholds))
    write_sir_csv(table, tiers, output("sir.csv"))
    return ({"nu": args.nu, "alpha": args.alpha, "thresholds": list(args.thresholds)},
            {"counts": str(args.counts)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiddenpop",
        description="Bayesian spatial panel frontier model for hidden-population inference",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic panel plus truth sidecar")
    p_sim.add_argument("--grid", type=_parse_grid, default=None, metavar="RxC")
    p_sim.add_argument("--periods", dest="n_periods", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--beta", dest="beta_true", type=float, nargs=2, default=None,
                       metavar=("B1", "B2"))
    for name in ("alpha", "eta", "u", "eps", "v"):
        p_sim.add_argument(f"--sigma-{name}", type=float, default=None)
    p_sim.add_argument("--lambda", dest="target_lambda", type=float, default=None,
                       help="rescale sigma-eps to hit this signal ratio")
    p_sim.add_argument("--student-t-df", dest="eps_t_df", type=float, default=None)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="run the Gibbs sampler on a panel CSV")
    p_fit.add_argument("--data", required=True)
    graph = p_fit.add_mutually_exclusive_group(required=True)
    graph.add_argument("--grid", type=_parse_grid, default=None, metavar="RxC")
    graph.add_argument("--adjacency", default=None)
    p_fit.add_argument("--iters", dest="n_iter", type=int, default=None)
    p_fit.add_argument("--burnin", dest="burn_in", type=int, default=None)
    p_fit.add_argument("--thin", type=int, default=None)
    p_fit.add_argument("--seed", type=int, default=None)
    p_fit.add_argument("--chains", type=int, default=None)
    p_fit.add_argument("--export-csv", action="store_true")
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_an = sub.add_parser("analyze", help="coverage, MAPE and uncaptured summaries")
    p_an.add_argument("--draws", required=True)
    p_an.add_argument("--truth", default=None)
    p_an.add_argument("--levels", type=_parse_levels, default=None,
                      metavar="L1,L2,...")
    p_an.add_argument("--per-draw-mape", action="store_true")
    group = p_an.add_mutually_exclusive_group()
    group.add_argument("--by-region", action="store_true")
    group.add_argument("--by-period", action="store_true")
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_sir = sub.add_parser("sir", help="standardized incidence ratio screening")
    p_sir.add_argument("--counts", required=True)
    p_sir.add_argument("--thresholds", type=_parse_levels, default=sir.DEFAULT_TIERS)
    p_sir.add_argument("--nu", type=float, default=sir.DEFAULT_PRIOR_NU)
    p_sir.add_argument("--alpha", type=float, default=sir.DEFAULT_PRIOR_ALPHA)
    p_sir.add_argument("--out", default=None)
    p_sir.set_defaults(func=cmd_sir)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; 0 on success, 1 on an input or file error or a
    chain that failed numerically.

    A `cmd_*` function takes (args, output), names each file it writes
    through `output(name) -> Path`, and returns the (config, inputs) that
    the manifest records.
    """
    args = build_parser().parse_args(argv)
    started = time.time()
    written: list[str] = []

    def output(name: str) -> Path:
        written.append(name)
        return out / name

    try:
        out = _out_dir(args.out)
        # every string argument but --out may name an input file
        _remove_previous_run(out, {Path(value).resolve() for key, value in vars(args).items()
                                   if key != "out" and isinstance(value, str)})
        config, inputs = args.func(args, output)
        _manifest(out, args.subcommand, config, inputs, written, started)
    except Exception as exc:
        for name in written:
            try:
                (out / name).unlink(missing_ok=True)
            except OSError:
                pass
        if not isinstance(exc, (ValueError, OSError, SamplerError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
