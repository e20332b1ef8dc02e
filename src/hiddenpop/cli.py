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
import itertools
import json
import math
import os
import struct
import sys
import tempfile
import time
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

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


class _Member(NamedTuple):
    """A member of draws.npz, `name`.npy. A string `fields` names the array
    it holds: a `PosteriorDraws` field, or "y", the observed log-scale
    panel; a tuple names the scalar fields it packs, in order. `shape` is in
    numbers and in the letters of _DIMS, and `dtype` is the one save_draws
    writes and load_draws accepts."""

    name: str
    fields: str | tuple[str, ...]
    shape: tuple
    dtype: str

    @property
    def per_draw(self) -> bool:
        """Whether the member holds a row per stored draw."""
        return self.shape[:1] == ("S",)

    def pack(self, values: dict) -> np.ndarray:
        """The array save_draws writes for this member, taken from `values`,
        the fields of the draws and `y`."""
        fields = self.fields
        arr = np.asarray(values[fields] if isinstance(fields, str) else
                         [values[name] for name in fields])
        if arr.dtype.hasobject:
            raise ValueError(f"draws member {self.name} has an object dtype")
        return arr.astype(self.dtype, copy=False)


_DIMS = {"S": "draws", "N": "regions", "T": "periods", "K": "slopes"}
# The members of draws.npz, in the order save_draws writes them.
_DRAWS_SCHEMA = (
    _Member("beta", "beta", ("S", "K"), "float64"),
    _Member("u_plus", "u_plus", ("S", "N", "T"), "float64"),
    _Member("eta_plus", "eta_plus", ("S", "N"), "float64"),
    _Member("v", "v", ("S", "N"), "float64"),
    _Member("chain_id", "chain_id", ("S",), "int64"),
    _Member("y", "y", ("N", "T"), "float64"),
    _Member("meta", ("seed", "n_iter", "burn_in", "thin"), (4,), "int64"),
    _Member("avg_row_sum", ("avg_row_sum",), (1,), "float64"),
    _Member("accept_rates", ("accept_rate_alpha", "accept_rate_eps"), (2,), "float64"),
    _Member("floored", ("floored_count",), (1,), "int64"),
    *(_Member(name, name, ("S",), "float64")
      for name in ("sigma2_alpha", "sigma2_eps", "sigma2_v", "sigma2_u", "sigma2_eta")),
)
_DRAWS_SCALARS = tuple(row.name for row in _DRAWS_SCHEMA if row.name.startswith("sigma2_"))
_SAVE_CHUNK_BYTES = 1 << 20
_HUFFMAN_ONLY_MIN_BYTES = 64 << 10
# The deflate thread is woken once this many bytes of rows are final. At
# the paper size a row is 2 KB, and a wake per row cost more in hand-offs
# of the interpreter lock than the deflate it moved off the chain.
_SPOOL_BATCH_BYTES = 256 << 10
# load_draws reads and inflates a piece of a member this many bytes at a
# time. Buffers this small are reused from the allocator's pools; whole 1 MiB
# pieces on two threads raised the peak memory of a stress analyze by 3 MB.
_INFLATE_STEP_BYTES = 64 << 10


def _out_dir(arg: str | None) -> Path:
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    out = Path(arg) if arg else root
    if not out.is_absolute():
        out = root / out
    out.mkdir(parents=True, exist_ok=True)
    return out


def save_draws(draws: PosteriorDraws, y: np.ndarray, path, *,
               spool: _DeflateSpool | None = None) -> None:
    """Persist draws in a compact columnar zip of .npy members, one for
    each row of `_DRAWS_SCHEMA`, in its order, shape and dtype.

    Functionally an npz readable by numpy.load, but written with pinned
    zip timestamps so identical draws produce byte-identical files. Members
    of at least 64 KiB, such as `u_plus`, are deflated with Huffman coding
    only: float64 draws hold almost no repeated strings, so the default
    match search costs about four times as long and gives a slightly larger
    stream. Smaller members keep the default level, which still pays on
    their repeats (`chain_id`, MH-rejected variances). A Huffman-only
    member longer than 1 MiB is one deflate stream cut by full flushes into
    1 MiB pieces that inflate on their own, and its zip comment lists where
    each piece starts (see `_PieceDeflater`), so `load_draws` can inflate
    the pieces on two threads.

    The large members of `draws` are deflated on a second thread, each
    into an unlinked temporary file in the directory of `path`. `fit`
    passes the `spool` that `run_chain`'s `on_rows` hook fed as the chain
    made rows final, so that deflate runs on the second core while the
    chain sweeps; without one, a spool is made here and fed every row at
    once. The archive is then written as before: every member passes
    through zipfile's writer in 1 MiB chunks for its CRC and sizes, and a
    spooled member replays its stream in place of deflating. Deflate's
    output does not depend on how its input is cut, and each flush falls
    at a fixed offset of its member, so the file has the same bytes either
    way, and saving holds no second in-memory copy of a member. The spool
    is closed on return.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with closing(spool or _DeflateSpool(path.parent)) as spool:
        spool.on_rows(draws, draws.n_draws)
        streams = spool.streams(draws)
        values = {**vars(draws), "y": y}
        try:
            with zipfile.ZipFile(tmp, "w", zipfile.ZIP_DEFLATED) as zf:
                for row in _DRAWS_SCHEMA:
                    _write_npy_member(zf, row.name, row.pack(values), streams.get(row.name))
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    tmp.replace(path)


def _npy_parts(arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The header and the data, as a flat byte view, of the bytes
    np.lib.format.write_array gives for `arr`."""
    header = np.lib.format.header_data_from_array_1_0(arr)
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(head, header)
    # write_array keeps a Fortran-ordered array's order and writes any other
    # in C order; a flat byte view copies nothing and also takes an empty
    # array such as the (S, 0) slopes of a panel without regressors
    data = arr.T if header["fortran_order"] else np.ascontiguousarray(arr)
    return head.getvalue(), data.reshape(-1).view(np.uint8)


class _PieceDeflater:
    """The raw deflate stream of a member of at least 64 KiB: Huffman
    coding only, in pieces that inflate on their own.

    A full flush ends every `_SAVE_CHUNK_BYTES` of the member's bytes, the
    .npy header included, so each later piece starts on a byte boundary and
    refers to nothing before it. A flush falls at a fixed offset of the
    member however its bytes are cut into `compress` calls, and only once
    more bytes follow it, so a member of at most one piece is a plain
    Huffman-only stream. `index()` is the member's zip comment: the piece
    length and where each later piece starts in the stream.
    """

    def __init__(self):
        self._zlib = zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, -15,
                                      zlib.DEF_MEM_LEVEL, zlib.Z_HUFFMAN_ONLY)
        self._piece = _SAVE_CHUNK_BYTES
        self._fed = 0   # member bytes taken in
        self._out = 0   # stream bytes handed out
        self._starts = []

    def compress(self, data) -> bytes:
        data = memoryview(data).cast("B")
        parts = []
        while data:
            if self._fed and not self._fed % self._piece:
                parts.append(self._zlib.flush(zlib.Z_FULL_FLUSH))
                self._out += len(parts[-1])
                self._starts.append(self._out)
            take = self._piece - self._fed % self._piece
            chunk, data = data[:take], data[take:]
            parts.append(self._zlib.compress(chunk))
            self._out += len(parts[-1])
            self._fed += len(chunk)
        return b"".join(parts)

    def flush(self) -> bytes:
        return self._zlib.flush()

    def index(self) -> bytes:
        """b"pieces <piece length> <start> ..." for a member of more than one
        piece, or nothing. The comment field holds at most 64 KiB; a longer
        index is left out, and the member still reads as one piece."""
        comment = b" ".join([b"pieces", *(b"%d" % n for n in (self._piece, *self._starts))])
        return comment if self._starts and len(comment) <= 0xFFFF else b""


def _write_npy_member(zf: zipfile.ZipFile, name: str, arr, stream=None) -> None:
    """`name`.npy with the bytes np.lib.format.write_array gives, deflated
    straight into the archive in chunks; in Huffman-only pieces from 64 KiB
    up. A member with a spooled `stream` takes its deflate output and its
    piece index from there."""
    head, data = _npy_parts(arr)
    info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
    info.compress_type = zipfile.ZIP_DEFLATED
    compressor = stream
    if compressor is None and len(head) + data.nbytes >= _HUFFMAN_ONLY_MIN_BYTES:
        compressor = _PieceDeflater()
    with zf.open(info, "w") as member:
        # the handle has written nothing yet, so the member is one raw
        # deflate stream either way
        if compressor is not None:
            member._compressor = compressor
        member.write(head)
        for start in range(0, len(data), _SAVE_CHUNK_BYTES):
            member.write(data[start:start + _SAVE_CHUNK_BYTES])
    if compressor is not None:
        # the central directory, written when the archive closes, holds it
        info.comment = compressor.index()


class _DeflateSpool:
    """Deflates the large per-draw members of a draws file on a one-worker
    executor, rows at a time, each into a `_SpooledStream`.

    `on_rows(draws, n)` is `run_chain`'s progress hook: rows [0, n) of
    `draws` hold their final values. The first call makes a stream for
    each per-draw member of `_DRAWS_SCHEMA` of at least 64 KiB. Each call
    that makes another `_SPOOL_BATCH_BYTES` of rows final, or the last
    row, submits a batch: a job that feeds the new rows to every stream.
    The members must be C-ordered and of the schema's dtype while rows are
    missing, as `run_chain`'s are. zlib and file writes release the
    interpreter lock, so the deflate runs beside the sweeps; the worker
    thread starts with the first batch. A call raises the first batch that
    failed. `streams(draws)` waits for every batch, raises the first
    failure and returns the streams that `save_draws` replays. `close`
    cancels the batches not yet started, waits for the thread and drops
    the files.

    The class is private, and neither the hook nor a batch calls a public
    function of the package's modules, so a tracer that wraps those
    functions records no span inside `run_chain` for the deflate.
    """

    def __init__(self, directory):
        self._directory = directory
        self._draws = None
        self._streams: dict[str, _SpooledStream] = {}
        self._rows = 0   # the rows handed to a batch
        self._row_bytes = 0   # bytes per row over the spooled members
        self._executor = None
        self._batches = []   # the batches submitted and not yet seen to succeed

    def on_rows(self, draws: PosteriorDraws, n: int) -> None:
        """`run_chain`'s hook: rows [0, n) of `draws` are final. Raises the
        first batch that failed, if any did."""
        # one worker runs the batches in order
        while self._batches and self._batches[0].done():
            self._batches.pop(0).result()
        if self._draws is None:
            self._start(draws)
        if self._streams and n > self._rows and (
                n == draws.n_draws or (n - self._rows) * self._row_bytes >= _SPOOL_BATCH_BYTES):
            self._batches.append(self._executor.submit(self._deflate, n))
            self._rows = n

    def _start(self, draws: PosteriorDraws) -> None:
        self._draws = draws
        for row in _DRAWS_SCHEMA:
            if row.per_draw:
                head, data = _npy_parts(row.pack(vars(draws)))
                if len(head) + data.nbytes >= _HUFFMAN_ONLY_MIN_BYTES:
                    self._streams[row.name] = _SpooledStream(self._directory, head, data,
                                                             draws.n_draws)
                    self._row_bytes += data.nbytes // draws.n_draws
        if self._streams:
            self._executor = ThreadPoolExecutor(1, thread_name_prefix="draws-deflate")

    def _deflate(self, n: int) -> None:
        for stream in self._streams.values():
            stream.feed(n)

    def streams(self, draws: PosteriorDraws) -> dict[str, _SpooledStream]:
        if draws is not self._draws:
            raise ValueError("the spool holds the deflated rows of other draws")
        for batch in self._batches:
            batch.result()
        return self._streams

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
        for stream in self._streams.values():
            stream.close()


class _SpooledStream:
    """A per-draw member of a draws file, deflated into an unlinked
    temporary file in `directory` as its rows become final, then replayed
    in place of zipfile's compressor for the member.

    `data` is the member's bytes past its .npy header `head`, `rows` rows
    of them. `feed(n)` deflates them up to row n in the Huffman-only
    pieces of `_PieceDeflater`; once every row is in, it flushes the
    stream and rewinds the file. Each `compress(data)` call then returns up
    to len(data) more bytes of the stream, and `flush` the rest, so at most
    one write chunk is in memory. `index()` is the stream's piece index.
    """

    def __init__(self, directory, head: bytes, data: np.ndarray, rows: int):
        self._file = tempfile.TemporaryFile(dir=directory)
        self._deflater = _PieceDeflater()
        self._head, self._data = head, data
        self._row_bytes = data.nbytes // rows
        self._fed = 0   # the bytes of data deflated

    def feed(self, n: int) -> None:
        if self._head:
            self._file.write(self._deflater.compress(self._head))
            self._head = b""
        end = n * self._row_bytes
        for start in range(self._fed, end, _SAVE_CHUNK_BYTES):
            self._file.write(self._deflater.compress(
                self._data[start:min(start + _SAVE_CHUNK_BYTES, end)]))
        self._fed = end
        if end == self._data.nbytes:
            self._file.write(self._deflater.flush())
            self._file.seek(0)

    def index(self) -> bytes:
        return self._deflater.index()

    def compress(self, data) -> bytes:
        return self._file.read(memoryview(data).nbytes)

    def flush(self) -> bytes:
        return self._file.read()

    def close(self) -> None:
        self._file.close()


def load_draws(path) -> tuple[PosteriorDraws, np.ndarray]:
    """Inverse of save_draws; returns (draws, observed log-scale panel).

    Every member of `_DRAWS_SCHEMA` is read by `_read_member`, which checks
    its .npy header against the member's size and the schema's shape and
    dtype before it allocates the array. `u_plus`, the one member that
    grows with draws x regions x periods, is read first, by a
    `_PieceReader`: a second thread starts inflating its pieces straight
    into its array while this thread reads the other members, then both
    threads take pieces until none is left. An archive that cannot be
    read, on either thread, or whose members do not fit the schema, is a
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
        rows = {row.name: row for row in _DRAWS_SCHEMA}
        dims = {}   # the sizes of the schema's dimensions, from the headers read so far
        with z, closing(_PieceReader(path)) as u_plus:
            try:
                u_plus.start(z.zip, rows.pop("u_plus"), dims)
                arrays = {name: _read_member(z.zip, row, dims)[2] for name, row in rows.items()}
                arrays["u_plus"] = u_plus.finish()
            except _ARCHIVE_ERRORS as exc:
                raise _not_a_draws_file(path, exc) from None
    values = {}
    for row in _DRAWS_SCHEMA:
        if isinstance(row.fields, str):
            values[row.fields] = arrays[row.name]
        else:
            values.update(zip(row.fields, arrays[row.name].tolist()))
    y = values.pop("y")
    draws = PosteriorDraws(**values)
    if draws.n_draws == 0:
        raise ValueError(f"{path}: draws file contains no stored draws")
    return draws, y


# what reading a draws archive that is not whole, or not one, raises
_ARCHIVE_ERRORS = (ValueError, EOFError, zipfile.BadZipFile, zlib.error)


def _not_a_draws_file(path, exc: Exception) -> ValueError:
    # a deflate stream cut short is a bare EOFError
    reason = str(exc) or "member data ends early"
    return ValueError(f"{path}: not a hiddenpop draws file: {reason}")


def _read_member(zf: zipfile.ZipFile, row: _Member, dims: dict,
                 data: bool = True) -> tuple[zipfile.ZipInfo, np.ndarray, np.ndarray]:
    """The zip entry of `row`'s member of `zf`, a buffer the size of the
    member, and its array: a view of the buffer past the .npy header. The
    member is opened once. With `data` the array is read from it; without,
    only the header is, and the buffer is left for a `_PieceReader` to fill.

    Before the buffer is allocated, the header must describe exactly the
    member's bytes, so that a damaged one cannot ask for more memory than
    the file holds, and the schema's dtype and shape, whose dimensions take
    their sizes from `dims` or, the first time, enter them there.
    """
    try:
        info = zf.getinfo(row.name + ".npy")
    except KeyError:
        raise ValueError(f"{row.name} is not a file in the archive") from None
    if info.compress_type not in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
        raise ValueError(f"{info.filename} is neither stored nor deflated")
    with zf.open(info) as member:
        # save_draws and numpy.savez write version 1.0 for every draws member
        version = np.lib.format.read_magic(member)
        if version != (1, 0):
            raise ValueError(f"{row.name} has .npy format version {version}")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(member)
        head = member.tell()
        size = head + math.prod(shape) * dtype.itemsize
        if info.file_size != size:
            more = "fewer values" if info.file_size < size else "more bytes"
            raise ValueError(f"{row.name} holds {more} than its header says")
        if not np.can_cast(dtype, row.dtype, "equiv"):
            raise ValueError(f"{row.name} has dtype {dtype}, not {row.dtype}")
        # a dimension without a size yet takes the header's
        expected = [dims.get(dim, dim) for dim in row.shape]
        if len(shape) != len(expected) or any(
                want != got for want, got in zip(expected, shape) if want not in _DIMS):
            text = ", ".join(_DIMS.get(want, str(want)) for want in expected)
            comma = "," if len(expected) == 1 else ""
            raise ValueError(f"{row.name} has shape {shape}, not ({text}{comma})")
        dims.update((dim, n) for dim, n in zip(row.shape, shape) if dim in _DIMS)
        buf = np.empty(size, np.uint8)
        if data:
            view = memoryview(buf)[head:]
            while view:
                chunk, view = view[:_INFLATE_STEP_BYTES], view[_INFLATE_STEP_BYTES:]
                chunk[:] = member.read(len(chunk))
    # the .npy data is the array's memory in its own order
    array = buf[head:].view(dtype)
    return info, buf, array.reshape(shape[::-1]).T if fortran_order else array.reshape(shape)


class _PieceReader:
    """Reads one .npy member of an npz straight into a buffer allocated up
    front, whose bytes past the .npy header are the member's array, a
    piece at a time, on the calling thread and one more.

    A deflated member whose zip comment is a piece index (see
    `_PieceDeflater`) is cut into the pieces it lists; any other member,
    deflated or stored, is one piece. `start(zf, row, dims)` reads and
    checks the .npy header of `row`'s member here, with `_read_member`,
    allocates the buffer and submits a job to a one-worker executor that
    takes pieces from a shared counter. `finish()` takes pieces from the
    same counter, waits for the job, raises what stopped it, checks the
    member's CRC-32 against the zip directory and returns the array.
    `close` stops the job, shuts the executor down and closes its file.

    Each thread opens `path` for itself and reads the compressed bytes of
    its pieces through that handle, so neither moves the file position of
    the other's reads or of the caller's (os.pread would do the same, but
    not on every platform). Each piece is inflated straight into the
    buffer, `_INFLATE_STEP_BYTES` at a time. zlib releases the interpreter
    lock while it inflates, so two pieces inflate at once. The class is
    private and the thread calls no public function of the package, so a
    tracer that wraps those functions records no span from it.
    """

    def __init__(self, path):
        self._path = path
        self._fh = None   # the second thread's handle on the file
        self._next = itertools.count()   # the next piece to take
        self._stop = False
        self._executor = None

    def start(self, zf: zipfile.ZipFile, row: _Member, dims: dict) -> None:
        info, buf, self._array = _read_member(zf, row, dims, data=False)
        self._info, self._buf = info, memoryview(buf)
        self._piece, self._bounds = self._pieces(info)
        self._fh = open(self._path, "rb", buffering=0)
        # the member's data follows its local header, name and extra field
        local = _pread(self._fh, 30, info.header_offset)
        if len(local) < 30 or local[:4] != b"PK\x03\x04":
            raise zipfile.BadZipFile(f"{info.filename} has no local header")
        name_len, extra_len = struct.unpack("<26xHH", local)
        self._at = info.header_offset + 30 + name_len + extra_len
        self._executor = ThreadPoolExecutor(1, thread_name_prefix="draws-inflate")
        self._second = self._executor.submit(self._work, self._fh)

    @staticmethod
    def _pieces(info: zipfile.ZipInfo) -> tuple[int, list[int]]:
        """The piece length and the bounds of each piece in the compressed
        data: [0, start of piece 1, ..., compress_size]."""
        fields = info.comment.split()
        if info.compress_type != zipfile.ZIP_DEFLATED or fields[:1] != [b"pieces"]:
            return max(info.file_size, 1), [0, info.compress_size]
        try:
            piece, *starts = (int(field) for field in fields[1:])
        except ValueError:
            piece, starts = 0, []
        bounds = [0, *starts, info.compress_size]
        if (piece < 1 or len(starts) != -(-info.file_size // piece) - 1
                or any(lo >= hi for lo, hi in zip(bounds, bounds[1:]))):
            raise ValueError(f"{info.filename} has a bad piece index")
        return piece, bounds

    def _work(self, fh) -> None:
        for k in self._next:
            if k >= len(self._bounds) - 1 or self._stop:
                return
            self._read(fh, k)

    def _read(self, fh, k: int) -> None:
        """Inflate piece k, the member's bytes from k piece lengths on,
        reading and inflating at most `_INFLATE_STEP_BYTES` at a time."""
        info, step = self._info, _INFLATE_STEP_BYTES
        lo, hi = self._bounds[k], self._bounds[k + 1]
        at, end = k * self._piece, min((k + 1) * self._piece, info.file_size)
        # a stored member is one piece of its own bytes
        inflater = zlib.decompressobj(-15) if info.compress_type == zipfile.ZIP_DEFLATED else None
        raw = b""
        while at < end and not (inflater and inflater.eof):
            if not raw:
                raw = _pread(fh, min(step, hi - lo), self._at + lo)
                if not raw:
                    break
                lo += len(raw)
            if inflater is None:
                out, raw = raw[:end - at], raw[end - at:]
            else:
                out = inflater.decompress(raw, min(step, end - at))
                raw = inflater.unconsumed_tail
            self._buf[at:at + len(out)] = out
            at += len(out)
        # the piece holds exactly its bytes, and only the last ends the stream
        rest = raw + _pread(fh, hi - lo, self._at + lo)
        if inflater is None:
            whole = not rest
        else:
            last = k == len(self._bounds) - 2
            whole = not inflater.decompress(rest, 1) and inflater.eof == last
        if at != end or not whole:
            raise zipfile.BadZipFile(f"Bad CRC-32 for file {info.filename!r}")

    def finish(self) -> np.ndarray:
        with open(self._path, "rb", buffering=0) as fh:
            self._work(fh)
        self._second.result()
        if zlib.crc32(self._buf) != self._info.CRC:
            raise zipfile.BadZipFile(f"Bad CRC-32 for file {self._info.filename!r}")
        return self._array

    def close(self) -> None:
        if self._executor is not None:
            self._stop = True
            self._executor.shutdown()
        if self._fh is not None:
            self._fh.close()


def _pread(fh, n: int, at: int) -> bytes:
    """At most `n` bytes of the file from offset `at`, fewer at its end."""
    fh.seek(at)
    return fh.read(n)


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
    with closing(_DeflateSpool(path.parent)) as spool:
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
            raise ValueError(f"{args.truth}: truth grid {truth['p'].shape} does not match the "
                             f"{y_log.shape} grid of {args.draws}")
        if not np.any(truth["p"]):
            raise ValueError(f"{args.truth}: no cell has a nonzero P, so no percentage "
                             f"error is defined")
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
