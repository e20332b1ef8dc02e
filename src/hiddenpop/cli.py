"""Command-line pipeline: simulate -> fit -> analyze, plus SIR screening.

Every subcommand resolves its configuration (defaults, optional key=value
config file, then flags), reads its inputs and writes its outputs. `main`
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
import time
import zipfile
import zlib
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
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
from .sampler import ChainConfig, PosteriorDraws, run_chain
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

# fit's config-file keys: key -> (ChainConfig field, type); the flags that
# override them store into the same names
_FIT_KEYS = {
    "iters": ("n_iter", int),
    "burnin": ("burn_in", int),
    "thin": ("thin", int),
    "seed": ("seed", int),
    "chains": ("chains", int),
    "stabilize": ("stabilize", bool),
    "mh_step_scale_alpha": ("mh_step_scale_alpha", float),
    "mh_step_scale_eps": ("mh_step_scale_eps", float),
}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _out_dir(arg: str | None) -> Path:
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    out = Path(arg) if arg else root
    if not out.is_absolute():
        out = root / out
    out.mkdir(parents=True, exist_ok=True)
    return out


def save_draws(draws: PosteriorDraws, y: np.ndarray, path) -> None:
    """Persist draws in a compact columnar zip of .npy members.

    Functionally an npz readable by numpy.load, but written with pinned
    zip timestamps so identical draws produce byte-identical files. Each
    member is deflated straight into the file in 1 MiB chunks, so saving
    holds no second copy of the draws in memory. Members of at least
    64 KiB, such as `u_plus`, are deflated with Huffman coding only:
    float64 draws hold almost no repeated strings, so the default match
    search costs about four times as long and gives a slightly larger
    stream. Smaller members keep the default level, which still pays on
    their repeats (`chain_id`, MH-rejected variances).
    """
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
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with zipfile.ZipFile(tmp, "w", zipfile.ZIP_DEFLATED) as zf:
            for name, arr in arrays.items():
                _write_npy_member(zf, name, arr)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    tmp.replace(path)


def _write_npy_member(zf: zipfile.ZipFile, name: str, arr) -> None:
    """`name`.npy with the bytes np.lib.format.write_array gives, deflated
    straight into the archive in chunks; Huffman-only from 64 KiB up."""
    arr = np.asanyarray(arr)
    if arr.dtype.hasobject:
        raise ValueError(f"draws member {name} has an object dtype")
    header = np.lib.format.header_data_from_array_1_0(arr)
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(head, header)
    # write_array keeps a Fortran-ordered array's order and writes any other in C order
    data = memoryview(arr.T if header["fortran_order"] else np.ascontiguousarray(arr)).cast("B")
    info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
    info.compress_type = zipfile.ZIP_DEFLATED
    with zf.open(info, "w") as member:
        if head.tell() + data.nbytes >= _HUFFMAN_ONLY_MIN_BYTES:
            # the handle has written nothing yet, so the member is one raw
            # deflate stream either way
            member._compressor = zlib.compressobj(
                zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, -15,
                zlib.DEF_MEM_LEVEL, zlib.Z_HUFFMAN_ONLY)
        member.write(head.getvalue())
        for start in range(0, len(data), _SAVE_CHUNK_BYTES):
            member.write(data[start:start + _SAVE_CHUNK_BYTES])


def load_draws(path) -> tuple[PosteriorDraws, np.ndarray]:
    """Inverse of save_draws; returns (draws, observed log-scale panel)."""
    with np.load(path) as z:
        meta = z["meta"]
        draws = PosteriorDraws(
            beta=z["beta"], u_plus=z["u_plus"], eta_plus=z["eta_plus"], v=z["v"],
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
    if draws.n_draws == 0:
        raise ValueError(f"{path}: draws file contains no stored draws")
    return draws, y


def export_draws_csv(draws: PosteriorDraws, path) -> None:
    """Scalar parameters per stored draw (slopes and standard deviations)."""
    k = draws.beta.shape[1]
    header = (["draw", "chain"] + [f"beta_{j + 1}" for j in range(k)]
              + [name.replace("sigma2_", "sigma_") for name in _DRAWS_SCALARS])
    rows = []
    for s in range(draws.n_draws):
        row = [s, int(draws.chain_id[s])]
        row += [float(draws.beta[s, j]) for j in range(k)]
        row += [float(np.sqrt(getattr(draws, name)[s])) for name in _DRAWS_SCALARS]
        rows.append(row)
    _write_rows(path, header, rows)


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


def _parse_beta_draws(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if count < MIN_HDI_DRAWS:
        raise argparse.ArgumentTypeError(f"an HDI needs at least {MIN_HDI_DRAWS} draws, got {count}")
    return count


def _read_config_file(path) -> dict:
    """fit settings from key=value lines, keyed by field name. An unknown or
    repeated key and a value of the wrong type name the file and line."""
    settings, first_line = {}, {}
    with Path(path).open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _FIT_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r} "
                                 f"(known: {', '.join(_FIT_KEYS)})")
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: {key} repeated, "
                                 f"first set on line {first_line[key]}")
            first_line[key] = lineno
            name, cast = _FIT_KEYS[key]
            try:
                settings[name] = _BOOLEANS[value.lower()] if cast is bool else cast(value)
            except (KeyError, ValueError):
                kind = "one of " + "/".join(_BOOLEANS) if cast is bool else cast.__name__
                raise ValueError(f"{path}:{lineno}: {key} must be {kind}, "
                                 f"got {value!r}") from None
    return settings


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


def cmd_simulate(args, output) -> tuple[dict, dict]:
    config = DgpConfig(
        grid_rows=args.grid[0], grid_cols=args.grid[1], n_periods=args.periods,
        beta_true=tuple(args.beta), sigma_alpha=args.sigma_alpha,
        sigma_eta=args.sigma_eta, sigma_u=args.sigma_u, sigma_eps=args.sigma_eps,
        sigma_v=args.sigma_v, eps_t_df=args.student_t_df, seed=args.seed,
    )
    if args.target_lambda is not None:
        config = make_lambda_scenario(args.target_lambda, config)
    truth = simulate(config)
    truth.dataset.to_csv(output("panel.csv"))
    write_truth_csv(truth, output("truth.csv"))
    return {**config.__dict__, "beta_true": list(config.beta_true),
            "lambda": lambda_of(config)}, {}


def cmd_fit(args, output) -> tuple[dict, dict]:
    settings = _read_config_file(args.config) if args.config else {}
    for name, _ in _FIT_KEYS.values():
        if getattr(args, name) is not None:  # a flag wins over the file
            settings[name] = getattr(args, name)
    chain = ChainConfig(**settings)
    if chain.chains * chain.n_stored < MIN_HDI_DRAWS:
        raise ValueError(f"{chain.chains} chain(s) x {chain.n_stored} stored draws is fewer than "
                         f"the {MIN_HDI_DRAWS} draws an HDI needs")

    data = PanelDataset.from_csv(args.data)
    graph = (build_queen_grid(*args.grid) if args.grid
             else load_adjacency(args.adjacency, data.regions))
    draws = run_chain(data, graph, chain)

    save_draws(draws, data.y, output("draws.npz"))
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
    draws, y_log = load_draws(args.draws)
    y_level = np.exp(y_log)
    levels = args.levels
    if args.truth is None and levels is not None:
        raise ValueError("coverage levels were requested but no --truth file given")
    group = "region" if args.by_region else ("period" if args.by_period else None)

    shares = uncaptured_summaries(draws)
    n, t = y_level.shape
    write_uncaptured_csv(shares.cell, np.arange(n), np.arange(t), output("uncaptured.csv"), group)
    _write_rows(output("uncaptured_summary.csv"), ["quantity", "value"],
                [["permanent_pct", shares.permanent_pct],
                 ["total_pct", shares.total_pct],
                 ["lambda", shares.lambda_stat],
                 ["spatial_share", shares.spatial_share]])

    if args.truth is not None:
        truth = read_truth_csv(args.truth)
        if truth["p"].shape != y_level.shape:
            raise ValueError(
                f"truth grid {truth['p'].shape} does not match draws {y_level.shape}"
            )
        levels = levels if levels is not None else [0.90, 0.95, 0.99]
        rng = np.random.default_rng(args.seed)
        point, bounds = predictive_intervals(draws, y_level, levels)
        reports = [coverage_report(lo, hi, truth["p"], level,
                                   n_beta_draws=args.beta_draws, rng=rng)
                   for level, (lo, hi) in zip(levels, bounds)]
        write_coverage_csv(reports, output("coverage.csv"))
        summaries = [mape_summary(point, truth["p"])]
        if args.per_draw_mape:
            summaries.append(mape_summary(hidden_population_draws(draws, y_level),
                                          truth["p"]))
        write_mape_csv(summaries, output("mape.csv"))
        _write_rows(output("rho.csv"), ["component", "rho_hat"],
                    [["eta_plus", rho_hat(draws.eta_plus, truth["eta_plus"])],
                     ["u_plus", rho_hat(draws.u_plus.reshape(draws.n_draws, -1),
                                        truth["u_plus"].ravel())],
                     ["v", rho_hat(draws.v, truth["v"])]])

    return ({"levels": levels, "group_by": group, "beta_draws": args.beta_draws,
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
    p_sim.add_argument("--grid", type=_parse_grid, default=(7, 7), metavar="RxC")
    p_sim.add_argument("--periods", type=int, default=5)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--beta", type=float, nargs=2, default=[0.5, -0.5],
                       metavar=("B1", "B2"))
    p_sim.add_argument("--sigma-alpha", type=float, default=0.1)
    p_sim.add_argument("--sigma-eta", type=float, default=0.5)
    p_sim.add_argument("--sigma-u", type=float, default=0.2)
    p_sim.add_argument("--sigma-eps", type=float, default=0.1)
    p_sim.add_argument("--sigma-v", type=float, default=0.4)
    p_sim.add_argument("--lambda", dest="target_lambda", type=float, default=None,
                       help="rescale sigma-eps to hit this signal ratio")
    p_sim.add_argument("--student-t-df", type=float, default=None)
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
    p_fit.add_argument("--no-stabilize", dest="stabilize", action="store_false",
                       default=None, help="disable the decomposition guards and level move")
    p_fit.add_argument("--mh-step-alpha", dest="mh_step_scale_alpha", type=float,
                       default=None)
    p_fit.add_argument("--mh-step-eps", dest="mh_step_scale_eps", type=float, default=None)
    p_fit.add_argument("--config", default=None, help="key=value settings file")
    p_fit.add_argument("--export-csv", action="store_true")
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_an = sub.add_parser("analyze", help="coverage, MAPE and uncaptured summaries")
    p_an.add_argument("--draws", required=True)
    p_an.add_argument("--truth", default=None)
    p_an.add_argument("--levels", type=_parse_levels, default=None,
                      metavar="L1,L2,...")
    p_an.add_argument("--beta-draws", type=_parse_beta_draws, default=20000)
    p_an.add_argument("--per-draw-mape", action="store_true")
    group = p_an.add_mutually_exclusive_group()
    group.add_argument("--by-region", action="store_true")
    group.add_argument("--by-period", action="store_true")
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_sir = sub.add_parser("sir", help="standardized incidence ratio screening")
    p_sir.add_argument("--counts", required=True)
    p_sir.add_argument("--thresholds", type=_parse_levels, default=[0.90, 0.95, 0.99])
    p_sir.add_argument("--nu", type=float, default=0.01)
    p_sir.add_argument("--alpha", type=float, default=0.01)
    p_sir.add_argument("--out", default=None)
    p_sir.set_defaults(func=cmd_sir)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; 0 on success, 1 on an input or file error.

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
        if not isinstance(exc, (ValueError, OSError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
