"""Benchmark of the hiddenpop pipeline: end-to-end times and a traced per-layer run.

    python3 perfbench/run.py --workload paper-7x7x5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source tree that has `src/hiddenpop`; the
package is imported from there, never from an installed copy. One run is
a closed loop with one client: each CLI stage starts only after the
previous one finished. The parent process starts fresh child processes
(see session.py) so that set-up, including imports, is timed as a user
pays it, and so that peak RSS is the workload's own.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics. The
lines before it print every metric with its unit, the draws.npz
fingerprint and the environment. Full results, and for traced runs the
spans and the per-layer table, go to .perfbench/results/ in the tree.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_REPEATS = 5
BLAS_THREADS = 1
DEADLINE_S = 170.0        # every run must end within 180 s
SUMMARY_UNITS = {
    "setup_s": "s", "fit_s": "s", "sweeps_per_s": "1/s", "analyze_s": "s",
    "pipeline_s": "s", "screen_s": "s", "peak_rss_mb": "MB", "draws_mb": "MB",
}
INFO_UNITS = {"ess_per_s": "1/s", "min_bulk_ess": "draws", "failed_frac": "ratio"}
SWEEP_UPDATES = ("update_beta", "update_u_plus", "update_eta_plus", "update_v",
                 "update_level", "update_sigma2_v", "update_sigma2_u", "update_sigma2_eta",
                 "update_sigma2_alpha_eps_mh")
PER_CALL_US = ("kernels.truncated_normal", "kernels.mh_scaled_chisq_step",
               "kernels.sample_inverse_gamma", "spatial.car_quadratic_form")
PER_REQUEST_S = {
    "fit": ("data.PanelDataset.from_csv", "cli.save_draws"),
    "analyze": ("cli.load_draws", "simulate.read_truth_csv", "analysis.predictive_intervals",
                "analysis.coverage_report", "analysis.mape_summary", "analysis.rho_hat",
                "analysis.write_uncaptured_csv"),
    "sir": ("data.CountPanel.from_csv", "sir.compute_sir", "sir.score_exceedance",
            "sir.flag_hotspots", "sir.write_sir_csv"),
    "simulate": ("simulate.simulate", "simulate.write_truth_csv", "data.PanelDataset.to_csv"),
}
# The calibration kernel's time at the reference host speed: about its
# fastest time on a 2-vCPU Xeon at 2.1 GHz. Normalised stage times are in
# seconds at that speed.
CALIBRATION_REF_S = 2.0e-3
RUN_CHAIN_ACCOUNTED = 0.99   # update spans + run_chain self time, share of run_chain


class BenchmarkError(RuntimeError):
    """The run cannot produce a result (missing source tree, crashed child)."""


def _environment() -> dict:
    import numpy
    import scipy

    git = shutil.which("git")
    commit = None
    if git:
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        proc = subprocess.run([git, "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hiddenpop").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "git_commit": commit,
        "source_sha256": source.hexdigest(), "machine": platform.machine(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("HIDDENPOP_OUTPUT_ROOT", None)
    env.pop("PYTHONPATH", None)
    return env


def _run_child(role: str, args, workdir: Path, deadline: float, *, trace: int,
               tag: str = "", seconds: float = 0.0) -> dict:
    argv = [sys.executable, str(HERE / "session.py"), role, "--root", str(ROOT),
            "--workdir", str(workdir), "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(trace), "--tag", tag, "--seconds", repr(seconds)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"no time left for the {role} child")
    proc = subprocess.Popen(argv, env=_child_env(), cwd=str(ROOT),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"{role} child exceeded the {DEADLINE_S:.0f} s deadline")
    if err:
        sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchmarkError(f"{role} child exited with code {proc.returncode}")
    return json.loads((workdir / f"{role}{tag}.json").read_text())


def _median(values):
    return statistics.median(values) if values else float("nan")


def _scaled(seconds: float, calibration: float) -> float:
    """Wall time rescaled to the reference host speed (see README.md)."""
    return seconds * CALIBRATION_REF_S / calibration


def _stage_times(records: list[dict], traced: bool) -> dict[str, list[tuple[float, float]]]:
    """Per stage, (raw, scaled) seconds of every call that passed its checks."""
    out: dict[str, list[tuple[float, float]]] = {"fit": [], "analyze": [], "sir": []}
    for rec in records:
        if rec["traced"] == traced and "seconds" in rec and not rec["problems"]:
            out[rec["stage"]].append((rec["seconds"],
                                      _scaled(rec["seconds"], rec["calibration_s"])))
    return out


def _end_to_end(workload: Workload, setups: list[dict], measured: dict, info: dict) -> dict:
    """Times are medians of host-speed-normalised wall times (see README.md)."""
    times = _stage_times(measured["records"], traced=False)
    stage = {name: _median([scaled for _, scaled in v]) for name, v in times.items()}
    draws = measured["draws"]
    metrics = {
        "setup_s": _median([_scaled(s["setup_s"], s["calibration_s"]) for s in setups]),
        "fit_s": stage["fit"],
        "sweeps_per_s": workload.sweeps / stage["fit"],
        "analyze_s": stage["analyze"],
        "pipeline_s": stage["fit"] + stage["analyze"],
        "screen_s": stage["sir"],
        "peak_rss_mb": measured["peak_rss_kb"] / 1024.0,
        "draws_mb": _median([d["draws_bytes"] for d in draws]) / 1e6,
    }
    info["stage_samples"] = {
        name: {"calls": len(v), "raw_min": min(r for r, _ in v),
               "raw_median": _median([r for r, _ in v]), "raw_max": max(r for r, _ in v)}
        for name, v in times.items() if v}
    info["setup_raw_s"] = [s["setup_s"] for s in setups]
    speed = [r["calibration_s"] for r in measured["records"] if "calibration_s" in r]
    if speed:
        info["calibration_s"] = {"min": min(speed), "median": _median(speed),
                                 "max": max(speed)}
    if draws:
        ess = draws[0]["bulk_ess"]
        info["min_bulk_ess"] = min(ess.values())
        info["min_bulk_ess_parameter"] = min(ess, key=ess.get)
        info["ess_per_s"] = info["min_bulk_ess"] / stage["fit"]
    return metrics


def _per_layer(workload: Workload, setup_trace: dict, measured: dict, info: dict) -> dict:
    trace = measured["trace"]
    fits = sum(1 for stage in trace["stages"].values() if stage == "fit")
    sweeps = workload.sweeps * fits

    def total(name: str, field: int = 1) -> float:
        """Calls (0), total ns (1) or self ns (2) of a span name over all requests."""
        return sum(names.get(name, [0, 0, 0])[field] for names in trace["requests"].values())

    def per_request(name: str, stage: str, source: dict) -> float:
        values = [names.get(name, [0, 0, 0])[1] / 1e9
                  for req, names in source["requests"].items()
                  if source["stages"].get(req) == stage]
        return _median(values)

    metrics = {}
    for update in SWEEP_UPDATES:
        metrics[f"sampler.{update}.us_per_sweep"] = total(f"sampler.{update}") / 1e3 / sweeps
    metrics["sampler.run_chain.self_us_per_sweep"] = \
        total("sampler.run_chain", 2) / 1e3 / sweeps
    metrics["sampler.run_chain.us_per_sweep"] = total("sampler.run_chain") / 1e3 / sweeps

    level_calls = total("sampler.update_level", 0)
    metrics["sampler.update_level.accept_ratio"] = \
        trace["true_results"].get("sampler.update_level", 0) / level_calls
    draws = measured["draws"]
    metrics["sampler.mh_alpha.accept_ratio"] = _median([d["accept_rate_alpha"] for d in draws])
    metrics["sampler.mh_eps.accept_ratio"] = _median([d["accept_rate_eps"] for d in draws])
    metrics["sampler.floored_count"] = _median([d["floored_draws"] for d in draws])
    untraced_fit = _median([scaled for _, scaled in _stage_times(measured["records"], False)["fit"]])
    traced_fit = _median([scaled for _, scaled in _stage_times(measured["records"], True)["fit"]])
    min_ess = min(draws[0]["bulk_ess"].values())
    metrics["sampler.min_bulk_ess"] = min_ess
    metrics["sampler.ess_per_s"] = min_ess / untraced_fit

    metrics["kernels.truncated_normal.calls_per_sweep"] = \
        total("kernels.truncated_normal", 0) / sweeps
    for name in PER_CALL_US:
        metrics[f"{name}.us_per_call"] = total(name) / 1e3 / max(total(name, 0), 1)
    metrics["spatial.build_queen_grid.s"] = _median(
        [names["spatial.build_queen_grid"][1] / names["spatial.build_queen_grid"][0] / 1e9
         for source in (trace, setup_trace) for names in source["requests"].values()
         if "spatial.build_queen_grid" in names])

    cells_fit = workload.grid[0] * workload.grid[1] * workload.periods
    cells_sir = workload.counts[0] * workload.counts[1]
    for stage, names in PER_REQUEST_S.items():
        source = setup_trace if stage == "simulate" else trace
        for name in names:
            metrics[f"{name}.s"] = per_request(name, stage, source)
    metrics["data.PanelDataset.from_csv.rows_per_s"] = \
        cells_fit / metrics["data.PanelDataset.from_csv.s"]
    metrics["data.CountPanel.from_csv.rows_per_s"] = \
        cells_sir / metrics["data.CountPanel.from_csv.s"]
    metrics["analysis.chain_summary.s"] = per_request("analysis.chain_summary", "fit", trace)
    draws_mb = _median([d["draws_bytes"] for d in draws]) / 1e6
    metrics["cli.save_draws.mb_per_s"] = draws_mb / metrics["cli.save_draws.s"]
    metrics["analysis.hidden_population_draws.mb"] = \
        workload.stored_draws * cells_fit * 8 / 1e6

    metrics["trace.overhead_fit_s"] = traced_fit - untraced_fit
    metrics["trace.overhead_frac"] = (traced_fit - untraced_fit) / untraced_fit
    chains = trace["run_chain"]
    accounted = sum(c["update_ns"] + c["self_ns"] for c in chains) / sum(c["total_ns"] for c in chains)
    metrics["sampler.run_chain.accounted_frac"] = accounted
    info["run_chain_accounted_ok"] = (accounted >= RUN_CHAIN_ACCOUNTED
                                      and all(c["self_ns"] >= 0 for c in chains))
    return metrics


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [(f"sampler.{u}.us_per_sweep", "us") for u in SWEEP_UPDATES]
    names += [("sampler.run_chain.self_us_per_sweep", "us"),
              ("sampler.run_chain.us_per_sweep", "us"),
              ("sampler.run_chain.accounted_frac", "ratio"),
              ("sampler.update_level.accept_ratio", "ratio"),
              ("sampler.mh_alpha.accept_ratio", "ratio"),
              ("sampler.mh_eps.accept_ratio", "ratio"),
              ("sampler.floored_count", "count"),
              ("sampler.min_bulk_ess", "draws"),
              ("sampler.ess_per_s", "1/s"),
              ("kernels.truncated_normal.calls_per_sweep", "count")]
    names += [(f"{n}.us_per_call", "us") for n in PER_CALL_US]
    names += [("spatial.build_queen_grid.s", "s")]
    for stage, fns in PER_REQUEST_S.items():
        names += [(f"{n}.s", "s") for n in fns]
    names += [("data.PanelDataset.from_csv.rows_per_s", "1/s"),
              ("data.CountPanel.from_csv.rows_per_s", "1/s"),
              ("analysis.chain_summary.s", "s"),
              ("cli.save_draws.mb_per_s", "MB/s"),
              ("analysis.hidden_population_draws.mb", "MB"),
              ("trace.overhead_fit_s", "s"),
              ("trace.overhead_frac", "ratio")]
    return names


def run_workload(args) -> dict:
    if not (ROOT / "src" / "hiddenpop" / "__init__.py").is_file():
        raise BenchmarkError(f"no hiddenpop source tree at {ROOT / 'src' / 'hiddenpop'}")
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    base = ROOT / ".perfbench"
    workdir = base / "work" / f"{label}-{os.getpid()}"
    results = base / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        setup_trace = None
        for i in range(SETUP_REPEATS):
            trace_this = args.trace if i == SETUP_REPEATS - 1 else 0
            out = _run_child("setup", args, workdir, deadline, trace=trace_this, tag=str(i))
            setups.append({key: out[key] for key in ("setup_s", "calibration_s")})
            setup_trace = out.get("trace", setup_trace)
        measured = _run_child("measure", args, workdir, deadline, trace=args.trace,
                              seconds=args.seconds)
        for role in ("setup", "measure"):
            spans = workdir / f"spans-{role}.csv.gz"
            if spans.exists():
                shutil.move(str(spans), str(results / f"{label}-spans-{role}.csv.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = measured["records"]
    failed = [r for r in records if r["problems"]]
    info = {"failed_frac": len(failed) / len(records),
            "fingerprints": sorted({d["sha256"] for d in measured["draws"]})}
    if len(info["fingerprints"]) > 1:
        failed.append({"stage": "fit", "problems": ["draws.npz differs between cycles"]})
    units = dict(per_layer_names()) if args.trace else SUMMARY_UNITS
    try:
        if args.trace:
            metrics = _per_layer(workload, setup_trace, measured, info)
            table = _merge_tables(measured["trace"]["table"], setup_trace["table"])
            _write_table(results / f"{label}-layers.csv", table)
            info["layer_table_top"] = table[:15]
        else:
            metrics = _end_to_end(workload, setups, measured, info)
    except (ArithmeticError, LookupError, ValueError):
        if not failed:
            raise
        metrics = {}    # failed stages left too few samples; the failures are reported
    # A metric that could not be measured is null, and the run is not correct.
    metrics = {name: metrics.get(name) for name in units}
    metrics = {name: v if v is not None and math.isfinite(v) else None
               for name, v in metrics.items()}
    correct = (not failed and None not in metrics.values()
               and (not args.trace or info.get("run_chain_accounted_ok", False)))
    report = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": _environment(),
        "config": {k: v for k, v in workload.__dict__.items() if k != "why"},
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "info": info, "problems": [p for r in failed for p in r["problems"]],
        "records": records,
    }
    (results / f"{label}.json").write_text(json.dumps(report, indent=1, default=str))
    return {"report": report, "correct": correct, "attempted": len(records),
            "failed": len(failed)}


def _merge_tables(*tables) -> list[dict]:
    merged = {}
    for table in tables:
        for row in table:
            acc = merged.setdefault(row["name"], dict(row, calls=0, total_s=0.0, self_s=0.0))
            acc["calls"] += row["calls"]
            acc["total_s"] += row["total_s"]
            acc["self_s"] += row["self_s"]
    for row in merged.values():
        row["mean_us"] = row["total_s"] / row["calls"] * 1e6
    return sorted(merged.values(), key=lambda r: -r["self_s"])


def _write_table(path: Path, table: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, ["name", "layer", "calls", "total_s", "self_s", "mean_us"])
        writer.writeheader()
        writer.writerows(table)


def _print_report(outcome: dict) -> None:
    report = outcome["report"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  ({report['why']})")
    for name, metric in report["metrics"].items():
        value = "n/a" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {name:<48} {value:>14} {metric['unit']}")
    info = report["info"]
    for name, unit in INFO_UNITS.items():
        if name in info:
            print(f"  {name:<48} {info[name]:>14.6g} {unit}   (reported, not gated)")
    for stage, sample in info.get("stage_samples", {}).items():
        print(f"  {stage}: {sample['calls']} calls; raw wall time min {sample['raw_min']:.6g} s, "
              f"median {sample['raw_median']:.6g} s, max {sample['raw_max']:.6g} s")
    if "calibration_s" in info:
        cal = info["calibration_s"]
        print(f"  calibration kernel: min {cal['min'] * 1e3:.4g} ms, median "
              f"{cal['median'] * 1e3:.4g} ms, max {cal['max'] * 1e3:.4g} ms "
              f"(reference {CALIBRATION_REF_S * 1e3:.4g} ms)")
    print(f"  draws.npz sha256: {', '.join(info['fingerprints']) or 'none'}")
    if report["trace"] and "run_chain_accounted_ok" in info:
        print(f"  run_chain accounted for by update spans + self time: "
              f"{'ok' if info['run_chain_accounted_ok'] else 'FAILED'}")
        print("  top self time:")
        for row in info["layer_table_top"][:10]:
            print(f"    {row['name']:<46} {row['self_s']:>10.4f} s  {row['calls']:>8} calls")
    for problem in report["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print(f"  attempted {outcome['attempted']}  failed {outcome['failed']}  "
          f"failed_frac {info['failed_frac']:.3g}")
    print(f"  environment: {json.dumps(report['environment'], sort_keys=True)}")


def _result_line(outcome: dict) -> str:
    return json.dumps({
        "correct": outcome["correct"], "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["report"]["metrics"],
    })


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=DEADLINE_S + 30)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        outcome = run_workload(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    _print_report(outcome)
    print(_result_line(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
