"""One fresh process of a benchmark run: set-up, or the measured loop.

    python3 perfbench/session.py setup   --root R --workdir W --workload N --seed S --trace T
    python3 perfbench/session.py measure --root R --workdir W --workload N --seed S --trace T
                                         --seconds X

`run.py` starts these; they are not meant to be started by hand. Each
writes one JSON result to `<workdir>/<role><tag>.json`. The measured loop
also brackets every CLI call with the calibration kernel.

set-up     times importing `hiddenpop` (and the scipy modules it loads
           lazily, by running a tiny pipeline once) plus generating the
           workload's inputs from the seed.
measure    imports and warms up untimed, then runs the workload's session
           (fit -> analyze -> sir, one CLI stage at a time, in process)
           in a closed loop for the given seconds, checking every output
           between stages with the clock stopped. With tracing on, the
           first half of the time runs untraced and the second half
           traced, so the tracing overhead can be stated.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    LEVELS, WORKLOADS, check_analyze, check_fit, check_sir, write_counts_csv,
)

STAGE_MIN_S = 1.0
STAGE_MAX_REPEATS = 30


def calibration_s() -> float:
    """Fastest of two runs of a fixed ~2 ms kernel of small numpy calls.

    The kernel mixes interpreter work with tiny numpy calls, as a sampler
    sweep does. It is benchmark code, so no change to hiddenpop moves it:
    its time tracks only how fast the host runs this process right now.
    """
    import numpy as np

    a = np.linspace(-1.0, 1.0, 50)
    b = np.stack([a, a * a], axis=1)
    best = float("inf")
    for _ in range(2):
        began = time.perf_counter()
        total = 0.0
        for i in range(400):
            x = a * 0.5 + 1.0
            total += float(np.dot(x, a)) + float(np.exp(x).sum()) + float((b.T @ x).sum()) + i
        best = min(best, time.perf_counter() - began)
    return best


def _import_package(root: Path):
    sys.path.insert(0, str(root / "src"))
    import hiddenpop.cli as cli

    expected = (root / "src").resolve()
    if expected not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"imported {cli.__file__}, not the package under {expected}")
    return cli


def _run_cli(cli, argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"hiddenpop {argv[0]} exited with code {code}")


def _warm_up(cli, workdir: Path) -> None:
    """A tiny simulate/fit/analyze/sir pass, so scipy's lazy loads happen here."""
    tmp = workdir / "warmup"
    _run_cli(cli, ["simulate", "--grid", "3x3", "--periods", "2", "--seed", "0",
                   "--out", str(tmp / "sim")])
    _run_cli(cli, ["fit", "--data", str(tmp / "sim" / "panel.csv"), "--grid", "3x3",
                   "--iters", "120", "--burnin", "20", "--thin", "1", "--seed", "0",
                   "--out", str(tmp / "fit")])
    _run_cli(cli, ["analyze", "--draws", str(tmp / "fit" / "draws.npz"),
                   "--truth", str(tmp / "sim" / "truth.csv"), "--levels", LEVELS,
                   "--out", str(tmp / "analyze")])
    write_counts_csv(tmp / "counts.csv", 9, 2, 0)
    _run_cli(cli, ["sir", "--counts", str(tmp / "counts.csv"), "--out", str(tmp / "sir")])
    shutil.rmtree(tmp)


def _trace_summary(tracer, role: str, workdir: Path) -> dict:
    """Per-request sums by span name, plus the run_chain accounting."""
    from tracer import layer_table

    cols = tracer.arrays()
    tracer.write_spans(workdir / f"spans-{role}.csv.gz")
    durations = cols["end"] - cols["start"]
    names = cols["name"].tolist()
    requests: dict[int, dict[str, list[int]]] = {}
    for name, req, dur, own in zip(names, cols["request"].tolist(),
                                   durations.tolist(), cols["self_ns"].tolist()):
        entry = requests.setdefault(req, {}).setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += dur
        entry[2] += own

    run_chain = [i for i, name in enumerate(names) if name == "sampler.run_chain"]
    update_ns = dict.fromkeys(run_chain, 0)
    for i, (name, parent) in enumerate(zip(names, cols["parent"].tolist())):
        if parent in update_ns and name.startswith("sampler.update_"):
            update_ns[parent] += int(durations[i])
    accounting = [{"total_ns": int(durations[i]), "self_ns": int(cols["self_ns"][i]),
                   "update_ns": update_ns[i]} for i in run_chain]
    return {"requests": {str(k): v for k, v in requests.items()},
            "table": layer_table(cols),
            "run_chain": accounting,
            "true_results": dict(tracer.true_results)}


def _request(tracer, stages: dict[str, str], stage: str):
    """The benchmark's span around one traced request; nothing when untraced."""
    if tracer is None:
        return contextlib.nullcontext()
    tracer.request = len(stages)
    stages[str(tracer.request)] = stage
    return tracer.span(f"bench.{stage}")


def do_setup(args, workload, workdir: Path) -> dict:
    start = time.perf_counter()
    cli = _import_package(args.root)
    _warm_up(cli, workdir)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    inputs = workdir / "inputs"
    rows, cols = workload.grid
    stages: dict[str, str] = {}
    with _request(tracer, stages, "simulate"):
        _run_cli(cli, ["simulate", "--grid", f"{rows}x{cols}",
                       "--periods", str(workload.periods), "--seed", str(args.seed),
                       "--out", str(inputs)])
    with _request(tracer, stages, "counts"):
        write_counts_csv(inputs / "counts.csv", *workload.counts, args.seed)
    result = {"setup_s": time.perf_counter() - start, "calibration_s": calibration_s()}
    if tracer:
        tracer.uninstall()
        result["trace"] = _trace_summary(tracer, "setup", workdir)
        result["trace"]["stages"] = stages
    return result


def _timed_stage(cli, argv, tracer, stage, stages, record) -> None:
    with _request(tracer, stages, stage):
        began = time.perf_counter()
        _run_cli(cli, argv)
        record["seconds"] = time.perf_counter() - began
    if tracer is not None:
        record["request"] = tracer.request


def _cycle(cli, workload, seed: int, inputs: Path, out: Path, tracer, stages, records,
           draw_info, cycle_id: int) -> None:
    """One fit -> analyze -> sir session; every invocation is timed and checked.

    A stage is invoked again, on the same inputs, until its invocations in
    this cycle add up to STAGE_MIN_S (at most STAGE_MAX_REPEATS times), so
    millisecond stages get enough samples for a steady median. The
    calibration kernel runs between consecutive calls, so every call is
    bracketed by a measure of the host's speed right before and after it.
    """
    rows, cols = workload.grid
    fit_argv = ["fit", "--data", str(inputs / "panel.csv"), "--grid", f"{rows}x{cols}",
                "--iters", str(workload.iters), "--burnin", str(workload.burnin),
                "--thin", str(workload.thin), "--seed", str(seed),
                "--chains", str(workload.chains), "--out", str(out / "fit")]
    analyze_argv = ["analyze", "--draws", str(out / "fit" / "draws.npz"),
                    "--truth", str(inputs / "truth.csv"), "--levels", LEVELS,
                    "--seed", str(seed), "--out", str(out / "analyze")]
    sir_argv = ["sir", "--counts", str(inputs / "counts.csv"), "--out", str(out / "sir")]
    n_cells = workload.counts[0] * workload.counts[1]
    plan = (
        ("fit", fit_argv, lambda: check_fit(out / "fit", workload)),
        ("analyze", analyze_argv, lambda: (check_analyze(out / "analyze", 3), None)),
        ("sir", sir_argv, lambda: (check_sir(out / "sir", n_cells), None)),
    )
    before = calibration_s()
    for stage, argv, check in plan:
        spent, repeats, failed = 0.0, 0, False
        while repeats == 0 or (spent < STAGE_MIN_S and repeats < STAGE_MAX_REPEATS):
            record = {"stage": stage, "cycle": cycle_id, "traced": tracer is not None,
                      "request": None}
            records.append(record)
            try:
                _timed_stage(cli, argv, tracer, stage, stages, record)
                problems, info = check()
            except Exception:  # a failing stage is counted, and the loop goes on
                problems, info = [traceback.format_exc(limit=3).strip()], None
            after = calibration_s()
            record["calibration_s"] = 0.5 * (before + after)
            before = after
            record["problems"] = problems
            if info is not None:
                draw_info.append(info)
            spent += record.get("seconds", 0.0)
            repeats += 1
            failed = failed or bool(problems)
        if failed:
            break   # later stages need this stage's outputs
    shutil.rmtree(out, ignore_errors=True)


def do_measure(args, workload, workdir: Path) -> dict:
    cli = _import_package(args.root)
    _warm_up(cli, workdir)
    inputs = workdir / "inputs"
    records: list[dict] = []
    draw_info: list[dict] = []
    stages: dict[str, str] = {}
    tracer = None

    cycles = 0
    phases = [(None, args.seconds)]
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        phases = [(None, args.seconds / 2), (tracer, args.seconds / 2)]
    for phase_tracer, budget in phases:
        if phase_tracer is not None:
            phase_tracer.install()
        began = time.perf_counter()
        first = cycles
        while cycles == first or time.perf_counter() - began < budget:
            _cycle(cli, workload, args.seed, inputs, workdir / f"cycle{cycles}",
                   phase_tracer, stages, records, draw_info, cycles)
            cycles += 1
        if phase_tracer is not None:
            phase_tracer.uninstall()

    # Every fit of a run has the same inputs and seed, so the ESS of the
    # first one stands for all (run.py checks that the draws are identical).
    from ess import bulk_ess
    for info in draw_info:
        by_chain = info.pop("by_chain")
        if info is draw_info[0]:
            info["bulk_ess"] = {name: bulk_ess(values) for name, values in by_chain.items()}
    result = {
        "records": records,
        "draws": draw_info,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = _trace_summary(tracer, "measure", workdir)
        result["trace"]["stages"] = stages
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", default="")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    run = do_setup if args.role == "setup" else do_measure
    result = run(args, workload, args.workdir)
    out = args.workdir / f"{args.role}{args.tag}.json"
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
