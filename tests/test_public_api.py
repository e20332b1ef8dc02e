"""The package carries no API that only tests reach, and imports light.

A public function, class, method or property of `src/hiddenpop` that no
code in the package or in `scripts/` names is test-only API: it belongs
in `tests/oracles.py` as a reference or nowhere. The scan is by name, so
it cannot tell two methods of one name apart; it errs toward passing.

A chain setting that `hiddenpop fit` cannot set is a dead knob in the same
way: every `ChainConfig` field must be reachable from a `fit` flag, every
`fit` flag must set a field or name an input or output (any other is
ignored), and every `DgpConfig` field must be reachable from a `simulate`
flag. A flag that is not given leaves the library's default in place, so no
default is restated in the CLI.

The study scripts are not run by the suite, so each is imported by path:
a script that names a deleted symbol fails here. So is the benchmark's
`perfbench/run.py`, whose traced per-layer metrics name package functions:
a renamed function would turn its metric into a silent zero. Its tracer
is installed on a short chain: every traced update must be a child of
`run_chain`, which the benchmark's accounting checks.
"""

import ast
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import threading
from collections import defaultdict
from functools import reduce
from pathlib import Path
from unittest import mock

import pytest

from hiddenpop import cli, kernels, sampler
from hiddenpop.cli import build_parser, main
from hiddenpop.sampler import ChainConfig
from hiddenpop.simulate import DgpConfig, simulate
from hiddenpop.sir import DEFAULT_PRIOR_ALPHA, DEFAULT_PRIOR_NU, DEFAULT_TIERS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hiddenpop"
SCRIPTS = ROOT / "scripts"


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name, node) of every public top-level function
    and class and every public method or property of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(tree: ast.Module):
    """(name, line) of every identifier, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def unreferenced_public_symbols() -> list[str]:
    """Public symbols no code names, apart from their own definition and
    the definitions of other unreferenced symbols (repeated to a fixed point)."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))}
    refs = [(path, name, line) for path, tree in trees.items()
            for name, line in _references(tree)]
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, name, node in _public_definitions(trees[path]):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            defs.append((f"{path.stem}.{qualname}", name, path, range(first, node.end_lineno + 1)))
    dead: list[tuple] = []
    while True:
        live = defaultdict(list)
        for path, name, line in refs:
            if not any(path == p and line in span for _, _, p, span in dead):
                live[name].append((path, line))
        found = [d for d in defs
                 if not any(not (path == d[2] and line in d[3]) for path, line in live[d[1]])]
        if found == dead:
            return [qualname for qualname, *_ in dead]
        dead = found


def test_every_public_symbol_is_used_outside_tests():
    assert unreferenced_public_symbols() == []


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda path: path.name)
def test_every_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_benchmark_traces_public_callables():
    # run.py puts perfbench/ on sys.path and imports its workloads module;
    # both are undone after the import
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules), mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(run)
    names = list(run.PER_CALL_US) + [f"sampler.{update}" for update in run.SWEEP_UPDATES]
    assert "kernels.truncated_normal" in names
    for name in names:
        module, *attrs = name.split(".")
        assert not any(attr.startswith("_") for attr in attrs), name
        found = reduce(getattr, attrs, importlib.import_module(f"hiddenpop.{module}"))
        assert callable(found), name
    # the sampler calls the kernels through its own globals, which the
    # tracer wraps as well: each must be the one function
    assert sampler.truncated_normal is kernels.truncated_normal
    assert sampler.mh_scaled_chisq_step is kernels.mh_scaled_chisq_step


def test_benchmark_traces_each_update_as_a_child_of_run_chain():
    # the benchmark's run_chain accounting counts the update_* spans whose
    # parent is run_chain; a public sweep function between the two would be
    # traced too and take every update as its own child
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    truth = simulate(DgpConfig(grid_rows=3, grid_cols=3, n_periods=2, seed=1))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        sampler.run_chain(truth.dataset, truth.graph, ChainConfig(n_iter=20, burn_in=10, thin=1))
    finally:
        tracer.uninstall()
    names = {span[0]: span[1] for span in tracer.spans}
    parents = [names.get(span[4]) for span in tracer.spans
               if span[1].startswith("sampler.update_")]
    assert len(parents) == 20 * 9
    assert set(parents) == {"sampler.run_chain"}


def test_benchmark_traces_no_span_for_the_draws_deflate(tmp_path, monkeypatch):
    # fit deflates the draws on a second thread while run_chain runs; a
    # traced call from that thread, or from run_chain's hook, would be a
    # child of run_chain that is no update and break the accounting
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    simulate(DgpConfig(grid_rows=10, grid_cols=10, n_periods=5, seed=14)).dataset.to_csv(
        tmp_path / "panel.csv")
    # every stored row wakes the deflate thread
    monkeypatch.setattr(cli, "_SPOOL_BATCH_BYTES", 1)
    threads = []
    start = cli._DeflateSpool._start
    monkeypatch.setattr(cli._DeflateSpool, "_start", lambda spool, draws: (
        start(spool, draws), threads.append(spool._thread)))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert main(["fit", "--data", str(tmp_path / "panel.csv"), "--grid", "10x10",
                     "--iters", "110", "--burnin", "10", "--thin", "1",
                     "--out", str(tmp_path / "fit")]) == 0
    finally:
        tracer.uninstall()
    assert len(threads) == 1 and threads[0] is not None
    names = {span[0]: span[1] for span in tracer.spans}
    children = {span[1] for span in tracer.spans if names.get(span[4]) == "sampler.run_chain"}
    assert {name for name in children if not name.startswith("sampler.update_")} == {
        "sampler.residual_variance_split", "sampler.initial_state"}
    assert {span[5] for span in tracer.spans} == {threading.get_ident()}


def test_benchmark_traces_no_span_for_the_draws_inflate(tmp_path, monkeypatch):
    # analyze inflates the pieces of u_plus on a second thread and on the
    # calling one; a traced call from that thread would be a span outside
    # the analyze request's tree, and one from the pieces would be a span
    # under load_draws that no benchmark layer names
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    assert main(["simulate", "--grid", "10x10", "--periods", "5", "--seed", "14",
                 "--out", str(tmp_path)]) == 0
    assert main(["fit", "--data", str(tmp_path / "panel.csv"), "--grid", "10x10",
                 "--iters", "110", "--burnin", "10", "--thin", "1",
                 "--out", str(tmp_path / "fit")]) == 0
    # a piece per row of u_plus
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_SAVE_CHUNK_BYTES", 4000)
        cli.save_draws(*cli.load_draws(tmp_path / "fit" / "draws.npz"), tmp_path / "draws.npz")
    threads = []
    start = cli._PieceReader.start
    monkeypatch.setattr(cli._PieceReader, "start", lambda reader: (
        start(reader), threads.append(reader._thread)))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert main(["analyze", "--draws", str(tmp_path / "draws.npz"),
                     "--truth", str(tmp_path / "truth.csv"), "--out", str(tmp_path / "an")]) == 0
    finally:
        tracer.uninstall()
    assert len(threads) == 1 and threads[0] is not None
    names = {span[0]: span[1] for span in tracer.spans}
    assert {span[1] for span in tracer.spans if names.get(span[4]) == "cli.load_draws"} == set()
    assert "cli.load_draws" in names.values()
    assert {span[5] for span in tracer.spans} == {threading.get_ident()}


def test_cli_import_leaves_scipy_linalg_unloaded():
    # scipy.sparse (and the SuperLU solver under it) costs about 9 MB of
    # resident memory on import, and pulls in scipy.linalg
    code = ("import sys, hiddenpop.cli; "
            "print([name for name in ('scipy.linalg', 'scipy.sparse') if name in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_every_chain_setting_is_reachable_from_fit(tmp_path):
    args = vars(build_parser().parse_args(["fit", "--data", "panel.csv", "--grid", "2x2"]))
    fields = {f.name for f in dataclasses.fields(ChainConfig)}
    assert fields <= set(args)
    # and every fit flag sets a chain field or names an input or an output:
    # cmd_fit reads only the field flags, so any other would be ignored silently
    assert set(args) <= fields | {"subcommand", "func", "data", "grid", "adjacency",
                                  "export_csv", "out"}
    assert all(args[name] is None for name in fields)
    # and every flag moved off its default reaches the resolved chain the
    # manifest records
    values = {"n_iter": 120, "burn_in": 20, "thin": 1, "seed": 3, "chains": 2}
    assert set(values) == fields
    defaults = {f.name: f.default for f in dataclasses.fields(ChainConfig)}
    simulate(DgpConfig(grid_rows=2, grid_cols=2, n_periods=2, seed=1)).dataset.to_csv(
        tmp_path / "panel.csv")
    assert main(["fit", "--data", str(tmp_path / "panel.csv"), "--grid", "2x2",
                 "--iters", "120", "--burnin", "20", "--thin", "1", "--seed", "3",
                 "--chains", "2", "--out", str(tmp_path / "fit")]) == 0
    resolved = json.loads((tmp_path / "fit" / "manifest.json").read_text())["config"]
    for name in fields:
        assert resolved[name] == values[name] != defaults[name]


def test_every_dgp_setting_is_reachable_from_simulate(tmp_path):
    args = vars(build_parser().parse_args(["simulate"]))
    flags = {name: value for name, value in args.items() if name not in ("subcommand", "func")}
    assert all(value is None for value in flags.values())
    fields = {f.name for f in dataclasses.fields(DgpConfig)}
    assert fields <= set(flags) | {"grid_rows", "grid_cols"}   # --grid sets both sides

    def manifest_config(*argv):
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())["config"]

    # every flag moved off its default reaches the resolved DgpConfig
    values = {"grid_rows": 2, "grid_cols": 3, "n_periods": 2, "beta_true": [0.25, -0.75],
              "sigma_alpha": 0.15, "sigma_eta": 0.45, "sigma_u": 0.25, "sigma_eps": 0.12,
              "sigma_v": 0.35, "eps_t_df": 5.0, "seed": 4}
    assert set(values) == fields
    resolved = manifest_config(
        "simulate", "--grid", "2x3", "--periods", "2", "--beta", "0.25", "-0.75",
        "--sigma-alpha", "0.15", "--sigma-eta", "0.45", "--sigma-u", "0.25",
        "--sigma-eps", "0.12", "--sigma-v", "0.35", "--student-t-df", "5", "--seed", "4")
    defaults = {**DgpConfig().__dict__, "beta_true": list(DgpConfig().beta_true)}
    for name in fields:
        assert resolved[name] == values[name] != defaults[name]
    # and no flag given is DgpConfig() field for field
    resolved = manifest_config("simulate")
    assert {name: resolved[name] for name in fields} == defaults

    counts = tmp_path / "counts.csv"
    counts.write_text("region,time,count,population\n0,0,3,100\n1,0,1,100\n")
    resolved = manifest_config("sir", "--counts", str(counts))
    assert resolved == {"nu": DEFAULT_PRIOR_NU, "alpha": DEFAULT_PRIOR_ALPHA,
                        "thresholds": list(DEFAULT_TIERS)}
