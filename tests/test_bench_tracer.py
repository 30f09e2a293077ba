"""The benchmark's tracer wraps package functions by module attribute name.

Renaming or removing one of those names breaks ``bench/run.py --trace 1``
without failing any package test, so install the tracer here.  It runs in
a subprocess because ``install`` rebinds module attributes for the whole
interpreter.  The wrappers are closures, which cannot be pickled; the
explorer's forked workers inherit them, and must keep working while
``explorer.assess`` is one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import stabgen

ROOT = Path(__file__).resolve().parents[1]


TRACED_EXPLORE = """
import io
from tracer import Tracer
Tracer().install()
from stabgen.explorer import ExplorationConfig, explore
from stabgen.grid import fixture_3bus
from stabgen.space import build_space
grid = fixture_3bus()
explore(build_space(grid, [("tau_u", 0.01, 1.0)]), grid,
        ExplorationConfig(n_samples=8, n_cases=1, max_depth=0, workers=2),
        progress_stream=io.StringIO())
"""


TRACED_ASSESS = """
import json
from tracer import Tracer
tracer = Tracer()
tracer.install()
from stabgen import explorer
from stabgen.explorer import ExplorationConfig
from stabgen.grid import fixture_3bus
from stabgen.sampling import hierarchical_sample
from stabgen.space import build_space
grid = fixture_3bus()
space = build_space(grid, [("tau_u", 0.01, 1.0)])
cell = space.root_cell()
config = ExplorationConfig(n_samples=6, n_cases=1)
for op in hierarchical_sample(cell, 6, 1, grid, seed=0):
    explorer.assess(grid, op, cell, config, 0)
print(json.dumps(tracer.summary(0.0)))
"""


TRACED_METRICS = """
import json
from tracer import Tracer
tracer = Tracer()
tracer.install()
from stabgen.dataset import compute_metrics
from stabgen.explorer import LabeledRecord
rows = [LabeledRecord("R" + ".x" * depth, depth, i, 0, {"x": float(i)}, {},
                      "Feasible", i % 3 == 0, -1.0, 0.0, 1.0, 0.0, "", 3)
        for depth in (0, 1) for i in range(30)]
metrics = compute_metrics(rows, ["x"], forest_trees=3, kfold=5)
print(json.dumps({"calls": tracer.calls, "counts": tracer.counts,
                  "depths": sum(m.accuracy_mean is not None for m in metrics)}))
"""


def _run(code):
    src = str(Path(stabgen.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, str(ROOT / "bench"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)


def test_tracer_installs():
    proc = _run("from tracer import Tracer; Tracer().install()")
    assert proc.returncode == 0, proc.stderr


def test_traced_explore_runs_in_process_pool():
    proc = _run(TRACED_EXPLORE)
    assert proc.returncode == 0, proc.stderr


def test_tracer_sees_the_power_flow():
    # The per-layer feasibility and smallsignal metrics read 0 if solve_pf,
    # linearize or eig_stability is called under a name the tracer does not
    # wrap; the linearization runs only for Feasible points.  The summary
    # goes out as JSON (bench/launch.py), so the counts must be Python
    # numbers, not numpy scalars of a solution's fields.
    proc = _run(TRACED_ASSESS)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    calls = summary["calls"]
    assert summary["counts"]["pf_iterations"] > 0
    assert calls["feasibility.solve_pf"] > 0
    assert calls.get("grid.build_admittance", 0) <= 1
    assert calls.get("repair.Feasible", 0) > 0
    assert calls["smallsignal.linearize"] > 0
    assert calls["smallsignal.eig"] > 0


def test_tracer_sees_the_forest():
    # forest.ms_per_kfold, forest.ms_per_train and forest.trees_trained read
    # 0 if compute_metrics, kfold_accuracy or train_forest stops calling the
    # next one through the module attribute that the tracer wraps.
    proc = _run(TRACED_METRICS)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["depths"] == 2
    assert out["calls"]["forest.kfold"] == 2
    assert out["calls"]["forest.train_kfold"] == 2 * 5
    assert out["counts"]["trees"] == 5 * 3 * out["depths"]
