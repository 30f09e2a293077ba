"""The benchmark's tracer wraps package functions by module attribute name.

Renaming or removing one of those names breaks ``bench/run.py --trace 1``
without failing any package test, so install the tracer here.  It runs in
a subprocess because ``install`` rebinds module attributes for the whole
interpreter.  The wrappers are closures, which cannot be pickled, so the
explorer's process pool must keep working while ``explorer.assess`` is one.
"""

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
