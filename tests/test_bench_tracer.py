"""The benchmark's tracer wraps package functions by module attribute name.

Renaming or removing one of those names breaks ``bench/run.py --trace 1``
without failing any package test, so install the tracer here.  It runs in
a subprocess because ``install`` rebinds module attributes for the whole
interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import stabgen

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs():
    src = str(Path(stabgen.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, str(ROOT / "bench"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
