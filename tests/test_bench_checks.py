"""The benchmark's output checks, run on a small generate and its report.

``bench/run.py`` checks every output it times with ``bench/checks.py``,
which imports package names of its own (``rng_stream``,
``sample_voltage_profile``, ``build_admittance``, ``OperatingPoint``,
``get_fixture``) and ``oracles.gauss_seidel_pf``.  An exception there, or
a check that the program no longer passes, fails a benchmark run without
failing any package test, so run the checks here on a small
``gen-3bus-w2`` exploration.  The bench modules are loaded from their
files, not edited and not put on the import path.
"""

import importlib.util
from pathlib import Path

import pytest

from stabgen.cli import main
from stabgen.grid import get_fixture

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _bench_module("run"), _bench_module("checks")


def test_bench_checks_pass_on_generate_and_report(bench, tmp_path):
    run, checks = bench
    # At 30 points per cell a dataset can hold one stability class, which
    # check_generate reports (seeds 1000, 1001 and 1005 of 1000-1011 do);
    # seed 1002 holds both.
    values = dict(run.THREE_BUS, n_samples=30, workers=2, seed=1002)
    out, rep = tmp_path / "out", tmp_path / "report"
    cfg = tmp_path / "gen.ini"
    run.write_config(cfg, dict(values, out_dir=out))
    assert main(["generate", "--config", str(cfg)]) == 0
    grid = get_fixture(values["fixture"])
    assert checks.check_generate(out, values, grid) == []
    assert checks.check_oracle(out, values, grid) == []
    assert main(["report", "--dataset", str(out / "dataset.csv"), "--out", str(rep)]) == 0
    assert checks.check_report(rep, out / "dataset.csv") == []
    assert checks.check_accuracy_parity(rep, out / "metrics.csv") == []
