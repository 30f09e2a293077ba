import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabgen
from stabgen.cli import main, run_report, run_scan
from stabgen.config import (_EXPLORATION_KEYS, ConfigError, config_as_dict,
                            parse_config)
from stabgen.dataset import read_dataset
from stabgen.explorer import ExplorationConfig
from stabgen.grid import (Bus, GenGroup, GridModel, Line, Load, PQ, PV, SG, SLACK,
                          export_tables)

FAST_CFG = """\
fixture=3bus
n_samples=16
n_cases=1
max_depth=1
entropy_decrease_threshold=0.0
min_feasible_rate=0.0
use_sensitivity=false
workers=2
seed=0
forest_trees=10
forest_depth=4
control_params=tau_u:0.01:1.0;tau_w:0.01:1.0
"""


def _write_cfg(tmp_path, text=FAST_CFG, out_dir=None):
    cfg = tmp_path / "run.ini"
    body = text
    if out_dir is not None:
        body += f"out_dir={out_dir}\n"
    cfg.write_text(body, encoding="utf-8")
    return cfg


# -- config parsing -----------------------------------------------------------

def test_parse_config_values(tmp_path):
    cfg = parse_config(_write_cfg(tmp_path))
    assert cfg.grid == "3bus"
    assert cfg.exploration.n_samples == 16
    assert cfg.exploration.use_sensitivity is False
    assert cfg.exploration.workers == 2
    assert cfg.control_params == (("tau_u", 0.01, 1.0), ("tau_w", 0.01, 1.0))


def test_parse_config_comments_and_blanks(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("# a comment\n\nfixture=9bus  # trailing\nseed=7\n",
                 encoding="utf-8")
    cfg = parse_config(p)
    assert cfg.grid == "9bus"
    assert cfg.exploration.seed == 7


def test_parse_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("fixture=3bus\nnot_a_key=1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(p)


def test_parse_config_rejects_bad_value(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("n_samples=lots\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(p)
    p.write_text("control_params=tau_u:0.01\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        parse_config(p)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.ini")


def test_workers_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("STABGEN_WORKERS", "5")
    cfg = parse_config(_write_cfg(tmp_path))
    assert cfg.exploration.workers == 5
    monkeypatch.setenv("STABGEN_WORKERS", "many")
    with pytest.raises(ConfigError):
        parse_config(_write_cfg(tmp_path))


@pytest.mark.parametrize("extra, env_workers", [
    ("workers=0\n", None),
    ("", "0"),
    ("n_samples=0\n", None),
    ("n_cases=0\n", None),
    ("max_depth=-1\n", None),
    ("load_pf=1.5\n", None),
    ("load_pf=0\n", None),
    ("control_params=tau_u:1.0:0.01\n", None),    # lo >= hi
    ("control_params=tau_u:0.5:0.5\n", None),
    ("control_params=tau_u:-1.0:1.0\n", None),    # converter params are > 0
    ("control_params=gain:0.1:1.0\n", None),      # no such controller field
    ("fixed_split_dims=P_SGG\n", None),           # no such dimension
    ("forest_trees=0\n", None),
    ("forest_depth=0\n", None),
    ("split_dims_per_node=0\n", None),
    ("loss_factor=1.5\n", None),
    ("loss_factor=0\n", None),
    ("eps_margin=-1\n", None),                    # would call unstable modes stable
    ("dev_bound=-0.01\n", None),
    ("min_tolerance_frac=-0.01\n", None),
    ("min_tolerance_frac=1\n", None),
    ("min_feasible_rate=-0.1\n", None),
    ("min_feasible_rate=2\n", None),
])
def test_out_of_range_config_rejected_at_parse_time(extra, env_workers, tmp_path,
                                                    monkeypatch):
    if env_workers is not None:
        monkeypatch.setenv("STABGEN_WORKERS", env_workers)
    out_dir = tmp_path / "out"
    cfg = _write_cfg(tmp_path, FAST_CFG + extra, out_dir=str(out_dir))
    with pytest.raises(ConfigError):
        parse_config(cfg)
    assert main(["generate", "--config", str(cfg)]) == 2
    assert not out_dir.exists()


def test_range_edges_accepted(tmp_path):
    cfg = parse_config(_write_cfg(tmp_path, FAST_CFG + (
        "min_feasible_rate=0\nentropy_decrease_threshold=-1\n"
        "min_tolerance_frac=0\neps_margin=0\ndev_bound=0\n")))
    e = cfg.exploration
    assert (e.min_feasible_rate, e.entropy_decrease_threshold) == (0.0, -1.0)
    assert (e.min_tolerance_frac, e.eps_margin, e.dev_bound) == (0.0, 0.0, 0.0)


def test_split_dim_absent_from_grid_rejected(tmp_path):
    grid = GridModel(
        buses=(Bus(1, SLACK, 0.95, 1.05), Bus(2, PV, 0.95, 1.05),
               Bus(3, PQ, 0.95, 1.05)),
        lines=(Line(1, 2, 0.01, 0.10, 0.02, 300.0),
               Line(1, 3, 0.01, 0.10, 0.02, 300.0),
               Line(2, 3, 0.01, 0.10, 0.02, 300.0)),
        gen_groups=(GenGroup(1, SG, 300.0, 0.95), GenGroup(2, SG, 200.0, 0.95)),
        loads=(Load(3, 1.0),))
    export_tables(grid, tmp_path / "grid")  # no IBR groups, so no P_IBR dimension
    out_dir = tmp_path / "out"
    text = (f"grid={tmp_path / 'grid'}\nn_samples=8\nn_cases=1\nmax_depth=0\n"
            "workers=2\n")
    cfg = _write_cfg(tmp_path, text + "fixed_split_dims=P_IBR\n", out_dir=str(out_dir))
    parse_config(cfg)  # a valid name; only the grid lacks it
    assert main(["generate", "--config", str(cfg)]) == 2
    assert not out_dir.exists()
    # The default list (P_SG, P_IBR) keeps whichever of its dimensions exist.
    cfg = _write_cfg(tmp_path, text, out_dir=str(out_dir))
    assert main(["generate", "--config", str(cfg)]) == 0
    assert (out_dir / "dataset.csv").exists()


def test_fixed_split_dims_accepts_control_names(tmp_path):
    # checked against the final control_params, whichever line comes first
    cfg = parse_config(_write_cfg(tmp_path, "fixed_split_dims=V_anchor,k_p\n"
                                  + FAST_CFG + "control_params=k_p:0.1:1.0\n"))
    assert cfg.exploration.fixed_split_dims == ("V_anchor", "k_p")


def test_every_exploration_field_is_a_key():
    # A field without a key cannot be set; a key without a field parses and
    # does nothing.
    names = {f.name for f in dataclasses.fields(ExplorationConfig)}
    assert set(_EXPLORATION_KEYS) == names


def test_config_as_dict_serializable(tmp_path):
    cfg = parse_config(_write_cfg(tmp_path))
    json.dumps(config_as_dict(cfg))


# -- CLI ----------------------------------------------------------------------

def test_generate_then_report(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = _write_cfg(tmp_path, out_dir=str(out_dir))
    assert main(["generate", "--config", str(cfg)]) == 0
    for name in ("dataset.csv", "metrics.csv", "tree.json", "manifest.json"):
        assert (out_dir / name).exists()
    rows, _ = read_dataset(out_dir / "dataset.csv")
    assert rows
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["grid"] == "3bus"

    rep_dir = tmp_path / "report"
    assert main(["report", "--dataset", str(out_dir / "dataset.csv"),
                 "--out", str(rep_dir)]) == 0
    for name in ("rates_vs_depth.csv", "entropy_vs_depth.csv",
                 "accuracy_vs_depth.csv"):
        assert (rep_dir / name).exists()
    with open(rep_dir / "rates_vs_depth.csv", newline="") as fh:
        rates = list(csv.DictReader(fh))
    assert rates and all(0.0 <= float(r["feasible_mean"]) <= 1.0 for r in rates)


# The report/generate parity configuration of the benchmark: three depths,
# a small forest and a seed that differ from report's former defaults.
PARITY_CFG = """\
fixture=3bus
n_samples=40
n_cases=2
max_depth=3
entropy_decrease_threshold=0.01
min_feasible_rate=0.05
use_sensitivity=true
control_params=tau_u:0.01:1.0;tau_w:0.01:1.0
eps_margin=1e-06
dev_bound=0.02
load_pf=0.98
loss_factor=0.97
forest_trees=5
forest_depth=2
workers=1
seed=0
"""


def test_report_accuracy_equals_generate_metrics(tmp_path):
    out_dir = tmp_path / "out"
    cfg = _write_cfg(tmp_path, PARITY_CFG, out_dir=str(out_dir))
    assert main(["generate", "--config", str(cfg)]) == 0
    rep_dir = tmp_path / "report"
    assert main(["report", "--dataset", str(out_dir / "dataset.csv"),
                 "--out", str(rep_dir)]) == 0
    with open(out_dir / "metrics.csv", newline="") as fh:
        want = [(r["depth"], r["accuracy_mean"], r["accuracy_std"])
                for r in csv.DictReader(fh)]
    with open(rep_dir / "accuracy_vs_depth.csv", newline="") as fh:
        got = [(r["depth"], r["accuracy_mean"], r["accuracy_std"])
               for r in csv.DictReader(fh)]
    assert any(acc for _, acc, _ in want)
    assert got == want


def test_report_without_manifest_exit_code(tmp_path):
    out_dir = tmp_path / "out"
    cfg = _write_cfg(tmp_path, out_dir=str(out_dir))
    assert main(["generate", "--config", str(cfg)]) == 0
    manifest = out_dir / "manifest.json"
    manifest.write_text("{not json", encoding="utf-8")
    assert main(["report", "--dataset", str(out_dir / "dataset.csv")]) == 2
    manifest.unlink()
    assert main(["report", "--dataset", str(out_dir / "dataset.csv")]) == 2


def test_generate_bad_config_exit_code(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("bogus_key=1\n", encoding="utf-8")
    assert main(["generate", "--config", str(p)]) == 2
    assert main(["generate", "--config", str(tmp_path / "missing.ini")]) == 2


def test_scan_writes_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--grid", "3bus", "--component", "GFOR_2",
                 "--fmin", "1", "--fmax", "1000", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) > 100
    for r in rows[:5]:
        agg = complex(float(r["re_y_agg"]), float(r["im_y_agg"]))
        tot = complex(float(r["re_y_sum"]), float(r["im_y_sum"]))
        assert abs(agg - tot) < 1e-8


@pytest.mark.parametrize("args", [
    ["scan", "--grid", "3bus", "--component", "GFOR_2",
     "--fmin", "100", "--fmax", "10"],          # inverted range
    ["scan", "--grid", "3bus", "--component", "SG_1",
     "--fmin", "1", "--fmax", "10"],            # not a converter mode
    ["scan", "--grid", "3bus", "--component", "GFOR_3",
     "--fmin", "1", "--fmax", "10"],            # no IBR at bus 3
    ["scan", "--grid", "nope", "--component", "GFOR_2",
     "--fmin", "1", "--fmax", "10"],            # unknown grid
])
def test_scan_error_exit_codes(args, tmp_path):
    assert main(args) == 2


def test_module_entry_point():
    src = str(Path(stabgen.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for module in ("stabgen.cli", "stabgen"):
        proc = subprocess.run([sys.executable, "-m", module, "--version"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == stabgen.__version__
