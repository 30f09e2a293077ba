"""Command-line entry points: generate, report, scan."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, config_as_dict, parse_config
from .dataset import (_fmt, compute_metrics, importances_by_depth, read_dataset,
                      write_dataset, write_metrics, write_tree)
from .explorer import explore
from .grid import FIXTURES, GridError, IBR, get_fixture, load_grid
from .smallsignal import (ConverterUnit, GfolParams, GforParams, admittance_scan,
                          aggregate_ibrs, terminal_model)
from .space import P_D, build_space


def _load_grid_arg(name: str):
    if name in FIXTURES:
        return get_fixture(name)
    return load_grid(name)


def run_generate(config_path: str) -> int:
    try:
        cfg = parse_config(config_path)
        grid = _load_grid_arg(cfg.grid)
    except (ConfigError, GridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    space = build_space(grid, list(cfg.control_params),
                        cfg.exploration.min_tolerance_frac)
    root, records = explore(space, grid, cfg.exploration)
    write_dataset(out / "dataset.csv", records, space)
    dim_names = [d.name for d in space.independent]
    metrics = compute_metrics(records, dim_names,
                              cfg.exploration.forest_trees,
                              cfg.exploration.forest_depth,
                              cfg.exploration.seed,
                              importances_by_depth=importances_by_depth(root))
    write_metrics(out / "metrics.csv", metrics, dim_names)
    write_tree(out / "tree.json", root)
    manifest = {"engine_version": __version__, "config": config_as_dict(cfg)}
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(records)} records to {out / 'dataset.csv'}")
    return 0


def run_report(dataset_path: str, out_dir: str | None = None) -> int:
    """Per-depth series of a dataset, with the forest settings of its manifest."""
    manifest = Path(dataset_path).parent / "manifest.json"
    try:
        rows, _cols = read_dataset(dataset_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        run = json.loads(manifest.read_text(encoding="utf-8"))["config"]
        forest = (run["forest_trees"], run["forest_depth"], run["seed"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot read the forest settings from {manifest}: {exc!r}",
              file=sys.stderr)
        return 2
    out = Path(out_dir or Path(dataset_path).parent)
    out.mkdir(parents=True, exist_ok=True)
    # The independent dimensions in file order, as generate's features.
    dim_names = [d for d in rows[0].dims if d != P_D] if rows else []
    metrics = compute_metrics(rows, dim_names, *forest)
    with open(out / "rates_vs_depth.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["depth", "feasible_mean", "feasible_std", "infeasible_mean",
                    "infeasible_std", "discarded_mean", "discarded_std"])
        for m in metrics:
            w.writerow([m.depth, _fmt(m.feasible_mean), _fmt(m.feasible_std),
                        _fmt(m.infeasible_mean), _fmt(m.infeasible_std),
                        _fmt(m.discarded_mean), _fmt(m.discarded_std)])
    with open(out / "entropy_vs_depth.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["depth", "entropy_mean"])
        for m in metrics:
            w.writerow([m.depth, _fmt(m.entropy_mean)])
    with open(out / "accuracy_vs_depth.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["depth", "accuracy_mean", "accuracy_std"])
        for m in metrics:
            w.writerow([m.depth, _fmt(m.accuracy_mean), _fmt(m.accuracy_std)])
    print(f"wrote report series to {out}")
    return 0


def run_scan(grid_name: str, component: str, fmin: float, fmax: float,
             points_per_decade: int = 50, out_path: str | None = None,
             n_units: int = 2) -> int:
    try:
        grid = _load_grid_arg(grid_name)
    except (GridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if fmin <= 0 or fmax <= fmin:
        print("error: empty or invalid frequency range", file=sys.stderr)
        return 2
    try:
        mode, bus_s = component.rsplit("_", 1)
        bus = int(bus_s)
    except ValueError:
        print(f"error: component must look like GFOR_<bus>, got {component!r}",
              file=sys.stderr)
        return 2
    if mode not in ("GFOR", "GFOL"):
        print(f"error: unknown control mode {mode!r}", file=sys.stderr)
        return 2
    group = next((g for g in grid.gen_groups if g.bus == bus and g.tech == IBR), None)
    if group is None:
        print(f"error: no IBR group at bus {bus}", file=sys.stderr)
        return 2
    params = GforParams() if mode == "GFOR" else GfolParams()
    units = [ConverterUnit(mode, params, group.s_rated / n_units,
                           0.5 * group.p_nom / n_units) for _ in range(n_units)]
    agg = aggregate_ibrs(units)
    n_pts = max(2, int(points_per_decade * np.log10(fmax / fmin)) + 1)
    freqs = np.logspace(np.log10(fmin), np.log10(fmax), n_pts)
    scans = [admittance_scan(terminal_model(u, grid.base_mva), freqs) for u in units]
    agg_scan = admittance_scan(terminal_model(agg, grid.base_mva), freqs)
    total = np.sum(scans, axis=0)
    dev = np.nanmax(np.abs(agg_scan - total))
    out = Path(out_path or f"scan_{component}.csv")
    with open(out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        header = ["freq_hz"]
        for i in range(n_units):
            header += [f"re_y_unit{i + 1}", f"im_y_unit{i + 1}"]
        header += ["re_y_sum", "im_y_sum", "re_y_agg", "im_y_agg"]
        w.writerow(header)
        for k, f in enumerate(freqs):
            if np.isnan(agg_scan[k]):
                continue
            row = [_fmt(f)]
            for s in scans:
                row += [_fmt(s[k].real), _fmt(s[k].imag)]
            row += [_fmt(total[k].real), _fmt(total[k].imag),
                    _fmt(agg_scan[k].real), _fmt(agg_scan[k].imag)]
            w.writerow(row)
    print(f"max |Y_agg - sum Y_i| = {dev:.3e}; wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stabgen",
        description="Adaptive small-signal-stability dataset generation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="run a dataset generation config")
    g.add_argument("--config", required=True)

    r = sub.add_parser("report", help="recompute plot-ready series from a dataset")
    r.add_argument("--dataset", required=True)
    r.add_argument("--out", default=None)

    s = sub.add_parser("scan", help="admittance frequency scan of a converter")
    s.add_argument("--grid", required=True, help="fixture name or CSV directory")
    s.add_argument("--component", required=True, help="e.g. GFOR_2 or GFOL_6")
    s.add_argument("--fmin", type=float, required=True)
    s.add_argument("--fmax", type=float, required=True)
    s.add_argument("--points-per-decade", type=int, default=50)
    s.add_argument("--units", type=int, default=2)
    s.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return run_generate(args.config)
        if args.command == "report":
            return run_report(args.dataset, args.out)
        return run_scan(args.grid, args.component, args.fmin, args.fmax,
                        args.points_per_decade, args.out, args.units)
    except Exception as exc:  # runtime failure distinct from config errors
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
