"""Command-line entry points: generate, report, scan.

Each command imports the layers it runs when it starts: ``report`` loads
only the record format (``dataset``), the forests and ``space``'s names,
``scan`` adds the grid and the converter models, and only ``generate``
loads the config parser, the sampler and the power flow.  Every file a
command writes goes through ``dataset``'s writers: ``report``'s series are
column lists of ``generate``'s metrics table.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (_fmt, compute_metrics, importances_by_depth, read_dataset,
                      write_csv, write_dataset, write_json, write_metrics, write_tree)
from .space import P_D

# report's files, each a column list of generate's metrics.csv
REPORT_SERIES = {
    "rates_vs_depth.csv": ["depth", "feasible_mean", "feasible_std", "infeasible_mean",
                           "infeasible_std", "discarded_mean", "discarded_std"],
    "entropy_vs_depth.csv": ["depth", "entropy_mean"],
    "accuracy_vs_depth.csv": ["depth", "accuracy_mean", "accuracy_std"],
}


# parse_config and explore stay attributes of this module, which run_generate
# calls by name, so that a caller can replace or wrap them here.
def parse_config(path):
    from .config import parse_config as parse
    return parse(path)


def explore(space, grid, config):
    from .explorer import explore as run
    return run(space, grid, config)


def _load_grid_arg(name: str):
    from .grid import FIXTURES, get_fixture, load_grid
    if name in FIXTURES:
        return get_fixture(name)
    return load_grid(name)


def run_generate(config_path: str) -> int:
    from .config import ConfigError, config_as_dict
    from .explorer import ExplorationConfig
    from .grid import GridError
    from .space import build_space
    try:
        cfg = parse_config(config_path)
        grid = _load_grid_arg(cfg.grid)
    except (ConfigError, GridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    space = build_space(grid, list(cfg.control_params))
    dim_names = [d.name for d in space.independent]
    split_dims = cfg.exploration.fixed_split_dims
    absent = [d for d in split_dims if d not in dim_names]
    # The default list stands for whichever of its dimensions the grid has.
    if absent and split_dims != ExplorationConfig.fixed_split_dims:
        print(f"error: fixed_split_dims names no dimension of grid {cfg.grid!r}: "
              f"{', '.join(absent)}", file=sys.stderr)
        return 2
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    root, records = explore(space, grid, cfg.exploration)
    write_dataset(out / "dataset.csv", records, space)
    metrics = compute_metrics(records, dim_names,
                              cfg.exploration.forest_trees,
                              cfg.exploration.forest_depth,
                              cfg.exploration.seed,
                              importances_by_depth=importances_by_depth(root),
                              accuracy_by_depth=root.accuracy_by_depth)
    write_metrics(out / "metrics.csv", metrics, dim_names)
    write_tree(out / "tree.json", root)
    write_json(out / "manifest.json",
               {"engine_version": __version__, "config": config_as_dict(cfg)})
    print(f"wrote {len(records)} records to {out / 'dataset.csv'}")
    return 0


def run_report(dataset_path: str, out_dir: str | None = None) -> int:
    """Per-depth series of a dataset, with the forest settings of its manifest."""
    manifest = Path(dataset_path).parent / "manifest.json"
    try:
        records, _cols = read_dataset(dataset_path)
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
    # parse_config's rules; a JSON true is a Python int, but not an integer here
    for key, value in zip(("forest_trees", "forest_depth", "seed"), forest):
        if type(value) is not int or (key != "seed" and value < 1):
            need = "an integer" if key == "seed" else "an integer >= 1"
            print(f"error: {manifest}: {key} must be {need}, got {value!r}",
                  file=sys.stderr)
            return 2
    out = Path(out_dir or Path(dataset_path).parent)
    out.mkdir(parents=True, exist_ok=True)
    # The independent dimensions in file order, as generate's features.
    dim_names = [d for d in records[0].dims if d != P_D]
    metrics = compute_metrics(records, dim_names, *forest)
    for name, columns in REPORT_SERIES.items():
        write_metrics(out / name, metrics, [], columns)
    print(f"wrote report series to {out}")
    return 0


def run_scan(grid_name: str, component: str, fmin: float, fmax: float,
             points_per_decade: int = 50, out_path: str | None = None,
             n_units: int = 2) -> int:
    from .grid import IBR, GridError
    from .smallsignal import (DynUnit, GfolParams, GforParams, admittance_scan,
                              aggregate_ibrs, terminal_model)
    try:
        grid = _load_grid_arg(grid_name)
    except (GridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not 0 < fmin < fmax < math.inf:  # NaN fails every comparison
        print("error: empty or invalid frequency range", file=sys.stderr)
        return 2
    if points_per_decade < 1 or n_units < 1:
        print("error: --points-per-decade and --units must be at least 1",
              file=sys.stderr)
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
    units = [DynUnit(mode, bus, params, group.s_rated / n_units,
                     0.5 * group.p_nom / n_units) for _ in range(n_units)]
    agg = aggregate_ibrs(units)
    n_pts = max(2, int(points_per_decade * np.log10(fmax / fmin)) + 1)
    freqs = np.logspace(np.log10(fmin), np.log10(fmax), n_pts)
    scans = [admittance_scan(terminal_model(u, grid.base_mva), freqs) for u in units]
    agg_scan = admittance_scan(terminal_model(agg, grid.base_mva), freqs)
    total = np.sum(scans, axis=0)
    dev = np.nanmax(np.abs(agg_scan - total))
    out = Path(out_path or f"scan_{component}.csv")
    header = ["freq_hz"]
    for i in range(n_units):
        header += [f"re_y_unit{i + 1}", f"im_y_unit{i + 1}"]
    header += ["re_y_sum", "im_y_sum", "re_y_agg", "im_y_agg"]
    write_csv(out, header, (
        [_fmt(f)] + [_fmt(part) for s in (*scans, total, agg_scan)
                     for part in (s[k].real, s[k].imag)]
        for k, f in enumerate(freqs) if not np.isnan(agg_scan[k])))
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
