"""Correctness checks on `stabgen` outputs, computed apart from the program.

Every check returns a list of human-readable failures; an empty list
means the output passed.  Expected values come from the fixture's own
ratings, from a recomputation over ``dataset.csv`` with plain Python, or
from the Gauss-Seidel oracle in ``tests/oracles.py``; no check compares
against a stored copy of an earlier output.
"""

import csv
import json
import math
from collections import Counter, defaultdict
from pathlib import Path

STOP_REASONS = {"zero_entropy", "entropy_decrease", "min_feasible_rate",
                "tolerance_floor", "max_depth"}
TAIL = {"verdict", "stable", "max_real", "dominant_freq_hz", "dominant_damping",
        "adjustment_distance", "violations", "pf_iterations", "assess_ms"}
MW_TOL = 1e-6
ORACLE_ROWS = 3
ORACLE_MW_TOL = 1e-3


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def walk(node):
    yield node
    for child in node["children"]:
        yield from walk(child)


def _inside(bounds, initial, values):
    """Half-open cell membership with the initial upper edge closed."""
    for dim, (lo, hi) in bounds.items():
        v = values[dim]
        if v < lo or (v >= hi and not (v == hi == initial[dim][1])):
            return False
    return True


def check_generate(out_dir, cfg, grid):
    """Structural and physical checks on one `generate` output directory.

    ``cfg`` is the dict of config values the benchmark wrote; ``grid`` is
    the fixture's GridModel, read for its ratings, loads and buses.
    """
    out_dir = Path(out_dir)
    rows = read_csv(out_dir / "dataset.csv")
    tree = json.loads((out_dir / "tree.json").read_text(encoding="utf-8"))
    nodes = list(walk(tree))
    per_cell = cfg["n_samples"] * cfg["n_cases"]
    errors = []

    keys = Counter((r["cell_path"], r["sample_index"], r["case_index"]) for r in rows)
    dup = [k for k, n in keys.items() if n > 1]
    if dup:
        errors.append(f"{len(dup)} (cell_path, sample, case) keys repeat, e.g. {dup[0]}")
    if len(rows) != len(nodes) * per_cell:
        errors.append(f"{len(rows)} rows, expected {len(nodes)} nodes x {per_cell}")
    by_cell = Counter(r["cell_path"] for r in rows)
    for node in nodes:
        if by_cell[node["path"]] != per_cell:
            errors.append(f"cell {node['path']} owns {by_cell[node['path']]} rows")
        if not node["children"] and node["stop_reason"] not in STOP_REASONS:
            errors.append(f"leaf {node['path']} has stop reason {node['stop_reason']!r}")

    bounds = {n["path"]: n["bounds"] for n in nodes}
    initial = tree["bounds"]
    sg = [g for g in grid.gen_groups if g.tech == "SG"]
    ibr = [g for g in grid.gen_groups if g.tech == "IBR"]
    gen_cols = [f"P_{g.tech}_{g.bus}" for g in grid.gen_groups]
    load_cols = [f"P_L_{ld.bus}" for ld in grid.loads]
    eps = cfg["eps_margin"]
    labels = set()
    for r in rows:
        where = f"row {r['cell_path']}/{r['sample_index']}/{r['case_index']}"
        v = {c: float(r[c]) for c in r if c not in TAIL and c not in
             ("cell_path", "depth", "sample_index", "case_index") and r[c] != ""}
        totals = (("P_SG", [f"P_SG_{g.bus}" for g in sg]),
                  ("P_IBR", [f"P_IBR_{g.bus}" for g in ibr]),
                  ("P_D", load_cols))
        for dim, cols in totals:
            if cols and abs(v[dim] - sum(v[c] for c in cols)) > MW_TOL:
                errors.append(f"{where}: {dim} != sum of its variables")
        for g in ibr:
            b = g.bus
            if abs(v[f"P_GFM_{b}"] + v[f"P_GFL_{b}"] - v[f"P_IBR_{b}"]) > MW_TOL:
                errors.append(f"{where}: P_GFM_{b} + P_GFL_{b} != P_IBR_{b}")
        if r["stable"] != "":
            labels.add(r["stable"])
            if (r["stable"] == "1") != (float(r["max_real"]) < -eps):
                errors.append(f"{where}: stable={r['stable']} but max_real={r['max_real']}")
        if r["verdict"] == "Infeasible" and not r["violations"]:
            errors.append(f"{where}: Infeasible without a violation")
        if r["verdict"] != "Feasible":
            if r["stable"] != "":
                errors.append(f"{where}: {r['verdict']} row carries a label")
            continue
        if r["stable"] == "":
            errors.append(f"{where}: Feasible row without a label")
        if not _inside(bounds[r["cell_path"]], initial, v):
            errors.append(f"{where}: Feasible row outside its cell")
        for g in grid.gen_groups:
            lo, hi = 0.2 * g.p_nom / g.cos_phi, g.p_nom
            p = v[f"P_{g.tech}_{g.bus}"]
            if not lo - MW_TOL <= p <= hi + MW_TOL:
                errors.append(f"{where}: {g.tech}_{g.bus} dispatch {p} outside [{lo}, {hi}]")
        if sum(v[c] for c in gen_cols) - sum(v[c] for c in load_cols) <= 0:
            errors.append(f"{where}: losses are not positive")
    if labels != {"0", "1"}:
        errors.append(f"stability classes present: {sorted(labels)}")
    return errors[:20]


def check_oracle(out_dir, cfg, grid):
    """Gauss-Seidel re-solve of a fixed subsample of Feasible rows.

    The sampled voltage set points are not in the dataset; they are drawn
    again from the row's seed key with the package's own voltage walk.
    """
    import numpy as np
    from oracles import gauss_seidel_pf
    from stabgen.grid import build_admittance
    from stabgen.sampling import rng_stream, sample_voltage_profile
    from stabgen.space import OperatingPoint

    rows = [r for r in read_csv(Path(out_dir) / "dataset.csv") if r["verdict"] == "Feasible"]
    if not rows:
        return ["no Feasible rows to check against the oracle"]
    picks = [rows[i * len(rows) // ORACLE_ROWS] for i in range(min(ORACLE_ROWS, len(rows)))]
    idx = grid.bus_index
    slack = grid.slack_bus.id
    ybus = build_admittance(grid)
    errors = []
    for r in picks:
        where = f"row {r['cell_path']}/{r['sample_index']}/{r['case_index']}"
        var_values = {c: float(r[c]) for c in r
                      if c.startswith(("P_SG_", "P_IBR_", "P_L_")) and r[c] != ""}
        profile = sample_voltage_profile(
            grid, float(r["V_anchor"]), cfg["dev_bound"],
            rng_stream(cfg["seed"], r["cell_path"], int(r["sample_index"]) + 1, 0))
        op = OperatingPoint({}, var_values, profile)
        group_p = {g.name: var_values[f"P_{g.tech}_{g.bus}"] for g in grid.gen_groups}
        vmag, vang, ok = gauss_seidel_pf(grid, op, group_p, cfg["load_pf"], tol=1e-10)
        if not ok:
            errors.append(f"{where}: oracle did not converge")
            continue
        for b in grid.buses:
            if not b.v_min - 1e-6 <= vmag[b.id] <= b.v_max + 1e-6:
                errors.append(f"{where}: oracle voltage {vmag[b.id]} at bus {b.id} out of band")
        v = np.array([vmag[b.id] * np.exp(1j * vang[b.id]) for b in grid.buses])
        s = idx[slack]
        p_inj = float((v[s] * np.conj(ybus[s] @ v)).real) * grid.base_mva
        p_gen = p_inj + sum(var_values[f"P_L_{ld.bus}"] for ld in grid.loads if ld.bus == slack)
        p_row = sum(var_values[f"P_{g.tech}_{g.bus}"] for g in grid.gen_groups if g.bus == slack)
        if abs(p_gen - p_row) > ORACLE_MW_TOL:
            errors.append(f"{where}: slack power {p_row} MW, oracle {p_gen} MW")
    return errors


def _entropy(labels):
    if not labels:
        return 0.0
    p = sum(labels) / len(labels)
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def _mean_std(xs):
    m = sum(xs) / len(xs)
    return m, math.sqrt(sum((x - m) ** 2 for x in xs) / len(xs))


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def check_report(report_dir, dataset_path):
    """Rates and entropy per depth against a recomputation from the dataset."""
    cells = defaultdict(Counter)
    labels = defaultdict(list)
    depth_of = {}
    for r in read_csv(dataset_path):
        cells[r["cell_path"]][r["verdict"]] += 1
        depth_of[r["cell_path"]] = int(r["depth"])
        if r["verdict"] == "Feasible" and r["stable"] != "":
            labels[r["cell_path"]].append(int(r["stable"]))
    rates = {row["depth"]: row for row in read_csv(Path(report_dir) / "rates_vs_depth.csv")}
    ents = {row["depth"]: row for row in read_csv(Path(report_dir) / "entropy_vs_depth.csv")}
    depths = sorted(set(depth_of.values()))
    errors = []
    if sorted(int(d) for d in rates) != depths or sorted(int(d) for d in ents) != depths:
        return [f"report depths differ from the dataset's {depths}"]
    for depth in depths:
        paths = [p for p, d in depth_of.items() if d == depth]
        got = rates[str(depth)]
        total = 0.0
        for verdict, col in (("Feasible", "feasible"), ("Infeasible", "infeasible"),
                             ("Discarded", "discarded")):
            share = [cells[p][verdict] / sum(cells[p].values()) for p in paths]
            mean, std = _mean_std(share)
            total += float(got[f"{col}_mean"])
            if not (_close(mean, float(got[f"{col}_mean"]))
                    and _close(std, float(got[f"{col}_std"]))):
                errors.append(f"depth {depth}: {col} rate {got[f'{col}_mean']}, "
                              f"recomputed {mean}")
        if abs(total - 1.0) > 1e-12:
            errors.append(f"depth {depth}: rates sum to {total}")
        ent = sum(_entropy(labels[p]) for p in paths) / len(paths)
        if not _close(ent, float(ents[str(depth)]["entropy_mean"])):
            errors.append(f"depth {depth}: entropy {ents[str(depth)]['entropy_mean']}, "
                          f"recomputed {ent}")
    return errors


def check_accuracy_parity(report_dir, metrics_path):
    """`report` accuracy per depth against the metrics.csv `generate` wrote."""
    want = {r["depth"]: (r["accuracy_mean"], r["accuracy_std"]) for r in read_csv(metrics_path)}
    got = {r["depth"]: (r["accuracy_mean"], r["accuracy_std"])
           for r in read_csv(Path(report_dir) / "accuracy_vs_depth.csv")}
    return [f"depth {d}: report accuracy {got.get(d)}, generate wrote {want[d]}"
            for d in sorted(want) if got.get(d) != want[d]]
