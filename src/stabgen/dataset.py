"""Dataset and metrics serialization.

dataset.csv holds one labeled record per row, its columns the fields of
``LabeledRecord``; metrics.csv aggregates per-depth rates, entropy, cross
validated accuracy and dimension importances; tree.json dumps the
exploration tree.  All CSV output is UTF-8 with a header row and
shortest-roundtrip float formatting, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .explorer import ExplorationNode, LabeledRecord, entropy
from .feasibility import DISCARDED, FEASIBLE, INFEASIBLE
from .forest import LabeledDataset, kfold_accuracy
from .space import OperatingSpaceSpec

FIXED_COLUMNS = ["cell_path", "depth", "sample_index", "case_index"]
TAIL_COLUMNS = ["verdict", "stable", "max_real", "dominant_freq_hz",
                "dominant_damping", "adjustment_distance", "violations",
                "pf_iterations"]


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return repr(float(x))


def dataset_columns(space: OperatingSpaceSpec) -> list[str]:
    dims = [d.name for d in space.dimensions]
    return FIXED_COLUMNS + dims + list(space.variables) + TAIL_COLUMNS


def write_dataset(path: str | Path, records: list[LabeledRecord],
                  space: OperatingSpaceSpec) -> None:
    cols = dataset_columns(space)
    dims = [d.name for d in space.dimensions]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for r in records:
            w.writerow([r.cell_path, r.depth, r.sample_index, r.case_index,
                        *(_fmt(r.dims.get(d)) for d in dims),
                        *(_fmt(r.vars.get(v)) for v in space.variables),
                        r.verdict, "" if r.stable is None else str(int(r.stable)),
                        _fmt(r.max_real), _fmt(r.dominant_freq_hz),
                        _fmt(r.dominant_damping), _fmt(r.adjustment_distance),
                        r.violations, str(r.pf_iterations)])


def _opt_float(s: str) -> float | None:
    return float(s) if s != "" else None


def read_dataset(path: str | Path) -> tuple[list[LabeledRecord], list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        cols = reader.fieldnames or []
        for c in FIXED_COLUMNS + TAIL_COLUMNS:
            if c not in cols:
                raise ValueError(f"dataset schema mismatch: missing column {c}")
        middle = [c for c in cols if c not in FIXED_COLUMNS and c not in TAIL_COLUMNS]
        dim_cols = [c for c in middle if not c.startswith(("P_SG_", "P_IBR_", "P_GFM_",
                                                           "P_GFL_", "P_L_"))]
        var_cols = [c for c in middle if c not in dim_cols]
        records = []
        for rec in reader:
            records.append(LabeledRecord(
                cell_path=rec["cell_path"],
                depth=int(rec["depth"]),
                sample_index=int(rec["sample_index"]),
                case_index=int(rec["case_index"]),
                dims={c: float(rec[c]) for c in dim_cols if rec[c] != ""},
                vars={c: float(rec[c]) for c in var_cols if rec[c] != ""},
                verdict=rec["verdict"],
                stable=bool(int(rec["stable"])) if rec["stable"] != "" else None,
                max_real=_opt_float(rec["max_real"]),
                dominant_freq_hz=_opt_float(rec["dominant_freq_hz"]),
                dominant_damping=_opt_float(rec["dominant_damping"]),
                adjustment_distance=float(rec["adjustment_distance"]),
                violations=rec["violations"],
                pf_iterations=int(rec["pf_iterations"]),
            ))
    return records, cols


@dataclass
class MetricsRow:
    depth: int
    n_cells: int
    n_records: int
    feasible_mean: float
    feasible_std: float
    infeasible_mean: float
    infeasible_std: float
    discarded_mean: float
    discarded_std: float
    entropy_mean: float
    accuracy_mean: float | None
    accuracy_std: float | None
    importances: dict[str, float]


def compute_metrics(records: list[LabeledRecord], dim_names: list[str],
                    forest_trees: int = 100, forest_depth: int = 8,
                    seed: int = 0, kfold: int = 5,
                    importances_by_depth: dict[int, dict[str, float]] | None = None,
                    ) -> list[MetricsRow]:
    """Per-depth metrics from raw records grouped by their origin cell."""
    cells: dict[str, list[LabeledRecord]] = {}
    for r in records:
        cells.setdefault(r.cell_path, []).append(r)
    out: list[MetricsRow] = []
    cum_x: list[list[float]] = []
    cum_y: list[int] = []
    for depth in sorted({r.depth for r in records}):
        groups = [g for g in cells.values() if g[0].depth == depth]
        rates = {v: [sum(r.verdict == v for r in g) / len(g) for g in groups]
                 for v in (FEASIBLE, INFEASIBLE, DISCARDED)}
        entropies = [entropy([int(r.stable) for r in g if r.labeled]) for g in groups]
        labeled = [r for r in records if r.depth == depth and r.labeled]
        cum_x.extend([r.dims[n] for n in dim_names] for r in labeled)
        cum_y.extend(int(r.stable) for r in labeled)
        acc_mean = acc_std = None
        y = np.array(cum_y, dtype=int)
        counts = np.bincount(y, minlength=2)  # labels are 0 or 1
        if len(cum_y) >= 2 * kfold and counts.min() >= kfold:
            data = LabeledDataset(np.array(cum_x), y, dim_names)
            acc_mean, acc_std = kfold_accuracy(data, kfold, forest_trees,
                                               forest_depth, seed)
        imps = (importances_by_depth or {}).get(depth, {})
        out.append(MetricsRow(
            depth=depth, n_cells=len(groups),
            n_records=sum(len(g) for g in groups),
            feasible_mean=float(np.mean(rates[FEASIBLE])),
            feasible_std=float(np.std(rates[FEASIBLE])),
            infeasible_mean=float(np.mean(rates[INFEASIBLE])),
            infeasible_std=float(np.std(rates[INFEASIBLE])),
            discarded_mean=float(np.mean(rates[DISCARDED])),
            discarded_std=float(np.std(rates[DISCARDED])),
            entropy_mean=float(np.mean(entropies)),
            accuracy_mean=acc_mean, accuracy_std=acc_std,
            importances=imps))
    return out


def write_metrics(path: str | Path, metrics: list[MetricsRow],
                  dim_names: list[str]) -> None:
    cols = ["depth", "n_cells", "n_records",
            "feasible_mean", "feasible_std", "infeasible_mean", "infeasible_std",
            "discarded_mean", "discarded_std", "entropy_mean",
            "accuracy_mean", "accuracy_std"] + [f"imp_{n}" for n in dim_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for m in metrics:
            row = [m.depth, m.n_cells, m.n_records,
                   _fmt(m.feasible_mean), _fmt(m.feasible_std),
                   _fmt(m.infeasible_mean), _fmt(m.infeasible_std),
                   _fmt(m.discarded_mean), _fmt(m.discarded_std),
                   _fmt(m.entropy_mean), _fmt(m.accuracy_mean), _fmt(m.accuracy_std)]
            row += [_fmt(m.importances.get(n)) if n in m.importances else ""
                    for n in dim_names]
            w.writerow(row)


def node_to_dict(node: ExplorationNode) -> dict:
    return {
        "path": node.cell.path,
        "depth": node.depth,
        "bounds": {k: list(v) for k, v in node.cell.bounds.items()},
        "n_records": node.n_records,
        "n_feasible": node.n_feasible,
        "n_infeasible": node.n_infeasible,
        "n_discarded": node.n_discarded,
        "entropy": node.entropy,
        "importances": node.importances,
        "stop_reason": node.stop_reason,
        "children": [node_to_dict(c) for c in node.children],
    }


def write_tree(path: str | Path, root: ExplorationNode) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(node_to_dict(root), fh, indent=2, sort_keys=True)
        fh.write("\n")


def importances_by_depth(root: ExplorationNode) -> dict[int, dict[str, float]]:
    """Mean forest importance per dimension over the nodes at each depth."""
    acc: dict[int, list[dict[str, float]]] = {}

    def walk(node: ExplorationNode):
        if node.importances:
            acc.setdefault(node.depth, []).append(node.importances)
        for c in node.children:
            walk(c)

    walk(root)
    out: dict[int, dict[str, float]] = {}
    for depth, dicts in acc.items():
        keys = dicts[0].keys()
        out[depth] = {k: float(np.mean([d[k] for d in dicts])) for k in keys}
    return out
