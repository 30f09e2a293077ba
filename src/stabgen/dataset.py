"""Dataset and metrics serialization.

dataset.csv holds one labeled record per row with a fixed, versioned
column set; metrics.csv aggregates per-depth rates, entropy, cross
validated accuracy and dimension importances; tree.json dumps the
exploration tree.  All CSV output is UTF-8 with a header row and
shortest-roundtrip float formatting, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .explorer import ExplorationNode, LabeledRecord, entropy
from .feasibility import ConstraintReport
from .forest import LabeledDataset, SensitivityUnavailableError, kfold_accuracy
from .space import OperatingSpaceSpec

SCHEMA_VERSION = 1
FIXED_COLUMNS = ["cell_path", "depth", "sample_index", "case_index"]
TAIL_COLUMNS = ["verdict", "stable", "max_real", "dominant_freq_hz",
                "dominant_damping", "adjustment_distance", "violations",
                "pf_iterations", "assess_ms"]


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return repr(float(x))


def dataset_columns(space: OperatingSpaceSpec) -> list[str]:
    dims = [d.name for d in space.dimensions]
    vars_ = [v.name for v in space.variables]
    return FIXED_COLUMNS + dims + vars_ + TAIL_COLUMNS


def write_dataset(path: str | Path, records: list[LabeledRecord],
                  space: OperatingSpaceSpec) -> None:
    cols = dataset_columns(space)
    dims = [d.name for d in space.dimensions]
    vars_ = [v.name for v in space.variables]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for r in records:
            row = [r.cell_path, r.depth, r.op.sample_index, r.op.case_index]
            row += [_fmt(r.op.dim_values.get(d)) for d in dims]
            row += [_fmt(r.op.var_values.get(v)) for v in vars_]
            row.append(r.verdict.status)
            if r.stability is not None:
                row += [str(int(r.stability.stable)), _fmt(r.stability.max_real),
                        _fmt(r.stability.dominant_mode[0]),
                        _fmt(r.stability.dominant_mode[1])]
            else:
                row += ["", "", "", ""]
            row.append(_fmt(r.verdict.adjustment_distance))
            row.append(ConstraintReport(r.verdict.violations).serialize())
            row.append(str(r.pf_iterations))
            row.append(_fmt(r.assess_ms))
            w.writerow(row)


@dataclass
class DatasetRow:
    cell_path: str
    depth: int
    sample_index: int
    case_index: int
    dims: dict[str, float]
    vars: dict[str, float]
    verdict: str
    stable: bool | None
    max_real: float | None
    adjustment_distance: float
    violations: str
    pf_iterations: int


def read_dataset(path: str | Path) -> tuple[list[DatasetRow], list[str]]:
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
        rows = []
        for rec in reader:
            rows.append(DatasetRow(
                cell_path=rec["cell_path"],
                depth=int(rec["depth"]),
                sample_index=int(rec["sample_index"]),
                case_index=int(rec["case_index"]),
                dims={c: float(rec[c]) for c in dim_cols if rec[c] != ""},
                vars={c: float(rec[c]) for c in var_cols if rec[c] != ""},
                verdict=rec["verdict"],
                stable=bool(int(rec["stable"])) if rec["stable"] != "" else None,
                max_real=float(rec["max_real"]) if rec["max_real"] != "" else None,
                adjustment_distance=float(rec["adjustment_distance"]),
                violations=rec["violations"],
                pf_iterations=int(rec["pf_iterations"]),
            ))
    return rows, cols


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


@dataclass
class _CellTally:
    feasible: int = 0
    infeasible: int = 0
    discarded: int = 0
    labels: list[int] = None

    def __post_init__(self):
        if self.labels is None:
            self.labels = []

    @property
    def total(self) -> int:
        return self.feasible + self.infeasible + self.discarded


def compute_metrics(rows: list["DatasetRow | LabeledRecord"],
                    dim_names: list[str],
                    forest_trees: int = 100, forest_depth: int = 8,
                    seed: int = 0, kfold: int = 5,
                    importances_by_depth: dict[int, dict[str, float]] | None = None,
                    ) -> list[MetricsRow]:
    """Per-depth metrics from raw records grouped by their origin cell."""
    cells: dict[str, _CellTally] = {}
    depth_of: dict[str, int] = {}
    features_by_depth: dict[int, list[list[float]]] = {}
    labels_by_depth: dict[int, list[int]] = {}
    for r in rows:
        if isinstance(r, DatasetRow):
            path, depth, verdict = r.cell_path, r.depth, r.verdict
            stable = r.stable
            dims = r.dims
        else:
            path, depth, verdict = r.cell_path, r.depth, r.verdict.status
            stable = None if r.stability is None else r.stability.stable
            dims = r.op.dim_values
        tly = cells.setdefault(path, _CellTally())
        depth_of[path] = depth
        if verdict == "Feasible":
            tly.feasible += 1
            if stable is not None:
                tly.labels.append(int(stable))
                features_by_depth.setdefault(depth, []).append(
                    [dims[n] for n in dim_names])
                labels_by_depth.setdefault(depth, []).append(int(stable))
        elif verdict == "Infeasible":
            tly.infeasible += 1
        else:
            tly.discarded += 1

    out: list[MetricsRow] = []
    cum_x: list[list[float]] = []
    cum_y: list[int] = []
    for depth in sorted({d for d in depth_of.values()}):
        paths = [p for p, d in depth_of.items() if d == depth]
        f_rates = [cells[p].feasible / cells[p].total for p in paths]
        i_rates = [cells[p].infeasible / cells[p].total for p in paths]
        d_rates = [cells[p].discarded / cells[p].total for p in paths]
        entropies = [entropy(cells[p].labels) for p in paths]
        cum_x.extend(features_by_depth.get(depth, []))
        cum_y.extend(labels_by_depth.get(depth, []))
        acc_mean = acc_std = None
        y = np.array(cum_y)
        if len(cum_y) >= 2 * kfold and len(np.unique(y)) == 2 \
                and min(np.bincount(y)) >= kfold:
            data = LabeledDataset(np.array(cum_x), y, dim_names)
            try:
                acc_mean, acc_std = kfold_accuracy(data, kfold, forest_trees,
                                                   forest_depth, seed)
            except (SensitivityUnavailableError, ValueError):
                pass
        imps = (importances_by_depth or {}).get(depth, {})
        out.append(MetricsRow(
            depth=depth, n_cells=len(paths),
            n_records=sum(cells[p].total for p in paths),
            feasible_mean=float(np.mean(f_rates)), feasible_std=float(np.std(f_rates)),
            infeasible_mean=float(np.mean(i_rates)), infeasible_std=float(np.std(i_rates)),
            discarded_mean=float(np.mean(d_rates)), discarded_std=float(np.std(d_rates)),
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
