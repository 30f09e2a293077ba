"""The record format, and every table made from records.

``LabeledRecord``, the three verdict names and the label ``entropy`` are
defined here, and the engine modules take them from this module, so that
reading a dataset loads no power flow, model or sampler.  Records become
tables here only: ``labeled_data`` turns them into forest input and
``foldable`` gates its k-fold accuracy, for the split forests and the
metrics alike.  dataset.csv holds one labeled record per row, its columns
the fields of ``LabeledRecord``; metrics.csv aggregates per-depth rates,
entropy, cross validated accuracy and dimension importances, and each of
``report``'s series is a column list of that table; tree.json dumps the
exploration tree.  Every file goes through ``write_csv`` (UTF-8, a header
row, shortest-roundtrip float formatting) or ``write_json`` (indented,
sorted keys), so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .forest import LabeledDataset, kfold_accuracy

if TYPE_CHECKING:
    from .explorer import ExplorationNode
    from .space import OperatingSpaceSpec

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
DISCARDED = "Discarded"

# The folds of every cross-validated accuracy in the metrics.
KFOLD = 5

FIXED_COLUMNS = ["cell_path", "depth", "sample_index", "case_index"]
TAIL_COLUMNS = ["verdict", "stable", "max_real", "dominant_freq_hz",
                "dominant_damping", "adjustment_distance", "violations",
                "pf_iterations"]


@dataclass
class LabeledRecord:
    """One assessed operating point; its fields are the dataset.csv columns."""

    cell_path: str                    # the cell that sampled the point
    depth: int
    sample_index: int
    case_index: int
    dims: dict[str, float]            # adjusted dimension values
    vars: dict[str, float]            # adjusted variable values
    verdict: str                      # Feasible, Infeasible or Discarded
    stable: bool | None               # None unless Feasible
    max_real: float | None
    dominant_freq_hz: float | None
    dominant_damping: float | None
    adjustment_distance: float
    violations: str                   # ConstraintReport.serialize()
    pf_iterations: int

    @property
    def labeled(self) -> bool:
        return self.verdict == FEASIBLE and self.stable is not None


def entropy(labels: list[bool] | list[int] | np.ndarray) -> float:
    """Binary entropy of the stable/unstable labels, in nats (H(empty) = 0)."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    p = float(np.mean(labels))
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * math.log(p) - (1 - p) * math.log(1 - p))


def labeled_data(records: list[LabeledRecord], dim_names: list[str]) -> LabeledDataset:
    """The labeled ones of ``records``, in order, as forest input whose
    features are the dimensions ``dim_names``."""
    labeled = [r for r in records if r.labeled]
    x = np.array([[r.dims[n] for n in dim_names] for r in labeled])
    return LabeledDataset(x.reshape(len(labeled), len(dim_names)),
                          np.array([int(r.stable) for r in labeled], dtype=int),
                          dim_names)


def foldable(data: LabeledDataset, kfold: int = KFOLD) -> bool:
    """True if each class of ``data`` has a record per fold."""
    return bool(np.bincount(data.labels, minlength=2).min() >= kfold)  # labels are 0 or 1


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return repr(float(x))


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """``header``, then each of ``rows``, as a UTF-8 CSV file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_json(path: str | Path, obj) -> None:
    """``obj`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dataset_columns(space: OperatingSpaceSpec) -> list[str]:
    dims = [d.name for d in space.dimensions]
    return FIXED_COLUMNS + dims + list(space.variables) + TAIL_COLUMNS


def write_dataset(path: str | Path, records: list[LabeledRecord],
                  space: OperatingSpaceSpec) -> None:
    dims = [d.name for d in space.dimensions]
    write_csv(path, dataset_columns(space), (
        [r.cell_path, r.depth, r.sample_index, r.case_index,
         *(_fmt(r.dims.get(d)) for d in dims),
         *(_fmt(r.vars.get(v)) for v in space.variables),
         r.verdict, "" if r.stable is None else str(int(r.stable)),
         _fmt(r.max_real), _fmt(r.dominant_freq_hz),
         _fmt(r.dominant_damping), _fmt(r.adjustment_distance),
         r.violations, str(r.pf_iterations)] for r in records))


def _opt_float(s: str) -> float | None:
    return float(s) if s != "" else None


def read_dataset(path: str | Path) -> tuple[list[LabeledRecord], list[str]]:
    """The records of a dataset.csv and its header.

    Raises ValueError, naming the file and line, on any row that
    ``write_dataset`` could not have written, and on a file with no rows.
    """
    name = Path(path).name
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        cols = next(reader, [])
        for c in FIXED_COLUMNS + TAIL_COLUMNS:
            if c not in cols:
                raise ValueError(f"dataset schema mismatch: missing column {c}")
        at = {c: i for i, c in enumerate(cols)}
        middle = [c for c in cols if c not in FIXED_COLUMNS and c not in TAIL_COLUMNS]
        dim_cols = [c for c in middle if not c.startswith(("P_SG_", "P_IBR_", "P_GFM_",
                                                           "P_GFL_", "P_L_"))]
        dims_at = [(c, at[c]) for c in dim_cols]
        vars_at = [(c, at[c]) for c in middle if c not in dim_cols]
        records = []
        for row in reader:
            if not row:
                continue  # a blank line
            try:
                records.append(_record(row, len(cols), at, dims_at, vars_at))
            except ValueError as exc:
                raise ValueError(f"{name} line {reader.line_num}: {exc}") from None
    if not records:
        raise ValueError(f"{name}: no rows")
    return records, cols


def _record(row: list[str], width: int, at: dict[str, int],
            dims_at: list[tuple[str, int]],
            vars_at: list[tuple[str, int]]) -> LabeledRecord:
    if len(row) != width:
        raise ValueError(f"{len(row)} cells, the header has {width}")
    dims = {c: float(row[i]) for c, i in dims_at if row[i] != ""}
    vars_ = {c: float(row[i]) for c, i in vars_at if row[i] != ""}
    distance = float(row[at["adjustment_distance"]])
    if not (all(map(math.isfinite, dims.values()))
            and all(map(math.isfinite, vars_.values())) and math.isfinite(distance)):
        numbers = chain(dims.items(), vars_.items(), [("adjustment_distance", distance)])
        bad = next(c for c, v in numbers if not math.isfinite(v))
        raise ValueError(f"{bad} is not a finite number")
    verdict, stable = row[at["verdict"]], row[at["stable"]]
    if verdict not in (FEASIBLE, INFEASIBLE, DISCARDED):
        raise ValueError(f"unknown verdict {verdict!r}")
    if stable not in ("", "0", "1"):
        raise ValueError(f"stable must be empty, 0 or 1, got {stable!r}")
    return LabeledRecord(
        cell_path=row[at["cell_path"]],
        depth=int(row[at["depth"]]),
        sample_index=int(row[at["sample_index"]]),
        case_index=int(row[at["case_index"]]),
        dims=dims,
        vars=vars_,
        verdict=verdict,
        stable=stable == "1" if stable else None,
        max_real=_opt_float(row[at["max_real"]]),
        dominant_freq_hz=_opt_float(row[at["dominant_freq_hz"]]),
        dominant_damping=_opt_float(row[at["dominant_damping"]]),
        adjustment_distance=distance,
        violations=row[at["violations"]],
        pf_iterations=int(row[at["pf_iterations"]]),
    )


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


# metrics.csv's columns before the importances: every field but the last.
# A field annotated ``int`` (a string here, under the future import) is
# written as an integer, any other as a float.
METRICS_COLUMNS = [f.name for f in fields(MetricsRow)][:-1]
_INT_COLUMNS = {f.name for f in fields(MetricsRow) if f.type == "int"}


def compute_metrics(records: list[LabeledRecord], dim_names: list[str],
                    forest_trees: int = 100, forest_depth: int = 8,
                    seed: int = 0, kfold: int = KFOLD,
                    importances_by_depth: dict[int, dict[str, float]] | None = None,
                    accuracy_by_depth: dict[int, tuple[float, float]] | None = None,
                    ) -> list[MetricsRow]:
    """Per-depth metrics from raw records grouped by their origin cell.

    Each depth's accuracy is the k-fold accuracy of the labeled records of
    every depth up to it, in the order of ``records``.  A caller that has
    computed them passes them as ``accuracy_by_depth``, without the depths
    whose labels are too few to fold.
    """
    cells: dict[str, list[LabeledRecord]] = {}
    for r in records:
        cells.setdefault(r.cell_path, []).append(r)
    out: list[MetricsRow] = []
    labeled: list[LabeledRecord] = []
    for depth in sorted({r.depth for r in records}):
        groups = [g for g in cells.values() if g[0].depth == depth]
        rates = {v: [sum(r.verdict == v for r in g) / len(g) for g in groups]
                 for v in (FEASIBLE, INFEASIBLE, DISCARDED)}
        entropies = [entropy([int(r.stable) for r in g if r.labeled]) for g in groups]
        if accuracy_by_depth is None:
            labeled += [r for r in records if r.depth == depth and r.labeled]
            data = labeled_data(labeled, dim_names)
            acc_mean, acc_std = (kfold_accuracy(data, kfold, forest_trees, forest_depth, seed)
                                 if foldable(data, kfold) else (None, None))
        else:
            acc_mean, acc_std = accuracy_by_depth.get(depth, (None, None))
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
                  dim_names: list[str], columns: list[str] = METRICS_COLUMNS) -> None:
    """The ``columns`` of ``metrics``, then an ``imp_<name>`` column per
    name of ``dim_names``, one row per depth."""
    write_csv(path, [*columns, *(f"imp_{n}" for n in dim_names)], (
        [getattr(m, c) if c in _INT_COLUMNS else _fmt(getattr(m, c)) for c in columns]
        + [_fmt(m.importances.get(n)) for n in dim_names] for m in metrics))


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
    write_json(path, node_to_dict(root))


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
