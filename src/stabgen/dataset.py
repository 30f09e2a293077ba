"""The record format, and dataset and metrics serialization.

``LabeledRecord``, the three verdict names and the label ``entropy`` are
defined here, and the engine modules take them from this module, so that
reading a dataset loads no power flow, model or sampler.  dataset.csv
holds one labeled record per row, its columns the fields of
``LabeledRecord``; metrics.csv aggregates per-depth rates, entropy, cross
validated accuracy and dimension importances; tree.json dumps the
exploration tree.  All CSV output is UTF-8 with a header row and
shortest-roundtrip float formatting, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
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


class CumulativeLabels:
    """The k-fold input of the metrics: the labeled records of every depth
    so far, in the order added, as features in ``dim_names`` order."""

    def __init__(self, dim_names: list[str], kfold: int = KFOLD):
        self.dim_names, self.kfold = dim_names, kfold
        self.x: list[list[float]] = []
        self.y: list[int] = []

    def add(self, records) -> LabeledDataset | None:
        """Append the labeled ones of ``records``; the data so far if each
        class has a record per fold, else None."""
        labeled = [r for r in records if r.labeled]
        self.x.extend([r.dims[n] for n in self.dim_names] for r in labeled)
        self.y.extend(int(r.stable) for r in labeled)
        y = np.array(self.y, dtype=int)
        counts = np.bincount(y, minlength=2)  # labels are 0 or 1
        if len(self.y) >= 2 * self.kfold and counts.min() >= self.kfold:
            return LabeledDataset(np.array(self.x), y, self.dim_names)
        return None


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
    cumulative = CumulativeLabels(dim_names, kfold)
    for depth in sorted({r.depth for r in records}):
        groups = [g for g in cells.values() if g[0].depth == depth]
        rates = {v: [sum(r.verdict == v for r in g) / len(g) for g in groups]
                 for v in (FEASIBLE, INFEASIBLE, DISCARDED)}
        entropies = [entropy([int(r.stable) for r in g if r.labeled]) for g in groups]
        if accuracy_by_depth is None:
            data = cumulative.add(r for r in records if r.depth == depth)
            acc_mean, acc_std = (None, None) if data is None else kfold_accuracy(
                data, kfold, forest_trees, forest_depth, seed)
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
