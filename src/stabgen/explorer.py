"""Breadth-first operating-space exploration, one depth at a time.

All frontier cells are sampled, the depth's points assessed in one ordered
map over a pool of ``workers`` forked processes; then each cell in turn gets
entropy, cutoffs, split dimensions (fixed list or forest-importance
ranking) and children for the next frontier.  Determinism comes from seed
keying on (seed, cell path, sample index, case index), never from execution
order.  The pool lives only inside one ``explore`` call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace
from itertools import islice

import numpy as np

from .feasibility import (DEFAULT_LOAD_PF, DISCARDED, FEASIBLE, INFEASIBLE,
                          ConstraintReport, FeasibilityVerdict, adjust_to_feasible)
from .forest import (LabeledDataset, SensitivityUnavailableError,
                     feature_importance, train_forest)
from .grid import GridModel
from .sampling import hierarchical_sample
from .smallsignal import (EPS_MARGIN, GfolParams, GforParams, LinearizationError,
                          build_units, eig_stability, linearize)
from .space import (OperatingSpaceSpec, Subregion, P_IBR, P_SG, contains_values,
                    split, ToleranceFloorError)

STOP_ZERO_ENTROPY = "zero_entropy"
STOP_ENTROPY_DECREASE = "entropy_decrease"
STOP_MIN_FEASIBLE_RATE = "min_feasible_rate"
STOP_TOLERANCE_FLOOR = "tolerance_floor"
STOP_MAX_DEPTH = "max_depth"


@dataclass
class ExplorationConfig:
    n_samples: int = 333
    n_cases: int = 3
    max_depth: int = 5
    min_feasible_rate: float = 0.05
    entropy_decrease_threshold: float = 0.01
    min_tolerance_frac: float = 0.01
    use_sensitivity: bool = True
    fixed_split_dims: tuple[str, ...] = (P_SG, P_IBR)
    split_dims_per_node: int | None = None  # default: 2 fixed mode, 1 sensitivity
    loss_factor: float = 0.97
    eps_margin: float = EPS_MARGIN
    seed: int = 0
    workers: int = 1
    dev_bound: float = 0.02
    randomize_loads: bool = False
    load_pf: float = DEFAULT_LOAD_PF
    forest_trees: int = 100
    forest_depth: int = 8

    @property
    def dims_per_node(self) -> int:
        if self.split_dims_per_node is not None:
            return self.split_dims_per_node
        return 1 if self.use_sensitivity else 2


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


@dataclass
class ExplorationNode:
    cell: Subregion
    records: list[LabeledRecord] = field(default_factory=list)
    n_feasible: int = 0
    n_infeasible: int = 0
    n_discarded: int = 0
    entropy: float = 0.0
    importances: dict[str, float] = field(default_factory=dict)
    stop_reason: str | None = None
    children: list["ExplorationNode"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return self.cell.depth

    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def feasible_rate(self) -> float:
        return self.n_feasible / self.n_records if self.records else 0.0


def entropy(labels: list[bool] | list[int] | np.ndarray) -> float:
    """Binary entropy of the stable/unstable labels, in nats (H(empty) = 0)."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    p = float(np.mean(labels))
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * math.log(p) - (1 - p) * math.log(1 - p))


def _candidate_dims(cell: Subregion, space: OperatingSpaceSpec,
                    config: ExplorationConfig) -> list[str]:
    names = ([d.name for d in space.independent] if config.use_sensitivity
             else [d for d in config.fixed_split_dims if d in cell.bounds])
    return [d for d in names
            if not cell.at_tolerance_floor(d, config.min_tolerance_frac)]


def should_stop(node: ExplorationNode, parent_entropy: float | None,
                config: ExplorationConfig, space: OperatingSpaceSpec) -> str | None:
    """First matching cutoff in the fixed order, or None to keep exploring."""
    if node.entropy == 0.0:
        return STOP_ZERO_ENTROPY
    if (parent_entropy is not None
            and parent_entropy - node.entropy < config.entropy_decrease_threshold):
        return STOP_ENTROPY_DECREASE
    if node.feasible_rate < config.min_feasible_rate:
        return STOP_MIN_FEASIBLE_RATE
    if not _candidate_dims(node.cell, space, config):
        return STOP_TOLERANCE_FLOOR
    if node.depth >= config.max_depth:
        return STOP_MAX_DEPTH
    return None


def node_dataset(node: ExplorationNode, space: OperatingSpaceSpec) -> LabeledDataset:
    names = [d.name for d in space.independent]
    rows, labels = [], []
    for r in node.records:
        if r.labeled:
            rows.append([r.dims[n] for n in names])
            labels.append(int(r.stable))
    return LabeledDataset(np.array(rows).reshape(len(rows), len(names)),
                          np.array(labels, dtype=int), names)


def choose_split_dims(node: ExplorationNode, config: ExplorationConfig,
                      space: OperatingSpaceSpec) -> list[str]:
    """Dimensions to bisect at this node.

    Sensitivity mode ranks the candidates by forest feature importance
    (falling back to the fixed list when no forest is trainable); fixed
    mode uses the configured list.  Ties break by declaration order.
    """
    candidates = _candidate_dims(node.cell, space, config)
    if not candidates:
        return []
    names = [d.name for d in space.independent]
    if config.use_sensitivity:
        try:
            data = node_dataset(node, space)
            model = train_forest(data, config.forest_trees, config.forest_depth,
                                 seed=config.seed)
            imp = feature_importance(model)
            node.importances = dict(zip(names, imp.tolist()))
            ranked = sorted(candidates,
                            key=lambda d: (-imp[names.index(d)], names.index(d)))
            return ranked[:config.dims_per_node]
        except SensitivityUnavailableError:
            pass
    fixed = [d for d in config.fixed_split_dims if d in candidates]
    if not fixed:
        fixed = sorted(candidates, key=names.index)
    return fixed[:config.dims_per_node]


def _with_controls(params, dim_values: dict[str, float]):
    """``params`` with each field that names a sampled dimension set to its value."""
    return replace(params, **{f.name: dim_values[f.name] for f in fields(params)
                              if f.name in dim_values})


def assess(grid: GridModel, op, cell: Subregion, config: ExplorationConfig,
           depth: int) -> LabeledRecord:
    """Stability assessment of one sampled operating point (pure task)."""
    adjusted, sol, verdict = adjust_to_feasible(grid, op, cell,
                                                load_pf=config.load_pf)
    stable = max_real = freq = damping = None
    if verdict.status == FEASIBLE:
        gfor = _with_controls(GforParams(), adjusted.dim_values)
        gfol = _with_controls(GfolParams(), adjusted.dim_values)
        try:
            units = build_units(grid, adjusted, gfor_params=gfor, gfol_params=gfol)
            ssm = linearize(grid, sol, units)
            stability = eig_stability(ssm, config.eps_margin)
            stable, max_real = stability.stable, stability.max_real
            freq, damping = stability.dominant_mode
        except LinearizationError:
            verdict = FeasibilityVerdict(INFEASIBLE, [("analysis_failed", 1.0)],
                                         verdict.adjustment_distance)
    return LabeledRecord(cell.path, depth, adjusted.sample_index, adjusted.case_index,
                         adjusted.dim_values, adjusted.var_values, verdict.status,
                         stable, max_real, freq, damping, verdict.adjustment_distance,
                         ConstraintReport(verdict.violations).serialize(),
                         sol.iterations)


def _assess_task(args) -> LabeledRecord:
    """Pool entry point.  ``assess`` is looked up in the worker, which was
    forked after any rebinding of it (test doubles, tracing wrappers)."""
    return assess(*args)


def _bisect(cell: Subregion, dims: list[str],
            min_tolerance_frac: float) -> list[Subregion]:
    """Midpoint-split ``cell`` along each of ``dims`` in turn; a piece whose
    halves would fall below the tolerance floor stays whole on that dim.
    Every piece is one tree level below ``cell``, however many dims split."""
    cells = [cell]
    for d in dims:
        nxt = []
        for c in cells:
            try:
                nxt.extend(split(c, d, min_tolerance_frac))
            except ToleranceFloorError:
                nxt.append(c)
        cells = nxt
    return [replace(c, depth=cell.depth + 1) for c in cells]


def _update_stats(node: ExplorationNode):
    node.n_feasible = sum(1 for r in node.records if r.verdict == FEASIBLE)
    node.n_infeasible = sum(1 for r in node.records if r.verdict == INFEASIBLE)
    node.n_discarded = sum(1 for r in node.records if r.verdict == DISCARDED)
    node.entropy = entropy([int(r.stable) for r in node.records if r.labeled])


def explore(space: OperatingSpaceSpec, grid: GridModel, config: ExplorationConfig,
            progress_stream=None) -> tuple[ExplorationNode, list[LabeledRecord]]:
    """Run the full exploration; returns the node tree and every record.

    Every assessed sample appears exactly once in the output (keyed by its
    origin cell path and sample/case indices); inherited samples are reused,
    never re-assessed.  Any exception raised while sampling, assessing or
    splitting a cell propagates to the caller, after the pool's worker
    processes have been joined.
    """
    # Imported here, so that commands which never explore do not load them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    stream = progress_stream if progress_stream is not None else sys.stderr
    root = ExplorationNode(cell=space.root_cell())
    all_records: list[LabeledRecord] = []
    cells_done = 0
    frontier: list[tuple[ExplorationNode, float | None]] = [(root, None)]
    grid.network  # compiled once here; the pickled tasks carry it to the workers
    with ProcessPoolExecutor(config.workers,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        while frontier:
            points = [hierarchical_sample(
                node.cell, config.n_samples, config.n_cases, grid,
                config.seed, config.loss_factor, config.dev_bound,
                config.randomize_loads) for node, _ in frontier]
            tasks = [(grid, op, node.cell, config, node.depth)
                     for (node, _), pts in zip(frontier, points) for op in pts]
            assessed = pool.map(_assess_task, tasks,
                                chunksize=max(1, len(tasks) // (4 * config.workers)))
            next_frontier = []
            for (node, parent_entropy), pts in zip(frontier, points):
                new_records = list(islice(assessed, len(pts)))
                all_records.extend(new_records)
                node.records += new_records
                _update_stats(node)
                cells_done += 1
                print(f"depth={node.depth} cells={cells_done} "
                      f"feasible={100 * node.feasible_rate:.1f} "
                      f"entropy={node.entropy:.4f}", file=stream)
                node.stop_reason = should_stop(node, parent_entropy, config, space)
                if node.stop_reason is not None:
                    continue
                cells = _bisect(node.cell, choose_split_dims(node, config, space),
                                config.min_tolerance_frac)
                if len(cells) == 1:
                    node.stop_reason = STOP_TOLERANCE_FLOOR
                    continue
                for c in cells:
                    # The child inherits the parent's samples that fall inside it.
                    child = ExplorationNode(cell=c, records=[
                        r for r in node.records if contains_values(c, r.dims)])
                    node.children.append(child)
                    next_frontier.append((child, node.entropy))
            frontier = next_frontier
    all_records.sort(key=lambda r: (r.cell_path, r.sample_index, r.case_index))
    return root, all_records
