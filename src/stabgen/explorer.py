"""Breadth-first operating-space exploration, one depth at a time.

A depth's (cell, sample index) pairs, in frontier order, are cut into one
contiguous chunk per worker, and each chunk is one task for a pool of
``workers`` forked processes.  A worker samples its chunk's points, repairs
them in lock step (``assess_many``), then labels each one.  Then each cell
in turn gets entropy, cutoffs, split dimensions (fixed list or
forest-importance ranking) and children for the next frontier.  Once a
depth is labeled, the folds of the k-fold accuracy of the labeled records
of every depth so far go to the same pool as tasks, behind the next
depth's chunks, and the root keeps the accuracies.  Determinism comes from
seed keying on (seed, cell path, sample index, case index), never from
execution order or chunking: a point's record does not depend on the
points it is sampled or repaired with.  The pool lives only inside one
``explore`` call, and the calling process only splits cells.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields, replace
from itertools import chain, groupby, islice
from operator import itemgetter

from .dataset import (DISCARDED, FEASIBLE, INFEASIBLE, KFOLD, LabeledRecord, entropy,
                      foldable, labeled_data)
from .feasibility import (DEFAULT_LOAD_PF, ConstraintReport, FeasibilityVerdict,
                          adjust_many, adjust_to_feasible)
from .forest import (SensitivityUnavailableError, feature_importance, fold_accuracy,
                     fold_summary, kfold_folds, train_forest)
from .grid import GridModel
from .sampling import hierarchical_sample
from .smallsignal import (EPS_MARGIN, GfolParams, GforParams, LinearizationError,
                          build_units, eig_stability, linearize)
from .space import OperatingSpaceSpec, Subregion, P_IBR, P_SG, contains_values, split

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
    # The root's only: per depth, the k-fold accuracy (mean, std) of the
    # labeled records of every depth up to it, where there are enough.
    accuracy_by_depth: dict[int, tuple[float, float]] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return self.cell.depth

    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def feasible_rate(self) -> float:
        return self.n_feasible / self.n_records if self.records else 0.0


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
            model = train_forest(labeled_data(node.records, names), config.forest_trees,
                                 config.forest_depth, seed=config.seed)
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
    return _label(grid, cell, config, depth,
                  *adjust_to_feasible(grid, op, cell, load_pf=config.load_pf))


def assess_many(grid: GridModel, config: ExplorationConfig,
                points: list[tuple]) -> list[LabeledRecord]:
    """``assess`` of each ``(op, cell, depth)`` in ``points``, record for
    record, with all of their repairs run in lock step (``adjust_many``)."""
    repaired = adjust_many(grid, [op for op, _, _ in points],
                           [cell for _, cell, _ in points], load_pf=config.load_pf)
    return [_label(grid, cell, config, depth, *result)
            for (_, cell, depth), result in zip(points, repaired)]


def _label(grid: GridModel, cell: Subregion, config: ExplorationConfig, depth: int,
           adjusted, sol, verdict: FeasibilityVerdict) -> LabeledRecord:
    """The record of a repaired point, with the small-signal verdict of a
    Feasible one."""
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


def _assess_task(args) -> list[LabeledRecord]:
    """Pool entry point, one chunk: the points of each ``(cell, samples)``
    piece, sampled and then assessed together.  ``hierarchical_sample`` and
    ``assess_many`` are looked up in the worker, which was forked after any
    rebinding of them (test doubles, tracing wrappers)."""
    grid, config, pieces = args
    points = [(op, cell, cell.depth) for cell, samples in pieces
              for op in hierarchical_sample(
                  cell, config.n_samples, config.n_cases, grid, config.seed,
                  config.loss_factor, config.dev_bound, config.randomize_loads,
                  samples)]
    return assess_many(grid, config, points)


def _fold_task(args) -> float:
    """Pool entry point, one fold of a depth's k-fold accuracy;
    ``fold_accuracy`` is looked up in the worker, as ``_assess_task``'s
    functions are."""
    return fold_accuracy(*args)


def _chunks(items: list, k: int) -> list[list]:
    """``items`` cut into at most ``k`` contiguous, non-empty pieces whose
    sizes differ by at most one."""
    cuts = [len(items) * i // k for i in range(k + 1)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]


def _sample_chunks(cells: list[Subregion], n_samples: int,
                   k: int) -> list[list[tuple[Subregion, range]]]:
    """The ``(cell, sample index)`` pairs of ``cells`` cut by ``_chunks``,
    each chunk as one ``(cell, range of sample indices)`` piece per cell."""
    pairs = [(i, s) for i in range(len(cells)) for s in range(n_samples)]
    out = []
    for chunk in _chunks(pairs, k):
        pieces = []
        for i, run in groupby(chunk, key=itemgetter(0)):
            samples = [s for _, s in run]
            pieces.append((cells[i], range(samples[0], samples[-1] + 1)))
        out.append(pieces)
    return out


def _record_key(r: LabeledRecord) -> tuple[str, int, int]:
    return r.cell_path, r.sample_index, r.case_index


def _bisect(cell: Subregion, dims: list[str],
            min_tolerance_frac: float) -> list[Subregion]:
    """Midpoint-split ``cell`` along each of ``dims`` in turn.  Each of
    ``dims`` is above its floor on ``cell``, and a split leaves the other
    dims' widths as they are, so every split succeeds.  Every piece is one
    tree level below ``cell``, however many dims split."""
    cells = [cell]
    for d in dims:
        cells = [half for c in cells for half in split(c, d, min_tolerance_frac)]
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
    never re-assessed.  The records are in ``(cell_path, sample_index,
    case_index)`` order, and the root's ``accuracy_by_depth`` holds the
    k-fold accuracies that ``compute_metrics`` computes from them.  Any
    exception raised while sampling, assessing, splitting a cell or fitting
    a fold propagates to the caller, after the pool's worker processes have
    been joined.
    """
    # Imported here, so that commands which never explore do not load them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # Loaded before the pool forks, so that no worker loads it again: every
    # sample and every forest draws from it.
    import numpy.random  # noqa: F401

    stream = progress_stream if progress_stream is not None else sys.stderr
    root = ExplorationNode(cell=space.root_cell())
    all_records: list[LabeledRecord] = []
    dim_names = [d.name for d in space.independent]
    labeled: list[LabeledRecord] = []  # of every depth so far, each depth in key order
    folds: dict[int, list] = {}  # per depth, its fold fits' futures
    per_cell = config.n_samples * config.n_cases
    cells_done = 0
    frontier: list[tuple[ExplorationNode, float | None]] = [(root, None)]
    grid.network  # compiled once here; the pickled tasks carry it to the workers
    with ProcessPoolExecutor(config.workers,
                             mp_context=multiprocessing.get_context("fork")) as pool:

        def submit_depth(nodes):
            # one contiguous chunk per worker, whose repairs run in lock step
            return [pool.submit(_assess_task, (grid, config, pieces))
                    for pieces in _sample_chunks([node.cell for node, _ in nodes],
                                                 config.n_samples, config.workers)]

        chunks = submit_depth(frontier)
        while frontier:
            depth = frontier[0][0].depth
            assessed = chain.from_iterable(c.result() for c in chunks)
            depth_records = []
            next_frontier = []
            for node, parent_entropy in frontier:
                new_records = list(islice(assessed, per_cell))
                depth_records += new_records
                node.records += new_records
                _update_stats(node)
                cells_done += 1
                print(f"depth={node.depth} cells={cells_done} "
                      f"feasible={100 * node.feasible_rate:.1f} "
                      f"entropy={node.entropy:.4f}", file=stream)
                node.stop_reason = should_stop(node, parent_entropy, config, space)
                if node.stop_reason is not None:
                    continue
                for c in _bisect(node.cell, choose_split_dims(node, config, space),
                                 config.min_tolerance_frac):
                    # The child inherits the parent's samples that fall inside it.
                    child = ExplorationNode(cell=c, records=[
                        r for r in node.records if contains_values(c, r.dims)])
                    node.children.append(child)
                    next_frontier.append((child, node.entropy))
            all_records += depth_records
            frontier = next_frontier
            chunks = submit_depth(frontier)
            # This depth's folds queue behind the next depth's chunks.
            labeled += [r for r in sorted(depth_records, key=_record_key) if r.labeled]
            data = labeled_data(labeled, dim_names)
            if foldable(data):
                fold = kfold_folds(data.labels, KFOLD, config.seed)
                folds[depth] = [pool.submit(_fold_task, (
                    data, fold, i, config.forest_trees, config.forest_depth,
                    config.seed)) for i in range(KFOLD)]
        root.accuracy_by_depth = {depth: fold_summary([f.result() for f in fits])
                                  for depth, fits in folds.items()}
    all_records.sort(key=_record_key)
    return root, all_records
