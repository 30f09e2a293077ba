import contextlib
import csv
import io
import math
import os
import re

import pytest
from hypothesis import given, strategies as st

from stabgen import explorer, forest
from stabgen.cli import main
from stabgen.dataset import compute_metrics, read_dataset, write_dataset
from stabgen.explorer import (ExplorationConfig, ExplorationNode,
                              STOP_ENTROPY_DECREASE, STOP_MAX_DEPTH,
                              STOP_MIN_FEASIBLE_RATE, STOP_TOLERANCE_FLOOR,
                              STOP_ZERO_ENTROPY, _with_controls, assess,
                              choose_split_dims, entropy, explore, should_stop)
from stabgen.grid import fixture_3bus
from stabgen.sampling import hierarchical_sample
from stabgen.smallsignal import GfolParams, GforParams
from stabgen.space import OperatingPoint, Subregion, build_space, contains_values

from oracles import binary_entropy

CONTROL = [("tau_u", 0.01, 1.0), ("tau_w", 0.01, 1.0)]


# -- entropy ------------------------------------------------------------------

def test_entropy_balanced():
    assert entropy([0, 1]) == pytest.approx(math.log(2), abs=1e-6)
    assert entropy([True] * 7 + [False] * 7) == pytest.approx(0.6931, abs=1e-4)


def test_entropy_single_class_is_exactly_zero():
    assert entropy([1, 1, 1]) == 0.0
    assert entropy([0] * 100) == 0.0
    assert entropy([]) == 0.0


def test_entropy_quarter():
    assert entropy([1, 0, 0, 0]) == pytest.approx(0.5623, abs=1e-4)


@given(st.lists(st.booleans(), min_size=1, max_size=200))
def test_entropy_matches_reference(labels):
    p = sum(labels) / len(labels)
    assert entropy(labels) == pytest.approx(binary_entropy(p), abs=1e-12)
    assert 0.0 <= entropy(labels) <= math.log(2) + 1e-12


# -- cutoff ordering ----------------------------------------------------------

def _space():
    return build_space(fixture_3bus(), CONTROL)


def _node(ent, n_feasible, n_records, cell=None):
    node = ExplorationNode(cell=cell if cell is not None else _space().root_cell())
    node.records = [object()] * n_records
    node.n_feasible = n_feasible
    node.entropy = ent
    return node


def test_stop_zero_entropy_first():
    cfg = ExplorationConfig(min_feasible_rate=0.5)
    # zero entropy wins even though the feasible rate is also below the bar
    node = _node(0.0, 1, 100)
    assert should_stop(node, 0.6, cfg, _space()) == STOP_ZERO_ENTROPY


def test_stop_entropy_decrease_skipped_at_root():
    cfg = ExplorationConfig(entropy_decrease_threshold=0.01, max_depth=5)
    node = _node(0.69, 50, 100)
    assert should_stop(node, None, cfg, _space()) is None
    assert should_stop(node, 0.695, cfg, _space()) == STOP_ENTROPY_DECREASE
    assert should_stop(node, 0.80, cfg, _space()) is None


def test_stop_min_feasible_rate():
    cfg = ExplorationConfig(min_feasible_rate=0.10,
                            entropy_decrease_threshold=0.0)
    node = _node(0.5, 5, 100)
    assert should_stop(node, 0.7, cfg, _space()) == STOP_MIN_FEASIBLE_RATE


def test_stop_tolerance_floor():
    cfg = ExplorationConfig(entropy_decrease_threshold=0.0, max_depth=50)
    space = _space()
    root = space.root_cell()
    # shrink every dimension below 1 % of its initial range
    bounds = {d: (lo, lo + 0.009 * (hi - lo)) for d, (lo, hi) in root.bounds.items()}
    tiny = Subregion(bounds, root.initial, 3, "R.x")
    node = _node(0.5, 50, 100, cell=tiny)
    assert should_stop(node, 0.7, cfg, space) == STOP_TOLERANCE_FLOOR
    assert choose_split_dims(node, cfg, space) == []


def test_stop_max_depth():
    cfg = ExplorationConfig(entropy_decrease_threshold=0.0, max_depth=2)
    space = _space()
    root = space.root_cell()
    deep = Subregion(root.bounds, root.initial, 2, "R.P_SG_L.P_SG_H")
    node = _node(0.5, 50, 100, cell=deep)
    assert should_stop(node, 0.7, cfg, space) == STOP_MAX_DEPTH
    shallow = _node(0.5, 50, 100)
    assert should_stop(shallow, 0.7, cfg, space) is None


def test_fixed_mode_split_dims():
    cfg = ExplorationConfig(use_sensitivity=False)
    space = _space()
    node = _node(0.5, 50, 100)
    assert choose_split_dims(node, cfg, space) == ["P_SG", "P_IBR"]


def test_sensitivity_without_two_classes_raises():
    # no labeled records at all: no forest to rank by, and no fallback
    cfg = ExplorationConfig(use_sensitivity=True)
    space = _space()
    node = ExplorationNode(cell=space.root_cell())
    with pytest.raises(forest.SensitivityUnavailableError):
        choose_split_dims(node, cfg, space)
    assert node.importances == {}


# -- assessment and full exploration ------------------------------------------

def _fast_config(**kw):
    base = dict(n_samples=24, n_cases=1, max_depth=1,
                entropy_decrease_threshold=0.0, min_feasible_rate=0.0,
                use_sensitivity=False, workers=2, seed=0,
                forest_trees=10, forest_depth=4)
    base.update(kw)
    return ExplorationConfig(**base)


def test_assess_record_shape():
    grid = fixture_3bus()
    space = build_space(grid, CONTROL)
    cell = space.root_cell()
    dims = {"P_SG": 150.0, "P_IBR": 120.0, "pct_P_GFM": 0.5, "V_anchor": 1.02,
            "tau_u": 0.1, "tau_w": 0.1, "P_D": 0.97 * 270}
    varv = {"P_SG_1": 150.0, "P_IBR_2": 120.0, "P_GFM_2": 60.0,
            "P_GFL_2": 60.0, "P_L_3": 0.97 * 270}
    op = OperatingPoint(dims, varv, {1: 1.02, 2: 1.02, 3: 1.02})
    rec = assess(grid, op, cell, _fast_config(), 0)
    assert rec.cell_path == "R"
    assert rec.verdict in ("Feasible", "Infeasible", "Discarded")
    if rec.verdict == "Feasible":
        assert rec.stable is not None
        assert (rec.max_real < -1e-6) == rec.stable


def test_failed_linearization_makes_an_unlabeled_infeasible_record(monkeypatch, tmp_path):
    # A point whose repair ends Feasible but whose model cannot be
    # assembled is Infeasible for "analysis_failed", with no label, and
    # keeps the distance its repair moved it.
    from stabgen.feasibility import adjust_many
    from stabgen.smallsignal import LinearizationError

    def no_model(*args, **kwargs):
        raise LinearizationError("no model")

    grid = fixture_3bus()
    space = build_space(grid, CONTROL)
    cell = space.root_cell()
    ops = list(hierarchical_sample(cell, 20, 1, grid, seed=5))  # 3 repairs end Feasible
    repaired = adjust_many(grid, ops, [cell] * len(ops))
    monkeypatch.setattr(explorer, "linearize", no_model)
    records = explorer.assess_many(grid, _fast_config(), [(op, cell, 0) for op in ops])
    failed = [(rec, verdict) for rec, (_, _, verdict) in zip(records, repaired)
              if verdict.status == "Feasible"]
    assert failed
    for rec, verdict in failed:
        assert rec.verdict == "Infeasible"
        assert rec.violations == "analysis_failed:1"
        assert (rec.stable, rec.max_real, rec.dominant_freq_hz,
                rec.dominant_damping) == (None, None, None, None)
        assert rec.adjustment_distance == verdict.adjustment_distance
    path = tmp_path / "dataset.csv"
    write_dataset(path, records, space)
    assert read_dataset(path)[0] == records


def test_admittance_built_once_per_grid(monkeypatch):
    from stabgen import feasibility, grid as grid_module, smallsignal

    real = grid_module.build_admittance
    builds = []

    def counting(grid):
        builds.append(grid)
        return real(grid)

    for module in (grid_module, feasibility, smallsignal):
        monkeypatch.setattr(module, "build_admittance", counting)
    grid = fixture_3bus()
    space = build_space(grid, CONTROL)
    cell = space.root_cell()
    records = [assess(grid, op, cell, _fast_config(), 0)
               for op in hierarchical_sample(cell, 20, 1, grid, seed=3)]
    assert any(r.verdict == "Feasible" for r in records)  # linearize ran
    assert len(builds) <= 1


def test_control_dimensions_reach_converter_params():
    dims = {"P_SG": 150.0, "k_p": 3.0, "tau_w": 0.2, "pll_kp": 40.0}
    gfor = _with_controls(GforParams(), dims)
    gfol = _with_controls(GfolParams(), dims)
    assert gfor == GforParams(k_p=3.0, tau_w=0.2)
    assert gfol == GfolParams(pll_kp=40.0, tau_w=0.2)


def _walk(node):
    yield node
    for c in node.children:
        yield from _walk(c)


def test_explore_tree_and_records():
    grid = fixture_3bus()
    space = build_space(grid, CONTROL)
    cfg = _fast_config()
    sink = io.StringIO()
    root, records = explore(space, grid, cfg, progress_stream=sink)

    assert root.n_records >= cfg.n_samples * cfg.n_cases
    keys = [(r.cell_path, r.sample_index, r.case_index) for r in records]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)  # each assessment recorded once

    stops = {STOP_ZERO_ENTROPY, STOP_ENTROPY_DECREASE, STOP_MIN_FEASIBLE_RATE,
             STOP_TOLERANCE_FLOOR, STOP_MAX_DEPTH}
    for node in _walk(root):
        if node.children:
            assert node.stop_reason is None
        else:
            assert node.stop_reason in stops
        for rec in node.records:
            if rec.verdict == "Feasible":
                assert contains_values(node.cell, rec.dims)

    lines = [ln for ln in sink.getvalue().splitlines() if ln]
    pat = re.compile(r"^depth=\d+ cells=\d+ feasible=\d+\.\d entropy=\d\.\d{4}$")
    assert lines and all(pat.match(ln) for ln in lines)


def test_explore_deterministic_across_workers():
    grid = fixture_3bus()
    space = build_space(grid, CONTROL)
    runs = []
    for workers in (1, 3):
        _, records = explore(space, grid, _fast_config(workers=workers),
                             progress_stream=io.StringIO())
        runs.append([(r.cell_path, r.sample_index, r.case_index,
                      r.verdict, r.max_real, tuple(sorted(r.dims.items())))
                     for r in records])
    assert runs[0] == runs[1]


def test_nine_bus_dataset_is_identical_at_any_worker_count(monkeypatch, tmp_path):
    # 9-bus points fall on many PV masks, and the 25 or 50 samples of a depth
    # cut into 2 or 3 chunks give chunks of unequal sizes; each depth has
    # enough labels of both classes for its k-fold accuracy to be one job of
    # the metrics' fold map.
    monkeypatch.delenv("STABGEN_WORKERS", raising=False)
    outs = []
    for workers in (1, 2, 3):
        out_dir = tmp_path / f"w{workers}"
        cfg = tmp_path / f"w{workers}.ini"
        cfg.write_text("fixture=9bus\nn_samples=25\nn_cases=3\nmax_depth=1\n"
                       "entropy_decrease_threshold=-1\nmin_feasible_rate=0.0\n"
                       "use_sensitivity=false\nsplit_dims_per_node=1\n"
                       f"workers={workers}\nseed=3\nout_dir={out_dir}\n",
                       encoding="utf-8")
        assert main(["generate", "--config", str(cfg)]) == 0
        outs.append(out_dir)
    records, _ = read_dataset(outs[0] / "dataset.csv")
    assert len(records) == 225 and {r.depth for r in records} == {0, 1}
    with open(outs[0] / "metrics.csv", newline="") as fh:
        assert all(r["accuracy_mean"] for r in csv.DictReader(fh))
    for name in ("dataset.csv", "metrics.csv", "tree.json"):
        digests = {(out / name).read_bytes() for out in outs}
        assert len(digests) == 1, name


def test_explore_inherits_parent_samples():
    grid = fixture_3bus()
    space = build_space(grid, CONTROL)
    cfg = _fast_config()
    root, _ = explore(space, grid, cfg, progress_stream=io.StringIO())
    if not root.children:
        pytest.skip("root stopped before splitting")
    child_paths = {c.cell.path for c in root.children}
    for child in root.children:
        handed = [r for r in child.records if r.cell_path == "R"]
        fresh = [r for r in child.records if r.cell_path == child.cell.path]
        assert len(fresh) == cfg.n_samples * cfg.n_cases
        for r in handed:
            assert contains_values(child.cell, r.dims)
    assert child_paths <= {f"R.{d}_{s}" for d in ("P_SG", "P_IBR")
                           for s in "LH"} | {
        f"R.P_SG_{a}.P_IBR_{b}" for a in "LH" for b in "LH"}


# -- failures surface ---------------------------------------------------------

FAILING_CELL = "R.P_SG_L"  # a depth-1 child under split_dims_per_node=1
# Enough samples that both depths have labels of both classes to fold.
FAILING_SAMPLES = 50


def _failing_config(**kw):
    return _fast_config(n_samples=FAILING_SAMPLES, split_dims_per_node=1, **kw)


class _InjectedFailure(RuntimeError):
    pass


def _fail_sampling(monkeypatch):
    real = explorer.hierarchical_sample

    def sample(cell, *args, **kwargs):
        if cell.path == FAILING_CELL:
            raise _InjectedFailure(cell.path)
        return real(cell, *args, **kwargs)

    monkeypatch.setattr(explorer, "hierarchical_sample", sample)


def _fail_one_assessment(monkeypatch):
    # explore hands each worker a chunk of points; fail the chunk that holds
    # one point of a depth-1 cell
    real = explorer.assess_many

    def assess_chunk(grid, config, points):
        for op, cell, _depth in points:
            if cell.path == FAILING_CELL and op.sample_index == 3:
                raise _InjectedFailure(cell.path)
        return real(grid, config, points)

    monkeypatch.setattr(explorer, "assess_many", assess_chunk)


def _fail_fold_2(monkeypatch, in_parent):
    # compute_metrics makes each foldable depth's k-fold accuracy one job;
    # fail fold 2 of each job that this process runs, or of each job that a
    # forked child runs
    real = forest.fold_accuracy
    parent = os.getpid()

    def fit(data, fold, i, *args):
        if i == 2 and (os.getpid() == parent) == in_parent:
            raise _InjectedFailure(f"fold {i}")
        return real(data, fold, i, *args)

    monkeypatch.setattr(forest, "fold_accuracy", fit)


def _fail_one_fold(monkeypatch):
    _fail_fold_2(monkeypatch, in_parent=True)


def _fail_one_fold_in_a_child(monkeypatch):
    _fail_fold_2(monkeypatch, in_parent=False)


def _explore_and_fit(config):
    """What generate computes: the exploration, then its metrics, whose
    folds run in ``config.workers`` processes."""
    grid = fixture_3bus()
    space = build_space(grid, CONTROL)
    _, records = explore(space, grid, config, progress_stream=io.StringIO())
    return compute_metrics(records, [d.name for d in space.independent],
                           config.forest_trees, config.forest_depth, config.seed,
                           processes=config.workers)


def _no_child_left():
    # not running, and not a zombie either
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


FAILURES = [_fail_sampling, _fail_one_assessment, _fail_one_fold,
            _fail_one_fold_in_a_child]


@pytest.mark.parametrize("inject", FAILURES)
def test_failure_in_child_cell_propagates(inject, monkeypatch, tmp_path):
    inject(monkeypatch)
    with pytest.raises(_InjectedFailure):
        _explore_and_fit(_failing_config())

    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"fixture=3bus\nn_samples={FAILING_SAMPLES}\nn_cases=1\nmax_depth=1\n"
                   "entropy_decrease_threshold=0.0\nmin_feasible_rate=0.0\n"
                   "use_sensitivity=false\nsplit_dims_per_node=1\nworkers=2\n"
                   f"seed=0\nout_dir={out_dir}\n", encoding="utf-8")
    assert main(["generate", "--config", str(cfg)]) == 1
    assert not (out_dir / "dataset.csv").exists()
    _no_child_left()


@pytest.mark.parametrize("inject", [None, *FAILURES])
def test_explore_reaps_its_workers(inject, monkeypatch):
    if inject is not None:
        inject(monkeypatch)
    raises = pytest.raises(_InjectedFailure) if inject else contextlib.nullcontext()
    with raises:
        _explore_and_fit(_failing_config())
    _no_child_left()


def test_explore_forks_one_pool(monkeypatch):
    # explore forks min(workers, chunks) - 1 workers per depth, and the
    # metrics' fold map min(processes, foldable depths) - 1 more; these are
    # the only processes either forks.  Each depth here has a chunk per
    # worker, and both depths have enough labels to fold.
    real = os.fork
    children = []

    def fork():
        pid = real()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    for workers in (1, 2, 3):
        children.clear()
        metrics = _explore_and_fit(_failing_config(workers=workers))
        assert [m.depth for m in metrics if m.accuracy_mean is not None] == [0, 1]
        assert len(children) == 2 * (workers - 1) + min(workers, 2) - 1
