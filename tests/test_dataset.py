import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from stabgen import dataset
from stabgen.cli import main
from stabgen.dataset import (FIXED_COLUMNS, TAIL_COLUMNS, LabeledRecord,
                             compute_metrics, dataset_columns,
                             importances_by_depth, node_to_dict, read_dataset,
                             write_dataset, write_metrics, write_tree)
from stabgen.explorer import ExplorationConfig, explore
from stabgen.grid import fixture_3bus
from stabgen.space import build_space

CONTROL = [("tau_u", 0.01, 1.0), ("tau_w", 0.01, 1.0)]


@pytest.fixture(scope="module")
def small_run():
    grid = fixture_3bus()
    space = build_space(grid, CONTROL)
    cfg = ExplorationConfig(n_samples=24, n_cases=1, max_depth=1,
                            entropy_decrease_threshold=0.0,
                            min_feasible_rate=0.0, use_sensitivity=False,
                            workers=2, seed=0, forest_trees=10, forest_depth=4)
    root, records = explore(space, grid, cfg, progress_stream=io.StringIO())
    return grid, space, root, records


def test_dataset_roundtrip(small_run, tmp_path):
    _, space, _, records = small_run
    path = tmp_path / "dataset.csv"
    write_dataset(path, records, space)
    rows, cols = read_dataset(path)
    assert cols == dataset_columns(space)
    assert cols[:4] == FIXED_COLUMNS
    assert cols[-len(TAIL_COLUMNS):] == TAIL_COLUMNS
    assert rows == records  # whole records; the repr round-trip is exact


def test_dataset_bytes_stable_across_rewrites(small_run, tmp_path):
    _, space, _, records = small_run
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(a, records, space)
    write_dataset(b, records, space)
    assert a.read_bytes() == b.read_bytes()


def _cell(column, value):
    """An edit of a dataset's rows that sets ``column`` of file line 3."""
    def edit(rows):
        rows[2][rows[0].index(column)] = value
        return rows
    return edit


# Edits of a good dataset's rows, each with what read_dataset's error says.
BAD_DATASETS = [
    (lambda rows: [["cell_path", "depth"], ["R", "0"]], "missing column"),
    (lambda rows: rows[:2] + [rows[2][:-1]] + rows[3:], "line 3: 23 cells"),
    (lambda rows: rows[:1], "dataset.csv: no rows"),
    (_cell("P_SG", "nan"), "line 3: P_SG is not a finite number"),
    (_cell("P_L_3", "-inf"), "line 3: P_L_3 is not a finite number"),
    (_cell("adjustment_distance", "inf"), "line 3: adjustment_distance is not"),
    (_cell("adjustment_distance", "abc"), "line 3: could not convert"),
    (_cell("depth", "1.5"), "line 3: invalid literal"),
    (_cell("sample_index", ""), "line 3: invalid literal"),
    (_cell("case_index", "x"), "line 3: invalid literal"),
    (_cell("pf_iterations", "2.0"), "line 3: invalid literal"),
    (_cell("verdict", "Stable"), "line 3: unknown verdict 'Stable'"),
    (_cell("stable", "2"), "line 3: stable must be empty, 0 or 1"),
]


def test_read_rejects_schema_mismatch(small_run, tmp_path):
    # Nothing write_dataset could not have written is read; report exits 2
    # even with good forest settings beside the file.
    _, space, _, records = small_run
    bad = tmp_path / "dataset.csv"
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"config": {"forest_trees": 5, "forest_depth": 2, "seed": 0}}), encoding="utf-8")
    write_dataset(bad, records, space)
    assert main(["report", "--dataset", str(bad), "--out", str(tmp_path / "r")]) == 0
    for edit, message in BAD_DATASETS:
        write_dataset(bad, records, space)
        with open(bad, newline="", encoding="utf-8") as fh:
            rows = edit(list(csv.reader(fh)))
        with open(bad, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(ValueError, match=message):
            read_dataset(bad)
        assert main(["report", "--dataset", str(bad), "--out", str(tmp_path / "r")]) == 2


def test_read_accepts_what_eig_stability_writes(small_run, tmp_path):
    # A state matrix without eigenvalues gives max_real -inf, a finite label.
    _, space, _, records = small_run
    path = tmp_path / "dataset.csv"
    records = [dataclasses.replace(records[0], max_real=-math.inf)] + records[1:]
    write_dataset(path, records, space)
    assert read_dataset(path)[0] == records


def test_compute_metrics_per_depth(small_run):
    _, space, root, records = small_run
    dim_names = [d.name for d in space.independent]
    metrics = compute_metrics(records, dim_names, forest_trees=10,
                              forest_depth=4,
                              importances_by_depth=importances_by_depth(root))
    depths = [m.depth for m in metrics]
    assert depths == sorted(set(r.depth for r in records))
    for m in metrics:
        for rate in (m.feasible_mean, m.infeasible_mean, m.discarded_mean):
            assert 0.0 <= rate <= 1.0
        assert m.feasible_mean + m.infeasible_mean + m.discarded_mean \
            == pytest.approx(1.0)
        assert 0.0 <= m.entropy_mean <= np.log(2) + 1e-12
        assert m.n_cells >= 1 and m.n_records >= m.n_cells


def test_metrics_accuracy_gating():
    # too few labeled samples for 5-fold stratification -> no accuracy
    rows = [LabeledRecord("R", 0, i, 0, {"x": float(i)}, {}, "Feasible",
                          i % 2 == 0, -1.0, 0.0, 1.0, 0.0, "", 3)
            for i in range(6)]
    metrics = compute_metrics(rows, ["x"])
    assert metrics[0].accuracy_mean is None


def test_forest_fault_propagates(monkeypatch):
    # Past the gate (two classes, at least kfold rows each) a forest error
    # is a bug; it must not turn into an empty accuracy cell.
    rows = [LabeledRecord("R", 0, i, 0, {"x": float(i)}, {}, "Feasible",
                          i % 2 == 0, -1.0, 0.0, 1.0, 0.0, "", 3)
            for i in range(20)]

    def broken(*args, **kwargs):
        raise ValueError("forest fault")

    monkeypatch.setattr(dataset, "kfold_accuracy", broken)
    with pytest.raises(ValueError, match="forest fault"):
        compute_metrics(rows, ["x"])


def test_write_metrics_csv(small_run, tmp_path):
    _, space, root, records = small_run
    dim_names = [d.name for d in space.independent]
    metrics = compute_metrics(records, dim_names, forest_trees=10, forest_depth=4)
    path = tmp_path / "metrics.csv"
    write_metrics(path, metrics, dim_names)
    header = path.read_text(encoding="utf-8").splitlines()[0].split(",")
    assert header[0] == "depth"
    for n in dim_names:
        assert f"imp_{n}" in header


def test_metric_counts_are_written_as_integers(tmp_path):
    # A count stays an integer cell even when numpy computed it.
    row = dataset.MetricsRow(np.int64(3), np.int64(2), 7, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0,
                             0.25, None, None, {"x": np.float64(1.0)})
    path = tmp_path / "metrics.csv"
    write_metrics(path, [row], ["x", "y"])
    assert path.read_text(encoding="utf-8").splitlines()[1] == \
        "3,2,7,0.5,0.0,0.5,0.0,0.0,0.0,0.25,,,1.0,"


def test_tree_json(small_run, tmp_path):
    _, _, root, _ = small_run
    path = tmp_path / "tree.json"
    write_tree(path, root)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["path"] == "R"
    assert data["depth"] == 0

    def walk(d):
        yield d
        for c in d["children"]:
            yield from walk(c)

    for node in walk(data):
        assert set(node) >= {"path", "bounds", "entropy", "stop_reason",
                             "n_feasible", "children"}
        if node["children"]:
            assert node["stop_reason"] is None
        else:
            assert node["stop_reason"] is not None


def test_fixed_mode_children_one_level_down(small_run, tmp_path):
    # Fixed mode bisects two dimensions per node; the pieces are still the
    # next tree level, so tree.json and metrics.csv hold depth-1 cells.
    _, space, root, records = small_run
    assert root.children
    write_tree(tmp_path / "tree.json", root)
    tree = json.loads((tmp_path / "tree.json").read_text(encoding="utf-8"))
    assert [c["depth"] for c in tree["children"]] == [1] * len(root.children)
    dim_names = [d.name for d in space.independent]
    metrics = compute_metrics(records, dim_names, forest_trees=10, forest_depth=4)
    write_metrics(tmp_path / "metrics.csv", metrics, dim_names)
    lines = (tmp_path / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1"]


def test_importances_by_depth(small_run):
    _, _, root, _ = small_run
    by_depth = importances_by_depth(root)
    for depth, imps in by_depth.items():
        assert all(v >= 0 for v in imps.values())
