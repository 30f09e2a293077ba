"""End-to-end acceptance suite.

The heavyweight exploration runs (3-bus benchmark at three worker counts
plus the fixed-dimension baseline) are shared module-scoped fixtures; the
remaining checks are self-contained.
"""

import hashlib
import io
import math
import time

import numpy as np
import pytest

from stabgen.dataset import compute_metrics, write_dataset
from stabgen.explorer import (ExplorationConfig, entropy, explore,
                              STOP_ENTROPY_DECREASE, STOP_MAX_DEPTH,
                              STOP_MIN_FEASIBLE_RATE, STOP_TOLERANCE_FLOOR,
                              STOP_ZERO_ENTROPY)
from stabgen.feasibility import pf_case, solve_pf
from stabgen.forest import (LabeledDataset, feature_importance, kfold_accuracy,
                            train_forest)
from stabgen.grid import (Bus, GenGroup, GridModel, Line, Load, PV, SG, SLACK,
                          fixture_3bus, fixture_9bus)
from stabgen.sampling import disaggregate, lhs, rng_stream
from stabgen.smallsignal import (DynUnit, GfolParams,
                                 GforParams, KIND_SG, OMEGA_BASE, SgParams,
                                 admittance_scan, aggregate_ibrs, linearize,
                                 terminal_model)
from stabgen.space import OperatingPoint, build_space

from oracles import (disaggregate_gaussian, gauss_seidel_pf, smib_analytic_eigs,
                     two_bus_closed_form)

CONTROL = [("tau_u", 0.01, 1.0), ("tau_w", 0.01, 1.0)]

STOP_REASONS = {STOP_ZERO_ENTROPY, STOP_ENTROPY_DECREASE,
                STOP_MIN_FEASIBLE_RATE, STOP_TOLERANCE_FLOOR, STOP_MAX_DEPTH}


def _benchmark_config(use_sensitivity, workers):
    return ExplorationConfig(n_samples=100, n_cases=2, max_depth=4,
                             entropy_decrease_threshold=0.0,
                             use_sensitivity=use_sensitivity,
                             workers=workers, seed=0)


@pytest.fixture(scope="module")
def bench_space():
    return build_space(fixture_3bus(), CONTROL)


@pytest.fixture(scope="module")
def sens_runs(bench_space):
    """Sensitivity-guided benchmark at three worker counts."""
    grid = fixture_3bus()
    out = {}
    for workers in (1, 2, 8):
        t0 = time.perf_counter()
        root, records = explore(bench_space, grid,
                                _benchmark_config(True, workers),
                                progress_stream=io.StringIO())
        out[workers] = (root, records, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def fixed_run(bench_space):
    """Fixed [P_SG, P_IBR] splitting baseline."""
    grid = fixture_3bus()
    t0 = time.perf_counter()
    root, records = explore(bench_space, grid, _benchmark_config(False, 8),
                            progress_stream=io.StringIO())
    return root, records, time.perf_counter() - t0


# 1. entropy ------------------------------------------------------------------

def test_criterion_1_entropy():
    assert abs(entropy([0, 1] * 50) - 0.6931) <= 1e-6 + 5e-5
    assert entropy([1, 0]) == pytest.approx(math.log(2), abs=1e-6)
    assert entropy([1] * 17) == 0.0
    assert entropy([0] * 17) == 0.0


# 2. LHS stratification -------------------------------------------------------

def test_criterion_2_lhs_stratification(bench_space):
    t0 = time.perf_counter()
    cell = bench_space.root_cell()
    assert len(cell.bounds) == 6
    for n in (1, 4, 333):
        draws = lhs(n, cell, rng_stream(0, cell.path, 0))
        for name, (lo, hi) in cell.bounds.items():
            strata = sorted(min(int((d[name] - lo) / (hi - lo) * n), n - 1)
                            for d in draws)
            assert strata == list(range(n))
    assert time.perf_counter() - t0 < 1.0


# 3. disaggregation -----------------------------------------------------------

def test_criterion_3_disaggregation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        lo = rng.uniform(0, 50, k)
        hi = lo + rng.uniform(1, 150, k)
        target = float(rng.uniform(lo.sum(), hi.sum()))
        x = disaggregate(target, lo, hi, rng)
        assert abs(float(x.sum()) - target) <= 1e-9 * max(1.0, abs(target))
        assert np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12)
    lo3 = np.zeros(3)
    hi3 = np.full(3, 100.0)
    target3 = 150.0
    v_max, v_gauss = [], []
    for i in range(10_000):
        r = rng_stream(1, "R", i)
        v_max.append(float(np.var(disaggregate(target3, lo3, hi3, r))))
        v_gauss.append(float(np.var(disaggregate_gaussian(target3, lo3, hi3, r))))
    assert np.mean(v_max) > np.mean(v_gauss)
    assert time.perf_counter() - t0 < 10.0


# 4. power flow vs oracle -----------------------------------------------------

def _random_dispatch(grid, rng):
    group_p = {g.name: float(rng.uniform(g.p_min, g.p_max))
               for g in grid.gen_groups}
    varv = {f"P_{g.tech}_{g.bus}": group_p[g.name] for g in grid.gen_groups}
    total = sum(group_p.values())
    for ld in grid.loads:
        varv[f"P_L_{ld.bus}"] = ld.participation * 0.85 * total
    profile = {b.id: float(rng.uniform(0.99, 1.02)) for b in grid.buses}
    return OperatingPoint({}, varv, profile), group_p


def test_criterion_4_power_flow_oracle():
    t0 = time.perf_counter()
    for fixture in (fixture_3bus, fixture_9bus):
        grid = fixture()
        rng = np.random.default_rng(4)
        done = 0
        attempts = 0
        while done < 100:
            attempts += 1
            assert attempts < 500
            op, group_p = _random_dispatch(grid, rng)
            sol = solve_pf(grid, pf_case(grid, op))  # op's set points are group_p
            vmag, vang, gs_ok = gauss_seidel_pf(grid, op, group_p, tol=1e-9)
            if not (sol.converged and gs_ok):
                continue
            for i, b in enumerate(grid.buses):
                assert abs(sol.vm[i] - vmag[b.id]) < 1e-6
                assert abs(sol.va[i] - vang[b.id]) < 1e-6
            done += 1

    two_bus = GridModel(
        buses=(Bus(1, SLACK, 0.9, 1.1), Bus(2, PV, 0.9, 1.1)),
        lines=(Line(1, 2, 0.0, 0.1, 0.0, 500.0),),
        gen_groups=(GenGroup(2, SG, 100.0, 0.95),),
        loads=(),
    )
    op = OperatingPoint({}, {"P_SG_2": 50.0}, {1: 1.0, 2: 1.0})
    sol = solve_pf(two_bus, pf_case(two_bus, op))
    assert sol.converged
    theta2, _q2 = two_bus_closed_form(-0.5, 0.1)
    assert abs(sol.va[1] - theta2) < 1e-8  # bus 2
    assert abs(sol.vm[1] - 1.0) < 1e-8
    assert time.perf_counter() - t0 < 30.0


# 5. small-signal vs oracle ---------------------------------------------------

def test_criterion_5_small_signal_oracle():
    t0 = time.perf_counter()
    h, d, x = 4.0, 1.5, 0.1
    grid = GridModel(
        buses=(Bus(1, SLACK, 0.9, 1.1), Bus(2, PV, 0.9, 1.1)),
        lines=(Line(1, 2, 0.0, x, 0.0, 500.0),),
        gen_groups=(GenGroup(1, SG, 300.0, 0.95), GenGroup(2, SG, 100.0, 0.95)),
        loads=(Load(1, 1.0),),
    )
    op = OperatingPoint({}, {"P_SG_1": 150.0, "P_SG_2": 60.0, "P_L_1": 200.0},
                        {1: 1.0, 2: 1.0})
    sol = solve_pf(grid, pf_case(grid, op, load_pf=1.0))
    assert sol.converged
    g2 = grid.gen_groups[1]
    units = [DynUnit(KIND_SG, 2, SgParams(h, d, droop_r=None), g2.s_rated, 60.0)]
    ssm = linearize(grid, sol, units)
    eig = np.sort_complex(np.linalg.eigvals(ssm.a_matrix))
    k_s = (sol.vm[0] * sol.vm[1] * math.cos(sol.va[1] - sol.va[0]) / x  # buses 1, 2
           * grid.base_mva / g2.s_rated)
    ana = np.sort_complex(smib_analytic_eigs(h, d, k_s, OMEGA_BASE))
    assert np.max(np.abs(eig - ana)) < 1e-8

    # central finite-difference Jacobian of the nonlinear swing dynamics
    v1, v2 = sol.vm[0], sol.vm[1]
    delta0 = sol.va[1] - sol.va[0]
    scale = grid.base_mva / g2.s_rated
    p_m = v1 * v2 * math.sin(delta0) / x * scale

    def rhs(state):
        delta, domega = state
        p_e = v1 * v2 * math.sin(delta) / x * scale
        return np.array([OMEGA_BASE * domega, (p_m - p_e - d * domega) / (2 * h)])

    fd = np.zeros((2, 2))
    step = 1e-6
    for k in range(2):
        dv = np.zeros(2)
        dv[k] = step
        fd[:, k] = (rhs(np.array([delta0, 0.0]) + dv)
                    - rhs(np.array([delta0, 0.0]) - dv)) / (2 * step)
    assert np.max(np.abs(fd - ssm.a_matrix)) < 1e-6

    # conjugate-pair symmetry on a larger mixed system
    grid3 = fixture_3bus()
    varv = {"P_SG_1": 100.0, "P_IBR_2": 150.0, "P_GFM_2": 75.0,
            "P_GFL_2": 75.0, "P_L_3": 242.5}
    op3 = OperatingPoint({}, varv, {1: 1.0, 2: 1.0, 3: 1.0})
    sol3 = solve_pf(grid3, pf_case(grid3, op3))
    assert sol3.converged
    from stabgen.smallsignal import build_units
    ssm3 = linearize(grid3, sol3, build_units(grid3, op3))
    eig3 = np.linalg.eigvals(ssm3.a_matrix)
    pool = [lam for lam in eig3 if abs(lam.imag) > 1e-10]
    while pool:
        lam = pool.pop()
        partner = min(pool, key=lambda m: abs(m - np.conj(lam)))
        assert abs(partner - np.conj(lam)) < 1e-10
        pool.remove(partner)
    assert time.perf_counter() - t0 < 5.0


# 6. aggregation scan ---------------------------------------------------------

def test_criterion_6_aggregation_scan():
    t0 = time.perf_counter()
    freqs = np.logspace(0.0, 3.0, 151)  # 1 Hz .. 1000 Hz
    for mode, params in (("GFOR", GforParams()), ("GFOL", GfolParams())):
        for n in (2, 3, 5):
            unit = DynUnit(mode, 2, params, 80.0, 50.0)
            agg = aggregate_ibrs([unit] * n)
            y_agg = admittance_scan(terminal_model(agg), freqs)
            y_one = admittance_scan(terminal_model(unit), freqs)
            mask = np.isfinite(y_agg) & np.isfinite(y_one)
            assert mask.sum() >= len(freqs) - 2
            assert np.max(np.abs(y_agg[mask] - n * y_one[mask])) < 1e-8
    y_for = admittance_scan(terminal_model(DynUnit("GFOR", 2, GforParams(),
                                                   100.0, 60.0)), freqs)
    y_fol = admittance_scan(terminal_model(DynUnit("GFOL", 2, GfolParams(),
                                                   100.0, 60.0)), freqs)
    mask = np.isfinite(y_for) & np.isfinite(y_fol)
    assert np.max(np.abs(y_for[mask] - y_fol[mask])) > 1e-3
    assert time.perf_counter() - t0 < 10.0


# 7. forest sanity ------------------------------------------------------------

def test_criterion_7_forest_sanity():
    t0 = time.perf_counter()
    importances = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.random((300, 4))
        y = (x[:, 0] > 0.5).astype(int)
        data = LabeledDataset(x, y, [f"x{i}" for i in range(4)])
        model = train_forest(data, n_trees=50, seed=seed)
        importances.append(feature_importance(model)[0])
    assert min(importances) >= 0.8

    rng = np.random.default_rng(100)
    x = rng.random((300, 4))
    y = (x[:, 0] > 0.5).astype(int)
    data = LabeledDataset(x, y, [f"x{i}" for i in range(4)])
    mean, _ = kfold_accuracy(data, k=5, n_trees=50)
    assert mean > 0.95
    shuffled = LabeledDataset(x, rng.permutation(y), data.feature_names)
    mean_s, _ = kfold_accuracy(shuffled, k=5, n_trees=50)
    assert abs(mean_s - 0.5) <= 0.1
    assert time.perf_counter() - t0 < 30.0


# 8. comparative benchmark ----------------------------------------------------

def _feasible_share(records):
    return sum(1 for r in records if r.verdict == "Feasible") / len(records)


def _stable_share(records):
    labels = [r.stable for r in records
              if r.verdict == "Feasible" and r.stable is not None]
    return sum(labels) / len(labels)


def test_criterion_8_comparative_benchmark(bench_space, sens_runs, fixed_run):
    _, sens_records, sens_elapsed = sens_runs[8]
    _, fixed_records, fixed_elapsed = fixed_run
    assert sens_elapsed < 600 and fixed_elapsed < 600

    assert _feasible_share(sens_records) > _feasible_share(fixed_records)
    assert 0.40 <= _stable_share(sens_records) <= 0.75
    assert 0.40 <= _stable_share(fixed_records) <= 0.75

    # accuracy vs depth: non-decreasing within one pooled standard deviation
    dim_names = [d.name for d in bench_space.independent]
    for records in (sens_records, fixed_records):
        metrics = compute_metrics(records, dim_names, forest_trees=50)
        series = [(m.accuracy_mean, m.accuracy_std) for m in metrics
                  if m.accuracy_mean is not None]
        assert len(series) >= 2
        for (a0, s0), (a1, s1) in zip(series, series[1:]):
            pooled = math.sqrt(s0 ** 2 + s1 ** 2)
            assert a1 >= a0 - pooled


# 9. determinism --------------------------------------------------------------

def test_criterion_9_worker_determinism(bench_space, sens_runs, tmp_path):
    digests = set()
    for workers, (_root, records, _t) in sens_runs.items():
        path = tmp_path / f"dataset_w{workers}.csv"
        write_dataset(path, records, bench_space)
        digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
    assert len(digests) == 1


# 10. stop-reason soundness ---------------------------------------------------

def _walk(node):
    yield node
    for c in node.children:
        yield from _walk(c)


def test_criterion_10_stop_reasons(sens_runs, fixed_run):
    roots = [sens_runs[8][0], fixed_run[0]]
    for root in roots:
        for node in _walk(root):
            if node.children:
                assert node.stop_reason is None
            else:
                assert node.stop_reason in STOP_REASONS
            if node.stop_reason is not None:
                assert not node.children
