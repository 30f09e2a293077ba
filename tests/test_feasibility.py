import math

import numpy as np
import pytest

from stabgen import feasibility
from stabgen.feasibility import (ConstraintReport, DISCARDED, FEASIBLE,
                                 INFEASIBLE, PowerFlowSolution,
                                 adjust_to_feasible, check_constraints,
                                 classify, solve_pf)
from stabgen.grid import (Bus, GenGroup, GridModel, Line, Load, PQ, PV, SG,
                          SLACK, IBR, fixture_3bus, fixture_9bus)
from stabgen.sampling import hierarchical_sample
from stabgen.space import OperatingPoint, build_space, split

from oracles import gauss_seidel_pf, two_bus_closed_form

CONTROL = [("tau_u", 0.01, 1.0), ("tau_w", 0.01, 1.0)]


def _op_3bus(p_sg, p_ibr, load, v=1.0):
    dims = {"P_SG": p_sg, "P_IBR": p_ibr, "pct_P_GFM": 0.5,
            "V_anchor": v, "tau_u": 0.1, "tau_w": 0.1, "P_D": load}
    varv = {"P_SG_1": p_sg, "P_IBR_2": p_ibr,
            "P_GFM_2": 0.5 * p_ibr, "P_GFL_2": 0.5 * p_ibr, "P_L_3": load}
    return OperatingPoint(dims, varv, {1: v, 2: v, 3: v})


def _random_op(grid, rng, loading=0.85):
    group_p = {}
    for g in grid.gen_groups:
        group_p[g.name] = float(rng.uniform(g.p_min, g.p_max))
    total = sum(group_p.values())
    varv = {f"P_{g.tech}_{g.bus}": group_p[g.name] for g in grid.gen_groups}
    for ld in grid.loads:
        varv[f"P_L_{ld.bus}"] = ld.participation * loading * total
    profile = {b.id: float(rng.uniform(0.99, 1.02)) for b in grid.buses}
    op = OperatingPoint({}, varv, profile)
    return op, group_p


# -- power flow ---------------------------------------------------------------

def test_two_bus_closed_form():
    grid = GridModel(
        buses=(Bus(1, SLACK, 0.9, 1.1), Bus(2, PV, 0.9, 1.1)),
        lines=(Line(1, 2, 0.0, 0.1, 0.0, 500.0),),
        gen_groups=(GenGroup(2, SG, 100.0, 0.95),),
        loads=(),
    )
    p_gen = 50.0
    op = OperatingPoint({}, {"P_SG_2": p_gen}, {1: 1.0, 2: 1.0})
    sol = solve_pf(grid, op)
    assert sol.converged
    theta2, q2 = two_bus_closed_form(-p_gen / grid.base_mva, 0.1)
    assert sol.theta[2] == pytest.approx(theta2, abs=1e-8)
    assert sol.v[2] == pytest.approx(1.0, abs=1e-8)
    assert sol.group_q["SG_2"] == pytest.approx(q2 * grid.base_mva, abs=1e-6)


@pytest.mark.parametrize("fixture", [fixture_3bus, fixture_9bus])
def test_nr_matches_gauss_seidel(fixture):
    grid = fixture()
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(10):
        op, group_p = _random_op(grid, rng)
        sol = solve_pf(grid, op, group_p)
        vmag, vang, gs_ok = gauss_seidel_pf(grid, op, group_p)
        if not (sol.converged and gs_ok):
            continue
        checked += 1
        for b in grid.buses:
            assert sol.v[b.id] == pytest.approx(vmag[b.id], abs=1e-6)
            assert sol.theta[b.id] == pytest.approx(vang[b.id], abs=1e-6)
    assert checked >= 5


def test_pf_power_balance():
    grid = fixture_9bus()
    rng = np.random.default_rng(3)
    op, group_p = _random_op(grid, rng)
    sol = solve_pf(grid, op, group_p)
    assert sol.converged
    assert sol.max_mismatch < 1e-8
    # slack group absorbed the residual: totals balance to within losses
    gen = sum(sol.group_p.values())
    load = sum(op.var_values[f"P_L_{ld.bus}"] for ld in grid.loads)
    losses = gen - load
    assert 0.0 < losses < 0.05 * gen


def test_pf_nonconvergence_reported():
    grid = fixture_3bus()
    op = _op_3bus(300.0, 200.0, 5000.0)  # far beyond transfer capability
    sol = solve_pf(grid, op)
    assert not sol.converged


def test_pf_slack_voltage_held():
    grid = fixture_3bus()
    op = _op_3bus(150.0, 100.0, 230.0, v=1.03)
    sol = solve_pf(grid, op)
    assert sol.converged
    assert sol.v[1] == pytest.approx(1.03, abs=1e-12)


def test_pv_to_pq_switching_respects_q_limits():
    grid = fixture_3bus()
    # depressed PV set point with heavy load forces the IBR to its Q floor
    op = _op_3bus(150.0, 150.0, 290.0, v=1.0)
    op.voltage_profile[2] = 0.95
    sol = solve_pf(grid, op)
    assert sol.converged
    g = grid.gen_groups[1]
    assert g.q_min - 1e-6 <= sol.group_q[g.name] <= g.q_max + 1e-6


# -- constraint checks --------------------------------------------------------

def _flat_solution(grid, v, group_p, group_q):
    return PowerFlowSolution(
        v={b.id: v for b in grid.buses},
        theta={b.id: 0.0 for b in grid.buses},
        group_p=group_p, group_q=group_q,
        converged=True, iterations=3, max_mismatch=1e-10)


def test_voltage_violation_magnitude():
    grid = GridModel(
        buses=(Bus(1, SLACK, 0.9, 1.1), Bus(2, PQ, 0.9, 1.1)),
        lines=(Line(1, 2, 0.01, 0.1, 0.0, 300.0),),
        gen_groups=(GenGroup(1, SG, 100.0, 0.95),),
        loads=(Load(2, 1.0),),
    )
    sol = _flat_solution(grid, 1.12, {"SG_1": 50.0}, {"SG_1": 0.0})
    rep = check_constraints(sol, grid)
    v_viols = {cid: mag for cid, mag in rep.violations if cid.startswith("v_")}
    assert v_viols["v_1"] == pytest.approx(0.02)
    assert v_viols["v_2"] == pytest.approx(0.02)


def test_power_factor_violation_magnitude():
    grid = fixture_3bus()
    sol = _flat_solution(grid, 1.0, {"SG_1": 10.0, "IBR_2": 0.0},
                         {"SG_1": 20.0, "IBR_2": 0.0})
    rep = check_constraints(sol, grid)
    pf = 10.0 / math.hypot(10.0, 20.0)
    assert pf == pytest.approx(0.4472135955, abs=1e-9)
    viols = dict(rep.violations)
    assert viols["pf_SG_1"] == pytest.approx(0.95 - pf, abs=1e-9)


def test_offline_group_skipped():
    grid = fixture_3bus()
    # IBR offline: neither its pmin nor its pf should be flagged
    sol = _flat_solution(grid, 1.0, {"SG_1": 150.0, "IBR_2": 0.0},
                         {"SG_1": 10.0, "IBR_2": 50.0})
    rep = check_constraints(sol, grid)
    assert not any("IBR_2" in cid for cid, _ in rep.violations)


def test_line_overload_magnitude():
    grid = fixture_3bus()
    sol = PowerFlowSolution(
        v={1: 1.0, 2: 1.0, 3: 1.0},
        theta={1: 0.0, 2: 0.0, 3: -0.5},  # large angle across lines to bus 3
        group_p={"SG_1": 150.0, "IBR_2": 100.0},
        group_q={"SG_1": 0.0, "IBR_2": 0.0},
        converged=True, iterations=3, max_mismatch=1e-10)
    rep = check_constraints(sol, grid)
    overloads = [cid for cid, _ in rep.violations if cid.startswith("line_")]
    assert "line_1_3" in overloads and "line_2_3" in overloads
    for cid, mag in rep.violations:
        assert mag > 0


def test_report_serialize():
    rep = ConstraintReport([("v_1", 0.02), ("pf_SG_1", 0.5027864)])
    assert rep.serialize() == "v_1:0.02;pf_SG_1:0.502786"
    assert not rep.clean
    assert rep.total() == pytest.approx(0.5227864)
    assert ConstraintReport([]).clean


# -- classification and redispatch --------------------------------------------

def test_classify_statuses():
    grid = fixture_3bus()
    space = build_space(grid, CONTROL)
    root = space.root_cell()
    op = _op_3bus(150.0, 100.0, 242.5)
    sol = _flat_solution(grid, 1.0, {"SG_1": 150.0, "IBR_2": 100.0},
                         {"SG_1": 0.0, "IBR_2": 0.0})
    assert classify(op, sol, ConstraintReport([]), root, 0.0).status == FEASIBLE
    bad = ConstraintReport([("v_3", 0.01)])
    assert classify(op, sol, bad, root, 0.0).status == INFEASIBLE
    diverged = PowerFlowSolution(sol.v, sol.theta, sol.group_p, sol.group_q,
                                 False, 30, 1.0)
    assert classify(op, diverged, ConstraintReport([]), root, 0.0).status == INFEASIBLE
    outside = _op_3bus(150.0, 500.0, 242.5)  # IBR total beyond the root range
    assert classify(outside, sol, ConstraintReport([]), root, 0.0).status == DISCARDED


def test_adjust_clips_above_pmax():
    grid = fixture_3bus()
    space = build_space(grid, CONTROL)
    root = space.root_cell()
    ibr = grid.gen_groups[1]
    op = _op_3bus(100.0, ibr.p_max + 5.0, 280.0)
    adj, sol, verdict = adjust_to_feasible(grid, op, root, load_pf=1.0)
    assert verdict.status == FEASIBLE
    assert verdict.adjustment_distance == pytest.approx(25.0)
    assert adj.dim_values["P_IBR"] == pytest.approx(ibr.p_max)
    assert adj.var_values["P_IBR_2"] == pytest.approx(ibr.p_max)
    # GFM share preserved through the redispatch
    assert adj.var_values["P_GFM_2"] == pytest.approx(0.5 * ibr.p_max)


def test_adjust_clips_below_pmin():
    grid = fixture_3bus()
    space = build_space(grid, CONTROL)
    root = space.root_cell()
    ibr = grid.gen_groups[1]
    op = _op_3bus(150.0, ibr.p_min - 5.0, 180.0)
    adj, sol, verdict = adjust_to_feasible(grid, op, root, load_pf=1.0)
    assert verdict.status == FEASIBLE
    assert verdict.adjustment_distance == pytest.approx(25.0)
    assert adj.dim_values["P_IBR"] == pytest.approx(ibr.p_min)


def test_adjust_discards_when_repair_leaves_cell():
    grid = fixture_3bus()
    space = build_space(grid, CONTROL)
    _, high = split(space.root_cell(), "P_IBR", 0.01)
    ibr = grid.gen_groups[1]
    op = _op_3bus(150.0, ibr.p_min - 5.0, 180.0)
    adj, sol, verdict = adjust_to_feasible(grid, op, high, load_pf=1.0)
    assert verdict.status == DISCARDED
    assert adj.dim_values["P_IBR"] < high.bounds["P_IBR"][0]


def test_adjust_reports_infeasible_overload():
    grid = fixture_3bus()
    space = build_space(grid, CONTROL)
    root = space.root_cell()
    op = _op_3bus(300.0, 200.0, 1500.0)
    adj, sol, verdict = adjust_to_feasible(grid, op, root)
    assert verdict.status == INFEASIBLE
    assert verdict.violations


def test_adjust_noop_when_already_feasible():
    grid = fixture_3bus()
    space = build_space(grid, CONTROL)
    root = space.root_cell()
    op = _op_3bus(150.0, 120.0, 230.0, v=1.02)
    adj, sol, verdict = adjust_to_feasible(grid, op, root)
    assert verdict.status == FEASIBLE
    assert verdict.adjustment_distance == pytest.approx(0.0)
    assert adj.var_values["P_IBR_2"] == pytest.approx(120.0)


def test_adjust_solves_each_dispatch_once(monkeypatch):
    grid = fixture_3bus()
    space = build_space(grid, CONTROL)
    root = space.root_cell()
    real = feasibility.solve_pf
    solved = []

    def counting(grid, op, group_p, load_pf):
        solved.append(tuple(group_p[g.name] for g in grid.gen_groups))
        return real(grid, op, group_p, load_pf)

    monkeypatch.setattr(feasibility, "solve_pf", counting)
    repaired = 0
    for op in hierarchical_sample(root, 30, 1, grid, space, seed=1000):
        solved.clear()
        adjust_to_feasible(grid, op, root)
        assert len(set(solved)) == len(solved), solved
        repaired += len(solved) > 2  # took a line-search step at least
    assert repaired
