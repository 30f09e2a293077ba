import math
from dataclasses import replace

import numpy as np
import pytest

from stabgen import feasibility
from stabgen.feasibility import (ConstraintReport, DISCARDED, FEASIBLE,
                                 INFEASIBLE, PF_TOL, PowerFlowSolution,
                                 ZERO_DISPATCH, _newton_step_trials,
                                 _violation_total, adjust_to_feasible,
                                 check_constraints, classify, pf_case, solve_pf)
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
    sol = solve_pf(grid, pf_case(grid, op))
    assert sol.converged
    theta2, q2 = two_bus_closed_form(-p_gen / grid.base_mva, 0.1)
    assert sol.va[1] == pytest.approx(theta2, abs=1e-8)  # bus 2
    assert sol.vm[1] == pytest.approx(1.0, abs=1e-8)
    assert sol.gen_q[0] == pytest.approx(q2 * grid.base_mva, abs=1e-6)  # SG_2


@pytest.mark.parametrize("fixture", [fixture_3bus, fixture_9bus])
def test_nr_matches_gauss_seidel(fixture):
    grid = fixture()
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(10):
        op, group_p = _random_op(grid, rng)
        sol = solve_pf(grid, pf_case(grid, op))  # op's set points are group_p
        vmag, vang, gs_ok = gauss_seidel_pf(grid, op, group_p)
        if not (sol.converged and gs_ok):
            continue
        checked += 1
        for i, b in enumerate(grid.buses):
            assert sol.vm[i] == pytest.approx(vmag[b.id], abs=1e-6)
            assert sol.va[i] == pytest.approx(vang[b.id], abs=1e-6)
    assert checked >= 5


def test_pf_power_balance():
    grid = fixture_9bus()
    rng = np.random.default_rng(3)
    op, group_p = _random_op(grid, rng)
    sol = solve_pf(grid, pf_case(grid, op))  # op's set points are group_p
    assert sol.converged
    assert sol.max_mismatch < 1e-8
    # slack group absorbed the residual: totals balance to within losses
    gen = sum(sol.gen_p.tolist())
    load = sum(op.var_values[f"P_L_{ld.bus}"] for ld in grid.loads)
    losses = gen - load
    assert 0.0 < losses < 0.05 * gen


def test_pf_nonconvergence_reported():
    grid = fixture_3bus()
    op = _op_3bus(300.0, 200.0, 5000.0)  # far beyond transfer capability
    sol = solve_pf(grid, pf_case(grid, op))
    assert not sol.converged


def test_pf_slack_voltage_held():
    grid = fixture_3bus()
    op = _op_3bus(150.0, 100.0, 230.0, v=1.03)
    sol = solve_pf(grid, pf_case(grid, op))
    assert sol.converged
    assert sol.vm[0] == pytest.approx(1.03, abs=1e-12)  # slack bus 1


def test_pv_to_pq_switching_respects_q_limits():
    grid = fixture_3bus()
    # depressed PV set point with heavy load forces the IBR to its Q floor
    op = _op_3bus(150.0, 150.0, 290.0, v=1.0)
    op.voltage_profile[2] = 0.95
    sol = solve_pf(grid, pf_case(grid, op))
    assert sol.converged
    g = grid.gen_groups[1]
    assert g.q_min - 1e-6 <= sol.gen_q[1] <= g.q_max + 1e-6


# -- constraint checks --------------------------------------------------------
# check_constraints reads no loads, so the solutions built here carry no case.

def _flat_solution(grid, v, group_p, group_q):
    n = len(grid.buses)
    return PowerFlowSolution(
        vm=np.full(n, v), va=np.zeros(n),
        gen_p=np.array([group_p[g.name] for g in grid.gen_groups]),
        gen_q=np.array([group_q[g.name] for g in grid.gen_groups]),
        converged=True, iterations=3, max_mismatch=1e-10, case=None)


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
        vm=np.array([1.0, 1.0, 1.0]),
        va=np.array([0.0, 0.0, -0.5]),  # large angle across lines to bus 3
        gen_p=np.array([150.0, 100.0]), gen_q=np.array([0.0, 0.0]),
        converged=True, iterations=3, max_mismatch=1e-10, case=None)
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
    diverged = replace(sol, converged=False, iterations=30, max_mismatch=1.0)
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

    def counting(grid, case, gen_p):
        solved.append(tuple(gen_p.tolist()))
        return real(grid, case, gen_p)

    monkeypatch.setattr(feasibility, "solve_pf", counting)
    repaired = 0
    for op in hierarchical_sample(root, 30, 1, grid, seed=1000):
        solved.clear()
        adjust_to_feasible(grid, op, root)
        assert len(set(solved)) == len(solved), solved
        repaired += len(solved) > 2  # took a line-search step at least
    assert repaired


@pytest.mark.parametrize("fixture", [fixture_3bus, fixture_9bus])
def test_check_constraints_order_and_kinds(fixture):
    base = fixture()
    # low ratings, so that line overloads occur
    grid = replace(base, lines=tuple(replace(ln, s_max=ln.s_max / 4) for ln in base.lines))
    net = grid.network
    # buses, then lines, then each group's checks, all in grid order
    order = ([f"v_{b.id}" for b in grid.buses]
             + [f"line_{ln.from_bus}_{ln.to_bus}" for ln in grid.lines]
             + [f"{kind}_{g.name}" for g in grid.gen_groups
                for kind in ("pmin", "pmax", "qmin", "qmax", "pf")])
    rng = np.random.default_rng(11)
    n, m = len(grid.buses), len(grid.gen_groups)
    seen = set()
    for _ in range(300):
        gen_p = rng.uniform(0.5 * net.gen_p_min, 1.2 * net.gen_p_max)
        gen_p[rng.random(m) < 0.2] = 0.0  # some groups offline
        sol = PowerFlowSolution(
            vm=rng.uniform(0.9, 1.1, n), va=rng.uniform(-0.3, 0.3, n),
            gen_p=gen_p, gen_q=rng.uniform(1.5 * net.gen_q_min, 1.5 * net.gen_q_max),
            converged=True, iterations=4, max_mismatch=1e-10, case=None)
        viols = check_constraints(sol, grid).violations
        ids = [cid for cid, _ in viols]
        assert ids == sorted(set(ids), key=order.index)
        assert all(mag > 0 for _, mag in viols)
        seen.update(cid.split("_")[0] for cid in ids)
    assert seen == {"v", "line", "pmin", "pmax", "qmin", "qmax", "pf"}


def test_infeasible_distance_is_that_of_the_returned_dispatch(monkeypatch):
    # One outer iteration, so a line-search step that it accepts is never solved.
    monkeypatch.setattr(feasibility, "REPAIR_MAX_OUTER", 1)
    real = feasibility.solve_pf
    solves = []

    def counting(*args):
        solves.append(1)
        return real(*args)

    monkeypatch.setattr(feasibility, "solve_pf", counting)
    grid = fixture_9bus()
    space = build_space(grid, CONTROL)
    root = space.root_cell()
    slack = grid.slack_bus.id
    keys = [f"P_{g.tech}_{g.bus}" for g in grid.gen_groups if g.bus != slack]
    searched = 0
    for op in hierarchical_sample(root, 20, 1, grid, seed=7):
        solves.clear()
        adj, _sol, verdict = adjust_to_feasible(grid, op, root)
        if verdict.status != INFEASIBLE:
            continue
        own = sum((adj.var_values[k] - op.var_values[k]) ** 2 for k in keys)
        assert verdict.adjustment_distance == own
        searched += len(solves) > 1  # reached the line search
    assert searched


def test_repair_solves_no_power_flow_per_group(monkeypatch):
    # One outer iteration: the iterate plus at most three line-search trials;
    # the 1 MW difference of each of the 4 adjustable groups solves no power flow.
    monkeypatch.setattr(feasibility, "REPAIR_MAX_OUTER", 1)
    real = feasibility.solve_pf
    solves = []

    def counting(*args):
        solves.append(1)
        return real(*args)

    monkeypatch.setattr(feasibility, "solve_pf", counting)
    grid = fixture_9bus()
    root = build_space(grid, CONTROL).root_cell()
    assert sum(g.bus != grid.slack_bus.id for g in grid.gen_groups) == 4
    searched = 0
    for op in hierarchical_sample(root, 20, 1, grid, seed=7):
        solves.clear()
        adjust_to_feasible(grid, op, root)
        assert len(solves) <= 4
        searched += len(solves) > 1
    assert searched


def _mask_mismatch(grid, case, gen_p, sol):
    """Largest P/Q mismatch of ``sol`` on the equations of its own PV mask."""
    net = grid.network
    n, base = len(net.bus_ids), net.base_mva
    on = gen_p > ZERO_DISPATCH
    bus_on = net.gen_bus[on]
    p_spec = np.bincount(bus_on, gen_p[on] / base, n) - case.p_load
    q_low = np.bincount(bus_on, net.gen_q_min[on] / base, n) - case.q_load
    q_high = np.bincount(bus_on, net.gen_q_max[on] / base, n) - case.q_load
    v = sol.vm * np.exp(1j * sol.va)
    s = v * np.conj(net.ybus @ v)
    not_slack = np.arange(n) != net.slack
    pq = ~sol.pv & not_slack
    # a PQ bus without generation draws its load; a switched one is at a Q limit
    q_mism = np.minimum(np.abs(q_low - s.imag), np.abs(q_high - s.imag))[pq]
    p_mism = np.abs(p_spec - s.real)[not_slack]
    held = np.abs(sol.vm - case.vm)[sol.pv]  # PV buses hold their magnitude
    return max(p_mism.max(), q_mism.max(initial=0.0), held.max(initial=0.0))


@pytest.mark.parametrize("fixture, n_samples, n_cases",
                         [(fixture_3bus, 100, 2), (fixture_9bus, 60, 1)])
def test_secant_total_matches_solved_total(fixture, n_samples, n_cases):
    # The repair's 1 MW differences come from one Newton step on the iterate's
    # PV/PQ split.  Its error is second order in the step: near voltage
    # collapse (slack Q 100+ MVAr over its limit) a 9-bus trial can miss the
    # solved total by up to 0.045, so this sample shows the typical case.
    grid = fixture()
    net = grid.network
    root = build_space(grid, CONTROL).root_cell()
    trials = switched = 0
    for op in hierarchical_sample(root, n_samples, n_cases, grid, seed=5):
        case = pf_case(grid, op)
        adjustable = [i for i, g in enumerate(grid.gen_groups)
                      if g.bus != grid.slack_bus.id and case.gen_p[i] > ZERO_DISPATCH]
        p = case.gen_p.copy()
        p[adjustable] = np.clip(p[adjustable], net.gen_p_min[adjustable],
                                net.gen_p_max[adjustable])
        sol = solve_pf(grid, case, p)
        if not sol.converged:
            continue
        assert _mask_mismatch(grid, case, p, sol) < PF_TOL
        start = np.isin(np.arange(len(net.bus_ids)), net.gen_bus[p > ZERO_DISPATCH])
        start[net.slack] = False
        switched += not np.array_equal(sol.pv, start)
        rep = check_constraints(sol, grid)
        if rep.clean:
            continue
        # forward unless p_max is already reached, as in adjust_to_feasible
        steps = [min(p[i] + 1.0, net.gen_p_max[i]) if p[i] < net.gen_p_max[i]
                 else p[i] - 1.0 for i in adjustable]
        predicted = _newton_step_trials(grid, sol, p, adjustable, steps)
        for i, step, pred in zip(adjustable, steps, predicted):
            trial = p.copy()
            trial[i] = step
            full = solve_pf(grid, case, trial)
            assert full.converged
            total = _violation_total(check_constraints(full, grid), grid.base_mva)
            guess = _violation_total(check_constraints(pred, grid), grid.base_mva)
            assert guess == pytest.approx(total, abs=1e-4)
            trials += 1
    assert trials >= 150
    assert switched  # some solution's mask is not its starting one
