import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabgen import feasibility
from stabgen.feasibility import (ConstraintReport, DISCARDED, FEASIBLE,
                                 INFEASIBLE, PF_MAX_ITER, PF_TOL, PowerFlowSolution,
                                 _apply_dispatch, _trial_totals, adjust_many,
                                 adjust_to_feasible, check_constraints,
                                 check_constraints_many, classify, pf_case, solve_many,
                                 solve_pf)
from stabgen.grid import (Bus, GenGroup, GridModel, Line, Load, PQ, PV, SG,
                          SLACK, IBR, fixture_3bus, fixture_9bus)
from stabgen.sampling import hierarchical_sample
from stabgen.space import OperatingPoint, build_space, contains_values, split

import oracles
from oracles import (check_constraints_loop, dispatch_scan, gauss_seidel_pf,
                     newton_pf_one, newton_step_trials, repair_one,
                     two_bus_closed_form, violation_total)

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


@pytest.mark.parametrize("p_sg, p_ibr, load, kind", [
    (150.0, 100.0, 240.0, "plain"),
    (250.0, 150.0, 390.0, "switched"),   # the IBR bus ends at its Q limit
    (300.0, 200.0, 2000.0, "diverged"),  # stops with |V| <= 0.05 after a step
])
def test_solution_reports_convergence_and_its_pv_mask(p_sg, p_ibr, load, kind):
    grid = fixture_3bus()
    sol = solve_pf(grid, pf_case(grid, _op_3bus(p_sg, p_ibr, load)))
    assert sol.converged == (kind != "diverged")
    assert np.array_equal(sol.pv, grid.network.is_pv) == (kind != "switched")


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
    sol = _flat_solution(grid, 1.0, {"SG_1": 10.0, "IBR_2": 100.0},
                         {"SG_1": 20.0, "IBR_2": 0.0})
    rep = check_constraints(sol, grid)
    pf = 10.0 / math.hypot(10.0, 20.0)
    assert pf == pytest.approx(0.4472135955, abs=1e-9)
    viols = dict(rep.violations)
    assert viols["pf_SG_1"] == pytest.approx(0.95 - pf, abs=1e-9)


@pytest.mark.parametrize("p_sg", [-5.0, 0.0])
def test_group_at_or_below_zero_is_checked(p_sg):
    # a slack group solved at or below 0 MW is short of p_min by all of it
    grid = fixture_3bus()
    sg = grid.gen_groups[0]
    sol = _flat_solution(grid, 1.0, {"SG_1": p_sg, "IBR_2": 100.0},
                         {"SG_1": 10.0, "IBR_2": 0.0})
    viols = dict(check_constraints(sol, grid).violations)
    assert viols["pmin_SG_1"] == pytest.approx(sg.p_min - p_sg)
    assert viols["pf_SG_1"] == pytest.approx(sg.cos_phi - p_sg / math.hypot(p_sg, 10.0))


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
        gen_p[rng.random(m) < 0.2] = 0.0  # some groups at 0 MW
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


# a (p, q) pair whose math.hypot and np.hypot differ in the last bit, and so
# does p / hypot(p, q): the power-factor check must take math.hypot
HYPOT_SPLIT = (32.54308859149863, 27.606194684581453)


def test_hypot_split_pair_splits():
    p, q = HYPOT_SPLIT
    assert p / math.hypot(p, q) != p / np.hypot(p, q)


def _bits(violations):
    return [(cid, float.hex(mag)) for cid, mag in violations]


@pytest.mark.parametrize("fixture", [fixture_3bus, fixture_9bus])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 24))
def test_check_constraints_many_matches_the_loop(fixture, seed, rows):
    # Random dispatches and voltages, a quarter of the line ratings (overloads),
    # some groups at 0 MW; the first group of the last row at HYPOT_SPLIT.
    base = fixture()
    grid = replace(base, lines=tuple(replace(ln, s_max=ln.s_max / 4)
                                     for ln in base.lines))
    net = grid.network
    rng = np.random.default_rng(seed)
    n, m = len(grid.buses), len(grid.gen_groups)
    vm = rng.uniform(0.85, 1.15, (rows, n))
    va = rng.uniform(-0.5, 0.5, (rows, n))
    gen_p = rng.uniform(0.5 * net.gen_p_min, 1.2 * net.gen_p_max, (rows, m))
    gen_p[rng.random((rows, m)) < 0.2] = 0.0
    gen_q = rng.uniform(1.5 * net.gen_q_min, 1.5 * net.gen_q_max, (rows, m))
    gen_p[-1, 0], gen_q[-1, 0] = HYPOT_SPLIT
    reports, totals = check_constraints_many(grid, vm, va, gen_p, gen_q)
    assert len(reports) == rows and totals.shape == (rows,)
    for r, (report, total) in enumerate(zip(reports, totals.tolist())):
        sol = PowerFlowSolution(vm[r], va[r], gen_p[r], gen_q[r], True, 1, math.nan, None)
        expected = check_constraints_loop(sol, grid)
        assert _bits(report.violations) == _bits(expected.violations)
        assert float.hex(total) == float.hex(violation_total(expected, grid.base_mva))


def test_infeasible_distance_is_that_of_the_returned_dispatch(monkeypatch):
    # Two iterates: a line-search step that the first one takes is the second
    # iterate and the last, returned with its own distance.
    monkeypatch.setattr(feasibility, "REPAIR_MAX_OUTER", 2)
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
    # Two iterates: the first plus at most three line-search trials, the last
    # of them taken as the second; the 1 MW difference of each of the 4
    # adjustable groups solves no power flow.
    monkeypatch.setattr(feasibility, "REPAIR_MAX_OUTER", 2)
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


def test_a_repair_capped_at_one_iterate_solves_only_its_set_points(monkeypatch):
    # The first iterate is the last: no 1 MW trials and no line search follow.
    monkeypatch.setattr(feasibility, "REPAIR_MAX_OUTER", 1)
    real_pf, real_many = feasibility.solve_pf, feasibility.solve_many
    solves, calls = [], []

    def counting_pf(*args):
        solves.append(1)
        return real_pf(*args)

    def counting_many(*args):
        calls.append(1)
        return real_many(*args)

    monkeypatch.setattr(feasibility, "solve_pf", counting_pf)
    monkeypatch.setattr(feasibility, "solve_many", counting_many)
    grid = fixture_9bus()
    root = build_space(grid, CONTROL).root_cell()
    ops = list(hierarchical_sample(root, 20, 1, grid, seed=7))
    infeasible = 0
    for op in ops:
        solves.clear()
        _adj, _sol, verdict = adjust_to_feasible(grid, op, root)
        assert len(solves) == 1
        infeasible += verdict.status == INFEASIBLE
    assert infeasible  # a repair that the cap ended
    calls.clear()  # solve_pf is solve_many of one row
    adjust_many(grid, ops, [root] * len(ops))
    assert len(calls) == 1


def _mask_mismatch(grid, case, gen_p, sol):
    """Largest P/Q mismatch of ``sol`` on the equations of its own PV mask."""
    net = grid.network
    n, base = len(net.bus_ids), net.base_mva
    p_spec = np.bincount(net.gen_bus, gen_p / base, n) - case.p_load
    q_low = np.bincount(net.gen_bus, net.gen_q_min / base, n) - case.q_load
    q_high = np.bincount(net.gen_bus, net.gen_q_max / base, n) - case.q_load
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
                      if g.bus != grid.slack_bus.id]
        p = case.gen_p.copy()
        p[adjustable] = np.clip(p[adjustable], net.gen_p_min[adjustable],
                                net.gen_p_max[adjustable])
        sols = solve_many(grid, [case], [p])  # a stack of one row
        sol = sols[0]
        if not sol.converged:
            continue
        assert _mask_mismatch(grid, case, p, sol) < PF_TOL
        switched += not np.array_equal(sol.pv, net.is_pv)
        rep = check_constraints(sol, grid)
        if rep.clean:
            continue
        # forward unless p_max is already reached, as in adjust_to_feasible
        steps = [min(p[i] + 1.0, net.gen_p_max[i]) if p[i] < net.gen_p_max[i]
                 else p[i] - 1.0 for i in adjustable]
        ok, (predicted,), _bands = _trial_totals(grid, sols, p[None], np.array(adjustable),
                                                 np.array([steps]))
        for i, step, guess in zip(adjustable, steps, predicted):
            trial = p.copy()
            trial[i] = step
            full = solve_pf(grid, case, trial)
            assert full.converged
            total = violation_total(check_constraints(full, grid), grid.base_mva)
            assert guess == pytest.approx(total, abs=1e-4)
            trials += 1
    assert trials >= 150
    assert switched  # some solution's mask is not its starting one


def _trial_pool(grid, seed, n_samples=24):
    """Stacked converged solutions of clipped root set points, their PV
    masks mixed by PV->PQ switching, as ``(sols, p, adjustable)``."""
    net = grid.network
    root = build_space(grid, CONTROL).root_cell()
    adjustable = (net.gen_bus != net.slack).nonzero()[0].tolist()
    cases = [pf_case(grid, op)
             for op in hierarchical_sample(root, n_samples, 1, grid, seed=seed)]
    p = np.array([case.gen_p for case in cases])
    p[:, adjustable] = np.clip(p[:, adjustable], net.gen_p_min[adjustable],
                               net.gen_p_max[adjustable])
    sols = solve_many(grid, cases, p)
    return sols[sols.converged], p[sols.converged], adjustable


@pytest.mark.parametrize("fixture", [fixture_3bus, fixture_9bus])
def test_trial_totals_match_the_one_point_oracle(fixture, monkeypatch):
    # Stacks of trial rows with mixed PV masks, and one row whose Jacobian is
    # singular: only that row breaks off, and every other total equals the
    # one-point oracle bit for bit.
    grid = fixture()
    net = grid.network
    rng = np.random.default_rng(3)
    sols, p, adjustable = _trial_pool(grid, seed=5)
    # a copy of row 0 marked by a slack angle, whose Jacobian gets zeroed
    singular = len(p) // 2
    order = np.insert(np.arange(len(p)), singular, 0)
    sols, p = sols[order], p[order]
    sols.va[singular, net.slack] = 0.5
    real = feasibility.power_jacobian

    def zeroing(ybus, v, ibus=None):
        jac = real(ybus, v, ibus)
        jac[np.angle(v[..., net.slack]) > 0.4] = 0.0
        return jac

    monkeypatch.setattr(feasibility, "power_jacobian", zeroing)
    for _ in range(2):
        k = int(rng.integers(1, len(adjustable) + 1))
        groups = np.array(sorted(rng.choice(adjustable, k, replace=False).tolist()))
        steps = np.minimum(p[:, groups] + 1.0, net.gen_p_max[groups])
        ok, totals, _bands = _trial_totals(grid, sols, p, groups, steps)
        assert ok.tolist() == [r != singular for r in range(len(p))]
        for r, row in zip(np.flatnonzero(ok).tolist(), totals):
            trials = newton_step_trials(grid, sols[r], p[r], groups.tolist(),
                                        steps[r].tolist())
            expected = [violation_total(check_constraints_loop(t, grid), grid.base_mva)
                        for t in trials]
            assert [float.hex(t) for t in row.tolist()] == [float.hex(t) for t in expected]
    assert len({mask.tobytes() for mask in sols.pv}) > 1


def test_trial_totals_build_no_constraint_report(monkeypatch):
    # A trial keeps only its violation total and its bus voltage-band
    # magnitudes; the reports are built for the repair's power flows alone
    # (check_constraints_many).
    grid = fixture_3bus()
    net = grid.network
    sols, p, adjustable = _trial_pool(grid, seed=5)
    steps = np.minimum(p[:, adjustable] + 1.0, net.gen_p_max[adjustable])
    real = feasibility.ConstraintReport
    built = []

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(feasibility, "ConstraintReport", counting)
    ok, _totals, _bands = _trial_totals(grid, sols, p, np.array(adjustable), steps)
    assert len(p) > 10 and ok.all()
    assert not built
    check_constraints(sols[0], grid)  # the count sees the report step
    assert len(built) == 1


def test_trial_totals_bits_do_not_depend_on_the_stack_size():
    # 2,000+ 9-bus trials answered in one stack and in 50-point slices.  In a
    # stack of 256 KiB or more numpy would compute ``v * np.conj(...)`` in the
    # conjugate's buffer, which rounds differently; the S kernel avoids it.
    grid = fixture_9bus()
    net = grid.network
    sols, p, adjustable = _trial_pool(grid, seed=5, n_samples=600)
    groups = np.array(adjustable)
    steps = np.minimum(p[:, groups] + 1.0, net.gen_p_max[groups])
    assert steps.size >= 2000
    whole = _trial_totals(grid, sols, p, groups, steps)
    parts = [_trial_totals(grid, sols[a:a + 50], p[a:a + 50], groups, steps[a:a + 50])
             for a in range(0, len(p), 50)]
    for got, sliced in zip(whole, zip(*parts)):
        assert got.tobytes() == np.concatenate(sliced).tobytes()


def test_adjust_many_builds_one_report_per_point(monkeypatch):
    # A point's report is built once, when its repair finishes, not at every
    # power flow of its repair.
    grid = fixture_3bus()
    root = build_space(grid, CONTROL).root_cell()
    ops = list(hierarchical_sample(root, 80, 1, grid, seed=5))
    real = feasibility.ConstraintReport
    built = []

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(feasibility, "ConstraintReport", counting)
    assert len(adjust_many(grid, ops, [root] * len(ops))) == len(built) == 80


# -- lock-step solves and repairs ---------------------------------------------

ARRAYS = ("vm", "va", "gen_p", "gen_q", "pv")


def _solution_bits(sol):
    return (tuple(getattr(sol, f).tobytes() for f in ARRAYS), sol.converged,
            sol.iterations, np.float64(sol.max_mismatch).tobytes(), id(sol.case))


SINGULAR_VM = 1.25  # the slack voltage that marks pf_pool's singular row


@pytest.fixture(scope="module", params=[fixture_3bus, fixture_9bus],
                ids=["3bus", "9bus"])
def pf_pool(request):
    """Sampled root points of a fixture, then a row that breaks off on
    |V| <= 0.05 (six times the loads) and one whose flat-start Jacobian is
    singular under ``_singular_marked_rows`` (its slack voltage is
    ``SINGULAR_VM``)."""
    grid = request.param()
    root = build_space(grid, CONTROL).root_cell()
    cases = [pf_case(grid, op) for op in hierarchical_sample(root, 16, 1, grid, seed=5)]
    base = cases[0]
    diverging = replace(base, p_load=6 * base.p_load, q_load=6 * base.q_load)
    singular = replace(base, vm=base.vm.copy())
    singular.vm[grid.network.slack] = SINGULAR_VM
    return grid, cases + [diverging, singular]


@contextmanager
def _singular_marked_rows(grid):
    """``power_jacobian``, as the engine and the oracle see it, zeroed at
    voltages whose slack bus is at ``SINGULAR_VM``: a marked row's first
    Newton step is an exactly singular system."""
    real = feasibility.power_jacobian
    slack = grid.network.slack

    def zeroing(ybus, v, ibus=None):
        jac = real(ybus, v, ibus)
        jac[v[..., slack] == SINGULAR_VM] = 0.0
        return jac

    with pytest.MonkeyPatch.context() as mp:
        for module in (feasibility, oracles):
            mp.setattr(module, "power_jacobian", zeroing)
        yield


def test_solve_many_pool_breaks_off_every_way(pf_pool):
    grid, pool = pf_pool
    net = grid.network
    with _singular_marked_rows(grid):
        sols = solve_many(grid, pool, [case.gen_p for case in pool])
    *sampled, diverged, singular = sols
    switched = 0
    for sol in sampled:
        assert sol.converged
        switched += not np.array_equal(sol.pv, net.is_pv)
    assert switched  # some row took a second PV->PQ round
    assert not diverged.converged and 1 < diverged.iterations < PF_MAX_ITER
    assert not singular.converged and singular.iterations == 1


@st.composite
def _pf_batches(draw, grid, pool):
    """Rows of the pool with random dispatches (some groups at 0 MW), and the
    pool's two break-off rows at random places in the batch."""
    m = len(grid.gen_groups)
    scale = st.one_of(st.just(0.0), st.floats(0.2, 1.6))
    rows = draw(st.lists(st.tuples(st.integers(0, len(pool) - 3),
                                   st.lists(scale, min_size=m, max_size=m)),
                         min_size=1, max_size=12))
    batch = [(pool[i], pool[i].gen_p * np.array(s)) for i, s in rows]
    for special in pool[-2:]:
        batch.insert(draw(st.integers(0, len(batch))), (special, special.gen_p))
    return batch


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_solve_many_matches_the_one_solve_oracle(pf_pool, data):
    grid, pool = pf_pool
    batch = data.draw(_pf_batches(grid, pool))
    with _singular_marked_rows(grid):
        sols = solve_many(grid, [case for case, _ in batch], [gen_p for _, gen_p in batch])
        oracle = [newton_pf_one(grid, case, gen_p) for case, gen_p in batch]
    for sol, expected in zip(sols, oracle):
        assert _solution_bits(sol) == _solution_bits(expected)
    for i, a in enumerate(sols):  # each row owns its arrays
        assert all(getattr(a, f).flags.owndata for f in ARRAYS)
        for b in sols[i + 1:]:
            assert not any(np.shares_memory(getattr(a, f), getattr(b, g))
                           for f in ARRAYS for g in ARRAYS)


def _repair_bits(result):
    adjusted, sol, verdict = result  # a float's repr gives back its bits
    return (repr(adjusted), _solution_bits(sol)[:4], repr(verdict))


def _reference_repairs(grid, items, max_outer):
    """``repair_one`` of each item at ``max_outer`` iterations, and the
    number of power flows that it solved."""
    real = oracles.newton_pf_one
    solves = []
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "newton_pf_one", lambda *args: solves.append(1) or real(*args))
        for op, cell in items:
            solves.clear()
            out.append((repair_one(grid, op, cell, max_outer=max_outer), len(solves)))
    return out


@pytest.fixture(scope="module", params=[(fixture_3bus, 8), (fixture_9bus, 3)],
                ids=["3bus", "9bus"])
def repair_pool(request):
    """Points of the root and of its two P_SG halves, with the reference
    repair of each at 1, 2 and 20 iterates (``_reference_repairs``)."""
    fixture, per_cell = request.param
    grid = fixture()
    root = build_space(grid, CONTROL).root_cell()
    items = [(op, cell) for cell in [root, *split(root, "P_SG", 0.01)]
             for op in hierarchical_sample(cell, per_cell, 1, grid, seed=11)]
    return grid, items, {m: _reference_repairs(grid, items, m) for m in (1, 2, 20)}


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_adjust_many_matches_one_repair_at_a_time(repair_pool, data):
    # Both entry points against the one-point reference, also at 1 and 2
    # iterates, where the cap ends most repairs.  The chunk solves each
    # point's power flows, no more: its solve_many calls are the costliest
    # point's solves, its rows their sum.
    grid, items, reference = repair_pool
    max_outer = data.draw(st.sampled_from(sorted(reference)))
    picks = data.draw(st.lists(st.integers(0, len(items) - 1), min_size=1,
                               max_size=len(items)))
    real = feasibility.solve_many
    rows = []

    def counting(grid, cases, gen_ps):
        rows.append(len(cases))
        return real(grid, cases, gen_ps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feasibility, "REPAIR_MAX_OUTER", max_outer)
        alone = {i: adjust_to_feasible(grid, *items[i]) for i in set(picks)}
        mp.setattr(feasibility, "solve_many", counting)
        together = adjust_many(grid, [items[i][0] for i in picks],
                               [items[i][1] for i in picks])
    solves = [reference[max_outer][i][1] for i in picks]
    assert (len(rows), sum(rows)) == (max(solves), sum(solves))
    for i, result in zip(picks, together):
        want = _repair_bits(reference[max_outer][i][0])
        assert _repair_bits(result) == want
        assert _repair_bits(alone[i]) == want


def test_repair_of_a_grid_with_only_the_slack_group_matches_the_reference():
    # No group is adjustable: each point is solved once, clean or not.
    grid = GridModel(
        buses=(Bus(1, SLACK, 0.9, 1.1), Bus(2, PQ, 0.9, 1.1)),
        lines=(Line(1, 2, 0.01, 0.1, 0.0, 300.0),),
        gen_groups=(GenGroup(1, SG, 100.0, 0.95),),
        loads=(Load(2, 1.0),),
    )
    root = build_space(grid, CONTROL).root_cell()
    ops = list(hierarchical_sample(root, 6, 1, grid, seed=3))
    reference = [repair_one(grid, op, root) for op in ops]
    assert {verdict.status for *_, verdict in reference} == {FEASIBLE, INFEASIBLE}
    want = [_repair_bits(r) for r in reference]
    assert [_repair_bits(r) for r in adjust_many(grid, ops, [root] * len(ops))] == want
    assert [_repair_bits(adjust_to_feasible(grid, op, root)) for op in ops] == want


@pytest.mark.parametrize("fixture", [fixture_3bus, fixture_9bus])
def test_a_row_whose_trials_are_singular_ends_at_its_iterate(fixture, monkeypatch):
    # Only _trial_totals calls power_jacobian without ibus.  With those
    # Jacobians zero, every row that reaches its 1 MW trials ends there:
    # Infeasible, with the last iterate's solution, report, dispatch and
    # distance, as a repair capped at one iterate ends it.
    grid = fixture()
    root = build_space(grid, CONTROL).root_cell()
    ops = list(hierarchical_sample(root, 20, 1, grid, seed=5))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feasibility, "REPAIR_MAX_OUTER", 1)
        capped = adjust_many(grid, ops, [root] * len(ops))
    real = feasibility.power_jacobian
    trials = []

    def singular(ybus, v, ibus=None):
        if ibus is not None:
            return real(ybus, v, ibus)
        trials.append(len(v))
        return np.zeros_like(real(ybus, v))

    monkeypatch.setattr(feasibility, "power_jacobian", singular)
    got = adjust_many(grid, ops, [root] * len(ops))
    assert sum(trials) > 0
    assert [_repair_bits(r) for r in got] == [_repair_bits(r) for r in capped]


def test_voltage_certificate_ends_no_repair_that_a_box_scan_rescues(monkeypatch):
    # Every 3-bus repair that the voltage certificate ends is out of reach in
    # its whole box: no converged dispatch of a scan of the one adjustable
    # group's box clears the voltage violations that the repair ends with.
    # Seed 302's sample 18 is the closest call: its box holds such a dispatch
    # and its first violation is 0.566 of its reach, so a safety factor below
    # 1 / 0.566 ends it and fails here.  More broadly, no Infeasible row, ended
    # or not, has a scanned dispatch that is clean and inside its cell.
    grid = fixture_3bus()
    root = build_space(grid, CONTROL).root_cell()
    real = feasibility._out_of_reach
    fired = []

    def spying(*args):
        out = real(*args)
        fired.extend(out.tolist())
        return out

    monkeypatch.setattr(feasibility, "_out_of_reach", spying)
    ended = infeasible = 0
    for seed in (302, 5, 11):
        for op in hierarchical_sample(root, 80, 1, grid, seed):
            fired.clear()
            ((_adjusted, _sol, verdict),) = adjust_many(grid, [op], [root])
            held = {cid for cid, _ in verdict.violations if cid.startswith("v_")}
            if any(fired):
                ended += 1
                assert verdict.status == INFEASIBLE and held
            if verdict.status != INFEASIBLE:
                continue
            infeasible += 1
            for _dispatch, sol, report in dispatch_scan(grid, op, 31):
                if any(fired):
                    assert report is None or held & {cid for cid, _ in report.violations}
                assert not (report is not None and report.clean and contains_values(
                    root, _apply_dispatch(grid, op, sol.gen_p).dim_values))
    assert ended > 100 and infeasible > ended


def test_every_feasible_repair_is_clean_under_the_oracles():
    # Each Feasible row's recorded dispatch, solved again by the one-solve
    # Newton oracle and checked by the loop oracle, converges with no
    # violation at all.
    grid = fixture_3bus()
    root = build_space(grid, CONTROL).root_cell()
    feasible = 0
    for seed in (5, 11, 21, 302):
        ops = list(hierarchical_sample(root, 80, 1, grid, seed))
        for adjusted, _sol, verdict in adjust_many(grid, ops, [root] * len(ops)):
            if verdict.status != FEASIBLE:
                continue
            feasible += 1
            case = pf_case(grid, adjusted)
            sol = newton_pf_one(grid, case, case.gen_p)
            assert sol.converged
            assert check_constraints_loop(sol, grid).violations == []
    assert feasible > 40


def test_voltage_certificate_keeps_a_small_voltage_violation_that_the_repair_clears():
    # 9-bus sample 58 of seed 21 starts with v_5 0.00084 pu outside its band
    # and ends Feasible: a repair that gave up at any voltage violation
    # would lose it.
    grid = fixture_9bus()
    net = grid.network
    root = build_space(grid, CONTROL).root_cell()
    ops = list(hierarchical_sample(root, 60, 1, grid, 21))
    case = pf_case(grid, ops[58])
    p = case.gen_p.copy()
    adjustable = net.gen_bus != net.slack
    p[adjustable] = np.clip(p[adjustable], net.gen_p_min[adjustable],
                            net.gen_p_max[adjustable])
    first = dict(check_constraints(solve_pf(grid, case, p), grid).violations)
    assert first["v_5"] == pytest.approx(0.00084, abs=1e-5)
    assert adjust_many(grid, ops, [root] * len(ops))[58][2].status == FEASIBLE


@pytest.mark.parametrize("fixture, n_samples", [(fixture_3bus, 40), (fixture_9bus, 12)])
def test_repairs_hand_the_power_flow_only_dispatches_in_the_boxes(fixture, n_samples,
                                                                   monkeypatch):
    # Every group is dispatched: a repair of sampled points solves set points
    # inside each group's [p_min, p_max] only, the slack group's included.
    grid = fixture()
    net = grid.network
    root = build_space(grid, CONTROL).root_cell()
    real = feasibility.solve_many
    handed = []

    def spying(grid, cases, gen_ps):
        handed.extend(gen_ps)
        return real(grid, cases, gen_ps)

    monkeypatch.setattr(feasibility, "solve_many", spying)
    ops = list(hierarchical_sample(root, n_samples, 1, grid, seed=5))
    adjust_many(grid, ops, [root] * len(ops))
    p = np.array(handed)
    assert len(p) > len(ops)  # some repair took a step
    assert ((net.gen_p_min <= p) & (p <= net.gen_p_max)).all()


def test_adjust_many_keeps_its_repairs_in_phase(repair_pool, monkeypatch):
    # Every step solves one power flow of each unfinished point, its first
    # iterate or its pending line-search trial, so a chunk costs as many
    # solve_many calls as its costliest point's solves alone.
    grid, items, _alone = repair_pool
    real_pf, real_many = feasibility.solve_pf, feasibility.solve_many
    solves = []

    def counting_pf(*args):
        solves.append(1)
        return real_pf(*args)

    monkeypatch.setattr(feasibility, "solve_pf", counting_pf)
    alone = []
    for op, cell in items:
        solves.clear()
        adjust_to_feasible(grid, op, cell)
        alone.append(len(solves))
    monkeypatch.setattr(feasibility, "solve_pf", real_pf)
    calls = []

    def counting_many(*args):
        calls.append(1)
        return real_many(*args)

    monkeypatch.setattr(feasibility, "solve_many", counting_many)
    adjust_many(grid, [op for op, _ in items], [cell for _, cell in items])
    assert min(alone) < max(alone)  # a mixed chunk
    assert len(calls) == max(alone)
