"""Feasible power flow: Newton-Raphson solve, constraint checks, redispatch.

Each sampled operating point is solved with a polar Newton-Raphson power
flow (PV buses at the sampled voltage magnitudes, PV->PQ switching at
group reactive limits).  Constraint violations are repaired by a projected
redispatch that minimizes the squared deviation from the sampled active
power set points; the outcome is classified Feasible, Infeasible or
Discarded (constraint-clean but the adjusted totals left the cell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# build_admittance stays importable here for bench/tracer.py, which wraps it
# by this module's name; the compiled network (GridModel.network) calls it.
from .grid import (GridModel, IBR, SG, Network, build_admittance,  # noqa: F401
                   power_jacobian)
from .space import (OperatingPoint, Subregion, P_IBR, P_SG, contains_values)

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
DISCARDED = "Discarded"

PF_TOL = 1e-8
PF_MAX_ITER = 30
REPAIR_MAX_OUTER = 20  # redispatch iterations per point
REPAIR_REL_STOP = 1e-4  # give up below this relative violation decrease
DEFAULT_LOAD_PF = 0.98
ZERO_DISPATCH = 1e-6  # MW threshold below which a group counts as offline


@dataclass
class PowerFlowSolution:
    vm: np.ndarray      # voltage magnitude per bus, pu, in grid.buses order
    va: np.ndarray      # voltage angle per bus, rad
    gen_p: np.ndarray   # active injection per group, MW, in grid.gen_groups order
    gen_q: np.ndarray   # reactive injection per group, MVAr
    converged: bool
    iterations: int
    max_mismatch: float
    case: PfCase        # the inputs that were solved, loads included
    pv: np.ndarray | None = None  # PV mask of the Newton round that gave vm/va


@dataclass(frozen=True)
class PfCase:
    """One operating point's power-flow inputs, built once and shared by all
    of its solves; each solve brings its own dispatch (default ``gen_p``).
    Every Newton round of every solve starts flat, at ``vm`` with zero
    angles, so the voltages, injections and Jacobian there are kept too."""

    p_load: np.ndarray  # active demand per bus, pu
    q_load: np.ndarray  # reactive demand per bus, pu
    vm: np.ndarray      # sampled voltage magnitude per bus, pu
    gen_p: np.ndarray   # sampled set point per group, MW
    v0: np.ndarray      # flat-start complex voltage per bus, pu
    s0: np.ndarray      # its bus injections v0 conj(Y v0), pu
    jac0: np.ndarray    # its full power-flow Jacobian


@dataclass
class ConstraintReport:
    violations: list[tuple[str, float]]

    @property
    def clean(self) -> bool:
        return not self.violations

    def total(self) -> float:
        return sum(m for _, m in self.violations)

    def serialize(self) -> str:
        return ";".join(f"{cid}:{mag:.6g}" for cid, mag in self.violations)


@dataclass
class FeasibilityVerdict:
    status: str  # Feasible, Infeasible or Discarded
    violations: list[tuple[str, float]]
    adjustment_distance: float  # MW^2 over non-slack groups


def pf_case(grid: GridModel, op: OperatingPoint,
            load_pf: float = DEFAULT_LOAD_PF) -> PfCase:
    """The power-flow inputs of an operating point, at load power factor
    ``load_pf``."""
    net = grid.network
    n = len(net.bus_ids)
    base = net.base_mva
    tan_phi = math.tan(math.acos(load_pf))
    mw = np.array([op.var_values.get(f"P_L_{ld.bus}", 0.0) for ld in grid.loads],
                  dtype=float)
    p_load = np.zeros(n)
    q_load = np.zeros(n)
    p_load[net.load_bus] = mw / base
    q_load[net.load_bus] = mw * tan_phi / base
    vm = np.array([op.voltage_profile.get(b, 1.0) for b in net.bus_ids])
    gen_p = np.array([op.var_values.get(f"P_{g.tech}_{g.bus}", 0.0)
                      for g in grid.gen_groups])
    v0 = vm * np.exp(1j * np.zeros(n))  # solve_pf's v at zero angles, bit for bit
    ibus0 = net.ybus @ v0
    return PfCase(p_load, q_load, vm, gen_p, v0, v0 * np.conj(ibus0),
                  power_jacobian(net.ybus, v0, ibus0))


def _shares(weight: np.ndarray, bus: np.ndarray, n: int) -> np.ndarray:
    """Each group's share of ``weight`` among the groups at its bus; equal
    shares at a bus whose total weight is not positive."""
    total = np.bincount(bus, weight, n)[bus]
    count = np.bincount(bus, minlength=n)[bus]
    return np.divide(weight, total, out=1.0 / count, where=total > 0)


@dataclass(frozen=True)
class _Dispatched:
    """What a power flow takes from its mask of dispatched groups alone."""

    on: np.ndarray        # the mask, per group
    bus: np.ndarray       # bus index per dispatched group
    is_pv: np.ndarray     # PV buses: a dispatched group holds the voltage
    q_min: np.ndarray     # summed reactive limits per bus, pu
    q_max: np.ndarray
    q_share: np.ndarray   # per dispatched group: its share of its bus's Q
    at_slack: np.ndarray  # per group: dispatched and at the slack bus
    p_share: np.ndarray   # per group at_slack: its share of the slack bus's P


def _read_only(*arrays: np.ndarray) -> None:
    """Guard arrays that every later solve on the network shares."""
    for a in arrays:
        a.flags.writeable = False


def _dispatched(net: Network, gen_p: np.ndarray) -> _Dispatched:
    """The mask terms of dispatch ``gen_p``, built once per mask and network.

    Reactive power is shared by ``gen_q_max`` among a bus's dispatched
    groups, and the slack bus's active power by ``gen_p_max``."""
    on = gen_p > ZERO_DISPATCH
    key = ("on", on.tobytes())
    terms = net.by_mask.get(key)
    if terms is None:
        n = len(net.bus_ids)
        base = net.base_mva
        bus = net.gen_bus[on]
        # PV where a dispatched generator can hold voltage; everything else PQ
        is_pv = np.bincount(bus, minlength=n) > 0
        is_pv[net.slack] = False
        at_slack = on & (net.gen_bus == net.slack)
        terms = net.by_mask[key] = _Dispatched(
            on, bus, is_pv,
            np.bincount(bus, net.gen_q_min[on] / base, n),
            np.bincount(bus, net.gen_q_max[on] / base, n),
            _shares(net.gen_q_max[on], bus, n), at_slack,
            _shares(net.gen_p_max[at_slack], net.gen_bus[at_slack], n))
        _read_only(*vars(terms).values())
    return terms


def _unknowns(net: Network, is_pv: np.ndarray) -> tuple:
    """PV and PQ bus indices of a PV mask and its Newton unknowns, built
    once per mask and network: ``(pv, pq, pvpq, rc, jac_index, s_rows)``.

    The unknowns are the [P; Q] rows and [theta; |V|] columns ``rc`` at
    ``pvpq`` and ``n + pq``; ``jac_index`` picks their block of the full
    Jacobian, and ``s_rows`` their rows of S viewed as interleaved (P, Q)
    floats."""
    key = ("pv", is_pv.tobytes())
    sets = net.by_mask.get(key)
    if sets is None:
        n = len(is_pv)
        pv = is_pv.nonzero()[0]
        pq = (~is_pv & (np.arange(n) != net.slack)).nonzero()[0]
        pvpq = np.concatenate([pv, pq])
        rc = np.concatenate([pvpq, n + pq])
        s_rows = np.concatenate([2 * pvpq, 2 * pq + 1])
        _read_only(pv, pq, pvpq, rc, s_rows)
        sets = net.by_mask[key] = (pv, pq, pvpq, rc, (rc[:, None], rc), s_rows)
    return sets


def _solution(net: Network, case: PfCase, gen_p: np.ndarray, vm: np.ndarray,
              va: np.ndarray, converged: bool, iterations: int,
              max_mismatch: float, pv: np.ndarray,
              injections: tuple[np.ndarray, np.ndarray] | None = None,
              ) -> PowerFlowSolution:
    """The solution at bus voltages ``vm``, ``va`` of dispatch ``gen_p``: each
    dispatched group's Q is its share of its bus's injection, and the slack
    bus's groups share its P.  ``injections`` is the pair ``v = vm e^(j va)``,
    ``v conj(Y v)`` when the caller already has it."""
    if injections is None:
        v = vm * np.exp(1j * va)
        injections = v, v * np.conj(net.ybus @ v)
    v, s_calc = injections
    base = net.base_mva
    terms = _dispatched(net, gen_p)
    on, at_slack = terms.on, terms.at_slack
    gen_q = np.zeros(len(gen_p))
    gen_q[on] = ((s_calc.imag + case.q_load) * base)[terms.bus] * terms.q_share
    gen_p_out = gen_p.copy()
    if at_slack.any():
        slack_p = (s_calc.real[net.slack] + case.p_load[net.slack]) * base
        gen_p_out[at_slack] = slack_p * terms.p_share
    return PowerFlowSolution(np.abs(v), va, gen_p_out, gen_q, converged,
                             iterations, max_mismatch, case, pv)


def solve_pf(grid: GridModel, case: PfCase,
             gen_p: np.ndarray | None = None) -> PowerFlowSolution:
    """Polar Newton-Raphson power flow of one dispatch (MW per group,
    default: the sampled set points): ``solve_many`` of one row.

    Generator buses with dispatched groups are held at the sampled voltage
    magnitude (PV); their reactive output is limited to the summed group
    capability with PV->PQ switching.  The slack bus absorbs the active
    residual.  Non-convergence is reported, not raised.  The solution's
    ``pv`` is the PV mask that its voltages were solved on.
    """
    return solve_many(grid, [case], [case.gen_p if gen_p is None else gen_p])[0]


def solve_many(grid: GridModel, cases: list[PfCase],
               gen_ps: list[np.ndarray]) -> list[PowerFlowSolution]:
    """The power flows of dispatches ``gen_ps`` of ``cases``, row by row, in
    lock step: every Newton iteration of every row that shares a PV mask is
    one stacked array operation, with converged and broken-off rows left
    out.  Each row's solution is bit-equal to that row solved alone, and
    owns its arrays.

    Up to five PV->PQ rounds: a row whose converged voltages put a PV bus
    outside its summed reactive limits holds that bus's Q at the limit and
    starts flat again in the next round, on its own PV mask.
    """
    net = grid.network
    n = len(net.bus_ids)
    terms = [_dispatched(net, gen_p) for gen_p in gen_ps]
    p_spec = [np.bincount(t.bus, gen_p[t.on] / net.base_mva, n) - case.p_load
              for t, gen_p, case in zip(terms, gen_ps, cases)]
    q_spec = [-case.q_load for case in cases]  # PQ buses without generation
    is_pv = [t.is_pv.copy() for t in terms]
    rounds: list = [None] * len(cases)  # each row's last Newton round
    pending = list(range(len(cases)))
    for _round in range(5):  # PV->PQ switching rounds
        by_mask: dict[bytes, list[int]] = {}
        for r in pending:
            by_mask.setdefault(is_pv[r].tobytes(), []).append(r)
        pending = []
        for rows in by_mask.values():
            round_pv = is_pv[rows[0]].copy()  # the switch below changes is_pv
            pv = _unknowns(net, round_pv)[0]
            newton = _newton_round(net, round_pv, [cases[r] for r in rows],
                                   np.array([p_spec[r] for r in rows]),
                                   np.array([q_spec[r] for r in rows]))
            for k, r in enumerate(rows):
                rounds[r] = (round_pv,) + tuple(a[k] for a in newton)
            # reactive limit check at PV buses, on the converged rows' injections
            converged, s_calc = newton[0], newton[-1]
            q_gen = s_calc.imag[:, pv] + np.array([cases[r].q_load[pv] for r in rows])
            high = q_gen > np.array([terms[r].q_max[pv] for r in rows]) + 1e-9
            low = ~high & (q_gen < np.array([terms[r].q_min[pv] for r in rows]) - 1e-9)
            for k in np.flatnonzero(converged & (high | low).any(axis=1)).tolist():
                r, hi, lo = rows[k], pv[high[k]], pv[low[k]]
                q_load, q_min, q_max = cases[r].q_load, terms[r].q_min, terms[r].q_max
                q_spec[r][hi] = q_max[hi] - q_load[hi]
                q_spec[r][lo] = q_min[lo] - q_load[lo]
                is_pv[r][hi] = is_pv[r][lo] = False
                pending.append(r)
        if not pending:
            break
    solutions = []
    for case, gen_p, (round_pv, converged, iterations, max_mismatch, x, v,
                      s_calc) in zip(cases, gen_ps, rounds):
        # a converged row's v and s_calc are those of x; otherwise x has moved
        solutions.append(_solution(
            net, case, gen_p, x[n:], x[:n].copy(), bool(converged), int(iterations),
            float(max_mismatch), round_pv.copy(), (v, s_calc) if converged else None))
    return solutions


def _newton_round(net: Network, is_pv: np.ndarray, cases: list[PfCase],
                  p_spec: np.ndarray, q_spec: np.ndarray) -> tuple:
    """One flat-started Newton round of each row on PV mask ``is_pv``, in lock
    step.  Per row: ``(converged, iterations, max_mismatch, x, v, s_calc)``
    with ``x = [theta; |V|]`` of its last iterate; ``v`` and ``s_calc`` are
    that iterate's voltages and injections where it converged."""
    n = len(is_pv)
    ybus = net.ybus
    _pv, pq, pvpq, rc, _jac_index, s_rows = _unknowns(net, is_pv)
    rows = len(cases)
    spec = np.concatenate([p_spec[:, pvpq], q_spec[:, pq]], axis=1)
    x = np.concatenate([np.zeros((rows, n)), [c.vm for c in cases]], axis=1)
    converged = np.zeros(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=int)
    max_mismatch = np.full(rows, math.inf)
    v_out = np.zeros((rows, n), dtype=complex)
    s_out = np.zeros((rows, n), dtype=complex)
    active = np.arange(rows)  # rows still iterating
    for it in range(1, PF_MAX_ITER + 1):
        if it == 1:  # x is the flat start
            v = np.array([c.v0 for c in cases])
            s_calc = np.array([c.s0 for c in cases])
        else:
            xa = x[active]
            v = xa[:, n:] * np.exp(1j * xa[:, :n])
            ibus = (ybus @ v[..., None])[..., 0]
            s_calc = v * np.conj(ibus)
        mism = spec[active] - s_calc.view(float)[:, s_rows]
        peak = np.abs(mism).max(axis=1, initial=0.0)
        iterations[active] = it
        max_mismatch[active] = peak
        done = peak < PF_TOL
        if done.any():
            converged[active[done]] = True
            v_out[active[done]] = v[done]
            s_out[active[done]] = s_calc[done]
            go = ~done
            active, v, mism = active[go], v[go], mism[go]
            if it > 1:
                ibus = ibus[go]
            if not active.size:
                break
        if it == 1:
            jac = np.array([cases[r].jac0 for r in active.tolist()])
        else:
            jac = power_jacobian(ybus, v, ibus)
        block = jac[:, rc[:, None], rc]
        try:
            dx = np.linalg.solve(block, mism[..., None])[..., 0]
            ok = np.isfinite(dx).all(axis=1)
        except np.linalg.LinAlgError:  # only the singular rows break off
            dx = np.zeros_like(mism)
            ok = np.zeros(len(active), dtype=bool)
            for k in range(len(active)):
                try:
                    dx[k] = np.linalg.solve(block[k], mism[k])
                except np.linalg.LinAlgError:
                    continue
                ok[k] = np.isfinite(dx[k]).all()
        active, dx = active[ok], dx[ok]
        x[active[:, None], rc] += dx
        active = active[~(x[active, n:] <= 0.05).any(axis=1)]
        if not active.size:
            break
    return converged, iterations, max_mismatch, x, v_out, s_out


def _newton_step_trials(grid: GridModel, sol: PowerFlowSolution,
                       gen_p: np.ndarray, groups: list[int],
                       steps: list[float]) -> list[PowerFlowSolution]:
    """Predicted solutions of dispatch ``gen_p`` with ``gen_p[groups[c]]``
    moved to ``steps[c]``, one per trial ``c``.

    Each is one Newton step from ``sol``, the converged solution of
    ``gen_p``, on its PV/PQ split: the Jacobian at its voltages is factored
    once, with one right-hand side per trial that holds the step in the P
    row of the group's bus.  Their ``max_mismatch`` is not evaluated (nan).
    Raises ``np.linalg.LinAlgError`` if that Jacobian is singular.
    """
    net = grid.network
    n = len(net.bus_ids)
    _pv, _pq, pvpq, rc, jac_index, _s_rows = _unknowns(net, sol.pv)
    x = np.concatenate([sol.va, sol.vm])
    jac = power_jacobian(net.ybus, sol.vm * np.exp(1j * sol.va))[jac_index]
    row = np.empty(n, dtype=int)
    row[pvpq] = np.arange(len(pvpq))
    rhs = np.zeros((len(rc), len(groups)))
    rhs[row[net.gen_bus[groups]], np.arange(len(groups))] = (
        (np.asarray(steps) - gen_p[groups]) / net.base_mva)
    dx = np.linalg.solve(jac, rhs)
    if not np.isfinite(dx).all():
        raise np.linalg.LinAlgError("non-finite Newton step")
    trials = []
    for c, (i, step) in enumerate(zip(groups, steps)):
        x_c = x.copy()
        x_c[rc] += dx[:, c]
        trial = gen_p.copy()
        trial[i] = step
        trials.append(_solution(net, sol.case, trial, x_c[n:], x_c[:n], True, 1,
                                math.nan, sol.pv))
    return trials


def check_constraints(solution: PowerFlowSolution, grid: GridModel) -> ConstraintReport:
    """Voltage-band, line-rating and generator-capability checks.

    Magnitudes are reported in pu (voltages), MVA (line overloads) and MW /
    MVAr / power-factor units (group checks).  Offline groups are skipped.
    """
    tol = 1e-6
    viols: list[tuple[str, float]] = []
    for b, v in zip(grid.buses, solution.vm.tolist()):
        if v < b.v_min - tol:
            viols.append((f"v_{b.id}", b.v_min - v))
        elif v > b.v_max + tol:
            viols.append((f"v_{b.id}", v - b.v_max))
    net = grid.network
    base = net.base_mva
    vc = (solution.vm * np.exp(1j * solution.va)).tolist()
    for ln, i, j, y_series, y_shunt in zip(grid.lines, net.line_from.tolist(),
                                           net.line_to.tolist(),
                                           net.line_y_series.tolist(),
                                           net.line_y_shunt.tolist()):
        vf, vt = vc[i], vc[j]
        i_f = (vf - vt) * y_series + vf * y_shunt
        i_t = (vt - vf) * y_series + vt * y_shunt
        s = max(abs(vf * i_f.conjugate()), abs(vt * i_t.conjugate())) * base
        if s > ln.s_max + tol:
            viols.append((f"line_{ln.from_bus}_{ln.to_bus}", s - ln.s_max))
    for g, p, q in zip(grid.gen_groups, solution.gen_p.tolist(), solution.gen_q.tolist()):
        if p <= ZERO_DISPATCH:
            continue
        if p < g.p_min - 1e-6:
            viols.append((f"pmin_{g.name}", g.p_min - p))
        if p > g.p_max + 1e-6:
            viols.append((f"pmax_{g.name}", p - g.p_max))
        if q < g.q_min - 1e-6:
            viols.append((f"qmin_{g.name}", g.q_min - q))
        elif q > g.q_max + 1e-6:
            viols.append((f"qmax_{g.name}", q - g.q_max))
        pf = p / math.hypot(p, q)
        if pf < g.cos_phi - 1e-9:
            viols.append((f"pf_{g.name}", g.cos_phi - pf))
    return ConstraintReport(viols)


def classify(adjusted: OperatingPoint, solution: PowerFlowSolution,
             report: ConstraintReport, cell: Subregion,
             adjustment_distance: float) -> FeasibilityVerdict:
    """Infeasible if unsolved or violating; Discarded if the repaired totals
    left the cell; Feasible otherwise."""
    if not solution.converged or not report.clean:
        return FeasibilityVerdict(INFEASIBLE, report.violations, adjustment_distance)
    if not contains_values(cell, adjusted.dim_values):
        return FeasibilityVerdict(DISCARDED, [], adjustment_distance)
    return FeasibilityVerdict(FEASIBLE, [], adjustment_distance)


def _apply_dispatch(grid: GridModel, op: OperatingPoint,
                    gen_p: np.ndarray) -> OperatingPoint:
    """Rewrite an operating point's variables and totals from a dispatch."""
    varv = dict(op.var_values)
    dispatch = gen_p.tolist()
    for g, new_p in zip(grid.gen_groups, dispatch):
        key = f"P_{g.tech}_{g.bus}"
        if g.tech == IBR:
            old_p = op.var_values.get(key, 0.0)
            gfm = op.var_values.get(f"P_GFM_{g.bus}", 0.0)
            share = gfm / old_p if old_p > 0 else 0.0
            varv[f"P_GFM_{g.bus}"] = share * new_p
            varv[f"P_GFL_{g.bus}"] = (1.0 - share) * new_p
        varv[key] = new_p
    dims = dict(op.dim_values)
    dims[P_SG] = sum(p for g, p in zip(grid.gen_groups, dispatch) if g.tech == SG)
    if grid.groups_of(IBR):
        dims[P_IBR] = sum(p for g, p in zip(grid.gen_groups, dispatch) if g.tech == IBR)
    return replace(op, dim_values=dims, var_values=varv)


def _violation_total(report: ConstraintReport, base_mva: float) -> float:
    """The repair's objective: violation magnitudes summed, with voltages
    already in pu and MVA/MW/MVAr scaled to pu by ``base_mva``."""
    tot = 0.0
    for cid, mag in report.violations:
        tot += mag / base_mva if cid.split("_")[0] in (
            "line", "pmin", "pmax", "qmin", "qmax") else mag
    return tot


def adjust_to_feasible(grid: GridModel, op: OperatingPoint, cell: Subregion,
                       load_pf: float = DEFAULT_LOAD_PF,
                       ) -> tuple[OperatingPoint, PowerFlowSolution, FeasibilityVerdict]:
    """Repair an operating point toward constraint-clean feasibility (see
    ``_repair``), each of its power flows solved alone by ``solve_pf``."""
    repair = _repair(grid, op, cell, load_pf)
    request, result = _advance(repair)
    while request is not None:
        request, result = _advance(repair, solve_pf(grid, *request))
    return result


def adjust_many(grid: GridModel, ops: list[OperatingPoint], cells: list[Subregion],
                load_pf: float = DEFAULT_LOAD_PF,
                ) -> list[tuple[OperatingPoint, PowerFlowSolution, FeasibilityVerdict]]:
    """``[adjust_to_feasible(grid, op, cell, load_pf) ...]``, bit for bit, with
    the repairs run in lock step: each step solves the one pending power
    flow of every unfinished repair in one ``solve_many`` call."""
    repairs = [_repair(grid, op, cell, load_pf) for op, cell in zip(ops, cells)]
    results: list = [None] * len(repairs)
    live = dict.fromkeys(range(len(repairs)))  # repair -> the solution it awaits
    while live:
        requests = {}
        for i, sol in live.items():
            request, results[i] = _advance(repairs[i], sol)
            if request is not None:
                requests[i] = request
        live = dict(zip(requests, solve_many(
            grid, [case for case, _ in requests.values()],
            [gen_p for _, gen_p in requests.values()])))
    return results


def _advance(repair, sol: PowerFlowSolution | None = None) -> tuple:
    """Send ``sol`` into ``repair``: ``(request, None)`` while it asks for a
    power flow, ``(None, result)`` once it has returned."""
    try:
        return repair.send(sol), None
    except StopIteration as done:
        return None, done.value


def _repair(grid: GridModel, op: OperatingPoint, cell: Subregion, load_pf: float):
    """Repair an operating point toward constraint-clean feasibility, as a
    resumable computation: it yields each ``(case, dispatch)`` whose power
    flow it needs, is sent that solution, and returns the repaired point,
    its solution and its verdict.

    Iterative projected redispatch: group set points are clipped to their
    capability boxes and then moved along a descent direction of the total
    constraint violation, the slack group absorbing the residual.  The
    direction is a 1 MW finite difference per adjustable group, taken on
    the linearized power flow: each group's trial is one Newton step from
    the iterate's converged solution, and all of them share one factored
    Jacobian, so an iteration costs one power flow at the iterate plus up
    to three line-search power flows.  The first constraint-clean iterate
    (the closest to the sampled set points along the descent path) is
    accepted; its squared set-point deviation is recorded.  All failure
    modes, a singular Jacobian at the iterate included, classify as
    Infeasible.
    """
    net = grid.network
    base = grid.base_mva
    case = pf_case(grid, op, load_pf)
    setpoints = case.gen_p
    non_slack = net.gen_bus != net.slack
    adjustable = np.flatnonzero(non_slack & (setpoints > ZERO_DISPATCH))
    p_min = net.gen_p_min[adjustable].tolist()
    p_max = net.gen_p_max[adjustable].tolist()
    # project onto the capability box up front
    p = setpoints.copy()
    p[adjustable] = np.clip(p[adjustable], p_min, p_max)

    def distance(dispatch: np.ndarray) -> float:
        return sum((a - b) ** 2 for a, b in zip(dispatch[non_slack].tolist(),
                                                 setpoints[non_slack].tolist()))

    # An accepted line-search trial is the next outer iterate: solve it once.
    solved: dict[tuple[float, ...], tuple] = {}

    def violation_total(dispatch: np.ndarray):
        """``(total, solution, report)`` of ``dispatch``; yields its power
        flow unless it was solved before."""
        key = tuple(dispatch.tolist())
        if key not in solved:
            sol = yield case, dispatch
            if sol.converged:
                rep = check_constraints(sol, grid)
                solved[key] = _violation_total(rep, base), sol, rep
            else:
                solved[key] = math.inf, sol, ConstraintReport([("pf_diverged", 1.0)])
        return solved[key]

    prev = math.inf
    for _it in range(REPAIR_MAX_OUTER):
        solved_p = p  # the dispatch of sol and rep, also when the loop runs out
        tot, sol, rep = yield from violation_total(p)
        if rep.clean and sol.converged:
            adjusted = _apply_dispatch(grid, op, sol.gen_p)
            verdict = classify(adjusted, sol, rep, cell, distance(p))
            return adjusted, sol, verdict
        if not sol.converged or not adjustable.size:
            break
        if prev - tot < REPAIR_REL_STOP * max(prev, 1.0):
            break
        prev = tot
        # finite-difference descent on adjustable group set points, a
        # forward 1 MW step unless the capability box forces a backward one
        h = 1.0  # MW
        moved, groups, steps = [], [], []
        for k, (i, p_i) in enumerate(zip(adjustable.tolist(), p[adjustable].tolist())):
            step = min(max(p_i + h, p_min[k]), p_max[k])
            if step == p_i:
                step = max(p_i - h, p_min[k])
                if step == p_i:
                    continue
            moved.append(k)
            groups.append(i)
            steps.append(step)
        try:
            trials = _newton_step_trials(grid, sol, p, groups, steps)
        except np.linalg.LinAlgError:
            break
        grad = np.zeros(len(adjustable))
        for k, i, step, t_sol in zip(moved, groups, steps, trials):
            t_tot = _violation_total(check_constraints(t_sol, grid), base)
            grad[k] = (t_tot - tot) / (step - p[i])
        gmax = float(np.abs(grad).max())
        if gmax <= 0:
            break
        scale = 0.05 * max(p_max) / gmax
        improved = False
        for alpha in (scale, scale / 4, scale / 16):
            trial = p.copy()
            trial[adjustable] = np.clip(p[adjustable] - alpha * grad, p_min, p_max)
            t_tot, _, _ = yield from violation_total(trial)
            if t_tot < tot:
                p = trial
                improved = True
                break
        if not improved:
            break
    adjusted = _apply_dispatch(grid, op, sol.gen_p if sol.converged else solved_p)
    verdict = FeasibilityVerdict(INFEASIBLE, rep.violations, distance(solved_p))
    return adjusted, sol, verdict
