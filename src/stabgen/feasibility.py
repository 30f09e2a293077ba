"""Feasible power flow: Newton-Raphson solve, constraint checks, redispatch.

Each sampled operating point is solved with a polar Newton-Raphson power
flow (PV buses at the sampled voltage magnitudes, PV->PQ switching at
group reactive limits).  Constraint violations are repaired by a projected
redispatch that minimizes the squared deviation from the sampled active
power set points; the outcome is classified Feasible, Infeasible or
Discarded (constraint-clean but the adjusted totals left the cell).

The repair (``_adjust``) runs many points in lock step on one state of
per-row arrays.  Each step solves every unfinished row's set points or
pending line-search trial in one ``solve_many`` call and answers the 1 MW
trials of its descent directions in one ``_trial_totals`` call; one
constraint kernel, ``_violations``, checks both, and only the power flows'
checks go on to build reports (``check_constraints_many``).  Each row's
numbers are those of the row computed alone, bit for bit.  The same
trials' bus voltages certify hopeless rows (``_out_of_reach``): a row
whose voltage violation no dispatch in its box can reach, by a linear
bound with a safety factor of ``REPAIR_V_SAFETY``, is given up at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataset import DISCARDED, FEASIBLE, INFEASIBLE
# build_admittance stays importable here for bench/tracer.py, which wraps it
# by this module's name; the compiled network (GridModel.network) calls it.
from .grid import (GridModel, IBR, SG, Network, build_admittance,  # noqa: F401
                   power_jacobian)
from .space import (OperatingPoint, Subregion, P_IBR, P_SG, contains_values)

PF_TOL = 1e-8
PF_MAX_ITER = 30
REPAIR_MAX_OUTER = 20  # redispatch iterates per point, set points included
REPAIR_REL_STOP = 1e-4  # give up below this relative violation decrease
REPAIR_V_SAFETY = 2.0  # the margin of the voltage certificate (``_out_of_reach``)
DEFAULT_LOAD_PF = 0.98


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
    angles."""

    p_load: np.ndarray  # active demand per bus, pu
    q_load: np.ndarray  # reactive demand per bus, pu
    vm: np.ndarray      # sampled voltage magnitude per bus, pu
    gen_p: np.ndarray   # sampled set point per group, MW


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
    return PfCase(p_load, q_load, vm, gen_p)


def _unknowns(net: Network, is_pv: np.ndarray) -> tuple:
    """PV and PQ bus indices of a PV mask and its Newton unknowns:
    ``(pv, pq, pvpq, rc, s_rows)``.

    The unknowns are the [P; Q] rows and [theta; |V|] columns ``rc`` at
    ``pvpq`` and ``n + pq``, and ``s_rows`` their rows of S viewed as
    interleaved (P, Q) floats."""
    n = len(is_pv)
    pv = is_pv.nonzero()[0]
    pq = (~is_pv & (np.arange(n) != net.slack)).nonzero()[0]
    pvpq = np.concatenate([pv, pq])
    return (pv, pq, pvpq, np.concatenate([pvpq, n + pq]),
            np.concatenate([2 * pvpq, 2 * pq + 1]))


def _solutions(net: Network, cases: list[PfCase], gen_p: np.ndarray, vm: np.ndarray,
               va: np.ndarray, converged: list[bool], iterations: list[int],
               max_mismatch: list[float], pv: np.ndarray) -> list[PowerFlowSolution]:
    """Per row, the solution at bus voltages ``vm``, ``va`` of dispatch
    ``gen_p``, with the group injections of ``_group_injections``; each
    solution owns its arrays.

    A solution's ``vm`` is ``|v|``, which can differ from ``vm`` in the last
    bit, so a solution is not a fixed point of its own recomputation.  The
    constraint checks read this ``|v|`` on purpose: the repair's totals and
    the 1 MW trials (``_trial_totals``) are defined on it."""
    v = vm * np.exp(1j * va)
    s_calc = v * np.conj((net.ybus @ v[..., None])[..., 0])
    gen_p_out, gen_q = _group_injections(net, np.array([c.p_load for c in cases]),
                                         np.array([c.q_load for c in cases]),
                                         gen_p, s_calc)
    rows = zip(np.abs(v), va, gen_p_out, gen_q, converged, iterations, max_mismatch,
               cases, pv)
    return [PowerFlowSolution(r_vm.copy(), r_va.copy(), r_p.copy(), r_q.copy(), conv,
                              its, peak, case, r_pv.copy())
            for r_vm, r_va, r_p, r_q, conv, its, peak, case, r_pv in rows]


def _group_injections(net: Network, p_load: np.ndarray, q_load: np.ndarray,
                      gen_p: np.ndarray, s_calc: np.ndarray) -> tuple:
    """Each group's P and Q, MW and MVAr, per row of dispatches ``gen_p`` at
    bus injections ``s_calc``: a group's Q is its share of its bus's
    injection, and the slack bus's groups share its P."""
    base = net.base_mva
    bus = net.gen_bus
    gen_q = (s_calc.imag[:, bus] + q_load[:, bus]) * base * net.q_share
    gen_p_out = gen_p.copy()
    slack_p = (s_calc.real[:, net.slack] + p_load[:, net.slack]) * base
    gen_p_out[:, net.at_slack] = slack_p[:, None] * net.p_share
    return gen_p_out, gen_q


def solve_pf(grid: GridModel, case: PfCase,
             gen_p: np.ndarray | None = None) -> PowerFlowSolution:
    """Polar Newton-Raphson power flow of one dispatch (MW per group,
    default: the sampled set points): ``solve_many`` of one row.

    Non-slack buses with generation groups are held at the sampled voltage
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
    p_spec = [np.bincount(net.gen_bus, gen_p / net.base_mva, n) - case.p_load
              for gen_p, case in zip(gen_ps, cases)]
    q_spec = [-case.q_load for case in cases]  # PQ buses without generation
    is_pv = [net.is_pv.copy() for _ in cases]
    rounds: list = [None] * len(cases)  # each row's last Newton round
    pending = list(range(len(cases)))
    for _round in range(5):  # PV->PQ switching rounds
        by_pv: dict[bytes, list[int]] = {}
        for r in pending:
            by_pv.setdefault(is_pv[r].tobytes(), []).append(r)
        pending = []
        for rows in by_pv.values():
            round_pv = is_pv[rows[0]].copy()  # the switch below changes is_pv
            pv = round_pv.nonzero()[0]
            converged, iterations, max_mismatch, x, s_calc = _newton_round(
                net, round_pv, [cases[r] for r in rows],
                np.array([p_spec[r] for r in rows]), np.array([q_spec[r] for r in rows]))
            for k, r in enumerate(rows):
                rounds[r] = round_pv, converged[k], iterations[k], max_mismatch[k], x[k]
            # reactive limit check at PV buses, on the converged rows' S
            q_gen = s_calc.imag[:, pv] + np.array([cases[r].q_load[pv] for r in rows])
            high = q_gen > net.bus_q_max[pv] + 1e-9
            low = ~high & (q_gen < net.bus_q_min[pv] - 1e-9)
            for k in np.flatnonzero(converged & (high | low).any(axis=1)).tolist():
                r, hi, lo = rows[k], pv[high[k]], pv[low[k]]
                q_load = cases[r].q_load
                q_spec[r][hi] = net.bus_q_max[hi] - q_load[hi]
                q_spec[r][lo] = net.bus_q_min[lo] - q_load[lo]
                is_pv[r][hi] = is_pv[r][lo] = False
                pending.append(r)
        if not pending:
            break
    round_pv, converged, iterations, max_mismatch, x = (np.array(a) for a in zip(*rounds))
    return _solutions(net, cases, np.array(gen_ps), x[:, n:], x[:, :n],
                      converged.tolist(), iterations.tolist(), max_mismatch.tolist(),
                      round_pv)


def _newton_round(net: Network, is_pv: np.ndarray, cases: list[PfCase],
                  p_spec: np.ndarray, q_spec: np.ndarray) -> tuple:
    """One flat-started Newton round of each row on PV mask ``is_pv``, in lock
    step.  Per row: ``(converged, iterations, max_mismatch, x, s_calc)`` with
    ``x = [theta; |V|]`` of its last iterate; ``s_calc`` is that iterate's
    ``S = v conj(Y v)`` where it converged.  Every iteration builds ``v``,
    ``S`` and one batched Jacobian of its rows from ``x``."""
    n = len(is_pv)
    _pv, pq, pvpq, rc, s_rows = _unknowns(net, is_pv)
    rows = len(cases)
    spec = np.concatenate([p_spec[:, pvpq], q_spec[:, pq]], axis=1)
    x = np.concatenate([np.zeros((rows, n)), [c.vm for c in cases]], axis=1)
    converged = np.zeros(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=int)
    max_mismatch = np.full(rows, math.inf)
    s_out = np.zeros((rows, n), dtype=complex)
    active = np.arange(rows)  # rows still iterating
    for it in range(1, PF_MAX_ITER + 1):
        xa = x[active]
        v = xa[:, n:] * np.exp(1j * xa[:, :n])
        ibus = (net.ybus @ v[..., None])[..., 0]
        s_calc = v * np.conj(ibus)
        mism = spec[active] - s_calc.view(float)[:, s_rows]
        peak = np.abs(mism).max(axis=1, initial=0.0)
        iterations[active] = it
        max_mismatch[active] = peak
        done = peak < PF_TOL
        if done.any():
            converged[active[done]] = True
            s_out[active[done]] = s_calc[done]
            go = ~done
            active, v, ibus, mism = active[go], v[go], ibus[go], mism[go]
            if not active.size:
                break
        jac = power_jacobian(net.ybus, v, ibus)
        dx = _solve_stacked(jac[:, rc[:, None], rc], mism[..., None])[..., 0]
        ok = np.isfinite(dx).all(axis=1)
        active, dx = active[ok], dx[ok]
        x[active[:, None], rc] += dx
        active = active[~(x[active, n:] <= 0.05).any(axis=1)]
        if not active.size:
            break
    return converged, iterations, max_mismatch, x, s_out


def _solve_stacked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` of stacked systems, each bit-equal to its own
    call; a singular system's solution is NaN, and only it breaks off."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for k in range(len(a)):
            try:
                x[k] = np.linalg.solve(a[k], b[k])
            except np.linalg.LinAlgError:
                continue
        return x


def _trial_totals(grid: GridModel, points: list[tuple],
                  ) -> tuple[list[list[float] | None], np.ndarray]:
    """The violation totals of each point's 1 MW trials, ``None`` for a
    point whose Jacobian is singular or gives a non-finite step; and the
    bus voltage-band magnitudes of ``_violations`` of the answered trials,
    one row per trial, in point and then trial order.

    A point ``(sol, p, groups, steps)`` has one trial per ``c``: dispatch
    ``p`` with ``p[groups[c]]`` moved to ``steps[c]``.  Each trial is one
    Newton step from ``sol``, the converged solution of ``p``, on its PV/PQ
    split: the Jacobian at its voltages, with one right-hand side per trial
    that holds the step in the P row of the group's bus.  Points that share
    a PV mask and a number of trials are one batched Jacobian and one
    stacked solve, and all trials are one ``_violations`` call; each
    point's numbers are those of answering it alone, bit for bit.
    """
    net = grid.network
    n = len(net.bus_ids)
    by_key: dict[tuple, list[int]] = {}
    for r, (sol, _p, groups, _steps) in enumerate(points):
        by_key.setdefault((sol.pv.tobytes(), len(groups)), []).append(r)
    answered, owners, xs, dispatches, cases = [], [], [], [], []
    for rows in by_key.values():
        sols = [points[r][0] for r in rows]
        _pv, _pq, pvpq, rc, _s_rows = _unknowns(net, sols[0].pv)
        x = np.array([np.concatenate([s.va, s.vm]) for s in sols])
        jac = power_jacobian(net.ybus, x[:, n:] * np.exp(1j * x[:, :n]))
        p = np.array([points[r][1] for r in rows])
        groups = np.array([points[r][2] for r in rows], int).reshape(len(rows), -1)
        steps = np.array([points[r][3] for r in rows], float).reshape(len(rows), -1)
        k = groups.shape[1]
        eq = np.empty(n, dtype=int)  # each bus's P row among the unknowns
        eq[pvpq] = np.arange(len(pvpq))
        rhs = np.zeros((len(rows), len(rc), k))
        rhs[np.arange(len(rows))[:, None], eq[net.gen_bus[groups]], np.arange(k)] = (
            (steps - np.take_along_axis(p, groups, 1)) / net.base_mva)
        dx = _solve_stacked(jac[:, rc[:, None], rc], rhs)
        ok = np.isfinite(dx).all(axis=(1, 2))
        kept = ok.nonzero()[0].tolist()
        answered += [rows[j] for j in kept]
        owners.append(np.repeat(np.array(rows)[ok], k))
        trial_x = np.repeat(x[ok, None], k, axis=1)
        trial_x[..., rc] += dx[ok].transpose(0, 2, 1)
        trial_p = np.repeat(p[ok, None], k, axis=1)
        np.put_along_axis(trial_p, groups[ok, :, None], steps[ok, :, None], axis=2)
        xs.append(trial_x.reshape(-1, 2 * n))
        dispatches.append(trial_p.reshape(-1, p.shape[1]))
        cases += [sols[j].case for j in kept for _ in range(k)]
    totals: list = [None] * len(points)
    if not answered:
        return totals, np.zeros((0, n))
    x = np.concatenate(xs)
    v = x[:, n:] * np.exp(1j * x[:, :n])
    s_calc = v * np.conj((net.ybus @ v[..., None])[..., 0])
    gen_p, gen_q = _group_injections(net, np.array([c.p_load for c in cases]),
                                     np.array([c.q_load for c in cases]),
                                     np.concatenate(dispatches), s_calc)
    mags, flat = _violations(grid, np.abs(v), x[:, :n], gen_p, gen_q)
    order = np.argsort(np.concatenate(owners), kind="stable")  # into point order
    flat = flat[order].tolist()
    start = 0
    for r in sorted(answered):
        k = len(points[r][2])
        totals[r] = flat[start:start + k]
        start += k
    return totals, mags[order, :n]


def _out_of_reach(v_mag: np.ndarray, trial_v: np.ndarray, dp: np.ndarray,
                  pa: np.ndarray, p_min: np.ndarray, p_max: np.ndarray) -> np.ndarray:
    """The rows that no dispatch in their adjustable box can bring into the
    voltage band, by the repair's voltage certificate.

    Per row, ``v_mag`` holds each bus's voltage-band magnitude at the
    iterate and ``pa`` the adjustable groups' set points; ``trial_v[:, g]``
    holds the magnitudes at group ``g``'s 1 MW trial, ``dp[:, g]`` MW away
    (a group that did not move holds the iterate's).  A trial gives the
    slope ``s`` of each bus magnitude in its group's set point, and the
    bus's reach is the sum over the groups of ``max(-s (p_max - p),
    -s (p_min - p), 0)``: every group at its best box edge at once, in the
    linear model.  A row is out of reach when some violated bus has
    ``REPAIR_V_SAFETY * reach < v_mag``.
    """
    slope = (trial_v - v_mag[:, None]) / dp[..., None]
    gain = np.maximum(np.maximum(-slope * (p_max - pa)[..., None],
                                 -slope * (p_min - pa)[..., None]), 0.0)
    reach = np.zeros(v_mag.shape)
    for g in range(dp.shape[1]):  # a running sum over the groups, in order
        reach += gain[:, g]
    return (REPAIR_V_SAFETY * reach < v_mag).any(axis=1)


def _line_flow(ar, ai, br, bi, y_series: np.ndarray, y_shunt: np.ndarray) -> np.ndarray:
    """|a conj((a - b) y_series + a y_shunt)| of the complex voltages
    ``a = ar + j ai`` and ``b`` at a line's two ends, in the operation order
    of Python's complex product and ``abs``."""
    sr, si, hr, hi = y_series.real, y_series.imag, y_shunt.real, y_shunt.imag
    dr, di = ar - br, ai - bi
    ir = (dr * sr - di * si) + (ar * hr - ai * hi)
    ii = -((dr * si + di * sr) + (ar * hi + ai * hr))  # the conjugate current
    return np.hypot(ar * ir - ai * ii, ar * ii + ai * ir)


def _band(net: Network, vm: np.ndarray) -> np.ndarray:
    """Each bus's voltage-band violation magnitude, pu, per row of bus
    voltages ``vm``: 0 within 1e-6 of the band."""
    v_min, v_max = net.bus_v_min, net.bus_v_max
    return np.where(vm < v_min - 1e-6, v_min - vm,
                    np.where(vm > v_max + 1e-6, vm - v_max, 0.0))


def _violations(grid: GridModel, vm: np.ndarray, va: np.ndarray,
                gen_p: np.ndarray, gen_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Voltage-band, line-rating and generator-capability checks of each row
    of stacked bus voltages ``vm``, ``va`` and group injections ``gen_p``,
    ``gen_q``: per row, the magnitude of every check and the repair's
    violation total.

    Magnitudes are in pu (voltages), MVA (line overloads) and MW / MVAr /
    power-factor units (group checks), in check order: buses, lines,
    then per group ``pmin``, ``pmax``, ``qmin`` or ``qmax``, ``pf``, of every
    group.  The total adds them up in that order, with MVA/MW/MVAr scaled to
    pu by the base.  Every number is that of checking
    the row on its own in Python floats, bit for bit: line flows follow the
    operation order of Python's complex product, the power factor takes
    ``math.hypot`` (``np.hypot`` differs in the last bit), and the total is
    a running sum, not ``np.sum``'s pairwise one.
    """
    net = grid.network
    base = net.base_mva
    s_max = net.line_s_max
    tol = 1e-6
    v_mag = _band(net, vm)
    v = vm * np.exp(1j * va)
    fr, fi = v.real[:, net.line_from], v.imag[:, net.line_from]
    tr, ti = v.real[:, net.line_to], v.imag[:, net.line_to]
    y_series, y_shunt = net.line_y_series, net.line_y_shunt
    s_from = _line_flow(fr, fi, tr, ti, y_series, y_shunt)
    s_to = _line_flow(tr, ti, fr, fi, y_series, y_shunt)
    s = np.where(s_to > s_from, s_to, s_from) * base  # Python's max(s_from, s_to)
    line_mag = np.where(s > s_max + tol, s - s_max, 0.0)
    p_min, p_max = net.gen_p_min, net.gen_p_max
    q_min, q_max = net.gen_q_min, net.gen_q_max
    cos_phi = net.gen_cos_phi
    q_low = gen_q < q_min - 1e-6
    group_mag = np.zeros(gen_p.shape + (5,))
    group_mag[..., 0] = np.where(gen_p < p_min - 1e-6, p_min - gen_p, 0.0)
    group_mag[..., 1] = np.where(gen_p > p_max + 1e-6, gen_p - p_max, 0.0)
    group_mag[..., 2] = np.where(q_low, q_min - gen_q, 0.0)
    group_mag[..., 3] = np.where(~q_low & (gen_q > q_max + 1e-6), gen_q - q_max, 0.0)
    hypot = map(math.hypot, gen_p.ravel().tolist(), gen_q.ravel().tolist())
    pf = gen_p / np.array(list(hypot)).reshape(gen_p.shape)
    group_mag[..., 4] = np.where(pf < cos_phi - 1e-9, cos_phi - pf, 0.0)
    # one column per check id; a check that holds reads 0, a violation > 0
    mags = np.concatenate([v_mag, line_mag, group_mag.reshape(len(vm), -1)], axis=1)
    totals = np.cumsum(np.where(net.check_scaled, mags / base, mags), axis=1)[:, -1]
    return mags, totals


def check_constraints_many(grid: GridModel, vm: np.ndarray, va: np.ndarray,
                           gen_p: np.ndarray, gen_q: np.ndarray,
                           ) -> tuple[list[ConstraintReport], np.ndarray]:
    """Per row, the report of ``_violations``' nonzero magnitudes, and the total."""
    mags, totals = _violations(grid, vm, va, gen_p, gen_q)
    ids = grid.network.check_ids
    rows, cols = mags.nonzero()
    viols = list(zip([ids[c] for c in cols.tolist()], mags[rows, cols].tolist()))
    ends = np.cumsum(np.bincount(rows, minlength=len(vm))).tolist()
    return [ConstraintReport(viols[a:b]) for a, b in zip([0] + ends, ends)], totals


def check_constraints(solution: PowerFlowSolution, grid: GridModel) -> ConstraintReport:
    """``check_constraints_many`` of one solution: its report."""
    return check_constraints_many(grid, solution.vm[None], solution.va[None],
                                  solution.gen_p[None], solution.gen_q[None])[0][0]


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


def adjust_to_feasible(grid: GridModel, op: OperatingPoint, cell: Subregion,
                       load_pf: float = DEFAULT_LOAD_PF,
                       ) -> tuple[OperatingPoint, PowerFlowSolution, FeasibilityVerdict]:
    """Repair an operating point toward constraint-clean feasibility (see
    ``_adjust``), each of its power flows solved alone by ``solve_pf``."""
    return _adjust(grid, [op], [cell], load_pf,
                   lambda cases, gen_ps: [solve_pf(grid, cases[0], gen_ps[0])])[0]


def adjust_many(grid: GridModel, ops: list[OperatingPoint], cells: list[Subregion],
                load_pf: float = DEFAULT_LOAD_PF,
                ) -> list[tuple[OperatingPoint, PowerFlowSolution, FeasibilityVerdict]]:
    """``[adjust_to_feasible(grid, op, cell, load_pf) ...]``, bit for bit, with
    each step's power flows in one ``solve_many`` call."""
    return _adjust(grid, ops, cells, load_pf,
                   lambda cases, gen_ps: solve_many(grid, cases, gen_ps))


def _adjust(grid: GridModel, ops: list[OperatingPoint], cells: list[Subregion],
            load_pf: float, solve) -> list[tuple]:
    """Repair operating points toward constraint-clean feasibility, in lock
    step; per point, the repaired point, its solution and its verdict.

    Iterative projected redispatch: group set points are clipped to their
    capability boxes and then moved along a descent direction of the total
    constraint violation, the slack group absorbing the residual.  The
    direction is a 1 MW finite difference per adjustable group on the
    linearized power flow (``_trial_totals``); the line search tries
    ``scale``, ``scale / 4`` and ``scale / 16``.  The first constraint-clean
    iterate, the closest to the sampled set points along the descent path,
    is accepted with its squared set-point deviation.  The clipped set
    points are the first iterate and each taken trial the next; a point
    stops at its ``REPAIR_MAX_OUTER``-th iterate.  At every iterate the 1 MW
    trials also give each violated bus's linear reach over the capability
    box, and a row is given up when some violated bus's reach, times
    ``REPAIR_V_SAFETY``, falls short of its violation (``_out_of_reach``).
    Every failure, a singular Jacobian at the iterate, that cap and a
    given-up row included, is Infeasible, with the last iterate's solution,
    report, dispatch and distance.

    The state is one array row per point: the iterate ``p``, its total
    ``tot`` and its voltage-band magnitudes ``v_mag``, the total before
    ``prev``, the number ``it`` of iterates, the
    three line ``trials`` and the ``stage`` (0-2) of the one pending.  The
    first step solves the clipped set points; each later one solves every
    unfinished row's pending trial.  Each step is one ``solve(cases,
    gen_ps)`` call; masks then take or reject the trials, finish rows, and
    build the others' 1 MW trials for one ``_trial_totals`` call, whose
    totals and bus voltages finish the flat and the hopeless rows.
    """
    if not ops:
        return []
    net = grid.network
    cases = [pf_case(grid, op, load_pf) for op in ops]
    setpoints = np.array([case.gen_p for case in cases])
    non_slack = net.gen_bus != net.slack
    adj = np.flatnonzero(non_slack)
    p_min, p_max = net.gen_p_min[adj], net.gen_p_max[adj]
    top = 0.05 * p_max.max() if adj.size else 0.0  # the step base of ``scale``
    rows = len(ops)
    p = setpoints.copy()
    p[:, adj] = np.clip(p[:, adj], p_min, p_max)  # onto the capability box up front
    trials = np.empty((rows, 3, p.shape[1]))  # each row's line-search dispatches
    tot, prev = np.full(rows, math.inf), np.full(rows, math.inf)
    v_mag = np.zeros((rows, len(net.bus_ids)))  # the iterate's voltage-band magnitudes
    it, stage = np.zeros(rows, dtype=int), np.zeros(rows, dtype=int)
    sols, reps = [None] * rows, [None] * rows  # the iterate's solution and report
    # Each row's dispatches solved so far.  Totals fall strictly along the
    # iterates, and a trial is taken only below its iterate's total, so a
    # dispatch that was solved before is rejected without solving it again.
    solved = [{tuple(d)} for d in p.tolist()]
    results: list = [None] * rows

    def finish(r: int) -> None:
        sol, rep = sols[r], reps[r]
        distance = sum((a - b) ** 2 for a, b in zip(p[r, non_slack].tolist(),
                                                     setpoints[r, non_slack].tolist()))
        if rep.clean and sol.converged:
            adjusted = _apply_dispatch(grid, ops[r], sol.gen_p)
            verdict = classify(adjusted, sol, rep, cells[r], distance)
        else:
            adjusted = _apply_dispatch(grid, ops[r], sol.gen_p if sol.converged else p[r])
            verdict = FeasibilityVerdict(INFEASIBLE, rep.violations, distance)
        results[r] = adjusted, sol, verdict

    def search(r: int) -> None:
        """Pend row ``r``'s first line-search trial from ``stage[r]`` on
        that was not solved before, or finish the row if none is left."""
        for s in range(stage[r], 3):
            key = tuple(trials[r, s].tolist())
            if key not in solved[r]:
                solved[r].add(key)
                stage[r] = s
                return
        finish(r)

    live = np.arange(rows)
    first = True
    while live.size:
        gen_ps = p[live] if first else trials[live, stage[live]]
        step_sols = solve([cases[r] for r in live], list(gen_ps))
        converged = np.array([sol.converged for sol in step_sols])
        step_tot = np.full(live.size, math.inf)
        step_v = np.zeros((live.size, v_mag.shape[1]))
        step_reps = [None if c else ConstraintReport([("pf_diverged", 1.0)])
                     for c in converged.tolist()]
        checked = converged.nonzero()[0].tolist()
        if checked:
            vm, va, gen_p, gen_q = (np.array([getattr(step_sols[k], f) for k in checked])
                                    for f in ("vm", "va", "gen_p", "gen_q"))
            reports, step_tot[checked] = check_constraints_many(grid, vm, va, gen_p, gen_q)
            step_v[checked] = _band(net, vm)
            for k, rep in zip(checked, reports):
                step_reps[k] = rep
        taken = (step_tot < tot[live]) | first  # rows with a new iterate
        first = False
        rejected = live[~taken]  # a rejected trial pends the row's next one
        stage[rejected] += 1
        for r in rejected.tolist():
            search(r)
        new = live[taken]
        p[new], tot[new], v_mag[new] = gen_ps[taken], step_tot[taken], step_v[taken]
        it[new] += 1
        for k, r in zip(taken.nonzero()[0].tolist(), new.tolist()):
            sols[r], reps[r] = step_sols[k], step_reps[k]
        clean = np.array([reps[r].clean for r in new], dtype=bool)
        go = converged[taken] & ~clean & (adj.size > 0) & (it[new] < REPAIR_MAX_OUTER)
        g = new[go]  # converged rows only: no inf - inf
        go[go] = ~(prev[g] - tot[g] < REPAIR_REL_STOP * np.maximum(prev[g], 1.0))
        for r in new[~go].tolist():
            finish(r)
        rows_t = new[go]
        prev[rows_t] = tot[rows_t]
        # finite-difference descent on adjustable group set points, a
        # forward 1 MW step unless the capability box forces a backward one
        pa = p[rows_t][:, adj]
        steps = np.minimum(np.maximum(pa + 1.0, p_min), p_max)
        back = steps == pa
        steps[back] = np.maximum(pa - 1.0, p_min)[back]
        moved = steps != pa
        totals, trial_v = _trial_totals(grid, [(sols[r], p[r], adj[m], st[m]) for r, m, st
                                               in zip(rows_t.tolist(), moved, steps)])
        ok = np.array([t is not None for t in totals], dtype=bool)
        for r in rows_t[~ok].tolist():
            finish(r)
        rows_t, pa, steps, moved = rows_t[ok], pa[ok], steps[ok], moved[ok]
        trial_tot = np.zeros(moved.shape)
        trial_tot[moved] = [t for row in totals if row is not None for t in row]
        v_it = v_mag[rows_t]
        band = np.repeat(v_it[:, None], moved.shape[1], axis=1)  # a group not moved: v_it
        band[moved] = trial_v
        dp = np.where(moved, steps - pa, 1.0)
        grad = np.where(moved, (trial_tot - tot[rows_t, None]) / dp, 0.0)
        gmax = np.abs(grad).max(axis=1, initial=0.0)
        # a flat gradient, or a voltage violation out of the box's reach
        stop = (gmax <= 0) | _out_of_reach(v_it, band, dp, pa, p_min, p_max)
        for r in rows_t[stop].tolist():
            finish(r)
        rows_t, pa, grad, gmax = rows_t[~stop], pa[~stop], grad[~stop], gmax[~stop]
        alpha = (top / gmax)[:, None] / np.array([1.0, 4.0, 16.0])
        line = np.repeat(p[rows_t, None], 3, axis=1)
        line[..., adj] = np.clip(pa[:, None] - alpha[..., None] * grad[:, None], p_min, p_max)
        trials[rows_t] = line
        stage[rows_t] = 0
        for r in rows_t.tolist():
            search(r)
        live = live[[results[r] is None for r in live.tolist()]]
    return results
