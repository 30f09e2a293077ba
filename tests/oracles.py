"""Independent reference implementations used only by the tests.

Kept deliberately separate from the package: the Gauss-Seidel power flow
and the analytic formulas below share the modeling conventions of the
engine (bus types, group Q limits, load power factor) but none of its
numerics, so agreement is meaningful evidence.  ``newton_pf_one``,
``newton_step_trials``, ``check_constraints_loop``, ``violation_total``,
``out_of_reach`` and ``repair_one`` are the exception: the engine's
one-point forms of the power flow, the repair's 1 MW trials, the
constraint checks, the repair's objective, its voltage certificate and the
repair itself, kept as the bit-for-bit references of their stacked forms.
So are ``tree_predict``, one tree's share of the forest's stacked vote, and
``voltage_walk``, the voltage walk with the grid's lookups rebuilt for
every sample.  ``dispatch_scan`` scans a repair's capability box with
``newton_pf_one`` and ``check_constraints_loop`` alone, a reference that
does not depend on the repair's descent path.  ``disaggregate_gaussian`` is
the allocation strategy that the sampler's variance-maximizing fill is
compared against.
"""

from __future__ import annotations

import math

import numpy as np

from stabgen.feasibility import (DEFAULT_LOAD_PF, INFEASIBLE, PF_MAX_ITER, PF_TOL,
                                 REPAIR_MAX_OUTER, REPAIR_REL_STOP, REPAIR_V_SAFETY,
                                 ConstraintReport, FeasibilityVerdict, PowerFlowSolution,
                                 _apply_dispatch, _solutions, _unknowns, classify, pf_case)
from stabgen.forest import Tree
from stabgen.grid import SLACK, GridModel, build_admittance, power_jacobian
from stabgen.space import OperatingPoint


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def dense_power_jacobian(ybus: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Real 2n x 2n Jacobian d[P; Q]/d[theta; |V|] in MATPOWER's ``dSbus_dV``
    matrix form: dense diagonal matrices and O(n^3) matrix products."""
    ibus = ybus @ v
    diag_v = np.diag(v)
    diag_i = np.diag(ibus)
    diag_vn = np.diag(v / np.abs(v))
    ds_dvm = diag_v @ np.conj(ybus @ diag_vn) + np.conj(diag_i) @ diag_vn
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds = np.concatenate((ds_dva, ds_dvm), axis=1)
    return np.concatenate((ds.real, ds.imag))


def gauss_seidel_pf(grid: GridModel, op: OperatingPoint,
                    group_p: dict[str, float] | None = None,
                    load_pf: float = 0.98, tol: float = 1e-10,
                    max_iter: int = 100_000):
    """Gauss-Seidel power flow with the engine's bus-type conventions.

    Returns (v, theta, converged) with v/theta keyed by bus id.  PV buses
    are the non-slack buses with a generation group, held at the sampled
    magnitude; summed group reactive limits trigger PV->PQ switching.
    """
    n = len(grid.buses)
    idx = grid.bus_index
    ybus = build_admittance(grid)
    base = grid.base_mva
    tan_phi = math.tan(math.acos(load_pf))

    if group_p is None:
        group_p = {g.name: op.var_values.get(f"P_{g.tech}_{g.bus}", 0.0)
                   for g in grid.gen_groups}

    p_gen = np.zeros(n)
    q_lim = np.zeros((n, 2))
    has_gen = np.zeros(n, dtype=bool)
    for g in grid.gen_groups:
        i = idx[g.bus]
        p_gen[i] += group_p.get(g.name, 0.0) / base
        q_lim[i, 0] += g.q_min / base
        q_lim[i, 1] += g.q_max / base
        has_gen[i] = True

    p_load = np.zeros(n)
    q_load = np.zeros(n)
    for ld in grid.loads:
        i = idx[ld.bus]
        mw = op.var_values.get(f"P_L_{ld.bus}", 0.0)
        p_load[i] += mw / base
        q_load[i] += mw * tan_phi / base

    slack = idx[grid.slack_bus.id]
    p_spec = p_gen - p_load
    q_spec = -q_load.copy()
    is_pv = has_gen.copy()
    is_pv[slack] = False
    vset = np.array([op.voltage_profile.get(b.id, 1.0) for b in grid.buses])

    v = vset.astype(complex).copy()
    v[~is_pv] = vset[~is_pv]  # PQ start at sampled magnitude, zero angle
    converged = False
    for _round in range(5):
        converged = False
        for _ in range(max_iter):
            max_dv = 0.0
            for i in range(n):
                if i == slack:
                    continue
                if is_pv[i]:
                    q_i = -(np.conj(v[i]) * (ybus[i] @ v)).imag
                    s = complex(p_spec[i], q_i)
                else:
                    s = complex(p_spec[i], q_spec[i])
                sigma = ybus[i] @ v - ybus[i, i] * v[i]
                v_new = (np.conj(s / v[i]) - sigma) / ybus[i, i]
                if is_pv[i]:
                    v_new = vset[i] * v_new / abs(v_new)
                max_dv = max(max_dv, abs(v_new - v[i]))
                v[i] = v_new
            if max_dv < tol:
                converged = True
                break
        if not converged:
            break
        switched = False
        for i in np.flatnonzero(is_pv):
            q_gen = (v[i] * np.conj(ybus[i] @ v)).imag + q_load[i]
            if q_gen > q_lim[i, 1] + 1e-9:
                q_spec[i] = q_lim[i, 1] - q_load[i]
                is_pv[i] = False
                switched = True
            elif q_gen < q_lim[i, 0] - 1e-9:
                q_spec[i] = q_lim[i, 0] - q_load[i]
                is_pv[i] = False
                switched = True
        if not switched:
            break
    vmag = {b.id: float(abs(v[idx[b.id]])) for b in grid.buses}
    vang = {b.id: float(np.angle(v[idx[b.id]])) for b in grid.buses}
    return vmag, vang, converged


def newton_pf_one(grid: GridModel, case, gen_p: np.ndarray):
    """One dispatch's polar Newton power flow, one solve at a time: the
    per-solve loop that ``feasibility.solve_many`` runs in lock step.

    Unlike the oracles above it shares the engine's numerics (its Jacobian,
    its network's generation terms and ``_solutions``), so that
    ``solve_many`` must match it bit for bit, in every round of PV->PQ
    switching and in how a solve breaks off (singular Jacobian, non-finite
    step, |V| <= 0.05)."""
    net = grid.network
    n = len(net.bus_ids)
    ybus = net.ybus
    q_load = case.q_load
    q_min, q_max = net.bus_q_min, net.bus_q_max
    is_pv = net.is_pv.copy()
    p_spec = np.bincount(net.gen_bus, gen_p / net.base_mva, n) - case.p_load
    q_spec = -q_load

    x0 = np.concatenate([np.zeros(n), case.vm])
    converged = False
    iterations = 0
    max_mismatch = math.inf
    for _round in range(5):
        x = x0.copy()
        va, vm = x[:n], x[n:]
        round_pv = is_pv.copy()
        pv, pq, pvpq, rc, s_rows = _unknowns(net, round_pv)
        spec = np.concatenate([p_spec[pvpq], q_spec[pq]])
        converged = False
        for it in range(1, PF_MAX_ITER + 1):
            v = vm * np.exp(1j * va)
            ibus = ybus @ v
            s_calc = v * np.conj(ibus)
            mism = spec - s_calc.view(float)[s_rows]
            max_mismatch = float(np.abs(mism).max()) if mism.size else 0.0
            iterations = it
            if max_mismatch < PF_TOL:
                converged = True
                break
            jac = power_jacobian(ybus, v, ibus)
            try:
                dx = np.linalg.solve(jac[rc[:, None], rc], mism)
            except np.linalg.LinAlgError:
                break
            if not np.isfinite(dx).all():
                break
            x[rc] += dx
            if (vm <= 0.05).any():
                break
        if not converged:
            break
        q_gen = s_calc.imag[pv] + q_load[pv]
        high = q_gen > q_max[pv] + 1e-9
        low = ~high & (q_gen < q_min[pv] - 1e-9)
        if not (high.any() or low.any()):
            break
        q_spec[pv[high]] = q_max[pv[high]] - q_load[pv[high]]
        q_spec[pv[low]] = q_min[pv[low]] - q_load[pv[low]]
        is_pv[pv[high | low]] = False

    return _solutions(net, [case], gen_p[None], vm[None], va[None], [converged],
                      [iterations], [max_mismatch], round_pv[None])[0]


def newton_step_trials(grid: GridModel, sol: PowerFlowSolution,
                       gen_p: np.ndarray, groups: list[int],
                       steps: list[float]) -> list[PowerFlowSolution]:
    """Predicted solutions of dispatch ``gen_p`` with ``gen_p[groups[c]]``
    moved to ``steps[c]``, one per trial ``c``: the repair's 1 MW trials of
    one point, one point at a time, as ``feasibility._trial_totals`` answers
    them for many points together.

    Each is one Newton step from ``sol``, the converged solution of
    ``gen_p``, on its PV/PQ split: the Jacobian at its voltages is factored
    once, with one right-hand side per trial that holds the step in the P
    row of the group's bus.  Their ``max_mismatch`` is not evaluated (nan).
    Raises ``np.linalg.LinAlgError`` if that Jacobian is singular.
    """
    net = grid.network
    n = len(net.bus_ids)
    _pv, _pq, pvpq, rc, _s_rows = _unknowns(net, sol.pv)
    x = np.concatenate([sol.va, sol.vm])
    jac = power_jacobian(net.ybus, sol.vm * np.exp(1j * sol.va))[rc[:, None], rc]
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
        trials += _solutions(net, [sol.case], trial[None], x_c[None, n:], x_c[None, :n],
                             [True], [1], [math.nan], sol.pv[None])
    return trials


def check_constraints_loop(solution, grid: GridModel) -> ConstraintReport:
    """Voltage-band, line-rating and generator-capability checks of one
    solution, one bus, line and group at a time in Python floats: the
    reference of each row of ``feasibility.check_constraints_many``.

    Magnitudes are reported in pu (voltages), MVA (line overloads) and MW /
    MVAr / power-factor units (group checks).
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


def violation_total(report: ConstraintReport, base_mva: float) -> float:
    """The repair's objective: violation magnitudes summed, with voltages
    already in pu and MVA/MW/MVAr scaled to pu by ``base_mva``."""
    tot = 0.0
    for cid, mag in report.violations:
        tot += mag / base_mva if cid.split("_")[0] in (
            "line", "pmin", "pmax", "qmin", "qmax") else mag
    return tot


def repair_one(grid: GridModel, op: OperatingPoint, cell, load_pf: float = DEFAULT_LOAD_PF,
               max_outer: int = REPAIR_MAX_OUTER):
    """The repair of one operating point as one loop, one power flow at a
    time: the reference of ``feasibility.adjust_many`` and
    ``adjust_to_feasible``, bit for bit.  Returns the repaired point, its
    solution and its verdict.

    Each iteration solves the iterate (``newton_pf_one``), checks it
    (``check_constraints_loop``, ``violation_total``), takes the 1 MW trial
    of each adjustable group (``newton_step_trials``), and tries three step
    lengths along the finite-difference gradient; the first one whose total
    is below the iterate's is the next iterate.  The repair gives up when a
    violated bus is out of the box's reach by the trials' voltages
    (``out_of_reach``).  The ``max_outer``-th iterate is the last.  A
    dispatch is solved at most once: a later request for it reads the memo.
    """
    net = grid.network
    case = pf_case(grid, op, load_pf)
    setpoints = case.gen_p
    non_slack = net.gen_bus != net.slack
    adjustable = np.flatnonzero(non_slack)
    p_min = net.gen_p_min[adjustable].tolist()
    p_max = net.gen_p_max[adjustable].tolist()
    p = setpoints.copy()
    p[adjustable] = np.clip(p[adjustable], p_min, p_max)

    def distance(dispatch: np.ndarray) -> float:
        return sum((a - b) ** 2 for a, b in zip(dispatch[non_slack].tolist(),
                                                 setpoints[non_slack].tolist()))

    solved: dict[tuple[float, ...], tuple] = {}

    def solve(dispatch: np.ndarray) -> tuple:
        key = tuple(dispatch.tolist())
        if key not in solved:
            sol = newton_pf_one(grid, case, dispatch)
            if sol.converged:
                rep = check_constraints_loop(sol, grid)
                solved[key] = violation_total(rep, grid.base_mva), sol, rep
            else:
                solved[key] = math.inf, sol, ConstraintReport([("pf_diverged", 1.0)])
        return solved[key]

    prev = math.inf
    for it in range(1, max_outer + 1):
        tot, sol, rep = solve(p)
        if rep.clean and sol.converged:
            adjusted = _apply_dispatch(grid, op, sol.gen_p)
            return adjusted, sol, classify(adjusted, sol, rep, cell, distance(p))
        if not sol.converged or not adjustable.size or it == max_outer:
            break
        if prev - tot < REPAIR_REL_STOP * max(prev, 1.0):
            break
        prev = tot
        # a forward 1 MW step unless the capability box forces a backward one
        moved, groups, steps = [], [], []
        for k, (i, p_i) in enumerate(zip(adjustable.tolist(), p[adjustable].tolist())):
            step = min(max(p_i + 1.0, p_min[k]), p_max[k])
            if step == p_i:
                step = max(p_i - 1.0, p_min[k])
                if step == p_i:
                    continue
            moved.append(k)
            groups.append(i)
            steps.append(step)
        try:
            trials = newton_step_trials(grid, sol, p, groups, steps)
        except np.linalg.LinAlgError:
            break
        grad = np.zeros(len(adjustable))
        trial_reps = [check_constraints_loop(trial, grid) for trial in trials]
        for k, i, step, t_rep in zip(moved, groups, steps, trial_reps):
            grad[k] = (violation_total(t_rep, grid.base_mva) - tot) / (step - p[i])
        gmax = float(np.abs(grad).max())
        if gmax <= 0:
            break
        bounds = [(p_min[k], p_max[k]) for k in moved]
        if out_of_reach(rep, trial_reps, p[groups].tolist(), steps, bounds):
            break
        scale = 0.05 * max(p_max) / gmax
        improved = False
        for alpha in (scale, scale / 4, scale / 16):
            trial = p.copy()
            trial[adjustable] = np.clip(p[adjustable] - alpha * grad, p_min, p_max)
            if solve(trial)[0] < tot:
                p = trial
                improved = True
                break
        if not improved:
            break
    adjusted = _apply_dispatch(grid, op, sol.gen_p if sol.converged else p)
    return adjusted, sol, FeasibilityVerdict(INFEASIBLE, rep.violations, distance(p))


def out_of_reach(rep: ConstraintReport, trial_reps: list, p: list[float],
                 steps: list[float], bounds: list[tuple]) -> bool:
    """The repair's voltage certificate of one iterate, one bus and group at
    a time: the reference of ``feasibility._out_of_reach``, bit for bit.

    ``rep`` is the iterate's report and ``trial_reps[c]`` that of the 1 MW
    trial moving a group from ``p[c]`` to ``steps[c]`` in its box
    ``bounds[c]``.  Each violated bus's magnitude gives a slope per trial,
    and its reach is the sum over the trials of the best box edge's gain;
    True when some violated bus has ``REPAIR_V_SAFETY * reach`` below its
    magnitude.
    """
    def band(report: ConstraintReport) -> dict[str, float]:
        return {cid: mag for cid, mag in report.violations if cid.startswith("v_")}

    trial_bands = [band(t) for t in trial_reps]
    for cid, mag in band(rep).items():
        reach = 0.0
        for p_c, step, (lo, hi), t_band in zip(p, steps, bounds, trial_bands):
            slope = (t_band.get(cid, 0.0) - mag) / (step - p_c)
            reach += max(-slope * (hi - p_c), -slope * (lo - p_c), 0.0)
        if REPAIR_V_SAFETY * reach < mag:
            return True
    return False


def dispatch_scan(grid: GridModel, op: OperatingPoint, levels: int) -> list[tuple]:
    """The power flows of ``levels`` dispatches spread evenly over the
    capability box of the grid's one adjustable (non-slack) group, the
    other groups at their sampled set points: per level, the dispatch, its
    solution (``newton_pf_one``) and its report (``check_constraints_loop``),
    ``None`` where the solve did not converge.  A box scan that does not
    depend on the repair's descent path."""
    net = grid.network
    (i,) = np.flatnonzero(net.gen_bus != net.slack).tolist()
    case = pf_case(grid, op)
    scan = []
    for level in np.linspace(net.gen_p_min[i], net.gen_p_max[i], levels).tolist():
        dispatch = case.gen_p.copy()
        dispatch[i] = level
        sol = newton_pf_one(grid, case, dispatch)
        scan.append((dispatch, sol, check_constraints_loop(sol, grid) if sol.converged
                     else None))
    return scan


def two_bus_closed_form(p_pu: float, x: float, v1: float = 1.0, v2: float = 1.0):
    """Closed-form solution of the lossless two-bus case.

    Slack at bus 1 (v1, angle 0); bus 2 held at magnitude v2 with a net
    active injection of -p_pu (a load).  Returns (theta2, q2_injection).
    """
    sin_d = -p_pu * x / (v1 * v2)
    theta2 = math.asin(sin_d)
    q2 = (v2 ** 2 - v1 * v2 * math.cos(theta2)) / x
    return theta2, q2


def smib_analytic_eigs(inertia_h: float, damping_d: float, k_s: float,
                       omega_b: float) -> np.ndarray:
    """Roots of 2H lambda^2 + D lambda + K_s omega_b = 0."""
    return np.roots([2.0 * inertia_h, damping_d, k_s * omega_b])


def voltage_walk(grid: GridModel, anchor_v: float, dev_bound: float,
                 rng: np.random.Generator) -> dict[int, float]:
    """``sampling.sample_voltage_profile`` with the adjacency and bus lookups
    rebuilt by scanning the grid on every call."""
    adjacency: dict[int, list[int]] = {b.id: [] for b in grid.buses}
    for ln in grid.lines:
        adjacency[ln.from_bus].append(ln.to_bus)
        adjacency[ln.to_bus].append(ln.from_bus)

    slack = next(b for b in grid.buses if b.kind == SLACK)
    profile: dict[int, float] = {}
    profile[slack.id] = min(max(anchor_v, slack.v_min), slack.v_max)
    frontier = [slack.id]
    while frontier:
        tentative: dict[int, list[float]] = {}
        for parent in sorted(frontier):
            for child in sorted(adjacency[parent]):
                if child in profile:
                    continue
                dev = rng.uniform(-dev_bound, dev_bound) if dev_bound > 0 else 0.0
                tentative.setdefault(child, []).append(profile[parent] + dev)
        frontier = []
        for child in sorted(tentative):
            bus = next(b for b in grid.buses if b.id == child)
            v = float(np.mean(tentative[child]))
            profile[child] = min(max(v, bus.v_min), bus.v_max)
            frontier.append(child)
    return profile


def disaggregate_gaussian(target: float, lo: np.ndarray, hi: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Gaussian allocation centered at the bound-scaled means.

    Means are lo + f*(hi-lo) with f the fractional position of the target
    between the bound sums; sigma spans a sixth of each range.  Values are
    clamped to the bounds and the offsets (x - lo) proportionally rescaled
    until the sum matches the target.
    """
    span = float((hi - lo).sum())
    if span <= 0:
        return lo.astype(float).copy()
    f = (target - float(lo.sum())) / span
    mean = lo + f * (hi - lo)
    sigma = (hi - lo) / 6.0
    x = np.clip(rng.normal(mean, sigma), lo, hi)
    want = target - float(lo.sum())
    for _ in range(100):
        got = float((x - lo).sum())
        if got <= 0:
            x = mean.copy()
            got = float((x - lo).sum())
        x = lo + (x - lo) * (want / got)
        over = x > hi
        if not over.any() and abs(float(x.sum()) - target) <= 1e-9 * max(1.0, abs(target)):
            break
        x = np.clip(x, lo, hi)
    return x


def tree_predict(tree: Tree, x: np.ndarray) -> np.ndarray:
    """One tree's predictions, every row stepped down level by level."""
    node = np.zeros(len(x), dtype=np.intp)
    rows = np.arange(len(x))
    for _ in range(tree.depth):
        go_left = x[rows, tree.feature[node]] <= tree.threshold[node]
        node = np.where(go_left, tree.left[node], tree.right[node])
    return tree.prediction[node]


class ReferenceForest:
    """Breadth-first CART forest: the package's forest, one node at a time.

    The package grows all trees level by level in lock step from sorted
    keys; this is the plain form of the same random contract: one draw of
    every bootstrap, then per level one key draw for the level's splittable
    nodes in (tree, left-to-right) order, each node scored by one stable
    argsort per candidate feature.  Equal importance bytes and predictions
    show that the lock-step growth keeps every split and every draw.
    """

    class Node:
        def __init__(self, prediction):
            self.feature = -1
            self.threshold = 0.0
            self.left = None
            self.right = None
            self.prediction = prediction

    def __init__(self, x, y, n_trees=100, max_depth=8, seed=0):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=int)
        n, d = x.shape
        n_sub = max(1, int(round(np.sqrt(d))))
        rng = np.random.default_rng(seed)
        boot = rng.integers(0, n, (n_trees, n))
        imps = np.zeros((n_trees, d))
        self.trees = [self._leaf(y[b]) for b in boot]
        level = [(t, root, b) for t, (root, b) in enumerate(zip(self.trees, boot))]
        for _ in range(max_depth):
            level = [(t, nd, idx) for t, nd, idx in level
                     if 0 < y[idx].sum() < len(idx)]
            keys = rng.random((len(level), d))
            nxt = []
            for (t, nd, idx), key in zip(level, keys):
                features = np.sort(np.argsort(key, kind="stable")[:n_sub])
                best = self._best_split(x[idx], y[idx], features)
                if best is None:
                    continue
                f, thr, gain = best
                imps[t, f] += gain * len(idx) / n
                mask = x[idx, f] <= thr
                nd.feature, nd.threshold = f, thr
                nd.left, nd.right = self._leaf(y[idx[mask]]), self._leaf(y[idx[~mask]])
                nxt += [(t, nd.left, idx[mask]), (t, nd.right, idx[~mask])]
            level = nxt
        raw = np.zeros(d)
        for imp in imps:
            tot = imp.sum()
            raw += imp / tot if tot > 0 else imp
        total = raw.sum()
        self.importances = raw / total if total > 0 else np.full(d, 1.0 / d)

    @classmethod
    def _leaf(cls, y):
        return cls.Node(int(np.argmax(np.bincount(y, minlength=2))))

    @staticmethod
    def _gini(counts):
        n = counts.sum()
        if n == 0:
            return 0.0
        p = counts / n
        return float(1.0 - (p * p).sum())

    @classmethod
    def _best_split(cls, x, y, features):
        n = len(y)
        parent = cls._gini(np.bincount(y, minlength=2))
        best = None
        best_gain = 1e-12
        for f in features:
            order = np.argsort(x[:, f], kind="stable")
            xs = x[order, f]
            ys = y[order]
            ones_left = np.cumsum(ys)[:-1]
            n_left = np.arange(1, n)
            n_right = n - n_left
            ones_right = ones_left[-1] + ys[-1] - ones_left
            valid = xs[1:] > xs[:-1]
            if not valid.any():
                continue
            p1l = ones_left / n_left
            p1r = ones_right / n_right
            gini_l = 1.0 - p1l ** 2 - (1.0 - p1l) ** 2
            gini_r = 1.0 - p1r ** 2 - (1.0 - p1r) ** 2
            gain = parent - (n_left * gini_l + n_right * gini_r) / n
            gain[~valid] = -1.0
            k = int(np.argmax(gain))
            if gain[k] > best_gain:
                best_gain = float(gain[k])
                best = (int(f), float(0.5 * (xs[k] + xs[k + 1])), best_gain)
        return best

    def predict(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        votes = np.zeros(len(x))
        for tree in self.trees:
            out = np.empty(len(x), dtype=int)
            stack = [(tree, np.arange(len(x)))]
            while stack:
                nd, idx = stack.pop()
                if nd.left is None:
                    out[idx] = nd.prediction
                    continue
                mask = x[idx, nd.feature] <= nd.threshold
                stack.append((nd.left, idx[mask]))
                stack.append((nd.right, idx[~mask]))
            votes += out
        return (votes * 2 > len(self.trees)).astype(int)


def reference_kfold(x, y, k=5, n_trees=100, max_depth=8, seed=0):
    """Stratified k-fold accuracy (mean, std) of ``ReferenceForest``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    classes = np.unique(y)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for c in classes:
        idx = np.flatnonzero(y == c)
        rng.shuffle(idx)
        for i, j in enumerate(idx):
            folds[i % k].append(int(j))
    accs = []
    for i in range(k):
        test = np.array(sorted(folds[i]))
        train = np.array(sorted(j for f in folds for j in f if f is not folds[i]))
        model = ReferenceForest(x[train], y[train], n_trees, max_depth, seed + 1 + i)
        accs.append(float(np.mean(model.predict(x[test]) == y[test])))
    return float(np.mean(accs)), float(np.std(accs))
