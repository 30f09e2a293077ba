import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from stabgen import smallsignal
from stabgen.feasibility import pf_case, solve_pf
from stabgen.grid import (Bus, GenGroup, GridModel, Line, Load, PV, SG, SLACK,
                          fixture_3bus, fixture_9bus, power_jacobian)
from stabgen.sampling import hierarchical_sample
from stabgen.smallsignal import (DynUnit, GfolParams,
                                 GforParams, KIND_GFOL, KIND_GFOR, KIND_SG,
                                 LinearizationError, OMEGA_BASE,
                                 SgParams, StateSpaceModel, admittance_scan,
                                 aggregate_ibrs, build_units, eig_stability,
                                 linearize, terminal_model)
from stabgen.space import OperatingPoint, build_space

from oracles import smib_analytic_eigs


def _smib_setup(h=4.0, d=1.5, x=0.1, p=60.0):
    """Machine at bus 2 against a statically modeled source at the slack."""
    grid = GridModel(
        buses=(Bus(1, SLACK, 0.9, 1.1), Bus(2, PV, 0.9, 1.1)),
        lines=(Line(1, 2, 0.0, x, 0.0, 500.0),),
        gen_groups=(GenGroup(1, SG, 300.0, 0.95), GenGroup(2, SG, 100.0, 0.95)),
        loads=(Load(1, 1.0),),
    )
    op = OperatingPoint({}, {"P_SG_1": 150.0, "P_SG_2": p, "P_L_1": 200.0},
                        {1: 1.0, 2: 1.0})
    sol = solve_pf(grid, pf_case(grid, op, load_pf=1.0))
    assert sol.converged
    g2 = grid.gen_groups[1]
    units = [DynUnit(KIND_SG, 2, SgParams(h, d, droop_r=None), g2.s_rated, p)]
    ssm = linearize(grid, sol, units)
    k_s = (sol.vm[0] * sol.vm[1] * math.cos(sol.va[1] - sol.va[0]) / x  # buses 1, 2
           * grid.base_mva / g2.s_rated)
    return grid, sol, ssm, k_s


def test_smib_matches_analytic_roots():
    _, _, ssm, k_s = _smib_setup()
    assert ssm.has_reference
    assert ssm.n == 2
    eig = np.sort_complex(np.linalg.eigvals(ssm.a_matrix))
    ana = np.sort_complex(smib_analytic_eigs(4.0, 1.5, k_s, OMEGA_BASE))
    assert np.max(np.abs(eig - ana)) < 1e-8


def test_smib_matches_finite_difference_jacobian():
    h, d, x, p = 4.0, 1.5, 0.1, 60.0
    grid, sol, ssm, _ = _smib_setup(h, d, x, p)
    g2 = grid.gen_groups[1]
    v1, v2 = sol.vm[0], sol.vm[1]
    delta0 = sol.va[1] - sol.va[0]
    p_m = v1 * v2 * math.sin(delta0) / x * grid.base_mva / g2.s_rated

    def rhs(state):
        delta, domega = state
        p_e = v1 * v2 * math.sin(delta) / x * grid.base_mva / g2.s_rated
        return np.array([OMEGA_BASE * domega,
                         (p_m - p_e - d * domega) / (2 * h)])

    x0 = np.array([delta0, 0.0])
    step = 1e-6
    fd = np.zeros((2, 2))
    for k in range(2):
        dx = np.zeros(2)
        dx[k] = step
        fd[:, k] = (rhs(x0 + dx) - rhs(x0 - dx)) / (2 * step)
    assert np.max(np.abs(fd - ssm.a_matrix)) < 1e-6


def _mixed_op(pct_gfm=0.5):
    grid = fixture_3bus()
    p_sg, p_ibr = 100.0, 150.0
    load = 0.97 * (p_sg + p_ibr)
    gfm = pct_gfm * p_ibr
    varv = {"P_SG_1": p_sg, "P_IBR_2": p_ibr, "P_GFM_2": gfm,
            "P_GFL_2": p_ibr - gfm, "P_L_3": load}
    return grid, OperatingPoint({}, varv, {1: 1.0, 2: 1.0, 3: 1.0})


def _mixed_case(pct_gfm=0.5, tau_w=0.1, tau_u=0.1):
    grid, op = _mixed_op(pct_gfm)
    sol = solve_pf(grid, pf_case(grid, op))
    assert sol.converged
    units = build_units(grid, op,
                        gfor_params=GforParams(tau_u=tau_u, tau_w=tau_w),
                        gfol_params=GfolParams(tau_u=tau_u, tau_w=tau_w))
    ssm = linearize(grid, sol, units)
    return ssm


def test_linearize_follows_the_solved_load_model():
    grid, op = _mixed_op()
    units = build_units(grid, op)
    sols = [solve_pf(grid, pf_case(grid, op, load_pf)) for load_pf in (1.0, 0.9)]
    assert all(sol.converged for sol in sols)
    unity, lagging = (linearize(grid, sol, units).a_matrix for sol in sols)
    assert not np.allclose(unity, lagging)
    # At the lagging point's voltages, the unity-factor loads alone change A:
    # the loads' reactive power reaches the linearization through the solution.
    swapped = replace(sols[1], case=sols[0].case)
    assert not np.allclose(linearize(grid, swapped, units).a_matrix, lagging)


def test_gfol_voltage_droop_column_is_pinned():
    # A recorded pin until an independent oracle of the model equations
    # exists: the column of the grid-following unit's Q/V-droop filter state
    # in A, on the mixed 3-bus point with all IBR grid-following.  Its
    # Q = -k_v wfilt injection reaches the SG's speed and the PLL through
    # the network closure, and the filter through the terminal voltage; a
    # flipped droop sign flips each entry.  The relative tolerance leaves
    # room for a power flow that lands elsewhere within its own tolerance.
    grid, op = _mixed_op(0.0)
    sol = solve_pf(grid, pf_case(grid, op))
    assert sol.converged
    ssm = linearize(grid, sol, build_units(grid, op))
    column = ssm.a_matrix[:, ssm.labels.index(("GFOL_2", "wfilt"))]
    got = {label: value for label, value in zip(ssm.labels, column.tolist()) if value}
    assert got == pytest.approx({
        ("SG_1", "domega"): 7.5050713746726977e-02,
        ("GFOL_2", "pll_phase"): 8.3085137171246721,
        ("GFOL_2", "pll_int"): 149.55324690824409,
        ("GFOL_2", "wfilt"): -16.768421416663116,
    }, rel=1e-6)


def test_load_admittance_matches_a_per_load_loop():
    # Reference: each load's conj(S) / |V|^2 added to its diagonal entry in
    # turn, with S = P + jP tan(acos(load_pf)) in pu.  No bus is eliminated,
    # so the reduced Jacobian is the full one of the loaded admittance matrix.
    grid = fixture_9bus()
    cell = build_space(grid, [("tau_u", 0.01, 1.0)]).root_cell()
    load_pf = 0.9
    tan_phi = math.tan(math.acos(load_pf))
    idx = grid.bus_index
    solved = 0
    for op in hierarchical_sample(cell, 10, 1, grid, seed=7):
        sol = solve_pf(grid, pf_case(grid, op, load_pf))
        if not sol.converged:
            continue
        vm, va = sol.vm.tolist(), sol.va.tolist()
        y = grid.network.ybus.copy()
        for ld in grid.loads:
            i = idx[ld.bus]
            mw = op.var_values[f"P_L_{ld.bus}"]
            y[i, i] += np.conj(complex(mw, mw * tan_phi) / grid.base_mva) / vm[i] ** 2
        v = np.array([m * cmath.exp(1j * a) for m, a in zip(vm, va)])
        jac = smallsignal._reduced_jacobian(grid, sol, [b.id for b in grid.buses])
        assert np.array_equal(jac, power_jacobian(y, v))
        solved += 1
    assert solved


def test_eigenvalues_in_conjugate_pairs():
    ssm = _mixed_case()
    eig = np.linalg.eigvals(ssm.a_matrix)
    complex_modes = eig[np.abs(eig.imag) > 1e-10]
    remaining = list(complex_modes)
    while remaining:
        lam = remaining.pop()
        match = min(remaining, key=lambda m: abs(m - np.conj(lam)))
        assert abs(match - np.conj(lam)) < 1e-10
        remaining.remove(match)


def test_zero_mode_deflated_without_reference():
    ssm = _mixed_case()
    assert not ssm.has_reference  # SG and converters are all modeled
    eig = np.linalg.eigvals(ssm.a_matrix)
    assert np.min(np.abs(eig)) < 1e-5  # structural rotation mode
    verdict = eig_stability(ssm)
    assert len(verdict.eigenvalues) == ssm.n - 1
    assert np.min(np.abs(verdict.eigenvalues)) > 1e-5


def test_marginal_mode_counts_unstable():
    ssm = StateSpaceModel(np.array([[0.0]]), [("SG_1", "delta")], True)
    verdict = eig_stability(ssm)
    assert not verdict.stable
    assert verdict.max_real == pytest.approx(0.0)


def test_strictly_damped_is_stable():
    a = np.diag([-1.0, -2.0, -0.5])
    ssm = StateSpaceModel(a, [("u", f"x{i}") for i in range(3)], True)
    verdict = eig_stability(ssm)
    assert verdict.stable
    assert verdict.max_real == pytest.approx(-0.5)
    freq, damping = verdict.dominant_mode
    assert freq == 0.0 and damping == pytest.approx(1.0)


def test_slow_q_filter_destabilizes():
    """Widening the Q-filter time constant eventually pushes the dominant
    mode above the stability margin; the flip is monotone and locatable."""
    reals = [eig_stability(_mixed_case(1.0, tau_w=tw)).max_real
             for tw in (0.1, 1.0, 10.0, 1e3, 1e5, 1e7)]
    assert all(a < b for a, b in zip(reals, reals[1:]))
    lo, hi = 0.1, 1e7
    assert eig_stability(_mixed_case(1.0, tau_w=lo)).stable
    assert not eig_stability(_mixed_case(1.0, tau_w=hi)).stable
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        if eig_stability(_mixed_case(1.0, tau_w=mid)).stable:
            lo = mid
        else:
            hi = mid
    assert hi / lo < 1.001
    assert eig_stability(_mixed_case(1.0, tau_w=lo)).stable
    assert not eig_stability(_mixed_case(1.0, tau_w=hi)).stable


def test_linearize_rejects_empty_and_conflicting_units():
    grid, sol, _, _ = _smib_setup()
    with pytest.raises(LinearizationError):
        linearize(grid, sol, [])
    two = [DynUnit(KIND_SG, 2, SgParams(4.0, 1.5), 100.0, 50.0),
           DynUnit(KIND_GFOR, 2, GforParams(), 100.0, 50.0)]
    with pytest.raises(LinearizationError):
        linearize(grid, sol, two)
    # the first forming bus is fine, and the conflict is at a later one
    grid = fixture_9bus()
    cell = build_space(grid, [("tau_u", 0.01, 1.0)]).root_cell()
    sol = next(s for s in (solve_pf(grid, pf_case(grid, op))
                           for op in hierarchical_sample(cell, 10, 1, grid, seed=7))
               if s.converged)
    later = [DynUnit(KIND_SG, 1, SgParams(4.0, 1.5), 100.0, 50.0),
             DynUnit(KIND_SG, 6, SgParams(4.0, 1.5), 100.0, 50.0),
             DynUnit(KIND_GFOR, 6, GforParams(), 100.0, 50.0)]
    with pytest.raises(LinearizationError, match="^bus 6: more than one voltage-forming"):
        linearize(grid, sol, later)


def test_param_validation():
    with pytest.raises(ValueError):
        SgParams(inertia_h=-1.0, damping_d=1.0)
    with pytest.raises(ValueError):
        SgParams(inertia_h=3.0, damping_d=1.0, droop_r=0.0)
    SgParams(inertia_h=3.0, damping_d=-0.5)  # negative damping allowed
    with pytest.raises(ValueError):
        GfolParams(k_f=0.0)
    with pytest.raises(ValueError):
        GforParams(tau_w=-0.1)


def test_build_units_split_and_thresholds():
    grid = fixture_3bus()
    varv = {"P_SG_1": 100.0, "P_IBR_2": 150.0, "P_GFM_2": 60.0,
            "P_GFL_2": 90.0, "P_L_3": 242.5}
    op = OperatingPoint({}, varv, {})
    units = build_units(grid, op)
    kinds = {u.uid: u for u in units}
    assert set(kinds) == {"SG_1", "GFOR_2", "GFOL_2"}
    ibr = grid.gen_groups[1]
    assert kinds["GFOR_2"].s_rated == pytest.approx(ibr.s_rated * 60.0 / 150.0)
    assert kinds["GFOL_2"].s_rated == pytest.approx(ibr.s_rated * 90.0 / 150.0)
    # all-GFM point produces no follower unit; offline SG drops out
    varv2 = {"P_SG_1": 0.0, "P_IBR_2": 150.0, "P_GFM_2": 150.0,
             "P_GFL_2": 0.0, "P_L_3": 145.5}
    units2 = build_units(grid, OperatingPoint({}, varv2, {}))
    assert [u.uid for u in units2] == ["GFOR_2"]


# -- terminal models and aggregation ------------------------------------------

def _freq_grid():
    return np.logspace(0.0, 3.0, 61)  # 1 Hz .. 1 kHz


@pytest.mark.parametrize("mode,params", [
    ("GFOR", GforParams()), ("GFOL", GfolParams())])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_aggregation_matches_parallel_sum(mode, params, n):
    single = DynUnit(mode, 2, params, 80.0, 50.0)
    agg = aggregate_ibrs([single] * n)
    assert agg.s_rated == pytest.approx(n * 80.0)
    assert agg.p_mw == pytest.approx(n * 50.0)
    y_agg = admittance_scan(terminal_model(agg), _freq_grid())
    y_one = admittance_scan(terminal_model(single), _freq_grid())
    mask = np.isfinite(y_agg) & np.isfinite(y_one)
    assert mask.sum() > 50
    assert np.max(np.abs(y_agg[mask] - n * y_one[mask])) < 1e-8


def test_modes_have_distinct_signatures():
    freqs = _freq_grid()
    y_for = admittance_scan(terminal_model(DynUnit("GFOR", 2, GforParams(),
                                                   100.0, 60.0)), freqs)
    y_fol = admittance_scan(terminal_model(DynUnit("GFOL", 2, GfolParams(),
                                                   100.0, 60.0)), freqs)
    mask = np.isfinite(y_for) & np.isfinite(y_fol)
    assert np.max(np.abs(y_for[mask] - y_fol[mask])) > 1e-3


def test_aggregate_rejects_mixed_inputs():
    a = DynUnit("GFOR", 2, GforParams(), 80.0, 50.0)
    b = DynUnit("GFOL", 2, GfolParams(), 80.0, 50.0)
    with pytest.raises(ValueError):
        aggregate_ibrs([a, b])
    c = DynUnit("GFOR", 2, GforParams(tau_w=0.2), 80.0, 50.0)
    with pytest.raises(ValueError):
        aggregate_ibrs([a, c])
    with pytest.raises(ValueError):
        aggregate_ibrs([])


@pytest.mark.parametrize("s_rated, p_mw", [(80.0, 50.0), (100.0, 5.0), (250.0, 240.0)])
def test_terminal_models_match_their_closed_form_dc_gain(s_rated, p_mw):
    # Y(0) = d - c a^-1 b.  At DC the grid-following PLL and power loop settle
    # at zero and the voltage droop is left: Y(0) = -j k_v S/S_base.  The
    # grid-forming theta integrates pfilt, so the electrical P is 0, qfilt = Q
    # and E = -k_q Q; the branch through X_C to the 1 pu terminal, with
    # t = tan(theta0) = p0 X_C, then gives Y(0) = j S/S_base (t^2 - 1) /
    # (X_C + k_q sqrt(1 + t^2)).
    scale = s_rated / 100.0
    t = p_mw / s_rated * smallsignal.X_C
    assert smallsignal.V_T0 == 1.0
    for kind, prm in ((KIND_GFOL, GfolParams()), (KIND_GFOL, GfolParams(k_v=2.0, pll_kp=20.0)),
                      (KIND_GFOR, GforParams()), (KIND_GFOR, GforParams(k_q=0.2, k_p=3.0))):
        model = terminal_model(DynUnit(kind, 2, prm, s_rated, p_mw))
        y0 = model.d - model.c @ np.linalg.solve(model.a, model.b)
        if kind == KIND_GFOL:
            want = -1j * prm.k_v * scale
        else:
            want = 1j * scale * (t * t - 1.0) / (smallsignal.X_C + prm.k_q * math.hypot(1.0, t))
        assert abs(y0 - want) < 1e-12 * abs(want)


def test_scan_marks_singular_frequencies():
    prm = GfolParams()
    model = terminal_model(DynUnit("GFOL", 2, prm, 100.0, 60.0))
    eigs = np.linalg.eigvals(model.a)
    osc = eigs[np.abs(eigs.imag) > 1e-9]
    if osc.size:
        f_sing = abs(osc[0].imag) / (2 * math.pi)
        y = admittance_scan(model, np.array([f_sing]))
        # only singular when the mode sits exactly on the imaginary axis
        assert np.isnan(y[0]) == (abs(osc[0].real) < 1e-12)
    y = admittance_scan(model, np.array([123.456]))
    assert np.isfinite(y[0])
