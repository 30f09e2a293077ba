import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabgen.grid import (Bus, GenGroup, GridError, GridModel, Line, Load,
                          build_admittance, capability_limits, export_tables,
                          fixture_3bus, fixture_9bus, get_fixture, load_grid,
                          power_jacobian)

from oracles import admittance_loop, dense_power_jacobian


def test_capability_limits_reference_values():
    s, p_min, p_max, q_min, q_max = capability_limits(100.0, 0.95)
    assert s == pytest.approx(105.263, abs=1e-3)
    assert p_min == pytest.approx(21.053, abs=1e-3)
    assert p_max == 100.0
    assert q_max == pytest.approx(32.868, abs=1e-3)
    assert q_min == -q_max


def test_capability_limits_unity_pf():
    s, p_min, p_max, q_min, q_max = capability_limits(50.0, 1.0)
    assert s == 50.0
    assert q_max == 0.0 == q_min
    assert p_min == 10.0


@pytest.mark.parametrize("p_nom,cos_phi", [(0.0, 0.95), (-5.0, 0.95),
                                           (100.0, 0.0), (100.0, 1.5),
                                           (100.0, 0.15), (100.0, 0.2)])
def test_capability_limits_rejects_bad_inputs(p_nom, cos_phi):
    with pytest.raises(GridError):
        capability_limits(p_nom, cos_phi)


def test_gen_group_derived_fields():
    g = GenGroup(bus=1, tech="SG", p_nom=300.0, cos_phi=0.95)
    assert g.s_rated == pytest.approx(300.0 / 0.95)
    assert g.p_min == pytest.approx(0.2 * g.s_rated)
    assert g.q_max == pytest.approx(g.s_rated * math.sin(math.acos(0.95)))
    assert g.name == "SG_1"


def test_grid_requires_single_slack():
    buses = (Bus(1, "PV", 0.95, 1.05), Bus(2, "PQ", 0.95, 1.05))
    with pytest.raises(GridError, match="slack"):
        GridModel(buses, (Line(1, 2, 0.01, 0.1, 0.0, 100.0),),
                  (GenGroup(1, "SG", 100.0, 0.95),), (Load(2, 1.0),))


@pytest.mark.parametrize("kind_2, kind_3, bad", [
    ("PQ", "PQ", 2),  # bus 2 hosts a group, so the power flow makes it PV
    ("PV", "PV", 3),  # bus 3 hosts none, so the power flow makes it PQ
])
def test_grid_rejects_a_bus_kind_the_power_flow_ignores(kind_2, kind_3, bad):
    lines = (Line(1, 2, 0.01, 0.1, 0.0, 100.0), Line(2, 3, 0.01, 0.1, 0.0, 100.0))
    groups = (GenGroup(1, "SG", 100.0, 0.95), GenGroup(2, "IBR", 100.0, 0.95))

    def grid(kind_2, kind_3):
        buses = (Bus(1, "Slack", 0.95, 1.05), Bus(2, kind_2, 0.95, 1.05),
                 Bus(3, kind_3, 0.95, 1.05))
        return GridModel(buses, lines, groups, (Load(3, 1.0),))

    with pytest.raises(GridError, match=f"bus {bad}: declared"):
        grid(kind_2, kind_3)
    grid("PV", "PQ")


def test_grid_rejects_disconnected():
    buses = (Bus(1, "Slack", 0.95, 1.05), Bus(2, "PQ", 0.95, 1.05),
             Bus(3, "PQ", 0.95, 1.05))
    with pytest.raises(GridError):
        GridModel(buses, (Line(1, 2, 0.01, 0.1, 0.0, 100.0),),
                  (GenGroup(1, "SG", 100.0, 0.95),), (Load(2, 1.0),))


def test_grid_rejects_bad_participation():
    buses = (Bus(1, "Slack", 0.95, 1.05), Bus(2, "PQ", 0.95, 1.05))
    with pytest.raises(GridError):
        GridModel(buses, (Line(1, 2, 0.01, 0.1, 0.0, 100.0),),
                  (GenGroup(1, "SG", 100.0, 0.95),),
                  (Load(2, 0.4), Load(1, 0.4)))


def test_grid_rejects_two_loads_at_one_bus():
    buses = (Bus(1, "Slack", 0.95, 1.05), Bus(2, "PQ", 0.95, 1.05),
             Bus(3, "PQ", 0.95, 1.05))
    lines = (Line(1, 2, 0.01, 0.1, 0.0, 100.0), Line(2, 3, 0.01, 0.1, 0.0, 100.0))
    with pytest.raises(GridError, match="more than one load at bus 3"):
        GridModel(buses, lines, (GenGroup(1, "SG", 100.0, 0.95),),
                  (Load(3, 0.5), Load(3, 0.5)))


def test_line_validation():
    with pytest.raises(GridError):
        Line(1, 1, 0.01, 0.1, 0.0, 100.0)
    with pytest.raises(GridError):
        Line(1, 2, 0.01, 0.0, 0.0, 100.0)


def test_fixture_3bus_shape():
    g = fixture_3bus()
    assert len(g.buses) == 3
    assert len(g.gen_groups) == 2
    techs = {gr.tech for gr in g.gen_groups}
    assert techs == {"SG", "IBR"}
    assert sum(ld.participation for ld in g.loads) == pytest.approx(1.0)


def test_fixture_9bus_shape():
    g = fixture_9bus()
    assert len(g.buses) == 9
    assert len(g.groups_of("SG")) == 3
    assert len(g.groups_of("IBR")) == 2
    assert len(g.loads) == 3
    assert sum(ld.participation for ld in g.loads) == pytest.approx(1.0)


def test_get_fixture_unknown_name():
    with pytest.raises(GridError):
        get_fixture("42bus")


def test_admittance_symmetry_and_row_sums():
    g = fixture_9bus()
    y = build_admittance(g)
    assert np.allclose(y, y.T)
    # without shunts the rows of the series part sum to the shunt terms only
    assert y.shape == (9, 9)


@st.composite
def _grids(draw):
    """A fixture, or a random connected grid of 1 to 7 buses with unsorted,
    non-contiguous ids, a spanning tree of lines plus extra ones that may
    run parallel to others, and no lines at all on one bus."""
    kind = draw(st.sampled_from(["3bus", "9bus", "random"]))
    if kind != "random":
        return get_fixture(kind)
    ids = draw(st.lists(st.integers(1, 99), min_size=1, max_size=7, unique=True))
    slack = draw(st.sampled_from(ids))
    buses = tuple(Bus(i, "Slack" if i == slack else "PQ", 0.9, 1.1) for i in ids)
    ends = [(ids[k], draw(st.sampled_from(ids[:k]))) for k in range(1, len(ids))]
    if len(ids) > 1:
        ends += draw(st.lists(st.permutations(ids).map(lambda p: tuple(p[:2])),
                              max_size=6))
    ends = draw(st.permutations(ends))
    value = st.floats(-2.0, 2.0)
    reactance = st.floats(1e-3, 2.0) | st.floats(-2.0, -1e-3)  # a finite 1 / (r + jx)
    lines = tuple(Line(i, j, draw(value), draw(reactance), draw(value), 100.0)
                  for i, j in ends)
    return GridModel(buses, lines, (), ())


@settings(max_examples=200, deadline=None)
@given(_grids())
def test_admittance_matrix_equals_line_loop(grid):
    # the compiled Y is bit-equal to the pi models added line by line, and
    # build_admittance hands out a writable copy of it
    assert grid.network.ybus.tobytes() == admittance_loop(grid).tobytes()
    y = build_admittance(grid)
    assert y.tobytes() == grid.network.ybus.tobytes()
    y += 1.0
    assert grid.network.ybus.tobytes() == admittance_loop(grid).tobytes()


def test_csv_round_trip(tmp_path):
    g = fixture_9bus()
    export_tables(g, tmp_path)
    g2 = load_grid(tmp_path)
    assert g2 == g


def test_load_grid_missing_table(tmp_path):
    with pytest.raises((GridError, OSError)):
        load_grid(tmp_path / "nowhere")


@pytest.mark.parametrize("fixture", [fixture_3bus, fixture_9bus])
def test_power_jacobian_matches_central_differences(fixture):
    y = build_admittance(fixture())
    n = y.shape[0]
    rng = np.random.default_rng(3)
    vm = rng.uniform(0.9, 1.1, n)
    va = rng.uniform(-0.3, 0.3, n)

    def power(vm, va):
        v = vm * np.exp(1j * va)
        s = v * np.conj(y @ v)
        return np.concatenate([s.real, s.imag])

    h = 1e-6
    fd = np.empty((2 * n, 2 * n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        fd[:, k] = (power(vm, va + e) - power(vm, va - e)) / (2 * h)
        fd[:, n + k] = (power(vm + e, va) - power(vm - e, va)) / (2 * h)
    # all four blocks [[dP/dtheta, dP/d|V|], [dQ/dtheta, dQ/d|V|]] at once
    np.testing.assert_allclose(power_jacobian(y, vm * np.exp(1j * va)), fd,
                               rtol=1e-6, atol=1e-6)


@st.composite
def _admittances_and_voltages(draw):
    """A fixture's Y, or a random complex symmetric one of 1 to 8 buses with
    some branches missing, and random bus voltages."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["3bus", "9bus", "random"]))
    if kind == "random":
        n = draw(st.integers(1, 8))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        y = a + a.T
        cut = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 0.8)), 1)
        y[cut | cut.T] = 0.0
    else:
        y = get_fixture(kind).network.ybus
    n = len(y)
    vm = rng.uniform(0.5, 1.5, n)
    va = rng.uniform(-math.pi, math.pi, n)
    return y, vm * np.exp(1j * va)


@settings(max_examples=200, deadline=None)
@given(_admittances_and_voltages())
def test_power_jacobian_matches_dense_oracle(case):
    # An entry that cancels to about zero carries the rounding of its terms,
    # so the bound is relative to the largest entry as well as elementwise.
    y, v = case
    expected = dense_power_jacobian(y, v)
    np.testing.assert_allclose(power_jacobian(y, v), expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())
