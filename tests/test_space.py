import re

import pytest
from hypothesis import given, strategies as st

from stabgen.grid import fixture_3bus, fixture_9bus
from stabgen.space import (Subregion, ToleranceFloorError, build_space,
                           contains_values, split, P_D, P_IBR, P_SG, PCT_GFM,
                           V_ANCHOR)

CONTROL = [("tau_u", 0.01, 1.0), ("tau_w", 0.01, 1.0)]


def test_build_space_3bus():
    space = build_space(fixture_3bus(), CONTROL)
    indep = [d.name for d in space.independent]
    assert indep == [P_SG, P_IBR, PCT_GFM, V_ANCHOR, "tau_u", "tau_w"]
    assert space.dimension(P_D).kind == "Dependent"
    assert space.variables == ("P_SG_1", "P_IBR_2", "P_GFM_2", "P_GFL_2", "P_L_3")


def test_build_space_9bus_counts():
    space = build_space(fixture_9bus(), CONTROL)
    assert len(space.independent) == 6
    assert len(space.variables) == 12  # 3 SG + 2 IBR + 2 GFM + 2 GFL + 3 loads


def test_build_space_dimension_bounds():
    g = fixture_3bus()
    space = build_space(g, CONTROL)
    sg = space.dimension(P_SG)
    assert sg.lo == pytest.approx(sum(gr.p_min for gr in g.groups_of("SG")))
    assert sg.hi == pytest.approx(sum(gr.p_max for gr in g.groups_of("SG")))
    assert space.dimension(PCT_GFM).lo == 0.0
    assert space.dimension(PCT_GFM).hi == 1.0
    slack = g.slack_bus
    va = space.dimension(V_ANCHOR)
    assert (va.lo, va.hi) == (slack.v_min, slack.v_max)


def _cell(lo=0.0, hi=100.0):
    bounds = {"P_SG": (lo, hi)}
    return Subregion(bounds=bounds, initial=bounds, depth=0, path="R")


def test_split_midpoint():
    l, h = split(_cell(), "P_SG", 0.01)
    assert l.bounds["P_SG"] == (0.0, 50.0)
    assert h.bounds["P_SG"] == (50.0, 100.0)
    assert l.depth == h.depth == 1
    assert l.path == "R.P_SG_L"
    assert h.path == "R.P_SG_H"


def test_split_tolerance_floor():
    cell = _cell()
    # shrink to 0.9 % of the initial range
    small = Subregion({"P_SG": (0.0, 0.9)}, cell.initial, 7, "R.x")
    with pytest.raises(ToleranceFloorError):
        split(small, "P_SG", 0.01)


def test_split_volume_partition():
    space = build_space(fixture_3bus(), CONTROL)
    cell = space.root_cell()
    l, h = split(cell, P_IBR, 0.01)
    # The halves meet at one edge and their widths add up to the cell's;
    # every other dimension keeps the cell's bounds, so the volumes add up.
    assert l.bounds[P_IBR][1] == h.bounds[P_IBR][0]
    assert l.width(P_IBR) + h.width(P_IBR) == pytest.approx(cell.width(P_IBR), rel=1e-12)
    for d in cell.bounds:
        if d != P_IBR:
            assert l.bounds[d] == h.bounds[d] == cell.bounds[d]


def test_path_grammar():
    space = build_space(fixture_3bus(), CONTROL)
    cell = space.root_cell()
    l, h = split(cell, V_ANCHOR, 0.01)
    ll, _ = split(l, "tau_u", 0.01)
    pat = re.compile(r"R(\.[A-Za-z0-9_]+[LH])*$")
    for c in (cell, l, h, ll):
        assert pat.match(c.path), c.path


def test_contains_half_open():
    cell = _cell()
    l, h = split(cell, "P_SG", 0.01)
    assert not contains_values(l, {"P_SG": 50.0})
    assert contains_values(h, {"P_SG": 50.0})
    # root upper edge is closed
    assert contains_values(cell, {"P_SG": 100.0})
    assert contains_values(h, {"P_SG": 100.0})
    assert not contains_values(cell, {"P_SG": 100.1})


@given(st.floats(min_value=0.0, max_value=100.0,
                 allow_nan=False, allow_infinity=False))
def test_children_partition_points(v):
    cell = _cell()
    l, h = split(cell, "P_SG", 0.001)
    in_l = contains_values(l, {"P_SG": v})
    in_h = contains_values(h, {"P_SG": v})
    assert in_l != in_h  # exactly one child owns each in-range point
