import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stabgen.grid import Line, fixture_3bus, fixture_9bus
from stabgen.sampling import (disaggregate, hierarchical_sample, lhs, rng_stream,
                              sample_voltage_profile)
from stabgen.space import build_space, contains_values

from oracles import disaggregate_gaussian, voltage_walk

CONTROL = [("tau_u", 0.01, 1.0), ("tau_w", 0.01, 1.0)]


def test_rng_stream_reproducible():
    a = rng_stream(42, "R.P_SG_L", 3, 7).random(5)
    b = rng_stream(42, "R.P_SG_L", 3, 7).random(5)
    assert np.array_equal(a, b)


def test_rng_stream_distinct_keys():
    base = rng_stream(42, "R", 1, 1).random(5)
    for key in [(43, "R", 1, 1), (42, "R.x", 1, 1), (42, "R", 2, 1), (42, "R", 1, 2)]:
        assert not np.array_equal(base, rng_stream(*key).random(5))


def _root():
    return build_space(fixture_3bus(), CONTROL).root_cell()


@pytest.mark.parametrize("n", [1, 4, 333])
def test_lhs_exact_stratification(n):
    cell = _root()
    draws = lhs(n, cell, rng_stream(0, cell.path, 0))
    assert len(draws) == n
    for name, (lo, hi) in cell.bounds.items():
        vals = sorted(d[name] for d in draws)
        strata = [int((v - lo) / (hi - lo) * n) for v in vals]
        strata = [min(s, n - 1) for s in strata]
        assert strata == list(range(n))


def test_lhs_rejects_zero():
    with pytest.raises(ValueError):
        lhs(0, _root(), rng_stream(0, "R", 0))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_lhs_inside_cell(seed):
    cell = _root()
    for d in lhs(7, cell, rng_stream(seed, cell.path, 0)):
        for name, (lo, hi) in cell.bounds.items():
            assert lo <= d[name] < hi or d[name] == hi


def test_voltage_profile_anchor_and_bands():
    g = fixture_9bus()
    prof = sample_voltage_profile(g, 1.02, 0.02, rng_stream(0, "R", 1, 0))
    assert prof[g.slack_bus.id] == pytest.approx(1.02)
    assert set(prof) == {b.id for b in g.buses}
    for b in g.buses:
        assert b.v_min <= prof[b.id] <= b.v_max


def test_voltage_profile_anchor_clamped():
    g = fixture_3bus()
    prof = sample_voltage_profile(g, 1.5, 0.0, rng_stream(0, "R", 1, 0))
    assert prof[g.slack_bus.id] == g.slack_bus.v_max


def _parallel_3bus():
    # A second 1-2 line: bus 2 is reached twice from the slack bus.
    g = fixture_3bus()
    return dataclasses.replace(g, lines=g.lines + (Line(1, 2, 0.02, 0.2, 0.0, 100.0),))


@pytest.mark.parametrize("grid", [fixture_3bus, fixture_9bus, _parallel_3bus])
def test_voltage_profile_equals_the_scanning_walk(grid):
    g = grid()
    for seed in (0, 1, 7, 1000, 2024):
        for anchor, dev in ((1.0, 0.02), (1.04, 0.05), (0.96, 0.0)):
            want = voltage_walk(g, anchor, dev, rng_stream(seed, "R.x", 3, 0))
            got = sample_voltage_profile(g, anchor, dev, rng_stream(seed, "R.x", 3, 0))
            assert list(got.items()) == list(want.items())


def test_voltage_profile_zero_deviation_is_flat():
    g = fixture_9bus()
    prof = sample_voltage_profile(g, 1.0, 0.0, rng_stream(5, "R", 1, 0))
    assert all(v == pytest.approx(1.0) for v in prof.values())


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=0.0, max_value=600.0,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
@example(0, 0.0)      # the target at the lower bound sum
@example(0, 600.0)    # and within rounding of the upper one
def test_disaggregate_sum_and_bounds(seed, frac_seed):
    rng = rng_stream(seed, "R", 0)
    bounds = [(float(rng.uniform(0, 50)), float(rng.uniform(60, 200)))
              for _ in range(4)]
    lo = sum(b[0] for b in bounds)
    hi = sum(b[1] for b in bounds)
    target = lo + (frac_seed / 600.0) * (hi - lo)
    x = disaggregate(target, *np.array(bounds).T, rng)
    assert abs(x.sum() - target) <= 1e-9 * max(1.0, abs(target))
    for v, (blo, bhi) in zip(x, bounds):
        assert blo - 1e-12 <= v <= bhi + 1e-12


def test_disaggregate_out_of_range():
    with pytest.raises(ValueError):
        disaggregate(1000.0, np.zeros(2), np.full(2, 10.0), rng_stream(0, "R", 0))
    with pytest.raises(ValueError):
        disaggregate(-5.0, np.zeros(2), np.full(2, 10.0), rng_stream(0, "R", 0))


def test_variance_max_beats_gaussian():
    lo = np.zeros(3)
    hi = np.array([100.0, 100.0, 100.0])
    target = 150.0
    var_v, var_g = [], []
    for k in range(2000):
        rng = rng_stream(1, "R", k)
        var_v.append(np.var(disaggregate(target, lo, hi, rng)))
        var_g.append(np.var(disaggregate_gaussian(target, lo, hi, rng)))
    assert np.mean(var_v) > np.mean(var_g)


def test_hierarchical_sample_shape_and_containment():
    g = fixture_3bus()
    space = build_space(g, CONTROL)
    cell = space.root_cell()
    pts = hierarchical_sample(cell, 10, 3, g, seed=0)
    assert len(pts) == 30
    for p in pts:
        assert contains_values(cell, p.dim_values)
        assert p.dim_values["P_D"] == pytest.approx(
            0.97 * (p.dim_values["P_SG"] + p.dim_values["P_IBR"]))
        # variable sums respect their dimension totals
        assert p.var_values["P_SG_1"] == pytest.approx(p.dim_values["P_SG"])
        assert p.var_values["P_IBR_2"] == pytest.approx(p.dim_values["P_IBR"])
        gfm = p.var_values["P_GFM_2"]
        gfl = p.var_values["P_GFL_2"]
        assert gfm + gfl == pytest.approx(p.dim_values["P_IBR"], abs=1e-9)
        assert gfm == pytest.approx(
            p.dim_values["pct_P_GFM"] * p.dim_values["P_IBR"], abs=1e-9)
        assert p.var_values["P_L_3"] == pytest.approx(p.dim_values["P_D"])


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from([fixture_3bus, fixture_9bus]), st.booleans(), st.booleans())
@settings(max_examples=30, deadline=None)
def test_hierarchical_sample_dependent_values(seed, grid, all_gfm, randomize_loads):
    # P_D and every P_GFL are written exactly; a grid-following remainder
    # stays >= 0 even when the grid-forming share takes the whole IBR total
    g = grid()
    space = build_space(g, CONTROL)
    cell = space.root_cell()
    if all_gfm:  # every point at pct_P_GFM = 1 exactly
        cell = dataclasses.replace(cell, bounds={**cell.bounds, "pct_P_GFM": (1.0, 1.0)})
    for p in hierarchical_sample(cell, 4, 2, g, seed, loss_factor=0.9,
                                 randomize_loads=randomize_loads):
        d, v = p.dim_values, p.var_values
        assert list(d) == [*cell.bounds, "P_D"]
        assert set(v) == set(space.variables)
        assert d["P_D"] == 0.9 * (d["P_SG"] + d["P_IBR"])
        for grp in g.groups_of("IBR"):
            gfl = v[f"P_GFL_{grp.bus}"]
            assert gfl == v[f"P_IBR_{grp.bus}"] - v[f"P_GFM_{grp.bus}"]
            assert gfl >= 0.0


def test_hierarchical_sample_deterministic():
    g = fixture_9bus()
    space = build_space(g, CONTROL)
    cell = space.root_cell()
    a = hierarchical_sample(cell, 5, 2, g, seed=7)
    b = hierarchical_sample(cell, 5, 2, g, seed=7)
    assert a == b
    c = hierarchical_sample(cell, 5, 2, g, seed=8)
    assert a != c


@pytest.mark.parametrize("n_cases", [1, 3])
def test_hierarchical_sample_subset_is_the_full_draw(n_cases):
    # explore's workers each build a range of a cell's samples, one that
    # may start mid-cell; every point is the one the full draw gives
    g = fixture_9bus()
    space = build_space(g, CONTROL)
    cell = space.root_cell()
    full = hierarchical_sample(cell, 11, n_cases, g, seed=7, randomize_loads=True)
    part = hierarchical_sample(cell, 11, n_cases, g, seed=7, randomize_loads=True,
                               samples=range(4, 9))
    assert [(p.sample_index, p.case_index) for p in part] == [
        (i, j) for i in range(4, 9) for j in range(n_cases)]
    assert repr(part) == repr(full[4 * n_cases:9 * n_cases])


def test_hierarchical_sample_child_cell_containment():
    from stabgen.space import split
    g = fixture_3bus()
    space = build_space(g, CONTROL)
    l, h = split(space.root_cell(), "P_SG", 0.01)
    for cell in (l, h):
        for p in hierarchical_sample(cell, 8, 1, g, seed=3):
            assert contains_values(cell, p.dim_values)


def test_randomized_loads_within_bounds_and_sum():
    g = fixture_9bus()
    space = build_space(g, CONTROL)
    pts = hierarchical_sample(space.root_cell(), 20, 3, g, seed=5,
                              randomize_loads=True)
    max_dev = 0.0
    for p in pts:
        p_d = p.dim_values["P_D"]
        for ld in g.loads:
            share = ld.participation * p_d
            v = p.var_values[f"P_L_{ld.bus}"]
            assert 0.8 * share - 1e-9 <= v <= min(1.2, 1 / ld.participation) * share + 1e-9
            max_dev = max(max_dev, abs(v / share - 1.0))
        assert sum(p.var_values[f"P_L_{ld.bus}"] for ld in g.loads) \
            == pytest.approx(p_d, rel=1e-9)
    assert max_dev > 0.05  # the loads do leave their fixed participation


def test_hierarchical_sample_rejects_bad_counts():
    g = fixture_3bus()
    space = build_space(g, CONTROL)
    with pytest.raises(ValueError):
        hierarchical_sample(space.root_cell(), 0, 1, g, seed=0)
    with pytest.raises(ValueError):
        hierarchical_sample(space.root_cell(), 1, 0, g, seed=0)
