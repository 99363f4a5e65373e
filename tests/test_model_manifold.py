"""Warped models: curvature profiles, geometry, and comparison chains.

Warping oracles are frozen 30-digit IVP solutions from tests/_oracles.py;
moments and Euclidean quantities have elementary closed forms.  A
rational:<b0> model takes its warping in closed form, a table model from
a piecewise Taylor series and a const model from the RK4 sweep of the
IVP; the tests cross-check them.
"""

import bisect
import math
import random

import pytest

from radsob import OdeError, SeriesError, numerics, table, warping
from radsob.cmd_rigidity import _rigidity_grid
from radsob.numerics import grid_steps, integrate_finite, solve_h_ivp
from radsob.warping import panel_volumes
from radsob.model_manifold import (
    ConstantCutoff,
    ModelManifold,
    RationalDecay,
    ZeroCurvature,
    build_model,
    euclidean_model,
    parse_curvature,
    verify_volume_chain,
)
from radsob.sharp import unit_ball_volume
from radsob.table import Tabulated, load_tabulated

import _oracles
from _oracles import conical_model, model_from_warping, uniform_grid

try:
    from hypothesis import given, settings, strategies as st

    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False


RAT01 = build_model(4, RationalDecay(0.1), t_max=50.0, step=1e-3)
# RAT01's closed-form warping (h, h'(50)); the model carries h only.
RAT01_H, RAT01_HP_END = RationalDecay(0.1).warping(50.0, 1e-3)
# The RK4 solution of the same IVP and its node pairs, the route of const:
# and table: models: a cross-check of the closed form.
(RAT01_IVP_H, _), RAT01_IVP_PAIRS = _oracles.ivp_nodes(RationalDecay(0.1).g, 50.0, 1e-3,
                                                       math.inf)
EUC4 = euclidean_model(4, 50.0)


def rat01_h_prime(t):
    """h'(t) of RAT01's closed form: the end slope of its warping on [0, t]."""
    return RationalDecay(0.1).warping(t, 1e-3)[1]


def test_parse_curvature_grammar():
    assert isinstance(parse_curvature("zero"), ZeroCurvature)
    c = parse_curvature("const:0.5:2")
    assert isinstance(c, ConstantCutoff) and c.a == 0.5 and c.t_cut == 2.0
    assert math.isinf(parse_curvature("const:1:inf").t_cut)
    r = parse_curvature("rational:0.3")
    assert isinstance(r, RationalDecay) and r.b0 == 0.3
    spaced = parse_curvature(" rational:0.3 ")
    assert isinstance(spaced, RationalDecay) and spaced.b0 == 0.3


def test_parse_curvature_errors():
    for bad in ("wedge:1", "const:1", "const::2", "rational:", "rational:x", "table:"):
        with pytest.raises(ValueError):
            parse_curvature(bad)


def test_tabulated_file_roundtrip(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text("# tail_power=4\n0.0 0.2\n1.0 0.1\n2.0 0.05\n")
    prof = load_tabulated(path)
    assert prof.g(0.5) == pytest.approx(0.15, rel=1e-12)
    assert prof.g(3.0) == pytest.approx(0.05 * (2.0 / 3.0) ** 4, rel=1e-12)
    direct = integrate_finite(lambda t: t * prof.g(t), 0.0, 80.0) + prof.moment_tail(80.0)
    assert abs(prof.b - direct) < 1e-9, f"cached b {prof.b!r} vs integral {direct!r}"
    same = parse_curvature(f"table:{path}")
    assert same.b == prof.b


def test_tabulated_file_errors(tmp_path):
    no_tail = tmp_path / "no_tail.txt"
    no_tail.write_text("0.0 0.2\n1.0 0.1\n")
    with pytest.raises(ValueError):
        load_tabulated(no_tail)
    bad_row = tmp_path / "bad_row.txt"
    bad_row.write_text("# tail_power=4\n0.0 0.2 7\n")
    with pytest.raises(ValueError):
        load_tabulated(bad_row)
    bad_dir = tmp_path / "bad_dir.txt"
    bad_dir.write_text("# tail_power=oops\n0.0 0.2\n1.0 0.1\n")
    with pytest.raises(ValueError):
        load_tabulated(bad_dir)


def test_profile_moments_closed_forms():
    assert RationalDecay(0.7).b == 0.7
    assert RationalDecay(0.7).moment_tail(3.0) == pytest.approx(0.7 / 10.0, rel=1e-15)
    assert ConstantCutoff(0.5, 2.0).b == 1.0
    assert math.isinf(ConstantCutoff(1.0, math.inf).b)
    assert ConstantCutoff(0.0, math.inf).b == 0.0
    assert ZeroCurvature().b == 0.0


def test_moment_is_the_tail_from_zero_on_a_shifted_table():
    """b is moment_tail(0.0).  On a table whose first node is above 0 the
    constant piece on [0, grid[0]] is added after the segments and the
    tail; adding it before the tail would move the last digit here."""
    prof = Tabulated([1.64, 3.13], [0.47, 0.24], tail_power=4.0)
    assert prof.b == prof.moment_tail(0.0)
    segments_and_tail = prof._segment_moment(1.64) + prof.moment_tail(3.13)
    assert prof.b == segments_and_tail + 0.5 * 0.47 * 1.64**2 == 3.026677833333333


def test_profile_moment_matches_quadrature():
    prof = RationalDecay(0.3)
    total = integrate_finite(lambda t: t * prof.g(t), 0.0, 60.0) + prof.moment_tail(60.0)
    assert abs(total - 0.3) / 0.3 < 1e-9, f"moment {total!r}"


def test_profile_validation():
    with pytest.raises(ValueError):
        RationalDecay(-0.1)
    with pytest.raises(ValueError):
        ConstantCutoff(-1.0, 2.0)
    with pytest.raises(ValueError):
        ConstantCutoff(math.inf, 2.0)
    with pytest.raises(ValueError):
        Tabulated([0.0, 1.0], [0.1, 0.2], tail_power=1.5)
    with pytest.raises(ValueError):
        Tabulated([1.0, 0.5], [0.1, 0.2], tail_power=4.0)
    with pytest.raises(ValueError):
        Tabulated([0.0, 1.0], [0.1, -0.2], tail_power=4.0)
    # Ragged, nested or non-finite tables are refused with ValueError too.
    bad_tables = (
        ([0.0, 1.0, 2.0], [0.1, 0.2]),
        ([[0.0, 1.0], [2.0, 3.0]], [[0.1, 0.2], [0.1, 0.2]]),
        ([0.0, [1.0, 2.0]], [0.1, 0.2]),
        ([0.0, 1.0], [0.1, math.nan]),
        ([0.0, 1.0], [math.inf, 0.2]),
        ([0.0, math.nan], [0.1, 0.2]),
        ([0.0, math.inf], [0.1, 0.2]),
    )
    for grid, values in bad_tables:
        with pytest.raises(ValueError):
            Tabulated(grid, values, tail_power=4.0)
    for power in (math.inf, math.nan):
        with pytest.raises(ValueError):
            Tabulated([0.0, 2.0], [0.1, 0.2], tail_power=power)


def test_tabulated_matches_linear_interpolation():
    """Between nodes g is the chord through the two neighbouring nodes."""
    grid = [0.0, 0.3, 1.0, 2.5, 4.0]
    values = [0.3, 0.25, 0.1, 0.02, 0.001]
    prof = Tabulated(grid, values, tail_power=3.0)
    for t, want in ((0.3, 0.25), (0.15, 0.275), (1.75, 0.06), (3.25, 0.0105)):
        assert abs(prof.g(t) - want) <= 1e-15, f"g({t}) = {prof.g(t)!r}, want {want!r}"
    assert prof.g(8.0) == 0.001 * (4.0 / 8.0) ** 3.0


def test_euclidean_model_exact():
    om_s = _oracles.sphere_area(4)
    om_m = _oracles.ball_volume(4)
    for t in (0.5, 1.0, 7.0, 40.0):
        assert EUC4.warp(t) == t
        assert EUC4.profile.g(t) == 0.0
        assert abs(EUC4.area(t) - om_s * t**3) < 1e-9 * om_s * t**3
        assert abs(EUC4.volume(t) - om_m * t**4) < 1e-9 * om_m * t**4
    assert EUC4.profile.b == 0.0 and EUC4.profile.nonnegative


def test_euclidean_volume_is_one_reference_with_one_refusal():
    """omega_m t^m bit for bit on the radii of `rigidity --t-max 50`, and the
    shared refusal where t^m underflows, on an IVP and a closed-form model."""
    om = unit_ball_volume(4)
    for model in (RAT01, conical_model(4, 0.8, 50.0)):
        for t in _rigidity_grid(50.0):
            assert model.euclidean_volume(t) == om * t**4, (model, t)
        with pytest.raises(ValueError) as refused:
            model.euclidean_volume(1e-302)
        assert str(refused.value) == (
            "the Euclidean ball volume at radius t=1e-302 is not positive, "
            "so the volume ratio is undefined there"
        )


def test_build_model_zero_curvature_shortcut(monkeypatch):
    """Zero curvature gives flat space exactly, without solving the IVP."""
    solved = []
    monkeypatch.setattr(numerics, "solve_h_ivp", lambda *args: solved.append(args))
    model = build_model(4, ZeroCurvature(), 50.0, 1e-3)
    assert solved == []
    assert model.warp(3.0) == 3.0
    om_m = _oracles.ball_volume(4)
    for t in (0.5, 3.0, 40.0):
        assert model.volume(t) == om_m * t**4


def test_build_model_refuses_dimension_before_the_ivp(monkeypatch):
    solved = []
    monkeypatch.setattr(numerics, "solve_h_ivp", lambda *args: solved.append(args))
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        build_model(1, RationalDecay(0.1), 50.0, 1e-3)
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        model_from_warping(1, lambda t: t, lambda t: 1.0, lambda t: 0.0, 50.0,
                           b=0.0, nonnegative=True)
    assert solved == []


def test_warping_oracles_through_model():
    for t, ref in _oracles.RATIONAL_B01_H.items():
        rel = abs(RAT01.warp(t) - ref) / ref
        assert rel < 1e-12, f"h({t}) off by {rel:.3e}"
    for t, ref in _oracles.RATIONAL_B01_HP.items():
        rel = abs(rat01_h_prime(t) - ref) / ref
        assert rel < 1e-12, f"h'({t}) off by {rel:.3e}"


def test_rational_closed_form_matches_the_30_digit_oracles():
    """h of the closed form, and h' at the end of its window, lie within
    1e-14 of the 30-digit Taylor solutions, for k = 1 - 2 b0 > 0 (sin,
    cos) and k < 0 (sinh, cosh); h(0) = 0 exactly, and h' is 1 exactly at
    the end of a window of width 1e-300."""
    cases = (
        (0.1, _oracles.RATIONAL_B01_H, _oracles.RATIONAL_B01_HP),
        (1.0, _oracles.RATIONAL_B1_H, _oracles.RATIONAL_B1_HP),
    )
    for b0, h_refs, hp_refs in cases:
        profile = RationalDecay(b0)
        h, _ = profile.warping(20.0, 1e-3)
        for t, ref in h_refs.items():
            rel = abs(h(t) - ref) / ref
            assert rel <= 1e-14, f"b0={b0}: h({t}) off by {rel:.3e}"
        for t, ref in hp_refs.items():
            rel = abs(profile.warping(t, 1e-3)[1] - ref) / ref
            assert rel <= 1e-14, f"b0={b0}: h'({t}) off by {rel:.3e}"
        assert (h(0.0), profile.warping(1e-300, 1e-3)[1]) == (0.0, 1.0)


def test_rational_closed_form_at_k_zero_matches_the_ivp():
    """At b0 = 1/2, k = 0, h = sqrt(1+t^2) atan t, h' = (t atan t + 1)/sqrt(1+t^2):
    the closed form's h, and these h and h', agree with the RK4 sweep at
    step 1e-3 to 1e-12, h at the nodes and between them, h' at the nodes,
    and the two warpings' end slopes too."""
    profile = RationalDecay(0.5)
    h, hp_end = profile.warping(30.0, 1e-3)
    n = grid_steps(30.0, 1e-3)
    (ivp, ivp_hp_end), ivp_pairs = _oracles.ivp_nodes(profile.g, 30.0, 1e-3, math.inf)
    assert len(ivp_pairs) == n + 1
    grid = uniform_grid(30.0, n)
    exact = lambda t: (math.hypot(1.0, t) * math.atan(t),
                       (t * math.atan(t) + 1.0) / math.hypot(1.0, t))
    worst = max(abs(a - b) / b for t, want in zip(grid[1:], ivp_pairs[1:])
                for a, b in zip((h(t), *exact(t)), (want[0], *want)))
    assert worst <= 1e-12, f"node pairs differ by {worst:.3e}"
    for t in (0.0005, 0.77777, 3.14159, 29.9999):
        assert abs(h(t) - ivp(t)) <= 1e-12 * ivp(t), t
    assert abs(hp_end - ivp_hp_end) <= 1e-12 * ivp_hp_end


# (b0, t_max, the radius OdeError names): sinh of a large r theta overflows
# (b0 >= 1e5), or sqrt(1+t^2) S passes the float range (b0 = 1, where h is
# about 2.3 t).  The radius is the window's own, the same for a window of
# 5 or of 1e300; at b0 = 102378.625 (r = 452.5) h is infinite before sinh
# overflows.
FIRST_UNREPRESENTABLE_RADII = (
    (1e6, 5.0, "0.5494"),
    (1e6, 1e300, "0.5494"),
    (200000.0, 5.0, "2.08377"),
    (180000.5, 4.0, "2.45594"),
    (151250.5, 4.0, "3.4903"),
    (102378.625, 2000.0, "451.709"),
    (1.0, 1e308, "7.81165e+307"),
    (1.0, 8e307, "7.81165e+307"),
)


def test_rational_closed_form_names_the_first_radius_it_cannot_represent():
    """The build reads h and h' at t_max; where they are not finite, OdeError
    names the first float radius where they are not, which the window does
    not move: a window ending one float below it builds, and one ending at
    it fails."""
    for b0, t_max, t in FIRST_UNREPRESENTABLE_RADII:
        profile = RationalDecay(b0)
        with pytest.raises(OdeError) as info:
            profile.warping(t_max, 1e-3)
        assert str(info.value) == f"warping solution became non-finite near t={t}", (b0, t_max)
        radius = info.value.t
        h, hp_end = profile.warping(math.nextafter(radius, 0.0), 1e-3)
        assert callable(h) and math.isfinite(hp_end), b0
        with pytest.raises(OdeError):
            profile.warping(radius, 1e-3)


def test_build_model_runs_the_ivp_only_for_const(monkeypatch):
    """A rational model takes its warping in closed form and a table model
    its piecewise series: build_model runs the RK4 sweep for a
    ConstantCutoff only, once."""
    solved = []

    def counted(*args):
        solved.append(args)
        return solve_h_ivp(*args)

    monkeypatch.setattr(numerics, "solve_h_ivp", counted)
    counts = {}
    for name, profile in (("rational", RationalDecay(0.1)),
                          ("const", ConstantCutoff(0.05, 3.0)), ("table", SEED0_TABLE)):
        solved.clear()
        build_model(4, profile, t_max=20.0, step=1e-2)
        counts[name] = len(solved)
        h, hp_end = profile.warping(20.0, 1e-2)
        assert callable(h) and math.isfinite(hp_end), name
    assert counts == {"rational": 0, "const": 1, "table": 0}, counts


def test_building_a_curved_model_calls_the_curvature_a_bounded_number_of_times():
    """The seed-0 table model is built from the table's nodes and chord
    slopes, with no call of g; the const:0.05:3 model calls g 2J + 1
    times, where J = 3001 is the first node of the step-1e-3 grid on
    [0, 50] past t_cut = 3, not the 100,001 times of a full sweep."""
    calls = []
    for profile in (Tabulated(SEED0_TABLE.grid, SEED0_TABLE.values, 3.0),
                    ConstantCutoff(0.05, 3.0)):
        g = profile.g
        profile.g = lambda t, g=g: calls.append(t) or g(t)
        calls.clear()
        model = build_model(4, profile, t_max=50.0, step=1e-3)
        model.volume(50.0)
        counts = len(calls)
        assert counts == (0 if isinstance(profile, Tabulated) else 2 * 3001 + 1), counts


def test_table_series_matches_the_30_digit_literals():
    """The seed-0 table's h, h' and V(B_t) lie within 1e-13 of 30-digit
    values, inside a segment, at its nodes, across its tail node and far
    out on the tail; h' at t is the end slope of the warping on [0, t]."""
    model = build_model(4, SEED0_TABLE, t_max=50.0, step=1e-3)
    for t, refs in _oracles.TABLE_SEED0.items():
        got = (model.warp(t), SEED0_TABLE.warping(t, 1e-3)[1], model.volume(t))
        for name, value, ref in zip(("h", "h'", "V"), got, refs):
            assert abs(value - ref) <= 1e-13 * ref, f"{name}({t}) off by {value / ref - 1:.3e}"


def test_a_truncated_tail_series_misses_the_literals(monkeypatch):
    """Negative control: cut to its first 16 coefficients, the tail's
    binomial series of G moves h at t = 20 and 50 by more than the
    literals' 1e-13 (by about 3e-11 and 8e-11).  Dropping only the last of
    its coefficients would move h by less than rounding."""
    series_warping = table.series_warping

    def cut(pieces):
        return series_warping([(a, b, gs[:16] if a >= 8.0 else gs) for a, b, gs in pieces])

    monkeypatch.setattr(table, "series_warping", cut)
    h, _ = SEED0_TABLE.warping(50.0, 1e-3)
    for t in (20.0, 50.0):
        ref = _oracles.TABLE_SEED0[t][0]
        assert abs(h(t) - ref) > 1e-11 * ref, t


def test_a_series_that_does_not_converge_fails_its_check(monkeypatch):
    """A piece whose terms are not yet rounding at the term cap raises
    SeriesError, naming the piece, rather than truncating silently."""
    monkeypatch.setattr(table, "SERIES_MAX_TERMS", 8)
    with pytest.raises(SeriesError, match=r"series on \[0, 1\] did not converge within 8 terms"):
        SEED0_TABLE.warping(50.0, 1e-3)


def test_a_piece_below_the_float_spacing_fails_its_check():
    """G = 0 up to t = 1e16, where h = t is finite, then a slope of 50: the
    next piece may be 0.27 wide, below the float spacing 2 at 1e16, so the
    series fails its check there instead of never advancing."""
    steep = Tabulated((0.0, 1e16, 1e16 + 2.0), (0.0, 0.0, 100.0), 3.0)
    with pytest.raises(SeriesError, match="narrower than the float spacing at t=1e[+]16"):
        steep.warping(2e16, 1e10)


def test_a_series_summed_past_the_float_range_names_its_piece():
    """The terms of the seed-0 table's piece ending at 8.2e307 are finite,
    but fsum's running sum of them overflows; terms that hold both
    infinities make fsum refuse their sum.  Either is the piece's end not
    being finite: OdeError names it, as for an end that sums to inf."""
    with pytest.raises(OdeError) as info:
        SEED0_TABLE.warping(1e308, 1e-3)
    assert f"{info.value.t:g}" == "8.20373e+307"
    with pytest.raises(OdeError) as info:
        table.series_warping([(0.0, 1e150, [1e-100, -1e-100])])
    assert info.value.t == 1e150


def test_sweep_ball_volume_matches_the_30_digit_literals():
    """Below its cutoff const:0.05:60 has h = sinh(sqrt(a) t)/sqrt(a): on
    [0, 50] at step 1e-3 the sweep's ball volume lies within 1e-12 of
    30-digit quadratures at m = 4 and 20, near the apex and far out.  A
    node trapezoid on the same sweep misses by 2.6e-9 at m = 20, t = 0.5."""
    models = {m: build_model(m, ConstantCutoff(0.05, 60.0), 50.0, 1e-3) for m in (4, 20)}
    for (m, t), ref in _oracles.VOLUME_CONST005.items():
        rel = abs(models[m].volume(t) - ref) / ref
        assert rel <= 1e-12, f"m={m}: volume({t}) off by {rel:.3e}"


def test_volume_oracles():
    for t, ref in _oracles.VOLUME_RATIONAL01.items():
        rel = abs(RAT01.volume(t) - ref) / ref
        assert rel < 1e-13, f"volume({t}) off by {rel:.3e}"


def test_rational_ball_volume_matches_the_30_digit_literals():
    """The closed form's ball volume, by checked Gauss panels, lies within
    1e-13 of 30-digit quadratures at m = 4, 20 and 40, for b0 = 0.1 (sin)
    and b0 = 3 (sinh), near the apex, at t = 2 and near the window's edge:
    where h^(m-1) is far from a degree-19 polynomial, the check refines."""
    models = {key[:2]: build_model(key[0], RationalDecay(key[1]), 20.0, 1e-2)
              for key in _oracles.VOLUME_RATIONAL}
    for (m, b0, t), ref in _oracles.VOLUME_RATIONAL.items():
        rel = abs(models[m, b0].volume(t) - ref) / ref
        assert rel <= 1e-13, f"m={m}, b0={b0}: volume({t}) off by {rel:.3e}"


def test_a_coarse_grid_bounds_the_panels_of_a_wide_window(monkeypatch):
    """A ball volume has at most MAX_PANELS = 4096 panels, whatever the
    step: on [0, 1e6], at step 1e2, 1e-3 (5e8 grid steps, past the sweep's
    cap) and 1e-12, V(B_8e5) evaluates h at most 31 times per panel, not
    120 times per unit of radius, and the panels, 244 wide, still meet
    the 30-digit literals to 1e-13."""
    assert warping.MAX_PANELS == 4096
    budget = 31 * warping.MAX_PANELS
    points = []
    panel_volumes = warping.panel_volumes

    def counted(area, t_max):
        def area_counted(t):
            points.append(t)
            assert len(points) <= budget, "h evaluated past the budget of the panels"
            return area(t)

        return panel_volumes(area_counted, t_max)

    monkeypatch.setattr(warping, "panel_volumes", counted)
    for m in (4, 20):
        for step in (1e2, 1e-3, 1e-12):
            points.clear()
            model = build_model(m, RationalDecay(0.1), 1e6, step)
            assert math.isfinite(model.volume(8e5))
            for t in (0.2, 2.0, 19.0):
                ref = _oracles.VOLUME_RATIONAL[m, 0.1, t]
                assert abs(model.volume(t) - ref) <= 1e-13 * ref, (m, step, t)


def test_a_ball_volume_past_the_float_range_is_named():
    """A ball volume past the float range is refused in the model's words,
    whether a power h^(m-1) raises OverflowError in a panel, over a closed
    form or over the sweep's h, or a panel sum reaches inf without raising."""
    for profile in (RationalDecay(3.0), ConstantCutoff(0.5, 4.0)):
        model = build_model(150, profile, t_max=50.0, step=1e-2)
        assert math.isfinite(model.volume(5.0))
        with pytest.raises(ValueError) as refused:
            model.volume(20.0)
        assert str(refused.value) == "the ball volume at radius t=20 overflows at m=150"
    # Each value of omega h = 1.7e308 is finite, and a panel's sum is not.
    summed = panel_volumes(lambda t: 1.7e8 * 1e300, 1.0)
    assert math.isinf(summed(0.5))
    model = ModelManifold(2, 1.0, ZeroCurvature(), lambda t: t, summed, 1.0)
    with pytest.raises(ValueError, match="^the ball volume at radius t=0.5 overflows at m=2$"):
        model.volume(0.5)


def test_volume_between_nodes_consistent():
    fine = build_model(4, RationalDecay(0.1), t_max=12.0, step=2.5e-4)
    for t in (0.77777, 3.14159, 9.99999):
        rel = abs(RAT01.volume(t) - fine.volume(t)) / fine.volume(t)
        assert rel < 1e-10, f"volume({t}) grid sensitivity {rel:.3e}"


# The seed-0 curvature table of the benchmark's model_build workload.
SEED0_TABLE = Tabulated((0.0, 1.0, 2.0, 4.0, 8.0), (0.3, 0.25, 0.1, 0.02, 0.001), 3.0)


def _volume_table_cases():
    """(name, model factory, t_max, panel width, eager reference table):
    the RK4 model of a constant cutoff, the series model of a table, a
    closed-form cone and the closed-form rational profile, each summed by
    the one panel rule over its own h, and looked up on a grid of panel
    edges.  Each factory call builds a fresh model, whose table has summed
    nothing yet.  The panels do not follow the step: at step 0.3 the
    sweep's 167 cubics join inside the 200 panels.  On [0, 50.1] the 201
    panels have a width 50.1/201 that no binary fraction holds."""
    cases = []
    for name, profile, t_max, step in (
            ("const:0.05:3", ConstantCutoff(0.05, 3.0), 50.0, 1e-3),
            ("const:0.05:3", ConstantCutoff(0.05, 3.0), 50.0, 0.3),
            ("table seed 0", SEED0_TABLE, 50.0, 1e-3),
            ("rational:0.1", RationalDecay(0.1), 50.1, 1e-3)):
        h, _ = profile.warping(t_max, step)
        cases.append((f"{name}, step {step}",
                      lambda profile=profile, t_max=t_max, step=step: build_model(
                          4, profile, t_max, step),
                      t_max, t_max / math.ceil(t_max / 0.25),
                      _oracles.panel_volume_reference(4, h, t_max)))
    # The cone's h, by conical_model's expression.
    c = 0.8
    cone_h = lambda t: c * t + (1.0 - c) * (1.0 - math.exp(-t))
    cases.append(("conical:0.8", lambda: conical_model(4, c, 20.0), 20.0, 0.25,
                  _oracles.panel_volume_reference(4, cone_h, 20.0)))
    return cases


def _lookup_orders(step, t_max):
    """Radii to look up, each list in the order a fresh table takes them:
    edges, points between edges (the last panel's included) and t_max,
    ascending, descending, with repeats, and shuffled."""
    nodes = [i * step for i in (0, 1, 2, 7, 1000, 1999)]
    between = [(i + 0.37) * step for i in (0, 3, 6, 1234, 1998)] + [0.77777, 3.14159, 12.5]
    last_cell = [t_max - 0.5 * step, t_max - 0.01 * step]
    radii = sorted(t for t in {*nodes, *between, *last_cell, t_max} if t <= t_max)
    shuffled = list(radii)
    random.Random(0).shuffle(shuffled)
    repeated = [r for pair in zip(radii, reversed(radii)) for r in pair] + radii[::3]
    return {"ascending": radii, "descending": radii[::-1], "repeated": repeated,
            "shuffled": shuffled, "t_max first": [t_max, *shuffled]}


def test_lazy_volume_table_matches_the_eager_reference_bit_for_bit():
    """The table summed only as far as lookups read has the eager panel
    sum's bits, at panel edges and within panels, the last one and t_max
    included, whatever order a fresh table takes its lookups in, for a
    model of every kind."""
    for name, make, t_max, step, reference in _volume_table_cases():
        for order, radii in _lookup_orders(step, t_max).items():
            model = make()
            for t in radii:
                got, want = model.volume(t), reference(t)
                assert got == want, f"{name}, {order}: volume({t!r}) = {got!r}, eager {want!r}"


def test_tail_first_table_curvature_has_the_bits_of_the_plain_branch_order():
    """Tabulated.g tests its tail branch first; it has the bits of the
    plain head, tail, segment branch order at every node, at t = 0, at
    grid[-1], between nodes and in the tail."""

    def previous_g(profile, t):
        grid, values = profile.grid, profile.values
        if t <= grid[0]:
            return values[0]
        if t >= grid[-1]:
            return values[-1] * (grid[-1] / t) ** profile.tail_power
        j = bisect.bisect_right(grid, t) - 1
        slope = (values[j + 1] - values[j]) / (grid[j + 1] - grid[j])
        return slope * (t - grid[j]) + values[j]

    shifted = Tabulated((0.5, 1.0, 2.5, 3.0), (0.2, 0.0, 0.7, 0.05), 2.5)
    for profile in (SEED0_TABLE, shifted):
        grid = profile.grid
        radii = [0.0, 0.25, *grid, *(0.5 * (a + b) for a, b in zip(grid, grid[1:])),
                 grid[-1] * (1.0 + 1e-16), 8.0001, 50.0, 1e6, *(i * 1e-3 for i in range(12001))]
        for t in radii:
            assert profile.g(t) == previous_g(profile, t), (grid[0], t)


def test_sturm_bounds_on_warping():
    b = RAT01.profile.b
    for t in (0.5, 1.0, 5.0, 20.0, 50.0):
        h = RAT01.warp(t)
        assert h >= t * (1.0 - 1e-12), f"h({t}) = {h!r} below t"
        assert h <= math.exp(b) * t * (1.0 + 1e-12), f"h({t}) = {h!r} above e^b t"


def test_radial_ricci_identities():
    """Each profile's declared sign class matches its G: G >= 0 on RAT01's
    nonnegative profile; on the cone's, which is not, G <= 0, so its
    radial Ricci curvature -(m-1) G is >= 0, and G is refused at the apex."""
    assert RAT01.profile.nonnegative
    for t in (0.0, 0.5, 2.0, 10.0):
        assert RAT01.profile.g(t) > 0.0
    con = conical_model(4, 0.8, 50.0)
    assert not con.profile.nonnegative and con.profile.b == 0.0
    for t in (0.5, 2.0, 10.0):
        assert con.profile.g(t) < 0.0
    with pytest.raises(ValueError, match="undefined at t = 0"):
        con.profile.g(0.0)


def test_laplacian_comparison_and_guard():
    """The distance Laplacian (m-1) h'/h dominates its flat value (m-1)/t,
    that is t h'(t) >= h(t); the sweep's h is read inside the window only."""
    for t in (0.5, 2.0, 10.0):
        assert t * rat01_h_prime(t) >= RAT01.warp(t) * (1.0 - 1e-12)
    with pytest.raises(ValueError):
        RAT01_IVP_H(-0.1)


def test_window_guard():
    with pytest.raises(ValueError):
        RAT01.area(51.0)
    with pytest.raises(ValueError):
        RAT01.volume(51.0)


def test_chain_rational_passes():
    report = verify_volume_chain(RAT01, (0.5, 1.0, 2.0, 5.0, 10.0, 20.0), slack=1e-8)
    assert report.all_pass, f"failures: {[(r.name, r.t) for r in report.rows if not r.passed]}"
    assert RAT01.profile.b == 0.1
    assert len(report.rows) == 24


def test_chain_negative_control_detected():
    """Infinite-moment curvature must break the upper chain of a record
    that understates its moment as b = 1."""
    understated = build_model(4, ConstantCutoff(1.0, math.inf), t_max=12.0, step=1e-3)
    understated.profile = RationalDecay(1.0)
    report = verify_volume_chain(understated, (0.5, 1.0, 2.0, 3.0, 5.0, 10.0), slack=1e-8)
    assert not report.all_pass
    fails = [row for row in report.rows if not row.passed]
    assert all(f.name in ("upper_area", "upper_volume") for f in fails)
    assert fails[0].name == "upper_area" and fails[0].t == 3.0
    assert min(f.t for f in fails) <= 10.0


def test_chain_requires_moment_for_custom_warping():
    """h = t + 0.01 t^2 has G > 0 with t G = 2/(100 + t), not integrable:
    its infinite moment leaves an upper chain that cannot fail.  A cone's
    G < 0 leaves no lower chain."""
    custom = model_from_warping(
        3,
        h=lambda t: t + 0.01 * t * t,
        h_prime=lambda t: 1.0 + 0.02 * t,
        h_second=lambda t: 0.02,
        t_max=10.0,
        b=math.inf,
        nonnegative=True,
    )
    with pytest.raises(ValueError, match="infinite"):
        verify_volume_chain(custom, (1.0, 2.0), slack=1e-8)
    with pytest.raises(ValueError, match="only where G >= 0"):
        verify_volume_chain(conical_model(3, 0.8, 10.0), (1.0, 2.0), slack=1e-8)


def test_model_from_warping_validation():
    """A warping with h(0) != 0, or with h'(0) != 1, is refused."""
    for h, h_prime in ((lambda t: 1.0 + t, lambda t: 1.0), (lambda t: 2.0 * t, lambda t: 2.0)):
        with pytest.raises(ValueError, match=r"h\(0\)=0 and h'\(0\)=1"):
            model_from_warping(3, h, h_prime, lambda t: 0.0, 50.0, b=0.0, nonnegative=True)


def test_conical_model_shape():
    with pytest.raises(ValueError):
        conical_model(4, 0.0, 50.0)
    with pytest.raises(ValueError):
        conical_model(4, 1.5, 50.0)
    con = conical_model(4, 0.8, t_max=20.0)
    assert con.warp(0.0) == 0.0
    assert abs(con.warp(20.0) - (0.8 * 20.0 + 0.2)) < 1e-6
    straight = conical_model(3, 1.0, t_max=5.0)
    for t in (0.5, 2.0, 5.0):
        assert abs(straight.warp(t) - t) < 1e-12


def test_tail_factor():
    assert EUC4.tail_factor == 1.0
    assert conical_model(4, 0.8, t_max=10.0).tail_factor == 1.0
    near = build_model(4, RationalDecay(0.1), t_max=20.0, step=1e-3)
    far = build_model(4, RationalDecay(0.1), t_max=80.0, step=1e-3)
    assert 1.0 < far.tail_factor < near.tail_factor
    unbounded = build_model(3, ConstantCutoff(1.0, math.inf), t_max=8.0, step=1e-3)
    assert math.isinf(unbounded.tail_factor)


def test_closed_form_model_matches_the_ivp_and_its_certified_tail():
    """The closed-form model agrees with the IVP's fillings in the window,
    and its h' with the sweep's at the nodes; past it the exact area lies
    between the model's linear continuation and that continuation times
    its tail factor."""
    om = RAT01.omega_sphere
    ivp_volume = panel_volumes(lambda t: om * RAT01_IVP_H(t) ** 3, 50.0)
    for t in (0.3, 1.0, 2.5, 7.77777, 20.0, 49.9, 50.0):
        pairs = {
            "h": (RAT01.warp(t), RAT01_IVP_H(t)),
            "area": (RAT01.area(t), om * RAT01_IVP_H(t) ** 3),
            "volume": (RAT01.volume(t), ivp_volume(t)),
        }
        for name, (got, want) in pairs.items():
            assert abs(got - want) <= 1e-12 * want, f"{name}({t}): {got!r} vs {want!r}"
    for t in (0.3, 1.0, 2.5, 20.0, 49.9, 50.0):
        want = RAT01_IVP_PAIRS[round(t / 1e-3)][1]
        assert abs(rat01_h_prime(t) - want) <= 1e-12 * want, t
    factor = RAT01.tail_factor
    assert 1.0 < factor < 1.001
    # The closed-form h is exact past the window too.
    continued = RAT01.area_extended()
    for t in (60.0, 200.0, 1e4):
        ratio = om * RAT01_H(t) ** 3 / continued(t)
        assert 1.0 < ratio <= factor, f"area ratio {ratio!r} at t={t} against factor {factor!r}"


def test_area_extended_continuation():
    """Inside the window area and area_extended() are one closure, so they
    agree bit for bit; past it the area continues h linearly."""
    ext = RAT01.area_extended()
    for t in (0.0, 0.3, 7.77777, 49.999, 50.0):
        assert ext(t) == RAT01.area(t), t
    h_end = RAT01.warp(50.0)
    expected = RAT01.omega_sphere * (h_end + 10.0 * RAT01_HP_END) ** 3
    assert abs(ext(60.0) - expected) / expected < 1e-12
    con = conical_model(4, 0.8, t_max=20.0)
    cext = con.area_extended()
    beyond = con.omega_sphere * (0.8 * 30.0 + 0.2 * (1.0 - math.exp(-30.0))) ** 3
    assert abs(cext(30.0) - beyond) / beyond < 1e-12


if HAS_HYPOTHESIS:

    @given(b0=st.floats(min_value=0.0, max_value=1.5, allow_nan=False, allow_infinity=False))
    @settings(max_examples=15, deadline=None)
    def test_warping_sandwiched_by_moment(b0):
        """Euclidean lower bound and the e^b dilation upper bound hold."""
        model = build_model(3, RationalDecay(b0), t_max=10.0, step=1e-2)
        for t in (2.5, 5.0, 10.0):
            h = model.warp(t)
            assert h >= t * (1.0 - 1e-10), f"h({t}) = {h!r} below t at b0={b0}"
            assert h <= math.exp(b0) * t * (1.0 + 1e-10), f"h({t}) = {h!r} at b0={b0}"
