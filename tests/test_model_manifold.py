"""Warped models: curvature profiles, geometry, and comparison chains.

Warping oracles are frozen 30-digit IVP solutions from tests/_oracles.py;
moments and Euclidean quantities have elementary closed forms.
"""

import math

import pytest

from radsob import model_manifold
from radsob.model_manifold import (
    ConstantCutoff,
    RationalDecay,
    Tabulated,
    ZeroCurvature,
    build_model,
    conical_model,
    curvature_moment,
    euclidean_model,
    load_tabulated,
    model_from_warping,
    parse_curvature,
    verify_volume_chain,
)

import _oracles

try:
    from hypothesis import given, settings, strategies as st

    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False


RAT01 = build_model(4, RationalDecay(0.1), t_max=50.0, step=1e-3)
EUC4 = euclidean_model(4)


def test_parse_curvature_grammar():
    assert isinstance(parse_curvature("zero"), ZeroCurvature)
    c = parse_curvature("const:0.5:2")
    assert isinstance(c, ConstantCutoff) and c.a == 0.5 and c.t_cut == 2.0
    assert math.isinf(parse_curvature("const:1:inf").t_cut)
    r = parse_curvature("rational:0.3")
    assert isinstance(r, RationalDecay) and r.b0 == 0.3
    assert parse_curvature(" rational:0.3 ").spec_string() == "rational:0.3"


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
    direct = curvature_moment(prof.g, 80.0) + prof.moment_tail(80.0)
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


def test_profile_moment_matches_quadrature():
    prof = RationalDecay(0.3)
    total = curvature_moment(prof.g, 60.0) + prof.moment_tail(60.0)
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
        assert EUC4.h(t) == t
        assert EUC4.h_prime(t) == 1.0
        assert abs(EUC4.area(t) - om_s * t**3) < 1e-9 * om_s * t**3
        assert abs(EUC4.volume(t) - om_m * t**4) < 1e-9 * om_m * t**4
        assert EUC4.radial_ricci(t) == 0.0
        assert abs(EUC4.laplacian_radial(t) - 3.0 / t) < 1e-15
    assert EUC4.profile.b == 0.0


def test_build_model_zero_curvature_shortcut(monkeypatch):
    """Zero curvature gives flat space exactly, without solving the IVP."""
    solved = []
    monkeypatch.setattr(model_manifold, "solve_h_ivp", lambda *args: solved.append(args))
    model = build_model(4, ZeroCurvature())
    assert solved == []
    assert model.h(3.0) == 3.0
    om_m = _oracles.ball_volume(4)
    for t in (0.5, 3.0, 40.0):
        assert model.volume(t) == om_m * t**4


def test_build_model_refuses_dimension_before_the_ivp(monkeypatch):
    solved = []
    monkeypatch.setattr(model_manifold, "solve_h_ivp", lambda *args: solved.append(args))
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        build_model(1, RationalDecay(0.1))
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        model_from_warping(1, h=lambda t: t, h_prime=lambda t: 1.0, h_second=lambda t: 0.0)
    assert solved == []


def test_warping_oracles_through_model():
    for t, ref in _oracles.RATIONAL_B01_H.items():
        rel = abs(RAT01.h(t) - ref) / ref
        assert rel < 1e-12, f"h({t}) off by {rel:.3e}"
    for t, ref in _oracles.RATIONAL_B01_HP.items():
        rel = abs(RAT01.h_prime(t) - ref) / ref
        assert rel < 1e-12, f"h'({t}) off by {rel:.3e}"
    assert RAT01.h_second(2.0) == RAT01.profile.g(2.0) * RAT01.h(2.0)


def test_volume_oracles():
    for t, ref in _oracles.VOLUME_RATIONAL01.items():
        rel = abs(RAT01.volume(t) - ref) / ref
        assert rel < 1e-12, f"volume({t}) off by {rel:.3e}"


def test_volume_between_nodes_consistent():
    fine = build_model(4, RationalDecay(0.1), t_max=12.0, step=2.5e-4)
    for t in (0.77777, 3.14159, 9.99999):
        rel = abs(RAT01.volume(t) - fine.volume(t)) / fine.volume(t)
        assert rel < 1e-10, f"volume({t}) grid sensitivity {rel:.3e}"


def test_sturm_bounds_on_warping():
    b = RAT01.profile.b
    for t in (0.5, 1.0, 5.0, 20.0, 50.0):
        h = RAT01.h(t)
        assert h >= t * (1.0 - 1e-12), f"h({t}) = {h!r} below t"
        assert h <= math.exp(b) * t * (1.0 + 1e-12), f"h({t}) = {h!r} above e^b t"


def test_radial_ricci_identities():
    for t in (0.0, 0.5, 2.0, 10.0):
        assert RAT01.radial_ricci(t) == -3.0 * RAT01.profile.g(t)
    con = conical_model(4, 0.8)
    for t in (0.5, 2.0, 10.0):
        assert con.radial_ricci(t) >= 0.0
    with pytest.raises(ValueError):
        con.radial_ricci(0.0)


def test_laplacian_comparison_and_guard():
    for t in (0.5, 2.0, 10.0):
        assert RAT01.laplacian_radial(t) >= 3.0 / t * (1.0 - 1e-12)
    with pytest.raises(ValueError):
        RAT01.laplacian_radial(0.0)


def test_window_guard():
    with pytest.raises(ValueError):
        RAT01.h(51.0)
    with pytest.raises(ValueError):
        RAT01.volume(51.0)
    with pytest.raises(ValueError):
        RAT01.h(-0.1)


def test_chain_rational_passes():
    report = verify_volume_chain(RAT01, (0.5, 1.0, 2.0, 5.0, 10.0, 20.0), slack=1e-8)
    assert report.all_pass, f"failures: {[(r.name, r.t) for r in report.failures]}"
    assert report.b_used == 0.1
    assert len(report.rows) == 24
    for row in report.rows:
        assert row.margin == row.rhs - row.lhs


def test_chain_negative_control_detected():
    """Infinite-moment curvature must break the finite-b upper chain."""
    model = build_model(4, ConstantCutoff(1.0, math.inf), t_max=12.0, step=1e-3)
    report = verify_volume_chain(model, (0.5, 1.0, 2.0, 3.0, 5.0, 10.0), b=1.0)
    assert not report.all_pass
    fails = report.failures
    assert all(f.name in ("upper_area", "upper_volume") for f in fails)
    assert fails[0].name == "upper_area" and fails[0].t == 3.0
    assert min(f.t for f in fails) <= 10.0


def test_chain_requires_moment_for_custom_warping():
    custom = model_from_warping(
        3,
        h=lambda t: t + 0.01 * t * t,
        h_prime=lambda t: 1.0 + 0.02 * t,
        h_second=lambda t: 0.02,
        t_max=10.0,
        step=1e-2,
    )
    with pytest.raises(ValueError):
        verify_volume_chain(custom, (1.0, 2.0))
    report = verify_volume_chain(custom, (1.0, 2.0), b=1.0)
    assert report.b_used == 1.0


def test_chain_with_inner_model():
    report = verify_volume_chain(
        RAT01, (0.5, 1.0, 2.0, 5.0, 10.0, 20.0), inner=euclidean_model(4)
    )
    assert report.all_pass
    names = {row.name for row in report.rows}
    assert "inner_area" in names and "inner_ratio_monotone" in names
    assert len(report.rows) == 24 + 6 + 5


def test_model_from_warping_validation():
    with pytest.raises(ValueError):
        model_from_warping(
            3, h=lambda t: 1.0 + t, h_prime=lambda t: 1.0, h_second=lambda t: 0.0
        )


def test_conical_model_shape():
    with pytest.raises(ValueError):
        conical_model(4, 0.0)
    with pytest.raises(ValueError):
        conical_model(4, 1.5)
    con = conical_model(4, 0.8, t_max=20.0, step=1e-2)
    assert con.h(0.0) == 0.0
    assert con.h_prime(0.0) == 1.0
    assert abs(con.h(20.0) - (0.8 * 20.0 + 0.2)) < 1e-6
    straight = conical_model(3, 1.0, t_max=5.0, step=1e-2)
    for t in (0.5, 2.0, 5.0):
        assert abs(straight.h(t) - t) < 1e-12


def test_tail_factor():
    assert EUC4.tail_factor == 1.0
    assert conical_model(4, 0.8, t_max=10.0, step=1e-2).tail_factor == 1.0
    near = build_model(4, RationalDecay(0.1), t_max=20.0, step=1e-3)
    far = build_model(4, RationalDecay(0.1), t_max=80.0, step=1e-3)
    assert 1.0 < far.tail_factor < near.tail_factor
    unbounded = build_model(3, ConstantCutoff(1.0, math.inf), t_max=8.0, step=1e-3)
    assert math.isinf(unbounded.tail_factor)


def _rational_closed_form(b0):
    """h, h', h'' of rational:<b0> for b0 < 1/2: with theta = arctan t and
    k = 1 - 2 b0, h = sqrt(1+t^2) sin(sqrt(k) theta)/sqrt(k)."""
    rk = math.sqrt(1.0 - 2.0 * b0)

    def h(t):
        return math.sqrt(1.0 + t * t) * math.sin(rk * math.atan(t)) / rk

    def h_prime(t):
        angle = rk * math.atan(t)
        return (t * math.sin(angle) / rk + math.cos(angle)) / math.sqrt(1.0 + t * t)

    return h, h_prime, lambda t: 2.0 * b0 / (1.0 + t * t) ** 2 * h(t)


def test_closed_form_model_matches_the_ivp_and_its_certified_tail():
    """The closed-form and IVP fillings agree in the window; past it the
    exact area lies between the IVP's linear continuation and that
    continuation times its tail factor."""
    exact = model_from_warping(4, *_rational_closed_form(0.1), name="rational:0.1 exact")
    for t in (0.3, 1.0, 2.5, 7.77777, 20.0, 49.9, 50.0):
        for name in ("h", "h_prime", "area", "volume"):
            want = getattr(exact, name)(t)
            got = getattr(RAT01, name)(t)
            assert abs(got - want) <= 1e-12 * want, f"{name}({t}): {got!r} vs {want!r}"
    factor = RAT01.tail_factor
    assert 1.0 < factor < 1.001
    continued, true = RAT01.area_extended(), exact.area_extended()
    for t in (60.0, 200.0, 1e4):
        ratio = true(t) / continued(t)
        assert 1.0 < ratio <= factor, f"area ratio {ratio!r} at t={t} against factor {factor!r}"


def test_area_extended_continuation():
    ext = RAT01.area_extended()
    assert abs(ext(49.999) - RAT01.area(49.999)) / RAT01.area(49.999) < 1e-12
    h_end = RAT01.h(50.0)
    hp_end = RAT01.h_prime(50.0)
    expected = RAT01.omega_sphere * (h_end + 10.0 * hp_end) ** 3
    assert abs(ext(60.0) - expected) / expected < 1e-12
    con = conical_model(4, 0.8, t_max=20.0, step=1e-2)
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
            h = model.h(t)
            assert h >= t * (1.0 - 1e-10), f"h({t}) = {h!r} below t at b0={b0}"
            assert h <= math.exp(b0) * t * (1.0 + 1e-10), f"h({t}) = {h!r} at b0={b0}"
