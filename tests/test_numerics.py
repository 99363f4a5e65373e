"""Quadrature and the warping IVP against closed forms.

Expected values come from elementary antiderivatives and the frozen
high-precision IVP oracles in tests/_oracles.py.
"""

import math

import pytest

from radsob.numerics import (
    OdeError,
    QuadratureError,
    integrate_finite,
    integrate_semi_infinite,
    solve_h_ivp,
)

from radsob.model_manifold import ConstantCutoff, RationalDecay, Tabulated

from _oracles import RATIONAL_B1_H, RATIONAL_B1_HP, SINH_1, hermite_reference, rk4_reference

try:
    from hypothesis import given, settings, strategies as st

    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False


def test_finite_rational_kernel_exact():
    """integral over [0, 1] of t^3/(1+t^2)^4 equals 1/24."""
    got = integrate_finite(lambda t: t**3 / (1.0 + t * t) ** 4, 0.0, 1.0)
    exact = 1.0 / 24.0
    assert abs(got - exact) / exact < 1e-12, f"got {got!r}, want {exact!r}"


def test_finite_shift_invariance():
    f = lambda t: t**3 / (1.0 + t * t) ** 4
    base = integrate_finite(f, 0.0, 1.0)
    shifted = integrate_finite(lambda x: f(x - 2.0), 2.0, 3.0)
    assert abs(base - shifted) < 1e-13, f"shifted integral drifted: {base!r} vs {shifted!r}"


def test_finite_small_scale_keeps_relative_accuracy():
    """A 1e-9-sized integrand must still come out to ~rel_tol accuracy."""
    c = 1e-9
    got = integrate_finite(lambda t: c * t**3 / (1.0 + t * t) ** 4, 0.0, 1.0)
    exact = c / 24.0
    assert abs(got - exact) / exact < 1e-10, f"relative error {abs(got - exact) / exact:.3e}"


def test_finite_cancelling_integral_stops_at_rounding_noise():
    """An integral that cancels to ~1e-16 must not refine below rounding noise."""
    a, b, c = 0.0, -1.9999999999999998, 2.0
    got = integrate_finite(lambda t: a + b * t + c * t * t, 0.0, 1.5)
    exact = b * 1.5**2 / 2.0 + c * 1.5**3 / 3.0
    assert abs(got - exact) <= 1e-13, f"got {got!r}, want {exact!r}"


def test_finite_degenerate_and_invalid_intervals():
    assert integrate_finite(math.sin, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        integrate_finite(math.sin, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_finite(math.sin, 0.0, math.inf)


def test_semi_infinite_declared_decay():
    """integral over [0, inf) of t^5/(1+t^2)^4 equals 1/6."""
    got = integrate_semi_infinite(
        lambda t: t**5 / (1.0 + t * t) ** 4, decay_power=3.0
    )
    exact = 1.0 / 6.0
    assert abs(got - exact) / exact < 1e-10, f"got {got!r}, want {exact!r}"


def test_semi_infinite_sliver_from_declared_power():
    """integral over [1, inf) of t^-1.5 equals 2; the tail beyond t = 1e8
    is 1e-4 of it and is added from the declared power alone."""
    f = lambda t: t**-1.5
    got = integrate_semi_infinite(f, start=1.0, decay_power=1.5)
    assert abs(got - 2.0) / 2.0 < 1e-10, f"got {got!r}"
    wrong = integrate_semi_infinite(f, start=1.0, decay_power=3.0)
    assert abs(wrong - 2.0) / 2.0 > 1e-5, f"a wrong power went unnoticed: {wrong!r}"


def test_semi_infinite_start_offset():
    """integral over [1, inf) of t^-3 equals 1/2."""
    got = integrate_semi_infinite(lambda t: t**-3.0, start=1.0, decay_power=3.0)
    assert abs(got - 0.5) < 1e-11, f"got {got!r}"
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda t: t**-3.0, start=-1.0, decay_power=3.0)


def test_semi_infinite_slow_tail_refused():
    with pytest.raises(QuadratureError):
        integrate_semi_infinite(lambda t: 1.0 / (1.0 + t), decay_power=1.0)


def test_finite_jump_exhausts_depth():
    """A jump off the dyadic grid can never meet the tolerance."""
    with pytest.raises(QuadratureError):
        integrate_finite(lambda t: 0.0 if t < 1.0 / 3.0 else 1.0, 0.0, 1.0)


def test_semi_infinite_split_validation():
    f = lambda t: t**5 / (1.0 + t * t) ** 4
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            integrate_semi_infinite(f, bad, decay_power=3.0)
    moved = integrate_semi_infinite(f, 7.0, decay_power=3.0)
    assert abs(moved - 1.0 / 6.0) * 6.0 < 1e-10, f"split at 7 gave {moved!r}"


def test_ivp_zero_curvature_is_identity():
    sol = solve_h_ivp(lambda t: 0.0, 10.0, 1e-3)
    for t in (0.5, 1.0, 5.0, 10.0):
        assert abs(sol.value(t) - t) / t < 1e-12, f"h({t}) = {sol.value(t)!r}"
        assert abs(sol.deriv(t) - 1.0) < 1e-12


def test_ivp_constant_curvature_is_sinh():
    sol = solve_h_ivp(lambda t: 1.0, 3.0, 1e-3)
    assert abs(sol.value(1.0) - SINH_1) / SINH_1 < 1e-12
    for t in (0.5, 2.0, 3.0):
        assert abs(sol.value(t) - math.sinh(t)) / math.sinh(t) < 1e-12
        assert abs(sol.deriv(t) - math.cosh(t)) / math.cosh(t) < 1e-12


def test_ivp_rational_curvature_oracles():
    g = lambda t: 2.0 / (1.0 + t * t) ** 2
    sol = solve_h_ivp(g, 12.0, 1e-3)
    for t, ref in RATIONAL_B1_H.items():
        rel = abs(sol.value(t) - ref) / ref
        assert rel < 1e-12, f"h({t}) off by {rel:.3e}"
    for t, ref in RATIONAL_B1_HP.items():
        rel = abs(sol.deriv(t) - ref) / ref
        assert rel < 1e-12, f"h'({t}) off by {rel:.3e}"


def test_ivp_dense_output_between_nodes():
    g = lambda t: 2.0 / (1.0 + t * t) ** 2
    coarse = solve_h_ivp(g, 6.0, 1e-3)
    fine = solve_h_ivp(g, 6.0, 2.5e-4)
    for t in (0.31415, 1.23456, 4.99999):
        rel = abs(coarse.value(t) - fine.value(t)) / fine.value(t)
        assert rel < 1e-10, f"dense value at t={t} off by {rel:.3e}"
        rel_d = abs(coarse.deriv(t) - fine.deriv(t)) / abs(fine.deriv(t))
        assert rel_d < 1e-10, f"dense deriv at t={t} off by {rel_d:.3e}"


def test_ivp_is_one_sweep():
    """n steps call the curvature 2n + 1 times: one RK4 sweep, no second
    pass and no tabulated h''."""
    calls = []

    def g(t):
        calls.append(t)
        return 0.2 / (1.0 + t * t) ** 2

    for t_max, step in ((5.0, 1e-2), (1.0, 0.3), (0.5, 1.0)):
        calls.clear()
        sol = solve_h_ivp(g, t_max, step)
        n = len(sol.values) - 1
        assert len(calls) == 2 * n + 1, f"{len(calls)} curvature calls for n={n}"


def test_ivp_window_and_argument_guards():
    sol = solve_h_ivp(lambda t: 0.0, 1.0, 1e-3)
    with pytest.raises(ValueError):
        sol.value(1.5)
    with pytest.raises(ValueError):
        solve_h_ivp(lambda t: 0.0, -1.0, 1e-3)
    with pytest.raises(ValueError):
        solve_h_ivp(lambda t: 0.0, 1.0, 0.0)


def test_ivp_runaway_curvature_raises():
    """The sweep checks finiteness once, at the end, and still names the
    step where the state first stopped being finite."""
    with pytest.raises(OdeError) as info:
        solve_h_ivp(lambda t: math.exp(t), 50.0, 1e-3)
    assert str(info.value) == "warping solution became non-finite near t=11.722"


SWEEP_PROFILES = {
    "rational:0.1": RationalDecay(0.1),
    "const:0.05:3": ConstantCutoff(0.05, 3.0),
    "table": Tabulated([0.0, 1.0, 2.0, 4.0, 8.0], [0.3, 0.25, 0.1, 0.02, 0.001], 3.0),
}


@pytest.mark.parametrize("name", sorted(SWEEP_PROFILES))
@pytest.mark.parametrize("t_max, step", [(10.0, 1e-3), (1.0, 0.3), (3.0, 0.01604)])
def test_ivp_matches_the_stepwise_reference_bit_for_bit(name, t_max, step):
    """h and h' at every node, and the dense output in the last cell, have
    the bits of the plain RK4 loop.  At (3.0, 0.01604) there are n = 187
    steps and n * (3/n) rounds above 3, past the cutoff of const:0.05:3,
    so the last cell's h' must read g at the last node t_max itself."""
    g = SWEEP_PROFILES[name].g
    sol = solve_h_ivp(g, t_max, step)
    grid, values, derivs = rk4_reference(g, t_max, step)
    assert sol.values.tobytes() == values.tobytes()
    assert sol.derivs.tobytes() == derivs.tobytes()
    for t in (grid[-2] + 0.3 * (t_max - grid[-2]), t_max):
        h, hp = hermite_reference(grid, values, derivs, g, t)
        assert (sol.value(t), sol.deriv(t)) == (h, hp), f"last cell differs at t={t!r}"


def test_quadrature_and_ivp_determinism():
    f = lambda t: t**3 / (1.0 + t * t) ** 4
    assert integrate_finite(f, 0.0, 1.0) == integrate_finite(f, 0.0, 1.0)
    g = lambda t: 0.2 / (1.0 + t * t) ** 2
    a = solve_h_ivp(g, 5.0, 1e-3)
    b = solve_h_ivp(g, 5.0, 1e-3)
    assert a.values == b.values and a.derivs == b.derivs


if HAS_HYPOTHESIS:

    @given(
        a=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False),
        b=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False),
        c=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=100)
    def test_finite_quadratic_closed_form(a, b, c):
        """Adaptive Simpson is exact on quadratics, up to rounding."""
        upper = 1.5
        got = integrate_finite(lambda t: a + b * t + c * t * t, 0.0, upper)
        exact = a * upper + b * upper**2 / 2.0 + c * upper**3 / 3.0
        assert abs(got - exact) <= 1e-9 * (1.0 + abs(exact)), f"got {got!r}, want {exact!r}"
