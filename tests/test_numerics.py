"""Quadrature and the warping IVP against closed forms.

Expected values come from elementary antiderivatives and the frozen
high-precision IVP oracles in tests/_oracles.py.
"""

import math
from array import array

import pytest

from radsob import OdeError, QuadratureError
from radsob.numerics import (
    MAX_GRID_STEPS,
    grid_steps,
    integrate_finite,
    integrate_semi_infinite,
    solve_h_ivp,
)
from radsob.warping import (
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    _gauss,
    integrate_panel,
    panel_volumes,
)

from radsob.model_manifold import ConstantCutoff, RationalDecay
from radsob.table import Tabulated

from _oracles import (
    RATIONAL_B1_H, RATIONAL_B1_HP, SINH_1, hermite_reference, ivp_nodes, rk4_reference,
)

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
        lambda t: t**5 / (1.0 + t * t) ** 4, 1.0, decay_power=3.0
    )
    exact = 1.0 / 6.0
    assert abs(got - exact) / exact < 1e-10, f"got {got!r}, want {exact!r}"


def test_semi_infinite_sliver_from_declared_power():
    """integral over [1, inf) of t^-1.5 equals 2; the tail beyond t = 1e8
    is 1e-4 of it and is added from the declared power alone."""
    f = lambda t: t**-1.5
    got = integrate_semi_infinite(f, 1.0, start=1.0, decay_power=1.5)
    assert abs(got - 2.0) / 2.0 < 1e-10, f"got {got!r}"
    wrong = integrate_semi_infinite(f, 1.0, start=1.0, decay_power=3.0)
    assert abs(wrong - 2.0) / 2.0 > 1e-5, f"a wrong power went unnoticed: {wrong!r}"


def test_semi_infinite_start_offset():
    """integral over [1, inf) of t^-3 equals 1/2."""
    got = integrate_semi_infinite(lambda t: t**-3.0, 1.0, start=1.0, decay_power=3.0)
    assert abs(got - 0.5) < 1e-11, f"got {got!r}"
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda t: t**-3.0, 1.0, start=-1.0, decay_power=3.0)


def test_semi_infinite_slow_tail_refused():
    with pytest.raises(QuadratureError):
        integrate_semi_infinite(lambda t: 1.0 / (1.0 + t), 1.0, decay_power=1.0)


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


# The positive nodes and their weights of the 10-point Gauss-Legendre rule,
# as tabulated (Abramowitz and Stegun, Table 25.4), rounded to 16 digits.
PUBLISHED_GAUSS_10 = (
    (0.1488743389816312, 0.2955242247147529),
    (0.4333953941292472, 0.2692667193099963),
    (0.6794095682990244, 0.2190863625159820),
    (0.8650633666889845, 0.1494513491505806),
    (0.9739065285171717, 0.0666713443086881),
)


def test_gauss_legendre_ten_point_rule():
    """The rule the panels use: weights summing to 2, nodes symmetric about
    0, exact on x^k for k <= 19, and the tabulated nodes and weights."""
    nodes, weights = GAUSS_NODES, GAUSS_WEIGHTS
    assert len(nodes) == len(weights) == 10
    assert abs(sum(weights) - 2.0) <= 2e-15
    assert nodes == tuple(-x for x in reversed(nodes)) and list(nodes) == sorted(nodes)
    assert weights == weights[::-1]
    for k in range(20):
        moment = sum(w * x**k for x, w in zip(nodes, weights))
        assert abs(moment - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) <= 1e-14, k
    for (x, w), got_x, got_w in zip(PUBLISHED_GAUSS_10, nodes[5:], weights[5:]):
        assert abs(got_x - x) <= 1e-16 and abs(got_w - w) <= 2e-16, (got_x, got_w)


def test_checked_panel_rule_meets_what_one_rule_misses():
    """One 10-point rule on s^39 over [0, 0.25] misses the exact integral
    by far more than 1e-13 relative; the checked rule halves the panel
    until its halves agree, and meets it, as on every power up to 299."""
    for k in (39, 59, 149, 299):
        exact = 0.25 ** (k + 1) / (k + 1)
        assert abs(_gauss(lambda s: s**k, 0.0, 0.25) - exact) > 1e-13 * exact
        assert abs(integrate_panel(lambda s: s**k, 0.0, 0.25) - exact) <= 1e-14 * exact, k
    # A polynomial of degree 19 is one panel's 30 values.
    calls = []
    got = integrate_panel(lambda s: calls.append(s) or s**19, 1.0, 3.0)
    assert len(calls) == 30 and abs(got - (3.0**20 - 1.0) / 20.0) <= 1e-15 * got


def test_panel_volumes_integrates_the_function_it_is_handed():
    """panel_volumes knows no model: handed 3t^2 on [0, 10], it gives the
    prefix integral t^3 to 1e-14, at panel edges and inside panels."""
    volume = panel_volumes(lambda t: 3.0 * t * t, 10.0)
    for t in (0.1, 0.25, 1.0, 3.3, 7.77, 9.99, 10.0):
        assert abs(volume(t) - t**3) <= 1e-14 * t**3, (t, volume(t))


def test_checked_panel_rule_refuses_a_singular_panel():
    """Near an integrable singularity the halves never agree: QuadratureError
    at PANEL_MAX_DEPTH, the check failure that exits 1."""
    with pytest.raises(QuadratureError, match="Gauss panel rule stalled"):
        integrate_panel(lambda s: abs(s - 0.1) ** -0.5, 0.0, 0.25)


def node_slope(pairs, t, step):
    """h' at the node t of a sweep of the given step, from its node pairs."""
    return pairs[round(t / step)][1]


def test_ivp_zero_curvature_is_identity():
    (h, _), pairs = ivp_nodes(lambda t: 0.0, 10.0, 1e-3, math.inf)
    for t in (0.5, 1.0, 5.0, 10.0):
        assert abs(h(t) - t) / t < 1e-12, f"h({t}) = {h(t)!r}"
        assert abs(node_slope(pairs, t, 1e-3) - 1.0) < 1e-12


def test_ivp_constant_curvature_is_sinh():
    (h, _), pairs = ivp_nodes(lambda t: 1.0, 3.0, 1e-3, math.inf)
    assert abs(h(1.0) - SINH_1) / SINH_1 < 1e-12
    for t in (0.5, 2.0, 3.0):
        assert abs(h(t) - math.sinh(t)) / math.sinh(t) < 1e-12
        assert abs(node_slope(pairs, t, 1e-3) - math.cosh(t)) / math.cosh(t) < 1e-12


def test_ivp_rational_curvature_oracles():
    g = lambda t: 2.0 / (1.0 + t * t) ** 2
    (h, _), pairs = ivp_nodes(g, 12.0, 1e-3, math.inf)
    for t, ref in RATIONAL_B1_H.items():
        rel = abs(h(t) - ref) / ref
        assert rel < 1e-12, f"h({t}) off by {rel:.3e}"
    for t, ref in RATIONAL_B1_HP.items():
        rel = abs(node_slope(pairs, t, 1e-3) - ref) / ref
        assert rel < 1e-12, f"h'({t}) off by {rel:.3e}"


def test_ivp_dense_output_between_nodes():
    g = lambda t: 2.0 / (1.0 + t * t) ** 2
    coarse, _ = solve_h_ivp(g, 6.0, 1e-3, math.inf)
    fine, _ = solve_h_ivp(g, 6.0, 2.5e-4, math.inf)
    for t in (0.31415, 1.23456, 4.99999):
        rel = abs(coarse(t) - fine(t)) / fine(t)
        assert rel < 1e-10, f"dense value at t={t} off by {rel:.3e}"


def test_ivp_is_one_sweep():
    """n steps call the curvature 2n + 1 times: one RK4 sweep, no second
    pass and no tabulated h''.  h and h' at t_max are node n's own bits,
    read with no further curvature call."""
    calls = []

    def g(t):
        calls.append(t)
        return 0.2 / (1.0 + t * t) ** 2

    for t_max, step in ((5.0, 1e-2), (1.0, 0.3), (0.5, 1.0), (3.0, 0.01604)):
        calls.clear()
        (value, end_slope), pairs = ivp_nodes(g, t_max, step, math.inf)
        n = grid_steps(t_max, step)
        assert len(pairs) == n + 1
        assert len(calls) == 2 * n + 1, f"{len(calls)} curvature calls for n={n}"
        h, hp = pairs[n]
        ends = (value(t_max), end_slope)
        assert [x.hex() for x in ends] == [h.hex(), hp.hex()], (t_max, step)
        assert len(calls) == 2 * n + 1, f"a lookup at t_max={t_max} called the curvature"


def test_grid_steps_rounds_and_caps_the_grid():
    """n = round(t_max / step), at least 1, up to MAX_GRID_STEPS = 10^7;
    one step more is refused, and so is a non-positive window or step."""
    assert MAX_GRID_STEPS == 10_000_000
    assert grid_steps(50.0, 1e-3) == 50_000
    assert grid_steps(3.0, 0.01604) == 187
    assert grid_steps(0.5, 1.0) == 1
    assert grid_steps(1e-300, 1e-12) == 1
    assert grid_steps(1e7, 1.0) == MAX_GRID_STEPS
    with pytest.raises(ValueError, match="more than the 10,000,000 a warping grid may have"):
        grid_steps(1e7 + 1.0, 1.0)
    with pytest.raises(ValueError) as refused:
        grid_steps(50.0, 1e-12)
    assert str(refused.value) == (
        "step 1e-12 on [0, 50] needs 5e+13 grid steps, "
        "more than the 10,000,000 a warping grid may have"
    )
    for t_max, step in ((0.0, 1e-3), (-1.0, 1e-3), (math.nan, 1e-3), (1.0, 0.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="must be positive"):
            grid_steps(t_max, step)


def test_ivp_window_and_argument_guards():
    value, _ = solve_h_ivp(lambda t: 0.0, 1.0, 1e-3, math.inf)
    with pytest.raises(ValueError):
        value(1.5)
    with pytest.raises(ValueError):
        solve_h_ivp(lambda t: 0.0, -1.0, 1e-3, math.inf)
    with pytest.raises(ValueError):
        solve_h_ivp(lambda t: 0.0, 1.0, 0.0, math.inf)
    # A grid over the cap is refused before the sweep calls g.
    calls = []
    with pytest.raises(ValueError, match="a warping grid may have"):
        solve_h_ivp(lambda t: calls.append(t) or 0.0, 50.0, 1e-12, math.inf)
    assert calls == []


def test_ivp_runaway_curvature_raises():
    """The sweep checks finiteness once, at the end, and still names the
    step where the state first stopped being finite."""
    with pytest.raises(OdeError) as info:
        solve_h_ivp(lambda t: math.exp(t), 50.0, 1e-3, math.inf)
    assert str(info.value) == "warping solution became non-finite near t=11.722"


SWEEP_PROFILES = {
    "rational:0.1": RationalDecay(0.1),
    "const:0.05:3": ConstantCutoff(0.05, 3.0),
    "table": Tabulated([0.0, 1.0, 2.0, 4.0, 8.0], [0.3, 0.25, 0.1, 0.02, 0.001], 3.0),
}


@pytest.mark.parametrize("name", sorted(SWEEP_PROFILES))
@pytest.mark.parametrize("t_max, step", [(10.0, 1e-3), (1.0, 0.3), (3.0, 0.01604)])
def test_ivp_matches_the_stepwise_reference_bit_for_bit(name, t_max, step):
    """The node pairs h and h' at every node, and the dense output in the
    last cell, have the bits of the plain RK4 loop, and at t_max the
    warping is the last node's h and h'.  At (3.0, 0.01604) there are
    n = 187 steps and n * (3/n) rounds above 3, past the cutoff of
    const:0.05:3, while the grid's last node is t_max itself."""
    g = SWEEP_PROFILES[name].g
    (value, end_slope), pairs = ivp_nodes(g, t_max, step, math.inf)
    grid, values, derivs = rk4_reference(g, t_max, step)
    assert t_max / grid_steps(t_max, step) == grid[1]
    assert array("d", (h for h, _ in pairs)).tobytes() == values.tobytes()
    assert array("d", (hp for _, hp in pairs)).tobytes() == derivs.tobytes()
    t = grid[-2] + 0.3 * (t_max - grid[-2])
    assert value(t) == hermite_reference(grid, values, derivs, t), f"last cell at t={t!r}"
    assert (value(t_max), end_slope) == (values[-1], derivs[-1])


@pytest.mark.parametrize("t_max, step", [(50.0, 1e-3), (3.0, 0.01604), (4.0, 0.3)])
def test_the_sweep_stops_past_the_radius_where_g_vanishes(t_max, step):
    """With flat_from = t_cut, the const:0.05:3 sweep stops at the first
    node J whose step reads g past t_cut only, after 2J + 1 calls of g.
    Its nodes up to J have the bits of the plain RK4 loop; past J its node
    pairs, dense output, h at t_max and end slope are the line from node J,
    within 1e-12 of the full sweep.  At (3.0, 0.01604) the last step reads
    g at 186 dt + dt = 3 + 4e-16, past t_cut, so J is the last node, and
    the sweep is the full one."""
    profile = ConstantCutoff(0.05, 3.0)
    calls = []

    def g(t):
        calls.append(t)
        return profile.g(t)

    (value, end_slope), pairs = ivp_nodes(g, t_max, step, 3.0)
    (full, full_end_slope), full_pairs = ivp_nodes(profile.g, t_max, step, math.inf)
    grid, values, derivs = rk4_reference(profile.g, t_max, step)
    n = len(grid) - 1
    stop = next((i for i in range(1, n + 1) if (i - 1) * grid[1] + grid[1] > 3.0), n)
    assert len(calls) == 2 * stop + 1, (len(calls), stop)
    assert array("d", (h for h, _ in pairs[:stop + 1])).tobytes() == values[:stop + 1].tobytes()
    assert array("d", (hp for _, hp in pairs[:stop + 1])).tobytes() == derivs[:stop + 1].tobytes()
    for (h, hp), (h_full, hp_full) in zip(pairs[stop:], full_pairs[stop:]):
        assert abs(h - h_full) <= 1e-12 * h_full and hp == hp_full == derivs[stop]
    for t in (0.5 * grid[stop], grid[stop] + 0.37 * (t_max - grid[stop]), t_max):
        assert abs(value(t) - full(t)) <= 1e-12 * full(t), t
    assert end_slope == full_end_slope


def test_quadrature_and_ivp_determinism():
    f = lambda t: t**3 / (1.0 + t * t) ** 4
    assert integrate_finite(f, 0.0, 1.0) == integrate_finite(f, 0.0, 1.0)
    g = lambda t: 0.2 / (1.0 + t * t) ** 2
    ((a, _), a_pairs), ((b, _), b_pairs) = (ivp_nodes(g, 5.0, 1e-3, math.inf) for _ in range(2))
    assert a_pairs == b_pairs
    volumes = [panel_volumes(lambda t: 2.0 * h(t) ** 3, 5.0)(4.321) for h in (a, b)]
    assert volumes[0] == volumes[1]


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
