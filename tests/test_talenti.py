"""Extremal profile family: normalisation, sharp constant, ODE residual.

Expected constants come from the two independent closed forms in
tests/_oracles.py (Beta reduction and the published product formula), and
the mass split from the 30-digit table there.
The Euler-Lagrange residual and phi'' are reference formulas kept there
too; the residual tests hold the package's phi, phi' and K against them.
"""

import math

import pytest

from radsob import sharp, talenti
from radsob.numerics import integrate_finite, integrate_semi_infinite
from radsob.sharp import (
    SobolevParams,
    sharp_beta,
    sharp_constant,
    sphere_area,
    unit_ball_volume,
)
from radsob.talenti import TalentiProfile, mass_split, sharp_constant_detail

import _oracles

try:
    from hypothesis import given, settings, strategies as st

    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False


def test_params_validation():
    for m, p in ((2, 2.0), (3, 1.0), (3, 3.0), (3, 0.5), (1, 0.5)):
        with pytest.raises(ValueError):
            SobolevParams(m, p)
    with pytest.raises(ValueError):
        SobolevParams(3.5, 2.0)


def test_derived_exponents():
    p42 = SobolevParams(4, 2.0)
    assert p42.p_star == 4.0 and p42.conj == 2.0
    p315 = SobolevParams(3, 1.5)
    assert abs(p315.p_star - 3.0) < 1e-15 and abs(p315.conj - 3.0) < 1e-15


def test_ball_and_sphere_geometry():
    for m in (2, 3, 4, 6):
        assert abs(unit_ball_volume(m) - _oracles.ball_volume(m)) < 1e-14
        assert abs(sphere_area(m) - _oracles.sphere_area(m)) < 1e-13
        assert abs(sphere_area(m) - m * unit_ball_volume(m)) < 1e-13
    assert abs(unit_ball_volume(4) - math.pi**2 / 2.0) < 5e-15


def test_oracle_table_pins_closed_forms():
    """Guard the frozen table against edits to the oracle module itself."""
    for (m, p), (fb, fk) in _oracles.SHARP_TABLE.items():
        ob, ok = _oracles.sharp_beta_k(m, p)
        assert abs(ob - fb) / fb < 1e-12, f"beta({m},{p}) table drifted"
        assert abs(ok - fk) / fk < 1e-12, f"K({m},{p}) table drifted"


# (m, p) pairs over which the closed forms are held against the oracles:
# p from 1.05 to m - 0.5 in steps of 0.05, at dimensions up to 50, where
# Gamma(m) is of order 1e62.
CLOSED_FORM_GRID = [
    (m, round(1.05 + 0.05 * i, 2))
    for m in (2, 3, 4, 6, 10, 20, 50)
    for i in range(round((m - 1.55) / 0.05) + 1)
]


def test_beta_and_k_against_beta_reduction_oracle():
    assert (2, 1.5) in CLOSED_FORM_GRID and (50, 49.5) in CLOSED_FORM_GRID
    for m, p in CLOSED_FORM_GRID:
        ob, ok = _oracles.sharp_beta_k(m, p)
        params = SobolevParams(m, p)
        pb = sharp_beta(params)
        pk = sharp_constant(params)
        assert abs(pb - ob) / ob < 1e-13, f"beta({m},{p}): {pb!r} vs oracle {ob!r}"
        assert abs(pk - ok) / ok < 1e-13, f"K({m},{p}): {pk!r} vs oracle {ok!r}"


def test_k_against_published_product_form():
    for m, p in CLOSED_FORM_GRID:
        pk = sharp_constant(SobolevParams(m, p))
        lk = _oracles.talenti_k(m, p)
        assert abs(pk - lk) / lk < 1e-13, f"K({m},{p}): {pk!r} vs {lk!r}"


def test_closed_forms_stay_finite_where_gamma_overflows():
    """Gamma(m) overflows a float beyond m = 171; lgamma does not."""
    params = SobolevParams(400, 2.0)
    with pytest.raises(OverflowError):
        math.gamma(params.m)
    assert 0.0 < sharp_constant(params) < math.inf
    assert 0.0 < sharp_beta(params) < math.inf


def _worst_near_p1_error(max_m=math.inf):
    """Largest relative distance of K from the 40-digit references near
    p = 1, over dimensions up to max_m."""
    return max(
        abs(sharp_constant(SobolevParams(m, 1.0 + d)) - ref) / ref
        for (m, d), ref in _oracles.SHARP_K_NEAR_P1.items() if m <= max_m
    )


def test_k_near_p_one_matches_the_40_digit_references():
    """a = m - m/p is formed as m (p-1)/p, so K keeps its digits as p - 1
    falls to 1e-9."""
    assert _worst_near_p1_error() < 5e-14
    assert _worst_near_p1_error(max_m=10) < 5e-15


def test_the_subtracted_kernel_exponent_misses_near_p_one(monkeypatch):
    """Negative control: the difference m - m/p loses 6 digits at p - 1 = 1e-6."""

    def subtracted(params, shift):
        m, p = params.m, params.p
        return (
            math.log(2.0) + 0.5 * m * math.log(math.pi) - math.lgamma(0.5 * m)
            + math.log((p - 1.0) / p)
            + math.lgamma(m - m / p + shift) + math.lgamma(m / p - shift) - math.lgamma(m)
        )

    monkeypatch.setattr(sharp, "_log_kernel", subtracted)
    ref = _oracles.SHARP_K_NEAR_P1[3, 1e-6]
    assert abs(sharp_constant(SobolevParams(3, 1.0 + 1e-6)) - ref) / ref > 1e-12


def test_gamma_overflow_is_named_with_the_quantity_and_m():
    """unit_ball_volume keeps the bits of its Gamma form up to m = 341 and
    sphere_area up to m = 343; past them Gamma overflows, and each names
    the quantity and m."""
    for m in (2, 3, 4, 50, 171, 341):
        assert unit_ball_volume(m) == _oracles.ball_volume(m)
    for m in (2, 3, 4, 50, 171, 343):
        assert sphere_area(m) == _oracles.sphere_area(m)
    with pytest.raises(ValueError) as refused:
        unit_ball_volume(342)
    assert str(refused.value) == "the unit ball volume's Gamma(m/2 + 1) overflows at m=342"
    with pytest.raises(ValueError) as refused:
        sphere_area(344)
    assert str(refused.value) == "the unit sphere area's Gamma(m/2) overflows at m=344"

def test_scale_invariance_spread():
    for m, p in ((4, 2.0), (3, 2.0), (6, 3.0), (4, 1.5)):
        detail = sharp_constant_detail(SobolevParams(m, p), lambdas=(0.5, 1.0, 5.0, 20.0))
        assert detail["spread"] < 1e-8, f"spread({m},{p}) = {detail['spread']:.3e}"
        assert set(detail["values"]) == {0.5, 1.0, 5.0, 20.0}


def test_mass_normalisation_across_scales():
    """The p*-mass integral(|S^(m-1)| t^(m-1) phi^p*) is one for every
    scale, and mass_split's head is the mass of (phi^p* - phi^p*(T))_+: the
    p*-mass inside T less V(B_T) phi(T)^p*, both here by quadrature."""
    for m, p in ((4, 2.0), (3, 2.0), (3, 1.5), (6, 2.5)):
        params = SobolevParams(m, p)
        decay = params.p_star * (m - p) / (p - 1.0) - (m - 1.0)
        for lam in (0.5, 1.0, 5.0, 20.0):
            profile = TalentiProfile.build(params, lam)

            def mass(t):
                return sphere_area(m) * t ** (m - 1) * profile.phi(t) ** params.p_star

            split = max(1.0, lam ** (1.0 / params.conj))
            total = integrate_semi_infinite(mass, split, decay_power=decay)
            assert abs(total - 1.0) < 1e-8, f"mass({m},{p},lam={lam}) = {total!r}"
            for T in (0.3, 1.0, 4.0):
                inside = integrate_finite(mass, 0.0, T)
                head = inside - unit_ball_volume(m) * T**m * profile.phi(T) ** params.p_star
                got = mass_split(params, lam, T)[0]
                assert abs(got - head) < 1e-10 * head, (m, p, lam, T, got, head)


def _worst_reference_error():
    """Largest relative distance of a mass_split share from _oracles.MASS_SPLIT."""
    worst = 0.0
    for (m, p, lam, T), pair in _oracles.MASS_SPLIT.items():
        for got, want in zip(mass_split(SobolevParams(m, p), lam, T), pair):
            worst = max(worst, abs(got - want) / want)
    return worst


def test_mass_split_matches_the_30_digit_references():
    assert _worst_reference_error() < 1e-12
    for lam in (10.0, 37.5, 1e3, 1e6):
        for T in (0.2, 1.0, 3.0):
            head, tail = mass_split(SobolevParams(4, 2.0), lam, T)
            want = _oracles.head_m4_p2(lam, T)
            assert abs(head - want) < 1e-12 * want and abs(head + tail - 1.0) < 1e-15
    # x = T^q/(lam + T^q) underflows: no mass inside.
    assert mass_split(SobolevParams(4, 2.0), 10.0, 1e-200) == (0.0, 1.0)


def test_the_beta_fraction_refuses_past_its_term_cap():
    """Near the middle of a Beta(5e11 + 1, 5e11) the fraction needs far
    more terms than its cap, and says so."""
    with pytest.raises(ValueError, match=r"I_x\(5e\+11, 5e\+11\) at x=0.5 does not converge"):
        talenti._beta_fraction(5e11 + 1.0, 5e11, 0.5)


def test_swapped_beta_parameters_miss_the_references(monkeypatch):
    """Negative control: a fraction for I_x(b, a) in place of I_x(a, b)."""
    fraction = talenti._beta_fraction
    monkeypatch.setattr(talenti, "_beta_fraction", lambda a, b, x: fraction(b, a, x))
    assert _worst_reference_error() > 1e-3


def test_beta_invariant_across_scales():
    """Recomputing the normalisation at any scale gives the same beta."""
    params = SobolevParams(4, 2.0)
    m, q = params.m, params.conj

    def beta_at(lam):
        split = max(1.0, lam ** (1.0 / q))
        kernel = integrate_semi_infinite(
            lambda t: t ** (m - 1) / (lam + t**q) ** m, split, decay_power=q * m - (m - 1)
        )
        return (sphere_area(m) * lam ** (m / params.p) * kernel) ** (-1.0 / params.p_star)

    values = [beta_at(lam) for lam in (0.5, 1.0, 5.0, 20.0)]
    spread = max(abs(v - values[0]) / values[0] for v in values)
    assert spread < 1e-6, f"beta spread {spread:.3e}"


def test_yamabe_residual_across_parameter_matrix():
    grid = [1e-2 * (1e4) ** (i / 59.0) for i in range(60)]
    for m, p in ((3, 2.0), (4, 2.0), (6, 3.0), (4, 1.5), (3, 2.5), (6, 1.5)):
        params = SobolevParams(m, p)
        k = sharp_constant(params)
        for lam in (0.5, 2.0):
            profile = TalentiProfile.build(params, lam)
            worst = max(abs(_oracles.yamabe_residual(profile, k, t)) for t in grid)
            assert worst < 1e-6, f"residual({m},{p},lam={lam}) = {worst:.3e}"


def test_yamabe_residual_detects_wrong_constant():
    """A perturbed constant k(1+delta) produces a residual close to p*delta."""
    params = SobolevParams(4, 2.0)
    k = sharp_constant(params)
    profile = TalentiProfile.build(params, 1.0)
    delta = 1e-3
    res = _oracles.yamabe_residual(profile, k * (1.0 + delta), 1.0)
    expected = 1.0 - (1.0 + delta) ** params.p
    assert abs(res - expected) < 1e-8, f"residual {res!r}, want {expected!r}"
    assert abs(res) > 0.5 * params.p * delta


def test_yamabe_residual_origin_guard():
    params = SobolevParams(4, 2.0)
    profile = TalentiProfile.build(params, 1.0)
    with pytest.raises(ValueError):
        _oracles.yamabe_residual(profile, sharp_constant(params), 0.0)


def test_phi_prime_matches_finite_differences():
    profile = TalentiProfile.build(SobolevParams(4, 2.0), 1.5)
    for t in (0.3, 0.7, 1.5, 3.0, 7.0):
        d = t * 1e-6
        fd = (profile.phi(t + d) - profile.phi(t - d)) / (2.0 * d)
        an = profile.phi_prime(t)
        assert abs(fd - an) / max(abs(an), 1e-30) < 1e-6, f"phi' at t={t}: {an!r} vs {fd!r}"


def test_phi_second_matches_finite_differences():
    profile = TalentiProfile.build(SobolevParams(3, 2.5), 2.0)
    # phi'' changes sign at t = 1 for these parameters; the relative
    # comparison needs points where it is bounded away from zero.
    for t in (0.5, 2.0, 4.0):
        d = t * 1e-5
        fd = (profile.phi_prime(t + d) - profile.phi_prime(t - d)) / (2.0 * d)
        an = _oracles.phi_second(profile, t)
        assert abs(fd - an) / max(abs(an), 1e-30) < 1e-5, f"phi'' at t={t}: {an!r} vs {fd!r}"


def test_pointwise_guards():
    profile = TalentiProfile.build(SobolevParams(4, 2.0), 1.0)
    with pytest.raises(ValueError):
        profile.phi(-1.0)
    with pytest.raises(ValueError):
        profile.phi_prime(-1.0)
    with pytest.raises(ValueError):
        _oracles.phi_second(profile, 0.0)


def test_profile_scale_validation():
    params = SobolevParams(4, 2.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            TalentiProfile.build(params, bad)


def test_a_coefficient_past_the_float_range_is_named():
    """coef = beta lam^((m-p)/p^2) is lam^4.5 at (20, 2): past the float
    range at lam = 1e100, and refused in the profile's words."""
    with pytest.raises(ValueError) as refused:
        TalentiProfile.build(SobolevParams(20, 2.0), 1e100)
    assert str(refused.value) == ("the profile coefficient beta lambda^((m-p)/p^2) overflows "
                                  "at scale lambda=1e+100, m=20, p=2")


def test_the_profile_past_the_float_range_of_t_to_the_q_is_taken_in_log_space():
    """At (2, 1.5), q = 3 and t^q overflows past t = 5.6e102, where phi and
    phi' (about t^-1 and t^-2) are still floats: there both are the
    exponentials of their logarithms, within 1e-12 of the direct form
    evaluated in 40-digit decimals.  At t = 0, where log t is not finite,
    the OverflowError of a scale whose lam^(-nu) overflows stands."""
    from decimal import Decimal, localcontext

    profile = TalentiProfile.build(SobolevParams(2, 1.5), 1.0)
    coef, lam, q, nu = (Decimal(x) for x in (profile.coef, profile.lam, profile.q, profile.nu))
    with localcontext() as ctx:
        ctx.prec = 40
        for t in (1e103, 1e120, 1e150):
            with pytest.raises(OverflowError):
                t**profile.q
            base = lam + Decimal(t) ** q
            phi = coef * base ** -nu
            slope = -coef * nu * q * Decimal(t) ** (q - 1) * base ** (-nu - 1)
            for got, want in ((profile.phi(t), phi), (profile.phi_prime(t), slope)):
                assert abs(Decimal(got) / want - 1) <= Decimal("1e-12"), (t, got, want)
    tiny = TalentiProfile.build(SobolevParams(4, 2.0), 1e-310)
    for evaluate in (tiny.phi, tiny.phi_prime):
        with pytest.raises(OverflowError):
            evaluate(0.0)


def test_phi_prime_where_a_factor_of_its_direct_form_leaves_the_float_range():
    """At lam = 1e100 near p = 1, (lam + t^q)^(-nu-1) underflows to 0 while
    phi' is still a float: at (4, 1.05), q = 21, and t = 10 the direct form
    is a finite factor times 0, and at (3, 1.01), q = 101, and t = 50 it is
    inf * 0.  There phi' is the exponential of its logarithm, within 1e-12
    of the direct form evaluated once with mpmath at 30 digits."""
    for m, p, t, overflows, want in ((4, 1.05, 10.0, False, -1.00414763192478526171663614022e-92),
                                     (3, 1.01, 50.0, True, -1.54047242028848336607010065457e-143)):
        profile = TalentiProfile.build(SobolevParams(m, p), 1e100)
        q, nu = profile.q, profile.nu
        assert (profile.coef * nu * q * t ** (q - 1.0) == math.inf) is overflows
        assert (profile.lam + t**q) ** (-nu - 1.0) == 0.0
        assert profile.phi_prime(t) == pytest.approx(want, rel=1e-12), (m, p)


def test_head_falls_as_lambda_grows():
    """The mass escapes through a fixed ball: at T = 0.5 the head falls,
    and the tail rises, with every step up in scale."""
    params = SobolevParams(4, 2.0)
    splits = [mass_split(params, lam, 0.5) for lam in (1.0, 10.0, 20.0, 50.0, 100.0, 1e6)]
    assert all(b[0] < a[0] and b[1] > a[1] for a, b in zip(splits, splits[1:])), splits


if HAS_HYPOTHESIS:

    @given(t=st.floats(min_value=1e-2, max_value=1e2, allow_nan=False, allow_infinity=False))
    @settings(max_examples=50)
    def test_yamabe_residual_everywhere_small(t):
        params = SobolevParams(4, 2.0)
        profile = TalentiProfile.build(params, 1.0)
        res = _oracles.yamabe_residual(profile, sharp_constant(params), t)
        assert abs(res) < 1e-6, f"residual at t={t}: {res:.3e}"
