"""Extremal profile family: normalisation, sharp constant, ODE residual.

Expected constants come from the two independent closed forms in
tests/_oracles.py (Beta reduction and the published product formula).
"""

import math

import pytest

from radsob.numerics import integrate_semi_infinite
from radsob.talenti import (
    SobolevParams,
    TalentiProfile,
    cached_beta,
    sharp_constant,
    sharp_constant_detail,
    sphere_area,
    unit_ball_volume,
    yamabe_residual,
)

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


def test_beta_and_k_against_beta_reduction_oracle():
    for (m, p), (ob, ok) in {k: _oracles.sharp_beta_k(*k) for k in _oracles.SHARP_TABLE}.items():
        params = SobolevParams(m, p)
        pb = cached_beta(params)
        pk = sharp_constant(params)
        assert abs(pb - ob) / ob < 1e-9, f"beta({m},{p}): {pb!r} vs oracle {ob!r}"
        assert abs(pk - ok) / ok < 1e-9, f"K({m},{p}): {pk!r} vs oracle {ok!r}"


def test_k_against_published_product_form():
    for m, p in _oracles.SHARP_TABLE:
        pk = sharp_constant(SobolevParams(m, p))
        lk = _oracles.talenti_k(m, p)
        assert abs(pk - lk) / lk < 1e-9, f"K({m},{p}): {pk!r} vs {lk!r}"


def test_scale_invariance_spread():
    for m, p in ((4, 2.0), (3, 2.0), (6, 3.0), (4, 1.5)):
        detail = sharp_constant_detail(SobolevParams(m, p), lambdas=(0.5, 1.0, 5.0, 20.0))
        assert detail["spread"] < 1e-8, f"spread({m},{p}) = {detail['spread']:.3e}"
        assert set(detail["values"]) == {0.5, 1.0, 5.0, 20.0}


def test_mass_normalisation_across_scales():
    """The p*-mass density integrates to one for every scale."""
    for m, p in ((4, 2.0), (3, 2.0)):
        params = SobolevParams(m, p)
        q = params.conj
        decay = q * (m + 1) - m - 1.0 / (p - 1.0)
        for lam in (0.5, 1.0, 5.0, 20.0):
            profile = TalentiProfile.build(params, lam)
            split = max(1.0, lam ** (1.0 / q))
            total = integrate_semi_infinite(profile.density, split, decay_power=decay)
            assert abs(total - 1.0) < 1e-8, f"mass({m},{p},lam={lam}) = {total!r}"


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
            worst = max(abs(yamabe_residual(profile, k, t)) for t in grid)
            assert worst < 1e-6, f"residual({m},{p},lam={lam}) = {worst:.3e}"


def test_yamabe_residual_detects_wrong_constant():
    """A perturbed constant k(1+delta) produces a residual close to p*delta."""
    params = SobolevParams(4, 2.0)
    k = sharp_constant(params)
    profile = TalentiProfile.build(params, 1.0)
    delta = 1e-3
    res = yamabe_residual(profile, k * (1.0 + delta), 1.0)
    expected = 1.0 - (1.0 + delta) ** params.p
    assert abs(res - expected) < 1e-8, f"residual {res!r}, want {expected!r}"
    assert abs(res) > 0.5 * params.p * delta


def test_yamabe_residual_origin_guard():
    params = SobolevParams(4, 2.0)
    profile = TalentiProfile.build(params, 1.0)
    with pytest.raises(ValueError):
        yamabe_residual(profile, sharp_constant(params), 0.0)


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
        an = profile.phi_second(t)
        assert abs(fd - an) / max(abs(an), 1e-30) < 1e-5, f"phi'' at t={t}: {an!r} vs {fd!r}"


def test_pointwise_guards():
    profile = TalentiProfile.build(SobolevParams(4, 2.0), 1.0)
    with pytest.raises(ValueError):
        profile.phi(-1.0)
    with pytest.raises(ValueError):
        profile.phi_prime(-1.0)
    with pytest.raises(ValueError):
        profile.phi_second(0.0)
    with pytest.raises(ValueError):
        profile.density(-0.5)


def test_profile_scale_validation():
    params = SobolevParams(4, 2.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            TalentiProfile.build(params, bad)
    profile = TalentiProfile.build(params, 1.0)
    with pytest.raises(ValueError):
        profile.with_lam(-2.0)


def test_density_vanishes_at_origin_and_escapes_with_scale():
    params = SobolevParams(4, 2.0)
    profile = TalentiProfile.build(params, 1.0)
    assert profile.density(0.0) == 0.0
    at_half = [profile.with_lam(lam).density(0.5) for lam in (10.0, 20.0, 50.0, 100.0)]
    assert all(b < a for a, b in zip(at_half, at_half[1:])), f"densities {at_half!r}"


def test_cached_constants_are_deterministic():
    params = SobolevParams(6, 2.0)
    assert sharp_constant(params) == sharp_constant(params)
    assert cached_beta(params) == cached_beta(params)


if HAS_HYPOTHESIS:

    @given(t=st.floats(min_value=1e-2, max_value=1e2, allow_nan=False, allow_infinity=False))
    @settings(max_examples=50)
    def test_yamabe_residual_everywhere_small(t):
        params = SobolevParams(4, 2.0)
        profile = TalentiProfile.build(params, 1.0)
        res = yamabe_residual(profile, sharp_constant(params), t)
        assert abs(res) < 1e-6, f"residual at t={t}: {res:.3e}"
