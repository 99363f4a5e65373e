"""Sobolev functionals of radial witnesses and their decay conditions.

On flat space the extremal profiles make every functional a closed form:
mass 1 and energy K^-p, with K from the independent oracles.
"""

import math

import pytest

from radsob.model_manifold import (
    RationalDecay,
    build_model,
    euclidean_model,
)
from radsob import QuadratureError
from radsob.numerics import TOL
from radsob.sobolev import (
    DivergentTailError,
    RadialFunction,
    TailBoundError,
    gradient_energy,
    mass_pstar,
    talenti_function,
    verify_decay_conditions,
)
from radsob.sharp import SobolevParams
from radsob.talenti import TalentiProfile

import _oracles
from _oracles import sobolev_quotient

try:
    from hypothesis import given, settings, strategies as st

    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False


P42 = SobolevParams(4, 2.0)
K42 = _oracles.sharp_beta_k(4, 2.0)[1]
EUC4 = euclidean_model(4, 50.0)
RAT01 = build_model(4, RationalDecay(0.1), t_max=50.0, step=1e-3)


def _witness(lam, params=P42):
    return talenti_function(TalentiProfile.build(params, lam))


def _scaled(u, c):
    """The witness c * u."""
    return u._replace(eval=lambda t: c * u.eval(t), deriv=lambda t: c * u.deriv(t))


def _plain(u, model):
    """Energy over mass, the quotient that is not scale free."""
    return gradient_energy(u, model) / mass_pstar(u, model)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the tail map t = split/u is singular for decay power d < 2 "
                          "(ROADMAP item 7): the energy is off by 4.6e-10 relative")
def test_flat_energy_meets_tol_where_the_tail_map_is_singular():
    """On flat R^3 at p = 2.5 > (m+1)/2 the energy integrand decays like
    t^-d with d = (m-1)/(p-1) < 2; the energy must still be K^-p to the
    rel_tol of numerics.TOL."""
    params = SobolevParams(3, 2.5)
    energy = gradient_energy(_witness(1.0, params), euclidean_model(3, 50.0))
    k_pow = _oracles.sharp_beta_k(3, 2.5)[1] ** -2.5
    assert abs(energy - k_pow) <= TOL[1] * k_pow, (energy - k_pow) / k_pow


def test_flat_energy_and_mass_closed_forms():
    u = _witness(1.0)
    energy = float(gradient_energy(u, EUC4))
    mass = float(mass_pstar(u, EUC4))
    k_pow = K42**-2.0
    assert abs(energy - k_pow) / k_pow < 1e-9, f"energy {energy!r} vs K^-p {k_pow!r}"
    assert abs(mass - 1.0) < 1e-9, f"mass {mass!r}"


def test_flat_quotients_attain_sharp_value():
    for lam in (0.5, 1.0, 5.0):
        u = _witness(lam)
        q = float(sobolev_quotient(u, EUC4))
        k_pow = K42**-2.0
        assert abs(q - k_pow) / k_pow < 1e-8, f"quotient at lam={lam}: {q!r}"
        qp = _plain(u, EUC4)
        assert abs(qp - q) / q < 1e-7, f"plain vs sobolev at mass 1: {qp!r} vs {q!r}"


def test_sobolev_quotient_scaling_invariance():
    u = _witness(1.0)
    base = float(sobolev_quotient(u, EUC4))
    for c in (2.0, 0.3):
        scaled = float(sobolev_quotient(_scaled(u, c), EUC4))
        assert abs(scaled - base) / base < 1e-12, f"scaling by {c} moved quotient"
    plain_scaled = _plain(_scaled(u, 2.0), EUC4)
    plain = _plain(u, EUC4)
    assert abs(plain_scaled - plain) / plain > 0.1, "plain quotient should not be scale free"


def test_no_witness_beats_sharp_bound_on_flat_space():
    """Non-extremal witnesses (1 + t^2)^-k sit strictly above the floor K^-p."""
    k_pow = K42**-2.0
    for k in (1.2, 1.5, 2.0, 3.0):
        u = RadialFunction(
            eval=lambda t, k=k: (1.0 + t * t) ** -k,
            deriv=lambda t, k=k: -2.0 * k * t * (1.0 + t * t) ** (-k - 1.0),
            decay_order=2.0 * k,
            params=P42,
            split_hint=1.0,
        )
        _oracles.spot_check(u)
        q = float(sobolev_quotient(u, EUC4))
        assert q > k_pow * (1.0 + 1e-6), f"(1+t^2)^-{k} reached the bound: {q!r} vs {k_pow!r}"


def test_functionals_grow_with_the_model():
    """A bigger warped volume element increases both integrals."""
    u = _witness(1.0)
    assert float(mass_pstar(u, RAT01)) >= float(mass_pstar(u, EUC4)) * (1.0 - 1e-12)
    assert float(gradient_energy(u, RAT01)) >= float(gradient_energy(u, EUC4)) * (1.0 - 1e-12)


def test_plain_below_sobolev_when_mass_exceeds_one():
    u = _witness(1.0)
    mass = float(mass_pstar(u, RAT01))
    assert mass > 1.0
    plain = _plain(u, RAT01)
    sob = float(sobolev_quotient(u, RAT01))
    assert plain <= sob * (1.0 + 1e-12), f"{plain!r} > {sob!r} at mass {mass!r}"


def test_divergent_tails_are_refused():
    slow = RadialFunction(
        eval=lambda t: (1.0 + t * t) ** -0.2,
        deriv=lambda t: -0.4 * t * (1.0 + t * t) ** -1.2,
        decay_order=0.4,
        params=P42,
        split_hint=1.0,
    )
    with pytest.raises(DivergentTailError):
        mass_pstar(slow, EUC4)
    with pytest.raises(DivergentTailError):
        gradient_energy(slow, EUC4)


def test_tail_bound_refusal_on_short_window():
    """Wide witnesses put energy beyond the solved window and must refuse."""
    u_wide = _witness(5.0)
    with pytest.raises(TailBoundError):
        gradient_energy(u_wide, RAT01)
    narrow = float(gradient_energy(_witness(1.0), RAT01))
    assert narrow > 0.0


def test_spot_check_catches_wrong_derivative():
    _oracles.spot_check(_witness(1.0))
    broken = RadialFunction(
        eval=lambda t: (1.0 + t * t) ** -1.0,
        deriv=lambda t: -t * (1.0 + t * t) ** -2.0,
        decay_order=2.0,
        params=P42,
        split_hint=1.0,
    )
    with pytest.raises(ValueError):
        _oracles.spot_check(broken)


def test_decay_report_flat_space():
    for lam in (1.0, 20.0):
        report = verify_decay_conditions(_witness(lam), EUC4)
        assert report.flux_decreasing, f"decay report failed at lam={lam}: {report!r}"
        assert len(report.flux_rows) == 5


def test_decay_report_warped_uses_the_radii_inside_the_window():
    """t_max = 50 keeps the flux radii up to 0.9 t_max = 45, so 2 to 40."""
    report = verify_decay_conditions(_witness(1.0), RAT01)
    assert [r for r, _ in report.flux_rows] == [2.0, 5.0, 10.0, 20.0, 40.0]
    assert report.flux_decreasing


def _bumped(bump):
    """(1+t^2)^-2 plus bump * exp(-(t-30)^2): a fast-decaying witness with
    a bump at t = 30."""
    return RadialFunction(
        eval=lambda t: (1.0 + t * t) ** -2.0 + bump * math.exp(-((t - 30.0) ** 2)),
        deriv=lambda t: -4.0 * t * (1.0 + t * t) ** -3.0
        - 2.0 * bump * (t - 30.0) * math.exp(-((t - 30.0) ** 2)),
        decay_order=4.0,
        params=P42,
        split_hint=1.0,
    )


def test_decay_report_negative_control_rises_after_its_peak():
    """A bump at t = 30 on top of a fast-decaying witness: s(R) peaks at
    R = 2, falls, and rises again at R = 40, so the check fails."""
    u = _bumped(3e-3)
    _oracles.spot_check(u)
    report = verify_decay_conditions(u, EUC4)
    averages = [s for _, s in report.flux_rows]
    assert max(averages) == averages[0] and averages[-1] > averages[-2]
    assert not report.flux_decreasing


@pytest.mark.xfail(strict=True, raises=QuadratureError,
                   reason="integrate_finite stalls on cancellation noise: its panel floor "
                          "scales with the panel's own estimate (ROADMAP item 7)")
def test_decay_report_of_a_larger_bump_needs_no_stalled_panel():
    """With a 1e-2 bump the flux integrand cancels to rounding noise near
    t = 30, where adaptive Simpson stalls on [30, 30]; the report must
    still come out, and fail like the 3e-3 control."""
    report = verify_decay_conditions(_bumped(1e-2), EUC4)
    assert not report.flux_decreasing


def test_decay_report_refuses_a_witness_whose_bulk_the_radii_miss():
    """Where s(R) is largest at the last radius (or no radius fits the
    window), no radius clears the witness's bulk: a usage error."""
    for u, model in ((_witness(1e10), EUC4), (_witness(1.0), euclidean_model(4, 5.0)),
                     (_witness(1.0), euclidean_model(4, 2.0))):
        with pytest.raises(ValueError, match="clears the witness's bulk"):
            verify_decay_conditions(u, model)


def test_decay_report_divergent_flagged():
    slow = RadialFunction(
        eval=lambda t: (1.0 + t * t) ** -0.45,
        deriv=lambda t: -0.9 * t * (1.0 + t * t) ** -1.45,
        decay_order=0.9,
        params=P42,
        split_hint=1.0,
    )
    with pytest.raises(DivergentTailError, match="does not converge"):
        verify_decay_conditions(slow, EUC4)


if HAS_HYPOTHESIS:

    @given(c=st.floats(min_value=0.2, max_value=5.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=10, deadline=None)
    def test_sobolev_quotient_scale_free(c):
        u = _witness(1.0)
        base = float(sobolev_quotient(u, EUC4))
        scaled = float(sobolev_quotient(_scaled(u, c), EUC4))
        assert abs(scaled - base) / base < 1e-9, f"scaling by {c} moved the quotient"
