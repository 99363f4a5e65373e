"""Sobolev functionals and the radial witness search.

On flat space the extremal profiles make every functional a closed form:
mass 1 and energy K^-p, with K from the independent oracles.
"""

import math

import pytest

from radsob.model_manifold import (
    RationalDecay,
    build_model,
    conical_model,
    euclidean_model,
    model_from_warping,
)
from radsob.sobolev import (
    DivergentTailError,
    RadialFunction,
    SobolevUnsupportedError,
    TailBoundError,
    estimate_radial_constant,
    gradient_energy,
    mass_pstar,
    quotient_plain,
    quotient_sobolev,
    talenti_function,
    verify_decay_conditions,
)
from radsob.talenti import SobolevParams, TalentiProfile

import _oracles

try:
    from hypothesis import given, settings, strategies as st

    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False


P42 = SobolevParams(4, 2.0)
K42 = _oracles.sharp_beta_k(4, 2.0)[1]
EUC4 = euclidean_model(4)
RAT01 = build_model(4, RationalDecay(0.1), t_max=50.0, step=1e-3)


def _witness(lam, params=P42):
    return talenti_function(TalentiProfile.build(params, lam))


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
        q = float(quotient_sobolev(u, EUC4))
        k_pow = K42**-2.0
        assert abs(q - k_pow) / k_pow < 1e-8, f"quotient at lam={lam}: {q!r}"
        qp = float(quotient_plain(u, EUC4))
        assert abs(qp - q) / q < 1e-7, f"plain vs sobolev at mass 1: {qp!r} vs {q!r}"


def test_sobolev_quotient_scaling_invariance():
    u = _witness(1.0)
    base = float(quotient_sobolev(u, EUC4))
    for c in (2.0, 0.3):
        scaled = float(quotient_sobolev(u.scaled(c), EUC4))
        assert abs(scaled - base) / base < 1e-12, f"scaling by {c} moved quotient"
    plain_scaled = float(quotient_plain(u.scaled(2.0), EUC4))
    plain = float(quotient_plain(u, EUC4))
    assert abs(plain_scaled - plain) / plain > 0.1, "plain quotient should not be scale free"


def test_scaled_validation():
    with pytest.raises(ValueError):
        _witness(1.0).scaled(0.0)


def test_no_witness_beats_sharp_bound_on_flat_space():
    """Non-extremal witnesses (1 + t^2)^-k sit strictly above the floor K^-p."""
    k_pow = K42**-2.0
    for k in (1.2, 1.5, 2.0, 3.0):
        u = RadialFunction(
            eval=lambda t, k=k: (1.0 + t * t) ** -k,
            deriv=lambda t, k=k: -2.0 * k * t * (1.0 + t * t) ** (-k - 1.0),
            decay_order=2.0 * k,
            params=P42,
        )
        u.spot_check()
        q = float(quotient_sobolev(u, EUC4))
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
    plain = float(quotient_plain(u, RAT01))
    sob = float(quotient_sobolev(u, RAT01))
    assert plain <= sob * (1.0 + 1e-12), f"{plain!r} > {sob!r} at mass {mass!r}"


def test_divergent_tails_are_refused():
    slow = RadialFunction(
        eval=lambda t: (1.0 + t * t) ** -0.2,
        deriv=lambda t: -0.4 * t * (1.0 + t * t) ** -1.2,
        decay_order=0.4,
        params=P42,
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
    # The witness search scans wide scales too, so it refuses an IVP model
    # with curvature beyond the window instead of narrowing its range.
    with pytest.raises(TailBoundError):
        estimate_radial_constant(RAT01, P42)


def test_collapsed_volume_growth_unsupported():
    capped = model_from_warping(
        4,
        h=lambda t: 1.0 - math.exp(-t),
        h_prime=lambda t: math.exp(-t),
        h_second=lambda t: -math.exp(-t),
        t_max=250.0,
        step=1e-2,
        name="capped",
    )
    with pytest.raises(SobolevUnsupportedError):
        estimate_radial_constant(capped, P42)


def test_spot_check_catches_wrong_derivative():
    talenti_function(TalentiProfile.build(P42, 1.0)).spot_check()
    broken = RadialFunction(
        eval=lambda t: (1.0 + t * t) ** -1.0,
        deriv=lambda t: -t * (1.0 + t * t) ** -2.0,
        decay_order=2.0,
        params=P42,
    )
    with pytest.raises(ValueError):
        broken.spot_check()


def test_decay_report_flat_space():
    for lam in (1.0, 20.0):
        report = verify_decay_conditions(_witness(lam), EUC4)
        assert report.all_pass, f"decay report failed at lam={lam}: {report!r}"
        assert report.l1_finite and report.l1_weighted > 0.0
        assert len(report.flux_rows) == 5


def test_decay_report_warped_and_grid_capping():
    report = verify_decay_conditions(_witness(1.0), RAT01, r_grid=(2.0, 10.0, 100.0))
    assert report.flux_rows[-1][0] == 50.0
    assert report.all_pass


def test_decay_report_divergent_flagged():
    slow = RadialFunction(
        eval=lambda t: (1.0 + t * t) ** -0.45,
        deriv=lambda t: -0.9 * t * (1.0 + t * t) ** -1.45,
        decay_order=0.9,
        params=P42,
    )
    report = verify_decay_conditions(slow, EUC4)
    assert not report.l1_finite
    assert math.isinf(report.l1_weighted)
    assert not report.all_pass


def test_estimate_flat_recovers_sharp_constant_quickly():
    est = estimate_radial_constant(EUC4, P42)
    assert abs(est.c_est - K42) / K42 < 1e-8, f"c_est {est.c_est!r} vs K {K42!r}"
    again = estimate_radial_constant(EUC4, P42)
    assert est == again, "estimate is not deterministic"
    assert est.quotient_evals > 0


def test_estimate_is_scan_plus_golden_section_only():
    """25 scan points, 2 bracket probes, at most 30 refinements, 1 final pass."""
    est = estimate_radial_constant(conical_model(4, 0.8), P42)
    assert est.quotient_evals <= 58, f"search used {est.quotient_evals} quotients"


def test_estimate_dimension_mismatch():
    with pytest.raises(ValueError):
        estimate_radial_constant(EUC4, SobolevParams(3, 2.0))


if HAS_HYPOTHESIS:

    @given(c=st.floats(min_value=0.2, max_value=5.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=10, deadline=None)
    def test_sobolev_quotient_scale_free(c):
        u = _witness(1.0)
        base = float(quotient_sobolev(u, EUC4))
        scaled = float(quotient_sobolev(u.scaled(c), EUC4))
        assert abs(scaled - base) / base < 1e-9, f"scaling by {c} moved the quotient"
