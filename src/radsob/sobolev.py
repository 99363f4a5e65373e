"""Sobolev functionals for radial test functions on model manifolds.

The central quantities are the p-energy integral(|u'|^p dvol) and the
p*-mass integral(u^p* dvol) of a radial u with fast enough decay, over
[0, inf) with a certified tail, and the averaged-flux decay conditions of
`radsob verify`.  Any such u is a witness: energy / mass^(p/p*) can only
overestimate C_M^(-p), so a witness gives a lower estimate of the
manifold constant and never certifies one; rigidity.verify_theorem takes
C_M as the user's or as K instead.
"""

import math
from typing import Callable, NamedTuple

from .model_manifold import ModelManifold
from . import CheckFailed
from .numerics import TOL, integrate_finite, integrate_semi_infinite
from .sharp import SobolevParams
from .talenti import TalentiProfile, profile_split


class DivergentTailError(CheckFailed):
    """A functional's integrand decays too slowly to converge."""


class TailBoundError(CheckFailed):
    """The uncontrolled part of an integral beyond the window is too large."""


# Relative budget allowed for the certified uncertainty of integrals that
# continue a build_model warping linearly beyond its window.
TAIL_BUDGET = 1e-6

# (abs_tol, rel_tol) of the beyond-window share of a manifold integral.  It
# only feeds the TAIL_BUDGET comparison, so a few digits are enough.
BUDGET_TOL = (1e-9, 1e-4)
# Radii R of the window averages s(R) in verify_decay_conditions; those
# up to 0.9 t_max are used.
FLUX_RADII = (2.0, 5.0, 10.0, 20.0, 40.0)


class RadialFunction(NamedTuple):
    """A radial test function with its derivative and decay bookkeeping.

    decay_order is the power-law order of u at infinity (u ~ t^-decay_order),
    used to decide convergence of the functionals before integrating.
    split_hint marks the radial scale separating head from tail; the
    functionals split their semi-infinite integrals there.
    """

    eval: Callable[[float], float]
    deriv: Callable[[float], float]
    decay_order: float
    params: SobolevParams
    split_hint: float


def talenti_function(profile: TalentiProfile) -> RadialFunction:
    """The extremal profile phi_lam wrapped as a radial test function.

    Its p*-mass density phi_lam^p* peaks at t = 0, and phi_lam' has the
    factor (lam + t^q)^(-nu-1), lam^(-nu-1) at t = 0; where either is past
    the float range (a tiny lam), the scale is refused with ValueError
    before any functional integrates it.
    """
    params = profile.params
    at_zero = (
        ("the p*-mass density phi_lambda(0)^p*", lambda: profile.phi(0.0) ** params.p_star),
        ("the factor (lambda + t^q)^(-nu-1) of phi_lambda' at t = 0",
         lambda: profile.lam ** (-profile.nu - 1.0)),
    )
    for quantity, value in at_zero:
        try:
            finite = value() < math.inf
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"{quantity} overflows at scale lambda={profile.lam:g}")
    return RadialFunction(
        eval=profile.phi,
        deriv=profile.phi_prime,
        decay_order=(params.m - params.p) / (params.p - 1.0),
        params=params,
        split_hint=profile_split(params, profile.lam),
    )


def manifold_integral(
    w: Callable[[float], float], model: ModelManifold, decay_power: float, split: float
) -> float:
    """integral of w(t) * area(t) over [0, inf) with a certified tail.

    The quadrature splits head from tail at `split` and meets
    numerics.TOL.  On a curved build_model model the area weight continues
    linearly beyond the window; the certified uncertainty of that
    continuation, integrated to BUDGET_TOL, must stay below TAIL_BUDGET
    relative (or 10 times TOL's abs_tol) or the integral refuses loudly.

    decay_power is the power-law order of w * t^(m-1) at infinity.  An
    infinite tail factor can meet no budget, so it is refused before any
    quadrature.
    """
    factor = model.tail_factor
    if math.isinf(factor):
        raise TailBoundError(
            f"the area beyond t_max={model.t_max:g} has no finite bound (the curvature "
            "moment past the window is infinite), so no tail can be certified"
        )
    area = model.area_extended()

    def f(t: float) -> float:
        return w(t) * area(t)

    total = integrate_semi_infinite(f, split, decay_power=decay_power)
    if factor > 1.0:
        beyond = integrate_semi_infinite(
            f, split, start=model.t_max, decay_power=decay_power, tol=BUDGET_TOL
        )
        uncertainty = abs(beyond) * (factor - 1.0)
        if uncertainty > max(10.0 * TOL[0], TAIL_BUDGET * abs(total)):
            raise TailBoundError(
                f"tail beyond t_max={model.t_max:g} contributes {beyond:.3e} with "
                f"uncertainty {uncertainty:.3e}, above the budget "
                f"{TAIL_BUDGET:.0e} relative; enlarge the window"
            )
    return total


def _energy_tail_power(u: RadialFunction, m: int) -> float:
    """Decay power p(d+1) - (m-1) of |u'|^p t^(m-1), for u ~ t^-d.

    u |u'|^(p-1) t^(m-2) decays with the same power, so this one test
    decides both integrals.  Raises DivergentTailError when it is at
    most 1.
    """
    decay = u.params.p * (u.decay_order + 1.0) - (m - 1.0)
    if decay <= 1.0 + 1e-9:
        raise DivergentTailError(
            f"gradient energy decays like t^-{decay:.3f} and does not converge"
        )
    return decay


def gradient_energy(u: RadialFunction, model: ModelManifold) -> float:
    """p-energy of u: integral of |u'|^p over the model."""
    p = u.params.p
    decay = _energy_tail_power(u, model.m)
    return manifold_integral(lambda t: abs(u.deriv(t)) ** p, model, decay, u.split_hint)


def mass_pstar(u: RadialFunction, model: ModelManifold) -> float:
    """p*-mass of u: integral of u^p* over the model."""
    p_star = u.params.p_star
    decay = p_star * u.decay_order - (model.m - 1.0)
    if decay <= 1.0 + 1e-9:
        raise DivergentTailError(f"p*-mass decays like t^-{decay:.3f} and does not converge")
    return manifold_integral(lambda t: u.eval(t) ** p_star, model, decay, u.split_hint)


class DecayReport(NamedTuple):
    flux_rows: tuple
    flux_decreasing: bool


def verify_decay_conditions(u: RadialFunction, model: ModelManifold) -> DecayReport:
    """Check the integrability and averaged-flux decay of a test function.

    Two conditions: the weighted integrand u |u'|^(p-1) / t is integrable
    over the model, which its decay power alone decides (no integral is
    run; it is the p-energy's power, so a divergent one raises
    DivergentTailError as gradient_energy does), and the window averages
    s(R) = (1/R) * integral over [0, R] of u |u'|^(p-1) dvol decrease
    (they are o(R) exactly when the full integral converges).  R runs over
    the FLUX_RADII up to 0.9 t_max.  The averages grow while R is still
    inside the bulk of u, so the decrease is required from the largest
    s(R) on to the last radius.  When that largest value is at the last
    radius (or no radius fits the window), no radius clears the bulk and
    nothing can be decided: ValueError.
    """
    p = u.params.p
    radii = [r for r in FLUX_RADII if r <= 0.9 * model.t_max]
    area = model.area_extended()

    def core(t: float) -> float:
        return u.eval(t) * abs(u.deriv(t)) ** (p - 1.0) * area(t)

    _energy_tail_power(u, model.m)

    flux_rows = []
    acc = 0.0
    prev_r = 0.0
    for r in radii:
        acc += integrate_finite(core, prev_r, r)
        prev_r = r
        flux_rows.append((r, acc / r))
    averages = [s for _, s in flux_rows]
    if not averages or max(averages) == averages[-1]:
        raise ValueError(
            f"no flux radius of {FLUX_RADII!r} up to 0.9 t_max={0.9 * model.t_max:g} clears "
            "the witness's bulk: s(R) does not fall after its largest value"
        )
    tail = averages[averages.index(max(averages)):]
    decreasing = all(b < a * (1.0 + 1e-12) for a, b in zip(tail, tail[1:]))
    return DecayReport(flux_rows=tuple(flux_rows), flux_decreasing=decreasing)
