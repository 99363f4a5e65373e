"""Sobolev functionals for radial test functions on model manifolds.

The central quantities are the p-energy integral(|u'|^p dvol), the
p*-mass integral(u^p* dvol), and the two quotients built from them.  Any
radial u with fast enough decay is a witness: the Sobolev quotient
energy / mass^(p/p*) can only overestimate C_M^(-p), so minimising it
over a family yields a certified lower estimate of the manifold
constant.  The built-in family is the extremal Euclidean profiles,
minimised over their scale by a log-grid scan and golden-section
refinement, on closed-form models only: rigidity.estimated_c_m takes K
on curvature-profile models, where no witness beats it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .model_manifold import ModelManifold
from .numerics import TOL, QuadratureError, integrate_finite, integrate_semi_infinite
from .talenti import SobolevParams, TalentiProfile, profile_split


class SobolevUnsupportedError(RuntimeError):
    """The model's volume growth cannot support a Euclidean-type inequality."""


class DivergentTailError(RuntimeError):
    """A functional's integrand decays too slowly to converge."""


class TailBoundError(RuntimeError):
    """The uncontrolled part of an integral beyond the window is too large."""


# Relative budget allowed for the certified uncertainty of integrals that
# continue an IVP-built warping function beyond its window.
TAIL_BUDGET = 1e-6

# (abs_tol, rel_tol) of the witness search, which only has to locate the
# minimiser; the winning witness is re-evaluated at numerics.TOL.
SEARCH_TOL = (1e-9, 1e-7)
# (abs_tol, rel_tol) of the beyond-window share of a manifold integral.  It
# only feeds the TAIL_BUDGET comparison, so a few digits are enough.
BUDGET_TOL = (1e-9, 1e-4)
# The witness search scans SCAN_POINTS scales, log-spaced over SCAN_RANGE.
SCAN_RANGE = (1e-2, 1e6)
SCAN_POINTS = 25
# Radii R of the window averages s(R) in verify_decay_conditions.
FLUX_RADII = (2.0, 5.0, 10.0, 20.0, 40.0)


class _Radial(NamedTuple):
    eval: Callable[[float], float]
    deriv: Callable[[float], float]
    decay_order: float
    params: SobolevParams
    split_hint: float


class RadialFunction(_Radial):
    """A radial test function with its derivative and decay bookkeeping.

    decay_order is the power-law order of u at infinity (u ~ t^-decay_order),
    used to decide convergence of the functionals before integrating.
    split_hint marks the radial scale separating head from tail; the
    functionals split their semi-infinite integrals there, never below 1.
    """

    __slots__ = ()

    def __new__(
        cls,
        eval: Callable[[float], float],
        deriv: Callable[[float], float],
        decay_order: float,
        params: SobolevParams,
        split_hint: float = 1.0,
    ):
        return super().__new__(cls, eval, deriv, decay_order, params, max(1.0, split_hint))


def talenti_function(profile: TalentiProfile) -> RadialFunction:
    """The extremal profile phi_lam wrapped as a radial test function."""
    params = profile.params
    return RadialFunction(
        eval=profile.phi,
        deriv=profile.phi_prime,
        decay_order=(params.m - params.p) / (params.p - 1.0),
        params=params,
        split_hint=profile_split(params, profile.lam),
    )


def manifold_integral(
    w: Callable[[float], float],
    model: ModelManifold,
    decay_power: float,
    split: float = 1.0,
    tol: tuple = TOL,
) -> float:
    """integral of w(t) * area(t) over [0, inf) with a certified tail.

    The quadrature splits head from tail at `split` and meets the
    (abs_tol, rel_tol) pair `tol`.  For IVP-built models the area weight
    continues linearly beyond the window; the certified uncertainty of that
    continuation, integrated to BUDGET_TOL, must stay below TAIL_BUDGET
    relative (or 10 abs_tol) or the integral refuses loudly.

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

    total = integrate_semi_infinite(f, split, decay_power=decay_power, tol=tol)
    if factor > 1.0:
        beyond = integrate_semi_infinite(
            f, split, start=model.t_max, decay_power=decay_power, tol=BUDGET_TOL
        )
        uncertainty = abs(beyond) * (factor - 1.0)
        if uncertainty > max(10.0 * tol[0], TAIL_BUDGET * abs(total)):
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


def gradient_energy(u: RadialFunction, model: ModelManifold, tol: tuple = TOL) -> float:
    """p-energy of u: integral of |u'|^p over the model, to tolerance tol."""
    p = u.params.p
    decay = _energy_tail_power(u, model.m)
    return manifold_integral(lambda t: abs(u.deriv(t)) ** p, model, decay, u.split_hint, tol)


def mass_pstar(u: RadialFunction, model: ModelManifold, tol: tuple = TOL) -> float:
    """p*-mass of u: integral of u^p* over the model, to tolerance tol."""
    p_star = u.params.p_star
    decay = p_star * u.decay_order - (model.m - 1.0)
    if decay <= 1.0 + 1e-9:
        raise DivergentTailError(f"p*-mass decays like t^-{decay:.3f} and does not converge")
    return manifold_integral(lambda t: u.eval(t) ** p_star, model, decay, u.split_hint, tol)


def quotient_sobolev(u: RadialFunction, model: ModelManifold, tol: tuple = TOL) -> float:
    """Scale-invariant Sobolev quotient energy / mass^(p/p*), to tolerance tol.

    Its infimum over admissible u equals C_M^-p, so every evaluation is an
    upper bound for that infimum and a lower witness for C_M.
    """
    params = u.params
    mass = mass_pstar(u, model, tol)
    if mass <= 0.0:
        raise ValueError("p*-mass vanished; the quotient is undefined")
    return gradient_energy(u, model, tol) / mass ** (params.p / params.p_star)


class DecayReport(NamedTuple):
    flux_rows: tuple
    flux_decreasing: bool


def verify_decay_conditions(
    u: RadialFunction,
    model: ModelManifold,
    r_grid=FLUX_RADII,
) -> DecayReport:
    """Check the integrability and averaged-flux decay of a test function.

    Two conditions: the weighted integrand u |u'|^(p-1) / t is integrable
    over the model, which its decay power alone decides (no integral is
    run; it is the p-energy's power, so a divergent one raises
    DivergentTailError as gradient_energy does), and the window averages
    s(R) = (1/R) * integral over [0, R] of u |u'|^(p-1) dvol decrease
    along r_grid (they are o(R) exactly when the full integral converges).
    The averages grow while R is still inside the bulk of u, so the
    decrease is only required once R clears the bulk, taken as three
    times the witness scale u.split_hint.  Radii beyond the window are
    capped at t_max, and at least two distinct radii must remain, or no
    decrease could be observed.
    """
    p = u.params.p
    radii = sorted(min(r, model.t_max) for r in r_grid)
    if len(set(radii)) < 2:
        raise ValueError(
            f"the flux check needs two distinct radii inside the window [0, {model.t_max:g}]; "
            f"got {tuple(r_grid)!r}"
        )
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
    tail = [s for r, s in flux_rows if r >= 3.0 * u.split_hint]
    if len(tail) < 2:
        tail = [s for _, s in flux_rows[-2:]]
    decreasing = all(b < a * (1.0 + 1e-12) for a, b in zip(tail, tail[1:]))
    return DecayReport(flux_rows=tuple(flux_rows), flux_decreasing=decreasing)


class RadialConstantEstimate(NamedTuple):
    c_est: float
    quotient: float
    lam: float
    quotient_evals: int


def estimate_radial_constant(model: ModelManifold, params: SobolevParams) -> RadialConstantEstimate:
    """Lower estimate of the manifold Sobolev constant from radial witnesses.

    Scans the extremal family over the logarithmic grid of scales given by
    SCAN_RANGE and SCAN_POINTS, refines the best bracket by golden-section
    search in log lam, and re-evaluates the winning profile at full
    accuracy.  The returned C_est = (min quotient)^(-1/p) never exceeds the
    true constant, up to quadrature error.  The widest scales put their
    mass far beyond the window, so the model must be exact there
    (tail_factor == 1); on an IVP-built model they raise TailBoundError.

    Raises:
        SobolevUnsupportedError: the model's volume ratio collapses, so no
            Euclidean-type inequality (and no finite constant) exists.
    """
    m, p = params.m, params.p
    if m != model.m:
        raise ValueError(f"params dimension {m} does not match model dimension {model.m}")

    probe_t = 0.9 * model.t_max
    growth = model.volume(probe_t) / (model.omega_m * probe_t**m)
    if growth < 1e-6:
        raise SobolevUnsupportedError(
            "Sobolev inequality unsupported: volume ratio "
            f"{growth:.3e} at t={probe_t:g} has collapsed"
        )

    profile = TalentiProfile.build(params, 1.0)
    lam_lo, lam_hi = SCAN_RANGE
    evals = 0

    def quotient_at(lam: float) -> float:
        nonlocal evals
        evals += 1
        return quotient_sobolev(talenti_function(profile.with_lam(lam)), model, SEARCH_TOL)

    grid = [
        lam_lo * (lam_hi / lam_lo) ** (i / (SCAN_POINTS - 1.0)) for i in range(SCAN_POINTS)
    ]
    best_q, best_lam = min((quotient_at(lam), lam) for lam in grid)

    idx = grid.index(best_lam)
    left = math.log(grid[max(0, idx - 1)])
    right = math.log(grid[min(len(grid) - 1, idx + 1)])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = right - inv_phi * (right - left)
    x2 = left + inv_phi * (right - left)
    f1, f2 = quotient_at(math.exp(x1)), quotient_at(math.exp(x2))
    for _ in range(30):
        if right - left < 1e-8:
            break
        if f1 <= f2:
            right, x2, f2 = x2, x1, f1
            x1 = right - inv_phi * (right - left)
            f1 = quotient_at(math.exp(x1))
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + inv_phi * (right - left)
            f2 = quotient_at(math.exp(x2))
    for log_lam, q in ((x1, f1), (x2, f2)):
        if q < best_q:
            best_q, best_lam = q, math.exp(log_lam)

    try:
        best_q = quotient_sobolev(talenti_function(profile.with_lam(best_lam)), model)
        evals += 1
    except QuadratureError:
        # Keep the search-accuracy value if the strict pass refuses; it is
        # still a genuine witness quotient, just with fewer digits.
        pass

    return RadialConstantEstimate(
        c_est=float(best_q) ** (-1.0 / p),
        quotient=float(best_q),
        lam=best_lam,
        quotient_evals=evals,
    )
