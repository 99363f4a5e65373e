"""Extremal radial profiles of the sharp Sobolev inequality on R^m.

The one-parameter family handled here is

    phi_lam(t) = beta * lam^((m-p)/p^2) / (lam + t^(p/(p-1)))^((m-p)/p),

normalised so that the p*-mass integral(phi^p*) over R^m equals one for
every scale lam > 0.  With that normalisation the p-energy of the family
is scale invariant and its value determines the sharp constant K(m, p)
through K^(-p) = integral(|phi'|^p).  Both integrals reduce to Euler Beta
values, so beta and K are closed forms in lgamma, which live in
`radsob.sharp` with the parameters (m, p): `model` and `rigidity` read
them without loading this module.  sharp_constant_detail integrates the
energy by quadrature as a self-test of K, and is the one function here
that loads `radsob.numerics`.  The split of a profile's unit p*-mass at
a radius (mass_split) is a regularised incomplete Beta value of the
same kind.
"""

import math
from typing import NamedTuple

from .sharp import SobolevParams, sharp_beta, sharp_constant, sphere_area


def profile_split(params: SobolevParams, lam: float) -> float:
    """Radius separating the head of phi_lam from its tail.

    The profile's mass concentrates around t ~ lam^((p-1)/p); splitting
    semi-infinite integrals there keeps the head and tail balanced.
    """
    return max(1.0, lam ** (1.0 / params.conj))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularised incomplete Beta I_x(a, b) by
    the modified Lentz method (Numerical Recipes, betacf), which converges
    fast for x < (a + 1)/(a + b + 2)."""
    tiny = 1e-300
    # Below that x the first denominator is at least 2/(a + b + 2).
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    value = d
    for k in range(1, 10_000):
        for numerator in (
            k * (b - k) * x / ((a + 2 * k - 1.0) * (a + 2 * k)),
            -(a + k) * (a + b + k) * x / ((a + 2 * k) * (a + 2 * k + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            value *= c * d
        if abs(c * d - 1.0) <= 2.3e-16:
            return value
    raise ValueError(f"the continued fraction of I_x({a:g}, {b:g}) at x={x:g} does not converge")


def mass_split(params: SobolevParams, lam: float, t: float) -> tuple:
    """Shares (head, tail) of phi_lam's unit p*-mass inside and outside t.

    The head is I_x(m/q + 1, m/p), x = t^q/(lam + t^q), q = p/(p-1): the
    regularised incomplete Beta value of the mass's radial spread
    V(s) d(-phi^p*(s)), V the Euclidean ball volume, as for K's closed
    form.  The continued fraction gives the share on its fast side, and
    the other is its complement; 1 - x is formed as lam/(lam + t^q), as
    the difference would cancel.  A t^q past the float range leaves no
    mass outside.  The lgamma prefactor cancels terms of size ln m!, and
    its rounding grows with them: past m = 150 the split refuses.
    """
    m, p, q = params.m, params.p, params.conj
    if m > 150:
        raise ValueError(f"the mass split holds 12 digits only up to m=150, got m={m}")
    a, b = m / q + 1.0, m / p
    try:
        power = t**q
    except OverflowError:
        return 1.0, 0.0
    # Halved, so the sum stays finite up to the end of the float range.
    half_sum = 0.5 * lam + 0.5 * power
    x, y = 0.5 * power / half_sum, 0.5 * lam / half_sum
    if x == 0.0 or y == 0.0:  # and the other share is exactly 1
        return x, y
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        head = front * _beta_fraction(a, b, x) / a
        return head, 1.0 - head
    tail = front * _beta_fraction(b, a, y) / b
    return 1.0 - tail, tail


class _Profile(NamedTuple):
    params: SobolevParams
    lam: float
    beta: float
    q: float
    nu: float
    coef: float


class TalentiProfile(_Profile):
    """A single member phi_lam of the normalised extremal family.

    phi_lam(t) = coef * (lam + t^q)^(-nu) with q = p/(p-1), nu = (m-p)/p
    and coef = beta * lam^((m-p)/p^2); these are fixed per profile and
    derived from (params, lam, beta) by the constructor, which refuses a
    coef past the float range with ValueError.  Where the direct form of
    phi or phi' overflows at t > 0 (t^q past the float range, as near
    p = 1), it is taken as the exponential of its logarithm; at t = 0,
    where the logarithm cannot take it, the OverflowError stands.  So is
    phi' at t > 0 where a factor of its direct form leaves the float range
    without raising, as at huge lam near p = 1: (lam + t^q)^(-nu-1)
    underflows to 0, and the product is 0, or nan where coef nu q t^(q-1)
    overflows to inf.
    """

    __slots__ = ()

    def __new__(cls, params: SobolevParams, lam: float, beta: float):
        if not (lam > 0.0) or not math.isfinite(lam):
            raise ValueError(f"profile scale lam must be positive and finite, got {lam!r}")
        m, p = params.m, params.p
        try:
            coef = beta * lam ** ((m - p) / p**2)
        except OverflowError:
            raise ValueError(f"the profile coefficient beta lambda^((m-p)/p^2) overflows "
                             f"at scale lambda={lam:g}, m={m}, p={p:g}") from None
        return super().__new__(cls, params, lam, beta, q=params.conj, nu=(m - p) / p, coef=coef)

    @classmethod
    def build(cls, params: SobolevParams, lam: float) -> "TalentiProfile":
        return cls(params=params, lam=lam, beta=sharp_beta(params))

    # -- pointwise evaluations -------------------------------------------

    def log_base(self, log_t: float) -> float:
        """log(lam + t^q) from log t, finite where t^q is not: the larger
        term's log plus log1p(smaller / larger)."""
        log_tq, log_lam = self.q * log_t, math.log(self.lam)
        return max(log_tq, log_lam) + math.log1p(math.exp(-abs(log_tq - log_lam)))

    def phi(self, t: float) -> float:
        if t < 0.0:
            raise ValueError("profiles are radial: t >= 0 required")
        try:
            return self.coef * (self.lam + t**self.q) ** (-self.nu)
        except OverflowError:
            if t == 0.0:
                raise
            return math.exp(math.log(self.coef) - self.nu * self.log_base(math.log(t)))

    def phi_prime(self, t: float) -> float:
        slope = self._slope(t)
        # A factor of the direct form left the float range: it is inf * 0,
        # or a finite factor times one that underflowed to 0.
        if math.isnan(slope) or (slope == 0.0 and t > 0.0):
            return self._log_slope(t)
        return slope

    def _slope(self, t: float) -> float:
        """phi' in its direct form, or in log space where that raises
        OverflowError: nan where the direct form is inf * 0.  The constants
        self-test reads this form, as its kernel takes a non-finite slope
        to a log space of its own."""
        if t < 0.0:
            raise ValueError("profiles are radial: t >= 0 required")
        q, nu = self.q, self.nu
        try:
            return -self.coef * nu * q * t ** (q - 1.0) * (self.lam + t**q) ** (-nu - 1.0)
        except OverflowError:
            if t == 0.0:
                raise
            return self._log_slope(t)

    def _log_slope(self, t: float) -> float:
        q, nu = self.q, self.nu
        log_t = math.log(t)
        return -math.exp(math.log(self.coef * nu * q) + (q - 1.0) * log_t
                         - (nu + 1.0) * self.log_base(log_t))


# The scales at which the constants self-test integrates the energy.
SELF_TEST_LAMBDAS = (1.0, 0.5, 5.0, 20.0)


def sharp_constant_detail(params: SobolevParams, lambdas: tuple) -> dict:
    """Quadrature self-test of the closed-form K.

    K^(-p) is the p-energy of every normalised profile, so integrating it
    at each scale in lambdas gives K again.  Returns a dict with keys K and
    beta (closed form), values (quadrature K per scale), spread (their
    largest relative distance from the value at lambdas[0]) and error
    (their largest relative distance from K).  The spread cannot see an
    error that every scale shares; the error can.  Where the integrand
    |phi'|^p t^(m-1) overflows directly it is taken as the exponential of
    its logarithm; a kernel that overflows even so, or at t = 0, where the
    logarithm cannot take it, raises ValueError: the self-test, not the
    input, is out of range.  So does a scale where the coefficient of
    phi' (which that logarithm reads) or the energy integral underflows
    to 0, as K would then be the inverse of 0.
    """
    from .numerics import integrate_semi_infinite

    m, p = params.m, params.p

    def out_of_range(reason: str) -> ValueError:
        return ValueError(f"the quadrature self-test of K is out of range at m={m}, p={p:g}: "
                          f"{reason}")

    def energy(lam: float) -> float:
        profile = TalentiProfile.build(params, lam)
        slope, q, nu = profile._slope, profile.q, profile.nu
        if (slope_coef := profile.coef * nu * q) == 0.0:
            raise out_of_range(f"the coefficient beta lambda^((m-p)/p^2) (m-p)/(p-1) of "
                               f"phi_lambda' underflows to 0 at scale lambda={lam:g}")
        log_coef = math.log(slope_coef)

        def f(t: float) -> float:
            try:
                value = abs(slope(t)) ** p * t ** (m - 1)
            except OverflowError:
                value = math.inf
            if math.isfinite(value):
                return value
            if t == 0.0:
                # lam^(-nu-1) overflows, and log t is not finite either.
                raise OverflowError(f"the kernel overflows at t = 0 at scale lambda={lam:g}")
            log_t = math.log(t)
            log_slope = log_coef + (q - 1.0) * log_t - (nu + 1.0) * profile.log_base(log_t)
            return math.exp(p * log_slope + (m - 1) * log_t)

        decay = (m - 1.0) / (p - 1.0)
        return sphere_area(m) * integrate_semi_infinite(
            f, profile_split(params, lam), decay_power=decay
        )

    def k_at(lam: float) -> float:
        if (value := energy(lam)) == 0.0:
            raise out_of_range(f"the energy integral underflows to 0 at scale lambda={lam:g}")
        return value ** (-1.0 / p)

    try:
        values = {lam: k_at(lam) for lam in lambdas}
    except OverflowError as exc:
        raise out_of_range(exc.args[-1]) from None
    first = values[lambdas[0]]
    k = sharp_constant(params)
    return {
        "K": k,
        "spread": max(abs(v - first) / first for v in values.values()),
        "error": max(abs(v - k) / k for v in values.values()),
        "values": values,
        "beta": sharp_beta(params),
    }
