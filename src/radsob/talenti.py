"""Extremal radial profiles of the sharp Sobolev inequality on R^m.

The one-parameter family handled here is

    phi_lam(t) = beta * lam^((m-p)/p^2) / (lam + t^(p/(p-1)))^((m-p)/p),

normalised so that the p*-mass integral(phi^p*) over R^m equals one for
every scale lam > 0.  With that normalisation the p-energy of the family
is scale invariant and its value determines the sharp constant K(m, p)
through K^(-p) = integral(|phi'|^p).  Each profile also satisfies a
radial quasilinear ODE whose residual is exposed for verification, and a
probability density describing how the p*-mass of phi_lam distributes
over the radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .numerics import QuadratureError, integrate_semi_infinite


@dataclass(frozen=True)
class SobolevParams:
    """Dimension m and exponent p of the inequality, with m > p > 1."""

    m: int
    p: float

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 2:
            raise ValueError(f"dimension m must be an integer >= 2, got {self.m!r}")
        if not (1.0 < self.p < self.m):
            raise ValueError(f"need m > p > 1, got m={self.m}, p={self.p}")

    @property
    def p_star(self) -> float:
        return self.m * self.p / (self.m - self.p)

    @property
    def conj(self) -> float:
        """Holder conjugate p/(p-1), the radial power in the profile kernel."""
        return self.p / (self.p - 1.0)


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m."""
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def sphere_area(m: int) -> float:
    """Area of the unit sphere bounding the unit ball in R^m."""
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


def profile_split(params: SobolevParams, lam: float) -> float:
    """Radius separating the head of phi_lam from its tail.

    The profile's mass concentrates around t ~ lam^((p-1)/p); splitting
    semi-infinite integrals there keeps the head and tail balanced.
    """
    return max(1.0, lam ** (1.0 / params.conj))


def _mass_kernel_integral(params: SobolevParams, lam: float) -> float:
    """integral over (0, inf) of t^(m-1) (lam + t^conj)^{-m} dt."""
    m, q = params.m, params.conj

    def f(t: float) -> float:
        return t ** (m - 1) / (lam + t**q) ** m

    return integrate_semi_infinite(f, profile_split(params, lam), decay_power=q * m - (m - 1))


def normalize_beta(params: SobolevParams) -> float:
    """Normalisation constant making the profile's p*-mass equal one.

    Computed from the quadrature of the mass kernel at lam = 1 and
    cross-checked at lam = 10; scale invariance of the normalisation is a
    structural identity, so disagreement beyond 1e-8 relative indicates a
    quadrature failure and raises QuadratureError.
    """
    m, p = params.m, params.p

    def beta_at(lam: float) -> float:
        total = sphere_area(m) * lam ** (m / p) * _mass_kernel_integral(params, lam)
        return total ** (-1.0 / params.p_star)

    b1 = beta_at(1.0)
    b10 = beta_at(10.0)
    if abs(b1 - b10) > 1e-8 * b1:
        raise QuadratureError(
            f"normalisation constant drifts across scales: {b1!r} vs {b10!r}"
        )
    return b1


_SHARP_CACHE: dict = {}
_BETA_CACHE: dict = {}


def cached_beta(params: SobolevParams) -> float:
    if params not in _BETA_CACHE:
        _BETA_CACHE[params] = normalize_beta(params)
    return _BETA_CACHE[params]


@dataclass(frozen=True)
class TalentiProfile:
    """A single member phi_lam of the normalised extremal family.

    phi_lam(t) = coef * (lam + t^q)^(-nu) with q = p/(p-1), nu = (m-p)/p
    and coef = beta * lam^((m-p)/p^2); the three are fixed per profile.
    """

    params: SobolevParams
    lam: float
    beta: float
    omega_m: float
    q: float = field(init=False, repr=False)
    nu: float = field(init=False, repr=False)
    coef: float = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.lam > 0.0) or not math.isfinite(self.lam):
            raise ValueError(f"profile scale lam must be positive and finite, got {self.lam!r}")
        m, p = self.params.m, self.params.p
        object.__setattr__(self, "q", self.params.conj)
        object.__setattr__(self, "nu", (m - p) / p)
        object.__setattr__(self, "coef", self.beta * self.lam ** ((m - p) / p**2))

    @classmethod
    def build(cls, params: SobolevParams, lam: float) -> "TalentiProfile":
        return cls(
            params=params, lam=lam, beta=cached_beta(params), omega_m=unit_ball_volume(params.m)
        )

    def with_lam(self, lam: float) -> "TalentiProfile":
        return replace(self, lam=lam)

    # -- pointwise evaluations -------------------------------------------

    def phi(self, t: float) -> float:
        if t < 0.0:
            raise ValueError("profiles are radial: t >= 0 required")
        return self.coef * (self.lam + t**self.q) ** (-self.nu)

    def phi_prime(self, t: float) -> float:
        if t < 0.0:
            raise ValueError("profiles are radial: t >= 0 required")
        q, nu = self.q, self.nu
        return -self.coef * nu * q * t ** (q - 1.0) * (self.lam + t**q) ** (-nu - 1.0)

    def phi_second(self, t: float) -> float:
        if not (t > 0.0):
            raise ValueError("phi_second requires t > 0; the radial ODE is singular at the origin")
        q, nu = self.q, self.nu
        base = self.lam + t**q
        bracket = (q - 1.0) * base - (nu + 1.0) * q * t**q
        return -self.coef * nu * q * t ** (q - 2.0) * base ** (-nu - 2.0) * bracket

    def density(self, t: float) -> float:
        """Radial distribution of the p*-mass.

        density(t) = V(B_t) * d/dt(-phi^p*) where V(B_t) is Euclidean ball
        volume; it integrates to one over (0, inf) for every lam.
        """
        if t < 0.0:
            raise ValueError("profiles are radial: t >= 0 required")
        m, p = self.params.m, self.params.p
        q = self.q
        prefactor = self.omega_m * (m * p / (p - 1.0)) * self.beta**self.params.p_star
        return (
            prefactor
            * self.lam ** (m / p)
            * t ** (1.0 / (p - 1.0) + m)
            / (self.lam + t**q) ** (m + 1)
        )


def sharp_constant_detail(params: SobolevParams, lambdas: tuple = (1.0, 0.5, 5.0, 20.0)) -> dict:
    """Sharp constant K(m, p) together with its scale-invariance spread.

    K^(-p) is the p-energy of any normalised profile; computing it at
    several scales and comparing measures the quadrature quality.  Returns
    a dict with keys K, spread, values (per-lambda), beta.
    """
    m, p = params.m, params.p

    def energy(lam: float) -> float:
        slope = TalentiProfile.build(params, lam).phi_prime

        def f(t: float) -> float:
            return abs(slope(t)) ** p * t ** (m - 1)

        decay = (m - 1.0) / (p - 1.0)
        return sphere_area(m) * integrate_semi_infinite(
            f, profile_split(params, lam), decay_power=decay
        )

    values = {lam: energy(lam) ** (-1.0 / p) for lam in lambdas}
    k = values[lambdas[0]]
    spread = max(abs(v - k) / k for v in values.values())
    return {"K": k, "spread": spread, "values": values, "beta": cached_beta(params)}


def sharp_constant(params: SobolevParams) -> float:
    """Sharp Sobolev constant K(m, p), with a scale self-test at 1e-6."""
    if params not in _SHARP_CACHE:
        detail = sharp_constant_detail(params)
        if detail["spread"] > 1e-6:
            raise QuadratureError(
                f"sharp constant not scale invariant to 1e-6 (spread {detail['spread']:.3e})"
            )
        _SHARP_CACHE[params] = detail["K"]
    return _SHARP_CACHE[params]


def yamabe_residual(profile: TalentiProfile, k: float, t: float) -> float:
    """Relative residual of the radial quasilinear ODE satisfied by phi.

    The profile solves

        |phi'|^(p-2) ((p-1) phi'' + (m-1)/t phi') = -K^(-p) phi^(p*-1)

    for t > 0.  The returned value is (lhs + K^(-p) phi^(p*-1)) divided by
    K^(-p) phi^(p*-1); it vanishes exactly when k is the true sharp
    constant and grows like p * delta under a perturbation k*(1+delta).
    """
    if not (t > 0.0):
        raise ValueError("the radial ODE residual is defined for t > 0")
    m, p = profile.params.m, profile.params.p
    slope = profile.phi_prime(t)
    lhs = abs(slope) ** (p - 2.0) * (
        (p - 1.0) * profile.phi_second(t) + (m - 1.0) / t * slope
    )
    rhs = k ** (-p) * profile.phi(t) ** (profile.params.p_star - 1.0)
    return (lhs + rhs) / rhs
