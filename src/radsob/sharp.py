"""The closed forms of the sharp Sobolev inequality on R^m.

Every subcommand reads some of these: the parameters (m, p) of the
inequality, the unit ball volume and sphere area of R^m, and the
normalisation beta and sharp constant K(m, p) of Talenti's extremal
family.  The mass and energy integrals of that family reduce to Euler
Beta values (_log_kernel), so beta and K are closed forms in lgamma and
no quadrature runs here.  The family itself, its self-test of K by
quadrature and its mass split are in `radsob.talenti`, which only
`constants`, `verify` and `limits` load.
"""

import math
from typing import NamedTuple


class _Params(NamedTuple):
    m: int
    p: float


class SobolevParams(_Params):
    """Dimension m and exponent p of the inequality, with m > p > 1."""

    __slots__ = ()

    def __new__(cls, m: int, p: float):
        if int(m) != m or m < 2:
            raise ValueError(f"dimension m must be an integer >= 2, got {m!r}")
        if not (1.0 < p < m):
            raise ValueError(f"need m > p > 1, got m={m}, p={p}")
        return super().__new__(cls, m, p)

    @property
    def p_star(self) -> float:
        return self.m * self.p / (self.m - self.p)

    @property
    def conj(self) -> float:
        """Holder conjugate p/(p-1), the radial power in the profile kernel."""
        return self.p / (self.p - 1.0)


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m; raises ValueError from m = 342,
    where Gamma(m/2 + 1) overflows a float."""
    try:
        return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)
    except OverflowError:
        raise ValueError(f"the unit ball volume's Gamma(m/2 + 1) overflows at m={m}") from None


def sphere_area(m: int) -> float:
    """Area of the unit sphere bounding the unit ball in R^m; raises
    ValueError from m = 344, where Gamma(m/2) overflows a float."""
    try:
        return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
    except OverflowError:
        raise ValueError(f"the unit sphere area's Gamma(m/2) overflows at m={m}") from None


def _log_kernel(params: SobolevParams, shift: float) -> float:
    """log of |S^(m-1)| ((p-1)/p) B(a + shift, m/p - shift), a = m - m/p.

    Under s = t^(p/(p-1)) the mass integral of (1 + t^(p/(p-1)))^(-m)
    over R^m (shift 0) and the energy integral of phi_1 (shift 1, up to
    the factor (beta (m-p)/(p-1))^p) reduce to these Euler Beta values.
    lgamma keeps them finite where Gamma(m) alone would overflow, and a
    is m (p-1)/p, not the difference m - m/p, which near p = 1 cancels.
    """
    m, p = params.m, params.p
    return (
        math.log(2.0) + 0.5 * m * math.log(math.pi) - math.lgamma(0.5 * m)
        + math.log((p - 1.0) / p)
        + math.lgamma(m * (p - 1.0) / p + shift) + math.lgamma(m / p - shift) - math.lgamma(m)
    )


def sharp_beta(params: SobolevParams) -> float:
    """Normalisation beta making the profile's p*-mass equal one; raises
    ValueError where it is past the float range (m = 1000 at p = 2)."""
    try:
        return math.exp(-_log_kernel(params, 0.0) / params.p_star)
    except OverflowError:
        raise ValueError(f"the profile's beta overflows at m={params.m}, p={params.p:g}") from None


def sharp_constant(params: SobolevParams) -> float:
    """Sharp Sobolev constant K(m, p) (Talenti 1976; Aubin 1976).

    K^(-p) = (beta (m-p)/(p-1))^p times the energy kernel of _log_kernel.
    """
    m, p = params.m, params.p
    return (p - 1.0) / ((m - p) * sharp_beta(params)) * math.exp(-_log_kernel(params, 1.0) / p)
