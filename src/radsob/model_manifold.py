"""Rotationally symmetric model spaces with radial curvature control.

A model here is R^m with the metric dt^2 + h(t)^2 dtheta^2.  Its radial
Ricci curvature is -(m-1) G with G = h''/h.  For a nonnegative decaying
curvature coefficient G the warping function h solves h'' = G(t) h,
h(0) = 0, h'(0) = 1; a profile's warping() gives the pair (h, h'(t_max)):
in closed form for RationalDecay, and from the RK4 sweep of that IVP,
stopped past the cutoff, for ConstantCutoff.  The profile of a `table:`
spec, Tabulated, with its piecewise Taylor series, is in `radsob.table`,
which parse_curvature imports for that spec alone.  Each warping, and
build_model's curved path, imports the kernels it calls where it calls
them, so a flat model loads neither `radsob.warping` nor
`radsob.numerics`.  A ModelManifold holds its profile, h, the ball
volume V(B_t) and the tail factor, and builds its sphere area
omega h^(m-1) once; it has no name, and sums ball volumes by checked
Gauss panels over omega h^(m-1), whichever profile gave h, only as far
out as one is read.  The profile alone says whether G >= 0, and its
moment b = integral(t max(G(t), 0) dt) measures the total amount of
negative curvature; where G >= 0 and b is finite the model is trapped
between Euclidean space and a bounded dilation of it, which is exactly
what verify_volume_chain checks on a grid.
"""

import math
from typing import Callable, NamedTuple

from . import OdeError
from .sharp import sphere_area, unit_ball_volume


def _exp_or_inf(x: float) -> float:
    return math.inf if x > 700.0 else math.exp(x)


def _overflows(quantity: str, t: float, m: int) -> ValueError:
    """The refusal of a model quantity at radius t past the float range."""
    return ValueError(f"the {quantity} at radius t={t:g} overflows at m={m}")


class CurvatureProfile:
    """Radial curvature coefficient G(t): a subclass defines g(t) and
    moment_tail(t_from), the integral of t G(t) over [t_from, inf), and,
    unless it is flat, warping(t_max, step): the solution of h'' = G h,
    h(0) = 0, h'(0) = 1 on [0, t_max] as the pair (h, h'(t_max)).  step is
    the RK4 step, which only ConstantCutoff's sweep reads.

    nonnegative says whether G >= 0 on all of [0, inf): the lower volume
    chain, and C_M = K, hold only where it does.  Each profile here
    refuses a negative level in its constructor."""

    nonnegative = True

    @property
    def b(self) -> float:
        """The theorem's moment, integral of t max(G(t), 0) over [0, inf);
        for G >= 0 the whole moment_tail(0)."""
        return self.moment_tail(0.0)


class ZeroCurvature(CurvatureProfile):
    def g(self, t):
        return 0.0

    def moment_tail(self, t_from):
        return 0.0


class ConstantCutoff(CurvatureProfile):
    """G = a on [0, t_cut], zero beyond.  t_cut may be math.inf."""

    def __init__(self, a: float, t_cut: float):
        if a < 0.0 or not math.isfinite(a):
            raise ValueError("curvature level a must be finite and >= 0")
        if not (t_cut >= 0.0):
            raise ValueError("cutoff radius must be >= 0 (inf allowed)")
        self.a = a
        self.t_cut = t_cut

    def g(self, t):
        return self.a if t <= self.t_cut else 0.0

    def moment_tail(self, t_from):
        if self.a == 0.0 or t_from >= self.t_cut:
            return 0.0
        if math.isinf(self.t_cut):
            return math.inf
        try:
            return 0.5 * self.a * (self.t_cut**2 - t_from**2)
        except OverflowError:
            # t_cut^2 is out of range where a t_cut^2 need not be.
            return 0.5 * self.a * (self.t_cut - t_from) * (self.t_cut + t_from)

    def warping(self, t_max: float, step: float) -> tuple:
        """The RK4 sweep of solve_h_ivp and its dense output, which stops
        past t_cut, where h is a line."""
        from .numerics import solve_h_ivp

        return solve_h_ivp(self.g, t_max, step, self.t_cut)


class RationalDecay(CurvatureProfile):
    """G(t) = 2 b0 / (1 + t^2)^2, whose moment is exactly b0."""

    def __init__(self, b0: float):
        if b0 < 0.0 or not math.isfinite(b0):
            raise ValueError("moment b0 must be finite and >= 0")
        self.b0 = b0
        self._two_b0 = 2.0 * b0

    def g(self, t):
        return self._two_b0 / (1.0 + t * t) ** 2

    def moment_tail(self, t_from):
        # t_from * t_from is inf, and the moment 0, where t_from**2 raises.
        return self.b0 / (1.0 + t_from * t_from)

    def warping(self, t_max: float, step: float) -> tuple:
        """The warping in closed form, with no IVP sweep.

        With theta = atan t, k = 1 - 2 b0 and r = sqrt|k|,
        h = sqrt(1+t^2) S(theta) and h' = (t S(theta) + C(theta))/sqrt(1+t^2),
        where S = sin(r theta)/r and C = cos(r theta) for k > 0, sinh and
        cosh for k < 0, and S = theta, C = 1 for k = 0.  sqrt(1+t^2) is
        hypot(1, t), finite wherever t is.  As b0 >= 0, h and h' grow with
        t, so finite values at t_max mean finite values on the window;
        otherwise the window is halved toward the first radius where h or
        h' is not finite, until its ends are adjacent floats, and OdeError
        names that radius.
        """
        k = 1.0 - self._two_b0
        if k > 0.0:
            r, sn, cs = math.sqrt(k), math.sin, math.cos
        elif k < 0.0:
            r, sn, cs = math.sqrt(-k), math.sinh, math.cosh
        else:
            r, sn, cs = 1.0, (lambda a: a), (lambda a: 1.0)
        atan, hypot = math.atan, math.hypot

        def h(t: float) -> float:
            return hypot(1.0, t) * (sn(r * atan(t)) / r)

        def h_prime(t: float) -> float:
            a = r * atan(t)
            return (t * (sn(a) / r) + cs(a)) / hypot(1.0, t)

        def finite(t: float) -> bool:
            try:
                return math.isfinite(h(t)) and math.isfinite(h_prime(t))
            except OverflowError:
                return False

        if not finite(t_max):
            lo, hi = 0.0, t_max
            # lo + (hi - lo) / 2, as lo + hi may overflow near 1e308.
            while lo < (mid := lo + (hi - lo) / 2) < hi:
                lo, hi = (mid, hi) if finite(mid) else (lo, mid)
            raise OdeError(hi)
        return h, h_prime(t_max)


def parse_curvature(spec: str) -> CurvatureProfile:
    """Parse a curvature description of the form used on the command line.

    Grammar: "zero" | "const:<a>:<t_cut>" | "rational:<b0>" | "table:<path>"
    where <t_cut> may be "inf".
    """
    spec = spec.strip()
    if spec == "zero":
        return ZeroCurvature()
    head, _, rest = spec.partition(":")
    try:
        if head == "const":
            a_str, _, cut_str = rest.partition(":")
            if not a_str or not cut_str:
                raise ValueError
            return ConstantCutoff(float(a_str), float(cut_str))
        if head == "rational":
            if not rest:
                raise ValueError
            return RationalDecay(float(rest))
        if head == "table":
            if not rest:
                raise ValueError
            from .table import load_tabulated

            return load_tabulated(rest)
    except ValueError as exc:
        detail = f": {exc}" if str(exc) else ""
        raise ValueError(f"malformed curvature spec {spec!r}{detail}") from None
    raise ValueError(
        f"unknown curvature spec {spec!r}; expected zero | const:<a>:<t_cut> | "
        "rational:<b0> | table:<path>"
    )


class ModelManifold:
    """A warped-product model dt^2 + h(t)^2 g_S on the window [0, t_max].

    A plain record of its curvature profile, of h and the ball volume
    V(B_t) as callables, and of the tail factor: how far area_extended()
    may undershoot the true area beyond t_max.  The sphere area
    omega h^(m-1), with its named overflow, is one closure built here:
    area_extended() returns it, and area and volume are each a window
    check and one call, whichever constructor made the model:

      * build_model: the profile's warping (the closed form for
        RationalDecay, the piecewise series for Tabulated, the curvature
        IVP's dense output for ConstantCutoff), continued linearly past
        t_max, with a certified tail factor;
      * euclidean_model: h(t) = t and the exact volume omega_m t^m.

    profile states G, its moment b and whether G >= 0, the two facts the
    volume chain and the theorem read.  euclidean_volume is the one
    omega_m t^m every volume ratio divides by.  Models compare by identity.
    """

    def __init__(
        self,
        m: int,
        t_max: float,
        profile: CurvatureProfile,
        warp: Callable[[float], float],
        ball_volume: Callable[[float], float],
        tail_factor: float,
    ):
        self.m = m
        self.t_max = t_max
        self.profile = profile
        self.warp = warp
        self.ball_volume = ball_volume
        self.tail_factor = tail_factor
        self.omega_sphere = om = sphere_area(m)
        self.omega_m = unit_ball_volume(m)
        m1 = m - 1

        def area(t: float) -> float:
            try:
                return om * warp(t) ** m1
            except OverflowError:
                raise _overflows("sphere area", t, m) from None

        self._area = area

    def _check_window(self, t: float):
        if not (0.0 <= t <= self.t_max * (1.0 + 1e-12)):
            raise ValueError(f"t={t:g} outside the model window [0, {self.t_max:g}]")

    def area(self, t: float) -> float:
        """Area of the geodesic sphere of radius t; raises ValueError where
        it overflows a float."""
        self._check_window(t)
        return self._area(t)

    def volume(self, t: float) -> float:
        """Volume of the geodesic ball of radius t; raises ValueError where
        it overflows a float (a power h^(m-1) raises, or a sum reaches inf)."""
        self._check_window(t)
        try:
            if (v := self.ball_volume(t)) < math.inf:
                return v
        except OverflowError:
            pass
        raise _overflows("ball volume", t, self.m)

    def euclidean_volume(self, t: float) -> float:
        """The Euclidean ball volume omega_m t^m; raises ValueError where it
        is not positive (t^m underflows for tiny t) or overflows a float."""
        try:
            v_euc = self.omega_m * t**self.m
        except OverflowError:
            raise _overflows("Euclidean ball volume", t, self.m) from None
        if not (v_euc > 0.0):
            raise ValueError(
                f"the Euclidean ball volume at radius t={t:g} is not positive, "
                "so the volume ratio is undefined there"
            )
        return v_euc

    def area_extended(self) -> Callable[[float], float]:
        """Area as a function on all of [0, inf), from h past the window;
        it raises ValueError where it overflows a float, as area does.

        Beyond t_max it undershoots the true area by at most the factor
        tail_factor.
        """
        return self._area


def _require_dimension(m: int) -> None:
    """Refuse m < 2 before a constructor builds a warping."""
    if m < 2:
        raise ValueError("model dimension must be at least 2")


def build_model(m: int, profile: CurvatureProfile, t_max: float, step: float) -> ModelManifold:
    """Assemble the model of a curvature profile from its warping.

    profile.warping gives h on the window and h' at its end: in closed
    form for RationalDecay, as a piecewise Taylor series for Tabulated,
    from the RK4 sweep of the IVP for ConstantCutoff, the one reader of
    step.  The ball volume is panel_volumes over the sphere area
    omega h^(m-1), however h was computed.  Past the window h continues
    linearly from its value and slope at T = t_max.  The true h satisfies
    w <= h <= w * F there, where w is that continuation and
    F = exp(kappa * integral of s G(s) over [T, inf)) with
    kappa = 1 + h(T)/(T h'(T)); the area's tail factor is F^(m-1).
    """
    if isinstance(profile, ZeroCurvature):
        return euclidean_model(m, t_max)
    from .warping import panel_volumes

    _require_dimension(m)
    value, hp_end = profile.warping(t_max, step)
    h_end = value(t_max)

    def h(t: float) -> float:
        return value(t) if t <= t_max else h_end + hp_end * (t - t_max)

    kappa = 1.0 + h_end / (hp_end * t_max)
    # Ahead of omega: where t_max^2 overflows, the refusal is the tail's.
    tail_factor = _exp_or_inf((m - 1) * kappa * profile.moment_tail(t_max))
    om, m1 = sphere_area(m), m - 1
    return ModelManifold(
        m=m,
        t_max=t_max,
        profile=profile,
        warp=h,
        tail_factor=tail_factor,
        ball_volume=panel_volumes(lambda t: om * value(t) ** m1, t_max),
    )


def euclidean_model(m: int, t_max: float) -> ModelManifold:
    """Flat R^m as a model: h(t) = t with exact area and volume."""
    _require_dimension(m)
    omega_m = unit_ball_volume(m)
    return ModelManifold(
        m=m,
        t_max=t_max,
        profile=ZeroCurvature(),
        warp=lambda t: t,
        ball_volume=lambda t: omega_m * t**m,
        tail_factor=1.0,
    )


class ChainCheck(NamedTuple):
    name: str
    t: float
    lhs: float
    rhs: float
    passed: bool


class VolumeChainReport(NamedTuple):
    rows: tuple

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows)


def upper_chain_factors(b: float, m: int) -> tuple[float, float]:
    """The upper-chain factors e^(b (m-1)) on area and e^(b m) on volume.

    Raises ValueError when e^(b m) is infinite: the upper volume check
    could then never fail.  It depends on b and m only, so a caller can
    refuse such a moment before it builds the model.
    """
    vol_factor = _exp_or_inf(b * m)
    if math.isinf(vol_factor):
        raise ValueError(f"the upper bound e^(b m) is infinite at b={b:g}; the chain cannot fail")
    return _exp_or_inf(b * (m - 1)), vol_factor


def verify_volume_chain(model: ModelManifold, t_grid, slack: float) -> VolumeChainReport:
    """Check the two-sided area and volume comparison along a radius grid.

    Verified per grid point, with relative slack:
      * lower_area / lower_volume: the model dominates Euclidean space;
      * upper_area: area <= e^(b (m-1)) * Euclidean area;
      * upper_volume: volume <= e^(b m) * Euclidean volume;

    with b the moment of the model's curvature profile.  The lower rows
    hold only where G >= 0, so a profile that is not nonnegative is
    refused.  An infinite bound e^(b m), as at b = inf, could never fail
    and raises ValueError, as does a radius the model's euclidean_volume
    refuses.
    """
    m = model.m
    if not model.profile.nonnegative:
        raise ValueError("the lower chain rows hold only where G >= 0")
    b = model.profile.b
    area_factor, vol_factor = upper_chain_factors(b, m)
    om_s = model.omega_sphere

    def check(name, t, lhs, rhs):
        scale = max(abs(lhs), abs(rhs), 1.0)
        return ChainCheck(name, float(t), lhs, rhs, lhs <= rhs + slack * scale)

    rows = []
    for t in t_grid:
        v_euc = model.euclidean_volume(t)
        a_euc = om_s * t ** (m - 1)
        a_h = model.area(t)
        v_h = model.volume(t)
        rows.append(check("lower_area", t, a_euc, a_h))
        rows.append(check("lower_volume", t, v_euc, v_h))
        rows.append(check("upper_area", t, a_h, area_factor * a_euc))
        rows.append(check("upper_volume", t, v_h, vol_factor * v_euc))
    return VolumeChainReport(rows=tuple(rows))
