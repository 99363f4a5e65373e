"""Rotationally symmetric model spaces with radial curvature control.

A model here is R^m with the metric dt^2 + h(t)^2 dtheta^2.  Its radial
Ricci curvature is -(m-1) G with G = h''/h.  The warping function h
solves h'' = G(t) h, h(0) = 0, h'(0) = 1 for a nonnegative decaying
curvature coefficient G, or is given in closed form, which is how
nonnegatively curved examples (conical spaces) enter the test matrix.
Either way a ModelManifold holds h, G, the ball volume V(B_t) and the
tail factor, and nothing else.  The moment b = integral(t G(t) dt)
measures the total amount of negative curvature; when it is finite the
model is trapped between Euclidean space and a bounded dilation of it,
which is exactly what verify_volume_chain checks on a grid.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from pathlib import Path
from typing import Callable, NamedTuple

from .numerics import solve_h_ivp, uniform_grid
from .talenti import sphere_area, unit_ball_volume


def _exp_or_inf(x: float) -> float:
    return math.inf if x > 700.0 else math.exp(x)


class CurvatureProfile:
    """Radial curvature coefficient G(t) >= 0 with its moment b."""

    def g(self, t: float) -> float:
        raise NotImplementedError

    @property
    def b(self) -> float:
        """The whole moment, integral of t G(t) over [0, inf)."""
        return self.moment_tail(0.0)

    def moment_tail(self, t_from: float) -> float:
        """integral of t G(t) over [t_from, inf)."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()}>"


class ZeroCurvature(CurvatureProfile):
    def g(self, t):
        return 0.0

    def moment_tail(self, t_from):
        return 0.0

    def spec_string(self):
        return "zero"


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
        return 0.5 * self.a * (self.t_cut**2 - t_from**2)

    def spec_string(self):
        cut = "inf" if math.isinf(self.t_cut) else f"{self.t_cut:g}"
        return f"const:{self.a:g}:{cut}"


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
        return self.b0 / (1.0 + t_from**2)

    def spec_string(self):
        return f"rational:{self.b0:g}"


class Tabulated(CurvatureProfile):
    """Piecewise-linear G on a grid with a declared power-law tail.

    Beyond the last node the profile continues as
    values[-1] * (grid[-1] / t)^tail_power; the tail power must be finite
    and exceed 2 so the moment converges.  Nodes and values must be finite.
    """

    def __init__(self, grid, values, tail_power: float):
        shape_error = "tabulated profile needs matching 1-d grid and values, length >= 2"
        try:
            grid = array("d", grid)
            values = array("d", values)
        except TypeError:
            raise ValueError(shape_error) from None
        if len(grid) != len(values) or len(grid) < 2:
            raise ValueError(shape_error)
        if not all(map(math.isfinite, grid + values)):
            raise ValueError("tabulated grid and curvature values must be finite")
        if grid[0] < 0.0 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("tabulated grid must be nonnegative and strictly increasing")
        if any(v < 0.0 for v in values):
            raise ValueError("curvature values must be >= 0")
        if not (2.0 < tail_power < math.inf):
            raise ValueError(
                "tail_power must be finite and exceed 2 so the curvature moment converges, "
                f"got {tail_power!r}"
            )
        self.grid = grid
        self.values = values
        self.tail_power = float(tail_power)
        # The chord slope of each segment, by the formula np.interp uses,
        # so g has the same bits.
        self._slopes = array(
            "d",
            ((v1 - v0) / (t1 - t0) for t0, t1, v0, v1 in zip(grid, grid[1:], values, values[1:])),
        )

    def g(self, t):
        grid, values = self.grid, self.values
        if t <= grid[0]:
            return values[0]
        if t >= grid[-1]:
            return values[-1] * (grid[-1] / t) ** self.tail_power
        # grid[j] <= t < grid[j + 1]
        j = bisect_right(grid, t) - 1
        return self._slopes[j] * (t - grid[j]) + values[j]

    def _segment_moment(self, t_from: float) -> float:
        # t * G is piecewise quadratic where G is piecewise linear, so a
        # per-segment Simpson rule is exact.
        total = 0.0
        for a, b in zip(self.grid[:-1], self.grid[1:]):
            lo = max(a, t_from)
            if lo >= b:
                continue
            mid = 0.5 * (lo + b)
            total += (b - lo) / 6.0 * (
                lo * self.g(lo) + 4.0 * mid * self.g(mid) + b * self.g(b)
            )
        return total

    def moment_tail(self, t_from):
        t_last = self.grid[-1]
        v_last = self.values[-1]
        q = self.tail_power
        start = max(t_from, t_last)
        tail = v_last * t_last**q * start ** (2.0 - q) / (q - 2.0)
        if t_from >= t_last:
            return tail
        total = self._segment_moment(t_from) + tail
        if t_from < self.grid[0]:
            # The profile is taken constant at values[0] on [0, grid[0]].
            total += 0.5 * self.values[0] * (self.grid[0] ** 2 - t_from**2)
        return total

    def spec_string(self):
        return f"table:<{len(self.grid)} nodes, tail_power={self.tail_power:g}>"


def load_tabulated(path: str | Path) -> Tabulated:
    """Read a tabulated profile from a two-column text file.

    Rows hold "t value" pairs; a directive line "# tail_power=<q>" declares
    the tail decay exponent and is required.
    """
    grid, values = [], []
    tail_power = None
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("tail_power"):
                try:
                    tail_power = float(body.split("=", 1)[1])
                except (IndexError, ValueError):
                    raise ValueError(f"malformed tail_power directive: {raw!r}") from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected 't value' pairs in {path}, got {raw!r}")
        grid.append(float(parts[0]))
        values.append(float(parts[1]))
    if tail_power is None:
        raise ValueError(f"profile table {path} is missing the '# tail_power=<q>' directive")
    return Tabulated(grid, values, tail_power)


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

    A plain record of h, the curvature G = h''/h and the ball volume
    V(B_t) as callables, and of the tail factor: how far area_extended()
    may undershoot the true area beyond t_max.  area, volume and
    radial_ricci are each a window check and one call, whichever
    constructor made the model:

      * build_model: the curvature IVP's dense output, continued linearly
        past t_max, with a certified tail factor;
      * model_from_warping: a closed-form h, exact past t_max (factor 1);
      * euclidean_model: h(t) = t and the exact volume omega_m t^m.

    The first two read ball volumes from a node table (_volume_table).
    profile is the curvature profile whose moment b the bounds use, when
    known.  Models compare by identity.
    """

    def __init__(
        self,
        m: int,
        t_max: float,
        profile: CurvatureProfile | None,
        name: str,
        warp: Callable[[float], float],
        curvature: Callable[[float], float],
        ball_volume: Callable[[float], float],
        tail_factor: float,
    ):
        self.m = m
        self.t_max = t_max
        self.profile = profile
        self.name = name
        self.warp = warp
        self.curvature = curvature
        self.ball_volume = ball_volume
        self.tail_factor = tail_factor
        self.omega_sphere = sphere_area(m)
        self.omega_m = unit_ball_volume(m)

    def _check_window(self, t: float):
        if not (0.0 <= t <= self.t_max * (1.0 + 1e-12)):
            raise ValueError(f"t={t:g} outside the model window [0, {self.t_max:g}]")

    def area(self, t: float) -> float:
        """Area of the geodesic sphere of radius t."""
        self._check_window(t)
        return self.omega_sphere * self.warp(t) ** (self.m - 1)

    def volume(self, t: float) -> float:
        """Volume of the geodesic ball of radius t."""
        self._check_window(t)
        return self.ball_volume(t)

    def radial_ricci(self, t: float) -> float:
        """Ricci curvature in the radial direction, -(m-1) G(t)."""
        self._check_window(t)
        return -(self.m - 1) * self.curvature(t)

    def area_extended(self) -> Callable[[float], float]:
        """Area as a function on all of [0, inf), from h past the window.

        Beyond t_max it undershoots the true area by at most the factor
        tail_factor.
        """
        om, m1, warp = self.omega_sphere, self.m - 1, self.warp
        return lambda t: om * warp(t) ** m1

    def __repr__(self):
        return f"<ModelManifold {self.name} m={self.m} t_max={self.t_max:g}>"


def _require_dimension(m: int) -> None:
    """Refuse m < 2 before a constructor builds an IVP or a node table."""
    if m < 2:
        raise ValueError("model dimension must be at least 2")


def _volume_table(m, step, h_nodes, hp_nodes, h, h_prime) -> Callable[[float], float]:
    """Ball volume V(B_t) from h and h' at the nodes of a uniform grid.

    Node i sits at i * step; only the last one may differ (it is t_max),
    and a lookup never starts a cell there.  The node volumes are a
    derivative-corrected trapezoid on each cell, summed in node order;
    between nodes the same rule adds the part of a cell below t, from h(t)
    and h'(t).  So a lookup is O(1).
    """
    om, m1, m2 = sphere_area(m), m - 1, m - 2
    om_m1 = om * m1
    half, corr = 0.5 * step, step * step / 12.0
    f_prev = om * h_nodes[0] ** m1
    fp_prev = om_m1 * h_nodes[0] ** m2 * hp_nodes[0]
    total = 0.0
    vol = array("d", [total])
    add = vol.append
    for h_i, hp_i in zip(h_nodes[1:], hp_nodes[1:]):
        f = om * h_i**m1
        fp = om_m1 * h_i**m2 * hp_i
        total += half * (f_prev + f) + corr * (fp_prev - fp)
        add(total)
        f_prev, fp_prev = f, fp
    last = len(h_nodes) - 2

    def volume(t: float) -> float:
        i = min(int(t / step), last)
        t_i = i * step
        if t == t_i:
            return vol[i]
        h_t = h(t)
        hp_t = h_prime(t)
        f_i = om * h_nodes[i] ** m1
        fp_i = om_m1 * h_nodes[i] ** m2 * hp_nodes[i]
        f_t = om * h_t**m1
        fp_t = om_m1 * h_t**m2 * hp_t
        d = t - t_i
        return vol[i] + 0.5 * d * (f_i + f_t) + d * d / 12.0 * (fp_i - fp_t)

    return volume


def build_model(m: int, profile: CurvatureProfile, t_max: float, step: float) -> ModelManifold:
    """Solve the warping IVP for a curvature profile and assemble the model.

    Past the window h continues linearly from its value and slope at
    T = t_max.  The true h satisfies w <= h <= w * F there, where w is that
    continuation and F = exp(kappa * integral of s G(s) over [T, inf))
    with kappa = 1 + h(T)/(T h'(T)); the area's tail factor is F^(m-1).
    """
    if isinstance(profile, ZeroCurvature):
        return euclidean_model(m, t_max)
    _require_dimension(m)
    ivp = solve_h_ivp(profile.g, t_max, step)
    value = ivp.value
    h_end, hp_end = ivp.values[-1], ivp.derivs[-1]

    def h(t: float) -> float:
        return value(t) if t <= t_max else h_end + hp_end * (t - t_max)

    kappa = 1.0 + h_end / (hp_end * t_max)
    return ModelManifold(
        m=m,
        t_max=t_max,
        profile=profile,
        name=profile.spec_string(),
        warp=h,
        curvature=profile.g,
        ball_volume=_volume_table(m, ivp.step, ivp.values, ivp.derivs, value, ivp.deriv),
        tail_factor=_exp_or_inf((m - 1) * kappa * profile.moment_tail(t_max)),
    )


def euclidean_model(m: int, t_max: float) -> ModelManifold:
    """Flat R^m as a model: h(t) = t with exact area and volume."""
    _require_dimension(m)
    omega_m = unit_ball_volume(m)
    return ModelManifold(
        m=m,
        t_max=t_max,
        profile=ZeroCurvature(),
        name="euclidean",
        warp=lambda t: t,
        curvature=lambda t: 0.0,
        ball_volume=lambda t: omega_m * t**m,
        tail_factor=1.0,
    )


def model_from_warping(
    m: int,
    h: Callable[[float], float],
    h_prime: Callable[[float], float],
    h_second: Callable[[float], float],
    t_max: float,
    step: float,
    name: str,
) -> ModelManifold:
    """Model from a closed-form warping function with h(0)=0, h'(0)=1.

    h' fills the volume table; h'' only enters the curvature G = h''/h,
    which is undefined at the apex, where h vanishes.
    """
    _require_dimension(m)
    if abs(h(0.0)) > 1e-9 or abs(h_prime(0.0) - 1.0) > 1e-9:
        raise ValueError("warping function must satisfy h(0)=0 and h'(0)=1")

    def curvature(t: float) -> float:
        if t == 0.0:
            raise ValueError("the curvature h''/h of a closed-form warping is undefined at t = 0")
        return h_second(t) / h(t)

    n = max(1, round(t_max / step))
    nodes = uniform_grid(t_max, n)
    h_nodes = array("d", map(h, nodes))
    hp_nodes = array("d", map(h_prime, nodes))
    return ModelManifold(
        m=m,
        t_max=t_max,
        profile=None,
        name=name,
        warp=h,
        curvature=curvature,
        ball_volume=_volume_table(m, t_max / n, h_nodes, hp_nodes, h, h_prime),
        tail_factor=1.0,
    )


def conical_model(m: int, c: float, t_max: float, step: float) -> ModelManifold:
    """Nonnegatively curved model opening onto a cone of slope c in (0, 1].

    h(t) = c t + (1-c)(1 - e^-t) interpolates between the Euclidean apex
    (h ~ t near zero) and linear growth with slope c; its radial Ricci
    curvature (m-1)(1-c) e^-t / h is nonnegative.
    """
    if not (0.0 < c <= 1.0):
        raise ValueError("cone slope c must lie in (0, 1]")
    d = 1.0 - c
    return model_from_warping(
        m,
        h=lambda t: c * t + d * (1.0 - math.exp(-t)),
        h_prime=lambda t: c + d * math.exp(-t),
        h_second=lambda t: -d * math.exp(-t),
        t_max=t_max,
        step=step,
        name=f"conical:{c:g}",
    )


class ChainCheck(NamedTuple):
    name: str
    t: float
    lhs: float
    rhs: float
    passed: bool


class VolumeChainReport(NamedTuple):
    rows: tuple
    b_used: float

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

    with b the moment of the model's curvature profile; a model without a
    profile has no known b and is refused.  An infinite bound e^(b m), as
    at b = inf, could never fail and raises ValueError; so does a radius
    whose Euclidean ball volume is not positive (t^m underflows for tiny t).
    """
    m = model.m
    if model.profile is None:
        raise ValueError("model has no curvature profile, so its moment b is unknown")
    b = model.profile.b
    area_factor, vol_factor = upper_chain_factors(b, m)
    om_s = model.omega_sphere
    om_m = model.omega_m

    def check(name, t, lhs, rhs):
        lhs = float(lhs)
        rhs = float(rhs)
        scale = max(abs(lhs), abs(rhs), 1.0)
        return ChainCheck(name, float(t), lhs, rhs, bool(lhs <= rhs + slack * scale))

    rows = []
    for t in t_grid:
        a_euc = om_s * t ** (m - 1)
        v_euc = om_m * t**m
        if not (v_euc > 0.0):
            raise ValueError(
                f"the Euclidean ball volume at radius t={t:g} is not positive, "
                "so the comparison bounds are undefined there"
            )
        a_h = model.area(t)
        v_h = model.volume(t)
        rows.append(check("lower_area", t, a_euc, a_h))
        rows.append(check("lower_volume", t, v_euc, v_h))
        rows.append(check("upper_area", t, a_h, area_factor * a_euc))
        rows.append(check("upper_volume", t, v_h, vol_factor * v_euc))
    return VolumeChainReport(rows=tuple(rows), b_used=b)
