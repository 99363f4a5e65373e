"""Low-level numerical kernels shared by the rest of the package.

Four independent pieces live here: adaptive Simpson and checked Gauss
panel quadrature, a piecewise Taylor series for the warping initial
value problem h'' = G(t) h, h(0) = 0, h'(0) = 1, which builds the models
of `table:` specs, and a fixed-step RK4 sweep of the same problem, which
builds those of `const:` specs (a `rational:` model takes its warping in
closed form).  The whole Simpson policy is the
tolerance pair TOL, the recursion limit MAX_DEPTH, the per-panel
rounding floor ROUNDING_FACTOR; a caller may pass its own (abs_tol,
rel_tol) pair, nothing else.  A semi-infinite integral also needs the
radius where head and tail are split and the integrand's declared tail
power.  The Gauss rule's is PANEL_REL_TOL and MAX_DEPTH.
The series is summed on each piece until its terms are rounding
(SERIES_REL_TOL), and a piece that does not get there within
SERIES_MAX_TERMS terms fails its check.  The RK4 sweep has no error
control of its own: the caller's step is its accuracy, which the tests
pin against closed forms and high-precision reference solutions, and it
stops where G has vanished for good, past which h is a line.  Either
output is a Warping, the one shape of every warping, closed forms
included: h as a function and h' at the window's end.  Only the sweep
has a grid (grid_steps), whose nodes its dense output reads from stdlib
``array("d")`` columns.  Every warping's ball volume is one rule, checked
Gauss panels over h (panel_volumes).  A warping's finiteness is checked
once, as it is built.
Nothing here needs vector arithmetic.  All routines are deterministic:
the same inputs always produce bitwise identical results.  Every error
that fails a check rather than refusing an input derives from
CheckFailed.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from typing import Callable, NamedTuple


class CheckFailed(RuntimeError):
    """A computation that had to certify its result could not: exit code 1."""


class QuadratureError(CheckFailed):
    """Adaptive quadrature could not meet the requested tolerance."""


class OdeError(CheckFailed):
    """The warping h, or h', is not finite from the node at radius t on."""

    def __init__(self, t: float):
        super().__init__(f"warping solution became non-finite near t={t:g}")
        self.t = t


class SeriesError(CheckFailed):
    """A piece of a warping's Taylor series did not converge."""


# Open endpoint of the tail substitution t = split/u near u = 0.
U_MIN = 1e-8


# Default (abs_tol, rel_tol): the accepted error of an integral is
# max(abs_tol, rel_tol * |estimate|).
TOL = (1e-13, 1e-11)
# Recursion limit before adaptive Simpson gives up with QuadratureError.
MAX_DEPTH = 50
# Multiple of eps * |panel estimate| below which a panel's error is
# rounding noise rather than accuracy.
ROUNDING_FACTOR = 64.0
# A panel is accepted when |err| <= 15 * max(tol, ROUNDING_FACTOR * eps *
# |estimate|); the second bound is tested only when the first fails.
_PANEL_NOISE = 15.0 * ROUNDING_FACTOR * sys.float_info.epsilon


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, mid - a)
    right = _simpson(fm, frm, fb, b - mid)
    err = left + right - whole
    if math.isfinite(err) and (
        abs(err) <= 15.0 * tol or abs(err) <= _PANEL_NOISE * abs(left + right)
    ):
        return left + right + err / 15.0
    if depth >= MAX_DEPTH:
        raise QuadratureError(
            f"adaptive Simpson stalled on [{a:g}, {b:g}] at depth {depth} "
            f"(local error {abs(err):.3e}, local tolerance {tol:.3e})"
        )
    half = 0.5 * tol
    return _adaptive(f, a, mid, fa, flm, fm, left, half, depth + 1) + _adaptive(
        f, mid, b, fm, frm, fb, right, half, depth + 1
    )


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: tuple = TOL,
) -> float:
    """Integrate f over [a, b] with adaptive Simpson refinement.

    The error criterion uses Richardson extrapolation of the two-panel
    versus one-panel Simpson values on each subinterval.  A panel is also
    accepted once its error is below the rounding noise of its own
    estimate (ROUNDING_FACTOR * eps * |estimate|), so a cancelling or a
    sharply peaked integrand does not refine to MAX_DEPTH.

    Args:
        f: integrand, evaluated at scalar points in [a, b].
        a, b: finite interval endpoints with a <= b.
        tol: the (abs_tol, rel_tol) pair.

    Returns:
        The integral estimate.

    Raises:
        QuadratureError: tolerance not met within MAX_DEPTH levels.
        ValueError: malformed interval.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate_finite requires finite endpoints")
    if b < a:
        raise ValueError(f"empty interval [{a:g}, {b:g}]")
    if b == a:
        return 0.0

    fa = f(a)
    fb = f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = _simpson(fa, fm, fb, b - a)
    # One refinement to get a scale for the relative tolerance.
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, mid - a)
    right = _simpson(fm, frm, fb, b - mid)
    scale = max(abs(left + right), abs(whole))

    def run(target: float) -> float:
        half = 0.5 * target
        return _adaptive(f, a, mid, fa, flm, fm, left, half, 1) + _adaptive(
            f, mid, b, fm, frm, fb, right, half, 1
        )

    abs_tol, rel_tol = tol
    value = run(max(abs_tol, rel_tol * scale))
    # For small-magnitude integrals the absolute floor dominates the first
    # pass; with the magnitude now known, rerun against a purely relative
    # target so that accuracy does not degrade with the overall scale.
    target = rel_tol * abs(value)
    if value != 0.0 and target < abs_tol:
        value = run(target)
    return value


def integrate_semi_infinite(
    f: Callable[[float], float],
    split: float,
    start: float = 0.0,
    *,
    decay_power: float,
    tol: tuple = TOL,
) -> float:
    """Integrate f over [start, infinity) for f decaying like t**-decay_power.

    The range is split at T = max(split, start).  The head is
    handled by integrate_finite and the tail through the substitution
    t = T/u, which maps [T, inf) onto (0, 1].  The transformed integrand
    is integrated on [1e-8, 1]; the remaining sliver at u=0 is added
    analytically from the declared power law.

    Raises:
        QuadratureError: tolerance not met, or the declared tail is too
            close to non-integrable (decay_power <= ~1.05).
        ValueError: split not positive and finite, or start negative or
            not finite.
    """
    if not (0.0 < split < math.inf):
        raise ValueError(f"split must be positive and finite, got {split!r}")
    if start < 0.0 or not math.isfinite(start):
        raise ValueError("start must be finite and nonnegative")
    # The transformed integrand behaves like u**local_power near u = 0.
    local_power = decay_power - 2.0
    if local_power <= -0.95:
        raise QuadratureError(
            f"tail of the integrand decays like t^{-decay_power:.3f} "
            "and is too close to non-integrable"
        )
    split = max(split, start)
    head = integrate_finite(f, start, split, tol) if split > start else 0.0

    def transformed(u: float) -> float:
        t = split / u
        return f(t) * split / (u * u)

    sliver = transformed(U_MIN) * U_MIN / (local_power + 1.0)
    tail = integrate_finite(transformed, U_MIN, 1.0, tol)
    return head + tail + sliver


def _gauss_legendre_10() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes (ascending) and weights of the 10-point Gauss-Legendre rule on
    [-1, 1]: each root x > 0 of the Legendre polynomial P_10 by Newton's
    method on its recurrence, with weight 2/((1 - x^2) P_10'(x)^2), and
    mirrored, so that the rule is exactly symmetric."""
    half = []
    for i in range(1, 6):
        x, dx = math.cos(math.pi * (i - 0.25) / 10.5), 1.0
        while True:
            p0, p1 = 1.0, x
            for k in range(2, 11):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            slope = 10 * (x * p1 - p0) / (x * x - 1.0)
            if abs(dx) <= 1e-15:  # so the weight reads P_10' at the last x
                break
            dx = p1 / slope
            x -= dx
        half.append((x, 2.0 / ((1.0 - x * x) * slope * slope)))
    nodes, weights = zip(*[(-x, w) for x, w in half], *reversed(half))
    return nodes, weights


GAUSS_NODES, GAUSS_WEIGHTS = _gauss_legendre_10()
# A Gauss panel is accepted when its halves agree with it to this share.
PANEL_REL_TOL = 1e-14


def _gauss(f, a, b):
    centre, radius = 0.5 * (a + b), 0.5 * (b - a)
    return radius * sum(w * f(centre + radius * x) for x, w in zip(GAUSS_NODES, GAUSS_WEIGHTS))


def _gauss_halves(f, a, b, whole, tol, depth):
    mid = 0.5 * (a + b)
    left, right = _gauss(f, a, mid), _gauss(f, mid, b)
    err = abs(left + right - whole)
    if err <= tol or not math.isfinite(left + right):
        return left + right
    if depth >= MAX_DEPTH:
        raise QuadratureError(f"Gauss panel rule stalled on [{a:g}, {b:g}] (error {err:.3e})")
    half = _gauss_halves(f, a, mid, left, tol, depth + 1)
    return half + _gauss_halves(f, mid, b, right, tol, depth + 1)


def integrate_panel(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate a positive f over [a, b] by the 10-point Gauss rule on its
    halves, once their sum agrees with the rule on [a, b] to PANEL_REL_TOL
    of it; else each half is checked the same way against that tolerance,
    which a positive f cannot cancel, to MAX_DEPTH levels (QuadratureError).
    A sum that is not finite is returned as it is."""
    whole = _gauss(f, a, b)
    return _gauss_halves(f, a, b, whole, PANEL_REL_TOL * abs(whole), 0)


# Most steps of the RK4 sweep's grid: its two float columns take 160 MB
# at the cap.
MAX_GRID_STEPS = 10_000_000


def grid_steps(t_max: float, step: float) -> int:
    """The number n = round(t_max / step), at least 1, of uniform steps of
    the RK4 sweep's grid: the steps are t_max / n, node i is at
    i * t_max / n, and the last node, i = n, is t_max itself, whatever n
    steps round to.

    Raises:
        ValueError: non-positive step or window, or n > MAX_GRID_STEPS.
    """
    if not (t_max > 0.0) or not (step > 0.0):
        raise ValueError("t_max and step must be positive")
    n = max(1, round(t_max / step))
    if n > MAX_GRID_STEPS:
        raise ValueError(f"step {step:g} on [0, {t_max:g}] needs {n:.3g} grid steps, "
                         f"more than the {MAX_GRID_STEPS:,} a warping grid may have")
    return n


class Warping(NamedTuple):
    """A warping h with h(0) = 0, h'(0) = 1 on the window [0, t_max]:
    value is h as a function on the window, and end_slope the number
    h'(t_max), from which a model continues h past the window.  Its ball
    volume is panel_volumes over value, whatever computed h.
    """

    value: Callable[[float], float]
    end_slope: float


def require_finite_nodes(step: float, n: int, pair: Callable[[int], tuple]) -> None:
    """Raise OdeError at the first node i * step of the RK4 sweep where h or
    h' is not finite; pair(i) is node i's (h, h'), and when node n is
    finite it is the only one read (solve_h_ivp says why)."""
    if all(map(math.isfinite, pair(n))):
        return
    raise OdeError(next(i for i in range(n + 1) if not all(map(math.isfinite, pair(i)))) * step)


# A ball volume cuts its window into ceil(t_max / PANEL_WIDTH) panels, and
# a window wider than MAX_PANELS * PANEL_WIDTH into MAX_PANELS wider ones.
PANEL_WIDTH = 0.25
MAX_PANELS = 4096


def panel_volumes(h, t_max, m, om):
    """The ball volume t -> om * integral of h^(m-1) over [0, t] of a
    warping h on [0, t_max]: the closed form of a `rational:` spec,
    analytic, a `table:` spec's series, analytic between its nodes, or the
    RK4 sweep's dense output, a cubic on each grid step below the sweep's
    stop and a line past it.  Whatever computed h, its k equal panels are
    set by t_max alone; integrate_panel takes each to rounding, and halves
    one where a table node, or the joins of the sweep's cubics, whose h''
    jumps, spoil the rule.  The panel sums are one running prefix at the
    panel edges, summed only as far as a lookup reads; a lookup in panel i
    adds the part [edge i, t] of its panel by the same rule."""
    k = min(math.ceil(t_max / PANEL_WIDTH), MAX_PANELS)
    width = t_max / k
    vol = array("d", [0.0])
    area = lambda t: om * h(t) ** (m - 1)

    def volume(t: float) -> float:
        i = min(int(t / width), k - 1)
        for j in range(len(vol), i + 1):
            vol.append(vol[-1] + integrate_panel(area, (j - 1) * width, j * width))
        return vol[i] if t == i * width else vol[i] + integrate_panel(area, i * width, t)

    return volume


# A piece of a warping's Taylor series stops once three successive terms
# of h, and of h', at the piece's end are below this share of their sums.
SERIES_REL_TOL = sys.float_info.epsilon / 100.0
# The most terms a piece may take; one that needs more fails its check.
SERIES_MAX_TERMS = 60


def series_width(g0: float, g1: float) -> float:
    """The widest piece, 1/sqrt(g0) and |g1|^(-1/3) at most, on which the
    series of h'' = G h with G = g0 + g1 s + ... has w^2 g0 <= 1 and
    w^3 |g1| <= 1, so that its terms fall like those of an exponential."""
    return min(1.0 / math.sqrt(abs(g0)) if g0 else math.inf,
               abs(g1) ** (-1.0 / 3.0) if g1 else math.inf)


def series_warping(pieces) -> Warping:
    """Solve h'' = G h with h(0) = 0, h'(0) = 1 by a Taylor series on each
    of the consecutive pieces (t0, t1, gs) that run from 0 to t_max.

    gs holds the Taylor coefficients g_j w^j of G(t0 + w sigma) in sigma,
    w = t1 - t0; a coefficient past its end is 0.  Then h = sum of d_k
    sigma^k with d_0 = h(t0), d_1 = w h'(t0) and
    d_(k+2) = w^2 sum over j <= k of g_j w^j d_(k-j) / ((k+2)(k+1)).  The
    series stops after three successive terms d_k and k d_k, the terms of
    h and of w h' at the piece's end, fall below SERIES_REL_TOL of their
    sums; the caller's widths (series_width) make them fall.  A piece
    that needs more than SERIES_MAX_TERMS terms raises SeriesError.  h
    inside a piece is one Horner evaluation; h and h' at its end, the
    correctly rounded sums of its terms, start the next, and h' at t_max
    is the record's end slope.  A piece whose end is not finite raises
    OdeError naming that end.
    """
    h, slope = 0.0, 1.0
    starts = array("d")
    polys = []
    for t0, t1, gs in pieces:
        w = t1 - t0
        d = [h, slope * w]
        h_sum, hp_sum, small = d[0] + d[1], d[1], 0
        for k in range(2, SERIES_MAX_TERMS):
            # w (w sum) rather than w^2 sum, as w^2 overflows on a tail
            # piece wider than about 1.3e154, where h may still be finite.
            c = w * (w * sum(g * d[k - 2 - j] for j, g in enumerate(gs[:k - 1]))) / (k * (k - 1))
            d.append(c)
            h_sum += c
            hp_sum += k * c
            rounding = SERIES_REL_TOL * min(abs(h_sum), abs(hp_sum) / k)
            small = small + 1 if abs(c) <= rounding else 0
            if small == 3:
                break
        else:
            if math.isfinite(h_sum) and math.isfinite(hp_sum):
                raise SeriesError(f"the warping's Taylor series on [{t0:g}, {t1:g}] did not "
                                  f"converge within {SERIES_MAX_TERMS} terms")
        h = math.fsum(d)
        slope = math.fsum(k * c for k, c in enumerate(d)) / w
        if not (math.isfinite(h) and math.isfinite(slope)):
            raise OdeError(t1)
        starts.append(t0)
        polys.append((t0, w, d[::-1]))

    def value(t: float) -> float:
        t0, w, poly = polys[bisect_right(starts, t, 1) - 1]
        s = (t - t0) / w
        acc = 0.0
        for c in poly:
            acc = acc * s + c
        return acc

    return Warping(value, slope)


def _hermite(y0, y1, d0, d1, s, width):
    s2 = s * s
    s3 = s2 * s
    return (
        y0 * (2.0 * s3 - 3.0 * s2 + 1.0)
        + y1 * (3.0 * s2 - 2.0 * s3)
        + width * (d0 * (s3 - 2.0 * s2 + s) + d1 * (s3 - s2))
    )


def solve_h_ivp(g: Callable[[float], float], t_max: float, step: float,
                flat_from: float) -> Warping:
    """Solve h'' = g(t) h with h(0) = 0, h'(0) = 1 on [0, t_max], where g
    is 0 at every t > flat_from (math.inf if it never vanishes for good).

    Classic fixed-step RK4 on the first-order system (h, h'), one sweep
    over the grid_steps grid, which stops at the first node J whose step
    reads g past flat_from only: from there on every RK4 step, and the
    dense output, draw the line h_J + (t - t_J) h'_J, exact up to rounding,
    and so does the record.  g is called 2J + 1 times, at each node and
    step midpoint up to node J.  Between nodes h is the cubic Hermite
    interpolant of the nodes' h and h', which keeps the sweep's fourth
    order; the record holds it and h' at the last node.  A lookup at
    t_max (or within the window's 1e-12 slack past it) returns the last
    node's h exactly, and one outside the window raises ValueError.  There
    is no error estimate; the step is the accuracy control, of h and so of
    the ball volume, which panel_volumes takes exactly for this h, and it
    reaches no other code.  Finiteness is checked once, after the sweep
    (require_finite_nodes): an RK4 step of this linear system keeps a
    non-finite h or h' non-finite, and the line grows with t, so the first
    non-finite node is the one where the state blew up.  The models of
    `const:` specs come from this sweep.

    Raises:
        OdeError: the state became non-finite (runaway curvature input).
        ValueError: non-positive step or window, or too fine a grid.
    """
    n = grid_steps(t_max, step)
    dt = t_max / n
    half = 0.5 * dt
    sixth = dt / 6.0
    h, v = 0.0, 1.0
    values = array("d", [h])
    derivs = array("d", [v])
    add_value, add_deriv = values.append, derivs.append
    g_here = g(0.0)
    stop = n
    for i in range(n):
        t = i * dt
        g_mid = g(t + half)
        g_next = g(t + dt)
        k1v = g_here * h
        k2h = v + half * k1v
        k2v = g_mid * (h + half * v)
        k3h = v + half * k2v
        k3v = g_mid * (h + half * k2h)
        k4h = v + dt * k3v
        k4v = g_next * (h + dt * k3h)
        h += sixth * (v + 2.0 * k2h + 2.0 * k3h + k4h)
        v += sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        add_value(h)
        add_deriv(v)
        g_here = g_next
        # The next step reads g at t + dt, as g_here, and past it.
        if t + dt > flat_from:
            stop = i + 1
            break
    t_stop = stop * dt

    def line(t: float) -> float:
        return h + (t - t_stop) * v

    h_end = values[n] if stop == n else line(t_max)

    def value(t: float) -> float:
        if not (0.0 <= t <= t_max * (1.0 + 1e-12)):
            raise ValueError(f"t={t:g} outside the solution window [0, {t_max:g}]")
        if t >= t_max:
            return h_end
        i = min(int(t / dt), n - 1)
        if i >= stop:
            return line(t)
        return _hermite(values[i], values[i + 1], derivs[i], derivs[i + 1], (t - i * dt) / dt, dt)

    def pair(i: int) -> tuple[float, float]:
        if i <= stop:
            return values[i], derivs[i]
        return line(t_max if i == n else i * dt), v

    require_finite_nodes(dt, n, pair)
    return Warping(value, v)
