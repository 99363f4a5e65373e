"""Adaptive Simpson quadrature and the RK4 sweep of the warping IVP.

Two independent pieces live here: adaptive Simpson quadrature, finite
and semi-infinite, and a fixed-step RK4 sweep of the warping initial
value problem h'' = G(t) h, h(0) = 0, h'(0) = 1, which builds the models
of `const:` specs.  Only the constants self-test, the Sobolev functionals
and a `const:` model's warping call them; `talenti` and `model_manifold`
import this module inside those functions, so no other run compiles it.
The warpings of the other curved models are in `radsob.model_manifold`
(closed form) and `radsob.table` (Taylor series), and every ball volume
is in `radsob.warping`.  The whole Simpson policy is the tolerance pair TOL,
the recursion limit MAX_DEPTH, the per-panel rounding floor
ROUNDING_FACTOR; a caller may pass its own (abs_tol, rel_tol) pair,
nothing else.  A semi-infinite integral also needs the radius where head
and tail are split and the integrand's declared tail power.  The RK4
sweep has no error control of its own: the caller's step is its
accuracy, which the tests pin against closed forms and high-precision
reference solutions, and it stops where G has vanished for good, past
which h is a line.  It returns the warping (h, h'(t_max)).  Only the
sweep has a grid (grid_steps), whose nodes its dense output reads from
stdlib ``array("d")`` columns.  Nothing here needs vector arithmetic.
All routines are deterministic: the same inputs always produce bitwise
identical results.  Their check failures, QuadratureError and OdeError,
are the package's.
"""

import math
import sys
from array import array
from typing import Callable

from . import OdeError, QuadratureError


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


def require_finite_nodes(step: float, n: int, pair: Callable[[int], tuple]) -> None:
    """Raise OdeError at the first node i * step of the RK4 sweep where h or
    h' is not finite; pair(i) is node i's (h, h'), and when node n is
    finite it is the only one read (solve_h_ivp says why)."""
    if all(map(math.isfinite, pair(n))):
        return
    raise OdeError(next(i for i in range(n + 1) if not all(map(math.isfinite, pair(i)))) * step)


def _hermite(y0, y1, d0, d1, s, width):
    s2 = s * s
    s3 = s2 * s
    return (
        y0 * (2.0 * s3 - 3.0 * s2 + 1.0)
        + y1 * (3.0 * s2 - 2.0 * s3)
        + width * (d0 * (s3 - 2.0 * s2 + s) + d1 * (s3 - s2))
    )


def solve_h_ivp(g: Callable[[float], float], t_max: float, step: float,
                flat_from: float) -> tuple:
    """Solve h'' = g(t) h with h(0) = 0, h'(0) = 1 on [0, t_max], where g
    is 0 at every t > flat_from (math.inf if it never vanishes for good).

    Classic fixed-step RK4 on the first-order system (h, h'), one sweep
    over the grid_steps grid, which stops at the first node J whose step
    reads g past flat_from only: from there on every RK4 step, and the
    dense output, draw the line h_J + (t - t_J) h'_J, exact up to rounding.
    g is called 2J + 1 times, at each node and step midpoint up to node J.
    Between nodes h is the cubic Hermite interpolant of the nodes' h and
    h', which keeps the sweep's fourth order.  Returns the warping: that h
    and h' at the last node.  A lookup at t_max (or within the window's
    1e-12 slack past it) returns the last node's h exactly, and one
    outside the window raises ValueError.  There is no error estimate; the
    step is the accuracy control, of h and so of the ball volume, which
    panel_volumes takes exactly over this h, and it reaches no other code.
    Finiteness is checked once, after the sweep (require_finite_nodes): an
    RK4 step of this linear system keeps a non-finite h or h' non-finite,
    and the line grows with t, so the first non-finite node is the one
    where the state blew up.  The models of `const:` specs come from this
    sweep.

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
    return value, v
