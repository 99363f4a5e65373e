"""Low-level numerical kernels shared by the rest of the package.

Two independent pieces live here: adaptive Simpson quadrature on finite
and semi-infinite intervals, and a fixed-step RK4 integrator for the
warping initial value problem h'' = G(t) h.  The whole quadrature policy
is the tolerance pair TOL, the recursion limit MAX_DEPTH, the per-panel
rounding floor ROUNDING_FACTOR and, for semi-infinite integrals, the
radius where head and tail are split; a caller may pass its own
(abs_tol, rel_tol) pair and split, nothing else.  A semi-infinite
integral also needs the integrand's declared tail power.
The IVP has no error control of its own: one RK4 sweep at the caller's
step, whose accuracy the tests pin against closed forms and
high-precision reference solutions.  Its output is two stdlib
``array("d")`` columns, h and h' at the nodes; the nodes themselves are
not stored, since node i is i * step and the last one is t_max.  The
sweep checks finiteness once, after its last step.  Nothing here needs
vector arithmetic.  All routines are deterministic: the same inputs
always produce bitwise identical results.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import Callable, NamedTuple


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not meet the requested tolerance."""


class OdeError(RuntimeError):
    """The IVP integrator produced a non-finite state."""


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


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth, max_depth):
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
    if depth >= max_depth:
        raise QuadratureError(
            f"adaptive Simpson stalled on [{a:g}, {b:g}] at depth {depth} "
            f"(local error {abs(err):.3e}, local tolerance {tol:.3e})"
        )
    half = 0.5 * tol
    return _adaptive(f, a, mid, fa, flm, fm, left, half, depth + 1, max_depth) + _adaptive(
        f, mid, b, fm, frm, fb, right, half, depth + 1, max_depth
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
        return _adaptive(f, a, mid, fa, flm, fm, left, half, 1, MAX_DEPTH) + _adaptive(
            f, mid, b, fm, frm, fb, right, half, 1, MAX_DEPTH
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
    split: float = 1.0,
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


def uniform_grid(t_max: float, n: int) -> array:
    """The n + 1 nodes i * (t_max / n), the last one set to t_max exactly."""
    dt = t_max / n
    grid = array("d", (i * dt for i in range(n)))
    grid.append(t_max)
    return grid


class IvpSolution(NamedTuple):
    """Dense output of the warping IVP on a uniform grid.

    The two columns are ``array("d")`` tables of n + 1 entries: values[i]
    and derivs[i] hold h and h' at node i, which is i * step for i < n and
    t_max itself for i = n.  Between nodes both h and h' are evaluated by
    cubic Hermite interpolation, which preserves the fourth-order accuracy
    of the RK4 sweep; the slope of h' there is h'' = g * h, taken from the
    curvature g at the two bracketing nodes.
    """

    values: array
    derivs: array
    g: Callable[[float], float]
    step: float
    t_max: float

    def _locate(self, t: float) -> tuple[int, float]:
        if not (0.0 <= t <= self.t_max * (1.0 + 1e-12)):
            raise ValueError(f"t={t:g} outside the solution window [0, {self.t_max:g}]")
        i = min(int(t / self.step), len(self.values) - 2)
        return i, (t - i * self.step) / self.step

    @staticmethod
    def _hermite(y0, y1, d0, d1, s, width):
        s2 = s * s
        s3 = s2 * s
        return (
            y0 * (2.0 * s3 - 3.0 * s2 + 1.0)
            + y1 * (3.0 * s2 - 2.0 * s3)
            + width * (d0 * (s3 - 2.0 * s2 + s) + d1 * (s3 - s2))
        )

    def value(self, t: float) -> float:
        i, s = self._locate(t)
        return self._hermite(
            self.values[i], self.values[i + 1], self.derivs[i], self.derivs[i + 1], s, self.step
        )

    def deriv(self, t: float) -> float:
        i, s = self._locate(t)
        values, g, step = self.values, self.g, self.step
        # Node i + 1 is t_max itself when it is the last one.
        t_next = self.t_max if i + 2 == len(values) else (i + 1) * step
        return self._hermite(
            self.derivs[i],
            self.derivs[i + 1],
            g(i * step) * values[i],
            g(t_next) * values[i + 1],
            s,
            step,
        )


def solve_h_ivp(g: Callable[[float], float], t_max: float, step: float) -> IvpSolution:
    """Solve h'' = g(t) h with h(0) = 0, h'(0) = 1 on [0, t_max].

    Classic fixed-step RK4 on the first-order system (h, h'), one sweep
    with n = round(t_max/step) steps of t_max/n.  g is called 2n + 1
    times, at each node and step midpoint; the solution keeps g and reads
    h'' = g * h at two nodes per h' lookup instead of tabulating it.  There
    is no error estimate; the step is the accuracy control.  Finiteness is
    checked once, after the sweep: an RK4 step of this linear system keeps
    a non-finite h or h' non-finite, so the first non-finite node is the
    one where the state blew up.

    Raises:
        OdeError: the state became non-finite (runaway curvature input).
        ValueError: non-positive step or window.
    """
    if not (t_max > 0.0) or not (step > 0.0):
        raise ValueError("t_max and step must be positive")
    n = max(1, round(t_max / step))
    dt = t_max / n
    half = 0.5 * dt
    sixth = dt / 6.0
    h, v = 0.0, 1.0
    values = array("d", [h])
    derivs = array("d", [v])
    add_value, add_deriv = values.append, derivs.append
    g_here = g(0.0)
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
    if not (math.isfinite(h) and math.isfinite(v)):
        i = next(
            i for i in range(n + 1) if not (math.isfinite(values[i]) and math.isfinite(derivs[i]))
        )
        # Node i ends the step that starts at (i - 1) * dt.
        raise OdeError(f"warping solution became non-finite near t={(i - 1) * dt + dt:g}")

    return IvpSolution(values=values, derivs=derivs, g=g, step=dt, t_max=t_max)
