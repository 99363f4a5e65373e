"""Low-level numerical kernels shared by the rest of the package.

Two independent pieces live here: adaptive Simpson quadrature on finite
and semi-infinite intervals, and a fixed-step RK4 integrator for the
warping initial value problem h'' = G(t) h.  The whole quadrature policy
is the tolerance pair TOL, the recursion limit MAX_DEPTH and, for
semi-infinite integrals, the radius where head and tail are split; a
caller may pass its own (abs_tol, rel_tol) pair and split, nothing else.
A semi-infinite integral also needs the integrand's declared tail power.
The IVP has no error control of its own: one RK4 sweep at the caller's
step, whose accuracy the tests pin against closed forms and
high-precision reference solutions.  Node tables are stdlib
``array("d")`` columns of Python floats; nothing here needs vector
arithmetic.  All routines are deterministic: the same inputs always
produce bitwise identical results.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable


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
    if math.isfinite(err) and abs(err) <= 15.0 * tol:
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
    versus one-panel Simpson values on each subinterval.

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
    if value != 0.0 and abs_tol > rel_tol * abs(value):
        value = run(rel_tol * abs(value))
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


def beta_function(a: float, b: float) -> float:
    """Euler beta integral B(a, b) for positive arguments."""
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def uniform_grid(t_max: float, n: int) -> array:
    """The n + 1 nodes i * (t_max / n), the last one set to t_max exactly."""
    dt = t_max / n
    grid = array("d", (i * dt for i in range(n)))
    grid.append(t_max)
    return grid


@dataclass(frozen=True)
class IvpSolution:
    """Dense output of the warping IVP on a uniform grid.

    The four columns are ``array("d")`` tables of equal length: values[i]
    and derivs[i] hold h and h' at grid[i], and seconds[i] holds
    h'' = G * h there.  Between nodes both h and h' are evaluated by cubic
    Hermite interpolation, which preserves the fourth-order accuracy of
    the RK4 sweep.
    """

    grid: array
    values: array
    derivs: array
    seconds: array
    step: float
    t_max: float

    def _locate(self, t: float) -> tuple[int, float]:
        if not (0.0 <= t <= self.t_max * (1.0 + 1e-12)):
            raise ValueError(f"t={t:g} outside the solution window [0, {self.t_max:g}]")
        i = min(int(t / self.step), len(self.grid) - 2)
        return i, (t - self.grid[i]) / self.step

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
        return self._hermite(
            self.derivs[i], self.derivs[i + 1], self.seconds[i], self.seconds[i + 1], s, self.step
        )


def solve_h_ivp(g: Callable[[float], float], t_max: float, step: float = 1e-3) -> IvpSolution:
    """Solve h'' = g(t) h with h(0) = 0, h'(0) = 1 on [0, t_max].

    Classic fixed-step RK4 on the first-order system (h, h'), one sweep
    with n = round(t_max/step) steps.  g is called 3n + 2 times: at each
    node and step midpoint during the sweep, and once more per node for
    the stored second derivatives.  There is no error estimate; the step
    is the accuracy control.

    Raises:
        OdeError: the state became non-finite (runaway curvature input).
        ValueError: non-positive step or window.
    """
    if not (t_max > 0.0) or not (step > 0.0):
        raise ValueError("t_max and step must be positive")
    n = max(1, round(t_max / step))
    dt = t_max / n
    h, v = 0.0, 1.0
    values = array("d", [h])
    derivs = array("d", [v])
    g_here = g(0.0)
    for i in range(n):
        t = i * dt
        g_mid = g(t + 0.5 * dt)
        g_next = g(t + dt)
        k1h, k1v = v, g_here * h
        k2h = v + 0.5 * dt * k1v
        k2v = g_mid * (h + 0.5 * dt * k1h)
        k3h = v + 0.5 * dt * k2v
        k3v = g_mid * (h + 0.5 * dt * k2h)
        k4h = v + dt * k3v
        k4v = g_next * (h + dt * k3h)
        h += dt / 6.0 * (k1h + 2.0 * k2h + 2.0 * k3h + k4h)
        v += dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (math.isfinite(h) and math.isfinite(v)):
            raise OdeError(f"warping solution became non-finite near t={t + dt:g}")
        values.append(h)
        derivs.append(v)
        g_here = g_next

    grid = uniform_grid(t_max, n)
    seconds = array("d", (g(t) * h for t, h in zip(grid, values)))
    return IvpSolution(
        grid=grid, values=values, derivs=derivs, seconds=seconds, step=dt, t_max=t_max
    )
