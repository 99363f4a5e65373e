"""Low-level numerical kernels shared by the rest of the package.

Two independent pieces live here: adaptive Simpson quadrature on finite
and semi-infinite intervals, and a fixed-step RK4 integrator for the
warping initial value problem h'' = G(t) h, which builds the models of
`const:` and `table:` specs (a `rational:` model takes its warping in
closed form, so no sweep runs for it).  The whole quadrature policy
is the tolerance pair TOL, the recursion limit MAX_DEPTH, the per-panel
rounding floor ROUNDING_FACTOR; a caller may pass its own (abs_tol,
rel_tol) pair, nothing else.  A semi-infinite integral also needs the
radius where head and tail are split and the integrand's declared tail
power.
The IVP has no error control of its own: one RK4 sweep at the caller's
step, whose accuracy the tests pin against closed forms and
high-precision reference solutions.  Its output is a Warping, the one
shape of every warping, closed forms included: the grid step and count,
the (h, h') pairs at the nodes, drawn on demand, and h and h' as
functions.  The sweep keeps its nodes as stdlib ``array("d")`` columns,
which its dense output reads; a closed form keeps no column.  grid_steps
caps a grid at MAX_GRID_STEPS steps.  A warping's finiteness is checked
once, as it is built (require_finite_nodes).  Nothing here needs vector
arithmetic.  All routines are deterministic: the same inputs always
produce bitwise identical results.  Every error that fails a check
rather than refusing an input derives from CheckFailed.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import Callable, Iterator, NamedTuple


class CheckFailed(RuntimeError):
    """A computation that had to certify its result could not: exit code 1."""


class QuadratureError(CheckFailed):
    """Adaptive quadrature could not meet the requested tolerance."""


class OdeError(CheckFailed):
    """The warping h, or h', is not finite from the node at radius t on."""

    def __init__(self, t: float):
        super().__init__(f"warping solution became non-finite near t={t:g}")


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


# Most steps of a warping grid: its two float columns take 160 MB at the cap.
MAX_GRID_STEPS = 10_000_000


def grid_steps(t_max: float, step: float) -> int:
    """The number n = round(t_max / step), at least 1, of uniform steps of
    a warping grid; the steps themselves are t_max / n (Warping).

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
    """A warping h with h(0) = 0, h'(0) = 1 on the window [0, t_max].

    The grid convention of every warping: n = grid_steps(t_max, step)
    uniform steps of `step` = t_max / n; node i is at i * step, and the
    last node, i = n, is t_max itself, whatever n * step rounds to.
    nodes(start, stop) iterates over the (h, h') pairs of the nodes start
    to stop - 1, each read or computed only when it is drawn; value and
    deriv are h and h' as functions on the window.
    """

    step: float
    n: int
    nodes: Callable[[int, int], Iterator[tuple[float, float]]]
    value: Callable[[float], float]
    deriv: Callable[[float], float]


def require_finite_nodes(warping: Warping) -> Warping:
    """Return warping if h and h' are finite at every node; else raise
    OdeError at the first node i * step where one of them is not.

    Only node n is drawn when it is finite: the callers' nodes never turn
    finite again, as in an RK4 sweep of this linear system, or in a closed
    form whose h and h' grow with t.  A closed form raises OdeError itself
    at a node it cannot compute (an overflow); the scan from node 0 then
    raises that at its first such node, even past a node that is only not
    finite.
    """
    step, n, nodes = warping[:3]
    try:
        if all(map(math.isfinite, next(nodes(n, n + 1)))):
            return warping
    except OdeError:
        pass
    first = None
    for i, pair in enumerate(nodes(0, n + 1)):
        if first is None and not all(map(math.isfinite, pair)):
            first = i
    raise OdeError(first * step)


def _hermite(y0, y1, d0, d1, s, width):
    s2 = s * s
    s3 = s2 * s
    return (
        y0 * (2.0 * s3 - 3.0 * s2 + 1.0)
        + y1 * (3.0 * s2 - 2.0 * s3)
        + width * (d0 * (s3 - 2.0 * s2 + s) + d1 * (s3 - s2))
    )


def solve_h_ivp(g: Callable[[float], float], t_max: float, step: float) -> Warping:
    """Solve h'' = g(t) h with h(0) = 0, h'(0) = 1 on [0, t_max].

    Classic fixed-step RK4 on the first-order system (h, h'), one sweep
    over the Warping grid; g is called 2n + 1 times, at each node and step
    midpoint.  Between nodes h and h' are cubic Hermite interpolants, which
    keep the sweep's fourth order; each h' lookup below t_max reads its
    end slopes h'' = g * h from g at the cell's two nodes.  A lookup at
    t_max (or within the window's 1e-12 slack past it) returns the last
    node's h and h' exactly, with no curvature call, and one outside the
    window raises ValueError.  There is no error estimate; the step is the
    accuracy control.  The record's nodes are slices of the sweep's two
    node columns, which the dense output reads too.  Finiteness is checked
    once, after the sweep (require_finite_nodes): an RK4 step of this
    linear system keeps a non-finite h or h' non-finite, so the first
    non-finite node is the one where the state blew up.  The models of
    `const:` and `table:` specs come from this sweep; a `rational:` model
    is built from its closed form (model_manifold.RationalDecay.warping)
    instead.

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

    def nodes(start: int, stop: int) -> Iterator[tuple[float, float]]:
        return zip(values[start:stop], derivs[start:stop])

    def cell(t: float) -> tuple[int, float]:
        if not (0.0 <= t <= t_max * (1.0 + 1e-12)):
            raise ValueError(f"t={t:g} outside the solution window [0, {t_max:g}]")
        if t >= t_max:
            return n - 1, 1.0
        i = min(int(t / dt), n - 1)
        return i, (t - i * dt) / dt

    def value(t: float) -> float:
        i, s = cell(t)
        return _hermite(values[i], values[i + 1], derivs[i], derivs[i + 1], s, dt)

    def deriv(t: float) -> float:
        i, s = cell(t)
        if t >= t_max:
            # s = 1: the Hermite weights give the end slopes no part.
            return derivs[n]
        t_next = t_max if i == n - 1 else (i + 1) * dt
        return _hermite(
            derivs[i], derivs[i + 1], g(i * dt) * values[i], g(t_next) * values[i + 1], s, dt
        )

    return require_finite_nodes(Warping(dt, n, nodes, value, deriv))
