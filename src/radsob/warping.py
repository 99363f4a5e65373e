"""The ball volume of a curved model, by checked Gauss panels.

A warping is the pair (h, h'(t_max)): h as a function on the window
[0, t_max], with h(0) = 0 and h'(0) = 1, and the number from which a
model continues h past the window.  What lives here is read by the
curved models of `radsob.model_manifold` and by no flat run: the
integral from 0 of the area function a model hands over, summed by
checked Gauss panels (panel_volumes), which is its ball volume.  The
warpings themselves are elsewhere: a `rational:` model's in closed form
in `radsob.model_manifold`, a `const:` model's from the RK4 sweep of
`radsob.numerics`, and a `table:` model's from the Taylor series of
`radsob.table`.  The Gauss rule's policy is PANEL_REL_TOL and
PANEL_MAX_DEPTH.  All routines are deterministic: the same inputs always
produce bitwise identical results.
"""

import math
from typing import Callable

from . import QuadratureError


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
# Halving limit before the Gauss panel rule gives up with QuadratureError.
PANEL_MAX_DEPTH = 50


def _gauss(f, a, b):
    centre, radius = 0.5 * (a + b), 0.5 * (b - a)
    return radius * sum(w * f(centre + radius * x) for x, w in zip(GAUSS_NODES, GAUSS_WEIGHTS))


def _gauss_halves(f, a, b, whole, tol, depth):
    mid = 0.5 * (a + b)
    left, right = _gauss(f, a, mid), _gauss(f, mid, b)
    err = abs(left + right - whole)
    if err <= tol or not math.isfinite(left + right):
        return left + right
    if depth >= PANEL_MAX_DEPTH:
        raise QuadratureError(f"Gauss panel rule stalled on [{a:g}, {b:g}] (error {err:.3e})")
    half = _gauss_halves(f, a, mid, left, tol, depth + 1)
    return half + _gauss_halves(f, mid, b, right, tol, depth + 1)


def integrate_panel(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate a positive f over [a, b] by the 10-point Gauss rule on its
    halves, once their sum agrees with the rule on [a, b] to PANEL_REL_TOL
    of it; else each half is checked the same way against that tolerance,
    which a positive f cannot cancel, to PANEL_MAX_DEPTH levels
    (QuadratureError).  A sum that is not finite is returned as it is."""
    whole = _gauss(f, a, b)
    return _gauss_halves(f, a, b, whole, PANEL_REL_TOL * abs(whole), 0)


# A ball volume cuts its window into ceil(t_max / PANEL_WIDTH) panels, and
# a window wider than MAX_PANELS * PANEL_WIDTH into MAX_PANELS wider ones.
PANEL_WIDTH = 0.25
MAX_PANELS = 4096


def panel_volumes(area, t_max):
    """The function t -> integral of area over [0, t] on [0, t_max]: the
    ball volume, when area is a model's sphere area omega h^(m-1) over a
    warping h, which is the closed form of a `rational:` spec, analytic, a
    `table:` spec's series, analytic between its nodes, or the RK4 sweep's
    dense output, a cubic on each grid step below the sweep's stop and a
    line past it.  Whatever computed area, its k equal panels are set by
    t_max alone; integrate_panel takes each to rounding, and halves one
    where a table node, or the joins of the sweep's cubics, whose h''
    jumps, spoil the rule.  The panel sums are one running prefix at the
    panel edges, summed only as far as a lookup reads; a lookup in panel i
    adds the part [edge i, t] of its panel by the same rule."""
    # Capped before the ceiling: t_max / PANEL_WIDTH is inf past about 4.5e307.
    k = math.ceil(min(t_max / PANEL_WIDTH, MAX_PANELS))
    width = t_max / k
    vol = [0.0]

    def volume(t: float) -> float:
        i = min(int(t / width), k - 1)
        for j in range(len(vol), i + 1):
            vol.append(vol[-1] + integrate_panel(area, (j - 1) * width, j * width))
        return vol[i] if t == i * width else vol[i] + integrate_panel(area, i * width, t)

    return volume
