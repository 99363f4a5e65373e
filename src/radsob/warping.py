"""The warping of a curved model, and its ball volume.

A warping is the pair (h, h'(t_max)): h as a function on the window
[0, t_max], with h(0) = 0 and h'(0) = 1, and the number from which a
model continues h past the window.  Two pieces live here, both read by
the curved models of `radsob.model_manifold` and by no flat run: the
integral from 0 of the area function a model hands over, summed by
checked Gauss panels (panel_volumes), which is its ball volume; and a
piecewise Taylor series for the warping initial value problem
h'' = G(t) h, h(0) = 0, h'(0) = 1, which builds the models of `table:`
specs.  (A `rational:` model takes its warping in closed form, and a
`const:` model from the RK4 sweep of `radsob.numerics`.)  The Gauss
rule's policy is PANEL_REL_TOL and PANEL_MAX_DEPTH.  The series is summed
on each piece until its terms are rounding (SERIES_REL_TOL), and a piece
that does not get there within SERIES_MAX_TERMS terms fails its check.
A warping's finiteness is checked once, as it is built.  All routines are
deterministic: the same inputs always produce bitwise identical results.
"""

import math
import sys
from bisect import bisect_right
from typing import Callable

from . import OdeError, QuadratureError, SeriesError


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


def series_warping(pieces) -> tuple:
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
    correctly rounded sums of its terms, start the next.  Returns the
    warping (h, h'(t_max)).  A piece whose end is not finite, or whose
    terms sum past the float range, raises OdeError naming that end.
    """
    h, slope = 0.0, 1.0
    starts = []
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
        try:
            h = math.fsum(d)
            slope = math.fsum(k * c for k, c in enumerate(d)) / w
        except (OverflowError, ValueError):
            # fsum's partial sums passed the float range, or its terms
            # hold both infinities.
            h = slope = math.inf
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

    return value, slope
