"""The curvature of a `table:` spec, and its warping's Taylor series.

Everything only a `table:` spec runs lives here, so that no other run
compiles it: Tabulated, the piecewise-linear G of a table with a
declared power-law tail, load_tabulated, which reads it from a file, and
the piecewise Taylor series of the warping initial value problem
h'' = G(t) h, h(0) = 0, h'(0) = 1 that builds its model
(series_warping).  `radsob.model_manifold` imports this module in the
`table:` branch of parse_curvature.  The series is summed on each piece
until its terms are rounding (SERIES_REL_TOL), and a piece that does not
get there within SERIES_MAX_TERMS terms fails its check.  A warping's
finiteness is checked once, as it is built.  All routines are
deterministic: the same inputs always produce bitwise identical results.
"""

import math
import os
import sys
from array import array
from bisect import bisect_right

from . import OdeError, SeriesError
from .model_manifold import CurvatureProfile


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
        self.slopes = array(
            "d",
            ((v1 - v0) / (t1 - t0) for t0, t1, v0, v1 in zip(grid, grid[1:], values, values[1:])),
        )

    def g(self, t: float) -> float:
        grid = self.grid
        # The grid strictly increases, so at most one end branch holds;
        # the tail, where most radii of a window fall, is tested first.
        if t >= grid[-1]:
            return self.values[-1] * (grid[-1] / t) ** self.tail_power
        if t <= grid[0]:
            return self.values[0]
        # grid[j] <= t < grid[j + 1]
        j = bisect_right(grid, t) - 1
        return self.slopes[j] * (t - grid[j]) + self.values[j]

    def warping(self, t_max: float, step: float) -> tuple:
        """h as a piecewise Taylor series (series_warping), with no
        sweep.  G is constant on [0, grid[0]] and linear between nodes, so
        about t0 its series is the node value, or the chord's value at t0,
        and the chord slope; past the last node it is v (t_last/t)^q, whose
        binomial series about t0 has g_j = g_(j-1) (-q - j + 1)/(j t0) and
        converges for |s| < t0.  Every node and t_max is a piece end, and a
        piece is at most series_width(g0, g1) wide, and t0/4 on a curved
        tail, so the terms of its series fall at least like 4^-k.

        Raises:
            SeriesError: a piece would be narrower than the float spacing
                at its start, or its series did not converge.
            OdeError: h or h' is not finite at a piece end.
        """
        grid, values, slopes, q = self.grid, self.values, self.slopes, self.tail_power
        t_last, v_last = grid[-1], values[-1]
        pieces = []
        t0 = 0.0
        for end in [t for t in grid if 0.0 < t < t_max] + [t_max]:
            while t0 < end:
                tail = t0 >= t_last
                if tail:
                    g0 = v_last * (t_last / t0) ** q
                    g1 = -q * g0 / t0
                    width = min(series_width(g0, g1), 0.25 * t0 if v_last else math.inf)
                else:
                    j = bisect_right(grid, t0) - 1  # -1 below grid[0]
                    g0, g1 = (values[0], 0.0) if j < 0 else (
                        values[j] + slopes[j] * (t0 - grid[j]), slopes[j])
                    width = series_width(g0, g1)
                t1 = end if t0 + width >= end else t0 + width
                if t1 == t0:
                    raise SeriesError(f"the warping's Taylor series needs pieces narrower "
                                      f"than the float spacing at t={t0:g}")
                gs = [g0, g1 * (t1 - t0)]
                if tail:
                    ratio = (t1 - t0) / t0
                    for j in range(2, SERIES_MAX_TERMS):
                        gs.append(gs[-1] * (-q - j + 1.0) * ratio / j)
                pieces.append((t0, t1, gs))
                t0 = t1
        return series_warping(pieces)

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


def load_tabulated(path: str | os.PathLike) -> Tabulated:
    """Read a tabulated profile from a two-column text file.

    Rows hold "t value" pairs; a directive line "# tail_power=<q>" declares
    the tail decay exponent and is required.
    """
    grid, values = [], []
    tail_power = None
    with open(path) as fh:
        text = fh.read()
    for raw in text.splitlines():
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
