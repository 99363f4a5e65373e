"""Volume rigidity bounds driven by the sharp Sobolev constant.

Given a model M and its Sobolev constant C_M, the user's, or K where
M's curvature profile has G >= 0, the machinery here assembles the
correction constants

    C2 = (m-1)^2 p/(m-p) * ((m-p)/(p-1))^(p-1) * beta^(-p^2/(m-p))
         * (e^b - 1) * e^(b(m-1)) / gamma,
    C3 = ((C_M/K)^p + C_M^p C2)^(m/p),
    C_hat = C3^(-1) e^(-b(m-1)),

and checks the resulting two-sided volume bound

    e^(mb) >= V(B_t)/V_euc(t) >= C_hat

on a radius grid, together with the monotone ratio profile whose limit
being nonnegative is the quantitative content of the rigidity statement.
The theorem has two cases.  At b = 0, max(G, 0) vanishes, so Ric >= 0
(Ledoux's statement), C2 = 0 and C_hat = (K/C_M)^m, and the same bound
is the Ledoux-Xia one, 1 >= V(B_t)/V_euc(t) >= (K/C_M)^m; b > 0 is the
asymptotically nonnegative one.  The curvature moment b of the model's
profile decides only which hypotheses apply and which volume the
certificate profile v compares against, so no caller chooses a case.
"""

import math
from typing import NamedTuple

from .sharp import SobolevParams, sharp_beta, sharp_constant


class RigidityHypothesisError(ValueError):
    """The model violates a hypothesis of the theorem."""


# Relative rise the certificate profile v may take per grid step and still
# count as non-increasing, and how far below zero its last value may end.
V_STEP_SLACK = 1e-9
V_LIMIT_SLACK = 1e-4
# Head share of the unit mass below which mass_escape_experiment counts a
# scale's mass as escaped.
ESCAPE_THRESHOLD = 0.01


def c2(params: SobolevParams, b: float, gamma_value: float) -> float:
    """Scale-free energy defect constant."""
    if b < 0.0 or not math.isfinite(b):
        raise ValueError("curvature moment b must be finite and >= 0")
    if not (gamma_value > 0.0):
        raise ValueError("volume ratio lower bound gamma must be positive")
    m, p = params.m, params.p
    if b == 0.0:
        return 0.0
    beta = sharp_beta(params)
    return (
        ((m - 1.0) ** 2 * p / (m - p))
        * ((m - p) / (p - 1.0)) ** (p - 1.0)
        * beta ** (-p * p / (m - p))
        * math.expm1(b)
        * math.exp(b * (m - 1.0))
        / gamma_value
    )


def c3(params: SobolevParams, c_m: float, k: float, c2_value: float) -> float:
    """Volume defect factor ((C_M/K)^p + C_M^p C2)^(m/p)."""
    if c_m < k * (1.0 - 1e-12):
        raise ValueError(
            f"C_M={c_m!r} is below the sharp constant K={k!r}; inconsistent input"
        )
    if c2_value < 0.0:
        raise ValueError("C2 must be >= 0")
    m, p = params.m, params.p
    return ((c_m / k) ** p + c_m**p * c2_value) ** (m / p)


def c_hat(c3_value: float, b: float, params: SobolevParams) -> float:
    """Volume ratio lower bound C3^(-1) e^(-b(m-1))."""
    if not (c3_value > 0.0):
        raise ValueError("C3 must be positive")
    return math.exp(-b * (params.m - 1.0)) / c3_value


class MassEscapeReport(NamedTuple):
    rows: tuple
    crossing: float | None

    @property
    def all_pass(self) -> bool:
        return self.crossing is not None


def mass_escape_experiment(
    params: SobolevParams,
    radius: float,
    lambda_grid,
) -> MassEscapeReport:
    """Distribution of profile mass inside and outside a fixed radius.

    Each row is (lam, head, tail, head + tail), the split of the unit
    p*-mass at radius by talenti.mass_split.  As the scale grows the head
    decays to zero (the mass wanders off to infinity), so the experiment
    locates the first scale where the head drops below ESCAPE_THRESHOLD by
    bisection between the bracketing grid scales.
    """
    from .talenti import mass_split

    lambdas = list(lambda_grid)
    if not lambdas or lambdas[0] < 10.0:
        raise ValueError("lambda_grid must start at 10 or above (the large-scale regime)")
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambda_grid must be strictly increasing")

    rows = []
    for lam in lambdas:
        head, tail = mass_split(params, lam, radius)
        rows.append((lam, head, tail, head + tail))

    below = [i for i, row in enumerate(rows) if row[1] <= ESCAPE_THRESHOLD]
    crossing = lambdas[below[0]] if below else None
    if below and below[0] > 0:
        lo, hi = lambdas[below[0] - 1], crossing
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            if mass_split(params, mid, radius)[0] <= ESCAPE_THRESHOLD:
                hi = mid
            else:
                lo = mid
            if hi / lo < 1.0 + 1e-9:
                break
        crossing = hi
    return MassEscapeReport(rows=tuple(rows), crossing=crossing)


class RigidityReport(NamedTuple):
    K: float
    C_M: float
    C_M_source: str
    b: float
    gamma: float
    gamma_source: str
    C2: float
    C3: float
    C_hat: float
    ratio_table: tuple
    v_profile: tuple
    verdict: str
    violation: dict | None


def verify_theorem(
    model,
    params: SobolevParams,
    t_grid,
    c_m: float | None,
    gamma_value: float | None,
    ratio_slack: float,
) -> RigidityReport:
    """Check e^(mb) >= V(B_t)/V_euc(t) >= C_hat on a radius grid.

    One bound pair at every curvature moment b; at b = 0 (C2 = 0,
    C3 = (C_M/K)^m) it is the Ledoux-Xia pair 1 >= V/V_euc >= (K/C_M)^m.
    Works out K and checks the hypotheses, cheap ones first: gamma_value
    positive and finite, the Euclidean volumes (model.euclidean_volume,
    which refuses a radius where that volume is not positive), and at
    b > 0 m >= 3 and a finite b, with b the moment of model.profile.  It
    then reads the volume ratios and, with c_m None, takes C_M = K (source
    "estimate"; otherwise "user"), which is certified only where the
    profile has G >= 0: otherwise c_m None raises ValueError.  gamma_value
    None means the volume ratio lower bound is the least ratio on the grid
    (source "empirical"); a user gamma above that ratio by more than
    ratio_slack is a hypothesis the grid disproves, and raises
    RigidityHypothesisError before C_M is taken.  A bound that could never
    fail raises ValueError: an infinite e^(mb) (upper_chain_factors, before
    C2 is computed) and a C_hat that is 0 in floating point.

    Each V(B_t) and each V_euc(t) is read once.  The certificate profile is
    v(t) = C3 e^(b(m-1)) V(B_t)/V_cmp(t) - 1, where V_cmp is V_euc at b = 0
    and the model's own ball volume at b > 0 (so v is constant there).  The
    verdict is "consistent" when every grid bound holds to ratio_slack, v is
    non-increasing within V_STEP_SLACK per step, and its final value stays
    above -V_LIMIT_SLACK.
    """
    from .model_manifold import upper_chain_factors

    m = params.m
    if model.m != m:
        raise ValueError(f"params dimension {m} does not match model dimension {model.m}")
    t_grid = sorted(t_grid)
    if not t_grid or t_grid[0] <= 0.0:
        raise ValueError("t_grid must contain positive increasing radii")

    k = sharp_constant(params)
    if gamma_value is not None and not (0.0 < gamma_value < math.inf):
        raise ValueError(
            f"volume ratio lower bound gamma must be positive and finite, got {gamma_value!r}"
        )
    euclidean = [model.euclidean_volume(t) for t in t_grid]
    # b = 0 is Ledoux's Ric >= 0 case: max(G, 0) vanishes, so the radial
    # Ricci curvature -(m-1) G is >= 0 on all of [0, inf), not just at grid
    # radii, and a scan of it could fail on no profile.  b > 0 is the
    # asymptotically nonnegative case.
    b = model.profile.b
    if b != 0.0:
        if model.m < 3:
            raise RigidityHypothesisError(
                f"a positive curvature moment (b={b:g}) requires dimension m >= 3"
            )
        if not math.isfinite(b):
            raise RigidityHypothesisError(
                "the theorem requires a finite curvature moment; this profile has b = inf"
            )
    volumes = [model.volume(t) for t in t_grid]
    ratios = [v / e for v, e in zip(volumes, euclidean)]
    least = min(ratios)
    if gamma_value is not None and gamma_value > least * (1.0 + ratio_slack):
        raise RigidityHypothesisError(
            f"gamma={gamma_value:g} exceeds the least volume ratio {least:.12g} on the grid, "
            "so the hypothesis V(B_t)/V_euc(t) >= gamma fails"
        )
    gamma_used = least if gamma_value is None else gamma_value
    gamma_source = "empirical" if gamma_value is None else "user"
    c_m_source = "estimate" if c_m is None else "user"
    if c_m is None:
        # G >= 0 gives h' >= 1, so centred balls beat the Euclidean
        # isoperimetric ratio and no radial witness beats K.  Where G < 0,
        # as on a Ric >= 0 cone, C_M may be larger: K theta^(-1/m) there.
        if not model.profile.nonnegative:
            raise ValueError("K certifies C_M only where G >= 0; pass c_m")
        c_m = k

    upper = upper_chain_factors(b, m)[1]
    c2_value = c2(params, b, gamma_used)
    try:
        c3_value = c3(params, c_m, k, c2_value)
    except OverflowError:
        c3_value = math.inf
    lower = c_hat(c3_value, b, params)
    if lower == 0.0:
        raise ValueError(f"the lower bound C_hat is 0 at b={b:g}; the check cannot fail")

    ratio_table = tuple(
        (float(t), ratio, lower, upper,
         lower * (1.0 - ratio_slack) <= ratio <= upper * (1.0 + ratio_slack))
        for t, ratio in zip(t_grid, ratios)
    )
    scale = c3_value * math.exp(b * (m - 1.0))
    comparison = euclidean if b == 0.0 else volumes
    v_rows = tuple(
        (float(t), scale * v / v_cmp - 1.0) for t, v, v_cmp in zip(t_grid, volumes, comparison)
    )
    values = [v for _, v in v_rows]

    failed = [row for row in ratio_table if not row[4]]
    violation = None
    if failed:
        t, ratio = failed[0][:2]
        violation = {"check": "volume_ratio_bounds", "t": t, "ratio": ratio,
                     "lower": lower, "upper": upper}
    elif not all(
        later <= earlier + V_STEP_SLACK * max(1.0, abs(earlier))
        for earlier, later in zip(values, values[1:])
    ):
        violation = {"check": "v_profile_monotone"}
    elif values[-1] < -V_LIMIT_SLACK:
        violation = {"check": "v_profile_limit", "v_last": values[-1]}

    return RigidityReport(
        K=k,
        C_M=c_m,
        C_M_source=c_m_source,
        b=b,
        gamma=gamma_used,
        gamma_source=gamma_source,
        C2=c2_value,
        C3=c3_value,
        C_hat=lower,
        ratio_table=ratio_table,
        v_profile=v_rows,
        verdict="consistent" if violation is None else "violated",
        violation=violation,
    )
