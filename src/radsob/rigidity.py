"""Volume rigidity bounds driven by the sharp Sobolev constant.

Given a model M whose Sobolev constant C_M is known or estimated, the
machinery here assembles the correction constants

    C2 = (m-1)^2 p/(m-p) * ((m-p)/(p-1))^(p-1) * beta^(-p^2/(m-p))
         * (e^b - 1) * e^(b(m-1)) / gamma,
    C3 = ((C_M/K)^p + C_M^p C2)^(m/p),
    C_hat = C3^(-1) e^(-b(m-1)),

and checks the resulting two-sided volume bounds

    b = 0 (Ledoux-Xia, Ric >= 0):   1 >= V(B_t)/V_euc(t) >= (K/C_M)^m,
    b > 0 (finite moment):          e^(mb) >= V(B_t)/V_euc(t) >= C_hat,

on a radius grid, together with the monotone ratio profile whose limit
being nonnegative is the quantitative content of the rigidity statement.
Both are one theorem: the curvature moment b of the model decides which
bounds apply, so no caller chooses a case.  C1 is the sharper
scale-dependent predecessor of C2; evaluating both and checking C1 <= C2
exercises the closed Gamma-form evaluations of the Euclidean weight
integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model_manifold import ModelManifold
from .numerics import beta_function, integrate_finite, integrate_semi_infinite
from .sobolev import estimate_radial_constant, manifold_integral
from .talenti import SobolevParams, TalentiProfile, cached_beta, profile_split, sharp_constant
from .talenti import sphere_area, unit_ball_volume


class RigidityHypothesisError(ValueError):
    """The model violates a hypothesis of the theorem."""


# Relative rise the certificate profile v may take per grid step and still
# count as non-increasing, and how far below zero its last value may end.
V_STEP_SLACK = 1e-9
V_LIMIT_SLACK = 1e-4


def gamma_lower_bound(model: ModelManifold, t_grid) -> float:
    """Infimum over the grid of the volume ratio V(B_t) / V_euc(t)."""
    om = unit_ball_volume(model.m)
    ratios = [float(model.volume(t)) / (om * t**model.m) for t in t_grid if t > 0.0]
    if not ratios:
        raise ValueError("t_grid must contain positive radii")
    return min(ratios)


def euclidean_weight_integral(
    params: SobolevParams,
    lam: float,
    order: int,
    method: str = "gamma",
) -> float:
    """integral over flat R^m of (lam + r^conj)^(-order) dvol.

    With a = m - m/p the closed evaluation is

        sphere_area * ((p-1)/p) * lam^(a - order) * B(a, order - a),

    valid for order > a; the orders m-1 and m are the two appearing in
    the C1 numerator and denominator.  method="quad" recomputes the same
    quantity by adaptive quadrature for cross-checking.
    """
    m, p = params.m, params.p
    q = params.conj
    a = m - m / p
    if order <= a:
        raise ValueError(f"order must exceed m - m/p = {a:g} for convergence")
    if method == "gamma":
        return (
            sphere_area(m)
            * ((p - 1.0) / p)
            * lam ** (a - order)
            * beta_function(a, order - a)
        )
    if method == "quad":
        decay = q * order - (m - 1.0)

        def f(t: float) -> float:
            return t ** (m - 1) / (lam + t**q) ** order

        return sphere_area(m) * integrate_semi_infinite(
            f, profile_split(params, lam), decay_power=decay
        )
    raise ValueError(f"unknown method {method!r}; use 'gamma' or 'quad'")


def c1(params: SobolevParams, lam: float, b: float, model: ModelManifold) -> float:
    """Scale-dependent energy defect constant at witness scale lam.

    C1 multiplies (e^b - 1) by the ratio of two weighted volume integrals
    of the model; it vanishes identically in the flat case and is bounded
    above by C2 uniformly in lam.
    """
    if b < 0.0 or not math.isfinite(b):
        raise ValueError("curvature moment b must be finite and >= 0")
    if b == 0.0:
        return 0.0
    m, p = params.m, params.p
    q = params.conj
    split = profile_split(params, lam)
    num = manifold_integral(
        lambda t: (lam + t**q) ** (-(m - 1)), model, q * (m - 1) - (m - 1.0), split
    )
    den = manifold_integral(lambda t: (lam + t**q) ** (-m), model, q * m - (m - 1.0), split)
    beta = cached_beta(params)
    return (
        (m - 1.0)
        * ((m - p) / (p - 1.0)) ** (p - 1.0)
        * beta ** (-p * p / (m - p))
        * math.expm1(b)
        * num
        / (lam * den)
    )


def c2(params: SobolevParams, b: float, gamma_value: float) -> float:
    """Scale-free energy defect constant; dominates c1 at every scale."""
    if b < 0.0 or not math.isfinite(b):
        raise ValueError("curvature moment b must be finite and >= 0")
    if not (gamma_value > 0.0):
        raise ValueError("volume ratio lower bound gamma must be positive")
    m, p = params.m, params.p
    if b == 0.0:
        return 0.0
    beta = cached_beta(params)
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


@dataclass(frozen=True)
class VProfileReport:
    rows: tuple
    non_increasing: bool
    scale: float

    @property
    def last(self) -> float:
        return self.rows[-1][1]


def _moment(model: ModelManifold) -> float:
    """Curvature moment b of the model; a model without a profile has b = 0."""
    return model.profile.b if model.profile is not None else 0.0


def v_profile(model: ModelManifold, scale: float, t_grid) -> VProfileReport:
    """Monotone certificate profile v(t) = scale * V(B_t)/V_b(t) - 1.

    V_b is the ball volume of the model space of the model's own curvature
    moment b: flat space at b = 0, and at b > 0 the model itself, where v
    is therefore the constant scale - 1.  The report records whether v is
    non-increasing along the grid within the per-step slack V_STEP_SLACK;
    the rigidity conclusion is v(t) staying >= 0 up to the window edge.
    """
    om = unit_ball_volume(model.m)
    flat = _moment(model) == 0.0
    rows = []
    for t in t_grid:
        if not (t > 0.0):
            raise ValueError("v profile needs positive radii")
        denom = om * t**model.m if flat else model.volume(t)
        rows.append((float(t), float(scale * model.volume(t) / denom - 1.0)))
    values = [v for _, v in rows]
    ok = all(
        later <= earlier + V_STEP_SLACK * max(1.0, abs(earlier))
        for earlier, later in zip(values, values[1:])
    )
    return VProfileReport(rows=tuple(rows), non_increasing=ok, scale=scale)


@dataclass(frozen=True)
class MassEscapeReport:
    rows: tuple
    threshold: float
    radius: float
    crossing: float | None
    heads_monotone: bool
    totals_ok: bool

    @property
    def all_pass(self) -> bool:
        return self.heads_monotone and self.totals_ok and self.crossing is not None


def mass_escape_experiment(
    params: SobolevParams,
    radius: float,
    lambda_grid,
    threshold: float = 0.01,
) -> MassEscapeReport:
    """Distribution of profile mass inside and outside a fixed radius.

    For each scale the p*-mass density integrates to one; the head is the
    share inside [0, radius].  As the scale grows the head decays to zero
    (the mass wanders off to infinity), so the experiment records the
    head/tail table, checks heads are nonincreasing and head+tail = 1,
    and locates the first scale where the head drops below the threshold
    by bisection between the bracketing grid scales.
    """
    lambdas = list(lambda_grid)
    if not lambdas or lambdas[0] < 10.0:
        raise ValueError("lambda_grid must start at 10 or above (the large-scale regime)")
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambda_grid must be strictly increasing")
    m, p = params.m, params.p
    q = params.conj
    tail_decay = q * (m + 1) - m - 1.0 / (p - 1.0)
    profile0 = TalentiProfile.build(params, 1.0)

    def head_at(lam: float) -> float:
        return integrate_finite(profile0.with_lam(lam).density, 0.0, radius)

    rows = []
    for lam in lambdas:
        head = head_at(lam)
        tail = integrate_semi_infinite(
            profile0.with_lam(lam).density,
            max(1.0, radius, lam ** (1.0 / q)),
            start=radius,
            decay_power=tail_decay,
        )
        rows.append((lam, head, tail, head + tail))

    heads = [r[1] for r in rows]
    heads_monotone = all(b <= a * (1.0 + 1e-9) + 1e-15 for a, b in zip(heads, heads[1:]))
    totals_ok = all(abs(r[3] - 1.0) <= 1e-6 for r in rows)

    crossing = None
    below = [i for i, h in enumerate(heads) if h <= threshold]
    if below:
        i = below[0]
        if i == 0:
            crossing = lambdas[0]
        else:
            lo, hi = lambdas[i - 1], lambdas[i]
            for _ in range(60):
                mid = math.sqrt(lo * hi)
                if head_at(mid) <= threshold:
                    hi = mid
                else:
                    lo = mid
                if hi / lo < 1.0 + 1e-9:
                    break
            crossing = hi
    return MassEscapeReport(
        rows=tuple(rows),
        threshold=threshold,
        radius=radius,
        crossing=crossing,
        heads_monotone=heads_monotone,
        totals_ok=totals_ok,
    )


def estimated_c_m(model: ModelManifold, params: SobolevParams) -> float:
    """C_M from radial witnesses combined with the universal bound C_M >= K.

    K bounds every C_M from below (local Euclidean concentration), so the
    value is the larger of K and the estimate_radial_constant witness
    estimate, which on a curvature-profile model is K: no search runs.
    """
    k = sharp_constant(params)
    if model.profile is not None:
        # G >= 0 gives h' >= 1, so centred balls beat the Euclidean
        # isoperimetric ratio and no radial witness beats K.  Admitting
        # G < 0 (the Ric >= 0 models of ROADMAP item 4) has to revisit this.
        return k
    return max(estimate_radial_constant(model, params).c_est, k)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


@dataclass(frozen=True)
class RigidityReport:
    params: SobolevParams
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
    v_profile: VProfileReport
    verdict: str
    violation: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "params": {"m": self.params.m, "p": self.params.p, "p_star": self.params.p_star},
            "K": self.K,
            "C_M": self.C_M,
            "C_M_source": self.C_M_source,
            "b": self.b,
            "gamma": self.gamma,
            "gamma_source": self.gamma_source,
            "C2": self.C2,
            "C3": self.C3,
            "C_hat": self.C_hat,
            "ratio_table": [
                {"t": t, "ratio": r, "lower": lo, "upper": up, "pass": ok}
                for (t, r, lo, up, ok) in self.ratio_table
            ],
            "v_profile": [{"t": t, "v": v} for (t, v) in self.v_profile.rows],
            "verdict": self.verdict,
            "violation": self.violation,
        }

    def to_csv_lines(self) -> list:
        lines = [
            f"# m={self.params.m} p={_fmt(self.params.p)} p_star={_fmt(self.params.p_star)}",
            f"# K={_fmt(self.K)} C_M={_fmt(self.C_M)} C_M_source={self.C_M_source}",
            f"# b={_fmt(self.b)} gamma={_fmt(self.gamma)} gamma_source={self.gamma_source}",
            f"# C2={_fmt(self.C2)} C3={_fmt(self.C3)} C_hat={_fmt(self.C_hat)}",
            f"# verdict={self.verdict}",
            "t,ratio,lower,upper,pass",
        ]
        for t, r, lo, up, ok in self.ratio_table:
            lines.append(",".join([_fmt(t), _fmt(r), _fmt(lo), _fmt(up), _fmt(ok)]))
        return lines


def check_hypotheses(model: ModelManifold, t_grid, gamma_value: float | None = None) -> float:
    """Refuse a model or gamma outside the theorem's hypotheses; return b.

    b is the model's curvature moment (0 without a profile) and selects the
    case: b = 0 needs nonnegative radial Ricci curvature on the grid, b > 0
    needs m >= 3 and a finite b.  Also refuses a radius whose Euclidean
    ball volume is not positive (t^m underflows for tiny t), since every
    volume ratio divides by it.  Cheap, so verify_theorem runs it before the
    witness search.
    """
    if gamma_value is not None and not (0.0 < gamma_value < math.inf):
        raise ValueError(
            f"volume ratio lower bound gamma must be positive and finite, got {gamma_value!r}"
        )
    om = unit_ball_volume(model.m)
    for t in t_grid:
        if not (om * t**model.m > 0.0):
            raise ValueError(
                f"the Euclidean ball volume at radius t={t:g} is not positive, "
                "so the volume ratio is undefined there"
            )
    b = _moment(model)
    if b == 0.0:
        for t in t_grid:
            if model.radial_ricci(t) < -1e-12:
                raise RigidityHypothesisError(
                    f"a vanishing curvature moment requires nonnegative radial Ricci; "
                    f"found {model.radial_ricci(t):.3e} at t={t:g}"
                )
        return 0.0
    if model.m < 3:
        raise RigidityHypothesisError(
            f"a positive curvature moment (b={b:g}) requires dimension m >= 3"
        )
    if not math.isfinite(b):
        raise RigidityHypothesisError(
            "the theorem requires a finite curvature moment; this profile has b = inf"
        )
    return b


def verify_theorem(
    model: ModelManifold,
    params: SobolevParams,
    t_grid,
    c_m: float | None = None,
    gamma_value: float | None = None,
    ratio_slack: float = 1e-9,
) -> RigidityReport:
    """Check the volume comparison conclusion on a radius grid.

    Works out K, then checks the hypotheses (check_hypotheses), then, with
    c_m None, takes C_M from estimated_c_m (source "estimate"; otherwise
    "user"): K on a curvature-profile model, the witness search on a
    closed-form model without one.  The model's curvature moment b decides
    the bounds: at b = 0 nonnegative radial Ricci is required and
    1 >= V/V_euc >= (K/C_M)^m is checked; at b > 0 m >= 3 and a finite b
    are required and e^(mb) >= V/V_euc >= C_hat is checked.  gamma_value
    None means the volume ratio lower bound is measured on the grid
    (source "empirical").

    The verdict is "consistent" when every grid bound holds to
    ratio_slack, the certificate profile is non-increasing, and its final
    value stays above -V_LIMIT_SLACK.
    """
    m = params.m
    if model.m != m:
        raise ValueError(f"params dimension {m} does not match model dimension {model.m}")
    t_grid = sorted(t_grid)
    if not t_grid or t_grid[0] <= 0.0:
        raise ValueError("t_grid must contain positive increasing radii")

    k = sharp_constant(params)
    b = check_hypotheses(model, t_grid, gamma_value)
    c_m_source = "estimate" if c_m is None else "user"
    if c_m is None:
        c_m = estimated_c_m(model, params)
    gamma_used = gamma_value if gamma_value is not None else gamma_lower_bound(model, t_grid)
    gamma_source = "user" if gamma_value is not None else "empirical"

    flat = b == 0.0
    c2_value = 0.0 if flat else c2(params, b, gamma_used)
    c3_value = c3(params, c_m, k, c2_value)
    c_hat_value = c_hat(c3_value, b, params)
    lower = (k / c_m) ** m if flat else c_hat_value
    upper = 1.0 if flat else math.exp(m * b)

    om = unit_ball_volume(m)
    ratio_table = []
    violation = None
    for t in t_grid:
        ratio = float(model.volume(t)) / (om * t**m)
        ok = bool(ratio >= lower * (1.0 - ratio_slack)) and bool(
            ratio <= upper * (1.0 + ratio_slack)
        )
        ratio_table.append((float(t), ratio, lower, upper, ok))
        if not ok and violation is None:
            violation = {"check": "volume_ratio_bounds", "t": t, "ratio": ratio,
                         "lower": lower, "upper": upper}

    scale = (c_m / k) ** m if flat else c3_value * math.exp(b * (m - 1.0))
    profile_report = v_profile(model, scale, t_grid)

    verdict = "consistent"
    if violation is not None:
        verdict = "violated"
    elif not profile_report.non_increasing:
        verdict = "violated"
        violation = {"check": "v_profile_monotone"}
    elif profile_report.last < -V_LIMIT_SLACK:
        verdict = "violated"
        violation = {"check": "v_profile_limit", "v_last": profile_report.last}

    return RigidityReport(
        params=params,
        K=k,
        C_M=c_m,
        C_M_source=c_m_source,
        b=b,
        gamma=gamma_used,
        gamma_source=gamma_source,
        C2=c2_value,
        C3=c3_value,
        C_hat=c_hat_value,
        ratio_table=tuple(ratio_table),
        v_profile=profile_report,
        verdict=verdict,
        violation=violation,
    )
