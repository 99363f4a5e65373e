"""Correction constants, volume-ratio verdicts, and the mass escape table.

Weight integrals have Gamma closed forms and the mass heads have an
elementary antiderivative (tests/_oracles.py). Pipeline verdicts are
checked on models whose geometry is known exactly.
"""

import copy
import math

import pytest

from radsob import QuadratureError, rigidity
from radsob.model_manifold import (
    ConstantCutoff,
    ModelManifold,
    RationalDecay,
    ZeroCurvature,
    build_model,
    euclidean_model,
)
from radsob.rigidity import (
    RigidityHypothesisError,
    c2,
    c3,
    c_hat,
    mass_escape_experiment,
    verify_theorem,
)
from radsob.sobolev import manifold_integral, talenti_function
from radsob.sharp import SobolevParams, sharp_constant, unit_ball_volume
from radsob.table import Tabulated
from radsob.talenti import TalentiProfile, profile_split

import _oracles
from _oracles import conical_model, model_from_warping

P42 = SobolevParams(4, 2.0)
K42 = sharp_constant(P42)
EUC4 = euclidean_model(4, 50.0)
RAT01 = build_model(4, RationalDecay(0.1), t_max=50.0, step=1e-3)


def _theorem(model, grid, c_m=None, gamma_value=None, params=P42, ratio_slack=1e-9):
    """verify_theorem with C_M estimated and gamma measured unless given."""
    return verify_theorem(model, params, grid, c_m, gamma_value, ratio_slack)


def _flat_weight_integral(lam, order):
    """integral over flat R^4 of (lam + t^2)^(-order) dvol, by the package's
    manifold quadrature (the C1 numerator and denominator at orders 3, 4)."""
    return manifold_integral(
        lambda t: (lam + t * t) ** -order, EUC4, 2.0 * order - 3.0, profile_split(P42, lam)
    )


def test_weight_integral_gamma_matches_quadrature():
    for order in (3, 4):
        for lam in (0.5, 1.0, 3.0):
            closed = _oracles.weight_integral(4, 2.0, lam, order)
            quad = _flat_weight_integral(lam, order)
            rel = abs(closed - quad) / closed
            assert rel < 1e-8, f"order={order} lam={lam}: rel {rel:.3e}"


def test_weight_integral_reduced_beta_factors():
    """For m=4, p=2 the Beta factors of the oracle collapse to 1/2 and 1/6."""
    om_s = _oracles.sphere_area(4)
    for lam in (0.5, 1.0, 3.0):
        got3 = _oracles.weight_integral(4, 2.0, lam, 3)
        want3 = om_s * 0.5 * lam**-1.0 * 0.5
        assert abs(got3 - want3) / want3 < 1e-12
        got4 = _oracles.weight_integral(4, 2.0, lam, 4)
        want4 = om_s * 0.5 * lam**-2.0 * (1.0 / 6.0)
        assert abs(got4 - want4) / want4 < 1e-12


def test_weight_integral_validation():
    """At order m - m/p = 2 the weight is not integrable: the quadrature
    refuses it, and the closed form has no value there."""
    with pytest.raises(QuadratureError):
        _flat_weight_integral(1.0, 2)
    with pytest.raises(ValueError):
        _oracles.weight_integral(4, 2.0, 1.0, 2)


def test_c2_frozen_value_and_oracle_formula():
    got = c2(P42, 0.1, 1.0)
    frozen = 3.277409907455755
    assert abs(got - frozen) / frozen < 1e-12, f"c2 drifted: {got!r}"
    beta, _ = _oracles.sharp_beta_k(4, 2.0)
    expected = 18.0 * beta**-2.0 * math.expm1(0.1) * math.exp(0.3)
    assert abs(got - expected) / expected < 1e-9, f"c2 {got!r} vs closed form {expected!r}"


def test_c2_monotone_and_flat_limit():
    values = [c2(P42, b, 1.0) for b in (0.0, 0.01, 0.1, 0.5)]
    assert values[0] == 0.0
    assert all(a < b for a, b in zip(values, values[1:])), f"c2 not increasing: {values!r}"


def test_c2_validation():
    with pytest.raises(ValueError):
        c2(P42, -0.1, 1.0)
    with pytest.raises(ValueError):
        c2(P42, math.inf, 1.0)
    with pytest.raises(ValueError):
        c2(P42, 0.1, 0.0)


def test_c1_vanishes_flat_and_validates():
    assert _oracles.c1(P42, 1.0, 0.0, RAT01) == 0.0
    with pytest.raises(ValueError):
        _oracles.c1(P42, 1.0, -0.5, RAT01)
    with pytest.raises(ValueError):
        _oracles.c1(P42, 1.0, math.inf, RAT01)


def test_c1_bounded_by_c2_across_scales():
    """The scale-dependent constant stays below its scale-free majorant."""
    model = build_model(4, RationalDecay(0.1), t_max=200.0, step=2e-3)
    grid = [200.0 * k / 20.0 for k in range(1, 21)]
    gamma_emp = _theorem(model, grid, c_m=K42).gamma
    cap = c2(P42, 0.1, gamma_emp)
    first = float(_oracles.c1(P42, 1.0, 0.1, model))
    assert abs(first - 2.5340702884642954) / first < 1e-6, f"c1(lam=1) drifted: {first!r}"
    for lam in (1.0, 10.0, 100.0):
        value = float(_oracles.c1(P42, lam, 0.1, model))
        assert 0.0 < value <= cap * (1.0 + 1e-3), f"c1(lam={lam}) = {value!r} above {cap!r}"


def test_c3_and_c_hat_identities():
    assert c3(P42, K42, K42, 0.0) == 1.0
    assert c_hat(1.0, 0.0, P42) == 1.0
    ch = c_hat(c3(P42, 1.1 * K42, K42, 0.0), 0.0, P42)
    want = (1.0 / 1.1) ** 4
    assert abs(ch - want) / want < 1e-12, f"flat limit {ch!r} vs {want!r}"
    for b in (0.01, 0.1, 0.7):
        c3v = c3(P42, 1.1 * K42, K42, c2(P42, b, 1.0))
        assert c3v >= (1.1) ** 4 * (1.0 - 1e-12)
        product = c_hat(c3v, b, P42) * c3v * math.exp(b * 3.0)
        assert abs(product - 1.0) < 1e-12, f"c_hat inversion off at b={b}: {product!r}"


def test_c3_and_c_hat_validation():
    with pytest.raises(ValueError):
        c3(P42, 0.9 * K42, K42, 0.0)
    with pytest.raises(ValueError):
        c3(P42, K42, K42, -1.0)
    with pytest.raises(ValueError):
        c_hat(0.0, 0.1, P42)


def test_gamma_lower_bound_values():
    """The empirical gamma is the least volume ratio on the grid."""
    assert _theorem(EUC4, (0.5, 1.0, 5.0), c_m=K42).gamma == 1.0
    frozen = 1.0151314624093037
    got = _theorem(RAT01, (0.5, 1.0, 2.0, 5.0, 10.0, 20.0), c_m=K42).gamma
    assert abs(got - frozen) / frozen < 1e-9, f"gamma {got!r}"
    assert got >= 1.0
    with pytest.raises(ValueError):
        _theorem(EUC4, (), c_m=K42)
    with pytest.raises(ValueError):
        _theorem(EUC4, (0.0,), c_m=K42)


def test_v_profile_flat_is_identically_zero():
    report = _theorem(EUC4, (0.5, 1.0, 5.0, 20.0), c_m=K42)
    assert report.verdict == "consistent"
    assert all(v == 0.0 for _, v in report.v_profile), f"rows {report.v_profile!r}"
    with pytest.raises(ValueError):
        _theorem(EUC4, (0.0, 1.0), c_m=K42)


def test_v_profile_conical_monotone_nonnegative():
    """C_M = K s^(1/m) makes the b = 0 profile s V/V_euc - 1 with s = 0.8^-3."""
    con = conical_model(4, 0.8, t_max=30.0)
    grid = [30.0 * (i + 1) / 20.0 for i in range(20)]
    report = _theorem(con, grid, c_m=K42 * (0.8**-3.0) ** 0.25)
    rows = report.v_profile
    assert report.verdict == "consistent", f"violation {report.violation!r}, rows {rows!r}"
    assert rows[-1][1] >= -1e-4, f"limit value {rows[-1][1]!r}"
    assert rows[0][1] > rows[-1][1]


def _ratio_model(ratio):
    """A flat-curvature record whose ball volume is omega_4 t^4 ratio(t)."""
    om = unit_ball_volume(4)
    return ModelManifold(
        m=4, t_max=10.0, profile=ZeroCurvature(), warp=lambda t: t,
        ball_volume=lambda t: om * t**4 * ratio(t), tail_factor=1.0,
    )


def test_v_profile_monotone_negative_control():
    """A wavy ratio inside both bounds still fails the monotone profile."""
    wavy = _ratio_model(lambda t: 0.8 + 0.1 * math.sin(t))
    report = _theorem(wavy, [float(t) for t in range(1, 10)], c_m=2.0 * K42)
    assert all(row[4] for row in report.ratio_table)
    assert report.verdict == "violated"
    assert report.violation == {"check": "v_profile_monotone"}


def test_v_profile_limit_negative_control():
    """A ratio just under (K/C_M)^m, let through by ratio_slack, ends v below zero."""
    short = _ratio_model(lambda t: 0.999 / 16.0)
    report = _theorem(short, [float(t) for t in range(1, 10)], c_m=2.0 * K42, ratio_slack=1e-2)
    assert all(row[4] for row in report.ratio_table)
    assert report.verdict == "violated"
    assert report.violation["check"] == "v_profile_limit"
    assert abs(report.violation["v_last"] + 1e-3) < 1e-12


@pytest.mark.parametrize("model", [EUC4, RAT01], ids=["b=0", "b=0.1"])
def test_verify_reads_each_ball_volume_once(model):
    calls = []

    def counted(t):
        calls.append(t)
        return model.ball_volume(t)

    grid = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
    counting = copy.copy(model)
    counting.ball_volume = counted
    _theorem(counting, grid, c_m=K42)
    assert sorted(calls) == list(grid)


def test_mass_escape_heads_against_closed_form():
    report = mass_escape_experiment(P42, 1.0, (10.0, 100.0, 1000.0, 10000.0))
    assert report.all_pass
    for lam, head, tail, total in report.rows:
        want = _oracles.head_m4_p2(lam)
        assert abs(head - want) / want < 1e-9, f"head({lam}) = {head!r}, want {want!r}"
        assert abs(total - 1.0) < 1e-9, f"head+tail at lam={lam}: {total!r}"
    heads = [r[1] for r in report.rows]
    assert all(b < a for a, b in zip(heads, heads[1:]))
    frozen = 0.0028003551669967867
    assert abs(report.rows[0][1] - frozen) / frozen < 1e-12
    assert report.crossing == 10.0


def test_mass_escape_bisection_locates_threshold(monkeypatch):
    monkeypatch.setattr(rigidity, "ESCAPE_THRESHOLD", 1e-3)
    report = mass_escape_experiment(P42, 1.0, (10.0, 100.0))
    crossing = report.crossing
    assert crossing is not None and 10.0 < crossing < 100.0
    rel = abs(crossing - _oracles.HEAD_CROSSING_1E3) / _oracles.HEAD_CROSSING_1E3
    assert rel < 1e-8, f"crossing {crossing!r} off by {rel:.3e}"
    at_crossing = _oracles.head_m4_p2(crossing)
    assert 1e-3 * (1.0 - 1e-6) <= at_crossing <= 1e-3 * (1.0 + 1e-6)


def test_mass_escape_validation_and_no_crossing(monkeypatch):
    with pytest.raises(ValueError):
        mass_escape_experiment(P42, 1.0, (5.0, 10.0))
    with pytest.raises(ValueError):
        mass_escape_experiment(P42, 1.0, ())
    with pytest.raises(ValueError):
        mass_escape_experiment(P42, 1.0, (10.0, 10.0))
    monkeypatch.setattr(rigidity, "ESCAPE_THRESHOLD", 1e-6)
    report = mass_escape_experiment(P42, 1.0, (10.0, 12.0))
    assert report.crossing is None and not report.all_pass


def test_verify_flat_euclidean_degenerates_to_equality():
    report = _theorem(EUC4, (0.5, 1.0, 5.0, 20.0), c_m=K42)
    assert report.verdict == "consistent" and report.violation is None
    assert report.C2 == 0.0 and report.C3 == 1.0 and report.C_hat == 1.0
    assert all(row[1] == 1.0 for row in report.ratio_table)
    assert all(v == 0.0 for _, v in report.v_profile)
    assert report.gamma == 1.0 and report.gamma_source == "empirical"
    for _, ratio, lower, upper, ok in report.ratio_table:
        assert ok and lower <= ratio <= upper and lower <= 1.0 <= upper


def test_verify_flat_user_constant_shifts_lower_bound():
    report = _theorem(EUC4, (1.0, 5.0), c_m=1.1 * K42)
    want = (1.0 / 1.1) ** 4
    assert abs(report.C_hat - want) / want < 1e-12
    assert abs(report.ratio_table[0][2] - want) / want < 1e-12
    assert report.verdict == "consistent" and report.C_M_source == "user"
    estimated = _theorem(EUC4, (1.0, 5.0))
    assert estimated.C_M_source == "estimate" and estimated.C_M >= K42


def test_verify_flat_detects_violation():
    """With the sharp constant forced to K, a true cone must fail."""
    con = conical_model(4, 0.8, t_max=30.0)
    report = _theorem(con, (0.5, 1.0, 5.0, 20.0), c_m=K42)
    assert report.verdict == "violated"
    assert report.violation["check"] == "volume_ratio_bounds"
    assert report.violation["t"] == 0.5
    assert report.violation["ratio"] < 1.0
    assert report.violation["lower"] == 1.0


def test_verify_flat_hypothesis_rejections():
    """h = t + 0.01 t^2 has G > 0 with t G = 2/(100 + t), not integrable, so
    the finite-moment hypothesis is refused, with a user C_M or without."""
    custom = model_from_warping(
        4,
        h=lambda t: t + 0.01 * t * t,
        h_prime=lambda t: 1.0 + 0.02 * t,
        h_second=lambda t: 0.02,
        t_max=10.0,
        b=math.inf,
        nonnegative=True,
    )
    for c_m in (1.1 * K42, None):
        with pytest.raises(RigidityHypothesisError, match="requires a finite curvature moment"):
            _theorem(custom, (1.0, 2.0), c_m=c_m)


def test_verify_curved_rational_consistent():
    report = _theorem(RAT01, (0.5, 1.0, 2.0, 5.0, 10.0, 20.0), c_m=K42)
    assert report.verdict == "consistent" and report.violation is None
    assert report.b == 0.1 and report.gamma_source == "empirical"
    assert abs(report.gamma - 1.0151314624093037) < 1e-9
    assert abs(report.C2 - 3.2285571168065075) / report.C2 < 1e-9
    assert abs(report.ratio_table[0][3] - math.exp(0.4)) < 1e-12
    for _, ratio, lower, upper, ok in report.ratio_table:
        assert ok and lower <= ratio <= upper and lower <= 1.0 <= upper
    values = [v for _, v in report.v_profile]
    spread = max(values) - min(values)
    assert spread < 1e-9, f"self-comparison profile not constant: {spread:.3e}"
    want_v = report.C3 * math.exp(0.3) - 1.0
    assert abs(values[0] - want_v) < 1e-12


def test_verify_curved_user_gamma():
    report = _theorem(RAT01, (0.5, 1.0, 5.0), c_m=K42, gamma_value=1.0)
    assert report.gamma_source == "user" and report.gamma == 1.0
    frozen = 3.277409907455755
    assert abs(report.C2 - frozen) / frozen < 1e-12


@pytest.mark.parametrize("model", [RAT01, conical_model(4, 0.8, 30.0)],
                         ids=["rational", "conical"])
def test_verify_refuses_a_gamma_the_grid_disproves(model):
    """A user gamma is the hypothesis V(B_t)/V_euc(t) >= gamma: the least
    ratio on the grid passes, and a gamma above it by more than
    ratio_slack is refused before C_M is taken (on the cone, which has no
    curvature profile, before C_M is refused)."""
    grid, slack = (0.5, 1.0, 5.0, 20.0), 1e-6
    least = _theorem(model, grid, c_m=K42, ratio_slack=slack).gamma
    report = _theorem(model, grid, c_m=K42, gamma_value=least, ratio_slack=slack)
    assert report.gamma_source == "user" and report.gamma == least
    with pytest.raises(RigidityHypothesisError, match="exceeds the least volume ratio"):
        _theorem(model, grid, gamma_value=least * (1.0 + 2.0 * slack), ratio_slack=slack)


def test_verify_curved_hypothesis_rejections():
    plane = build_model(2, RationalDecay(0.1), t_max=10.0, step=1e-2)
    with pytest.raises(RigidityHypothesisError):
        _theorem(plane, (1.0, 2.0), c_m=0.5, params=SobolevParams(2, 1.5))
    unbounded = build_model(4, ConstantCutoff(1.0, math.inf), t_max=8.0, step=1e-3)
    with pytest.raises(RigidityHypothesisError):
        _theorem(unbounded, (1.0, 2.0), c_m=K42)


def test_verify_refuses_an_infinite_upper_bound():
    """At b = 200 the bound e^(m b) overflows: verify_theorem refuses it as
    verify_volume_chain does, not with a bare OverflowError."""
    steep = build_model(4, ConstantCutoff(16.0, 5.0), 10.0, 1e-2)
    assert steep.profile.b == 200.0
    with pytest.raises(ValueError, match=r"e\^\(b m\) is infinite at b=200"):
        _theorem(steep, (1.0, 5.0))


@pytest.mark.parametrize("a, b", [(6.0, 75.0), (8.0, 100.0)])
def test_verify_refuses_a_lower_bound_of_zero(a, b):
    """At b = 75 C_hat underflows to 0 and at b = 100 C3 overflows: either
    way the lower bound could never fail, so the run is refused."""
    steep = build_model(4, ConstantCutoff(a, 5.0), 10.0, 1e-2)
    assert steep.profile.b == b
    with pytest.raises(ValueError, match=rf"lower bound C_hat is 0 at b={b:g}"):
        _theorem(steep, (1.0, 5.0))


def test_verify_refuses_before_the_witness_search():
    """With C_M left to verify_theorem, an infinite curvature moment is
    refused as a hypothesis before C_M is taken."""
    unbounded = build_model(4, ConstantCutoff(1.0, math.inf), t_max=8.0, step=1e-2)
    with pytest.raises(RigidityHypothesisError):
        _theorem(unbounded, (1.0, 2.0))


def test_verify_zero_moment_profile_takes_the_flat_case():
    """b = 0 decides the case, even on a model built from its warping
    (rational:0, in closed form) rather than as flat R^m."""
    model = build_model(4, RationalDecay(0.0), t_max=10.0, step=1e-2)
    report = _theorem(model, (0.5, 1.0, 5.0), c_m=1.1 * K42)
    assert report.b == 0.0 and report.C2 == 0.0
    want = (1.0 / 1.1) ** 4
    for _, _, lower, upper, ok in report.ratio_table:
        assert ok and upper == 1.0 and abs(lower - want) / want < 1e-12
    assert report.verdict == "consistent"


def test_verify_argument_validation():
    with pytest.raises(ValueError):
        _theorem(EUC4, (1.0,), c_m=K42, params=SobolevParams(3, 2.0))
    with pytest.raises(ValueError):
        _theorem(EUC4, (), c_m=K42)
    with pytest.raises(ValueError):
        _theorem(EUC4, (0.0, 1.0), c_m=K42)


@pytest.mark.parametrize("gamma_value", [0.0, math.inf, math.nan])
def test_verify_refuses_a_gamma_that_is_not_positive_and_finite(gamma_value):
    """The command line parser keeps these values out; the Python API
    refuses them before it reads a volume."""
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        _theorem(RAT01, (0.5, 1.0), c_m=K42, gamma_value=gamma_value)


def test_no_radial_witness_beats_sharp_bound_on_profile_models():
    """The premise of C_M = K on curvature-profile models: G >= 0 keeps
    every in-window witness quotient at or above K^-p."""
    cases = (
        (RAT01, P42),
        (build_model(4, ConstantCutoff(0.05, 3.0), 50.0, 1e-3), P42),
        (build_model(3, RationalDecay(0.1), 50.0, 1e-3), SobolevParams(3, 1.5)),
    )
    for model, params in cases:
        floor = sharp_constant(params) ** -params.p
        for lam in (0.01, 0.1, 1.0):
            u = talenti_function(TalentiProfile.build(params, lam))
            q = _oracles.sobolev_quotient(u, model)
            assert q >= floor * (1.0 - 1e-9), f"{model!r} lam={lam}: {q!r} < {floor!r}"


def test_estimated_c_m_is_k_only_where_g_is_nonnegative():
    """C_M left to verify_theorem is K on every model whose profile has
    G >= 0.  A cone, whose G < 0, gets no certified C_M: ValueError, with
    no ball volume read past the gamma check."""
    grid = (0.5, 1.0, 5.0)
    table = Tabulated((0.0, 1.0, 2.0, 4.0, 8.0), (0.3, 0.25, 0.1, 0.02, 0.001), 3.0)
    for model in (
        RAT01,
        build_model(4, ConstantCutoff(0.05, 3.0), t_max=50.0, step=1e-2),
        build_model(4, table, t_max=50.0, step=1e-2),
        EUC4,
    ):
        report = _theorem(model, grid)
        assert report.C_M == K42 and report.C_M_source == "estimate", f"{model!r}"

    cone = conical_model(4, 0.8, 50.0)
    reads = []
    counting = copy.copy(cone)
    counting.ball_volume = lambda t: reads.append(t) or cone.ball_volume(t)
    with pytest.raises(ValueError, match="^K certifies C_M only where G >= 0; pass c_m$"):
        _theorem(counting, grid)
    assert reads == list(grid)

    # On a cone of slope c, theta = c^(m-1) is the asymptotic volume ratio
    # and the sharp constant is K theta^(-1/m) (Balogh-Kristaly); a witness
    # spread to lam = 1e6 comes within 1e-5 of it from below.
    for m, p, c in ((4, 2.0, 0.8), (4, 2.0, 0.5), (3, 1.5, 0.8)):
        params = SobolevParams(m, p)
        cone = conical_model(m, c, 50.0)
        u = talenti_function(TalentiProfile.build(params, 1e6))
        value = _oracles.sobolev_quotient(u, cone) ** (-1.0 / p)
        sharp = sharp_constant(params) * (c ** (m - 1)) ** (-1.0 / m)
        assert sharp * (1.0 - 1e-5) <= value <= sharp * (1.0 + 1e-9), (
            f"cone (m, p, c) = {(m, p, c)}: witness {value / sharp - 1.0:+.3e} off K theta^(-1/m)"
        )
