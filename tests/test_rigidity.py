"""Correction constants, volume-ratio verdicts, and the mass escape table.

Weight integrals have Gamma closed forms and the mass heads have an
elementary antiderivative (tests/_oracles.py). Pipeline verdicts are
checked on models whose geometry is known exactly.
"""

import json
import math

import pytest

from radsob import rigidity
from radsob.model_manifold import (
    ConstantCutoff,
    RationalDecay,
    Tabulated,
    build_model,
    conical_model,
    euclidean_model,
    model_from_warping,
)
from radsob.rigidity import (
    RigidityHypothesisError,
    c1,
    c2,
    c3,
    c_hat,
    estimated_c_m,
    euclidean_weight_integral,
    gamma_lower_bound,
    mass_escape_experiment,
    v_profile,
    verify_theorem,
)
from radsob.sobolev import estimate_radial_constant, quotient_sobolev, talenti_function
from radsob.talenti import SobolevParams, TalentiProfile, sharp_constant

import _oracles

P42 = SobolevParams(4, 2.0)
K42 = sharp_constant(P42)
EUC4 = euclidean_model(4)
RAT01 = build_model(4, RationalDecay(0.1), t_max=50.0, step=1e-3)


def test_weight_integral_gamma_matches_quadrature():
    for order in (3, 4):
        for lam in (0.5, 1.0, 3.0):
            closed = euclidean_weight_integral(P42, lam, order)
            quad = euclidean_weight_integral(P42, lam, order, method="quad")
            rel = abs(closed - quad) / closed
            assert rel < 1e-8, f"order={order} lam={lam}: rel {rel:.3e}"


def test_weight_integral_reduced_beta_factors():
    """For m=4, p=2 the Beta factors collapse to 1/2 and 1/6."""
    om_s = _oracles.sphere_area(4)
    for lam in (0.5, 1.0, 3.0):
        got3 = euclidean_weight_integral(P42, lam, 3)
        want3 = om_s * 0.5 * lam**-1.0 * 0.5
        assert abs(got3 - want3) / want3 < 1e-12
        got4 = euclidean_weight_integral(P42, lam, 4)
        want4 = om_s * 0.5 * lam**-2.0 * (1.0 / 6.0)
        assert abs(got4 - want4) / want4 < 1e-12


def test_weight_integral_validation():
    with pytest.raises(ValueError):
        euclidean_weight_integral(P42, 1.0, 2)
    with pytest.raises(ValueError):
        euclidean_weight_integral(P42, 1.0, 3, method="lookup")


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
    assert c1(P42, 1.0, 0.0, RAT01) == 0.0
    with pytest.raises(ValueError):
        c1(P42, 1.0, -0.5, RAT01)
    with pytest.raises(ValueError):
        c1(P42, 1.0, math.inf, RAT01)


def test_c1_bounded_by_c2_across_scales():
    """The scale-dependent constant stays below its scale-free majorant."""
    model = build_model(4, RationalDecay(0.1), t_max=200.0, step=2e-3)
    grid = [200.0 * k / 20.0 for k in range(1, 21)]
    gamma_emp = gamma_lower_bound(model, grid)
    cap = c2(P42, 0.1, gamma_emp)
    first = float(c1(P42, 1.0, 0.1, model))
    assert abs(first - 2.5340702884642954) / first < 1e-6, f"c1(lam=1) drifted: {first!r}"
    for lam in (1.0, 10.0, 100.0):
        value = float(c1(P42, lam, 0.1, model))
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
    assert gamma_lower_bound(EUC4, (0.5, 1.0, 5.0)) == 1.0
    frozen = 1.0151314624093037
    got = gamma_lower_bound(RAT01, (0.5, 1.0, 2.0, 5.0, 10.0, 20.0))
    assert abs(got - frozen) / frozen < 1e-9, f"gamma {got!r}"
    assert got >= 1.0
    with pytest.raises(ValueError):
        gamma_lower_bound(EUC4, ())
    with pytest.raises(ValueError):
        gamma_lower_bound(EUC4, (0.0,))


def test_v_profile_flat_is_identically_zero():
    report = v_profile(EUC4, 1.0, (0.5, 1.0, 5.0, 20.0))
    assert report.non_increasing
    assert all(v == 0.0 for _, v in report.rows), f"rows {report.rows!r}"
    assert report.last == 0.0
    with pytest.raises(ValueError):
        v_profile(EUC4, 1.0, (0.0, 1.0))


def test_v_profile_conical_monotone_nonnegative():
    con = conical_model(4, 0.8, t_max=30.0, step=1e-2)
    grid = [30.0 * (i + 1) / 20.0 for i in range(20)]
    report = v_profile(con, 0.8**-3.0, grid)
    assert report.non_increasing, f"rows {report.rows!r}"
    assert report.last >= -1e-4, f"limit value {report.last!r}"
    assert report.rows[0][1] > report.last


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


def test_mass_escape_bisection_locates_threshold():
    report = mass_escape_experiment(P42, 1.0, (10.0, 100.0), threshold=1e-3)
    crossing = report.crossing
    assert crossing is not None and 10.0 < crossing < 100.0
    rel = abs(crossing - _oracles.HEAD_CROSSING_1E3) / _oracles.HEAD_CROSSING_1E3
    assert rel < 1e-8, f"crossing {crossing!r} off by {rel:.3e}"
    at_crossing = _oracles.head_m4_p2(crossing)
    assert 1e-3 * (1.0 - 1e-6) <= at_crossing <= 1e-3 * (1.0 + 1e-6)


def test_mass_escape_validation_and_no_crossing():
    with pytest.raises(ValueError):
        mass_escape_experiment(P42, 1.0, (5.0, 10.0))
    with pytest.raises(ValueError):
        mass_escape_experiment(P42, 1.0, ())
    with pytest.raises(ValueError):
        mass_escape_experiment(P42, 1.0, (10.0, 10.0))
    report = mass_escape_experiment(P42, 1.0, (10.0, 12.0), threshold=1e-6)
    assert report.crossing is None and not report.all_pass


def test_verify_flat_euclidean_degenerates_to_equality():
    report = verify_theorem(EUC4, P42, (0.5, 1.0, 5.0, 20.0), c_m=K42)
    assert report.verdict == "consistent" and report.violation is None
    assert report.C2 == 0.0 and report.C3 == 1.0 and report.C_hat == 1.0
    assert all(row[1] == 1.0 for row in report.ratio_table)
    assert all(v == 0.0 for _, v in report.v_profile.rows)
    assert report.gamma == 1.0 and report.gamma_source == "empirical"
    for _, ratio, lower, upper, ok in report.ratio_table:
        assert ok and lower <= ratio <= upper and lower <= 1.0 <= upper


def test_verify_flat_user_constant_shifts_lower_bound():
    report = verify_theorem(EUC4, P42, (1.0, 5.0), c_m=1.1 * K42)
    want = (1.0 / 1.1) ** 4
    assert abs(report.C_hat - want) / want < 1e-12
    assert abs(report.ratio_table[0][2] - want) / want < 1e-12
    assert report.verdict == "consistent" and report.C_M_source == "user"
    estimated = verify_theorem(EUC4, P42, (1.0, 5.0))
    assert estimated.C_M_source == "estimate" and estimated.C_M >= K42


def test_verify_flat_detects_violation():
    """With the sharp constant forced to K, a true cone must fail."""
    con = conical_model(4, 0.8, t_max=30.0, step=1e-2)
    report = verify_theorem(con, P42, (0.5, 1.0, 5.0, 20.0), c_m=K42)
    assert report.verdict == "violated"
    assert report.violation["check"] == "volume_ratio_bounds"
    assert report.violation["t"] == 0.5
    assert report.violation["ratio"] < 1.0
    assert report.violation["lower"] == 1.0


def test_verify_flat_hypothesis_rejections():
    """Without a profile b = 0, so negative radial Ricci is refused."""
    custom = model_from_warping(
        4,
        h=lambda t: t + 0.01 * t * t,
        h_prime=lambda t: 1.0 + 0.02 * t,
        h_second=lambda t: 0.02,
        t_max=10.0,
        step=1e-2,
    )
    with pytest.raises(RigidityHypothesisError):
        verify_theorem(custom, P42, (1.0, 2.0), c_m=1.1 * K42)


def test_verify_curved_rational_consistent():
    report = verify_theorem(RAT01, P42, (0.5, 1.0, 2.0, 5.0, 10.0, 20.0), c_m=K42)
    assert report.verdict == "consistent" and report.violation is None
    assert report.b == 0.1 and report.gamma_source == "empirical"
    assert abs(report.gamma - 1.0151314624093037) < 1e-9
    assert abs(report.C2 - 3.2285571168065075) / report.C2 < 1e-9
    assert abs(report.ratio_table[0][3] - math.exp(0.4)) < 1e-12
    for _, ratio, lower, upper, ok in report.ratio_table:
        assert ok and lower <= ratio <= upper and lower <= 1.0 <= upper
    values = [v for _, v in report.v_profile.rows]
    spread = max(values) - min(values)
    assert spread < 1e-9, f"self-comparison profile not constant: {spread:.3e}"
    want_v = report.C3 * math.exp(0.3) - 1.0
    assert abs(values[0] - want_v) < 1e-12


def test_verify_curved_user_gamma():
    report = verify_theorem(RAT01, P42, (0.5, 1.0, 5.0), c_m=K42, gamma_value=1.0)
    assert report.gamma_source == "user" and report.gamma == 1.0
    frozen = 3.277409907455755
    assert abs(report.C2 - frozen) / frozen < 1e-12


def test_verify_curved_hypothesis_rejections():
    plane = build_model(2, RationalDecay(0.1), t_max=10.0, step=1e-2)
    with pytest.raises(RigidityHypothesisError):
        verify_theorem(plane, SobolevParams(2, 1.5), (1.0, 2.0), c_m=0.5)
    unbounded = build_model(4, ConstantCutoff(1.0, math.inf), t_max=8.0, step=1e-3)
    with pytest.raises(RigidityHypothesisError):
        verify_theorem(unbounded, P42, (1.0, 2.0), c_m=K42)


def test_verify_refuses_before_the_witness_search(monkeypatch):
    searched = []
    monkeypatch.setattr(
        rigidity, "estimate_radial_constant", lambda *args: searched.append(args)
    )
    unbounded = build_model(4, ConstantCutoff(1.0, math.inf), t_max=8.0, step=1e-2)
    with pytest.raises(RigidityHypothesisError):
        verify_theorem(unbounded, P42, (1.0, 2.0))
    assert searched == []


def test_verify_zero_moment_profile_takes_the_flat_case():
    """b = 0 decides the case, even on an IVP-built, non-Euclidean model."""
    model = build_model(4, RationalDecay(0.0), t_max=10.0, step=1e-2)
    assert model.name == "rational:0"
    report = verify_theorem(model, P42, (0.5, 1.0, 5.0), c_m=1.1 * K42)
    assert report.b == 0.0 and report.C2 == 0.0
    want = (1.0 / 1.1) ** 4
    for _, _, lower, upper, ok in report.ratio_table:
        assert ok and upper == 1.0 and abs(lower - want) / want < 1e-12
    assert report.verdict == "consistent"


def test_verify_argument_validation():
    with pytest.raises(ValueError):
        verify_theorem(EUC4, SobolevParams(3, 2.0), (1.0,), c_m=K42)
    with pytest.raises(ValueError):
        verify_theorem(EUC4, P42, (), c_m=K42)
    with pytest.raises(ValueError):
        verify_theorem(EUC4, P42, (0.0, 1.0), c_m=K42)


def test_report_serialization():
    report = verify_theorem(EUC4, P42, (1.0, 5.0), c_m=1.1 * K42)
    payload = report.to_json_dict()
    assert list(payload.keys()) == [
        "params", "K", "C_M", "C_M_source", "b", "gamma", "gamma_source",
        "C2", "C3", "C_hat", "ratio_table", "v_profile", "verdict", "violation",
    ]
    json.dumps(payload)
    assert payload["params"] == {"m": 4, "p": 2.0, "p_star": 4.0}
    assert len(payload["ratio_table"]) == 2 and len(payload["v_profile"]) == 2
    lines = report.to_csv_lines()
    assert lines[5] == "t,ratio,lower,upper,pass"
    assert sum(1 for line in lines if not line.startswith("#")) == 3
    cells = lines[6].split(",")
    assert len(cells) == 5 and cells[-1] in ("true", "false")
    float(cells[0]), float(cells[1]), float(cells[2]), float(cells[3])


def test_no_radial_witness_beats_sharp_bound_on_profile_models():
    """The premise of the estimated_c_m shortcut: G >= 0 keeps every
    in-window witness quotient at or above K^-p."""
    cases = (
        (RAT01, P42),
        (build_model(4, ConstantCutoff(0.05, 3.0)), P42),
        (build_model(3, RationalDecay(0.1)), SobolevParams(3, 1.5)),
    )
    for model, params in cases:
        floor = sharp_constant(params) ** -params.p
        for lam in (0.01, 0.1, 1.0):
            u = talenti_function(TalentiProfile.build(params, lam))
            q = quotient_sobolev(u, model)
            assert q >= floor * (1.0 - 1e-9), f"{model!r} lam={lam}: {q!r} < {floor!r}"


def test_estimated_c_m_searches_only_without_a_profile(monkeypatch):
    calls = []

    def recorder(model, params):
        calls.append(model)
        return estimate_radial_constant(model, params)

    monkeypatch.setattr(rigidity, "estimate_radial_constant", recorder)
    table = Tabulated((0.0, 1.0, 2.0, 4.0, 8.0), (0.3, 0.25, 0.1, 0.02, 0.001), 3.0)
    for model in (
        RAT01,
        build_model(4, ConstantCutoff(0.05, 3.0), step=1e-2),
        build_model(4, table, step=1e-2),
        EUC4,
    ):
        assert estimated_c_m(model, P42) == K42, f"{model!r}"
    assert calls == []

    cone = conical_model(4, 0.8)
    value = estimated_c_m(cone, P42)
    assert calls == [cone]
    assert abs(value / K42 - 1.182) < 1e-3, f"cone estimate {value / K42!r} K"
