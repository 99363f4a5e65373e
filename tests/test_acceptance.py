"""End-to-end acceptance gate.

Each test covers one headline property of the toolkit at its stated
tolerance and prints a single summary line (run with ``pytest -s`` to see
the lines for passing tests as well).  The checks run in order from
profile identities up to the full pipeline.
"""

import math
import time

from radsob.cli import main
from radsob.model_manifold import (
    ConstantCutoff,
    RationalDecay,
    ZeroCurvature,
    build_model,
    euclidean_model,
    verify_volume_chain,
)
from radsob.numerics import solve_h_ivp
from radsob.rigidity import (
    c2,
    c3,
    c_hat,
    mass_escape_experiment,
    verify_theorem,
)
from radsob.sobolev import (
    gradient_energy,
    mass_pstar,
    talenti_function,
)
from radsob.sharp import SobolevParams, sharp_beta, sharp_constant
from radsob.talenti import TalentiProfile, sharp_constant_detail

import _oracles
from _oracles import conical_model

P42 = SobolevParams(4, 2.0)
K42 = sharp_constant(P42)
EUC4 = euclidean_model(4, 50.0)


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{num:02d}] {name}: {status}{suffix}", flush=True)


def _log_grid(lo, hi, n):
    ratio = hi / lo
    return [lo * ratio ** (i / (n - 1)) for i in range(n)]


def test_01_yamabe_identity_across_parameters():
    t0 = time.perf_counter()
    grid = _log_grid(1e-2, 1e2, 200)
    worst = 0.0
    for m, p in ((3, 2.0), (4, 2.0), (6, 3.0), (4, 1.5)):
        params = SobolevParams(m, p)
        k = sharp_constant(params)
        for lam in (0.5, 2.0):
            profile = TalentiProfile.build(params, lam)
            local = max(abs(_oracles.yamabe_residual(profile, k, t)) for t in grid)
            worst = max(worst, local)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _line(1, "pointwise equation residual", ok, f"worst {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-6, f"worst residual {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_02_normalization_and_scale_invariance():
    lambdas = (0.5, 1.0, 5.0, 20.0)
    beta = sharp_beta(P42)
    betas = []
    worst_mass = 0.0
    for lam in lambdas:
        u = talenti_function(TalentiProfile.build(P42, lam))
        mass = float(mass_pstar(u, EUC4))
        worst_mass = max(worst_mass, abs(mass - 1.0))
        betas.append(beta * mass ** (-1.0 / P42.p_star))
    beta_spread = (max(betas) - min(betas)) / betas[0]
    detail = sharp_constant_detail(P42, lambdas=lambdas)
    k_spread = detail["spread"]
    beta_ref, k_ref = _oracles.sharp_beta_k(4, 2.0)
    beta_rel = abs(beta - beta_ref) / beta_ref
    k_rel = abs(detail["K"] - k_ref) / k_ref
    ok = (
        worst_mass <= 1e-8
        and beta_spread <= 1e-6
        and k_spread <= 1e-6
        and beta_rel <= 1e-4
        and k_rel <= 1e-4
    )
    _line(2, "unit mass and scale-free constants", ok,
          f"|mass-1| {worst_mass:.2e}, spreads {beta_spread:.2e}/{k_spread:.2e}, "
          f"oracle rel {beta_rel:.2e}/{k_rel:.2e}")
    assert worst_mass <= 1e-8
    assert beta_spread <= 1e-6 and k_spread <= 1e-6
    assert beta_rel <= 1e-4 and k_rel <= 1e-4


def test_03_euclidean_degeneration():
    t0 = time.perf_counter()
    h, _ = solve_h_ivp(lambda t: 0.0, 10.0, 1e-3, math.inf)
    worst_h = max(abs(h(t) - t) / t for t in (0.5, 1.0, 5.0, 10.0))
    model = build_model(4, ZeroCurvature(), 50.0, 1e-3)
    flat_exact = model.profile.b == 0.0 and model.warp(3.0) == 3.0 and all(
        model.volume(t) == _oracles.ball_volume(4) * t**4 for t in (0.5, 3.0, 20.0)
    )
    c2_exact = c2(P42, 0.0, 1.0) == 0.0
    ch = c_hat(c3(P42, 1.1 * K42, K42, 0.0), 0.0, P42)
    target = (1.0 / 1.1) ** 4
    ch_rel = abs(ch - target) / target
    report = verify_theorem(EUC4, P42, (0.5, 1.0, 5.0, 20.0), K42, None, 1e-9)
    ratios_one = all(row[1] == 1.0 for row in report.ratio_table)
    consistent = report.verdict == "consistent"
    elapsed = time.perf_counter() - t0
    ok = (worst_h <= 1e-10 and flat_exact and c2_exact and ch_rel <= 1e-12
          and ratios_one and consistent and elapsed < 1.0)
    _line(3, "flat limit degenerates to equality", ok,
          f"h rel {worst_h:.2e}, c_hat rel {ch_rel:.2e}, {elapsed:.2f}s")
    assert worst_h <= 1e-10, f"h deviates by {worst_h:.3e}"
    assert flat_exact and c2_exact
    assert ch_rel <= 1e-12, f"c_hat off by {ch_rel:.3e}"
    assert ratios_one and consistent
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_04_vanishing_curvature_moment_limit():
    t0 = time.perf_counter()
    target = (1.0 / 1.1) ** 4
    errors = []
    for b in (1e-1, 1e-2, 1e-3, 1e-4):
        value = c_hat(c3(P42, 1.1 * K42, K42, c2(P42, b, 1.0)), b, P42)
        errors.append(abs(value - target))
    ratios = [later / earlier for earlier, later in zip(errors, errors[1:])]
    elapsed = time.perf_counter() - t0
    ok = all(r <= 0.15 for r in ratios) and elapsed < 10.0
    _line(4, "adjusted constant converges linearly in b", ok,
          "decade ratios " + "/".join(f"{r:.3f}" for r in ratios) + f", {elapsed:.2f}s")
    assert all(r <= 0.15 for r in ratios), f"ratios {ratios!r}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_05_volume_chains_and_negative_control():
    model = build_model(4, RationalDecay(0.1), t_max=50.0, step=1e-3)
    report = verify_volume_chain(model, (0.5, 1.0, 2.0, 5.0, 10.0, 20.0), slack=1e-8)
    # An infinite-moment model recorded with the moment b = 1 of RationalDecay(1).
    understated = build_model(4, ConstantCutoff(1.0, math.inf), t_max=12.0, step=1e-3)
    understated.profile = RationalDecay(1.0)
    bad = verify_volume_chain(understated, (0.5, 1.0, 2.0, 3.0, 5.0, 10.0), slack=1e-8)
    fails = [row for row in bad.rows if not row.passed]
    caught = (
        not bad.all_pass
        and all(f.name in ("upper_area", "upper_volume") for f in fails)
        and min(f.t for f in fails) <= 10.0
    )
    ok = report.all_pass and caught
    first = f"{fails[0].name}@t={fails[0].t:g}" if fails else "none"
    _line(5, "two-sided volume chains", ok,
          f"bounded-moment chain pass, control breaks {first}")
    assert report.all_pass, f"failures: {[(r.name, r.t) for r in report.rows if not r.passed]}"
    assert caught, f"control failures: {[(f.name, f.t) for f in fails]}"


def test_06_constant_estimate_and_quotient_floor():
    t0 = time.perf_counter()
    floor = K42 ** (-P42.p)
    flat_q = _oracles.sobolev_quotient(talenti_function(TalentiProfile.build(P42, 1.0)), EUC4)
    rel = abs(flat_q ** (-1.0 / P42.p) - K42) / K42
    floor_ok = flat_q >= floor * (1.0 - 1e-6)
    con = conical_model(4, 0.8, 50.0)
    worst_q = 0.0
    for lam in (0.5, 1.0, 5.0):
        u = talenti_function(TalentiProfile.build(P42, lam))
        worst_q = max(worst_q, gradient_energy(u, con) / mass_pstar(u, con))
    cone_ok = worst_q <= floor * (1.0 + 1e-6)
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-4 and floor_ok and cone_ok and elapsed < 60.0
    _line(6, "quotient bounds and flat estimate", ok,
          f"estimate rel {rel:.2e}, cone quotient/floor {worst_q / floor:.3f}, {elapsed:.1f}s")
    assert rel <= 1e-4, f"estimate off by {rel:.3e}"
    assert floor_ok, f"quotient {flat_q!r} under floor {floor!r}"
    assert cone_ok, f"cone quotient {worst_q!r} over floor {floor!r}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_07_mass_escape_to_infinity():
    report = mass_escape_experiment(P42, 1.0, (10.0, 100.0, 1000.0, 10000.0))
    worst_sum = max(abs(total - 1.0) for _, _, _, total in report.rows)
    heads = [head for _, head, _, _ in report.rows]
    monotone = all(b <= a for a, b in zip(heads, heads[1:]))
    small = heads[-1] <= 0.01
    ok = worst_sum <= 1e-6 and monotone and small and report.crossing is not None
    _line(7, "mass escapes through the fixed ball", ok,
          f"|head+tail-1| {worst_sum:.2e}, head(1e4) {heads[-1]:.2e}, "
          f"crossing lambda {report.crossing:g}")
    assert worst_sum <= 1e-6
    assert monotone, f"heads {heads!r}"
    assert small, f"head(1e4) = {heads[-1]!r}"
    assert report.crossing is not None and report.all_pass


def test_08_monotone_volume_ratio_profile():
    # The cone's constant in closed form: K theta^(-1/m), theta = c^(m-1)
    # its asymptotic volume ratio (Balogh-Kristaly).
    con = conical_model(4, 0.8, 50.0)
    grid = [50.0 * (i + 1) / 100.0 for i in range(100)]
    report = verify_theorem(con, P42, grid, K42 * (0.8**3) ** -0.25, None, 1e-9)
    values = [v for _, v in report.v_profile]
    steps_ok = all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    limit_ok = values[-1] >= -1e-4
    ok = report.verdict == "consistent" and steps_ok and limit_ok
    _line(8, "comparison profile is non-increasing", ok,
          f"v range [{min(values):.4f}, {max(values):.4f}], limit {values[-1]:.4f}")
    assert report.verdict == "consistent", f"violation {report.violation!r}"
    assert steps_ok
    assert limit_ok, f"limit value {values[-1]!r}"


def test_09_gamma_function_identities():
    """beta and K in closed form, and K by the quadrature self-test, against
    the Beta-integral oracle."""
    worst = 0.0
    for m, p in ((3, 2.0), (4, 2.0), (4, 1.5), (6, 3.0), (5, 2.5), (10, 2.5)):
        params = SobolevParams(m, p)
        beta_ref, k_ref = _oracles.sharp_beta_k(m, p)
        quadrature = sharp_constant_detail(params, (1.0,))["values"][1.0]
        worst = max(worst, abs(sharp_beta(params) - beta_ref) / beta_ref,
                    abs(sharp_constant(params) - k_ref) / k_ref,
                    abs(quadrature - k_ref) / k_ref)
    ok = worst <= 1e-12
    _line(9, "beta and K match Gamma closed forms", ok, f"worst rel {worst:.2e}")
    assert worst <= 1e-12, f"worst rel {worst:.3e}"


def test_10_pipeline_determinism(tmp_path):
    argv = ["rigidity", "--m", "4", "--p", "2", "--g", "rational:0.1",
            "--c-m", "estimate", "--gamma", "empirical"]
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    rc1 = main(argv + ["--out", str(first)])
    rc2 = main(argv + ["--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    text = first.read_text()
    consistent = "# verdict=consistent" in text
    ok = rc1 == 0 and rc2 == 0 and identical and consistent
    _line(10, "byte-identical pipeline reruns", ok,
          f"exit {rc1}/{rc2}, {len(text.splitlines())} report lines")
    assert rc1 == 0 and rc2 == 0
    assert identical, "reports differ between runs"
    assert consistent
