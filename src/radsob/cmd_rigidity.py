"""`radsob rigidity`: the constant pipeline (K, C_M, the moment b and
gamma, the corrections C2, C3 and C_hat) on the model of --g, and the
two-sided volume ratio verdict on a grid of radii up to --t-max."""

from types import SimpleNamespace

from .report import _bounded_model, _comment, _config_header, _table
from .rigidity import verify_theorem
from .sharp import SobolevParams


def _rigidity_grid(t_max: float) -> list:
    grid = {t_max * k / 20.0 for k in range(1, 21)}
    grid |= {t for t in (0.5, 1.0, 2.0, 5.0) if t < t_max}
    return sorted(grid)


def run(args: SimpleNamespace) -> tuple:
    params = SobolevParams(args.m, args.p)
    report = verify_theorem(
        _bounded_model(args),
        params,
        _rigidity_grid(args.t_max),
        c_m=args.c_m,
        gamma_value=args.gamma,
        ratio_slack=args.tol,
    )
    records, table = _table(("t", "ratio", "lower", "upper", "pass"), report.ratio_table)
    param_fields = {"m": params.m, "p": params.p, "p_star": params.p_star}
    constants = {"K": report.K, "C_M": report.C_M, "C_M_source": report.C_M_source}
    moment = {"b": report.b, "gamma": report.gamma, "gamma_source": report.gamma_source}
    corrections = {"C2": report.C2, "C3": report.C3, "C_hat": report.C_hat}
    payload = {
        "params": param_fields,
        **constants,
        **moment,
        **corrections,
        "ratio_table": records,
        "v_profile": [{"t": t, "v": v} for t, v in report.v_profile],
        "verdict": report.verdict,
        "violation": report.violation,
    }
    lines = _config_header(args) + [
        _comment(fields) for fields in
        (param_fields, constants, moment, corrections, {"verdict": report.verdict})
    ]
    return report.verdict == "consistent", payload, lines + table
