"""`radsob constants`: the closed forms of (m, p), beta, K and the unit
ball and sphere measures, and the quadrature self-test of K at the
--lambda scales and at SELF_TEST_LAMBDAS.  The run passes when the
self-test's K agrees with the closed form, and across scales, within
--tol."""

from types import SimpleNamespace

from .report import _config_header, _fmt, _row
from .sharp import SobolevParams, sphere_area, unit_ball_volume
from .talenti import SELF_TEST_LAMBDAS, sharp_constant_detail


def run(args: SimpleNamespace) -> tuple:
    params = SobolevParams(args.m, args.p)
    lambdas = tuple(sorted(set(SELF_TEST_LAMBDAS) | set(args.lambda_list)))
    detail = sharp_constant_detail(params, lambdas)
    rows = [
        ("beta", detail["beta"]),
        ("K", detail["K"]),
        ("spread", detail["spread"]),
        ("omega_m", unit_ball_volume(args.m)),
        ("omega_sphere", sphere_area(args.m)),
    ]
    rows += [(f"K_at_lambda_{_fmt(lam)}", k) for lam, k in sorted(detail["values"].items())]
    # K is the closed form; each K_at_lambda row must match it, not only
    # the other scales, so an error that every scale shares fails too.
    ok = detail["spread"] <= args.tol and detail["error"] <= args.tol
    payload = {
        "command": "constants",
        "params": {"m": args.m, "p": args.p, "p_star": params.p_star},
        **dict(rows),
        "pass": ok,
    }
    lines = _config_header(args) + ["name,value"]
    lines += [_row(*row) for row in rows] + [_row("pass", ok)]
    return ok, payload, lines
