"""Command-line front end.

Subcommands:
    constants   sharp constant and normalisation for (m, p), with the
                scale-invariance spread as a self-check
    model       build a warped model from a curvature spec and verify the
                area/volume comparison chains
    verify      Sobolev-side invariants of the scale family on a model
                (mass and energy lower bounds, decay of the flux averages)
    rigidity    full constant pipeline and two-sided volume verdict
    limits      head/tail mass split at a fixed radius across scales

Reports are deterministic: fixed row order, floats at 12 significant
digits, no timestamps.  Exit codes: 0 all checks pass, 1 a mathematical
check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .model_manifold import (
    ModelManifold,
    build_model,
    parse_curvature,
    upper_chain_factors,
    verify_volume_chain,
)
from .numerics import OdeError, QuadratureError
from .rigidity import _fmt, mass_escape_experiment, verify_theorem
from .sobolev import (
    DivergentTailError,
    SobolevUnsupportedError,
    TailBoundError,
    gradient_energy,
    mass_pstar,
    talenti_function,
    verify_decay_conditions,
)
from .talenti import SobolevParams, TalentiProfile, sharp_constant, sharp_constant_detail
from .talenti import sphere_area, unit_ball_volume


def _round12(x: float) -> float:
    if not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


def _json_ready(obj):
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


DEFAULT_LAMBDAS = (1.0,)


def _positive_finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _parse_lambda_list(text: str) -> tuple:
    try:
        return tuple(_positive_finite(part) for part in text.split(","))
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"bad --lambda list {text!r}: {exc}") from None


def _positive_or_auto(text: str) -> float | None:
    """--c-m and --gamma: "estimate"/"empirical" (None) or a positive finite number."""
    if text in ("estimate", "empirical"):
        return None
    return _positive_finite(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radsob",
        description="Sharp Sobolev constants and volume comparison on radial models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("constants", "model", "verify", "rigidity", "limits"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--m", type=int, default=4)
        cmd.add_argument("--p", type=float, default=2.0)
        cmd.add_argument("--lambda", dest="lambda_list", type=_parse_lambda_list,
                         default=DEFAULT_LAMBDAS)
        cmd.add_argument("--g", dest="g_spec", default="zero")
        cmd.add_argument("--t-max", dest="t_max", type=_positive_finite, default=50.0)
        cmd.add_argument("--step", type=_positive_finite, default=1e-3)
        cmd.add_argument("--tol", type=_positive_finite, default=1e-8)
        cmd.add_argument("--c-m", dest="c_m", type=_positive_or_auto, default="estimate")
        cmd.add_argument("--gamma", type=_positive_or_auto, default="empirical")
        cmd.add_argument("--T", type=_positive_finite, default=1.0)
        cmd.add_argument("--output", choices=("csv", "json"), default="csv")
        cmd.add_argument("--out", dest="out_path", default=None)
    return parser


def _config_header(args: argparse.Namespace) -> list:
    return [
        f"# command={args.command} m={args.m} p={_fmt(float(args.p))} g={args.g_spec}",
        f"# t_max={_fmt(float(args.t_max))} step={_fmt(float(args.step))} "
        f"tol={_fmt(float(args.tol))} lambda={','.join(_fmt(float(x)) for x in args.lambda_list)}",
    ]


def _emit(args: argparse.Namespace, lines_or_obj) -> None:
    if args.output == "json":
        text = json.dumps(_json_ready(lines_or_obj), indent=2) + "\n"
    else:
        text = "\n".join(lines_or_obj) + "\n"
    if args.out_path is not None:
        with open(args.out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_rows_csv(args: argparse.Namespace, rows) -> list:
    lines = _config_header(args)
    lines.append("check_name,t,lhs,rhs,slack,pass")
    for name, t, lhs, rhs, slack, ok in rows:
        lines.append(",".join([name, _fmt(float(t)), _fmt(float(lhs)),
                               _fmt(float(rhs)), _fmt(float(slack)), _fmt(ok)]))
    return lines


def _check_rows_json(args: argparse.Namespace, rows) -> dict:
    return {
        "command": args.command,
        "params": {"m": args.m, "p": args.p},
        "g": args.g_spec,
        "checks": [
            {"check_name": name, "t": t, "lhs": lhs, "rhs": rhs, "slack": slack, "pass": ok}
            for name, t, lhs, rhs, slack, ok in rows
        ],
    }


def _bounded_model(args: argparse.Namespace) -> ModelManifold:
    """The model of --g, for the commands that check the upper bound e^(b m).

    An infinite e^(b m) could never fail and follows from the moment
    alone, so it is refused before the IVP runs.
    """
    profile = parse_curvature(args.g_spec)
    upper_chain_factors(profile.b, args.m)
    return build_model(args.m, profile, t_max=args.t_max, step=args.step)


def cmd_constants(args: argparse.Namespace) -> int:
    params = SobolevParams(args.m, args.p)
    lambdas = tuple(sorted(set((1.0, 0.5, 5.0, 20.0)) | set(args.lambda_list)))
    detail = sharp_constant_detail(params, lambdas=lambdas)
    rows = [
        ("beta", detail["beta"]),
        ("K", detail["K"]),
        ("spread", detail["spread"]),
        ("omega_m", unit_ball_volume(args.m)),
        ("omega_sphere", sphere_area(args.m)),
    ]
    rows += [(f"K_at_lambda_{_fmt(lam)}", k) for lam, k in sorted(detail["values"].items())]
    ok = detail["spread"] <= args.tol
    if args.output == "json":
        payload = {
            "command": "constants",
            "params": {"m": args.m, "p": args.p, "p_star": params.p_star},
            **{name: value for name, value in rows},
            "pass": ok,
        }
        _emit(args, payload)
    else:
        lines = _config_header(args) + ["name,value"]
        lines += [f"{name},{_fmt(value)}" for name, value in rows]
        lines.append(f"pass,{_fmt(ok)}")
        _emit(args, lines)
    return 0 if ok else 1


def _chain_grid(t_max: float) -> list:
    return [t_max * f for f in (0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8)]


def cmd_model(args: argparse.Namespace) -> int:
    report = verify_volume_chain(_bounded_model(args), _chain_grid(args.t_max), slack=args.tol)
    rows = [(c.name, c.t, c.lhs, c.rhs, args.tol, c.passed) for c in report.rows]
    if args.output == "json":
        payload = _check_rows_json(args, rows)
        payload["b"] = report.b_used
        payload["pass"] = report.all_pass
        _emit(args, payload)
    else:
        lines = _check_rows_csv(args, rows)
        lines.insert(2, f"# b={_fmt(float(report.b_used))}")
        lines.append(f"# pass={_fmt(report.all_pass)}")
        _emit(args, lines)
    return 0 if report.all_pass else 1


def cmd_verify(args: argparse.Namespace) -> int:
    params = SobolevParams(args.m, args.p)
    # The Sobolev-side checks do not use e^(b m), so any moment is built.
    model = build_model(args.m, parse_curvature(args.g_spec), t_max=args.t_max, step=args.step)
    k = sharp_constant(params)
    k_pow = k ** (-params.p)
    rows = []
    for lam in args.lambda_list:
        profile = TalentiProfile.build(params, lam)
        u = talenti_function(profile)
        mass = float(mass_pstar(u, model))
        energy = float(gradient_energy(u, model))
        rows.append(("mass_lower", lam, 1.0, mass,
                     args.tol, bool(1.0 <= mass * (1.0 + args.tol) + args.tol)))
        rows.append(("energy_lower", lam, k_pow, energy,
                     args.tol, bool(k_pow <= energy * (1.0 + args.tol))))
        r_grid = [r for r in (2.0, 5.0, 10.0, 20.0, 40.0) if r <= 0.9 * args.t_max]
        decay = verify_decay_conditions(u, model, r_grid=r_grid)
        s_first = float(decay.flux_rows[0][1])
        s_last = float(decay.flux_rows[-1][1])
        rows.append(("flux_decreasing", lam, s_last, s_first, args.tol,
                     bool(decay.flux_decreasing and decay.l1_finite)))
    all_pass = all(r[5] for r in rows)
    if args.output == "json":
        payload = _check_rows_json(args, rows)
        payload["K"] = k
        payload["pass"] = all_pass
        _emit(args, payload)
    else:
        lines = _check_rows_csv(args, rows)
        lines.append(f"# pass={_fmt(all_pass)}")
        _emit(args, lines)
    return 0 if all_pass else 1


def _rigidity_grid(t_max: float) -> list:
    grid = {t_max * k / 20.0 for k in range(1, 21)}
    grid |= {t for t in (0.5, 1.0, 2.0, 5.0) if t < t_max}
    return sorted(grid)


def cmd_rigidity(args: argparse.Namespace) -> int:
    params = SobolevParams(args.m, args.p)
    report = verify_theorem(
        _bounded_model(args),
        params,
        _rigidity_grid(args.t_max),
        c_m=args.c_m,
        gamma_value=args.gamma,
        ratio_slack=args.tol,
    )
    if args.output == "json":
        _emit(args, report.to_json_dict())
    else:
        _emit(args, _config_header(args) + report.to_csv_lines())
    return 0 if report.verdict == "consistent" else 1


def cmd_limits(args: argparse.Namespace) -> int:
    params = SobolevParams(args.m, args.p)
    report = mass_escape_experiment(params, args.T, args.lambda_list)
    if args.output == "json":
        payload = {
            "command": "limits",
            "params": {"m": args.m, "p": args.p},
            "T": args.T,
            "threshold": report.threshold,
            "crossing": report.crossing,
            "rows": [
                {"lambda": lam, "head": head, "tail": tail, "sum": total}
                for lam, head, tail, total in report.rows
            ],
            "pass": report.all_pass,
        }
        _emit(args, payload)
    else:
        lines = _config_header(args)
        lines.append(f"# T={_fmt(float(args.T))} threshold={_fmt(report.threshold)}")
        crossing = "none" if report.crossing is None else _fmt(report.crossing)
        lines.append(f"# crossing={crossing}")
        lines.append("lambda,head,tail,sum")
        for lam, head, tail, total in report.rows:
            lines.append(",".join([_fmt(lam), _fmt(head), _fmt(tail), _fmt(total)]))
        lines.append(f"# pass={_fmt(report.all_pass)}")
        _emit(args, lines)
    return 0 if report.all_pass else 1


_DISPATCH = {
    "constants": cmd_constants,
    "model": cmd_model,
    "verify": cmd_verify,
    "rigidity": cmd_rigidity,
    "limits": cmd_limits,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: an input is outside the representable range ({exc})", file=sys.stderr)
        return 2
    except (QuadratureError, OdeError, TailBoundError, DivergentTailError,
            SobolevUnsupportedError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
