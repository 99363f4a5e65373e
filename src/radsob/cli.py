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

COMMANDS maps each subcommand to its function and to the flags it reads;
every subcommand also takes --output and --out, and any other flag is a
usage error.  Each cmd_* returns its verdict, JSON payload and CSV lines,
and main renders and writes the report once.  Reports are deterministic:
fixed row order, floats at 12 significant digits, no timestamps.  Exit
codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
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
from .rigidity import mass_escape_experiment, verify_theorem
from .sobolev import (
    FLUX_RADII,
    DivergentTailError,
    SobolevUnsupportedError,
    TailBoundError,
    gradient_energy,
    mass_pstar,
    talenti_function,
    verify_decay_conditions,
)
from .talenti import SELF_TEST_LAMBDAS, SobolevParams, TalentiProfile, sharp_constant
from .talenti import sharp_constant_detail, sphere_area, unit_ball_volume


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


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _comment(fields: dict) -> str:
    """A `# key=value key=value` report line."""
    return "# " + " ".join(f"{key}={_fmt(value)}" for key, value in fields.items())


def _row(*cells) -> str:
    return ",".join(_fmt(cell) for cell in cells)


def _table(columns: tuple, rows) -> tuple:
    """A report table as JSON records and as CSV lines under a header."""
    return ([dict(zip(columns, row)) for row in rows],
            [",".join(columns)] + [_row(*row) for row in rows])


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


def _positive_or(keyword: str):
    """Parser of --c-m ("estimate") or --gamma ("empirical"): the keyword
    gives None, anything else must be a positive finite number."""

    def parse(text: str) -> float | None:
        return None if text == keyword else _positive_finite(text)

    return parse


# Every flag of the command surface, in help order.
FLAGS = {
    "--m": {"type": int},
    "--p": {"type": float},
    "--lambda": {"dest": "lambda_list", "type": _parse_lambda_list},
    "--g": {"dest": "g_spec"},
    "--t-max": {"dest": "t_max", "type": _positive_finite},
    "--step": {"type": _positive_finite},
    "--tol": {"type": _positive_finite},
    "--c-m": {"dest": "c_m", "type": _positive_or("estimate")},
    "--gamma": {"type": _positive_or("empirical")},
    "--T": {"type": _positive_finite},
    "--output": {"choices": ("csv", "json")},
    "--out": {"dest": "out_path"},
}

# The default of every flag.  Each subcommand gets all of them, so the
# report header echoes the same values whichever flags it takes.
DEFAULTS = {
    "m": 4, "p": 2.0, "lambda_list": (1.0,), "g_spec": "zero", "t_max": 50.0, "step": 1e-3,
    "tol": 1e-8, "c_m": None, "gamma": None, "T": 1.0, "output": "csv", "out_path": None,
}
# limits reads only the large-scale regime (every scale at least 10), so
# its --lambda default is the README grid instead.
LIMITS_LAMBDA = (10.0, 100.0, 1000.0, 10000.0)


def _config_header(args: argparse.Namespace) -> list:
    return [
        _comment({"command": args.command, "m": args.m, "p": args.p, "g": args.g_spec}),
        _comment({"t_max": args.t_max, "step": args.step, "tol": args.tol,
                  "lambda": ",".join(_fmt(x) for x in args.lambda_list)}),
    ]


def _checks(args: argparse.Namespace, rows) -> tuple:
    """JSON head and CSV table of a report made of check rows."""
    records, table = _table(("check_name", "t", "lhs", "rhs", "slack", "pass"), rows)
    head = {
        "command": args.command,
        "params": {"m": args.m, "p": args.p},
        "g": args.g_spec,
        "checks": records,
    }
    return head, table


def _bounded_model(args: argparse.Namespace) -> ModelManifold:
    """The model of --g, for the commands that check the upper bound e^(b m).

    An infinite e^(b m) could never fail and follows from the moment
    alone, so it is refused before the IVP runs.
    """
    profile = parse_curvature(args.g_spec)
    upper_chain_factors(profile.b, args.m)
    return build_model(args.m, profile, t_max=args.t_max, step=args.step)


def cmd_constants(args: argparse.Namespace) -> tuple:
    params = SobolevParams(args.m, args.p)
    lambdas = tuple(sorted(set(SELF_TEST_LAMBDAS) | set(args.lambda_list)))
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
    payload = {
        "command": "constants",
        "params": {"m": args.m, "p": args.p, "p_star": params.p_star},
        **dict(rows),
        "pass": ok,
    }
    lines = _config_header(args) + ["name,value"]
    lines += [_row(*row) for row in rows] + [_row("pass", ok)]
    return ok, payload, lines


def _chain_grid(t_max: float) -> list:
    return [t_max * f for f in (0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8)]


def cmd_model(args: argparse.Namespace) -> tuple:
    report = verify_volume_chain(_bounded_model(args), _chain_grid(args.t_max), slack=args.tol)
    rows = [(c.name, c.t, c.lhs, c.rhs, args.tol, c.passed) for c in report.rows]
    ok = report.all_pass
    head, table = _checks(args, rows)
    lines = _config_header(args) + [_comment({"b": report.b_used}), *table, _comment({"pass": ok})]
    return ok, {**head, "b": report.b_used, "pass": ok}, lines


def cmd_verify(args: argparse.Namespace) -> tuple:
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
        r_grid = [r for r in FLUX_RADII if r <= 0.9 * args.t_max]
        decay = verify_decay_conditions(u, model, r_grid=r_grid)
        s_first = float(decay.flux_rows[0][1])
        s_last = float(decay.flux_rows[-1][1])
        rows.append(("flux_decreasing", lam, s_last, s_first, args.tol,
                     decay.flux_decreasing))
    ok = all(r[5] for r in rows)
    head, table = _checks(args, rows)
    lines = _config_header(args) + table + [_comment({"pass": ok})]
    return ok, {**head, "K": k, "pass": ok}, lines


def _rigidity_grid(t_max: float) -> list:
    grid = {t_max * k / 20.0 for k in range(1, 21)}
    grid |= {t for t in (0.5, 1.0, 2.0, 5.0) if t < t_max}
    return sorted(grid)


def cmd_rigidity(args: argparse.Namespace) -> tuple:
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


def cmd_limits(args: argparse.Namespace) -> tuple:
    params = SobolevParams(args.m, args.p)
    report = mass_escape_experiment(params, args.T, args.lambda_list)
    ok = report.all_pass
    records, table = _table(("lambda", "head", "tail", "sum"), report.rows)
    payload = {
        "command": "limits",
        "params": {"m": args.m, "p": args.p},
        "T": args.T,
        "threshold": report.threshold,
        "crossing": report.crossing,
        "rows": records,
        "pass": ok,
    }
    crossing = "none" if report.crossing is None else report.crossing
    lines = _config_header(args) + [
        _comment({"T": args.T, "threshold": report.threshold}),
        _comment({"crossing": crossing}),
    ]
    lines += table + [_comment({"pass": ok})]
    return ok, payload, lines


# Each subcommand: the function that runs it and the flags it reads.
COMMANDS = {
    "constants": (cmd_constants, ("--m", "--p", "--lambda", "--tol")),
    "model": (cmd_model, ("--m", "--g", "--t-max", "--step", "--tol")),
    "verify": (cmd_verify, ("--m", "--p", "--lambda", "--g", "--t-max", "--step", "--tol")),
    "rigidity": (cmd_rigidity,
                 ("--m", "--p", "--g", "--t-max", "--step", "--tol", "--c-m", "--gamma")),
    "limits": (cmd_limits, ("--m", "--p", "--T", "--lambda")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radsob",
        description="Sharp Sobolev constants and volume comparison on radial models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads) in COMMANDS.items():
        cmd = sub.add_parser(name)
        for flag, spec in FLAGS.items():
            if flag in reads or flag in ("--output", "--out"):
                cmd.add_argument(flag, **spec)
        cmd.set_defaults(**DEFAULTS)
        if name == "limits":
            cmd.set_defaults(lambda_list=LIMITS_LAMBDA)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        ok, payload, lines = COMMANDS[args.command][0](args)
        if args.output == "json":
            # Imported here: most runs print CSV, and the import costs start-up.
            import json

            text = json.dumps(_json_ready(payload), indent=2) + "\n"
        else:
            text = "\n".join(lines) + "\n"
        if args.out_path is None:
            sys.stdout.write(text)
        else:
            with open(args.out_path, "w") as fh:
                fh.write(text)
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
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
