"""Command-line front end.

Subcommands:
    constants   closed-form sharp constant and normalisation for (m, p),
                checked against the energy quadrature at several scales
    model       build a warped model from a curvature spec and verify the
                area/volume comparison chains
    verify      Sobolev-side invariants of the scale family on a model
                (mass and energy lower bounds, decay of the flux averages)
    rigidity    full constant pipeline and two-sided volume verdict
    limits      head/tail mass split at a fixed radius across scales

COMMANDS maps each subcommand to its function and to the flags it reads;
every subcommand also takes --output and --out, and any other token is a
usage error.  parse_args reads argv in one pass over COMMANDS, FLAGS and
DEFAULTS: each flag is `--flag value` or `--flag=value`, spelled in full,
and its last occurrence wins.  Each cmd_* returns its verdict, JSON
payload and CSV lines, and main renders and writes the report once.
Every run is a fresh process that pays for each module it imports, so
the parser is hand-written (importing argparse, gettext and locale and
building a parser took several milliseconds per run) and each cmd_*
imports the radsob modules it executes and no other: --help or a usage
error loads none.  Reports are deterministic: fixed row order, floats at 12
significant digits, no timestamps.  Exit codes: 0 all checks pass, 1 a
mathematical check failed (a report row, or a radsob.CheckFailed raised
on the way), 2 usage or input error.
"""

import math
import sys
from types import SimpleNamespace


def _round12(x: float) -> float:
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
        raise ValueError(f"not a number: {text!r}") from None
    if not (0.0 < value < math.inf):
        raise ValueError(f"must be positive and finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """A relative slack: at 1 or above, the lower-bound checks cannot fail."""
    value = _positive_finite(text)
    if value >= 1.0:
        raise ValueError(f"must lie in (0, 1), got {text!r}")
    return value


def _parse_lambda_list(text: str) -> tuple:
    try:
        return tuple(_positive_finite(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --lambda list {text!r}: {exc}") from None


def _positive_or(keyword: str):
    """Parser of --c-m ("estimate") or --gamma ("empirical"): the keyword
    gives None, anything else must be a positive finite number."""

    def parse(text: str) -> float | None:
        return None if text == keyword else _positive_finite(text)

    return parse


def _report_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(f"invalid choice: {text!r} (choose from 'csv', 'json')")
    return text


# Every flag of the command surface, in help order: the args attribute it
# sets and the converter of its value, which raises ValueError.
FLAGS = {
    "--m": ("m", int),
    "--p": ("p", float),
    "--lambda": ("lambda_list", _parse_lambda_list),
    "--g": ("g_spec", str),
    "--t-max": ("t_max", _positive_finite),
    "--step": ("step", _positive_finite),
    "--tol": ("tol", _tolerance),
    "--c-m": ("c_m", _positive_or("estimate")),
    "--gamma": ("gamma", _positive_or("empirical")),
    "--T": ("T", _positive_finite),
    "--output": ("output", _report_format),
    "--out": ("out_path", str),
}
# The flags every subcommand takes besides those it reads.
REPORT_FLAGS = ("--output", "--out")

# The default of every flag.  Each subcommand gets all of them, so the
# report header echoes the same values whichever flags it takes.
DEFAULTS = {
    "m": 4, "p": 2.0, "lambda_list": (1.0,), "g_spec": "zero", "t_max": 50.0, "step": 1e-3,
    "tol": 1e-8, "c_m": None, "gamma": None, "T": 1.0, "output": "csv", "out_path": None,
}
# limits reads only the large-scale regime (every scale at least 10), so
# its --lambda default is the README grid instead.
LIMITS_LAMBDA = (10.0, 100.0, 1000.0, 10000.0)


def _config_header(args: SimpleNamespace) -> list:
    return [
        _comment({"command": args.command, "m": args.m, "p": args.p, "g": args.g_spec}),
        _comment({"t_max": args.t_max, "step": args.step, "tol": args.tol,
                  "lambda": ",".join(_fmt(x) for x in args.lambda_list)}),
    ]


def _checks(args: SimpleNamespace, rows) -> tuple:
    """JSON head and CSV table of a report made of check rows."""
    records, table = _table(("check_name", "t", "lhs", "rhs", "slack", "pass"), rows)
    head = {
        "command": args.command,
        "params": {"m": args.m, "p": args.p},
        "g": args.g_spec,
        "checks": records,
    }
    return head, table


def _bounded_model(args: SimpleNamespace):
    """The ModelManifold of --g, for the commands that check the upper
    bound e^(b m).

    An infinite e^(b m) could never fail and follows from the moment
    alone, so it is refused before the model is built.
    """
    from .model_manifold import build_model, parse_curvature, upper_chain_factors

    profile = parse_curvature(args.g_spec)
    upper_chain_factors(profile.b, args.m)
    return build_model(args.m, profile, t_max=args.t_max, step=args.step)


def cmd_constants(args: SimpleNamespace) -> tuple:
    from .sharp import SobolevParams, sphere_area, unit_ball_volume
    from .talenti import SELF_TEST_LAMBDAS, sharp_constant_detail

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


def _chain_grid(t_max: float) -> list:
    return [t_max * f for f in (0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8)]


def cmd_model(args: SimpleNamespace) -> tuple:
    from .model_manifold import verify_volume_chain

    model = _bounded_model(args)
    report = verify_volume_chain(model, _chain_grid(args.t_max), slack=args.tol)
    rows = [(c.name, c.t, c.lhs, c.rhs, args.tol, c.passed) for c in report.rows]
    ok = report.all_pass
    head, table = _checks(args, rows)
    b = model.profile.b
    lines = _config_header(args) + [_comment({"b": b}), *table, _comment({"pass": ok})]
    return ok, {**head, "b": b, "pass": ok}, lines


def cmd_verify(args: SimpleNamespace) -> tuple:
    from .model_manifold import build_model, parse_curvature
    from .sharp import SobolevParams, sharp_constant
    from .sobolev import gradient_energy, mass_pstar, talenti_function, verify_decay_conditions
    from .talenti import TalentiProfile

    params = SobolevParams(args.m, args.p)
    # The Sobolev-side checks do not use e^(b m), so any moment is built.
    model = build_model(args.m, parse_curvature(args.g_spec), t_max=args.t_max, step=args.step)
    k = sharp_constant(params)
    k_pow = k ** (-params.p)
    rows = []
    for lam in args.lambda_list:
        profile = TalentiProfile.build(params, lam)
        u = talenti_function(profile)
        mass = mass_pstar(u, model)
        energy = gradient_energy(u, model)
        rows.append(("mass_lower", lam, 1.0, mass,
                     args.tol, 1.0 <= mass * (1.0 + args.tol) + args.tol))
        rows.append(("energy_lower", lam, k_pow, energy,
                     args.tol, k_pow <= energy * (1.0 + args.tol)))
        decay = verify_decay_conditions(u, model)
        s_first = decay.flux_rows[0][1]
        s_last = decay.flux_rows[-1][1]
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


def cmd_rigidity(args: SimpleNamespace) -> tuple:
    from .rigidity import verify_theorem
    from .sharp import SobolevParams

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


def cmd_limits(args: SimpleNamespace) -> tuple:
    from .rigidity import ESCAPE_THRESHOLD, mass_escape_experiment
    from .sharp import SobolevParams

    params = SobolevParams(args.m, args.p)
    report = mass_escape_experiment(params, args.T, args.lambda_list)
    ok = report.all_pass
    records, table = _table(("lambda", "head", "tail", "sum"), report.rows)
    payload = {
        "command": "limits",
        "params": {"m": args.m, "p": args.p},
        "T": args.T,
        "threshold": ESCAPE_THRESHOLD,
        "crossing": report.crossing,
        "rows": records,
        "pass": ok,
    }
    crossing = "none" if report.crossing is None else report.crossing
    lines = _config_header(args) + [
        _comment({"T": args.T, "threshold": ESCAPE_THRESHOLD}),
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


HELP = ("-h", "--help")


def _usage(command: str | None) -> str:
    """The help of one subcommand, or of the command when it is None."""
    if command is None:
        return f"usage: radsob {{{','.join(COMMANDS)}}} [flags]; radsob <subcommand> --help\n"
    flags = COMMANDS[command][1] + REPORT_FLAGS
    return " ".join(["usage: radsob", command,
                     *(f"[{flag} {FLAGS[flag][0].upper()}]" for flag in flags)]) + "\n"


def parse_args(argv: list) -> SimpleNamespace | None:
    """The subcommand of argv and the value of every flag, as attributes.

    The first token names the subcommand.  Each flag it takes is `--flag
    value` (a value that starts with "--" is missing, so `--out --help`
    writes no file) or `--flag=value`, converted by its FLAGS converter;
    the last occurrence wins, and a flag not given keeps its DEFAULTS
    value.  Any other token is unrecognized.  -h or --help writes the
    help to stdout and gives None.

    Raises:
        ValueError: no or an unknown subcommand, a flag without a value, a
            value its converter refuses, or unrecognized tokens.
    """
    if not argv:
        raise ValueError(f"a subcommand is required: one of {', '.join(COMMANDS)}")
    command = argv[0]
    if command in HELP:
        sys.stdout.write(_usage(None))
        return None
    if command not in COMMANDS:
        raise ValueError(f"invalid subcommand {command!r} (choose from {', '.join(COMMANDS)})")
    takes = COMMANDS[command][1] + REPORT_FLAGS
    values = dict(DEFAULTS, command=command)
    if command == "limits":
        values["lambda_list"] = LIMITS_LAMBDA
    unrecognized = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in HELP:
            sys.stdout.write(_usage(command))
            return None
        flag, inline, text = token.partition("=")
        if flag not in takes:
            unrecognized.append(token)
            continue
        if not inline:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise ValueError(f"argument {flag}: expected one argument")
        dest, convert = FLAGS[flag]
        try:
            values[dest] = convert(text)
        except ValueError as exc:
            raise ValueError(f"argument {flag}: {exc}") from None
    if unrecognized:
        raise ValueError(f"unrecognized arguments: {' '.join(unrecognized)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        from . import CheckFailed

        try:
            ok, payload, lines = COMMANDS[args.command][0](args)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return 1
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
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
