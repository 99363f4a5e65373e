"""What the five subcommand reports share.

Each `radsob.cmd_*` module builds one subcommand's report from the cells,
tables and configuration header here, and `radsob.cli` rounds a JSON
payload with _json_ready.  Every run that does work loads this module
with its subcommand's module; --help and a usage error load neither.
Floats are written at 12 significant digits, in CSV and JSON alike.
"""

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
    alone, so it is refused before the model is built.  model_manifold is
    imported here, as `constants` and `limits` load this module but build
    no model.
    """
    from .model_manifold import build_model, parse_curvature, upper_chain_factors

    profile = parse_curvature(args.g_spec)
    upper_chain_factors(profile.b, args.m)
    return build_model(args.m, profile, t_max=args.t_max, step=args.step)
