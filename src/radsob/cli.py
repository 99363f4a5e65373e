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

This module is the command surface alone.  COMMANDS maps each
subcommand to the flags it reads; every subcommand also takes --output
and --out, and any other token is a usage error.  parse_args reads argv
in one pass over COMMANDS, FLAGS and DEFAULTS: each flag is `--flag
value` or `--flag=value`, spelled in full, and its last occurrence wins.
Each subcommand's report is built by `run` in a module of its own,
radsob.cmd_<subcommand>, from the helpers in radsob.report: it returns
its verdict, JSON payload and CSV lines, and main renders and writes the
report once.  Every run is a fresh process that pays for each module it
compiles and imports, so the parser is hand-written (importing argparse,
gettext and locale and building a parser took several milliseconds per
run), main imports the one subcommand module the run executes, and that
module the radsob modules it executes and no other: --help or a usage
error loads none.  No radsob module imports this one, which `python -m
radsob.cli` runs as __main__: an import would compile it twice.
Reports are deterministic: fixed row order, floats at 12 significant
digits, no timestamps.  Exit codes: 0 all checks pass, 1 a mathematical
check failed (a report row, or a radsob.CheckFailed raised on the way),
2 usage or input error.
"""

import math
import sys
from types import SimpleNamespace


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


# Each subcommand and the flags it reads; radsob.cmd_<subcommand> runs it.
COMMANDS = {
    "constants": ("--m", "--p", "--lambda", "--tol"),
    "model": ("--m", "--g", "--t-max", "--step", "--tol"),
    "verify": ("--m", "--p", "--lambda", "--g", "--t-max", "--step", "--tol"),
    "rigidity": ("--m", "--p", "--g", "--t-max", "--step", "--tol", "--c-m", "--gamma"),
    "limits": ("--m", "--p", "--T", "--lambda"),
}


HELP = ("-h", "--help")


def _usage(command: str | None) -> str:
    """The help of one subcommand, or of the command when it is None."""
    if command is None:
        return f"usage: radsob {{{','.join(COMMANDS)}}} [flags]; radsob <subcommand> --help\n"
    flags = COMMANDS[command] + REPORT_FLAGS
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
    takes = COMMANDS[command] + REPORT_FLAGS
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
        from importlib import import_module

        from . import CheckFailed

        command = import_module(f".cmd_{args.command}", __package__)
        try:
            ok, payload, lines = command.run(args)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return 1
        if args.output == "json":
            # Imported here: most runs print CSV, and the import costs start-up.
            import json

            from .report import _json_ready

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
