"""`radsob limits`: the head and tail shares of each --lambda profile's
unit p*-mass inside and outside the radius --T, and the first scale at
which the head drops below ESCAPE_THRESHOLD (the mass escaping to
infinity)."""

from types import SimpleNamespace

from .report import _comment, _config_header, _table
from .rigidity import ESCAPE_THRESHOLD, mass_escape_experiment
from .sharp import SobolevParams


def run(args: SimpleNamespace) -> tuple:
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
