"""`radsob model`: the warped model of --g and its area and volume
comparison chains at seven radii up to --t-max, each within --tol."""

from types import SimpleNamespace

from .model_manifold import verify_volume_chain
from .report import _bounded_model, _checks, _comment, _config_header


def _chain_grid(t_max: float) -> list:
    return [t_max * f for f in (0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8)]


def run(args: SimpleNamespace) -> tuple:
    model = _bounded_model(args)
    report = verify_volume_chain(model, _chain_grid(args.t_max), slack=args.tol)
    rows = [(c.name, c.t, c.lhs, c.rhs, args.tol, c.passed) for c in report.rows]
    ok = report.all_pass
    head, table = _checks(args, rows)
    b = model.profile.b
    lines = _config_header(args) + [_comment({"b": b}), *table, _comment({"pass": ok})]
    return ok, {**head, "b": b, "pass": ok}, lines
