"""`radsob verify`: the Sobolev-side invariants of the profile at each
--lambda scale on the model of --g: its p*-mass and p-energy against
their lower bounds 1 and K^(-p), and the decay of its flux averages."""

from types import SimpleNamespace

from .model_manifold import build_model, parse_curvature
from .report import _checks, _comment, _config_header
from .sharp import SobolevParams, sharp_constant
from .sobolev import gradient_energy, mass_pstar, talenti_function, verify_decay_conditions
from .talenti import TalentiProfile


def run(args: SimpleNamespace) -> tuple:
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
