"""Run one `radsob` invocation with spans and counters at module boundaries.

Usage (from the repository root, with src/ on PYTHONPATH):

    python3 perfbench/tracer.py <trace.json> <invocation-id> <radsob args...>

The report goes to stdout and the exit code is the CLI's, exactly as for
`python3 -m radsob.cli <radsob args...>`.  Before calling `radsob.cli.main`
the tracer replaces every public function of the radsob modules, in every
radsob namespace that binds it, by a wrapper, and likewise the methods
TalentiProfile.build, ModelManifold.volume and ModelManifold.area_extended.
A wrapper

* counts every call, and the exceptions that leave it, by name;
* records a span (name, start, end, parent, error) only when its caller is
  in another module, so calls inside a module leave no span;
* at an outermost quadrature or IVP call, counts evaluations of the
  integrand or the curvature callable passed in.

Spans stay in memory and go to <trace.json> when the invocation ends.  The
program's own code is not changed.
"""

from __future__ import annotations

import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

import gate

LAYERS = ("numerics", "talenti", "model_manifold", "sobolev", "rigidity", "cli")

# Functions whose every call (not only cross-module ones) is timed.
TIMED = {"talenti.normalize_beta", "sobolev.quotient_sobolev"}


class Tracer:
    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans = []  # [name, start, end, parent index or None, error name or None]
        self.open = []
        self.calls = Counter()
        self.counts = Counter()
        self.durations = defaultdict(list)
        self.cells = {}

    def counted(self, fn, key):
        """fn behind a call counter; the counters go into counts at dump."""
        cell = self.cells.setdefault(key, [0])

        def counting(t):
            cell[0] += 1
            return fn(t)

        return counting

    def wrap(self, module_name: str, name: str, fn, before=None, after=None):
        """Wrapper for fn, defined in module_name and traced as `name`."""
        calls, counts, spans, open_spans = self.calls, self.counts, self.spans, self.open
        timed = name in TIMED

        def traced(*args, **kwargs):
            calls[name] += 1
            cross = sys._getframe(1).f_globals.get("__name__") != module_name
            if not (cross or timed):
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    counts[f"{name}!{type(exc).__name__}"] += 1
                    raise
            if cross and before is not None:
                args = before(args)
            error = None
            start = perf_counter()
            if cross:
                index = len(spans)
                spans.append([name, start, None, open_spans[-1] if open_spans else None, None])
                open_spans.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                counts[f"{name}!{error}"] += 1
                raise
            finally:
                end = perf_counter()
                if cross:
                    open_spans.pop()
                    spans[index][2] = end
                    spans[index][4] = error
                if timed:
                    self.durations[name].append(end - start)
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self):
        import radsob
        from radsob import cli, model_manifold, talenti

        modules = {layer: getattr(radsob, layer) for layer in LAYERS}

        def count_first_arg(key):
            return lambda args: (self.counted(args[0], key), *args[1:])

        before = {
            "numerics.integrate_finite": count_first_arg("numerics.quad_evals"),
            "numerics.integrate_semi_infinite": count_first_arg("numerics.quad_evals"),
            "numerics.solve_h_ivp": count_first_arg("numerics.ivp_g_evals"),
        }
        after = {"rigidity.estimated_c_m": self._after_search}

        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self.wrap(
                        module.__name__, name, obj, before.get(name), after.get(name)
                    )
        # Rebind every name that refers to a wrapped function, including the
        # ones other modules imported with `from .x import y`.
        for module in (radsob, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

        profile = talenti.TalentiProfile
        profile.build = classmethod(
            self.wrap(talenti.__name__, "talenti.TalentiProfile.build", profile.build.__func__)
        )
        manifold = model_manifold.ModelManifold
        manifold.volume = self.wrap(
            model_manifold.__name__, "model_manifold.ModelManifold.volume", manifold.volume
        )
        area_extended = manifold.area_extended

        def counted_area(model):
            return self.counted(area_extended(model), "model_manifold.area_evals")

        manifold.area_extended = counted_area
        return cli

    def _after_search(self, args, result):
        _, estimate = result
        params = args[1]
        k = gate.talenti_beta_k(params.m, params.p)[1]
        self.counts["sobolev.searches"] += 1
        # Exceeding K by less than the CLI's default tolerance is a rounding
        # tie on the Euclidean model, not a decisive witness.
        if estimate.c_est > k * (1.0 + gate.REL_TOL):
            self.counts["sobolev.decisive_searches"] += 1

    def dump(self, path: str):
        self.counts.update({key: cell[0] for key, cell in self.cells.items()})
        with open(path, "w") as fh:
            json.dump(
                {
                    "invocation": self.invocation,
                    "spans": self.spans,
                    "calls": self.calls,
                    "counts": self.counts,
                    "durations": self.durations,
                },
                fh,
            )


def main(argv) -> int:
    out_path, invocation, *cli_args = argv
    tracer = Tracer(invocation)
    cli = tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
