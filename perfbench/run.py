"""End-to-end benchmark of the `radsob` command line, with a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-golden

Workloads and why they were chosen are in perfbench/workloads.py.  One
closed-loop client runs a workload's invocation list pass after pass, each
invocation a fresh `python3 -m radsob.cli` process, with no concurrency.  A
new pass starts only while it is expected to end within --seconds.  Set-up
(seeded inputs, the curvature table file, bytecode warm-up and the setup_s
probes) happens before the timed loop.  Every invocation goes through the
correctness gate in perfbench/gate.py; one that fails counts in `failed`.

Both modes print the end-to-end metrics; --trace 0 reports them:

    wall_s       mean over passes of the pass's summed process wall time
    cpu_s        mean over passes of the children's user+sys CPU (os.wait4)
    peak_rss_mb  median over passes of the largest child peak RSS in the pass
    setup_s      median wall time of `radsob constants --help`, the no-work
                 invocation (interpreter start, import, parser build), over
                 probes spread through the run

The three times are in probe-seconds (perfbench/probe.py): each pass
process's wall and CPU time is rescaled by the host speed that a probe
process on another CPU measured while it ran, so that the load of other
tenants on a shared host does not show as a change of the program.  A
setup_s probe is too short for that (a fraction of a second, over which
one CPU's speed says little about the other's), so setup_s is the median
of the raw probe times rescaled by the host speed over the whole run.
Raw seconds are printed next to them.

With the probe, radsob runs on all CPUs but the probe's one, and the two
swap CPUs from one process to the next: invocation i of pass p runs while
the probe has CPU (p + i) mod 2.  The probe takes out the slowdown that
the whole host shares; what is left differs from CPU to CPU and from pass
to pass, so wall_s and cpu_s average over all passes of the run rather
than take their median.

--trace 1 alternates untraced passes with passes run under
perfbench/tracer.py (a fresh interpreter per invocation as well) and
reports per-layer metrics instead, each the median over traced passes of a
per-pass total.  A span's self time is its duration minus that of its
child spans; spans exist only at cross-module calls, so integrand and
curvature callbacks count toward the quadrature or IVP span that drives
them.  Per-layer times are raw seconds, as the traced process saw them.

    numerics.quad_calls / quad_evals / quad_s / quad_errors
        outermost quadrature calls, integrand evaluations under them, their
        self time, and QuadratureErrors leaving them
    numerics.ivp_calls / ivp_s / ivp_g_evals
        solve_h_ivp calls, self time, curvature evaluations
    talenti.sharp_s      time in sharp_constant(_detail) spans
    talenti.beta_s       time in normalize_beta; beta_computes its calls
    talenti.cache_hit_frac  cached_beta lookups served without normalize_beta
                         over all lookups
    model_manifold.build_s  self time of model builders (IVP excluded)
    model_manifold.area_evals / volume_calls
        calls of area_extended callables, of ModelManifold.volume
    model_manifold.chain_s  time in verify_volume_chain
    sobolev.search_s     time in estimate_radial_constant
    sobolev.quotient_calls / quotient_s_p50
        quotient_sobolev calls and their median duration
    sobolev.tail_rejects TailBoundErrors raised by manifold_integral
    sobolev.search_decisive_frac  searches whose estimate exceeded K (by more
                         than 1e-8 relative) over searches
    sobolev.decay_s      time in verify_decay_conditions
    rigidity.theorem_s / escape_s / escape_quad_calls
        time in verify_theorem, in mass_escape_experiment, and the
        quadrature calls under the latter
    cli.main_self_s      self time of main() (parsing and rendering)
    cli.startup_s        process wall time outside main(), tracer set-up
                         included
    trace.overhead_s     median traced pass wall minus median untraced one,
                         both raw

The traced run also requires the count metrics to repeat exactly between
traced passes.  The last line of stdout is the JSON result; the lines
before it give every metric with its quartiles and sample count, and the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import gate
import probe
import workloads

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
# Paths relative to the repository root, the working directory of every run.
WORK = Path(workloads.WORK)
TRACER = Path("perfbench") / "tracer.py"

NO_WORK = ["constants", "--help"]
# setup_s runs the no-work invocation this often before the timed loop, and
# twice after every pass (once on each CPU), so that its probes sample the
# host over the whole run.
SETUP_PROBES = 4
NO_PROBE = probe.Probe(enabled=False)

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER = {
    "numerics.quad_calls": "count",
    "numerics.quad_evals": "count",
    "numerics.quad_s": "s",
    "numerics.quad_errors": "count",
    "numerics.ivp_calls": "count",
    "numerics.ivp_s": "s",
    "numerics.ivp_g_evals": "count",
    "talenti.sharp_s": "s",
    "talenti.beta_s": "s",
    "talenti.beta_computes": "count",
    "talenti.cache_hit_frac": "ratio",
    "model_manifold.build_s": "s",
    "model_manifold.area_evals": "count",
    "model_manifold.volume_calls": "count",
    "model_manifold.chain_s": "s",
    "sobolev.search_s": "s",
    "sobolev.quotient_calls": "count",
    "sobolev.quotient_s_p50": "s",
    "sobolev.tail_rejects": "count",
    "sobolev.search_decisive_frac": "ratio",
    "sobolev.decay_s": "s",
    "rigidity.theorem_s": "s",
    "rigidity.escape_s": "s",
    "rigidity.escape_quad_calls": "count",
    "cli.main_self_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}
# Counts that must repeat exactly between traced passes.
REPEATED_COUNTS = (
    "numerics.quad_evals",
    "numerics.ivp_g_evals",
    "sobolev.quotient_calls",
    "model_manifold.area_evals",
)
QUAD = ("numerics.integrate_finite", "numerics.integrate_semi_infinite")
BUILDERS = tuple(
    f"model_manifold.{name}"
    for name in ("build_model", "euclidean_model", "model_from_warping", "conical_model")
)


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_mb: float
    speed: float = 1.0  # probe-seconds per second while the process ran

    @property
    def ref_wall(self) -> float:
        return self.wall * self.speed


def run_child(cmd: list, env: dict, clock: probe.Probe = NO_PROBE) -> Child:
    """Run one process to completion; its usage comes from os.wait4."""
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        start = clock.mark()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        end = clock.mark()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = end[0] - start[0]
    return Child(
        returncode=proc.returncode,
        stdout=out.decode(),
        stderr=err_path.read_text(errors="replace"),
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        speed=clock.seconds(start, end) / wall,
    )


def radsob_cmd(argv: list) -> list:
    return [sys.executable, "-m", "radsob.cli", *argv]


def golden_key(argv: list) -> str:
    return " ".join(argv)


class Gate:
    """Applies gate.check to every invocation and keeps the tally."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.first = {}
        self.attempted = 0
        self.failed = 0

    def __call__(self, argv: list, child: Child) -> None:
        key = golden_key(argv)
        why = gate.check(argv, child.returncode, child.stdout, self.golden.get(key),
                         self.first.setdefault(key, child.stdout))
        self.attempted += 1
        if why is not None:
            self.failed += 1
            tail = child.stderr.strip().splitlines()[-1:] or [""]
            print(f"gate failed: radsob {key}: {why} {tail[0]}", file=sys.stderr)


@dataclass
class Pass:
    wall: float  # probe-seconds
    cpu: float  # probe-seconds
    raw_wall: float
    raw_cpu: float
    rss_mb: float
    traces: list


def run_pass(invocations: list, env: dict, check: Gate, traced: bool, number: int,
             clock: probe.Probe) -> Pass:
    wall = cpu = raw_wall = raw_cpu = rss = 0.0
    traces = []
    for i, argv in enumerate(invocations):
        if traced:
            trace_path = WORK / f"trace-{number}-{i}.json"
            cmd = [sys.executable, str(TRACER), str(trace_path), f"{number}:{i}", *argv]
        else:
            cmd = radsob_cmd(argv)
        child = run_child(cmd, env, clock.place(number + i))
        check(argv, child)
        wall += child.ref_wall
        cpu += child.cpu * child.speed
        raw_wall += child.wall
        raw_cpu += child.cpu
        rss = max(rss, child.rss_mb)
        if traced:
            traces.append((child.wall, json.loads(trace_path.read_text())))
            trace_path.unlink()
    return Pass(wall, cpu, raw_wall, raw_cpu, rss, traces)


def summary(values: list) -> tuple:
    """(median, q1, q3) of the samples."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def layer_metrics(traces: list) -> dict:
    """Per-layer totals of one traced pass from its invocations' traces."""
    span_time = defaultdict(float)
    self_time = defaultdict(float)
    totals = defaultdict(float)
    quotient_durations = []
    for process_wall, trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        escape = set()
        for i, (name, start, end, parent, error) in enumerate(spans):
            span_time[name] += end - start
            self_time[name] += end - start - child_time[i]
            if name == "rigidity.mass_escape_experiment" or parent in escape:
                escape.add(i)
            if name in QUAD:
                totals["quad_calls"] += 1
                totals["quad_errors"] += error == "QuadratureError"
                totals["escape_quad_calls"] += parent in escape
            if name == "cli.main":
                totals["startup"] += process_wall - (end - start)
        for key, value in trace["calls"].items():
            totals[f"calls:{key}"] += value
        for key, value in trace["counts"].items():
            totals[key] += value
        quotient_durations += trace["durations"].get("sobolev.quotient_sobolev", [])
        totals["beta_s"] += sum(trace["durations"].get("talenti.normalize_beta", []))

    def ratio(part, whole):
        return part / whole if whole else 0.0

    # normalize_beta runs only on a cached_beta miss.
    lookups = totals["calls:talenti.cached_beta"]
    computes = totals["calls:talenti.normalize_beta"]
    return {
        "numerics.quad_calls": totals["quad_calls"],
        "numerics.quad_evals": totals["numerics.quad_evals"],
        "numerics.quad_s": sum(self_time[name] for name in QUAD),
        "numerics.quad_errors": totals["quad_errors"],
        "numerics.ivp_calls": totals["calls:numerics.solve_h_ivp"],
        "numerics.ivp_s": self_time["numerics.solve_h_ivp"],
        "numerics.ivp_g_evals": totals["numerics.ivp_g_evals"],
        "talenti.sharp_s": span_time["talenti.sharp_constant"]
        + span_time["talenti.sharp_constant_detail"],
        "talenti.beta_s": totals["beta_s"],
        "talenti.beta_computes": computes,
        "talenti.cache_hit_frac": ratio(lookups - computes, lookups),
        "model_manifold.build_s": sum(self_time[name] for name in BUILDERS),
        "model_manifold.area_evals": totals["model_manifold.area_evals"],
        "model_manifold.volume_calls": totals["calls:model_manifold.ModelManifold.volume"],
        "model_manifold.chain_s": span_time["model_manifold.verify_volume_chain"],
        "sobolev.search_s": span_time["sobolev.estimate_radial_constant"],
        "sobolev.quotient_calls": totals["calls:sobolev.quotient_sobolev"],
        "sobolev.quotient_s_p50": statistics.median(quotient_durations)
        if quotient_durations else 0.0,
        "sobolev.tail_rejects": totals["sobolev.manifold_integral!TailBoundError"],
        "sobolev.search_decisive_frac": ratio(
            totals["sobolev.decisive_searches"], totals["sobolev.searches"]
        ),
        "sobolev.decay_s": span_time["sobolev.verify_decay_conditions"],
        "rigidity.theorem_s": span_time["rigidity.verify_theorem"],
        "rigidity.escape_s": span_time["rigidity.mass_escape_experiment"],
        "rigidity.escape_quad_calls": totals["escape_quad_calls"],
        "cli.main_self_s": self_time["cli.main"],
        "cli.startup_s": totals["startup"],
    }


def write_spans(path: Path, traced: list) -> None:
    """All spans of the traced passes, one row each:
    [invocation, name, start, end, parent index within the invocation, error]."""
    rows = [
        [trace["invocation"], *span]
        for p in traced
        for _, trace in p.traces
        for span in trace["spans"]
    ]
    path.write_text(json.dumps(rows))


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "threads": {name: os.environ.get(name) for name in threads},
    }


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))


def setup(name: str, seed: int, env: dict) -> list:
    """Write the seeded inputs and warm bytecode caches; return the argv list."""
    WORK.mkdir(parents=True, exist_ok=True)
    Path(workloads.table_path(seed)).write_text(workloads.curvature_table(seed))
    for cmd in (radsob_cmd(NO_WORK), [sys.executable, str(TRACER), str(WORK / "warm.json"),
                                      "warm", *NO_WORK]):
        child = run_child(cmd, env)
        if child.returncode != 0:
            raise SystemExit(f"radsob does not start: {child.stderr.strip()}")
    return workloads.WORKLOADS[name](seed)


def measure(invocations: list, seconds: float, env: dict, check: Gate,
            pattern: tuple, minimum: int, clock: probe.Probe, setup_probes: list) -> tuple:
    """Run passes for about `seconds`; pass i is traced when pattern[i] is.

    The pattern repeats, the first `minimum` passes always run, and a pass
    starts only while the mean pass so far would end within `seconds`.
    After each pass two more setup_s probes go into `setup_probes`.
    Returns (untraced passes, traced passes).
    """
    plain, traced = [], []
    start = time.perf_counter()
    i = 0
    while True:
        is_traced = pattern[i % len(pattern)]
        (traced if is_traced else plain).append(
            run_pass(invocations, env, check, is_traced, i, clock))
        setup_probes += [run_child(radsob_cmd(NO_WORK), env, clock.place(turn))
                         for turn in (0, 1)]
        i += 1
        elapsed = time.perf_counter() - start
        if i >= minimum and elapsed + elapsed / i > seconds:
            return plain, traced


def write_golden(env: dict) -> int:
    golden = {}
    setup("build_and_scan", workloads.DEFAULT_SEED, env)  # writes the default table
    for name, make in workloads.WORKLOADS.items():
        for argv in make(workloads.DEFAULT_SEED):
            child = run_child(radsob_cmd(argv), env)
            golden[golden_key(argv)] = {"exit": child.returncode, "stdout": child.stdout}
            print(f"{child.returncode} {child.wall:7.3f}s radsob {golden_key(argv)}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def report(name: str, unit: str, values: list, what: str, mean: bool = False) -> float:
    median, q1, q3 = summary(values)
    if mean:
        value = statistics.fmean(values)
        print(f"{name:30s} {value:12.6g} {unit:6s} mean of {len(values)} {what}; "
              f"median {median:.6g}, q1 {q1:.6g}, q3 {q3:.6g}")
        return value
    print(f"{name:30s} {median:12.6g} {unit:6s} median of {len(values)} {what}; "
          f"q1 {q1:.6g}, q3 {q3:.6g}")
    return median


def as_number(value: float, unit: str):
    """Counts as integers when they are whole, everything else as measured."""
    return int(value) if unit == "count" and value == int(value) else value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="rerun the default-seed invocations and store their reports")
    args = parser.parse_args()
    if not (Path("src") / "radsob" / "cli.py").is_file():
        print("run from the repository root: src/radsob/cli.py not found", file=sys.stderr)
        return 2
    env = child_env()
    if args.write_golden:
        return write_golden(env)
    if args.workload is None:
        parser.error("--workload is required")

    invocations = setup(args.workload, args.seed, env)
    check = Gate(json.loads(GOLDEN.read_text()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {len(invocations)} invocations per pass")
    print("environment", json.dumps(environment(), sort_keys=True))
    correct = True
    # A traced run starts with an untraced pass, then runs traced ones: at
    # least two, so that the count metrics can be checked for exact repeats.
    pattern, minimum = ((False,), 1) if args.trace == 0 else ((False, True, True), 3)
    with probe.Probe() as clock:
        print(f"host-speed probe: {'on' if clock.active else 'off (one CPU)'}")
        setup_probes = [run_child(radsob_cmd(NO_WORK), env, clock.place(k))
                        for k in range(SETUP_PROBES)]
        plain, traced = measure(invocations, args.seconds, env, check, pattern, minimum,
                                clock, setup_probes)
    report("raw wall_s", "s", [p.raw_wall for p in plain], "passes, seconds", mean=True)
    report("raw cpu_s", "s", [p.raw_cpu for p in plain], "passes, seconds", mean=True)
    raw_setup = report("raw setup_s", "s", [c.wall for c in setup_probes], "probes, seconds")
    # Probe-seconds per second over every process the run timed.
    speed = (sum(p.wall for p in plain + traced) + sum(c.ref_wall for c in setup_probes)) / (
        sum(p.raw_wall for p in plain + traced) + sum(c.wall for c in setup_probes))
    print(f"{'host speed':30s} {speed:12.6g} probe-s/s over the run")
    end_to_end = {
        "wall_s": report("wall_s", "s", [p.wall for p in plain], "passes", mean=True),
        "cpu_s": report("cpu_s", "s", [p.cpu for p in plain], "passes", mean=True),
        "peak_rss_mb": report("peak_rss_mb", "MiB", [p.rss_mb for p in plain], "passes"),
        "setup_s": raw_setup * speed,
    }
    print(f"{'setup_s':30s} {end_to_end['setup_s']:12.6g} s      raw setup_s times host speed")
    if args.trace == 0:
        metrics, units = end_to_end, END_TO_END
    else:
        per_pass = [layer_metrics(p.traces) for p in traced]
        metrics = {
            name: report(name, unit, [m[name] for m in per_pass], "traced passes")
            for name, unit in PER_LAYER.items() if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = (
            statistics.median(p.raw_wall for p in traced)
            - statistics.median(p.raw_wall for p in plain)
        )
        print(f"{'trace.overhead_s':30s} {metrics['trace.overhead_s']:12.6g} s      "
              f"{len(traced)} traced and {len(plain)} untraced passes")
        for name in REPEATED_COUNTS:
            if len({m[name] for m in per_pass}) != 1:
                correct = False
                print(f"count {name} differs between traced passes: "
                      f"{[m[name] for m in per_pass]}", file=sys.stderr)
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
        write_spans(spans_path, traced)
        print(f"spans of the traced passes written to {spans_path}")
        units = PER_LAYER
    fail_frac = check.failed / check.attempted
    print(f"gate: {check.attempted} invocations attempted, {check.failed} failed "
          f"(fail_frac {fail_frac:g})")
    print(json.dumps({
        "correct": correct and check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": as_number(value, units[name]), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
