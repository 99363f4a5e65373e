"""Tests of the benchmark itself: gate negative controls, its metric list and
the host-speed probe.

Run from the repository root with `python3 -m pytest perfbench`.  Each
altered report, verdict or exit code must count as a failed invocation.
"""

import json

import gate
import run

GOLDEN = json.loads(run.GOLDEN.read_text())
RIGIDITY = ["rigidity", "--m", "4", "--p", "2", "--g", "zero", "--c-m", "0.4"]
CONSTANTS = ["constants", "--m", "4", "--p", "2"]


def golden(argv):
    return GOLDEN[run.golden_key(argv)]


def tally(argv, returncode, stdout):
    """(attempted, failed) after the runner's gate sees one invocation."""
    check = run.Gate(GOLDEN)
    check(argv, run.Child(returncode, stdout, "", 0.0, 0.0, 0.0))
    return check.attempted, check.failed


def test_golden_reports_pass():
    for argv in (RIGIDITY, CONSTANTS):
        entry = golden(argv)
        assert tally(argv, entry["exit"], entry["stdout"]) == (1, 0)


def test_altered_digit_fails():
    text = golden(RIGIDITY)["stdout"]
    assert "C_hat=0.371049256503" in text
    altered = text.replace("C_hat=0.371049256503", "C_hat=0.371049356503")
    assert tally(RIGIDITY, 0, altered) == (1, 1)
    text = golden(CONSTANTS)["stdout"]
    altered = text.replace("K,0.312189205698", "K,0.313189205698")
    assert tally(CONSTANTS, 0, altered) == (1, 1)


def test_altered_digit_fails_without_golden_via_closed_form():
    text = golden(CONSTANTS)["stdout"].replace("beta,0.883004417449", "beta,0.883004427449")
    assert gate.check(CONSTANTS, 0, text, None, None) is not None


def test_change_below_tolerance_passes():
    text = golden(CONSTANTS)["stdout"].replace("K,0.312189205698", "K,0.312189205699")
    assert tally(CONSTANTS, 0, text) == (1, 0)


def test_changed_verdict_fails():
    text = golden(RIGIDITY)["stdout"]
    assert "verdict=consistent" in text
    assert tally(RIGIDITY, 0, text.replace("verdict=consistent", "verdict=violated")) == (1, 1)


def test_wrong_exit_code_fails():
    assert tally(RIGIDITY, 1, golden(RIGIDITY)["stdout"]) == (1, 1)
    seeded = ["rigidity", "--m", "4", "--p", "2", "--g", "zero", "--c-m", "0.41"]
    assert seeded[:-1] == RIGIDITY[:-1] and run.golden_key(seeded) not in GOLDEN
    assert gate.check(seeded, 1, "", None, None) is not None


def test_repeat_that_differs_fails():
    check = run.Gate({})
    argv = ["rigidity", "--m", "4", "--p", "2", "--g", "zero", "--c-m", "0.41"]
    for text in ("same report\n", "same report\n", "other report\n"):
        check(argv, run.Child(0, text, "", 0.0, 0.0, 0.0))
    assert (check.attempted, check.failed) == (3, 1)


def test_closed_form_matches_frozen_values():
    # Frozen values of (beta, K) at (m, p) = (4, 2) and (3, 1.5).
    for (m, p), want in {
        (4, 2.0): (0.883004417448563, 0.31218920569777795),
        (3, 1.5): (0.78159264179677203, 0.26053088059892401),
    }.items():
        got = gate.talenti_beta_k(m, p)
        assert all(gate.close(g, w) for g, w in zip(got, want))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)


def test_seeded_inputs_repeat_and_default_seed_is_the_documented_list():
    for make in run.workloads.WORKLOADS.values():
        assert make(7) == make(7)
    assert run.workloads.model_build(7) != run.workloads.model_build(0)
    # A seeded table gets its own path, so no golden report applies to it.
    table_argvs = [a for a in run.workloads.model_build(7) if any("table:" in x for x in a)]
    assert table_argvs and all(run.golden_key(a) not in GOLDEN for a in table_argvs)
    assert run.workloads.curvature_table(0) == (
        "0 0.3\n1 0.25\n2 0.1\n4 0.02\n8 0.001\n# tail_power=3\n"
    )
    assert run.workloads.profile_scan(0)[0] == ["constants", "--m", "4", "--p", "2"]


def test_traced_invocation_reports_the_same_bytes(tmp_path):
    argv = ["limits", "--m", "4", "--p", "2", "--T", "1", "--lambda", "10,100,1000,10000"]
    trace_path = tmp_path / "trace.json"
    run.WORK.mkdir(parents=True, exist_ok=True)
    env = run.child_env()
    plain = run.run_child(run.radsob_cmd(argv), env)
    traced = run.run_child(
        [run.sys.executable, str(run.HERE / "tracer.py"), str(trace_path), "0:0", *argv], env
    )
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout) == (
        0, golden(argv)["stdout"]
    )
    trace = json.loads(trace_path.read_text())
    metrics = run.layer_metrics([(traced.wall, trace)])
    assert trace["spans"][0][0] == "cli.main" and trace["spans"][0][3] is None
    assert metrics["rigidity.escape_quad_calls"] == metrics["numerics.quad_calls"] > 0
    assert metrics["numerics.quad_evals"] > metrics["numerics.quad_calls"]
    assert metrics["sobolev.quotient_calls"] == metrics["numerics.ivp_calls"] == 0


def test_probe_counts_units_and_stops():
    with run.probe.Probe() as clock:
        start = clock.mark()
        run.time.sleep(0.2)
        end = clock.mark()
        process = clock._process
    if clock.active:
        assert end[1] - start[1] > 0 and clock.seconds(start, end) > 0
        assert not process.is_alive()
    else:
        assert clock.seconds(start, end) == end[0] - start[0]
    assert run.NO_PROBE.seconds((1.0, 5), (3.0, 9)) == 2.0
