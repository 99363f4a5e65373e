"""Exit codes, report schemas, and determinism of the command line front end.

main() is driven in-process with explicit argv lists; one test goes
through ``python -m radsob.cli`` to cover the module entry point.  The
README invocations and four more rigidity runs are pinned byte for byte
to the reports stored in perfbench/golden.json, which these tests only
read.
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from radsob import model_manifold
from radsob.cli import DEFAULT_LAMBDAS, build_parser, main

import _oracles

try:
    from hypothesis import example, given, settings, strategies as st

    HAS_HYPOTHESIS = True
except ImportError:
    HAS_HYPOTHESIS = False

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"

README_INVOCATIONS = (
    "constants --m 4 --p 2",
    "model --g rational:0.1 --t-max 20 --step 1e-2",
    "verify --m 4 --p 2 --g zero --lambda 0.5,1",
    "rigidity --m 4 --p 2 --g rational:0.1 --c-m estimate --gamma empirical",
    "limits --m 4 --p 2 --T 1 --lambda 10,100,1000,10000",
    "verify --g rational:0.1 --lambda 1,5 --t-max 80",
)

# Both cases of the theorem, with a user and an estimated C_M, in CSV and JSON.
RIGIDITY_INVOCATIONS = (
    "rigidity --m 3 --p 1.5 --g rational:0.1 --c-m 0.3 --output json",
    "rigidity --m 4 --p 2 --g rational:0.1 --c-m 0.35",
    "rigidity --m 4 --p 2 --g zero",
    "rigidity --m 4 --p 2 --g zero --c-m 0.4",
)


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out


def test_parser_defaults():
    args = build_parser().parse_args(["model"])
    assert args.m == 4 and args.p == 2.0
    assert args.lambda_list == DEFAULT_LAMBDAS
    assert args.g_spec == "zero" and args.t_max == 50.0 and args.step == 1e-3
    assert args.tol == 1e-8 and args.output == "csv" and args.out_path is None


def test_exit_codes_usage_errors(capsys, tmp_path):
    tables = {
        "nan_value": "0 0.3\n1 nan\n2 0.1\n# tail_power=3\n",
        "inf_value": "0 inf\n1 0.25\n2 0.1\n# tail_power=3\n",
        "nan_node": "0 0.3\nnan 0.25\n2 0.1\n# tail_power=3\n",
        "inf_last_node": "0 0.3\n1 0.25\ninf 0.1\n# tail_power=3\n",
        "inf_tail_power": "0 0.3\n1 0.25\n2 0.1\n# tail_power=inf\n",
    }
    table_cases = []
    for name, text in tables.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        table_cases.append(["model", "--g", f"table:{path}"])
        table_cases.append(["rigidity", "--g", f"table:{path}", "--c-m", "0.5"])
    cases = table_cases + [
        ["constants", "--m", "2", "--p", "2"],
        ["constants", "--badflag"],
        ["nosuch"],
        ["constants", "--output", "yaml"],
        ["constants", "--p", "abc"],
        ["constants", "--lambda", ""],
        ["model", "--g", "bogus:1"],
        ["limits", "--lambda", "5,10"],
        ["rigidity", "--g", "zero", "--c-m", "0.1"],
        ["rigidity", "--g", "zero", "--c-m", "abc"],
        ["rigidity", "--g", "const:1:inf", "--c-m", "0.5"],
        ["rigidity", "--g", "const:1:inf"],
        ["rigidity", "--g", "zero", "--gamma", "-1", "--c-m", "0.4"],
        ["rigidity", "--g", "rational:0.1", "--gamma", "nan", "--c-m", "0.4"],
        ["model", "--step", "0"],
        ["model", "--t-max", "inf"],
        ["model", "--t-max", "-1"],
        ["limits", "--T", "0"],
        ["limits", "--T", "nan"],
        ["constants", "--m", "50", "--p", "2"],
        ["constants", "--m", "4", "--p", "1.01"],
        ["limits", "--lambda", "10,1e300"],
        ["constants", "--tol", "nan"],
        ["constants", "--tol", "-1"],
        ["constants", "--tol", "0"],
        ["rigidity", "--g", "rational:0.1", "--c-m", "inf"],
        ["rigidity", "--g", "zero", "--c-m", "nan"],
        ["constants", "--lambda", "-1"],
        ["constants", "--lambda", "nan"],
        ["verify", "--t-max", "1", "--step", "1e-2"],
        ["verify", "--g", "zero", "--t-max", "5"],
        ["model", "--g", "const:0.1:nan"],
        ["rigidity", "--g", "zero", "--t-max", "1e-300", "--step", "1e-2", "--c-m", "0.4"],
        ["model", "--g", "const:0.1:inf", "--t-max", "1e-300", "--step", "1e-2"],
        ["model", "--g", "const:0.1:inf", "--t-max", "20", "--step", "1e-2"],
    ]
    for argv in cases:
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2, f"argv {argv!r} gave exit {rc}, want 2"
        assert "error: " in err, f"argv {argv!r} gave no error line: {err!r}"


def test_model_refuses_infinite_upper_bound_before_the_ivp():
    """b = 50000 makes e^(b m) infinite: the refusal is the whole of stderr,
    with no overflow from a model built first."""
    proc = subprocess.run(
        [sys.executable, "-m", "radsob.cli", "model", "--g", "const:1000:10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "error: the upper bound e^(b m) is infinite at b=50000; the chain cannot fail\n"
    )


def test_rigidity_refuses_infinite_upper_bound_before_the_ivp(capsys, monkeypatch):
    """The ratio table's upper bound e^(m b) is refused from the moment, as in
    `model`: no IVP runs, and no overflow reaches stderr."""
    solved = []
    monkeypatch.setattr(model_manifold, "solve_h_ivp", lambda *args: solved.append(args))
    for spec, b in (("const:10:10", "500"), ("const:1000:10", "50000"), ("const:1:inf", "inf")):
        assert main(["rigidity", "--g", spec, "--c-m", "0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: the upper bound e^(b m) is infinite at b={b}; the chain cannot fail\n"
        )
    assert solved == []


def test_cli_import_does_not_load_numpy():
    """The package has no runtime dependency; numpy must not come back."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, radsob.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_exit_code_one_when_a_check_fails(capsys):
    """The default window cannot certify the tail of a wide witness."""
    rc = main(["verify", "--g", "rational:0.1", "--lambda", "5"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "check failed" in captured.err


def test_constants_csv_schema(capsys):
    rc, out = _run(capsys, ["constants", "--m", "4", "--p", "2"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# command=constants") and lines[1].startswith("# t_max=")
    assert lines[2] == "name,value"
    table = dict(line.split(",") for line in lines[3:])
    for key in ("beta", "K", "spread", "omega_m", "omega_sphere", "pass"):
        assert key in table, f"missing row {key}"
    k_rows = [k for k in table if k.startswith("K_at_lambda_")]
    assert len(k_rows) == 4
    _, k_oracle = _oracles.sharp_beta_k(4, 2.0)
    assert abs(float(table["K"]) - k_oracle) / k_oracle < 1e-9
    assert float(table["spread"]) < 1e-12
    assert table["pass"] == "true"


def test_constants_json_schema(capsys):
    rc, out = _run(capsys, ["constants", "--output", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["command"] == "constants"
    assert payload["params"] == {"m": 4, "p": 2.0, "p_star": 4.0}
    assert payload["pass"] is True
    assert 0.0 < payload["K"] < payload["beta"]


def test_constants_strict_tolerance_fails(capsys):
    rc, out = _run(capsys, ["constants", "--tol", "1e-17"])
    assert rc == 1
    assert "pass,false" in out


def test_model_csv_schema(capsys):
    rc, out = _run(capsys, ["model", "--g", "rational:0.1", "--t-max", "20", "--step", "1e-2"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[2] == "# b=0.1"
    assert lines[3] == "check_name,t,lhs,rhs,slack,pass"
    assert lines[-1] == "# pass=true"
    data = [line for line in lines if not line.startswith("#") and line != lines[3]]
    names = {row.split(",")[0] for row in data}
    assert {"lower_area", "upper_area"} <= names, f"names {names!r}"
    for row in data:
        cells = row.split(",")
        assert len(cells) == 6 and cells[5] == "true"


def test_verify_csv_three_checks_per_scale(capsys):
    rc, out = _run(capsys, ["verify", "--g", "zero", "--lambda", "0.5,1"])
    assert rc == 0
    lines = out.strip().split("\n")
    data = [line for line in lines if not line.startswith("#")][1:]
    assert len(data) == 6
    names = [row.split(",")[0] for row in data]
    assert names == ["mass_lower", "energy_lower", "flux_decreasing"] * 2
    assert lines[-1] == "# pass=true"


def test_limits_csv_schema(capsys):
    rc, out = _run(capsys, ["limits", "--lambda", "10,100,1000"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[2] == "# T=1 threshold=0.01"
    assert lines[3] == "# crossing=10"
    assert lines[4] == "lambda,head,tail,sum"
    rows = [line.split(",") for line in lines[5:-1]]
    assert len(rows) == 3
    heads = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(heads, heads[1:]))
    for r in rows:
        assert abs(float(r[3]) - 1.0) < 1e-9
    assert lines[-1] == "# pass=true"


def test_rigidity_csv_flat_user_constant(capsys):
    rc, out = _run(capsys, ["rigidity", "--g", "zero", "--c-m", "0.35"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert any(line == "# verdict=consistent" for line in lines), out
    assert "t,ratio,lower,upper,pass" in lines
    data = [line for line in lines if not line.startswith("#")][1:]
    assert len(data) == 23
    for row in data:
        assert row.split(",")[4] == "true"


def test_rigidity_flat_estimate_is_exactly_k(capsys):
    """No witness search on a profile model: C_M is K and v is exactly 0."""
    rc, out = _run(capsys, ["rigidity", "--g", "zero", "--output", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["C_M_source"] == "estimate" and payload["C_M"] == payload["K"]
    assert [row["v"] for row in payload["v_profile"]] == [0.0] * 23


def test_rigidity_table_model_estimate(tmp_path, capsys):
    """A table model at the default window takes C_M = K without a search."""
    table = tmp_path / "curvature.txt"
    table.write_text("0 0.3\n1 0.25\n2 0.1\n4 0.02\n8 0.001\n# tail_power=3\n")
    rc, out = _run(capsys, ["rigidity", "--m", "4", "--p", "2", "--g", f"table:{table}"])
    assert rc == 0, out
    constants = next(line for line in out.split("\n") if line.startswith("# K="))
    k, c_m, source = (field.split("=")[1] for field in constants[2:].split())
    assert source == "estimate" and c_m == k


def test_rigidity_json_key_order(capsys):
    rc, out = _run(capsys, ["rigidity", "--g", "zero", "--c-m", "0.35", "--output", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert list(payload.keys()) == [
        "params", "K", "C_M", "C_M_source", "b", "gamma", "gamma_source",
        "C2", "C3", "C_hat", "ratio_table", "v_profile", "verdict", "violation",
    ]
    assert payload["verdict"] == "consistent" and payload["violation"] is None
    assert payload["C_M_source"] == "user" and payload["b"] == 0.0


def test_out_file_matches_stdout(tmp_path, capsys):
    rc, out = _run(capsys, ["constants"])
    assert rc == 0
    target = tmp_path / "constants.csv"
    rc2 = main(["constants", "--out", str(target)])
    captured = capsys.readouterr()
    assert rc2 == 0 and captured.out == ""
    assert target.read_text() == out


def test_reports_are_deterministic(tmp_path, capsys):
    pairs = [
        ["model", "--g", "rational:0.1", "--t-max", "20", "--step", "1e-2"],
        ["rigidity", "--g", "zero", "--c-m", "0.35", "--output", "json"],
    ]
    for argv in pairs:
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes(), f"nondeterministic output for {argv!r}"


def test_bad_out_path_is_usage_error(tmp_path, capsys):
    rc = main(["constants", "--out", str(tmp_path / "missing" / "x.csv")])
    capsys.readouterr()
    assert rc == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "radsob.cli", "constants"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "pass,true" in proc.stdout


def test_readme_reports_match_golden(capsys):
    golden = json.loads(GOLDEN.read_text())
    for invocation in README_INVOCATIONS + RIGIDITY_INVOCATIONS:
        rc, out = _run(capsys, invocation.split())
        want = golden[invocation]
        assert rc == want["exit"], f"{invocation!r} exited {rc}, golden {want['exit']}"
        assert out == want["stdout"], f"{invocation!r} report differs from golden.json"


if HAS_HYPOTHESIS:
    # Each flag takes a degenerate value or an ordinary one; the ordinary
    # values come first so that shrinking reports the degenerate culprit.
    _DEGENERATE = ["nan", "inf", "-inf", "0", "-1"]

    @given(
        command=st.sampled_from(["constants", "limits", "rigidity"]),
        p=st.sampled_from(["2", "1.5", "3", *_DEGENERATE]),
        tol=st.sampled_from(["1e-8", *_DEGENERATE]),
        c_m=st.sampled_from(["estimate", "0.4", *_DEGENERATE]),
        lam=st.sampled_from(["1", "10,100", "10,-1", *_DEGENERATE]),
        T=st.sampled_from(["1", "2", *_DEGENERATE]),
    )
    @example(command="constants", p="2", tol="1e-8", c_m="estimate", lam="-1", T="1")
    @example(command="constants", p="2", tol="1e-8", c_m="estimate", lam="0", T="1")
    @settings(max_examples=200, deadline=None)
    def test_exit_code_contract_over_degenerate_flags(command, p, tol, c_m, lam, T):
        """Every input ends in exit 0, 1 or 2, never in a traceback."""
        argv = [command, f"--p={p}", f"--tol={tol}", f"--c-m={c_m}", f"--lambda={lam}", f"--T={T}"]
        if command == "rigidity":
            argv.append("--g=zero")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = main(argv)
        assert rc in (0, 1, 2), f"argv {argv!r} gave exit {rc!r}"

    _CURVATURES = [
        "zero", "rational:0.1", "const:0.1:2", "const:0.1:inf",
        *(f"rational:{x}" for x in _DEGENERATE),
        *(f"const:{x}:2" for x in _DEGENERATE),
        *(f"const:0.1:{x}" for x in _DEGENERATE),
    ]

    # Small windows only: t_max / step sizes the IVP arrays, so no positive
    # step below 1e-3 is drawn.
    @given(
        command=st.sampled_from(["model", "verify", "rigidity"]),
        m=st.sampled_from(["4", "3", "5", "2", "nan", "0", "-1"]),
        step=st.sampled_from(["1e-2", "5e-3", "1e-3", *_DEGENERATE]),
        t_max=st.sampled_from(["8", "5", "3", "1", "1e-300", *_DEGENERATE]),
        gamma=st.sampled_from(["empirical", "0.9", *_DEGENERATE]),
        g=st.sampled_from(_CURVATURES),
    )
    @example(command="verify", m="4", step="1e-2", t_max="1", gamma="empirical", g="zero")
    @example(command="model", m="4", step="1e-2", t_max="5", gamma="empirical", g="const:0.1:nan")
    @example(command="rigidity", m="4", step="1e-2", t_max="1e-300", gamma="empirical", g="zero")
    @example(command="model", m="4", step="1e-2", t_max="1e-300", gamma="empirical",
             g="const:0.1:inf")
    @settings(max_examples=150, deadline=None)
    def test_exit_code_contract_over_model_flags(command, m, step, t_max, gamma, g):
        """model, verify and rigidity end in exit 0, 1 or 2 with no traceback;
        exit 2 names the bad input, and no report prints a nan."""
        argv = [command, f"--m={m}", f"--step={step}", f"--t-max={t_max}", f"--gamma={gamma}",
                f"--g={g}", "--c-m=1"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2), f"argv {argv!r} gave exit {rc!r}"
        assert rc != 2 or "error: " in err.getvalue(), f"argv {argv!r} gave no error line"
        assert "nan" not in out.getvalue(), f"argv {argv!r} reported a nan"
