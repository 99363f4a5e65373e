"""Correctness gate for benchmark invocations.

An invocation passes when

* its exit code matches the expected one (the golden code, else 0: every
  seeded input is chosen so that all checks pass);
* for an argument vector with a golden report, all non-numeric tokens of
  stdout match and every number is within 1e-8 relative of the golden one
  (the CLI's default --tol), with a 1e-15 absolute floor for values at
  rounding level such as the constants `spread`;
* it is byte-identical to earlier runs of the same argument vector in the
  same benchmark run;
* for `constants`, the reported beta and K match the Talenti closed form
  (stdlib math.gamma) to 1e-8 relative.

Everything here uses only the standard library, so the reference values do
not depend on the code under test.
"""

from __future__ import annotations

import json
import math
import re

REL_TOL = 1e-8
ABS_FLOOR = 1e-15

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def sphere_area(m: int) -> float:
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


def talenti_beta_k(m: int, p: float) -> tuple:
    """Normalisation beta and sharp constant K(m, p) in closed form.

    With a = m - m/p the profile's mass and energy kernels at lam = 1 are
    Euler Beta values: mass = ((p-1)/p) B(a, m/p) and
    energy = ((p-1)/p) B(a+1, m/p-1).  Then
    beta = (|S^(m-1)| mass)^(-1/p*) and
    K^(-p) = |S^(m-1)| ((m-p)/(p-1))^p beta^p energy.
    """

    def beta_fn(x, y):
        return math.gamma(x) * math.gamma(y) / math.gamma(x + y)

    a = m - m / p
    p_star = m * p / (m - p)
    mass = sphere_area(m) * ((p - 1.0) / p) * beta_fn(a, m / p)
    beta = mass ** (-1.0 / p_star)
    energy = (
        sphere_area(m)
        * ((m - p) / (p - 1.0)) ** p
        * ((p - 1.0) / p)
        * beta**p
        * beta_fn(a + 1.0, m / p - 1.0)
    )
    return beta, energy ** (-1.0 / p)


def close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * max(abs(value), abs(reference)) + ABS_FLOOR


def compare_reports(text: str, golden: str) -> str | None:
    """None when text matches golden token by token, else the first difference."""
    got, want = _NUMBER.split(text), _NUMBER.split(golden)
    got_nums, want_nums = _NUMBER.findall(text), _NUMBER.findall(golden)
    if got != want or len(got_nums) != len(want_nums):
        return "non-numeric tokens differ"
    for i, (g, w) in enumerate(zip(got_nums, want_nums)):
        if not close(float(g), float(w)):
            return f"number {i} is {g}, golden {w}"
    return None


def _constants_values(text: str) -> dict:
    if text.lstrip().startswith("{"):
        return json.loads(text)
    values = {}
    for line in text.splitlines():
        name, _, value = line.partition(",")
        if name in ("beta", "K"):
            values[name] = float(value)
    return values


def check_constants(argv: list, text: str) -> str | None:
    """None when the beta and K of a constants report match the closed form."""
    m = int(argv[argv.index("--m") + 1])
    p = float(argv[argv.index("--p") + 1])
    values = _constants_values(text)
    beta, k = talenti_beta_k(m, p)
    for name, want in (("beta", beta), ("K", k)):
        if name not in values:
            return f"{name} missing from the constants report"
        if not close(values[name], want):
            return f"{name} is {values[name]!r}, closed form {want!r}"
    return None


def check(argv: list, returncode: int, stdout: str, golden: dict | None,
          earlier: str | None) -> str | None:
    """None when an invocation passes the gate, else why it failed.

    golden is {"exit": code, "stdout": text} for argument vectors with a
    golden report; earlier is this argument vector's first stdout in the
    current benchmark run.
    """
    expected = golden["exit"] if golden is not None else 0
    if returncode != expected:
        return f"exit code {returncode}, expected {expected}"
    if golden is not None:
        why = compare_reports(stdout, golden["stdout"])
        if why is not None:
            return f"report differs from golden: {why}"
    if earlier is not None and stdout != earlier:
        return "report differs from an earlier run of the same invocation"
    if argv[0] == "constants":
        return check_constants(argv, stdout)
    return None
