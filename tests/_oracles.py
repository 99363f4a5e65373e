"""Reference values and reference formulas for the tests.

Everything above the last section uses only the standard library, so the
expected numbers do not depend on the quadrature, the ODE solver, or the
Lanczos gamma implementation being verified.  The frozen tables were
produced from the closed forms below (checked against a 30-digit
evaluation) and from a 30-digit Taylor-method integration of the warping
initial value problem; they pin the oracles themselves against accidental
edits.  The last section holds formulas that tests hold program output
against; they read the package's profiles and functionals, so they check
consistency between two routes, not values.
"""

import math
from array import array

from radsob.sobolev import manifold_integral
from radsob.talenti import cached_beta, profile_split


def ball_volume(m):
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def sphere_area(m):
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


def beta_fn(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def weight_integral(m, p, lam, order):
    """integral over flat R^m of (lam + r^(p/(p-1)))^(-order) dvol.

    With a = m - m/p the substitution s = r^(p/(p-1)) gives
    sphere_area * ((p-1)/p) * lam^(a - order) * B(a, order - a), finite
    for order > a only.
    """
    a = m - m / p
    if order <= a:
        raise ValueError(f"order must exceed m - m/p = {a:g} for convergence")
    return sphere_area(m) * ((p - 1.0) / p) * lam ** (a - order) * beta_fn(a, order - a)


def sharp_beta_k(m, p):
    """Normalisation and sharp constant by reduction to Beta integrals.

    Substituting s = t^(p/(p-1)) turns the mass and energy integrals of
    the extremal profile at lam = 1 into Euler Beta values:

        mass kernel   = ((p-1)/p) B(m - m/p, m/p),
        energy kernel = ((p-1)/p) B(1 + m - m/p, m/p - 1),

    from which beta = (omega_sphere * mass kernel)^(-1/p*) and
    K^(-p) = omega_sphere * ((m-p)/(p-1))^p * beta^p * energy kernel.
    """
    a = m - m / p
    mass = sphere_area(m) * ((p - 1.0) / p) * beta_fn(a, m / p)
    p_star = m * p / (m - p)
    beta = mass ** (-1.0 / p_star)
    energy = (
        sphere_area(m)
        * ((m - p) / (p - 1.0)) ** p
        * ((p - 1.0) / p)
        * beta**p
        * beta_fn(a + 1.0, m / p - 1.0)
    )
    return beta, energy ** (-1.0 / p)


def talenti_k(m, p):
    """Second, fully independent closed form of the sharp constant."""
    return (
        math.pi**-0.5
        * m ** (-1.0 / p)
        * ((p - 1.0) / (m - p)) ** (1.0 - 1.0 / p)
        * (
            math.gamma(1.0 + m / 2.0)
            * math.gamma(m)
            / (math.gamma(m / p) * math.gamma(1.0 + m - m / p))
        )
        ** (1.0 / m)
    )


# (m, p) -> (beta, K), frozen from sharp_beta_k above.
SHARP_TABLE = {
    (3, 1.5): (0.78159264179677203, 0.26053088059892401),
    (3, 2.0): (0.86025401382809963, 0.42726054286252666),
    (3, 2.5): (0.92492783075856483, 0.84326385993852083),
    (4, 1.5): (0.85088271813992321, 0.21064855911867708),
    (4, 2.0): (0.883004417448563, 0.31218920569777795),
    (4, 3.0): (0.91387775811214291, 0.76324562381965158),
    (6, 1.5): (1.3910758663681752, 0.1625306486664222),
    (6, 2.0): (1.246141073285066, 0.22786518979477994),
    (6, 3.0): (0.9945163776010667, 0.41767070620159403),
}


# Warping IVP h'' = G h, h(0) = 0, h'(0) = 1 with G = 2 b0 / (1 + t^2)^2,
# solved by a 30-digit Taylor method and rounded to double precision.
RATIONAL_B1_H = {1.0: 1.2284862549731913, 5.0: 9.4217449703884224, 10.0: 20.725235792593298}
RATIONAL_B1_HP = {1.0: 1.5508831969180257, 10.0: 2.2800565541883449}
RATIONAL_B01_H = {
    1.0: 1.0215953603527666,
    5.0: 5.3699706378829968,
    10.0: 10.872821440390038,
    20.0: 21.894337522783714,
}
RATIONAL_B01_HP = {5.0: 1.0985304366839599, 20.0: 1.1024221744487378}
SINH_1 = 1.1752011936438015

# Geodesic ball volumes of the m=4 model with G = 0.2/(1+t^2)^2, from the
# same 30-digit solution integrated against the area weight.
VOLUME_RATIONAL01 = {1.0: 5.1729916331920054, 5.0: 3746.3798106822894}


def head_m4_p2(lam, T=1.0, beta=SHARP_TABLE[(4, 2.0)][0]):
    """Share of the p*-mass of phi_lam inside radius T for m=4, p=2.

    The density integral reduces under u = s/(lam+s), s = t^2, to the
    cancellation-free polynomial form below with U = T^2/(lam + T^2).
    """
    U = T * T / (lam + T * T)
    return ball_volume(4) * 4.0 * beta**4 * (U**3 / 3.0 - U**4 / 4.0)


# Root of head_m4_p2(lam) = 1e-3 at T = 1, found at 30 digits.
HEAD_CROSSING_1E3 = 14.615694241117555


# -- The warping sweep, step by step --------------------------------------


def rk4_reference(g, t_max, step):
    """Nodes, h and h' of the warping IVP h'' = g h, h(0) = 0, h'(0) = 1.

    The plain RK4 loop that solve_h_ivp must reproduce bit for bit: n =
    round(t_max/step) steps of dt = t_max/n, every stage written out, the
    state checked after each step, and a node column i * dt whose last
    entry is t_max.  Returns three ``array("d")`` columns.
    """
    n = max(1, round(t_max / step))
    dt = t_max / n
    h, v = 0.0, 1.0
    values = array("d", [h])
    derivs = array("d", [v])
    g_here = g(0.0)
    for i in range(n):
        t = i * dt
        g_mid = g(t + 0.5 * dt)
        g_next = g(t + dt)
        k1h, k1v = v, g_here * h
        k2h = v + 0.5 * dt * k1v
        k2v = g_mid * (h + 0.5 * dt * k1h)
        k3h = v + 0.5 * dt * k2v
        k3v = g_mid * (h + 0.5 * dt * k2h)
        k4h = v + dt * k3v
        k4v = g_next * (h + dt * k3h)
        h += dt / 6.0 * (k1h + 2.0 * k2h + 2.0 * k3h + k4h)
        v += dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (math.isfinite(h) and math.isfinite(v)):
            raise ValueError(f"reference state became non-finite near t={t + dt:g}")
        values.append(h)
        derivs.append(v)
        g_here = g_next
    grid = array("d", (i * dt for i in range(n)))
    grid.append(t_max)
    return grid, values, derivs


def hermite_reference(grid, values, derivs, g, t):
    """(h(t), h'(t)) by cubic Hermite interpolation in the cell of t.

    h' takes its end slopes h'' = g h from g at the cell's two nodes.
    """
    dt = grid[1] - grid[0]
    i = min(int(t / dt), len(grid) - 2)
    s = (t - grid[i]) / dt
    s2 = s * s
    s3 = s2 * s
    w = (2.0 * s3 - 3.0 * s2 + 1.0, 3.0 * s2 - 2.0 * s3, s3 - 2.0 * s2 + s, s3 - s2)

    def cubic(y0, y1, d0, d1):
        return y0 * w[0] + y1 * w[1] + dt * (d0 * w[2] + d1 * w[3])

    h = cubic(values[i], values[i + 1], derivs[i], derivs[i + 1])
    hp = cubic(
        derivs[i], derivs[i + 1], g(grid[i]) * values[i], g(grid[i + 1]) * values[i + 1]
    )
    return h, hp


# -- Reference formulas evaluated through the package ----------------------


def phi_second(profile, t):
    """Second derivative of the extremal profile phi_lam, for t > 0."""
    if not (t > 0.0):
        raise ValueError("phi_second requires t > 0; the radial ODE is singular at the origin")
    q, nu = profile.q, profile.nu
    base = profile.lam + t**q
    bracket = (q - 1.0) * base - (nu + 1.0) * q * t**q
    return -profile.coef * nu * q * t ** (q - 2.0) * base ** (-nu - 2.0) * bracket


def yamabe_residual(profile, k, t):
    """Relative residual of the radial Euler-Lagrange equation of phi.

    The profile solves

        |phi'|^(p-2) ((p-1) phi'' + (m-1)/t phi') = -K^(-p) phi^(p*-1)

    for t > 0.  The returned value is (lhs + K^(-p) phi^(p*-1)) divided by
    K^(-p) phi^(p*-1); it vanishes exactly when k is the true sharp
    constant and grows like p * delta under a perturbation k*(1+delta).
    """
    if not (t > 0.0):
        raise ValueError("the radial ODE residual is defined for t > 0")
    m, p = profile.params.m, profile.params.p
    slope = profile.phi_prime(t)
    lhs = abs(slope) ** (p - 2.0) * ((p - 1.0) * phi_second(profile, t) + (m - 1.0) / t * slope)
    rhs = k ** (-p) * profile.phi(t) ** (profile.params.p_star - 1.0)
    return (lhs + rhs) / rhs


def c1(params, lam, b, model):
    """Scale-dependent energy defect constant at witness scale lam.

    C1 multiplies (e^b - 1) by the ratio of two weighted volume integrals
    of the model; it vanishes identically in the flat case and is bounded
    above by C2 uniformly in lam.
    """
    if b < 0.0 or not math.isfinite(b):
        raise ValueError("curvature moment b must be finite and >= 0")
    if b == 0.0:
        return 0.0
    m, p = params.m, params.p
    q = params.conj
    split = profile_split(params, lam)
    num = manifold_integral(
        lambda t: (lam + t**q) ** (-(m - 1)), model, q * (m - 1) - (m - 1.0), split
    )
    den = manifold_integral(lambda t: (lam + t**q) ** (-m), model, q * m - (m - 1.0), split)
    return (
        (m - 1.0)
        * ((m - p) / (p - 1.0)) ** (p - 1.0)
        * cached_beta(params) ** (-p * p / (m - p))
        * math.expm1(b)
        * num
        / (lam * den)
    )


def spot_check(u):
    """Check a witness's deriv against central differences of its eval.

    Raises ValueError where the two differ by more than 1e-6 relative.
    """
    for t in (0.3, 0.7, 1.5, 3.0, 7.0):
        d = t * 1e-6
        fd = (u.eval(t + d) - u.eval(t - d)) / (2.0 * d)
        an = u.deriv(t)
        scale = max(abs(an), abs(fd), 1e-30)
        if abs(fd - an) > 1e-6 * scale:
            raise ValueError(
                f"derivative inconsistent with finite differences at t={t:g}: {an!r} vs {fd!r}"
            )
