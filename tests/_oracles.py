"""Reference values and reference formulas for the tests.

Everything above the last section uses only the standard library, so the
expected numbers do not depend on the quadrature, the ODE solver, or the
Lanczos gamma implementation being verified.  The frozen tables were
produced from the closed forms below (checked against a 30-digit
evaluation) and from a 30-digit Taylor-method integration of the warping
initial value problem; they pin the oracles themselves against accidental
edits.  The last two sections read the package.  One holds formulas that
tests hold program output against; they read the package's profiles and
functionals, so they check consistency between two routes, not values;
ivp_nodes there hands a test the node pairs of the RK4 sweep.  The other
builds models straight from a closed-form warping h, whose curvature
profile G = h''/h declares its moment and sign: the cones on which a wide
witness meets the Balogh-Kristaly constant.
"""

import math
from array import array
from unittest import mock

from radsob import numerics
from radsob.model_manifold import CurvatureProfile, ModelManifold, _require_dimension
from radsob.numerics import require_finite_nodes, solve_h_ivp
from radsob.warping import integrate_panel, panel_volumes
from radsob.sobolev import gradient_energy, manifold_integral, mass_pstar
from radsob.sharp import sharp_beta
from radsob.talenti import profile_split


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


# (m, d) -> K(m, 1 + d) near p = 1, where m - m/p cancels: talenti_k's
# product form at the exact binary p = 1.0 + d, by mpmath 1.3.0 at 60
# digits (the same to 50 digits at 90), rounded to 40.
SHARP_K_NEAR_P1 = {
    (3, 1e-3): 0.2057521921550844168879469593606669316797,
    (3, 1e-6): 0.2067810341822191361935355907501152088164,
    (3, 1e-9): 0.2067834930752557674184079603616590307103,
    (10, 1e-3): 0.09070172518888034342320731670654274044917,
    (10, 1e-6): 0.09106226799186148904025173736244745846022,
    (10, 1e-9): 0.09106325724222156267209812729089817611871,
    (60, 1e-3): 0.03255971671445376509566222273475554687094,
    (60, 1e-6): 0.03263353946484138178591328766664361876249,
    (60, 1e-9): 0.03263383706766801764171282919154291070446,
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
# The same h at the seven chain radii of `model --t-max 20`, from a 30-digit
# evaluation of the closed form sqrt(1+t^2) sin(sqrt(0.8) atan t)/sqrt(0.8),
# which matches the Taylor values above to within their rounding.
RATIONAL_B01_H_CHAIN20 = {
    0.2: 0.20026054562907974,
    0.4: 0.4019521983853324,
    1.0: 1.0215953603527665,
    2.0: 2.0904268960896824,
    4.0: 4.272418036805767,
    8.0: 8.670123173075512,
    16.0: 17.484920741849134,
}
SINH_1 = 1.1752011936438015

# Geodesic ball volumes of the m=4 model with G = 0.2/(1+t^2)^2, from the
# same 30-digit solution integrated against the area weight (t = 1 and 5),
# and at the seven chain radii of `model --t-max 20` from a 30-digit
# quadrature of 2 pi^2 h^3 for the closed form above, which agrees with
# the first two to all their digits.
VOLUME_RATIONAL01 = {
    0.2: 0.00791639449676366011734575159039,
    0.4: 0.127595558093044741269109639183,
    1.0: 5.1729916331920054,
    2.0: 87.9487433358818673725629876651,
    4.0: 1505.92392279764751259677193636,
    5.0: 3746.3798106822894,
    8.0: 25359.7300976563032514791547755,
    16.0: 418594.771393956520992145274583,
}
# (m, b0, t) -> V(B_t) = omega_m * integral of h^(m-1) over [0, t] for
# G = 2 b0/(1+t^2)^2, by a 30-digit quadrature of the closed-form h
# (sin for b0 = 0.1, sinh for b0 = 3), panel by panel.
VOLUME_RATIONAL = {
    (4, 0.1, 0.2): 0.00791639449676366011734575159039,
    (4, 0.1, 2.0): 87.9487433358818673725629876651,
    (4, 0.1, 19.0): 836807.510974085782059060681904,
    (4, 3.0, 0.2): 0.00854050122790724097442564217867,
    (4, 3.0, 2.0): 1312.98145700653930580352686403,
    (4, 3.0, 19.0): 171879041.149581670605386673781,
    (20, 0.1, 0.2): 2.76771698566865291548282453864e-16,
    (20, 0.1, 2.0): 60689.6373083044971000760613231,
    (20, 0.1, 19.0): 5337137101777088143486389.39663,
    (20, 3.0, 0.2): 5.30436016956443124833016552794e-16,
    (20, 3.0, 2.0): 13736981018830.6891915480058532,
    (20, 3.0, 19.0): 3.9353468301840388075392697423e39,
    (40, 0.1, 0.2): 4.16003320333791065591468108658e-37,
    (40, 0.1, 2.0): 21507.9172469731181935528203093,
    (40, 0.1, 19.0): 1.69955249577467715592709895934e44,
    (40, 3.0, 0.2): 1.67958698683904856699031976639e-36,
    (40, 3.0, 2.0): 5015368981727103360793.72738986,
    (40, 3.0, 19.0): 6.22392293710678041210005203611e74,
}

# (m, t) -> V(B_t) = omega_m * integral of (sinh(sqrt(a) s)/sqrt(a))^(m-1)
# over [0, t] for the constant G = a = 0.05, by a 60-digit quadrature; at
# m = 4 also by the closed form omega_m (c^3 - 3c + 2)/(3 a^2) with
# c = cosh(sqrt(a) t).
VOLUME_CONST005 = {
    (4, 0.5): 0.309712855912501961227758979172,
    (4, 2.0): 84.3951701912146493554385587179,
    (4, 10.0): 246716.837598103933162608068888,
    (4, 40.0): 148088805339513.089195777206372,
    (20, 0.5): 2.5512920354786062463745081907e-8,
    (20, 2.0): 48022.53300972452388618461439,
    (20, 10.0): 1174939580636376311327184.62265,
    (20, 40.0): 3.38261631113456027965340919248e79,
}


# t -> (h(t), h'(t), V(B_t)) at m = 4 for the seed-0 curvature table of the
# benchmark: G linear through (0, 0.3), (1, 0.25), (2, 0.1), (4, 0.02),
# (8, 0.001), then 0.001 (8/t)^3, from the exact binary inputs.  By a
# 45-digit piecewise Taylor series in mpmath 1.3.0 (pieces 1/8 wide, so
# every node is a piece end, each summed to 70 terms; the tail's G by its
# binomial series about each piece's start), and V as mpmath's quadrature
# of 2 pi^2 h^3 piece by piece.  Radii inside a segment (0.5, 1.5, 3), at
# the nodes 1, 2, 4 and 8, past the tail node (9) and far out (20, 50).
TABLE_SEED0 = {
    0.5: (0.506011143325908850718810418829, 1.0356286533074254212095640911,
          0.315948159326896078903312255176),
    1.0: (1.04646743200187531610211913963, 1.1363959172462699263055807446,
          5.41424049147188491728659298388),
    1.5: (1.64927329034848592928185864534, 1.27709805028820030148236546192,
          30.4721910600139836480990761846),
    2.0: (2.3225005748313610559637772108, 1.41113705783441156079914011822,
          109.33427647695483793579531536),
    3.0: (3.85385016640309722933079626625, 1.6514728779461080354924617656,
          714.976678181041259359335656937),
    4.0: (5.60658224128339454209217937745, 1.83421598117293215127859378094,
          2855.5310816228594865286623774),
    8.0: (13.7721956377835860167611558263, 2.18411889506571116744450482998,
          84719.7377534137657000935839334),
    9.0: (15.9627407040377056122146704019, 2.19654527176973814029763254418,
          149927.789215415637441903692783),
    20.0: (40.5292764408432679378199390841, 2.25587420889093713604295966203,
           5941845.71027888877318720428703),
    50.0: (108.827522331728057225840109921, 2.28811646085993904396739394315,
           303406192.056423895881180954186),
}


def head_m4_p2(lam, T=1.0, beta=SHARP_TABLE[(4, 2.0)][0]):
    """Share of the p*-mass of phi_lam inside radius T for m=4, p=2.

    The density integral reduces under u = s/(lam+s), s = t^2, to the
    cancellation-free polynomial form below with U = T^2/(lam + T^2).
    """
    U = T * T / (lam + T * T)
    return ball_volume(4) * 4.0 * beta**4 * (U**3 / 3.0 - U**4 / 4.0)


# Root of head_m4_p2(lam) = 1e-3 at T = 1, found at 30 digits.
HEAD_CROSSING_1E3 = 14.615694241117555

# (m, p, lam, T) -> (head, tail) of the unit p*-mass of phi_lam split at
# radius T: I_x(m/q + 1, m/p) and I_y(m/p, m/q + 1) with q = p/(p-1),
# x = T^q/(lam + T^q) and y = lam/(lam + T^q), by mpmath 1.3.0's betainc
# at 60 digits from the exact binary inputs (each pair sums to 1 within
# 1e-50; the (3, 1.5) head agrees with a 60-digit quadrature of the
# density V(B_t) d(-phi^p*)).  The two shares come from separate
# integrals, so neither is a cancelled difference.  At (4, 2, 10, 1000),
# both (20, 1.2) cases, (3, 2.9, 10, 20) and (150, 2, 10, 3.2) mass_split's
# continued fraction runs on the tail side.  The m = 150 cases sit at the
# largest dimension mass_split accepts.
MASS_SPLIT = {
    (4, 2.0, 10.0, 1.0): (0.00280035516699678983675978416775, 0.997199644833003210163240215832),
    (4, 2.0, 10.0, 1000.0): (0.99999999940001999955000839986, 5.99980000449991600139997840031e-10),
    (3, 1.5, 30.0, 2.0): (0.11430237643971424405890071439, 0.88569762356028575594109928561),
    (6, 2.0, 1e4, 0.5): (5.85855475585498070906417899549e-18, 0.999999999999999994141445244145),
    (20, 1.2, 1e3, 3.0): (0.984712479431530183890508074783, 0.0152875205684698161094919252173),
    (20, 1.2, 10.0, 3.0): (0.999999999999999999999999999869, 1.31439644299620753602597094395e-28),
    (50, 2.0, 1e8, 1.0): (1.21548600342417481616316486641e-194, 1.0),
    (10, 2.5, 100.0, 5.0): (4.62538513491855025706466962318e-5, 0.999953746148650814497429353304),
    (3, 2.9, 10.0, 20.0): (0.760630373047212396567675467371, 0.239369626952787603432324532629),
    (150, 2.0, 10.0, 3.2): (0.525462479181818704667890579204, 0.474537520818181295332109420796),
    (150, 120.0, 1.0, 2.0): (1.6790530747114246437323092602e-26, 0.999999999999999999999999983209),
    (150, 1.5, 10.0, 0.5): (5.49355552803990316051121504068e-58, 1.0),
}


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
    return uniform_grid(t_max, n), values, derivs


def uniform_grid(t_max, n):
    """The n + 1 nodes of a warping grid with n steps on [0, t_max]: i *
    (t_max / n), the last node t_max itself, as an ``array("d")``."""
    dt = t_max / n
    grid = array("d", (i * dt for i in range(n)))
    grid.append(t_max)
    return grid


def hermite_reference(grid, values, derivs, t):
    """h(t) by cubic Hermite interpolation of the nodes' h and h' in the
    cell of t."""
    dt = grid[1] - grid[0]
    i = min(int(t / dt), len(grid) - 2)
    s = (t - grid[i]) / dt
    s2 = s * s
    s3 = s2 * s
    w = (2.0 * s3 - 3.0 * s2 + 1.0, 3.0 * s2 - 2.0 * s3, s3 - 2.0 * s2 + s, s3 - s2)

    def cubic(y0, y1, d0, d1):
        return y0 * w[0] + y1 * w[1] + dt * (d0 * w[2] + d1 * w[3])

    return cubic(values[i], values[i + 1], derivs[i], derivs[i + 1])


# -- Reference formulas evaluated through the package ----------------------


def panel_volume_reference(m, h, t_max):
    """Ball volume V(B_t) of a warping h on [0, t_max].

    The plain eager panel sum that a model's volume lookup must reproduce
    bit for bit, whichever way its h was computed: the integrals of
    omega_sphere h^(m-1) over the min(ceil(t_max / 0.25), 4096) equal panels,
    each by integrate_panel and all summed up front in order; a lookup in
    panel i adds the part [edge i, t] of its panel by the same rule.
    Returns V as a function.
    """
    k = min(math.ceil(t_max / 0.25), 4096)
    width = t_max / k
    om = sphere_area(m)

    def area(t):
        return om * h(t) ** (m - 1)

    vol = [0.0]
    for j in range(1, k):
        vol.append(vol[-1] + integrate_panel(area, (j - 1) * width, j * width))

    def volume(t):
        i = min(int(t / width), k - 1)
        return vol[i] if t == i * width else vol[i] + integrate_panel(area, i * width, t)

    return volume


def ivp_nodes(g, t_max, step, flat_from):
    """solve_h_ivp(g, t_max, step, flat_from) and the list of the (h, h')
    pairs of its n + 1 nodes, read through the node-pair function the
    sweep hands to its finiteness check: past the node where the sweep
    stops, those of its line."""
    caught = []

    def catch(step, n, pair):
        caught.append([pair(i) for i in range(n + 1)])
        return require_finite_nodes(step, n, pair)

    with mock.patch.object(numerics, "require_finite_nodes", catch):
        warping = solve_h_ivp(g, t_max, step, flat_from)
    (pairs,) = caught
    return warping, pairs


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
        * sharp_beta(params) ** (-p * p / (m - p))
        * math.expm1(b)
        * num
        / (lam * den)
    )


def sobolev_quotient(u, model):
    """Scale-invariant Sobolev quotient energy / mass^(p/p*) of a witness u.

    Its infimum over admissible u is C_M^-p, so every value bounds that
    infimum from above: quotient^(-1/p) is a lower witness for C_M.
    """
    return gradient_energy(u, model) / mass_pstar(u, model) ** (u.params.p / u.params.p_star)


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


# -- Closed-form models with a declared curvature profile -----------------


class WarpingCurvature(CurvatureProfile):
    """G = h''/h of a closed-form warping h, undefined at t = 0, where h
    vanishes.  The moment b and the sign class nonnegative are declared,
    not computed: the caller knows them in closed form."""

    def __init__(self, h, h_second, b, nonnegative):
        self._h, self._h_second, self._b = h, h_second, b
        self.nonnegative = nonnegative

    @property
    def b(self):
        return self._b

    def g(self, t):
        if t == 0.0:
            raise ValueError("the curvature h''/h of a closed-form warping is undefined at t = 0")
        return self._h_second(t) / self._h(t)


def model_from_warping(m, h, h_prime, h_second, t_max, *, b, nonnegative):
    """Model from a closed-form warping function with h(0)=0, h'(0)=1.

    h' is checked at the apex only; the ball volume is panel_volumes over
    omega h^(m-1), as a profile's model's is.  h'' only enters the
    profile's G = h''/h, whose moment b and sign the caller declares.
    """
    _require_dimension(m)
    if abs(h(0.0)) > 1e-9 or abs(h_prime(0.0) - 1.0) > 1e-9:
        raise ValueError("warping function must satisfy h(0)=0 and h'(0)=1")
    om = sphere_area(m)
    return ModelManifold(
        m=m,
        t_max=t_max,
        profile=WarpingCurvature(h, h_second, b, nonnegative),
        warp=h,
        ball_volume=panel_volumes(lambda t: om * h(t) ** (m - 1), t_max),
        tail_factor=1.0,
    )


def conical_model(m, c, t_max):
    """Nonnegatively Ricci-curved model opening onto a cone of slope c in (0, 1].

    h(t) = c t + (1-c)(1 - e^-t) interpolates between the Euclidean apex
    (h ~ t near zero) and linear growth with slope c.  Its G = h''/h =
    -(1-c) e^-t / h is <= 0, so its radial Ricci curvature -(m-1) G is
    nonnegative and its moment b of max(G, 0) is 0; its profile is
    declared not nonnegative, which c < 1 makes true.
    """
    if not (0.0 < c <= 1.0):
        raise ValueError("cone slope c must lie in (0, 1]")
    d = 1.0 - c
    return model_from_warping(
        m,
        h=lambda t: c * t + d * (1.0 - math.exp(-t)),
        h_prime=lambda t: c + d * math.exp(-t),
        h_second=lambda t: -d * math.exp(-t),
        t_max=t_max,
        b=0.0,
        nonnegative=False,
    )
