"""Sharp Sobolev constants and volume comparison on radial model manifolds."""

from .numerics import (
    IvpSolution,
    OdeError,
    QuadratureError,
    integrate_finite,
    integrate_semi_infinite,
    solve_h_ivp,
)
from .talenti import (
    SobolevParams,
    TalentiProfile,
    normalize_beta,
    sharp_constant,
    sphere_area,
    unit_ball_volume,
)
from .model_manifold import (
    ConstantCutoff,
    CurvatureProfile,
    ModelManifold,
    RationalDecay,
    Tabulated,
    ZeroCurvature,
    build_model,
    conical_model,
    euclidean_model,
    model_from_warping,
    parse_curvature,
    verify_volume_chain,
)
from .sobolev import (
    DivergentTailError,
    RadialFunction,
    SobolevUnsupportedError,
    TailBoundError,
    estimate_radial_constant,
    gradient_energy,
    mass_pstar,
    quotient_sobolev,
    talenti_function,
    verify_decay_conditions,
)
from .rigidity import (
    MassEscapeReport,
    RigidityHypothesisError,
    RigidityReport,
    c2,
    c3,
    c_hat,
    check_hypotheses,
    estimated_c_m,
    mass_escape_experiment,
    verify_theorem,
)

__version__ = "0.1.0"
