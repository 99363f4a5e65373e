"""Sharp Sobolev constants and volume comparison on radial model manifolds.

Names are imported from their modules (`from radsob.sharp import
sharp_constant`); the package itself re-exports nothing, so importing one
module loads only what that module imports.  `radsob.<module>` as an
attribute imports that module on first access.

The package defines one family of its own: CheckFailed and the check
failures of the kernels derived from it.  `radsob.cli` catches it on
every run that does work (exit code 1), and a kernel raises it, so it
lives where both find it without loading a module of their own.
"""

__version__ = "0.1.0"


class CheckFailed(RuntimeError):
    """A computation that had to certify its result could not: exit code 1."""


class QuadratureError(CheckFailed):
    """Adaptive quadrature could not meet the requested tolerance."""


class OdeError(CheckFailed):
    """The warping h, or h', is not finite from the node at radius t on."""

    def __init__(self, t: float):
        super().__init__(f"warping solution became non-finite near t={t:g}")
        self.t = t


class SeriesError(CheckFailed):
    """A piece of a warping's Taylor series did not converge."""


def __getattr__(name: str):
    import importlib

    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
