"""Sharp Sobolev constants and volume comparison on radial model manifolds.

Names are imported from their modules (`from radsob.talenti import
sharp_constant`); the package itself re-exports nothing, so importing one
module loads only what that module imports.  `radsob.<module>` as an
attribute imports that module on first access.
"""

__version__ = "0.1.0"


def __getattr__(name: str):
    import importlib

    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
