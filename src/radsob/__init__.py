"""Sharp Sobolev constants and volume comparison on radial model manifolds.

Names are imported from their modules (`from radsob.talenti import
sharp_constant`); the package itself re-exports nothing, so importing one
module loads only what that module imports.
"""

__version__ = "0.1.0"
