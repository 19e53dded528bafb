"""Exact symbolic computation for orthosymplectic Lie superalgebras and
charts on isotropic flag supermanifolds.

Everything is computed over the field Q(i, sqrt2) with no floating point;
equality checks throughout the package are exact.  See the README for the
layout and the ``superflag`` command-line entry point for the bundled
verification suites.
"""

__version__ = "0.1.0"
#: The arithmetic implementation named in reports; pure Python is the only one.
BACKEND = "pure"

from .scalars import FieldScalar
from .ring import RingContext, SuperPoly, NUMERIC_CTX
from .matrices import BlockShape, SuperMatrix

__all__ = [
    "__version__",
    "FieldScalar",
    "RingContext",
    "SuperPoly",
    "NUMERIC_CTX",
    "BlockShape",
    "SuperMatrix",
    "BACKEND",
]
