"""Exact arithmetic for structure sets of fake lens spaces.

The package is organized in four layers.  ring implements the quotient
ring the whole theory lives in, with exact rational coefficients.  valuation
implements the level-wise 2-adic valuations, normal forms, and the two
membership criteria built from them.  polynomials implements the integer
polynomial families (p, q, r and friends) and the obstruction lattices,
certified against the residue images that define them.  structure
assembles everything into structure set descriptors and normal invariant
coordinates.  cli exposes the main entry points as a small command line
tool.  Each layer's public names are its `__all__`; the package exports
their union.
"""

from . import polynomials, ring, structure, valuation
from .polynomials import *
from .ring import *
from .structure import *
from .valuation import *

__version__ = "0.1.0"

__all__ = ["__version__", *polynomials.__all__, *ring.__all__,
           *structure.__all__, *valuation.__all__]
