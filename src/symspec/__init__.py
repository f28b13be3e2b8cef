"""symspec: spectra and signal-to-noise ratios of symbolic-sequence representations.

Pipeline: parse or build a sequence over an explicit alphabet, expand it to
binary indicator rows, optionally transform those rows with a row-orthogonal
matrix (zcurve, tetrahedron, Helmert, or user-supplied), then take DFT power
spectra and SNR profiles. Two exact identities tie it together: the base
total spectrum is m^2, and any valid transform multiplies the whole SNR
profile by T/(T-1).

All public types are immutable and all operations are pure functions, so
everything here is safe to use from concurrent code.
"""

from . import representations, sequences, spectral
from .sequences import *
from .representations import *
from .spectral import *

__version__ = "0.1.0"

# Each submodule's __all__ is the one list of its public names.
__all__ = [*sequences.__all__, *representations.__all__, *spectral.__all__, "__version__"]
