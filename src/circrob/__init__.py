"""circrob: circular Robinson dissimilarity spaces.

Construct a compatible circular order of an n-point dissimilarity space in
O(n log n), verify compatibility of a given order in O(n^2) for the strict
and non-strict quasi-circular and circular Robinson notions, enumerate all
compatible orders, and cross-check everything against brute-force oracles on
small instances.
"""

from . import core, generators, oracle, predicates, recognition, verification
from .core import *
from .generators import *
from .oracle import *
from .predicates import *
from .recognition import *
from .verification import *

__version__ = "0.1.0"

# each module's __all__ is its public API; the package re-exports them all
__all__ = []
__all__ += core.__all__
__all__ += generators.__all__
__all__ += oracle.__all__
__all__ += predicates.__all__
__all__ += recognition.__all__
__all__ += verification.__all__
