"""Exact symbolic engine for a two-parameter deformed Poisson model.

Five independent routes compute the same moment polynomials in lambda, q, t:
set-partition statistics, the truncated Fock-space operator, the
card-arrangement calculus, weighted Motzkin paths over Jacobi data, and
J-fraction series.  Everything is exact (big integers and fractions); the
test suite cross-verifies the routes as polynomial identities.
"""

# each module's __all__; keep this order, as the bench's peak RSS moves with import order
from .ring import *
from .qtnum import *
from .partitions import *
from .fock import *
from .cards import *
from .orthopoly import *
from .cfrac import *

__version__ = "0.1.0"
