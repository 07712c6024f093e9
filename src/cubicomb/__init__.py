"""Exact enumerative combinatorics of cubical and simplicial complexes.

Build validated complexes from their maximal cells, compute f-, h- and
g-vectors over exact integers, and verify identities and lower bounds
(Euler-type symmetries, boundary corrections, Macaulay growth conditions)
with reports that always show both sides of every comparison.
"""

from .complexes import *
from .files import *
from .generators import *
from .macaulay import *
from .report import *
from .vectors import *
from .verify import *

__all__ = [
    *complexes.__all__, *files.__all__, *generators.__all__, *macaulay.__all__,
    *report.__all__, *vectors.__all__, *verify.__all__,
]

__version__ = "0.1.0"
