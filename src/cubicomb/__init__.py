"""Exact enumerative combinatorics of cubical and simplicial complexes.

Build validated complexes from their maximal cells, compute f-, h- and
g-vectors over exact integers, and verify identities and lower bounds
(Euler-type symmetries, boundary corrections, Macaulay growth conditions)
with reports that always show both sides of every comparison.

``macaulay``, ``report`` and ``verify`` load on the first read of one of
their names, of ``__all__`` or of the modules themselves.
"""

from .complexes import *
from .files import *
from .generators import *
from .vectors import *

__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    for lazy in ("macaulay", "report", "verify"):
        module = import_module(f".{lazy}", __name__)
        globals().update((n, getattr(module, n)) for n in module.__all__)
    modules = (complexes, files, generators, macaulay, report, vectors, verify)
    globals()["__all__"] = [n for m in modules for n in m.__all__]
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]
