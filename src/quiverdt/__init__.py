"""Exact motivic Donaldson-Thomas series for framed quivers.

Truncated quantum torus arithmetic over Q(v), Harder-Narasimhan
factorization of the universal series, framed wall-crossing at any
stability parameter, NCDT and smooth-model series, DT invariants, and a
finite-field counting oracle for independent verification.
"""

from .scalar import Scalar
from .quiver import DimVector, FramedQuiver, Quiver, load_quiver_file
from .qtorus import TorusSeries

__all__ = [
    "Scalar",
    "Quiver",
    "FramedQuiver",
    "DimVector",
    "TorusSeries",
    "load_quiver_file",
]
