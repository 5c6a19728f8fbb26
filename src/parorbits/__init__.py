"""Parabolic orbit strata and Hasse-diagram decompositions of classical
Grassmannians, with the cominuscule Seidel quantum action.

Exact integer arithmetic throughout; every structure is
immutable after construction and safe to share across threads.
"""

from . import cosets, decomp, fixtures, hasse, rootsys, seidel, strata, verify, weyl
from .fixtures import Fixture

__all__ = [
    "Fixture",
    "cosets",
    "decomp",
    "fixtures",
    "hasse",
    "rootsys",
    "seidel",
    "strata",
    "verify",
    "weyl",
]

__version__ = "0.1.0"
