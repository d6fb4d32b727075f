"""Pseudorandom generation for low-degree polynomial threshold functions
over Gaussian space, with the exact Hermite-analysis machinery behind it."""

from .hermite import HermitePoly, random_poly
from .prg import PrgParams, choose_params, generate_batch

__all__ = ["HermitePoly", "random_poly", "PrgParams", "choose_params",
           "generate_batch"]

__version__ = "0.1.0"
