"""Exact circuit polynomials of weighted directed pseudographs, rooted
products, restricted rooted products, dendrimers and their spectra."""

from .graph import DendrimerSpec, Graph
from .oracle import (CHARACTERISTIC_UNIFORM, CHARACTERISTIC_STANDARD, UNDIRECTED_COVERS,
                     GENERIC, MATCHING_MINUS, MATCHING_PLUS, PERMANENTAL, WeightMode,
                     circuit_poly, simple_circuit_poly, specialize)
from .poly import Poly, Var, X, parse_poly, wvar, xvar, yvar

__all__ = [
    "DendrimerSpec", "Graph", "Poly", "Var", "X", "WeightMode",
    "circuit_poly", "simple_circuit_poly", "specialize", "parse_poly",
    "wvar", "xvar", "yvar",
    "GENERIC", "UNDIRECTED_COVERS", "PERMANENTAL", "CHARACTERISTIC_UNIFORM",
    "CHARACTERISTIC_STANDARD", "MATCHING_PLUS", "MATCHING_MINUS",
]

__version__ = "0.1.0"
