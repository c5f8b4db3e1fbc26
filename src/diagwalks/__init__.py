"""Exact solution counts for diagonal equations over finite fields,
computed through walk counts on NEPS of complete graphs, with
brute-force and convolution oracles for every closed formula."""

from .diagonal import (
    DiagonalSystem,
    brute_force_count,
    brute_force_distribution,
    convolution_distribution,
    walk_solution_count,
)
from .divisibility import DivisibilityReport, k_is_integer, remark_cases
from .field import FiniteField, build_field, kth_power_residues
from .gp import HammingView, gp_graph, hamming_parameters, verify_isomorphism
from .graphs import DenseGraph, complete_graph
from .neps import (
    NepsBasis,
    complete_walks,
    hamming_walks,
    neps_complete_walks,
    neps_construct,
    neps_walks,
)

__version__ = "0.1.0"

__all__ = [
    "DiagonalSystem",
    "DenseGraph",
    "DivisibilityReport",
    "FiniteField",
    "HammingView",
    "NepsBasis",
    "brute_force_count",
    "brute_force_distribution",
    "build_field",
    "complete_graph",
    "complete_walks",
    "convolution_distribution",
    "gp_graph",
    "hamming_parameters",
    "hamming_walks",
    "k_is_integer",
    "kth_power_residues",
    "neps_complete_walks",
    "neps_construct",
    "neps_walks",
    "remark_cases",
    "verify_isomorphism",
    "walk_solution_count",
]
