"""Overlapping Schwarz reconstruction of linear PDE parameters.

Subpackages: mesh (triangulation and subdomain layout), fem (P1 assembly and
conjugate gradients), elliptic and parabolic (solution operators), dd (the
Schwarz loops with explicit local updates), problems (benchmark catalog and
data synthesis), cli (command-line harness).
"""

from .dd import DDConfig, DDState, IterationReport, run_asa, run_msa
from .mesh import build_mesh, build_subdomains
from .problems import ExperimentSpec, example_catalog, make_problem

__all__ = [
    "DDConfig",
    "DDState",
    "IterationReport",
    "ExperimentSpec",
    "build_mesh",
    "build_subdomains",
    "example_catalog",
    "make_problem",
    "run_asa",
    "run_msa",
]
