"""Catalog of the benchmark inverse problems and synthetic data generation.

Eight desk-scale experiments cover the three problem kinds: two flux
reconstructions on the right boundary, three volume-source identifications
and three initial-temperature recoveries.  Noisy data are produced by solving
the forward problem with the known exact parameter and perturbing it nodally
with uniform multiplicative noise, z = u * (1 + delta * R), R ~ U[-1, 1]
drawn per node (and per time level for the heat problem) from a seeded
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dd, elliptic, fem, parabolic
from .mesh import build_mesh, build_subdomains

# Default number of time steps for the heat problem (terminal time 4.0).
DEFAULT_NT = 12


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark experiment: exact parameter, coefficients, noise level,
    starting constant, regularization weight and the mesh sizes it is run on."""

    id: str
    kind: str  # "flux" | "source" | "initial_value"
    exact: Callable[[np.ndarray, np.ndarray], np.ndarray]
    delta: float
    initial_guess: float
    beta: float
    mesh_sizes: tuple[int, ...]
    diffusion: object = 1.0
    reaction: object = 1.0
    T: float = 4.0


def _wavy(x, y):
    return np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)


def _banded(x, y):
    return 2.0 * np.sin(2 * np.pi * x) * y * (y - 1.0) * (y - 2.0)


def _pinched(x, y):
    return 10.0 * y * np.sin(2 * np.pi * y) * x * (x - 0.5) * (x - 1.0)


def _arch(x, y):
    return -((y - 1.0) ** 2) + 1.0


def _sine_plus_root(x, y):
    return np.sin(0.5 * np.pi * y) + np.sqrt(np.maximum(y, 0.0))


def _mild_diffusion(x, y):
    return (x + y) / 100.0


def example_catalog() -> dict[str, ExperimentSpec]:
    """The eight benchmark experiments keyed by their identifier."""
    flux_meshes = (14, 28, 56)
    source_meshes = (7, 14, 28, 56)
    heat_meshes = (7, 14, 28)
    specs = [
        ExperimentSpec("5.1", "flux", _arch, 0.05, 1.0, 1e-4,
                       flux_meshes),
        ExperimentSpec("5.2", "flux", _sine_plus_root, 0.05, 2.0, 1e-4,
                       flux_meshes),
        ExperimentSpec("5.3", "source", _wavy, 0.01, 0.0, 1e-3,
                       source_meshes, diffusion=_mild_diffusion),
        ExperimentSpec("5.4", "source", _banded, 0.01, 0.0, 1e-3,
                       source_meshes, diffusion=_mild_diffusion),
        ExperimentSpec("5.5", "source", _pinched, 0.01, 0.0, 1e-3,
                       source_meshes, diffusion=_mild_diffusion),
        ExperimentSpec("5.6", "initial_value", _wavy, 0.02, 0.0, 5e-5,
                       heat_meshes),
        ExperimentSpec("5.7", "initial_value", _banded, 0.01, 0.0, 5e-5,
                       heat_meshes),
        ExperimentSpec("5.8", "initial_value", _pinched, 0.02, 0.0, 5e-5,
                       heat_meshes),
    ]
    return {s.id: s for s in specs}


def relative_error(recon, exact, mass) -> float:
    """Relative L2 error ||recon - exact|| / ||exact|| in the product given
    by `mass` (matrix or diagonal).  Rejects a vanishing exact parameter."""
    denom = fem.inner_product(exact, exact, mass)
    if denom <= 0.0:
        raise ValueError("exact parameter has zero norm on the chosen region")
    diff = np.asarray(recon, float) - np.asarray(exact, float)
    return math.sqrt(max(fem.inner_product(diff, diff, mass), 0.0) / denom)


def exact_parameter_field(spec: ExperimentSpec, ops) -> np.ndarray:
    """Nodal representation of the exact parameter on the mesh owned by ops."""
    mesh = ops.mesh
    x, y = mesh.nodes.T
    if spec.kind == "flux":
        out = np.zeros(mesh.n_nodes)
        g1 = ops.gamma1_nodes
        out[g1] = spec.exact(x[g1], y[g1])
        return out
    return np.asarray(spec.exact(x, y), dtype=float)


def synthesize_data(spec: ExperimentSpec, ops, seed: int, delta=None) -> dict:
    """Solve the forward problem with the exact parameter and perturb it.

    Returns the exact parameter, the clean forward solution, the noisy data
    and the noisy data with the fixed-data contribution removed.
    """
    delta = spec.delta if delta is None else float(delta)
    exact = exact_parameter_field(spec, ops)
    if spec.kind == "initial_value":
        clean = ops.forward_global(exact)
        u0 = np.zeros_like(clean)
    else:
        clean = ops.forward_global(exact, warm=None)
        u0 = ops.solve_u0()
    u = clean + u0
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-1.0, 1.0, size=u.shape)
    z = u * (1.0 + delta * noise)
    return {"exact": exact, "u": u, "z": z, "z0": z - u0, "delta": delta}


def make_problem(spec: ExperimentSpec, nx: int, *, ny=None, seed=0,
                 tol=1e-10, delta=None, nt=None, sigma=None,
                 initial_value=None):
    """Wire mesh, decomposition, operators and noisy data into an inversion
    adapter ready for the Schwarz loops."""
    ny = 2 * nx if ny is None else ny
    mesh = build_mesh(nx, ny)
    decomp = build_subdomains(mesh)
    start = spec.initial_guess if initial_value is None else initial_value

    if spec.kind == "source":
        ops = elliptic.SourceOperators(mesh, decomp, spec.diffusion,
                                       spec.reaction, tol=tol)
        adapter = dd.SourceInversion
    elif spec.kind == "flux":
        ops = elliptic.FluxOperators(mesh, decomp, spec.diffusion,
                                     spec.reaction, tol=tol)
        adapter = dd.FluxInversion
    elif spec.kind == "initial_value":
        # Fixed, mesh-independent time grid by default: the loop's iteration
        # count is governed by how strongly Crank-Nicolson damps the stiff
        # modes over the observation window, i.e. by dt, not by h.  See the
        # README for the measured sensitivity.
        grid = parabolic.TimeGrid(T=spec.T, nt=(DEFAULT_NT if nt is None else nt),
                                  sigma=(spec.T if sigma is None else sigma))
        ops = parabolic.HeatOperators(mesh, decomp, spec.diffusion, grid,
                                      tol=tol)
        adapter = dd.InitialValueInversion
    else:
        raise ValueError(f"unknown problem kind {spec.kind!r}")
    data = synthesize_data(spec, ops, seed, delta)
    return adapter(ops, data["z0"], exact=data["exact"], initial_value=start)
