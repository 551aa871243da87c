"""Catalog of the benchmark inverse problems and synthetic data generation.

Eight desk-scale experiments cover the three problem kinds: two flux
reconstructions on the right boundary, three volume-source identifications
and three initial-temperature recoveries.  Noisy data are produced by solving
the forward problem with the known exact parameter and perturbing it nodally
with uniform multiplicative noise, z = u * (1 + delta * R), R ~ U[-1, 1]
drawn per node (and per time level for the heat problem) from the seeded
stream of numpy's default generator, reproduced by `fem.pcg64_random`
without importing numpy's random module.
"""

from __future__ import annotations

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


def synthesize_data(spec: ExperimentSpec, ops, seed: int, delta=None):
    """Solve the forward problem with the exact parameter and perturb it.

    The problems carry no fixed data, so the forward map is linear and the
    noisy data feed the inversion as they are.  Returns the exact
    parameter and the noisy data z.
    """
    delta = spec.delta if delta is None else float(delta)
    exact = exact_parameter_field(spec, ops)
    u = ops.forward_global(exact)
    # R = -1 + 2 U, as numpy's default_rng(seed).uniform(-1, 1) computes it
    noise = -1.0 + 2.0 * fem.pcg64_random(seed, u.size).reshape(u.shape)
    return exact, u * (1.0 + delta * noise)


def time_grid(spec: ExperimentSpec, nt=None, sigma=None) -> parabolic.TimeGrid:
    """The time grid of a heat experiment; mesh-independent by default,
    since dt, not h, governs the iteration count (see the README)."""
    return parabolic.TimeGrid(T=spec.T, nt=(DEFAULT_NT if nt is None else nt),
                              sigma=(spec.T if sigma is None else sigma))


def make_problem(spec: ExperimentSpec, nx: int, *, ny=None, seed=0,
                 tol=1e-10, delta=None, nt=None, sigma=None):
    """Wire mesh, decomposition, operators and noisy data into an inversion
    adapter ready for the Schwarz loops."""
    ny = 2 * nx if ny is None else ny
    mesh = build_mesh(nx, ny)
    decomp = build_subdomains(mesh)

    if spec.kind == "source":
        ops = elliptic.SourceOperators(mesh, decomp, spec.diffusion,
                                       spec.reaction, tol=tol)
        adapter = dd.SourceInversion
    elif spec.kind == "flux":
        ops = elliptic.FluxOperators(mesh, decomp, spec.diffusion,
                                     spec.reaction, tol=tol)
        adapter = dd.FluxInversion
    elif spec.kind == "initial_value":
        ops = parabolic.HeatOperators(mesh, decomp, spec.diffusion,
                                      time_grid(spec, nt, sigma), tol=tol)
        adapter = dd.InitialValueInversion
    else:
        raise ValueError(f"unknown problem kind {spec.kind!r}")
    exact, z = synthesize_data(spec, ops, seed, delta)
    return adapter(ops, z, exact=exact, initial_value=spec.initial_guess)
