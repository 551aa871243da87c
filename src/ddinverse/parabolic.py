"""Crank-Nicolson heat-equation solvers, global and subdomain-local.

The spatial semidiscretization uses the P1 stiffness matrix and the lumped
mass, so one time step applies (M + dt/2 K)^-1 (M - dt/2 K).  With
S = M + dt/2 K that is S^-1 (2 M - S) = 2 S^-1 M - I, so a step solves
with S alone and needs no second matrix.  With the same
lumped mass used for inner products the step operator is self-adjoint on the
zero-Dirichlet space, which gives the discrete duality between forward and
backward evolutions exactly (up to solver tolerance) at every grid time.

The adjoint accumulation needed by the initial-value minimizer, a
time-integral of backward solves, is realised as a single backward sweep
with the residual injected level by level (trapezoidal weights over the
observation window).  That recurrence reproduces the weighted sum of
separate backward solves exactly and costs one sweep instead of one solve
per observation time.

Every march advances a stack of systems one time level at a time: the
global system alone, or the subdomain boxes together, with one solve of
their `fem.DirichletSystem` per level and box-local trajectories.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import fem


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T] with an observation window [T-sigma, T].

    sigma must be a positive multiple of dt (within roundoff) and at most T.
    """

    T: float
    nt: int
    sigma: float

    def __post_init__(self):
        if self.T <= 0 or self.nt < 1:
            raise ValueError("need T > 0 and nt >= 1")
        if not (0 < self.sigma <= self.T + 1e-12):
            raise ValueError("observation window must satisfy 0 < sigma <= T")
        k0 = (self.T - self.sigma) / self.dt
        if abs(k0 - round(k0)) > 1e-9 * self.nt:
            raise ValueError("sigma must be an integer multiple of dt")

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @property
    def window_start(self) -> int:
        return int(round((self.T - self.sigma) / self.dt))

    def weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights over the observation window,
        zero elsewhere; they sum to sigma."""
        w = np.zeros(self.nt + 1)
        k0 = self.window_start
        w[k0:] = self.dt
        w[k0] *= 0.5
        w[self.nt] *= 0.5
        return w


class _Stack:
    """Crank-Nicolson steps of B systems of equal size solved together.

    `systems` are the `fem.DirichletSystem` members (S_k, fixed_k,
    coords_k) of the step matrices S_k = M_k + dt/2 K_k, and `lumped` the
    diagonals of the M_k.  The states of all systems are one flattened
    array, system k's at [k * size, (k + 1) * size).  `system` is the
    `fem.DirichletSystem` of the S_k, factored when small enough and solved
    by PCG with relative residual `tol` otherwise, and `mass` is 2 M_k of
    every system, flattened.
    """

    def __init__(self, systems, lumped, tol):
        self.system = fem.DirichletSystem(systems, direct=True)
        self.mass = 2.0 * np.concatenate(lumped)
        self.tol = tol

    def box(self, k: int) -> "_Stack":
        """System k alone: its part of this stack, solved with its view of
        the same system."""
        view = copy.copy(self)
        view.system = self.system.box(k)
        view.mass = self.mass[k * self.system.n:(k + 1) * self.system.n]
        return view

    def step(self, state: np.ndarray, fixed_values=None) -> np.ndarray:
        """One step of every system from the flattened states `state`, which
        hold the previous fixed values on the fixed nodes:
        S^-1 ((2 M - S) state), with `fixed_values` (all systems,
        concatenated; None for zero) on the fixed nodes.  Taken as
        y = S^-1 (2 M state), with the sum of both levels' fixed values on
        the fixed nodes, and y - state."""
        fixed = self.system.fixed
        both = None if fixed_values is None else state[fixed] + fixed_values
        x = self.system.solve(self.mass * state, both, tol=self.tol)
        x -= state
        if fixed_values is not None:
            x[fixed] = fixed_values
        return x


class HeatOperators:
    """Forward and backward heat evolutions with homogeneous Dirichlet walls.

    Global fields are nodal vectors and global trajectories arrays of shape
    (nt+1, n_nodes), index k holding the solution at time k*dt.  Local
    fields and trajectories on box i are numbered by the box's nodes,
    `locals[i].nodes`, and are never embedded in full-length arrays.

    A march solves the same S at every time step, so every Crank-Nicolson
    system asks for a direct solve: the global one alone and the four box
    systems as one stack are factored once (the boxes share one
    `fem.BandFactor` with a box axis) when small enough, and solved by
    warm-started PCG otherwise.  A group of boxes (`forward_boxes`,
    `back_boxes`) that is every box marches together, one stacked
    solve per time level; any other group marches one box at a time
    (`forward_local`, `accumulate`) on `box_views[i]`, box i alone in the
    same system, built with it.  `step_count` counts one step per system
    and time level, and is the `solve_count` of the loops.  For the
    inversion adapter the initial value lives on the open boxes, the
    misfit is integrated over the observation window, and the surrogate
    constant is scaled by its length (`surrogate_scale`).
    """

    def __init__(self, mesh, decomp, diffusion, grid: TimeGrid, tol=1e-10):
        self.mesh = mesh
        self.decomp = decomp
        self.grid = grid

        K = fem.assemble(mesh, diffusion, 0.0)
        self.lumped = fem.lumped_mass(mesh)
        self.param_mass = self.lumped
        self.supports = list(decomp.interior_masks)
        self.surrogate_scale = grid.sigma
        S = fem.crank_nicolson(K, self.lumped, grid.dt)
        self.global_stack = _Stack(
            [(S, np.flatnonzero(mesh.boundary_mask), mesh.nodes)],
            [self.lumped], tol)
        self.locals = [fem.BoxSystem(mesh, decomp, i)
                       for i in range(decomp.n_subdomains)]
        self.boxes = _Stack([loc.member(S, mesh.nodes) for loc in self.locals],
                            [self.lumped[loc.nodes] for loc in self.locals],
                            tol)
        self.box_views = [self.boxes.box(i) for i in range(len(self.locals))]
        self.step_count = 0

    @property
    def solve_count(self) -> int:
        """`step_count`."""
        return self.step_count

    # -- stepping kernels -------------------------------------------------

    def _march(self, stack, start, fixed_series):
        """March nt Crank-Nicolson steps of every system of `stack` from the
        flattened states `start`; fixed_series gives the fixed values of all
        systems per level, shape (nt+1, total fixed), or None for zero.
        Returns the flattened trajectories, shape (nt+1, B * size)."""
        nt = self.grid.nt
        traj = np.zeros((nt + 1, start.size))
        traj[0] = start
        traj[0, stack.system.fixed] = (0.0 if fixed_series is None
                                       else fixed_series[0])
        for k in range(1, nt + 1):
            traj[k] = stack.step(traj[k - 1], None if fixed_series is None
                                 else fixed_series[k])
            self.step_count += stack.system.B
        return traj

    def _accumulate(self, stack, residual):
        """Weighted time integral of zero-trace backward solves of the
        flattened residual trajectories (nt+1, B * size) at time 0, as a
        single backward sweep."""
        w = self.grid.weights()
        psi = np.zeros(residual.shape[1])
        free = stack.system.free
        for k in range(self.grid.nt, -1, -1):
            if k < self.grid.nt:
                psi = stack.step(psi)
                self.step_count += stack.system.B
            if w[k] != 0.0:
                psi[free] += w[k] * residual[k, free]
        return psi

    def _forward_boxes(self, stack, boxes, starts, traces):
        fixed = None
        if traces is not None:
            fixed = np.concatenate([self.locals[i].fixed_values(t)
                                    for i, t in zip(boxes, traces)], axis=-1)
        return np.split(self._march(stack, np.concatenate(starts, axis=-1),
                                    fixed), stack.system.B, axis=-1)

    # -- global operators --------------------------------------------------

    def forward_global(self, phi: np.ndarray) -> np.ndarray:
        """Evolve the initial value phi over [0, T]."""
        return self._march(self.global_stack, phi, None)

    def misfit(self, d: np.ndarray) -> float:
        """The squared lumped norm of d over the observation window."""
        return float(np.einsum("k,kn,n,kn->", self.grid.weights(), d,
                               self.lumped, d))

    def adjoint_global(self, omega: np.ndarray) -> np.ndarray:
        """Backward evolution with terminal value omega at t = T; entry k of
        the result holds the value at time k*dt."""
        return self.forward_global(omega)[::-1].copy()

    # -- local operators ---------------------------------------------------

    def _every(self, boxes) -> bool:
        """Whether the group `boxes` is every box in order, the stack."""
        return list(boxes) == list(range(len(self.locals)))

    def forward_boxes(self, boxes, phis, traces=None) -> list:
        """Local evolutions of each box boxes[k] from the box field phis[k],
        with Dirichlet values traces[k] on its inner boundary per level
        (shape (nt+1, len(interface)); zero when traces is None), marched
        as one stack when `boxes` is every box.  Returns the box
        trajectories, of shape (nt+1, n_i)."""
        if self._every(boxes):
            return self._forward_boxes(self.boxes, boxes, phis, traces)
        traces = [None] * len(phis) if traces is None else traces
        return [self.forward_local(i, phi, trace)
                for i, phi, trace in zip(boxes, phis, traces)]

    def forward_local(self, i: int, phi: np.ndarray, trace=None) -> np.ndarray:
        """`forward_boxes` of box i alone."""
        return self._forward_boxes(self.box_views[i], [i], [phi],
                                   None if trace is None else [trace])[0]

    def adjoint_local(self, i: int, omega: np.ndarray, trace=None) -> np.ndarray:
        """Local backward evolution on box i from the terminal box field
        omega; trace values per level are indexed by forward time like the
        result."""
        rev = None if trace is None else trace[::-1]
        return self.forward_local(i, omega, rev)[::-1]

    # -- adjoint accumulation ----------------------------------------------

    def back_boxes(self, boxes, residuals) -> list:
        """Weighted time integral of zero-trace backward solves of the box
        residual trajectories residuals[k] of box boxes[k], evaluated at
        time 0, as one stacked sweep when `boxes` is every box.

        Equals sum_k w_k E^k r_k where E is one zero-Dirichlet step and w are
        the observation-window weights.
        """
        if self._every(boxes):
            return np.split(self._accumulate(
                self.boxes, np.concatenate(residuals, axis=-1)),
                len(self.locals), axis=-1)
        return [self.accumulate(i, r) for i, r in zip(boxes, residuals)]

    def accumulate(self, i: int, residual: np.ndarray) -> np.ndarray:
        """`back_boxes` of box i alone."""
        return self._accumulate(self.box_views[i], residual)
