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

Every march advances one `fem.DirichletSystem` a time level at a time,
with one solve per level: the global system alone, the subdomain boxes
together, or one box on its view of the boxes' system, with box-local
trajectories.
"""

from __future__ import annotations

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


class HeatOperators:
    """Forward and backward heat evolutions with homogeneous Dirichlet walls.

    Global fields are nodal vectors and global trajectories arrays of shape
    (nt+1, n_nodes), index k holding the solution at time k*dt.  Local
    fields and trajectories on box i are numbered by the box's nodes,
    `locals[i].nodes`, and are never embedded in full-length arrays.

    A march advances a `fem.DirichletSystem` of the step matrices
    S = M + dt/2 K and the doubled lumped masses 2M of its members, one
    solve per time level, with the members' states flattened into one
    array.  A march solves the same S at every time step, so every system
    asks for a direct solve: it is factored once when small enough and
    solved by warm-started PCG otherwise.  `global_pair` is the global
    (system, 2M) pair, and `pairs` maps each group of boxes the loops pass
    to its pair: every box to the four boxes' stack (one `fem.BandFactor`
    with a box axis when factored), and box i alone to its view of that
    stack.  `step_count` counts one step per member and time level, and is
    the `solve_count` of the loops.  For the inversion adapter the initial
    value lives on the open boxes, the misfit is integrated over the
    observation window, and the surrogate constant is scaled by its length
    (`surrogate_scale`).
    """

    def __init__(self, mesh, decomp, diffusion, grid: TimeGrid, tol=1e-10):
        self.mesh = mesh
        self.decomp = decomp
        self.grid = grid
        self.tol = tol

        K = fem.assemble(mesh, diffusion, 0.0)
        self.lumped = fem.lumped_mass(mesh)
        self.param_mass = self.lumped
        self.supports = list(decomp.interior_masks)
        self.surrogate_scale = grid.sigma
        S = fem.crank_nicolson(K, self.lumped, grid.dt)
        self.global_pair = (fem.DirichletSystem(
            [(S, np.flatnonzero(mesh.boundary_mask), mesh.nodes)],
            direct=True), 2.0 * self.lumped)
        self.locals = [fem.BoxSystem(decomp, i)
                       for i in range(decomp.n_subdomains)]
        stack = fem.DirichletSystem(
            [loc.member(S, mesh.nodes) for loc in self.locals], direct=True)
        masses = [2.0 * self.lumped[loc.nodes] for loc in self.locals]
        self.pairs = {tuple(range(len(self.locals))):
                      (stack, np.concatenate(masses))}
        for i, mass in enumerate(masses):
            self.pairs[i,] = (stack.box(i), mass)
        self.step_count = 0

    @property
    def solve_count(self) -> int:
        """`step_count`."""
        return self.step_count

    # -- stepping kernels -------------------------------------------------

    def _step(self, pair, state, fixed_values=None):
        """One step of every member of the (system, 2M) pair from the
        flattened states `state`, which hold the previous fixed values on
        the fixed nodes: S^-1 ((2 M - S) state), with `fixed_values` (all
        members, concatenated; None for zero) on the fixed nodes.  Taken as
        y = S^-1 (2 M state), with the sum of both levels' fixed values on
        the fixed nodes, and y - state."""
        system, mass = pair
        fixed = system.fixed
        both = None if fixed_values is None else state[fixed] + fixed_values
        x = system.solve(mass * state, both, tol=self.tol)
        x -= state
        if fixed_values is not None:
            x[fixed] = fixed_values
        self.step_count += system.B
        return x

    def _march(self, pair, start, fixed_series):
        """March nt Crank-Nicolson steps of every member of `pair` from the
        flattened states `start`; fixed_series gives the fixed values of all
        members per level, shape (nt+1, total fixed), or None for zero.
        Returns the flattened trajectories, shape (nt+1, B * size)."""
        nt = self.grid.nt
        traj = np.zeros((nt + 1, start.size))
        traj[0] = start
        traj[0, pair[0].fixed] = (0.0 if fixed_series is None
                                  else fixed_series[0])
        for k in range(1, nt + 1):
            traj[k] = self._step(pair, traj[k - 1],
                                 None if fixed_series is None
                                 else fixed_series[k])
        return traj

    # -- global operators --------------------------------------------------

    def forward_global(self, phi: np.ndarray) -> np.ndarray:
        """Evolve the initial value phi over [0, T]."""
        return self._march(self.global_pair, phi, None)

    def misfit(self, d: np.ndarray) -> float:
        """The squared lumped norm of d over the observation window."""
        return float(np.einsum("k,kn,n,kn->", self.grid.weights(), d,
                               self.lumped, d))

    def adjoint_global(self, omega: np.ndarray) -> np.ndarray:
        """Backward evolution with terminal value omega at t = T; entry k of
        the result holds the value at time k*dt."""
        return self.forward_global(omega)[::-1].copy()

    # -- local operators ---------------------------------------------------

    def forward_boxes(self, boxes, phis, traces=None) -> list:
        """Local evolutions of each box boxes[k] from the box field phis[k],
        with Dirichlet values traces[k] on its inner boundary per level
        (shape (nt+1, len(interface)); zero when traces is None), marched
        together on the pair of the group.  Returns the box trajectories,
        of shape (nt+1, n_i)."""
        fixed = None
        if traces is not None:
            fixed = np.concatenate([self.locals[i].fixed_values(t)
                                    for i, t in zip(boxes, traces)], axis=-1)
        return np.split(self._march(self.pairs[tuple(boxes)],
                                    np.concatenate(phis, axis=-1), fixed),
                        len(phis), axis=-1)

    def adjoint_local(self, i: int, omega: np.ndarray, trace=None) -> np.ndarray:
        """Local backward evolution on box i from the terminal box field
        omega; trace values per level are indexed by forward time like the
        result."""
        rev = None if trace is None else [trace[::-1]]
        return self.forward_boxes([i], [omega], rev)[0][::-1]

    # -- adjoint accumulation ----------------------------------------------

    def back_boxes(self, boxes, residuals) -> list:
        """Weighted time integral of zero-trace backward solves of the box
        residual trajectories residuals[k] of box boxes[k], evaluated at
        time 0, as one backward sweep on the pair of the group, with the
        residual injected level by level.

        Equals sum_k w_k E^k r_k where E is one zero-Dirichlet step and w are
        the observation-window weights.
        """
        pair = self.pairs[tuple(boxes)]
        residual = np.concatenate(residuals, axis=-1)
        w = self.grid.weights()
        psi = np.zeros(residual.shape[1])
        free = pair[0].free
        for k in range(self.grid.nt, -1, -1):
            if k < self.grid.nt:
                psi = self._step(pair, psi)
            if w[k] != 0.0:
                psi[free] += w[k] * residual[k, free]
        return np.split(psi, len(residuals))
