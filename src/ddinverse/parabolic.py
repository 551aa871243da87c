"""Crank-Nicolson heat-equation solvers, global and subdomain-local.

The spatial semidiscretization uses the P1 stiffness matrix and the lumped
mass, so one time step applies (M + dt/2 K)^-1 (M - dt/2 K).  With the same
lumped mass used for inner products the step operator is self-adjoint on the
zero-Dirichlet space, which gives the discrete duality between forward and
backward evolutions exactly (up to solver tolerance) at every grid time.

The adjoint accumulation needed by the initial-value minimizer, a
time-integral of backward solves, is realised as a single backward sweep
with the residual injected level by level (trapezoidal weights over the
observation window).  That recurrence reproduces the weighted sum of
separate backward solves exactly and costs one sweep instead of one solve
per observation time.
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

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)

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

    Fields are full-length nodal vectors; trajectories are arrays of shape
    (nt+1, n_nodes) with index k holding the solution at time k*dt.
    """

    def __init__(self, mesh, decomp, diffusion, grid: TimeGrid, tol=1e-10):
        self.mesh = mesh
        self.decomp = decomp
        self.grid = grid
        self.tol = tol

        K = fem.assemble(mesh, diffusion, 0.0)
        self.lumped = fem.lumped_mass(mesh)
        S, self.Stilde = fem.crank_nicolson(K, self.lumped, grid.dt)
        self.boundary_nodes = np.flatnonzero(mesh.boundary_mask)
        # A march solves the same S at every time step, so the systems that
        # are small enough are factored once and solved directly.
        self.global_system = fem.DirichletSystem(S, self.boundary_nodes,
                                                 mesh.nodes, direct=True)
        self.locals = [
            fem.BoxSystem(mesh, decomp, i, S, explicit=self.Stilde,
                          direct=True)
            for i in range(decomp.n_subdomains)
        ]
        self.step_count = 0

    # -- stepping kernels -------------------------------------------------

    def _march(self, system, Stilde, start, fixed_series):
        """March nt Crank-Nicolson steps from `start`; fixed_series gives the
        Dirichlet values per level (None for homogeneous)."""
        nt = self.grid.nt
        traj = np.empty((nt + 1, start.shape[0]))
        u = start.copy()
        u[system.fixed] = fixed_series[0] if fixed_series is not None else 0.0
        traj[0] = u
        for k in range(1, nt + 1):
            vals = fixed_series[k] if fixed_series is not None else None
            u = system.solve(Stilde @ u, vals, tol=self.tol, x0=u)
            traj[k] = u
            self.step_count += 1
        return traj

    # -- global operators --------------------------------------------------

    def forward_global(self, phi: np.ndarray) -> np.ndarray:
        """Evolve the initial value phi over [0, T]."""
        return self._march(self.global_system, self.Stilde, phi, None)

    def adjoint_global(self, omega: np.ndarray) -> np.ndarray:
        """Backward evolution with terminal value omega at t = T; entry k of
        the result holds the value at time k*dt."""
        traj = self._march(self.global_system, self.Stilde, omega, None)
        return traj[::-1].copy()

    # -- local operators ---------------------------------------------------

    def forward_local(self, i: int, phi: np.ndarray, trace=None) -> np.ndarray:
        """Local evolution on box i with Dirichlet trace values on the inner
        boundary per level (shape (nt+1, len(interface)); zero when None).
        Returns a full-length trajectory supported on the box."""
        loc = self.locals[i]
        return loc.embed(self._march(loc.system, loc.Stilde, loc.localize(phi),
                                     loc.fixed_values(trace)))

    def adjoint_local(self, i: int, omega: np.ndarray, trace=None) -> np.ndarray:
        """Local backward evolution on box i from terminal value omega; trace
        values per level are indexed by forward time like the result."""
        loc = self.locals[i]
        rev = None if trace is None else trace[::-1]
        traj = self._march(loc.system, loc.Stilde, loc.localize(omega),
                           loc.fixed_values(rev))
        return loc.embed(traj[::-1])

    # -- adjoint accumulation ----------------------------------------------

    def accumulate(self, i: int, residual: np.ndarray) -> np.ndarray:
        """Weighted time integral of zero-trace backward solves of the
        residual trajectory, evaluated at time 0, on box i.

        Equals sum_k w_k E^k r_k where E is one zero-Dirichlet step and w are
        the observation-window weights; computed as a single backward sweep.
        """
        loc = self.locals[i]
        return loc.embed(self._accumulate(loc.system, loc.Stilde,
                                          loc.localize(residual)))

    def accumulate_global(self, residual: np.ndarray) -> np.ndarray:
        """Global variant of `accumulate` (whole-domain boxless operator)."""
        return self._accumulate(self.global_system, self.Stilde, residual)

    def _accumulate(self, system, Stilde, residual):
        w = self.grid.weights()
        psi = np.zeros(residual.shape[1])
        free = system.free
        for k in range(self.grid.nt, -1, -1):
            if k < self.grid.nt:
                psi = system.solve(Stilde @ psi, None, tol=self.tol, x0=psi)
                self.step_count += 1
            if w[k] != 0.0:
                psi[free] += w[k] * residual[k, free]
        return psi
