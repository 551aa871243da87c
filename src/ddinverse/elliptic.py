"""Global and subdomain-local elliptic solution operators.

Two stationary settings share the machinery:

* volume-source identification: -div(a grad u) + c u = f with zero
  Dirichlet values on the whole boundary; the parameter is the source f and
  the data live in the volume;
* boundary-flux identification: the same operator with zero source and
  Neumann data zero except for the unknown flux on the right side (x = 1),
  and measurements on the remaining boundary.

Both problems carry no fixed data, so both forward maps are linear.

Local operators solve the same equation on one overlapping box with the
inherited outer boundary condition and Dirichlet values on the inner
(artificial) boundary.  For the flux setting the Dirichlet set is the inner
boundary *closure* (including the nodes where a cut line meets the outer
boundary); with that choice the restriction of a global solve satisfies the
local system exactly, which the Schwarz iterations rely on.  Local solves
take and return box fields, numbered by the box nodes.

Volume loads and inner products use the lumped mass; see fem module notes.
"""

from __future__ import annotations

import numpy as np

from . import fem
from .mesh import flux_support


class _Operators:
    """Shared plumbing: the boxes `locals` in one Dirichlet mode, the
    `fem.DirichletSystem` of K on each in `box_systems`, built after the
    global system (built before it, they raise the setup's peak memory),
    and `solve_count`, which counts every solve.  Box loads and masses are
    the global ones restricted to the box nodes, as K is.  Each subclass
    holds what the inversion adapter needs of its problem: per-box
    parameter masks `supports`, the parameter mass `param_mass`, the
    back-projection `back_boxes` of box residuals and the objective's
    `misfit`."""

    surrogate_scale = 1.0

    def __init__(self, mesh, decomp, K, dirichlet, tol):
        self.mesh, self.decomp, self.tol = mesh, decomp, tol
        self.locals = [fem.BoxSystem(decomp, i, dirichlet)
                       for i in range(decomp.n_subdomains)]
        self.box_systems = [fem.DirichletSystem([loc.member(K, mesh.nodes)])
                            for loc in self.locals]
        self.solve_count = 0

    def _solve(self, system, rhs, fixed_values=None):
        self.solve_count += 1
        return system.solve(rhs, fixed_values, tol=self.tol)

    def forward_boxes(self, boxes, fields, traces=None) -> list:
        """`forward_local` of each box boxes[k], one after another, with
        the box field fields[k] and the inner-boundary values traces[k]
        (zero when traces is None)."""
        traces = [None] * len(fields) if traces is None else traces
        return [self.forward_local(i, f, t)
                for i, f, t in zip(boxes, fields, traces)]


class SourceOperators(_Operators):
    """Forward/adjoint operators for volume-source identification.

    The forward map takes a nodal source to the solution with zero
    Dirichlet values, linearly; it is self-adjoint in the lumped L2 product,
    and its subdomain-local version with zero inner-boundary values is
    self-adjoint in the local product.
    """

    def __init__(self, mesh, decomp, diffusion, reaction, tol=1e-10):
        K = fem.assemble(mesh, diffusion, reaction)
        self.lumped = fem.lumped_mass(mesh)
        self.param_mass = self.lumped
        self.supports = list(decomp.interior_masks)
        self.boundary_nodes = np.flatnonzero(mesh.boundary_mask)
        self.global_system = fem.DirichletSystem(
            [(K, self.boundary_nodes, mesh.nodes)])
        super().__init__(mesh, decomp, K, "box-boundary", tol)

    def forward_global(self, f: np.ndarray) -> np.ndarray:
        """Solve with source f and zero boundary values; linear in f."""
        return self._solve(self.global_system, self.lumped * f)

    def forward_local(self, i: int, f: np.ndarray, trace=None) -> np.ndarray:
        """Local solve on box i: box source f, zero values on the outer
        boundary part, Dirichlet `trace` on the inner boundary (zero when
        None).  Box fields are numbered by the box nodes `locals[i].nodes`."""
        loc = self.locals[i]
        return self._solve(self.box_systems[i], self.lumped[loc.nodes] * f,
                           loc.fixed_values(trace))

    def back_boxes(self, boxes, residuals) -> list:
        """The zero-trace `forward_boxes` of the box residuals: the local
        map is self-adjoint in the lumped product."""
        return self.forward_boxes(boxes, residuals)

    def misfit(self, d: np.ndarray) -> float:
        """The squared lumped norm of the volume misfit d."""
        return fem.inner_product(d, d, self.lumped)


class FluxOperators(_Operators):
    """Forward/adjoint operators for boundary-flux identification.

    The forward map takes a flux on the right side to the solution of the
    all-Neumann problem with zero source and zero Neumann data elsewhere,
    linearly; the adjoint map feeds data on the remaining boundary
    back through the same operator.  Both are realized with the same
    symmetric matrix, so the discrete duality pairing (boundary mass inner
    products) holds to solver tolerance.
    """

    def __init__(self, mesh, decomp, diffusion, reaction, tol=1e-10):
        K = fem.assemble(mesh, diffusion, reaction)
        # Without Dirichlet data, K annihilates the constants exactly when
        # the reaction term vanishes: the stiffness rows sum to zero.
        if np.abs(K @ np.ones(mesh.n_nodes)).max() <= 1e-12 * K.diagonal().max():
            raise ValueError("the all-Neumann flux operator is singular: the "
                             "reaction coefficient is zero, so K @ 1 = 0")
        self.gamma1_nodes = mesh.side_nodes("right")
        self.bmass1 = fem.assemble_boundary_mass(mesh, mesh.side_edges("right"))
        self.bmass0 = fem.assemble_boundary_mass(mesh, np.vstack(
            [mesh.side_edges(s) for s in ("left", "bottom", "top")]))
        self.param_mass = self.bmass1
        self.supports = [np.isin(np.arange(mesh.n_nodes), nodes)
                         for nodes in flux_support(mesh, decomp)]

        self.global_system = fem.DirichletSystem(
            [(K, np.array([], dtype=np.int64), mesh.nodes)])
        super().__init__(mesh, decomp, K, "interface-closure", tol)
        self.bmass1_loc = [fem.restrict(self.bmass1, loc.nodes)
                           for loc in self.locals]
        self.bmass0_loc = [fem.restrict(self.bmass0, loc.nodes)
                           for loc in self.locals]

    def forward_global(self, h: np.ndarray) -> np.ndarray:
        """All-Neumann solve driven by the flux h (full-length vector with
        values on the right-side nodes); returns the volume field."""
        return self._solve(self.global_system, self.bmass1 @ h)

    def adjoint_volume(self, w: np.ndarray) -> np.ndarray:
        """All-Neumann solve driven by data w on the measurement boundary."""
        return self._solve(self.global_system, self.bmass0 @ w)

    def adjoint_global(self, w: np.ndarray) -> np.ndarray:
        """Adjoint map as a trace: values on the right-side nodes."""
        return self.adjoint_volume(w)[self.gamma1_nodes]

    def _local_solve(self, i, bmass_loc, field, trace):
        """Local solve on box i loaded by the box field `field` through
        `bmass_loc`, a global boundary mass restricted to the box nodes
        (empty when the box misses that boundary part).  Box fields are
        numbered by the box nodes."""
        return self._solve(self.box_systems[i], bmass_loc @ field,
                           self.locals[i].fixed_values(trace))

    def forward_local(self, i: int, h: np.ndarray, trace=None) -> np.ndarray:
        """Local solve on box i with the box flux h on its right-side part,
        zero data on its measurement part and Dirichlet `trace` on the inner
        boundary closure."""
        return self._local_solve(i, self.bmass1_loc[i], h, trace)

    def adjoint_local(self, i: int, w: np.ndarray, trace=None) -> np.ndarray:
        """Local adjoint solve on box i: box Neumann data w on its measurement
        part, zero flux, Dirichlet `trace` on the inner boundary closure."""
        return self._local_solve(i, self.bmass0_loc[i], w, trace)

    def back_boxes(self, boxes, residuals) -> list:
        """Zero-trace `adjoint_local` of each box boxes[k] with the box data
        residuals[k]."""
        return [self.adjoint_local(i, w) for i, w in zip(boxes, residuals)]

    def misfit(self, d: np.ndarray) -> float:
        """The squared norm of d on the measurement boundary."""
        return fem.inner_product(d, d, self.bmass0)
