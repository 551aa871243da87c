"""Global and subdomain-local elliptic solution operators.

Two stationary settings share one implementation and differ only in data:

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


class SourceOperators:
    """Forward/adjoint operators for volume-source identification, and the
    one implementation of the elliptic solves.

    The forward map takes a nodal source to the solution with zero
    Dirichlet values, linearly; it is self-adjoint in the lumped L2 product,
    and its subdomain-local version with zero inner-boundary values is
    self-adjoint in the local product.

    The solves read only the problem's data, which `_data` sets: the
    parameter mass `param_mass` loads the forward maps, the data mass
    `data_mass` the local adjoint and `misfit`; `supports` are the per-box
    parameter masks.  Box i, `locals[i]` in the Dirichlet mode `dirichlet`,
    holds both masses restricted to its nodes, `box_param_mass[i]` and
    `box_data_mass[i]`, as its system `box_systems[i]` holds K.  The box
    systems are built after the global one (built before it, they raise the
    setup's peak memory); `solve_count` counts every solve.
    """

    surrogate_scale = 1.0
    dirichlet = "box-boundary"

    def __init__(self, mesh, decomp, diffusion, reaction, tol=1e-10):
        self.mesh, self.decomp, self.tol = mesh, decomp, tol
        K = fem.assemble(mesh, diffusion, reaction)
        self.global_system = fem.DirichletSystem(
            [(K, self._data(mesh, decomp, K), mesh.nodes)])
        self.locals = [fem.BoxSystem(decomp, i, self.dirichlet)
                       for i in range(decomp.n_subdomains)]
        self.box_systems = [fem.DirichletSystem([loc.member(K, mesh.nodes)])
                            for loc in self.locals]
        self.box_param_mass = [fem.restrict_mass(self.param_mass, loc.nodes)
                               for loc in self.locals]
        self.box_data_mass = (  # one stored copy when the masses are one
            self.box_param_mass if self.data_mass is self.param_mass
            else [fem.restrict_mass(self.data_mass, loc.nodes)
                  for loc in self.locals])
        self.solve_count = 0

    def _data(self, mesh, decomp, K):
        """Set the lumped mass `lumped` as both masses and the open boxes
        as the supports; return the global fixed set, the boundary."""
        self.lumped = fem.lumped_mass(mesh)
        self.param_mass = self.data_mass = self.lumped
        self.supports = list(decomp.interior_masks)
        return np.flatnonzero(mesh.boundary_mask)

    def _solve(self, system, rhs, fixed_values=None):
        self.solve_count += 1
        return system.solution(rhs, fixed_values, tol=self.tol)

    def forward_global(self, f: np.ndarray) -> np.ndarray:
        """Solve loaded by the parameter f through `param_mass`, zero on the
        global fixed set; linear in f."""
        return self._solve(self.global_system,
                           fem.apply_mass(self.param_mass, f))

    def forward_local(self, i: int, f: np.ndarray, trace=None) -> np.ndarray:
        """Local solve on box i loaded by the box parameter f through its
        parameter mass, with Dirichlet `trace` on the inner boundary (zero
        when None); box fields are numbered by `locals[i].nodes`."""
        return self._solve(self.box_systems[i],
                           fem.apply_mass(self.box_param_mass[i], f),
                           self.locals[i].fixed_values(trace))

    def adjoint_local(self, i: int, w: np.ndarray, trace=None) -> np.ndarray:
        """Local solve on box i loaded by the box data w through its data
        mass, with Dirichlet `trace` on the inner boundary (zero when
        None).  With zero traces it is the adjoint of the zero-trace
        `forward_local` in the box masses."""
        return self._solve(self.box_systems[i],
                           fem.apply_mass(self.box_data_mass[i], w),
                           self.locals[i].fixed_values(trace))

    def forward_boxes(self, boxes, fields, traces=None) -> list:
        """`forward_local` of each box boxes[k], one after another, with
        the box field fields[k] and the inner-boundary values traces[k]
        (zero when traces is None)."""
        traces = [None] * len(fields) if traces is None else traces
        return [self.forward_local(i, f, t)
                for i, f, t in zip(boxes, fields, traces)]

    def back_boxes(self, boxes, residuals) -> list:
        """Zero-trace `adjoint_local` of each box boxes[k] with the box data
        residuals[k]."""
        return [self.adjoint_local(i, w) for i, w in zip(boxes, residuals)]

    def misfit(self, d: np.ndarray) -> float:
        """The squared norm of the misfit d in `data_mass`."""
        return fem.inner_product(d, d, self.data_mass)


class FluxOperators(SourceOperators):
    """Forward/adjoint operators for boundary-flux identification.

    The forward map takes a flux on the right side to the solution of the
    all-Neumann problem with zero source and zero Neumann data elsewhere,
    linearly; the adjoint map feeds data on the remaining boundary
    back through the same operator.  Both are realized with the same
    symmetric matrix, so the discrete duality pairing (boundary mass inner
    products) holds to solver tolerance.  Only the data differ from
    `SourceOperators`, whose solves these are.
    """

    dirichlet = "interface-closure"

    def _data(self, mesh, decomp, K):
        """Set the boundary masses of the right side `bmass1` (the parameter
        mass) and of the measurement boundary `bmass0` (the data mass) and
        each closed box's right-side nodes as the supports; return the empty
        global fixed set."""
        # Without Dirichlet data, K annihilates the constants exactly when
        # the reaction term vanishes: the stiffness rows sum to zero.
        if np.abs(K @ np.ones(mesh.n_nodes)).max() <= 1e-12 * K.diagonal().max():
            raise ValueError("the all-Neumann flux operator is singular: the "
                             "reaction coefficient is zero, so K @ 1 = 0")
        self.gamma1_nodes = mesh.side_nodes("right")
        self.bmass1 = fem.assemble_boundary_mass(mesh, mesh.side_edges("right"))
        self.bmass0 = fem.assemble_boundary_mass(mesh, np.vstack(
            [mesh.side_edges(s) for s in ("left", "bottom", "top")]))
        self.param_mass, self.data_mass = self.bmass1, self.bmass0
        right = np.zeros(mesh.n_nodes, dtype=bool)
        right[self.gamma1_nodes] = True
        self.supports = list(decomp.masks & right)  # empty short of x = 1
        return np.array([], dtype=np.int64)

    def adjoint_volume(self, w: np.ndarray) -> np.ndarray:
        """All-Neumann solve driven by data w on the measurement boundary."""
        return self._solve(self.global_system, self.bmass0 @ w)

    def adjoint_global(self, w: np.ndarray) -> np.ndarray:
        """Adjoint map as a trace: values on the right-side nodes."""
        return self.adjoint_volume(w)[self.gamma1_nodes]
