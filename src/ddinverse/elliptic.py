"""Global and subdomain-local elliptic solution operators.

Two stationary settings share the machinery:

* volume-source identification: -div(a grad u) + c u = f with Dirichlet data
  on the whole boundary; the parameter is the source f and the data live in
  the volume;
* boundary-flux identification: the same operator with Neumann data
  everywhere, the unknown flux on the right side (x = 1) and measurements on
  the remaining boundary.

Local operators solve the same equation on one overlapping box with the
inherited outer boundary condition and Dirichlet values on the inner
(artificial) boundary.  For the flux setting the Dirichlet set is the inner
boundary *closure* (including the nodes where a cut line meets the outer
boundary); with that choice the restriction of a global solve satisfies the
local system exactly, which the Schwarz iterations rely on.

Volume loads and inner products use the lumped mass; see fem module notes.
"""

from __future__ import annotations

import numpy as np

from . import fem


def _box_boundary_mass(mesh, edges, inside, nodes):
    """Boundary mass of the edges lying in a box, restricted to the box
    nodes; None when no edge lies in the box."""
    edges = edges[np.all(inside[edges], axis=1)]
    if not edges.size:
        return None
    return fem.assemble_boundary_mass(mesh, edges)[np.ix_(nodes, nodes)].tocsr()


class SourceOperators:
    """Forward/adjoint operators for volume-source identification.

    The homogeneous-data operator maps a nodal source to the solution with
    zero Dirichlet values; it is self-adjoint in the lumped L2 product, and
    its subdomain-local version with zero inner-boundary values is
    self-adjoint in the local product.
    """

    def __init__(self, mesh, decomp, diffusion, reaction,
                 boundary_data=None, tol=1e-10):
        self.mesh = mesh
        self.decomp = decomp
        self.tol = tol
        self.boundary_data = boundary_data

        K, _ = fem.assemble(mesh, diffusion, reaction)
        self.lumped = fem.lumped_mass(mesh)
        self.boundary_nodes = np.flatnonzero(mesh.boundary_mask)
        self.global_system = fem.DirichletSystem(K, self.boundary_nodes,
                                                 mesh.nodes)
        self.locals = [
            fem.BoxSystem(mesh, decomp, i, diffusion, reaction, "box-boundary")
            for i in range(decomp.n_subdomains)
        ]
        self._warm: dict = {}
        self.solve_count = 0

    def _warm_get(self, key):
        return self._warm.get(key) if key is not None else None

    def _warm_put(self, key, x):
        if key is not None:
            self._warm[key] = x

    def solve_u0(self) -> np.ndarray:
        """Solution with zero source and the problem's fixed boundary data."""
        if self.boundary_data is None:
            return np.zeros(self.mesh.n_nodes)
        xb, yb = self.mesh.nodes[self.boundary_nodes].T
        gvals = np.asarray(self.boundary_data(xb, yb), dtype=float)
        gvals = np.broadcast_to(gvals, self.boundary_nodes.shape).astype(float)
        self.solve_count += 1
        return self.global_system.solve(np.zeros(self.mesh.n_nodes), gvals,
                                        tol=self.tol)

    def forward_global(self, f: np.ndarray, *, warm=None) -> np.ndarray:
        """Solve with source f and zero boundary values; linear in f."""
        self.solve_count += 1
        x = self.global_system.solve(self.lumped * f, None, tol=self.tol,
                                     x0=self._warm_get(("g", warm)))
        self._warm_put(("g", warm), x)
        return x

    def forward_local(self, i: int, f: np.ndarray, trace=None, *,
                      warm=None) -> np.ndarray:
        """Local solve on box i: source f, zero values on the outer boundary
        part, Dirichlet `trace` on the inner boundary (zero when None).
        Returns a full-length field supported on the box."""
        loc = self.locals[i]
        rhs = loc.lumped * loc.localize(f)
        self.solve_count += 1
        x = loc.system.solve(rhs, loc.fixed_values(trace), tol=self.tol,
                             x0=self._warm_get(("l", i, warm)))
        self._warm_put(("l", i, warm), x)
        return loc.embed(x)


class FluxOperators:
    """Forward/adjoint operators for boundary-flux identification.

    The forward map takes a flux on the right side to the solution of the
    all-Neumann problem; the adjoint map feeds data on the remaining boundary
    back through the same operator.  Both are realized with the same
    symmetric matrix, so the discrete duality pairing (boundary mass inner
    products) holds to solver tolerance.
    """

    def __init__(self, mesh, decomp, diffusion, reaction,
                 volume_source=None, neumann_data=None, tol=1e-10):
        self.mesh = mesh
        self.decomp = decomp
        self.tol = tol
        self.volume_source = volume_source
        self.neumann_data = neumann_data

        K, _ = fem.assemble(mesh, diffusion, reaction)
        self.lumped = fem.lumped_mass(mesh)

        gamma1_edges = mesh.side_edges("right")
        gamma0_edges = np.vstack([mesh.side_edges(s)
                                  for s in ("left", "bottom", "top")])
        self.gamma1_nodes = mesh.side_nodes("right")
        self.gamma0_nodes = np.unique(gamma0_edges.ravel())
        self.bmass1 = fem.assemble_boundary_mass(mesh, gamma1_edges)
        self.bmass0 = fem.assemble_boundary_mass(mesh, gamma0_edges)

        self.global_system = fem.DirichletSystem(
            K, np.array([], dtype=np.int64), mesh.nodes)
        self.locals = []
        self.bmass1_loc = []
        self.bmass0_loc = []
        for i in range(decomp.n_subdomains):
            loc = fem.BoxSystem(mesh, decomp, i, diffusion, reaction,
                                "interface-closure")
            self.locals.append(loc)
            self.bmass1_loc.append(_box_boundary_mass(
                mesh, gamma1_edges, decomp.masks[i], loc.nodes))
            self.bmass0_loc.append(_box_boundary_mass(
                mesh, gamma0_edges, decomp.masks[i], loc.nodes))
        self._warm: dict = {}
        self.solve_count = 0

    def _warm_get(self, key):
        return self._warm.get(key) if key is not None else None

    def _warm_put(self, key, x):
        if key is not None:
            self._warm[key] = x

    def _global_solve(self, rhs, warm):
        self.solve_count += 1
        x = self.global_system.solve(rhs, None, tol=self.tol,
                                     x0=self._warm_get(warm))
        self._warm_put(warm, x)
        return x

    def solve_u0(self) -> np.ndarray:
        """Solution with zero unknown flux and the fixed source/Neumann data."""
        rhs = np.zeros(self.mesh.n_nodes)
        if self.volume_source is not None:
            x, y = self.mesh.nodes.T
            rhs += self.lumped * np.asarray(self.volume_source(x, y), dtype=float)
        if self.neumann_data is not None:
            x, y = self.mesh.nodes.T
            g = np.zeros(self.mesh.n_nodes)
            g[self.gamma0_nodes] = np.asarray(
                self.neumann_data(x[self.gamma0_nodes], y[self.gamma0_nodes]),
                dtype=float)
            rhs += self.bmass0 @ g
        if not np.any(rhs):
            return np.zeros(self.mesh.n_nodes)
        return self._global_solve(rhs, None)

    def forward_global(self, h: np.ndarray, *, warm=None) -> np.ndarray:
        """All-Neumann solve driven by the flux h (full-length vector with
        values on the right-side nodes); returns the volume field."""
        return self._global_solve(self.bmass1 @ h, ("g", warm))

    def adjoint_volume(self, w: np.ndarray, *, warm=None) -> np.ndarray:
        """All-Neumann solve driven by data w on the measurement boundary."""
        return self._global_solve(self.bmass0 @ w, ("a", warm))

    def adjoint_global(self, w: np.ndarray, *, warm=None) -> np.ndarray:
        """Adjoint map as a trace: values on the right-side nodes."""
        return self.adjoint_volume(w, warm=warm)[self.gamma1_nodes]

    def _local_solve(self, i, bmass_loc, field, trace, warm):
        """Local solve on box i loaded by `field` through the box boundary
        mass `bmass_loc` (no load when the box misses that boundary part)."""
        loc = self.locals[i]
        rhs_local = (np.zeros(loc.nodes.size) if bmass_loc is None
                     else bmass_loc @ loc.localize(field))
        self.solve_count += 1
        x = loc.system.solve(rhs_local, loc.fixed_values(trace), tol=self.tol,
                             x0=self._warm_get(warm))
        self._warm_put(warm, x)
        return loc.embed(x)

    def forward_local(self, i: int, h: np.ndarray, trace=None, *,
                      warm=None) -> np.ndarray:
        """Local solve on box i with Neumann flux h on its right-side part,
        zero data on its measurement part and Dirichlet `trace` on the inner
        boundary closure."""
        return self._local_solve(i, self.bmass1_loc[i], h, trace,
                                 ("lf", i, warm))

    def adjoint_local(self, i: int, w: np.ndarray, trace=None, *,
                      warm=None) -> np.ndarray:
        """Local adjoint solve on box i: Neumann data w on its measurement
        part, zero flux, Dirichlet `trace` on the inner boundary closure."""
        return self._local_solve(i, self.bmass0_loc[i], w, trace,
                                 ("la", i, warm))
