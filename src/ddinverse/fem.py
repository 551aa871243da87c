"""P1 finite element assembly and sparse linear algebra.

Assembly returns scipy CSR matrices; variable coefficients are sampled at
element centroids (one-point quadrature, second order for P1).  Linear
systems are solved by preconditioned conjugate gradients with Dirichlet
conditions eliminated symmetrically, so every assembled operator stays
symmetric positive definite.  The preconditioner is Jacobi; a system with
at least MIN_AGGREGATES * AGGREGATE_SIZE free nodes adds the coarse
correction of the additive two-level method, whose aggregates are bins of
about AGGREGATE_SIZE free nodes and whose small Galerkin matrix is inverted
densely once.  Jacobi alone needs O(1/h) iterations per solve; the coarse
space removes most of that growth.

Volume L2 inner products used by the inversion machinery are taken with the
lumped (diagonal) mass, i.e. nodal quadrature.  This choice is what makes
the closed-form local minimizers in the Schwarz loops exact at the discrete
level.  Boundary (1D) mass matrices are kept consistent, which integrates
products of P1 traces exactly.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

# Free nodes per coarse aggregate (bins of about 8 x 8 nodes).
AGGREGATE_SIZE = 64
# Below this many aggregates the coarse solve costs more than the
# iterations it saves, so smaller systems stay on Jacobi alone.
MIN_AGGREGATES = 64


class SolverError(RuntimeError):
    """Raised when an iterative solve fails to reach its tolerance or
    breaks down."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def _coefficient_values(coef, cx, cy):
    if callable(coef):
        vals = np.asarray(coef(cx, cy), dtype=float)
        if vals.shape != cx.shape:
            vals = np.broadcast_to(vals, cx.shape).astype(float)
        return vals
    return np.full(cx.shape, float(coef))


def assemble(mesh, diffusion, reaction, elements=None):
    """Assemble the operator and mass matrices over a set of elements.

    Parameters
    ----------
    mesh : TriMesh
    diffusion, reaction : scalar or callable (x, y) -> value
        Coefficients of the -div(a grad u) + c u form, sampled at centroids.
    elements : optional int or bool array selecting elements (default: all).

    Returns
    -------
    (K, M) : CSR matrices of size n_nodes x n_nodes
        K is the discrete operator (diffusion stiffness plus reaction mass),
        M the consistent mass over the selected elements.
    """
    elems = mesh.elements if elements is None else mesh.elements[elements]
    if elems.shape[0] == 0:
        raise ValueError("element selection is empty")
    p = mesh.nodes[elems]  # (m, 3, 2)
    x, y = p[..., 0], p[..., 1]
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    if np.any(area <= 0):
        raise ValueError("mesh contains non-positively oriented elements")

    cx = x.mean(axis=1)
    cy = y.mean(axis=1)
    a_vals = _coefficient_values(diffusion, cx, cy)
    c_vals = _coefficient_values(reaction, cx, cy)
    del cx, cy
    if np.any(a_vals <= 0):
        raise ValueError("diffusion coefficient must be positive at every centroid")

    # Constant P1 gradients: grad phi_k = (bx_k, by_k).
    bx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    by = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    del p, x, y
    bx /= (2 * area)[:, None]
    by /= (2 * area)[:, None]

    # kloc = (a area) (bx bx' + by by') + c mass, built in place; the order
    # of the operations is that of the plain expression, so K is unchanged
    # to the bit.
    kloc = bx[:, :, None] * bx[:, None, :]
    work = np.multiply(by[:, :, None], by[:, None, :])
    del bx, by
    kloc += work
    kloc *= (a_vals * area)[:, None, None]
    mass_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    mass = area[:, None, None] * mass_ref[None, :, :]
    np.multiply(c_vals[:, None, None], mass, out=work)
    kloc += work
    del work

    elems = elems.astype(np.int32)
    rows = np.repeat(elems, 3, axis=1).ravel()
    cols = np.tile(elems, (1, 3)).ravel()
    n = mesh.n_nodes
    K = sp.coo_matrix((kloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    del kloc
    M = sp.coo_matrix((mass.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return K, M


def lumped_mass(mesh, elements=None) -> np.ndarray:
    """Diagonal (lumped) mass over a set of elements: area/3 per vertex."""
    elems, area = mesh.elements, mesh.element_areas()
    if elements is not None:
        elems, area = elems[elements], area[elements]
    m = np.zeros(mesh.n_nodes)
    np.add.at(m, elems.ravel(), np.repeat(area / 3.0, 3))
    return m


def assemble_boundary_mass(mesh, edges) -> sp.csr_matrix:
    """Consistent 1D P1 mass matrix over a list of boundary edges.

    Each edge of length L contributes L/6 * [[2, 1], [1, 2]] to its two
    endpoint nodes.  Rejects an empty edge list.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        raise ValueError("boundary segment contains no complete edge")
    p0 = mesh.nodes[edges[:, 0]]
    p1 = mesh.nodes[edges[:, 1]]
    length = np.linalg.norm(p1 - p0, axis=1)
    loc = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    vals = length[:, None, None] * loc[None, :, :]
    rows = np.repeat(edges, 2, axis=1).ravel()
    cols = np.tile(edges, (1, 2)).ravel()
    n = mesh.n_nodes
    return sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def inner_product(u, v, mass) -> float:
    """Discrete L2 product u' M v; mass may be a CSR matrix or a diagonal
    given as a 1-D array.  Evaluated symmetrically, so swapping the
    arguments reproduces the value bit for bit."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"field shapes differ: {u.shape} vs {v.shape}")
    if isinstance(mass, np.ndarray):
        if mass.shape[0] != u.shape[0]:
            raise ValueError("mass diagonal does not match field length")
        return float(np.dot(u * v, mass))
    if mass.shape[0] != u.shape[0]:
        raise ValueError("mass matrix does not match field length")
    return float(0.5 * (np.dot(u, mass @ v) + np.dot(v, mass @ u)))


def pcg(A, b, *, inv_diag=None, coarse=None, tol=1e-10, max_iter=None,
        x0=None):
    """Preconditioned conjugate gradients for SPD A.

    The preconditioner is Jacobi, z = inv_diag * r with inv_diag = 1/diag(A)
    (computed when not given).  With coarse = (agg, Ac_inv) from
    `coarse_space` it is the additive two-level one: the coarse correction
    (Ac_inv @ bincount(agg, r))[agg] is added to the Jacobi term.

    Stops when ||b - A x|| <= tol * ||b||; returns (x, relative residual,
    iterations).  Raises SolverError when max_iter is exhausted or when
    p'Ap <= 0 (A is not positive definite).
    """
    n = b.shape[0]
    if max_iter is None:
        max_iter = 40 * n + 200
    bnorm = math.sqrt(np.dot(b, b))
    if bnorm == 0.0:
        return np.zeros(n), 0.0, 0
    if inv_diag is None:
        inv_diag = 1.0 / A.diagonal()

    def precondition(r, out):
        np.multiply(inv_diag, r, out=out)
        if coarse is not None:
            agg, coarse_inv = coarse
            out += (coarse_inv @ np.bincount(agg, weights=r))[agg]
        return out

    x = np.zeros(n) if x0 is None else x0.copy()
    r = b - A @ x if x0 is not None else b.copy()
    z = precondition(r, np.empty(n))
    p = z.copy()
    step = np.empty(n)
    rz = np.dot(r, z)
    rnorm = math.sqrt(np.dot(r, r))
    it = 0
    while rnorm > tol * bnorm:
        if it >= max_iter:
            raise SolverError(
                f"conjugate gradients stalled at relative residual "
                f"{rnorm / bnorm:.3e} after {it} iterations (target {tol:.1e})",
                residual=rnorm / bnorm,
                iterations=it,
            )
        Ap = A @ p
        pAp = np.dot(p, Ap)
        if pAp <= 0.0:
            raise SolverError(
                f"conjugate gradients broke down after {it} iterations: "
                f"p'Ap = {pAp:.3e} <= 0, the matrix is not positive definite",
                residual=rnorm / bnorm,
                iterations=it,
            )
        alpha = rz / pAp
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(Ap, alpha, out=Ap)
        precondition(r, z)
        rz_new = np.dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
        rnorm = math.sqrt(np.dot(r, r))
        it += 1
    return x, rnorm / bnorm, it


def coarse_space(K: sp.csr_matrix, coords: np.ndarray):
    """Aggregation coarse space of the additive two-level preconditioner.

    The nodes (coordinates `coords`, one row per row of K) are binned on a
    grid over their bounding box with about AGGREGATE_SIZE nodes per bin,
    and the occupied bins are the aggregates.  With P the 0/1 matrix of
    node-in-aggregate, the Galerkin matrix Ac = P' K P is inverted densely.
    Returns (agg, Ac_inv), agg the aggregate of each node.  Raises
    ValueError when Ac is not positive definite.
    """
    lo = coords.min(axis=0)
    extent = coords.max(axis=0) - lo
    # Bins per axis in proportion to the extents, about n / AGGREGATE_SIZE
    # in all.
    target = coords.shape[0] / AGGREGATE_SIZE
    bins = np.maximum(np.rint(np.sqrt(target * extent / extent[::-1])), 1)
    bins = bins.astype(np.int64)
    cell = np.minimum(((coords - lo) / extent * bins).astype(np.int64),
                      bins - 1)
    _, agg = np.unique(cell[:, 0] * bins[1] + cell[:, 1], return_inverse=True)
    n_agg = int(agg.max()) + 1
    Kc = K.tocoo()
    Ac = sp.coo_matrix((Kc.data, (agg[Kc.row], agg[Kc.col])),
                       shape=(n_agg, n_agg)).toarray()
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(Ac))
    except np.linalg.LinAlgError:
        raise ValueError("coarse operator is not positive definite") from None
    return agg, L_inv.T @ L_inv


class DirichletSystem:
    """An SPD operator with a fixed Dirichlet node set eliminated symmetrically.

    Splits K into the free-free block and the free-fixed coupling once, so
    repeated solves with different right-hand sides and boundary values stay
    cheap.  `coords` holds the coordinates of K's nodes, one row per node;
    a system with at least MIN_AGGREGATES * AGGREGATE_SIZE free nodes builds
    its coarse space from those of the free nodes.  Solutions are returned
    on the full index set with the boundary values imposed exactly.
    """

    def __init__(self, K: sp.csr_matrix, fixed: np.ndarray, coords: np.ndarray):
        n = K.shape[0]
        fixed = np.unique(np.asarray(fixed, dtype=np.int64))
        free_mask = np.ones(n, dtype=bool)
        free_mask[fixed] = False
        self.n = n
        self.fixed = fixed
        self.free = np.flatnonzero(free_mask)
        self.K_ff = K[np.ix_(self.free, self.free)].tocsr()
        self.K_fd = K[np.ix_(self.free, fixed)].tocsr() if fixed.size else None
        diag = self.K_ff.diagonal()
        if np.any(diag <= 0):
            raise ValueError("operator is not positive definite on free nodes")
        self.inv_diag = 1.0 / diag
        self.coarse = None
        if self.free.size >= MIN_AGGREGATES * AGGREGATE_SIZE:
            self.coarse = coarse_space(self.K_ff, coords[self.free])

    def solve(self, rhs, fixed_values=None, *, tol=1e-10, max_iter=None, x0=None):
        """Solve K x = rhs with x = fixed_values on the fixed set.

        rhs is the full-length load vector; fixed_values is a vector over the
        fixed set (or None for homogeneous).  x0, when given, is a full-length
        warm start.
        """
        b = rhs[self.free]
        if self.K_fd is not None and fixed_values is not None:
            vals = np.asarray(fixed_values, dtype=float)
            if vals.ndim == 0:
                vals = np.full(self.fixed.size, float(vals))
            b = b - self.K_fd @ vals
        else:
            vals = None
        guess = x0[self.free] if x0 is not None else None
        xf, _, _ = pcg(self.K_ff, b, inv_diag=self.inv_diag,
                       coarse=self.coarse, tol=tol, max_iter=max_iter,
                       x0=guess)
        x = np.zeros(self.n)
        x[self.free] = xf
        if vals is not None:
            x[self.fixed] = vals
        return x


class BoxSystem:
    """The restriction of an operator to one subdomain box.

    The operator K of -div(a grad u) + c u is assembled over the box's
    elements and restricted to its nodes.  `system` solves with K, or with
    the Crank-Nicolson matrix S = M + dt/2 K when dt is given; the explicit
    half step Stilde = M - dt/2 K is kept next to it (M the lumped mass).
    The fixed Dirichlet set is the box nodes off the open box
    ("box-boundary") or the inner boundary closure ("interface-closure").
    Inner-boundary values arrive on the interfaces (or their closures); the
    rest of the fixed set is held at zero.
    """

    def __init__(self, mesh, decomp, index, diffusion, reaction,
                 dirichlet="box-boundary", dt=None):
        emask = decomp.element_masks[index]
        K_full, _ = assemble(mesh, diffusion, reaction, emask)
        self.nodes = np.flatnonzero(decomp.masks[index])
        self.lumped = lumped_mass(mesh, emask)[self.nodes]
        self.n_full = mesh.n_nodes
        K = K_full[np.ix_(self.nodes, self.nodes)].tocsr()
        matrix = K
        if dt is not None:
            matrix = (sp.diags(self.lumped) + 0.5 * dt * K).tocsr()
            self.Stilde = (sp.diags(self.lumped) - 0.5 * dt * K).tocsr()

        if dirichlet == "box-boundary":
            fixed = self.nodes[~decomp.interior_masks[index][self.nodes]]
            trace_nodes = decomp.interfaces[index]
        elif dirichlet == "interface-closure":
            fixed = trace_nodes = decomp.interface_closures[index]
        else:
            raise ValueError(f"unknown dirichlet mode {dirichlet!r}")
        self.trace_local = np.searchsorted(self.nodes, trace_nodes)
        self.system = DirichletSystem(matrix, np.searchsorted(self.nodes, fixed),
                                      mesh.nodes[self.nodes])

    def localize(self, field: np.ndarray) -> np.ndarray:
        """Box part of full-length fields of shape (..., n_nodes)."""
        return field[..., self.nodes]

    def embed(self, local: np.ndarray) -> np.ndarray:
        """Full-length fields, zero off the box, from box fields (..., n)."""
        out = np.zeros(local.shape[:-1] + (self.n_full,))
        out[..., self.nodes] = local
        return out

    def fixed_values(self, trace):
        """Values on the fixed set: `trace` on the inner-boundary nodes,
        zero on the rest.  trace has shape (..., number of inner-boundary
        nodes), e.g. one row per time level; None (homogeneous values) is
        passed through."""
        if trace is None:
            return None
        vals = np.zeros(np.shape(trace)[:-1] + (self.nodes.size,))
        vals[..., self.trace_local] = trace
        return vals[..., self.system.fixed]
