"""P1 finite element assembly and sparse linear algebra.

Assembly returns scipy CSR matrices; variable coefficients are sampled at
element centroids (one-point quadrature, second order for P1).  Linear
systems eliminate their Dirichlet conditions symmetrically, so every
assembled operator stays symmetric positive definite.  A system that asks
for a direct solve and has fewer than MULTILEVEL_SIZE free nodes, with at
most MAX_BAND_ENTRIES free nodes times bandwidth, is factored once, by
block cyclic reduction over blocks of its bandwidth in plain numpy, and
solved directly.  Every other system is solved by preconditioned conjugate
gradients: with Jacobi below MULTILEVEL_SIZE free nodes, and from there on
with one V-cycle of a smoothed-aggregation multilevel hierarchy, whose
aggregates are bins of about AGGREGATE_SIZE nodes on every level and whose
coarsest matrix, of at most COARSEST_SIZE unknowns, is inverted densely
once.  Jacobi alone needs O(1/h) iterations per solve; the V-cycle keeps
the count nearly independent of the mesh size.  Neither path imports
scipy.linalg or scipy.sparse.linalg, whose import alone adds several MB of
resident memory.

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

# Systems with at least this many free nodes are solved by PCG with the
# multilevel preconditioner; smaller ones are factored, or solved with
# Jacobi PCG alone.
MULTILEVEL_SIZE = 4096
# Nodes per aggregate on each level of the hierarchy (bins of about 3 x 3).
AGGREGATE_SIZE = 9
# Damped-Jacobi weight of the prolongation smoother and of the V-cycle's
# smoothing steps.
SMOOTHING_WEIGHT = 2.0 / 3.0
# Coarsening stops once a level has at most this many unknowns; that
# level's matrix is inverted densely.
COARSEST_SIZE = 200
# A band factor holds about (free nodes) x (bandwidth) numbers and takes
# about (free nodes) x (bandwidth)^2 operations; a system above this many
# is solved iteratively instead.  A square grid just below the size rule,
# 64 x 64 nodes, has a bandwidth of about 64.
MAX_BAND_ENTRIES = MULTILEVEL_SIZE * 64
# Block cyclic reduction stops once at most this many unknowns remain and
# inverts the rest densely.
DENSE_TAIL = 64


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
    """Assemble the operator matrix over a set of elements.

    Parameters
    ----------
    mesh : TriMesh
    diffusion, reaction : scalar or callable (x, y) -> value
        Coefficients of the -div(a grad u) + c u form, sampled at centroids.
    elements : optional int or bool array selecting elements (default: all).

    Returns
    -------
    K : CSR matrix of size n_nodes x n_nodes, the discrete operator
        (diffusion stiffness plus reaction mass).
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
    np.multiply(area[:, None, None], mass_ref, out=work)
    work *= c_vals[:, None, None]
    kloc += work
    del work

    elems = elems.astype(np.int32)
    rows = np.repeat(elems, 3, axis=1).ravel()
    cols = np.tile(elems, (1, 3)).ravel()
    n = mesh.n_nodes
    return sp.coo_matrix((kloc.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def lumped_mass(mesh, elements=None) -> np.ndarray:
    """Diagonal (lumped) mass over a set of elements: area/3 per vertex."""
    elems = mesh.elements if elements is None else mesh.elements[elements]
    area = mesh.element_areas(elements)
    return np.bincount(elems.ravel(), weights=np.repeat(area / 3.0, 3),
                       minlength=mesh.n_nodes)


def crank_nicolson(K, lumped, dt):
    """The Crank-Nicolson pair S = M + dt/2 K and Stilde = M - dt/2 K of an
    operator K in canonical CSR form with one stored diagonal entry per row,
    M = diag(lumped).  Entries that come out as zero are not stored."""
    half = K.data * (0.5 * dt)
    on_diagonal = K.indices == np.repeat(
        np.arange(K.shape[0], dtype=K.indices.dtype), np.diff(K.indptr))
    pair = []
    for data in (half.copy(), -half):
        data[on_diagonal] += lumped
        matrix = sp.csr_matrix((data, K.indices.copy(), K.indptr.copy()),
                               shape=K.shape)
        matrix.eliminate_zeros()
        pair.append(matrix)
    return pair


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


def pcg(A, b, *, inv_diag=None, multilevel=None, tol=1e-10, max_iter=None,
        x0=None):
    """Preconditioned conjugate gradients for SPD A.

    The preconditioner is one V-cycle of `multilevel`, a `Multilevel`
    hierarchy of A, when given, and Jacobi, z = inv_diag * r with
    inv_diag = 1/diag(A) (computed when not given), otherwise.

    Stops when ||b - A x|| <= tol * ||b||; returns (x, relative residual,
    iterations).  A right-hand side holding inf or nan gives an all-nan x
    after 0 iterations, so the caller sees the failure in the solution.
    Raises SolverError when max_iter is exhausted or when p'Ap <= 0 (A is
    not positive definite).
    """
    n = b.shape[0]
    if max_iter is None:
        max_iter = 40 * n + 200
    bnorm = math.sqrt(np.dot(b, b))
    if bnorm == 0.0:
        return np.zeros(n), 0.0, 0
    if not math.isfinite(bnorm):
        return np.full(n, math.nan), math.nan, 0
    if multilevel is not None:
        precondition = multilevel.apply
    else:
        if inv_diag is None:
            inv_diag = 1.0 / A.diagonal()

        def precondition(r, out):
            return np.multiply(inv_diag, r, out=out)

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


def _aggregates(coords):
    """Aggregate of each node: the occupied bins of a grid over the bounding
    box of the node coordinates `coords` with about AGGREGATE_SIZE nodes per
    bin, numbered in bin order."""
    lo = coords.min(axis=0)
    extent = coords.max(axis=0) - lo
    target = coords.shape[0] / AGGREGATE_SIZE
    # Bins per axis in proportion to the extents, about `target` in all, and
    # at least one and at most `target` on each axis.  Nodes on a line (an
    # axis without extent) are binned along the line only.
    flat = extent == 0
    if flat.any():
        bins = np.where(flat, 1.0, target)
        extent[flat] = 1.0
    else:
        bins = np.sqrt(target * extent / extent[::-1])
    bins = np.clip(np.rint(bins), 1, max(round(target), 1)).astype(np.int64)
    cell = np.minimum(((coords - lo) / extent * bins).astype(np.int64),
                      bins - 1)
    _, agg = np.unique(cell[:, 0] * bins[1] + cell[:, 1], return_inverse=True)
    return agg


class Multilevel:
    """Smoothed-aggregation multilevel preconditioner of an SPD matrix A
    (Vanek, Mandel and Brezina, Computing 56, 1996).

    Row i of `coords` holds the coordinates of unknown i.  Each level bins
    its unknowns into aggregates (`_aggregates`); the 0/1 matrix T of
    unknown-in-aggregate is smoothed once by damped Jacobi into the
    prolongation P = T - w D^-1 A T (w = SMOOTHING_WEIGHT, D = diag(A)),
    the next level's matrix is P' A P and its unknowns sit at the aggregate
    centroids.  Coarsening stops at COARSEST_SIZE unknowns or fewer, whose
    matrix is inverted densely.  Each level keeps A, P, the transpose view
    P' and w / diag(A).  `apply` is one symmetric V(1,1) cycle with
    damped-Jacobi smoothing.  Raises ValueError when a level's matrix is not
    positive definite (checked on the diagonals and by a Cholesky
    factorization of the coarsest matrix).
    """

    def __init__(self, A: sp.csr_matrix, coords: np.ndarray):
        self.levels = []
        while True:
            diag = A.diagonal()
            if not np.all(diag > 0):
                raise ValueError("coarse operator is not positive definite")
            n = A.shape[0]
            if n <= COARSEST_SIZE:
                break
            agg = _aggregates(coords)
            n_agg = int(agg.max()) + 1
            scaled = SMOOTHING_WEIGHT / diag
            T = sp.csr_matrix((np.ones(n), agg, np.arange(n + 1)),
                              shape=(n, n_agg))
            # A copy, because the difference keeps arrays sized for the
            # entries of both operands
            P = (T - sp.diags(scaled) @ (A @ T)).copy()
            PT = P.T
            self.levels.append((A, P, PT, scaled))
            A = (PT @ (A @ P)).tocsr()
            coords = (np.column_stack([np.bincount(agg, c) for c in coords.T])
                      / np.bincount(agg)[:, None])
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(A.toarray()))
        except np.linalg.LinAlgError:
            raise ValueError("coarse operator is not positive definite") from None
        self.coarsest_inv = L_inv.T @ L_inv

    def apply(self, b: np.ndarray, out: np.ndarray | None = None,
              level: int = 0) -> np.ndarray:
        """One V(1,1) cycle for A x = b from x = 0, written to `out` when
        given; `level` > 0 solves with that level's matrix instead of A."""
        if level == len(self.levels):
            return np.dot(self.coarsest_inv, b, out=out)
        A, P, PT, scaled = self.levels[level]
        x = np.multiply(scaled, b, out=out)
        x += P @ self.apply(PT @ (b - A @ x), level=level + 1)
        residual = b - A @ x
        residual *= scaled
        x += residual
        return x


def _block_tridiagonal(D, U):
    """The dense symmetric matrix with diagonal blocks D and blocks U above
    them."""
    m, b, _ = D.shape
    A = np.zeros((m, b, m, b))
    i = np.arange(m)
    A[i, :, i, :] = D
    A[i[:-1], :, i[1:], :] = U
    A[i[1:], :, i[:-1], :] = U.transpose(0, 2, 1)
    return A.reshape(m * b, m * b)


class BandFactor:
    """Direct solver for a symmetric banded matrix by block cyclic reduction.

    The matrix, given by all its entries (rows, cols, vals) over n unknowns
    and symmetric, is cut into blocks of its bandwidth, which makes it block
    tridiagonal: blocks D_i on the diagonal, U_i coupling block i to i + 1
    and their transposes below.  Each level of odd-even reduction
    eliminates the odd blocks, leaving the Schur complement on the even
    ones, which is again block tridiagonal with half as many blocks
    (Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7, 1970).  All blocks
    of a level are processed by a few stacked numpy calls, so a
    factorization or a solve costs about log2(n / bandwidth) levels of
    about ten calls each; the last DENSE_TAIL or fewer unknowns (or the
    last block) are inverted densely.  The first level's couplings are the
    matrix's own entries and are applied as such.
    A padded last block carries the identity on its padding.  Each
    reduction step is a congruence, so the matrix is positive definite
    exactly when every pivot block and the dense tail are; each is checked
    by a Cholesky factorization, and ValueError is raised when one fails.
    """

    def __init__(self, rows, cols, vals, n):
        b = max(int(np.abs(rows - cols).max(initial=0)), 1)
        m = max(-(-n // b), 1)
        self.n, self.b, self.m = n, b, m
        # Entry (r, c) sits in block r // b at offset (r % b, c - (r // b) b);
        # an offset column of b or more falls in the coupling block U.
        D = np.zeros((m, b, b))
        U = np.zeros((m - 1, b, b))
        offset = cols - rows // b * b
        on = (offset >= 0) & (offset < b)
        D.reshape(-1)[rows[on] * b + offset[on]] = vals[on]
        up = offset >= b
        U.reshape(-1)[rows[up] * b + offset[up] - b] = vals[up]
        pad = np.arange(n - (m - 1) * b, b)
        D[-1, pad, pad] = 1.0
        # Per level: P, the inverses of the odd pivot blocks, and the
        # couplings Ua from each even block to the next odd one and Ub from
        # each odd block to the next even one, with their transposes.
        levels = []
        try:
            while D.shape[0] > 1 and D.size > DENSE_TAIL * b:
                k = D.shape[0] // 2
                Ua, Ub = U[0::2], U[1::2]
                UaT, UbT = Ua.transpose(0, 2, 1), Ub.transpose(0, 2, 1)
                np.linalg.cholesky(D[1::2])
                P = np.linalg.inv(D[1::2])
                V = P[:Ub.shape[0]] @ Ub
                D = D[0::2].copy()
                D[:k] -= Ua @ (P @ UaT)
                D[1:] -= UbT @ V
                levels.append((P, Ua, UaT, Ub, UbT))
                U = -(Ua[:V.shape[0]] @ V)
            tail = _block_tridiagonal(D, U)
            np.linalg.cholesky(tail)
            self.tail = np.linalg.inv(tail)
        except np.linalg.LinAlgError:
            raise ValueError("operator is not positive definite on free "
                             "nodes") from None
        # The first level keeps its couplings sparse: (E_rows, E_cols,
        # E_vals) are the entries from even to odd blocks.  Its dense Ua and
        # Ub would add about half to the size of the factor.
        self.P0 = levels[0][0] if levels else None
        self.levels = levels[1:]
        block_row = rows // b
        first = (block_row % 2 == 0) & (block_row != cols // b)
        self.E_rows, self.E_cols, self.E_vals = (rows[first], cols[first],
                                                 vals[first])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution x of A x = rhs, rhs a vector of length n."""
        x = np.zeros(self.m * self.b)
        x[:self.n] = rhs
        blocks = x.reshape(self.m, self.b, 1)
        # Forward: fold each level's odd blocks into the even ones, keeping
        # P r_odd in place of r_odd; the even blocks are the next level.
        even = blocks
        if self.P0 is not None:
            odd, even = blocks[1::2], blocks[0::2]
            odd[...] = self.P0 @ odd
            x -= np.bincount(self.E_rows, self.E_vals * x[self.E_cols],
                             x.size)
        split = []
        for P, Ua, UaT, Ub, UbT in self.levels:
            odd, even = even[1::2], even[0::2]
            odd[...] = P @ odd
            even[:len(Ua)] -= Ua @ odd
            even[1:] -= UbT @ odd[:len(Ub)]
            split.append((odd, even))
        even[...] = (self.tail @ even.reshape(-1, 1)).reshape(even.shape)
        # Back: x_odd = P (r_odd - Ua' x_prev - Ub x_next).
        for (P, Ua, UaT, Ub, UbT), (odd, even) in zip(reversed(self.levels),
                                                      reversed(split)):
            s = UaT @ even[:len(Ua)]
            s[:len(Ub)] += Ub @ even[1:]
            odd -= P @ s
        if self.P0 is not None:
            s = np.bincount(self.E_cols, self.E_vals * x[self.E_rows], x.size)
            blocks[1::2] -= self.P0 @ s.reshape(blocks.shape)[1::2]
        return x[:self.n]


def _csr(rows, cols, vals, shape):
    """CSR matrix of entries listed row by row, columns sorted in each row."""
    indptr = np.zeros(shape[0] + 1, dtype=cols.dtype)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_matrix((vals, cols, indptr), shape=shape)


def restrict(K, nodes):
    """K[nodes][:, nodes] of a canonical CSR matrix for sorted `nodes`, read
    row by row through a renumbering of the columns."""
    position = np.full(K.shape[0], -1, dtype=K.indices.dtype)
    position[nodes] = np.arange(nodes.size)
    starts, counts = K.indptr[nodes], np.diff(K.indptr)[nodes]
    rows = np.repeat(np.arange(nodes.size, dtype=K.indices.dtype), counts)
    entries = np.arange(rows.size) + np.repeat(starts - np.cumsum(counts)
                                               + counts, counts)
    cols = position[K.indices[entries]]
    keep = cols >= 0
    return _csr(rows[keep], cols[keep], K.data[entries[keep]],
                (nodes.size, nodes.size))


class DirichletSystem:
    """An SPD operator with a fixed Dirichlet node set eliminated symmetrically.

    Splits K into the free-free block and the free-fixed coupling once, in
    one pass over K's entries, so repeated solves with different right-hand
    sides and boundary values stay cheap.  With direct=True, a system with
    fewer than MULTILEVEL_SIZE free nodes and at most MAX_BAND_ENTRIES free
    nodes times bandwidth factors its free-free block once (`BandFactor`)
    and solves directly.  Every other system keeps K_ff and solves by PCG:
    with Jacobi below MULTILEVEL_SIZE free nodes, and from there on with the
    `Multilevel` hierarchy of K_ff, binned by the coordinates `coords` of
    its free nodes (one row of `coords` per node of K).  Solutions are returned
    on the full index set with the boundary values imposed exactly.
    """

    def __init__(self, K: sp.csr_matrix, fixed: np.ndarray, coords: np.ndarray,
                 *, direct: bool = False):
        n = K.shape[0]
        fixed = np.unique(np.asarray(fixed, dtype=np.int64))
        is_free = np.ones(n, dtype=bool)
        is_free[fixed] = False
        self.n = n
        self.fixed = fixed
        self.free = np.flatnonzero(is_free)
        n_free = self.free.size
        if np.any(K.diagonal()[self.free] <= 0):
            raise ValueError("operator is not positive definite on free nodes")

        # Entries of K with a free row, numbered within the free or the
        # fixed set; both numberings keep the order of K's rows and columns.
        if not K.has_canonical_format:
            K = K.copy()
            K.sum_duplicates()
        position = np.empty(n, dtype=K.indices.dtype)
        position[self.free] = np.arange(n_free)
        position[fixed] = np.arange(fixed.size)
        row_of = np.repeat(np.arange(n, dtype=K.indices.dtype),
                           np.diff(K.indptr))
        keep = is_free[row_of]
        rows, cols, vals = position[row_of[keep]], K.indices[keep], K.data[keep]
        to_free = is_free[cols]
        cols = position[cols]
        to_fixed = ~to_free
        self.K_fd = (_csr(rows[to_fixed], cols[to_fixed], vals[to_fixed],
                          (n_free, fixed.size)) if fixed.size else None)
        rows, cols, vals = rows[to_free], cols[to_free], vals[to_free]

        self.factor = self.K_ff = self.inv_diag = self.multilevel = None
        small = n_free < MULTILEVEL_SIZE
        bandwidth = int(np.abs(rows - cols).max(initial=0))
        if direct and small and n_free * bandwidth <= MAX_BAND_ENTRIES:
            self.factor = BandFactor(rows, cols, vals, n_free)
            return
        self.K_ff = _csr(rows, cols, vals, (n_free, n_free))
        if small:
            self.inv_diag = 1.0 / self.K_ff.diagonal()
        else:
            self.multilevel = Multilevel(self.K_ff, coords[self.free])

    def solve(self, rhs, fixed_values=None, *, tol=1e-10, max_iter=None, x0=None):
        """Solve K x = rhs with x = fixed_values on the fixed set.

        rhs is the full-length load vector; fixed_values is a vector over the
        fixed set (or None for homogeneous).  tol, max_iter and x0 (a
        full-length warm start) apply to PCG systems only; factored systems
        solve directly and ignore them.
        """
        b = rhs[self.free]
        if self.K_fd is not None and fixed_values is not None:
            vals = np.asarray(fixed_values, dtype=float)
            if vals.ndim == 0:
                vals = np.full(self.fixed.size, float(vals))
            b = b - self.K_fd @ vals
        else:
            vals = None
        if self.factor is not None:
            xf = self.factor.solve(b)
        else:
            guess = x0[self.free] if x0 is not None else None
            xf, _, _ = pcg(self.K_ff, b, inv_diag=self.inv_diag,
                           multilevel=self.multilevel, tol=tol,
                           max_iter=max_iter, x0=guess)
        x = np.zeros(self.n)
        x[self.free] = xf
        if vals is not None:
            x[self.fixed] = vals
        return x


class BoxSystem:
    """The restriction of an operator to one subdomain box.

    `matrix` is the global operator K of -div(a grad u) + c u, or the
    Crank-Nicolson matrix S = M + dt/2 K; `system` solves with its
    restriction to the box nodes, and `explicit` (the explicit half step
    Stilde = M - dt/2 K, M the lumped mass) is kept restricted next to it
    as `Stilde`.  The fixed Dirichlet set is the box nodes off the open box
    ("box-boundary") or the inner boundary closure ("interface-closure").
    Every element around a free node lies in the box, so the rows of the
    free nodes equal those of the operator assembled over the box's
    elements; the other rows only meet the fixed values.  `lumped` is the
    lumped mass of the box's elements.  Inner-boundary values arrive on the
    interfaces (or their closures); the rest of the fixed set is held at
    zero.  `direct` is passed on to the `DirichletSystem`.
    """

    def __init__(self, mesh, decomp, index, matrix, dirichlet="box-boundary",
                 explicit=None, *, direct=False):
        self.nodes = np.flatnonzero(decomp.masks[index])
        self.lumped = lumped_mass(mesh, decomp.element_masks[index])[self.nodes]
        self.n_full = mesh.n_nodes
        if explicit is not None:
            self.Stilde = restrict(explicit, self.nodes)

        if dirichlet == "box-boundary":
            fixed = self.nodes[~decomp.interior_masks[index][self.nodes]]
            trace_nodes = decomp.interfaces[index]
        elif dirichlet == "interface-closure":
            fixed = trace_nodes = decomp.interface_closures[index]
        else:
            raise ValueError(f"unknown dirichlet mode {dirichlet!r}")
        self.trace_local = np.searchsorted(self.nodes, trace_nodes)
        self.system = DirichletSystem(restrict(matrix, self.nodes),
                                      np.searchsorted(self.nodes, fixed),
                                      mesh.nodes[self.nodes], direct=direct)

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
