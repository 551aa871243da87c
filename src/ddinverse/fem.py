"""P1 finite element assembly and sparse linear algebra.

Assembly returns `CSR` matrices, a small numpy class with the product and
the diagonal the solvers need; variable coefficients are sampled at element
centroids (one-point quadrature, second order for P1).  It sorts the
entries' keys once for the sparsity structure and then makes and sums the
local matrices ASSEMBLY_CHUNK elements at a time, so it holds the terms of
one chunk, not of the whole mesh, and each entry still sums its terms in
element order.  Linear systems eliminate their Dirichlet conditions
symmetrically, so every assembled operator stays symmetric positive
definite; `restrict` cuts every block of an operator that a box or a system
uses.  One class, `DirichletSystem`, does this for all three problems, on a
stack of systems of equal size solved together: a global system or one box
alone, or the four heat boxes.  A stack that asks for a direct solve, whose
systems have fewer than FACTOR_SIZE free nodes and at most MAX_BAND_ENTRIES
free nodes times bandwidth, is factored once, by block cyclic reduction
over blocks of its bandwidth in plain numpy, and solved directly.  Every
other system is solved by preconditioned conjugate gradients with one
V-cycle of a smoothed-aggregation multilevel hierarchy, whose aggregates
are bins of about AGGREGATE_SIZE nodes on every level, whose Jacobi
smoothing is weighted on each level by a Lanczos estimate of that level's
largest eigenvalue, and whose coarsest matrix, of at most COARSEST_SIZE
unknowns, is inverted densely once.  A system of at most COARSEST_SIZE
unknowns is its own coarsest level, so PCG solves it in one iteration; on
larger ones the V-cycle keeps the count nearly independent of the mesh
size.  The hierarchy is built on `CSR` matrices and runs through scipy's
compiled sparse kernels, the extension module scipy.sparse._sparsetools
loaded alone (`_sparsetools`), without importing scipy or scipy.sparse,
whose import adds about 22 MB of resident memory and 0.2-0.3 s to a run;
the kernels are called in the order scipy.sparse calls them, so every level
is the same to the bit.  A heat run never loads them.  Each level keeps its
matrix in diagonal storage (`DIA`) when that takes no more memory than CSR,
as the 7-diagonal grid operators do, so the free-free block that PCG
multiplies by may be a `DIA` or a `CSR`.  The hierarchy is built in
float64, but its levels keep their matrices, prolongations and smoothing
weights in float32, and the V-cycle runs in float32 through the compiled
products, on the residual scaled by a power of two so that float32 cannot
overflow; the cycle is then symmetric only to float32 rounding; it is one
loop down the levels and one loop up, over buffers and kernels set up once
per level.  PCG itself, its vectors, its products by the float64 block and
its residual checks stay in float64, so every solve still meets its
tolerance; each product is added into one buffer per solve.  No path
imports a scipy package module.

`pcg64_random` draws the stream of numpy's default generator, PCG64
seeded through SeedSequence, to the bit in plain numpy, for the data noise
and the Lanczos start vectors, so that no run imports numpy's random
module, which loads OpenSSL (6.2 MB of resident memory in all).

Volume L2 inner products used by the inversion machinery are taken with the
lumped (diagonal) mass, i.e. nodal quadrature.  This choice is what makes
the closed-form local minimizers in the Schwarz loops exact at the discrete
level.  Boundary (1D) mass matrices are kept consistent, which integrates
products of P1 traces exactly.
"""

from __future__ import annotations

import copy
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

# A stack that asks for a direct solve is factored when its systems have
# fewer free nodes than this (and fit the band budget below); every other
# system is solved by PCG with the multilevel preconditioner.
FACTOR_SIZE = 4096
# Nodes per aggregate on each level of the hierarchy (bins of about 3 x 3).
AGGREGATE_SIZE = 9
# Lanczos steps of `largest_eigenvalue`.  20 steps come within 0.4% of the
# largest eigenvalue of D^-1 A on the levels of the nx=112 hierarchies and
# within 2% on small random-coefficient P1 operators; 12 steps fall up to
# 3% and 4% short.
LANCZOS_STEPS = 20
# Coarsening stops once a level has at most this many unknowns; that
# level's matrix is inverted densely.
COARSEST_SIZE = 200
# A band factor holds about twice (free nodes) x (bandwidth) numbers (2.0
# times on the global heat system at nx=28, 2.2 times per box) and takes
# about (free nodes) x (bandwidth)^2 operations; a system with more free
# nodes times bandwidth than this is solved iteratively instead.  A square
# grid just below the size rule, 64 x 64 nodes, has a bandwidth of about 64.
MAX_BAND_ENTRIES = FACTOR_SIZE * 64
# Cells whose local matrices `_assembled` makes and sums at a time.  A
# chunk's terms take 74 kB, where the 50,176 elements of nx=112 take 3.6
# MB; 4096 cells per chunk took no less time, and at nx=56 their temporaries
# outweighed the structure's.
ASSEMBLY_CHUNK = 1024
# Block cyclic reduction stops once at most this many unknowns remain and
# inverts the rest densely.
DENSE_TAIL = 64
# PCG stops on its recursively updated residual, which can drift below the
# true one; a solve whose true relative residual exceeds the tolerance by
# more than this factor fails.
TRUE_RESIDUAL_FACTOR = 100.0
# The multiplier of numpy's PCG64 and masks of 32, 64 and 128 bits.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
# scipy's compiled sparse kernels, once `_sparsetools` has loaded them.
_KERNELS = None


class SolverError(RuntimeError):
    """Raised when an iterative solve fails to reach its tolerance or
    breaks down."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class CSR:
    """A sparse matrix in compressed sparse row form: row i holds the values
    data[indptr[i]:indptr[i + 1]] in the columns
    indices[indptr[i]:indptr[i + 1]], without duplicates and sorted, except
    in the products of the multilevel hierarchy (`_product`), whose rows
    keep the column order of scipy's kernel."""

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = shape
        self.nnz = data.size

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0], dtype=self.indices.dtype),
                         np.diff(self.indptr))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A x for a vector x.  Each row is summed from zero in entry order,
        as scipy's CSR product does, so the two agree to the bit."""
        return np.bincount(self.rows, self.data * x[self.indices],
                           self.shape[0])

    def diagonal(self) -> np.ndarray:
        """The stored diagonal entries, zero where none is stored."""
        on = self.indices == self.rows
        out = np.zeros(min(self.shape))
        out[self.indices[on]] = self.data[on]
        return out

    def toarray(self) -> np.ndarray:
        """The matrix as a dense array."""
        out = np.zeros(self.shape)
        out[self.rows, self.indices] = self.data
        return out


class DIA:
    """A square sparse matrix in diagonal storage: data[k, j] is the entry
    in column j of the diagonal offsets[k] = column - row, the offsets
    ascending, and the positions of a diagonal outside the matrix hold
    zeros.  `nnz` counts the positions inside it, n - |offset| per
    diagonal, as scipy's DIA matrix does."""

    def __init__(self, data, offsets, shape):
        self.data, self.offsets, self.shape = data, offsets, shape
        self.nnz = int(shape[0] * offsets.size - np.abs(offsets).sum())

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """A x for a vector x, summed from zero by scipy's compiled DIA
        product, as scipy's DIA matrix does."""
        y = np.zeros(self.shape[0], self.data.dtype)
        _accumulator(self)(x, y)
        return y


def _coefficient_values(coef, cx, cy):
    if callable(coef):
        vals = np.asarray(coef(cx, cy), dtype=float)
        if vals.shape != cx.shape:
            vals = np.broadcast_to(vals, cx.shape).astype(float)
        return vals
    return np.full(cx.shape, float(coef))


def assemble(mesh, diffusion, reaction):
    """Assemble the operator matrix over the elements of the mesh.

    Parameters
    ----------
    mesh : TriMesh
    diffusion, reaction : scalar or callable (x, y) -> value
        Coefficients of the -div(a grad u) + c u form, sampled at centroids.

    Returns
    -------
    K : CSR matrix of size n_nodes x n_nodes, the discrete operator
        (diffusion stiffness plus reaction mass).
    """
    area = mesh.element_areas()
    if np.any(area <= 0):
        raise ValueError("mesh contains non-positively oriented elements")
    # A callable coefficient is called once, on every centroid, and each
    # centroid is the mean over the whole array, whose bits do not depend
    # on the chunks of `_assembled`.
    p = mesh.nodes[mesh.elements]  # (m, 3, 2)
    cx = p[..., 0].mean(axis=1)
    cy = p[..., 1].mean(axis=1)
    del p
    a_vals = _coefficient_values(diffusion, cx, cy)
    c_vals = _coefficient_values(reaction, cx, cy)
    del cx, cy
    for name, vals in (("diffusion", a_vals), ("reaction", c_vals)):
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{name} coefficient is not finite at every "
                             "centroid")
    if np.any(a_vals <= 0):
        raise ValueError("diffusion coefficient must be positive at every centroid")
    mass_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0

    def local(chunk):
        """(a area) (bx bx' + by by') + c area mass_ref of the elements
        `chunk`, with the constant P1 gradients grad phi_k = (bx_k, by_k)."""
        p = mesh.nodes[mesh.elements[chunk]]
        x, y = p[..., 0], p[..., 1]
        twice = 2 * area[chunk][:, None]
        bx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0],
                       y[:, 0] - y[:, 1]], axis=1) / twice
        by = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2],
                       x[:, 1] - x[:, 0]], axis=1) / twice
        return ((bx[:, :, None] * bx[:, None, :]
                 + by[:, :, None] * by[:, None, :])
                * (a_vals[chunk] * area[chunk])[:, None, None]
                + area[chunk][:, None, None] * mass_ref
                * c_vals[chunk][:, None, None])

    return _assembled(mesh.elements, local, mesh.n_nodes)


def _assembled(cells, local, n):
    """The n x n CSR matrix summing each local matrix into the rows and
    columns of its cell, cells[e]; `local(chunk)` gives the local matrices
    of the cells of the slice `chunk`.  The sparsity structure comes from
    one in-place sort of the row n + column keys, and the local matrices
    are made and summed ASSEMBLY_CHUNK cells at a time, so only one
    chunk's terms are held at once.  Each entry sums its terms from zero in
    cell order (`np.add.at`), as one `np.bincount` over all terms would, so
    a sum of symmetric local matrices is symmetric to the bit."""
    dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    cells = cells.astype(dtype, copy=False)

    def keys_of(c):
        return (c[:, :, None] * n + c[:, None, :]).reshape(-1)

    keys = keys_of(cells)
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    del first
    data = np.zeros(keys.size)
    for start in range(0, cells.shape[0], ASSEMBLY_CHUNK):
        chunk = slice(start, start + ASSEMBLY_CHUNK)
        np.add.at(data, np.searchsorted(keys, keys_of(cells[chunk])),
                  local(chunk).reshape(-1))
    rows, cols = np.divmod(keys, n)
    del keys
    return _csr(rows, cols, data, (n, n))


def lumped_mass(mesh) -> np.ndarray:
    """Diagonal (lumped) mass of the mesh: area/3 per vertex."""
    return np.bincount(mesh.elements.ravel(),
                       weights=np.repeat(mesh.element_areas() / 3.0, 3),
                       minlength=mesh.n_nodes)


def crank_nicolson(K, lumped, dt):
    """The Crank-Nicolson matrix S = M + dt/2 K of an operator K in
    canonical CSR form with one stored diagonal entry per row,
    M = diag(lumped).  Entries that come out as zero are not stored."""
    data = K.data * (0.5 * dt)
    data[K.indices == K.rows] += lumped
    keep = data != 0
    return _csr(K.rows[keep], K.indices[keep], data[keep], K.shape)


def assemble_boundary_mass(mesh, edges) -> CSR:
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
    return _assembled(edges,
                      lambda chunk: length[chunk, None, None] * loc[None],
                      mesh.n_nodes)


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


def pcg(A, b, precondition, *, tol=1e-10, max_iter=None, x0=None):
    """Preconditioned conjugate gradients for SPD A from x0 (zero when
    None).

    A is a `CSR` or a `DIA` (or another matrix with the CSR arrays),
    whose products are added into one buffer by its `_accumulator`, by
    scipy's compiled kernels and to the bit as A @ x.
    `precondition(r, out)` writes M r to `out` and returns it, for a
    symmetric positive definite M, e.g. `Multilevel.apply`.  Stops when the
    recursively updated residual r satisfies ||r|| <= tol * ||b||; returns
    (x, ||r|| / ||b||, iterations).  A right-hand side holding inf or nan
    gives an all-nan x after 0 iterations, so the caller sees the failure
    in the solution.  Raises SolverError when max_iter is exhausted, when
    r'z <= 0 before convergence (the preconditioner is not positive
    definite), when p'Ap <= 0 (A is not positive definite) or when the true
    residual ||b - A x|| at exit exceeds TRUE_RESIDUAL_FACTOR * tol * ||b||.
    """
    n = b.shape[0]
    if max_iter is None:
        max_iter = 40 * n + 200
    bnorm = math.sqrt(np.dot(b, b))
    if bnorm == 0.0:
        return np.zeros(n), 0.0, 0
    if not math.isfinite(bnorm):
        return np.full(n, math.nan), math.nan, 0
    # every product by A goes into the one buffer Ap
    add_A, Ap = _accumulator(A), np.empty(n)
    x = np.zeros(n) if x0 is None else x0.copy()
    r = b.copy()
    if x0 is not None:
        Ap.fill(0.0)
        add_A(x, Ap)
        r -= Ap
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
        if rz <= 0.0:
            raise SolverError(
                f"conjugate gradients broke down after {it} iterations: "
                f"r'z = {rz:.3e} <= 0, the preconditioner is not positive "
                f"definite",
                residual=rnorm / bnorm,
                iterations=it,
            )
        Ap.fill(0.0)
        add_A(p, Ap)
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
    Ap.fill(0.0)
    add_A(x, Ap)
    r = np.subtract(b, Ap, out=Ap)
    true = math.sqrt(np.dot(r, r)) / bnorm
    if true > TRUE_RESIDUAL_FACTOR * tol:
        raise SolverError(
            f"conjugate gradients stopped at a true relative residual of "
            f"{true:.3e} after {it} iterations (target {tol:.1e})",
            residual=true, iterations=it)
    return x, rnorm / bnorm, it


def _pcg64_seeded(seed: int) -> tuple[int, int]:
    """The 128-bit state and increment of numpy's PCG64 bit generator seeded
    with SeedSequence(seed), on Python ints: the seed's 32-bit words are
    hashed into a pool of four words and mixed, the pool is hashed out into
    four 64-bit words, and PCG's srandom takes the first two as the initial
    state and the last two as the stream (O'Neill, PCG, 2014; numpy's
    bit_generator.pyx)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed >> shift & _MASK32
             for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, halves = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        halves.append(value ^ value >> 16)
    # four 64-bit words, little-endian pairs of halves; state s and stream
    # q become increment 2 q + 1 and state step(step(0) + s)
    w = [halves[2 * k] | halves[2 * k + 1] << 32 for k in range(4)]
    increment = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
    state = ((increment + (w[0] << 64 | w[1])) * _PCG64_MULTIPLIER
             + increment) & _MASK128
    return state, increment


def _limbs(values):
    """The high and low 64 bits of 128-bit Python ints, as uint64 arrays."""
    words = np.frombuffer(b"".join([v.to_bytes(16, "little")
                                    for v in values]), "<u8")
    return words[1::2], words[0::2]


def pcg64_random(seed: int, n: int) -> np.ndarray:
    """numpy's `default_rng(seed).random(n)` to the bit, in plain numpy:
    n draws in [0, 1) of numpy's PCG64, the 128-bit LCG x -> M x + inc
    stepped before each draw, with the XSL-RR output (O'Neill, PCG, 2014).

    The first m ~ sqrt(2 n) states s_i are stepped on Python ints, with the
    jumps x -> A_k x + C_k of k m steps; state k m + i is then
    A_k s_i + C_k, taken for all k and i in one vectorized pass on (high,
    low) uint64 limbs: the low limb is the wrapped product of the low limbs
    plus C's, the high limb the cross products, the high half of the low
    limbs' product, built from 32-bit halves, C's high limb and the carry.
    Draw j is the top 53 bits of rotr64(high ^ low, high >> 58), times
    2^-53."""
    state, increment = _pcg64_seeded(seed)
    m = max(math.isqrt(2 * n), 1)
    states = [state]
    for _ in range(m):
        state = (state * _PCG64_MULTIPLIER + increment) & _MASK128
        states.append(state)
    # the jump of m steps takes the state before the first draw to s_m
    a = pow(_PCG64_MULTIPLIER, m, 1 << 128)
    c = (states[m] - a * states[0]) & _MASK128
    del states[0]
    jumps = [(1, 0)]
    for _ in range(-(-n // m) - 1):
        A, C = jumps[-1]
        jumps.append((a * A & _MASK128, (a * C + c) & _MASK128))
    xh, xl = _limbs(states)
    ah, al = (v[:, None] for v in _limbs([A for A, _ in jumps]))
    ch, cl = (v[:, None] for v in _limbs([C for _, C in jumps]))
    shift, low = np.uint64(32), np.uint64(_MASK32)
    x0, x1, a0, a1 = xl & low, xl >> shift, al & low, al >> shift
    hi = al * xh
    work = ah * xl
    hi += work
    mid = a0 * x0
    mid >>= shift
    lo = np.empty_like(hi)  # scratch until it takes the low limb
    for p, q in ((a1, x0), (a0, x1)):
        np.multiply(p, q, out=work)
        np.right_shift(work, shift, out=lo)
        hi += lo
        work &= low
        mid += work
    mid >>= shift
    hi += mid
    del mid
    np.multiply(a1, x1, out=work)
    hi += work
    np.multiply(al, xl, out=lo)
    lo += cl
    hi += ch
    hi += lo < cl
    # XSL-RR: rotate high ^ low right by the top six bits of the state
    lo ^= hi
    hi >>= np.uint64(58)
    np.right_shift(lo, hi, out=work)
    np.subtract(np.uint64(64), hi, out=hi)
    hi &= np.uint64(63)
    lo <<= hi
    lo |= work
    lo >>= np.uint64(11)
    return lo.reshape(-1)[:n] * 2.0**-53


def largest_eigenvalue(operator, n: int) -> float:
    """Estimate of the largest eigenvalue of a symmetric operator on R^n,
    given as a function v -> A v returning a new array (it is overwritten):
    the largest eigenvalue of the tridiagonal matrix of LANCZOS_STEPS
    Lanczos steps (fewer when the Krylov space closes earlier) from a fixed
    pseudo-random start, `pcg64_random(0, n) - 0.5`, so reruns give the
    same bits.  A Ritz value, so it never exceeds the largest eigenvalue,
    up to rounding.  Keeps two Lanczos vectors and does not
    reorthogonalize them."""
    v = pcg64_random(0, n) - 0.5
    v /= math.sqrt(np.dot(v, v))
    v_prev = np.zeros(n)
    alpha, beta = [], [0.0]
    a_max = 0.0
    for _ in range(min(LANCZOS_STEPS, n)):
        # w = A v - a v - b v_prev, in place; v_prev is scratch once used
        w = operator(v)
        a = float(np.dot(v, w))
        alpha.append(a)
        v_prev *= -beta[-1]
        w += v_prev
        w -= np.multiply(v, a, out=v_prev)
        b = math.sqrt(np.dot(w, w))
        a_max = max(a_max, abs(a))
        if b <= 1e-12 * a_max:
            break
        beta.append(b)
        w /= b
        v_prev, v = v, w
    k = len(alpha)
    off = beta[1:k]
    T = np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(T)[-1])


def _aggregates(coords):
    """Aggregate of each node: the occupied bins of a grid over the bounding
    box of the node coordinates `coords` with about AGGREGATE_SIZE nodes per
    bin, numbered in bin order."""
    lo = coords.min(axis=0)
    extent = coords.max(axis=0) - lo
    target = coords.shape[0] / AGGREGATE_SIZE
    # Bins per axis in proportion to the extents, about `target` in all, and
    # at least one and at most `target` on each axis.  Nodes on a line (an
    # axis without extent) are binned along the line only.  An axis gets at
    # most one bin per distinct coordinate, and the other axis the rest of
    # `target`.
    flat = extent == 0
    if flat.any():
        bins = np.where(flat, 1.0, target)
        extent[flat] = 1.0
    else:
        bins = np.sqrt(target * extent / extent[::-1])
    distinct = np.array([np.unique(c).size for c in coords.T])
    capped = bins > distinct
    bins = np.minimum(bins, distinct)
    if capped.sum() == 1:
        bins[~capped] = min(target / bins[capped][0], distinct[~capped][0])
    bins = np.clip(np.rint(bins), 1, max(round(target), 1)).astype(np.int64)
    cell = np.minimum(((coords - lo) / extent * bins).astype(np.int64),
                      bins - 1)
    _, agg = np.unique(cell[:, 0] * bins[1] + cell[:, 1], return_inverse=True)
    return agg


def _diagonal_form(A):
    """Square `CSR` matrix A, without duplicate entries, as a `DIA` when
    that takes no more memory than CSR, 8 (diagonals) n <= 12 nnz +
    4 (n + 1) bytes; else A itself.  DIA sums each row in ascending offset
    order, as CSR does over sorted columns, and its padding adds exact
    zeros, so the products of the two are equal to the bit once A's rows
    are sorted."""
    n = A.shape[0]
    # col - row + n - 1 in A's index type, and each entry's position in the
    # flattened data in int32 when the positions fit: no array over the
    # entries is made in intp
    offset = A.indices - A.rows
    offset += n - 1
    present = np.zeros(2 * n - 1, dtype=bool)
    present[offset] = True
    offsets = np.flatnonzero(present)
    if 8 * offsets.size * n > 12 * A.nnz + 4 * (n + 1):
        return A
    size = offsets.size * n
    start = np.zeros(2 * n - 1, dtype=np.int32 if size <= np.iinfo(np.int32).max
                     else np.int64)
    start[offsets] = np.arange(0, size, n)  # k n on the k-th diagonal
    position = start[offset]
    del offset
    position += A.indices
    data = np.zeros((offsets.size, n))
    data.reshape(-1)[position] = A.data
    return DIA(data, offsets - (n - 1), (n, n))


def _sparsetools():
    """scipy's compiled sparse kernels, the extension module
    scipy.sparse._sparsetools, without importing any scipy package module:
    scipy.sparse's own when scipy.sparse is imported, else the extension
    file in scipy's directory, found without importing scipy, loaded alone
    as `_sparsetools`, once per process.  Raises ImportError, naming the
    file, when it is missing."""
    global _KERNELS
    if _KERNELS is None:
        _KERNELS = sys.modules.get("scipy.sparse._sparsetools")
    if _KERNELS is None:
        scipy = importlib.util.find_spec("scipy")
        path = os.path.join(
            os.path.dirname(scipy.origin) if scipy else "scipy", "sparse",
            "_sparsetools" + importlib.machinery.EXTENSION_SUFFIXES[0])
        if not os.path.isfile(path):
            raise ImportError(f"scipy's sparse kernels are missing: {path}")
        spec = importlib.util.spec_from_file_location("_sparsetools", path)
        kernels = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(kernels)
        _KERNELS = kernels
    return _KERNELS


def _accumulator(A):
    """y += A x for a `DIA` or a `CSR` A (or another matrix with the CSR
    arrays), as a function add(x, y), so that add(x, zeros) is A @ x to the
    bit: scipy's compiled kernel, the one scipy's A @ x ends in, called
    without allocating; x and y have the dtype of A."""
    n, m = A.shape
    if isinstance(A, DIA):
        return functools.partial(_sparsetools().dia_matvec, n, m,
                                 A.offsets.size, A.data.shape[1], A.offsets,
                                 A.data)
    return functools.partial(_sparsetools().csr_matvec, n, m, A.indptr,
                             A.indices, A.data)


def _indices(size, *arrays):
    """The index arrays in int32 when every index up to `size` fits, else
    in int64: a kernel takes all its index arrays in one type, as scipy
    picks it."""
    dtype = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    return [a.astype(dtype, copy=False) for a in arrays]


def _product(A, B):
    """The CSR matrix A B by scipy's kernels in the order scipy's A @ B
    calls them: `csr_matmat_maxnnz` sizes the result and `csr_matmat`
    fills it (`_combined`).  Each row keeps the kernel's column order,
    which need not be sorted."""
    kernels = _sparsetools()
    Ap, Aj, Bp, Bj = _indices(max(*A.shape, *B.shape, A.nnz, B.nnz),
                              A.indptr, A.indices, B.indptr, B.indices)
    nnz = kernels.csr_matmat_maxnnz(A.shape[0], B.shape[1], Ap, Aj, Bp, Bj)
    return _combined(kernels.csr_matmat, A, B, nnz, (A.shape[0], B.shape[1]))


def _difference(A, B):
    """The CSR matrix A - B of two matrices of one shape by scipy's
    `csr_minus_csr`, as scipy's A - B (`_combined`)."""
    return _combined(_sparsetools().csr_minus_csr, A, B, A.nnz + B.nnz,
                     A.shape)


def _combined(kernel, A, B, nnz, shape):
    """The CSR matrix of the given shape that a binary kernel of scipy's
    computes from A and B into arrays of nnz entries, dropping entries that
    come out exactly zero, trimmed to the entries it wrote."""
    Ap, Aj, Bp, Bj = _indices(max(*shape, A.shape[1], A.nnz, B.nnz, nnz),
                              A.indptr, A.indices, B.indptr, B.indices)
    indptr = np.empty(shape[0] + 1, Ap.dtype)
    indices = np.empty(nnz, Ap.dtype)
    data = np.empty(nnz, np.result_type(A.data, B.data))
    kernel(*shape, Ap, Aj, A.data, Bp, Bj, B.data, indptr, indices, data)
    end = indptr[-1]
    return CSR(data[:end].copy(), indices[:end].copy(), indptr, shape)


def _transpose(A):
    """The CSR matrix A' by scipy's `csr_tocsc`, as scipy's A.T.tocsr():
    its rows come out sorted."""
    n, m = A.shape
    Ap, Aj = _indices(max(n, m, A.nnz), A.indptr, A.indices)
    indptr = np.empty(m + 1, Ap.dtype)
    indices = np.empty(A.nnz, Ap.dtype)
    data = np.empty(A.nnz, A.data.dtype)
    _sparsetools().csr_tocsc(n, m, Ap, Aj, A.data, indptr, indices, data)
    return CSR(data, indices, indptr, (m, n))


def _float32(A):
    """A `DIA` or a `CSR` in float32, as scipy's astype(np.float32) gives
    it: a CSR copy also has its rows sorted (`csr_sort_indices`)."""
    if isinstance(A, DIA):
        return DIA(A.data.astype(np.float32), A.offsets, A.shape)
    out = CSR(A.data.astype(np.float32), A.indices.copy(), A.indptr.copy(),
              A.shape)
    _sparsetools().csr_sort_indices(A.shape[0], out.indptr, out.indices,
                                    out.data)
    return out


class Multilevel:
    """Smoothed-aggregation multilevel preconditioner of an SPD matrix A
    (Vanek, Mandel and Brezina, Computing 56, 1996).

    Row i of `coords` holds the coordinates of unknown i.  Each level
    estimates the largest eigenvalue lam of D^-1 A (D = diag(A)) by
    `largest_eigenvalue` of D^-1/2 A D^-1/2 and bins its unknowns into
    aggregates (`_aggregates`); the 0/1 matrix T of unknown-in-aggregate is
    smoothed once by damped Jacobi into the prolongation
    P = T - 4 / (3 lam) D^-1 A T, the next level's matrix is P' A P and its
    unknowns sit at the aggregate centroids.  Coarsening stops at
    COARSEST_SIZE unknowns or fewer, whose matrix is inverted densely; a
    matrix that small has no levels, and one cycle solves it.  A is a
    `CSR`, and the hierarchy is built in float64 on `CSR` matrices: the
    estimates, and the products A T and P' A P, the difference and the
    transpose taken by scipy's compiled kernels (`_product`, `_difference`,
    `_transpose`) in the order scipy.sparse takes them, so every level is
    the one scipy.sparse builds, to the bit.  Each level then keeps, in
    float32 (`_float32`), A as a `DIA` when that takes no more memory
    (`_diagonal_form`), P, its transpose P' and the smoothing weights
    w / diag(A) with w = 8 / (5 lam), the weight of the best damped-Jacobi
    smoothing factor on the 2-D Laplacian, 4/5 at lam = 2 (Trottenberg,
    Oosterlee and Schueller, Multigrid, 2001); the cycle is positive
    definite while w lam_max < 2, which leaves the estimate a fifth of
    slack.  `matrix` is A in float64 as PCG multiplies by it: the first
    level's storage form, or the given A when there is no level.  `apply`
    is one symmetric V(1,1) cycle with these damped-Jacobi steps, run in
    float32 through the compiled products (`_accumulator`) into buffers
    allocated once, as one loop down and one loop up the levels; it is
    symmetric only up to float32 rounding.  The coarsest inverse is float32
    below a level and float64 when there is none, so a small system is
    still solved in one cycle.  Raises ValueError when a level's matrix is
    not positive definite (checked on the diagonals and by a
    Cholesky factorization of the coarsest matrix).
    """

    def __init__(self, A, coords: np.ndarray):
        self.levels, buffers, products = [], [], []
        self.matrix = A
        while True:
            diag = A.diagonal()
            if not np.all(diag > 0):
                raise ValueError("coarse operator is not positive definite")
            n = A.shape[0]
            if n <= COARSEST_SIZE:
                break
            stored = _diagonal_form(A)
            if not self.levels:
                self.matrix = stored
            scale = 1.0 / np.sqrt(diag)
            lam = largest_eigenvalue(lambda v: scale * (stored @ (scale * v)),
                                     n)
            agg = _aggregates(coords)
            n_agg = int(agg.max()) + 1
            T = CSR(np.ones(n), agg, np.arange(n + 1), (n, n_agg))
            # 4 / (3 lam) D^-1 A T as the product by a diagonal CSR W, as
            # scipy's diags(w) @ (A @ T) takes it, which reverses each row
            W = CSR(4.0 / (3.0 * lam) / diag, np.arange(n), np.arange(n + 1),
                    (n, n))
            P = _difference(T, _product(W, _product(A, T)))
            del T, W
            PT = _transpose(P)
            # the next level's matrix first, then the float32 copies, each
            # float64 matrix let go once copied
            A = _product(PT, _product(A, P))
            level = (_float32(stored), _float32(P), _float32(PT),
                     (8.0 / (5.0 * lam) / diag).astype(np.float32))
            del stored, P, PT
            self.levels.append(level)
            # b, x and r of the cycle, and the products by A, P and P'
            buffers.append(tuple(np.empty(n, np.float32) for _ in range(3)))
            products.append(tuple(_accumulator(M) for M in level[:3]))
            coords = (np.column_stack([np.bincount(agg, c) for c in coords.T])
                      / np.bincount(agg)[:, None])
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(A.toarray()))
        except np.linalg.LinAlgError:
            raise ValueError("coarse operator is not positive definite") from None
        self.coarsest_inv = L_inv.T @ L_inv
        self._work = []
        if self.levels:
            self.coarsest_inv = self.coarsest_inv.astype(np.float32)
            buffers.append((np.empty(n, np.float32), np.empty(n, np.float32)))
            # per level: b, x, r, the next level's b and x, and the products
            self._work = [(*own, *below[:2], *product) for own, below, product
                          in zip(buffers, buffers[1:], products)]
            self._work.append(buffers[-1])

    def apply(self, b: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        """One V(1,1) cycle for A x = b from x = 0, written to `out` when
        given.  Below a level the cycle runs in float32 on b scaled by the
        power of two 2^-e that brings max |b| into [1/2, 1), so float32
        cannot overflow, and x is scaled back by 2^e in float64.  Both
        scalings are exact, so the cycle of 2^k b is 2^k times the cycle of
        b, to the bit.  The cycle is one loop down the levels, presmoothing
        and restricting the residual, the coarsest solve and one loop up,
        prolongating the correction and postsmoothing."""
        if not self.levels:
            return np.dot(self.coarsest_inv, b, out=out)
        if out is None:
            out = np.empty(b.shape)
        # e is clamped where 2^e or 2^-e would overflow float64
        top = np.abs(b, out=out).max()
        e = min(max(math.frexp(top)[1], -1021), 1023)
        work = self._work
        np.multiply(b, math.ldexp(1.0, -e), out=work[0][0])
        for (_, _, _, scaled), (f, x, r, coarse, _, add_A, _, add_PT) in zip(
                self.levels, work):
            np.multiply(scaled, f, out=x)
            r.fill(0.0)
            add_A(x, r)
            np.subtract(f, r, out=r)
            coarse.fill(0.0)
            add_PT(r, coarse)
        f, x = work[-1]
        np.dot(self.coarsest_inv, f, out=x)
        for (_, _, _, scaled), (f, x, r, _, coarse, add_A, add_P, _) in zip(
                reversed(self.levels), reversed(work[:-1])):
            add_P(coarse, x)
            r.fill(0.0)
            add_A(x, r)
            np.subtract(f, r, out=r)
            r *= scaled
            x += r
        return np.multiply(work[0][1], math.ldexp(1.0, e), out=out,
                           dtype=np.float64)


def _block_tridiagonal(D, U):
    """The dense symmetric matrices with diagonal blocks D[k] and blocks
    U[k] above them, one per matrix k of a stack."""
    B, m, b, _ = D.shape
    A = np.zeros((B, m, b, m, b))
    i = np.arange(m)
    for A_k, D_k, U_k in zip(A, D, U):
        A_k[i, :, i, :] = D_k
        A_k[i[:-1], :, i[1:], :] = U_k
        A_k[i[1:], :, i[:-1], :] = U_k.transpose(0, 2, 1)
    return A.reshape(B, m * b, m * b)


def _bandwidth(K) -> int:
    """The largest |row - column| of the entries a `CSR` K stores, or 0."""
    return int(np.abs(K.rows - K.indices).max(initial=0))


class BandFactor:
    """Direct solver for a stack of B symmetric banded matrices by block
    cyclic reduction.

    Matrix k is an n x n `CSR`, as every matrix of the stack.  Cut into
    blocks of the largest bandwidth, the last one padded with identity
    rows, it is block tridiagonal:
    blocks D_i on the diagonal, U_i coupling block i to i + 1 and their
    transposes below.  Each level of odd-even reduction eliminates the odd
    blocks, leaving the Schur complement on the even ones, which is again
    block tridiagonal with half as many blocks (Buzbee, Golub and Nielson,
    SIAM J. Numer. Anal. 7, 1970).  All blocks of a level, of all B
    matrices, are processed by a few stacked numpy calls, so a solve costs
    about log2(n / bandwidth) levels of about ten calls each, whatever B
    is; the last DENSE_TAIL or fewer unknowns (or the last block) are
    inverted densely.  The first level's couplings are the matrices' own
    entries, applied by one `bincount` over the stack.  Matrices of equal
    bandwidth are solved to the bit as each one alone.  Each
    reduction step is a congruence, so a matrix is positive definite
    exactly when every pivot block and the dense tail are; each is checked
    by a Cholesky factorization, and ValueError is raised when one fails.
    """

    def __init__(self, systems, n: int):
        b = max([_bandwidth(K) for K in systems] + [1])
        m = max(-(-n // b), 1)
        B = len(systems)
        self.B, self.n, self.b, self.m = B, n, b, m
        # Entry (r, c) sits in block r // b at offset (r % b, c - (r // b) b);
        # an offset column of b or more falls in the coupling block U.
        D = np.zeros((B, m, b, b))
        U = np.zeros((B, m - 1, b, b))
        pad = np.arange(n, m * b)
        D[:, pad // b, pad % b, pad % b] = 1.0
        first = []
        for k, K in enumerate(systems):
            rows, cols, vals = K.rows, K.indices, K.data
            offset = cols - rows // b * b
            on = (offset >= 0) & (offset < b)
            D[k].reshape(-1)[rows[on] * b + offset[on]] = vals[on]
            up = offset >= b
            U[k].reshape(-1)[rows[up] * b + offset[up] - b] = vals[up]
            block_row = rows // b
            even = (block_row % 2 == 0) & (block_row != cols // b)
            first.append((rows[even] + k * m * b, cols[even] + k * m * b,
                          vals[even]))
        # Per level: P, the inverses of the odd pivot blocks, and the
        # couplings Ua from each even block to the next odd one and Ub from
        # each odd block to the next even one, with their transposes.
        levels = []
        try:
            while D.shape[1] > 1 and D.shape[1] * b > DENSE_TAIL:
                half = D.shape[1] // 2
                Ua, Ub = U[:, 0::2], U[:, 1::2]
                UaT, UbT = Ua.transpose(0, 1, 3, 2), Ub.transpose(0, 1, 3, 2)
                np.linalg.cholesky(D[:, 1::2])
                P = np.linalg.inv(D[:, 1::2])
                V = P[:, :Ub.shape[1]] @ Ub
                D = D[:, 0::2].copy()
                D[:, :half] -= Ua @ (P @ UaT)
                D[:, 1:] -= UbT @ V
                levels.append((P, Ua, UaT, Ub, UbT))
                U = -(Ua[:, :V.shape[1]] @ V)
            tail = _block_tridiagonal(D, U)
            np.linalg.cholesky(tail)
            self.tail = np.linalg.inv(tail)
        except np.linalg.LinAlgError:
            raise ValueError("operator is not positive definite on free "
                             "nodes") from None
        # The first level keeps its couplings sparse: (E_rows, E_cols,
        # E_vals) are the entries from even to odd blocks, numbered in the
        # flattened stack.  Its dense Ua and Ub would add about half to the
        # size of the factor.
        self.P0 = levels[0][0] if levels else None
        self.levels = levels[1:]
        self.E_rows, self.E_cols, self.E_vals = (
            np.concatenate(parts) for parts in zip(*first))
        self.E_split = np.cumsum([0] + [rows.size for rows, _, _ in first])

    def box(self, k: int) -> "BandFactor":
        """The factor of matrix k alone: a view of this one's arrays."""
        view = copy.copy(self)
        one = slice(k, k + 1)
        view.B = 1
        view.P0 = None if self.P0 is None else self.P0[one]
        view.levels = [tuple(a[one] for a in level) for level in self.levels]
        view.tail = self.tail[one]
        lo, hi = self.E_split[k], self.E_split[k + 1]
        shift = k * self.m * self.b
        view.E_rows = self.E_rows[lo:hi] - shift
        view.E_cols = self.E_cols[lo:hi] - shift
        view.E_vals = self.E_vals[lo:hi]
        view.E_split = np.array([0, hi - lo])
        return view

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solutions x[k] of A_k x[k] = rhs[k], rhs of shape (B, n)."""
        B = self.B
        x = np.zeros((B, self.m * self.b))
        x[:, :self.n] = rhs
        flat = x.reshape(-1)
        blocks = x.reshape(B, self.m, self.b, 1)
        # Forward: fold each level's odd blocks into the even ones, keeping
        # P r_odd in place of r_odd; the even blocks are the next level.
        even = blocks
        if self.P0 is not None:
            odd, even = blocks[:, 1::2], blocks[:, 0::2]
            odd[...] = self.P0 @ odd
            flat -= np.bincount(self.E_rows, self.E_vals * flat[self.E_cols],
                                flat.size)
        split = []
        for P, Ua, UaT, Ub, UbT in self.levels:
            odd, even = even[:, 1::2], even[:, 0::2]
            odd[...] = P @ odd
            even[:, :Ua.shape[1]] -= Ua @ odd
            even[:, 1:] -= UbT @ odd[:, :Ub.shape[1]]
            split.append((odd, even))
        even[...] = (self.tail @ even.reshape(B, -1, 1)).reshape(even.shape)
        # Back: x_odd = P (r_odd - Ua' x_prev - Ub x_next).
        for (P, Ua, UaT, Ub, UbT), (odd, even) in zip(reversed(self.levels),
                                                      reversed(split)):
            s = UaT @ even[:, :Ua.shape[1]]
            s[:, :Ub.shape[1]] += Ub @ even[:, 1:]
            odd -= P @ s
        if self.P0 is not None:
            s = np.bincount(self.E_cols, self.E_vals * flat[self.E_rows],
                            flat.size)
            blocks[:, 1::2] -= self.P0 @ s.reshape(blocks.shape)[:, 1::2]
        return x[:, :self.n]


def _csr(rows, cols, vals, shape):
    """CSR matrix of entries listed row by row, columns sorted in each row."""
    indptr = np.zeros(shape[0] + 1, dtype=cols.dtype)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CSR(vals, cols, indptr, shape)


def restrict(K, nodes, cols=None):
    """K[nodes][:, cols], cols defaulting to nodes, of a canonical CSR
    matrix (a `CSR`, or another matrix with its four attributes) for sorted
    `nodes` and `cols`, read row by row through a renumbering of the
    columns: the one routine that cuts a block out of an operator."""
    if cols is None:
        cols = nodes
    position = np.full(K.shape[1], -1, dtype=K.indices.dtype)
    position[cols] = np.arange(cols.size)
    starts, counts = K.indptr[nodes], np.diff(K.indptr)[nodes]
    rows = np.repeat(np.arange(nodes.size, dtype=K.indices.dtype), counts)
    entries = np.arange(rows.size) + np.repeat(starts - np.cumsum(counts)
                                               + counts, counts)
    columns = position[K.indices[entries]]
    keep = columns >= 0
    return _csr(rows[keep], columns[keep], K.data[entries[keep]],
                (nodes.size, cols.size))


def block_diagonal(blocks, width):
    """CSR matrix with the CSR `blocks` of `width` columns each on its
    diagonal; each row keeps its entry order."""
    indptr, nnz = [np.zeros(1, dtype=np.int64)], 0
    for block in blocks:
        indptr.append(block.indptr[1:] + nnz)
        nnz += block.indptr[-1]
    return CSR(np.concatenate([block.data for block in blocks]),
               np.concatenate([block.indices + k * width
                               for k, block in enumerate(blocks)]),
               np.concatenate(indptr),
               (sum(block.shape[0] for block in blocks), len(blocks) * width))


def eliminate(K, fixed):
    """Split a canonical CSR matrix K (as `restrict` takes it) by a fixed
    Dirichlet node set.

    Returns (free, fixed, K_ff, K_fd): the sorted free and fixed nodes,
    the free-free block restrict(K, free) and the free-fixed coupling
    restrict(K, free, fixed), both `CSR` matrices.  Raises ValueError when
    a free diagonal entry is not positive.
    """
    fixed = np.unique(np.asarray(fixed, dtype=np.int64))
    free = np.delete(np.arange(K.shape[0]), fixed)
    K_ff = restrict(K, free)
    if not np.all(K_ff.diagonal() > 0):
        raise ValueError("operator is not positive definite on free nodes")
    return free, fixed, K_ff, restrict(K, free, fixed)


class DirichletSystem:
    """A stack of B SPD operators of equal size n and equal free-node count
    (ValueError otherwise), each with its fixed Dirichlet nodes eliminated
    symmetrically; member k is given by (K_k, fixed_k, coords_k), coords_k
    holding one row of coordinates per node of K_k; `BoxSystem.member` is
    the member of a global operator on one box.

    Fields are flattened, member k's at [k n, (k + 1) n): `free` and `fixed`
    are the flattened free and fixed nodes, and `K_fd` the block-diagonal
    free-fixed coupling of the members' `couplings`.  Both blocks of a
    member are cut from its operator once, by `eliminate`, as `CSR`
    matrices.  With direct=True, a
    stack whose members have fewer than FACTOR_SIZE free nodes and at most
    MAX_BAND_ENTRIES free nodes times bandwidth factors its free-free blocks
    once, as one `BandFactor`, and solves directly.  Every other stack
    solves each member by PCG, preconditioned by the `Multilevel` hierarchy
    of its free-free block, binned by the coordinates of its free nodes;
    PCG multiplies by `multilevel[k].matrix`, that block in float64 in the
    storage form of the hierarchy's first level, a `DIA` or a `CSR` (always
    a `CSR` when the hierarchy has no level), while the hierarchy keeps its
    own levels in float32.  PCG starts from the member's last
    solution of the same kind, with homogeneous or with given fixed values
    (`last[k]`, one slot each), so repeated solves of one kind, such as the
    local solves of successive Schwarz sweeps or the steps of a march,
    start close to their answer.
    """

    def __init__(self, systems, *, direct: bool = False):
        frees, fixeds, blocks, couplings = zip(*(eliminate(K, fixed)
                                                 for K, fixed, _ in systems))
        if len({(K.shape[0], free.size)
                for (K, _, _), free in zip(systems, frees)}) > 1:
            raise ValueError("the systems of a stack must have equal sizes "
                             "and equal numbers of free nodes")
        self.B, self.n = len(systems), systems[0][0].shape[0]
        n_free, n_fixed = frees[0].size, fixeds[0].size
        self.free = np.concatenate([k * self.n + f
                                    for k, f in enumerate(frees)])
        self.fixed = np.concatenate([k * self.n + f
                                     for k, f in enumerate(fixeds)])
        self.couplings = couplings
        self.K_fd = (couplings[0] if self.B == 1
                     else block_diagonal(couplings, n_fixed))
        self.factor = self.multilevel = None
        if (direct and n_free < FACTOR_SIZE
                and n_free * max(map(_bandwidth, blocks)) <= MAX_BAND_ENTRIES):
            self.factor = BandFactor(blocks, n_free)
            return
        self.multilevel = [Multilevel(K_ff, coords[free]) for free, K_ff,
                           (_, _, coords) in zip(frees, blocks, systems)]
        self.last = [[None, None] for _ in systems]

    def box(self, k: int) -> "DirichletSystem":
        """Member k alone: a view of this stack's arrays, factor and
        hierarchy, sharing the member's warm-start slots."""
        view = copy.copy(self)
        view.B = 1
        n_free = self.free.size // self.B
        n_fixed = self.n - n_free
        view.free = self.free[k * n_free:(k + 1) * n_free] - k * self.n
        view.fixed = self.fixed[k * n_fixed:(k + 1) * n_fixed] - k * self.n
        view.K_fd = self.couplings[k]
        if self.factor is not None:
            view.factor = self.factor.box(k)
        else:
            view.multilevel = self.multilevel[k:k + 1]
            view.last = self.last[k:k + 1]
        return view

    def solve(self, rhs, fixed_values=None, *, tol=1e-10):
        """Solve K x = rhs with x = fixed_values on the fixed set, for every
        member, and return x on the full flattened index set.

        rhs is the flattened load; fixed_values is an array over the
        flattened fixed set (or None for homogeneous).  tol is the relative
        residual of PCG; factored stacks solve directly and ignore it.
        """
        b = rhs[self.free]
        if fixed_values is not None:
            b = b - self.K_fd @ fixed_values
        if self.factor is not None:
            xf = self.factor.solve(b.reshape(self.B, -1)).reshape(-1)
        else:
            slot = fixed_values is not None
            parts = []
            for multilevel, last, part in zip(self.multilevel, self.last,
                                              np.split(b, self.B)):
                x, relres, _ = pcg(multilevel.matrix, part, multilevel.apply,
                                   tol=tol, x0=last[slot])
                if math.isfinite(relres):  # a non-finite load leaves no start
                    last[slot] = x
                parts.append(x)
            xf = np.concatenate(parts)
        x = np.zeros(self.B * self.n)
        x[self.free] = xf
        if fixed_values is not None:
            x[self.fixed] = fixed_values
        return x


class BoxSystem:
    """One subdomain box: its nodes, its fixed Dirichlet set and the map
    from inner-boundary values to its fixed values.

    Box fields are numbered by the sorted box nodes `nodes`.  The fixed set
    `fixed` (box numbering) is the box nodes off the open box
    ("box-boundary") or the inner boundary closure ("interface-closure").
    Every element and boundary edge around a free node lies in the box, so
    a global operator, mass or load restricted to the box nodes (`member`,
    or `nodes` as an index) has the free rows of the one assembled over the
    box's elements or edges, to the bit; the other rows only meet the fixed
    values.  Inner-boundary values arrive on the interfaces (or their
    closures); the rest of the fixed set is held at zero.
    """

    def __init__(self, decomp, index, dirichlet="box-boundary"):
        self.nodes = np.flatnonzero(decomp.masks[index])
        if dirichlet == "box-boundary":
            fixed = self.nodes[~decomp.interior_masks[index][self.nodes]]
            trace_nodes = decomp.interfaces[index]
        elif dirichlet == "interface-closure":
            fixed = trace_nodes = decomp.interface_closures[index]
        else:
            raise ValueError(f"unknown dirichlet mode {dirichlet!r}")
        self.fixed = np.unique(np.searchsorted(self.nodes, fixed))
        self.trace_local = np.searchsorted(self.nodes, trace_nodes)

    def member(self, K, coords):
        """The global operator K on this box as a `DirichletSystem` member:
        (K restricted to the box nodes, the fixed set, the rows of the node
        coordinates `coords` at the box nodes)."""
        return restrict(K, self.nodes), self.fixed, coords[self.nodes]

    def fixed_values(self, trace):
        """Values on the fixed set: `trace` on the inner-boundary nodes,
        zero on the rest.  trace has shape (..., number of inner-boundary
        nodes), e.g. one row per time level; None (homogeneous values) is
        passed through."""
        if trace is None:
            return None
        vals = np.zeros(np.shape(trace)[:-1] + (self.nodes.size,))
        vals[..., self.trace_local] = trace
        return vals[..., self.fixed]
