import math
import sys
import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import consistent_mass, jacobi, scipy_csr
from ddinverse import elliptic, fem, mesh, parabolic, problems


def test_constants_in_stiffness_kernel(mesh7):
    K = fem.assemble(mesh7, 1.0, 0.0)
    ones = np.ones(mesh7.n_nodes)
    assert np.abs(K @ ones).max() < 1e-13


def test_mass_integrates_one_on_single_cell():
    m = mesh.build_mesh(1, 1)
    M = consistent_mass(m)
    assert abs(M.sum() - 2.0) < 1e-14
    # row sums of the consistent mass are the lumped weights
    rows = np.asarray(M.sum(axis=1)).ravel()
    assert np.allclose(rows, fem.lumped_mass(m))


def test_bitwise_symmetry(mesh7):
    K = scipy_csr(fem.assemble(mesh7, lambda x, y: (x + y) / 100, 1.0))
    assert np.abs(K - K.T).max() == 0.0


def _reference_assembled(cells, local, n):
    """The CSR arrays of the sum of the local matrices local[e] into the
    rows and columns cells[e], by one argsort of all keys and one
    `np.bincount` over all terms, as assembly was written before it
    worked in chunks."""
    dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    cells = cells.astype(dtype, copy=False)
    keys = (cells[:, :, None] * n + cells[:, None, :]).reshape(-1)
    order = np.argsort(keys).astype(np.int32)
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    entry = np.cumsum(first, dtype=np.int32) - 1
    position = np.empty_like(entry)
    position[order] = entry
    keys = keys[first]
    data = np.bincount(position, local.reshape(-1), keys.size)
    rows = keys // n
    indptr = np.zeros(n + 1, dtype=keys.dtype)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return data, keys - rows * n, indptr


def _reference_assemble(m, diffusion, reaction):
    """`fem.assemble` over all elements at once."""
    p = m.nodes[m.elements]
    x, y = p[..., 0], p[..., 1]
    area = m.element_areas()
    cx, cy = x.mean(axis=1), y.mean(axis=1)
    a_vals = fem._coefficient_values(diffusion, cx, cy)
    c_vals = fem._coefficient_values(reaction, cx, cy)
    bx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                  axis=1) / (2 * area)[:, None]
    by = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                  axis=1) / (2 * area)[:, None]
    mass_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    kloc = ((bx[:, :, None] * bx[:, None, :] + by[:, :, None] * by[:, None, :])
            * (a_vals * area)[:, None, None]
            + area[:, None, None] * mass_ref * c_vals[:, None, None])
    return _reference_assembled(m.elements, kloc, m.n_nodes)


def _reference_boundary_mass(m, edges):
    """`fem.assemble_boundary_mass` over all edges at once."""
    length = np.linalg.norm(m.nodes[edges[:, 1]] - m.nodes[edges[:, 0]],
                            axis=1)
    loc = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    return _reference_assembled(edges, length[:, None, None] * loc[None],
                                m.n_nodes)


def _assert_csr_arrays(K, arrays):
    for ours, theirs in zip((K.data, K.indices, K.indptr), arrays):
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()


@st.composite
def assembly_cases(draw):
    """A mesh, coefficients (constants, or callables whose values at the
    centroids spread over up to 16 orders of magnitude, so that the order
    of each entry's terms shows), a shuffled list of boundary edges with
    repeats, and a chunk size of a few cells, so that an entry's terms
    straddle chunks."""
    m = mesh.build_mesh(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, spread = rng.uniform(1e2, 1e4, (2, 2)), rng.integers(0, 9, 2)
    sign = draw(st.sampled_from([1.0, -1.0]))

    def diffusion(x, y):
        return 10.0 ** (spread[0] * np.sin(k[0, 0] * x + k[0, 1] * y))

    def reaction(x, y):
        return sign * 10.0 ** (spread[1] * np.sin(k[1, 0] * x + k[1, 1] * y))

    coefficients = (draw(st.sampled_from([diffusion, 0.5])),
                    draw(st.sampled_from([reaction, 0.0, 2.0])))
    sides = np.concatenate([m.side_edges(side) for side in
                            ("left", "right", "bottom", "top")])
    edges = sides[rng.integers(0, len(sides), draw(st.integers(1, 40)))]
    return m, coefficients, edges, draw(st.sampled_from([1, 2, 3, 5, 1024]))


@settings(max_examples=60, deadline=None)
@given(assembly_cases())
def test_assembly_in_chunks_is_the_one_pass_assembly_to_the_bit(case):
    m, (diffusion, reaction), edges, chunk = case
    with mock.patch.object(fem, "ASSEMBLY_CHUNK", chunk):
        K = fem.assemble(m, diffusion, reaction)
        B = fem.assemble_boundary_mass(m, edges)
    _assert_csr_arrays(K, _reference_assemble(m, diffusion, reaction))
    _assert_csr_arrays(B, _reference_boundary_mass(m, edges))


def _temporaries(build):
    """build() and the bytes its traced peak rose above what it left live."""
    tracemalloc.start()
    try:
        result = build()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - live


def _csr_bytes(K):
    return K.data.nbytes + K.indices.nbytes + K.indptr.nbytes


def test_setup_temporaries_stay_within_a_small_multiple_of_k():
    # at nx=56 the one-pass assembly held 4.8 times K's bytes above what it
    # left, and the global hierarchy build 4.3 times; in chunks, with the
    # float64 prolongations let go once copied, 1.7 and 2.7 times
    m = mesh.build_mesh(56, 112)
    spec = problems.example_catalog()["5.3"]
    K, held = _temporaries(lambda: fem.assemble(m, spec.diffusion,
                                                spec.reaction))
    assert held < 2.5 * _csr_bytes(K)
    fixed = np.flatnonzero(m.boundary_mask)
    _, held = _temporaries(lambda: fem.DirichletSystem([(K, fixed, m.nodes)]))
    assert held < 3.5 * _csr_bytes(K)
    # cutting the free-free block held 2.4 times K's bytes with its arrays
    # over the entries in intp, 1.5 times in K's index type with the full
    # rows and columns let go before the values are gathered
    free = np.delete(np.arange(m.n_nodes), fixed)
    _, held = _temporaries(lambda: fem.restrict(K, free))
    assert held < 2.0 * _csr_bytes(K)
    # the whole setup peaked at 4.81 MB with int64 mesh indices and counts
    # and a stored partition of unity, and peaks at 4.25 MB without them
    # (traced after a first, smaller problem has loaded the kernels)
    problems.make_problem(spec, 7)
    tracemalloc.start()
    try:
        problems.make_problem(spec, 56)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6


@st.composite
def sparse_products(draw):
    """A random matrix of up to 30 x 30 in canonical CSR form (columns
    sorted in each row, no duplicates, rows may be empty), with values
    spread over 16 orders of magnitude so that the summation order shows,
    and a vector to multiply."""
    n_rows, n_cols = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = np.nonzero(rng.random((n_rows, n_cols)) < density)
    vals = rng.standard_normal(rows.size) * 10.0 ** rng.integers(-8, 8,
                                                                 rows.size)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows,
                                                        minlength=n_rows))])
    return (vals, cols.astype(np.int32), indptr.astype(np.int32),
            (n_rows, n_cols), rng.standard_normal(n_cols))


@settings(max_examples=200, deadline=None)
@given(sparse_products())
@example((np.array([1.0, 1e-16, -1.0]), np.array([0, 1, 2], dtype=np.int32),
          np.array([0, 0, 3, 3], dtype=np.int32), (3, 3), np.ones(3)))
def test_csr_product_equals_scipys_to_the_bit(case):
    data, indices, indptr, shape, x = case
    ours = fem.CSR(data, indices, indptr, shape) @ x
    theirs = sp.csr_matrix((data, indices, indptr), shape=shape) @ x
    assert ours.tobytes() == theirs.tobytes()


@settings(max_examples=100, deadline=None)
@given(sparse_products(), st.sampled_from(["dia", "csr"]),
       st.sampled_from([np.float64, np.float32]))
def test_accumulator_is_scipys_product_to_the_bit(case, form, dtype):
    # the V-cycle calls scipy's compiled kernels directly; a scipy release
    # that moves its private _sparsetools entry points fails here first
    data, indices, indptr, shape, x = case
    A = sp.csr_matrix((data, indices, indptr), shape=shape).asformat(form)
    A, x = A.astype(dtype), x.astype(dtype)
    ours = (fem.DIA(A.data, A.offsets, shape) if form == "dia"
            else fem.CSR(A.data, A.indices, A.indptr, shape))
    y = np.zeros(shape[0], dtype)
    fem._accumulator(ours)(x, y)
    assert y.tobytes() == (A @ x).tobytes()


@settings(max_examples=100, deadline=None)
@given(sparse_products())
def test_accumulator_of_a_csr_adds_its_product(case):
    # PCG multiplies by a `CSR` K_ff, a system without a level, through
    # the same accumulator as by a `DIA` one
    data, indices, indptr, shape, x = case
    A = fem.CSR(data, indices, indptr, shape)
    y = np.zeros(shape[0])
    fem._accumulator(A)(x, y)
    assert y.tobytes() == (A @ x).tobytes()


@st.composite
def sparse_chains(draw):
    """Random CSR matrices X (n x k), Y (k x m), W (m x p) and Z (n x m) in
    canonical form, rows possibly empty, with values that are either small
    integers, whose sums cancel to exactly zero, or spread over 16 orders
    of magnitude; and a square DIA matrix of random offsets and values."""
    n, k, m, p = (draw(st.integers(1, 25)) for _ in range(4))
    cancel = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def matrix(rows, cols):
        density = draw(st.sampled_from([0.0, 0.1, 0.4, 1.0]))
        dense = rng.random((rows, cols)) < density
        r, c = np.nonzero(dense)
        vals = (rng.choice([-2.0, -1.0, 1.0, 2.0], r.size) if cancel else
                rng.standard_normal(r.size) * 10.0 ** rng.integers(-8, 8,
                                                                   r.size))
        indptr = np.concatenate([[0], np.cumsum(dense.sum(axis=1))])
        return fem.CSR(vals, c.astype(np.int32), indptr.astype(np.int32),
                       (rows, cols))

    offsets = np.flatnonzero(rng.random(2 * n - 1) < draw(
        st.sampled_from([0.1, 0.5, 1.0]))) - (n - 1)
    dia = fem.DIA(rng.standard_normal((offsets.size, n)), offsets, (n, n))
    return (matrix(n, k), matrix(k, m), matrix(m, p), matrix(n, m), dia,
            rng.standard_normal(n))


def _same_csr(ours, theirs):
    """Whether a `fem.CSR` holds the arrays of a scipy CSR matrix, the
    values to the bit and in the same order."""
    nnz = theirs.indptr[-1]
    return (ours.shape == theirs.shape
            and np.array_equal(ours.indptr, theirs.indptr)
            and np.array_equal(ours.indices, theirs.indices[:nnz])
            and ours.data.tobytes() == theirs.data[:nnz].tobytes())


@settings(max_examples=150, deadline=None)
@given(sparse_chains())
def test_kernel_helpers_are_scipys_operations_to_the_bit(case):
    # the hierarchy's products, difference, transpose, float32 copies and
    # DIA products call scipy's compiled kernels as scipy.sparse does; a
    # product of products has unsorted rows
    X, Y, W, Z, dia, x = case
    XY, XYW = fem._product(X, Y), fem._product(fem._product(X, Y), W)
    sX, sY, sW, sZ = map(scipy_csr, (X, Y, W, Z))
    assert _same_csr(XY, sX @ sY)
    assert _same_csr(XYW, (sX @ sY) @ sW)
    assert _same_csr(fem._difference(Z, XY), sZ - sX @ sY)
    assert _same_csr(fem._difference(XY, Z), sX @ sY - sZ)
    assert _same_csr(fem._transpose(XY), (sX @ sY).T.tocsr())
    assert _same_csr(fem._transpose(XYW), ((sX @ sY) @ sW).T.tocsr())
    reference = (sX @ sY).astype(np.float32)
    reference.sort_indices()
    assert _same_csr(fem._float32(XY), reference)
    assert _same_csr(XY, sX @ sY)  # the copy is sorted, not XY itself
    theirs = sp.dia_matrix((dia.data, dia.offsets), shape=dia.shape)
    assert dia.nnz == theirs.nnz
    assert (dia @ x).tobytes() == (theirs @ x).tobytes()
    half = fem._float32(dia)
    assert ((half @ x.astype(np.float32)).tobytes()
            == (theirs.astype(np.float32) @ x.astype(np.float32)).tobytes())


@st.composite
def restrictions(draw):
    """A matrix of `sparse_products`, its index arrays in int32 or int64,
    and sorted subsets of its rows and of its columns, each possibly empty
    or whole."""
    data, indices, indptr, shape, _ = draw(sparse_products())
    index = draw(st.sampled_from([np.int32, np.int64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = (np.flatnonzero(rng.random(size) < draw(
        st.sampled_from([0.0, 0.3, 0.7, 1.0]))) for size in shape)
    return (fem.CSR(data, indices.astype(index), indptr.astype(index), shape),
            rows, cols)


@settings(max_examples=200, deadline=None)
@given(restrictions())
def test_restrict_cuts_the_dense_block(case):
    # restrict(K, rows, cols) is K[rows][:, cols] in canonical form, square
    # or rectangular, and restrict(K, nodes) is restrict(K, nodes, nodes)
    K, rows, cols = case
    block = fem.restrict(K, rows, cols)
    assert block.shape == (rows.size, cols.size)
    assert np.array_equal(block.toarray(), K.toarray()[np.ix_(rows, cols)])
    assert block.nnz == np.count_nonzero(block.toarray())
    assert block.indices.dtype == block.indptr.dtype == K.indices.dtype
    assert block.data.dtype == K.data.dtype
    for i in range(rows.size):
        assert np.all(np.diff(block.indices[block.indptr[i]:
                                            block.indptr[i + 1]]) > 0)
    nodes = rows[rows < K.shape[1]]
    square, twice = fem.restrict(K, nodes), fem.restrict(K, nodes, nodes)
    assert square.shape == (nodes.size, nodes.size)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(square, name), getattr(twice, name))


def _reference_eliminate(K, fixed):
    """The one-pass Dirichlet split that `fem.eliminate` replaced by two
    `fem.restrict` calls, kept as its reference: returns the free and the
    fixed nodes, the entries (rows, cols, vals) of the free-free block
    listed row by row and the free-fixed block as a `fem.CSR`."""
    K = fem.CSR(K.data, K.indices, K.indptr, K.shape)
    n = K.shape[0]
    fixed = np.unique(np.asarray(fixed, dtype=np.int64))
    is_free = np.ones(n, dtype=bool)
    is_free[fixed] = False
    free = np.flatnonzero(is_free)
    if np.any(K.diagonal()[free] <= 0):
        raise ValueError("operator is not positive definite on free nodes")
    position = np.empty(n, dtype=K.indices.dtype)
    position[free] = np.arange(free.size)
    position[fixed] = np.arange(fixed.size)
    keep = is_free[K.rows]
    rows, cols, vals = position[K.rows[keep]], K.indices[keep], K.data[keep]
    to_free = is_free[cols]
    cols = position[cols]
    to_fixed = ~to_free
    K_fd = fem._csr(rows[to_fixed], cols[to_fixed], vals[to_fixed],
                    (free.size, fixed.size))
    return free, fixed, (rows[to_free], cols[to_free], vals[to_free]), K_fd


def _assert_split_is_the_reference(K, fixed):
    """`fem.eliminate(K, fixed)` holds `_reference_eliminate`'s arrays, in
    the same order and dtypes, or raises its ValueError."""
    try:
        free, fixed_ref, entries, K_fd = _reference_eliminate(K, fixed)
    except ValueError:
        with pytest.raises(ValueError,
                           match="not positive definite on free nodes"):
            fem.eliminate(K, fixed)
        return
    K_ff = fem._csr(*entries, (free.size, free.size))
    ours = fem.eliminate(K, fixed)
    for theirs, mine in zip((free, fixed_ref, entries[0]),
                            (*ours[:2], ours[2].rows)):
        assert theirs.dtype == mine.dtype
        assert theirs.tobytes() == mine.tobytes()
    for theirs, mine in zip((K_ff, K_fd), ours[2:]):
        assert isinstance(mine, fem.CSR) and mine.shape == theirs.shape
        for name in ("data", "indices", "indptr"):
            assert getattr(theirs, name).dtype == getattr(mine, name).dtype
            assert (getattr(theirs, name).tobytes()
                    == getattr(mine, name).tobytes())


@st.composite
def dirichlet_splits(draw):
    """A random square matrix in canonical CSR form with values as in
    `sparse_products` and a positive diagonal, one diagonal entry of which
    may be zero or negative; a `fem.CSR` or a scipy matrix, with a fixed
    node list that is unsorted and may repeat nodes."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    dense[np.diag_indices(n)] = True
    rows, cols = np.nonzero(dense)
    vals = rng.standard_normal(rows.size) * 10.0 ** rng.integers(-8, 8,
                                                                 rows.size)
    on = rows == cols
    vals[on] = np.abs(vals[on]) + 1.0
    if draw(st.booleans()):
        vals[np.flatnonzero(on)[rng.integers(n)]] = draw(
            st.sampled_from([0.0, -1.0]))
    indptr = np.concatenate([[0], np.cumsum(dense.sum(axis=1))])
    K = fem.CSR(vals, cols.astype(np.int32), indptr.astype(np.int32), (n, n))
    fixed = list(rng.integers(0, n, draw(st.integers(0, n))))
    return (scipy_csr(K) if draw(st.booleans()) else K), fixed


@settings(max_examples=200, deadline=None)
@given(dirichlet_splits())
@example((fem.CSR(np.array([2.0, -1.0, -1.0, 0.0]),
                  np.array([0, 1, 0, 1], dtype=np.int32),
                  np.array([0, 2, 4], dtype=np.int32), (2, 2)), [0]))
@example((fem.CSR(np.array([2.0, -1.0, -1.0, -3.0]),
                  np.array([0, 1, 0, 1], dtype=np.int32),
                  np.array([0, 2, 4], dtype=np.int32), (2, 2)), [1, 1]))
def test_eliminate_is_the_one_pass_split(case):
    _assert_split_is_the_reference(*case)


@pytest.mark.parametrize("nx", [7, 14, 28, 112])
def test_eliminate_is_the_one_pass_split_on_the_operators(nx):
    # 5.3's operator with and without its boundary fixed, and every box
    # member in both Dirichlet modes
    m, (K, fixed, _) = _global_member("5.3", nx)
    _assert_split_is_the_reference(K, fixed)
    _assert_split_is_the_reference(K, [])
    for mode in ("box-boundary", "interface-closure"):
        for i in range(4):
            loc = fem.BoxSystem(mesh.build_subdomains(m), i, mode)
            _assert_split_is_the_reference(*loc.member(K, m.nodes)[:2])


def _scipy_float32(M):
    """M in float32 with its CSR rows sorted, as the hierarchy keeps it."""
    M = M.astype(np.float32)
    if M.format == "csr":
        M.sort_indices()
    return M


def _scipy_multilevel(A, coords):
    """The first level's float64 storage form, the float32 levels and the
    coarsest inverse of `fem.Multilevel` for a `CSR` A, built on
    scipy.sparse as the hierarchy was before it moved to `fem.CSR`: each
    level in DIA storage when that takes no more memory than CSR
    (scipy's todia), P = T - 4 / (3 lam) D^-1 A T, P' = P.T.tocsr() and
    the next level PT @ (A @ P)."""
    A = scipy_csr(A)
    matrix, levels = A, []
    while A.shape[0] > fem.COARSEST_SIZE:
        n, diag = A.shape[0], A.diagonal()
        rows = np.repeat(np.arange(n), np.diff(A.indptr))
        diagonals = np.unique(A.indices - rows).size
        stored = (A.tocoo().todia()
                  if 8 * diagonals * n <= 12 * A.nnz + 4 * (n + 1) else A)
        if not levels:
            matrix = stored
        scale = 1.0 / np.sqrt(diag)
        lam = fem.largest_eigenvalue(lambda v: scale * (stored @ (scale * v)),
                                     n)
        agg = fem._aggregates(coords)
        T = sp.csr_matrix((np.ones(n), agg, np.arange(n + 1)),
                          shape=(n, int(agg.max()) + 1))
        P = T - sp.diags(4.0 / (3.0 * lam) / diag) @ (A @ T)
        PT = P.T.tocsr()
        levels.append((*map(_scipy_float32, (stored, P, PT)),
                       (8.0 / (5.0 * lam) / diag).astype(np.float32)))
        A = PT @ (A @ P)
        coords = (np.column_stack([np.bincount(agg, c) for c in coords.T])
                  / np.bincount(agg)[:, None])
    L_inv = np.linalg.inv(np.linalg.cholesky(A.toarray()))
    inverse = L_inv.T @ L_inv
    return matrix, levels, inverse.astype(np.float32) if levels else inverse


def _same_storage(ours, theirs):
    """Whether a `fem.DIA` or `fem.CSR` holds the arrays of a scipy DIA or
    CSR matrix, the values to the bit."""
    if isinstance(ours, fem.DIA):
        return (theirs.format == "dia"
                and np.array_equal(ours.offsets, theirs.offsets)
                and ours.data.tobytes() == theirs.data.tobytes()
                and ours.nnz == theirs.nnz)
    return theirs.format == "csr" and _same_csr(ours, theirs)


@pytest.mark.parametrize("case", ["box-n112", "global-n56", "flux-n56",
                                  "strip", "line"])
def test_multilevel_is_the_scipy_sparse_hierarchy(case):
    # every level, the float64 K_ff and the coarsest inverse are the arrays
    # that scipy.sparse's operations give, to the bit
    K, fixed, coords = _hierarchy_member(case)
    system = fem.DirichletSystem([(K, fixed, coords)])
    multilevel = system.multilevel[0]
    matrix, levels, inverse = _scipy_multilevel(
        fem.restrict(K, system.free), coords[system.free])
    assert _same_storage(system.multilevel[0].matrix, matrix)
    assert len(multilevel.levels) == len(levels) >= 2
    for ours, theirs in zip(multilevel.levels, levels):
        assert all(_same_storage(a, b) for a, b in zip(ours[:3], theirs[:3]))
        assert ours[3].tobytes() == theirs[3].tobytes()
    assert multilevel.coarsest_inv.tobytes() == inverse.tobytes()


def test_rejects_nonpositive_diffusion(mesh7):
    with pytest.raises(ValueError):
        fem.assemble(mesh7, -1.0, 1.0)
    with pytest.raises(ValueError):
        fem.assemble(mesh7, lambda x, y: x - 10.0, 1.0)
    # a non-finite coefficient, on half the domain or everywhere, is named
    for bad in (np.nan, np.inf, -np.inf):
        on_half = lambda x, y, bad=bad: np.where(x < 0.5, bad, 1.0)
        for coef in (bad, on_half):
            with pytest.raises(ValueError, match="diffusion"):
                fem.assemble(mesh7, coef, 1.0)
            with pytest.raises(ValueError, match="reaction"):
                fem.assemble(mesh7, 1.0, coef)


def test_boundary_mass_measures(mesh7):
    B = fem.assemble_boundary_mass(mesh7, mesh7.side_edges("right"))
    ones = np.zeros(mesh7.n_nodes)
    ones[mesh7.side_nodes("right")] = 1.0
    assert abs(fem.inner_product(ones, ones, B) - 2.0) < 1e-13


def test_boundary_mass_single_edge(mesh7):
    edges = mesh7.side_edges("bottom")[:1]
    L = 1 / 7
    B = fem.assemble_boundary_mass(mesh7, edges)
    hat = np.zeros(mesh7.n_nodes)
    hat[edges[0, 0]] = 1.0
    assert abs(fem.inner_product(hat, hat, B) - L / 3) < 1e-15


def test_boundary_mass_trace_exact(mesh7):
    # the linear trace y is in the P1 trace space, so the product is exact
    B = fem.assemble_boundary_mass(mesh7, mesh7.side_edges("right"))
    h = np.zeros(mesh7.n_nodes)
    g1 = mesh7.side_nodes("right")
    h[g1] = mesh7.nodes[g1, 1]
    assert abs(fem.inner_product(h, h, B) - 8 / 3) < 1e-12


def test_boundary_mass_rejects_empty(mesh7):
    with pytest.raises(ValueError):
        fem.assemble_boundary_mass(mesh7, np.empty((0, 2), dtype=int))


def test_solve_constant_solution(mesh7):
    K = fem.assemble(mesh7, 1.0, 1.0)
    u, _, _ = fem.pcg(K, fem.lumped_mass(mesh7), jacobi(K), tol=1e-12)
    assert np.abs(u - 1.0).max() < 1e-9


def test_solve_zero_rhs(mesh7):
    K = fem.assemble(mesh7, 1.0, 1.0)
    bnd = np.flatnonzero(mesh7.boundary_mask)
    system = fem.DirichletSystem([(K, bnd, mesh7.nodes)])
    u = system.solution(np.zeros(mesh7.n_nodes), np.zeros(bnd.size))
    assert np.all(u == 0.0)


def test_manufactured_convergence_order():
    lam = np.pi ** 2 * 1.25
    errors = []
    for nx in (7, 14, 28):
        m = mesh.build_mesh(nx, 2 * nx)
        K = fem.assemble(m, 1.0, 1.0)
        x, y = m.nodes.T
        ustar = np.sin(np.pi * x) * np.sin(np.pi * y / 2)
        rhs = fem.lumped_mass(m) * (lam + 1.0) * ustar
        bnd = np.flatnonzero(m.boundary_mask)
        u = fem.DirichletSystem([(K, bnd, m.nodes)]).solution(
            rhs, np.zeros(bnd.size), tol=1e-12)
        d = u - ustar
        errors.append(np.sqrt(fem.inner_product(d, d, fem.lumped_mass(m))))
    for coarse, fine in zip(errors, errors[1:]):
        assert 4 * 0.85 <= coarse / fine <= 4 * 1.15


def test_galerkin_exact_for_linear_fields(mesh7):
    # with constant coefficients the assembled form is exact on P1 functions
    K = fem.assemble(mesh7, 1.0, 0.0)
    x, y = mesh7.nodes.T
    assert abs(x @ (K @ x) - 2.0) < 1e-12   # integral of |grad x|^2 = |domain|
    assert abs(x @ (K @ y)) < 1e-12         # orthogonal gradients
    M = consistent_mass(mesh7)
    assert abs(x @ (M @ x) - 2 / 3) < 1e-12  # integral of x^2 over the strip


def test_inner_product_basics(mesh7):
    M = consistent_mass(mesh7)
    ones = np.ones(mesh7.n_nodes)
    assert abs(fem.inner_product(ones, ones, M) - 2.0) < 1e-13
    rng = np.random.default_rng(3)
    u = rng.standard_normal(mesh7.n_nodes)
    v = rng.standard_normal(mesh7.n_nodes)
    assert fem.inner_product(u, v, M) == fem.inner_product(v, u, M)


def test_inner_product_orthogonality():
    m = mesh.build_mesh(28, 56)
    x, y = m.nodes.T
    v = np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    M = consistent_mass(m)
    h2 = (1 / 28) ** 2
    assert abs(fem.inner_product(v, np.ones(m.n_nodes), M)) <= 10 * h2


def test_inner_product_rejects_mismatch(mesh7):
    M = consistent_mass(mesh7)
    with pytest.raises(ValueError):
        fem.inner_product(np.ones(3), np.ones(3), M)
    with pytest.raises(ValueError):
        fem.inner_product(np.ones(mesh7.n_nodes), np.ones(4), M)


def test_spd_after_elimination(mesh7):
    K = fem.assemble(mesh7, lambda x, y: (x + y) / 100, 1.0)
    system = fem.DirichletSystem([(K, np.flatnonzero(mesh7.boundary_mask),
                                   mesh7.nodes)])
    rng = np.random.default_rng(11)
    for _ in range(10):
        v = rng.standard_normal(system.free.size)
        assert v @ (system.multilevel[0].matrix @ v) > 0


def test_solver_residual_contract(mesh7):
    K = fem.assemble(mesh7, 1.0, 1.0)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(mesh7.n_nodes)
    x, relres, _ = fem.pcg(K, b, jacobi(K), tol=1e-10)
    assert relres <= 1e-10
    assert np.linalg.norm(K @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_nonconvergence_raises(mesh7):
    K = fem.assemble(mesh7, 1.0, 1.0)
    b = np.ones(mesh7.n_nodes)
    with pytest.raises(fem.SolverError) as err:
        fem.pcg(K, b, jacobi(K), tol=1e-14, max_iter=2)
    assert err.value.residual > 0


def test_pcg_breakdown_raises():
    # indefinite: the first search direction has p'Ap = 1 - 1 = 0
    A = sp.diags([1.0, -1.0]).tocsr()
    with pytest.raises(fem.SolverError, match="not positive definite") as err:
        fem.pcg(A, np.ones(2), jacobi(A))
    assert err.value.iterations == 0


def _global_member(experiment, nx):
    """The mesh and the global system of an experiment as a
    `DirichletSystem` member: Dirichlet walls for a source experiment, none
    for a flux one (all-Neumann operator)."""
    spec = problems.example_catalog()[experiment]
    m = mesh.build_mesh(nx, 2 * nx)
    K = fem.assemble(m, spec.diffusion, spec.reaction)
    fixed = (np.flatnonzero(m.boundary_mask) if spec.kind == "source"
             else np.array([], dtype=np.int64))
    return m, (K, fixed, m.nodes)


def _global_system(experiment, nx):
    """The mesh and the global system of an experiment."""
    m, member = _global_member(experiment, nx)
    return m, fem.DirichletSystem([member])


def _random_load(m, system, seed=3):
    return fem.lumped_mass(m)[system.free] * np.random.default_rng(
        seed).uniform(-1.0, 1.0, system.free.size)


def _thin_case(case):
    """(K, coords) of an all-Neumann operator on thin or collinear nodes:
    the P1 operator on 4201 x 2 nodes ("strip") or a 1-D operator on 5000
    nodes on a line ("line")."""
    if case == "strip":
        m = mesh.build_mesh(4200, 1)
        return fem.assemble(m, 1.0, 1.0), m.nodes
    n = 5000
    K = sp.diags([-1.0, 2.001, -1.0], [-1, 0, 1], shape=(n, n)).tocsr()
    return K, np.column_stack([np.linspace(0.0, 1.0, n), np.full(n, 0.5)])


def _hierarchy_member(case):
    """A `DirichletSystem` member solved by multilevel PCG: box 0 of 5.3 at
    nx=112 ("box-n112", 8001 free nodes), the global system at nx=56 of 5.3
    ("global-n56") or 5.1 ("flux-n56"), or a `_thin_case`."""
    if case == "box-n112":
        spec = problems.example_catalog()["5.3"]
        m = mesh.build_mesh(112, 224)
        K = fem.assemble(m, spec.diffusion, spec.reaction)
        loc = fem.BoxSystem(mesh.build_subdomains(m), 0)
        return loc.member(K, m.nodes)
    if case in ("strip", "line"):
        K, coords = _thin_case(case)
        return K, [], coords
    return _global_member("5.3" if case == "global-n56" else "5.1", 56)[1]


def _hierarchy_case(case):
    """The system of a `_hierarchy_member`."""
    return fem.DirichletSystem([_hierarchy_member(case)])


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 a "
                    "method call keeps its arguments in the caller's frame")
def test_each_hierarchy_owns_its_block():
    # the free-free block that `eliminate` cuts is held by its hierarchy
    # alone, so it is gone once the next level's matrix exists: before the
    # first level's float32 copies, while the hierarchy still builds
    m, member = _global_member("5.3", 28)
    blocks, alive = [], []
    eliminate, float32 = fem.eliminate, fem._float32

    def spy_eliminate(K, fixed):
        out = eliminate(K, fixed)
        blocks.append(weakref.ref(out[2]))
        return out

    def spy_float32(A):
        alive.append(blocks[0]() is not None)
        return float32(A)

    with mock.patch.object(fem, "eliminate", spy_eliminate), \
            mock.patch.object(fem, "_float32", spy_float32):
        system = fem.DirichletSystem([member])
    assert len(system.multilevel[0].levels) == 1
    assert alive == [False, False, False]


@pytest.mark.parametrize("experiment", ["5.3", "5.1"])
def test_two_level_pcg_matches_jacobi(experiment):
    # the global system at nx=56: 6105 free nodes with Dirichlet walls
    # (source) or 6441 with none (all-Neumann flux operator)
    m, system = _global_system(experiment, 56)
    assert system.multilevel is not None
    b = _random_load(m, system)
    K_ff = system.multilevel[0].matrix
    x_jac, _, it_jac = fem.pcg(K_ff, b, jacobi(scipy_csr(K_ff)))
    x_two, relres, it_two = fem.pcg(K_ff, b, system.multilevel[0].apply)
    assert relres <= 1e-10
    assert np.abs(x_two - x_jac).max() <= 1e-8 * np.abs(x_jac).max()
    assert 2 * it_two <= it_jac


def test_coarse_space_size_rule():
    # 4096 free nodes is the smallest system that is never factored; on a
    # 64 x 64 grid each level bins about 3 x 3 nodes (21 x 21 bins, then
    # 7 x 7) until at most 200 unknowns are left
    side = np.arange(64.0)
    coords = np.column_stack([np.repeat(side, 64), np.tile(side, 64)])
    K = sp.identity(4096, format="csr")
    system = fem.DirichletSystem([(K, [], coords)], direct=True)
    shapes = [P.shape for _, P, _, _ in system.multilevel[0].levels]
    assert shapes == [(4096, 441), (441, 49)]
    assert system.multilevel[0].coarsest_inv.shape == (49, 49)
    assert system.factor is None
    # K = I: the error is the residual, within PCG's relative-residual
    # contract; the float32 V-cycle leaves it near 5e-7 elementwise
    b = np.arange(4096.0)
    x = system.solution(b)
    assert np.linalg.norm(x - b) <= 1e-10 * np.linalg.norm(b)
    # one node fewer: factored when a direct solve is asked for, and solved
    # by PCG on the same kind of hierarchy otherwise
    smaller = fem.DirichletSystem([(K, [0], coords)], direct=True)
    assert smaller.multilevel is None
    assert smaller.factor is not None
    x = smaller.solution(np.arange(4096.0), np.array([5.0]))
    assert x[0] == 5.0 and np.array_equal(x[1:], np.arange(1.0, 4096.0))
    iterative = fem.DirichletSystem([(K, [0], coords)])
    assert iterative.factor is None
    assert len(iterative.multilevel[0].levels) == 2
    x = iterative.solution(b, np.array([5.0]))
    assert x[0] == 5.0
    assert np.linalg.norm(x[1:] - b[1:]) <= 1e-10 * np.linalg.norm(b[1:])


@pytest.mark.parametrize("nx, ny, factored", [(630, 7, False), (7, 630, True)])
def test_band_budget_rule(nx, ny, factored):
    # both meshes have 3774 free nodes; numbered row by row, the wide one
    # has a bandwidth of about 630, beyond the factor's budget, and is
    # solved by multilevel PCG, the tall one a bandwidth of about 7
    m = mesh.build_mesh(nx, ny)
    K = fem.assemble(m, 1.0, 1.0)
    system = fem.DirichletSystem([(K, np.flatnonzero(m.boundary_mask),
                                   m.nodes)], direct=True)
    assert system.free.size == 3774
    assert (system.factor is not None) == factored
    assert (system.multilevel is None) == factored
    x = system.solution(np.ones(m.n_nodes))
    residual = (K @ x - np.ones(m.n_nodes))[system.free]
    assert np.abs(residual).max() <= 1e-8


@pytest.mark.parametrize("experiment", ["5.3", "5.1"])
@pytest.mark.parametrize("nx, levels, max_iterations",
                         [(7, 0, 1), (14, 1, 20), (28, 1, 20)])
def test_multilevel_on_small_systems(experiment, nx, levels, max_iterations):
    # the global systems at nx 7 to 28, 78 to 1653 free nodes, on which
    # Jacobi PCG takes 24 to 234 iterations; at nx=7 there are at most
    # COARSEST_SIZE, so the hierarchy has no level and one V-cycle is a
    # dense solve
    m, system = _global_system(experiment, nx)
    assert len(system.multilevel[0].levels) == levels
    b = _random_load(m, system)
    x, relres, it = fem.pcg(system.multilevel[0].matrix, b, system.multilevel[0].apply)
    assert relres <= 1e-10 and it <= max_iterations
    assert (np.linalg.norm(system.multilevel[0].matrix @ x - b)
            <= 1e-10 * np.linalg.norm(b))


def test_indefinite_coarse_operator_raises():
    # c = -5000 keeps every diagonal entry positive (4 - 5000 h^2 / 2 > 0 at
    # h = 1/56) while the first coarse operator, over aggregates of about
    # 3 x 3 nodes, is dominated by the negative reaction mass
    m = mesh.build_mesh(56, 112)
    K = fem.assemble(m, 1.0, -5000.0)
    with pytest.raises(ValueError, match="coarse operator"):
        fem.DirichletSystem([(K, np.flatnonzero(m.boundary_mask), m.nodes)])


@pytest.mark.parametrize("case", ["box-n112", "global-n56"])
def test_v_cycle_is_symmetric_and_positive(case):
    # PCG needs a symmetric positive definite preconditioner: the V-cycle
    # smooths with the same damped Jacobi before and after the coarse
    # correction and restricts with the transpose of the prolongation.  It
    # runs in float32, so it is symmetric up to a few float32 ulps of the
    # energy scale sqrt((r1'z1)(r2'z2)), the Cauchy-Schwarz bound of r1'z2
    # (at most 0.2 ulp measured over 20 pairs on either system)
    system = _hierarchy_case(case)
    rng = np.random.default_rng(5)
    for _ in range(3):
        r1, r2 = rng.standard_normal((2, system.free.size))
        z1 = system.multilevel[0].apply(r1)
        z2 = system.multilevel[0].apply(r2)
        a, b = r1 @ z2, r2 @ z1
        assert r1 @ z1 > 0 and r2 @ z2 > 0
        assert abs(a - b) <= 4 * np.finfo(np.float32).eps * np.sqrt(
            (r1 @ z1) * (r2 @ z2))


def test_v_cycle_scaling_is_exact():
    # the float32 cycle runs on b scaled by a power of two, so scaling b by
    # 2^k scales the result by 2^k to the bit; a load near 1e300, whose
    # square overflows float64, still gives a finite result, and so does a
    # subnormal one, whose power of two would overflow float64 unclamped
    m, system = _global_system("5.3", 56)
    cycle = system.multilevel[0].apply
    b = _random_load(m, system).astype(np.float32).astype(np.float64)
    z = cycle(b)
    # a load held in float32 reaches the cycle unrounded: its float32
    # right-hand side is b times one power of two
    ratio = system.multilevel[0]._work[0][0] / b
    assert np.all(ratio == ratio[0]) and math.frexp(ratio[0])[0] == 0.5
    for k in (-300, 0, 300):
        assert cycle(2.0**k * b).tobytes() == (2.0**k * z).tobytes()
    for top in (1e300, 1e-310):
        x = cycle(top / np.abs(b).max() * b)
        assert np.all(np.isfinite(x)) and np.abs(x).max() > 0


def _recursive_cycle(multilevel, b):
    """The float32 V(1,1) cycle of `multilevel` for the float64 load b, as a
    recursion over the levels: the same float32 operations in the same
    order as `Multilevel.apply`, whose products each add into a buffer
    through `fem._accumulator`."""
    e = min(max(math.frexp(np.abs(b).max())[1], -1021), 1023)

    def cycle(level, b):
        if level == len(multilevel.levels):
            return np.dot(multilevel.coarsest_inv, b)
        A, P, PT, scaled = multilevel.levels[level]
        x = scaled * b
        r = b - A @ x
        coarse = np.zeros(P.shape[1], np.float32)
        fem._accumulator(PT)(r, coarse)
        fem._accumulator(P)(cycle(level + 1, coarse), x)
        r = b - A @ x
        return x + scaled * r

    return cycle(0, (b * math.ldexp(1.0, -e)).astype(np.float32)).astype(
        np.float64) * math.ldexp(1.0, e)


@pytest.mark.parametrize("case", ["box-n112", "global-n56"])
def test_flat_v_cycle_equals_the_recursive_one(case):
    # `apply` runs the cycle as one loop down and one loop up the levels
    system = _hierarchy_case(case)
    multilevel = system.multilevel[0]
    assert len(multilevel.levels) >= 2
    rng = np.random.default_rng(8)
    out = np.empty(system.free.size)
    for scale in (1e-3, 1.0, 1e5):
        b = scale * rng.standard_normal(system.free.size)
        reference = _recursive_cycle(multilevel, b)
        assert multilevel.apply(b).tobytes() == reference.tobytes()
        assert multilevel.apply(b, out) is out
        assert out.tobytes() == reference.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70 + 11,
                                  2**130 + 3])
def test_pcg64_stream_is_numpys_default_generator(seed):
    # one, two and four 32-bit seed words, and more words than the pool
    for n in (1, 2, 255, 256, 257, 903, 21489, 25425):
        ours = fem.pcg64_random(seed, n)
        theirs = np.random.default_rng(seed).random(n)
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()


def test_pcg64_stream_gives_numpys_uniform_noise():
    # the noise of the heat data at nx=28: 13 time levels of 1653 nodes
    shape = (13, 1653)
    noise = -1.0 + 2.0 * fem.pcg64_random(5, 13 * 1653).reshape(shape)
    theirs = np.random.default_rng(5).uniform(-1.0, 1.0, shape)
    assert noise.tobytes() == theirs.tobytes()


def test_pcg64_stream_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        fem.pcg64_random(-1, 4)


def _level_estimate(A):
    """The estimate `Multilevel` takes of the largest eigenvalue of
    D^-1 A, D = diag(A)."""
    scale = 1.0 / np.sqrt(A.diagonal())
    return fem.largest_eigenvalue(lambda v: scale * (A @ (scale * v)),
                                  A.shape[0])


def _dense_largest_eigenvalue(A):
    """The largest eigenvalue of D^-1 A by a dense eigensolver."""
    root = np.sqrt(A.diagonal())
    return np.linalg.eigvalsh(A.toarray() / np.outer(root, root))[-1]


def _assert_estimate_within_two_percent(A):
    # a Ritz value never exceeds the largest eigenvalue
    exact = _dense_largest_eigenvalue(A)
    estimate = _level_estimate(A)
    assert 0.98 * exact <= estimate <= exact * (1.0 + 1e-12)


@pytest.mark.parametrize("experiment", ["5.1", "5.2", "5.3", "5.4", "5.5"])
@pytest.mark.parametrize("nx", [7, 14])
def test_largest_eigenvalue_estimate_on_small_operators(experiment, nx):
    # the global operators of the elliptic experiments: with Dirichlet
    # walls (source) or without (all-Neumann flux), 105 to 435 unknowns
    _, system = _global_system(experiment, nx)
    _assert_estimate_within_two_percent(scipy_csr(system.multilevel[0].matrix))


def test_largest_eigenvalue_of_a_closed_krylov_space():
    # one Lanczos step spans an invariant subspace of the identity, and
    # five steps all of R^5
    assert fem.largest_eigenvalue(lambda v: 3.0 * v, 4096) == pytest.approx(
        3.0, rel=1e-14)
    A = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]) + 0.5 * np.eye(5, k=1) \
        + 0.5 * np.eye(5, k=-1)
    assert fem.largest_eigenvalue(lambda v: A @ v, 5) == pytest.approx(
        np.linalg.eigvalsh(A)[-1], rel=1e-12)


@st.composite
def p1_operators(draw):
    """A P1 operator -div(a grad u) + c u on a random mesh of up to 17 x 17
    nodes, with a random diffusion a on each element, spread over up to
    four orders of magnitude, a random constant reaction c >= 0 and
    Dirichlet walls or none."""
    m = mesh.build_mesh(draw(st.integers(1, 16)), draw(st.integers(1, 16)))
    contrast = draw(st.sampled_from([1.0, 1e2, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = 0.5 * np.log(contrast)
    a = np.exp(rng.uniform(-spread, spread, m.elements.shape[0]))
    K = fem.assemble(m, lambda x, y: a, rng.uniform(0.0, 10.0))
    walls = draw(st.booleans()) and m.n_nodes > m.boundary_mask.sum()
    fixed = np.flatnonzero(m.boundary_mask) if walls else []
    return scipy_csr(
        fem.DirichletSystem([(K, fixed, m.nodes)]).multilevel[0].matrix)


@settings(max_examples=60, deadline=None)
@given(p1_operators())
def test_largest_eigenvalue_estimate_on_random_operators(A):
    _assert_estimate_within_two_percent(A)


def _largest_eigenvalue_bound(A):
    """An upper bound of the largest eigenvalue of D^-1 A: the eigenvalue
    itself up to 1000 unknowns, Gershgorin's max_i sum_j |a_ij| / a_ii
    beyond."""
    if A.shape[0] <= 1000:
        return _dense_largest_eigenvalue(A)
    return (abs(A).sum(axis=1).A1 / A.diagonal()).max()


@pytest.mark.parametrize("case", ["box-n112", "global-n56", "flux-n56"])
def test_smoothing_weights_keep_the_v_cycle_positive(case):
    # the V(1,1) cycle is positive definite while the smoothing weight w of
    # every level keeps w lam_max(D^-1 A) < 2
    system = _hierarchy_case(case)
    for A, _, _, scaled in system.multilevel[0].levels:
        A = scipy_csr(A)
        weight = (scaled * A.diagonal()).max()
        assert weight * _largest_eigenvalue_bound(A) < 2.0


def test_indefinite_v_cycle_breaks_pcg_down():
    # smoothing weights inflated to twice the measured ones, past 2 / lam,
    # make the V-cycle indefinite; p'Ap stays positive, r'z does not
    m, system = _global_system("5.3", 56)
    levels = system.multilevel[0].levels
    A, P, PT, scaled = levels[0]
    levels[0] = (A, P, PT, 2.0 * scaled)
    with pytest.raises(fem.SolverError,
                       match="preconditioner is not positive definite"):
        fem.pcg(system.multilevel[0].matrix, _random_load(m, system),
                system.multilevel[0].apply)


def test_multilevel_iterations_do_not_grow_with_the_mesh():
    # the 5.3 global system at nx=56 and nx=112 (6105 and 24,753 unknowns);
    # Jacobi PCG needs about twice as many iterations on the finer mesh
    counts = []
    for nx in (56, 112):
        m, system = _global_system("5.3", nx)
        _, relres, it = fem.pcg(system.multilevel[0].matrix, _random_load(m, system),
                                system.multilevel[0].apply)
        assert relres <= 1e-10
        counts.append(it)
    assert counts[1] <= counts[0] + 5


@pytest.mark.filterwarnings("error")  # e.g. 0 / 0 in the binning
@pytest.mark.parametrize("case", ["strip", "line"])
def test_multilevel_on_thin_and_collinear_nodes(case):
    # on the line no level has extent across it
    K, coords = _thin_case(case)
    system = fem.DirichletSystem([(K, [], coords)])
    assert system.multilevel is not None
    _assert_storage_by_the_memory_rule(system, K)
    b = np.cos(3.0 * coords[:, 0])
    x, relres, it = fem.pcg(system.multilevel[0].matrix, b, system.multilevel[0].apply)
    assert relres <= 1e-10 and np.all(np.isfinite(x))
    # each axis gets at most one bin per distinct coordinate, so the strip's
    # aggregates are 9-node bins along it (76 iterations; 567 with bins
    # sized by the bounding box alone), and the line's take 59
    assert it <= 90
    # the strip's cells of 1/4200 by 2 spread K's entries over eight orders
    # of magnitude, so the true residual stops near 2e-9, above the
    # recursive one; pcg fails beyond TRUE_RESIDUAL_FACTOR times the target
    assert (np.linalg.norm(K @ x - b)
            <= fem.TRUE_RESIDUAL_FACTOR * 1e-10 * np.linalg.norm(b))


def _assert_storage_by_the_memory_rule(system, A, seed=0):
    """Walk the hierarchy of `system` from A, its free-free block in
    canonical CSR form: a level keeps its matrix in DIA storage exactly when
    8 (diagonals) n <= 12 nnz + 4 (n + 1) bytes, and then multiplies to the
    bit as the CSR matrix with sorted columns.  The system's K_ff is A in
    float64 in the first level's storage form, and that level keeps A's
    entries rounded to float32; each coarser level keeps P' A P of the
    level above, to float32 rounding."""
    rng = np.random.default_rng(seed)
    A = scipy_csr(A)
    levels = [(*map(scipy_csr, level[:3]), level[3])
              for level in system.multilevel[0].levels]
    if levels:
        K_ff, first = scipy_csr(system.multilevel[0].matrix), levels[0][0]
        assert K_ff.dtype == np.float64 and K_ff.format == first.format
        assert abs(K_ff - A).max() == 0.0
        assert abs(first - A.astype(np.float32)).max() == 0.0
        x = rng.standard_normal(A.shape[0])
        reference = A.sorted_indices() if K_ff.format == "dia" else A
        assert np.array_equal(K_ff @ x, reference @ x)
    for k, (stored, P, PT, _) in enumerate(levels):
        assert stored.dtype == P.dtype == PT.dtype == np.float32
        if k:
            above, P_above, PT_above, _ = (M.astype(np.float64)
                                           for M in levels[k - 1])
            galerkin = PT_above @ (above @ P_above)
            A = stored.tocsr().astype(np.float64)
            assert (abs(A - galerkin).max()
                    <= 1e-6 * abs(galerkin).max())
        n = A.shape[0]
        rows = np.repeat(np.arange(n), np.diff(A.indptr))
        diagonals = np.unique(A.indices - rows).size
        assert ((stored.format == "dia")
                == (8 * diagonals * n <= 12 * A.nnz + 4 * (n + 1)))
        x = rng.standard_normal(n).astype(np.float32)
        reference = A.sorted_indices() if stored.format == "dia" else A
        assert np.array_equal(stored @ x,
                              reference.astype(np.float32) @ x)


@st.composite
def grid_boxes(draw):
    """A mesh of up to 60 x 60 cells with a random diffusion on each
    element and a random reaction, both positive, a random grid-aligned box
    of it with at least one interior node, a Dirichlet mode, and whether
    the mesh nodes are numbered at random."""
    nx, ny = draw(st.integers(2, 60)), draw(st.integers(2, 60))
    ix0 = draw(st.integers(0, nx - 2))
    jy0 = draw(st.integers(0, ny - 2))
    bounds = (ix0, draw(st.integers(ix0 + 2, nx)),
              jy0, draw(st.integers(jy0 + 2, ny)))
    mode = draw(st.sampled_from(["box-boundary", "interface-closure"]))
    return (nx, ny, bounds, mode, draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None)
@given(grid_boxes())
@example((60, 60, (0, 60, 0, 60), "box-boundary", False, 0))  # two levels
@example((60, 60, (0, 60, 0, 60), "interface-closure", False, 1))
@example((60, 60, (3, 57, 5, 60), "interface-closure", True, 2))
def test_diagonal_storage_multiplies_to_the_bit(case):
    # a box system in the given Dirichlet mode, and the global system with
    # Dirichlet walls (box-boundary) or none (interface-closure); numbered
    # at random, the global operator has about n diagonals and stays CSR
    nx, ny, (ix0, ix1, jy0, jy1), mode, shuffled, seed = case
    m = mesh.build_mesh(nx, ny)
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(-2.0, 2.0, m.n_elements))
    K = fem.assemble(m, lambda x, y: a, rng.uniform(0.1, 10.0))
    box = mesh.Box(Fraction(ix0, nx), Fraction(ix1, nx),
                   Fraction(2 * jy0, ny), Fraction(2 * jy1, ny))
    whole = mesh.Box(Fraction(0), mesh.WIDTH, Fraction(0), mesh.HEIGHT)
    loc = fem.BoxSystem(mesh.build_subdomains(m, (box, whole)), 0, mode)
    system = fem.DirichletSystem([loc.member(K, m.nodes)])
    _assert_storage_by_the_memory_rule(
        system, fem.restrict(fem.restrict(K, loc.nodes), system.free))
    fixed = (np.flatnonzero(m.boundary_mask) if mode == "box-boundary"
             else np.array([], dtype=np.int64))
    coords = m.nodes
    if shuffled:
        order = rng.permutation(m.n_nodes)
        K = scipy_csr(K)[order][:, order].sorted_indices()
        coords = coords[order]
        fixed = np.argsort(order)[fixed]
    system = fem.DirichletSystem([(K, fixed, coords)])
    _assert_storage_by_the_memory_rule(system,
                                       fem.restrict(K, system.free))


@pytest.mark.parametrize("coupled, form", [(1365, "csr"), (1366, "dia")])
def test_diagonal_storage_memory_rule_at_its_bound(coupled, form):
    # 4096 unknowns on the offsets 0 and +-1, with `coupled` entries on each
    # off-diagonal: DIA takes 8 * 3 * 4096 = 98,304 bytes, CSR 12 nnz +
    # 4 * 4097 = 98,300 bytes at 1365 and 98,324 at 1366
    n = 4096
    off = np.where(np.arange(n - 1) < coupled, -1.0, 0.0)
    K = sp.diags([off, np.full(n, 4.0), off], [-1, 0, 1], format="csr")
    K.eliminate_zeros()
    side = np.arange(64.0)
    coords = np.column_stack([np.repeat(side, 64), np.tile(side, 64)])
    system = fem.DirichletSystem([(K, [], coords)])
    assert scipy_csr(system.multilevel[0].matrix).format == form
    _assert_storage_by_the_memory_rule(system, K)


def test_pcg_checks_the_true_residual_at_exit():
    # Jacobi PCG on the strip above stops on a recursive residual below
    # 1e-10 while ||b - K x|| / ||b|| is about 2e-8, beyond
    # TRUE_RESIDUAL_FACTOR times the target
    m = mesh.build_mesh(4200, 1)
    # scipy's product gives the same bits as fem.CSR's in a third of the
    # time, and Jacobi takes thousands of iterations here
    K = scipy_csr(fem.assemble(m, 1.0, 1.0))
    b = np.cos(3.0 * m.nodes[:, 0])
    with pytest.raises(fem.SolverError, match="true relative residual") as err:
        fem.pcg(K, b, jacobi(K))
    assert err.value.residual > fem.TRUE_RESIDUAL_FACTOR * 1e-10
    x, relres, _ = fem.pcg(K, b, jacobi(K), tol=1e-9)
    assert np.linalg.norm(K @ x - b) <= 1e-7 * np.linalg.norm(b)


@st.composite
def banded_spd(draw):
    """A random symmetric, strictly diagonally dominant band matrix, a
    right-hand side and a random fixed set."""
    n = draw(st.integers(1, 300))
    bw = draw(st.integers(0, min(n - 1, 12)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    for d in range(1, bw + 1):
        band = rng.uniform(-1.0, 1.0, n - d) * (rng.random(n - d) < 0.7)
        A += np.diag(band, d) + np.diag(band, -d)
    A += np.diag(np.abs(A).sum(axis=1) + rng.uniform(0.1, 2.0, n))
    fixed = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.0, 0.1])))
    return A, rng.standard_normal(n), rng.standard_normal(fixed.size), fixed


def _banded_case(n, bw, seed=0, fixed=()):
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n))
    for d in range(1, bw + 1):
        band = rng.uniform(-1.0, 1.0, n - d)
        A += np.diag(band, d) + np.diag(band, -d)
    A += np.diag(np.abs(A).sum(axis=1) + rng.uniform(1.0, 2.0, n))
    fixed = np.asarray(fixed, dtype=np.int64)
    return A, rng.standard_normal(n), rng.standard_normal(fixed.size), fixed


@settings(max_examples=60, deadline=None)
@given(banded_spd())
@example(_banded_case(1, 0))            # a single unknown
@example(_banded_case(1, 0, fixed=[0]))  # no free unknown
@example(_banded_case(10, 3))           # n not a multiple of the bandwidth
@example(_banded_case(157, 4, 1))       # a long, narrow band
@example(_banded_case(200, 0, 2))       # a diagonal matrix
@example(_banded_case(120, 5, 3, fixed=[0, 7, 119]))
@example(_banded_case(150, 66, 4))  # a wide band: 66 of 150 rows
def test_factored_solve_matches_dense(case):
    A, rhs, vals, fixed = case
    n = A.shape[0]
    system = fem.DirichletSystem([(sp.csr_matrix(A), fixed,
                                   np.zeros((n, 2)))], direct=True)
    assert system.factor is not None
    x = system.solution(rhs, vals if fixed.size else None)
    free = system.free
    ref = np.linalg.solve(A[np.ix_(free, free)],
                          rhs[free] - A[np.ix_(free, fixed)] @ vals)
    assert np.array_equal(x[fixed], vals)
    assert (np.abs(x[free] - ref).max(initial=0.0)
            <= 1e-12 * max(np.abs(ref).max(initial=0.0), 1.0))


def _band_entries(A):
    rows, cols = np.nonzero(A)
    return fem._csr(rows, cols, A[rows, cols], A.shape)


def _random_band(rng, n, bw):
    # bandwidth exactly bw: the outermost band keeps its first entry
    A = np.zeros((n, n))
    for d in range(1, bw + 1):
        band = rng.uniform(-1.0, 1.0, n - d) * (rng.random(n - d) < 0.7)
        band[0] = band[0] or 0.5
        A += np.diag(band, d) + np.diag(band, -d)
    return A + np.diag(np.abs(A).sum(axis=1) + rng.uniform(0.1, 2.0, n))


def _band_stack(seed, B, n, bw):
    """B random SPD band matrices of size n and bandwidth bw, and a
    right-hand side per matrix."""
    rng = np.random.default_rng(seed)
    matrices = [_random_band(rng, n, min(bw, n - 1)) for _ in range(B)]
    return matrices, rng.standard_normal((B, n))


@st.composite
def band_stacks(draw):
    """A stack of 1 to 4 random SPD band matrices of one size and
    bandwidth, and a right-hand side per matrix."""
    return _band_stack(draw(st.integers(0, 2**32 - 1)),
                       draw(st.integers(1, 4)), draw(st.integers(1, 200)),
                       draw(st.integers(0, 12)))


@settings(max_examples=60, deadline=None)
@given(band_stacks())
@example(_band_stack(5, 4, 465, 15))  # as the nx=28 heat boxes
def test_stacked_factor_matches_one_matrix_factors(case):
    # a stack solves to the bit as each matrix alone, and through its
    # one-matrix views; each solve overwrites its own copy of the loads
    matrices, rhs = case
    n = rhs.shape[1]
    factor = fem.BandFactor([_band_entries(A) for A in matrices], n)
    x = rhs.copy()
    assert factor.solve(x) is x
    for k, (A, b) in enumerate(zip(matrices, rhs)):
        assert np.array_equal(factor.box(k).solve(rhs[k:k + 1].copy())[0],
                              x[k])
        alone = fem.BandFactor([_band_entries(A)], n).solve(b[None].copy())[0]
        assert np.array_equal(x[k], alone)
        ref = np.linalg.solve(A, b)
        assert np.abs(x[k] - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("where", [0, 2])
def test_stacked_factor_rejects_an_indefinite_member(where):
    rng = np.random.default_rng(3)
    matrices = [_random_band(rng, 90, 4) for _ in range(3)]
    matrices[where][40, 40] = -5.0
    with pytest.raises(ValueError, match="not positive definite"):
        fem.BandFactor([_band_entries(A) for A in matrices], 90)


def test_stacked_factor_keeps_a_non_finite_load_to_its_member():
    # a nan in one member's load makes that member's solution non-finite
    # and leaves the others finite and as each one solves alone
    matrices, rhs = _band_stack(6, 3, 120, 7)
    rhs[1, 50] = np.nan
    factor = fem.BandFactor([_band_entries(A) for A in matrices], 120)
    x = factor.solve(rhs.copy())
    assert not np.isfinite(x[1]).all()
    for k in (0, 2):
        alone = fem.BandFactor([_band_entries(matrices[k])], 120)
        assert np.isfinite(x[k]).all()
        assert np.array_equal(x[k], alone.solve(rhs[k:k + 1].copy())[0])


def test_stacked_factor_rejects_right_hand_sides_of_another_shape():
    # LAPACK would read and write past the right-hand sides
    matrices, rhs = _band_stack(7, 3, 40, 3)
    factor = fem.BandFactor([_band_entries(A) for A in matrices], 40)
    for wrong in (rhs[:2], rhs[:, :39], rhs.reshape(-1)):
        with pytest.raises(ValueError, match="shape"):
            factor.solve(wrong)
    with pytest.raises(ValueError, match="shape"):
        factor.box(1).solve(rhs)


def test_in_place_solve_rejects_a_buffer_lapack_cannot_take():
    # LAPACK solves the buffer at its address, so a strided, Fortran-ordered,
    # float32 or read-only buffer of the right shape is refused before any
    # LAPACK call, and left as it was
    matrices, rhs = _band_stack(7, 3, 40, 3)
    factor = fem.BandFactor([_band_entries(A) for A in matrices], 40)
    calls = []
    factor.substitute = lambda *args: calls.append(args)
    read_only = rhs.copy()
    read_only.flags.writeable = False
    for wrong in (np.repeat(rhs, 2, axis=1)[:, ::2], np.asfortranarray(rhs),
                  rhs.astype(np.float32), read_only):
        assert wrong.shape == rhs.shape
        before = wrong.copy()
        with pytest.raises(ValueError, match="C-contiguous float64"):
            factor.solve(wrong)
        assert np.array_equal(wrong, before)
    # the free loads of a factored stack reach the band solve as they are
    system = fem.DirichletSystem([(sp.csr_matrix(A), [], np.zeros((40, 2)))
                                  for A in matrices], direct=True)
    system.factor.substitute = factor.substitute
    with pytest.raises(ValueError, match="C-contiguous float64"):
        system.solve(np.repeat(rhs.reshape(-1), 2)[::2])
    with pytest.raises(ValueError, match="free load of shape"):
        system.solve(rhs.reshape(-1)[1:])
    assert calls == []
    # a right buffer goes through, one call per matrix
    factor.solve(rhs.copy())
    assert len(calls) == 3


def test_lapack_names_the_spellings_it_tried(monkeypatch):
    # a library that exports nothing
    monkeypatch.setattr(fem, "_ROUTINES", None)
    monkeypatch.setattr(fem.ctypes, "CDLL", lambda path: object())
    with pytest.raises(ImportError) as err:
        fem._lapack()
    assert str(err.value).split(" of ")[1].split(", ") == [
        "scipy_dpbtrf_64_", "scipy_dpbtrs_64_", "dpbtrf_64_", "dpbtrs_64_",
        "dpbtrf_", "dpbtrs_"]


def _equal_row_pairs(n):
    # positive diagonal, singular Schur complement
    return sp.block_diag([np.ones((2, 2))] * (n // 2), format="csr"), []


def _indefinite_pairs(n):
    # positive diagonal, eigenvalues -1 and 3 in every pair
    block = np.array([[1.0, 2.0], [2.0, 1.0]])
    return sp.block_diag([block] * (n // 2), format="csr"), []


def _negative_reaction():
    # -laplace u - 50 u: positive diagonal, but 50 exceeds the smallest
    # Dirichlet eigenvalue of the Laplacian on [0, 1] x [0, 2] (about 12.3)
    m = mesh.build_mesh(14, 28)
    return fem.assemble(m, 1.0, -50.0), np.flatnonzero(m.boundary_mask)


@pytest.mark.parametrize("case", [
    lambda: _equal_row_pairs(2), lambda: _equal_row_pairs(100),
    lambda: _indefinite_pairs(2), lambda: _indefinite_pairs(100),
    _negative_reaction,
], ids=["singular-2", "singular-100", "indefinite-2", "indefinite-100",
        "negative-reaction"])
def test_factor_rejects_non_positive_definite(case):
    A, fixed = case()
    with pytest.raises(ValueError, match="not positive definite"):
        fem.DirichletSystem([(A, fixed, np.zeros((A.shape[0], 2)))],
                            direct=True)


@pytest.fixture(scope="module")
def factored_cases():
    m14 = mesh.build_mesh(14, 28)
    d14 = mesh.build_subdomains(m14)
    source = elliptic.SourceOperators(m14, d14, lambda x, y: (x + y) / 100,
                                      1.0)
    flux = elliptic.FluxOperators(m14, d14, 1.0, 1.0)
    K_source = scipy_csr(fem.assemble(m14, lambda x, y: (x + y) / 100, 1.0))
    K_flux = scipy_csr(fem.assemble(m14, 1.0, 1.0))
    m7 = mesh.build_mesh(7, 14)
    grid = parabolic.TimeGrid(T=4.0, nt=12, sigma=4.0)
    S = scipy_csr(fem.crank_nicolson(fem.assemble(m7, 1.0, 0.0),
                                     fem.lumped_mass(m7), grid.dt))
    # the elliptic systems, factored: the operators' own fixed sets
    box_s, box_f = source.locals[0], flux.locals[1]
    K_box_s = K_source[np.ix_(box_s.nodes, box_s.nodes)]
    K_box_f = K_flux[np.ix_(box_f.nodes, box_f.nodes)]
    return {
        "source-box": (fem.DirichletSystem([(K_box_s, box_s.fixed,
                                             m14.nodes[box_s.nodes])],
                                           direct=True), K_box_s),
        "flux-interface-closure-box": (
            fem.DirichletSystem([(K_box_f, box_f.fixed,
                                  m14.nodes[box_f.nodes])], direct=True),
            K_box_f),
        "flux-all-neumann-global": (
            fem.DirichletSystem([(K_flux, flux.global_system.fixed,
                                  m14.nodes)], direct=True), K_flux),
        "heat-S-global": (
            fem.DirichletSystem([(S, np.flatnonzero(m7.boundary_mask),
                                  m7.nodes)], direct=True), S),
    }


@pytest.mark.parametrize("name", ["source-box", "flux-interface-closure-box",
                                  "flux-all-neumann-global", "heat-S-global"])
def test_factored_solve_matches_pcg(factored_cases, name):
    system, K = factored_cases[name]
    assert system.factor is not None
    free = system.free
    K_ff = K.tocsr()[np.ix_(free, free)]
    rhs = np.random.default_rng(7).standard_normal(system.n)
    x_pcg, relres, _ = fem.pcg(K_ff, rhs[free], jacobi(K_ff), tol=1e-12)
    assert relres <= 1e-12
    x = system.solution(rhs)
    assert np.all(x[system.fixed] == 0.0)
    assert np.abs(x[free] - x_pcg).max() <= 1e-9 * np.abs(x_pcg).max()


def test_pcg_passes_non_finite_input_through():
    A = sp.diags([2.0, 3.0]).tocsr()
    x, relres, iterations = fem.pcg(A, np.array([np.inf, 1.0]), jacobi(A))
    assert not np.all(np.isfinite(x))
    assert iterations == 0 and not np.isfinite(relres)


@pytest.mark.parametrize("n", [100, 4096])
def test_dirichlet_solve_passes_non_finite_input_through(n):
    # 100 free nodes are factored, 4096 solved by multilevel PCG
    side = int(np.ceil(np.sqrt(n)))
    coords = np.column_stack([np.arange(n) % side, np.arange(n) // side])
    K = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1], format="csr")
    system = fem.DirichletSystem([(K, [], coords.astype(float))], direct=True)
    assert (system.factor is None) == (n >= 4096)
    rhs = np.ones(n)
    rhs[n // 2] = np.nan
    assert not np.all(np.isfinite(system.solve(rhs)))
    # the failed solve leaves no warm start for the next one
    assert np.all(np.isfinite(system.solve(np.ones(n))))


def test_warm_start_slots(pcg_iterations):
    # a 5.3 box at nx=28: PCG starts from the last solution with given
    # fixed values or from the last with zero ones, whichever the call has,
    # so repeating a traced solve after a zero-trace one takes 0 iterations
    spec = problems.example_catalog()["5.3"]
    m = mesh.build_mesh(28, 56)
    ops = elliptic.SourceOperators(m, mesh.build_subdomains(m),
                                   spec.diffusion, spec.reaction)
    loc = ops.locals[0]
    assert ops.box_systems[0].factor is None
    rng = np.random.default_rng(4)
    f = rng.standard_normal(loc.nodes.size)
    trace = rng.standard_normal(loc.trace_local.size)
    first = ops.forward_local(0, f, trace)
    ops.forward_local(0, f)
    again = ops.forward_local(0, f, trace)
    assert (pcg_iterations[0] > 0 and pcg_iterations[1] > 0
            and pcg_iterations[2] == 0)
    assert np.array_equal(again, first)
