import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import consistent_mass
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
    K = fem.assemble(mesh7, lambda x, y: (x + y) / 100, 1.0)
    assert np.abs(K - K.T).max() == 0.0


def test_rejects_nonpositive_diffusion(mesh7):
    with pytest.raises(ValueError):
        fem.assemble(mesh7, -1.0, 1.0)
    with pytest.raises(ValueError):
        fem.assemble(mesh7, lambda x, y: x - 10.0, 1.0)


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
    u, _, _ = fem.pcg(K, fem.lumped_mass(mesh7), tol=1e-12)
    assert np.abs(u - 1.0).max() < 1e-9


def test_solve_zero_rhs(mesh7):
    K = fem.assemble(mesh7, 1.0, 1.0)
    bnd = np.flatnonzero(mesh7.boundary_mask)
    system = fem.DirichletSystem(K, bnd, mesh7.nodes)
    u = system.solve(np.zeros(mesh7.n_nodes), 0.0)
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
        u = fem.DirichletSystem(K, bnd, m.nodes).solve(rhs, 0.0, tol=1e-12)
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
    system = fem.DirichletSystem(K, np.flatnonzero(mesh7.boundary_mask),
                                 mesh7.nodes)
    rng = np.random.default_rng(11)
    for _ in range(10):
        v = rng.standard_normal(system.free.size)
        assert v @ (system.K_ff @ v) > 0


def test_solver_residual_contract(mesh7):
    K = fem.assemble(mesh7, 1.0, 1.0)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(mesh7.n_nodes)
    x, relres, _ = fem.pcg(K.tocsr(), b, tol=1e-10)
    assert relres <= 1e-10
    assert np.linalg.norm(K @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_nonconvergence_raises(mesh7):
    K = fem.assemble(mesh7, 1.0, 1.0)
    b = np.ones(mesh7.n_nodes)
    with pytest.raises(fem.SolverError) as err:
        fem.pcg(K.tocsr(), b, tol=1e-14, max_iter=2)
    assert err.value.residual > 0


def test_pcg_breakdown_raises():
    # indefinite: the first search direction has p'Ap = 1 - 1 = 0
    A = sp.diags([1.0, -1.0]).tocsr()
    with pytest.raises(fem.SolverError, match="not positive definite") as err:
        fem.pcg(A, np.ones(2))
    assert err.value.iterations == 0


def _global_system(experiment, nx):
    """The mesh and the global system of an experiment: Dirichlet walls for
    a source experiment, none for a flux one (all-Neumann operator)."""
    spec = problems.example_catalog()[experiment]
    m = mesh.build_mesh(nx, 2 * nx)
    K = fem.assemble(m, spec.diffusion, spec.reaction)
    fixed = (np.flatnonzero(m.boundary_mask) if spec.kind == "source"
             else np.array([], dtype=np.int64))
    return m, fem.DirichletSystem(K, fixed, m.nodes)


def _random_load(m, system, seed=3):
    return fem.lumped_mass(m)[system.free] * np.random.default_rng(
        seed).uniform(-1.0, 1.0, system.free.size)


@pytest.mark.parametrize("experiment", ["5.3", "5.1"])
def test_two_level_pcg_matches_jacobi(experiment):
    # the global system at nx=56: 6105 free nodes with Dirichlet walls
    # (source) or 6441 with none (all-Neumann flux operator)
    m, system = _global_system(experiment, 56)
    assert system.multilevel is not None
    b = _random_load(m, system)
    x_jac, _, it_jac = fem.pcg(system.K_ff, b)
    x_two, relres, it_two = fem.pcg(system.K_ff, b,
                                    multilevel=system.multilevel)
    assert relres <= 1e-10
    assert np.abs(x_two - x_jac).max() <= 1e-8 * np.abs(x_jac).max()
    assert 2 * it_two <= it_jac


def test_coarse_space_size_rule():
    # 4096 free nodes is the smallest system with the multilevel hierarchy;
    # on a 64 x 64 grid each level bins about 3 x 3 nodes (21 x 21 bins,
    # then 7 x 7) until at most 200 unknowns are left
    side = np.arange(64.0)
    coords = np.column_stack([np.repeat(side, 64), np.tile(side, 64)])
    K = sp.identity(4096, format="csr")
    system = fem.DirichletSystem(K, [], coords, direct=True)
    shapes = [P.shape for _, P, _, _ in system.multilevel.levels]
    assert shapes == [(4096, 441), (441, 49)]
    assert system.multilevel.coarsest_inv.shape == (49, 49)
    assert system.factor is None and system.inv_diag is None
    x = system.solve(np.arange(4096.0))
    assert np.allclose(x, np.arange(4096.0), rtol=1e-10, atol=1e-10)
    # one node fewer: factored when a direct solve is asked for, plain
    # Jacobi PCG otherwise
    smaller = fem.DirichletSystem(K, [0], coords, direct=True)
    assert smaller.multilevel is None and smaller.K_ff is None
    assert smaller.factor is not None
    x = smaller.solve(np.arange(4096.0), np.array([5.0]))
    assert x[0] == 5.0 and np.array_equal(x[1:], np.arange(1.0, 4096.0))
    iterative = fem.DirichletSystem(K, [0], coords)
    assert iterative.factor is None and iterative.multilevel is None
    assert iterative.K_ff is not None


@pytest.mark.parametrize("nx, ny, factored", [(630, 7, False), (7, 630, True)])
def test_band_budget_rule(nx, ny, factored):
    # both meshes have 3774 free nodes; numbered row by row, the wide one
    # has a bandwidth of about 630, beyond the factor's budget, and is
    # solved by Jacobi PCG, the tall one a bandwidth of about 7
    m = mesh.build_mesh(nx, ny)
    K = fem.assemble(m, 1.0, 1.0)
    system = fem.DirichletSystem(K, np.flatnonzero(m.boundary_mask),
                                 m.nodes, direct=True)
    assert system.free.size == 3774
    assert (system.factor is not None) == factored
    assert (system.K_ff is None) == factored and system.multilevel is None
    x = system.solve(np.ones(m.n_nodes))
    residual = (K @ x - np.ones(m.n_nodes))[system.free]
    assert np.abs(residual).max() <= 1e-8


def test_indefinite_coarse_operator_raises():
    # c = -5000 keeps every diagonal entry positive (4 - 5000 h^2 / 2 > 0 at
    # h = 1/56) while the first coarse operator, over aggregates of about
    # 3 x 3 nodes, is dominated by the negative reaction mass
    m = mesh.build_mesh(56, 112)
    K = fem.assemble(m, 1.0, -5000.0)
    with pytest.raises(ValueError, match="coarse operator"):
        fem.DirichletSystem(K, np.flatnonzero(m.boundary_mask), m.nodes)


@pytest.mark.parametrize("case", ["box-n112", "global-n56"])
def test_v_cycle_is_symmetric_and_positive(case):
    # PCG needs a symmetric positive definite preconditioner: the V-cycle
    # smooths with the same damped Jacobi before and after the coarse
    # correction and restricts with the transpose of the prolongation
    if case == "box-n112":
        spec = problems.example_catalog()["5.3"]
        m = mesh.build_mesh(112, 224)
        K = fem.assemble(m, spec.diffusion, spec.reaction)
        system = fem.BoxSystem(m, mesh.build_subdomains(m), 0, K).system
    else:
        _, system = _global_system("5.3", 56)
    rng = np.random.default_rng(5)
    for _ in range(3):
        r1, r2 = rng.standard_normal((2, system.free.size))
        z1 = system.multilevel.apply(r1)
        z2 = system.multilevel.apply(r2)
        a, b = r1 @ z2, r2 @ z1
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))
        assert r1 @ z1 > 0 and r2 @ z2 > 0


def test_multilevel_iterations_do_not_grow_with_the_mesh():
    # the 5.3 global system at nx=56 and nx=112 (6105 and 24,753 unknowns);
    # Jacobi PCG needs about twice as many iterations on the finer mesh
    counts = []
    for nx in (56, 112):
        m, system = _global_system("5.3", nx)
        _, relres, it = fem.pcg(system.K_ff, _random_load(m, system),
                                multilevel=system.multilevel)
        assert relres <= 1e-10
        counts.append(it)
    assert counts[1] <= counts[0] + 5


@pytest.mark.filterwarnings("error")  # e.g. 0 / 0 in the binning
@pytest.mark.parametrize("case", ["strip", "line"])
def test_multilevel_on_thin_and_collinear_nodes(case):
    if case == "strip":
        # 4201 x 2 nodes and the all-Neumann operator
        m = mesh.build_mesh(4200, 1)
        K, coords = fem.assemble(m, 1.0, 1.0), m.nodes
    else:
        # a 1-D operator on 5000 nodes on a line: no level has extent
        # across it
        n = 5000
        K = sp.diags([-1.0, 2.001, -1.0], [-1, 0, 1], shape=(n, n)).tocsr()
        coords = np.column_stack([np.linspace(0.0, 1.0, n), np.full(n, 0.5)])
    system = fem.DirichletSystem(K, [], coords)
    assert system.multilevel is not None
    b = np.cos(3.0 * coords[:, 0])
    x, relres, _ = fem.pcg(system.K_ff, b, multilevel=system.multilevel)
    assert relres <= 1e-10 and np.all(np.isfinite(x))
    # the strip's cells of 1/4200 by 2 spread K's entries over eight orders
    # of magnitude, so the true residual stops near 1e-8 (with Jacobi too)
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
@example(_banded_case(10, 3))           # n not a multiple of the block size
@example(_banded_case(157, 4, 1))       # several levels, ragged last block
@example(_banded_case(200, 0, 2))       # a diagonal matrix
@example(_banded_case(120, 5, 3, fixed=[0, 7, 119]))
@example(_banded_case(150, fem.DENSE_TAIL + 2, 4))  # blocks above the tail
def test_factored_solve_matches_dense(case):
    A, rhs, vals, fixed = case
    n = A.shape[0]
    system = fem.DirichletSystem(sp.csr_matrix(A), fixed, np.zeros((n, 2)),
                                 direct=True)
    assert system.factor is not None
    x = system.solve(rhs, vals if fixed.size else None)
    free = system.free
    ref = np.linalg.solve(A[np.ix_(free, free)],
                          rhs[free] - A[np.ix_(free, fixed)] @ vals)
    assert np.array_equal(x[fixed], vals)
    assert (np.abs(x[free] - ref).max(initial=0.0)
            <= 1e-12 * max(np.abs(ref).max(initial=0.0), 1.0))


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
        fem.DirichletSystem(A, fixed, np.zeros((A.shape[0], 2)), direct=True)


@pytest.fixture(scope="module")
def factored_cases():
    m14 = mesh.build_mesh(14, 28)
    d14 = mesh.build_subdomains(m14)
    source = elliptic.SourceOperators(m14, d14, lambda x, y: (x + y) / 100,
                                      1.0)
    flux = elliptic.FluxOperators(m14, d14, 1.0, 1.0)
    K_source = fem.assemble(m14, lambda x, y: (x + y) / 100, 1.0)
    K_flux = fem.assemble(m14, 1.0, 1.0)
    m7 = mesh.build_mesh(7, 14)
    grid = parabolic.TimeGrid(T=4.0, nt=12, sigma=4.0)
    heat = parabolic.HeatOperators(m7, mesh.build_subdomains(m7), 1.0, grid)
    S, _ = fem.crank_nicolson(fem.assemble(m7, 1.0, 0.0), heat.lumped, grid.dt)
    # the elliptic systems, factored: the operators' own fixed sets
    box_s, box_f = source.locals[0], flux.locals[1]
    K_box_s = K_source[np.ix_(box_s.nodes, box_s.nodes)]
    K_box_f = K_flux[np.ix_(box_f.nodes, box_f.nodes)]
    return {
        "source-box": (fem.DirichletSystem(K_box_s, box_s.system.fixed,
                                           m14.nodes[box_s.nodes],
                                           direct=True), K_box_s),
        "flux-interface-closure-box": (
            fem.DirichletSystem(K_box_f, box_f.system.fixed,
                                m14.nodes[box_f.nodes], direct=True), K_box_f),
        "flux-all-neumann-global": (
            fem.DirichletSystem(K_flux, flux.global_system.fixed, m14.nodes,
                                direct=True), K_flux),
        "heat-S-global": (heat.global_system, S),
    }


@pytest.mark.parametrize("name", ["source-box", "flux-interface-closure-box",
                                  "flux-all-neumann-global", "heat-S-global"])
def test_factored_solve_matches_pcg(factored_cases, name):
    system, K = factored_cases[name]
    assert system.factor is not None
    free = system.free
    K_ff = K.tocsr()[np.ix_(free, free)]
    rhs = np.random.default_rng(7).standard_normal(system.n)
    x_pcg, relres, _ = fem.pcg(K_ff, rhs[free], tol=1e-12)
    assert relres <= 1e-12
    x = system.solve(rhs)
    assert np.all(x[system.fixed] == 0.0)
    assert np.abs(x[free] - x_pcg).max() <= 1e-9 * np.abs(x_pcg).max()


def test_pcg_passes_non_finite_input_through():
    x, relres, iterations = fem.pcg(sp.diags([2.0, 3.0]).tocsr(),
                                    np.array([np.inf, 1.0]))
    assert not np.all(np.isfinite(x))
    assert iterations == 0 and not np.isfinite(relres)


@pytest.mark.parametrize("n", [100, 4096])
def test_dirichlet_solve_passes_non_finite_input_through(n):
    # 100 free nodes are factored, 4096 solved by two-level PCG
    side = int(np.ceil(np.sqrt(n)))
    coords = np.column_stack([np.arange(n) % side, np.arange(n) // side])
    K = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1], format="csr")
    system = fem.DirichletSystem(K, [], coords.astype(float), direct=True)
    assert (system.factor is None) == (n >= 4096)
    rhs = np.ones(n)
    rhs[n // 2] = np.nan
    assert not np.all(np.isfinite(system.solve(rhs)))
