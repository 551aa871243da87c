import numpy as np
import pytest
import scipy.sparse as sp

from ddinverse import fem, mesh, problems


def test_constants_in_stiffness_kernel(mesh7):
    K, _ = fem.assemble(mesh7, 1.0, 0.0)
    ones = np.ones(mesh7.n_nodes)
    assert np.abs(K @ ones).max() < 1e-13


def test_mass_integrates_one_on_single_cell():
    m = mesh.build_mesh(1, 1)
    K, M = fem.assemble(m, 1.0, 1.0)
    assert abs(M.sum() - 2.0) < 1e-14
    # row sums of the consistent mass are the lumped weights
    rows = np.asarray(M.sum(axis=1)).ravel()
    assert np.allclose(rows, fem.lumped_mass(m))


def test_bitwise_symmetry(mesh7):
    K, _ = fem.assemble(mesh7, lambda x, y: (x + y) / 100, 1.0)
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
    K, _ = fem.assemble(mesh7, 1.0, 1.0)
    u, _, _ = fem.pcg(K, fem.lumped_mass(mesh7), tol=1e-12)
    assert np.abs(u - 1.0).max() < 1e-9


def test_solve_zero_rhs(mesh7):
    K, _ = fem.assemble(mesh7, 1.0, 1.0)
    bnd = np.flatnonzero(mesh7.boundary_mask)
    system = fem.DirichletSystem(K, bnd, mesh7.nodes)
    u = system.solve(np.zeros(mesh7.n_nodes), 0.0)
    assert np.all(u == 0.0)


def test_manufactured_convergence_order():
    lam = np.pi ** 2 * 1.25
    errors = []
    for nx in (7, 14, 28):
        m = mesh.build_mesh(nx, 2 * nx)
        K, _ = fem.assemble(m, 1.0, 1.0)
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
    K, M = fem.assemble(mesh7, 1.0, 0.0)
    x, y = mesh7.nodes.T
    assert abs(x @ (K @ x) - 2.0) < 1e-12   # integral of |grad x|^2 = |domain|
    assert abs(x @ (K @ y)) < 1e-12         # orthogonal gradients
    _, M = fem.assemble(mesh7, 1.0, 1.0)
    assert abs(x @ (M @ x) - 2 / 3) < 1e-12  # integral of x^2 over the strip


def test_inner_product_basics(mesh7):
    _, M = fem.assemble(mesh7, 1.0, 1.0)
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
    _, M = fem.assemble(m, 1.0, 1.0)
    h2 = (1 / 28) ** 2
    assert abs(fem.inner_product(v, np.ones(m.n_nodes), M)) <= 10 * h2


def test_inner_product_rejects_mismatch(mesh7):
    _, M = fem.assemble(mesh7, 1.0, 1.0)
    with pytest.raises(ValueError):
        fem.inner_product(np.ones(3), np.ones(3), M)
    with pytest.raises(ValueError):
        fem.inner_product(np.ones(mesh7.n_nodes), np.ones(4), M)


def test_spd_after_elimination(mesh7):
    K, _ = fem.assemble(mesh7, lambda x, y: (x + y) / 100, 1.0)
    system = fem.DirichletSystem(K, np.flatnonzero(mesh7.boundary_mask),
                                 mesh7.nodes)
    rng = np.random.default_rng(11)
    for _ in range(10):
        v = rng.standard_normal(system.free.size)
        assert v @ (system.K_ff @ v) > 0


def test_solver_residual_contract(mesh7):
    K, _ = fem.assemble(mesh7, 1.0, 1.0)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(mesh7.n_nodes)
    x, relres, _ = fem.pcg(K.tocsr(), b, tol=1e-10)
    assert relres <= 1e-10
    assert np.linalg.norm(K @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_nonconvergence_raises(mesh7):
    K, _ = fem.assemble(mesh7, 1.0, 1.0)
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


@pytest.mark.parametrize("experiment", ["5.3", "5.1"])
def test_two_level_pcg_matches_jacobi(experiment):
    # the global system at nx=56: 6105 free nodes with Dirichlet walls
    # (source) or 6441 with none (all-Neumann flux operator)
    spec = problems.example_catalog()[experiment]
    m = mesh.build_mesh(56, 112)
    K, _ = fem.assemble(m, spec.diffusion, spec.reaction)
    fixed = (np.flatnonzero(m.boundary_mask) if spec.kind == "source"
             else np.array([], dtype=np.int64))
    system = fem.DirichletSystem(K, fixed, m.nodes)
    assert system.coarse is not None
    b = fem.lumped_mass(m)[system.free] * np.random.default_rng(3).uniform(
        -1.0, 1.0, system.free.size)
    x_jac, _, it_jac = fem.pcg(system.K_ff, b, inv_diag=system.inv_diag)
    x_two, relres, it_two = fem.pcg(system.K_ff, b, inv_diag=system.inv_diag,
                                    coarse=system.coarse)
    assert relres <= 1e-10
    assert np.abs(x_two - x_jac).max() <= 1e-8 * np.abs(x_jac).max()
    assert 2 * it_two <= it_jac


def test_coarse_space_size_rule():
    # 64 aggregates of 64 nodes is the smallest system with a coarse space
    side = np.arange(64.0)
    coords = np.column_stack([np.repeat(side, 64), np.tile(side, 64)])
    K = sp.identity(4096, format="csr")
    system = fem.DirichletSystem(K, [], coords)
    agg, coarse_inv = system.coarse
    assert np.bincount(agg).tolist() == [64] * 64
    assert coarse_inv.shape == (64, 64)
    assert fem.DirichletSystem(K, [0], coords).coarse is None


def test_indefinite_coarse_operator_raises():
    # c = -5000 keeps every diagonal entry positive (4 - 5000 h^2 / 2 > 0 at
    # h = 1/56) while the aggregated operator is dominated by the negative
    # reaction mass of each 8 x 8 aggregate
    m = mesh.build_mesh(56, 112)
    K, _ = fem.assemble(m, 1.0, -5000.0)
    with pytest.raises(ValueError, match="coarse operator"):
        fem.DirichletSystem(K, np.flatnonzero(m.boundary_mask), m.nodes)
