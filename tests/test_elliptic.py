import numpy as np
import pytest

from ddinverse import elliptic, fem


@pytest.fixture(scope="module")
def source_ops(mesh7, decomp7):
    return elliptic.SourceOperators(mesh7, decomp7,
                                    lambda x, y: (x + y) / 100, 1.0)


@pytest.fixture(scope="module")
def flux_ops(mesh7, decomp7):
    return elliptic.FluxOperators(mesh7, decomp7, 1.0, 1.0)


def test_flux_operator_rejects_zero_reaction(mesh7, decomp7):
    # -div grad u = f with Neumann data everywhere determines u only up to
    # a constant; CG on it breaks down instead of naming the cause
    with pytest.raises(ValueError, match="reaction coefficient is zero"):
        elliptic.FluxOperators(mesh7, decomp7, 1.0, 0.0)
    # a reaction term on part of the domain makes the operator definite
    ops = elliptic.FluxOperators(mesh7, decomp7, 1.0,
                                 lambda x, y: 1.0 * (x > 0.5))
    h = np.zeros(mesh7.n_nodes)
    h[ops.gamma1_nodes] = 1.0
    assert np.all(np.isfinite(ops.forward_global(h)))


def _rand_field(mesh, seed, interior_only=False):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mesh.n_nodes)
    if interior_only:
        v[mesh.boundary_mask] = 0.0
    return v


def test_u0_vanishes_for_zero_data(mesh7, decomp7, flux_ops):
    ops = elliptic.SourceOperators(mesh7, decomp7, 1.0, 1.0)
    assert np.all(ops.solve_u0() == 0.0)
    assert np.all(flux_ops.solve_u0() == 0.0)


def test_u0_residual_for_unit_dirichlet(mesh7, decomp7):
    ops = elliptic.SourceOperators(mesh7, decomp7, 1.0, 1.0,
                                   boundary_data=lambda x, y: 1.0)
    u0 = ops.solve_u0()
    assert np.allclose(u0[ops.boundary_nodes], 1.0)
    K = fem.assemble(mesh7, 1.0, 1.0)
    res = (K @ u0)[~mesh7.boundary_mask]
    # interior equations hold up to the solver tolerance on an O(1) load
    assert np.abs(res).max() <= 1e-8


def test_affine_split(mesh7, decomp7):
    # full solve with boundary data equals the zero-data solve plus the
    # homogeneous-boundary forward map
    ops = elliptic.SourceOperators(mesh7, decomp7, 1.0, 1.0,
                                   boundary_data=lambda x, y: x + 0.5 * y)
    f = _rand_field(mesh7, 21)
    u0 = ops.solve_u0()
    U = ops.forward_global(f, warm=None)
    K = fem.assemble(mesh7, 1.0, 1.0)
    bnd = np.flatnonzero(mesh7.boundary_mask)
    xb, yb = mesh7.nodes[bnd].T
    direct = fem.DirichletSystem(K, bnd, mesh7.nodes).solve(
        ops.lumped * f, xb + 0.5 * yb, tol=1e-12)
    assert np.abs(direct - (u0 + U)).max() < 1e-8


def test_forward_source_zero_and_linear(source_ops, mesh7):
    assert np.all(source_ops.forward_global(np.zeros(mesh7.n_nodes),
                                            warm=None) == 0.0)
    f1 = _rand_field(mesh7, 1)
    f2 = _rand_field(mesh7, 2)
    lhs = source_ops.forward_global(f1 + f2, warm=None)
    rhs = (source_ops.forward_global(f1, warm=None)
           + source_ops.forward_global(f2, warm=None))
    assert np.abs(lhs - rhs).max() < 1e-9


def test_forward_source_self_adjoint(source_ops, mesh7):
    for seed in range(5):
        f = _rand_field(mesh7, 100 + seed)
        w = _rand_field(mesh7, 200 + seed)
        Uf = source_ops.forward_global(f, warm=None)
        Uw = source_ops.forward_global(w, warm=None)
        lhs = fem.inner_product(Uf, w, source_ops.lumped)
        rhs = fem.inner_product(f, Uw, source_ops.lumped)
        scale = (np.sqrt(fem.inner_product(f, f, source_ops.lumped))
                 * np.sqrt(fem.inner_product(w, w, source_ops.lumped)))
        assert abs(lhs - rhs) <= 1e-9 * scale


def test_local_source_split_and_zero(source_ops, mesh7, decomp7):
    assert np.all(source_ops.forward_local(0, np.zeros(mesh7.n_nodes)) == 0.0)
    rng = np.random.default_rng(7)
    for i in range(4):
        f = _rand_field(mesh7, 300 + i)
        p = rng.standard_normal(decomp7.interfaces[i].size)
        both = source_ops.forward_local(i, f, p)
        split = (source_ops.forward_local(i, f, None)
                 + source_ops.forward_local(i, np.zeros(mesh7.n_nodes), p))
        assert np.abs(both - split).max() < 1e-9


def test_local_source_consistency(source_ops, mesh7, decomp7):
    f = _rand_field(mesh7, 17)
    U = source_ops.forward_global(f, warm=None)
    for i in range(4):
        trace = U[decomp7.interfaces[i]]
        local = source_ops.forward_local(i, f, trace)
        box = decomp7.masks[i]
        assert np.abs(local[box] - U[box]).max() < 1e-9


def test_local_source_self_adjoint(source_ops, mesh7, decomp7):
    for i in range(4):
        loc = source_ops.locals[i]
        w_box = loc.embed(loc.lumped)
        for seed in range(5):
            f = _rand_field(mesh7, 400 + seed)
            w = _rand_field(mesh7, 500 + seed)
            Uf = source_ops.forward_local(i, f, None)
            Uw = source_ops.forward_local(i, w, None)
            lhs = fem.inner_product(Uf, w, w_box)
            rhs = fem.inner_product(f, Uw, w_box)
            scale = (np.sqrt(fem.inner_product(f, f, w_box))
                     * np.sqrt(fem.inner_product(w, w, w_box)) + 1e-30)
            assert abs(lhs - rhs) <= 1e-9 * scale


def _rand_flux(ops, seed):
    rng = np.random.default_rng(seed)
    h = np.zeros(ops.mesh.n_nodes)
    h[ops.gamma1_nodes] = rng.standard_normal(ops.gamma1_nodes.size)
    return h


def _rand_gamma0(ops, seed):
    rng = np.random.default_rng(seed)
    w = np.zeros(ops.mesh.n_nodes)
    w[ops.gamma0_nodes] = rng.standard_normal(ops.gamma0_nodes.size)
    return w


def test_forward_flux_zero_and_linear(flux_ops, mesh7):
    assert np.all(flux_ops.forward_global(np.zeros(mesh7.n_nodes),
                                          warm=None) == 0.0)
    h1 = _rand_flux(flux_ops, 1)
    h2 = _rand_flux(flux_ops, 2)
    lhs = flux_ops.forward_global(h1 + h2, warm=None)
    rhs = (flux_ops.forward_global(h1, warm=None)
           + flux_ops.forward_global(h2, warm=None))
    assert np.abs(lhs - rhs).max() < 1e-9


def test_adjoint_flux_zero_and_linear(flux_ops, mesh7):
    assert np.all(flux_ops.adjoint_global(np.zeros(mesh7.n_nodes),
                                          warm=None) == 0.0)
    w1 = _rand_gamma0(flux_ops, 3)
    w2 = _rand_gamma0(flux_ops, 4)
    lhs = flux_ops.adjoint_global(w1 + w2, warm=None)
    rhs = (flux_ops.adjoint_global(w1, warm=None)
           + flux_ops.adjoint_global(w2, warm=None))
    assert np.abs(lhs - rhs).max() < 1e-9


def test_flux_duality(flux_ops):
    for seed in range(5):
        h = _rand_flux(flux_ops, 600 + seed)
        w = _rand_gamma0(flux_ops, 700 + seed)
        Uh = flux_ops.forward_global(h, warm=None)
        Uw = flux_ops.adjoint_volume(w, warm=None)
        lhs = fem.inner_product(Uh, w, flux_ops.bmass0)
        rhs = fem.inner_product(h, Uw, flux_ops.bmass1)
        scale = (np.sqrt(fem.inner_product(h, h, flux_ops.bmass1))
                 * np.sqrt(fem.inner_product(w, w, flux_ops.bmass0)))
        assert abs(lhs - rhs) <= 1e-9 * scale


def test_local_flux_zero(flux_ops, mesh7):
    zero = np.zeros(mesh7.n_nodes)
    for i in range(4):
        assert np.all(flux_ops.forward_local(i, zero) == 0.0)
        assert np.all(flux_ops.adjoint_local(i, zero) == 0.0)


def test_local_flux_duality_box2(flux_ops):
    i = 1
    loc = flux_ops.locals[i]
    for seed in range(5):
        h = _rand_flux(flux_ops, 800 + seed)
        w = _rand_gamma0(flux_ops, 900 + seed)
        lf = flux_ops.forward_local(i, h, None)[loc.nodes]
        la = flux_ops.adjoint_local(i, w, None)[loc.nodes]
        lhs = fem.inner_product(lf, w[loc.nodes], flux_ops.bmass0_loc[i])
        rhs = fem.inner_product(h[loc.nodes], la, flux_ops.bmass1_loc[i])
        hn = np.sqrt(fem.inner_product(h[loc.nodes], h[loc.nodes],
                                       flux_ops.bmass1_loc[i]))
        wn = np.sqrt(fem.inner_product(w[loc.nodes], w[loc.nodes],
                                       flux_ops.bmass0_loc[i]))
        assert abs(lhs - rhs) <= 1e-9 * (hn * wn + 1e-30)


def test_local_flux_consistency(flux_ops, decomp7):
    h = _rand_flux(flux_ops, 23)
    U = flux_ops.forward_global(h, warm=None)
    for i in range(4):
        trace = U[decomp7.interface_closures[i]]
        local = flux_ops.forward_local(i, h, trace)
        box = decomp7.masks[i]
        assert np.abs(local[box] - U[box]).max() < 1e-9


def test_local_flux_adjoint_consistency_with_trace(flux_ops, decomp7):
    # the restricted global adjoint solves the local adjoint system with its
    # own inner-boundary values imposed
    w = _rand_gamma0(flux_ops, 41)
    V = flux_ops.adjoint_volume(w, warm=None)
    for i in range(4):
        trace = V[decomp7.interface_closures[i]]
        local = flux_ops.adjoint_local(i, w, trace)
        box = decomp7.masks[i]
        assert np.abs(local[box] - V[box]).max() < 1e-9


def test_flux_support_free_boxes_solve_trace_only(flux_ops, decomp7):
    # boxes away from the flux side still deliver local solutions from traces
    h = _rand_flux(flux_ops, 31)
    U = flux_ops.forward_global(h, warm=None)
    local = flux_ops.forward_local(0, h, U[decomp7.interface_closures[0]])
    assert np.abs(local[decomp7.masks[0]] - U[decomp7.masks[0]]).max() < 1e-9
