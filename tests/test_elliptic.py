from fractions import Fraction

import numpy as np
import pytest

from conftest import gamma0_nodes
from ddinverse import elliptic, fem, mesh


@pytest.fixture(scope="module")
def source_ops(mesh7, decomp7):
    return elliptic.SourceOperators(mesh7, decomp7,
                                    lambda x, y: (x + y) / 100, 1.0)


@pytest.fixture(scope="module")
def flux_ops(mesh7, decomp7):
    return elliptic.FluxOperators(mesh7, decomp7, 1.0, 1.0)


SOLVES = {"forward_global", "forward_local", "adjoint_local", "forward_boxes",
          "back_boxes", "misfit"}


def test_flux_takes_the_source_solves_and_supplies_only_data():
    # one solve path: the benchmark wraps each solve method by name in
    # `vars(SourceOperators)`, and flux reaches the wrapped ones by
    # inheritance; its own body holds its data and the two global adjoints
    # that criterion 5 checks the local maps against
    assert issubclass(elliptic.FluxOperators, elliptic.SourceOperators)
    assert SOLVES <= set(vars(elliptic.SourceOperators))
    own = {name for name in vars(elliptic.FluxOperators)
           if not (name.startswith("__") and name.endswith("__"))}
    assert own == {"dirichlet", "_data", "adjoint_volume", "adjoint_global"}


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


def test_u0_residual_for_unit_dirichlet(mesh7):
    # the zero-source solve with unit boundary values
    K = fem.assemble(mesh7, 1.0, 1.0)
    bnd = np.flatnonzero(mesh7.boundary_mask)
    u0 = fem.DirichletSystem([(K, bnd, mesh7.nodes)]).solution(
        np.zeros(mesh7.n_nodes), np.ones(bnd.size))
    assert np.all(u0[bnd] == 1.0)
    res = (K @ u0)[~mesh7.boundary_mask]
    # interior equations hold up to the solver tolerance on an O(1) load
    assert np.abs(res).max() <= 1e-8


def test_affine_split(mesh7):
    # a solve with boundary values and a source equals the zero-source
    # solve with those values plus the zero-boundary solve with the source
    K = fem.assemble(mesh7, 1.0, 1.0)
    bnd = np.flatnonzero(mesh7.boundary_mask)
    xb, yb = mesh7.nodes[bnd].T
    load = fem.lumped_mass(mesh7) * _rand_field(mesh7, 21)

    def solve(rhs, fixed_values):
        return fem.DirichletSystem([(K, bnd, mesh7.nodes)]).solution(
            rhs, fixed_values, tol=1e-12)

    u0 = solve(np.zeros(mesh7.n_nodes), xb + 0.5 * yb)
    U = solve(load, None)
    direct = solve(load, xb + 0.5 * yb)
    assert np.abs(direct - (u0 + U)).max() < 1e-8


def test_forward_source_zero_and_linear(source_ops, mesh7):
    assert np.all(source_ops.forward_global(np.zeros(mesh7.n_nodes)) == 0.0)
    f1 = _rand_field(mesh7, 1)
    f2 = _rand_field(mesh7, 2)
    lhs = source_ops.forward_global(f1 + f2)
    rhs = (source_ops.forward_global(f1)
           + source_ops.forward_global(f2))
    assert np.abs(lhs - rhs).max() < 1e-9


def test_forward_source_self_adjoint(source_ops, mesh7):
    for seed in range(5):
        f = _rand_field(mesh7, 100 + seed)
        w = _rand_field(mesh7, 200 + seed)
        Uf = source_ops.forward_global(f)
        Uw = source_ops.forward_global(w)
        lhs = fem.inner_product(Uf, w, source_ops.lumped)
        rhs = fem.inner_product(f, Uw, source_ops.lumped)
        scale = (np.sqrt(fem.inner_product(f, f, source_ops.lumped))
                 * np.sqrt(fem.inner_product(w, w, source_ops.lumped)))
        assert abs(lhs - rhs) <= 1e-9 * scale


def test_local_source_split_and_zero(source_ops, mesh7, decomp7):
    n0 = source_ops.locals[0].nodes.size
    assert np.all(source_ops.forward_local(0, np.zeros(n0)) == 0.0)
    rng = np.random.default_rng(7)
    for i in range(4):
        nodes = source_ops.locals[i].nodes
        f = _rand_field(mesh7, 300 + i)[nodes]
        p = rng.standard_normal(decomp7.interfaces[i].size)
        both = source_ops.forward_local(i, f, p)
        split = (source_ops.forward_local(i, f, None)
                 + source_ops.forward_local(i, np.zeros(nodes.size), p))
        assert np.abs(both - split).max() < 1e-9


def test_local_source_consistency(source_ops, mesh7, decomp7):
    f = _rand_field(mesh7, 17)
    U = source_ops.forward_global(f)
    for i in range(4):
        trace = U[decomp7.interfaces[i]]
        box = source_ops.locals[i].nodes
        local = source_ops.forward_local(i, f[box], trace)
        assert np.array_equal(box, np.flatnonzero(decomp7.masks[i]))
        assert np.abs(local - U[box]).max() < 1e-9


def test_local_source_self_adjoint(source_ops, mesh7, decomp7):
    for i in range(4):
        loc = source_ops.locals[i]
        w_box = source_ops.lumped[loc.nodes]
        for seed in range(5):
            f = _rand_field(mesh7, 400 + seed)[loc.nodes]
            w = _rand_field(mesh7, 500 + seed)[loc.nodes]
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
    gamma0 = gamma0_nodes(ops.mesh)
    w[gamma0] = rng.standard_normal(gamma0.size)
    return w


@pytest.mark.parametrize("nx", [7, 14])
def test_source_adjoint_local_is_the_zero_trace_forward_local(request, nx):
    # the local source map is self-adjoint in the lumped product, so its
    # back-projection solves the same system with the same load; each side
    # runs on fresh operators, as a solve warm-starts the next on its box
    m = request.getfixturevalue(f"mesh{nx}")
    decomp = request.getfixturevalue(f"decomp{nx}")
    forward, adjoint = (elliptic.SourceOperators(
        m, decomp, lambda x, y: (x + y) / 100, 1.0) for _ in range(2))
    for i, loc in enumerate(forward.locals):
        w = _rand_field(m, 700 + i)[loc.nodes]
        assert (adjoint.adjoint_local(i, w).tobytes()
                == forward.forward_local(i, w).tobytes())


def test_forward_flux_zero_and_linear(flux_ops, mesh7):
    assert np.all(flux_ops.forward_global(np.zeros(mesh7.n_nodes)) == 0.0)
    h1 = _rand_flux(flux_ops, 1)
    h2 = _rand_flux(flux_ops, 2)
    lhs = flux_ops.forward_global(h1 + h2)
    rhs = (flux_ops.forward_global(h1)
           + flux_ops.forward_global(h2))
    assert np.abs(lhs - rhs).max() < 1e-9


def test_adjoint_flux_zero_and_linear(flux_ops, mesh7):
    assert np.all(flux_ops.adjoint_global(np.zeros(mesh7.n_nodes)) == 0.0)
    w1 = _rand_gamma0(flux_ops, 3)
    w2 = _rand_gamma0(flux_ops, 4)
    lhs = flux_ops.adjoint_global(w1 + w2)
    rhs = (flux_ops.adjoint_global(w1)
           + flux_ops.adjoint_global(w2))
    assert np.abs(lhs - rhs).max() < 1e-9


def test_flux_duality(flux_ops):
    for seed in range(5):
        h = _rand_flux(flux_ops, 600 + seed)
        w = _rand_gamma0(flux_ops, 700 + seed)
        Uh = flux_ops.forward_global(h)
        Uw = flux_ops.adjoint_volume(w)
        lhs = fem.inner_product(Uh, w, flux_ops.bmass0)
        rhs = fem.inner_product(h, Uw, flux_ops.bmass1)
        scale = (np.sqrt(fem.inner_product(h, h, flux_ops.bmass1))
                 * np.sqrt(fem.inner_product(w, w, flux_ops.bmass0)))
        assert abs(lhs - rhs) <= 1e-9 * scale


def test_local_flux_zero(flux_ops, mesh7):
    for i in range(4):
        zero = np.zeros(flux_ops.locals[i].nodes.size)
        assert np.all(flux_ops.forward_local(i, zero) == 0.0)
        assert np.all(flux_ops.adjoint_local(i, zero) == 0.0)


def test_local_flux_duality_box2(flux_ops):
    i = 1
    loc = flux_ops.locals[i]
    for seed in range(5):
        h = _rand_flux(flux_ops, 800 + seed)
        w = _rand_gamma0(flux_ops, 900 + seed)
        lf = flux_ops.forward_local(i, h[loc.nodes], None)
        la = flux_ops.adjoint_local(i, w[loc.nodes], None)
        lhs = fem.inner_product(lf, w[loc.nodes], flux_ops.box_data_mass[i])
        rhs = fem.inner_product(h[loc.nodes], la, flux_ops.box_param_mass[i])
        hn = np.sqrt(fem.inner_product(h[loc.nodes], h[loc.nodes],
                                       flux_ops.box_param_mass[i]))
        wn = np.sqrt(fem.inner_product(w[loc.nodes], w[loc.nodes],
                                       flux_ops.box_data_mass[i]))
        assert abs(lhs - rhs) <= 1e-9 * (hn * wn + 1e-30)


def test_local_flux_consistency(flux_ops, decomp7):
    h = _rand_flux(flux_ops, 23)
    U = flux_ops.forward_global(h)
    for i in range(4):
        trace = U[decomp7.interface_closures[i]]
        box = flux_ops.locals[i].nodes
        local = flux_ops.forward_local(i, h[box], trace)
        assert np.abs(local - U[box]).max() < 1e-9


def test_local_flux_adjoint_consistency_with_trace(flux_ops, decomp7):
    # the restricted global adjoint solves the local adjoint system with its
    # own inner-boundary values imposed
    w = _rand_gamma0(flux_ops, 41)
    V = flux_ops.adjoint_volume(w)
    for i in range(4):
        trace = V[decomp7.interface_closures[i]]
        box = flux_ops.locals[i].nodes
        local = flux_ops.adjoint_local(i, w[box], trace)
        assert np.abs(local - V[box]).max() < 1e-9


def test_flux_support_free_boxes_solve_trace_only(flux_ops, decomp7):
    # boxes away from the flux side still deliver local solutions from traces
    h = _rand_flux(flux_ops, 31)
    U = flux_ops.forward_global(h)
    box = flux_ops.locals[0].nodes
    local = flux_ops.forward_local(0, h[box], U[decomp7.interface_closures[0]])
    assert np.abs(local - U[box]).max() < 1e-9


def test_box_data_is_the_restricted_global_data():
    # A box's lumped mass and boundary masses are the global ones restricted
    # to its nodes.  On every free row, the only rows a local solve reads,
    # they equal to the bit the ones assembled over the box's own elements
    # and boundary edges, the reference kept here (a zero mass when no edge
    # of that boundary part lies in the box), in both Dirichlet modes.
    grid = tuple(mesh.Box(Fraction(x0, 7), Fraction(x1, 7),
                          Fraction(y0, 7), Fraction(y1, 7))
                 for x0, x1 in ((0, 3), (2, 5), (4, 7))
                 for y0, y1 in ((0, 6), (5, 10), (9, 14)))
    loaded_rows = 0
    for nx, boxes in ((7, mesh.DEFAULT_BOXES), (14, mesh.DEFAULT_BOXES),
                      (14, grid)):
        m = mesh.build_mesh(nx, 2 * nx)
        decomp = mesh.build_subdomains(m, boxes)
        sides = [m.side_edges("right"),
                 np.vstack([m.side_edges(s) for s in ("left", "bottom", "top")])]
        lumped = fem.lumped_mass(m)
        bmasses = [fem.assemble_boundary_mass(m, edges) for edges in sides]
        for k, mask in enumerate(decomp.masks):
            inside = np.all(mask[m.elements], axis=1)
            box_lumped = np.bincount(
                m.elements[inside].ravel(),
                weights=np.repeat(m.element_areas()[inside] / 3.0, 3),
                minlength=m.n_nodes)
            box_edges = [edges[np.all(mask[edges], axis=1)] for edges in sides]
            for mode in ("box-boundary", "interface-closure"):
                loc = fem.BoxSystem(decomp, k, mode)
                n = loc.nodes.size
                free = np.setdiff1d(np.arange(n), loc.fixed)
                assert free.size
                assert (lumped[loc.nodes][free].tobytes()
                        == box_lumped[loc.nodes][free].tobytes())
                for edges, bmass in zip(box_edges, bmasses):
                    ours = fem.restrict(bmass, loc.nodes).toarray()[free]
                    reference = (fem.restrict(fem.assemble_boundary_mass(
                        m, edges), loc.nodes).toarray()[free] if edges.size
                        else np.zeros((free.size, n)))
                    assert ours.tobytes() == reference.tobytes()
                    loaded_rows += np.count_nonzero(ours.any(axis=1))
    # the boundary rows compared are not all empty
    assert loaded_rows
