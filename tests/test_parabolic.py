import numpy as np
import pytest

from ddinverse import fem, parabolic, problems


@pytest.fixture(scope="module")
def heat7(mesh7, decomp7):
    grid = parabolic.TimeGrid(T=4.0, nt=16, sigma=4.0)
    # tight inner tolerance: identity checks compare across marches, so the
    # per-step solver error must stay below the 1e-9 contract after nt steps
    return parabolic.HeatOperators(mesh7, decomp7, 1.0, grid, tol=1e-11)


def _interior_field(mesh, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mesh.n_nodes)
    v[mesh.boundary_mask] = 0.0
    return v


def test_timegrid_validation():
    with pytest.raises(ValueError):
        parabolic.TimeGrid(T=4.0, nt=16, sigma=0.0)
    with pytest.raises(ValueError):
        parabolic.TimeGrid(T=4.0, nt=16, sigma=4.5)
    with pytest.raises(ValueError):
        parabolic.TimeGrid(T=4.0, nt=16, sigma=0.3)  # not a multiple of dt
    g = parabolic.TimeGrid(T=4.0, nt=16, sigma=1.0)
    assert g.window_start == 12
    assert abs(g.weights().sum() - 1.0) < 1e-14


def test_forward_zero_and_linear(heat7, mesh7):
    assert np.all(heat7.forward_global(np.zeros(mesh7.n_nodes)) == 0.0)
    p1 = _interior_field(mesh7, 1)
    p2 = _interior_field(mesh7, 2)
    lhs = heat7.forward_global(p1 + p2)
    rhs = heat7.forward_global(p1) + heat7.forward_global(p2)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_eigenmode_decay_matches_step_ratio():
    from ddinverse import mesh
    m = mesh.build_mesh(28, 56)
    dec = mesh.build_subdomains(m)
    grid = parabolic.TimeGrid(T=1.0, nt=50, sigma=1.0)
    ops = parabolic.HeatOperators(m, dec, 1.0, grid, tol=1e-13)
    x, y = m.nodes.T
    phi = np.sin(np.pi * x) * np.sin(np.pi * y / 2)
    traj = ops.forward_global(phi)
    lump = ops.lumped
    ratio = np.sqrt(fem.inner_product(traj[1], traj[1], lump)
                    / fem.inner_product(traj[0], traj[0], lump))
    lam = np.pi ** 2 * 1.25
    predicted = (1 - grid.dt * lam / 2) / (1 + grid.dt * lam / 2)
    assert abs(ratio - predicted) <= 0.02 * predicted


def test_duality_every_level(heat7, mesh7):
    lump = heat7.lumped
    for seed in range(5):
        phi = _interior_field(mesh7, 100 + seed)
        om = _interior_field(mesh7, 200 + seed)
        F = heat7.forward_global(phi)
        B = heat7.adjoint_global(om)
        scale = (np.sqrt(fem.inner_product(phi, phi, lump))
                 * np.sqrt(fem.inner_product(om, om, lump)))
        for k in range(heat7.grid.nt + 1):
            lhs = fem.inner_product(F[k], om, lump)
            rhs = fem.inner_product(phi, B[heat7.grid.nt - k], lump)
            assert abs(lhs - rhs) <= 1e-9 * scale


def test_time_reversal_exact(heat7, mesh7):
    om = _interior_field(mesh7, 9)
    B = heat7.adjoint_global(om)
    F = heat7.forward_global(om)
    # the backward solve is the forward march read in reverse, step by step
    assert np.array_equal(B[::-1], F)


def test_local_zero_and_duality(heat7, mesh7, decomp7):
    i = 0
    loc = heat7.locals[i]
    assert np.all(heat7.forward_boxes([0], [np.zeros(loc.nodes.size)])[0]
                  == 0.0)
    w_box = heat7.lumped[loc.nodes]
    for seed in range(5):
        phi = _interior_field(mesh7, 300 + seed)[loc.nodes]
        om = _interior_field(mesh7, 400 + seed)[loc.nodes]
        F = heat7.forward_boxes([i], [phi])[0]
        B = heat7.adjoint_local(i, om)
        scale = (np.sqrt(fem.inner_product(phi, phi, w_box))
                 * np.sqrt(fem.inner_product(om, om, w_box)) + 1e-30)
        for k in range(0, heat7.grid.nt + 1, 4):
            lhs = fem.inner_product(F[k], om, w_box)
            rhs = fem.inner_product(phi, B[heat7.grid.nt - k], w_box)
            assert abs(lhs - rhs) <= 1e-9 * scale


def test_local_consistency(heat7, mesh7, decomp7):
    phi = _interior_field(mesh7, 77)
    F = heat7.forward_global(phi)
    for i in range(4):
        trace = F[:, decomp7.interfaces[i]]
        box = heat7.locals[i].nodes
        local = heat7.forward_boxes([i], [phi[box]], [trace])[0]
        assert np.abs(local - F[:, box]).max() < 1e-9


def test_local_adjoint_consistency_with_trace(heat7, mesh7, decomp7):
    om = _interior_field(mesh7, 55)
    B = heat7.adjoint_global(om)
    for i in (0, 3):
        trace = B[:, decomp7.interfaces[i]]
        box = heat7.locals[i].nodes
        local = heat7.adjoint_local(i, om[box], trace)
        assert np.abs(local - B[:, box]).max() < 1e-9


def test_accumulate_zero(heat7, mesh7):
    r = np.zeros((heat7.grid.nt + 1, heat7.locals[0].nodes.size))
    assert np.all(heat7.back_boxes([0], [r])[0] == 0.0)


def test_accumulate_single_step_window(mesh7, decomp7):
    grid = parabolic.TimeGrid(T=4.0, nt=16, sigma=0.25)
    ops = parabolic.HeatOperators(mesh7, decomp7, 1.0, grid)
    r0 = _interior_field(mesh7, 5)[ops.locals[0].nodes]
    r = np.tile(r0, (grid.nt + 1, 1))
    acc = ops.back_boxes([0], [r])[0]
    # constant-in-time residual over one trailing step: half a step of the
    # aged value plus half a step of the fresh one
    adj = ops.adjoint_local(0, r0)
    expected = 0.5 * grid.dt * (adj[1] + adj[0])
    scale = np.abs(expected).max()
    assert np.abs(acc - expected).max() <= 1e-8 * scale


def test_accumulate_matches_quadrature_of_solves(mesh7, decomp7):
    grid = parabolic.TimeGrid(T=4.0, nt=16, sigma=4.0)
    ops = parabolic.HeatOperators(mesh7, decomp7, 1.0, grid)
    rng = np.random.default_rng(13)
    r = rng.standard_normal((grid.nt + 1, ops.locals[0].nodes.size))
    acc = ops.back_boxes([0], [r])[0]
    w = grid.weights()
    naive = np.zeros(r.shape[1])
    for k in range(grid.nt + 1):
        adj = ops.adjoint_local(0, r[k])
        naive += w[k] * adj[grid.nt - k]
    assert np.abs(acc - naive).max() <= 1e-8 * np.abs(naive).max()


def test_one_box_pairs_view_the_stacked_factor():
    # box i alone marches on a view of the four boxes' band factor, not on
    # a second factor, and a march counts one step per box and time level;
    # at nx=28 the factor has reduction levels beyond the first
    from ddinverse import mesh
    m = mesh.build_mesh(28, 56)
    grid = parabolic.TimeGrid(T=4.0, nt=6, sigma=4.0)
    ops = parabolic.HeatOperators(m, mesh.build_subdomains(m), 1.0, grid)
    every = tuple(range(4))
    stacked = ops.pairs[every][0].factor
    assert isinstance(stacked, fem.BandFactor)
    for i in every:
        factor = ops.pairs[i,][0].factor
        assert factor is not stacked and factor.B == 1
        assert len(factor.levels) == len(stacked.levels) > 0
        for part, whole in zip(
                [factor.tail, factor.P0, *sum(factor.levels, ())],
                [stacked.tail, stacked.P0, *sum(stacked.levels, ())]):
            assert np.shares_memory(part, whole)
    phis = [np.ones(loc.nodes.size) for loc in ops.locals]
    before = ops.step_count
    ops.forward_boxes(every, phis)
    assert ops.step_count - before == 4 * grid.nt
    ops.back_boxes([2], [np.ones((grid.nt + 1, phis[2].size))])
    assert ops.step_count - before == 5 * grid.nt
    ops.forward_boxes([3], [phis[3]])
    assert ops.step_count - before == 6 * grid.nt


def test_unconditional_stability(heat7, mesh7):
    phi = _interior_field(mesh7, 19)
    traj = heat7.forward_global(phi)
    lump = heat7.lumped
    norms = [fem.inner_product(u, u, lump) for u in traj]
    for a, b in zip(norms, norms[1:]):
        assert b <= a * (1 + 1e-12)


def test_second_order_in_time(mesh7, decomp7):
    x, y = mesh7.nodes.T
    phi = np.sin(np.pi * x) * np.sin(np.pi * y / 2)
    lump = fem.lumped_mass(mesh7)

    def final(nt):
        grid = parabolic.TimeGrid(T=0.5, nt=nt, sigma=0.5)
        ops = parabolic.HeatOperators(mesh7, decomp7, 1.0, grid, tol=1e-13)
        return ops.forward_global(phi)[-1]

    ref = final(2048)
    errs = []
    for nt in (16, 32):
        d = final(nt) - ref
        errs.append(np.sqrt(fem.inner_product(d, d, lump)))
    assert 4 * 0.8 <= errs[0] / errs[1] <= 4 * 1.2


def test_unequal_boxes_are_rejected(mesh7):
    # a wider top-left box makes the four boxes differ in size, and the box
    # stack marches only boxes of equal size
    from fractions import Fraction as F

    from ddinverse import mesh
    boxes = (mesh.Box(F(0), F(5, 7), F(6, 7), F(2)),) + mesh.DEFAULT_BOXES[1:]
    dec = mesh.build_subdomains(mesh7, boxes)
    grid = parabolic.TimeGrid(T=4.0, nt=8, sigma=4.0)
    with pytest.raises(ValueError, match="equal sizes"):
        parabolic.HeatOperators(mesh7, dec, 1.0, grid)


def test_iterative_fallback_matches_the_factored_stack(monkeypatch, mesh7,
                                                      decomp7):
    # with no band budget every system is solved by PCG instead of the
    # stacked band factor, to the PCG tolerance
    spec = problems.example_catalog()["5.6"]
    grid = parabolic.TimeGrid(T=4.0, nt=12, sigma=4.0)
    factored = parabolic.HeatOperators(mesh7, decomp7, spec.diffusion, grid)
    monkeypatch.setattr(fem, "MAX_BAND_ENTRIES", 0)
    iterative = parabolic.HeatOperators(mesh7, decomp7, spec.diffusion, grid)
    every = tuple(range(4))
    assert isinstance(factored.pairs[every][0].factor, fem.BandFactor)
    assert iterative.global_pair[0].factor is None
    assert iterative.pairs[every][0].factor is None
    rng = np.random.default_rng(8)
    phi = _interior_field(mesh7, 9)
    phis = [phi[loc.nodes] for loc in factored.locals]
    traces = [rng.standard_normal((grid.nt + 1, nodes.size))
              for nodes in decomp7.interfaces]
    residuals = [rng.standard_normal((grid.nt + 1, loc.nodes.size))
                 for loc in factored.locals]

    def close(a, b):
        return np.abs(a - b).max() <= 1e-9 * np.abs(a).max()

    assert close(factored.forward_global(phi), iterative.forward_global(phi))
    boxes = range(4)
    for method, args in (("forward_boxes", (boxes, phis, traces)),
                         ("back_boxes", (boxes, residuals))):
        for a, b in zip(getattr(factored, method)(*args),
                        getattr(iterative, method)(*args)):
            assert close(a, b)
    assert close(
        factored.forward_boxes([1], [phis[1]], [traces[1]])[0],
        iterative.forward_boxes([1], [phis[1]], [traces[1]])[0])


def test_iterative_fallback_keeps_no_non_finite_warm_start(monkeypatch,
                                                           mesh7, decomp7):
    # a march from a field holding nan solves every step with a non-finite
    # load; the next march, of a finite field, must not start PCG there
    spec = problems.example_catalog()["5.6"]
    grid = parabolic.TimeGrid(T=4.0, nt=12, sigma=4.0)
    monkeypatch.setattr(fem, "MAX_BAND_ENTRIES", 0)
    ops = parabolic.HeatOperators(mesh7, decomp7, spec.diffusion, grid)
    assert ops.global_pair[0].factor is None
    phi = np.ones(mesh7.n_nodes)
    phi[mesh7.n_nodes // 2] = np.nan
    assert not np.all(np.isfinite(ops.forward_global(phi)))
    assert np.all(np.isfinite(ops.forward_global(np.ones(mesh7.n_nodes))))
