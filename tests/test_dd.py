import math

import numpy as np
import pytest

from ddinverse import dd, fem, problems
from conftest import node_at
from surrogates import local_surrogate

CAT = problems.example_catalog()


@pytest.fixture(scope="module")
def source7():
    return problems.make_problem(CAT["5.3"], 7, seed=0)


@pytest.fixture(scope="module")
def flux7():
    return problems.make_problem(CAT["5.1"], 14, seed=0)


@pytest.fixture(scope="module")
def heat7():
    return problems.make_problem(CAT["5.6"], 7, seed=0, nt=12)


def test_config_validation():
    with pytest.raises(ValueError):
        dd.DDConfig(beta=0.0)
    with pytest.raises(ValueError):
        dd.DDConfig(beta=1e-3, A=0.0)
    with pytest.raises(ValueError):
        dd.DDConfig(beta=1e-3, lam=1.0)
    with pytest.raises(ValueError):
        dd.DDConfig(beta=1e-3, eps1=-1.0)
    dd.DDConfig(beta=1e-3)  # defaults are valid


@pytest.mark.parametrize("field, value", [
    ("A", math.nan), ("A", math.inf), ("beta", math.nan), ("beta", math.inf),
    ("eps1", math.nan), ("eps1", math.inf), ("target_rel_error", math.nan),
    ("target_rel_error", -1.0), ("target_rel_error", 0.0)])
def test_config_rejects_non_finite_and_non_positive_values(field, value):
    with pytest.raises(ValueError, match="must be positive and finite"):
        dd.DDConfig(**{"beta": 1e-3, field: value})


def test_source_minimizer_zero_inputs(source7):
    cfg = dd.DDConfig(beta=1e-3)
    n = source7.ops.mesh.n_nodes
    zero_data = dd.SourceInversion(source7.ops, np.zeros(n))
    comps = [np.zeros(n) for _ in range(4)]
    trace = np.zeros(source7.trace_nodes[0].size)
    out = zero_data.local_minimize([0], comps, [comps[0]], [trace], cfg)[0]
    assert np.all(out == 0.0)


def test_source_minimizer_proximal_identity(source7):
    # with zero neighbours, zero trace and data equal to the propagated
    # anchor, the residual vanishes and the update is a/(A+beta)
    cfg = dd.DDConfig(beta=1e-3)
    i = 1
    n = source7.ops.mesh.n_nodes
    rng = np.random.default_rng(4)
    a = rng.standard_normal(n)
    a[~source7.supports[i]] = 0.0
    z = np.zeros(n)
    z[source7.box_nodes[i]] = source7.ops.forward_local(
        i, a[source7.box_nodes[i]], None)
    prob = dd.SourceInversion(source7.ops, z)
    comps = [np.zeros(n) for _ in range(4)]
    comps[i] = a
    trace = np.zeros(prob.trace_nodes[i].size)
    out = prob.local_minimize([i], comps, [a], [trace], cfg)[0]
    assert np.abs(out - a / (1 + 1e-3)).max() < 1e-9


def test_flux_minimizer_empty_support(flux7):
    cfg = dd.DDConfig(beta=1e-4)
    n = flux7.ops.mesh.n_nodes
    comps = [np.zeros(n) for _ in range(4)]
    trace = np.zeros(flux7.trace_nodes[0].size)
    solves = flux7.solve_calls()
    out = flux7.local_minimize([0], comps, [comps[0]], [trace], cfg)[0]
    assert np.all(out == 0.0)
    assert flux7.solve_calls() == solves  # a box without support runs none


def test_initial_minimizer_tiny_beta_returns_anchor(heat7):
    # zero residual and nearly no regularization leave the anchor in place
    cfg = dd.DDConfig(beta=1e-14, target_rel_error=None)
    i = 0
    n = heat7.ops.mesh.n_nodes
    rng = np.random.default_rng(8)
    a = rng.standard_normal(n)
    a[~heat7.supports[i]] = 0.0
    nt = heat7.ops.grid.nt
    z = np.zeros((nt + 1, n))
    z[:, heat7.box_nodes[i]] = heat7.ops.forward_local(
        i, a[heat7.box_nodes[i]], None)
    prob = dd.InitialValueInversion(heat7.ops, z)
    comps = [np.zeros(n) for _ in range(4)]
    comps[i] = a
    trace = np.zeros((nt + 1, prob.trace_nodes[i].size))
    out = prob.local_minimize([i], comps, [a], [trace], cfg)[0]
    assert np.abs(out - a).max() < 1e-9


@pytest.mark.parametrize("exp, nx", [("5.3", 7), ("5.3", 28), ("5.1", 14),
                                     ("5.6", 7)])
def test_box_group_matches_one_box_calls_to_the_bit(exp, nx):
    # local_minimize and local_solution on every box (the asa step and the
    # exchange) give the bits of four one-box calls (the msa sweep), on two
    # fresh problems; at nx=28 the boxes run multilevel PCG, and each box's
    # warm-start slots see the same history in either order
    extra = {"nt": 12} if CAT[exp].kind == "initial_value" else {}
    group, single = (problems.make_problem(CAT[exp], nx, seed=0, **extra)
                     for _ in range(2))
    cfg = dd.DDConfig(beta=CAT[exp].beta)
    comps = group.split(np.random.default_rng(3).standard_normal(
        group.ops.mesh.n_nodes))
    seeded = group.global_solution(dd.total_component(comps))
    single.global_solution(dd.total_component(comps))
    traces = [seeded[..., nodes] for nodes in group.trace_nodes]
    boxes = range(4)
    for _ in range(2):  # the second round starts from warm slots
        fresh = group.local_minimize(boxes, comps, comps, traces, cfg)
        one_box = [single.local_minimize([i], comps, [comps[i]], [traces[i]],
                                         cfg)[0] for i in boxes]
        assert all(np.array_equal(a, b) for a, b in zip(fresh, one_box))
        comps = fresh
        param = dd.total_component(comps)
        solutions = group.local_solution(boxes, param, traces)
        one_box = [single.local_solution([i], param, [traces[i]])[0]
                   for i in boxes]
        assert all(np.array_equal(a, b) for a, b in zip(solutions, one_box))
        traces = dd.update_traces(group, solutions)
    assert group.solve_calls() == single.solve_calls()


def test_update_traces_constant_and_single_owner(source7, mesh7, decomp7):
    n = mesh7.n_nodes
    rng = np.random.default_rng(2)
    common = rng.standard_normal(n)
    new = dd.update_traces(source7, [common[nodes]
                                     for nodes in source7.box_nodes])
    for i in range(4):
        assert np.allclose(new[i], common[source7.trace_nodes[i]])

    sols = [np.full(nodes.size, float(j + 1))
            for j, nodes in enumerate(source7.box_nodes)]
    new = dd.update_traces(source7, sols)
    # (1/7, 6/7) sits on the lower edge of the top-left box and is covered
    # only by the bottom-left subdomain
    k = node_at(mesh7, 1 / 7, 6 / 7)
    pos = np.flatnonzero(source7.trace_nodes[0] == k)[0]
    assert new[0][pos] == 3.0
    # (4/7, 1) is covered by the two right-hand subdomains
    k = node_at(mesh7, 4 / 7, 1.0)
    pos = np.flatnonzero(source7.trace_nodes[0] == k)[0]
    assert new[0][pos] == (2.0 + 4.0) / 2.0


def test_update_traces_junction_fallback(flux7, mesh14):
    sols = [np.full(nodes.size, float(j + 1))
            for j, nodes in enumerate(flux7.box_nodes)]
    new = dd.update_traces(flux7, sols)
    # top junction of the top-left box lies on the outer boundary and is
    # covered only by the closure of the top-right box
    k = node_at(mesh14, 4 / 7, 2.0)
    pos = np.flatnonzero(flux7.trace_nodes[0] == k)[0]
    assert new[0][pos] == 2.0


def test_push_selector_geometry(source7, mesh7, decomp7):
    # part of box-2's interface inside box 1, read from box 1's solution
    j, at, take = source7.push[0][0]
    nodes = source7.trace_nodes[1][at]
    assert j == 1 and np.array_equal(source7.box_nodes[0][take], nodes)
    xs, ys = mesh7.nodes[nodes].T
    assert np.all(np.abs(xs - 3 / 7) < 1e-12)
    assert np.all((ys > 6 / 7) & (ys < 2.0))


def test_relax_identities():
    rng = np.random.default_rng(6)
    comps = [rng.standard_normal(30) for _ in range(4)]
    prev = rng.standard_normal(30)
    assert np.array_equal(dd.relax_combination(comps, prev, 1.0),
                          dd.total_component(comps))
    assert np.array_equal(dd.relax_combination(comps, prev, 0.0), prev)


def _dense_tikhonov_minimizer(prob, beta):
    n = prob.ops.mesh.n_nodes
    m = prob.ops.lumped
    U = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        U[:, j] = prob.ops.forward_global(e)
    A = U.T @ (m[:, None] * U) + beta * np.diag(m)
    return np.linalg.solve(A, U.T @ (m * prob.z))


def test_msa_stops_immediately_near_fixed_point():
    prob = problems.make_problem(CAT["5.3"], 7, seed=0, delta=0.0)
    beta = 1e-3
    star = _dense_tikhonov_minimizer(prob, beta)
    cfg = dd.DDConfig(beta=beta, eps1=1e6, max_iter=50, target_rel_error=None)
    state, report = dd.run_msa(prob, cfg, initial=star)
    assert report.n_iterations == 1
    assert report.reason == "increment"
    # starting from the global minimizer the first sweep barely moves
    assert report.rows[0]["increment_norm"] <= 0.05 * prob.param_norm(star)


def test_zero_data_zero_start_is_fixed_point(source7):
    n = source7.ops.mesh.n_nodes
    prob = dd.SourceInversion(source7.ops, np.zeros(n))
    cfg = dd.DDConfig(beta=1e-3, target_rel_error=None, max_iter=10)
    state, report = dd.run_msa(prob, cfg)
    assert report.n_iterations == 1
    assert report.rows[0]["increment_norm"] == 0.0
    state, report = dd.run_asa(prob, cfg)
    assert report.n_iterations == 1
    assert report.rows[0]["increment_norm"] == 0.0


def test_msa_stops_on_non_finite_iterate():
    # A far below the squared local forward-map norm: the sweeps diverge and
    # overflow at iteration 61.
    prob = problems.make_problem(CAT["5.3"], 7, seed=0)
    cfg = dd.DDConfig(beta=1e-3, A=0.01, max_iter=80)
    with np.errstate(over="ignore", invalid="ignore"):
        _, report = dd.run_msa(prob, cfg)
    assert report.reason == "non_finite"
    assert not report.converged
    assert report.n_iterations == 61
    assert all(np.isfinite(r["increment_norm"]) for r in report.rows[:-1])


def test_msa_determinism():
    runs = []
    for _ in range(2):
        prob = problems.make_problem(CAT["5.3"], 7, seed=3)
        cfg = dd.DDConfig(beta=1e-3, max_iter=6, target_rel_error=None)
        state, report = dd.run_msa(prob, cfg)
        runs.append((state.iterate.copy(), [r["objective"] for r in report.rows]))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("exp,algorithm", [
    ("5.3", "msa"), ("5.3", "asa"), ("5.1", "msa"), ("5.6", "msa"),
])
def test_support_preservation(exp, algorithm):
    nx = 14 if exp == "5.1" else 7
    prob = problems.make_problem(CAT[exp], nx, seed=0)
    cfg = dd.DDConfig(beta=CAT[exp].beta, max_iter=3, target_rel_error=None,
                      eps1=1e-300)
    runner = dd.run_msa if algorithm == "msa" else dd.run_asa
    state, _ = runner(prob, cfg)
    for i, comp in enumerate(state.components):
        assert np.all(comp[~prob.supports[i]] == 0.0)


def test_surrogate_dominates_local_functional(source7):
    cfg = dd.DDConfig(beta=1e-3)
    rng = np.random.default_rng(12)
    comps = source7.split(rng.standard_normal(source7.ops.mesh.n_nodes))
    seeded = source7.global_solution(dd.total_component(comps))
    for i in range(4):
        trace = seeded[source7.trace_nodes[i]]
        base = local_surrogate(source7, i, comps, trace, comps[i], cfg)
        for s in range(5):
            a = np.random.default_rng(50 + s).standard_normal(
                source7.ops.mesh.n_nodes)
            a[~source7.supports[i]] = 0.0
            val = local_surrogate(source7, i, comps, trace, a, cfg)
            assert val >= base * (1 - 1e-9) - 1e-12


def test_surrogate_gap_monotone_in_A(source7):
    rng = np.random.default_rng(14)
    v = rng.standard_normal(source7.ops.mesh.n_nodes)
    Uv = source7.ops.forward_global(v)
    nv = source7.param_inner(v, v)
    nUv = source7.param_inner(Uv, Uv)
    for A in (0.5, 1.0, 2.0):
        assert 2 * A * nv - nUv >= A * nv - nUv


@pytest.mark.parametrize("exp,nx,kwargs", [
    ("5.3", 7, {}),
    ("5.6", 7, {"nt": 12}),
])
def test_msa_objective_descent(exp, nx, kwargs):
    prob = problems.make_problem(CAT[exp], nx, seed=0, **kwargs)
    cfg = dd.DDConfig(beta=CAT[exp].beta, max_iter=10,
                      target_rel_error=None, eps1=1e-300)
    state, report = dd.run_msa(prob, cfg)
    objs = [r["objective"] for r in report.rows]
    for a, b in zip(objs[1:], objs[2:]):
        assert b <= a * (1 + 1e-6)


def test_iteration_count_insensitive_to_solver_tol():
    ks = []
    for tol in (1e-10, 5e-11):
        prob = problems.make_problem(CAT["5.3"], 7, seed=0, tol=tol)
        state, report = dd.run_msa(prob, dd.DDConfig(beta=1e-3, max_iter=60))
        ks.append(report.n_iterations)
    assert ks[0] == ks[1]


@pytest.mark.parametrize("exp,k_coarse", [("5.3", 14), ("5.1", 7)])
def test_msa_iterations_do_not_grow_with_the_mesh(exp, k_coarse):
    # the paper's headline claim, on the meshes the multilevel solver makes
    # cheap: seed-0 msa keeps k within 1 of its nx=56 value at nx=112
    # (also at nx=224, too slow for this suite)
    ks = []
    for nx in (56, 112):
        prob = problems.make_problem(CAT[exp], nx, seed=0)
        _, report = dd.run_msa(prob, dd.DDConfig(beta=CAT[exp].beta))
        assert report.converged
        ks.append(report.n_iterations)
    assert ks[0] == k_coarse
    assert abs(ks[1] - ks[0]) <= 1


def test_report_csv_shape(source7):
    cfg = dd.DDConfig(beta=1e-3, max_iter=3, target_rel_error=None,
                      eps1=1e-300)
    prob = problems.make_problem(CAT["5.3"], 7, seed=1)
    _, report = dd.run_msa(prob, cfg)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "iter,increment_norm,rel_error,objective"
    assert len(lines) == 1 + report.n_iterations
    assert lines[1].split(",")[0] == "1"
