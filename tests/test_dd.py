import numpy as np
import pytest

from ddinverse import dd, fem, problems
from conftest import node_at

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


def test_source_minimizer_zero_inputs(source7):
    cfg = dd.DDConfig(beta=1e-3)
    n = source7.ops.mesh.n_nodes
    zero_data = dd.SourceInversion(source7.ops, np.zeros(n))
    comps = [np.zeros(n) for _ in range(4)]
    trace = np.zeros(source7.trace_nodes[0].size)
    out = zero_data.local_minimize(0, comps, comps[0], trace, cfg)
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
    z0 = source7.ops.forward_local(i, a, None)
    prob = dd.SourceInversion(source7.ops, z0)
    comps = [np.zeros(n) for _ in range(4)]
    comps[i] = a
    trace = np.zeros(prob.trace_nodes[i].size)
    out = prob.local_minimize(i, comps, a, trace, cfg)
    assert np.abs(out - a / (1 + 1e-3)).max() < 1e-9


def test_flux_minimizer_empty_support(flux7):
    cfg = dd.DDConfig(beta=1e-4)
    n = flux7.ops.mesh.n_nodes
    comps = [np.zeros(n) for _ in range(4)]
    trace = np.zeros(flux7.trace_nodes[0].size)
    out = flux7.local_minimize(0, comps, comps[0], trace, cfg)
    assert np.all(out == 0.0)


def test_initial_minimizer_tiny_beta_returns_anchor(heat7):
    # zero residual and nearly no regularization leave the anchor in place
    cfg = dd.DDConfig(beta=1e-14, target_rel_error=None)
    i = 0
    n = heat7.ops.mesh.n_nodes
    rng = np.random.default_rng(8)
    a = rng.standard_normal(n)
    a[~heat7.supports[i]] = 0.0
    z0 = heat7.ops.forward_local(i, a, None)
    prob = dd.InitialValueInversion(heat7.ops, z0)
    comps = [np.zeros(n) for _ in range(4)]
    comps[i] = a
    nt = heat7.ops.grid.nt
    trace = np.zeros((nt + 1, prob.trace_nodes[i].size))
    out = prob.local_minimize(i, comps, a, trace, cfg)
    assert np.abs(out - a).max() < 1e-9


def test_update_traces_constant_and_single_owner(source7, mesh7, decomp7):
    n = mesh7.n_nodes
    rng = np.random.default_rng(2)
    common = rng.standard_normal(n)
    new = dd.update_traces(source7, [common] * 4)
    for i in range(4):
        assert np.allclose(new[i], common[source7.trace_nodes[i]])

    sols = [np.full(n, float(j + 1)) for j in range(4)]
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
    n = mesh14.n_nodes
    sols = [np.full(n, float(j + 1)) for j in range(4)]
    new = dd.update_traces(flux7, sols)
    # top junction of the top-left box lies on the outer boundary and is
    # covered only by the closure of the top-right box
    k = node_at(mesh14, 4 / 7, 2.0)
    pos = np.flatnonzero(flux7.trace_nodes[0] == k)[0]
    assert new[0][pos] == 2.0


def test_push_selector_geometry(source7, mesh7, decomp7):
    # part of box-2's interface inside box 1
    sel = dd._push_selectors(source7)[0][1]
    nodes = source7.trace_nodes[1][sel]
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
        U[:, j] = prob.ops.forward_global(e, warm=None)
    A = U.T @ (m[:, None] * U) + beta * np.diag(m)
    return np.linalg.solve(A, U.T @ (m * prob.z0))


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
    check = dd.check_surrogate_constant(source7, cfg, seed=1)
    assert check.estimate <= cfg.A  # the default constant is large enough
    rng = np.random.default_rng(12)
    comps = source7.split(source7.random_param(rng))
    seeded = source7.global_solution(dd.total_component(comps), "tmp")
    for i in range(4):
        trace = seeded[source7.trace_nodes[i]]
        base = source7.local_surrogate(i, comps, trace, comps[i], cfg)
        for s in range(5):
            a = source7.random_param(np.random.default_rng(50 + s))
            a[~source7.supports[i]] = 0.0
            val = source7.local_surrogate(i, comps, trace, a, cfg)
            assert val >= base * (1 - 1e-9) - 1e-12


def test_check_surrogate_constant_converges(source7):
    cfg = dd.DDConfig(beta=1e-3)
    check = dd.check_surrogate_constant(source7, cfg, seed=2)
    assert check.iterations < 200
    assert 0 < check.estimate < 1.0
    assert check.ok


def test_check_surrogate_constant_zero_operator():
    class ZeroOp:
        surrogate_scale = 1.0

        def random_param(self, rng):
            return rng.standard_normal(40)

        def param_inner(self, u, v):
            return float(u @ v)

        def param_norm(self, v):
            return float(np.linalg.norm(v))

        def surrogate_normal_apply(self, v):
            return np.zeros_like(v)

    check = dd.check_surrogate_constant(ZeroOp(), dd.DDConfig(beta=1.0))
    assert check.estimate == 0.0
    assert check.ok


def test_surrogate_gap_monotone_in_A(source7):
    rng = np.random.default_rng(14)
    v = source7.random_param(rng)
    Uv = source7.ops.forward_global(v, warm=None)
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


def test_report_csv_shape(source7):
    cfg = dd.DDConfig(beta=1e-3, max_iter=3, target_rel_error=None,
                      eps1=1e-300)
    prob = problems.make_problem(CAT["5.3"], 7, seed=1)
    _, report = dd.run_msa(prob, cfg)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "iter,increment_norm,rel_error,objective"
    assert len(lines) == 1 + report.n_iterations
    assert lines[1].split(",")[0] == "1"
