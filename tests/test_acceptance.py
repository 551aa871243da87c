"""Acceptance gate: every criterion below prints one PASS/FAIL line (visible
with pytest -s) and asserts its stated tolerance.  Quantitative iteration
bounds use fresh noise per seed, so they are checked over seed majorities."""

import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ddinverse import cli, dd, fem, mesh, parabolic, problems
from conftest import gamma0_nodes
from surrogates import local_surrogate

CAT = problems.example_catalog()
SEEDS = list(range(10))


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _run(exp, algorithm, nx, seed, max_iter=200, **kwargs):
    spec = CAT[exp]
    prob = problems.make_problem(spec, nx, seed=seed, **kwargs)
    cfg = dd.DDConfig(beta=spec.beta, max_iter=max_iter)
    runner = dd.run_msa if algorithm == "msa" else dd.run_asa
    t0 = time.perf_counter()
    state, report = runner(prob, cfg)
    wall = time.perf_counter() - t0
    err = report.rows[-1]["rel_error"]
    return report.n_iterations, err, report.converged, wall


def test_criterion_1_source_iterations_at_desk_scale():
    hits, walls, ks = 0, [], []
    for seed in SEEDS:
        k, err, conv, wall = _run("5.3", "msa", 7, seed)
        walls.append(wall)
        ks.append(k)
        if conv and err <= 0.1 and k <= 20:
            hits += 1
    ok = hits >= 8 and max(walls) <= 30.0
    assert _report(1, "source msa nx=7", ok,
                   f"k={ks}, {hits}/10 seeds within bound, "
                   f"max wall {max(walls):.2f}s")


def test_criterion_2_flux_near_mesh_independence():
    good = 0
    rows = []
    for seed in SEEDS:
        ks = {}
        for nx in (14, 28, 56):
            k, err, conv, _ = _run("5.1", "msa", nx, seed)
            ks[nx] = k if conv else 10 ** 6
        rows.append(ks)
        if all(4 <= ks[nx] <= 16 for nx in ks) and ks[56] <= 2 * ks[14]:
            good += 1
    ok = good >= 6
    assert _report(2, "flux msa mesh sweep", ok,
                   f"{good}/10 seeds pass; first seed k={rows[0]}")


def test_criterion_3_initial_value_iterations():
    bounds = {7: 20, 14: 22, 28: 24}
    good = 0
    rows = []
    for seed in SEEDS:
        ks = {}
        for nx in (7, 14, 28):
            k, err, conv, _ = _run("5.6", "msa", nx, seed)
            ks[nx] = k if conv else 10 ** 6
        rows.append(ks)
        if all(ks[nx] <= bounds[nx] for nx in ks):
            good += 1
    ok = good >= 6
    assert _report(3, "initial-value msa mesh sweep", ok,
                   f"{good}/10 seeds pass with defaults nt=12, sigma=T; "
                   f"first seed k={rows[0]} (see README for nt sensitivity)")


def test_criterion_4_additive_needs_more_iterations():
    details = {}
    ok = True
    for exp, nx in (("5.1", 14), ("5.3", 7), ("5.6", 7)):
        wins = 0
        for seed in SEEDS:
            k_m, _, conv_m, _ = _run(exp, "msa", nx, seed)
            k_a, _, conv_a, _ = _run(exp, "asa", nx, seed)
            if conv_m and conv_a and k_a > k_m:
                wins += 1
        details[exp] = wins
        ok = ok and wins >= 6
    assert _report(4, "asa slower than msa", ok,
                   f"wins out of 10 seeds: {details}")


def test_criterion_5_adjoint_identities():
    m = mesh.build_mesh(7, 14)
    dec = mesh.build_subdomains(m)
    worst = 0.0

    def track(lhs, rhs, scale):
        nonlocal worst
        worst = max(worst, abs(lhs - rhs) / scale)

    source = problems.make_problem(CAT["5.3"], 7, seed=0)
    sops = source.ops
    for s in range(20):
        rng = np.random.default_rng(1000 + s)
        f = rng.standard_normal(m.n_nodes)
        w = rng.standard_normal(m.n_nodes)
        nf = np.sqrt(fem.inner_product(f, f, sops.lumped))
        nw = np.sqrt(fem.inner_product(w, w, sops.lumped))
        track(fem.inner_product(sops.forward_global(f), w, sops.lumped),
              fem.inner_product(f, sops.forward_global(w), sops.lumped),
              nf * nw)
        for i in range(4):
            loc = sops.locals[i]
            fb, wb = f[loc.nodes], w[loc.nodes]
            lump = sops.lumped[loc.nodes]
            track(fem.inner_product(sops.forward_local(i, fb), wb, lump),
                  fem.inner_product(fb, sops.forward_local(i, wb), lump),
                  nf * nw)

    flux = problems.make_problem(CAT["5.1"], 14, seed=0)
    fops = flux.ops
    mf = fops.mesh
    gamma0 = gamma0_nodes(mf)
    for s in range(20):
        rng = np.random.default_rng(2000 + s)
        h = np.zeros(mf.n_nodes)
        h[fops.gamma1_nodes] = rng.standard_normal(fops.gamma1_nodes.size)
        w = np.zeros(mf.n_nodes)
        w[gamma0] = rng.standard_normal(gamma0.size)
        nh = np.sqrt(fem.inner_product(h, h, fops.bmass1))
        nw = np.sqrt(fem.inner_product(w, w, fops.bmass0))
        track(fem.inner_product(fops.forward_global(h), w, fops.bmass0),
              fem.inner_product(h, fops.adjoint_volume(w), fops.bmass1),
              nh * nw)
        for i in range(4):
            loc = fops.locals[i]
            b0, b1 = fops.box_data_mass[i], fops.box_param_mass[i]
            lf = fops.forward_local(i, h[loc.nodes])
            la = fops.adjoint_local(i, w[loc.nodes])
            track(fem.inner_product(lf, w[loc.nodes], b0),
                  fem.inner_product(h[loc.nodes], la, b1), nh * nw)

    grid = parabolic.TimeGrid(T=4.0, nt=16, sigma=4.0)
    hops = parabolic.HeatOperators(m, dec, 1.0, grid)
    for s in range(20):
        rng = np.random.default_rng(3000 + s)
        phi = rng.standard_normal(m.n_nodes)
        om = rng.standard_normal(m.n_nodes)
        phi[m.boundary_mask] = 0.0
        om[m.boundary_mask] = 0.0
        np_ = np.sqrt(fem.inner_product(phi, phi, hops.lumped))
        no = np.sqrt(fem.inner_product(om, om, hops.lumped))
        F = hops.forward_global(phi)
        B = hops.adjoint_global(om)
        for k in range(grid.nt + 1):
            track(fem.inner_product(F[k], om, hops.lumped),
                  fem.inner_product(phi, B[grid.nt - k], hops.lumped),
                  np_ * no)
        i = 0
        loc = hops.locals[i]
        phib, omb = phi[loc.nodes], om[loc.nodes]
        Fl = hops.forward_boxes([i], [phib])[0]
        Bl = hops.adjoint_local(i, omb)
        lump = hops.lumped[loc.nodes]
        for k in range(grid.nt + 1):
            track(fem.inner_product(Fl[k], omb, lump),
                  fem.inner_product(phib, Bl[grid.nt - k], lump),
                  np_ * no)

    ok = worst <= 1e-9
    assert _report(5, "adjoint identities", ok,
                   f"worst normalized defect {worst:.2e} (bound 1e-9)")


def test_criterion_6_closed_form_minimizer_optimality():
    rng = np.random.default_rng(99)
    worst = np.inf
    cases = [
        (problems.make_problem(CAT["5.3"], 7, seed=0), dd.DDConfig(beta=1e-3)),
        (problems.make_problem(CAT["5.1"], 14, seed=0), dd.DDConfig(beta=1e-4)),
        (problems.make_problem(CAT["5.6"], 7, seed=0, nt=12),
         dd.DDConfig(beta=5e-5)),
    ]
    for prob, cfg in cases:
        comps = prob.split(rng.standard_normal(prob.ops.mesh.n_nodes))
        seed_solution = prob.ops.forward_global(dd.total_component(comps))
        traces = [seed_solution[..., nodes].copy()
                  for nodes in prob.trace_nodes]
        for i in range(4):
            if not prob.supports[i].any():
                continue
            anchor = comps[i].copy()
            star = prob.local_minimize([i], comps, [traces[i]], cfg)[0]
            best = list(comps)
            best[i] = star
            j_star = local_surrogate(prob, i, best, traces[i], anchor, cfg)
            for t in range(20):
                v = rng.standard_normal(prob.ops.mesh.n_nodes)
                v[~prob.supports[i]] = 0.0
                v *= 1e-3 / prob.param_norm(v)
                trial = list(comps)
                trial[i] = star + (v if t % 2 == 0 else -v)
                j_trial = local_surrogate(prob, i, trial, traces[i], anchor,
                                          cfg)
                worst = min(worst, j_trial - j_star)
    ok = worst > 0.0
    assert _report(6, "closed-form minimizer optimality", ok,
                   f"smallest perturbation increase {worst:.2e} (must be > 0)")


def test_criterion_7_objective_gap_to_global_minimizer():
    beta = 1e-3
    prob = problems.make_problem(CAT["5.3"], 7, seed=0, delta=0.0)
    n = prob.ops.mesh.n_nodes
    lump = prob.ops.lumped
    forward = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        forward[:, j] = prob.ops.forward_global(e)
    normal = forward.T @ (lump[:, None] * forward) + beta * np.diag(lump)
    rhs = forward.T @ (lump * prob.z)
    star, info = spla.cg(spla.aslinearoperator(normal), rhs,
                         rtol=1e-10, atol=0.0, maxiter=20000)
    assert info == 0
    cfg = dd.DDConfig(beta=beta, eps1=1e-12, max_iter=200,
                      target_rel_error=None)
    state, report = dd.run_msa(prob, cfg)
    j_dd = report.rows[-1]["objective"]
    j_star = prob.objective(star, cfg)
    gap = prob.param_norm(state.iterate - star) / prob.param_norm(star)
    ok = j_dd <= 1.02 * j_star
    assert _report(7, "objective gap to global minimizer", ok,
                   f"J_dd/J* = {j_dd / j_star:.6f} (bound 1.02), "
                   f"parameter gap {gap:.2e}")


@pytest.mark.parametrize("algorithm, j_min, at, j_200", [
    ("msa", 1.0683, 40, 1.2334), ("asa", 1.0681, 81, 1.1932)])
def test_characterization_flux_objective_gap_to_global_minimizer(
        algorithm, j_min, at, j_200):
    # A characterization, not a bound: with the stop rules off, the flux
    # loops pass near the minimizer of the discrete functional and then
    # drift away from it (README, "Flux runs rely on the error-target
    # stop").  A change that explains or removes the drift moves these
    # numbers on purpose.
    spec = CAT["5.1"]
    prob = problems.make_problem(spec, 14, seed=0)
    ops = prob.ops
    gamma1, n = ops.gamma1_nodes, ops.mesh.n_nodes
    forward = np.zeros((n, gamma1.size))
    for k, j in enumerate(gamma1):
        e = np.zeros(n)
        e[j] = 1.0
        forward[:, k] = ops.forward_global(e)
    b0 = ops.bmass0.toarray()
    normal = (forward.T @ b0 @ forward
              + spec.beta * ops.bmass1.toarray()[np.ix_(gamma1, gamma1)])
    star = np.zeros(n)
    star[gamma1] = np.linalg.solve(normal, forward.T @ (b0 @ prob.z))
    cfg = dd.DDConfig(beta=spec.beta, eps1=1e-300, max_iter=200,
                      target_rel_error=None)
    runner = dd.run_msa if algorithm == "msa" else dd.run_asa
    _, report = runner(prob, cfg)
    j_star = prob.objective(star, cfg)
    ratios = [row["objective"] / j_star for row in report.rows]
    assert report.n_iterations == 200
    assert min(ratios) == pytest.approx(j_min, abs=5e-5)
    assert 1 + int(np.argmin(ratios)) == at
    assert ratios[-1] == pytest.approx(j_200, abs=5e-5)


def test_criterion_8_discretization_orders():
    lam = np.pi ** 2 * 1.25
    errors = []
    for nx in (7, 14, 28):
        m = mesh.build_mesh(nx, 2 * nx)
        K = fem.assemble(m, 1.0, 1.0)
        x, y = m.nodes.T
        ustar = np.sin(np.pi * x) * np.sin(np.pi * y / 2)
        bnd = np.flatnonzero(m.boundary_mask)
        system = fem.DirichletSystem([(K, bnd, m.nodes)])
        u = system.solution(fem.lumped_mass(m) * (lam + 1.0) * ustar,
                            np.zeros(bnd.size), tol=1e-12)
        d = u - ustar
        errors.append(np.sqrt(fem.inner_product(d, d, fem.lumped_mass(m))))
    space_ratios = [errors[0] / errors[1], errors[1] / errors[2]]

    m = mesh.build_mesh(7, 14)
    dec = mesh.build_subdomains(m)
    x, y = m.nodes.T
    phi = np.sin(np.pi * x) * np.sin(np.pi * y / 2)
    lump = fem.lumped_mass(m)

    def final(nt):
        grid = parabolic.TimeGrid(T=0.5, nt=nt, sigma=0.5)
        ops = parabolic.HeatOperators(m, dec, 1.0, grid, tol=1e-13)
        return ops.forward_global(phi)[-1]

    ref = final(2048)
    terr = []
    for nt in (16, 32):
        d = final(nt) - ref
        terr.append(np.sqrt(fem.inner_product(d, d, lump)))
    time_ratio = terr[0] / terr[1]
    ok = (all(4 * 0.85 <= r <= 4 * 1.15 for r in space_ratios)
          and 4 * 0.8 <= time_ratio <= 4 * 1.2)
    assert _report(8, "discretization orders", ok,
                   f"space ratios {space_ratios[0]:.2f}, {space_ratios[1]:.2f} "
                   f"(4 +/- 15%); time ratio {time_ratio:.2f} (4 +/- 20%)")


def test_criterion_9_accumulation_equals_quadrature_of_solves():
    m = mesh.build_mesh(7, 14)
    dec = mesh.build_subdomains(m)
    grid = parabolic.TimeGrid(T=4.0, nt=16, sigma=4.0)
    ops = parabolic.HeatOperators(m, dec, 1.0, grid)
    rng = np.random.default_rng(77)
    r = rng.standard_normal((grid.nt + 1, m.n_nodes))
    w = grid.weights()
    worst = 0.0
    for i in range(4):
        r_box = r[:, ops.locals[i].nodes]
        acc = ops.back_boxes([i], [r_box])[0]
        naive = np.zeros(r_box.shape[1])
        for k in range(grid.nt + 1):
            adj = ops.adjoint_local(i, r_box[k])
            naive += w[k] * adj[grid.nt - k]
        worst = max(worst, np.abs(acc - naive).max() / np.abs(naive).max())
    ok = worst <= 1e-8
    assert _report(9, "single-sweep adjoint accumulation", ok,
                   f"worst relative deviation {worst:.2e} (bound 1e-8)")


def test_criterion_10_run_determinism(tmp_path):
    args = ["--experiment", "5.3", "--algorithm", "msa", "--nx", "7",
            "--seed", "0"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("table.csv", "history.csv", "profile.csv"))
    assert _report(10, "byte-identical reruns", same,
                   "table.csv, history.csv, profile.csv compared bytewise")
