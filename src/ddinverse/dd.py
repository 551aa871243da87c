"""Overlapping Schwarz iterations with closed-form local updates.

Both loops alternate between explicit local quadratic minimizations on the
overlapping subdomains and an exchange of Dirichlet values on the inner
boundaries:

* the multiplicative sweep visits the subdomains in order, reusing the
  freshest neighbour components and pushing each new local solution onto the
  inner boundaries of later subdomains it covers;
* the additive sweep solves all local minimizations from the same state,
  blends the result with the previous iterate through a relaxation weight,
  and re-splits the iterate with the partition of unity.

After either sweep the inner boundary values are replaced by the average of
the local solutions over the open subdomains containing each node.  A single
global solve seeds the inner boundary values at start-up; every other solve
in the loop is subdomain-local.

The closed-form updates come from augmenting each local misfit functional
with A*||component - anchor||^2 minus the corresponding propagated norm;
whenever A dominates the squared norm of the local forward map the augmented
functional majorizes the local one, and its minimizer is explicit.  With the
lumped volume products used throughout, these formulas are the exact
minimizers of the discrete functionals, which the test-suite checks by
direct evaluation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import fem
from .mesh import flux_support

logger = logging.getLogger(__name__)


@dataclass
class DDConfig:
    """Parameters of the Schwarz loops.

    beta is the regularization weight; A the surrogate constant; lam the
    additive relaxation weight; eps1 the successive-iterate stopping
    threshold (None picks 1e-4 times the first increment); target_rel_error
    stops as soon as the reconstruction error against the known exact
    parameter drops below it (table protocol; None disables).
    """

    beta: float
    A: float = 1.0
    lam: float = 0.5
    eps1: float | None = None
    max_iter: int = 200
    target_rel_error: float | None = 0.1

    def __post_init__(self):
        if self.A <= 0:
            raise ValueError("surrogate constant A must be positive")
        if self.beta <= 0:
            raise ValueError("regularization weight beta must be positive")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("relaxation weight must lie in (0, 1)")
        if self.eps1 is not None and self.eps1 <= 0:
            raise ValueError("eps1 must be positive when given")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class DDState:
    """Final iteration state: per-subdomain components, inner-boundary
    values and the assembled iterate."""

    components: list
    traces: list
    iterate: np.ndarray


@dataclass
class IterationReport:
    """Outcome of a Schwarz loop.  reason is why it stopped:
    "target_rel_error" or "increment" (converged), "max_iter", or
    "non_finite" (the increment or objective overflowed)."""

    algorithm: str
    converged: bool
    reason: str
    rows: list
    solve_calls: int = 0

    @property
    def n_iterations(self) -> int:
        return len(self.rows)

    def to_csv(self) -> str:
        lines = ["iter,increment_norm,rel_error,objective"]
        for row in self.rows:
            rel = row["rel_error"]
            rel_txt = "" if not math.isfinite(rel) else f"{rel:.6g}"
            lines.append(
                f"{row['iter']},{row['increment_norm']:.6g},{rel_txt},"
                f"{row['objective']:.6g}"
            )
        return "\n".join(lines) + "\n"


def total_component(components) -> np.ndarray:
    out = components[0].copy()
    for c in components[1:]:
        out += c
    return out


def relax_combination(new_components, previous, lam) -> np.ndarray:
    """Additive step-2 blend: lam * sum of new components + (1-lam) * previous."""
    return lam * total_component(new_components) + (1.0 - lam) * previous


def update_traces(problem, solutions) -> list:
    """Replace inner-boundary values by the multiplicity-weighted average of
    the local solutions over the open subdomains containing each node.

    Trace nodes on the outer boundary (present only in the closure sets used
    by the flux problem) fall back to averaging over the closed subdomains
    other than the owner.  A trace node covered by no subdomain violates the
    decomposition invariants and raises.
    """
    dec = problem.decomp
    nsub = dec.n_subdomains
    new = []
    for i, nodes in enumerate(problem.trace_nodes):
        counts = dec.multiplicity[nodes].astype(float)
        acc = np.zeros(solutions[0][..., nodes].shape)
        for j in range(nsub):
            memb = dec.interior_masks[j][nodes]
            if memb.any():
                acc[..., memb] += solutions[j][..., nodes[memb]]
        vals = np.zeros_like(acc)
        covered = counts > 0
        vals[..., covered] = acc[..., covered] / counts[covered]
        rim = np.flatnonzero(~covered)
        if rim.size:
            rim_nodes = nodes[rim]
            ccount = np.zeros(rim.size)
            cacc = np.zeros(acc[..., rim].shape)
            for j in range(nsub):
                if j == i:
                    continue
                memb = dec.masks[j][rim_nodes]
                if memb.any():
                    cacc[..., memb] += solutions[j][..., rim_nodes[memb]]
                    ccount[memb] += 1.0
            if np.any(ccount == 0):
                raise RuntimeError(
                    "inner-boundary node is covered by no other subdomain; "
                    "decomposition invariant violated")
            vals[..., rim] = cacc / ccount
        new.append(vals)
    return new


def _push_selectors(problem):
    dec = problem.decomp
    nsub = dec.n_subdomains
    return [
        [dec.interior_masks[i][problem.trace_nodes[j]] for j in range(nsub)]
        for i in range(nsub)
    ]


def _msa_sweep(problem, config, components, traces, push):
    """One multiplicative sweep; mutates copies and returns them."""
    nsub = problem.decomp.n_subdomains
    components = [c.copy() for c in components]
    traces = [t.copy() for t in traces]
    for i in range(nsub):
        components[i] = problem.local_minimize(
            i, components, components[i], traces[i], config)
        local = problem.local_solution(i, total_component(components), traces[i])
        for j in range(i + 1, nsub):
            sel = push[i][j]
            if sel.any():
                traces[j][..., sel] = local[..., problem.trace_nodes[j][sel]]
    return components, traces


def _run(problem, config, initial, algorithm):
    nsub = problem.decomp.n_subdomains
    push = _push_selectors(problem)

    start = problem.default_initial() if initial is None else np.asarray(initial, float)
    components = problem.split(start)
    iterate = total_component(components)
    seed_solution = problem.global_solution(iterate)
    traces = [seed_solution[..., nodes].copy() for nodes in problem.trace_nodes]

    rows = []
    eps1 = config.eps1
    converged = False
    reason = "max_iter"
    solves0 = problem.solve_calls()

    for it in range(1, config.max_iter + 1):
        previous = iterate
        if algorithm == "msa":
            components, traces = _msa_sweep(problem, config, components,
                                             traces, push)
            iterate = total_component(components)
        else:
            fresh = [
                problem.local_minimize(i, components, components[i], traces[i], config)
                for i in range(nsub)
            ]
            iterate = relax_combination(fresh, previous, config.lam)
            components = fresh
        increment = problem.param_norm(iterate - previous)
        rel = problem.rel_error(iterate)
        obj = problem.objective(iterate, config)
        rows.append({"iter": it, "increment_norm": increment,
                     "rel_error": rel, "objective": obj})
        if not (math.isfinite(increment) and math.isfinite(obj)):
            reason = "non_finite"
            break
        if eps1 is None:
            eps1 = 1e-4 * increment
        if (config.target_rel_error is not None and math.isfinite(rel)
                and rel <= config.target_rel_error):
            converged = True
            reason = "target_rel_error"
            break
        if increment <= eps1:
            converged = True
            reason = "increment"
            break
        if it == config.max_iter:
            break
        solutions = [problem.local_solution(i, iterate, traces[i])
                     for i in range(nsub)]
        traces = update_traces(problem, solutions)
        if algorithm == "asa":
            components = problem.split(iterate)

    if algorithm == "asa":
        components = problem.split(iterate)
    state = DDState(components=components, traces=traces, iterate=iterate)
    report = IterationReport(algorithm=algorithm, converged=converged,
                             reason=reason, rows=rows,
                             solve_calls=problem.solve_calls() - solves0)
    return state, report


def run_msa(problem, config: DDConfig, initial=None):
    """Multiplicative (sequential) Schwarz loop."""
    return _run(problem, config, initial, "msa")


def run_asa(problem, config: DDConfig, initial=None):
    """Additive (simultaneous, relaxed) Schwarz loop."""
    return _run(problem, config, initial, "asa")


@dataclass
class SurrogateCheck:
    estimate: float
    bound: float
    ok: bool
    iterations: int


def check_surrogate_constant(problem, config: DDConfig, *, max_iter=200,
                             rtol=1e-6, seed=0) -> SurrogateCheck:
    """Estimate the squared norm of the forward map by power iteration on its
    normal operator and compare against the surrogate bound.

    A too-small constant is reported with a warning, not an error: the loops
    still run, they just lose the majorization guarantee.
    """
    rng = np.random.default_rng(seed)
    v = problem.random_param(rng)
    nrm = problem.param_norm(v)
    estimate = 0.0
    iterations = 0
    if nrm > 0:
        v = v / nrm
        for iterations in range(1, max_iter + 1):
            w = problem.surrogate_normal_apply(v)
            new_estimate = problem.param_inner(v, w)
            wn = problem.param_norm(w)
            if wn == 0.0:
                estimate = 0.0
                break
            v = w / wn
            if abs(new_estimate - estimate) <= rtol * max(abs(new_estimate), 1e-300):
                estimate = new_estimate
                break
            estimate = new_estimate
    bound = config.A * problem.surrogate_scale
    ok = bound >= estimate
    if not ok:
        logger.warning(
            "surrogate constant %.3g scaled to %.3g does not dominate the "
            "estimated squared operator norm %.3g", config.A, bound, estimate)
    return SurrogateCheck(estimate=estimate, bound=bound, ok=ok,
                          iterations=iterations)


class _InversionBase:
    """Shared plumbing of the three inversion adapters.

    The defaults fit the volume parameters (source, initial temperature):
    components live on the open-subdomain node sets, inner-boundary values
    on the interfaces, and parameters are paired with the lumped mass.
    """

    def __init__(self, ops, z0, exact=None, initial_value=0.0):
        self.ops = ops
        self.decomp = ops.decomp
        self.z0 = np.asarray(z0, dtype=float)
        self.exact = None if exact is None else np.asarray(exact, dtype=float)
        self.initial_value = float(initial_value)
        self.weight = ops.lumped
        self.supports = list(self.decomp.interior_masks)
        self.trace_nodes = list(self.decomp.interfaces)
        self.box_weight = [loc.embed(loc.lumped) for loc in ops.locals]
        self.surrogate_scale = 1.0

    def solve_calls(self):
        return self.ops.solve_count

    def param_inner(self, u, v) -> float:
        return fem.inner_product(u, v, self.weight)

    def param_norm(self, v) -> float:
        return math.sqrt(max(self.param_inner(v, v), 0.0))

    def rel_error(self, param) -> float:
        if self.exact is None:
            return float("nan")
        return self.param_norm(param - self.exact) / self.param_norm(self.exact)

    def split(self, param) -> list:
        """Components of param: the partition of unity restricted to each
        support.  On the right side, where the flux supports lie, chi is
        one over the number of closed boxes containing the node."""
        comps = []
        for i in range(self.decomp.n_subdomains):
            c = self.decomp.chi[i] * param
            c[~self.supports[i]] = 0.0
            comps.append(c)
        return comps

    def default_initial(self) -> np.ndarray:
        out = np.zeros(self.ops.mesh.n_nodes)
        out[self.decomp.multiplicity > 0] = self.initial_value
        return out

    def random_param(self, rng) -> np.ndarray:
        v = rng.standard_normal(self.ops.mesh.n_nodes)
        v[self.decomp.multiplicity == 0] = 0.0
        return v

    def global_solution(self, param, warm="obj"):
        return self.ops.forward_global(param, warm=warm)

    def _local_update(self, i, components, anchor, config, propagate,
                      back_project):
        """Closed-form minimizer of the augmented local functional of box i.

        With a the anchor, n the sum of the other components, F = `propagate`
        the local forward map with the current inner-boundary values and
        B = `back_project` the adjoint of its zero-trace part, the minimizer
        is (s a + B(z0 - F(n + a)) - beta n) / (s + beta) on the support of
        box i and zero elsewhere, with s = A * surrogate_scale.
        """
        s = config.A * self.surrogate_scale
        neighbours = total_component([components[j]
                                      for j in range(len(components)) if j != i])
        back = back_project(self.z0 - propagate(neighbours + anchor))
        out = np.zeros_like(anchor)
        sup = self.supports[i]
        out[sup] = (s * anchor[sup] + back[sup]
                    - config.beta * neighbours[sup]) / (s + config.beta)
        return out


class SourceInversion(_InversionBase):
    """Volume-source identification wired for the Schwarz loops.

    Components live on the open-subdomain node sets; inner-boundary values
    are Dirichlet data for the local solves.  The back-projection of the
    local update is the same local solve with zero trace (the operator is
    self-adjoint in the lumped product).
    """

    kind = "source"

    def local_solution(self, i, param, trace):
        return self.ops.forward_local(i, param, trace, warm="sweep")

    def local_minimize(self, i, components, anchor, trace, config):
        return self._local_update(
            i, components, anchor, config,
            lambda f: self.ops.forward_local(i, f, trace, warm="min"),
            lambda r: self.ops.forward_local(i, r, None, warm="res"))

    def objective(self, param, config) -> float:
        u = self.global_solution(param)
        d = u - self.z0
        return (fem.inner_product(d, d, self.weight)
                + config.beta * self.param_inner(param, param))

    def local_surrogate(self, i, components, trace, anchor, config) -> float:
        """Direct evaluation of the augmented local functional (test oracle)."""
        w = self.box_weight[i]
        tot = total_component(components)
        u = self.ops.forward_local(i, tot, trace)
        d = u - self.z0
        value = fem.inner_product(d, d, w)
        value += config.beta * fem.inner_product(tot, tot, w)
        diff = components[i] - anchor
        value += config.A * fem.inner_product(diff, diff, w)
        ud = self.ops.forward_local(i, diff, None)
        value -= fem.inner_product(ud, ud, w)
        return value

    def surrogate_normal_apply(self, v) -> np.ndarray:
        return self.ops.forward_global(self.ops.forward_global(v, warm=None),
                                       warm=None)


class FluxInversion(_InversionBase):
    """Boundary-flux identification wired for the Schwarz loops.

    Components live on the right-side node sets of the subdomains that reach
    x = 1; the misfit is measured on the rest of the boundary.  Inner
    boundary values are carried on the interface closures so the local
    mixed solves reproduce restrictions of global solves exactly.  The
    back-projection of the local update is the local adjoint solve.
    """

    kind = "flux"

    def __init__(self, ops, z0, exact=None, initial_value=0.0):
        super().__init__(ops, z0, exact, initial_value)
        self.weight = ops.bmass1
        self.supports = []
        for nodes in flux_support(ops.mesh, ops.decomp):
            mask = np.zeros(ops.mesh.n_nodes, dtype=bool)
            mask[nodes] = True
            self.supports.append(mask)
        self.trace_nodes = list(self.decomp.interface_closures)
        self._warned_empty = False

    def default_initial(self) -> np.ndarray:
        out = np.zeros(self.ops.mesh.n_nodes)
        out[self.ops.gamma1_nodes] = self.initial_value
        return out

    def local_solution(self, i, param, trace):
        return self.ops.forward_local(i, param, trace, warm="sweep")

    def local_minimize(self, i, components, anchor, trace, config):
        # A box without flux support runs no solve: its component stays zero.
        if not self.supports[i].any():
            if not self._warned_empty:
                logger.info("subdomain %d carries no flux support; its "
                            "component stays zero", i)
                self._warned_empty = True
            return components[i].copy()
        return self._local_update(
            i, components, anchor, config,
            lambda h: self.ops.forward_local(i, h, trace, warm="min"),
            lambda r: self.ops.adjoint_local(i, r, None, warm="res"))

    def objective(self, param, config) -> float:
        u = self.global_solution(param)
        d = u - self.z0
        return (fem.inner_product(d, d, self.ops.bmass0)
                + config.beta * self.param_inner(param, param))

    def local_surrogate(self, i, components, trace, anchor, config) -> float:
        loc = self.ops.locals[i]
        b0 = self.ops.bmass0_loc[i]
        b1 = self.ops.bmass1_loc[i]
        tot = total_component(components)
        u = self.ops.forward_local(i, tot, trace)
        d = (u - self.z0)[loc.nodes]
        value = fem.inner_product(d, d, b0) if b0 is not None else 0.0
        if b1 is not None:
            t = tot[loc.nodes]
            value += config.beta * fem.inner_product(t, t, b1)
            diff = (components[i] - anchor)[loc.nodes]
            value += config.A * fem.inner_product(diff, diff, b1)
        ud = self.ops.forward_local(i, components[i] - anchor, None)
        if b0 is not None:
            udl = ud[loc.nodes]
            value -= fem.inner_product(udl, udl, b0)
        return value

    def random_param(self, rng) -> np.ndarray:
        v = np.zeros(self.ops.mesh.n_nodes)
        v[self.ops.gamma1_nodes] = rng.standard_normal(
            self.ops.gamma1_nodes.size)
        return v

    def surrogate_normal_apply(self, v) -> np.ndarray:
        u = self.ops.forward_global(v, warm=None)
        adj = self.ops.adjoint_volume(u, warm=None)
        out = np.zeros_like(adj)
        out[self.ops.gamma1_nodes] = adj[self.ops.gamma1_nodes]
        return out


class InitialValueInversion(_InversionBase):
    """Initial-temperature identification wired for the Schwarz loops.

    Solutions are space-time trajectories; inner-boundary values are carried
    per time level.  The local update matches the stationary one with the
    surrogate constant scaled by the observation-window length and the
    residual fed through the weighted backward accumulation.
    """

    kind = "initial_value"

    def __init__(self, ops, z0, exact=None, initial_value=0.0):
        super().__init__(ops, z0, exact, initial_value)
        self.surrogate_scale = ops.grid.sigma

    def solve_calls(self):
        return self.ops.step_count

    def global_solution(self, param, warm=None):
        return self.ops.forward_global(param)

    def local_solution(self, i, param, trace):
        return self.ops.forward_local(i, param, trace)

    def local_minimize(self, i, components, anchor, trace, config):
        return self._local_update(
            i, components, anchor, config,
            lambda phi: self.ops.forward_local(i, phi, trace),
            lambda r: self.ops.accumulate(i, r))

    def objective(self, param, config) -> float:
        traj = self.ops.forward_global(param)
        d = traj - self.z0
        w = self.ops.grid.weights()
        misfit = float(np.einsum("k,kn,n,kn->", w, d, self.weight, d))
        return misfit + config.beta * self.param_inner(param, param)

    def local_surrogate(self, i, components, trace, anchor, config) -> float:
        wbox = self.box_weight[i]
        wk = self.ops.grid.weights()
        tot = total_component(components)
        traj = self.ops.forward_local(i, tot, trace)
        d = traj - self.z0
        value = float(np.einsum("k,kn,n,kn->", wk, d, wbox, d))
        value += config.beta * fem.inner_product(tot, tot, wbox)
        diff = components[i] - anchor
        value += (config.A * self.ops.grid.sigma
                  * fem.inner_product(diff, diff, wbox))
        td = self.ops.forward_local(i, diff, None)
        value -= float(np.einsum("k,kn,n,kn->", wk, td, wbox, td))
        return value

    def surrogate_normal_apply(self, v) -> np.ndarray:
        traj = self.ops.forward_global(v)
        return self.ops.accumulate_global(traj)
