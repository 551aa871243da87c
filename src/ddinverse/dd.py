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

Both loops update through one adapter's `local_minimize` and
`local_solution`, which act on a group of boxes: the multiplicative sweep
passes one box at a time, the additive step and the exchange every box.
The three problems differ only in their operators (`elliptic`,
`parabolic`), which the adapter reads for everything per-problem.

The closed-form updates come from augmenting each local misfit functional
with A*||component - anchor||^2 minus the corresponding propagated norm,
the anchor being the component before the update;
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

logger = logging.getLogger(__name__)


@dataclass
class DDConfig:
    """Parameters of the Schwarz loops.

    beta is the regularization weight; A the surrogate constant; lam the
    additive relaxation weight; eps1 the successive-iterate stopping
    threshold (None picks 1e-4 times the first increment); target_rel_error
    stops as soon as the reconstruction error against the known exact
    parameter drops below it (table protocol; None disables).  A, beta and,
    when given, eps1 and target_rel_error must be positive and finite.
    """

    beta: float
    A: float = 1.0
    lam: float = 0.5
    eps1: float | None = None
    max_iter: int = 200
    target_rel_error: float | None = 0.1

    def __post_init__(self):
        for name, value in (("surrogate constant A", self.A),
                            ("regularization weight beta", self.beta),
                            ("eps1", self.eps1),
                            ("target_rel_error", self.target_rel_error)):
            if value is not None and not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")
        if not 0.0 < self.lam < 1.0:
            raise ValueError("relaxation weight must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class DDState:
    """Final iteration state: per-subdomain components and the assembled
    iterate."""

    components: list
    iterate: np.ndarray


@dataclass
class IterationReport:
    """Outcome of a Schwarz loop.  reason is why it stopped:
    "target_rel_error" or "increment" (converged), "max_iter", or
    "non_finite" (the increment or objective overflowed)."""

    reason: str
    rows: list
    solve_calls: int = 0

    @property
    def converged(self) -> bool:
        return self.reason in ("target_rel_error", "increment")

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

    solutions[j] is the local solution on box j, numbered by the box nodes
    (with leading axes such as time levels).  Trace nodes on the outer
    boundary (present only in the closure sets used by the flux problem)
    fall back to averaging over the closed subdomains other than the owner.
    Which box supplies which trace node is read from `problem.exchange`.
    """
    new = []
    for counts, gathers in problem.exchange:
        acc = np.zeros(np.shape(solutions[0])[:-1] + (counts.size,))
        for j, at, take in gathers:
            acc[..., at] += solutions[j][..., take]
        new.append(acc / counts)
    return new


def _msa_sweep(problem, config, components, traces):
    """One multiplicative sweep; mutates copies and returns them."""
    nsub = problem.decomp.n_subdomains
    components = [c.copy() for c in components]
    traces = [t.copy() for t in traces]
    for i in range(nsub):
        components[i] = problem.local_minimize([i], components,
                                               [traces[i]], config)[0]
        if not problem.push[i]:  # no later box reads this solution
            continue
        local = problem.local_solution([i], total_component(components),
                                       [traces[i]])[0]
        for j, at, take in problem.push[i]:
            traces[j][..., at] = local[..., take]
    return components, traces


def _run(problem, config, initial, algorithm):
    start = problem.default_initial() if initial is None else np.asarray(initial, float)
    components = problem.split(start)
    iterate = total_component(components)
    seed_solution = problem.ops.forward_global(iterate)
    traces = [seed_solution[..., nodes].copy() for nodes in problem.trace_nodes]

    boxes = range(problem.decomp.n_subdomains)
    rows = []
    eps1 = config.eps1
    reason = "max_iter"
    solves0 = problem.ops.solve_count

    for it in range(1, config.max_iter + 1):
        previous = iterate
        if algorithm == "msa":
            components, traces = _msa_sweep(problem, config, components,
                                             traces)
            iterate = total_component(components)
        else:
            fresh = problem.local_minimize(boxes, components, traces,
                                           config)
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
            reason = "target_rel_error"
            break
        if increment <= eps1:
            reason = "increment"
            break
        if it == config.max_iter:
            break
        traces = update_traces(problem,
                               problem.local_solution(boxes, iterate, traces))
        if algorithm == "asa":
            components = problem.split(iterate)

    if algorithm == "asa":
        components = problem.split(iterate)
    state = DDState(components=components, iterate=iterate)
    report = IterationReport(reason=reason, rows=rows,
                             solve_calls=problem.ops.solve_count - solves0)
    return state, report


def run_msa(problem, config: DDConfig, initial=None):
    """Multiplicative (sequential) Schwarz loop."""
    return _run(problem, config, initial, "msa")


def run_asa(problem, config: DDConfig, initial=None):
    """Additive (simultaneous, relaxed) Schwarz loop."""
    return _run(problem, config, initial, "asa")


class _InversionBase:
    """The one inversion adapter of the Schwarz loops.

    Everything that differs between the flux, source and initial-value
    problems lives on the operators `ops`: the per-box parameter supports
    `ops.supports`, the parameter mass `ops.param_mass`, the surrogate
    scale, the back-projection `ops.back_boxes`, the `ops.misfit` of the
    objective and the `ops.solve_count`.  Parameters and components are
    full-length nodal vectors; local solutions are box fields, numbered by
    the box nodes `box_nodes[i]`.  The inner-boundary values of box i live
    on `trace_nodes[i]`, the set its box system `ops.locals[i]` reads them
    on.  The maps that move values between the two (`box_supports`,
    `exchange`, `push`) are computed once here.
    """

    def __init__(self, ops, z, exact=None, initial_value=0.0):
        self.ops = ops
        self.decomp = ops.decomp
        self.z = np.asarray(z, dtype=float)
        self.exact = None if exact is None else np.asarray(exact, dtype=float)
        self.initial_value = float(initial_value)
        if self.exact is not None and not self.param_norm(self.exact) > 0:
            raise ValueError("the exact parameter has zero norm, so the "
                             "relative error is undefined")
        dec = self.decomp
        self.supports = ops.supports
        self.trace_nodes = [loc.nodes[loc.trace_local] for loc in ops.locals]
        self.box_nodes = [loc.nodes for loc in ops.locals]
        self.box_supports = []
        for i, (support, nodes) in enumerate(zip(self.supports,
                                                 self.box_nodes)):
            if support.sum() != support[nodes].sum():
                raise ValueError(f"the support of box {i} leaves the box")
            self.box_supports.append(support[nodes])
        self.exchange = [self._exchange_map(i)
                         for i in range(dec.n_subdomains)]
        # push[i]: for each later box j, the positions of trace j inside
        # open box i and where box i's local solution holds them
        self.push = [[(j, *self._positions(i, j, dec.interior_masks[i][nodes]))
                      for j, nodes in enumerate(self.trace_nodes)
                      if j > i and dec.interior_masks[i][nodes].any()]
                     for i in range(dec.n_subdomains)]
        self._warned_idle = False

    def _positions(self, box, trace, members):
        """The positions of the `members` of trace `trace`'s nodes, and
        their positions in box `box`."""
        at = np.flatnonzero(members)
        return at, np.searchsorted(self.box_nodes[box],
                                   self.trace_nodes[trace][at])

    def _exchange_map(self, i):
        """The averaging of trace i in `update_traces`: the number of boxes
        averaged at each trace node, and for each box j the trace positions
        it supplies, with their positions in box j.  A node in an open box
        takes every open box containing it; a node in none of them (on the
        outer boundary) the closed boxes other than box i."""
        dec = self.decomp
        nodes = self.trace_nodes[i]
        rim = dec.multiplicity[nodes] == 0
        counts = np.zeros(nodes.size)
        gathers = []
        for j in range(dec.n_subdomains):
            members = dec.interior_masks[j][nodes]
            if j != i:
                members |= rim & dec.masks[j][nodes]
            if members.any():
                counts += members
                gathers.append((j, *self._positions(j, i, members)))
        if np.any(counts == 0):
            raise RuntimeError(
                "inner-boundary node is covered by no other subdomain; "
                "decomposition invariant violated")
        return counts, gathers

    def param_inner(self, u, v) -> float:
        return fem.inner_product(u, v, self.ops.param_mass)

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
        comps, chi = [], self.decomp.chi
        for i in range(self.decomp.n_subdomains):
            c = chi[i] * param
            c[~self.supports[i]] = 0.0
            comps.append(c)
        return comps

    def default_initial(self) -> np.ndarray:
        """The initial value on the union of the supports, zero elsewhere."""
        out = np.zeros(self.ops.mesh.n_nodes)
        out[np.logical_or.reduce(self.supports)] = self.initial_value
        return out

    def local_solution(self, boxes, param, traces) -> list:
        """Local solves of param on boxes[k] with inner values traces[k]."""
        return self.ops.forward_boxes(
            boxes, [param[self.box_nodes[i]] for i in boxes], traces)

    def local_minimize(self, boxes, components, traces, config) -> list:
        """Closed-form minimizers of the augmented local functionals of the
        boxes `boxes`, box i anchored at its component components[i], with
        inner-boundary values traces[k] for boxes[k] = i.

        With a the anchor, n the sum of the other components, F the local
        forward map with the current inner-boundary values and B the adjoint
        of its zero-trace part, the minimizer is
        (s a + B(z - F(n + a)) - beta n) / (s + beta) on the support of box
        i and zero elsewhere, with s = A * surrogate_scale.  F is
        `ops.forward_boxes`, and `ops.back_boxes(group, residuals)` maps the
        box residuals z - F(n + a) of a group of boxes to their B.  A box
        without support runs no solve and keeps its component.
        """
        s = config.A * self.ops.surrogate_scale
        boxes = list(boxes)
        traces = dict(zip(boxes, traces))
        group = [i for i in boxes if self.supports[i].any()]
        if len(group) < len(boxes) and not self._warned_idle:
            logger.info("subdomain %d holds none of the parameter's support: "
                        "it runs no local solve and keeps its component",
                        min(set(boxes) - set(group)))
            self._warned_idle = True
        neighbours = {i: total_component([c for j, c in enumerate(components)
                                          if j != i]) for i in group}
        fields = self.ops.forward_boxes(
            group, [(neighbours[i] + components[i])[self.box_nodes[i]]
                    for i in group], [traces[i] for i in group])
        residuals = [self.z[..., self.box_nodes[i]] - u
                     for i, u in zip(group, fields)]
        del fields  # free the local solutions before the back-projection
        updates = {}
        for i, b in zip(group, self.ops.back_boxes(group, residuals)):
            a, n, sup = components[i], neighbours[i], self.supports[i]
            updates[i] = np.zeros_like(a)
            updates[i][sup] = (s * a[sup] + b[self.box_supports[i]]
                               - config.beta * n[sup]) / (s + config.beta)
        return [updates[i] if i in updates else components[i].copy()
                for i in boxes]

    def objective(self, param, config) -> float:
        d = self.ops.forward_global(param) - self.z
        return self.ops.misfit(d) + config.beta * self.param_inner(param, param)


# `bench/run.py` times `local_solution`, `local_minimize` and `objective`
# through `vars(cls)` of each adapter, so each binds them in its own body.
class SourceInversion(_InversionBase):
    """Volume-source identification on `elliptic.SourceOperators`."""

    kind = "source"
    local_solution = _InversionBase.local_solution
    local_minimize = _InversionBase.local_minimize
    objective = _InversionBase.objective


class FluxInversion(_InversionBase):
    """Boundary-flux identification on `elliptic.FluxOperators`."""

    kind = "flux"
    local_solution = _InversionBase.local_solution
    local_minimize = _InversionBase.local_minimize
    objective = _InversionBase.objective


class InitialValueInversion(_InversionBase):
    """Initial-temperature identification on `parabolic.HeatOperators`:
    local solutions are box trajectories, traces are carried per level."""

    kind = "initial_value"
    local_solution = _InversionBase.local_solution
    local_minimize = _InversionBase.local_minimize
    objective = _InversionBase.objective
