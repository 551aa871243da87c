import dataclasses

import numpy as np
import pytest

from ddinverse import problems
from conftest import node_at

CAT = problems.example_catalog()

# Frozen catalog facts: kind, noise level, starting constant, regularization
# weight and mesh list per experiment.
GOLDEN = {
    "5.1": ("flux", 0.05, 1.0, 1e-4, (14, 28, 56)),
    "5.2": ("flux", 0.05, 2.0, 1e-4, (14, 28, 56)),
    "5.3": ("source", 0.01, 0.0, 1e-3, (7, 14, 28, 56)),
    "5.4": ("source", 0.01, 0.0, 1e-3, (7, 14, 28, 56)),
    "5.5": ("source", 0.01, 0.0, 1e-3, (7, 14, 28, 56)),
    "5.6": ("initial_value", 0.02, 0.0, 5e-5, (7, 14, 28)),
    "5.7": ("initial_value", 0.01, 0.0, 5e-5, (7, 14, 28)),
    "5.8": ("initial_value", 0.02, 0.0, 5e-5, (7, 14, 28)),
}


def test_catalog_against_golden_values():
    assert set(CAT) == set(GOLDEN)
    for key, (kind, delta, start, beta, meshes) in GOLDEN.items():
        spec = CAT[key]
        assert spec.kind == kind
        assert spec.delta == delta
        assert spec.initial_guess == start
        assert spec.beta == beta
        assert spec.mesh_sizes == meshes


def test_catalog_exact_parameter_values():
    assert CAT["5.1"].exact(1.0, 1.0) == 1.0
    assert CAT["5.1"].exact(1.0, 0.0) == 0.0
    for y in (0.0, 0.3, 1.2, 2.0):
        assert CAT["5.5"].exact(0.5, y) == 0.0
    assert abs(CAT["5.2"].exact(1.0, 1.0) - (1.0 + 1.0)) < 1e-15
    # the three heat shapes reuse the three source shapes
    assert CAT["5.6"].exact is CAT["5.3"].exact
    assert CAT["5.8"].exact is CAT["5.5"].exact


def test_catalog_coefficients():
    assert CAT["5.3"].diffusion(1.0, 1.0) == 0.02
    assert CAT["5.1"].diffusion == 1.0 and CAT["5.1"].reaction == 1.0
    assert CAT["5.6"].diffusion == 1.0 and CAT["5.6"].T == 4.0


def test_synthesize_noise_free(mesh7, decomp7):
    prob = problems.make_problem(CAT["5.3"], 7, seed=0, delta=0.0)
    # without noise the data are the clean field
    exact = problems.exact_parameter_field(CAT["5.3"], prob.ops)
    clean = prob.ops.forward_global(exact)
    assert np.abs(prob.z - clean).max() < 1e-12


def test_synthesize_deterministic_and_bounded():
    a = problems.make_problem(CAT["5.1"], 14, seed=7)
    b = problems.make_problem(CAT["5.1"], 14, seed=7)
    assert np.array_equal(a.z, b.z)
    c = problems.make_problem(CAT["5.1"], 14, seed=8)
    assert not np.array_equal(a.z, c.z)

    spec = CAT["5.1"]
    prob = problems.make_problem(spec, 14, seed=7, delta=0.0)
    exact = problems.exact_parameter_field(spec, prob.ops)
    u = prob.ops.forward_global(exact)
    assert np.all(np.abs(a.z - u) <= 0.05 * np.abs(u) + 1e-14)


def test_noise_statistics_at_fixed_node():
    draws = np.empty(10_000)
    for seed in range(draws.size):
        rng = np.random.default_rng(seed)
        draws[seed] = rng.uniform(-1.0, 1.0, size=8)[3]
    assert np.all(np.abs(draws) <= 1.0)
    sigma = np.sqrt(1.0 / 3.0)
    assert abs(draws.mean()) <= 3 * sigma / np.sqrt(draws.size)


def test_relative_error_identities():
    for exp, nx in (("5.3", 7), ("5.1", 14), ("5.6", 7)):
        prob = problems.make_problem(CAT[exp], nx, seed=0)
        exact = prob.exact
        assert prob.rel_error(exact) == 0.0
        assert abs(prob.rel_error(np.zeros_like(exact)) - 1.0) < 1e-14
        assert abs(prob.rel_error(1.1 * exact) - 0.1) < 1e-12
        # rel_error divides by the norm of the exact parameter, so a
        # vanishing one is rejected when the problem is built, not in the
        # first iteration
        zero = dataclasses.replace(CAT[exp], exact=lambda x, y: 0 * x)
        with pytest.raises(ValueError, match="zero norm"):
            problems.make_problem(zero, nx, seed=0)


def test_flux_exact_field_lives_on_measured_side():
    prob = problems.make_problem(CAT["5.1"], 14, seed=0)
    off = np.ones(prob.ops.mesh.n_nodes, dtype=bool)
    off[prob.ops.gamma1_nodes] = False
    assert np.all(prob.exact[off] == 0.0)
    k = node_at(prob.ops.mesh, 1.0, 1.0)
    assert prob.exact[k] == 1.0


def test_parabolic_data_has_all_levels():
    prob = problems.make_problem(CAT["5.6"], 7, seed=0, nt=12)
    assert prob.z.shape == (13, prob.ops.mesh.n_nodes)
