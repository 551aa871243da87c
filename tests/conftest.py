import numpy as np
import pytest
import scipy.sparse as sp

from ddinverse import fem, mesh


@pytest.fixture(scope="session")
def mesh7():
    return mesh.build_mesh(7, 14)


@pytest.fixture(scope="session")
def decomp7(mesh7):
    return mesh.build_subdomains(mesh7)


@pytest.fixture(scope="session")
def mesh14():
    return mesh.build_mesh(14, 28)


@pytest.fixture(scope="session")
def decomp14(mesh14):
    return mesh.build_subdomains(mesh14)


@pytest.fixture
def pcg_iterations(monkeypatch):
    """The iteration count of every `fem.pcg` call made during the test,
    in call order."""
    iterations, pcg = [], fem.pcg

    def counted(*args, **kwargs):
        result = pcg(*args, **kwargs)
        iterations.append(result[2])
        return result

    monkeypatch.setattr(fem, "pcg", counted)
    return iterations


def jacobi(A):
    """The Jacobi preconditioner of A for `fem.pcg`: r -> r / diag(A)."""
    inv_diag = 1.0 / A.diagonal()
    return lambda r, out: np.multiply(inv_diag, r, out=out)


def node_at(m, x, y):
    """Index of the mesh node at (x, y); fails the test if absent."""
    hits = np.flatnonzero(
        (np.abs(m.nodes[:, 0] - x) < 1e-12) & (np.abs(m.nodes[:, 1] - y) < 1e-12))
    assert hits.size == 1, f"no unique node at ({x}, {y})"
    return int(hits[0])


def consistent_mass(m):
    """Consistent P1 mass matrix of a mesh: area/12 * (1 + delta_jk) for
    the vertices j, k of each element."""
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    vals = m.element_areas()[:, None, None] * local
    rows = np.repeat(m.elements, 3, axis=1).ravel()
    cols = np.tile(m.elements, (1, 3)).ravel()
    shape = (m.n_nodes, m.n_nodes)
    return sp.coo_matrix((vals.ravel(), (rows, cols)), shape=shape).tocsr()
