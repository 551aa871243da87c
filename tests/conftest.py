import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from ddinverse import cli, fem, mesh, problems

# The seed-0 `msa` and `asa` CLI runs at each experiment's smallest catalog
# mesh, as (experiment, algorithm, nx).
CATALOG_RUNS = [(exp, algorithm, min(spec.mesh_sizes))
                for exp, spec in problems.example_catalog().items()
                for algorithm in ("msa", "asa")]


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


@pytest.fixture(scope="session")
def catalog_runs(tmp_path_factory):
    """The CATALOG_RUNS and --dump-mesh at nx=7, made once under
    `sys.setprofile`, for the golden-bytes and the reach checks: `outputs`
    maps each run's name, <experiment>-<algorithm>-n<nx>, to its output
    directory, and `entered` holds the (file, first line) of every code
    object the runs enter."""
    root = tmp_path_factory.mktemp("catalog")
    outputs = {f"{exp}-{algorithm}-n{nx}": root / f"{exp}-{algorithm}-n{nx}"
               for exp, algorithm, nx in CATALOG_RUNS}
    runs = [["--experiment", exp, "--algorithm", algorithm, "--nx", str(nx),
             "--seed", "0", "--out", str(outputs[f"{exp}-{algorithm}-n{nx}"])]
            for exp, algorithm, nx in CATALOG_RUNS]
    runs.append(["--nx", "7", "--dump-mesh", str(root / "mesh.txt")])
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    return SimpleNamespace(outputs=outputs, entered=entered)


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


def gamma0_nodes(m):
    """The nodes of the flux problem's measurement boundary: the left,
    bottom and top sides."""
    return np.unique(np.vstack([m.side_edges(side)
                                for side in ("left", "bottom", "top")]))


def consistent_mass(m):
    """Consistent P1 mass matrix of a mesh: area/12 * (1 + delta_jk) for
    the vertices j, k of each element."""
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    vals = m.element_areas()[:, None, None] * local
    rows = np.repeat(m.elements, 3, axis=1).ravel()
    cols = np.tile(m.elements, (1, 3)).ravel()
    shape = (m.n_nodes, m.n_nodes)
    return sp.coo_matrix((vals.ravel(), (rows, cols)), shape=shape).tocsr()


def scipy_csr(A):
    """A `fem.CSR` (or scipy CSR) matrix as a scipy CSR matrix with the same
    arrays, and a `fem.DIA` as a scipy DIA matrix with the same arrays, for
    the scipy operations the tests compare with."""
    if isinstance(A, fem.DIA):
        return sp.dia_matrix((A.data, A.offsets), shape=A.shape)
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)
