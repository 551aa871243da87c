import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ddinverse import cli, problems


def run_cli(args):
    return cli.main(args)


def test_single_run_artifacts(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["--experiment", "5.1", "--algorithm", "msa",
                    "--nx", "14", "--out", str(out)])
    assert code == 0
    for name in ("table.csv", "history.csv", "profile.csv", "meta.json"):
        assert (out / name).is_file()
    header, row = (out / "table.csv").read_text().strip().split("\n")
    assert header == "algorithm,N,M,beta,error,k"
    fields = row.split(",")
    assert fields[0] == "msa" and fields[1] == "14" and fields[2] == "28"
    assert float(fields[3]) == 1e-4
    k = int(fields[5])
    assert 4 <= k <= 16
    meta = json.loads((out / "meta.json").read_text())
    assert meta["converged"] is True
    assert meta["iterations"] == k
    assert meta["solve_calls"] == 80  # as test_golden pins for 5.1 msa n14


def test_asa_run(tmp_path):
    out = tmp_path / "asa"
    code = run_cli(["--experiment", "5.3", "--algorithm", "asa",
                    "--nx", "7", "--out", str(out)])
    assert code == 0
    row = (out / "table.csv").read_text().strip().split("\n")[1]
    k = int(row.split(",")[-1])
    assert k <= 42  # twice the reference count for this configuration


def test_invalid_mesh_exits_1_without_artifacts(tmp_path):
    out = tmp_path / "bad"
    code = run_cli(["--experiment", "5.3", "--nx", "10", "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_unknown_experiment_exits_1(tmp_path):
    code = run_cli(["--experiment", "9.9", "--nx", "7",
                    "--out", str(tmp_path / "x")])
    assert code == 1


def test_missing_nx_exits_1(tmp_path):
    code = run_cli(["--experiment", "5.3", "--out", str(tmp_path / "x")])
    assert code == 1


def test_sweep_writes_aggregate_table(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli(["--experiment", "5.4", "--algorithm", "msa",
                    "--nx", "7", "14", "28", "--out", str(out)])
    assert code == 0
    lines = (out / "table.csv").read_text().strip().split("\n")
    assert len(lines) == 4
    ks = [int(line.split(",")[-1]) for line in lines[1:]]
    # iteration counts stay nearly flat under refinement
    assert ks[-1] <= 2 * ks[0]
    for a, b in zip(ks, ks[1:]):
        assert b >= a - 1
    for nx in (7, 14, 28):
        assert (out / f"N{nx}" / "history.csv").is_file()


def test_sweep_additive_heat_counts(tmp_path):
    out = tmp_path / "heat"
    code = run_cli(["--experiment", "5.8", "--algorithm", "asa",
                    "--nx", "7", "14", "--out", str(out)])
    assert code == 0
    lines = (out / "table.csv").read_text().strip().split("\n")
    ks = [int(line.split(",")[-1]) for line in lines[1:]]
    # within twice the reference counts for these meshes
    assert ks[0] <= 34 and ks[1] <= 44


def test_sweep_flags_capped_run_and_exits_2(tmp_path):
    out = tmp_path / "capped"
    code = run_cli(["--experiment", "5.3", "--nx", "7", "14",
                    "--max-iter", "2", "--out", str(out)])
    assert code == 2
    lines = (out / "table.csv").read_text().strip().split("\n")
    assert len(lines) == 2  # the sweep stops after the first failing mesh
    assert int(lines[1].split(",")[-1]) == 2


def test_non_finite_run_exits_2(tmp_path, capsys):
    out = tmp_path / "diverged"
    code = run_cli(["--experiment", "5.3", "--algorithm", "msa",
                    "--nx", "7", "--A", "0.01", "--max-iter", "80",
                    "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert err == ["error: run at N=7 turned non-finite at iteration 61"]
    meta = json.loads((out / "meta.json").read_text())
    assert meta["stop_reason"] == "non_finite"
    assert meta["iterations"] == 61
    # flagged like a failed run, not read as a finished one
    assert (out / "table.csv").read_text() == (
        "algorithm,N,M,beta,error,k\nmsa,7,14,0.001,,-1\n")


def test_programming_error_propagates(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken problem factory")

    monkeypatch.setattr(problems, "make_problem", broken)
    with pytest.raises(TypeError):
        run_cli(["--experiment", "5.3", "--nx", "7",
                 "--out", str(tmp_path / "x")])


def test_byte_identical_reruns(tmp_path):
    args = ["--experiment", "5.3", "--algorithm", "msa", "--nx", "7",
            "--seed", "5"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    for name in ("table.csv", "history.csv", "profile.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = {"experiment": "5.3", "algorithm": "asa", "nx": 7, "seed": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    code = run_cli(["--config", str(path), "--algorithm", "msa",
                    "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["algorithm"] == "msa"  # flag beats config file
    assert meta["seed"] == 3


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "5.3", "nx": 7, "buggy": 1}))
    assert run_cli(["--config", str(path), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "0", "1"])
def test_tol_outside_the_unit_interval_exits_1(tmp_path, capsys, tol):
    # with tol nan or inf every PCG solve would return at once, so a run
    # would "converge" on zero solutions
    out = tmp_path / "x"
    code = run_cli(["--experiment", "5.3", "--nx", "7", f"--tol={tol}",
                    "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert err == [f"error: tol must lie in (0, 1), got {float(tol)}"]
    assert not out.exists()


@pytest.mark.parametrize("entry", [
    {"nx": "7"}, {"nx": [7, 14.0]}, {"beta": "1e-3"}, {"tol": "x"},
    {"tol": None}, {"max_iter": 2.5}, {"seed": True}, {"algorithm": ["msa"]}])
def test_config_file_rejects_wrong_types(tmp_path, capsys, entry):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "5.3", "nx": 7, **entry}))
    out = tmp_path / "o"
    assert run_cli(["--config", str(path), "--out", str(out)]) == 1
    key, = entry
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith(f"error: {key} must be ")
    assert not out.exists()


def test_dump_mesh(tmp_path):
    target = tmp_path / "mesh.txt"
    assert run_cli(["--dump-mesh", str(target), "--nx", "7"]) == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "nodes 120"


def test_profile_matches_flux_side(tmp_path):
    out = tmp_path / "p"
    assert run_cli(["--experiment", "5.1", "--nx", "14",
                    "--out", str(out)]) == 0
    lines = (out / "profile.csv").read_text().strip().split("\n")
    assert lines[0] == "x,y,exact,recon"
    assert len(lines) == 1 + 29  # right-side nodes only
    assert all(line.split(",")[0] == "1" for line in lines[1:])


def _last_line_of_fresh_run(script):
    """Run `script` in a fresh interpreter that imports ddinverse from this
    checkout, and return the last line it prints."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().split("\n")[-1]


def test_heat_runs_and_dump_mesh_load_no_scipy(tmp_path):
    # Importing scipy.sparse adds about 22 MB of resident memory and 0.3 s
    # to a run.  Heat systems are factored in numpy and every fem matrix is
    # a numpy CSR; only PCG and the multilevel hierarchy load scipy's
    # compiled kernels, alone, as `_sparsetools`, and a heat run not even
    # those.  numpy.random adds 6.2 MB, half of it OpenSSL through secrets
    # and hashlib; the data noise comes from fem.pcg64_random instead.
    out = str(tmp_path)
    script = f"""
import sys
from ddinverse import cli
for algorithm in ("asa", "msa"):
    assert cli.main(["--experiment", "5.6", "--algorithm", algorithm,
                     "--nx", "7", "--out", {out!r} + "/" + algorithm]) == 0
assert cli.main(["--nx", "7", "--dump-mesh", {out!r} + "/mesh.txt"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
             or m in ("numpy.random", "secrets", "hashlib", "_hashlib",
                      "_sparsetools")))
"""
    assert _last_line_of_fresh_run(script) == "[]"


def test_elliptic_runs_load_no_scipy_package_module(tmp_path):
    # The multilevel hierarchy runs on fem.CSR and fem.DIA through scipy's
    # compiled kernels, loaded alone (0.16 MB): an elliptic run imports
    # neither scipy.sparse nor any other scipy module, nor numpy.random.
    out = str(tmp_path)
    script = f"""
import sys
from ddinverse import cli
for experiment, algorithm in (("5.3", "msa"), ("5.1", "asa")):
    assert cli.main(["--experiment", experiment, "--algorithm", algorithm,
                     "--nx", "28", "--out", {out!r} + "/" + algorithm]) == 0
assert "_sparsetools" in sys.modules  # the runs built a hierarchy
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
             or m == "numpy.random"))
"""
    assert _last_line_of_fresh_run(script) == "[]"


_CYCLE = """
import hashlib
import sys
import numpy as np
from ddinverse import fem, mesh, problems

def cycle():
    # the 5.3 global system at nx=56, a hierarchy of two levels
    spec = problems.example_catalog()["5.3"]
    m = mesh.build_mesh(56, 112)
    K = fem.assemble(m, spec.diffusion, spec.reaction)
    system = fem.DirichletSystem([(K, np.flatnonzero(m.boundary_mask),
                                   m.nodes)])
    assert len(system.multilevel[0].levels) == 2
    z = system.multilevel[0].apply(np.cos(np.arange(system.free.size)))
    return hashlib.sha256(z.tobytes()).hexdigest()
"""


def test_kernels_and_scipy_sparse_in_either_order_give_one_cycle():
    # the kernels loaded alone before scipy.sparse is imported, and
    # scipy.sparse's own module when it is imported first, give the same
    # V-cycle to the bit
    alone_first = _last_line_of_fresh_run(_CYCLE + """
first = cycle()
import scipy.sparse
assert fem._sparsetools() is not sys.modules["scipy.sparse._sparsetools"]
assert cycle() == first
print(first)
""")
    scipy_first = _last_line_of_fresh_run(_CYCLE + """
import scipy.sparse
assert fem._sparsetools() is sys.modules["scipy.sparse._sparsetools"]
print(cycle())
""")
    assert len(alone_first) == 64 and alone_first == scipy_first


def test_runs_leave_scipy_solver_modules_unimported(tmp_path):
    # Importing scipy.linalg adds about 6.8 MB and scipy.sparse.linalg about
    # 10.3 MB of resident memory to a run, more than the 5% (2.9 MB) by which
    # the peak RSS of the heat benchmark may grow; the solvers use
    # numpy.linalg only.  A fresh interpreter shows what a run imports.
    script = f"""
import sys
import numpy as np
import scipy.sparse as sp
from ddinverse import cli, fem
for args in (["--experiment", "5.3", "--nx", "7"],
             ["--experiment", "5.6", "--algorithm", "asa", "--nx", "7"]):
    assert cli.main(args + ["--out", {str(tmp_path)!r}]) == 0
# one system large enough for the multilevel preconditioner
side = np.arange(64.0)
coords = np.column_stack([np.repeat(side, 64), np.tile(side, 64)])
system = fem.DirichletSystem([(sp.identity(4096, format="csr"), [], coords)])
assert system.multilevel is not None and isinstance(
    system.multilevel[0].matrix, fem.DIA)
system.solve(np.ones(4096))
print(sorted(m for m in sys.modules
             if m.startswith(("scipy.linalg", "scipy.sparse.linalg"))))
"""
    assert _last_line_of_fresh_run(script) == "[]"


@pytest.mark.parametrize("args", [
    ["--A", "nan"], ["--A", "inf"], ["--beta", "nan"],
    {"eps1": math.nan}, {"target_rel_error": math.nan},
    {"target_rel_error": -1}])
def test_non_finite_loop_parameters_exit_1(tmp_path, capsys, args):
    # nan passed the old checks (nan <= 0 is false): the run wrote its
    # artifacts and stopped as non-finite with exit code 2
    out = tmp_path / "o"
    if isinstance(args, dict):  # only a config file sets these
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(args))
        args = ["--config", str(path)]
    assert run_cli(["--experiment", "5.3", "--nx", "7", *args,
                    "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and "must be positive and finite" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--delta", "nan"], ["--delta", "inf"], ["--delta", "-1"],
    ["--seed", "-1"], {"ny": 15}, {"ny": 0},
    ["--experiment", "5.6", "--sigma", "nan"],
    ["--experiment", "5.6", "--sigma", "5"],
    ["--experiment", "5.6", "--nt", "0"]])
def test_configuration_errors_exit_1_before_running(tmp_path, capsys, args):
    # configuration errors: rejected before a problem is built, not
    # reported as a failed run (exit 2) or run on meaningless data
    out = tmp_path / "o"
    if isinstance(args, dict):  # only a config file sets ny
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(args))
        args = ["--config", str(path)]
    assert run_cli(["--experiment", "5.3", "--nx", "7", *args,
                    "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_failed_run_row_reports_configured_ny(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("solver breakdown")

    monkeypatch.setattr(problems, "make_problem", failing)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"ny": 21}))
    assert run_cli(["--experiment", "5.3", "--nx", "7", "--config", str(path),
                    "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().out == "msa,7,21,0.001,,-1\n"
