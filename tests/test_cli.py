import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ddinverse import cli, fem, problems


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


def _assert_tol_refused(tmp_path, capsys, experiment, nx, tol):
    out = tmp_path / "x"
    code = run_cli(["--experiment", experiment, "--nx", str(nx),
                    f"--tol={tol}", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert err == [f"error: tol must be at least {cli.TOL_FLOOR}, the "
                   "smallest that PCG reaches on every catalog elliptic "
                   f"system, got {float(tol)}"]
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["5.3", "5.6"])
@pytest.mark.parametrize("tol", ["1e-300", "1e-16"])
def test_tol_below_machine_epsilon_exits_1(tmp_path, capsys, experiment, tol):
    # no solve reaches a relative residual below the float64 epsilon: 5.3
    # at nx=7 failed in PCG, while the factored heat systems ignored tol
    _assert_tol_refused(tmp_path, capsys, experiment, 7, tol)


@pytest.mark.parametrize("tol", ["2.3e-16", "5e-16", "1.4e-14"])
def test_tol_below_the_floor_exits_1(tmp_path, capsys, tol):
    # 5.1 at nx=14 exited 2 after solving with tol 2.3e-16 or 5e-16 (a true
    # relative residual of 5.0e-14); 5.1 at nx=112 reaches 1.32e-12 at
    # best, so below 1.3e-14 it fails too, and the floor keeps a margin
    _assert_tol_refused(tmp_path, capsys, "5.1", 14, tol)


def test_tol_at_the_floor_is_accepted(tmp_path):
    # the bound is inclusive
    assert run_cli(["--experiment", "5.1", "--nx", "14",
                    f"--tol={cli.TOL_FLOOR!r}",
                    "--out", str(tmp_path / "x")]) == 0


def test_a_run_the_host_cannot_hold_exits_1(tmp_path, capsys, monkeypatch):
    # the estimate is arithmetic on nx, ny and nt, so nothing is allocated:
    # nx = 700,000 asks for about a petabyte, and a host one byte short of
    # an nx=7 run refuses that run too
    for args in (["--experiment", "5.3", "--nx", "700000"],
                 ["--experiment", "5.6", "--nx", "7", "--nt", "10000000000"]):
        out = tmp_path / "x"
        assert run_cli(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: a run at N=")
        assert "GiB of memory, more than the" in err[0]
        assert not out.exists()
    need = cli._run_bytes(14, 28, problems.DEFAULT_NT)
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    out = tmp_path / "y"
    assert run_cli(["--experiment", "5.6", "--nx", "7", "14",
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip().split("\n") == [
        f"error: a run at N=14, M=28 needs about {need / 2**30:.1f} GiB of "
        f"memory, more than the {(need - 1) / 2**30:.1f} GiB of this host"]
    assert not out.exists()


def _peak_rss(args, out):
    """The peak resident memory, in bytes, of a fresh process that makes
    the CLI run `args` for two iterations: its VmHWM, which, unlike
    ru_maxrss, does not carry the forking process's peak over the exec."""
    script = f"""
import re
from ddinverse import cli
cli.main({args!r} + ["--max-iter", "2", "--out", {str(out)!r}])
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
"""
    return 1024 * int(_last_line_of_fresh_run(script))


@pytest.mark.parametrize("small, large", [
    (("5.3", 7, None), ("5.3", 56, None)),
    (("5.6", 28, 12), ("5.6", 28, 96))])
@pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                    reason="reads the peak from /proc/self/status")
def test_memory_estimate_follows_measured_peaks(tmp_path, small, large):
    # between two small runs, the growth of the peak resident memory is
    # within a factor of 1.5 of the growth of the estimate: about 1 KiB
    # per node from nx=7 to nx=56, 56 bytes per node and time level from
    # nt=12 to nt=96 at nx=28 (6.3 and 7.6 MB measured, 0.98 times the
    # estimate's growth both)
    peaks, estimates = [], []
    for experiment, nx, nt in (small, large):
        args = ["--experiment", experiment, "--algorithm", "asa",
                "--nx", str(nx)] + ([] if nt is None else ["--nt", str(nt)])
        peaks.append(_peak_rss(args, tmp_path / f"{nx}-{nt}"))
        estimates.append(cli._run_bytes(nx, 2 * nx, nt))
    ratio = (peaks[1] - peaks[0]) / (estimates[1] - estimates[0])
    assert 1 / 1.5 <= ratio <= 1.5, (peaks, estimates)


def test_help_names_the_factor_size_rule(monkeypatch, capsys):
    # --tol's help derives the size rule from the fem constants
    monkeypatch.setattr(fem, "FACTOR_SIZE", 1000)
    monkeypatch.setattr(fem, "MAX_BAND_ENTRIES", 1000 * 5)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "fem.FACTOR_SIZE = 1000 free nodes" in text
    assert "fem.MAX_BAND_ENTRIES = 1000 x 5" in text


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
    # to a run.  Heat systems are factored by numpy's LAPACK and every fem
    # matrix is a numpy CSR; only PCG and the multilevel hierarchy load
    # scipy's compiled kernels, alone, as `_sparsetools`, and a heat run not
    # even those.  numpy.random adds 6.2 MB, half of it OpenSSL through
    # secrets and hashlib; the data noise comes from fem.pcg64_random
    # instead.
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


def _missing(name):
    def missing():
        raise ImportError(f"{name} is missing")
    return missing


@pytest.mark.parametrize("routine, experiment, nx", [
    ("_sparsetools", "5.3", "14"), ("_lapack", "5.6", "7")])
def test_missing_compiled_routine_fails_the_run(tmp_path, capsys, monkeypatch,
                                                 routine, experiment, nx):
    # a missing compiled routine fails the run like a solver failure: one
    # error line, the row flagged, exit 2, and no traceback
    monkeypatch.setattr(fem, routine, _missing(routine))
    assert run_cli(["--experiment", experiment, "--algorithm", "msa",
                    "--nx", nx, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: run at N={nx} failed: {routine} is "
                            "missing\n")
    row = captured.out.split(",")
    assert row[:3] == ["msa", nx, str(2 * int(nx))] and row[4:] == ["", "-1\n"]
