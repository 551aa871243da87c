"""Command-line harness for single runs and mesh sweeps.

Writes, per run: table.csv (one summary row: algorithm, N, M, beta, error,
k), history.csv (per-iteration increment, relative error and objective),
profile.csv (exact parameter against reconstruction, one node per row) and
meta.json (the fully resolved configuration).  A sweep over several mesh
sizes nests per-mesh output directories under the output root and aggregates
the table rows.

Exit codes: 0 converged, 1 configuration error (nothing written), 2 a run
hit the iteration cap, turned non-finite, failed in a solver or missed a
compiled routine it loads (partial artifacts kept; the row of a non-finite
or failed run is flagged with an empty error and k = -1).

Numbers in CSV files carry 6 significant digits; identical configurations,
including the seed, reproduce byte-identical files.

--dump-mesh writes the plain-text mesh listing: a line "nodes <count>",
one "id x y" line per node, a line "elements <count>", then one
"id n0 n1 n2" line per triangle (0-based indices, counterclockwise).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dd, fem, problems
from .mesh import build_mesh, dump_mesh

# Every key a config file may set, with its default.
_DEFAULTS = {
    "experiment": None, "algorithm": "msa", "nx": None, "ny": None,
    "beta": None, "delta": None, "A": 1.0, "lambda": 0.5, "seed": 0,
    "tol": 1e-10, "max_iter": 200, "nt": None, "sigma": None,
    "out": "runs", "target_rel_error": 0.1, "eps1": None,
}
# The smallest --tol accepted.  Every catalog elliptic run (5.1-5.5, both
# loops, at their mesh sizes) and 5.1, 5.2 and 5.3 at nx=112 pass PCG's
# true-residual check (fem.TRUE_RESIDUAL_FACTOR) from tol = 1.4e-14 up:
# 5.1 at nx=112 reaches a true relative residual of 1.32e-12 at best, so
# it fails at 1.3e-14.  1.5e-14 leaves that run a margin of 12%.
TOL_FLOOR = 1.5e-14
# A run's peak resident memory: about 32 MiB for the interpreter and
# numpy, 1 KiB per mesh node (0.74-0.86 KiB measured for source and flux
# runs at nx 7-112, 1.1 KiB besides the trajectories for heat), and for heat
# 56 bytes per node and time level, for the trajectories the loops hold
# (54-55 measured at nx 28 and 56, nt 12-192).
_PROCESS_BYTES = 32 * 2**20
_NODE_BYTES = 1024
_LEVEL_BYTES = 56
# The type of every value (of each mesh size for nx): float takes an int
# too, and no type takes a bool.  None passes for the keys that default to
# None and for target_rel_error.
_TYPES = {
    "experiment": str, "algorithm": str, "nx": int, "ny": int,
    "beta": float, "delta": float, "A": float, "lambda": float, "seed": int,
    "tol": float, "max_iter": int, "nt": int, "sigma": float, "out": str,
    "target_rel_error": float, "eps1": float,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ddinverse",
        description="Overlapping Schwarz reconstruction of PDE parameters "
                    "(boundary flux, volume source, initial temperature).")
    p.add_argument("--experiment", help="experiment id, e.g. 5.3")
    p.add_argument("--algorithm", choices=("msa", "asa"))
    p.add_argument("--nx", type=int, nargs="+",
                   help="mesh size(s) N; several values run a sweep. "
                        "M is always 2N (override ny only via --config)")
    p.add_argument("--beta", type=float, help="regularization weight override")
    p.add_argument("--delta", type=float, help="noise level override")
    p.add_argument("--A", type=float, dest="A", help="surrogate constant")
    p.add_argument("--lambda", type=float,
                   help="additive relaxation weight in (0,1)")
    p.add_argument("--seed", type=int, help="noise seed")
    p.add_argument("--tol", type=float,
                   help="relative residual of the PCG solves, at least "
                        f"{TOL_FLOOR} and below 1: every elliptic "
                        "system, and the heat systems with at least "
                        f"fem.FACTOR_SIZE = {fem.FACTOR_SIZE} free nodes or "
                        "whose free nodes times bandwidth exceed "
                        f"fem.MAX_BAND_ENTRIES = {fem.FACTOR_SIZE} x "
                        f"{fem.MAX_BAND_ENTRIES // fem.FACTOR_SIZE} (a wide, "
                        "short mesh set through --config); the other heat "
                        "systems are factored and solved directly")
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--nt", type=int, help="time steps (heat problem)")
    p.add_argument("--sigma", type=float,
                   help="observation window length (heat problem)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="JSON file with the same keys; "
                                    "command-line flags win")
    p.add_argument("--dump-mesh", dest="dump_mesh", metavar="PATH",
                   help="write the plain-text node/element listing of the "
                        "mesh for the given --nx and exit")
    return p


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults, config file and flags (flags win)."""
    cfg = dict(_DEFAULTS)
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ValueError(f"config file {path} does not exist")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}")
        unknown = set(loaded) - set(_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    cfg.update((key, val) for key, val in vars(args).items()
               if key in _DEFAULTS and val is not None)
    if isinstance(cfg["nx"], int):
        cfg["nx"] = [cfg["nx"]]
    return cfg


def _has_type(key: str, value) -> bool:
    if value is None:
        return _DEFAULTS[key] is None or key == "target_rel_error"
    kind = _TYPES[key]
    return (not isinstance(value, bool)
            and isinstance(value, (int, float) if kind is float else kind))


def _validate(cfg: dict) -> None:
    for key, value in cfg.items():
        items = value if key == "nx" and isinstance(value, list) else [value]
        for item in items:
            if not _has_type(key, item):
                raise ValueError(f"{key} must be of type "
                                 f"{_TYPES[key].__name__}, got {item!r}")
    if not 0.0 < cfg["tol"] < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {cfg['tol']}")
    if cfg["tol"] < TOL_FLOOR:  # PCG's true residual cannot reach it
        raise ValueError(f"tol must be at least {TOL_FLOOR}, the smallest "
                         f"that PCG reaches on every catalog elliptic system, "
                         f"got {cfg['tol']}")
    if cfg["delta"] is not None and not 0.0 <= cfg["delta"] < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {cfg['delta']}")
    if cfg["seed"] < 0:
        raise ValueError(f"seed must be at least 0, got {cfg['seed']}")
    catalog = problems.example_catalog()
    if cfg["experiment"] not in catalog:
        raise ValueError(
            f"--experiment must be one of {sorted(catalog)}; "
            f"got {cfg['experiment']!r}")
    if cfg["algorithm"] not in ("msa", "asa"):
        raise ValueError(f"unknown algorithm {cfg['algorithm']!r}")
    if not cfg["nx"]:
        raise ValueError("at least one mesh size --nx is required")
    for n in cfg["nx"] + ([] if cfg["ny"] is None else [cfg["ny"]]):
        if n < 1:
            raise ValueError(f"mesh size must be positive, got {n}")
        if n % 7:
            raise ValueError(
                f"mesh size {n} is not divisible by 7, so the subdomain "
                f"cut lines would not be mesh lines")
    if cfg["ny"] is not None and len(cfg["nx"]) != 1:
        raise ValueError("an explicit ny is only meaningful for a single run")
    heat = catalog[cfg["experiment"]].kind == "initial_value"
    nt = problems.DEFAULT_NT if cfg["nt"] is None else cfg["nt"]
    memory = _physical_memory()
    for nx in cfg["nx"]:
        ny = 2 * nx if cfg["ny"] is None else cfg["ny"]
        need = _run_bytes(nx, ny, nt if heat else None)
        if need > memory:
            raise ValueError(
                f"a run at N={nx}, M={ny} needs about {need / 2**30:.1f} GiB "
                f"of memory, more than the {memory / 2**30:.1f} GiB of this "
                f"host")


def _run_bytes(nx: int, ny: int, nt) -> int:
    """The estimated peak resident memory of a run on the nx x ny mesh, in
    bytes: a heat run with nt time steps, an elliptic run when nt is
    None."""
    per_node = _NODE_BYTES + (0 if nt is None else _LEVEL_BYTES * (nt + 1))
    return _PROCESS_BYTES + (nx + 1) * (ny + 1) * per_node


def _physical_memory() -> int:
    """The host's physical memory in bytes (`os.sysconf`)."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _table_row(algorithm, nx, ny, beta, error, k) -> str:
    err_txt = _fmt(error) if error == error else ""
    return f"{algorithm},{nx},{ny},{_fmt(beta)},{err_txt},{k}"


def _write_profile(path: Path, problem, recon) -> None:
    mesh = problem.ops.mesh
    exact = problem.exact
    if problem.kind == "flux":
        nodes = problem.ops.gamma1_nodes
    else:
        nodes = np.arange(mesh.n_nodes)
    columns = (mesh.nodes[nodes, 0], mesh.nodes[nodes, 1], exact[nodes],
               recon[nodes])
    row = "{:.6g},{:.6g},{:.6g},{:.6g}\n".format
    with path.open("w") as f:
        f.write("x,y,exact,recon\n")
        # The problem is still held here, so the Python floats and strings
        # of the rows add to the peak memory of a run: convert a few
        # thousand rows at a time.
        for start in range(0, nodes.size, 4096):
            f.writelines(map(row, *(c[start:start + 4096].tolist()
                                    for c in columns)))


def _run_one(spec, cfg, config, nx, ny, outdir: Path):
    problem = problems.make_problem(
        spec, nx, ny=ny, seed=cfg["seed"], tol=cfg["tol"],
        delta=cfg["delta"], nt=cfg["nt"], sigma=cfg["sigma"])
    runner = dd.run_msa if cfg["algorithm"] == "msa" else dd.run_asa
    # The loop stops on a non-finite increment or objective and main reports
    # it in one line, so numpy's overflow warnings on the way add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        state, report = runner(problem, config)

    outdir.mkdir(parents=True, exist_ok=True)
    final_err = report.rows[-1]["rel_error"] if report.rows else float("nan")
    k = report.n_iterations
    if report.reason == "non_finite":  # flagged like a solver failure
        final_err, k = float("nan"), -1
    row = _table_row(cfg["algorithm"], nx, ny, config.beta, final_err, k)
    (outdir / "history.csv").write_text(report.to_csv())
    (outdir / "table.csv").write_text(
        "algorithm,N,M,beta,error,k\n" + row + "\n")
    _write_profile(outdir / "profile.csv", problem, state.iterate)
    meta = dict(cfg)
    meta["nx"] = nx
    meta["ny"] = ny
    meta["beta"] = config.beta
    meta["converged"] = report.converged
    meta["stop_reason"] = report.reason
    meta["iterations"] = report.n_iterations
    meta["solve_calls"] = report.solve_calls
    (outdir / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2)
                                      + "\n")
    return report, row


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.dump_mesh:
        if not args.nx or len(args.nx) != 1:
            print("error: --dump-mesh needs exactly one --nx value",
                  file=sys.stderr)
            return 1
        try:
            mesh = build_mesh(args.nx[0], 2 * args.nx[0])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        Path(args.dump_mesh).write_text(dump_mesh(mesh))
        return 0

    try:
        cfg = _resolve(args)
        _validate(cfg)
        spec = problems.example_catalog()[cfg["experiment"]]
        config = dd.DDConfig(
            beta=cfg["beta"] if cfg["beta"] is not None else spec.beta,
            A=cfg["A"], lam=cfg["lambda"], eps1=cfg["eps1"],
            max_iter=cfg["max_iter"],
            target_rel_error=cfg["target_rel_error"])
        if spec.kind == "initial_value":
            problems.time_grid(spec, cfg["nt"], cfg["sigma"])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_root = Path(cfg["out"])
    sweep = len(cfg["nx"]) > 1
    rows = []
    failed = False
    for nx in cfg["nx"]:
        outdir = out_root / f"N{nx}" if sweep else out_root
        ny = 2 * nx if cfg["ny"] is None else cfg["ny"]
        try:
            report, row = _run_one(spec, cfg, config, nx, ny, outdir)
        # a solver failure mid-sweep, or a compiled routine that is missing
        except (ImportError, RuntimeError, ValueError) as exc:
            print(f"error: run at N={nx} failed: {exc}", file=sys.stderr)
            rows.append(_table_row(cfg["algorithm"], nx, ny, config.beta,
                                   float("nan"), -1))
            failed = True
            break
        rows.append(row)
        if not report.converged:
            if report.reason == "non_finite":
                print(f"error: run at N={nx} turned non-finite at iteration "
                      f"{report.n_iterations}", file=sys.stderr)
            else:
                print(f"warning: run at N={nx} stopped at the iteration cap",
                      file=sys.stderr)
            failed = True
            if sweep:
                break
    if sweep:
        out_root.mkdir(parents=True, exist_ok=True)
        (out_root / "table.csv").write_text(
            "algorithm,N,M,beta,error,k\n" + "\n".join(rows) + "\n")
    for row in rows:
        print(row)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
