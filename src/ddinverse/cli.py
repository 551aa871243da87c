"""Command-line harness for single runs and mesh sweeps.

Writes, per run: table.csv (one summary row: algorithm, N, M, beta, error,
k), history.csv (per-iteration increment, relative error and objective),
profile.csv (exact parameter against reconstruction, one node per row) and
meta.json (the fully resolved configuration).  A sweep over several mesh
sizes nests per-mesh output directories under the output root and aggregates
the table rows.

Exit codes: 0 converged, 1 configuration error (nothing written), 2 a run
hit the iteration cap, turned non-finite or failed in a solver (partial
artifacts kept; the row of a non-finite or failed run is flagged with an
empty error and k = -1).

Numbers in CSV files carry 6 significant digits; identical configurations,
including the seed, reproduce byte-identical files.

--dump-mesh writes the plain-text mesh listing: a line "nodes <count>",
one "id x y" line per node, a line "elements <count>", then one
"id n0 n1 n2" line per triangle (0-based indices, counterclockwise).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dd, problems
from .mesh import build_mesh, dump_mesh

# Every key a config file may set, with its default.
_DEFAULTS = {
    "experiment": None, "algorithm": "msa", "nx": None, "ny": None,
    "beta": None, "delta": None, "A": 1.0, "lambda": 0.5, "seed": 0,
    "tol": 1e-10, "max_iter": 200, "nt": None, "sigma": None,
    "out": "runs", "target_rel_error": 0.1, "eps1": None,
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
    p.add_argument("--lambda", type=float, dest="lam",
                   help="additive relaxation weight in (0,1)")
    p.add_argument("--seed", type=int, help="noise seed")
    p.add_argument("--tol", type=float, help="inner linear-solver tolerance")
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
    flag_map = {
        "experiment": args.experiment, "algorithm": args.algorithm,
        "nx": args.nx, "beta": args.beta, "delta": args.delta, "A": args.A,
        "lambda": args.lam, "seed": args.seed, "tol": args.tol,
        "max_iter": args.max_iter, "nt": args.nt, "sigma": args.sigma,
        "out": args.out,
    }
    for key, val in flag_map.items():
        if val is not None:
            cfg[key] = val
    if isinstance(cfg["nx"], int):
        cfg["nx"] = [cfg["nx"]]
    return cfg


def _validate(cfg: dict) -> None:
    catalog = problems.example_catalog()
    if cfg["experiment"] not in catalog:
        raise ValueError(
            f"--experiment must be one of {sorted(catalog)}; "
            f"got {cfg['experiment']!r}")
    if cfg["algorithm"] not in ("msa", "asa"):
        raise ValueError(f"unknown algorithm {cfg['algorithm']!r}")
    if not cfg["nx"]:
        raise ValueError("at least one mesh size --nx is required")
    for nx in cfg["nx"]:
        if nx < 1:
            raise ValueError(f"mesh size must be positive, got {nx}")
        if nx % 7:
            raise ValueError(
                f"mesh size {nx} is not divisible by 7, so the subdomain "
                f"cut lines would not be mesh lines")
    if cfg["ny"] is not None and len(cfg["nx"]) != 1:
        raise ValueError("an explicit ny is only meaningful for a single run")


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
    lines = ["x,y,exact,recon"]
    for n in nodes:
        x, y = mesh.nodes[n]
        lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(exact[n])},{_fmt(recon[n])}")
    path.write_text("\n".join(lines) + "\n")


def _run_one(spec, cfg, config, nx, outdir: Path):
    problem = problems.make_problem(
        spec, nx, ny=cfg["ny"], seed=cfg["seed"], tol=cfg["tol"],
        delta=cfg["delta"], nt=cfg["nt"], sigma=cfg["sigma"])
    runner = dd.run_msa if cfg["algorithm"] == "msa" else dd.run_asa
    # The loop stops on a non-finite increment or objective and main reports
    # it in one line, so numpy's overflow warnings on the way add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        state, report = runner(problem, config)

    outdir.mkdir(parents=True, exist_ok=True)
    ny = problem.ops.mesh.ny
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_root = Path(cfg["out"])
    sweep = len(cfg["nx"]) > 1
    rows = []
    failed = False
    for nx in cfg["nx"]:
        outdir = out_root / f"N{nx}" if sweep else out_root
        try:
            report, row = _run_one(spec, cfg, config, nx, outdir)
        except (RuntimeError, ValueError) as exc:  # solver failure mid-sweep
            print(f"error: run at N={nx} failed: {exc}", file=sys.stderr)
            rows.append(_table_row(cfg["algorithm"], nx, 2 * nx, config.beta,
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
