#!/usr/bin/env python3
"""Time-to-reconstruction benchmark for the overlapping Schwarz loops.

Runs one workload the way the ``ddinverse`` command does, in-process:
``cli.main`` builds a fresh problem (``problems.make_problem``), runs the
Schwarz loop until the table protocol stops it and writes table.csv,
history.csv and profile.csv.  Every repeat passes a correctness gate.

    env OPENBLAS_NUM_THREADS=1 python3 bench/run.py --workload source-msa-n112 \
        --seed 0 --seconds 55 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries the environment
and every repeat.  With --trace 0 the metrics are the end-to-end ones.  With
--trace 1 untraced and traced repeats alternate and the metrics are the
per-layer split of one traced repeat.  README.md explains the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = {
    # Large local Dirichlet systems (~9k unknowns): bound by floating-point
    # work in fem.pcg.
    "source-msa-n112": {"experiment": "5.3", "algorithm": "msa", "nx": 112},
    # All-Neumann operator, adjoint_local back-projection and the costliest
    # diagnostic objective (one global solve per iteration).
    "flux-msa-n112": {"experiment": "5.1", "algorithm": "msa", "nx": 112},
    # Thousands of Crank-Nicolson steps on ~550 unknowns: bound by per-call
    # overhead; the only workload on parabolic and the additive loop.
    "heat-asa-n28": {"experiment": "5.6", "algorithm": "asa", "nx": 28,
                     "nt": 12},
}

CSV_FILES = ("table.csv", "history.csv", "profile.csv")
MIN_REPEATS = 2       # per mode; the gate compares repeats with each other
SETUP_SHARE = 0.1     # share of the measured time spent on extra setups

END_TO_END = {"run_s": "s", "setup_s": "s", "solve_s": "s",
              "peak_rss_mb": "MB"}
LAYERS = ("cli", "problems", "mesh", "fem", "elliptic", "parabolic", "dd")
# Per-layer metrics: counts and times at each layer boundary, the phases of
# the Schwarz loop and each layer's self time.  The self times of all LAYERS
# add up to trace.run_s.
PER_LAYER = {
    "trace.run_s": "s", "trace.overhead_s": "s",
    "process.cpu_per_wall": "ratio",
    "cli.write_s": "s",
    "problems.synthesize_s": "s", "problems.cold_setup_s": "s",
    "mesh.build_s": "s",
    "fem.assemble_s": "s", "fem.system_init_s": "s",
    "fem.solve.calls": "count", "fem.solve_s": "s", "fem.pcg_s": "s",
    "fem.pcg.iterations": "count", "fem.pcg.iters_per_solve": "count",
    "fem.pcg.us_per_iteration": "us", "fem.pcg.nnz_touched": "nnz_computed",
    "elliptic.forward_local.calls": "count",
    "elliptic.adjoint_local.calls": "count",
    "elliptic.forward_global.calls": "count",
    "parabolic.forward_local.calls": "count",
    "parabolic.accumulate.calls": "count",
    "parabolic.forward_global.calls": "count", "parabolic.steps": "count",
    "dd.propagate_s": "s", "dd.back_s": "s", "dd.exchange_s": "s",
    "dd.objective_s": "s", "dd.iterations": "count",
    "dd.solve_calls": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS
       if layer not in ("elliptic", "parabolic")},
}
# Times of the two operator layers.  Each workload uses only one of them, so
# on the others these read exactly 0 on every run; they are printed with the
# repeats (the line before the result) instead of as metrics.
OPERATOR_TIMES = (
    "elliptic.forward_local_s", "elliptic.adjoint_local_s",
    "elliptic.forward_global_s", "elliptic.self_s",
    "parabolic.forward_local_s", "parabolic.accumulate_s",
    "parabolic.forward_global_s", "parabolic.self_s",
)
# Per-layer values that must repeat exactly: a drift means some state (such
# as a PCG warm start) leaked from one repeat into the next.
COUNTS = ("fem.solve.calls", "fem.pcg.iterations", "dd.iterations",
          "dd.solve_calls", "parabolic.steps")


class LibraryMissing(RuntimeError):
    """The ddinverse sources are not next to the benchmark."""


def load_library() -> SimpleNamespace:
    """Import the ddinverse modules from the src/ tree of this checkout."""
    package = SRC / "ddinverse"
    if not (package / "__init__.py").is_file():
        raise LibraryMissing(f"no ddinverse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("cli", "dd", "elliptic", "fem", "parabolic", "problems")
    lib = SimpleNamespace(**{n: importlib.import_module(f"ddinverse.{n}")
                             for n in names})
    if Path(lib.cli.__file__).resolve().parent != package.resolve():
        raise LibraryMissing(f"ddinverse was imported from "
                             f"{lib.cli.__file__}, not from {package}")
    return lib


# -- tracing -----------------------------------------------------------------

class Tracer:
    """Wraps public callables of the library and records one span per call.

    A span is [name, start, end, parent index, info], where info is what the
    target's hook extracts from the call.  Spans stay in memory; `take`
    hands them over and starts a new list.  Used as a context manager, the
    tracer installs its wrappers on entry and restores the originals on exit.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name, func, hook):
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        for owner, attr, name, hook in self.targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._stack.clear()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def _run_info(args, kwargs, result):
    problem = args[0]
    _, report = result
    return {"k": report.n_iterations, "reason": report.reason,
            "solve_calls": report.solve_calls,
            "steps": getattr(problem.ops, "step_count", 0)}


def _pcg_info(args, kwargs, result):
    return {"iterations": result[2], "nnz": args[0].nnz}


def _trace_info(args, kwargs, result):
    trace = args[3] if len(args) > 3 else kwargs.get("trace")
    return {"zero_trace": trace is None}


def core_targets(lib) -> list:
    """The spans every repeat records: run, setup and solve."""
    return [
        (lib.cli, "main", "cli.main", None),
        (lib.problems, "make_problem", "problems.make_problem", None),
        (lib.dd, "run_msa", "dd.run_msa", _run_info),
        (lib.dd, "run_asa", "dd.run_asa", _run_info),
    ]


def layer_targets(lib) -> list:
    """The spans a traced repeat adds, one per public call into a layer."""
    el, pa, dd, fem = lib.elliptic, lib.parabolic, lib.dd, lib.fem
    targets = [
        (lib.problems, "synthesize_data", "problems.synthesize_data", None),
        (lib.problems, "build_mesh", "mesh.build_mesh", None),
        (lib.problems, "build_subdomains", "mesh.build_subdomains", None),
        (fem, "assemble", "fem.assemble", None),
        (fem.DirichletSystem, "__init__", "fem.system_init", None),
        (fem.DirichletSystem, "solve", "fem.solve", None),
        (fem, "pcg", "fem.pcg", _pcg_info),
        (dd, "update_traces", "dd.update_traces", None),
    ]
    operators = [(el.SourceOperators, "elliptic"),
                 (el.FluxOperators, "elliptic"),
                 (pa.HeatOperators, "parabolic")]
    for cls, layer in operators:
        for method in ("solve_u0", "forward_global", "forward_local",
                       "adjoint_global", "adjoint_local", "adjoint_volume",
                       "accumulate", "accumulate_global"):
            if method in vars(cls):
                hook = _trace_info if method == "forward_local" else None
                targets.append((cls, method, f"{layer}.{method}", hook))
    for cls in (dd.SourceInversion, dd.FluxInversion,
                dd.InitialValueInversion):
        for method in ("local_minimize", "local_solution", "objective"):
            targets.append((cls, method, f"dd.{method}", None))
    return targets


def span_times(spans):
    """Duration and self time (duration minus its children's) per span."""
    durations = [end - start for _, start, end, _, _ in spans]
    children = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        if span[3] is not None:
            children[span[3]] += duration
    return durations, [d - c for d, c in zip(durations, children)]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced repeat.  The ones that compare
    repeats (cold setup, trace overhead, CPU share) are left at 0 here."""
    durations, own = span_times(spans)
    acc = defaultdict(int)
    for span, duration, self_time in zip(spans, durations, own):
        name, _, _, parent, info = span
        info = info or {}  # no hook ran when the call raised
        layer, _, method = name.partition(".")
        acc[f"{layer}.self_s"] += self_time
        acc[f"{name}.calls"] += 1
        acc[f"{name}_s"] += duration
        if name == "fem.pcg" and info:
            acc["fem.pcg.iterations"] += info["iterations"]
            acc["fem.pcg.nnz_touched"] += info["nnz"] * (info["iterations"] + 1)
        elif name.startswith("dd.run_") and info:
            acc["dd.iterations"] = info["k"]
            acc["dd.solve_calls"] = info["solve_calls"]
            acc["parabolic.steps"] = info["steps"]
        if (parent is not None and spans[parent][0] == "dd.local_minimize"
                and layer in ("elliptic", "parabolic")):
            propagate = (method == "forward_local"
                         and not info.get("zero_trace", True))
            acc["dd.propagate_s" if propagate else "dd.back_s"] += duration
    run_s, setup_s, solve_s = _core_times(spans, durations)
    iterations = acc["fem.pcg.iterations"]
    out = {
        "trace.run_s": run_s,
        "cli.write_s": run_s - setup_s - solve_s,
        "problems.synthesize_s": acc["problems.synthesize_data_s"],
        "mesh.build_s": acc["mesh.build_mesh_s"] + acc["mesh.build_subdomains_s"],
        "fem.pcg.iters_per_solve": iterations / max(acc["fem.pcg.calls"], 1),
        "fem.pcg.us_per_iteration": 1e6 * acc["fem.pcg_s"] / max(iterations, 1),
        "dd.exchange_s": acc["dd.local_solution_s"] + acc["dd.update_traces_s"],
    }
    for name in (*PER_LAYER, *OPERATOR_TIMES):
        out.setdefault(name, acc[name])
    return out


def _core_times(spans, durations):
    """run_s, setup_s and solve_s of one repeat from its spans."""
    totals = defaultdict(float)
    for span, duration in zip(spans, durations):
        totals[span[0]] += duration
    return (totals["cli.main"], totals["problems.make_problem"],
            totals["dd.run_msa"] + totals["dd.run_asa"])


# -- one repeat and its correctness gate ------------------------------------

def cli_args(workload: dict, seed: int) -> list:
    args = ["--experiment", workload["experiment"],
            "--algorithm", workload["algorithm"],
            "--nx", str(workload["nx"]), "--seed", str(seed)]
    if "nt" in workload:
        args += ["--nt", str(workload["nt"])]
    return args


def read_result(outdir: Path) -> dict:
    """Stop reason, k and final error (as table.csv prints it) of a run."""
    meta = json.loads((outdir / "meta.json").read_text())
    row = (outdir / "table.csv").read_text().splitlines()[1].split(",")
    return {"reason": meta["stop_reason"], "k": int(row[5]), "error": row[4]}


def check_repeat(code, outdir: Path, reference, first_files):
    """Gate one repeat: exit code 0, stop reason target_rel_error, k and
    error equal to the reference, and the three CSV files byte-identical to
    the first repeat's.  Returns (result, files, list of failures)."""
    failures = [] if code == 0 else [f"exit code {code}"]
    try:
        result = read_result(outdir)
        files = {name: (outdir / name).read_bytes() for name in CSV_FILES}
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return None, None, failures + [f"unreadable output: {exc!r}"]
    if result["reason"] != "target_rel_error":
        failures.append(f"stopped by {result['reason']}")
    if reference is not None:
        for key in ("k", "error"):
            if result[key] != reference[key]:
                failures.append(f"{key} {result[key]} != reference "
                                f"{reference[key]}")
    if first_files is not None and files != first_files:
        failures.append("output files differ from the first repeat")
    return result, files, failures


def run_repeat(lib, argv, outdir: Path, targets):
    """One CLI-equivalent run under a tracer; returns the spans, the exit
    code (None when cli.main raised), captured messages and CPU time."""
    tracer = Tracer(targets)
    messages = StringIO()
    code = None
    cpu0 = time.process_time()
    try:
        with tracer, redirect_stdout(messages), redirect_stderr(messages):
            code = lib.cli.main(argv + ["--out", str(outdir)])
    except Exception:
        messages.write(traceback.format_exc())
    return tracer.take(), code, messages.getvalue(), time.process_time() - cpu0


# -- a measured run ----------------------------------------------------------

def measure(lib, workload: dict, seed: int, seconds: float, trace: bool,
            reference) -> dict:
    """Warm up, then repeat the CLI run for `seconds`.

    Every repeat builds its own problem.  Before each repeat, setup-only
    calls run until they have taken SETUP_SHARE of the time so far, so the
    setup_s sample is large and spread over the run.  In trace mode untraced
    and traced repeats alternate, and traced repeats must agree on every
    count.
    """
    spec = lib.problems.example_catalog()[workload["experiment"]]

    def setup():
        t0 = time.perf_counter()
        lib.problems.make_problem(spec, workload["nx"], seed=seed,
                                  nt=workload.get("nt"))
        return time.perf_counter() - t0

    cold_setup_s = setup()  # the first call in a process can be much slower
    start = time.perf_counter()
    deadline = start + seconds
    setups = []
    plain = core_targets(lib)
    traced = plain + layer_targets(lib)
    cycle = (False, True) if trace else (False,)
    repeats = []
    first_files = None
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT_DIR) as tmp:
        while True:
            setups.append(setup())
            while sum(setups) < SETUP_SHARE * (time.perf_counter() - start):
                setups.append(setup())
            is_traced = cycle[len(repeats) % len(cycle)]
            outdir = Path(tmp) / f"repeat{len(repeats)}"
            spans, code, messages, cpu_s = run_repeat(
                lib, cli_args(workload, seed), outdir,
                traced if is_traced else plain)
            result, files, failures = check_repeat(code, outdir, reference,
                                                   first_files)
            if first_files is None:
                first_files = files
            durations, _ = span_times(spans)
            run_s, setup_s, solve_s = _core_times(spans, durations)
            rep = {"traced": is_traced, "run_s": run_s, "setup_s": setup_s,
                   "solve_s": solve_s, "cpu_s": cpu_s, **(result or {}),
                   "failures": failures}
            if failures:
                rep["messages"] = messages[-2000:]
            if is_traced:
                rep["layers"] = layer_metrics(spans)
                rep["spans"] = spans
            repeats.append(rep)
            done = len(repeats)
            longest = max(r["run_s"] for r in repeats)
            if (done % len(cycle) == 0 and done >= MIN_REPEATS * len(cycle)
                    and time.perf_counter() + longest > deadline):
                break
    setups += [r["setup_s"] for r in repeats if not r["traced"]]
    out = {"repeats": repeats, "cold_setup_s": cold_setup_s,
           "setup_samples": setups,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0}
    if trace:
        _check_traced(repeats)
    return out


def _check_traced(repeats) -> None:
    """Traced repeats must repeat every count exactly, and the layers' self
    times must add up to the traced run time."""
    traced = [r for r in repeats if r["traced"]]
    first = traced[0]["layers"]
    for rep in traced:
        layers = rep["layers"]
        for name in COUNTS:
            if layers[name] != first[name]:
                rep["failures"].append(
                    f"{name} {layers[name]} != {first[name]} of the first "
                    f"traced repeat")
        total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        if abs(total - layers["trace.run_s"]) > 1e-6 * max(layers["trace.run_s"], 1.0):
            rep["failures"].append(f"layer self times sum to {total}, "
                                   f"not to trace.run_s {layers['trace.run_s']}")
        if any(t < -1e-9 for t in span_times(rep["spans"])[1]):
            rep["failures"].append("a span has negative self time")


def _passing(repeats, traced: bool) -> list:
    """The repeats of one mode that passed the gate (all of them when none
    passed)."""
    mode = [r for r in repeats if r["traced"] == traced]
    return [r for r in mode if not r["failures"]] or mode


def median_traced(repeats) -> dict:
    """The traced repeat with the median traced run time (the lower one of
    an even count)."""
    traced = _passing(repeats, True)
    middle = statistics.median_low(r["run_s"] for r in traced)
    return next(r for r in traced if r["run_s"] == middle)


def summarize(measured: dict, trace: bool) -> dict:
    """The metrics of a run: medians over the passing untraced repeats, or
    the per-layer split of the median traced repeat."""
    repeats = measured["repeats"]
    plain = _passing(repeats, False)
    if not trace:
        values = {
            "run_s": statistics.median(r["run_s"] for r in plain),
            "setup_s": statistics.median(measured["setup_samples"]),
            "solve_s": statistics.median(r["solve_s"] for r in plain),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        return {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    traced = _passing(repeats, True)
    values = dict(median_traced(repeats)["layers"])
    values["problems.cold_setup_s"] = measured["cold_setup_s"]
    values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                  - statistics.median(r["run_s"] for r in plain))
    values["process.cpu_per_wall"] = (sum(r["cpu_s"] for r in plain)
                                      / sum(r["run_s"] for r in plain))
    return {n: {"value": values[n], "unit": u} for n, u in PER_LAYER.items()}


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset"),
    }


def load_references() -> dict:
    return json.loads((BENCH_DIR / "references.json").read_text())


def main(argv=None, references=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="noise seed of the synthetic data")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep repeating the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lib = load_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if references is None:
        references = load_references()
    reference = references.get(args.workload, {}).get(str(args.seed))
    trace = bool(args.trace)
    measured = measure(lib, WORKLOADS[args.workload], args.seed,
                       args.seconds, trace, reference)
    repeats = measured["repeats"]
    failed = sum(1 for r in repeats if r["failures"])
    if trace:
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans_file.write_text("".join(json.dumps(s) + "\n"
                                      for s in median_traced(repeats)["spans"]))
    for rep in repeats:
        rep.pop("spans", None)
    detail = {"workload": args.workload, "seed": args.seed,
              "reference": reference, "environment": environment(),
              "cold_setup_s": measured["cold_setup_s"],
              "setup_samples": measured["setup_samples"], "repeats": repeats}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": len(repeats),
                      "failed": failed,
                      "metrics": summarize(measured, trace)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
