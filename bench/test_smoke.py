"""Smoke test of the benchmark at a tiny size (experiment 5.3, nx = 7).

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

TINY = {"experiment": "5.3", "algorithm": "msa", "nx": 7}


@pytest.fixture
def tiny(monkeypatch, capsys):
    """Run the benchmark's main on the tiny workload; returns the detail
    line and the result line it printed."""
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)

    def main(trace, references=None):
        code = run.main(["--workload", "tiny", "--seed", "0", "--seconds", "0",
                         "--trace", str(trace)], references=references or {})
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        return json.loads(lines[-2]), json.loads(lines[-1])

    return main


def test_prints_every_metric_with_its_unit(tiny):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        _, result = tiny(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= (1 + trace) * run.MIN_REPEATS
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[kind]}
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())


def test_self_times_add_up_and_counts_repeat(tiny):
    detail, result = tiny(1)
    traced = [r for r in detail["repeats"] if r["traced"]]
    assert len(traced) >= 2
    for rep in traced:
        layers = rep["layers"]
        assert all(layers[f"{layer}.self_s"] >= 0 for layer in run.LAYERS)
        total = sum(layers[f"{layer}.self_s"] for layer in run.LAYERS)
        assert total == pytest.approx(layers["trace.run_s"], rel=1e-9)
        assert layers["trace.run_s"] == pytest.approx(rep["run_s"], rel=1e-9)
    # A fresh problem per repeat: no warm start leaks into the next repeat.
    assert traced[0]["layers"]["fem.pcg.iterations"] \
        == traced[1]["layers"]["fem.pcg.iterations"] > 0
    metrics = result["metrics"]
    assert metrics["dd.iterations"]["value"] == traced[0]["k"]
    assert metrics["elliptic.forward_local.calls"]["value"] > 0
    assert metrics["parabolic.steps"]["value"] == 0


def test_span_self_times_are_non_negative():
    lib = run.load_library()
    targets = run.core_targets(lib) + run.layer_targets(lib)
    tmp = run.OUT_DIR / "smoke-spans"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        spans, code, _, _ = run.run_repeat(lib, run.cli_args(TINY, 0), tmp,
                                           targets)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert code == 0
    durations, own = run.span_times(spans)
    assert spans[0][0] == "cli.main" and spans[0][3] is None
    assert min(own) >= 0
    assert sum(own) == pytest.approx(durations[0], rel=1e-9)
    for span in spans[1:]:
        parent = spans[span[3]]
        assert parent[1] <= span[1] <= span[2] <= parent[2]


def test_gate_trips_on_a_tampered_reference(tiny):
    detail, _ = tiny(0)
    first = detail["repeats"][0]
    good = {"tiny": {"0": {"k": first["k"], "error": first["error"]}}}
    _, result = tiny(0, good)
    assert result["correct"] and result["failed"] == 0
    bad = {"tiny": {"0": {"k": first["k"] + 1, "error": first["error"]}}}
    detail, result = tiny(0, bad)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.MIN_REPEATS
    assert all("reference" in f for r in detail["repeats"]
               for f in r["failures"])


def test_exits_without_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "heat-asa-n28",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
