#!/usr/bin/env python3
"""Record the reference k and final error of every workload and seed.

    env OPENBLAS_NUM_THREADS=1 python3 bench/record_references.py --seeds 32

Writes bench/references.json, which the correctness gate of run.py compares
every repeat against.  Record again only with a change that is meant to move
iteration counts or errors, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=32,
                        help="record seeds 0 .. SEEDS-1")
    args = parser.parse_args(argv)
    lib = run.load_library()
    references = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    for name, workload in run.WORKLOADS.items():
        references[name] = {}
        for seed in range(args.seeds):
            with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
                _, code, messages, _ = run.run_repeat(
                    lib, run.cli_args(workload, seed), Path(tmp), [])
                result, _, failures = run.check_repeat(code, Path(tmp), None,
                                                       None)
            if failures:
                print(f"{name} seed {seed}: {failures}\n{messages}",
                      file=sys.stderr)
                return 1
            references[name][str(seed)] = {"k": result["k"],
                                           "error": result["error"]}
            print(name, seed, result["k"], result["error"], flush=True)
    path = run.BENCH_DIR / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
