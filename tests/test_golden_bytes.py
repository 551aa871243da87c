"""Golden bytes of every experiment: the sha256 of table.csv, history.csv
and profile.csv of the seed-0 `msa` and `asa` CLI runs at each experiment's
smallest catalog mesh.  A change that moves one byte of any of the 16 runs
fails here; the digests are listed in golden/outputs.sha256 in the format
of `sha256sum`, one line per file, named <experiment>-<algorithm>-n<nx>/."""

import hashlib
from pathlib import Path

import pytest

from ddinverse import cli, problems

DIGESTS = {}
for line in (Path(__file__).parent / "golden" / "outputs.sha256").read_text(
        ).splitlines():
    digest, name = line.split()
    run, file = name.split("/")
    DIGESTS.setdefault(run, {})[file] = digest

RUNS = [(exp, algorithm, min(spec.mesh_sizes))
        for exp, spec in problems.example_catalog().items()
        for algorithm in ("msa", "asa")]


def test_every_run_has_digests():
    assert sorted(DIGESTS) == sorted(f"{e}-{a}-n{n}" for e, a, n in RUNS)


@pytest.mark.parametrize("exp,algorithm,nx", RUNS)
def test_output_bytes(tmp_path, exp, algorithm, nx):
    assert cli.main(["--experiment", exp, "--algorithm", algorithm,
                     "--nx", str(nx), "--seed", "0",
                     "--out", str(tmp_path)]) == 0
    assert {file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
            for file in DIGESTS[f"{exp}-{algorithm}-n{nx}"]} \
        == DIGESTS[f"{exp}-{algorithm}-n{nx}"]
