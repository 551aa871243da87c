"""Golden bytes of every experiment: the sha256 of table.csv, history.csv
and profile.csv of the seed-0 `msa` and `asa` CLI runs at each experiment's
smallest catalog mesh (made once, in conftest's `catalog_runs`, which the
reach check shares), and of three runs at nx=28.  A change that moves one
byte of any of these runs fails here; the digests are listed in
golden/outputs.sha256 in the format of `sha256sum`, one line per file,
named <experiment>-<algorithm>-n<nx>/.  The heat systems' PCG fallback is
pinned by the table.csv and history.csv of one run, named
<experiment>-<algorithm>-n<nx>-nt<nt>/."""

import hashlib
from pathlib import Path

import pytest

from conftest import CATALOG_RUNS
from ddinverse import cli

DIGESTS = {}
for line in (Path(__file__).parent / "golden" / "outputs.sha256").read_text(
        ).splitlines():
    digest, name = line.split()
    run, file = name.split("/")
    DIGESTS.setdefault(run, {})[file] = digest

# At nx=28 the heat boxes' band factors are twice as wide as at nx=7, and
# the source boxes have a multilevel hierarchy.
RUNS = CATALOG_RUNS + [("5.3", "msa", 28), ("5.6", "asa", 28),
                      ("5.6", "msa", 28)]
# Every heat system at nx=84 has more free nodes than fem.FACTOR_SIZE.
FALLBACK = "5.6-asa-n84-nt2"


def _digests(outdir):
    return {file: hashlib.sha256((outdir / file).read_bytes()).hexdigest()
            for file in DIGESTS[outdir.name]}


def test_every_run_has_digests():
    assert sorted(DIGESTS) == sorted([f"{e}-{a}-n{n}" for e, a, n in RUNS]
                                     + [FALLBACK])


@pytest.mark.parametrize("exp,algorithm,nx", RUNS)
def test_output_bytes(tmp_path, catalog_runs, exp, algorithm, nx):
    name = f"{exp}-{algorithm}-n{nx}"
    out = catalog_runs.outputs.get(name)
    if out is None:
        out = tmp_path / name
        assert cli.main(["--experiment", exp, "--algorithm", algorithm,
                         "--nx", str(nx), "--seed", "0", "--out",
                         str(out)]) == 0
    assert _digests(out) == DIGESTS[name]


def test_heat_pcg_fallback_output_bytes(tmp_path, pcg_iterations):
    # only the heat systems' PCG fallback calls fem.pcg in a heat run
    out = tmp_path / FALLBACK
    assert cli.main(["--experiment", "5.6", "--algorithm", "asa", "--nx", "84",
                     "--nt", "2", "--seed", "0", "--out", str(out)]) == 0
    assert sum(pcg_iterations) > 0
    assert (out / "table.csv").read_text().splitlines()[1].split(",")[5] == "4"
    assert _digests(out) == DIGESTS[FALLBACK]
