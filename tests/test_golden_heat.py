"""Golden outputs of the heat path: the exact profile.csv text and solve
count of the seed-0 5.6 runs at nx=7.  `asa` marches the four boxes as one
stack and `msa` as one-box slices of the same factor; a change that moves
a single bit of either march changes these files."""

from pathlib import Path

import pytest

from ddinverse import cli, dd, problems

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("algorithm,solve_calls", [("asa", 2916),
                                                   ("msa", 1680)])
def test_heat_golden_profile(tmp_path, algorithm, solve_calls):
    assert cli.main(["--experiment", "5.6", "--algorithm", algorithm,
                     "--nx", "7", "--nt", "12", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
    golden = GOLDEN / f"heat-{algorithm}-n7-profile.csv"
    assert (tmp_path / "profile.csv").read_text() == golden.read_text()
    spec = problems.example_catalog()["5.6"]
    prob = problems.make_problem(spec, 7, seed=0, nt=12)
    runner = dd.run_msa if algorithm == "msa" else dd.run_asa
    _, report = runner(prob, dd.DDConfig(beta=spec.beta))
    assert report.solve_calls == solve_calls
