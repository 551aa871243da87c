"""Golden outputs: the exact history.csv text and solve count of three
seed-0 runs, one per problem kind.  A change that moves a single bit of the
iteration (a warm start, the order of solves, an update formula) changes at
least one of these literals."""

import pytest

from ddinverse import dd, problems

CAT = problems.example_catalog()

SOURCE_MSA_N7 = """\
iter,increment_norm,rel_error,objective
1,0.303352,0.661585,0.0562934
2,0.139913,0.486467,0.026881
3,0.088765,0.372654,0.0146136
4,0.061315,0.293053,0.00861403
5,0.0444849,0.234995,0.00539576
6,0.0333237,0.191484,0.00356181
7,0.025534,0.158245,0.00247089
8,0.019902,0.132476,0.00180052
9,0.0157257,0.112256,0.00137762
10,0.0125707,0.0962173,0.00110479
"""

FLUX_MSA_N14 = """\
iter,increment_norm,rel_error,objective
1,0.112442,0.505425,0.298926
2,0.102985,0.406317,0.187423
3,0.093097,0.317104,0.108934
4,0.0831002,0.238116,0.0568123
5,0.0732187,0.169731,0.0249482
6,0.0636285,0.112914,0.0079844
7,0.0544635,0.0710267,0.00141288
"""

HEAT_ASA_N7 = """\
iter,increment_norm,rel_error,objective
1,0.0844099,0.880998,0.393281
2,0.0741061,0.776479,0.305673
3,0.0652132,0.684444,0.237671
4,0.0573838,0.603428,0.184885
5,0.0505347,0.532058,0.143867
6,0.044515,0.469176,0.11198
7,0.0392268,0.413753,0.0871808
8,0.0345749,0.364897,0.0678875
9,0.0304811,0.321822,0.0528741
10,0.0268765,0.283838,0.0411889
11,0.0237014,0.250341,0.0320928
12,0.0209038,0.220796,0.0250113
13,0.0184382,0.194737,0.0194976
14,0.0162647,0.17175,0.0152042
15,0.0143484,0.151471,0.011861
16,0.0126586,0.133582,0.00925735
17,0.0111685,0.1178,0.00722966
18,0.00985419,0.103877,0.00565043
19,0.00869494,0.0915925,0.00442041
"""


@pytest.mark.parametrize("exp,algorithm,nx,kwargs,history,solve_calls", [
    ("5.3", "msa", 7, {}, SOURCE_MSA_N7, 166),
    ("5.1", "msa", 14, {}, FLUX_MSA_N14, 87),
    ("5.6", "asa", 7, {"nt": 12}, HEAT_ASA_N7, 2916),
])
def test_golden_history(exp, algorithm, nx, kwargs, history, solve_calls):
    spec = CAT[exp]
    prob = problems.make_problem(spec, nx, seed=0, **kwargs)
    runner = dd.run_msa if algorithm == "msa" else dd.run_asa
    _, report = runner(prob, dd.DDConfig(beta=spec.beta))
    assert report.to_csv() == history
    assert report.solve_calls == solve_calls
