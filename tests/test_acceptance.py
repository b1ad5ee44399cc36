"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with -s (or read the captured output on failure) to see the lines.
Every criterion is expected to pass. Criterion 2 reaches its rare events
(probabilities down to 3.6e-21) only because the harness samples the
Erdos-Renyi edge count from the law tilted to the threshold and reweights;
plain hit counting at its 10^7 replicas sees none at n = 200 and 400.
"""

from graphrates import acceptance


def _check(cid):
    rec = acceptance.CRITERIA[cid]()
    print(acceptance.format_record(rec))
    assert rec["passed"], acceptance.format_record(rec)


def test_criterion_01_edge_rate_extrapolation():
    _check(1)


def test_criterion_02_mc_tail_agreement():
    _check(2)


def test_criterion_03_degree_rate_points():
    _check(3)


def test_criterion_04_ising_free_energy():
    _check(4)


def test_criterion_05_pair_rate_duality():
    _check(5)


def test_criterion_06_zero_point_nonnegativity():
    _check(6)


def test_criterion_07_empirical_exactness():
    _check(7)


def test_criterion_08_conditional_sampler():
    _check(8)


def test_criterion_09_approximation_pipeline():
    _check(9)


def test_criterion_10_combinatorial_bounds():
    _check(10)


def test_criterion_11_lln_at_scale():
    _check(11)
