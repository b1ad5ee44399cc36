"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with -s (or read the captured output on failure) to see the lines.
Every criterion is expected to pass. Criterion 2 reaches its rare events
(probabilities down to 3.6e-21) only because the harness samples the
Erdos-Renyi edge count from the law tilted to the threshold and reweights;
plain hit counting at its 10^7 replicas sees none at n = 200 and 400.
"""

import math
import types

import pytest

from graphrates import acceptance, rates, varsolve
from graphrates.measures import product_kernel_measure, relative_entropy


def _check(cid):
    rec = acceptance.CRITERIA[cid]()
    print(acceptance.format_record(rec))
    assert rec["passed"], acceptance.format_record(rec)
    return rec["details"]


# criteria 1, 4 and 5 also pin their published values, far inside their bounds:
# oracles.extrapolate_exact takes their exact ladders to 3e-6, 2.4e-10 and 2.0e-9


def test_criterion_01_edge_rate_extrapolation():
    assert _check(1)["rel_err"] <= 1e-5


def test_criterion_02_mc_tail_agreement():
    _check(2)


def test_criterion_03_degree_rate_points():
    _check(3)


def test_criterion_04_ising_free_energy():
    assert _check(4)["max_gap"] <= 1e-9


def test_criterion_05_pair_rate_duality():
    assert _check(5)["max_gap"] <= 1e-8


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


# ---------------------------------------------------------------------------
# mutations criteria 4 and 5 must catch: a mistake in the solver's functional F or
# in the pair cost rates.h_c, which each criterion compares with an exact finite-n law.


def _with_math(func, **changes):
    """func, run against a math module with the names in changes replaced."""
    shim = types.SimpleNamespace(**{**vars(math), **changes})
    return types.FunctionType(func.__code__, {**func.__globals__, "math": shim},
                              func.__name__, func.__defaults__, func.__closure__)


@pytest.mark.parametrize("changes", [
    {"log": lambda x: 0.0, "log1p": lambda x: 0.0},
    {"expm1": lambda x: math.expm1(-x)},
], ids=["no-entropy", "swapped-expm1"])
def test_criterion_04_fails_on_a_mutated_functional(monkeypatch, changes):
    monkeypatch.setattr(varsolve, "ising_annealed",
                        _with_math(varsolve.ising_annealed, **changes))
    assert not acceptance.criterion_4()["passed"]


@pytest.mark.parametrize("h_c", [
    lambda pair, omega, C, h_c=rates.h_c: 2.0 * h_c(pair, omega, C),
    lambda pair, omega, C: relative_entropy(pair, product_kernel_measure(C, omega)),
], ids=["no-half", "no-mass-term"])
def test_criterion_05_fails_on_a_mutated_pair_cost(monkeypatch, h_c):
    monkeypatch.setattr(rates, "h_c", h_c)
    assert not acceptance.criterion_5()["passed"]
