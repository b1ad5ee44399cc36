import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr

from graphrates import Alphabet, ColorMeasure, Kernel, SolveReport, ising_annealed
from graphrates.varsolve import _simplex_starts, zeta_inner

A1 = Alphabet(1)
A2 = Alphabet(2)
MU2 = ColorMeasure(A2, [0.5, 0.5], probability=True)
C2 = Kernel(A2, [[3.0, 1.0], [1.0, 2.0]])


def test_solve_report_round_trip_and_types():
    rep = SolveReport(argmin=(np.float64(0.5),), value=np.float64(1.0),
                      residual=np.float64(1e-13), iterations=np.int64(12),
                      converged=np.bool_(True))
    assert type(rep.value) is float
    assert type(rep.iterations) is int
    assert type(rep.converged) is bool
    assert all(type(a) is float for a in rep.argmin)
    assert rep.to_dict() == {"argmin": [0.5], "value": 1.0, "residual": 1e-13,
                             "iterations": 12, "converged": True}


# ---------------------------------------------------------------------------
# zeta inner problem


def test_zeta_inner_er_closed_form():
    # at y = c the inner value is -x ln(c/2) + c/2
    c = 2.5
    mu1 = ColorMeasure(A1, [1.0], probability=True)
    for x in (0.4, 1.25, 2.0):
        val = zeta_inner(x, mu1, Kernel.constant(c)).value
        assert val == pytest.approx(-x * math.log(c / 2.0) + c / 2.0, abs=1e-8)


def test_simplex_starts_kronecker_alphas_are_prime_roots():
    # after mu, uniform and 8 vertices, start 9 + i is frac(i alphas) + 0.02, normalised
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131]
    alphas = np.sqrt(np.array(primes, dtype=float))
    starts = _simplex_starts(32, np.full(32, 1 / 32))
    assert len(starts) == 32
    for i, start in enumerate(starts[10:], start=1):
        v = np.mod(i * alphas, 1.0) + 0.02
        assert np.array_equal(start, v / v.sum())


def test_zeta_inner_x_zero():
    c = 3.0
    mu1 = ColorMeasure(A1, [1.0], probability=True)
    assert zeta_inner(0.0, mu1, Kernel.constant(c)).value == pytest.approx(c / 2.0, abs=1e-10)


def test_zeta_er_midpoint_convexity():
    from graphrates import rate_zeta
    mu1 = ColorMeasure(A1, [1.0], probability=True)
    C = Kernel.constant(2.0)
    xs = np.linspace(0.1, 3.0, 12)
    vals = [rate_zeta(float(x), mu1, C) for x in xs]
    for i in range(1, len(xs) - 1):
        assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-9


# ---------------------------------------------------------------------------
# multicolor edge rate: the one-level solver against independent references


def _exact_psi_m2(ys, mu_w, C):
    """psi for m = 2, vectorised in y: omega = (t, 1 - t) on the level set
    omega' C omega = y solves a quadratic in t, so psi is the smaller
    entropy over its roots in [0, 1]."""
    (c00, c01), (_, c11) = C
    a, b = c00 - 2 * c01 + c11, 2 * (c01 - c11)
    ys = np.asarray(ys, dtype=float)
    disc = np.sqrt(np.maximum(b * b - 4 * a * (c11 - ys), 0.0))
    best = np.full(ys.shape, np.inf)
    for t in ((-b - disc) / (2 * a), (-b + disc) / (2 * a)):
        tc = np.clip(t, 0.0, 1.0)
        h = rel_entr(tc, mu_w[0]) + rel_entr(1.0 - tc, mu_w[1])
        best = np.where((t >= 0.0) & (t <= 1.0), np.minimum(best, h), best)
    return best


def test_zeta_inner_matches_two_layer_brute_force():
    # min over a fine y-grid of exact psi(y) - x ln(y/2) + y/2 on [5/3, 3]
    ys = np.linspace(5.0 / 3.0, 3.0, 200001)
    psis = _exact_psi_m2(ys, MU2.weights, C2.values)
    for x in (0.0, 0.5, 1.5, 3.0):
        brute = float(np.min(psis - x * np.log(ys / 2.0) + ys / 2.0))
        rep = zeta_inner(x, MU2, C2)
        assert rep.converged
        assert rep.value == pytest.approx(brute, abs=1e-7)


def test_zeta_inner_stays_on_supp_mu():
    A3 = Alphabet(3)
    mu = ColorMeasure(A3, [0.5, 0.5, 0.0], probability=True)
    C = Kernel(A3, [[3.0, 1.0, 4.0], [1.0, 2.0, 5.0], [4.0, 5.0, 6.0]])
    for x in (0.5, 1.5):
        rep = zeta_inner(x, mu, C)
        assert rep.argmin[2] == 0.0
        assert rep.value == pytest.approx(zeta_inner(x, MU2, C2).value, abs=1e-12)


def test_zeta_inner_global_minimum_three_colors():
    A3 = Alphabet(3)
    mu = ColorMeasure(A3, [0.5, 0.3, 0.2], probability=True)
    C = Kernel(A3, [[2.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 1.5]])

    def objective(W, x):
        H = rel_entr(W, mu.weights).sum(axis=-1)
        Q = np.einsum("...a,ab,...b->...", W, C.values, W)
        return H - x * np.log(Q / 2.0) + Q / 2.0

    # barycentric grid with step 1/150, boundary included
    n = 150
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = i + j <= n
    W = np.stack([i[keep], j[keep], n - i[keep] - j[keep]], axis=1) / n
    for x in (0.0, 1.5, 3.0):
        rep = zeta_inner(x, mu, C)
        assert rep.converged
        assert rep.value <= float(objective(W, x).min()) + 1e-12
        # the reported minimiser attains the reported value
        assert float(objective(np.array(rep.argmin), x)) == pytest.approx(rep.value, abs=1e-12)


# ---------------------------------------------------------------------------
# annealed Ising


def test_ising_beta_zero_is_ln2():
    rep = ising_annealed(0.0, 2.0)
    assert rep.converged
    assert rep.value == pytest.approx(math.log(2.0), abs=1e-9)
    assert rep.argmin[0] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("beta,c", [(0.25, 0.5), (1.0, 2.0), (2.0, 3.0), (3.0, 1.0)])
def test_ising_against_oracle(beta, c):
    # (2, 3) and (3, 1) lie in the ferromagnetic range criterion 4 never reaches.
    # ising_oracle's quadratic in 1/n through n = 40000, 80000 and 160000 leaves the
    # 1/n^3 term: error budget 3.5e-11 at (2, 3) and (3, 1), where c expm1(beta) is 19,
    # and below 1e-13 at the other two points
    from graphrates.oracles import ising_oracle
    assert abs(ising_annealed(beta, c).value - ising_oracle(beta, c)) <= 1e-9


@pytest.mark.parametrize("beta,c", [(b, c) for b in (0.0, 0.25, 0.5, 1.0)
                                    for c in (0.5, 1.0, 2.0)] + [(2.0, 3.0), (3.0, 1.0)])
def test_ising_report_lies_on_the_profile(beta, c):
    # criterion 4's grid and two ferromagnetic points
    rep = ising_annealed(beta, c)
    x, wpp, wmm, wpm = rep.argmin
    profile = [c * x * x * math.exp(beta), c * (1.0 - x) ** 2 * math.exp(beta),
               c * x * (1.0 - x) * math.exp(-beta)]
    assert [wpp, wmm, wpm] == pytest.approx(profile, rel=1e-12)
    assert rep.converged and rep.iterations > 0
    assert 0.0 < rep.residual <= 1e-6
    if beta >= 2.0:
        # the maximizers sit near 0 and 1, far off the symmetric point 1/2
        assert abs(x - 0.5) > 0.49


def test_ising_monotone_in_beta_and_c():
    betas = np.linspace(0.0, 1.0, 5)
    cs = np.linspace(0.5, 4.0, 5)
    grid = [[ising_annealed(float(b), float(c)).value for c in cs] for b in betas]
    for j in range(len(cs)):
        col = [grid[i][j] for i in range(len(betas))]
        assert all(col[i + 1] >= col[i] - 1e-9 for i in range(len(col) - 1))
    for i in range(len(betas)):
        row = grid[i]
        assert all(row[j + 1] >= row[j] - 1e-9 for j in range(len(row) - 1))


def _ising_grid_max(beta, c):
    # the spin-fraction objective H(x) + c/2 [(1-2y) expm1(beta) + 2y expm1(-beta)],
    # y = x(1-x), on 20,001 points of [0, 1]
    x = np.linspace(0.0, 1.0, 20001)
    y = x * (1.0 - x)
    h = -(rel_entr(x, 1.0) + rel_entr(1.0 - x, 1.0))
    return float(np.max(h + 0.5 * c * ((1.0 - 2.0 * y) * math.expm1(beta)
                                       + 2.0 * y * math.expm1(-beta))))


@given(st.floats(0.0, 8.0), st.floats(0.05, 10.0))
@settings(max_examples=100, deadline=None)
def test_ising_search_beats_a_fine_grid(beta, c):
    # one bounded search over [0, 1/2] needs no seed grid: no grid point beats it
    rep = ising_annealed(beta, c)
    grid_max = _ising_grid_max(beta, c)
    assert rep.value >= grid_max * (1.0 - 1e-13)
    assert rep.argmin[0] <= 0.5
    assert rep.converged


def _pair_functional(x, wpp, wmm, wpm, beta, c):
    # the paper's four-variable functional, written out term by term
    refs = (c * x * x, c * (1.0 - x) ** 2, c * x * (1.0 - x))
    ent = sum(mult * w * math.log(w / r)
              for w, r, mult in ((wpp, refs[0], 1.0), (wmm, refs[1], 1.0), (wpm, refs[2], 2.0))
              if w > 0.0)
    mix = -x * math.log(x) - (1.0 - x) * math.log(1.0 - x) if 0.0 < x < 1.0 else 0.0
    return (0.5 * beta * (wpp + wmm - 2.0 * wpm) + mix
            - 0.5 * (ent + c - (wpp + wmm + 2.0 * wpm)))


@pytest.mark.parametrize("beta,c", [(b, c) for b in (0.0, 0.25, 0.5, 1.0)
                                    for c in (0.5, 1.0, 2.0)] + [(2.0, 3.0), (3.0, 1.0)])
def test_ising_value_is_the_pair_functional_at_the_reported_profile(beta, c):
    rep = ising_annealed(beta, c)
    assert _pair_functional(*rep.argmin, beta, c) == pytest.approx(rep.value, rel=1e-12)

