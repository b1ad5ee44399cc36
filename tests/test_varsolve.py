import math

import numpy as np
import pytest
from scipy.special import rel_entr

from graphrates import (Alphabet, ColorMeasure, Kernel, SolveReport,
                        ising_annealed, legendre_i_omega, product_kernel_measure,
                        psi, rate_zeta_er, solve_degree_fixed_point)
from graphrates.varsolve import zeta_inner

A1 = Alphabet(1)
A2 = Alphabet(2)
MU2 = ColorMeasure(A2, [0.5, 0.5], probability=True)
C2 = Kernel(A2, [[3.0, 1.0], [1.0, 2.0]])


# ---------------------------------------------------------------------------
# degree fixed point: x = c exp(-2(1 - mean/x))


def test_fixed_point_boundary_cases():
    for c in (1.0, 2.0, 4.0):
        rep = solve_degree_fixed_point(c, c)
        assert rep.converged
        assert rep.value == pytest.approx(c, abs=1e-12)
        rep0 = solve_degree_fixed_point(0.0, c)
        assert rep0.value == pytest.approx(c * math.exp(-2.0), abs=1e-12)


def test_fixed_point_interior_residual_and_bracket():
    c = 2.0
    for mean in (0.25, 1.0, 1.75):
        rep = solve_degree_fixed_point(mean, c)
        assert rep.converged and rep.residual <= 1e-12
        x = rep.value
        assert max(mean, c * math.exp(-2.0)) - 1e-12 <= x <= c + 1e-12
        assert abs(x - c * math.exp(-2.0 * (1.0 - mean / x))) <= 1e-10


def test_fixed_point_vs_independent_root_finder():
    from scipy.optimize import brentq
    c, mean = 2.0, 1.0
    rep = solve_degree_fixed_point(mean, c)
    root = brentq(lambda x: x - c * math.exp(-2.0 * (1.0 - mean / x)),
                  max(mean, c * math.exp(-2.0)) * 0.999, c, xtol=1e-14)
    assert rep.value == pytest.approx(root, abs=1e-9)


def test_fixed_point_rejects_mean_above_c():
    with pytest.raises(ValueError):
        solve_degree_fixed_point(3.0, 2.0)


def test_solve_report_round_trip_and_types():
    rep = SolveReport(argmin=(np.float64(0.5),), value=np.float64(1.0),
                      residual=np.float64(1e-13), iterations=np.int64(12),
                      converged=np.bool_(True))
    assert type(rep.value) is float
    assert type(rep.iterations) is int
    assert type(rep.converged) is bool
    assert all(type(a) is float for a in rep.argmin)
    back = SolveReport.from_dict(rep.to_dict())
    assert back == rep


# ---------------------------------------------------------------------------
# psi


def test_psi_zero_at_full_kernel_mass():
    t = float(MU2.weights @ C2.values @ MU2.weights)
    assert psi(t, MU2, C2) <= 1e-10


def test_psi_positive_off_center():
    t0 = float(MU2.weights @ C2.values @ MU2.weights)
    assert psi(0.5 * t0, MU2, C2) > 1e-3
    assert psi(1.5 * t0, MU2, C2) > 1e-3


def test_psi_matches_simplex_brute_force():
    rng = np.random.default_rng(77)
    C = Kernel(A2, [[2.0, 1.0], [1.0, 3.0]])
    mu = ColorMeasure(A2, [0.4, 0.6], probability=True)

    def entropy(nu):
        s = 0.0
        for p, q in zip(nu, mu.weights):
            if p > 0:
                s += p * math.log(p / q)
        return s

    # quadratic form range for this kernel is [5/3, 3]
    for t in (1.7, 2.0, 2.4, 2.8):
        val = psi(t, mu, C)
        best = math.inf
        for a in np.linspace(0.0, 1.0, 2001):
            nu = np.array([a, 1.0 - a])
            if abs(float(nu @ C.values @ nu) - t) <= 1e-3:
                best = min(best, entropy(nu))
        assert best < math.inf
        assert val == pytest.approx(best, abs=5e-3)


# ---------------------------------------------------------------------------
# zeta inner problem


def test_zeta_inner_er_closed_form():
    # at y = c the inner value is -x ln(c/2) + c/2
    c = 2.5
    mu1 = ColorMeasure(A1, [1.0], probability=True)
    for x in (0.4, 1.25, 2.0):
        val = zeta_inner(x, mu1, Kernel.constant(c)).value
        assert val == pytest.approx(-x * math.log(c / 2.0) + c / 2.0, abs=1e-8)


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


def test_psi_matches_quadratic_roots():
    mu46 = ColorMeasure(A2, [0.4, 0.6], probability=True)
    C213 = Kernel(A2, [[2.0, 1.0], [1.0, 3.0]])
    # both kernels have attainable range [5/3, 3]; 3 is the vertex omega = (0, 1),
    # and near 5/3 the constraint is almost tangent to the level set
    for mu, C, ys in ((mu46, C213, (1.67, 2.0, 2.4, 3.0)), (MU2, C2, (2.0, 2.8))):
        exact = _exact_psi_m2(ys, mu.weights, C.values)
        for y, want in zip(ys, exact):
            assert psi(y, mu, C) == pytest.approx(want, abs=1e-10)


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


def test_ising_against_oracle():
    from graphrates.oracles import ising_oracle
    rep = ising_annealed(1.0, 2.0)
    assert abs(rep.value - ising_oracle(1.0, 2.0)) <= 1e-6


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


# ---------------------------------------------------------------------------
# Legendre dual of I_omega


def test_legendre_zero_at_product():
    ref = product_kernel_measure(C2, MU2)
    assert abs(legendre_i_omega(ref, MU2, C2)) <= 1e-8


def test_legendre_er_frozen():
    mu1 = ColorMeasure(A1, [1.0], probability=True)
    from graphrates import PairMeasure
    pair = PairMeasure(A1, [[1.0]])
    val = legendre_i_omega(pair, mu1, Kernel.constant(2.0))
    assert val == pytest.approx(0.5 * 0.3068528194400547, abs=1e-8)


def test_legendre_matches_primal_on_random_instances():
    from graphrates import PairMeasure, rate_I_omega
    rng = np.random.default_rng(55)
    for _ in range(4):
        f = rng.uniform(0.4, 1.6, 3)
        ref = product_kernel_measure(C2, MU2).weights
        pair = PairMeasure(A2, ref * [[f[0], f[1]], [f[1], f[2]]])
        primal = rate_I_omega(pair, MU2, C2)
        dual = legendre_i_omega(pair, MU2, C2)
        assert dual == pytest.approx(primal, abs=1e-4)


def test_legendre_rejects_large_alphabet():
    A4 = Alphabet(4)
    mu = ColorMeasure(A4, [0.25] * 4, probability=True)
    C = Kernel(A4, np.ones((4, 4)))
    from graphrates import PairMeasure
    pair = product_kernel_measure(C, mu)
    with pytest.raises(ValueError):
        legendre_i_omega(pair, mu, C)
