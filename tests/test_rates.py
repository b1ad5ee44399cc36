import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.stats import poisson

from graphrates import (Alphabet, ColorMeasure, Kernel, ModelParams,
                        NeighborhoodMeasure, PairMeasure, RateValue, consistify,
                        empirical_measures, h_c, phi, poisson_limit_law,
                        product_kernel_measure, q_measure, rate_I,
                        rate_I_omega, rate_J, rate_J_tilde, rate_delta,
                        rate_zeta, rate_zeta_er, sample_colored_graph)
from graphrates.oracles import (exact_er_edge_exponent, extrapolate_exact, ising_oracle,
                                isolated_log_tail)
from graphrates.rates import LIMIT_TAIL_MASS, _poisson_ppf
from graphrates.seeds import derive_child_seed
from graphrates.varsolve import ising_annealed, zeta_inner

A1 = Alphabet(1)
A2 = Alphabet(2)
MU1 = ColorMeasure(A1, [1.0], probability=True)
MU2 = ColorMeasure(A2, [0.5, 0.5], probability=True)
C2 = Kernel(A2, [[3.0, 1.0], [1.0, 2.0]])


# ---------------------------------------------------------------------------
# h_c and q_measure


def test_h_c_frozen_single_color():
    # H(1 || 2) + 2 - 1 = ln(1/2) + 1 = 1 - ln 2
    pair = PairMeasure(A1, [[1.0]])
    value = h_c(pair, MU1, Kernel.constant(2.0))
    assert value == pytest.approx(0.3068528194400547, abs=1e-15)


def test_h_c_zero_at_reference():
    ref = product_kernel_measure(C2, MU2)
    assert h_c(ref, MU2, C2) == 0.0


def test_h_c_infinite_off_support():
    C = Kernel(A2, [[2.0, 0.0], [0.0, 1.0]])
    pair = PairMeasure(A2, [[0.5, 0.1], [0.1, 0.5]])
    assert h_c(pair, MU2, C) == math.inf


def test_q_measure_normalizes_single_color():
    pair = PairMeasure(A1, [[1.7]])
    support = [(0, (k,)) for k in range(51)]
    q = q_measure(pair, MU1, support)
    assert q.total_mass == pytest.approx(1.0, abs=1e-10)


def test_q_measure_zero_intensity_atom():
    pair = PairMeasure(A2, [[1.0, 0.0], [0.0, 1.0]])
    q = q_measure(pair, MU2, [(0, (0, 1)), (0, (2, 0))])
    assert q.mass(0, (0, 1)) == 0.0
    assert q.mass(0, (2, 0)) > 0.0


def test_q_measure_empty_support_is_empty():
    q = q_measure(PairMeasure(A2, [[1.0, 0.5], [0.5, 1.0]]), MU2, [])
    assert q.atoms() == [] and q.total_mass == 0.0


def test_q_measure_omits_a_color_of_no_mass():
    nu1 = ColorMeasure(A2, [1.0, 0.0], probability=True)
    pair = PairMeasure(A2, [[1.0, 0.0], [0.0, 0.0]])
    q = q_measure(pair, nu1, [(0, (1, 0)), (1, (0, 0)), (1, (1, 0))])
    assert [key for key, _ in q.atoms()] == [(0, (1, 0))]
    assert q.mass(0, (1, 0)) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_q_measure_refuses_fractional_keys():
    # (0.5, (1.7,)) was once truncated and answered as the atom (0, (1,))
    pair = PairMeasure(A1, [[2.0]])
    q = q_measure(pair, MU1, [(0.0, (1.0,))])
    assert [key for key, _ in q.atoms()] == [(0, (1,))]
    assert q.mass(0, (1,)) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)
    for key in ((0.5, (1.7,)), (0, (1.7,)), (0.5, (1,)), (True, (1,)), (0, (True,)), (1, (0,))):
        with pytest.raises(ValueError, match="must be an integer|outside alphabet"):
            q_measure(pair, MU1, [key])


# ---------------------------------------------------------------------------
# rate_J and relatives


def test_rate_j_zero_point():
    qstar = poisson_limit_law(MU2, C2)
    pair_star = product_kernel_measure(C2, MU2)
    rv = rate_J(pair_star, qstar, MU2, C2)
    assert rv.finite
    assert rv.value <= 1e-9
    assert set(rv.breakdown) == {"neighborhood", "color", "pair"}


@pytest.mark.parametrize("eps, printed", [(0.01, 4.3200003), (1e-3, 6.1731476),
                                          (1e-4, 8.0167852)])
def test_rate_j_is_finite_and_diverging_along_consistify(eps, printed):
    # consistify parks pi = 0.8 on one atom of degree n ~ 1.8/eps, where Q is far below
    # the float range; H(nu_hat || Poisson(lam)) grows like 0.8 ln(1/eps)
    pair_hat, nu_hat = consistify(PairMeasure(A1, [[0.8]]),
                                  NeighborhoodMeasure(A1, {(0, (0,)): 1.0}, probability=True),
                                  eps)
    rv = rate_J(pair_hat, nu_hat, MU1, Kernel.constant(0.8))
    assert rv.finite
    nu1 = sum(w for _, w in nu_hat.atoms())
    lam = pair_hat.weights[0, 0] / nu1
    expect = sum(w * (math.log(w / nu1) + lam - k * math.log(lam) + math.lgamma(k + 1))
                 for (_, (k,)), w in nu_hat.atoms())
    assert rv.breakdown["neighborhood"] == pytest.approx(expect, rel=1e-12)
    assert round(rv.breakdown["neighborhood"], 7) == printed


def test_rate_j_is_infinite_where_an_intensity_overflows():
    # nu1(1) = 1e-310 makes pi(1, 0) / nu1(1) overflow, and ln Q(1, (1, 0)) reads inf - inf
    nu = NeighborhoodMeasure(A2, {(0, (0, 0)): 1.0, (1, (1, 0)): 1e-310}, probability=True)
    rv = rate_J(PairMeasure(A2, [[0.0, 1.0], [1.0, 0.0]]), nu, MU2, C2)
    assert rv.value == math.inf and rv.reason == "neighborhood-cost-infinite"


def test_rate_j_not_sub_consistent_is_inf():
    nu = NeighborhoodMeasure(A2, {(0, (5, 0)): 1.0}, probability=True)
    pair = PairMeasure(A2, np.full((2, 2), 0.01))
    rv = rate_J(pair, nu, MU2, C2)
    assert rv.value == math.inf
    assert rv.reason == "not-sub-consistent"


def test_rate_j_breakdown_sums_to_value():
    nu = NeighborhoodMeasure(
        A2, {(0, (1, 0)): 0.3, (0, (0, 0)): 0.2, (1, (0, 1)): 0.3,
             (1, (0, 0)): 0.2}, probability=True)
    pair = PairMeasure(A2, [[1.0, 0.3], [0.3, 0.6]])
    rv = rate_J(pair, nu, MU2, C2)
    assert rv.finite
    assert rv.value == pytest.approx(sum(rv.breakdown.values()), abs=1e-14)
    assert rv.value > 0.0


def test_rate_j_decreases_toward_zero_point_on_samples():
    """rate_J(L2, M) medians shrink as n grows; finite via the pair=phi2 trick."""
    medians = []
    for n in (1000, 10000):
        vals = []
        for i in range(5):
            g = sample_colored_graph(ModelParams(MU2, C2, n),
                                     derive_child_seed(321, n, i))
            _, _, nc = empirical_measures(g)
            m_meas = nc.measure
            _, phi2 = phi(m_meas)
            sym = np.maximum(phi2, phi2.T)
            vals.append(rate_J(PairMeasure(A2, sym), m_meas, MU2, C2).value)
        assert all(math.isfinite(v) for v in vals)
        medians.append(sorted(vals)[2])
    assert medians[1] < medians[0]


def test_rate_i_zero_and_color_only():
    ref = product_kernel_measure(C2, MU2)
    assert rate_I(MU2, ref, MU2, C2).value == 0.0

    omega = ColorMeasure(A2, [0.25, 0.75], probability=True)
    pair = product_kernel_measure(C2, omega)
    rv = rate_I(omega, pair, MU2, C2)
    from graphrates import relative_entropy
    assert rv.value == pytest.approx(relative_entropy(omega, MU2), abs=1e-14)
    assert rv.breakdown["pair"] == 0.0


def test_rate_i_er_reduction():
    # m=1: I(mass 2x) = x ln(x/(c/2)) - x + c/2
    c = 2.0
    for x in (0.3, 1.0, 1.7):
        pair = PairMeasure(A1, [[2.0 * x]])
        rv = rate_I(MU1, pair, MU1, Kernel.constant(c))
        closed = x * math.log(x / (c / 2.0)) - x + c / 2.0
        assert rv.value == pytest.approx(closed, abs=1e-12)


def test_rate_i_omega_frozen():
    pair = PairMeasure(A1, [[1.0]])
    value = rate_I_omega(pair, MU1, Kernel.constant(2.0))
    assert value == pytest.approx(0.5 * 0.3068528194400547, abs=1e-15)
    # absolute continuity failure
    C = Kernel(A2, [[2.0, 0.0], [0.0, 1.0]])
    bad = PairMeasure(A2, [[0.5, 0.1], [0.1, 0.5]])
    assert rate_I_omega(bad, MU2, C) == math.inf


def test_rate_j_tilde_cases():
    pair_star = product_kernel_measure(C2, MU2)
    qstar = poisson_limit_law(MU2, C2)
    assert rate_J_tilde(qstar, MU2, pair_star) <= 1e-9

    other = ColorMeasure(A2, [0.3, 0.7], probability=True)
    assert rate_J_tilde(qstar, other, pair_star) == math.inf

    # nu charging ell(b) > 0 where pair(a,b) = 0
    nu = NeighborhoodMeasure(A2, {(0, (0, 1)): 0.5, (1, (0, 0)): 0.5},
                             probability=True)
    omega = ColorMeasure(A2, [0.5, 0.5], probability=True)
    pair = PairMeasure(A2, [[1.0, 0.0], [0.0, 1.0]])
    assert rate_J_tilde(nu, omega, pair) == math.inf


# ---------------------------------------------------------------------------
# degree rate


def _truncated_poisson(lam, tail=1e-14):
    d, cum, k = {}, 0.0, 0
    while cum < 1.0 - tail:
        p = math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
        d[k] = p
        cum += p
        k += 1
    return d


@pytest.mark.parametrize("c", [1.0, 2.0, 4.0])
def test_rate_delta_zero_at_poisson(c):
    assert rate_delta(_truncated_poisson(c), c) <= 1e-10


@pytest.mark.parametrize("c", [1.0, 2.0, 4.0])
def test_rate_delta_point_mass_closed_form(c):
    # delta_0 is the empty graph, of probability (1 - c/n)^(n(n-1)/2): -ln P / n is
    # c/2 + O(c^2/n), so the rate is c/2
    n = 10 ** 8
    exact = -0.5 * (n - 1) * math.log1p(-c / n)
    assert rate_delta({0: 1.0}, c) == pytest.approx(0.5 * c, abs=1e-10)
    assert rate_delta({0: 1.0}, c) == pytest.approx(exact, abs=c * c / n)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 30), st.integers(1, 9), min_size=1, max_size=5),
       st.floats(-3.0, 3.0))
def test_rate_delta_is_rate_j_at_the_consistent_point(weights, log10_c):
    # one color at pi = <d>: rate_J = H(d || Poisson(<d>)) + 0 + h_c(<d> || 1)/2, which is
    # the degree rate, so the two may differ by rounding alone. Budget: both sides take
    # ln Poisson(<d>) from _poisson_log_pmf and add at most six terms, in other orders and
    # with the pair term in two forms. On 20,000 such draws the values were 5e-4 and up
    # and the largest gap 4.6e-15 relative, so 1e-12 leaves a factor of 200.
    c = 10.0 ** log10_c
    total = sum(weights.values())
    d = {k: w / total for k, w in weights.items()}
    mean = sum(k * p for k, p in d.items())
    nu = NeighborhoodMeasure(A1, {(0, (k,)): p for k, p in d.items()}, probability=True)
    expect = rate_J(PairMeasure(A1, [[mean]]), nu, MU1, Kernel.constant(c)).value
    assert rate_delta(d, c) == pytest.approx(expect, rel=1e-12, abs=0)


def _isolated_family(t, lam):
    """t delta_0 + (1 - t) ZTPoisson(lam), cut where the pmf falls below 1e-17 past lam."""
    d, k = {0: t}, 1
    while True:
        p = math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) / -math.expm1(-lam)
        if k > lam and p < 1e-17:
            total = sum(d.values())
            return {k: w / total for k, w in d.items()}
        d[k] = (1.0 - t) * p
        k += 1


@pytest.mark.parametrize("c, t", [(1.0, 0.5), (2.0, 0.3)])
def test_rate_delta_contracts_to_the_exact_isolated_vertex_exponent(c, t):
    # The event {d(0) >= t}: at a fixed mean and d(0) = t, H(d || Poisson(mean)) is least
    # on t delta_0 + (1 - t) ZTPoisson(lam), so the contraction is a search over lam.
    # The exact exponent is isolated_log_tail at n = 100, 200, 400 taken to its limit by
    # extrapolate_exact with d = 1. Budget: a fit up to n = 1600 moves that value by about
    # 1e-4, 0.5% at (1, 1/2); the search and the cut add under 1e-9. The bound is 1%.
    contraction = minimize_scalar(lambda s: rate_delta(_isolated_family(t, math.exp(s)), c),
                                  bounds=(-6.0, 4.0), method="bounded",
                                  options={"xatol": 1e-10}).fun
    sizes = (100, 200, 400)
    exact = extrapolate_exact(sizes, [-isolated_log_tail(n, c, t) / n for n in sizes], 1)
    assert contraction == pytest.approx(exact, rel=1e-2)


def test_rate_delta_matches_the_exact_matching_face():
    # c = 1 and d = (delta_0 + delta_1)/2: the graph is a perfect matching on sn of the
    # n vertices, s = 1/2, so P = C(n, sn) (sn - 1)!! p^(sn/2) (1 - p)^(N - sn/2) with
    # p = c/n and N = C(n, 2). Budget: -ln P / n at n = 1000 to 8000, taken to its limit
    # by extrapolate_exact with d = 1, carries an O(1/n^3) bias near 1e-11 and rounding
    # near 1e-14; the bound is 1e-8.
    c = 1.0
    sizes = (1000, 2000, 4000, 8000)
    exponents = []
    for n in sizes:
        k, p = n // 2, c / n
        log_p = (math.lgamma(n + 1) - math.lgamma(n - k + 1)  # C(n, k) (k - 1)!!
                 - k // 2 * math.log(2.0) - math.lgamma(k // 2 + 1)
                 + k // 2 * math.log(p) + (n * (n - 1) // 2 - k // 2) * math.log1p(-p))
        exponents.append(-log_p / n)
    exact = extrapolate_exact(sizes, exponents, 1)
    assert rate_delta({0: 0.5, 1: 0.5}, c) == pytest.approx(exact, abs=1e-8)


def test_rate_delta_infinite_mean():
    assert rate_delta({0: 0.5, 10: 0.5}, 2.0, mean=math.inf) == math.inf


def test_rate_delta_refuses_a_mean_the_degrees_contradict():
    d = {0: 0.5, 2: 0.5}
    # a mean that matches, to rounding, answers as no mean does
    assert rate_delta(d, 1.0, mean=1.0) == rate_delta(d, 1.0)
    assert math.isfinite(rate_delta(d, 1.0, mean=1.0 + 1e-12))  # within PROB_TOL
    assert rate_delta({0: 0.2, 3: 0.5, 5: 0.3}, 1.0, mean=3.0) == rate_delta(
        {0: 0.2, 3: 0.5, 5: 0.3}, 1.0)
    for mean in (5.0, 0.5, 1.0 + 1e-6, math.nan):
        with pytest.raises(ValueError, match="differs from the degrees' mean"):
            rate_delta(d, 1.0, mean=mean)
    with pytest.raises(ValueError, match="mean must be nonnegative"):
        rate_delta(d, 1.0, mean=-1.0)


@pytest.mark.parametrize("d, message", [
    ({1.5: 1.0}, "degree must be an integer, got 1.5"),
    ({True: 1.0}, "degree must be an integer, got True"),  # int() read it as degree 1
    ({0: 1.5, 1: -0.5}, "degree 1 mass must be nonnegative, got -0.5"),
    # True answered 0.5 as a mass of 1, and "0.5" raised a TypeError from the sum
    ({0: True}, "degree 0 mass True is not a finite real number"),
    ({0: "0.5", 2: 0.5}, "degree 0 mass '0.5' is not a finite real number"),
], ids=["fraction", "bool", "negative-mass", "bool-mass", "string-mass"])
def test_rate_delta_refuses_a_degree_or_mass_out_of_range(d, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        rate_delta(d, 1.0)


def test_rate_delta_rejects_bad_distribution():
    with pytest.raises(ValueError):
        rate_delta({0: 0.4, 1: 0.4}, 2.0)  # mass 0.8
    with pytest.raises(ValueError):
        rate_delta({-1: 1.0}, 2.0)


# ---------------------------------------------------------------------------
# edge rate


def test_rate_zeta_er_closed_points():
    assert rate_zeta_er(0.0, 2.0) == pytest.approx(1.0, abs=1e-15)  # c/2
    assert rate_zeta_er(1.0, 2.0) == 0.0  # x = c/2
    assert rate_zeta_er(1.5, 2.0) == pytest.approx(0.10819766216224658, abs=1e-15)
    assert rate_zeta_er(2.0, 2.0) == pytest.approx(math.log(4.0) - 1.0, abs=1e-14)


def test_rate_zeta_matches_er_closed_form():
    C1 = Kernel.constant(2.0)
    for x in (0.5, 1.0, 1.5, 3.0):
        assert abs(rate_zeta(x, MU1, C1) - rate_zeta_er(x, 2.0)) <= 1e-8


def test_rate_zeta_zero_at_typical_density():
    assert rate_zeta(1.0, MU1, Kernel.constant(2.0)) == 0.0


def test_rate_zeta_kernel_vanishing_on_support():
    # C is zero on supp mu, so no edge can form: one color, then two
    A3 = Alphabet(3)
    cases = ((ColorMeasure(A2, [1.0, 0.0], probability=True),
              Kernel(A2, [[0.0, 1.0], [1.0, 0.0]])),
             (ColorMeasure(A3, [0.5, 0.5, 0.0], probability=True),
              Kernel(A3, [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 2.0, 3.0]])))
    for mu, C in cases:
        assert rate_zeta(0.0, mu, C) == 0.0
        assert rate_zeta(0.5, mu, C) == math.inf


@pytest.mark.parametrize("x", [0.5, 1.2, 3.0])
@pytest.mark.parametrize("mu_w,C_raw", [([0.5, 0.5], [[3.0, 1.0], [1.0, 2.0]]),
                                        ([0.4, 0.6], [[2.0, 1.0], [1.0, 3.0]])])
def test_rate_zeta_contraction_of_rate_I(mu_w, C_raw, x):
    # zeta(x) = inf { I(omega, pair) : ||pair|| = 2x }; at fixed omega the
    # pair minimiser is C omega x omega rescaled to mass 2x, so one scan over
    # omega = (t, 1 - t) checks zeta against rate_I without varsolve
    from scipy.optimize import minimize_scalar
    mu, C = ColorMeasure(A2, mu_w, probability=True), Kernel(A2, C_raw)

    def contracted(t):
        omega = ColorMeasure(A2, [t, 1.0 - t], probability=True)
        ref = product_kernel_measure(C, omega).weights
        return rate_I(omega, PairMeasure(A2, 2.0 * x * ref / ref.sum()), mu, C).value

    res = minimize_scalar(contracted, bounds=(0.0, 1.0), method="bounded",
                          options={"xatol": 1e-13})
    assert res.fun == pytest.approx(rate_zeta(x, mu, C), abs=1e-10)


def test_rate_value_serialization():
    rv = RateValue(1.5, {"color": 0.5, "pair": 1.0})
    assert rv.to_dict() == {"value": 1.5, "breakdown": {"color": 0.5, "pair": 1.0},
                            "reason": None}
    inf_rv = RateValue(math.inf, {}, reason="not-sub-consistent")
    assert inf_rv.to_dict() == {"value": "inf", "breakdown": {},
                                "reason": "not-sub-consistent"}


# ---------------------------------------------------------------------------
# poisson_limit_law


def test_poisson_limit_law_marginal_and_consistency():
    qstar = poisson_limit_law(MU2, C2)
    nu1, phi2 = phi(qstar)
    assert np.allclose(nu1.weights, MU2.weights, atol=1e-12)
    ref = product_kernel_measure(C2, MU2).weights
    # truncated means sit strictly below the full product
    assert np.all(phi2 <= ref + 1e-15)
    assert np.allclose(phi2, ref, atol=1e-10)
    from graphrates import is_sub_consistent
    assert is_sub_consistent(product_kernel_measure(C2, MU2), qstar)


def test_poisson_limit_law_er_degree_is_poisson():
    qstar = poisson_limit_law(MU1, Kernel.constant(3.0))
    for k in (0, 1, 4, 9):
        expect = math.exp(-3.0 + k * math.log(3.0) - math.lgamma(k + 1))
        assert qstar.mass(0, (k,)) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("mu, C", [
    ([0.5, 0.5], [[3.0, 1.0], [1.0, 2.0]]),
    ([0.5, 0.0, 0.5], [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 1.5]]),
], ids=["bench", "zero-weight-color"])
def test_poisson_limit_law_masses_are_the_poisson_product(mu, C):
    # an evaluation apart from the package's: mu(a) prod_b e^-lam lam^k / k!, lam = C(a,b) mu(b)
    m = len(mu)
    qstar = poisson_limit_law(ColorMeasure(Alphabet(m), mu, probability=True),
                              Kernel(Alphabet(m), C))
    assert {a for (a, _), _ in qstar.atoms()} == {a for a in range(m) if mu[a] > 0}
    for (a, ell), mass in qstar.atoms():
        if not any(ell):
            continue  # the degree-zero atom also holds the truncated tail
        expect = mu[a]
        for b, k in enumerate(ell):
            lam = C[a][b] * mu[b]
            expect *= math.exp(-lam) * lam ** k / math.factorial(k)
        assert mass == pytest.approx(expect, rel=1e-13, abs=0.0)
        assert qstar.mass(a, ell) == mass


def test_poisson_ppf_is_scipy_stats_poisson_ppf():
    # every quantile poisson_limit_law asks for, m = 1 to 4, lam = 0 included
    lams = np.concatenate([np.linspace(0.0, 20.0, 4004), [50.0, 100.0]])
    for m in range(1, 5):
        q = 1.0 - LIMIT_TAIL_MASS / m
        expect = poisson.ppf(q, lams)
        assert [_poisson_ppf(q, lam) for lam in lams] == expect.tolist()


def test_nonnegativity_over_random_measures():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        w = rng.uniform(0.05, 1.0, 2)
        omega = ColorMeasure(A2, w / w.sum(), probability=True)
        f = rng.uniform(0.0, 2.0, 3)
        ref = product_kernel_measure(C2, omega).weights
        pair = PairMeasure(A2, ref * [[f[0], f[1]], [f[1], f[2]]])
        assert rate_I(omega, pair, MU2, C2).value >= 0.0
        assert rate_I_omega(pair, omega, C2) >= 0.0


_NOT_FINITE = "is not a finite real number"


@pytest.mark.parametrize("call, message", [
    (lambda: ising_annealed(0.5, math.nan), "c nan " + _NOT_FINITE),
    (lambda: ising_annealed(math.nan, 2.0), "beta nan " + _NOT_FINITE),
    (lambda: zeta_inner(math.nan, MU2, C2), "x nan " + _NOT_FINITE),
    (lambda: rate_zeta(math.nan, MU2, C2), "x nan " + _NOT_FINITE),
    (lambda: rate_zeta_er(1.0, math.nan), "c nan " + _NOT_FINITE),
    (lambda: rate_zeta_er(math.inf, 2.0), "x inf " + _NOT_FINITE),
    (lambda: ising_oracle(0.5, math.nan), "c nan " + _NOT_FINITE),
    (lambda: isolated_log_tail(20, 1.0, math.nan), "t nan " + _NOT_FINITE),
    (lambda: consistify(PairMeasure(A1, [[2.0]]),
                        NeighborhoodMeasure(A1, {(0, (1,)): 1.0}, probability=True), math.nan),
     "eps nan " + _NOT_FINITE),
    (lambda: rate_delta({0: 0.5, 2: 0.5}, math.inf), "c inf " + _NOT_FINITE),
    (lambda: exact_er_edge_exponent(100, 2.0, math.nan), "x nan " + _NOT_FINITE),
    (lambda: rate_delta({0: 0.5, 2: 0.5}, 1.0, mean=-math.inf),
     "mean must be nonnegative, got -inf"),
    (lambda: rate_delta({0: math.nan, 2: 1.0}, 1.0), "degree 0 mass nan " + _NOT_FINITE),
], ids=["ising-c", "ising-beta", "zeta-inner-x", "zeta-x", "zeta-er-c", "zeta-er-x",
        "ising-oracle-c", "isolated-t", "consistify-eps", "delta-c", "exact-er-x",
        "delta-negative-infinite-mean", "delta-nan-mass"])
def test_a_nan_or_infinite_scalar_is_refused_not_answered(call, message):
    # each returned a value (nan, -inf or a finite number, with converged=True from the
    # solvers) or failed inside with an unrelated message
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
