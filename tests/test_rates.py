import math

import numpy as np
import pytest

from graphrates import (Alphabet, ColorMeasure, Kernel, ModelParams,
                        NeighborhoodMeasure, PairMeasure, RateValue,
                        empirical_measures, h_c, phi, poisson_limit_law,
                        product_kernel_measure, q_measure, rate_I,
                        rate_I_omega, rate_J, rate_J_tilde, rate_delta,
                        rate_zeta, rate_zeta_er, sample_colored_graph)
from graphrates.rates import _delta_given_x
from graphrates.seeds import derive_child_seed

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


# ---------------------------------------------------------------------------
# rate_J and relatives


def test_rate_j_zero_point():
    qstar = poisson_limit_law(MU2, C2, tail_mass=1e-14)
    pair_star = product_kernel_measure(C2, MU2)
    rv = rate_J(pair_star, qstar, MU2, C2)
    assert rv.finite
    assert rv.value <= 1e-9
    assert set(rv.breakdown) == {"neighborhood", "color", "pair"}


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
    expect = 0.5 * c * (1.0 - math.exp(-2.0))
    assert rate_delta({0: 1.0}, c) == pytest.approx(expect, abs=1e-10)


def test_rate_delta_branch_continuity():
    # mean exactly c: both branch formulas must agree
    from graphrates import solve_degree_fixed_point
    for c, d in ((1.0, {0: 0.5, 2: 0.5}), (2.0, {1: 0.5, 3: 0.5}),
                 (4.0, {0: 0.5, 8: 0.5})):
        x_fp = solve_degree_fixed_point(float(c), c).value
        assert abs(_delta_given_x(d, c, x_fp) - _delta_given_x(d, c, float(c))) <= 1e-10


def test_rate_delta_infinite_mean():
    assert rate_delta({0: 0.5, 10: 0.5}, 2.0, mean=math.inf) == math.inf


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


def test_rate_value_serialization():
    rv = RateValue(1.5, {"color": 0.5, "pair": 1.0})
    assert RateValue.from_dict(rv.to_dict()).value == 1.5
    inf_rv = RateValue(math.inf, {}, reason="not-sub-consistent")
    d = inf_rv.to_dict()
    assert d["value"] == "inf"
    back = RateValue.from_dict(d)
    assert back.value == math.inf and back.reason == "not-sub-consistent"


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
