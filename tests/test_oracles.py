import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from graphrates import (Alphabet, BudgetError, ColorCounts, ColorMeasure, Kernel,
                        ModelParams, NeighborhoodCounts, PairCounts, ising_annealed,
                        sample_colored_graph)
from graphrates.oracles import (_binomial_log_pmf, _isolated_law, binomial_log_tail,
                                composition_count, conditional_pair_log_probability,
                                extrapolate_exact, ising_log_partition, ising_oracle,
                                isolated_log_tail, partition_bound_check,
                                scalar_partition_counts, support_bound_check,
                                vector_partition_count)


# ---------------------------------------------------------------------------
# exact exponent ladders


@pytest.mark.parametrize("d", [0, 1, 3])
@pytest.mark.parametrize("sizes", [(100, 200, 400), tuple(250 * 2 ** j for j in range(8))],
                         ids=["three", "eight"])
def test_extrapolate_exact_recovers_the_limit(d, sizes):
    # I + (d/2) ln n / n + a / n + b / n^2 is in the fit's span once the log term is off
    limit, a, b = 0.1081976621, 2.5, -40.0
    exponents = [limit + d / 2 * math.log(n) / n + a / n + b / n ** 2 for n in sizes]
    assert extrapolate_exact(sizes, exponents, d) == pytest.approx(limit, abs=1e-12)


def test_extrapolate_exact_refuses_fewer_than_three_sizes():
    with pytest.raises(ValueError, match="three or more sizes, got 2"):
        extrapolate_exact((100, 200), [0.1, 0.1], 1)


@pytest.mark.parametrize("sizes, exponents, d, message", [
    (["100", "200", "400"], ["0.5", "0.45", True], 1, "a size must be an integer, got '100'"),
    ([100, 200.5, 400], [0.5, 0.45, 0.4], 1.5, "a size must be an integer, got 200.5"),
    ([100, True, 400], [0.5, 0.45, 0.4], 1, "a size must be an integer, got True"),
    ([0, 200, 400], [0.5, 0.45, 0.4], 1, "a size must be >= 1, got 0"),
    ([100, 200, 400], [0.5, 0.45, True], 1, "exponent True is not a finite real number"),
    ([100, 200, 400], ["0.5", 0.45, 0.4], 1, "exponent '0.5' is not a finite real number"),
    ([100, 200, 400], [0.5, 0.45, 0.4], 1.5, "d must be an integer, got 1.5"),
    ([100, 200, 400], [0.5, 0.45, 0.4], -1, "d must be nonnegative, got -1"),
], ids=["string-size", "fractional-size", "bool-size", "zero-size", "bool-exponent",
        "string-exponent", "fractional-d", "negative-d"])
def test_extrapolate_exact_reads_its_inputs_through_the_package_readers(sizes, exponents, d,
                                                                         message):
    # numpy's float cast answered (['100', '200', '400'], ['0.5', '0.45', True], 1) with
    # 1.932 and ([100, 200.5, 400], [0.5, 0.45, 0.4], 1.5) with 0.331
    with pytest.raises(ValueError, match=re.escape(message)):
        extrapolate_exact(sizes, exponents, d)


# ---------------------------------------------------------------------------
# binomial tail


def test_binomial_tail_exact_points():
    assert binomial_log_tail(10, 0.3, 0) == 0.0
    assert binomial_log_tail(2, 0.5, 2) == pytest.approx(math.log(0.25), abs=1e-12)
    assert binomial_log_tail(5, 0.5, 6) == -math.inf
    assert binomial_log_tail(5, 0.0, 1) == -math.inf
    assert binomial_log_tail(5, 1.0, 5) == 0.0


def test_binomial_tail_vs_direct_sum():
    N, p = 12, 0.37
    for k in range(N + 2):
        direct = sum(math.comb(N, j) * p ** j * (1 - p) ** (N - j)
                     for j in range(k, N + 1))
        got = binomial_log_tail(N, p, k)
        if direct == 0.0:
            assert got == -math.inf
        else:
            assert got == pytest.approx(math.log(direct), abs=1e-10)


@pytest.mark.parametrize("N", [1, 10, 4950, 199000])
@pytest.mark.parametrize("p", [1e-4, 0.3, 0.999])
def test_binomial_tail_window_matches_the_full_sum(N, p):
    # k below, at and above the mean, out to N; the window drops terms past the mode
    # that sum to under 2 e^-40 of the tail, so P itself stays within 1e-15 relative
    mean, sd = N * p, math.sqrt(N * p * (1 - p))
    for k in sorted({1, math.floor(mean / 2), math.floor(mean), math.ceil(mean),
                     math.ceil(mean + 3 * sd), math.ceil(mean + 10 * sd), N} - {0}):
        k = min(k, N)
        full = logsumexp(_binomial_log_pmf(N, p, np.arange(k, N + 1, dtype=float)))
        assert abs(math.expm1(binomial_log_tail(N, p, k) - min(full, 0.0))) <= 1e-15, k


def test_binomial_tail_evaluates_a_window_about_the_mode(monkeypatch):
    # k = 1 lies 1,000 sd below the mode; the terms that far below it are dropped as the
    # ones far above it are, where every term from k up to the mode was evaluated
    evaluated = []

    def counted(N, p, k):
        evaluated.append(np.size(k))
        return _binomial_log_pmf(N, p, k)

    monkeypatch.setattr("graphrates.oracles._binomial_log_pmf", counted)
    binomial_log_tail(1999000, 0.3, 1)
    assert 0 < sum(evaluated) < 10 ** 5


@pytest.mark.parametrize("N", [50, 4950, 199000])
@pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.9])
def test_binomial_tail_below_the_mode_matches_the_full_sum(N, p):
    mean, sd = N * p, math.sqrt(N * p * (1 - p))
    for k in sorted({1, math.floor(mean - 12 * sd), math.floor(mean - 3 * sd),
                     math.floor(mean)} - {0}):
        k = max(k, 1)
        full = logsumexp(_binomial_log_pmf(N, p, np.arange(k, N + 1, dtype=float)))
        assert abs(binomial_log_tail(N, p, k) - min(full, 0.0)) <= 1e-12, k


@given(st.integers(0, 30), st.floats(0.01, 0.99))
@settings(max_examples=100, deadline=None)
def test_binomial_tail_nonincreasing_in_k(N, p):
    vals = [binomial_log_tail(N, p, k) for k in range(N + 2)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_binomial_tail_rejects_bad_args():
    with pytest.raises(ValueError):
        binomial_log_tail(5, 1.5, 2)
    with pytest.raises(ValueError):
        binomial_log_tail(5, 0.5, 7)


def test_binomial_tail_rounding_stays_within_its_stated_bound():
    # the gammaln-difference log pmf rounds to at most 3e-16 N ln N absolute: these two
    # tails are within 0.001^N and 0.7^N of 1, so each reads as its own rounding
    N = 1999000
    bound = 3e-16 * N * math.log(N)
    for p in (0.999, 0.3):
        assert abs(binomial_log_tail(N, p, 1)) <= bound
    # a tail 3 sd past the mean, against a 40-digit regularized incomplete beta
    assert abs(binomial_log_tail(N, 0.999, 1997136) + 6.74212915547814) <= bound


# ---------------------------------------------------------------------------
# class-pair edge counts given the colors


def _every_graph(n):
    """All 2^C(n,2) graphs on n vertices as rows of 0/1 entries over the vertex pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    masks = (np.arange(2 ** len(pairs))[:, None] >> np.arange(len(pairs))) & 1
    return pairs, masks


@pytest.mark.parametrize("colors, C", [
    ([0, 0, 0, 1, 1, 1], [[3.0, 1.0], [1.0, 2.0]]),
    ([0, 1, 1, 1, 1, 1], [[0.5, 2.5], [2.5, 4.0]]),
    # C(1, 1) / n above 1: every edge inside class 1 is present
    ([0, 0, 1, 1, 1], [[1.0, 2.0], [2.0, 7.0]]),
    ([0, 0, 1, 1, 2, 2], [[2.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 1.5]]),
    ([0, 1, 2, 2, 2], [[1.0, 0.0, 2.0], [0.0, 1.0, 1.0], [2.0, 1.0, 3.0]]),
], ids=["m2-even", "m2-lopsided", "m2-p-one", "m3-even", "m3-zero-kernel"])
def test_conditional_pair_law_vs_every_graph(colors, C):
    # sum the probability of every graph on the fixed coloring by its class-pair counts
    n, m = len(colors), len(C)
    kernel = Kernel(Alphabet(m), C)
    pairs, masks = _every_graph(n)
    p = np.array([min(C[colors[u]][colors[v]] / n, 1.0) for u, v in pairs])
    prob = np.prod(np.where(masks == 1, p, 1.0 - p), axis=1)
    edge_counts = np.zeros((len(masks), m, m), dtype=np.int64)
    for i, (u, v) in enumerate(pairs):
        a, b = sorted((colors[u], colors[v]))
        edge_counts[:, a, b] += masks[:, i]
    edge_counts = edge_counts + np.triu(edge_counts, 1).transpose(0, 2, 1)
    found, inverse = np.unique(edge_counts.reshape(len(masks), -1), axis=0, return_inverse=True)
    law = np.bincount(inverse.ravel(), weights=prob)
    color_counts = ColorCounts(n, np.bincount(colors, minlength=m))
    total = 0.0
    for e, mass in zip(found, law):
        got = conditional_pair_log_probability(color_counts, PairCounts(n, e.reshape(m, m)),
                                               kernel)
        if mass == 0.0:
            assert got == -math.inf
        else:
            assert got == pytest.approx(math.log(mass), rel=1e-12, abs=1e-12)
            total += math.exp(got)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_conditional_pair_law_refuses_counts_past_the_slots():
    # two vertices of color 0 have one slot between them
    color_counts = ColorCounts(4, [2, 2])
    C = Kernel(Alphabet(2), [[1.0, 1.0], [1.0, 1.0]])
    assert conditional_pair_log_probability(
        color_counts, PairCounts(4, [[2, 0], [0, 0]]), C) == -math.inf
    with pytest.raises(ValueError, match="edge counts are for n = 5"):
        conditional_pair_log_probability(color_counts, PairCounts(5, [[0, 0], [0, 0]]), C)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        conditional_pair_log_probability(color_counts, PairCounts(4, [[0]]), C)


# ---------------------------------------------------------------------------
# isolated vertices of G(n, p)


@pytest.mark.parametrize("n", range(1, 7))
def test_isolated_log_tail_vs_brute_force(n):
    # graphs on n vertices tallied by (isolated vertices, edges), over all of them
    pairs = list(itertools.combinations(range(n), 2))
    tally = {}
    for edges in itertools.product((False, True), repeat=len(pairs)):
        touched = {v for on, pair in zip(edges, pairs) if on for v in pair}
        key = (n - len(touched), sum(edges))
        tally[key] = tally.get(key, 0) + 1
    # c = 6 puts p = 1 at every n <= 6: the complete graph
    for c in (0.5, 2.0, 6.0):
        p = min(c / n, 1.0)
        for t in (0.0, 1 / 3, 0.5, 0.9, 1.0):
            direct = sum(count * p ** e * (1.0 - p) ** (len(pairs) - e)
                         for (i, e), count in tally.items() if i / n >= t)
            got = isolated_log_tail(n, c, t)
            if direct == 0.0:
                assert got == -math.inf
            else:
                assert got == pytest.approx(math.log(direct), abs=1e-12)


def test_isolated_log_tail_is_stable_in_its_precision():
    # the recursion cancels catastrophically; 3n + 512 fraction bits move
    # ln P by no more than 1e-12 from the 2n + 256 the oracle uses
    for n, c, t in ((50, 2.0, 0.3), (120, 0.5, 0.9), (200, 2.0, 0.2), (200, 1.0, 0.6)):
        law = _isolated_law(n, min(c / n, 1.0), 3 * n + 512)
        tail = sum(x for i, x in enumerate(law) if i / n >= t)
        finer = math.log(tail) - (3 * n + 512) * math.log(2.0)
        assert isolated_log_tail(n, c, t) == pytest.approx(finer, abs=1e-12)
        assert finer < -1.0


def test_isolated_log_tail_rejects_bad_args():
    for n, c in ((0, 1.0), (2.5, 1.0), (10, -1.0), (10, math.inf), (10, math.nan)):
        with pytest.raises(ValueError):
            isolated_log_tail(n, c, 0.5)


def test_isolated_log_tail_refuses_n_past_its_budget(monkeypatch):
    # the budget is lowered, so the refusal is tested without the slow recursion
    monkeypatch.setattr("graphrates.oracles.ISOLATED_TAIL_BUDGET", 30)
    assert isolated_log_tail(30, 1.0, 0.5) < 0.0
    with pytest.raises(BudgetError, match=re.escape("n 31 exceeds the isolated-tail budget 30")):
        isolated_log_tail(31, 1.0, 0.5)


# ---------------------------------------------------------------------------
# counting


def test_composition_count_small_cases():
    assert composition_count(0, 3) == 1
    assert composition_count(3, 2) == 4  # (0,3) (1,2) (2,1) (3,0)
    assert composition_count(5, 1) == 1
    # stars and bars cross-check
    for j, parts in itertools.product(range(8), range(1, 5)):
        assert composition_count(j, parts) == math.comb(j + parts - 1, parts - 1)


def test_composition_count_sandwich_at_scale():
    # j^(parts-1) <= count (parts-1)! <= (j+parts)^(parts-1), on criterion 10's domain
    for j, parts in itertools.product(range(51), range(1, 7)):
        scaled = composition_count(j, parts) * math.factorial(parts - 1)
        assert j ** (parts - 1) <= scaled <= (j + parts) ** (parts - 1)
    assert composition_count(50, 1) == 1


@pytest.mark.parametrize("call, message", [
    # int() read 2.5 as 2 and True as 1, answering for a different argument
    (lambda: composition_count(2.5, 3), "j must be an integer, got 2.5"),
    (lambda: vector_partition_count((1.5, 2)), "an entry of ell must be an integer, got 1.5"),
    (lambda: vector_partition_count((True, 2)), "an entry of ell must be an integer, got True"),
    (lambda: binomial_log_tail(10.9, 0.3, 2), "N must be an integer, got 10.9"),
    (lambda: partition_bound_check(2.9, (3,)), "m must be an integer, got 2.9"),
    (lambda: composition_count(-1, 2), "j must be nonnegative, got -1"),
    (lambda: composition_count(3, 0), "parts must be >= 1, got 0"),
    (lambda: partition_bound_check(0, (3,)), "m must be >= 1, got 0"),
    (lambda: partition_bound_check(2, (3, 0)), "magnitudes must be >= 1, got 0"),
], ids=["composition-fraction", "partition-fraction", "partition-bool", "tail-fraction",
        "bound-fraction", "composition-negative", "composition-no-parts", "bound-no-colors",
        "bound-zero-magnitude"])
def test_integer_arguments_are_refused_not_truncated(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def _brute_force_vector_partitions(ell):
    """Multisets of nonzero nonneg vectors summing to ell, counted directly."""
    dims = len(ell)
    cells = [v for v in itertools.product(*(range(x + 1) for x in ell))
             if any(v)]
    target = tuple(ell)

    def rec(remaining, start):
        if not any(remaining):
            return 1
        total = 0
        for i in range(start, len(cells)):
            part = cells[i]
            if all(p <= r for p, r in zip(part, remaining)):
                rest = tuple(r - p for r, p in zip(remaining, part))
                total += rec(rest, i)  # parts may repeat
        return total

    return rec(target, 0)


def test_vector_partition_count_small_cases():
    assert vector_partition_count((0,)) == 1
    assert vector_partition_count((0, 0)) == 1
    # scalar case reduces to integer partitions: p(4) = 5
    assert vector_partition_count((4,)) == 5
    # (1,1) = {(1,1)} and {(1,0),(0,1)}
    assert vector_partition_count((1, 1)) == 2


@pytest.mark.parametrize("ell", [(1, 1), (2, 1), (2, 2), (3, 2), (1, 1, 1),
                                 (2, 0, 1), (4, 3)])
def test_vector_partition_count_vs_brute_force(ell):
    assert vector_partition_count(ell) == _brute_force_vector_partitions(ell)


def test_vector_partition_count_permutation_symmetry():
    for ell in [(3, 1), (4, 2), (2, 1, 0)]:
        base = vector_partition_count(ell)
        for perm in itertools.permutations(ell):
            assert vector_partition_count(perm) == base


def test_vector_partition_count_budget():
    assert vector_partition_count((7, 7)) == 2998
    with pytest.raises(BudgetError):
        vector_partition_count((8, 7))
    with pytest.raises(BudgetError):
        partition_bound_check(1, [3, 15])


def test_scalar_partition_counts_known_prefix():
    p = scalar_partition_counts(12)
    assert p == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_scalar_partition_bound_to_60():
    p = scalar_partition_counts(60)
    assert p[60] == 966467
    for S in range(1, 61):
        assert p[S] <= math.exp(2.57 * math.sqrt(S))


def test_partition_bound_check_two_colors():
    out = partition_bound_check(2, range(1, 13))
    assert out["theta_ok"] and out["scalar_ok"]
    assert out["theta_bound"] == 6
    assert all(row["theta_hat"] <= 6 for row in out["per_magnitude"])
    # counts come back as decimal strings
    assert all(int(row["max_count"]) >= 1 for row in out["per_magnitude"])


def test_partition_bound_check_single_color():
    out = partition_bound_check(1, range(1, 15))
    assert out["theta_ok"]


@pytest.mark.parametrize("m, counts", [
    (1, [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]),
    (2, [1, 2, 4, 9, 16, 31, 57, 109, 189, 339, 589, 1043]),
    (3, [1, 2, 5, 11, 26, 66, 137, 300]),
])
def test_partition_bound_check_max_counts(m, counts):
    # the largest vector partition count at each magnitude S = 1, 2, ...
    out = partition_bound_check(m, range(1, len(counts) + 1))
    assert [int(row["max_count"]) for row in out["per_magnitude"]] == counts


# ---------------------------------------------------------------------------
# support bound


def test_support_bound_empty_graph():
    nc = NeighborhoodCounts(5, {(0, (0,)): 5})
    assert support_bound_check(nc)


def test_support_bound_on_er_samples():
    mu = ColorMeasure(Alphabet(1), [1.0], probability=True)
    params = ModelParams(mu, Kernel.constant(2.0), 500)
    from graphrates import empirical_measures
    for seed in range(50):
        g = sample_colored_graph(params, seed)
        _, _, nc = empirical_measures(g)
        assert support_bound_check(nc)


# ---------------------------------------------------------------------------
# Ising oracle and tiny partition functions


def test_ising_oracle_beta_zero():
    assert ising_oracle(0.0, 5.0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_ising_oracle_agrees_with_annealed_solver():
    for beta, c in ((0.5, 1.0), (1.0, 2.0), (0.25, 4.0)):
        assert abs(ising_oracle(beta, c) - ising_annealed(beta, c).value) <= 1e-6


def test_ising_oracle_rejects_bad_args():
    with pytest.raises(ValueError):
        ising_oracle(-0.1, 1.0)
    with pytest.raises(ValueError):
        ising_oracle(0.5, 0.0)
    with pytest.raises(ValueError, match="overflows a float"):
        ising_oracle(1000.0, 2.0)


@pytest.mark.parametrize("beta, c", [(1e-8, 1e9), (705.0, 0.5)], ids=["dense", "hot"])
def test_ising_oracle_refuses_past_the_sparse_limit(beta, c):
    # at n = 40000, the smallest size, c = 1e9 gives p = 1 (the complete graph, 0.6931
    # where the limit is 5.0), and e^705 makes every edge weight huge; both answers were
    # far from the sparse limit
    with pytest.raises(ValueError, match="past the sparse limit: at n = 40000"):
        ising_oracle(beta, c)


def exact_tiny_partition_function(n, p, beta, seed=None):
    """Brute-force Ising partition function on a tiny Erdos-Renyi graph.

    With a seed: samples G(n, p) and returns Z(beta) by summing over all 2^n
    spin assignments. With seed=None: returns E Z(beta) exactly via the
    per-edge expectation prod (1 - p + p e^{beta eta_u eta_v}), reduced over
    the spin-up count. Budget n <= 14.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > 14:
        raise BudgetError(f"n={n} exceeds the 2^n enumeration budget (14)")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")

    if seed is None:
        agree_factor = 1.0 - p + p * math.exp(beta)
        cross_factor = 1.0 - p + p * math.exp(-beta)
        total = 0.0
        for j in range(n + 1):
            agree_pairs = math.comb(j, 2) + math.comb(n - j, 2)
            cross_pairs = j * (n - j)
            total += (math.comb(n, j) * agree_factor ** agree_pairs
                      * cross_factor ** cross_pairs)
        return total

    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = rng.random(len(pairs)) < p
    edges = [uv for uv, keep in zip(pairs, present) if keep]
    spins = 1 - 2 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
    energy = np.zeros(2 ** n)
    for u, v in edges:
        energy += spins[:, u] * spins[:, v]
    return float(np.exp(beta * energy).sum())


def test_tiny_partition_function_beta_zero():
    for n in (1, 3, 8):
        assert exact_tiny_partition_function(n, 0.3, 0.0) == pytest.approx(
            2.0 ** n, rel=1e-12)
        assert exact_tiny_partition_function(n, 0.3, 0.0, seed=1) == pytest.approx(
            2.0 ** n, rel=1e-12)


def test_tiny_partition_function_two_vertices_full_graph():
    beta = 0.7
    expect = 2.0 * math.exp(beta) + 2.0 * math.exp(-beta)
    assert exact_tiny_partition_function(2, 1.0, beta) == pytest.approx(
        expect, rel=1e-12)
    assert exact_tiny_partition_function(2, 1.0, beta, seed=3) == pytest.approx(
        expect, rel=1e-12)


def test_tiny_partition_function_tracks_annealed_limit():
    # (1/n) ln E Z at n=8 sits within 0.15 of the n->inf annealed value
    n, beta, c = 8, 0.5, 1.0
    z = exact_tiny_partition_function(n, c / n, beta)
    finite = math.log(z) / n
    limit = ising_annealed(beta, c).value
    assert abs(finite - limit) <= 0.15


@pytest.mark.parametrize("n", range(1, 9))
def test_ising_log_partition_vs_tiny_partition_function(n):
    # c = 12 puts p = min(c / n, 1) at 1
    for beta in (0.0, 0.3, 1.2, 4.0):
        for c in (0.5, 2.0, 12.0):
            exact = exact_tiny_partition_function(n, min(c / n, 1.0), beta)
            assert ising_log_partition(n, beta, c) == pytest.approx(math.log(exact), rel=1e-12)


@pytest.mark.parametrize("n", range(2, 6))
def test_ising_log_partition_averages_z_over_every_graph(n):
    # E Z_n = sum over the graphs G of P(G) sum over the spins s of exp(beta sum_{uv in G} s_u s_v)
    pairs, masks = _every_graph(n)
    spins = 1 - 2 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
    bonds = np.stack([spins[:, u] * spins[:, v] for u, v in pairs], axis=1)
    for beta, c in ((0.4, 1.5), (1.1, 3.0)):
        p = min(c / n, 1.0)
        prob = p ** masks.sum(axis=1) * (1.0 - p) ** (len(pairs) - masks.sum(axis=1))
        mean_z = prob @ np.exp(beta * masks @ bonds.T).sum(axis=1)
        assert ising_log_partition(n, beta, c) == pytest.approx(math.log(mean_z), rel=1e-12)


def test_tiny_partition_function_budget():
    with pytest.raises(BudgetError):
        exact_tiny_partition_function(15, 0.1, 0.5)
