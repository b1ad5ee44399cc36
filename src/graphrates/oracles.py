"""Exact ground-truth computations used to validate the main code paths.

Everything here is coded independently of the modules under test: the one
fit of every exact exponent ladder (extrapolate_exact); the binomial law in
log space and over it the exact Erdos-Renyi edge exponent (at mcharness's
threshold ceil(x n)), the class-pair edge counts' law given the colors and
the annealed Ising partition function E Z_n; the isolated-vertex law of
G(n, p) in fixed point; every partition count from one table of
prod 1 / (1 - x^v); the counting and support-size bounds, reported as flags
for criterion 10 to judge. Counts are exact integers.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, logsumexp, xlog1py, xlogy

from .errors import BudgetError
from .mcharness import _edge_threshold
from .measures import _check_same_alphabet, _real, _whole

VECTOR_PARTITION_BUDGET = 14
ISOLATED_TAIL_BUDGET = 1600  # isolated_log_tail's fixed-point recursion costs about n^3.5
_SCALAR_BOUND_CONST = 2.57  # just above the Hardy-Ramanujan pi*sqrt(2/3)
_SCALAR_LIMIT = 60
ISING_SIZES = (40000, 80000, 160000)  # criterion 4 gives the error budget

# ---------------------------------------------------------------------------
# exact exponent ladders


def extrapolate_exact(sizes, exponents, d):
    """Limit of exact exponents -(1/n) ln P_n at three or more sizes: (d/2) ln n / n
    subtracted (Bahadur & Rao 1960), [1, 1/n, 1/n^2] fitted unweighted, the intercept.

    d counts the law's free lattice counts: 1 for the tail or point mass of one count
    (the edge count, the isolated vertices, a matching's edges), m(m + 1)/2 for the
    class-pair edge counts, 0 for a sum over a whole state space such as E Z_n."""
    n = np.array(sizes, dtype=float)
    if n.size < 3:
        raise ValueError(f"an exact ladder needs three or more sizes, got {n.size}")
    y = np.array(exponents, dtype=float) - d / 2 * np.log(n) / n
    basis = np.vander(n.min() / n, 3, increasing=True)  # 1/n scaled to keep it conditioned
    return float(np.linalg.lstsq(basis, y, rcond=None)[0][0])


# ---------------------------------------------------------------------------
# the binomial law


def _binomial_log_pmf(N, p, k):
    """ln P(Binomial(N, p) = k) for 0 <= k <= N, elementwise."""
    return (gammaln(N + 1) - gammaln(k + 1) - gammaln(N - k + 1)
            + xlogy(k, p) + xlog1py(N - k, -p))


def binomial_log_tail(N, p, k):
    """log P(Binomial(N, p) >= k) for integers N and k.

    k = 0 returns 0.0 (log of 1); k = N+1 returns -inf. The terms are summed only as far
    as a double can hold them. Away from the mode they fall by the ratio of neighbors,
    r_j = pmf(j + 1) / pmf(j) = (N - j) p / ((j + 1)(1 - p)) above it and
    s_j = pmf(j - 1) / pmf(j) = j (1 - p) / ((N - j + 1) p) below it, and each ratio falls
    as j moves away, so the run of terms from j outward sums to at most pmf(j) / (1 - ratio).
    The first run on either side whose bound is e^-40 of the largest term is dropped, under
    2 e^-40 of the sum in all. The window reaches 256 terms either side of max(k, mode)
    and grows by 4 each time.

    Each log pmf is a difference of gammaln values near ln N!, whose absolute rounding
    grows about as 1e-16 N ln N; against a 40-digit reference it stayed under 3e-16 N ln N
    for N = 100 to 1,999,000, where a tail within 0.7^N of 1 reads -2.8e-9, not 0.
    """
    N, p = _whole(N, "N", 0), _real(p, "p", 0, 1)
    k = _whole(k, "k", 0, N + 1)
    if k == 0:
        return 0.0
    if k > N:
        return -math.inf
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return 0.0
    mode, width = math.floor((N + 1) * p), 256
    while True:
        j = np.arange(max(k, mode - width), min(max(k, mode) + width, N + 1), dtype=float)
        log_pmf = _binomial_log_pmf(N, p, j)
        top = log_pmf.max() - 40.0
        with np.errstate(divide="ignore"):  # a ratio of 1 or more bounds nothing: log1p(-1)
            up = log_pmf - np.log1p(-np.minimum((N - j) * p / ((j + 1) * (1 - p)), 1)) <= top
            down = log_pmf - np.log1p(-np.minimum(j * (1 - p) / ((N - j + 1) * p), 1)) <= top
        start = down.size - down[::-1].argmax() if down.any() else 0
        end = up.argmax() if up.any() else up.size
        if (end < up.size or j[-1] == N) and (start or j[0] == k):
            return float(min(logsumexp(log_pmf[start:end]), 0.0))
        width *= 4


def exact_er_edge_exponent(n, c, x):
    """Exact finite-n exponent -(1/n) ln P(|E| >= ceil(x n)) for the ER model."""
    n, c, x = _whole(n, "n", 2), _real(c, "c", 0), _real(x, "x")
    N = n * (n - 1) // 2
    p = min(c / n, 1.0)
    k = max(_edge_threshold(x, n), 0)
    if k > N:  # no graph on n vertices has k edges
        return math.inf
    return -binomial_log_tail(N, p, k) / n


def conditional_pair_log_probability(color_counts, edge_counts, C):
    """ln P(edge_counts | color_counts), a PairCounts given a ColorCounts, under kernel C.

    Given the colors, the class pairs' edge counts are independent Binomial(S_ab,
    min(C_ab / n, 1)), S_ab = k_a k_b and S_aa = C(k_a, 2); -inf past the slots S_ab."""
    _check_same_alphabet(color_counts, edge_counts, C)
    n, k = color_counts.n, color_counts.counts
    if edge_counts.n != n:
        raise ValueError(f"edge counts are for n = {edge_counts.n}, color counts for n = {n}")
    slots = np.outer(k, k)
    np.fill_diagonal(slots, k * (k - 1) // 2)
    upper = np.triu_indices(k.size)
    S, e = slots[upper], edge_counts.edge_counts[upper]
    if np.any(e > S):
        return -math.inf
    return float(np.sum(_binomial_log_pmf(S, np.minimum(C.values[upper] / n, 1.0), e)))


def _isolated_law(n, p, bits):
    """P(I = i) for i = 0..n, I the isolated vertices of G(n, p), as integers scaled by 2^bits.

    Summing over the set of isolated vertices gives
        P(I = i) = C(n, i) (1 - p)^(i (n - i) + i (i - 1) / 2) q_(n - i),
    q_k being the chance that G(k, p) has no isolated vertex, and the same
    sum over k vertices is 1, which fixes q_k from q_0 = 1, ..., q_(k-1).
    That recursion cancels catastrophically, so it runs in fixed point.
    """
    one = 1 << bits
    r = round((1 - Fraction(p)) * one)
    r_pow = [one]  # r_pow[i] = (1 - p)^i
    for _ in range(n):
        r_pow.append(r_pow[-1] * r >> bits)
    # at each k, w[i] = (1 - p)^(i (k - i) + i (i - 1) / 2), which at k + 1
    # gains the factor (1 - p)^i; w[k] at k is w[k - 1] at k
    q, w = [one], [one]
    for k in range(1, n + 1):
        w = [x * r_pow[i] >> bits for i, x in enumerate(w)]
        w.append(w[-1])
        q.append(one - sum(math.comb(k, i) * (w[i] * q[k - i] >> bits)
                           for i in range(1, k + 1)))
    return [math.comb(n, i) * (w[i] * q[n - i] >> bits) for i in range(n + 1)]


def isolated_log_tail(n, c, t):
    """ln P(I / n >= t), I the isolated vertices of G(n, p), p = min(c / n, 1).

    Exact up to the rounding of a fixed-point recursion with 2n + 256
    fraction bits (see _isolated_law); i / n >= t is the comparison the
    Monte Carlo rows make. -inf when no i qualifies. Budget: n <= 1600.
    """
    n, c, t = _whole(n, "n", 1), _real(c, "c", 0), _real(t, "t")
    if n > ISOLATED_TAIL_BUDGET:
        raise BudgetError(f"n {n} exceeds the isolated-tail budget {ISOLATED_TAIL_BUDGET}")
    bits = 2 * n + 256
    tail = sum(x for i, x in enumerate(_isolated_law(n, min(c / n, 1.0), bits)) if i / n >= t)
    if tail <= 0:
        return -math.inf
    return min(math.log(tail) - bits * math.log(2.0), 0.0)


# ---------------------------------------------------------------------------
# exact counting


def composition_count(j, parts):
    """Number of nonnegative integer solutions of l_1 + ... + l_parts = j,
    C(j + parts - 1, parts - 1)."""
    j, parts = _whole(j, "j", 0), _whole(parts, "parts", 1)
    return math.comb(j + parts - 1, parts - 1)


def _partition_counts(cells):
    """Vector partition counts on a downward-closed list of cells in lexicographic order.

    The counts are the coefficients of prod over nonzero v of 1 / (1 - x^v),
    starting from 1 at the zero vector, cells[0]. Each factor is one
    unbounded-knapsack pass: w - v comes before w, so a part can repeat.
    """
    table = dict.fromkeys(cells, 0)
    table[cells[0]] = 1
    for v in cells[1:]:
        for w in cells:
            rest = tuple(a - b for a, b in zip(w, v))
            if min(rest) >= 0:
                table[w] += table[rest]
    return table


def _check_budget(magnitude):
    if magnitude > VECTOR_PARTITION_BUDGET:
        raise BudgetError(
            f"magnitude {magnitude} exceeds the enumeration budget {VECTOR_PARTITION_BUDGET}")


def vector_partition_count(ell):
    """Exact number of multisets of nonzero vectors summing to ell. Budget: |ell| <= 14."""
    ell = tuple(_whole(x, "an entry of ell", 0) for x in ell)
    _check_budget(sum(ell))
    return _partition_counts(list(itertools.product(*(range(x + 1) for x in ell))))[ell]


def scalar_partition_counts(limit):
    """p(0..limit), the integer partition counts, exact integers."""
    return list(_partition_counts([(s,) for s in range(limit + 1)]).values())


def partition_bound_check(m, magnitudes):
    """Vector-partition growth check against the ln-scale envelope.

    For each magnitude S, finds max vector_partition_count over all ell with
    |ell| = S and m coordinates, and reports theta_hat(S) =
    ln(max count) / (ln(S) * S^{(2m-1)/(2m)}) with the flag theta_ok that
    every theta_hat <= 3m. Also reports the flag scalar_ok that
    p(S) <= exp(2.57 sqrt(S)) for S <= 60. Counts are reported as decimal
    strings to keep them exact in JSON. Budget: S <= 14.
    """
    m = _whole(m, "m", 1)
    sizes = [_whole(S, "magnitudes", 1) for S in magnitudes]
    top = max(sizes, default=0)
    _check_budget(top)
    cells = [w for w in itertools.product(range(top + 1), repeat=m) if sum(w) <= top]
    best = [0] * (top + 1)
    for w, count in _partition_counts(cells).items():
        best[sum(w)] = max(best[sum(w)], count)
    rows = []
    for S in sizes:
        theta = math.log(best[S]) / (math.log(S) * S ** ((2 * m - 1) / (2 * m))) if S > 1 else 0.0
        rows.append({"S": S, "max_count": str(best[S]), "theta_hat": theta,
                     "ok": theta <= 3 * m})
    scalar = scalar_partition_counts(_SCALAR_LIMIT)
    scalar_ok = all(scalar[S] <= math.exp(_SCALAR_BOUND_CONST * math.sqrt(S))
                    for S in range(1, _SCALAR_LIMIT + 1))
    return {"m": m, "theta_bound": 3 * m, "per_magnitude": rows,
            "theta_ok": all(row["ok"] for row in rows), "scalar_limit": _SCALAR_LIMIT,
            "scalar_ok": scalar_ok}


def support_bound_check(nu_n):
    """Support-size bound for an n-empirical neighborhood measure.

    #support <= C (n ||pair||)^{m/(m+1)} + D with
    C = 2^m Gamma(m+2)^{m/(m+1)} / Gamma(m) and D = 2^m (m+1)^m / Gamma(m).
    nu_n is a NeighborhoodCounts; n ||pair|| is the exact integer total
    sum of count * |ell| over its atoms.
    """
    m = nu_n.alphabet.m
    n_pair_mass = int((nu_n.counts[:, None] * nu_n.ells).sum())
    exponent = m / (m + 1)
    c_const = 2 ** m * math.gamma(m + 2) ** exponent / math.gamma(m)
    d_const = 2 ** m * (m + 1) ** m / math.gamma(m)
    return nu_n.counts.size <= c_const * n_pair_mass ** exponent + d_const


# ---------------------------------------------------------------------------
# Ising


def ising_log_partition(n, beta, c):
    """ln E Z_n of the Ising model at inverse temperature beta on G(n, p), p = min(c / n, 1).

    The edges are independent, so with a = 1 + p expm1(beta), b = 1 + p expm1(-beta) and
    k spins up, E Z_n = sum_k C(n, k) a^(C(k,2) + C(n-k,2)) b^(k (n-k)). That is
    2^n a^C(n,2) E (b / a)^(K (n-K)), K ~ Binomial(n, 1/2), symmetric under K -> n - K."""
    n, beta, c = _whole(n, "n", 1), _real(beta, "beta", 0), _real(c, "c", 0, strict=True)
    p = min(c / n, 1.0)
    agree, cross = math.log1p(p * math.expm1(beta)), math.log1p(p * math.expm1(-beta))
    k = np.arange(n // 2 + 1, dtype=float)
    terms = _binomial_log_pmf(n, 0.5, k) + k * (n - k) * (cross - agree)
    return (n * math.log(2.0) + n * (n - 1) / 2 * agree
            + float(logsumexp(terms, b=np.where(2 * k == n, 1.0, 2.0))))


def ising_oracle(beta, c):
    """Annealed Ising free energy on G(n, c/n): (1/n) ln E Z_n over ISING_SIZES taken to
    its limit by extrapolate_exact with d = 0, as E Z_n has no ln n / n term: the Laplace
    factor sqrt(n) cancels the binomial's 1 / sqrt(n). beta = 0 gives ln 2 up to rounding.
    Where p = c/n or p (e^beta - 1) reaches 1 at the smallest size, the sizes see a dense
    graph, not the sparse limit, and the call is refused."""
    c, beta = _real(c, "c", 0, strict=True), _real(beta, "beta", 0)
    try:
        math.expm1(beta)
    except OverflowError:
        raise ValueError(f"beta {beta!r} is too large: e^beta overflows a float") from None
    p = c / ISING_SIZES[0]
    if p >= 1 or p * math.expm1(beta) >= 1:
        raise ValueError(f"beta {beta!r}, c {c!r} are past the sparse limit: at n = "
                         f"{ISING_SIZES[0]} it needs c/n < 1 and (c/n)(e^beta - 1) < 1")
    return extrapolate_exact(ISING_SIZES, [ising_log_partition(n, beta, c) / n
                                           for n in ISING_SIZES], 0)
