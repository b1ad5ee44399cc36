"""Acceptance battery: the eleven numbered criteria behind `validate`.

Each criterion_N function runs one self-contained check with its published
tolerances and pinned seeds, fixed in its own code, and returns a record dict
{id, name, passed, details, elapsed}. The pytest acceptance module and the
CLI validate command both run these functions as they are, so both give the
same verdicts; neither can change a tolerance, a seed or a sample size.
Criteria 1, 4 and 5 check their rates against exact finite-n laws, taken to the
limit by oracles.extrapolate_exact, not against a second copy of a formula.
"""

import math
import time
from functools import lru_cache

import numpy as np

from . import oracles, rates, varsolve
from .graphs import (ColoredGraph, ModelParams, empirical_measures, sample_colored_graph,
                     sample_conditional_batch)
from .measures import (Alphabet, ColorCounts, ColorMeasure, Kernel,
                       NeighborhoodCounts, NeighborhoodMeasure, PairCounts,
                       PairMeasure, cap_degrees, consistify, degree_distribution, phi,
                       phi_counts, product_kernel_measure, quantize, total_variation)
from .mcharness import TailExperiment, estimate_tail_exponent, lln_check
from .oracles import exact_er_edge_exponent
from .seeds import derive_child_seed

# the 2-color benchmark model used across criteria, the color law of every
# one-color (Erdos-Renyi) model and the kernel of the 3-color model
BENCH_MU = ColorMeasure(Alphabet(2), [0.5, 0.5])
BENCH_C = Kernel(Alphabet(2), [[3.0, 1.0], [1.0, 2.0]])
ER_MU = ColorMeasure(Alphabet(1), [1.0])
THREE_C = Kernel(Alphabet(3), [[2.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 1.5]])

# published seed material; changing any of these invalidates the battery
MC_TAIL_SEED = 74205
ZERO_POINT_SEED = 27182
BATTERY_SEED = 9001
CONDITIONAL_SEED = 4242
UNIFORMITY_SEED = 8080
QUANTIZE_SEED = 555
LLN_SEEDS_ER = tuple(range(11, 31))
LLN_SEEDS_BENCH = tuple(range(211, 231))

SUITES = {
    "mc": (1, 2),
    "rates": (3, 6),
    "duality": (4, 5),
    "bounds": (7, 8, 9, 10),
    "lln": (11,),
    "all": tuple(range(1, 12)),
}


def _record(cid, name, passed, details, started):
    return {"id": cid, "name": name, "passed": bool(passed), "details": details,
            "elapsed": time.perf_counter() - started}


def format_record(rec):
    status = "PASS" if rec["passed"] else "FAIL"
    keys = ", ".join(f"{k}={v}" for k, v in rec["details"].items()
                     if not isinstance(v, (list, dict)))
    return f"{status} criterion {rec['id']} ({rec['name']}): {keys} [{rec['elapsed']:.1f}s]"


# ---------------------------------------------------------------------------
# criterion 1: exact edge-rate extrapolation


def criterion_1():
    # -(1/n) ln P(|E| >= 1.5 n) = I + (1/2) ln n / n + O(1/n), a tail of one count (d = 1).
    # Error budget for rel_err <= 0.02: the fit through n = 250 to 2000 leaves the 1/n^3
    # term, about 3e-7 (3e-6 relative); rounding adds below 1e-11.
    started = time.perf_counter()
    c, x = 2.0, 1.5
    sizes = (250, 500, 1000, 2000)
    exponents = [exact_er_edge_exponent(n, c, x) for n in sizes]
    extrapolated = oracles.extrapolate_exact(sizes, exponents, 1)
    target = rates.rate_zeta_er(x, c)
    rel_err = abs(extrapolated - target) / target

    C1 = Kernel.constant(c)
    zeta_gaps = {xx: abs(rates.rate_zeta(xx, ER_MU, C1) - rates.rate_zeta_er(xx, c))
                 for xx in (0.5, 1.0, 1.5, 3.0)}
    elapsed = time.perf_counter() - started
    passed = rel_err <= 0.02 and max(zeta_gaps.values()) <= 1e-8 and elapsed < 10.0
    details = {"extrapolated": round(extrapolated, 9), "target": round(target, 9),
               "rel_err": round(rel_err, 6), "max_zeta_gap": max(zeta_gaps.values()),
               "exponents": [round(e, 9) for e in exponents]}
    return _record(1, "edge-rate-extrapolation", passed, details, started)


# ---------------------------------------------------------------------------
# criterion 2: Monte Carlo tail agreement


def criterion_2():
    started = time.perf_counter()
    c, x = 2.0, 1.5
    exp = TailExperiment(mu=ER_MU, C=Kernel.constant(c),
                         event={"kind": "edges", "x": x},
                         sizes=(100, 200, 400), replicas=10 ** 7,
                         seed=MC_TAIL_SEED)
    est = estimate_tail_exponent(exp)
    per_n_ok = True
    comparisons = []
    for row in est.rows:
        exact = exact_er_edge_exponent(row["n"], c, x)
        entry = {"n": row["n"], "hits": row["hits"], "exact": round(exact, 9)}
        if row["hits"] >= 50:
            gap = abs(row["exponent"] - exact)
            entry["gap"] = gap
            entry["band"] = 3.0 * row["se"]
            per_n_ok = per_n_ok and gap <= entry["band"]
        comparisons.append(entry)
    target = rates.rate_zeta_er(x, c)
    if est.exponent is None:
        extrap_ok = False
        rel_err = None
    else:
        rel_err = abs(est.exponent - target) / target
        extrap_ok = rel_err <= 0.15
    elapsed = time.perf_counter() - started
    passed = per_n_ok and extrap_ok and elapsed < 300.0
    details = {"extrapolated": est.exponent, "target": round(target, 9),
               "rel_err": rel_err, "inconclusive": est.inconclusive,
               "rows": comparisons}
    return _record(2, "mc-tail-agreement", passed, details, started)


# ---------------------------------------------------------------------------
# criterion 3: degree-rate closed points


def criterion_3():
    started = time.perf_counter()
    worst = {"zero": 0.0, "closed": 0.0}
    for c in (1.0, 2.0, 4.0):
        zero = degree_distribution(rates.poisson_limit_law(ER_MU, Kernel.constant(c)))
        worst["zero"] = max(worst["zero"], rates.rate_delta(zero, c))
        # delta_0 is the empty graph, of probability (1 - c/n)^(n(n-1)/2): exponent c/2
        worst["closed"] = max(worst["closed"], abs(rates.rate_delta({0: 1.0}, c) - 0.5 * c))
    passed = worst["zero"] <= 1e-10 and worst["closed"] <= 1e-10
    return _record(3, "degree-rate-points", passed, worst, started)


# ---------------------------------------------------------------------------
# criterion 4: annealed Ising free energy against the exact finite-n law


def criterion_4():
    # Error budget for max_gap <= 1e-6: ising_oracle's fit leaves the 1/n^3 term of
    # (1/n) ln E Z_n, about 2.5e-10 at (0.5, 2), next to the critical line c sinh(beta) = 1,
    # and below 3e-11 elsewhere; rounding adds about 1e-14.
    started = time.perf_counter()
    points = [(beta, c) for beta in (0.0, 0.25, 0.5, 1.0) for c in (0.5, 1.0, 2.0)]
    max_gap = 0.0
    max_ln2_gap = 0.0
    for beta, c in points:
        solved = varsolve.ising_annealed(beta, c).value
        max_gap = max(max_gap, abs(solved - oracles.ising_oracle(beta, c)))
        if beta == 0.0:
            max_ln2_gap = max(max_ln2_gap, abs(solved - math.log(2.0)))
    elapsed = time.perf_counter() - started
    passed = max_gap <= 1e-6 and max_ln2_gap <= 1e-10 and elapsed < 30.0
    details = {"max_gap": max_gap, "max_ln2_gap": max_ln2_gap, "points": len(points)}
    return _record(4, "ising-free-energy", passed, details, started)


# ---------------------------------------------------------------------------
# criterion 5: conditional pair rate against the exact finite-n law


# kernel, color counts and edge counts at n = 500, scaled by 2^j along the ladder; the
# first point has more edges than C omega x omega predicts, the second fewer
PAIR_LAW_POINTS = (
    (BENCH_C, [200, 300], [[250, 400], [400, 150]]),
    (BENCH_C, [250, 250], [[100, 50], [50, 50]]),
    (THREE_C, [100, 150, 250], [[50, 150, 50], [150, 150, 200], [50, 200, 200]]),
)


def criterion_5():
    # -(1/n) ln P(pi_n | omega_n) = I_omega + (d/2) ln n / n + O(1/n), d = m(m + 1)/2
    # (Bahadur & Rao 1960). Error budget for max_gap <= 1e-4: the fit through n = 500 2^j,
    # j = 0..7, leaves the 1/n^3 term, about 2e-9 here; rounding adds below 1e-10.
    started = time.perf_counter()
    sizes = [500 * 2 ** j for j in range(8)]
    max_gap = 0.0
    for C, colors, edges in PAIR_LAW_POINTS:
        exponents = [-oracles.conditional_pair_log_probability(
            ColorCounts(n, np.multiply(colors, n // 500)),
            PairCounts(n, np.multiply(edges, n // 500)), C) / n for n in sizes]
        exact = oracles.extrapolate_exact(sizes, exponents,
                                          C.alphabet.m * (C.alphabet.m + 1) // 2)
        rate = rates.rate_I_omega(PairCounts(500, edges).measure,
                                  ColorCounts(500, colors).measure, C)
        max_gap = max(max_gap, abs(rate - exact))
    passed = max_gap <= 1e-4
    details = {"max_gap": max_gap, "points": len(PAIR_LAW_POINTS)}
    return _record(5, "pair-rate-exact", passed, details, started)


# ---------------------------------------------------------------------------
# criterion 6: zero point and nonnegativity of rate_J


def _random_sub_consistent(rng, alphabet):
    m = alphabet.m
    support = {}
    # one atom per color keeps nu1 > 0, so the rate stays finite and the
    # nonnegativity check below is not vacuous
    extras = int(rng.integers(2, 6))
    colors = list(range(m)) + [int(a) for a in rng.integers(0, m, extras)]
    for a in colors:
        ell = tuple(int(x) for x in rng.integers(0, 4, m))
        support[(a, ell)] = support.get((a, ell), 0.0) + float(rng.uniform(0.1, 1.0))
    total = sum(support.values())
    nu = NeighborhoodMeasure(alphabet, {k: v / total for k, v in support.items()})
    _, phi2 = phi(nu)
    base = np.maximum(phi2, phi2.T)
    noise = rng.uniform(0.0, 0.5, (m, m))
    pair = PairMeasure(alphabet, base + (noise + noise.T) / 2.0)
    return pair, nu


def criterion_6():
    instances = 500
    started = time.perf_counter()
    mu, C = BENCH_MU, BENCH_C
    pair_star = product_kernel_measure(C, mu)
    qstar = rates.poisson_limit_law(mu, C)
    zero_value = rates.rate_J(pair_star, qstar, mu, C).value

    rng = np.random.default_rng(ZERO_POINT_SEED)
    min_random = math.inf
    finite_count = 0
    breakdown_ok = True
    for _ in range(instances):
        pair, nu = _random_sub_consistent(rng, mu.alphabet)
        rv = rates.rate_J(pair, nu, mu, C)
        min_random = min(min_random, rv.value)
        if rv.finite:
            finite_count += 1
            breakdown_ok = breakdown_ok and math.isclose(
                rv.value, sum(rv.breakdown.values()), rel_tol=0, abs_tol=1e-12)

    bad_nu = NeighborhoodMeasure(mu.alphabet, {(0, (5, 0)): 1.0})
    bad_pair = PairMeasure(mu.alphabet, np.full((2, 2), 1e-6))
    inf_value = rates.rate_J(bad_pair, bad_nu, mu, C)
    passed = (zero_value <= 1e-9 and min_random >= 0.0 and breakdown_ok
              and finite_count == instances
              and math.isinf(inf_value.value)
              and inf_value.reason == "not-sub-consistent")
    details = {"zero_value": zero_value, "min_random": min_random,
               "finite": finite_count, "breakdown_ok": breakdown_ok,
               "inf_reason": inf_value.reason}
    return _record(6, "zero-point-nonnegativity", passed, details, started)


# ---------------------------------------------------------------------------
# criteria 7, 8, 10 share the sampled-graph batteries


def _mixed_model(i):
    which = i % 3
    if which == 0:
        return ER_MU, Kernel.constant(2.5)
    if which == 1:
        return BENCH_MU, BENCH_C
    return ColorMeasure(Alphabet(3), [0.5, 0.3, 0.2]), THREE_C


@lru_cache(maxsize=1)
def _mixed_battery():
    out = []
    for i in range(1000):
        mu, C = _mixed_model(i)
        n = 60 + 60 * (i % 4)
        graph = sample_colored_graph(ModelParams(mu, C, n),
                                     derive_child_seed(BATTERY_SEED, i))
        out.append((graph, *empirical_measures(graph)))
    return tuple(out)


@lru_cache(maxsize=1)
def _conditional_battery():
    omega_n = ColorCounts(60, [35, 25])
    pair_n = PairCounts(60, [[20, 15], [15, 10]])
    graphs = [ColoredGraph(60, 2, colors, edges) for colors, edges
              in zip(*sample_conditional_batch(omega_n, pair_n, CONDITIONAL_SEED, 200))]
    return omega_n, pair_n, tuple((g, *empirical_measures(g)) for g in graphs)


def criterion_7():
    started = time.perf_counter()
    checked = 0
    for graph, cc, pc, nc in _mixed_battery():
        color, adj = phi_counts(nc)
        if not (np.array_equal(color, cc.counts)
                and np.array_equal(adj, pc.adjacency)
                and int(pc.adjacency.sum()) == 2 * graph.edge_count):
            details = {"checked": checked, "failed_at": graph.n}
            return _record(7, "empirical-exactness", False, details, started)
        checked += 1
    return _record(7, "empirical-exactness", True, {"checked": checked}, started)


def criterion_8():
    started = time.perf_counter()
    omega_n, pair_n, battery = _conditional_battery()
    exact_ok = all(
        np.array_equal(cc.counts, omega_n.counts)
        and np.array_equal(pc.edge_counts, pair_n.edge_counts)
        for _, cc, pc, _ in battery)

    reps = 60000
    _, edges = sample_conditional_batch(ColorCounts(4, [4]), PairCounts(4, [[2]]),
                                        UNIFORMITY_SEED, reps)
    _, counts = np.unique(edges.reshape(reps, -1), axis=0, return_counts=True)
    p = 1.0 / 15.0
    band = 3.0 * math.sqrt(p * (1.0 - p) / reps)
    freqs = (counts / reps).tolist()
    uniform_ok = len(counts) == 15 and all(abs(f - p) <= band for f in freqs)
    passed = exact_ok and uniform_ok
    details = {"exact_ok": exact_ok, "distinct_graphs": len(counts),
               "max_freq_dev": max(abs(f - p) for f in freqs), "band": band}
    return _record(8, "conditional-sampler", passed, details, started)


# ---------------------------------------------------------------------------
# criterion 9: approximation pipeline


def criterion_9():
    started = time.perf_counter()
    mu, C = BENCH_MU, BENCH_C
    details = {}

    # consistify: strict sub-consistency gets repaired exactly, at every eps
    worst_consistency = 0.0
    worst_pair_move = {}
    cases = [
        (PairMeasure(Alphabet(1), [[0.8]]),
         NeighborhoodMeasure(Alphabet(1), {(0, (0,)): 1.0})),
        (product_kernel_measure(C, mu), rates.poisson_limit_law(mu, C)),
    ]
    consistify_ok = True
    for eps in (0.1, 0.01, 0.001):
        for pair, nu in cases:
            pair_hat, nu_hat = consistify(pair, nu, eps)
            _, phi2 = phi(nu_hat)
            worst_consistency = max(worst_consistency,
                                    float(np.abs(phi2 - pair_hat.weights).max()))
            move = float(np.abs(pair_hat.weights - pair.weights).max())
            tv = total_variation(nu, nu_hat)
            consistify_ok = consistify_ok and move <= eps and tv <= eps
    worst_pair_move["consistency"] = worst_consistency
    consistify_ok = consistify_ok and worst_consistency <= 1e-12

    # exactly consistent input comes back untouched; graph-derived input is
    # consistent up to one ulp of float recomputation, so the repair there
    # must be at rounding scale, not at eps scale
    exact_nu = NeighborhoodMeasure(Alphabet(1), {(0, (1,)): 1.0})
    exact_pair = PairMeasure(Alphabet(1), [[1.0]])
    same_pair, same_nu = consistify(exact_pair, exact_nu, 0.01)
    identity_ok = same_pair is exact_pair and same_nu is exact_nu
    g, cc, pc, nc = _mixed_battery()[1]
    near_pair, near_nu = consistify(pc.measure, nc.measure, 0.01)
    identity_ok = (identity_ok
                   and float(np.abs(near_pair.weights - pc.measure.weights).max()) <= 1e-14
                   and total_variation(nc.measure, near_nu) <= 1e-12)

    # quantize: exact phi pinning plus shrinking distance to the target
    quant_ok = True
    qstar = rates.poisson_limit_law(mu, C)
    tvs = {}
    for idx, (n, eps) in enumerate(((1000, 0.2), (10000, 0.1))):
        graph = sample_colored_graph(ModelParams(mu, C, n),
                                     derive_child_seed(QUANTIZE_SEED, 1000 + idx))
        cc_n, pc_n, _ = empirical_measures(graph)
        nu_n = quantize(cc_n, pc_n, qstar, derive_child_seed(QUANTIZE_SEED, idx))
        color, adj = phi_counts(nu_n)
        quant_ok = (quant_ok and np.array_equal(color, cc_n.counts)
                    and np.array_equal(adj, pc_n.adjacency))
        tv = total_variation(nu_n.measure, qstar)
        tvs[n] = tv
        quant_ok = quant_ok and tv <= eps

    # cap_degrees: heavy vertex redistributed, phi untouched
    n_cap = 1000
    cap = 10
    heavy = {(0, (2 * cap,)): 1, (0, (1,)): 2 * cap, (0, (0,)): n_cap - 1 - 2 * cap}
    nu_heavy = NeighborhoodCounts(n_cap, heavy)
    capped = cap_degrees(nu_heavy)
    cap_ok = (capped.max_magnitude() <= cap
              and all(np.array_equal(x, y) for x, y in
                      zip(phi_counts(nu_heavy), phi_counts(capped))))
    already = NeighborhoodCounts(8, {(0, (1,)): 8})
    cap_ok = cap_ok and cap_degrees(already) is already

    passed = consistify_ok and identity_ok and quant_ok and cap_ok
    details.update({"consistency_residual": worst_consistency,
                    "identity_ok": identity_ok, "quantize_tv": tvs,
                    "cap_ok": cap_ok})
    return _record(9, "approximation-pipeline", passed, details, started)


# ---------------------------------------------------------------------------
# criterion 10: combinatorial bounds


def criterion_10():
    started = time.perf_counter()
    sandwich_ok = all(
        j ** (parts - 1) <= oracles.composition_count(j, parts) * math.factorial(parts - 1)
        <= (j + parts) ** (parts - 1)
        for j in range(51) for parts in range(1, 7))
    report = oracles.partition_bound_check(2, tuple(range(1, 11)))
    support_ok = all(oracles.support_bound_check(nc)
                     for _, _, _, nc in _mixed_battery())
    support_ok = support_ok and all(oracles.support_bound_check(nc)
                                    for _, _, _, nc in _conditional_battery()[2])
    passed = sandwich_ok and report["theta_ok"] and report["scalar_ok"] and support_ok
    details = {"sandwich_ok": sandwich_ok, "theta_ok": report["theta_ok"],
               "scalar_ok": report["scalar_ok"], "support_ok": support_ok,
               "graphs_checked": len(_mixed_battery()) + len(_conditional_battery()[2])}
    return _record(10, "combinatorial-bounds", passed, details, started)


# ---------------------------------------------------------------------------
# criterion 11: law of large numbers at n = 20000


def criterion_11():
    n, min_pass = 20000, 19
    started = time.perf_counter()
    er = lln_check(ModelParams(ER_MU, Kernel.constant(3.0), n), LLN_SEEDS_ER)
    degree_pass = sum(row["tv_degree"] <= 0.02 for row in er["per_seed"])

    bench = lln_check(ModelParams(BENCH_MU, BENCH_C, n), LLN_SEEDS_BENCH)
    nbhd_pass = sum(row["tv_neighborhood"] <= 0.05
                    for row in bench["per_seed"])
    elapsed = time.perf_counter() - started
    passed = degree_pass >= min_pass and nbhd_pass >= min_pass and elapsed < 120.0
    details = {"degree_pass": f"{degree_pass}/20", "nbhd_pass": f"{nbhd_pass}/20",
               "median_tv_degree": float(er["summary"]["tv_degree"]["median"]),
               "median_tv_nbhd": float(bench["summary"]["tv_neighborhood"]["median"])}
    return _record(11, "lln-at-scale", passed, details, started)


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}


def run_suite(name):
    """Run one named suite: one record per criterion, in the suite's order."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {sorted(SUITES)}")
    return [CRITERIA[cid]() for cid in SUITES[name]]
