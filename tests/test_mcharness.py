import concurrent.futures
import itertools
import math
import re
import threading

import numpy as np
import pytest
from scipy.stats import binom

from graphrates import (Alphabet, ColorMeasure, Kernel, ModelParams,
                        TailExperiment, estimate_tail_exponent,
                        exact_er_edge_exponent, lln_check)
from graphrates import mcharness, oracles
from graphrates.mcharness import REPLICA_BLOCK
from graphrates.oracles import isolated_log_tail
from graphrates.seeds import derive_child_seed

A1 = Alphabet(1)
A2 = Alphabet(2)
MU1 = ColorMeasure(A1, [1.0], probability=True)
MU2 = ColorMeasure(A2, [0.5, 0.5], probability=True)
C2 = Kernel(A2, [[3.0, 1.0], [1.0, 2.0]])
MU_SKEW = ColorMeasure(A2, [0.4, 0.6], probability=True)


def _er_experiment(x, sizes, replicas, seed, offset=0):
    return TailExperiment(mu=MU1, C=Kernel.constant(2.0),
                          event={"kind": "edges", "x": x}, sizes=sizes,
                          replicas=replicas, seed=seed, replica_offset=offset)


# ---------------------------------------------------------------------------
# exact finite-n exponent


def test_exact_er_edge_exponent_frozen():
    assert exact_er_edge_exponent(250, 2.0, 1.5) == pytest.approx(
        0.12247458412549937, abs=1e-15)
    assert exact_er_edge_exponent(500, 2.0, 1.5) == pytest.approx(
        0.11599436063975796, abs=1e-15)


def test_exact_er_edge_exponent_edges():
    assert exact_er_edge_exponent(100, 2.0, 0.0) == 0.0
    assert exact_er_edge_exponent(100, 2.0, -1.0) == 0.0
    # at the typical density the finite-n exponent is near zero
    assert exact_er_edge_exponent(2000, 2.0, 1.0) < 5e-3
    with pytest.raises(ValueError):
        exact_er_edge_exponent(1, 2.0, 1.2)
    with pytest.raises(ValueError, match="n must be an integer"):
        exact_er_edge_exponent(50.7, 2.0, 1.2)


def test_exact_er_edge_exponent_of_an_impossible_event_is_inf(monkeypatch):
    # no graph on 50 vertices has more than 1225 edges; the exact exponent of
    # that event is +inf, found without asking the binomial tail
    def no_tail(*args):
        raise AssertionError("binomial_log_tail called for an impossible event")

    assert exact_er_edge_exponent(50, 2.0, 1225 / 50) < math.inf  # the complete graph
    monkeypatch.setattr(oracles, "binomial_log_tail", no_tail)
    assert exact_er_edge_exponent(50, 2.0, 50) == math.inf
    assert exact_er_edge_exponent(50, 2.0, 1226 / 50) == math.inf


# ---------------------------------------------------------------------------
# estimation against the exact law


def test_estimate_matches_exact_per_size():
    exp = _er_experiment(1.2, (50, 100, 200), 100000, seed=12)
    est = estimate_tail_exponent(exp)
    assert not est.inconclusive
    for row in est.rows:
        assert row["hits"] > 0
        exact = exact_er_edge_exponent(row["n"], 2.0, 1.2)
        assert abs(row["exponent"] - exact) <= 3.0 * row["se"]


def test_estimate_below_mean_is_near_zero():
    # x below the typical density c/2: the event is not rare at all
    exp = _er_experiment(0.8, (100, 200), 20000, seed=5)
    est = estimate_tail_exponent(exp)
    for row in est.rows:
        assert row["p_hat"] > 0.9
    assert abs(est.exponent) < 0.01


def test_estimate_impossible_event_inconclusive():
    exp = _er_experiment(50.0, (50, 100), 5000, seed=9)
    est = estimate_tail_exponent(exp)
    assert est.inconclusive
    assert est.exponent is None
    for row in est.rows:
        assert row["hits"] == 0
        assert row["exponent_lower_bound"] > 0.0


def _exact_two_color_tail(event, n):
    """P(event) on (MU_SKEW, C2): given j vertices of color 0, the edge count of
    each class pair is an independent binomial, so the law needs no sampler."""
    p = np.minimum(C2.values / n, 1.0)
    total = 0.0
    for j in range(n + 1):
        k = (j, n - j)
        slots = {(a, b): k[a] * (k[a] - 1) // 2 if a == b else k[a] * k[b]
                 for a in range(2) for b in range(a, 2)}
        if event["kind"] == "edges":
            pmf = np.ones(1)
            for (a, b), S in slots.items():
                pmf = np.convolve(pmf, binom.pmf(np.arange(S + 1), S, p[a, b]))
            tail = pmf[math.ceil(event["x"] * n):].sum()
        else:
            a, b = event["a"], event["b"]
            counts = np.arange(slots[a, b] + 1)
            hit = counts * (2.0 if a == b else 1.0) / n >= event["s"]
            tail = binom.pmf(counts, slots[a, b], p[a, b])[hit].sum()
        total += binom.pmf(j, n, MU_SKEW.weights[0]) * tail
    return float(total)


@pytest.mark.parametrize("event", [{"kind": "edges", "x": 1.1},
                                   {"kind": "pair", "a": 0, "b": 1, "s": 0.4},
                                   {"kind": "pair", "a": 1, "b": 1, "s": 1.0}])
def test_two_color_rows_match_exact_tail(event):
    exp = TailExperiment(mu=MU_SKEW, C=C2, event=event, sizes=(30, 60),
                         replicas=200000, seed=31)
    for row in estimate_tail_exponent(exp).rows:
        assert row["hits"] >= 500
        assert row["weight_sum"] == row["weight_sq_sum"] == row["hits"]
        exact = -math.log(_exact_two_color_tail(event, row["n"])) / row["n"]
        assert abs(row["exponent"] - exact) <= 3.0 * row["se"]


def test_untilted_er_draws_have_unit_weights():
    # below the mean edge count c(n-1)/2, and past N = n(n-1)/2, the draws are
    # plain Binomial(N, c/n) ones. x = c/2 itself is tilted at finite n: its
    # threshold n lies above the mean n - 1.
    replicas = 5000
    for x in (0.8, 50.0):
        est = estimate_tail_exponent(_er_experiment(x, (50, 100), replicas, seed=13))
        for row in est.rows:
            n = row["n"]
            draws = np.random.default_rng(derive_child_seed(13, n, 0)).binomial(
                n * (n - 1) // 2, 2.0 / n, REPLICA_BLOCK)[:replicas]
            assert row["hits"] == int(np.count_nonzero(draws >= math.ceil(x * n)))
            assert row["weight_sum"] == row["weight_sq_sum"] == row["hits"]
            assert row["p_hat"] == row["hits"] / replicas


@pytest.mark.parametrize("event, pairs", [({"kind": "edges", "x": 0.9}, [(0, 0), (0, 1), (1, 1)]),
                                          ({"kind": "pair", "a": 1, "b": 0, "s": 0.3}, [(0, 1)])])
def test_multicolor_rows_follow_their_component_streams(event, pairs):
    # the block seed draws the first class pair the event reads, its child 1
    # the color counts and its child i >= 2 the i-th class pair, each stream
    # only up to the last replica the run reads
    n, seed, offset, replicas = 40, 17, 100, 900
    block = derive_child_seed(seed, n, 0)
    k = np.random.default_rng(derive_child_seed(block, 1)).multinomial(
        n, MU_SKEW.weights / MU_SKEW.weights.sum(), offset + replicas).T
    p = np.minimum(C2.values / n, 1.0)
    streams = [block] + [derive_child_seed(block, i) for i in range(2, len(pairs) + 1)]
    stat = sum(np.random.default_rng(s).binomial(
        k[a] * (k[a] - 1) // 2 if a == b else k[a] * k[b], p[a, b])
        for s, (a, b) in zip(streams, pairs))[offset:]
    expect = int(np.count_nonzero(stat >= math.ceil(event["x"] * n) if event["kind"] == "edges"
                                  else stat / n >= event["s"]))
    row, = estimate_tail_exponent(TailExperiment(
        mu=MU_SKEW, C=C2, event=event, sizes=(n,), replicas=replicas, seed=seed,
        replica_offset=offset)).rows
    assert 0 < expect < replicas
    assert row["hits"] == row["weight_sum"] == row["weight_sq_sum"] == expect


@pytest.mark.parametrize("mu, C, event, pairs", [
    (MU1, Kernel.constant(2.0), {"kind": "edges", "x": 1.3}, [(0, 0)]),
    (MU_SKEW, C2, {"kind": "edges", "x": 1.1}, [(0, 0), (0, 1), (1, 1)]),
    (MU_SKEW, C2, {"kind": "pair", "a": 1, "b": 0, "s": 0.3}, [(0, 1)])],
    ids=["tilted-er-edges", "two-color-edges", "pair"])
def test_threaded_blocks_match_per_block_streams(monkeypatch, mu, C, event, pairs):
    # blocks of 1000 replicas; the run starts inside the first and ends inside the
    # fifth. Two CPUs, so the blocks are drawn on a pool of two threads on any host
    n, seed, offset, replicas, block = 40, 23, 300, 4500, 1000
    monkeypatch.setattr(mcharness, "REPLICA_BLOCK", block)
    monkeypatch.setattr(mcharness, "_cpus", lambda: 2)
    pools = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    exp = TailExperiment(mu=mu, C=C, event=event, sizes=(n,), replicas=replicas, seed=seed,
                         replica_offset=offset)
    threads = threading.active_count()
    row, = estimate_tail_exponent(exp).rows
    assert pools == [2] and threading.active_count() == threads

    m, N, k = mu.alphabet.m, n * (n - 1) // 2, math.ceil(event.get("x", 0) * n)
    p = np.minimum(C.values / n, 1.0)
    tilted = m == 1  # the threshold 52 lies above the mean edge count 39
    q = p.copy()
    if tilted:
        q[0, 0] = k / N
    stats = []
    for start in range(0, offset + replicas, block):
        r, base = min(offset + replicas, start + block) - start, derive_child_seed(seed, n, start)
        rngs = [np.random.default_rng(base)] + [
            np.random.default_rng(derive_child_seed(base, i)) for i in range(1, len(pairs) + m - 1)]
        sizes = [n] if m == 1 else rngs.pop(1).multinomial(n, mu.weights / mu.weights.sum(), r).T
        stat = sum(rng.binomial(sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b],
                                q[a, b], r) for rng, (a, b) in zip(rngs, pairs))
        stats.append(stat[max(offset, start) - start:])
    counts = np.bincount(np.concatenate(stats))
    K = np.arange(counts.size)
    hit = K >= k if event["kind"] == "edges" else K / n >= event["s"]
    weights = np.ones(counts.size)
    if tilted:
        weights = np.exp(K * math.log(p[0, 0] / q[0, 0])
                         + (N - K) * math.log((1 - p[0, 0]) / (1 - q[0, 0])))
    assert 0 < row["hits"] == counts[hit].sum() < replicas
    assert row["weight_sum"] == pytest.approx(counts[hit] @ weights[hit], rel=1e-12)
    assert row["weight_sq_sum"] == pytest.approx(counts[hit] @ weights[hit] ** 2, rel=1e-12)
    assert (row["weight_sum"] < row["hits"]) == tilted

    # the threads change no bit: one CPU draws the blocks in turn and starts no pool
    monkeypatch.setattr(mcharness, "_cpus", lambda: 1)
    assert estimate_tail_exponent(exp).rows == [row] and pools == [2]


def test_a_run_of_one_block_or_on_one_cpu_starts_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    # a whole block, and a run inside one block past the first
    for cpus, offset, replicas in ((2, 0, REPLICA_BLOCK), (2, REPLICA_BLOCK + 5, 1000),
                                   (1, 0, 2 * REPLICA_BLOCK + 1)):
        monkeypatch.setattr(mcharness, "_cpus", lambda: cpus)
        for mu, C, event in ((MU1, Kernel.constant(2.0), {"kind": "edges", "x": 1.2}),
                             (MU2, C2, {"kind": "pair", "a": 0, "b": 1, "s": 0.4})):
            estimate_tail_exponent(TailExperiment(mu=mu, C=C, event=event, sizes=(30,),
                                                  replicas=replicas, seed=5,
                                                  replica_offset=offset))


def test_edge_threshold_saturates_past_the_float_range():
    # x n overflows to +-inf at n = 50; the event stays as impossible as at
    # x = 50 (x n = n^2) and as certain as at x = -1
    def rows(x):
        return estimate_tail_exponent(_er_experiment(x, (50,), 100, seed=3)).rows

    assert rows(1e308) == rows(50) and rows(-1e308) == rows(-1.0)
    assert exact_er_edge_exponent(50, 2.0, -1e308) == exact_er_edge_exponent(50, 2.0, -1.0) == 0.0
    assert exact_er_edge_exponent(50, 2.0, 1e308) == exact_er_edge_exponent(50, 2.0, 50) == math.inf


def test_estimate_deterministic():
    a = estimate_tail_exponent(_er_experiment(1.3, (60, 120), 30000, seed=77))
    b = estimate_tail_exponent(_er_experiment(1.3, (60, 120), 30000, seed=77))
    assert a.to_dict() == b.to_dict()
    c = estimate_tail_exponent(_er_experiment(1.3, (60, 120), 30000, seed=78))
    assert c.to_dict() != a.to_dict()


# ---------------------------------------------------------------------------
# shard merging: hit counts and weight sums must be independent of how
# replicas are split


def _split_rows(make_exp, total, cut):
    full = estimate_tail_exponent(make_exp(total, 0))
    left = estimate_tail_exponent(make_exp(cut, 0))
    right = estimate_tail_exponent(make_exp(total - cut, cut))
    return list(zip(full.rows, left.rows, right.rows))


def _split_hits(make_exp, total, cut):
    rows = _split_rows(make_exp, total, cut)
    return ([f["hits"] for f, _, _ in rows],
            [l["hits"] + r["hits"] for _, l, r in rows])


def test_merge_contract_er_fast_path():
    # cut chosen off any block boundary on purpose; x = 1.25 lies above the
    # mean density, so both sizes draw tilted and carry non-unit weights
    def make(replicas, offset):
        return _er_experiment(1.25, (80, 160), replicas, seed=4321,
                              offset=offset)

    # one color draws from the block seed alone, so the multicolor stream
    # layout never moves these rows
    pinned = {80: (102669, 2339.4162992663705, 101.38356882723502),
              160: (102164, 181.24659167233474, 0.7583667256862345)}
    for full, left, right in _split_rows(make, 200000, 70001):
        hits, weight_sum, weight_sq_sum = pinned[full["n"]]
        assert full["hits"] == hits
        assert full["weight_sum"] == pytest.approx(weight_sum, rel=1e-12)
        assert full["weight_sq_sum"] == pytest.approx(weight_sq_sum, rel=1e-12)
        assert full["hits"] == left["hits"] + right["hits"]
        assert full["weight_sum"] < full["hits"]
        # the shards see the same draws; only the summation order differs
        for key in ("weight_sum", "weight_sq_sum"):
            assert left[key] + right[key] == pytest.approx(full[key], rel=1e-12)


def test_merge_contract_two_color_path():
    # the cut lies off any block boundary, and the full run spans three blocks
    for event in ({"kind": "edges", "x": 1.2}, {"kind": "pair", "a": 0, "b": 1, "s": 0.4}):
        def make(replicas, offset):
            return TailExperiment(mu=MU2, C=C2, event=event, sizes=(40, 80),
                                  replicas=replicas, seed=99, replica_offset=offset)

        for full, left, right in _split_rows(make, 150000, 70001):
            assert 0 < full["hits"] < full["replicas"]
            assert full["hits"] == left["hits"] + right["hits"]


def test_merge_contract_generic_path(monkeypatch):
    # degree_zero replicas draw from block streams that carry on from chunk to
    # chunk. With blocks of 2000 the full run and the right shard cross a
    # block boundary, and at both sizes the cut lies inside a chunk, past the
    # first chunk boundary of block 0
    monkeypatch.setattr(mcharness, "REPLICA_BLOCK", 2000)
    cut = 1234
    for n in (40, 80):
        step = mcharness.CHUNK_CELLS // n
        assert step < cut and cut % step

    def make(replicas, offset):
        return TailExperiment(mu=MU2, C=C2, event={"kind": "degree_zero", "t": 0.2},
                              sizes=(40, 80), replicas=replicas, seed=99,
                              replica_offset=offset)

    full, merged = _split_hits(make, 3000, cut)
    assert full == merged


def test_degree_zero_event_sanity():
    # P(isolated fraction >= t) with t below the limit e^{-c}: not rare
    exp = TailExperiment(mu=MU1, C=Kernel.constant(2.0),
                         event={"kind": "degree_zero", "t": 0.05},
                         sizes=(200,), replicas=2000, seed=11)
    est = estimate_tail_exponent(exp)
    assert est.rows[0]["p_hat"] > 0.95
    rare = TailExperiment(mu=MU1, C=Kernel.constant(2.0),
                          event={"kind": "degree_zero", "t": 0.4},
                          sizes=(200,), replicas=2000, seed=11)
    rare_est = estimate_tail_exponent(rare)
    assert rare_est.rows[0]["p_hat"] < 0.05


A3 = Alphabet(3)
MU3 = ColorMeasure(A3, [0.3, 0.3, 0.4], probability=True)
C3 = Kernel(A3, [[3.0, 1.0, 0.5], [1.0, 2.0, 1.5], [0.5, 1.5, 4.0]])


@pytest.mark.parametrize("mu, C, event", [
    (MU2, C2, {"kind": "edges", "x": 0.9}), (MU2, C2, {"kind": "pair", "a": 0, "b": 1, "s": 0.3}),
    (MU3, C3, {"kind": "edges", "x": 0.9}), (MU3, C3, {"kind": "pair", "a": 2, "b": 1, "s": 0.2}),
    (MU2, C2, {"kind": "degree_zero", "t": 0.2}), (MU3, C3, {"kind": "degree_zero", "t": 0.2})])
def test_merge_contract_inside_a_short_block(mu, C, event):
    # a run draws its one block only up to its last replica, so the left
    # shard draws 337 replicas, the full run 1000
    def make(replicas, offset):
        return TailExperiment(mu=mu, C=C, event=event, sizes=(40, 80), replicas=replicas,
                              seed=99, replica_offset=offset)

    for full, left, right in _split_rows(make, 1000, 337):
        assert 0 < left["hits"] and 0 < right["hits"]
        assert full["hits"] == left["hits"] + right["hits"]


@pytest.mark.parametrize("mu, C", [(MU1, Kernel.constant(2.0)), (MU2, C2), (MU3, C3)])
def test_isolated_hits_match_per_graph_counts(monkeypatch, mu, C):
    # the block seed draws the first class pair a <= b, its child 1 the color
    # counts and its child i >= 2 the i-th class pair. Each class pair is one
    # run of Geometric(p_ab) gaps over the pair slots of replicas 0, 1, ... in
    # turn, and a replica's slots list its class pairs (i, j) row by row;
    # replicas before the offset are drawn and dropped
    n, seed, offset, replicas = 30, 5, 13, 60
    m, total = mu.alphabet.m, offset + replicas
    pairs = [(a, b) for a in range(m) for b in range(a, m)]
    block = derive_child_seed(seed, n, 0)
    streams = [block] + [derive_child_seed(block, i) for i in range(2, len(pairs) + 1)]
    k = (np.full((1, total), n) if m == 1 else np.random.default_rng(
        derive_child_seed(block, 1)).multinomial(n, mu.weights / mu.weights.sum(), total).T)
    first = np.cumsum(k, axis=0) - k
    p = np.minimum(C.values / n, 1.0)
    touched = np.zeros((total, n), dtype=bool)
    for stream, (a, b) in zip(streams, pairs):
        slots = [(r, first[a, r] + i, first[b, r] + j) for r in range(total)
                 for i, j in (itertools.combinations(range(k[a, r]), 2) if a == b else
                              itertools.product(range(k[a, r]), range(k[b, r])))]
        # as many gaps as slots always reach past the last slot
        for h in np.random.default_rng(stream).geometric(p[a, b], len(slots)).cumsum() - 1:
            if h >= len(slots):
                break
            r, u, v = slots[h]
            touched[r, u] = touched[r, v] = True
    isolated = n - touched[offset:].sum(axis=1)
    # thresholds at the sampled quantiles, so hits fall strictly inside (0, replicas)
    for t in sorted({q / n for q in np.percentile(isolated, [20, 50, 80]).round()}):
        exp = TailExperiment(mu=mu, C=C, event={"kind": "degree_zero", "t": t},
                             sizes=(n,), replicas=replicas, seed=seed,
                             replica_offset=offset)
        expect = int(np.count_nonzero(isolated / n >= t))
        assert 0 < expect < replicas
        assert mcharness._count_hits(exp, n) == (expect, 0.0, expect, expect)
        # chunks of 7 replicas cross ten chunk boundaries, chunks of one cross
        # every replica boundary; the streams carry on across them all
        for cells in (7 * n, n):
            monkeypatch.setattr(mcharness, "CHUNK_CELLS", cells)
            assert mcharness._count_hits(exp, n)[0] == expect
        monkeypatch.undo()


@pytest.mark.parametrize("mu, C", [(MU2, C2), (MU3, C3)])
def test_isolated_count_mean_matches_closed_form(mu, C):
    # a vertex of color a is isolated with chance (1 - sum_b mu_b p_ab)^(n-1)
    n, replicas, m = 60, 20000, mu.alphabet.m
    mu_w, p = mu.weights / mu.weights.sum(), np.minimum(C.values / n, 1.0)
    exp = TailExperiment(mu=mu, C=C, event={"kind": "degree_zero", "t": 0.2}, sizes=(n,),
                         replicas=replicas, seed=808)
    counts = mcharness._isolated_counts(exp, n, [(a, b) for a in range(m) for b in range(a, m)],
                                        p)
    assert counts.sum() == replicas
    i = np.arange(n + 1)
    mean = counts @ i / replicas
    se = math.sqrt((counts @ (i - mean) ** 2) / (replicas - 1) / replicas)
    expect = n * float(mu_w @ (1.0 - p @ mu_w) ** (n - 1))
    assert abs(mean - expect) <= 3.0 * se


def test_er_isolated_rows_match_exact_tail():
    exp = TailExperiment(mu=MU1, C=Kernel.constant(2.0), event={"kind": "degree_zero", "t": 0.2},
                         sizes=(100, 200), replicas=20000, seed=1601)
    for row in estimate_tail_exponent(exp).rows:
        assert row["hits"] >= 100
        exact = -isolated_log_tail(row["n"], 2.0, 0.2) / row["n"]
        assert abs(row["exponent"] - exact) <= 3.0 * row["se"]


def test_event_threshold_too_large_for_a_float():
    for event in ({"kind": "edges", "x": 10 ** 400}, {"kind": "degree_zero", "t": 10 ** 400},
                  {"kind": "pair", "a": 0, "b": 1, "s": 10 ** 400}):
        with pytest.raises(ValueError, match="event threshold is too large for a float"):
            TailExperiment(mu=MU2, C=C2, event=event, sizes=(50,), replicas=10, seed=0)


def test_event_refuses_a_key_its_kind_does_not_take():
    # each ran its kind's event and ignored the rest, so a t meant for degree_zero
    # answered the edges question
    for mu, C, event, extra in (
            (MU1, Kernel.constant(2.0), {"kind": "edges", "x": 1.2, "t": 0.5}, "['t']"),
            (MU1, Kernel.constant(2.0), {"kind": "degree_zero", "t": 0.5, "x": 1.2, "s": 1},
             "['x', 's']"),
            (MU2, C2, {"kind": "pair", "a": 0, "b": 1, "s": 0.4, "extra": 1}, "['extra']")):
        with pytest.raises(ValueError, match=re.escape(f"{event['kind']} event does not take "
                                                       + extra)):
            TailExperiment(mu=mu, C=C, event=event, sizes=(30,), replicas=10, seed=0)


@pytest.mark.parametrize("seed", [7.9, True, -1, 2 ** 64 + 7],
                         ids=["fraction", "bool", "negative", "past-64-bits"])
def test_experiment_refuses_a_seed_outside_64_bits(seed):
    # each ran as an alias with the alias's hits: 7, 1, 2**64 - 1 and 7
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\), got "
                       + re.escape(repr(seed))):
        _er_experiment(1.2, (50,), 10, seed=seed)


def test_experiment_reads_a_whole_seed_as_its_integer():
    for seed, want in ((7.0, 7), (np.uint64(2 ** 64 - 1), 2 ** 64 - 1)):
        exp = _er_experiment(1.2, (50,), 10, seed=seed)
        assert type(exp.seed) is int and exp.seed == want


def test_experiment_validation():
    with pytest.raises(ValueError):
        _er_experiment(1.2, (100, 50), 100, seed=0)  # not increasing
    with pytest.raises(ValueError):
        _er_experiment(1.2, (50,), 0, seed=0)
    with pytest.raises(ValueError):
        TailExperiment(mu=MU1, C=Kernel.constant(2.0),
                       event={"kind": "nope"}, sizes=(50,), replicas=10, seed=0)
    with pytest.raises(ValueError):
        TailExperiment(mu=MU1, C=Kernel.constant(2.0), event={"kind": "degree_zero"},
                       sizes=(50,), replicas=10, seed=0)  # no threshold t
    for bad in ("big", float("nan"), float("inf"), True, None):
        with pytest.raises(ValueError):
            _er_experiment(bad, (50,), 10, seed=0)
    # sizes, replicas and the offset are integers, never truncated; a whole
    # float is that integer
    for sizes, replicas, offset in (((50.7,), 10, 0), ((0, 50), 10, 0), (("a",), 10, 0),
                                    ((50,), 10.5, 0), ((50,), 10, 2.5), ((50,), 10, True)):
        with pytest.raises(ValueError):
            _er_experiment(1.2, sizes, replicas, seed=0, offset=offset)
    whole = _er_experiment(1.2, (50.0, np.int64(60)), 10.0, seed=0, offset=2.0)
    assert (whole.sizes, whole.replicas, whole.replica_offset) == ((50, 60), 10, 2)
    assert all(type(x) is int for x in (*whole.sizes, whole.replicas, whole.replica_offset))
    with pytest.raises(ValueError, match="unknown event kind"):
        TailExperiment(mu=MU1, C=Kernel.constant(2.0), event={"kind": ["edges"], "x": 1.2},
                       sizes=(50,), replicas=10, seed=0)
    for a, b in ((0, 2), (-1, 0), (0.5, 1), (True, 0)):
        with pytest.raises(ValueError):
            TailExperiment(mu=MU2, C=C2,
                           event={"kind": "pair", "a": a, "b": b, "s": 0.1},
                           sizes=(50,), replicas=10, seed=0)
    TailExperiment(mu=MU2, C=C2, event={"kind": "pair", "a": 0.0, "b": 1, "s": 0.1},
                   sizes=(50,), replicas=10, seed=0)
    # a one-color law against a two-color kernel is no model at all
    with pytest.raises(ValueError, match="alphabet mismatch"):
        TailExperiment(mu=MU1, C=C2, event={"kind": "edges", "x": 1.2},
                       sizes=(50,), replicas=100, seed=0)


# ---------------------------------------------------------------------------
# CSV and reporting


def test_to_csv_shape_and_zero_hit_rows():
    exp = _er_experiment(50.0, (50,), 1000, seed=2)
    est = estimate_tail_exponent(exp)
    text = est.to_csv(rate_prediction=0.5)
    lines = text.strip().splitlines()
    assert lines[0] == ("n,replicas,hits,p_hat,exponent,rate_prediction,"
                        "ci_half_width,weight_sum,weight_sq_sum")
    fields = lines[1].split(",")
    assert fields[0] == "50" and fields[2] == "0"
    assert fields[4] == ""  # no exponent when nothing hit
    assert fields[5] == "0.5"

    # the lower bound still lives on the row dict
    assert est.rows[0]["exponent_lower_bound"] == pytest.approx(
        -math.log(3.0 / 1000) / 50.0, abs=1e-15)


def test_estimate_round_trip_dict():
    est = estimate_tail_exponent(_er_experiment(1.2, (50, 100), 20000, seed=6))
    d = est.to_dict()
    assert set(d) == {"rows", "exponent", "intercept", "ci_half_width",
                      "inconclusive", "fit_residuals"}
    assert d["exponent"] == est.exponent


# ---------------------------------------------------------------------------
# the exponent fit


def test_extrapolate_recovers_a_line_in_one_over_n():
    sizes = (100, 200, 400, 800)
    coef, cov, residuals = mcharness.extrapolate(sizes, [0.1 + 2.0 / n for n in sizes])
    assert coef.tolist() == pytest.approx([0.1, 2.0], rel=1e-12)
    assert np.abs(residuals).max() <= 1e-15


def test_extrapolate_unit_weights_are_least_squares():
    rng = np.random.default_rng(3)
    sizes = (250, 500, 1000, 2000)
    y = 0.11 + 3.0 / np.array(sizes) + rng.normal(0.0, 1e-4, 4)
    X = np.array([[1.0, 1.0 / n] for n in sizes])
    expect, *_ = np.linalg.lstsq(X, y, rcond=None)
    coef, cov, _ = mcharness.extrapolate(sizes, y.tolist())
    assert coef.tolist() == pytest.approx(expect.tolist(), rel=1e-12)
    # equal standard errors s give the same fit, with covariance s^2 (X'X)^-1
    coef_s, cov_s, _ = mcharness.extrapolate(sizes, y.tolist(), [0.01] * 4)
    assert coef_s.tolist() == pytest.approx(coef.tolist(), rel=1e-12)
    assert np.allclose(cov_s, 1e-4 * cov, rtol=1e-12, atol=0.0)


def test_extrapolate_weights_by_inverse_variance():
    # a size with a huge standard error barely moves the fit of the other two
    sizes = (100, 200, 400)
    y = [0.1 + 2.0 / 100, 0.1 + 2.0 / 200, 5.0]
    coef, _, _ = mcharness.extrapolate(sizes, y, [1e-3, 1e-3, 1e6])
    assert coef.tolist() == pytest.approx([0.1, 2.0], rel=1e-9)


# ---------------------------------------------------------------------------
# law of large numbers harness


def test_lln_check_structure_and_decay():
    params = ModelParams(MU2, C2, 5000)
    out = lln_check(params, seeds=range(20))
    assert out["n"] == 5000
    assert len(out["per_seed"]) == 20
    row = out["per_seed"][0]
    assert set(row) == {"seed", "tv_degree", "tv_neighborhood", "tv_color",
                        "l2_max_deviation", "max_magnitude"}

    # color empirical measure concentrates: TV <= 3 sqrt(1/4n) for 19 of 20
    band = 3.0 * math.sqrt(0.25 / 5000)
    hits = sum(1 for r in out["per_seed"] if r["tv_color"] <= band)
    assert hits >= 19

    # max degree grows slowly; 5 ln n is a loose envelope
    cap = 5.0 * math.log(5000)
    tall = sum(1 for r in out["per_seed"] if r["max_magnitude"] <= cap)
    assert tall >= 19

    for key in ("tv_degree", "tv_neighborhood", "tv_color", "l2_max_deviation"):
        assert out["summary"][key]["min"] >= 0.0
        assert out["summary"][key]["max"] < 1.0
