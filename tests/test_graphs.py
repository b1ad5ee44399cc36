import hashlib
import itertools
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrates import (Alphabet, ColorCounts, ColoredGraph, ColorMeasure,
                        Kernel, ModelParams, PairCounts, empirical_measures,
                        phi_counts, sample_colored_graph, sample_conditional,
                        sample_conditional_batch)
from graphrates import graphs
from graphrates.errors import InfeasibleError
from graphrates.graphs import _edge_order, _format_ints, _free_edges, _slot_pairs
from graphrates.seeds import derive_child_seed

A1 = Alphabet(1)
A2 = Alphabet(2)
MU2 = ColorMeasure(A2, [0.5, 0.5], probability=True)


def sample_colored_batch(params, seeds):
    """colors (R, n) and sorted edges (replica, u, v) of sample_colored_graph for R seeds;
    each seed keeps its own stream, and ColoredGraph's checks run once for the batch.
    A fast way to draw many graphs for the statistical checks below."""
    colors, rep, u, v = _free_edges(params, seeds)
    keep = _edge_order(rep, u, v, params.n)
    return colors, rep[keep], u[keep], v[keep]


def test_colored_graph_validation():
    with pytest.raises(ValueError):
        ColoredGraph(3, 1, [0, 0, 0], [(1, 1)])  # loop
    with pytest.raises(ValueError):
        ColoredGraph(3, 1, [0, 0, 0], [(0, 1), (0, 1)])  # duplicate
    with pytest.raises(ValueError):
        ColoredGraph(3, 1, [0, 0, 0], [(2, 0)])  # pairs must come in as u < v
    with pytest.raises(ValueError):
        ColoredGraph(2, 2, [0, 3], [])  # color outside alphabet
    g = ColoredGraph(3, 2, [0, 1, 0], [(0, 2), (0, 1)])
    assert g.edges.tolist() == [[0, 1], [0, 2]]  # sorted on construction


def test_colored_graph_edges_are_pairs():
    g = ColoredGraph(3, 2, [0, 1, 1], [])  # an empty list is no edges
    assert g.edge_count == 0 and g.edges.shape == (0, 2)
    # a row of four or a flat list is not regrouped into two edges
    for bad in ([[0, 1, 1, 2]], [0, 1, 1, 2], [[]]):
        with pytest.raises(ValueError, match="shape"):
            ColoredGraph(3, 2, [0, 1, 1], bad)


def test_graph_and_model_sizes_are_never_truncated():
    # n = 4.7 and m = 2.9 were once read as 4 and 2, and n = true as 1
    assert ColoredGraph(4.0, 2.0, [0, 1, 0, 1], [[0, 1]]).n == 4
    assert ModelParams(MU2, Kernel(A2, [[1.0, 1.0], [1.0, 1.0]]), 10.0).n == 10
    for n, m in ((4.7, 2), (4, 2.9), (True, 2), (4, True)):
        with pytest.raises(ValueError, match="must be an integer"):
            ColoredGraph(n, m, [0, 1, 0, 1], [[0, 1]])
    for n in (10.5, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            ModelParams(MU2, Kernel(A2, [[1.0, 1.0], [1.0, 1.0]]), n)


@pytest.mark.parametrize("mu, C, message", [
    (ColorMeasure(A2, [0.5, 0.6]), Kernel(A2, np.ones((2, 2))),
     "mu must be a probability ColorMeasure"),
    ([0.5, 0.5], Kernel(A2, np.ones((2, 2))), "mu must be a probability ColorMeasure"),
    (MU2, np.ones((2, 2)), "C must be a Kernel"),
], ids=["not-probability", "not-a-measure", "not-a-kernel"])
def test_model_params_refuse_a_law_or_kernel_of_the_wrong_kind(mu, C, message):
    with pytest.raises(ValueError, match=message):
        ModelParams(mu, C, 10)


def test_graph_text_round_trip():
    g = ColoredGraph(4, 3, [1, 0, 2, 1], [(0, 2), (1, 3)])
    assert ColoredGraph.from_text(g.to_text()) == g
    assert ColoredGraph.from_dict(g.to_dict()) == g


def test_graph_text_bytes_pinned():
    # the flat format of one sampled graph, byte for byte
    params = ModelParams(MU2, Kernel(A2, [[3.0, 1.0], [1.0, 2.0]]), 12)
    assert sample_colored_graph(params, 5).to_text() == (
        "12 2\n1 1 1 0 0 0 0 0 0 1 1 0\n1 2\n2 5\n2 10\n3 7\n3 9\n4 7\n4 8\n"
        "6 11\n8 9\n10 11\n")


def _per_edge_text(g):
    """The flat format as it was written one f-string per edge; the reference for to_text."""
    lines = [f"{g.n} {g.m}", " ".join(map(str, g.colors.tolist()))]
    lines.extend(f"{u} {v}" for u, v in g.edges.tolist())
    return "\n".join(lines) + "\n"


@settings(max_examples=12, deadline=None)
@given(digits=st.integers(1, 7), m=st.integers(1, 12), edges=st.sampled_from([0, 1, 2, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_graph_text_and_json_match_the_per_entry_writers(digits, m, edges, seed):
    # n just past a power of ten, so vertex indices run from 1 to `digits` digits
    rng = np.random.default_rng(seed)
    n = 10 ** (digits - 1) + int(rng.integers(1, 10))
    pairs = np.sort(rng.integers(0, n, (edges, 2)), axis=1)
    pairs[:1] = [0, n - 1]
    pairs = np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0)
    g = ColoredGraph(n, m, rng.integers(0, m, n), pairs)
    assert g.to_text() == _per_edge_text(g)
    assert ColoredGraph.from_text(g.to_text()) == g
    assert g.to_json() == json.dumps(g.to_dict())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_format_ints_matches_str(data):
    seps = data.draw(st.lists(st.text("[], \n", max_size=4), min_size=1, max_size=3))
    row = st.lists(st.integers(0, 2 ** 63 - 1), min_size=len(seps), max_size=len(seps))
    rows = data.draw(st.lists(row, max_size=20))
    text = "".join(str(v) + sep for r in rows for v, sep in zip(r, seps))
    expect = text[:len(text) - len(seps[-1])] if rows else ""
    assert _format_ints(np.array(rows, dtype=np.int64).reshape(-1, len(seps)), seps) == expect


def test_graph_text_edge_block_may_be_empty(recwarn):
    # blank lines after the colors are no edges, read without a warning
    g = ColoredGraph.from_text("\n3 2\n\n0 1 1\n\n  \n")
    assert g.edges.shape == (0, 2) and g.colors.tolist() == [0, 1, 1]
    assert ColoredGraph.from_text(g.to_text()) == g and not recwarn.list


@pytest.mark.parametrize("text, message", [
    ("3 2\n0 1 1\n0 1\n1 2\n0 1 2\n", "the number of columns changed from 2 to 3 at line 5"),
    ("3 2\n0 1 1\n0 1\n\n1 x\n", "could not convert string 'x' to int64 at line 5, column 2"),
    ("3 2\r\n\r\n0 1 1\r\n0 1\r\n\r\n1 2\r\n0\r\n",
     "the number of columns changed from 2 to 1 at line 7"),
    ("3 2\r\n0 1 1\r\n\r\n0 1\r\n1 x\r\n",
     "could not convert string 'x' to int64 at line 5, column 2"),
    ("\n3 2\r\n\r\n0 1 99999999999999999999\r\n",
     "could not convert string '99999999999999999999' to int64 at line 4, column 3"),
    ("\n3 x\n0 1 1\n", "could not convert string 'x' to int64 at line 2, column 2"),
    ("\n\n3 2 1\n0 1 1\n", "the header line must be 'n m', got 3 numbers at line 3"),
], ids=["columns", "token", "columns-crlf", "token-crlf", "color-past-int64", "header-token",
        "header-three"])
def test_graph_text_refusal_names_the_file_line(text, message):
    # lines count from 1 at the top of the file, blank ones included, whatever
    # the line ending; numpy's own row count starts at the first edge line
    with pytest.raises(ValueError) as info:
        ColoredGraph.from_text(text)
    assert str(info.value) == message


def test_graph_degrees():
    g = ColoredGraph(4, 1, [0, 0, 0, 0], [(0, 1), (0, 2), (0, 3)])
    assert g.degrees().tolist() == [3, 1, 1, 1]
    assert g.edge_count == 3


def test_sampler_deterministic_per_seed():
    params = ModelParams(MU2, Kernel(A2, [[3.0, 1.0], [1.0, 2.0]]), 300)
    g1 = sample_colored_graph(params, 123)
    g2 = sample_colored_graph(params, 123)
    g3 = sample_colored_graph(params, 124)
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != g3


@pytest.mark.parametrize("seed", [7.9, True, -1, 2 ** 64 + 7],
                         ids=["fraction", "bool", "negative", "past-64-bits"])
def test_sampler_refuses_a_seed_outside_64_bits(seed):
    # default_rng ran True as seed 1 and 2**64 + 7 as a stream no config reaches, and
    # raised its own errors for 7.9 and -1
    params = ModelParams(MU2, Kernel(A2, [[3.0, 1.0], [1.0, 2.0]]), 50)
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\), got "
                       + re.escape(repr(seed))):
        sample_colored_graph(params, seed)


def test_sampler_single_entry_kernel_only_matching_edges():
    # only C(0,0) > 0, so every edge joins two color-0 vertices
    C = Kernel(A2, [[0.4, 0.0], [0.0, 0.0]])
    g = sample_colored_graph(ModelParams(MU2, C, 400), 9)
    colors = g.colors
    for u, v in g.edges:
        assert colors[u] == 0 and colors[v] == 0


def test_sampler_er_mean_edge_count():
    """ER c=2 at n=1000: mean |E| over 200 seeds within 3 SE of 999."""
    n, c = 1000, 2.0
    params = ModelParams(ColorMeasure(A1, [1.0], probability=True),
                         Kernel.constant(c), n)
    counts = [sample_colored_graph(params, derive_child_seed(1000, i)).edge_count
              for i in range(200)]
    N = n * (n - 1) / 2
    p = c / n
    se_mean = math.sqrt(N * p * (1 - p) / 200)
    assert abs(np.mean(counts) - N * p) <= 3 * se_mean


def test_sampler_large_n_edge_count_agrees_with_model():
    # check the edge count lands where the binomial law says it should
    n, c = 20000, 1.5
    params = ModelParams(ColorMeasure(A1, [1.0], probability=True),
                         Kernel.constant(c), n)
    g = sample_colored_graph(params, 4)
    mean = (n - 1) * c / 2
    sd = math.sqrt(n * (n - 1) / 2 * (c / n))
    assert abs(g.edge_count - mean) <= 5 * sd


@pytest.mark.parametrize("mu, C, base", [
    (ColorMeasure(A1, [1.0], probability=True), Kernel.constant(2.0), 2024),
    # C(0,0)/n = 2 clips to p = 1; the other pairs keep p = 0.2 and 0.4
    (MU2, Kernel(A2, [[10.0, 1.0], [1.0, 2.0]]), 2025),
])
def test_sampler_small_n_pair_law(mu, C, base):
    """n = 5: each vertex pair, grouped by endpoint colors, is an edge with
    frequency within 4 SE of p(a, b) over 20,000 seeds."""
    n, reps = 5, 20000
    params = ModelParams(mu, C, n)
    # the batch draws each seed's graph bit for bit (test_sample_colored_batch_*)
    colors, rep, u, v = sample_colored_batch(params, [derive_child_seed(base, i)
                                                      for i in range(reps)])
    adj = np.zeros((reps, n, n), dtype=bool)
    adj[rep, u, v] = True
    u, v = np.triu_indices(n, 1)
    lo = np.minimum(colors[:, u], colors[:, v])
    hi = np.maximum(colors[:, u], colors[:, v])
    for a in range(mu.alphabet.m):
        for b in range(a, mu.alphabet.m):
            p = params.edge_probabilities[a, b]
            group = (lo == a) & (hi == b)  # [seed, vertex pair]
            trials = group.sum(axis=0)
            freq = (group & adj[:, u, v]).sum(axis=0) / trials
            assert np.all(np.abs(freq - p) <= 4 * np.sqrt(p * (1 - p) / trials))


A3 = Alphabet(3)
MODELS = {
    1: (ColorMeasure(A1, [1.0], probability=True), Kernel.constant(2.0)),
    2: (MU2, Kernel(A2, [[3.0, 1.0], [1.0, 2.0]])),
    3: (ColorMeasure(A3, [0.3, 0.3, 0.4], probability=True),
        Kernel(A3, [[3.0, 1.0, 0.5], [1.0, 2.0, 1.5], [0.5, 1.5, 4.0]])),
}


@pytest.mark.parametrize("m, n, seed, digest", [
    (1, 200, 7, "5e808a745a432106"),
    (1, 3000, 0, "7d31bb5be781b047"),
    (2, 5, 7, "c3fb51d78e24393c"),
    (2, 37, 0, "e061f02ab92863a7"),
    (3, 200, 0, "f6a3c2c3f12b4537"),
    (3, 3000, 2 ** 63 + 5, "5aa3ad14b256c0fc"),
])
def test_sample_colored_graph_pinned_digests(m, n, seed, digest):
    # digests of (colors, edges) as little-endian int64, taken from the
    # one-graph-at-a-time sampler that drew each class pair's edges apart
    g = sample_colored_graph(ModelParams(*MODELS[m], n), seed)
    data = g.colors.astype("<i8").tobytes() + g.edges.astype("<i8").tobytes()
    assert hashlib.sha256(data).hexdigest()[:16] == digest


@pytest.mark.parametrize("weights", [[1.0], [0.4, 0.6], [0.3, 0.3, 0.4], [0.1, 0.0, 0.9]])
def test_free_color_draw_is_generator_choice(monkeypatch, weights):
    # the free draw's colors, and its stream position when the slot draws
    # begin, are those of Generator.choice(m, size=n, p=mu) on the same seed
    m, n = len(weights), 41
    mu = ColorMeasure(Alphabet(m), weights, probability=True)
    params = ModelParams(mu, Kernel(Alphabet(m), np.full((m, m), 2.0)), n)
    positions, draw = [], graphs._bernoulli_slots

    def recording(S, p, rng):
        positions.append(rng.bit_generator.state)
        return draw(S, p, rng)

    monkeypatch.setattr(graphs, "_bernoulli_slots", recording)
    for seed in (0, 7, 2 ** 63 + 5):
        positions.clear()
        colors = sample_colored_graph(params, seed).colors
        rng = np.random.default_rng(seed)
        assert np.array_equal(colors, rng.choice(m, size=n, p=mu.weights / mu.weights.sum()))
        assert positions[0] == rng.bit_generator.state


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sample_colored_batch_matches_single_draws(m):
    params = ModelParams(*MODELS[m], 40)
    seeds = [derive_child_seed(77, i) for i in range(50)]
    colors, rep, u, v = sample_colored_batch(params, seeds)
    assert np.all(np.diff(rep) >= 0)
    for r, seed in enumerate(seeds):
        g = sample_colored_graph(params, seed)
        assert np.array_equal(colors[r], g.colors)
        assert np.array_equal(np.column_stack((u, v))[rep == r], g.edges)
    colors, rep, u, v = sample_colored_batch(params, [])
    assert colors.shape == (0, 40) and rep.size == u.size == v.size == 0


def test_slot_decoder_enumerates_pairs_for_every_small_class():
    for k in range(2, 301):
        slots = np.arange(k * (k - 1) // 2)
        size = np.full(slots.size, k)
        i, j = _slot_pairs(size, size, slots, np.ones(slots.size, dtype=bool))
        expect_i, expect_j = np.triu_indices(k, 1)  # the pairs i < j, row by row
        assert np.array_equal(i, expect_i) and np.array_equal(j, expect_j)


def test_slot_decoder_at_a_million_vertices():
    k = 10 ** 6
    S = k * (k - 1) // 2
    rng = np.random.default_rng(0)
    rows = rng.integers(0, k - 1, 1000)
    starts = rows * k - rows * (rows + 1) // 2
    # random slots, plus the first and last slot of rows, where rounding bites
    slots = np.concatenate((rng.integers(0, S, 10 ** 5), starts, starts - 1, [0, S - 1]))
    slots = slots[(slots >= 0) & (slots < S)]
    size = np.full(slots.size, k)
    i, j = _slot_pairs(size, size, slots, np.ones(slots.size, dtype=bool))
    all_rows = np.arange(k)
    row_start = all_rows * k - all_rows * (all_rows + 1) // 2
    expect_i = np.searchsorted(row_start, slots, side="right") - 1
    assert np.array_equal(i, expect_i)
    assert np.array_equal(j, slots - row_start[expect_i] + expect_i + 1)
    assert np.all((0 <= i) & (i < j) & (j < k))


def test_slot_decoder_corrects_the_rounded_root():
    # at k = 10^9 the discriminant exceeds 2^53, so the float root can land
    # one row off; slot s must end in the row i with start(i) <= s < start(i + 1)
    k = 10 ** 9
    rows = np.random.default_rng(1).integers(1, k - 1, 20000)
    starts = rows * k - rows * (rows + 1) // 2
    slots = np.concatenate((starts, starts - 1, starts + 1))
    size = np.full(slots.size, k)
    i, j = _slot_pairs(size, size, slots, np.ones(slots.size, dtype=bool))
    start = i * k - i * (i + 1) // 2
    assert np.all((start <= slots) & (slots < start + (k - 1 - i)))
    assert np.array_equal(j, slots - start + i + 1)
    assert np.array_equal(i[:rows.size], rows)
    assert np.array_equal(i[rows.size:2 * rows.size], rows - 1)


def test_slot_decoder_mixes_same_and_cross_pairs():
    ka = np.array([5, 5, 3, 7, 7])
    kb = np.array([5, 4, 3, 2, 7])
    slots = np.array([9, 19, 1, 13, 20])
    i, j = _slot_pairs(ka, kb, slots, ka == kb)
    assert i.tolist() == [3, 4, 0, 6, 5]
    assert j.tolist() == [4, 3, 2, 1, 6]


def test_empirical_measures_empty_graph():
    g = ColoredGraph(3, 2, [0, 1, 1], [])
    cc, pc, nc = empirical_measures(g)
    assert not pc.edge_counts.any()
    assert nc.measure.mass(1, (0, 0)) == pytest.approx(2 / 3)
    assert cc.counts.tolist() == [1, 2]


def test_empirical_measures_two_vertex_edge():
    g = ColoredGraph(2, 1, [0, 0], [(0, 1)])
    cc, pc, nc = empirical_measures(g)
    assert pc.measure.weights[0, 0] == pytest.approx(1.0)  # L2(a,a) = 2E/n = 1
    assert nc.atoms() == [((0, (1,)), 2)]


def test_empirical_measures_three_vertex_path():
    # path a-b-a: edges (0,1) and (1,2), colors (a,b,a)
    g = ColoredGraph(3, 2, [0, 1, 0], [(0, 1), (1, 2)])
    cc, pc, nc = empirical_measures(g)
    assert pc.measure.weights[0, 1] == pytest.approx(2 / 3)
    assert pc.measure.weights[1, 0] == pytest.approx(2 / 3)
    assert nc.measure.mass(1, (2, 0)) == pytest.approx(1 / 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 63 - 1))
def test_phi_identity_on_sampled_graphs(seed):
    params = ModelParams(MU2, Kernel(A2, [[3.0, 1.0], [1.0, 2.0]]), 80)
    g = sample_colored_graph(params, seed)
    cc, pc, nc = empirical_measures(g)
    color, adj = phi_counts(nc)
    assert np.array_equal(color, cc.counts)
    assert np.array_equal(adj, pc.adjacency)
    assert int(adj.sum()) == 2 * g.edge_count


def test_sample_conditional_no_edges():
    g = sample_conditional(ColorCounts(5, [3, 2]), PairCounts(5, np.zeros((2, 2))), 3)
    assert g.edge_count == 0
    assert sorted(g.colors.tolist()) == [0, 0, 0, 1, 1]


def test_sample_conditional_exact_postcondition():
    oc = ColorCounts(30, [18, 12])
    ec = PairCounts(30, [[10, 7], [7, 3]])
    for i in range(40):
        g = sample_conditional(oc, ec, derive_child_seed(55, i))
        cc, pc, _ = empirical_measures(g)
        assert np.array_equal(cc.counts, oc.counts)
        assert np.array_equal(pc.edge_counts, ec.edge_counts)


def test_sample_conditional_infeasible():
    with pytest.raises(InfeasibleError):
        sample_conditional(ColorCounts(3, [3]), PairCounts(3, [[4]]), 1)
    with pytest.raises(InfeasibleError):
        # 2x1 bipartite slots: at most 2 cross edges
        sample_conditional(ColorCounts(3, [2, 1]), PairCounts(3, [[0, 3], [3, 0]]), 1)


def test_sample_conditional_cross_class_uniform():
    # two colors of two vertices and two cross edges: 6 color arrangements
    # times C(4, 2) = 6 edge sets, each with probability 1/36
    oc = ColorCounts(4, [2, 2])
    ec = PairCounts(4, [[0, 2], [2, 0]])
    reps = 9000
    colors, edges = sample_conditional_batch(oc, ec, 2026, reps)
    counts = Counter((c.tobytes(), e.tobytes()) for c, e in zip(colors, edges))
    p = 1.0 / 36.0
    band = 4.0 * math.sqrt(p * (1.0 - p) / reps)
    assert len(counts) == 36
    assert all(abs(c / reps - p) <= band for c in counts.values())


def test_sample_conditional_deterministic():
    oc = ColorCounts(12, [7, 5])
    ec = PairCounts(12, [[3, 4], [4, 2]])
    assert sample_conditional(oc, ec, 77) == sample_conditional(oc, ec, 77)


BATCH_CONFIGS = pytest.mark.parametrize("counts, edges", [
    ([4], [[2]]),                                         # one color
    ([35, 25], [[20, 15], [15, 10]]),                     # two unequal classes
    ([12, 10, 8], [[5, 3, 0], [3, 4, 80], [0, 80, 2]]),   # zero pair and k = S cross
    ([5, 4], [[10, 0], [0, 6]]),                          # k = S within a class
])


@BATCH_CONFIGS
def test_sample_conditional_batch_matches_single_draws(counts, edges):
    # row 0 is the single draw of the batch's seed
    oc, ec = ColorCounts(sum(counts), counts), PairCounts(sum(counts), edges)
    colors, batch_edges = sample_conditional_batch(oc, ec, 404, 60)
    assert colors.shape == (60, oc.n)
    assert batch_edges.shape == (60, int(np.triu(ec.edge_counts).sum()), 2)
    g = sample_conditional(oc, ec, 404)
    assert np.array_equal(colors[0], g.colors)
    assert np.array_equal(batch_edges[0], g.edges)


@BATCH_CONFIGS
def test_sample_conditional_batch_starts_with_a_shorter_batch(counts, edges):
    oc, ec = ColorCounts(sum(counts), counts), PairCounts(sum(counts), edges)
    colors, batch_edges = sample_conditional_batch(oc, ec, 404, 60)
    short_colors, short_edges = sample_conditional_batch(oc, ec, 404, 10)
    assert np.array_equal(colors[:10], short_colors)
    assert np.array_equal(batch_edges[:10], short_edges)


@BATCH_CONFIGS
def test_sample_conditional_batch_matches_default_rng_reference(counts, edges):
    # the stream written out: default_rng(seed) shuffles the color multiset, then draws
    # each class pair a <= b's slots by choice, row after row; slot s is the pair
    # (s // |B|, s % |B|) across two classes and the s-th pair i < j in lexicographic
    # order within one
    m, n = len(counts), sum(counts)
    oc, ec = ColorCounts(n, counts), PairCounts(n, edges)
    colors, batch_edges = sample_conditional_batch(oc, ec, 505, 60)
    rng = np.random.default_rng(505)
    for r in range(60):
        want = np.repeat(np.arange(m), counts)
        rng.shuffle(want)
        members = [np.flatnonzero(want == a).tolist() for a in range(m)]
        pairs = []
        for a in range(m):
            for b in range(a, m):
                A, B = members[a], members[b]
                within = list(itertools.combinations(range(len(A)), 2))
                for s in rng.choice(len(within) if a == b else len(A) * len(B), edges[a][b],
                                    replace=False, shuffle=False).tolist():
                    u, v = (A[within[s][0]], A[within[s][1]]) if a == b else (A[s // len(B)],
                                                                              B[s % len(B)])
                    pairs.append((min(u, v), max(u, v)))
        assert np.array_equal(colors[r], want)
        assert batch_edges[r].tolist() == [list(p) for p in sorted(pairs)]


def test_sample_conditional_batch_infeasible_and_empty():
    with pytest.raises(InfeasibleError):
        sample_conditional_batch(ColorCounts(3, [2, 1]), PairCounts(3, [[0, 3], [3, 0]]), 1, 1)
    colors, edges = sample_conditional_batch(ColorCounts(5, [3, 2]),
                                             PairCounts(5, [[1, 2], [2, 1]]), 1, 0)
    assert colors.shape == (0, 5)
    assert edges.shape == (0, 4, 2)


@pytest.mark.parametrize("seed, count, message", [
    (1, -1, "count must be nonnegative, got -1"),
    (1, 2.5, "count must be an integer, got 2.5"),
    (1, True, "count must be an integer, got True"),
    # default_rng raised TypeError for 7.5, read True as 1 and accepted 2**64
    (7.5, 3, "seed must be an integer in [0, 2**64), got 7.5"),
    (True, 3, "seed must be an integer in [0, 2**64), got True"),
    (-1, 3, "seed must be an integer in [0, 2**64), got -1"),
    (2 ** 64, 3, "seed must be an integer in [0, 2**64), got 18446744073709551616"),
], ids=["count-negative", "count-fraction", "count-bool", "seed-fraction", "seed-bool",
        "seed-negative", "seed-past-64-bits"])
def test_sample_conditional_batch_refuses_a_bad_seed_or_count(seed, count, message):
    oc, ec = ColorCounts(4, [4]), PairCounts(4, [[2]])
    with pytest.raises(ValueError, match=re.escape(message)):
        sample_conditional_batch(oc, ec, seed, count)
    if count == 3:  # a seed row: the single draw refuses the seed too
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_conditional(oc, ec, seed)


def test_sample_conditional_batch_reads_whole_numbers_as_their_integers():
    oc, ec = ColorCounts(12, [7, 5]), PairCounts(12, [[3, 4], [4, 2]])
    want_colors, want_edges = sample_conditional_batch(oc, ec, 2 ** 63, 5)
    for seed, count in ((np.uint64(2 ** 63), 5.0), (2.0 ** 63, np.int64(5))):
        colors, edges = sample_conditional_batch(oc, ec, seed, count)
        assert np.array_equal(colors, want_colors) and np.array_equal(edges, want_edges)


def test_model_params_edge_probabilities_clip():
    params = ModelParams(MU2, Kernel(A2, [[30.0, 1.0], [1.0, 2.0]]), 10)
    probs = params.edge_probabilities
    assert probs[0, 0] == 1.0  # min(30/10, 1)
    assert probs[0, 1] == pytest.approx(0.1)
