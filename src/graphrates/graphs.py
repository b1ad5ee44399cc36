"""Colored random graph model: free and conditioned samplers, empirical measures.

The model: n vertices with i.i.d. colors from mu, and each unordered pair
(u, v) an edge independently with probability p_n(a, b) = min(C(a, b)/n, 1)
where a, b are the endpoint colors. The free sampler draws, per unordered
color pair, the Bernoulli(p_n(a, b)) slots that hold an edge by skipping
geometric gaps between successes (Batagelj & Brandes 2005). The conditional
sampler instead fixes the exact color counts and per-color-pair edge counts
and draws uniformly from the graphs realizing them: a seeded shuffle of the
fixed color multiset, then for every unordered color pair exactly n(a, b)
distinct edge slots drawn without replacement; sample_conditional_batch
draws it for many seeds at once, as arrays. All samplers index the pair slots
of a color-class pair the same way and share one slot-to-local-index decoder.
"""

import math

import numpy as np

from .errors import InfeasibleError
from .measures import (Alphabet, ColorCounts, ColorMeasure, Kernel,
                       NeighborhoodCounts, PairCounts, _check_same_alphabet)


def _sorted_edges(edges, n):
    """Edges of shape (R, E, 2) sorted per graph by u n + v, ColoredGraph's checks made.

    Graph r gets keys in [r n^2, (r + 1) n^2), so one flat sort orders all R graphs.
    """
    u, v = edges[..., 0], edges[..., 1]
    if (u < 0).any() or (u >= v).any() or (v >= n).any():
        raise ValueError(f"edges must satisfy 0 <= u < v < n = {n} (no loops)")
    key = (u * n + v + n * n * np.arange(len(u))[:, None]).ravel()
    order = key.argsort()
    if (key[order[1:]] == key[order[:-1]]).any():
        raise ValueError("duplicate edges")
    return edges.reshape(-1, 2)[order].reshape(edges.shape)


class ColoredGraph:
    """Simple graph with vertex colors; edges stored as sorted (u, v), u < v."""

    def __init__(self, n, m, colors, edges):
        n, m = int(n), int(m)
        colors = np.asarray(colors, dtype=np.int64)
        if colors.shape != (n,):
            raise ValueError(f"colors shape {colors.shape} != ({n},)")
        if n and (colors.min() < 0 or colors.max() >= m):
            raise ValueError("color index outside alphabet")
        edges = _sorted_edges(np.asarray(edges, dtype=np.int64).reshape(1, -1, 2), n)[0]
        self.n = n
        self.alphabet = Alphabet(m)
        self.colors = colors.copy()
        self.colors.setflags(write=False)
        self.edges = edges.copy()
        self.edges.setflags(write=False)

    @property
    def m(self):
        return self.alphabet.m

    @property
    def edge_count(self):
        return int(self.edges.shape[0])

    def degrees(self):
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def __eq__(self, other):
        return (isinstance(other, ColoredGraph) and self.n == other.n
                and self.m == other.m
                and np.array_equal(self.colors, other.colors)
                and np.array_equal(self.edges, other.edges))

    def __hash__(self):
        return hash((self.n, self.m, self.colors.tobytes(), self.edges.tobytes()))

    # -- serialization ------------------------------------------------------

    def to_text(self):
        lines = [f"{self.n} {self.m}",
                 " ".join(str(int(c)) for c in self.colors)]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) < 2:
            raise ValueError("graph text needs a header line and a color line")
        n, m = (int(x) for x in lines[0].split())
        colors = [int(x) for x in lines[1].split()]
        edges = [[int(x) for x in ln.split()] for ln in lines[2:]]
        return cls(n, m, colors, edges)

    def to_dict(self):
        return {"n": self.n, "m": self.m, "colors": self.colors.tolist(),
                "edges": self.edges.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(d["n"], d["m"], d["colors"], d["edges"])


class ModelParams:
    """Color law mu, kernel C, and size n; p_n(a,b) = min(C(a,b)/n, 1)."""

    def __init__(self, mu, C, n):
        if not isinstance(mu, ColorMeasure) or not mu.probability:
            raise ValueError("mu must be a probability ColorMeasure")
        if not isinstance(C, Kernel):
            raise ValueError("C must be a Kernel")
        _check_same_alphabet(mu, C)
        n = int(n)
        if n < 1:
            raise ValueError("n must be >= 1")
        self.mu = mu
        self.C = C
        self.n = n

    @property
    def edge_probabilities(self):
        return np.minimum(self.C.values / self.n, 1.0)


# ---------------------------------------------------------------------------
# slot machinery: pair slots are indexed 0..S-1 per color-class pair


def _slot_count(ka, kb, same):
    """Pair slots between classes of ka and kb vertices (one class if same)."""
    return ka * (ka - 1) // 2 if same else ka * kb


def _slot_pairs(ka, kb, slots, same):
    """Class-local indices (i, j) of slot indices, for slot arrays of any shape.

    Within one class of k = ka vertices (same) the slots enumerate the pairs
    i < j row by row, row i starting at slot i k - i (i + 1) / 2; across two
    classes slot s is the pair (s // kb, s % kb).
    """
    if same:
        rows = np.arange(ka)
        starts = rows * ka - rows * (rows + 1) // 2
        i = np.searchsorted(starts, slots, side="right") - 1
        return i, slots - starts[i] + i + 1
    return np.divmod(slots, kb)


def _slots_to_edges(A, B, slots, same):
    """Edges (u, v), u < v, for slot indices between sorted vertex classes A and B."""
    i, j = _slot_pairs(A.size, B.size, slots, same)
    u, v = A[i], B[j]
    return np.column_stack((u, v) if same else (np.minimum(u, v), np.maximum(u, v)))


def _bernoulli_slots(S, p, rng):
    """Indices of successes among S independent Bernoulli(p) slots.

    Gaps between successes are iid Geometric(p) on {1, 2, ...}, so the hits
    are the partial sums of the gaps that stay below S. Each batch covers the
    expected remaining hits plus four standard deviations, so one batch
    almost always suffices.
    """
    if S <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(S, dtype=np.int64)
    out = []
    pos = -1
    while pos < S:
        mean = (S - pos) * p
        batch = int(mean + 4.0 * math.sqrt(mean)) + 8
        steps = pos + np.cumsum(rng.geometric(p, batch))
        out.append(steps)
        pos = int(steps[-1])
    hits = np.concatenate(out)
    return hits[hits < S]


def sample_colored_graph(params, seed):
    """Draw one graph from the model; deterministic per seed."""
    n, m = params.n, params.mu.alphabet.m
    rng = np.random.default_rng(seed)
    colors = rng.choice(m, size=n, p=params.mu.weights / params.mu.weights.sum())
    classes = [(colors == a).nonzero()[0] for a in range(m)]
    probs = params.edge_probabilities

    parts = []
    for a in range(m):
        for b in range(a, m):
            A, B, same = classes[a], classes[b], a == b
            slots = _bernoulli_slots(_slot_count(A.size, B.size, same),
                                     float(probs[a, b]), rng)
            parts.append(_slots_to_edges(A, B, slots, same))
    return ColoredGraph(n, m, colors, np.concatenate(parts))


def empirical_measures(graph):
    """Exact integer-backed (L1, L2, M) of a colored graph.

    L1 counts vertices per color; L2 counts each edge once per orientation
    (total mass 2|E|/n); M counts vertices per (color, degree vector) atom.
    phi_counts(M) reproduces (L1, L2) exactly in integer arithmetic.
    """
    n, m = graph.n, graph.m
    colors = graph.colors
    color_counts = np.bincount(colors, minlength=m)

    u, v = graph.edges[:, 0], graph.edges[:, 1]
    cu, cv = colors[u], colors[v]
    tally = np.bincount(cu * m + cv, minlength=m * m).reshape(m, m)
    deg = np.bincount(np.concatenate((u * m + cv, v * m + cu)), minlength=n * m).reshape(n, m)
    edge_counts = tally + tally.T
    edge_counts[np.diag_indices(m)] = np.diag(tally)

    # count equal (color, degree vector) rows; the stable sort puts each
    # atom's first vertex first, so atoms keep first-appearance order
    rows = np.concatenate((colors[:, None], deg), axis=1)
    order = np.lexsort(rows.T)
    rows = rows[order]
    new = (rows[1:] != rows[:-1]).any(axis=1)
    bounds = np.concatenate(([True], new, [True])).nonzero()[0]
    keep = order[bounds[:-1]].argsort()
    atom_counts = {(row[0], tuple(row[1:])): c for row, c in
                   zip(rows[bounds[keep]].tolist(), (bounds[1:] - bounds[:-1])[keep].tolist())}
    return (ColorCounts(n, color_counts), PairCounts(n, edge_counts),
            NeighborhoodCounts(n, atom_counts))


def _conditional_plan(omega_n, pair_n):
    """(a, b, slots, edges) per color pair a <= b; InfeasibleError if edges > slots."""
    if omega_n.n != pair_n.n:
        raise ValueError(f"size mismatch: omega_n.n={omega_n.n}, pair_n.n={pair_n.n}")
    _check_same_alphabet(omega_n, pair_n)
    m, sizes = omega_n.alphabet.m, omega_n.counts.tolist()
    plan = [(a, b, _slot_count(sizes[a], sizes[b], a == b), int(pair_n.edge_counts[a, b]))
            for a in range(m) for b in range(a, m)]
    for a, b, S, k in plan:
        if k > S:
            raise InfeasibleError(f"{k} edges requested between colors {a},{b} "
                                  f"but only {S} simple-edge slots exist")
    return plan


def sample_conditional(omega_n, pair_n, seed):
    """Uniform graph with exact color counts omega_n and edge counts pair_n.

    Colors are a seeded shuffle of the fixed multiset; per unordered color
    pair {a, b}, exactly pair_n.edge_counts[a, b] distinct slots are drawn
    uniformly over the k-subsets of the slot index space. Raises
    InfeasibleError when a color pair asks for more edges than it has slots.
    This is the one-seed case of sample_conditional_batch.
    """
    colors, edges = sample_conditional_batch(omega_n, pair_n, [seed])
    return ColoredGraph(omega_n.n, omega_n.alphabet.m, colors[0], edges[0])


def sample_conditional_batch(omega_n, pair_n, seeds):
    """colors (R, n) and edges (R, |E|, 2) of sample_conditional for R seeds.

    Each seed keeps its own random stream: a shuffle of the colors, then one
    slot subset per color pair in the plan's order. The checks, the decoding
    and the sorting run once for the whole batch.
    """
    plan = _conditional_plan(omega_n, pair_n)
    n, m, seeds = omega_n.n, omega_n.alphabet.m, list(seeds)
    colors = np.tile(np.repeat(np.arange(m, dtype=np.int64), omega_n.counts), (len(seeds), 1))
    slots = [np.empty((len(seeds), k), dtype=np.int64) for *_, k in plan]
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.shuffle(colors[r])
        for out, (_, _, S, k) in zip(slots, plan):
            out[r] = rng.choice(S, k, replace=False, shuffle=False)
    # a stable sort lists each class's vertices in increasing order
    classes = np.split(np.argsort(colors, axis=1, kind="stable"),
                       np.cumsum(omega_n.counts)[:-1], axis=1)
    parts = []
    for drawn, (a, b, _, _) in zip(slots, plan):
        i, j = _slot_pairs(classes[a].shape[1], classes[b].shape[1], drawn, a == b)
        u, v = np.take_along_axis(classes[a], i, 1), np.take_along_axis(classes[b], j, 1)
        parts.append(np.stack((np.minimum(u, v), np.maximum(u, v)), axis=-1))
    return colors, _sorted_edges(np.concatenate(parts, axis=1), n)
