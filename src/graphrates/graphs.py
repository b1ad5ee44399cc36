"""Colored random graph model: free and conditioned samplers, empirical measures.

The model: n vertices with i.i.d. colors from mu, and each unordered pair
(u, v) an edge independently with probability p_n(a, b) = min(C(a, b)/n, 1)
where a, b are the endpoint colors. The free sampler draws, per unordered
color pair, the Bernoulli(p_n(a, b)) slots that hold an edge by skipping
geometric gaps between successes (Batagelj & Brandes 2005). The conditional
sampler instead fixes the exact color counts and per-color-pair edge counts
and draws uniformly from the graphs realizing them: a seeded shuffle of the
fixed color multiset, then for every unordered color pair exactly n(a, b)
distinct edge slots drawn without replacement. Both samplers index the pair
slots of a color-class pair the same way and share one slot-to-edge decoder.
"""

import math
from collections import Counter

import numpy as np

from .errors import InfeasibleError
from .measures import (Alphabet, ColorCounts, ColorMeasure, Kernel,
                       NeighborhoodCounts, PairCounts, _check_same_alphabet)


class ColoredGraph:
    """Simple graph with vertex colors; edges stored as sorted (u, v), u < v."""

    def __init__(self, n, m, colors, edges):
        n, m = int(n), int(m)
        colors = np.asarray(colors, dtype=np.int64)
        if colors.shape != (n,):
            raise ValueError(f"colors shape {colors.shape} != ({n},)")
        if n and (colors.min() < 0 or colors.max() >= m):
            raise ValueError("color index outside alphabet")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint outside vertex range")
            if np.any(edges[:, 0] >= edges[:, 1]):
                raise ValueError("edges must satisfy u < v (no loops)")
            order = np.lexsort((edges[:, 1], edges[:, 0]))
            edges = edges[order]
            if np.any(np.all(edges[1:] == edges[:-1], axis=1)):
                raise ValueError("duplicate edges")
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
        deg = np.zeros(self.n, dtype=np.int64)
        if self.edges.size:
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg

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


def _slots_to_edges(A, B, slots, same):
    """Edges (u, v), u < v, for slot indices between vertex classes A and B.

    A and B are sorted vertex arrays. Within one class (same) the slots
    enumerate the pairs i < j of A row by row, row i starting at slot
    i k - i (i + 1) / 2 for k = |A|; across two classes slot s joins
    A[s // |B|] and B[s % |B|].
    """
    if same:
        rows = np.arange(A.size)
        starts = rows * A.size - rows * (rows + 1) // 2
        i = np.searchsorted(starts, slots, side="right") - 1
        j = slots - starts[i] + i + 1
        return np.column_stack((A[i], A[j]))
    u = A[slots // B.size]
    v = B[slots % B.size]
    return np.column_stack((np.minimum(u, v), np.maximum(u, v)))


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
    classes = [np.flatnonzero(colors == a) for a in range(m)]
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

    tally = np.zeros((m, m), dtype=np.int64)
    deg = np.zeros((n, m), dtype=np.int64)
    if graph.edges.size:
        cu = colors[graph.edges[:, 0]]
        cv = colors[graph.edges[:, 1]]
        np.add.at(tally, (cu, cv), 1)
        np.add.at(deg, (graph.edges[:, 0], cv), 1)
        np.add.at(deg, (graph.edges[:, 1], cu), 1)
    edge_counts = tally + tally.T
    edge_counts[np.diag_indices(m)] = np.diag(tally)

    atom_counts = Counter(zip(colors.tolist(), map(tuple, deg.tolist())))
    return (ColorCounts(n, color_counts), PairCounts(n, edge_counts),
            NeighborhoodCounts(n, atom_counts))


def sample_conditional(omega_n, pair_n, seed):
    """Uniform graph with exact color counts omega_n and edge counts pair_n.

    Colors are a seeded shuffle of the fixed multiset; per unordered color
    pair {a, b}, exactly pair_n.edge_counts[a, b] distinct slots are drawn
    uniformly over the k-subsets of the slot index space. Raises
    InfeasibleError when a color pair asks for more edges than it has slots.
    """
    if omega_n.n != pair_n.n:
        raise ValueError(f"size mismatch: omega_n.n={omega_n.n}, pair_n.n={pair_n.n}")
    _check_same_alphabet(omega_n, pair_n)
    n, m = omega_n.n, omega_n.alphabet.m
    need = pair_n.edge_counts

    rng = np.random.default_rng(seed)
    colors = np.repeat(np.arange(m, dtype=np.int64), omega_n.counts)
    rng.shuffle(colors)
    classes = [np.flatnonzero(colors == a) for a in range(m)]

    parts = []
    for a in range(m):
        for b in range(a, m):
            A, B, same = classes[a], classes[b], a == b
            S, k = _slot_count(A.size, B.size, same), int(need[a, b])
            if k > S:
                raise InfeasibleError(
                    f"{k} edges requested between colors {a},{b} "
                    f"but only {S} simple-edge slots exist")
            # the slots' order is irrelevant: ColoredGraph sorts the edges
            slots = rng.choice(S, k, replace=False, shuffle=False)
            parts.append(_slots_to_edges(A, B, slots, same))
    return ColoredGraph(n, m, colors, np.concatenate(parts))
