"""Colored random graph model: free and conditioned samplers, empirical measures.

The model: n vertices with i.i.d. colors from mu, and each unordered pair
(u, v) an edge independently with probability p_n(a, b) = min(C(a, b)/n, 1)
where a, b are the endpoint colors. The free sampler draws, per unordered
color pair, the Bernoulli(p_n(a, b)) slots that hold an edge by skipping
geometric gaps between successes (Batagelj & Brandes 2005). The conditional
sampler instead fixes the exact color counts and per-color-pair edge counts
and draws uniformly from the graphs realizing them: a seeded shuffle of the
fixed color multiset, then for every unordered color pair exactly n(a, b)
distinct edge slots drawn without replacement. sample_conditional_batch is
one unit of work with one seed: it draws its graphs one after another from
the one stream default_rng(seed), then decodes all their slots at once with
the one decoder every sampler shares.
"""

import io
import math
import re

import numpy as np
from numpy.random import default_rng  # numpy 2 loads numpy.random on first use, not on import

from .errors import InfeasibleError
from .measures import (Alphabet, ColorCounts, ColorMeasure, Kernel,
                       NeighborhoodCounts, PairCounts, _check_same_alphabet, _int64, _whole)
from .seeds import check_seed


def _edge_order(rep, u, v, n):
    """Order sorting edges (u, v) of replicas rep by (rep, u n + v), ColoredGraph's checks made."""
    if (u < 0).any() or (u >= v).any() or (v >= n).any():
        raise ValueError(f"edges must satisfy 0 <= u < v < n = {n} (no loops)")
    key = (rep * n + u) * n + v
    order = key.argsort()
    if (key[order[1:]] == key[order[:-1]]).any():
        raise ValueError("duplicate edges")
    return order


_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _format_ints(table, seps):
    """The decimal digits of a non-negative int64 table's entries, row after row, with
    every entry but the last followed by the ASCII separator of its column.

    An entry's digit count is 1 plus the powers of ten it reaches, which places every
    entry and separator in one uint8 buffer; each digit place is then one scatter, the
    entries without that place writing to a spare byte past the end.
    """
    values, seps = table.ravel(), [sep.encode() for sep in seps]
    if not values.size:
        return ""
    digits = np.ones(values.size, dtype=np.int64)
    for power in _POWERS_OF_TEN[_POWERS_OF_TEN <= values.max()]:
        digits += values >= power
    sep_lens = np.array([len(sep) for sep in seps])
    # stops[i, j] is one past the last digit of entry (i, j)
    stops = (digits.reshape(-1, len(seps)) + sep_lens).cumsum().reshape(-1, len(seps)) - sep_lens
    size = int(stops[-1, -1])
    # past size: the last entry's separator, written and cut off, then the spare byte
    buf = np.empty(size + len(seps[-1]) + 1, dtype=np.uint8)
    for column, sep in enumerate(seps):
        for offset, char in enumerate(sep):
            buf[stops[:, column] + offset] = char
    last, spare, rest = stops.ravel() - 1, buf.size - 1, values
    for place in range(int(digits.max())):
        quot = rest // 10
        buf[np.where(digits > place, last - place, spare)] = rest - 10 * quot + ord("0")
        rest = quot
    return buf[:size].tobytes().decode()


_INT_TOKEN = re.compile(r"([+-]?)0*([0-9]{1,19})")  # in range, an int64 in base 10


def _read_ints(text, ndmin, first):
    """The whitespace-separated base-10 integers of text in int64. Its lines are lines
    first, first + 1, ... of a file, and a refusal names the file line at fault."""
    try:
        return np.loadtxt(io.StringIO(text), dtype=np.int64, ndmin=ndmin, comments=None)
    except ValueError as exc:
        raise ValueError(_first_fault(text, first) or str(exc)) from None


def _first_fault(text, first):
    """np.loadtxt's refusal of text, found again line by line to name the file line
    (numbered from first) and column; None if no line is at fault."""
    width = None
    for line_no, line in enumerate(text.split("\n"), first):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != (width or len(tokens)):
            return (f"the number of columns changed from {width} to {len(tokens)} "
                    f"at line {line_no}")
        width = len(tokens)
        for column, token in enumerate(tokens, 1):
            match = _INT_TOKEN.fullmatch(token)
            if not (match and -2 ** 63 <= int(match[1] + match[2]) < 2 ** 63):
                return (f"could not convert string {token!r} to int64 "
                        f"at line {line_no}, column {column}")
    return None


class ColoredGraph:
    """Simple graph with vertex colors; edges stored as sorted (u, v), u < v."""

    def __init__(self, n, m, colors, edges):
        n, m = _whole(n, "n", 0), _whole(m, "m")
        colors = _int64(colors, "a color index")
        if colors.shape != (n,):
            raise ValueError(f"colors shape {colors.shape} != ({n},)")
        if n and (colors.min() < 0 or colors.max() >= m):
            raise ValueError("color index outside alphabet")
        edges = _int64(edges, "a vertex index")
        if edges.shape == (0,):  # an empty list is no edges
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (E, 2), got {edges.shape}")
        self.n = n
        self.alphabet = Alphabet(m)
        self.colors = colors.copy()
        self.colors.setflags(write=False)
        self.edges = edges[_edge_order(0, edges[:, 0], edges[:, 1], n)]
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
        """The flat format: a header "n m", a line of the n colors, then one "u v"
        line per edge, each line ending in a newline."""
        lines = [f"{self.n} {self.m}", _format_ints(self.colors[:, None], [" "])]
        if self.edge_count:
            lines.append(_format_ints(self.edges, [" ", "\n"]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Parse to_text's format; lines end in \\n, \\r\\n or \\r, blank lines are
        skipped and every token must be a base-10 integer."""
        fh = io.StringIO(text, newline=None)
        lines = ((line_no, ln) for line_no, ln in enumerate(fh, 1) if ln.strip())
        missing = (0, None)
        (header_no, header), (color_no, color_line) = next(lines, missing), next(lines, missing)
        if color_line is None:
            raise ValueError("graph text needs a header line and a color line")
        header = _read_ints(header, 1, header_no)
        if header.shape != (2,):
            raise ValueError(f"the header line must be 'n m', got {header.size} numbers "
                             f"at line {header_no}")
        edge_lines = fh.read()
        edges = _read_ints(edge_lines, 2, color_no + 1) if edge_lines.strip() else []
        return cls(int(header[0]), int(header[1]), _read_ints(color_line, 1, color_no), edges)

    def to_dict(self):
        return {"n": self.n, "m": self.m, "colors": self.colors.tolist(),
                "edges": self.edges.tolist()}

    def to_json(self):
        """json.dumps(self.to_dict()), with its default separators, written without
        building a Python int per entry."""
        colors = _format_ints(self.colors[:, None], [", "])
        edges = f"[[{_format_ints(self.edges, [', ', '], ['])}]]" if self.edge_count else "[]"
        return f'{{"n": {self.n}, "m": {self.m}, "colors": [{colors}], "edges": {edges}}}'

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
        n = _whole(n, "n", 1)
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
    """Class-local indices (i, j) of slot indices; ka, kb and the mask same are per slot.

    Across two classes slot s is the pair (s // kb, s % kb). Within one class of
    k = ka vertices the slots list the pairs i < j row by row, row i starting at
    slot i k - i (i + 1) / 2, so slot s lies in row ((2k - 1) - sqrt((2k - 1)^2 - 8s)) / 2
    rounded down; the discriminant is exact in int64, and one step each way
    absorbs the rounding of the root.
    """
    def start(row):
        return row * k - row * (row + 1) // 2

    i, j = np.divmod(slots, kb)
    k, s = ka[same], slots[same]
    b = 2 * k - 1
    row = ((b - np.sqrt(b * b - 8 * s)) * 0.5).astype(np.int64)  # >= 0, so truncation floors
    row -= start(row) > s
    row += start(row + 1) <= s
    i[same], j[same] = row, s - start(row) + row + 1
    return i, j


_NO_SLOTS = np.empty(0, dtype=np.int64)
_NO_SLOTS.setflags(write=False)


def _bernoulli_slots(S, p, rng, drawn=_NO_SLOTS):
    """Indices of successes among S independent Bernoulli(p) slots, and the successes past them.

    Gaps between successes are iid Geometric(p) on {1, 2, ...}, so the hits
    are the partial sums of the gaps that stay below S. The successes drawn
    at or past S come back as the rest, counted from slot S. Passing them as
    drawn to the next call runs one Bernoulli(p) sequence over consecutive
    slot spaces: no drawn gap is lost, so the hits do not depend on how the
    slots are split. Each batch covers the expected remaining hits plus four
    standard deviations, so one batch almost always suffices.
    """
    if S <= 0 or p <= 0.0:
        return _NO_SLOTS, drawn
    if p >= 1.0:
        return np.arange(S, dtype=np.int64), _NO_SLOTS
    hits, pos = drawn, int(drawn[-1]) if drawn.size else -1
    while pos < S:
        mean = (S - pos) * p
        steps = rng.geometric(p, int(mean + 4.0 * math.sqrt(mean)) + 8).cumsum()
        steps += pos
        hits = np.concatenate((hits, steps)) if hits.size else steps
        pos = int(steps[-1])
    cut = hits.searchsorted(S)
    return hits[:cut], hits[cut:] - S


def _decode_edges(colors, slots, lengths, m):
    """Edges (replica, u, v), u < v, of R draws, decoded at once; unsorted and unchecked.

    colors is (R, n); slots holds each replica's edge slots, class pair a <= b
    by class pair, replica after replica, and lengths counts them in that order.
    """
    R, n = colors.shape
    sizes = np.bincount((colors + m * np.arange(R)[:, None]).ravel(),
                        minlength=R * m).reshape(R, m)
    # a stable sort (a radix sort on 8 bits, as m <= 64) lists each class's
    # vertices in increasing order, class a of replica r from flat position first[r, a]
    first = np.cumsum(sizes, axis=1) - sizes + n * np.arange(R)[:, None]
    order = np.argsort(colors.astype(np.uint8), axis=1, kind="stable").ravel()
    a, b = np.array([(x, y) for x in range(m) for y in range(x, m)]).T
    # per (replica, class pair) values, repeated once per slot
    rep, same, ka, kb, fa, fb = (np.repeat(x.ravel(), lengths) for x in (
        np.arange(R).repeat(len(a)), np.tile(a == b, R), sizes[:, a], sizes[:, b],
        first[:, a], first[:, b]))
    i, j = _slot_pairs(ka, kb, slots, same)
    u, v = order[fa + i], order[fb + j]
    return rep, np.minimum(u, v), np.maximum(u, v)


def _free_edges(params, seeds):
    """colors (R, n) and unsorted edges (replica, u, v) of the free draws of R seeds.

    Each seed's stream draws its colors, exactly as Generator.choice(m, n, p=mu)
    would without its per-call checks, then the edge slots of each class pair a <= b.
    """
    n, m, seeds = params.n, params.mu.alphabet.m, list(seeds)
    cdf = (params.mu.weights / params.mu.weights.sum()).cumsum()
    cdf /= cdf[-1]
    probs = params.edge_probabilities.tolist()
    colors, parts = np.empty((len(seeds), n), dtype=np.int64), []
    for r, seed in enumerate(seeds):
        rng = default_rng(check_seed(seed))
        colors[r] = cdf.searchsorted(rng.random(n), side="right")
        sizes = np.bincount(colors[r], minlength=m).tolist()
        parts += [_bernoulli_slots(_slot_count(sizes[a], sizes[b], a == b), probs[a][b], rng)[0]
                  for a in range(m) for b in range(a, m)]
    slots = np.concatenate((_NO_SLOTS, *parts))
    return colors, *_decode_edges(colors, slots, [len(x) for x in parts], m)


def sample_colored_graph(params, seed):
    """Draw one graph from the model; deterministic per seed, an integer in [0, 2**64)
    (seeds.check_seed)."""
    colors, _, u, v = _free_edges(params, [seed])
    return ColoredGraph(params.n, params.mu.alphabet.m, colors[0], np.column_stack((u, v)))


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

    return (ColorCounts(n, color_counts), PairCounts(n, edge_counts),
            NeighborhoodCounts.tally(colors, deg))


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
    This is the batch of one of sample_conditional_batch.
    """
    colors, edges = sample_conditional_batch(omega_n, pair_n, seed, 1)
    return ColoredGraph(omega_n.n, omega_n.alphabet.m, colors[0], edges[0])


def sample_conditional_batch(omega_n, pair_n, seed, count):
    """colors (count, n) and edges (count, |E|, 2) of count independent draws of
    sample_conditional, one after another from the one stream default_rng(seed).

    Each draw is a shuffle of the colors, then one slot subset per color pair in the
    plan's order, so row 0 is sample_conditional(omega_n, pair_n, seed) and a batch's
    first rows are the shorter batch. The checks, the decoding and the sorting run once
    for the whole batch.
    """
    plan = _conditional_plan(omega_n, pair_n)
    rng, count = default_rng(check_seed(seed)), _whole(count, "count", 0)
    n, m, ks = omega_n.n, omega_n.alphabet.m, [k for *_, k in plan]
    colors = np.tile(np.repeat(np.arange(m, dtype=np.int64), omega_n.counts), (count, 1))
    slots, ends = np.empty((count, sum(ks)), dtype=np.int64), np.cumsum(ks).tolist()
    for r in range(count):
        rng.shuffle(colors[r])
        for (_, _, S, k), end in zip(plan, ends):
            slots[r, end - k:end] = rng.choice(S, k, replace=False, shuffle=False)
    rep, u, v = _decode_edges(colors, slots.ravel(), ks * count, m)
    return colors, np.stack((u, v), axis=-1)[_edge_order(rep, u, v, n)].reshape(*slots.shape, 2)
