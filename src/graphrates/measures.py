"""Measure types on finite color alphabets and the approximation pipeline.

Colors are indices 0..m-1. Three measure families appear everywhere:

* ColorMeasure: a (finite or probability) measure on colors.
* PairMeasure: a symmetric finite measure on ordered color pairs.
* NeighborhoodMeasure: a sparse measure on (color, degree vector) atoms,
  where a degree vector lists per-color neighbor counts.

Empirical variants (ColorCounts, PairCounts, NeighborhoodCounts) carry the
exact integer counts behind an n-empirical measure, so structural identities
can be checked in integer arithmetic instead of floating point.

NeighborhoodMeasure and NeighborhoodCounts hold one atom table: int64 colors
(K,) and degree vectors (K, m) sorted in (color, ell) tuple order, with a
float mass or an int count per atom. _atom_table checks it once, in numpy;
phi, phi_counts, degree_distribution, relative_entropy and total_variation
are numpy expressions over it. One int64 key per row, _order_key, sorts it,
finds its duplicates, merges equal atoms (_merged) and matches atoms against it
(_find). relative_entropy is sum w ln(w/q) for every type, each log by _log_ratios.
require_probability, total mass 1 within PROB_TOL, is the one test of a probability law.

The phi map sends a neighborhood measure to (color marginal, induced pair
matrix); a pair measure dominating the induced matrix entrywise is called
sub-consistent with the neighborhood measure, with equality called consistent.
consistify / quantize / cap_degrees implement the constructive steps that turn
a sub-consistent pair into a consistent one, snap it onto an exact n-empirical
grid, and cap degree-vector magnitudes at n^(1/3), each preserving the
relevant structure exactly.
"""

import math
import numbers

import numpy as np

from .errors import InfeasibleError

SUB_CONSISTENCY_TOL = 1e-12
# the one tolerance of "is a probability measure", loose enough for long empirical sums
PROB_TOL = 1e-9

# DegreeVector: a tuple of m nonnegative ints, ell[b] = neighbors of color b.


def magnitude(ell):
    """Degree of a vertex with degree vector ell: sum of its entries."""
    return sum(ell)


def _bounded(x, what, low, high=None, strict=False):
    """x when it lies in [low, high] (low itself excluded when strict), else an error."""
    if high is not None and (x < low or x > high):
        raise ValueError(f"{what} must be in [{low}, {high}], got {x!r}")
    if low is not None and (x < low or strict and x == low):
        rule = f"{'>' if strict else '>='} {low}"
        rule = {"> 0": "positive", ">= 0": "nonnegative"}.get(rule, rule)
        raise ValueError(f"{what} must be {rule}, got {x!r}")
    return x


def _whole(x, what, low=None, high=None):
    """x as an int in [low, high]; a fractional, bool or non-numeric value is an error,
    never truncated, and so is one out of range. Every scalar integer a caller passes
    into the package is read here."""
    try:
        whole = type(x) is int or (int(x) == x and not isinstance(x, (bool, np.bool_)))
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x) if low is None else _bounded(int(x), what, low, high)


def _real(x, what, low=None, high=None, strict=False):
    """x as a float in [low, high] (low itself excluded when strict); a bool, a non-number,
    NaN, an infinity or an int too large for a float is an error, so no bad scalar gets an
    answer. Every scalar real a caller passes into the package is read here."""
    value = math.nan
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            value = float(x)
        except OverflowError:
            raise ValueError(f"{what} is too large for a float") from None
    _bounded(value, what, low, high, strict)  # NaN passes, -inf below low does not
    if not math.isfinite(value):
        raise ValueError(f"{what} {x!r} is not a finite real number")
    return value


def _int64(values, what):
    """values as an int64 array. An int64 array passes as it is; other input goes entry by
    entry through _whole: a fraction, a bool or an integer past int64 is refused, never cast."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values
    values = np.asarray(values, dtype=object)
    try:
        return np.array([_whole(x, what) for x in values.ravel().tolist()],
                        dtype=np.int64).reshape(values.shape)
    except OverflowError:
        raise ValueError(f"{what} does not fit in int64") from None


def _float64(values, what):
    """values as a float64 array. A float64 array passes as it is; other input goes entry by
    entry through _real: a bool, a string, a non-number or a non-finite entry is refused."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return values
    values = np.asarray(values, dtype=object)
    return np.array([_real(x, what) for x in values.ravel().tolist()],
                    dtype=np.float64).reshape(values.shape)


def _check_atoms(m, colors, ells):
    """Refuse a negative degree vector entry, and unless m is None a color outside 0..m-1."""
    if ells.min(initial=0) < 0:
        ell = ells[(ells < 0).any(axis=1)][0]
        raise ValueError(f"degree vector has negative entries: {tuple(ell.tolist())}")
    if m is not None and (colors.min(initial=0) < 0 or colors.max(initial=0) >= m):
        raise ValueError(f"color {colors[(colors < 0) | (colors >= m)][0]} outside alphabet "
                         f"of size {m}")


def _read_keys(keys, m=None):
    """int64 colors (K,) and degree vectors (K, m) of (color, ell) keys, read by _int64
    from flat object arrays, so that an entry which is itself a sequence is refused, not
    read as one more axis; m defaults to the vectors' common length, 1 when there are none."""
    colors = _int64(np.fromiter((a for a, _ in keys), object, len(keys)), "color")
    lengths = {len(ell) for _, ell in keys}
    if m is None and len(lengths) > 1:
        raise ValueError("inconsistent degree-vector lengths")
    m = (lengths.pop() if lengths else 1) if m is None else m
    if lengths - {m}:
        raise ValueError(f"degree vector has length {min(lengths - {m})}, alphabet has m={m}")
    entries = np.fromiter((x for _, ell in keys for x in ell), object, len(keys) * m)
    ells = _int64(entries, "degree vector entry").reshape(-1, m)
    _check_atoms(None, colors, ells)
    return colors, ells


def _order_key(rows):
    """One int64 per row of a nonnegative integer table of fewer than 2**31 rows, equal
    where the rows are and ordered as they are in tuple order: mixed-radix digits of
    radix column max + 1. A column of max 2**31 or more is replaced by its dense rank,
    and so is the key so far where the next digit would carry it past int64."""
    key, bound = np.zeros(len(rows), dtype=np.int64), 1  # every key is below bound
    for col in rows.T:
        if col.max(initial=0) >= 2 ** 31:
            col = np.unique(col, return_inverse=True)[1]
        radix = int(col.max(initial=0)) + 1
        if bound * radix > 2 ** 63:
            ranks, key = np.unique(key, return_inverse=True)
            bound = ranks.size
        key = key * radix + col
        bound *= radix
    return key


def _stable_order(key):
    """The stable argsort of a nonnegative int64 key, run on the key in its smallest
    unsigned type: the same order, and numpy's O(n) radix sort where that type has
    at most 16 bits."""
    return np.argsort(key.astype(np.min_scalar_type(key.max(initial=0))), kind="stable")


def _atom_table(m, colors, ells, values, n=None):
    """(colors, ells, values) checked, sorted in (color, ell) tuple order and read-only.

    colors (K,) in 0..m-1 and ells (K, m) >= 0 are integer arrays, and no atom
    appears twice; values are finite positive masses or, when n is given,
    positive counts summing to n. Every degree sum fits in int64: each |ell|,
    and for counts the adjacency total sum count * |ell|.
    """
    colors, ells, values = np.asarray(colors), np.asarray(ells), np.asarray(values)
    if {colors.dtype.kind, ells.dtype.kind, values.dtype.kind if n else "i"} != {"i"}:
        raise ValueError("colors, degree vectors and counts must be integer arrays")
    if colors.ndim != 1 or values.shape != colors.shape or ells.shape != (colors.size, m):
        raise ValueError(f"atom table shapes {colors.shape}, {ells.shape}, {values.shape} "
                         f"do not match m={m}")
    _check_atoms(m, colors, ells)
    rows = np.column_stack((colors, ells)).astype(np.int64, copy=False)
    values = values.astype(np.int64 if n else float)
    key = _order_key(rows)
    if (key[1:] < key[:-1]).any():  # sort only a table not yet in tuple order
        order = _stable_order(key)
        key, rows, values = key[order], rows[order], values[order]
    colors, ells = rows[:, 0], rows[:, 1:]
    dup = np.flatnonzero(key[1:] == key[:-1])
    if dup.size:
        raise ValueError(f"duplicate atom {(int(colors[dup[0]]), tuple(ells[dup[0]].tolist()))}")
    bad = np.flatnonzero(~np.isfinite(values) | (values <= 0))[:1]
    if bad.size and n:
        raise ValueError(f"atom count must be positive, got {values[bad[0]]}")
    if bad.size:
        atom = (int(colors[bad[0]]), tuple(ells[bad[0]].tolist()))
        raise ValueError(f"atom {atom} has non-positive mass {float(values[bad[0]])!r}")
    if n and sum(values.tolist()) != n:
        raise ValueError(f"atom counts sum to {sum(values.tolist())}, expected n={n}")
    if int(ells.max(initial=0)) * m * (n or 1) >= 2 ** 63:  # near the limit, add exactly
        sums = ells.astype(object).sum(axis=1)
        total = int((sums * values).sum()) if n else max(sums)
        if total >= 2 ** 63:
            raise ValueError(f"degree sum {total} does not fit in int64")
    for x in (colors, ells, values):
        x.setflags(write=False)
    return colors, ells, values


def _find(table, colors, ells):
    """Index in the sorted table of each atom (colors[k], ells[k]); len(table) where it
    is absent, so the table's values with one 0 appended align with the atoms."""
    # one key over both sides, so that they share radices and ranks
    key = _order_key(np.column_stack((np.concatenate((table.colors, colors)),
                                      np.concatenate((table.ells, ells)))))
    keys, wanted = key[:table.colors.size], key[table.colors.size:]
    at = np.searchsorted(keys, wanted)
    hit = at < keys.size
    hit[hit] = keys[at[hit]] == wanted[hit]
    at[~hit] = keys.size
    return at


def _merged(colors, ells, values):
    """Atoms of the arrays colors (N,) and ells (N, m) sorted in (color, ell) order, the
    values of equal atoms added in their order."""
    _check_atoms(None, colors, ells)  # a negative entry would alias another row's key
    key = _order_key(np.column_stack((colors, ells)))
    order = _stable_order(key)
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    first = order[starts]
    return colors[first], ells[first], np.add.reduceat(values[order], starts)


def _atom_list(colors, ells, values):
    return [((a, tuple(ell)), v)
            for a, ell, v in zip(colors.tolist(), ells.tolist(), values.tolist())]


class Alphabet:
    """Finite color set {0, ..., m-1}; dense storage bounds m at 64."""

    def __init__(self, m):
        self.m = _whole(m, "m", 1, 64)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.m == other.m

    def __hash__(self):
        return hash(("Alphabet", self.m))

    def __repr__(self):
        return f"Alphabet(m={self.m})"


def _check_same_alphabet(*objs):
    ms = {o.alphabet.m for o in objs}
    if len(ms) != 1:
        raise ValueError(f"alphabet mismatch: m in {sorted(ms)}")


def _is_probability(x):
    """True iff the measure x has total mass 1 within PROB_TOL."""
    return abs(x.total_mass - 1.0) <= PROB_TOL


def require_probability(x, name):
    """Raise ValueError unless the measure x is a probability law (_is_probability)."""
    if not _is_probability(x):
        raise ValueError(f"{name} must be a probability measure, total mass {x.total_mass!r}")


def _measure_array(alphabet, values, square, what):
    """values as a read-only float copy of shape (m,), or (m, m) when square,
    with finite entries >= 0; a square array must be exactly symmetric."""
    m = alphabet.m
    shape = (m, m) if square else (m,)
    v = np.array(_float64(values, f"{what} entry"))  # a copy: the caller's array stays writable
    if v.shape != shape:
        raise ValueError(f"{what} shape {v.shape} != {shape}")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValueError(f"{what} entries must be finite and >= 0")
    if square and not np.array_equal(v, v.T):
        bad = np.argwhere(v != v.T)
        raise ValueError(f"{what} not symmetric at entries {bad.tolist()[:4]}")
    v.setflags(write=False)
    return v


class ColorMeasure:
    """Nonnegative weights per color; probability=True runs require_probability."""

    def __init__(self, alphabet, weights, probability=False):
        self.alphabet = alphabet
        self.weights = _measure_array(alphabet, weights, False, "color measure")
        if probability:
            require_probability(self, "color measure")

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def __repr__(self):
        return f"ColorMeasure({self.weights.tolist()})"


class PairMeasure:
    """Symmetric nonnegative m x m measure on ordered color pairs."""

    def __init__(self, alphabet, weights):
        self.alphabet = alphabet
        self.weights = _measure_array(alphabet, weights, True, "pair measure")

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def to_dict(self):
        return {"m": self.alphabet.m, "weights": self.weights.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(Alphabet(d["m"]), d["weights"])

    def __repr__(self):
        return f"PairMeasure({self.weights.tolist()})"


class NeighborhoodMeasure:
    """Sparse measure on (color, degree vector) atoms with positive masses, held as the atom
    table colors (K,), ells (K, m) and weights (K,); probability=True runs require_probability."""

    def __init__(self, alphabet, support, probability=False):
        self._fill(alphabet, *_read_keys(support, alphabet.m), list(support.values()), probability)

    @classmethod
    def from_arrays(cls, alphabet, colors, ells, masses, probability=False):
        """The measure of mass masses[k] on each atom (colors[k], ells[k])."""
        nu = cls.__new__(cls)
        nu._fill(alphabet, colors, ells, masses, probability)
        return nu

    def _fill(self, alphabet, colors, ells, masses, probability):
        self.colors, self.ells, self.weights = _atom_table(alphabet.m, colors, ells,
                                                           _float64(masses, "atom mass"))
        self.alphabet = alphabet
        if probability:
            require_probability(self, "neighborhood measure")

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def mass(self, a, ell):
        """Mass of the atom (a, ell); 0 when absent from the support."""
        # no atom has a color outside 0..m-1; one past int64 is read as -1 or m
        a = min(max(_whole(a, "color"), -1), self.alphabet.m)
        colors, ells = _read_keys([(a, ell)], self.alphabet.m)
        if not 0 <= colors[0] < self.alphabet.m:
            return 0.0
        return float(np.append(self.weights, 0.0)[_find(self, colors, ells)[0]])

    def atoms(self):
        """[((color, ell), mass)] in (color, degree vector) sort order."""
        return _atom_list(self.colors, self.ells, self.weights)

    def to_dict(self):
        return {"m": self.alphabet.m, "atoms": [{"color": a, "ell": list(ell), "mass": w}
                                                for (a, ell), w in self.atoms()]}

    @classmethod
    def from_dict(cls, d):
        alphabet = Alphabet(d["m"])
        keys = _read_keys([(rec["color"], rec["ell"]) for rec in d["atoms"]], alphabet.m)
        probability = d.get("probability", False)
        if not isinstance(probability, bool):
            raise ValueError(f"probability must be true or false, got {probability!r}")
        return cls.from_arrays(alphabet, *keys, [rec["mass"] for rec in d["atoms"]], probability)

    def __repr__(self):
        return f"NeighborhoodMeasure({self.weights.size} atoms, mass={self.total_mass:g})"


class Kernel:
    """Symmetric nonnegative connection kernel; must not vanish identically."""

    def __init__(self, alphabet, values):
        v = _measure_array(alphabet, values, True, "kernel")
        if not np.any(v > 0):
            raise ValueError("kernel is identically zero")
        self.alphabet = alphabet
        self.values = v

    @classmethod
    def constant(cls, c):
        """Erdos-Renyi kernel: the single-color kernel [[c]]."""
        return cls(Alphabet(1), [[c]])

    def __repr__(self):
        return f"Kernel({self.values.tolist()})"


# ---------------------------------------------------------------------------
# exact integer-backed empirical measures


class ColorCounts:
    """n and per-color vertex counts; counts/n is the empirical color measure."""

    def __init__(self, n, counts):
        n = _whole(n, "n", 1)
        c = _int64(counts, "a color count")
        if c.ndim != 1 or np.any(c < 0):
            raise ValueError("counts must be a 1-d nonnegative integer array")
        if int(c.sum()) != n:
            raise ValueError(f"counts sum to {int(c.sum())}, expected n={n}")
        self.n = n
        self.counts = c.copy()
        self.counts.setflags(write=False)
        self.alphabet = Alphabet(c.shape[0])

    @property
    def measure(self):
        return ColorMeasure(self.alphabet, self.counts / self.n)

    def to_dict(self):
        return {"n": self.n, "counts": self.counts.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(d["n"], d["counts"])


class PairCounts:
    """n and undirected edge counts E(a,b) between color classes.

    The adjacency view n*pi(a,b) = E(a,b)*(1 + 1{a=b}) counts ordered
    adjacencies; the empirical pair measure is the adjacency divided by n.
    """

    def __init__(self, n, edge_counts):
        n = _whole(n, "n", 1)
        e = _int64(edge_counts, "an edge count")
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("edge_counts must be a square matrix")
        if np.any(e < 0) or not np.array_equal(e, e.T):
            raise ValueError("edge_counts must be symmetric and >= 0")
        self.n = n
        self.edge_counts = e.copy()
        self.edge_counts.setflags(write=False)
        self.alphabet = Alphabet(e.shape[0])

    @property
    def adjacency(self):
        """Integer matrix n*pi(a,b): each edge counted once per orientation."""
        return self.edge_counts + np.diag(np.diag(self.edge_counts))

    @property
    def measure(self):
        return PairMeasure(self.alphabet, self.adjacency / self.n)

    def to_dict(self):
        return {"n": self.n, "edge_counts": self.edge_counts.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(d["n"], d["edge_counts"])


class NeighborhoodCounts:
    """n and integer atom counts; counts/n is the empirical neighborhood law. The atom
    table is colors (K,), ells (K, m) and int64 counts (K,) summing to n."""

    def __init__(self, n, counts):
        self._fill(n, *_read_keys(counts), _int64(list(counts.values()), "atom count"))

    @classmethod
    def from_arrays(cls, n, colors, ells, counts):
        """n vertices, counts[k] of them at the atom (colors[k], ells[k])."""
        nc = cls.__new__(cls)
        nc._fill(n, colors, ells, counts)
        return nc

    @classmethod
    def tally(cls, colors, ells):
        """Counts of the vertices with colors (n,) and degree vectors (n, m)."""
        return cls.from_arrays(len(colors), *_merged(colors, ells, np.ones(len(colors), int)))

    def _fill(self, n, colors, ells, counts):
        n = _whole(n, "n", 1)
        self.alphabet = Alphabet(np.shape(ells)[-1])
        self.colors, self.ells, self.counts = _atom_table(self.alphabet.m, colors, ells,
                                                          counts, n)
        self.n = n

    @property
    def measure(self):
        return NeighborhoodMeasure.from_arrays(self.alphabet, self.colors, self.ells,
                                               self.counts / self.n)

    def atoms(self):
        """[((color, ell), count)] in (color, degree vector) sort order."""
        return _atom_list(self.colors, self.ells, self.counts)

    def max_magnitude(self):
        return int(self.ells.sum(axis=1).max(initial=0))

    def to_dict(self):
        return {"n": self.n, "m": self.alphabet.m,
                "atoms": [{"color": a, "ell": list(ell), "count": c}
                          for (a, ell), c in self.atoms()]}

    @classmethod
    def from_dict(cls, d):
        atoms = d["atoms"]
        nc = cls.from_arrays(d["n"], *_read_keys([(rec["color"], rec["ell"]) for rec in atoms]),
                             _int64([rec["count"] for rec in atoms], "atom count"))
        if nc.alphabet != Alphabet(d["m"]):
            raise ValueError(f"degree vectors have length {nc.alphabet.m}, but m={d['m']}")
        return nc


def _color_sums(colors, rows, m):
    """Sums per color of one value or row per atom, added atom by atom in table order."""
    flat = rows.reshape(len(colors), -1)
    k = flat.shape[1]
    out = np.zeros(m * k, dtype=rows.dtype)
    np.add.at(out, (colors[:, None] * k + np.arange(k)).ravel(), flat.ravel())
    return out.reshape(m, *rows.shape[1:])


def phi_counts(nc):
    """Exact integer phi of an empirical neighborhood measure.

    Returns (color counts array, adjacency array T) with
    T[a, b] = sum over color-a atoms of count * ell[b], both plain int64.
    """
    m = nc.alphabet.m
    return (_color_sums(nc.colors, nc.counts, m),
            _color_sums(nc.colors, nc.counts[:, None] * nc.ells, m))


# ---------------------------------------------------------------------------
# entropy, distance, phi


def _log_relative_entropy(w, log_q):
    """sum w (ln w - log_q) over the entries with w > 0; no ratio w/q forms to overflow."""
    w, log_q = w[w > 0], log_q[w > 0]
    return float(np.sum(w * (np.log(w) - log_q)))


def _log_ratios(w, q):
    """ln(w/q) for w > 0 and q >= 0, to the relative accuracy of the ratio's own log.

    Where w/q >= 1/2 it is log1p((w - q)/q), whose numerator is exact where w is
    near q, so a tiny ln(w/q) keeps its digits; where w/q is a smaller normal float
    it is ln(w/q); where w/q underflows, overflows or q is 0 it is ln w - ln q, so
    a subnormal q still gives a finite value and q = 0 gives +inf.
    """
    with np.errstate(divide="ignore", over="ignore"):
        ratio = w / q
        out = np.log(w) - np.log(q)
    normal = (ratio >= np.finfo(float).tiny) & (ratio < np.inf)
    near, far = normal & (ratio >= 0.5), normal & (ratio < 0.5)
    out[near] = np.log1p((w[near] - q[near]) / q[near])
    out[far] = np.log(ratio[far])
    return out


def relative_entropy(nu, mu):
    """Relative entropy sum nu*log(nu/mu) over nu's support.

    Conventions: 0*log 0 = 0 and mass where mu vanishes gives +inf. Works on
    matched ColorMeasure, PairMeasure, or NeighborhoodMeasure pairs, as
    sum w ln(w/q) with q mu's mass at each of nu's entries or atoms, each
    log taken by _log_ratios. When both are probability laws (_is_probability)
    the value is clamped at 0, which the true value cannot go below.
    """
    if type(nu) is not type(mu):
        raise ValueError(f"measure types differ: {type(nu).__name__} vs {type(mu).__name__}")
    _check_same_alphabet(nu, mu)
    q = mu.weights
    if isinstance(nu, NeighborhoodMeasure):
        q = np.append(q, 0.0)[_find(mu, nu.colors, nu.ells)]
    w, q = nu.weights.ravel(), q.ravel()
    w, q = w[w > 0], q[w > 0]
    total = float(np.sum(w * _log_ratios(w, q)))  # +inf where q is 0; never -inf or NaN
    return max(total, 0.0) if _is_probability(nu) and _is_probability(mu) else total


def total_variation(nu, nu_tilde):
    """Total variation distance between two probability measures of one type."""
    if type(nu) is not type(nu_tilde):
        raise ValueError("measure types differ")
    _check_same_alphabet(nu, nu_tilde)
    require_probability(nu, "nu")
    require_probability(nu_tilde, "nu_tilde")
    if isinstance(nu, NeighborhoodMeasure):
        at = _find(nu_tilde, nu.colors, nu.ells)
        other = np.append(nu_tilde.weights, 0.0)
        shared = np.abs(nu.weights - other[at]).sum()
        other[at] = 0.0  # what is left sits on atoms nu does not charge
        return 0.5 * float(shared + other.sum())
    return 0.5 * float(np.abs(nu.weights - nu_tilde.weights).sum())


def product_kernel_measure(C, omega):
    """The pair measure C omega x omega: (a,b) -> C(a,b) omega(a) omega(b)."""
    _check_same_alphabet(C, omega)
    w = omega.weights
    return PairMeasure(C.alphabet, C.values * np.outer(w, w))


def phi(nu):
    """Color marginal and induced pair matrix of a neighborhood measure.

    Returns (nu1, phi2) where nu1(a) = sum_ell nu(a, ell) and
    phi2[a, b] = sum_ell nu(a, ell) * ell[b]. phi2 is a plain ndarray: it is
    symmetric for graph-derived measures but need not be in general, so
    symmetrization is left to the caller.
    """
    m = nu.alphabet.m
    nu1 = ColorMeasure(nu.alphabet, _color_sums(nu.colors, nu.weights, m))
    return nu1, _color_sums(nu.colors, nu.weights[:, None] * nu.ells, m)


def is_sub_consistent(pair, nu):
    """True iff the induced pair matrix is entrywise <= pair + SUB_CONSISTENCY_TOL."""
    _check_same_alphabet(pair, nu)
    _, phi2 = phi(nu)
    return bool(np.all(phi2 <= pair.weights + SUB_CONSISTENCY_TOL))


def degree_distribution(nu):
    """Distribution of the degree |ell| under a neighborhood probability law."""
    require_probability(nu, "nu")
    degrees, at = np.unique(nu.ells.sum(axis=1), return_inverse=True)
    return dict(zip(degrees.tolist(), np.bincount(at, weights=nu.weights).tolist()))


# ---------------------------------------------------------------------------
# approximation pipeline


def consistify(pair, nu, eps):
    """Turn a sub-consistent (pair, nu) into an exactly consistent pair.

    Scales nu down by 1 - Delta/n and parks the entrywise deficit
    d(a,b) = pair(a,b) - phi2(a,b) as mass d(a,b)/n on the single-coordinate
    atom ell = n*e_b at color a, where Delta = sum of deficits. n is chosen
    large enough that both |pair - pair_hat| <= eps entrywise and
    total_variation(nu, nu_hat) <= eps.

    The output is no approximation in rate: Q[pair_hat, nu1] gives the atom
    n*e_b a mass of order e^(-n ln n), so H(nu_hat || Q) grows like
    Delta ln(1/eps) as eps falls, and rate_J diverges along the output.

    Requires the induced pair matrix of nu to be symmetric within 1e-12 (the
    construction lives in the symmetric space); already-consistent inputs are
    returned unchanged. An eps that needs n past the int64 range is refused.
    """
    eps = _real(eps, "eps", 0, strict=True)
    _check_same_alphabet(pair, nu)
    require_probability(nu, "nu")
    _, phi2 = phi(nu)
    asym = float(np.abs(phi2 - phi2.T).max())
    if asym > SUB_CONSISTENCY_TOL:
        raise ValueError(f"induced pair matrix asymmetric by {asym:g}; "
                         "consistify requires a symmetric induced pair measure")
    sym = (phi2 + phi2.T) / 2.0
    deficit = pair.weights - sym
    if float(deficit.min()) < -SUB_CONSISTENCY_TOL:
        raise ValueError(f"(pair, nu) not sub-consistent: deficit {float(deficit.min()):g}")
    deficit = np.maximum(deficit, 0.0)
    if not np.any(deficit > 0):
        return pair, nu

    delta = float(deficit.sum())
    mass = pair.total_mass
    n = max(math.ceil((mass + 1.0) / eps),
            math.ceil(delta * float(sym.max()) / eps) if sym.max() > 0 else 1,
            math.ceil(delta) + 1, 1)
    while delta / n >= 1.0 or (sym.max() > 0 and delta * float(sym.max()) / n > eps):
        n *= 2
    if n >= 2 ** 63:
        raise ValueError(f"eps {eps!r} needs degree vectors of magnitude {n}, past int64")

    scale = 1.0 - delta / n
    a, b = np.nonzero(deficit > 0)
    heavy = np.zeros((a.size, pair.alphabet.m), dtype=np.int64)
    heavy[np.arange(a.size), b] = n
    # a heavy atom nu already charges takes the sum of the two masses
    colors, ells, weights = _merged(
        np.concatenate((nu.colors, a)), np.concatenate((nu.ells, heavy)),
        np.concatenate((nu.weights * scale, deficit[a, b] / n)))
    nu_hat = NeighborhoodMeasure.from_arrays(nu.alphabet, colors[weights > 0], ells[weights > 0],
                                             weights[weights > 0])
    pair_hat = PairMeasure(pair.alphabet, scale * sym + deficit)
    return pair_hat, nu_hat


def quantize(omega_n, pair_n, nu, seed):
    """Snap nu onto the exact n-empirical grid (omega_n, pair_n).

    Draws omega_n.counts[a] degree vectors i.i.d. from the color-a conditional
    of nu, then repairs each coordinate b so the column sums hit the adjacency
    targets exactly: missing mass is added to the last vector, excess is
    removed one unit per vector scanning in index order, never driving an
    entry negative. The result satisfies
    phi_counts(result) == (omega_n.counts, pair_n.adjacency) exactly. seed is an
    integer in [0, 2**64) (seeds.check_seed).
    """
    if omega_n.n != pair_n.n:
        raise ValueError(f"size mismatch: omega_n.n={omega_n.n}, pair_n.n={pair_n.n}")
    _check_same_alphabet(omega_n, pair_n, nu)
    m = omega_n.alphabet.m
    adjacency = pair_n.adjacency

    for a in range(m):
        if omega_n.counts[a] == 0 and np.any(adjacency[a] > 0):
            raise InfeasibleError(
                f"color {a} has zero vertices but positive adjacency target")

    from .seeds import check_seed  # seeds imports this module
    rng = np.random.default_rng(check_seed(seed))
    drawn = []
    for a in range(m):
        k_a = int(omega_n.counts[a])
        if k_a == 0:
            continue
        mine = nu.colors == a
        vecs = np.zeros((k_a, m), dtype=np.int64)
        if mine.any():
            w = nu.weights[mine]
            vecs = nu.ells[mine][rng.choice(w.size, size=k_a, p=w / w.sum())]
        for b in range(m):
            target = int(adjacency[a, b])
            have = int(vecs[:, b].sum())
            if have < target:
                vecs[-1, b] += target - have
            while have > target:
                nz = np.flatnonzero(vecs[:, b] > 0)
                take = min(have - target, nz.size)
                vecs[nz[:take], b] -= 1
                have -= take
        drawn.append(vecs)
    return NeighborhoodCounts.tally(np.repeat(np.arange(m), omega_n.counts),
                                    np.concatenate(drawn))


def _int_root(n, k):
    """Largest integer r with r**k <= n."""
    r = int(round(n ** (1.0 / k)))
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def cap_degrees(nu_n):
    """Cap degree-vector magnitudes at n^(1/3), preserving phi exactly.

    Vertices above the cap shed excess adjacency (largest entries first) and
    vertices of magnitude <= n^(1/4) absorb it, within the same color class
    and coordinate, so the per-(a,b) adjacency totals are untouched. Raises
    InfeasibleError when the receivers cannot absorb the excess.
    """
    n, m = nu_n.n, nu_n.alphabet.m
    cap = _int_root(n, 3)
    low = _int_root(n, 4)
    if nu_n.max_magnitude() <= cap:
        return nu_n

    colors = np.repeat(nu_n.colors, nu_n.counts)
    ells = np.repeat(nu_n.ells, nu_n.counts, axis=0)
    # a vertex sheds its excess from its entries in decreasing order, the lower
    # coordinate first among equal ones: all of each entry until what is left fits
    order = np.argsort(-ells, axis=1, kind="stable")
    desc = np.take_along_axis(ells, order, axis=1)
    excess = np.maximum(ells.sum(axis=1) - cap, 0)[:, None]
    shed = np.zeros_like(ells)
    np.put_along_axis(shed, order, np.clip(excess - desc.cumsum(axis=1) + desc, 0, desc), 1)
    ells -= shed
    for a in range(m):
        pool = shed[colors == a].sum(axis=0)
        if not pool.any():
            continue
        # the receivers, in vertex order, fill up to the cap from one stream of
        # the shed units, coordinate 0's first; receiver i takes the units in
        # [filled[i] - room[i], filled[i]) of it
        takers = np.flatnonzero((colors == a) & (ells.sum(axis=1) <= low))
        room = cap - ells[takers].sum(axis=1)
        filled, units = room.cumsum(), pool.cumsum()
        left = int(units[-1]) - int(filled[-1] if filled.size else 0)
        if left > 0:
            raise InfeasibleError(
                f"cannot cap degrees at {cap}: color {a} has {left} units of "
                f"adjacency with no receiving vertex of magnitude <= {low}")
        ells[takers] += np.maximum(np.minimum(filled[:, None], units)
                                   - np.maximum((filled - room)[:, None], units - pool), 0)
    return NeighborhoodCounts.tally(colors, ells)
