"""Measure types on finite color alphabets and the approximation pipeline.

Colors are indices 0..m-1. Three measure families appear everywhere:

* ColorMeasure: a (finite or probability) measure on colors.
* PairMeasure: a symmetric finite measure on ordered color pairs.
* NeighborhoodMeasure: a sparse measure on (color, degree vector) atoms,
  where a degree vector lists per-color neighbor counts.

Empirical variants (ColorCounts, PairCounts, NeighborhoodCounts) carry the
exact integer counts behind an n-empirical measure, so structural identities
can be checked in integer arithmetic instead of floating point.

The phi map sends a neighborhood measure to (color marginal, induced pair
matrix); a pair measure dominating the induced matrix entrywise is called
sub-consistent with the neighborhood measure, with equality called consistent.
consistify / quantize / cap_degrees implement the constructive steps that turn
a sub-consistent pair into a consistent one, snap it onto an exact n-empirical
grid, and cap degree-vector magnitudes at n^(1/3), each preserving the
relevant structure exactly.
"""

import math
from collections import Counter

import numpy as np
from scipy.special import rel_entr

from .errors import InfeasibleError

# probability flags and sub-consistency checks share one absolute tolerance
MASS_TOL = 1e-12
SUB_CONSISTENCY_TOL = 1e-12
# "is a probability measure" preconditions; looser than the construction-time
# flag so long empirical sums stay admissible
PROB_TOL = 1e-9

# DegreeVector: a tuple of m nonnegative ints, ell[b] = neighbors of color b.


def magnitude(ell):
    """Degree of a vertex with degree vector ell: sum of its entries."""
    return sum(ell)


def _whole(x, what):
    """x as an int; a fractional, bool or non-numeric value is an error, never truncated."""
    try:
        if type(x) is int or (int(x) == x and not isinstance(x, (bool, np.bool_))):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an integer, got {x!r}")


def _as_degree_vector(ell, m):
    t = tuple(x if type(x) is int else _whole(x, "degree vector entry") for x in ell)
    if len(t) != m:
        raise ValueError(f"degree vector has length {len(t)}, alphabet has m={m}")
    if min(t) < 0:
        raise ValueError(f"degree vector has negative entries: {t}")
    return t


def _atom_key(a, ell, m):
    """(color, degree vector) as checked ints; a color outside 0..m-1 is an error."""
    a = _whole(a, "color")
    if not 0 <= a < m:
        raise ValueError(f"color {a} outside alphabet of size {m}")
    return a, _as_degree_vector(ell, m)


def _atom_records(records, field):
    """{(color, ell): rec[field]} of atom records; a repeated (color, ell) is an error."""
    support = {}
    for rec in records:
        key = (rec["color"], tuple(rec["ell"]))
        if key in support:
            raise ValueError(f"duplicate atom {key}")
        support[key] = rec[field]
    return support


class Alphabet:
    """Finite color set {0, ..., m-1}; dense storage bounds m at 64."""

    def __init__(self, m):
        m = _whole(m, "m")
        if not 1 <= m <= 64:
            raise ValueError(f"m must be in [1, 64], got {m}")
        self.m = m

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


def require_probability(x, name):
    """Raise ValueError unless the measure x has total mass 1 within PROB_TOL."""
    if abs(x.total_mass - 1.0) > PROB_TOL:
        raise ValueError(f"{name} must be a probability measure, total mass {x.total_mass!r}")


def _measure_array(alphabet, values, square, what):
    """values as a read-only float copy of shape (m,), or (m, m) when square,
    with finite entries >= 0; a square array must be exactly symmetric."""
    m = alphabet.m
    shape = (m, m) if square else (m,)
    try:
        v = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be an array of numbers: {exc}") from exc
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
    """Nonnegative weights per color; probability=True pins total mass to 1."""

    def __init__(self, alphabet, weights, probability=False):
        w = _measure_array(alphabet, weights, False, "color measure")
        if probability and abs(w.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"probability measure has total mass {w.sum()!r}")
        self.alphabet = alphabet
        self.weights = w
        self.probability = bool(probability)

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def __repr__(self):
        return f"ColorMeasure({self.weights.tolist()}, probability={self.probability})"


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
    """Sparse measure on (color, degree vector) atoms with positive masses."""

    def __init__(self, alphabet, support, probability=False):
        m = alphabet.m
        clean = {}
        total = 0.0
        for (a, ell), mass in support.items():
            key = _atom_key(a, ell, m)
            mass = float(mass)
            if not math.isfinite(mass) or mass <= 0:
                raise ValueError(f"atom {key} has non-positive mass {mass!r}")
            if key in clean:
                raise ValueError(f"duplicate atom {key}")
            clean[key] = mass
            total += mass
        if probability and abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"probability measure has total mass {total!r}")
        self.alphabet = alphabet
        self.support = clean
        self.probability = bool(probability)

    @property
    def total_mass(self):
        return float(sum(self.support.values()))

    def mass(self, a, ell):
        """Mass of the atom (a, ell); 0 when absent from the support."""
        return self.support.get((_whole(a, "color"), _as_degree_vector(ell, self.alphabet.m)), 0.0)

    def atoms(self):
        """Atoms in a deterministic (color, degree vector) sort order."""
        return sorted(self.support.items())

    def to_dict(self):
        return {"m": self.alphabet.m, "probability": self.probability,
                "atoms": [{"color": a, "ell": list(ell), "mass": mass}
                          for (a, ell), mass in self.atoms()]}

    @classmethod
    def from_dict(cls, d):
        return cls(Alphabet(d["m"]), _atom_records(d["atoms"], "mass"),
                   d.get("probability", False))

    def __repr__(self):
        return f"NeighborhoodMeasure({len(self.support)} atoms, mass={self.total_mass:g})"


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
        return cls(Alphabet(1), [[float(c)]])

    def __repr__(self):
        return f"Kernel({self.values.tolist()})"


# ---------------------------------------------------------------------------
# exact integer-backed empirical measures


def _int_counts(values, what):
    """values as an int64 array; a fractional or bool entry is an error, never truncated."""
    c = np.asarray(values)
    whole = c.dtype.kind in "iu" or (  # floats above 2**53 are not exact integers
        c.dtype.kind == "f" and np.all(np.abs(c) <= 2 ** 53) and np.array_equal(c, np.round(c)))
    if not whole:
        raise ValueError(f"{what} must be integers, got {c.tolist()!r}")
    return c.astype(np.int64)


class ColorCounts:
    """n and per-color vertex counts; counts/n is the empirical color measure."""

    def __init__(self, n, counts):
        n = _whole(n, "n")
        if n < 1:
            raise ValueError("n must be >= 1")
        c = _int_counts(counts, "counts")
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
        return ColorMeasure(self.alphabet, self.counts / self.n, probability=True)

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
        n = _whole(n, "n")
        if n < 1:
            raise ValueError("n must be >= 1")
        e = _int_counts(edge_counts, "edge_counts")
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
    """n and integer atom counts; counts/n is the empirical neighborhood law."""

    def __init__(self, n, counts):
        n = _whole(n, "n")
        if n < 1:
            raise ValueError("n must be >= 1")
        ms = {len(ell) for (_, ell) in counts}
        if len(ms) > 1:
            raise ValueError("inconsistent degree-vector lengths")
        m = ms.pop() if ms else 1
        clean = {}
        total = 0
        for (a, ell), c in counts.items():
            c = _whole(c, "atom count")
            if c <= 0:
                raise ValueError(f"atom count must be positive, got {c}")
            clean[_atom_key(a, ell, m)] = c
            total += c
        if total != n:
            raise ValueError(f"atom counts sum to {total}, expected n={n}")
        self.n = n
        self.counts = clean
        self.alphabet = Alphabet(m)

    @property
    def measure(self):
        return NeighborhoodMeasure(
            self.alphabet, {k: c / self.n for k, c in self.counts.items()},
            probability=True)

    def atoms(self):
        return sorted(self.counts.items())

    def max_magnitude(self):
        return max((magnitude(ell) for (_, ell) in self.counts), default=0)

    def to_dict(self):
        return {"n": self.n, "m": self.alphabet.m,
                "atoms": [{"color": a, "ell": list(ell), "count": c}
                          for (a, ell), c in self.atoms()]}

    @classmethod
    def from_dict(cls, d):
        nc = cls(d["n"], _atom_records(d["atoms"], "count"))
        if nc.alphabet != Alphabet(d["m"]):
            raise ValueError(f"degree vectors have length {nc.alphabet.m}, but m={d['m']}")
        return nc


def _phi_sums(atoms, m, dtype):
    """Per-color mass and mass-weighted degree vector sums of (a, ell) -> mass atoms."""
    color = np.zeros(m, dtype=dtype)
    adj = np.zeros((m, m), dtype=dtype)
    for (a, ell), w in atoms.items():
        color[a] += w
        adj[a] += w * np.asarray(ell, dtype=dtype)
    return color, adj


def phi_counts(nc):
    """Exact integer phi of an empirical neighborhood measure.

    Returns (color counts array, adjacency array T) with
    T[a, b] = sum over color-a atoms of count * ell[b], both plain int64.
    """
    return _phi_sums(nc.counts, nc.alphabet.m, np.int64)


# ---------------------------------------------------------------------------
# entropy, distance, phi


def relative_entropy(nu, mu):
    """Relative entropy sum nu*log(nu/mu) over nu's support.

    Conventions: 0*log 0 = 0 and mass where mu vanishes gives +inf. Works on
    matched ColorMeasure, PairMeasure, or NeighborhoodMeasure pairs. When both
    carry the probability flag the value is clamped at 0, which the true value
    cannot go below.
    """
    if type(nu) is not type(mu):
        raise ValueError(f"measure types differ: {type(nu).__name__} vs {type(mu).__name__}")
    _check_same_alphabet(nu, mu)
    if isinstance(nu, NeighborhoodMeasure):
        total = 0.0
        for key, w in nu.support.items():
            q = mu.support.get(key, 0.0)
            if q == 0.0:
                return math.inf
            total += w * math.log(w / q)
        both_prob = nu.probability and mu.probability
    else:
        total = float(np.sum(rel_entr(nu.weights, mu.weights)))
        both_prob = getattr(nu, "probability", False) and getattr(mu, "probability", False)
    if math.isinf(total):
        return math.inf
    return max(total, 0.0) if both_prob else total


def total_variation(nu, nu_tilde):
    """Total variation distance between two probability measures of one type."""
    if type(nu) is not type(nu_tilde):
        raise ValueError("measure types differ")
    _check_same_alphabet(nu, nu_tilde)
    require_probability(nu, "nu")
    require_probability(nu_tilde, "nu_tilde")
    if isinstance(nu, NeighborhoodMeasure):
        keys = set(nu.support) | set(nu_tilde.support)
        return 0.5 * sum(abs(nu.support.get(k, 0.0) - nu_tilde.support.get(k, 0.0))
                         for k in keys)
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
    nu1, phi2 = _phi_sums(nu.support, nu.alphabet.m, float)
    return ColorMeasure(nu.alphabet, nu1, probability=nu.probability), phi2


def is_sub_consistent(pair, nu):
    """True iff the induced pair matrix is entrywise <= pair + SUB_CONSISTENCY_TOL."""
    _check_same_alphabet(pair, nu)
    _, phi2 = phi(nu)
    return bool(np.all(phi2 <= pair.weights + SUB_CONSISTENCY_TOL))


def degree_distribution(nu):
    """Distribution of the degree |ell| under a neighborhood probability law."""
    require_probability(nu, "nu")
    d = {}
    for (_, ell), w in nu.support.items():
        k = magnitude(ell)
        d[k] = d.get(k, 0.0) + w
    return d


# ---------------------------------------------------------------------------
# approximation pipeline


def consistify(pair, nu, eps):
    """Turn a sub-consistent (pair, nu) into an exactly consistent pair.

    Scales nu down by 1 - Delta/n and parks the entrywise deficit
    d(a,b) = pair(a,b) - phi2(a,b) as mass d(a,b)/n on the single-coordinate
    atom ell = n*e_b at color a, where Delta = sum of deficits. n is chosen
    large enough that both |pair - pair_hat| <= eps entrywise and
    total_variation(nu, nu_hat) <= eps.

    Requires the induced pair matrix of nu to be symmetric within 1e-12 (the
    construction lives in the symmetric space); already-consistent inputs are
    returned unchanged.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
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

    scale = 1.0 - delta / n
    m = pair.alphabet.m
    support = {key: w * scale for key, w in nu.support.items() if w * scale > 0}
    for a in range(m):
        for b in range(m):
            if deficit[a, b] > 0:
                ell = tuple(n if j == b else 0 for j in range(m))
                key = (a, ell)
                support[key] = support.get(key, 0.0) + deficit[a, b] / n
    nu_hat = NeighborhoodMeasure(nu.alphabet, support, probability=True)
    pair_hat = PairMeasure(pair.alphabet, scale * sym + deficit)
    return pair_hat, nu_hat


def quantize(omega_n, pair_n, nu, seed):
    """Snap nu onto the exact n-empirical grid (omega_n, pair_n).

    Draws omega_n.counts[a] degree vectors i.i.d. from the color-a conditional
    of nu, then repairs each coordinate b so the column sums hit the adjacency
    targets exactly: missing mass is added to the last vector, excess is
    removed one unit per vector scanning in index order, never driving an
    entry negative. The result satisfies
    phi_counts(result) == (omega_n.counts, pair_n.adjacency) exactly.
    """
    if omega_n.n != pair_n.n:
        raise ValueError(f"size mismatch: omega_n.n={omega_n.n}, pair_n.n={pair_n.n}")
    _check_same_alphabet(omega_n, pair_n, nu)
    n, m = omega_n.n, omega_n.alphabet.m
    adjacency = pair_n.adjacency

    for a in range(m):
        if omega_n.counts[a] == 0 and np.any(adjacency[a] > 0):
            raise InfeasibleError(
                f"color {a} has zero vertices but positive adjacency target")

    by_color = {a: [] for a in range(m)}
    for (a, ell), w in sorted(nu.support.items()):
        by_color[a].append((ell, w))

    rng = np.random.default_rng(seed)
    counts = Counter()
    for a in range(m):
        k_a = int(omega_n.counts[a])
        if k_a == 0:
            continue
        atoms = by_color[a]
        weight = sum(w for _, w in atoms)
        vecs = np.zeros((k_a, m), dtype=np.int64)
        if atoms and weight > 0:
            probs = np.array([w for _, w in atoms]) / weight
            idx = rng.choice(len(atoms), size=k_a, p=probs)
            ells = np.array([ell for ell, _ in atoms], dtype=np.int64)
            vecs = ells[idx].copy()
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
        for row in vecs:
            counts[(a, tuple(int(x) for x in row))] += 1
    return NeighborhoodCounts(n, counts)


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

    vertices = []
    for (a, ell), c in nu_n.atoms():
        vertices.extend([a, list(ell)] for _ in range(c))

    for a in range(m):
        removed = [0] * m
        for va, ell in vertices:
            if va != a:
                continue
            excess = sum(ell) - cap
            while excess > 0:
                b = max(range(m), key=lambda j: (ell[j], -j))
                take = min(excess, ell[b])
                if take == 0:
                    break
                ell[b] -= take
                removed[b] += take
                excess -= take
        pool = sum(removed)
        if pool == 0:
            continue
        for va, ell in vertices:
            if pool == 0:
                break
            if va != a or sum(ell) > low:
                continue
            room = cap - sum(ell)
            for b in range(m):
                if room == 0:
                    break
                take = min(room, removed[b])
                ell[b] += take
                removed[b] -= take
                room -= take
                pool -= take
        if pool > 0:
            raise InfeasibleError(
                f"cannot cap degrees at {cap}: color {a} has {pool} units of "
                "adjacency with no receiving vertex of magnitude <= "
                f"{low}")

    counts = Counter((a, tuple(ell)) for a, ell in vertices)
    return NeighborhoodCounts(n, counts)
