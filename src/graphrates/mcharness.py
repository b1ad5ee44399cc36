"""Monte Carlo validation of the rate functions and limit laws.

Estimates rare-event exponents -ln P / n over increasing graph sizes and
extrapolates them against the closed-form rates, plus a law-of-large-numbers
check of the limiting neighborhood law at fixed n. The edges and pair
events depend on a graph only through its color counts and its edge counts
per class pair, so they are drawn from those counts (a multinomial, then
one binomial per class pair, each from its own stream) without building a
graph; the Erdos-Renyi model is the one-color case. degree_zero reads
degrees: the same multinomial gives each replica's class sizes, and each
class pair is one Bernoulli gap stream over the pair slots of a block's
replicas in turn, decoded and counted a chunk at a time, without a graph
object or vertex colors.
The one-color edge-count tail is sampled from the binomial law tilted to
its threshold and reweighted by the likelihood ratio (Siegmund 1976;
Bucklew 2004), so sizes whose event plain Monte Carlo never sees still get
an estimate.

Replicas are indexed globally: replica i of size n always uses the child
seeds derived from (base seed, n, its block), so splitting an experiment
across workers draws the same replicas as the monolithic run. Each stream of
a block is one sequence of draws of one distribution, whose first r draws do
not depend on how many follow or on how they are split into calls (a
degree_zero gap stream keeps what it drew past a chunk for the next), so a
block is drawn only up to the last replica the run reads.
Summing the shards' hit counts reproduces its hits exactly; summing their
weight_sum and weight_sq_sum reproduces its sums up to rounding, since only
the order of summation differs.

The blocks of an edges or pair run are drawn concurrently, on one thread per
CPU the process may use and never more threads than blocks, so the worker
count needs no setting; a run of one block, or on one CPU, draws on the
calling thread and starts none. A block draws only from its own streams and
hands back the histogram of its statistic, which the calling thread adds in
block order, so the counts are bit for bit a serial run's. degree_zero blocks
are drawn one after another: their loop is many small numpy calls that hold
the GIL, and two threads cut its wall time by about 10% for 20-40% more CPU.
"""

import io
import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .graphs import (_NO_SLOTS, ModelParams, _bernoulli_slots, _slot_count, _slot_pairs,
                     empirical_measures, sample_colored_graph)
from .measures import _real, _whole, degree_distribution, product_kernel_measure, total_variation
from .seeds import check_seed, derive_child_seed

# replicas are drawn in blocks of this size, each block only up to the last
# replica the run reads; block boundaries pick the seeds, so they are part of
# the merge contract and this constant is load-bearing
REPLICA_BLOCK = 65536
# degree_zero replicas are drawn, decoded and counted in chunks of about this
# many vertices, so memory does not grow with the replica count; the streams
# carry on across chunks, so it changes no hit
CHUNK_CELLS = 1 << 14

# each event kind with the keys its event dict must carry, threshold last
_EVENT_KEYS = {"edges": ("x",), "degree_zero": ("t",), "pair": ("a", "b", "s")}


@dataclass(frozen=True)
class TailExperiment:
    """A rare-event estimation request over a ladder of graph sizes.

    event is one of
      {"kind": "edges", "x": real}          -- |E| >= x * n
      {"kind": "degree_zero", "t": real}    -- fraction of isolated vertices >= t
      {"kind": "pair", "a": int, "b": int, "s": real} -- L2(a,b) >= s, with
                                                         a, b colors of mu
    replica_offset shifts the global replica index range so an experiment can
    be split into shards whose hit counts and weight sums add up to the
    monolithic run's.
    """

    mu: object
    C: object
    event: dict
    sizes: tuple
    replicas: int
    seed: int
    replica_offset: int = 0

    def __post_init__(self):
        ModelParams(self.mu, self.C, 1)  # mu a probability law on C's alphabet
        object.__setattr__(self, "sizes", tuple(_whole(n, "a size", 1) for n in self.sizes))
        if not self.sizes or any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError(f"sizes must be strictly increasing, got {self.sizes}")
        for name, low in (("replicas", 1), ("replica_offset", 0)):
            object.__setattr__(self, name, _whole(getattr(self, name), name, low))
        object.__setattr__(self, "seed", check_seed(self.seed))
        kind = self.event.get("kind")
        if not isinstance(kind, str) or kind not in _EVENT_KEYS:
            raise ValueError(f"unknown event kind {kind!r}, "
                             f"expected one of {tuple(_EVENT_KEYS)}")
        missing = [key for key in _EVENT_KEYS[kind] if key not in self.event]
        if missing:
            raise ValueError(f"{kind} event is missing {missing}")
        extra = [key for key in self.event if key != "kind" and key not in _EVENT_KEYS[kind]]
        if extra:
            raise ValueError(f"{kind} event does not take {extra}")
        _real(self.event[_EVENT_KEYS[kind][-1]], f"{kind} event threshold")
        for key in _EVENT_KEYS[kind][:-1]:  # the colors of a pair event
            _whole(self.event[key], f"pair event color {key}", 0, self.mu.alphabet.m - 1)


@dataclass
class ExponentEstimate:
    """Per-size tail estimates with the extrapolated rate estimate.

    rows hold dicts with keys
      n, replicas;
      hits           -- replicas that fell in the event under the law they
                        were drawn from (the tilted law for a one-color
                        edges event when it tilts, else the model itself);
      weight_sum     -- sum of the hits' likelihood-ratio weights, equal to
                        hits when nothing is tilted;
      weight_sq_sum  -- sum of the squared weights;
      p_hat          -- weight_sum / replicas;
      exponent       -- -ln p_hat / n, None when hits = 0, with
                        exponent_lower_bound instead;
      se             -- standard error of exponent from the weights' variance.
    exponent is the rate fitted against 1/n over the sizes with hits; when
    only one size has hits it is that size's finite-n exponent, not an
    extrapolation (intercept 0). It is None when every size had zero hits
    (inconclusive).
    """

    rows: list
    exponent: float = None
    intercept: float = None
    ci_half_width: float = None
    inconclusive: bool = False
    fit_residuals: list = field(default_factory=list)

    def to_dict(self):
        return {"rows": self.rows, "exponent": self.exponent,
                "intercept": self.intercept, "ci_half_width": self.ci_half_width,
                "inconclusive": self.inconclusive,
                "fit_residuals": self.fit_residuals}

    def to_csv(self, rate_prediction=None):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "replicas", "hits", "p_hat", "exponent",
                         "rate_prediction", "ci_half_width", "weight_sum",
                         "weight_sq_sum"])
        for row in self.rows:
            writer.writerow([row["n"], row["replicas"], row["hits"],
                             row["p_hat"],
                             "" if row["exponent"] is None else row["exponent"],
                             "" if rate_prediction is None else rate_prediction,
                             "" if row["se"] is None else 1.96 * row["se"],
                             row["weight_sum"], row["weight_sq_sum"]])
        return buf.getvalue()


def _edge_threshold(x, n):
    # the event is certain for x n <= 0 and impossible past n(n-1)/2, so x n
    # saturates at 0 and n^2, and an overflowing product still has a ceiling;
    # oracles.exact_er_edge_exponent takes the same threshold
    return math.ceil(min(max(x * n, 0.0), n * n))


def _block_starts(exp):
    """The first replica of each block the run reads, in order."""
    lo, hi = exp.replica_offset, exp.replica_offset + exp.replicas
    return range(lo - lo % REPLICA_BLOCK, hi, REPLICA_BLOCK)


def _block(exp, n, pairs, start):
    """The streams of the block starting at replica start, as (skip, r, sizes, rngs).

    Replica i of size n lies in the block starting at replica
    start = REPLICA_BLOCK * (i // REPLICA_BLOCK). A block draws its replicas
    only up to the run's last, r = min(hi, start + REPLICA_BLOCK) - start of
    them, and the run reads those from skip = max(lo, start) - start on. Each
    block component has its own stream: the block seed
    derive_child_seed(seed, n, start) draws the first class pair of pairs, and
    its child derive_child_seed(block seed, i) draws the color counts for
    i = 1 and the i-th class pair for i >= 2. sizes is the color counts, one
    multinomial(n, mu, r) as an (m, r) array, or [n] for one color, which
    draws none; rngs holds the class pairs' generators in the order of pairs.
    """
    m, lo, hi = exp.mu.alphabet.m, exp.replica_offset, exp.replica_offset + exp.replicas
    r, seed = min(hi, start + REPLICA_BLOCK) - start, derive_child_seed(exp.seed, n, start)
    rngs = [np.random.default_rng(derive_child_seed(seed, i) if i else seed)
            for i in range(len(pairs) + (m > 1))]
    weights = exp.mu.weights / exp.mu.weights.sum()
    # one color keeps its count the scalar n, so the binomial draws unbroadcast
    sizes = [n] if m == 1 else rngs.pop(1).multinomial(n, weights, r).T
    return max(lo, start) - start, r, sizes, rngs


def _isolated_counts(exp, n, pairs, probs):
    """counts[i]: the run's replicas with i isolated vertices, every class pair
    a <= b in pairs drawing its edges with probability probs[a, b] (see _count_hits)."""
    m, step = exp.mu.alphabet.m, max(1, CHUNK_CELLS // n)
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in _block_starts(exp):
        skip, r, sizes, rngs = _block(exp, n, pairs, start)
        sizes = np.broadcast_to(np.reshape(sizes, (m, -1)), (m, r))  # one color: n per replica
        rest = [_NO_SLOTS] * len(pairs)  # each stream's successes past the chunks so far
        for lo in range(0, r, step):
            k = sizes[:, lo:lo + step]
            # each class's first vertex in the chunk's replicas, laid end to end
            first, ends = k.cumsum(axis=0) - k + n * np.arange(k.shape[1]), []
            for x, ((a, b), rng) in enumerate(zip(pairs, rngs)):
                S = _slot_count(k[a], k[b], a == b)
                cum = S.cumsum()
                hits, rest[x] = _bernoulli_slots(int(cum[-1]), probs[a, b], rng, rest[x])
                rep = cum.searchsorted(hits, side="right")
                i, j = _slot_pairs(k[a][rep], k[b][rep], hits - cum[rep] + S[rep],
                                   np.full(hits.size, a == b))
                ends += [first[a][rep] + i, first[b][rep] + j]
            degrees = np.bincount(np.concatenate(ends), minlength=k.shape[1] * n)
            isolated = (degrees.reshape(-1, n) == 0).sum(axis=1)
            counts += np.bincount(isolated[max(skip - lo, 0):], minlength=n + 1)
    return counts


def _cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _statistic_counts(exp, n, pairs, probs):
    """counts[K]: the run's replicas whose edges summed over the class pairs in pairs
    number K, the pair a <= b drawing Binomial(S_ab, probs[a, b]) (see _count_hits).

    Each block draws from its own streams, and numpy's binomial and multinomial draws
    release the GIL, so the blocks are drawn on one thread per CPU, up to one per block.
    A block hands back only its bincount, which the calling thread adds in block order:
    integer sums, so the counts do not depend on the threads.
    """
    def binned(start):
        skip, r, sizes, rngs = _block(exp, n, pairs, start)
        draws = sum(rng.binomial(_slot_count(sizes[a], sizes[b], a == b), probs[a, b], r)
                    for rng, (a, b) in zip(rngs, pairs))
        return np.bincount(draws[skip:])

    def total(histograms):
        counts = np.zeros(0, dtype=np.int64)
        for h in histograms:
            counts = np.pad(counts, (0, max(h.size - counts.size, 0)))
            counts[:h.size] += h
        return counts

    starts = _block_starts(exp)
    workers = min(_cpus(), len(starts))
    if workers == 1:
        return total(map(binned, starts))
    from concurrent.futures import ThreadPoolExecutor  # only a run of several blocks loads it
    with ThreadPoolExecutor(workers) as pool:
        return total(pool.map(binned, starts))


def _count_hits(exp, n):
    """Hits and weight sums of an event, drawn from the statistic it reads.

    edges and pair events read a graph only through its color counts and its
    edge counts per class pair, and given the color counts the edge count
    between classes a <= b is Binomial(S_ab, p_ab), S_ab their pair slots and
    p_ab = min(C(a, b)/n, 1). So each block (_block) draws one binomial per
    class pair the event reads: (a, b) for a pair event, every a <= b summed
    for edges. A degree_zero event reads the isolated vertices. Its block
    draws every class pair a <= b as one Bernoulli(p_ab) sequence over the
    pair slots of the block's replicas, one replica after the other, by
    _bernoulli_slots from the pair's stream; a stream carries on from chunk
    to chunk of about CHUNK_CELLS vertices. A hit is mapped to its replica by
    its slot position and to class-local indices by _slot_pairs, and one
    bincount over (replica, class offset + index) gives the degrees. Which
    vertex of a class carries which index changes no isolated count, so no
    vertex colors are drawn.

    The one-color edge count is Binomial(N, p), N = n(n-1)/2. When its
    threshold k = ceil(x n) lies above the mean but can be reached
    (Np < k <= N), the draws are tilted to q = k/N, so about half of them
    hit, and a hit K carries the likelihood ratio
        w(K) = (p/q)^K ((1-p)/(1-q))^(N-K) = w(k) exp(-beta (K - k)),
    beta being the log-odds gap between q and p. Returns the hit count, ln w(k)
    and the sums of exp(-beta (K - k)) and of its square over the hits;
    untilted, every weight is 1 and both sums equal the hit count.
    """
    event, m = exp.event, exp.mu.alphabet.m
    kind = event["kind"]
    probs = ModelParams(exp.mu, exp.C, n).edge_probabilities
    pairs = [(a, b) for a in range(m) for b in range(a, m)]
    k, log_wk, beta = 0, 0.0, 0.0
    if kind == "edges":
        k = _edge_threshold(event["x"], n)
        N, p = n * (n - 1) // 2, float(probs[0, 0])
        if m == 1 and N * p < k <= N:
            q = probs[0, 0] = k / N
            log_wk = k * math.log(p / q)
            beta = math.log(q / p)
            if k < N:
                log_wk += (N - k) * math.log((1.0 - p) / (1.0 - q))
                beta += math.log((1.0 - p) / (1.0 - q))
    elif kind == "pair":
        pairs = [tuple(sorted((int(event["a"]), int(event["b"]))))]
    if kind == "degree_zero":
        counts = _isolated_counts(exp, n, pairs, probs)
    else:
        counts = _statistic_counts(exp, n, pairs, probs)
    # the weights depend on K alone, so they are applied once per distinct K
    K = np.arange(counts.size)
    if kind == "edges":
        hit = K >= k
    elif kind == "pair":
        hit = K * (2.0 if pairs[0][0] == pairs[0][1] else 1.0) / n >= event["s"]
    else:
        hit = K / n >= event["t"]
    ratio = np.exp(-beta * (K[hit] - k))
    return (int(counts[hit].sum()), log_wk, float(counts[hit] @ ratio),
            float(counts[hit] @ (ratio * ratio)))


def estimate_tail_exponent(exp):
    """Estimate the event's probability per size and extrapolate -ln p_hat / n in 1/n.

    p_hat is the weighted hit frequency of ExponentEstimate's rows: plain hit
    counting, except for a one-color edges event whose threshold lies above
    the mean edge count, where the draws are tilted and reweighted.
    The fit is weighted by 1 / se^2. Sizes with zero hits contribute a
    one-sided exponent bound (rule of three, scaled by the largest weight in
    the event) and are excluded from the fit. With one size left the exponent
    is that size's finite-n exponent, not an extrapolation; all-zero
    experiments come back flagged inconclusive rather than with an infinite
    estimate.
    """
    rows = []
    points = []
    R = exp.replicas
    for n in exp.sizes:
        hits, log_wk, s1, s2 = _count_hits(exp, n)
        weight_sum = math.exp(log_wk) * s1
        row = {"n": n, "replicas": R, "hits": hits, "p_hat": weight_sum / R,
               "weight_sum": weight_sum, "weight_sq_sum": math.exp(2.0 * log_wk) * s2,
               "exponent": None, "exponent_lower_bound": None, "se": None}
        if hits > 0:
            # ln p_hat as ln w(k) + ln(s1 / R) stays finite where p_hat underflows
            m1 = s1 / R
            y = -(log_wk + math.log(m1)) / n
            # delta method on ln p_hat with the weights' variance, which does not
            # depend on the common factor w(k); floored so p_hat = 1 keeps finite
            # weight in the fit
            se = max(math.sqrt(max(s2 / R - m1 * m1, 0.0))
                     / (math.sqrt(R) * m1 * n), 1e-12)
            row["exponent"] = y
            row["se"] = se
            points.append((n, y, se))
        else:
            # rule of three on the sampling law; w(k) bounds every weight in the event
            row["exponent_lower_bound"] = -(log_wk + math.log(3.0 / R)) / n
        rows.append(row)

    est = ExponentEstimate(rows=rows)
    if not points:
        est.inconclusive = True
        return est
    if len(points) == 1:
        n, y, se = points[0]
        est.exponent = y
        est.intercept = 0.0
        est.ci_half_width = 1.96 * se
        return est
    coef, cov, residuals = extrapolate(*zip(*points))
    est.exponent = float(coef[0])
    est.intercept = float(coef[1])
    est.ci_half_width = float(1.96 * math.sqrt(max(cov[0, 0], 0.0)))
    est.fit_residuals = residuals.tolist()
    return est


def extrapolate(sizes, exponents, se=None):
    """Fit exponents ~ coef[0] + coef[1] / n by least squares weighted by 1 / se^2, or
    unweighted when se is None; returns (coef, its covariance, residuals).

    The fit is centred on the weighted mean of 1/n: the normal equations of
    the raw line turn singular in floats when one se lies far below another,
    as the floored se of a size where every replica hits does."""
    u = np.array([1.0 / n for n in sizes])
    y = np.array(exponents, dtype=float)
    w = np.ones(len(u)) if se is None else np.array([1.0 / s ** 2 for s in se])
    ubar, ybar = w @ u / w.sum(), w @ y / w.sum()
    sxx = w @ (u - ubar) ** 2
    slope = w @ ((u - ubar) * (y - ybar)) / sxx
    coef = np.array([ybar - slope * ubar, slope])
    cov = np.array([[1.0 / w.sum() + ubar * ubar / sxx, -ubar / sxx], [-ubar / sxx, 1.0 / sxx]])
    return coef, cov, y - (coef[0] + coef[1] * u)


def lln_check(params, seeds):
    """Distance of sampled empirical measures from the limiting law at size params.n.

    Per seed: total variation of the degree distribution against the limit
    law's degree marginal (predicted mass above the largest sampled degree
    counted as distance), of the neighborhood measure against the limit law,
    of the color measure against mu, the largest pair-measure deviation, and
    the largest degree-vector magnitude. Nothing is asserted here; callers
    apply their own thresholds.
    """
    from .rates import poisson_limit_law  # the rate layer loads scipy.special
    qstar = poisson_limit_law(params.mu, params.C)
    d_pred = degree_distribution(qstar)
    ref_pair = product_kernel_measure(params.C, params.mu)
    per_seed = []
    for seed in seeds:
        graph = sample_colored_graph(params, seed)
        color_counts, pair_counts, nbhd_counts = empirical_measures(graph)
        m_meas = nbhd_counts.measure
        d_emp = degree_distribution(m_meas)
        tv_degree = 0.5 * sum(abs(d_emp.get(k, 0.0) - d_pred.get(k, 0.0))
                              for k in d_emp.keys() | d_pred.keys())

        tv_nbhd = total_variation(m_meas, qstar)
        tv_color = total_variation(color_counts.measure, params.mu)
        l2_dev = float(np.max(np.abs(pair_counts.measure.weights - ref_pair.weights)))
        max_mag = nbhd_counts.max_magnitude()
        per_seed.append({"seed": int(seed), "tv_degree": tv_degree,
                         "tv_neighborhood": tv_nbhd, "tv_color": tv_color,
                         "l2_max_deviation": l2_dev, "max_magnitude": max_mag})

    def quantiles(key):
        vals = sorted(row[key] for row in per_seed)
        return {"min": vals[0], "median": vals[len(vals) // 2], "max": vals[-1]}

    return {"n": params.n, "seeds": [int(s) for s in seeds], "per_seed": per_seed,
            "summary": {key: quantiles(key) for key in
                        ("tv_degree", "tv_neighborhood", "tv_color",
                         "l2_max_deviation", "max_magnitude")}}
