"""Closed-form rate functions for the colored-graph large deviation principles.

Everything here is a pure formula layer: relative entropies, the pair cost
h_c, the product-Poisson reference law Q, and the assembled rate functions
for neighborhood measures (rate_J, rate_J_tilde), color/pair measures
(rate_I, rate_I_omega), degree distributions (rate_delta), and the edge
count (rate_zeta and its closed Erdos-Renyi form). One function evaluates
ln Q: q_measure and its zero point poisson_limit_law exponentiate it, and the
one computation of H(nu || Q), behind rate_J and rate_J_tilde, uses the logs
directly. The degree rate is rate_J at its one-color consistent point; the
edge rate's inner infimum is delegated to varsolve.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, pdtr, pdtrik, xlogy

from .errors import NonConvergenceError
from .measures import (PROB_TOL, SUB_CONSISTENCY_TOL, NeighborhoodMeasure, _check_atoms,
                       _check_same_alphabet, _log_relative_entropy, _read_keys, _real, _whole,
                       is_sub_consistent, phi, product_kernel_measure, relative_entropy,
                       require_probability)

LIMIT_TAIL_MASS = 1e-14
LIMIT_ATOMS = 10 ** 6  # the limit law's grid grows exponentially in m; past this it fills memory


@dataclass(frozen=True)
class RateValue:
    """A rate function value with its named sub-costs.

    When value is finite it equals the sum of the breakdown terms; when
    infinite, reason carries a short code for which requirement failed.
    """

    value: float
    breakdown: dict = field(default_factory=dict)
    reason: str = None

    @property
    def finite(self):
        return math.isfinite(self.value)

    def to_dict(self):
        return {"value": self.value if self.finite else "inf",
                "breakdown": dict(self.breakdown), "reason": self.reason}


def _assemble(parts):
    for name, v in parts.items():
        if math.isinf(v):
            finite = {k: w for k, w in parts.items() if math.isfinite(w)}
            return RateValue(math.inf, finite, reason=f"{name}-cost-infinite")
    return RateValue(sum(parts.values()), parts)


def h_c(pair, omega, C):
    """Unnormalized pair cost H(pair || C omega x omega) + ||C omega x omega|| - ||pair||.

    Nonnegative, zero exactly at pair = C omega x omega, +inf when pair
    charges a zero of the reference product.
    """
    _check_same_alphabet(pair, omega, C)
    require_probability(omega, "omega")
    ref = product_kernel_measure(C, omega)
    return max(relative_entropy(pair, ref) + ref.total_mass - pair.total_mass, 0.0)


def _poisson_log_pmf(k, lam):
    """ln of the Poisson(lam) pmf at k, elementwise; lam = 0 gives 0 at k = 0, -inf above."""
    return xlogy(k, lam) - lam - gammaln(k + 1)


def _poisson_ppf(q, lam):
    """Poisson(lam) quantile at 0 < q < 1, found the way scipy.stats.poisson.ppf
    finds it, without the cost of importing scipy.stats."""
    k = math.ceil(pdtrik(q, lam))
    return k - 1 if k >= 1 and pdtr(k - 1, lam) >= q else k


def _q_masses(base, lam, ells):
    """ln Q = ln base + sum_b ln Poisson(lam[b]) pmf at ell(b), one row of ells per atom, from
    one pmf call; base > 0 and lam broadcast against the rows."""
    return np.log(base) + _poisson_log_pmf(ells, lam).sum(axis=1)


def q_measure(pair, nu1, support):
    """Product-Poisson reference law Q[pair, nu1] on the requested atoms.

    Q(a, ell) = nu1(a) * prod_b Poisson(pair(a,b)/nu1(a)) pmf at ell(b); each
    atom is checked as NeighborhoodMeasure checks it. Atoms whose mass is 0 (a
    color with nu1(a) = 0, ell charging a zero intensity, or a mass below the
    float range) are omitted, so mass(a, ell) reads as 0 there.
    """
    _check_same_alphabet(pair, nu1)
    colors, ells = _read_keys(support, pair.alphabet.m)
    _check_atoms(pair.alphabet.m, colors, ells)
    keep = nu1.weights[colors] > 0.0
    colors, ells = colors[keep], ells[keep]
    base = nu1.weights[colors]
    masses = np.exp(_q_masses(base, pair.weights[colors] / base[:, None], ells))
    keep = masses > 0.0
    return NeighborhoodMeasure.from_arrays(pair.alphabet, colors[keep], ells[keep], masses[keep])


def poisson_limit_law(mu, C):
    """Zero point of rate_J: Q[C mu x mu, mu], where ell(b) at color a is Poisson(C(a,b) mu(b)).

    Each color's grid is truncated so that it drops at most LIMIT_TAIL_MASS =
    1e-14, and the residual is folded into the degree-zero atom so the color
    marginal stays mu to within rounding. Grid size is exponential in m; a
    grid of more than LIMIT_ATOMS atoms is refused with ValueError.
    """
    _check_same_alphabet(mu, C)
    require_probability(mu, "mu")
    lams = C.values * mu.weights  # row a is pair(a, b) / mu(a) at pair = C mu x mu
    # a zero intensity gives the axis 0, 1, 2, whose atoms above 0 have mass 0
    shapes = {a: [_poisson_ppf(1.0 - LIMIT_TAIL_MASS / len(lam), x) + 3 for x in lam]
              for a, lam in enumerate(lams) if mu.weights[a] > 0}
    size = sum(math.prod(shape) for shape in shapes.values())
    if size > LIMIT_ATOMS:
        raise ValueError(f"the limit law's grid has {size} atoms, more than {LIMIT_ATOMS}")
    parts = []
    for a, shape in shapes.items():
        grid = np.indices(shape).reshape(len(shape), -1).T  # C order, degree zero first
        q = np.exp(_q_masses(mu.weights[a], lams[a], grid))
        q[0] += mu.weights[a] - q.sum()
        parts.append((np.full(len(q), a), grid, q))
    colors, ells, masses = (np.concatenate(x) for x in zip(*parts))
    keep = masses > 0.0
    return NeighborhoodMeasure.from_arrays(mu.alphabet, colors[keep], ells[keep], masses[keep],
                                           probability=True)


def _neighborhood_entropy(pair, nu):
    """(nu1, H(nu || Q[pair, nu1])), nu1 the color marginal; (None, inf) unless sub-consistent.
    ln Q is never exponentiated, so a Q below the float range leaves H finite."""
    if not is_sub_consistent(pair, nu):
        return None, math.inf
    nu1, _ = phi(nu)
    base = nu1.weights[nu.colors]
    with np.errstate(over="ignore", invalid="ignore"):
        log_q = _q_masses(base, pair.weights[nu.colors] / base[:, None], nu.ells)
    log_q[np.isnan(log_q)] = -np.inf  # an intensity past the float range: Q reads as 0
    return nu1, max(_log_relative_entropy(nu.weights, log_q), 0.0)


def rate_J(pair, nu, mu, C):
    """Joint rate for the pair and neighborhood empirical measures.

    H(nu || Q[pair, nu1]) + H(nu1 || mu) + (1/2) h_c(pair || nu1) when (pair,
    nu) is sub-consistent, +inf otherwise. Breakdown keys: neighborhood,
    color, pair.
    """
    _check_same_alphabet(pair, nu, mu, C)
    require_probability(mu, "mu")
    require_probability(nu, "nu")
    nu1, ent = _neighborhood_entropy(pair, nu)
    if nu1 is None:
        return RateValue(math.inf, {}, reason="not-sub-consistent")
    return _assemble({
        "neighborhood": ent,
        "color": max(relative_entropy(nu1, mu), 0.0),
        "pair": 0.5 * h_c(pair, nu1, C),
    })


def rate_I(omega, pair, mu, C):
    """Rate for the color/pair empirical measures: H(omega||mu) + h_c/2."""
    _check_same_alphabet(omega, pair, mu, C)
    require_probability(omega, "omega")
    require_probability(mu, "mu")
    return _assemble({
        "color": max(relative_entropy(omega, mu), 0.0),
        "pair": 0.5 * h_c(pair, omega, C),
    })


def rate_I_omega(pair, omega, C):
    """Rate for the pair measure conditional on the color measure: h_c/2."""
    return 0.5 * h_c(pair, omega, C)


def rate_J_tilde(nu, omega, pair):
    """Conditional neighborhood rate: H(nu || Q[pair, nu]) on the fiber.

    Requires (pair, nu) sub-consistent and the color marginal of nu equal to
    omega entrywise within 1e-12; +inf otherwise.
    """
    _check_same_alphabet(nu, omega, pair)
    require_probability(nu, "nu")
    require_probability(omega, "omega")
    nu1, ent = _neighborhood_entropy(pair, nu)
    if nu1 is None or np.max(np.abs(nu1.weights - omega.weights)) > SUB_CONSISTENCY_TOL:
        return math.inf
    return ent


def rate_delta(d, c, mean=None):
    """Rate for the degree distribution: H(d || Poisson(mean)) + (mean ln(mean/c) - mean + c)/2.

    rate_J on one color at its consistent point pi = mean, one formula for every mean. d maps
    degree k to probability mass; a finite mean must match its first moment within PROB_TOL,
    relative above 1, and +inf alone flags an infinite-mean law, whose rate is +inf.
    """
    c = _real(c, "c", 0, strict=True)
    d = {_whole(k, "degree", 0): _real(p, f"degree {k} mass", 0) for k, p in d.items()}
    total = sum(d.values())
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"degree distribution has total mass {total!r}")
    if mean == math.inf:
        return math.inf
    k, p = np.array([(_real(k, "a degree"), p) for k, p in d.items() if p > 0]).T
    moment = sum((k * p).tolist())
    # a NaN mean matches no moment, so the check below refuses it as one the degrees contradict
    mean = moment if mean is None else mean if mean != mean else _real(mean, "mean", 0)
    if not abs(mean - moment) <= PROB_TOL * max(1.0, moment):
        raise ValueError(f"mean {mean!r} differs from the degrees' mean {moment!r}")
    with np.errstate(invalid="ignore"):  # inf - inf near the float limit, refused below
        value = (sum((p * (np.log(p) - _poisson_log_pmf(k, mean))).tolist())
                 + rate_zeta_er(mean / 2, c))
    if math.isnan(value):
        raise ValueError("a degree is too large for a float")
    return max(value, 0.0)


def rate_zeta(x, mu, C):
    """Rate for the edge count per vertex, via the two-layer infimum.

    x ln x - x + inf_y {psi(y) - x ln(y/2) + y/2}, where psi(y) is
    inf { H(omega||mu) : omega' C omega = y }; varsolve.zeta_inner solves the
    two layers as one minimization over color laws. +inf for x > 0 when C
    vanishes on supp mu: no edge can form.
    """
    x = _real(x, "x", 0)
    require_probability(mu, "mu")
    from . import varsolve  # scipy.optimize, loaded only by the commands that solve
    report = varsolve.zeta_inner(x, mu, C)
    if not report.converged:
        raise NonConvergenceError(
            f"inner edge-rate infimum did not converge, residual {report.residual:g}")
    return max(float(xlogy(x, x)) - x + report.value, 0.0)


def rate_zeta_er(x, c):
    """Closed form of rate_zeta for the constant kernel: Poisson(c/2) Cramer rate."""
    c, x = _real(c, "c", 0, strict=True), _real(x, "x", 0)
    return float(xlogy(x, x)) - x - x * math.log(c / 2) + c / 2
