"""Closed-form rate functions for the colored-graph large deviation principles.

Everything here is a pure formula layer: relative entropies, the pair cost
h_c, the product-Poisson reference law Q, and the assembled rate functions
for neighborhood measures (rate_J, rate_J_tilde), color/pair measures
(rate_I, rate_I_omega), degree distributions (rate_delta), and the edge
count (rate_zeta and its closed Erdos-Renyi form). Fixed points and inner
infima are delegated to varsolve.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln
from scipy.stats import poisson

from . import varsolve
from .errors import NonConvergenceError
from .measures import (ColorMeasure, NeighborhoodMeasure, SUB_CONSISTENCY_TOL,
                       _check_same_alphabet, is_sub_consistent, phi,
                       product_kernel_measure, relative_entropy)

# validation tolerance for "is a probability measure" preconditions; looser
# than the construction-time flag so long empirical sums stay admissible
_PROB_TOL = 1e-9


def _require_probability(x, name):
    if abs(x.total_mass - 1.0) > _PROB_TOL:
        raise ValueError(f"{name} must be a probability measure, total mass {x.total_mass!r}")


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

    @classmethod
    def from_dict(cls, d):
        raw = d["value"]
        value = math.inf if raw == "inf" else float(raw)
        return cls(value, dict(d.get("breakdown", {})), d.get("reason"))


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
    _require_probability(omega, "omega")
    ref = product_kernel_measure(C, omega)
    ent = relative_entropy(pair, ref)
    if math.isinf(ent):
        return math.inf
    return max(ent + ref.total_mass - pair.total_mass, 0.0)


def q_measure(pair, nu1, support):
    """Product-Poisson reference law Q[pair, nu1] on the requested atoms.

    Q(a, ell) = nu1(a) * prod_b Poisson(pair(a,b)/nu1(a)) pmf at ell(b). Atoms
    whose mass is 0 (a color with nu1(a) = 0, or ell charging a zero
    intensity) are omitted, so mass(a, ell) reads as 0 there.
    """
    _check_same_alphabet(pair, nu1)
    m = pair.alphabet.m
    atoms = {}
    for a, ell in support:
        a = int(a)
        ell = tuple(int(x) for x in ell)
        base = float(nu1.weights[a])
        if base <= 0.0:
            continue
        lam = pair.weights[a] / base
        k = np.asarray(ell, dtype=float)
        if np.any((lam == 0.0) & (k > 0)):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = -lam + k * np.log(lam) - gammaln(k + 1)
        terms[k == 0.0] = -lam[k == 0.0]
        logq = math.log(base) + float(terms.sum())
        mass = math.exp(logq)
        if mass > 0.0:
            atoms[(a, ell)] = mass
    return NeighborhoodMeasure(pair.alphabet, atoms)


def poisson_limit_law(mu, C, tail_mass=1e-14):
    """Zero point of rate_J: independent Poisson neighbor counts around mu.

    For each color a with mu(a) > 0, ell(b) is Poisson(C(a,b) mu(b)). The
    countable support is truncated per color so the dropped mass is at most
    tail_mass, and the residual is folded into the degree-zero atom so the
    color marginal stays mu to within rounding. Grid size is exponential in
    the number of colors with positive intensity rows; intended for small m.
    """
    _check_same_alphabet(mu, C)
    _require_probability(mu, "mu")
    m = mu.alphabet.m
    axis_tail = tail_mass / m
    atoms = {}
    zero = (0,) * m
    for a in range(m):
        base = float(mu.weights[a])
        if base <= 0.0:
            continue
        lam = C.values[a] * mu.weights
        pmfs = []
        for b in range(m):
            if lam[b] == 0.0:
                pmfs.append(np.array([1.0]))
                continue
            cap = int(poisson.ppf(1.0 - axis_tail, lam[b])) + 2
            k = np.arange(cap + 1, dtype=float)
            pmfs.append(np.exp(-lam[b] + k * math.log(lam[b]) - gammaln(k + 1)))
        grid = np.array(base)
        for p in pmfs:
            grid = np.multiply.outer(grid, p)
        listed = float(grid.sum())
        for idx in np.ndindex(grid.shape):
            mass = float(grid[idx])
            if mass > 0.0:
                atoms[(a, tuple(idx))] = mass
        residual = base - listed
        key = (a, zero)
        atoms[key] = atoms.get(key, 0.0) + residual
        if atoms[key] <= 0.0:
            del atoms[key]
    return NeighborhoodMeasure(mu.alphabet, atoms, probability=True)


def rate_J(pair, nu, mu, C):
    """Joint rate for the pair and neighborhood empirical measures.

    H(nu || Q[pair, nu1]) + H(nu1 || mu) + (1/2) h_c(pair || nu1) when (pair,
    nu) is sub-consistent, +inf otherwise. Breakdown keys: neighborhood,
    color, pair.
    """
    _check_same_alphabet(pair, nu, mu, C)
    _require_probability(mu, "mu")
    _require_probability(nu, "nu")
    if not is_sub_consistent(pair, nu):
        return RateValue(math.inf, {}, reason="not-sub-consistent")
    nu1, _ = phi(nu)
    q = q_measure(pair, nu1, nu.support)
    return _assemble({
        "neighborhood": max(relative_entropy(nu, q), 0.0),
        "color": max(relative_entropy(nu1, mu), 0.0),
        "pair": 0.5 * h_c(pair, nu1, C),
    })


def rate_I(omega, pair, mu, C):
    """Rate for the color/pair empirical measures: H(omega||mu) + h_c/2."""
    _check_same_alphabet(omega, pair, mu, C)
    _require_probability(omega, "omega")
    _require_probability(mu, "mu")
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
    _require_probability(nu, "nu")
    _require_probability(omega, "omega")
    if not is_sub_consistent(pair, nu):
        return math.inf
    nu1, _ = phi(nu)
    if np.max(np.abs(nu1.weights - omega.weights)) > SUB_CONSISTENCY_TOL:
        return math.inf
    q = q_measure(pair, nu1, nu.support)
    return max(relative_entropy(nu, q), 0.0)


def _poisson_log_pmf(k, x):
    return -x + k * math.log(x) - math.lgamma(k + 1)


def _validate_degree_distribution(d):
    total = 0.0
    for k, p in d.items():
        if int(k) != k or k < 0:
            raise ValueError(f"degree {k!r} is not a nonnegative integer")
        if p < 0:
            raise ValueError(f"degree {k} has negative mass {p!r}")
        total += p
    if abs(total - 1.0) > _PROB_TOL:
        raise ValueError(f"degree distribution has total mass {total!r}")


def _delta_given_x(d, c, x):
    # rate value at a prescribed tilt parameter x > 0; shared by both branches
    ent = 0.0
    for k, p in d.items():
        if p > 0:
            ent += p * (math.log(p) - _poisson_log_pmf(int(k), x))
    return 0.5 * x * math.log(x / c) - 0.5 * x + 0.5 * c + ent


def rate_delta(d, c, mean=None):
    """Rate for the degree distribution of the graph.

    d maps degree k to probability mass. mean overrides the computed first
    moment; pass math.inf to flag an infinite-mean distribution (value +inf).
    """
    if c <= 0:
        raise ValueError(f"c must be positive, got {c!r}")
    _validate_degree_distribution(d)
    if mean is None:
        mean = sum(int(k) * p for k, p in d.items())
    if math.isinf(mean):
        return math.inf
    if mean < 0:
        raise ValueError(f"mean must be nonnegative, got {mean!r}")
    if mean <= c:
        report = varsolve.solve_degree_fixed_point(mean, c)
        if not report.converged:
            raise NonConvergenceError(
                f"degree fixed point stalled at residual {report.residual:g}")
        x = report.value
    else:
        x = mean
    return max(_delta_given_x(d, c, x), 0.0)


def rate_zeta(x, mu, C):
    """Rate for the edge count per vertex, via the two-layer infimum.

    x ln x - x + inf_y {psi(y) - x ln(y/2) + y/2}, whose two layers
    varsolve.zeta_inner solves as one minimization over color laws. +inf
    for x > 0 when C vanishes on supp mu: no edge can form.
    """
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x!r}")
    _require_probability(mu, "mu")
    report = varsolve.zeta_inner(x, mu, C)
    if not report.converged:
        raise NonConvergenceError(
            f"inner edge-rate infimum did not converge, residual {report.residual:g}")
    poisson_part = x * math.log(x) - x if x > 0 else 0.0
    return max(poisson_part + report.value, 0.0)


def rate_zeta_er(x, c):
    """Closed form of rate_zeta for the constant kernel: Poisson(c/2) Cramer rate."""
    if c <= 0:
        raise ValueError(f"c must be positive, got {c!r}")
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x!r}")
    if x == 0:
        return c / 2
    return x * math.log(x) - x - x * math.log(c / 2) + c / 2
