"""Solvers for the model's low-dimensional variational problems.

Covers the numerical searches behind the rates: the minimization over color
laws omega on supp mu and the annealed Ising free energy. One face solver,
multi-start SLSQP in softmax coordinates, does the minimization over color
laws behind the edge rate's inner infimum. The Ising free energy is one
closed-form function of the spin fraction x, the functional along the
profile where the pair variables are stationary. It is symmetric about 1/2
and unimodal on [0, 1/2], so one bounded Brent search there maximizes it,
with no grid; oracles checks it against the exact finite-n law. All solvers
are deterministic: multi-starts come from a fixed low-discrepancy set, never
from an RNG.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import logsumexp

from .measures import _check_same_alphabet, _real

ARGMAX_TOL = 1e-6

_N_STARTS = 32
# the first primes, enough for the 64 colors an Alphabet admits
_PRIMES = [p for p in range(2, 320) if all(p % d for d in range(2, math.isqrt(p) + 1))]


@dataclass(frozen=True)
class SolveReport:
    """Result of one solver run; a maximizer reports its argmax as argmin."""

    argmin: tuple
    value: float
    residual: float
    iterations: int
    converged: bool

    def __post_init__(self):
        # zeta_inner's argmin is tuple(omega), numpy scalars; pin plain python types
        object.__setattr__(self, "argmin", tuple(float(v) for v in self.argmin))
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "iterations", int(self.iterations))
        object.__setattr__(self, "converged", bool(self.converged))

    def to_dict(self):
        return {"argmin": list(self.argmin), "value": self.value,
                "residual": self.residual, "iterations": self.iterations,
                "converged": self.converged}


# ---------------------------------------------------------------------------
# minimization over color laws on the support of mu


def _simplex_starts(k, mu_w):
    """Fixed multi-start set on the k-simplex: mu, uniform, smoothed vertices,
    then a Kronecker low-discrepancy fill."""
    starts = [np.asarray(mu_w, dtype=float), np.full(k, 1.0 / k)]
    for a in range(min(k, 8)):
        v = np.full(k, 0.1 / k)
        v[a] += 0.9
        starts.append(v / v.sum())
    alphas = np.sqrt(np.array(_PRIMES[:k], dtype=float))
    i = 1
    while len(starts) < _N_STARTS:
        v = np.mod(i * alphas, 1.0) + 0.02
        starts.append(v / v.sum())
        i += 1
    return starts[:_N_STARTS]


def _face(mu, C):
    """supp mu, mu renormalised on it and C restricted to it: every omega with
    H(omega||mu) < inf vanishes off supp mu."""
    _check_same_alphabet(mu, C)
    idx = np.flatnonzero(mu.weights > 0)
    return idx, mu.weights[idx] / mu.weights[idx].sum(), C.values[np.ix_(idx, idx)]


def _face_minimize(objective, mu_a):
    """Multi-start SLSQP minimum of objective over probability vectors w > 0.

    w = softmax(0, z) for z in R^(k-1), k >= 2; pinning the first coordinate
    leaves the problem no flat direction. objective(w, log w) returns a value
    and its gradient in w. A start counts when SLSQP succeeds. Returns the
    best start's value (+inf when none counts), its w, the largest entry of
    its objective gradient in z, and the iterations summed over all starts.
    """
    def point(z):
        lw = np.concatenate(([0.0], z))
        lw -= logsumexp(lw)
        return np.exp(lw), lw

    def fun(z):
        w, lw = point(z)
        value, grad = objective(w, lw)
        return value, (w * (grad - w @ grad))[1:]

    best, iterations = (math.inf, mu_a, math.inf), 0
    for w0 in _simplex_starts(mu_a.size, mu_a):
        res = minimize(fun, np.log(w0[1:] / w0[0]), jac=True, method="SLSQP",
                       options={"ftol": 1e-12})
        iterations += int(res.nit)
        if not res.success:
            continue
        value, grad = fun(res.x)
        if value < best[0]:
            best = (value, point(res.x)[0], float(np.abs(grad).max()))
    return (*best, iterations)


def zeta_inner(x, mu, C):
    """Inner infimum of the edge rate, inf_y {psi(y) - x ln(y/2) + y/2}, where
    psi(y) = inf { H(omega||mu) : omega' C omega = y }.

    y enters only through q = omega' C omega, so this is one minimization of
    H(omega||mu) - x ln(q/2) + q/2 over color laws omega on supp mu. argmin
    is the minimizer omega* over the full alphabet (zero off supp mu), so
    y* = omega*' C omega*; residual is its largest gradient entry in softmax
    coordinates. Where q is constant on the face (one color, or C vanishing
    there) omega* = mu, and a vanishing C gives +inf for x > 0.
    """
    x = _real(x, "x", 0)
    idx, mu_a, C_a = _face(mu, C)
    log_mu = np.log(mu_a)

    def objective(w, lw):
        Cw = C_a @ w
        q = float(w @ Cw)
        log_part = x * math.log(q / 2.0) if x > 0 else 0.0
        slope = 1.0 - 2.0 * x / q if x > 0 else 1.0
        return (float(w @ (lw - log_mu)) - log_part + q / 2.0,
                lw - log_mu + 1.0 + slope * Cw)

    if idx.size == 1 or not C_a.any():
        value = math.inf if x > 0 and not C_a.any() else objective(mu_a, log_mu)[0]
        w, residual, iterations = mu_a, 0.0, 0
    else:
        value, w, residual, iterations = _face_minimize(objective, mu_a)
    omega = np.zeros(mu.alphabet.m)
    omega[idx] = w
    # the face solver reports an infinite residual when no start converged
    return SolveReport(tuple(omega), value, residual, iterations, math.isfinite(residual))


# ---------------------------------------------------------------------------
# annealed Ising free energy


def ising_annealed(beta, c):
    """Limiting annealed free energy, the maximum of the pair-measure functional.

    At fixed x the functional peaks at w = ref * e^{+-beta}, where the entropy
    cancels the energy: F(x) = H(x) + (||w(x)|| - c)/2, or with y = x(1-x),
    H(x) + c/2 [(1-2y) expm1(beta) + 2y expm1(-beta)], where nothing cancels.
    F is symmetric about 1/2 with slope 2 artanh(t) - 2c sinh(beta) t at
    t = 1-2x; artanh(t)/t rises from 1 to inf, so on [0, 1/2] F rises then
    falls (or only rises). One bounded Brent search there finds the maximum;
    both ends, which it never evaluates, are evaluated too. argmin is the
    profile (x, w++, w--, w+-) at the best x; iterations counts evaluations;
    residual is the gap between the evaluated x nearest it on either side."""
    c, beta = _real(c, "c", 0, strict=True), _real(beta, "beta", 0)
    try:
        eb, emb = math.exp(beta), math.exp(-beta)
    except OverflowError:
        raise ValueError(f"beta {beta!r} is too large: e^beta overflows a float") from None
    if math.isinf(c * eb):
        raise ValueError(f"beta {beta!r} is too large for c {c!r}: c e^beta overflows a float")
    up, down = math.expm1(beta), math.expm1(-beta)
    seen = {}

    def neg(x):
        y = x * (1.0 - x)
        mix = -x * math.log(x) - (1.0 - x) * math.log1p(-x) if x > 0.0 else 0.0
        seen[x] = mix + 0.5 * c * ((1.0 - 2.0 * y) * up + 2.0 * y * down)
        return -seen[x]

    res = minimize_scalar(neg, bounds=(0.0, 0.5), method="bounded", options={"xatol": 1e-12})
    neg(0.0)
    neg(0.5)
    x = max((float(res.x), 0.0, 0.5), key=seen.get)  # ties go to the search's own x
    residual = (min((t for t in seen if t > x), default=x)
                - max((t for t in seen if t < x), default=x))
    profile = (x, c * x * x * eb, c * (1.0 - x) * (1.0 - x) * eb, c * x * (1.0 - x) * emb)
    return SolveReport(profile, seen[x], residual, res.nfev + 2, residual <= ARGMAX_TOL)

