"""Solvers for the model's low-dimensional variational problems.

Covers the degree-distribution fixed point, the minimizations over color
laws omega on supp mu, the four-variable annealed Ising optimization, and
the numeric Legendre dual of the conditional pair rate. One face solver,
multi-start SLSQP in softmax coordinates, does every minimization over color
laws: psi(y) = inf { H(omega||mu) : omega' C omega = y }, the edge rate's
inner infimum and the attainable range of omega' C omega. All solvers are
deterministic: multi-starts come from a fixed low-discrepancy set, never
from an RNG.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

from .errors import NonConvergenceError
from .measures import _check_same_alphabet

FIXED_POINT_TOL = 1e-12
CONSTRAINT_TOL = 1e-8
OBJECTIVE_TOL = 1e-10

_N_STARTS = 32


@dataclass(frozen=True)
class SolveReport:
    """Result of one solver run; argmin doubles as argmax for maximizers."""

    argmin: tuple
    value: float
    residual: float
    iterations: int
    converged: bool

    def __post_init__(self):
        # numpy scalars sneak in from grid searches; pin plain python types
        object.__setattr__(self, "argmin", tuple(float(v) for v in self.argmin))
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "iterations", int(self.iterations))
        object.__setattr__(self, "converged", bool(self.converged))

    @property
    def argmax(self):
        return self.argmin

    def to_dict(self):
        return {"argmin": list(self.argmin), "value": self.value,
                "residual": self.residual, "iterations": self.iterations,
                "converged": self.converged}

    @classmethod
    def from_dict(cls, d):
        return cls(tuple(d["argmin"]), float(d["value"]), float(d["residual"]),
                   int(d["iterations"]), bool(d["converged"]))


# ---------------------------------------------------------------------------
# degree fixed point


def solve_degree_fixed_point(mean, c):
    """Unique x in [max(mean, c e^-2), c] with x = c exp(-2(1 - mean/x)).

    Bisection on g(x) = x - c exp(-2(1 - mean/x)); g <= 0 at the left
    endpoint and >= 0 at x = c, and the solution is unique on the bracket.
    Only the mean <= c branch of the degree rate calls this.
    """
    if c <= 0:
        raise ValueError(f"c must be positive, got {c!r}")
    if mean < 0:
        raise ValueError(f"mean must be nonnegative, got {mean!r}")
    if mean > c:
        raise ValueError(f"mean {mean!r} exceeds c {c!r}: fixed point not applicable")

    def g(x):
        return x - c * math.exp(-2.0 * (1.0 - mean / x))

    lo = max(mean, c * math.exp(-2.0))
    hi = c
    for x0, r0 in ((hi, g(hi)), (lo, g(lo))):
        if r0 == 0.0:
            return SolveReport((x0,), x0, 0.0, 0, True)
    iterations = 0
    glo = g(lo)
    while hi - lo > 1e-16 * max(1.0, c) and iterations < 200:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            lo = hi = mid
            break
        if (gm < 0) == (glo < 0):
            lo, glo = mid, gm
        else:
            hi = mid
        iterations += 1
    x = 0.5 * (lo + hi)
    residual = abs(g(x))
    return SolveReport((x,), x, residual, iterations, residual <= FIXED_POINT_TOL)


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
    alphas = np.sqrt(np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                               41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83,
                               89, 97, 101, 103, 107, 109, 113, 127, 131],
                              dtype=float))[:k]
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


def _face_minimize(objective, mu_a, constraint=None):
    """Multi-start SLSQP minimum of objective over probability vectors w > 0.

    w = softmax(0, z) for z in R^(k-1), k >= 2; pinning the first coordinate
    leaves the constrained problem no flat direction. objective(w, log w) and
    the optional equality constraint(w) return a value and its gradient in w.
    A start counts when SLSQP succeeds and meets the constraint within
    CONSTRAINT_TOL. Returns the best start's value (+inf when none counts),
    its w, the largest entry of its objective gradient in z, and the
    iterations summed over all starts.
    """
    def point(z):
        lw = np.concatenate(([0.0], z))
        lw -= logsumexp(lw)
        return np.exp(lw), lw

    def in_z(w, grad):
        return (w * (grad - w @ grad))[1:]

    def fun(z):
        w, lw = point(z)
        value, grad = objective(w, lw)
        return value, in_z(w, grad)

    constraints = () if constraint is None else {
        "type": "eq", "fun": lambda z: constraint(point(z)[0])[0],
        "jac": lambda z: in_z(point(z)[0], constraint(point(z)[0])[1])}
    best, iterations = (math.inf, mu_a, math.inf), 0
    for w0 in _simplex_starts(mu_a.size, mu_a):
        res = minimize(fun, np.log(w0[1:] / w0[0]), jac=True, method="SLSQP",
                       constraints=constraints, options={"ftol": 1e-12})
        iterations += int(res.nit)
        w, _ = point(res.x)
        if not res.success or (constraint is not None
                               and abs(constraint(w)[0]) > CONSTRAINT_TOL):
            continue
        value, grad = fun(res.x)
        if value < best[0]:
            best = (value, w, float(np.abs(grad).max()))
    return (*best, iterations)


def _attainable_range(mu_a, C_a):
    """Numeric range [ymin, ymax] of w' C w over the face, and its value at mu.

    Vertex and two-color segment optima are exact candidates; for k >= 3 the
    face solver covers interior optima.
    """
    k = mu_a.size
    qmu = float(mu_a @ C_a @ mu_a)
    candidates = [qmu, float(C_a.sum()) / (k * k)]
    for i in range(k):
        candidates.append(C_a[i, i])
        for j in range(i + 1, k):
            caa, cab, cbb = C_a[i, i], C_a[i, j], C_a[j, j]
            den = caa - 2 * cab + cbb
            if den != 0.0:
                t = (cbb - cab) / den
                if 0.0 < t < 1.0:
                    candidates.append(t * t * caa + 2 * t * (1 - t) * cab
                                      + (1 - t) * (1 - t) * cbb)
    ymin, ymax = min(candidates), max(candidates)
    if k > 2:
        for sign in (1.0, -1.0):
            def signed_q(w, lw):
                return sign * float(w @ C_a @ w), 2.0 * sign * (C_a @ w)
            w = _face_minimize(signed_q, mu_a)[1]
            y = float(w @ C_a @ w)
            ymin, ymax = min(ymin, y), max(ymax, y)
    return ymin, ymax, qmu


def psi(y, mu, C):
    """inf H(omega||mu) over probability omega with omega' C omega = y.

    +inf when y lies outside the attainable range of the quadratic form;
    inside it, the face solver minimises the entropy under the constraint.
    """
    if y < 0:
        raise ValueError(f"y must be nonnegative, got {y!r}")
    _, mu_a, C_a = _face(mu, C)
    ymin, ymax, qmu = _attainable_range(mu_a, C_a)
    scale = max(1.0, abs(ymax))
    if y < ymin - 1e-9 * scale or y > ymax + 1e-9 * scale:
        return math.inf
    y = min(max(y, ymin), ymax)
    if abs(y - qmu) <= 1e-12 * scale:
        return 0.0
    log_mu = np.log(mu_a)
    value = _face_minimize(lambda w, lw: (float(w @ (lw - log_mu)), lw - log_mu + 1.0),
                           mu_a, lambda w: (float(w @ C_a @ w) - y, 2.0 * (C_a @ w)))[0]
    if math.isinf(value):
        raise NonConvergenceError(f"no multi-start satisfied the constraint at y={y!r}")
    return max(value, 0.0)


def zeta_inner(x, mu, C):
    """Inner infimum of the edge rate, inf_y {psi(y) - x ln(y/2) + y/2}.

    y enters only through q = omega' C omega, so this is one minimization of
    H(omega||mu) - x ln(q/2) + q/2 over color laws omega on supp mu. argmin
    is the minimizer omega* over the full alphabet (zero off supp mu), so
    y* = omega*' C omega*; residual is its largest gradient entry in softmax
    coordinates. Where q is constant on the face (one color, or C vanishing
    there) omega* = mu, and a vanishing C gives +inf for x > 0.
    """
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x!r}")
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


def _mix_entropy(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def _ising_objective(x, wpp, wmm, wpm, beta, c):
    """Four-variable free-energy functional; -inf off the admissible domain."""
    if not (0.0 <= x <= 1.0) or wpp < 0 or wmm < 0 or wpm < 0:
        return -math.inf
    refs = (c * x * x, c * (1.0 - x) * (1.0 - x), c * x * (1.0 - x))
    ent = 0.0
    for w, r, mult in ((wpp, refs[0], 1.0), (wmm, refs[1], 1.0), (wpm, refs[2], 2.0)):
        if w > 0.0:
            if r == 0.0:
                return -math.inf
            ent += mult * w * math.log(w / r)
    mass = wpp + wmm + 2.0 * wpm
    return (0.5 * beta * (wpp + wmm - 2.0 * wpm) + _mix_entropy(x)
            - 0.5 * (ent + c - mass))


def _ising_grid_best(beta, c):
    wmax = c * math.exp(beta)
    xs = np.linspace(0.0, 1.0, 40)
    ws = np.linspace(0.0, wmax, 40)
    wpp, wmm, wpm = np.meshgrid(ws, ws, ws, indexing="ij")
    mass = wpp + wmm + 2.0 * wpm
    bracket = 0.5 * beta * (wpp + wmm - 2.0 * wpm)
    best_val, best_pt = -math.inf, None
    with np.errstate(divide="ignore", invalid="ignore"):
        for x in xs:
            refs = (c * x * x, c * (1.0 - x) * (1.0 - x), c * x * (1.0 - x))
            ent = np.zeros_like(wpp)
            ok = np.ones(wpp.shape, dtype=bool)
            for w, r, mult in ((wpp, refs[0], 1.0), (wmm, refs[1], 1.0),
                               (wpm, refs[2], 2.0)):
                pos = w > 0.0
                if r == 0.0:
                    ok &= ~pos
                else:
                    ent += np.where(pos, mult * w * np.log(np.maximum(w, 1e-300) / r), 0.0)
            val = np.where(ok, bracket + _mix_entropy(x) - 0.5 * (ent + c - mass),
                           -math.inf)
            flat = int(np.argmax(val))
            if val.flat[flat] > best_val:
                best_val = float(val.flat[flat])
                i, j, l = np.unravel_index(flat, val.shape)
                best_pt = (float(x), float(ws[i]), float(ws[j]), float(ws[l]))
    return best_val, best_pt


def _ising_profiled_best(beta, c):
    # stationarity in the pair variables at fixed x gives w = ref * e^{+-beta};
    # scanning that profile curve seeds the refinement near the true optimum
    eb, emb = math.exp(beta), math.exp(-beta)
    best_val, best_pt = -math.inf, None
    for x in np.linspace(0.0, 1.0, 401):
        pt = (float(x), c * x * x * eb, c * (1.0 - x) * (1.0 - x) * eb,
              c * x * (1.0 - x) * emb)
        val = _ising_objective(*pt, beta, c)
        if val > best_val:
            best_val, best_pt = val, pt
    return best_val, best_pt


def ising_annealed(beta, c):
    """Limiting annealed free energy via the four-variable maximization.

    Coarse 40^4 grid plus a stationarity profile seed, refined by repeated
    Nelder-Mead until two polish rounds agree within 1e-10.
    """
    if c <= 0:
        raise ValueError(f"c must be positive, got {c!r}")
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta!r}")
    seeds = [_ising_grid_best(beta, c), _ising_profiled_best(beta, c)]
    best_val, best_pt = max(seeds, key=lambda s: s[0])

    def neg(v):
        val = _ising_objective(v[0], v[1], v[2], v[3], beta, c)
        return 1e18 if val == -math.inf else -val

    point = np.asarray(best_pt, dtype=float)
    value = best_val
    iterations = 0
    residual = math.inf
    for _ in range(6):
        res = minimize(neg, point, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
        iterations += int(res.nit)
        new_val = -neg(res.x)
        residual = abs(new_val - value)
        if new_val > value:
            value, point = new_val, res.x
        if residual <= OBJECTIVE_TOL:
            break
    x, wpp, wmm, wpm = (float(v) for v in point)
    return SolveReport((x, wpp, wmm, wpm), value, residual, iterations,
                       residual <= OBJECTIVE_TOL)


# ---------------------------------------------------------------------------
# numeric Legendre dual of the conditional pair rate


def legendre_i_omega(pair, omega, C):
    """(1/2) sup_g { <pair, g> + <C omega x omega, 1 - e^g> } over symmetric g.

    The objective is separable per entry, so coordinate ascent lands on the
    analytic optimum g(a,b) = ln(pair/(C omega x omega)), clipped to [-40, 40],
    in one sweep. +inf when pair charges a zero of the reference product.
    """
    _check_same_alphabet(pair, omega, C)
    m = pair.alphabet.m
    if m > 3:
        raise ValueError(f"dual check is limited to m <= 3, got m={m}")
    clip = 40.0
    ref = C.values * np.outer(omega.weights, omega.weights)
    p = pair.weights
    if np.any((ref == 0.0) & (p > 0.0)):
        return math.inf

    g = np.full((m, m), -clip)
    for a in range(m):
        for b in range(m):
            if p[a, b] > 0.0:
                g[a, b] = min(max(math.log(p[a, b] / ref[a, b]), -clip), clip)
    value = float(np.sum(p * g) + np.sum(ref * (1.0 - np.exp(g))))
    return 0.5 * value
