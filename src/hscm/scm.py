"""Soft configuration model: expected degrees -> Lagrange multipliers.

Edge probabilities have the Fermi-Dirac form p_ij = 1 / (exp(l_i + l_j) + 1)
(self-pairs excluded); the multipliers solve the per-node constraints

    sum_{j != i} p_ij = k_i,   i = 1..n.

The solution is the unique entropy maximizer for the given expected degrees.
Freezing sampled latent coordinates of the hypersoft ensemble yields such an
instance directly, with l_i = x_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .graphon import _logistic_neg

_MAX_ITER = 200  # residual evaluations; sampled degree sequences need 4-5 Newton steps
_MIN_STEP = 2.0 ** -30  # the safeguard halves a Newton step at most 30 times
_BAND = 2.0  # pairs with |l_a + l_b| < _BAND are summed directly
_TERMS = 18  # series terms; the first one left out is below 19 e^-38 < 1e-15
_SEGMENT = 30.0  # span of one cumulative-sum anchor: e^(18 (30 - 2)) < e^709
_PASS_ELEMENTS = 1 << 16  # values one vectorised pass holds when n is smaller
_CG_RTOL = 1e-12  # conjugate gradients stop once |residual| < _CG_RTOL |rhs|
_MIN_DEGREE = np.finfo(float).tiny  # a subnormal degree's Hessian diagonal underflows to 0


@dataclass(frozen=True)
class ScmInstance:
    """Expected degrees, multipliers, the residual and the solver's counters."""

    n: int
    expected_degrees: np.ndarray
    multipliers: np.ndarray
    residual: float
    residual_path: tuple[float, ...]
    cg_iterations: int


def _series_tail(mu, w, slope, start):
    """sum_{b >= start_a} w_b f(mu_a + mu_b) for sorted mu, where mu_a + mu_b >= _BAND.

    Term k of f(s) = sum_k (-1)^(k+1) k^slope e^(-ks) is e^(-k mu_a) times suffix
    sums of w_b e^(-k mu_b), each anchored at the first value of its segment of mu
    (at most _SEGMENT wide), so that no exponent exceeds 18 * 28 for any spread.
    """
    bounds = np.flatnonzero(np.diff((mu - mu[0]) // _SEGMENT, prepend=-1.0))
    ends = np.append(bounds[1:], mu.size)
    anchor = np.append(np.repeat(mu[bounds], ends - bounds), np.inf)  # per column
    rel, row = mu - anchor[:-1], mu + anchor[start]  # in [0, 30], and >= -28 or inf
    out, per_pass = np.zeros(mu.size), max(1, _PASS_ELEMENTS // mu.size)  # all 18 to n=3640
    for k0 in range(1, _TERMS + 1, per_pass):
        k = np.arange(k0, min(k0 + per_pass, _TERMS + 1), dtype=float)[:, None]
        suffix = np.pad(w * np.exp(-k * rel), ((0, 0), (0, 1)))
        for lo, hi in zip(bounds[::-1], ends[::-1]):  # carry the later segments, re-anchored
            suffix[:, hi - 1] += np.exp(-k[:, 0] * (anchor[hi] - anchor[lo])) * suffix[:, hi]
            np.cumsum(suffix[:, lo:hi][:, ::-1], axis=1, out=suffix[:, lo:hi][:, ::-1])
        term = np.exp(-k * row) * suffix[:, start]
        out += ((-1.0) ** (k[:, 0] + 1) * k[:, 0] ** slope) @ term
    return out


def pair_sums(lam, weights, slope):
    """sum_b w_b f(l_a + l_b) for every a, self-pair included, in O(n) memory.

    f is W, or q = W(1 - W) if slope.  Pairs with s >= 2 come from f's series,
    pairs with s <= -2 from W(s) = 1 - W(-s) (q is even), the rest directly.
    """
    lam = np.asarray(lam, dtype=float)
    order = np.argsort(lam, kind="stable")
    mu, w = lam[order], np.broadcast_to(np.asarray(weights, dtype=float), lam.shape)[order]
    hi = np.searchsorted(mu, _BAND - mu)
    lo = np.minimum(np.searchsorted(mu, -_BAND - mu, "right"), hi)  # crossed once |l| > 2^54
    total = _series_tail(mu, w, slope, hi)
    down = _series_tail(-mu[::-1], w[::-1], slope, lam.size - lo[::-1])[::-1]  # s <= -2
    total += down if slope else np.concatenate(([0.0], np.cumsum(w)))[lo] - down
    width = hi - lo
    before, r0 = np.cumsum(width) - width, 0  # band pairs of the rows before each row
    while r0 < lam.size:  # rows in chunks of about max(n, _PASS_ELEMENTS) band pairs
        r1 = int(np.searchsorted(before, before[r0] + max(lam.size, _PASS_ELEMENTS)))
        a = np.repeat(np.arange(r0, r1), width[r0:r1])
        b = lo[a] + np.arange(a.size) - before[a] + before[r0]
        f = _logistic_neg(mu[a] + mu[b]) * (_logistic_neg(-mu[a] - mu[b]) if slope else 1.0)
        total[r0:r1] += np.bincount(a - r0, w[b] * f, r1 - r0)
        r0 = r1
    return total[np.argsort(order)]


def _cg(matvec, jacobi, b):
    """Solve A x = b for symmetric positive definite A by conjugate gradients.

    Starts from x = 0 with the preconditioner diag(jacobi), and stops once
    ||r|| < _CG_RTOL ||b|| or after 10 n iterations, in the order of operations
    of scipy.sparse.linalg.cg.  Returns x and the number of iterations.
    """
    atol = _CG_RTOL * np.linalg.norm(b)
    if atol == 0.0:
        return b.copy(), 0
    x, r, p, rho_prev = np.zeros_like(b), b.copy(), None, None
    for iteration in range(10 * b.size):
        if np.linalg.norm(r) < atol:
            return x, iteration
        z = jacobi * r
        rho = np.dot(r, z)
        if not np.isfinite(rho):  # NaN never meets the stopping test; x + rho is not finite
            return x + rho, iteration
        p = z if p is None else p * (rho / rho_prev) + z
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, 10 * b.size


def solve_scm(k, tol: float = 1e-10) -> ScmInstance:
    """Solve the multiplier equations by Newton's method over degree classes.

    Nodes with equal target degree share a multiplier (the solution is unique),
    so there is one unknown per distinct degree.  Each Newton step on the convex
    dual comes from Jacobi-preconditioned conjugate gradients on the Hessian,
    applied through pair_sums, and is halved until max_i |sum_j p_ij - k_i|
    falls.  tol must be finite and > 0, and every degree a normal float
    below n - 1.  A non-finite step, a step halved below 2**-30, or 200
    residual evaluations without reaching tol raise ConvergenceError.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and > 0, not {tol}")
    k = np.asarray(k, dtype=float)
    n = k.size
    if n < 2:
        raise DomainError("need at least two nodes")
    bad = ~((k >= _MIN_DEGREE) & (k < n - 1))  # also flags NaN
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"expected degree k[{i}] = {k[i]} outside "
                          f"[{_MIN_DEGREE}, n - 1) for n={n}")

    v, inverse, m = np.unique(k, return_inverse=True, return_counts=True)
    where = f"(n={n}, {v.size} distinct degrees)"
    lam, step, t, res = np.log(np.sqrt(m @ v) / v), np.zeros(v.size), 0.0, np.inf
    path, cg_steps = [], 0
    for _ in range(_MAX_ITER):
        trial = lam + t * step
        s = pair_sums(trial, m, False) - _logistic_neg(2.0 * trial)  # degree of each class
        trial_res = float(np.max(np.abs(s - v)))
        if trial_res >= res:  # safeguard: halve the step
            t *= 0.5
            if t < _MIN_STEP:
                raise ConvergenceError(f"Newton step stalled at residual {res:.3e} "
                                       f"(tol {tol:.1e}) {where}")
            continue
        lam, res = trial, trial_res
        path.append(res)  # path[0] is the start point
        if res < tol:
            return ScmInstance(n, k.copy(), lam[inverse], res, tuple(path[1:]), cg_steps)
        q_self = _logistic_neg(2.0 * lam) * _logistic_neg(-2.0 * lam)
        diag = m * (pair_sums(lam, m, True) - 2.0 * q_self)
        # an infeasible sequence can zero the Hessian; the check below rejects the step
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            jacobi = 1.0 / (diag + m * m * q_self)  # inverse Hessian diagonal
            step, iterations = _cg(lambda u: m * pair_sums(lam, m * u, True) + diag * u,
                                   jacobi, m * (s - v))
        cg_steps += iterations
        if not np.all(np.isfinite(step)):
            raise ConvergenceError(f"non-finite Newton step at residual {res:.3e} {where}")
        t = 1.0
    raise ConvergenceError(f"no convergence in {_MAX_ITER} iterations: residual {res:.3e} "
                           f"(tol {tol:.1e}) {where}")


def hscm_to_scm(x: np.ndarray) -> ScmInstance:
    """Freeze sampled coordinates x into an SCM instance: its multipliers are x (no
    solving) and its expected degrees the row sums of the ensemble's edge probabilities."""
    lam = np.asarray(x, dtype=float)
    k = pair_sums(lam, 1.0, False) - _logistic_neg(2.0 * lam)
    return ScmInstance(lam.size, k, lam.copy(), 0.0, (), 0)
