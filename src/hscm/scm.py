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

from .errors import ConvergenceError, DomainError, SizeGuardError
from .graphon import _logistic_neg

_MAX_ITER = 200  # residual evaluations; sampled degree sequences need 4-5 Newton steps
_MIN_STEP = 2.0 ** -30  # the safeguard halves a Newton step at most 30 times
_BLOCK_ELEMENTS = 1 << 20  # pair probabilities hscm_to_scm holds at once
_MAX_CLASSES = 4096  # distinct degrees; the solver holds ~8 C x C float64 arrays


@dataclass(frozen=True)
class ScmInstance:
    """Expected degrees with solved multipliers and the achieved residual."""

    n: int
    expected_degrees: np.ndarray
    multipliers: np.ndarray
    residual: float


def solve_scm(k, tol: float = 1e-10) -> ScmInstance:
    """Solve the multiplier equations by Newton's method over degree classes.

    Nodes with equal target degree share a multiplier (the solution is
    unique), so there is one unknown per distinct degree v_a, of multiplicity
    m_a.  Each Newton step on the convex dual is halved until the residual
    max_i |sum_j p_ij - k_i| falls.  A singular Hessian or non-finite step, a
    step halved below 2**-30, or 200 residual evaluations without reaching
    tol raise ConvergenceError naming the residual.  More than 4096 distinct
    degrees raise SizeGuardError before any C x C array is allocated.
    """
    k = np.asarray(k, dtype=float)
    n = k.size
    if n < 2:
        raise DomainError("need at least two nodes")
    bad = ~((k > 0.0) & (k < n - 1))  # also flags NaN
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"expected degree k[{i}] = {k[i]} outside (0, n - 1) for n={n}")

    v, inverse, m = np.unique(k, return_inverse=True, return_counts=True)
    if v.size > _MAX_CLASSES:
        raise SizeGuardError(f"{v.size} distinct expected degrees exceed the solver's limit "
                             f"of {_MAX_CLASSES}: its work arrays would need "
                             f"{8 * 8 * v.size**2} bytes")
    m = m.astype(float)
    lam, step, t, res = np.log(np.sqrt(m @ v) / v), np.zeros(v.size), 0.0, np.inf
    for _ in range(_MAX_ITER):
        trial = lam + t * step
        p = _logistic_neg(trial[:, None] + trial[None, :])
        s = p @ m - np.diag(p)  # expected degree of each class
        trial_res = float(np.max(np.abs(s - v)))
        if trial_res >= res:  # safeguard: halve the step
            t *= 0.5
            if t < _MIN_STEP:
                raise ConvergenceError(f"Newton step stalled at residual {res:.3e} "
                                       f"(tol {tol:.1e})")
            continue
        lam, res = trial, trial_res
        if res < tol:
            return ScmInstance(n=n, expected_degrees=k.copy(), multipliers=lam[inverse],
                               residual=res)
        q = p * (1.0 - p)
        hess = np.outer(m, m) * q
        hess[np.diag_indices_from(hess)] += m * (q @ m - 2.0 * np.diag(q))
        try:
            step = np.linalg.solve(hess, m * (s - v))
        except np.linalg.LinAlgError:
            raise ConvergenceError(f"singular Newton system at residual {res:.3e}") from None
        if not np.all(np.isfinite(step)):
            raise ConvergenceError(f"non-finite Newton step at residual {res:.3e}")
        t = 1.0
    raise ConvergenceError(f"no convergence in {_MAX_ITER} iterations: residual {res:.3e} "
                           f"(tol {tol:.1e})")


def hscm_to_scm(x: np.ndarray) -> ScmInstance:
    """Freeze sampled coordinates x into a soft-configuration instance.

    Multipliers are the coordinates themselves (no solving); the
    induced edge probabilities equal the latent-conditional probabilities of
    the hypersoft ensemble exactly, and the reported expected degrees are
    their row sums, taken over row blocks of bounded size.
    """
    lam = np.asarray(x, dtype=float)
    rows = max(1, _BLOCK_ELEMENTS // lam.size)
    k = np.empty(lam.size)
    for start in range(0, lam.size, rows):
        block = _logistic_neg(lam[start:start + rows, None] + lam[None, :])
        i = np.arange(block.shape[0])
        block[i, start + i] = 0.0  # no self-pairs
        k[start:start + rows] = block.sum(axis=1)
    return ScmInstance(n=lam.size, expected_degrees=k, multipliers=lam.copy(),
                       residual=0.0)
