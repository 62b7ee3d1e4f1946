"""Ensemble parameters and the latent-coordinate measure.

Latent coordinates x live on (-inf, r_n] with density gamma * exp(gamma * (x - r_n)).
The paper's unit-interval (u = exp(gamma * (x - r_n))) and Pareto
(y = sqrt(nu*n) * exp(-x)) forms are reparametrisations of the same ensemble,
so the library works in x alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class EnsembleParams:
    """One ensemble, fully determined by (gamma, nu, n).

    Attributes:
        gamma: power-law shape, > 1 (degree tail exponent is gamma + 1).
        nu: target expected average degree, > 0.
        n: graph size, >= 1.
    """

    gamma: float
    nu: float
    n: int

    def __post_init__(self):
        if not (self.gamma > 1.0) or not math.isfinite(self.gamma):
            raise DomainError(f"gamma must be finite and > 1, got {self.gamma}")
        if not (self.nu > 0.0) or not math.isfinite(self.nu):
            raise DomainError(f"nu must be finite and > 0, got {self.nu}")
        if self.n < 1 or self.n != int(self.n):
            raise DomainError(f"n must be a positive integer, got {self.n}")
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "n", int(self.n))

    @property
    def beta(self) -> float:
        """1 - 1/gamma, in (0, 1)."""
        return 1.0 - 1.0 / self.gamma

    @property
    def r_n(self) -> float:
        """Right end 0.5 * log(n / (beta**2 * nu)) of the exponential-coordinate support."""
        beta = self.beta
        return 0.5 * math.log(self.n / (beta * beta * self.nu))

    @property
    def pareto_scale(self) -> float:
        """Scale beta*nu of the limiting Pareto law of expected degrees."""
        return self.beta * self.nu


def derive_params(gamma: float, nu: float, n: int) -> EnsembleParams:
    """The validated ensemble (gamma, nu, n); its constants are properties."""
    return EnsembleParams(gamma=gamma, nu=nu, n=n)


def mu_n_quantile(p: EnsembleParams, u):
    """Inverse CDF: x = r_n + log(u) / gamma for u in (0, 1]."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr > 1.0):
        raise DomainError("quantile argument must lie in (0, 1]")
    out = p.r_n + np.log(u_arr) / p.gamma
    return out if out.ndim else float(out)
