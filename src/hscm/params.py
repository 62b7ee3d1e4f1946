"""Ensemble parameters, the latent-coordinate measure, and coordinate transforms.

The model lives on three equivalent coordinate systems:

* exponential:   x on (-inf, r_n], latent density  gamma * exp(gamma * (x - r_n)),
* unit interval: u on (0, 1], uniform,
* Pareto:        y on [beta*nu, inf), density  gamma * (beta*nu)**gamma * y**-(gamma+1),

joined by the bijections  u = exp(gamma * (x - r_n))  and  y = sqrt(nu*n) * exp(-x).
The Pareto map is fixed so that exp(x_i + x_j) == nu*n / (y_i * y_j) holds exactly,
so the connection probability of a pair is the same in all three representations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


class Representation(enum.Enum):
    """Coordinate system a latent sample is expressed in."""

    EXPONENTIAL = "exponential"
    UNIT_INTERVAL = "unit_interval"
    PARETO = "pareto"


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


# Support membership: tolerances absorb round-trip floating-point noise.
_SUPPORT_RTOL = 1e-9


def in_support(p: EnsembleParams, x, rep: Representation):
    """Elementwise test that coordinates lie in the support of a representation."""
    x = np.asarray(x, dtype=float)
    if rep is Representation.EXPONENTIAL:
        ok = x <= p.r_n + _SUPPORT_RTOL * max(1.0, abs(p.r_n))
    elif rep is Representation.UNIT_INTERVAL:
        ok = (x > 0.0) & (x <= 1.0 + _SUPPORT_RTOL)
    elif rep is Representation.PARETO:
        lo = p.pareto_scale
        ok = x >= lo * (1.0 - _SUPPORT_RTOL)
    else:  # pragma: no cover - enum is closed
        raise DomainError(f"unknown representation {rep}")
    return ok if ok.ndim else bool(ok)


def _to_exponential(p: EnsembleParams, x, rep: Representation):
    if rep is Representation.EXPONENTIAL:
        return x
    if rep is Representation.UNIT_INTERVAL:
        return p.r_n + np.log(x) / p.gamma
    # Pareto: y = sqrt(nu*n) * exp(-x)  =>  x = 0.5*log(nu*n) - log(y)
    return 0.5 * math.log(p.nu * p.n) - np.log(x)


def _from_exponential(p: EnsembleParams, x, rep: Representation):
    if rep is Representation.EXPONENTIAL:
        return x
    if rep is Representation.UNIT_INTERVAL:
        return np.exp(p.gamma * (np.asarray(x, dtype=float) - p.r_n))
    return np.exp(0.5 * math.log(p.nu * p.n) - np.asarray(x, dtype=float))


def convert_coordinate(p: EnsembleParams, x, src: Representation, dst: Representation):
    """Convert coordinates between representations; inputs must lie in src's support.

    The exponential representation is the hub; all six directed conversions
    compose to the identity up to floating-point round-off.
    """
    x_arr = np.asarray(x, dtype=float)
    ok = in_support(p, x_arr, src)
    if not np.all(ok):
        bad = x_arr[~np.asarray(ok, dtype=bool)] if x_arr.ndim else x_arr
        raise DomainError(f"coordinate {bad} outside the {src.value} support")
    out = _from_exponential(p, _to_exponential(p, x_arr, src), dst)
    out = np.asarray(out, dtype=float)
    return out if np.ndim(x) else float(out)
