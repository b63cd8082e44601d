"""The parameter grid and the closed-form fields used by every solver module.

Space is discretized by ``N`` equispaced parameter values ``theta_i = 2*pi*i/N``
on a periodic grid, time by ``M+1`` equispaced levels spanning one period
``[0, T]``.  Sampled fields are plain arrays: a state is an ``(N,)`` array,
a trajectory or a sampled forcing an ``(M+1, N)`` array with one row per
level of ``ParameterGrid.times``, and a measure the ``(N,)`` row of
quadrature weights of one level (see ``metric``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ParameterGrid:
    """Equispaced periodic parameter grid and uniform time levels."""

    n_nodes: int
    n_steps: int
    period: float

    def __post_init__(self):
        if self.n_nodes < 8:
            raise ValueError(f"n_nodes must be >= 8, got {self.n_nodes}")
        if self.n_steps < 4:
            raise ValueError(f"n_steps must be >= 4, got {self.n_steps}")
        if self.period <= 0.0:
            raise ValueError(f"period must be positive, got {self.period}")

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_nodes) * (2.0 * np.pi / self.n_nodes)

    @property
    def times(self) -> np.ndarray:
        # linspace pins the final level to exactly `period`
        return np.linspace(0.0, self.period, self.n_steps + 1)

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.n_nodes

    @property
    def dt(self) -> float:
        return self.period / self.n_steps


@dataclass(frozen=True)
class AnalyticField:
    """Closed-form field ``u(theta, t)`` with optional exact derivatives.

    Operator-identity diagnostics use the derivative closures when present;
    otherwise callers fall back to discrete differencing.
    """

    fn: Callable[[np.ndarray, float], np.ndarray]
    dtheta: Callable[[np.ndarray, float], np.ndarray] | None = None
    dtheta2: Callable[[np.ndarray, float], np.ndarray] | None = None
    dt: Callable[[np.ndarray, float], np.ndarray] | None = None

    def sample(self, theta: np.ndarray, t: float) -> np.ndarray:
        return np.asarray(self.fn(theta, t), dtype=float) + np.zeros_like(theta)


@dataclass(frozen=True)
class AmbientField:
    """Closed-form field on the ambient plane with gradient and Hessian.

    `fn` maps points of shape (..., 2) to values (...,), `grad` to (..., 2)
    and `hess` to (..., 2, 2).  Used wherever a surface quantity needs an
    evaluation that is independent of the parameter-grid discretization.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


def fourier_noise(theta: np.ndarray, rng: np.random.Generator, kmax: int = 4) -> np.ndarray:
    """Deterministic smooth random field: low-order Fourier sum with decaying
    coefficients drawn from `rng`."""
    out = np.zeros_like(theta)
    for k in range(1, kmax + 1):
        a, b = rng.normal(size=2) / (1.0 + k * k)
        out += a * np.cos(k * theta) + b * np.sin(k * theta)
    return out
