"""The parameter grid, the shape check of sampled fields and the closed-form
ambient fields of the identity checks.

Space is discretized by ``N`` equispaced parameter values ``theta_i = 2*pi*i/N``
on a periodic grid, time by ``M+1`` equispaced levels spanning one period
``[0, T]``.  Sampled fields are plain arrays: a state is an ``(N,)`` array,
a trajectory or a sampled forcing an ``(M+1, N)`` array with one row per
level of ``ParameterGrid.times``, and a measure the ``(N,)`` row of
quadrature weights of one level (see ``metric``).  The stepper, the
operators, the ledgers and the lift check the full shape of such an array
through ``_require_shape``, so a wrong shape raises ``GridMismatchError``
instead of broadcasting.  A closed form on the plane is an ``AmbientField``;
a field on the curve, and its exact theta derivatives, are sampled arrays
(see ``surfaces.commutator_check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridMismatchError

_NOISE_MODES = 4  # Fourier modes of `fourier_noise`


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


def _require_shape(values, shape: tuple[int, ...], quantity: str) -> np.ndarray:
    """`values` as a float array of exactly `shape`, or GridMismatchError
    naming the quantity and both shapes."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise GridMismatchError(f"{quantity} of shape {values.shape} does not match {shape}")
    return values


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


def fourier_noise(theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Deterministic smooth random field: Fourier sum of the modes 1..4 with
    decaying coefficients drawn from `rng`."""
    out = np.zeros_like(theta)
    for k in range(1, _NOISE_MODES + 1):
        a, b = rng.normal(size=2) / (1.0 + k * k)
        out += a * np.cos(k * theta) + b * np.sin(k * theta)
    return out
