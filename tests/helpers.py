"""Shared test utilities: ambient test fields, convergence-order fits and the
dense monodromy oracle."""

from __future__ import annotations

import math

import numpy as np

from periflow import AmbientField, Propagator, mean_adjust


def ambient_x1() -> AmbientField:
    return AmbientField(
        fn=lambda p: p[..., 0],
        grad=lambda p: np.broadcast_to(np.array([1.0, 0.0]), p.shape).copy(),
        hess=lambda p: np.zeros(p.shape + (2,)),
    )


def ambient_x1x2() -> AmbientField:
    def hess(p):
        out = np.zeros(p.shape + (2,))
        out[..., 0, 1] = 1.0
        out[..., 1, 0] = 1.0
        return out

    return AmbientField(
        fn=lambda p: p[..., 0] * p[..., 1],
        grad=lambda p: np.stack([p[..., 1], p[..., 0]], axis=-1),
        hess=hess,
    )


def ambient_radius_sq() -> AmbientField:
    """|x|^2: constant on the unit circle, so both operator routes vanish."""
    return AmbientField(
        fn=lambda p: np.einsum("...a,...a->...", p, p),
        grad=lambda p: 2.0 * p,
        hess=lambda p: np.broadcast_to(2.0 * np.eye(2), p.shape + (2,)).copy(),
    )


def observed_orders(errors) -> list[float]:
    return [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


def mean_order(errors) -> float:
    orders = observed_orders(errors)
    return sum(orders) / len(orders)


def linear_part(prop: Propagator) -> np.ndarray:
    """The N x N matrix of the homogeneous end map, column j the end state of
    the j-th unit basis state."""
    n = prop.grid.n_nodes
    return np.column_stack(
        [prop.run(e, include_forcing=False, keep_trajectory=False) for e in np.eye(n)]
    )


def dense_monodromy(prop: Propagator, target_mean: float = 0.0) -> tuple[np.ndarray, float]:
    """Small-N oracle for `monodromy_solve`: the dense mean-reset end map
    assembled one unit basis state at a time, a direct solve of the
    fixed-point system and its smallest singular value.  Returns
    (trajectory, sigma_min)."""
    n = prop.grid.n_nodes
    weights0 = prop.geometry.weights[0]
    matrix = linear_part(prop)
    offset = prop.run(np.zeros(n), keep_trajectory=False)
    adjusted = matrix - np.outer(np.ones(n), weights0 @ matrix) / np.sum(weights0)
    system = np.eye(n) - adjusted
    rhs = mean_adjust(offset, weights0) + target_mean
    sigma_min = float(np.linalg.svd(system, compute_uv=False)[-1])
    return prop.run(np.linalg.solve(system, rhs)), sigma_min
