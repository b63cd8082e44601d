"""Periodically moving closed curves with exact tangential calculus.

A family is described by one jet: a function returning the global periodic
chart ``X(theta, t)`` on ``theta in [0, 2*pi)`` together with its exact
derivatives ``(X, X_theta, X_theta_theta, X_t, X_t_theta)``.  For ``N``
parameters each output has shape ``(N, 2)`` when ``t`` is a float, and
``(L, N, 2)`` when ``t`` is an ``(L, 1)`` column of times, whose row ``k``
equals the float call at ``t[k, 0]``.  All frame quantities (unit normal,
Weingarten map, mixed velocity derivative) are evaluated from the jet, so
operator-identity diagnostics are limited only by round-off, not by a
differencing scheme.

Shipped families
----------------
``circle(radius)``                stationary circle
``breathing_circle(amplitude)``   r(t) = r0 * (1 + a*sin(2*pi*t/T))
``rotating_ellipse(a, b)``        rigid rotation through one full turn per period
``bean(...)``                     nonconvex pulsating bean-shaped curve

Time enters every shipped chart through the wrapped phase
``2*pi*((t/T) mod 1)`` so that the motion is periodic to the last bit:
``X(., 0) == X(., T)`` holds exactly in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateSurfaceError
from .fields import ParameterGrid, _require_shape

_IMMERSION_FLOOR = 1e-12


@dataclass(frozen=True)
class SurfaceFamily:
    """Analytic description of a moving closed curve.

    ``jet(theta, t)`` returns ``(X, X_theta, X_theta_theta, X_t, X_t_theta)``
    as described in the module docstring.  The normal points outward for
    either orientation of the chart: `orientation_sign` reads it from the
    signed enclosed area (counterclockwise charts get sign +1).
    """

    name: str
    jet: Callable[..., tuple[np.ndarray, ...]]
    period: float

    def __post_init__(self):
        if self.period <= 0.0:
            raise ValueError("period must be positive")


@dataclass(frozen=True)
class GeometryFrame:
    """Frame quantities of one time slice, evaluated at the grid nodes."""

    theta: np.ndarray  # (N,)
    position: np.ndarray  # (N, 2)
    tangent: np.ndarray  # (N, 2) unit tangent
    normal: np.ndarray  # (N, 2) outward unit normal
    speed: np.ndarray  # (N,)   |X_theta|
    speed_dtheta: np.ndarray  # (N,)   d|X_theta|/dtheta
    curvature: np.ndarray  # (N,)   signed curvature w.r.t. the outward normal
    velocity_dtheta: np.ndarray  # (N, 2) mixed derivative X_{t theta}

    @property
    def n_nodes(self) -> int:
        return self.theta.shape[0]

    @property
    def weingarten(self) -> np.ndarray:
        """Extended Weingarten map H = kappa * tau (x) tau, shape (N, 2, 2)."""
        return self.curvature[:, None, None] * np.einsum(
            "ia,ib->iab", self.tangent, self.tangent
        )


def _phase(t, period: float):
    # exact periodicity: t = period wraps to phase 0.0
    return math.tau * np.remainder(t / period, 1.0)


def _polar_jet(c, s, r, r_th, r_thth, r_t, r_tth):
    """Jet of the polar chart r(theta, t) * (c, s) from the jet of its radius,
    where ``c, s = cos theta, sin theta`` come from the caller, which may
    need them for the radius too."""

    def d_theta(f, f_th):  # d/dtheta of f * (cos, sin)
        return np.stack([f_th * c - f * s, f_th * s + f * c], axis=-1)

    x_thth = np.stack(
        [r_thth * c - 2 * r_th * s - r * c, r_thth * s + 2 * r_th * c - r * s], axis=-1
    )
    return (np.stack([r * c, r * s], axis=-1), d_theta(r, r_th), x_thth,
            np.stack([r_t * c, r_t * s], axis=-1), d_theta(r_t, r_tth))


def circle(radius: float = 1.0, period: float = 1.0) -> SurfaceFamily:
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")

    def jet(th, t):
        zero = np.zeros(np.shape(t))
        return _polar_jet(np.cos(th), np.sin(th), zero + float(radius), zero, zero, zero, zero)

    return SurfaceFamily("circle", jet, period)


def breathing_circle(amplitude: float = 0.25, period: float = 1.0, r0: float = 1.0) -> SurfaceFamily:
    a, T = float(amplitude), float(period)
    if not 0.0 <= a < 1.0:
        raise ValueError("amplitude must lie in [0, 1)")
    if not r0 > 0.0:
        raise ValueError(f"r0 must be positive, got {r0!r}")

    def jet(th, t):
        phi, zero = _phase(t, T), np.zeros(np.shape(t))
        r = r0 * (1.0 + a * np.sin(phi))
        r_t = r0 * a * np.cos(phi) * math.tau / T
        return _polar_jet(np.cos(th), np.sin(th), r, zero, zero, r_t, zero)

    return SurfaceFamily("breathing_circle", jet, T)


def rotating_ellipse(a: float = 2.0, b: float = 1.0, period: float = 1.0) -> SurfaceFamily:
    a, b, T = float(a), float(b), float(period)
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"semi-axes a and b must be positive, got a={a!r}, b={b!r}")

    def jet(th, t):
        phi = _phase(t, T)
        c, s = np.cos(phi), np.sin(phi)
        # transposed rotation and its time derivative, stacked over the time axes
        rot_tr = np.moveaxis(np.array([[c, s], [-s, c]]), (0, 1), (-2, -1))
        drot_tr = (math.tau / T) * np.moveaxis(np.array([[-s, c], [-c, -s]]), (0, 1), (-2, -1))
        cos_th, sin_th = np.cos(th), np.sin(th)
        base = np.stack([a * cos_th, b * sin_th], axis=-1)
        base_dth = np.stack([-a * sin_th, b * cos_th], axis=-1)
        # matmuls, since written-out products round differently; an (L, 1)
        # column gives (L, 1, N, 2), reshaped to (L, N, 2)
        shape = np.broadcast_shapes(np.shape(th), np.shape(t)) + (2,)
        pairs = ((base, rot_tr), (base_dth, rot_tr), (-base, rot_tr),
                 (base, drot_tr), (base_dth, drot_tr))
        return tuple((v @ m).reshape(shape) for v, m in pairs)

    return SurfaceFamily("rotating_ellipse", jet, T)


def bean(
    period: float = 1.0,
    dent: float = 0.22,
    pulse: float = 0.35,
    skew: float = 0.13,
) -> SurfaceFamily:
    """Nonconvex pulsating curve r(theta, t)*(cos theta, sin theta)."""
    T = float(period)
    p, q, s = float(dent), float(pulse), float(skew)

    def jet(th, t):
        phi = _phase(t, T)
        swell, rate = 1.0 + q * np.sin(phi), np.cos(phi)
        cos_th, sin_th, cos_2th, sin_2th = np.cos(th), np.sin(th), np.cos(2 * th), np.sin(2 * th)
        return _polar_jet(
            cos_th,
            sin_th,
            1.0 + p * cos_th * swell + s * sin_2th,
            -p * sin_th * swell + 2 * s * cos_2th,
            -p * cos_th * swell - 4 * s * sin_2th,
            p * cos_th * q * rate * math.tau / T,
            -p * sin_th * q * rate * math.tau / T,
        )

    return SurfaceFamily("bean", jet, T)


FAMILIES: dict[str, Callable[..., SurfaceFamily]] = {
    "circle": circle,
    "breathing": breathing_circle,
    "ellipse": rotating_ellipse,
    "bean": bean,
}


def orientation_sign(positions: np.ndarray) -> float:
    """Sign turning the rotated unit tangent into the outward normal: the sign
    of the shoelace area of the (P, 2) node polygon."""
    area = 0.5 * np.sum(
        positions[:, 0] * np.roll(positions[:, 1], -1)
        - np.roll(positions[:, 0], -1) * positions[:, 1]
    )
    return 1.0 if area >= 0.0 else -1.0


def _frame_pieces(xd: np.ndarray, xdd: np.ndarray, sign: float, t: float):
    """Speed, unit tangent, outward normal and signed curvature from X_theta and
    X_theta_theta of shape (P, 2); rejects a failed immersion condition,
    naming the node of the smallest speed."""
    speed = np.linalg.norm(xd, axis=-1)
    node = int(np.argmin(speed))
    if speed[node] < _IMMERSION_FLOOR:
        raise DegenerateSurfaceError(
            f"|X_theta| = {speed[node]:.3e} below immersion threshold at t={t}, node {node}"
        )
    tangent = xd / speed[..., None]
    normal = sign * np.stack([tangent[..., 1], -tangent[..., 0]], axis=-1)
    curvature = -np.einsum("...a,...a->...", normal, xdd) / speed**2
    return speed, tangent, normal, curvature


def build_frame(surface: SurfaceFamily, grid: ParameterGrid, t: float) -> GeometryFrame:
    """Evaluate position, outward normal, curvature and the mixed velocity
    derivative at time t.

    Raises DegenerateSurfaceError when the immersion condition fails.
    """
    theta = grid.nodes
    pos, xd, xdd, _, vel_dth = surface.jet(theta, t)
    sign = orientation_sign(pos)
    speed, tangent, normal, curvature = _frame_pieces(xd, xdd, sign, t)
    speed_dtheta = np.einsum("ia,ia->i", xd, xdd) / speed
    return GeometryFrame(theta, pos, tangent, normal, speed, speed_dtheta, curvature, vel_dth)


def _theta_derivative(values: np.ndarray, dtheta: float) -> np.ndarray:
    """Second-order central difference on the periodic grid (along axis 0)."""
    return (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2.0 * dtheta)


def tangential_gradient(frame: GeometryFrame, values: np.ndarray) -> np.ndarray:
    """Surface gradient in ambient components, shape (N, 2).

    For a curve this is ``(dU/dtheta / |X_theta|) * tau``, with dU/dtheta by
    second-order central differences on the periodic grid.
    """
    values = _require_shape(values, (frame.n_nodes,), "field")
    arc_derivative = _theta_derivative(values, 2.0 * np.pi / frame.n_nodes) / frame.speed
    return arc_derivative[:, None] * frame.tangent


def second_tangential_derivative(frame: GeometryFrame, grad: np.ndarray) -> np.ndarray:
    """D_alpha of an ambient-component field on the curve, shape (N, 2, 2).

    ``result[i, a, b] = D_a (grad_b)`` at node i, by central differences.
    """
    arc = _theta_derivative(grad, 2.0 * np.pi / frame.n_nodes) / frame.speed[:, None]
    return np.einsum("ia,ib->iab", frame.tangent, arc)


def _commutator_residual(frame: GeometryFrame, grad: np.ndarray, second: np.ndarray) -> float:
    """``max_i max_{a,b} |D_a D_b f - D_b D_a f - (H_{b e} nu_a - H_{a e} nu_b) D_e f|``
    from the (N, 2) gradient ``D_e f`` and the (N, 2, 2) second derivatives
    ``second[i, a, b] = D_a D_b f``."""
    H = frame.weingarten
    nu = frame.normal
    rhs = np.einsum("ibe,ia,ie->iab", H, nu, grad) - np.einsum(
        "iae,ib,ie->iab", H, nu, grad
    )
    lhs = second - np.transpose(second, (0, 2, 1))
    return float(np.max(np.abs(lhs - rhs)))


def commutator_check(frame: GeometryFrame, u_th: np.ndarray, u_th2: np.ndarray) -> float:
    """Residual of the second-derivative commutator identity for a field
    given by its exact first and second theta derivatives `u_th` and `u_th2`
    at the (N,) nodes of `frame`.

    The tangential derivatives follow from them and the exact frame, so the
    residual is round-off.
    """
    u_th = _require_shape(u_th, (frame.n_nodes,), "theta derivative")
    u_th2 = _require_shape(u_th2, (frame.n_nodes,), "second theta derivative")
    arc = u_th / frame.speed
    grad = arc[:, None] * frame.tangent
    # d/dtheta of (tau_b * U_s) from exact pieces:
    #   tau_theta = -kappa * |X_theta| * nu,   U_s' = U_tt/|X'| - U_t |X'|'/|X'|^2
    arc_dth = u_th2 / frame.speed - u_th * frame.speed_dtheta / frame.speed**2
    tau_dth = -frame.curvature[:, None] * frame.speed[:, None] * frame.normal
    grad_dth = tau_dth * arc[:, None] + frame.tangent * arc_dth[:, None]
    second = np.einsum("ia,ib->iab", frame.tangent, grad_dth / frame.speed[:, None])
    return _commutator_residual(frame, grad, second)
