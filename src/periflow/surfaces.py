"""Periodically moving closed curves with exact tangential calculus.

A family is described by a global periodic chart ``X(theta, t)`` on
``theta in [0, 2*pi)`` together with exact derivative closures.  All frame
quantities (unit normal, projection, Weingarten map, velocity) are evaluated
from those closures, so operator-identity diagnostics are limited only by
round-off, not by a differencing scheme.

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

from .errors import DegenerateSurfaceError, GridMismatchError
from .fields import AnalyticField, ParameterGrid

ChartFn = Callable[[np.ndarray, float], np.ndarray]

_IMMERSION_FLOOR = 1e-12


@dataclass(frozen=True)
class SurfaceFamily:
    """Analytic description of a moving closed curve.

    The chart and its derivatives map ``(theta, t)`` with ``theta`` of shape
    (N,) to points of shape (N, 2).  ``outward_sign`` pins the normal
    orientation; ``None`` selects the outward normal automatically from the
    signed enclosed area (counterclockwise charts get sign +1).
    """

    name: str
    chart: ChartFn
    chart_dtheta: ChartFn
    chart_dtheta2: ChartFn
    chart_dt: ChartFn
    chart_dt_dtheta: ChartFn
    period: float
    outward_sign: int | None = None

    def __post_init__(self):
        if self.period <= 0.0:
            raise ValueError("period must be positive")

    def positions(self, theta: np.ndarray, t: float) -> np.ndarray:
        return np.asarray(self.chart(theta, t), dtype=float)

    def time_reversed(self) -> "SurfaceFamily":
        """Family traversing the same shapes backwards in time."""
        T = self.period
        return SurfaceFamily(
            name=f"{self.name}-reversed",
            chart=lambda th, t: self.chart(th, T - t),
            chart_dtheta=lambda th, t: self.chart_dtheta(th, T - t),
            chart_dtheta2=lambda th, t: self.chart_dtheta2(th, T - t),
            chart_dt=lambda th, t: -np.asarray(self.chart_dt(th, T - t)),
            chart_dt_dtheta=lambda th, t: -np.asarray(self.chart_dt_dtheta(th, T - t)),
            period=T,
            outward_sign=self.outward_sign,
        )


@dataclass(frozen=True)
class GeometryFrame:
    """Frame quantities of one time slice, evaluated at the grid nodes."""

    theta: np.ndarray  # (N,)
    time: float
    position: np.ndarray  # (N, 2)
    tangent: np.ndarray  # (N, 2) unit tangent
    normal: np.ndarray  # (N, 2) outward unit normal
    speed: np.ndarray  # (N,)   |X_theta|
    speed_dtheta: np.ndarray  # (N,)   d|X_theta|/dtheta
    curvature: np.ndarray  # (N,)   signed curvature w.r.t. the outward normal
    velocity: np.ndarray  # (N, 2) chart velocity X_t
    velocity_dtheta: np.ndarray  # (N, 2) mixed derivative X_{t theta}

    @property
    def n_nodes(self) -> int:
        return self.theta.shape[0]

    @property
    def projection(self) -> np.ndarray:
        """Tangential projector P = 1 - nu (x) nu, shape (N, 2, 2)."""
        eye = np.eye(2)[None, :, :]
        return eye - np.einsum("ia,ib->iab", self.normal, self.normal)

    @property
    def weingarten(self) -> np.ndarray:
        """Extended Weingarten map H = kappa * tau (x) tau, shape (N, 2, 2)."""
        return self.curvature[:, None, None] * np.einsum(
            "ia,ib->iab", self.tangent, self.tangent
        )


def _phase(t: float, period: float) -> float:
    # exact periodicity: t = period wraps to phase 0.0
    return math.tau * ((t / period) % 1.0)


def circle(radius: float = 1.0, period: float = 1.0) -> SurfaceFamily:
    r = float(radius)

    def ch(th, t):
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)

    def dth(th, t):
        return np.stack([-r * np.sin(th), r * np.cos(th)], axis=-1)

    def dth2(th, t):
        return np.stack([-r * np.cos(th), -r * np.sin(th)], axis=-1)

    zero = lambda th, t: np.zeros(np.shape(th) + (2,))
    return SurfaceFamily("circle", ch, dth, dth2, zero, zero, period)


def breathing_circle(amplitude: float = 0.25, period: float = 1.0, r0: float = 1.0) -> SurfaceFamily:
    a, T = float(amplitude), float(period)
    if not 0.0 <= a < 1.0:
        raise ValueError("amplitude must lie in [0, 1)")

    def radius(t):
        return r0 * (1.0 + a * math.sin(_phase(t, T)))

    def radius_dt(t):
        return r0 * a * math.cos(_phase(t, T)) * math.tau / T

    def ch(th, t):
        return radius(t) * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def dth(th, t):
        return radius(t) * np.stack([-np.sin(th), np.cos(th)], axis=-1)

    def dth2(th, t):
        return -radius(t) * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def dt(th, t):
        return radius_dt(t) * np.stack([np.cos(th), np.sin(th)], axis=-1)

    def dtth(th, t):
        return radius_dt(t) * np.stack([-np.sin(th), np.cos(th)], axis=-1)

    return SurfaceFamily("breathing_circle", ch, dth, dth2, dt, dtth, T)


def rotating_ellipse(a: float = 2.0, b: float = 1.0, period: float = 1.0) -> SurfaceFamily:
    a, b, T = float(a), float(b), float(period)

    def pieces(th, t):
        phi = _phase(t, T)
        c, s = math.cos(phi), math.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        drot = (math.tau / T) * np.array([[-s, -c], [c, -s]])
        base = np.stack([a * np.cos(th), b * np.sin(th)], axis=-1)
        base_dth = np.stack([-a * np.sin(th), b * np.cos(th)], axis=-1)
        base_dth2 = -base
        return rot, drot, base, base_dth, base_dth2

    def ch(th, t):
        rot, _, base, _, _ = pieces(th, t)
        return base @ rot.T

    def dth(th, t):
        rot, _, _, base_dth, _ = pieces(th, t)
        return base_dth @ rot.T

    def dth2(th, t):
        rot, _, _, _, base_dth2 = pieces(th, t)
        return base_dth2 @ rot.T

    def dt(th, t):
        _, drot, base, _, _ = pieces(th, t)
        return base @ drot.T

    def dtth(th, t):
        _, drot, _, base_dth, _ = pieces(th, t)
        return base_dth @ drot.T

    return SurfaceFamily("rotating_ellipse", ch, dth, dth2, dt, dtth, T)


def bean(
    period: float = 1.0,
    dent: float = 0.22,
    pulse: float = 0.35,
    skew: float = 0.13,
) -> SurfaceFamily:
    """Nonconvex pulsating curve r(theta, t)*(cos theta, sin theta)."""
    T = float(period)
    p, q, s = float(dent), float(pulse), float(skew)

    def rho(th, t):
        return 1.0 + p * np.cos(th) * (1.0 + q * math.sin(_phase(t, T))) + s * np.sin(2 * th)

    def rho_dth(th, t):
        return -p * np.sin(th) * (1.0 + q * math.sin(_phase(t, T))) + 2 * s * np.cos(2 * th)

    def rho_dth2(th, t):
        return -p * np.cos(th) * (1.0 + q * math.sin(_phase(t, T))) - 4 * s * np.sin(2 * th)

    def rho_dt(th, t):
        return p * np.cos(th) * q * math.cos(_phase(t, T)) * math.tau / T

    def rho_dt_dth(th, t):
        return -p * np.sin(th) * q * math.cos(_phase(t, T)) * math.tau / T

    def _embed(r, rd, th):
        c, sn = np.cos(th), np.sin(th)
        return np.stack([r * c, r * sn], axis=-1), np.stack([rd * c - r * sn, rd * sn + r * c], axis=-1)

    def ch(th, t):
        return _embed(rho(th, t), rho_dth(th, t), th)[0]

    def dth(th, t):
        return _embed(rho(th, t), rho_dth(th, t), th)[1]

    def dth2(th, t):
        r, rd, rdd = rho(th, t), rho_dth(th, t), rho_dth2(th, t)
        c, sn = np.cos(th), np.sin(th)
        return np.stack(
            [rdd * c - 2 * rd * sn - r * c, rdd * sn + 2 * rd * c - r * sn], axis=-1
        )

    def dt(th, t):
        rt = rho_dt(th, t)
        return np.stack([rt * np.cos(th), rt * np.sin(th)], axis=-1)

    def dtth(th, t):
        rt, rtd = rho_dt(th, t), rho_dt_dth(th, t)
        c, sn = np.cos(th), np.sin(th)
        return np.stack([rtd * c - rt * sn, rtd * sn + rt * c], axis=-1)

    return SurfaceFamily("bean", ch, dth, dth2, dt, dtth, T)


FAMILIES: dict[str, Callable[..., SurfaceFamily]] = {
    "circle": circle,
    "breathing": breathing_circle,
    "ellipse": rotating_ellipse,
    "bean": bean,
}


def orientation_sign(surface: SurfaceFamily, positions: np.ndarray) -> float:
    """Sign turning the rotated unit tangent into the outward normal: the pinned
    `outward_sign`, else the sign of the shoelace area of the node polygon."""
    if surface.outward_sign is not None:
        return float(surface.outward_sign)
    area = 0.5 * np.sum(
        positions[:, 0] * np.roll(positions[:, 1], -1)
        - np.roll(positions[:, 0], -1) * positions[:, 1]
    )
    return 1.0 if area >= 0.0 else -1.0


def _frame_pieces(xd: np.ndarray, xdd: np.ndarray, sign: float, t: float):
    """Speed, unit tangent, outward normal and signed curvature from X_theta and
    X_theta_theta of shape (..., 2); rejects a failed immersion condition."""
    speed = np.linalg.norm(xd, axis=-1)
    if np.min(speed) < _IMMERSION_FLOOR:
        raise DegenerateSurfaceError(
            f"|chart_dtheta| = {np.min(speed):.3e} below immersion threshold at t={t}"
        )
    tangent = xd / speed[..., None]
    normal = sign * np.stack([tangent[..., 1], -tangent[..., 0]], axis=-1)
    curvature = -np.einsum("...a,...a->...", normal, xdd) / speed**2
    return speed, tangent, normal, curvature


def build_frame(surface: SurfaceFamily, grid: ParameterGrid, t: float) -> GeometryFrame:
    """Evaluate position, outward normal, curvature and velocity at time t.

    Raises DegenerateSurfaceError when the immersion condition fails.
    """
    theta = grid.nodes
    pos = surface.positions(theta, t)
    xd = np.asarray(surface.chart_dtheta(theta, t), dtype=float)
    xdd = np.asarray(surface.chart_dtheta2(theta, t), dtype=float)
    vel = np.asarray(surface.chart_dt(theta, t), dtype=float)
    vel_dth = np.asarray(surface.chart_dt_dtheta(theta, t), dtype=float)

    sign = orientation_sign(surface, pos)
    speed, tangent, normal, curvature = _frame_pieces(xd, xdd, sign, t)
    speed_dtheta = np.einsum("ia,ia->i", xd, xdd) / speed
    return GeometryFrame(
        theta, float(t), pos, tangent, normal, speed, speed_dtheta, curvature, vel, vel_dth
    )


def _theta_derivative(values: np.ndarray, dtheta: float) -> np.ndarray:
    """Second-order central difference on the periodic grid (along axis 0)."""
    return (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2.0 * dtheta)


def tangential_gradient(
    frame: GeometryFrame,
    values: np.ndarray,
    dtheta_values: np.ndarray | None = None,
) -> np.ndarray:
    """Surface gradient in ambient components, shape (N, 2).

    For a curve this is ``(dU/dtheta / |X_theta|) * tau``.  Exact nodal
    theta-derivatives are used when supplied, otherwise second-order central
    differences on the periodic grid.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] != frame.n_nodes:
        raise GridMismatchError(
            f"field has {values.shape[0]} nodes, frame has {frame.n_nodes}"
        )
    if dtheta_values is None:
        dtheta_values = _theta_derivative(values, 2.0 * np.pi / frame.n_nodes)
    arc_derivative = dtheta_values / frame.speed
    return arc_derivative[:, None] * frame.tangent


def second_tangential_derivative(frame: GeometryFrame, grad: np.ndarray) -> np.ndarray:
    """D_alpha of an ambient-component field on the curve, shape (N, 2, 2).

    ``result[i, a, b] = D_a (grad_b)`` at node i, by central differences.
    """
    arc = _theta_derivative(grad, 2.0 * np.pi / frame.n_nodes) / frame.speed[:, None]
    return np.einsum("ia,ib->iab", frame.tangent, arc)


def commutator_check(
    frame: GeometryFrame,
    field: AnalyticField | np.ndarray,
) -> float:
    """Residual of the second-derivative commutator identity.

    Returns ``max_i max_{a,b} |D_a D_b f - D_b D_a f -
    (H_{b e} nu_a - H_{a e} nu_b) D_e f|``.  Exact chart/field derivatives
    are used when the field is analytic with closures, discrete central
    differences otherwise.
    """
    theta, t = frame.theta, frame.time
    if isinstance(field, AnalyticField) and field.dtheta is not None and field.dtheta2 is not None:
        u_th = np.asarray(field.dtheta(theta, t), dtype=float) + np.zeros_like(theta)
        u_th2 = np.asarray(field.dtheta2(theta, t), dtype=float) + np.zeros_like(theta)
        arc = u_th / frame.speed
        grad = arc[:, None] * frame.tangent
        # d/dtheta of (tau_b * U_s) from exact pieces:
        #   tau_theta = -kappa * |X_theta| * nu,   U_s' = U_tt/|X'| - U_t |X'|'/|X'|^2
        arc_dth = u_th2 / frame.speed - u_th * frame.speed_dtheta / frame.speed**2
        tau_dth = -frame.curvature[:, None] * frame.speed[:, None] * frame.normal
        grad_dth = tau_dth * arc[:, None] + frame.tangent * arc_dth[:, None]
        second = np.einsum("ia,ib->iab", frame.tangent, grad_dth / frame.speed[:, None])
    else:
        grad = tangential_gradient(frame, field)
        second = second_tangential_derivative(frame, grad)

    H = frame.weingarten
    nu = frame.normal
    rhs = np.einsum("ibe,ia,ie->iab", H, nu, grad) - np.einsum(
        "iae,ib,ie->iab", H, nu, grad
    )
    lhs = second - np.transpose(second, (0, 2, 1))
    return float(np.max(np.abs(lhs - rhs)))
