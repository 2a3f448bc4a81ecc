"""Hess-Smith panel method: constant-strength sources plus a single vortex.

Surface nodes are ordered clockwise (TE -> lower -> LE -> upper -> TE) with the
first node repeated at the end. Flow tangency is enforced at every panel
midpoint and the Kutta condition at the trailing edge fixes the vortex
strength. With ``kutta=False`` the vortex is dropped and the N x N source
system is solved instead (closed bluff bodies, e.g. the cylinder checks).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .errors import ConfigError, SolverError

PIVOT_TOL = 1e-12
TWO_PI = 2.0 * np.pi


@dataclass
class PanelSolution:
    """Surface solution of the potential-flow problem."""

    cp: np.ndarray        # pressure coefficient per panel midpoint
    vt: np.ndarray        # tangential velocity per panel midpoint (V_inf = 1)
    cl: float             # lift coefficient from the Kutta-Joukowski circulation
    x_mid: np.ndarray     # midpoint x-coordinates
    y_mid: np.ndarray
    source_strengths: np.ndarray
    vortex_strength: float


def _panel_frames(points: np.ndarray):
    nodes = np.asarray(points, dtype=float)
    p0 = nodes[:-1]
    p1 = nodes[1:]
    d = p1 - p0
    length = np.hypot(d[:, 0], d[:, 1])
    if (length <= 0.0).any():
        raise SolverError("zero-length panel in surface polyline")
    cos_t = d[:, 0] / length
    sin_t = d[:, 1] / length
    mid = 0.5 * (p0 + p1)
    return p0, length, cos_t, sin_t, mid


def solve_panel(points: np.ndarray, alpha: float = 0.0, kutta: bool = True) -> PanelSolution:
    """Solve the surface singularity system for a closed polyline.

    ``points`` is the (N+1, 2) node array with points[0] == points[-1];
    ``alpha`` is the angle of attack in radians. Raises SolverError when the
    LU factorization of the influence matrix hits a pivot below 1e-12.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ConfigError("points must be an (N+1, 2) array")
    if not np.allclose(points[0], points[-1], atol=1e-12):
        raise ConfigError("surface polyline must be closed")
    n = points.shape[0] - 1
    if n < 40:
        raise ConfigError("panel count must be >= 40")

    p0, length, cos_t, sin_t, mid = _panel_frames(points)

    # midpoint i in the frame of panel j
    dx = mid[:, 0][:, None] - p0[:, 0][None, :]
    dy = mid[:, 1][:, None] - p0[:, 1][None, :]
    xs = dx * cos_t[None, :] + dy * sin_t[None, :]
    ys = -dx * sin_t[None, :] + dy * cos_t[None, :]
    lj = length[None, :]

    r0_sq = xs * xs + ys * ys
    r1_sq = (xs - lj) ** 2 + ys * ys
    lnr = 0.5 * np.log(r0_sq / r1_sq)
    # subtended angle via atan2(cross, dot): branch-safe for exterior points
    beta = np.arctan2(ys * lj, xs * (xs - lj) + ys * ys)
    np.fill_diagonal(lnr, 0.0)
    np.fill_diagonal(beta, np.pi)

    inv2pi = 1.0 / TWO_PI
    us, vs = lnr * inv2pi, beta * inv2pi          # unit source, panel frame

    # rotate to global frame
    us_g = us * cos_t[None, :] - vs * sin_t[None, :]
    vs_g = us * sin_t[None, :] + vs * cos_t[None, :]
    # The unit vortex (ccw-positive) is the source rotated by 90 degrees,
    # (uv, vv) = (-vs, us), so in the global frame uv_g == -vs_g and
    # vv_g == us_g bitwise (IEEE rounding is sign-symmetric); the vortex
    # terms below are written with the source influence alone.

    nx, ny = -sin_t, cos_t                        # outward normal (clockwise ordering)
    tx, ty = cos_t, sin_t
    v_inf = np.array([np.cos(alpha), np.sin(alpha)])

    a_src = nx[:, None] * us_g + ny[:, None] * vs_g
    rhs_tan = -(nx * v_inf[0] + ny * v_inf[1])

    if kutta:
        a = np.zeros((n + 1, n + 1))
        b = np.zeros(n + 1)
        a[:n, :n] = a_src
        a[:n, n] = (ny[:, None] * us_g - nx[:, None] * vs_g).sum(axis=1)
        b[:n] = rhs_tan
        # Kutta condition: tangential velocities of the first and last panels
        te = [0, n - 1]
        t_src = tx[te, None] * us_g[te] + ty[te, None] * vs_g[te]
        t_vor = (ty[te, None] * us_g[te] - tx[te, None] * vs_g[te]).sum(axis=1)
        a[n, :n] = t_src[0] + t_src[1]
        a[n, n] = t_vor[0] + t_vor[1]
        b[n] = -((tx[0] + tx[n - 1]) * v_inf[0] + (ty[0] + ty[n - 1]) * v_inf[1])
    else:
        a = a_src
        b = rhs_tan

    try:
        with warnings.catch_warnings():
            # singularity is detected below via the pivot magnitudes
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(a)
    except Exception as exc:  # LinAlgError on hard singularity
        raise SolverError(f"influence matrix factorization failed: {exc}") from exc
    if np.abs(np.diag(lu)).min() < PIVOT_TOL:
        raise SolverError("influence matrix is singular (pivot below 1e-12)")
    sol = lu_solve((lu, piv), b)

    q = sol[:n] if kutta else sol
    gamma = float(sol[n]) if kutta else 0.0

    u_tot = v_inf[0] + us_g @ q - gamma * vs_g.sum(axis=1)
    v_tot = v_inf[1] + vs_g @ q + gamma * us_g.sum(axis=1)
    vt = tx * u_tot + ty * v_tot
    cp = 1.0 - vt * vt

    # L' = -rho V Gamma_ccw; constant sheet density makes Gamma = gamma * perimeter
    cl = -2.0 * gamma * float(length.sum())

    return PanelSolution(cp=cp, vt=vt, cl=cl, x_mid=mid[:, 0], y_mid=mid[:, 1],
                         source_strengths=np.asarray(q), vortex_strength=gamma)


def lift_from_pressure(solution: PanelSolution, points: np.ndarray, alpha: float = 0.0) -> float:
    """Independent Cl from integrating Cp over the surface (cross-check)."""
    _, length, cos_t, sin_t, _ = _panel_frames(np.asarray(points, dtype=float))
    nx, ny = -sin_t, cos_t
    fx = -(solution.cp * nx * length).sum()
    fy = -(solution.cp * ny * length).sum()
    return float(-fx * np.sin(alpha) + fy * np.cos(alpha))
