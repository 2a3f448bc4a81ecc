"""Integral boundary-layer march over a panel-method edge-velocity distribution.

Classic drag-estimation chain: Thwaites' method for the laminar segment,
Michel's criterion for transition, Head's entrainment method for the turbulent
segment, and the Squire-Young formula for the drag contribution of each
surface. Laminar separation (lambda < -0.09) forces transition; turbulent
separation (H > 2.4) ahead of 95% chord marks the march as not converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LAMBDA_SEP = -0.09
H_TURB_SEP = 2.4
H_TURB_INIT = 1.4
SEP_CHORD_LIMIT = 0.95
UE_FLOOR = 1e-6


@dataclass
class SurfaceMarch:
    """Outcome of one surface's boundary-layer march."""

    theta: float          # momentum thickness at the trailing edge
    shape_factor: float   # H at the trailing edge
    ue_te: float          # edge velocity at the trailing edge
    cd: float             # Squire-Young drag contribution
    transition_s: float   # arc length of laminar-turbulent transition
    separated: bool       # turbulent separation ahead of the chord limit


def thwaites_correlations(lam: float) -> tuple[float, float]:
    """Shear correlation l(lambda) and shape factor H(lambda), Cebeci-Bradshaw fits."""
    lam = min(max(lam, -0.1), 0.1)
    if lam >= 0.0:
        l = 0.22 + 1.57 * lam - 1.8 * lam * lam
        h = 2.61 - 3.75 * lam + 5.24 * lam * lam
    else:
        l = 0.22 + 1.402 * lam + 0.018 * lam / (lam + 0.107)
        h = 2.088 + 0.0731 / (lam + 0.14)
    return l, h


def head_h1(h: float) -> float:
    """Head's H1(H) correlation."""
    h = max(h, 1.101)
    if h <= 1.6:
        return 3.3 + 0.8234 * (h - 1.1) ** -1.287
    return 3.3 + 1.5501 * (h - 0.6778) ** -3.064


def squire_young_cd(theta: float, ue: float, h: float) -> float:
    """Per-surface profile drag from trailing-edge BL state (V_inf = 1)."""
    return 2.0 * theta * ue ** (0.5 * (h + 5.0))


def march_surface(s: np.ndarray, ue: np.ndarray, x: np.ndarray, nu: float) -> SurfaceMarch:
    """March the integral boundary layer along one surface.

    ``s`` is arc length from the stagnation point (monotone increasing),
    ``ue`` the edge-velocity magnitude at those stations, ``x`` the chordwise
    position used for the separation cutoff, ``nu`` the kinematic viscosity
    (1/Re_c in chord units).

    The station loops run on Python floats, with Head's rates and his
    correlations (H1(H), its inverse H(H1), the entrainment function),
    Ludwieg-Tillmann's skin friction and Michel's line written out in the
    loop body. Each keeps the operation order of its function form in
    ``tests/reference_kernels.py``, so every result is bit-identical to
    composing those functions. ``b if b > a else a`` is ``max(a, b)``
    exactly, NaN included.
    """
    s = np.asarray(s, dtype=float)
    ue = np.maximum(np.asarray(ue, dtype=float), UE_FLOOR)
    n = len(s)
    due_ds = np.gradient(ue, s)

    # Thwaites: theta^2 = 0.45 nu ue^-6 int ue^5 ds, with the stagnation-point limit
    integrand = ue**5
    integral = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(s))])
    theta_sq = 0.45 * nu * integral / ue**6
    if due_ds[0] > 0.0:
        theta_sq += 0.075 * nu / due_ds[0] * (ue[0] / ue) ** 6

    s = s.tolist()
    ue = ue.tolist()
    due_ds = due_ds.tolist()
    theta_sq = theta_sq.tolist()
    x = np.asarray(x, dtype=float).tolist()

    transition_s = s[-1]
    i_tr = n - 1
    theta_tr = None
    for i in range(n):
        tsq = theta_sq[i]
        theta = math.sqrt(0.0 if 0.0 > tsq else tsq)
        if i == 0:
            continue
        ue_i = ue[i]
        re_theta = ue_i * theta / nu
        re_x = ue_i * s[i] / nu
        re_x = 1.0 if 1.0 > re_x else re_x
        # Michel's line: Re_theta,crit = 1.174 (1 + 22400 / Re_x) Re_x^0.46
        if (re_theta > 1.174 * (1.0 + 22400.0 / re_x) * re_x**0.46
                or theta * theta * due_ds[i] / nu < LAMBDA_SEP):
            i_tr = i
            transition_s = s[i]
            theta_tr = theta
            break

    if theta_tr is None:
        # fully laminar to the trailing edge
        tsq = theta_sq[-1]
        theta_te = math.sqrt(0.0 if 0.0 > tsq else tsq)
        lam_te = theta_te * theta_te * due_ds[-1] / nu
        _, h_te = thwaites_correlations(lam_te)
        return SurfaceMarch(theta=theta_te, shape_factor=h_te, ue_te=ue[-1],
                            cd=squire_young_cd(theta_te, ue[-1], h_te),
                            transition_s=transition_s, separated=False)

    # turbulent segment: Head's entrainment method, RK2 on the station grid
    theta = 1e-9 if 1e-9 > theta_tr else theta_tr
    h = H_TURB_INIT
    separated = False
    n_sub = 4
    fracs = [(j + 0.5) / n_sub for j in range(n_sub)]

    h1 = head_h1(h)
    for i in range(i_tr, n - 1):
        ds = (s[i + 1] - s[i]) / n_sub
        half_ds = 0.5 * ds
        ue_a = ue[i]
        ue_d = ue[i + 1] - ue_a
        due_a = due_ds[i]
        due_d = due_ds[i + 1] - due_a
        for frac in fracs:
            ue_v = ue_a + frac * ue_d
            due_v = due_a + frac * due_d

            # k1: Head's rates at (theta, h)
            th = 1e-12 if 1e-12 > theta else theta
            re_theta = ue_v * th / nu
            cf = 0.246 * 10.0 ** (-0.678 * h) * (1.0 if 1.0 > re_theta else re_theta) ** -0.268
            hh = 1.101 if 1.101 > h else h
            if hh <= 1.6:
                h1_v = 3.3 + 0.8234 * (hh - 1.1) ** -1.287
            else:
                h1_v = 3.3 + 1.5501 * (hh - 0.6778) ** -3.064
            k1t = 0.5 * cf - (h + 2.0) * th / ue_v * due_v
            e = h1_v - 3.0
            k1h = (0.0306 * (1e-3 if 1e-3 > e else e) ** -0.6169 * ue_v
                   - h1_v * (k1t * ue_v + th * due_v)) / (ue_v * th)

            # k2: Head's rates at the midpoint, H from H(H1) of the H1 half step
            th = theta + half_ds * k1t
            th = 1e-12 if 1e-12 > th else th
            h1_m = h1 + half_ds * k1h
            h1_m = 3.32 if 3.32 > h1_m else h1_m
            if h1_m >= 5.3:
                h_m = 1.1 + 0.86 * (h1_m - 3.3) ** -0.777
            else:
                h_m = 0.6778 + 1.1536 * (h1_m - 3.3) ** -0.326
            re_theta = ue_v * th / nu
            cf = 0.246 * 10.0 ** (-0.678 * h_m) * (1.0 if 1.0 > re_theta else re_theta) ** -0.268
            hh = 1.101 if 1.101 > h_m else h_m
            if hh <= 1.6:
                h1_v = 3.3 + 0.8234 * (hh - 1.1) ** -1.287
            else:
                h1_v = 3.3 + 1.5501 * (hh - 0.6778) ** -3.064
            k2t = 0.5 * cf - (h_m + 2.0) * th / ue_v * due_v
            e = h1_v - 3.0
            k2h = (0.0306 * (1e-3 if 1e-3 > e else e) ** -0.6169 * ue_v
                   - h1_v * (k2t * ue_v + th * due_v)) / (ue_v * th)

            theta = theta + ds * k2t
            theta = 1e-12 if 1e-12 > theta else theta
            h1 = h1 + ds * k2h
            h1 = 3.32 if 3.32 > h1 else h1
            if h1 >= 5.3:
                h = 1.1 + 0.86 * (h1 - 3.3) ** -0.777
            else:
                h = 0.6778 + 1.1536 * (h1 - 3.3) ** -0.326
        if h > H_TURB_SEP:
            h = H_TURB_SEP
            h1 = head_h1(h)
            if x[i + 1] < SEP_CHORD_LIMIT:
                separated = True

    ue_te = ue[-1]
    return SurfaceMarch(theta=theta, shape_factor=h, ue_te=ue_te,
                        cd=squire_young_cd(theta, ue_te, h),
                        transition_s=transition_s, separated=separated)


def split_surfaces(x_mid: np.ndarray, y_mid: np.ndarray, vt: np.ndarray):
    """Split panel midpoints at the stagnation point into two marchable surfaces.

    With clockwise ordering the tangential velocity is negative on the lower
    surface and positive on the upper. The stagnation point is taken at the
    last panel with negative ``vt`` (panel 0 if none is negative, and never
    past panel n - 2): the lower surface runs from it back to panel 0, the
    upper from the next panel to the end. Where ``vt`` changes sign more than
    once, this is not the sign change nearest the leading edge (ROADMAP item
    2, step a'). Returns (s, ue, x) per surface, each ordered stagnation
    point -> trailing edge.
    """
    vt = np.asarray(vt, dtype=float)
    n = len(vt)
    neg = np.nonzero(vt < 0.0)[0]
    i_stag = int(neg[-1]) if len(neg) else 0
    i_stag = min(max(i_stag, 0), n - 2)

    mids = np.column_stack([x_mid, y_mid])

    def path(indices):
        pts = mids[indices]
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        return s, np.abs(vt[indices]), pts[:, 0]

    lower = path(np.arange(i_stag, -1, -1))
    upper = path(np.arange(i_stag + 1, n))
    return lower, upper
