"""Hess-Smith panel method: constant-strength sources plus a single vortex.

Surface nodes are ordered clockwise (TE -> lower -> LE -> upper -> TE) with the
first node repeated at the end. Flow tangency is enforced at every panel
midpoint and the Kutta condition at the trailing edge fixes the vortex
strength. With ``kutta=False`` the vortex is dropped and the N x N source
system is solved instead (closed bluff bodies, e.g. the cylinder checks).
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError

log = logging.getLogger(__name__)

PIVOT_TOL = 1e-12
CLOSURE_TOL = 1e-12
TWO_PI = 2.0 * np.pi


def _vendored_openblas(package: str) -> list[ctypes.CDLL]:
    """The OpenBLAS a wheel vendors under ``<package>.libs``, loaded without importing it.

    Loading by path gives the same library the package's own extensions use.
    """
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        return []
    pattern = spec.submodule_search_locations[0] + ".libs/libscipy_openblas*.so"
    return [ctypes.CDLL(path) for path in glob.glob(pattern)]


def _bind_lu(libs: list[ctypes.CDLL]):
    """LAPACK's dgetrf and dgetrs as ``getrf(a) -> (lu, piv, info)`` and
    ``getrs(lu, piv, b) -> (x, info)``.

    ``getrf`` factorizes the Fortran-order ``a`` in place. Both come from
    scipy's vendored OpenBLAS (LP64 integers), the library behind
    ``scipy.linalg.lu_factor``/``lu_solve``, so the bits are theirs without
    importing scipy. Without that library, the same two routines are bound
    from ``scipy.linalg.lapack``, which imports scipy.
    """
    routines = [(lib.scipy_dgetrf_, lib.scipy_dgetrs_) for lib in libs
                if hasattr(lib, "scipy_dgetrf_") and hasattr(lib, "scipy_dgetrs_")]
    if not routines:
        log.warning("no vendored OpenBLAS LAPACK found; the panel LU imports scipy.linalg.lapack")
        from scipy.linalg import lapack

        return (lambda a: lapack.dgetrf(a, overwrite_a=1),
                lambda lu, piv, b: lapack.dgetrs(lu, piv, b))
    dgetrf, dgetrs = routines[0]
    int_p, ptr = ctypes.POINTER(ctypes.c_int32), ctypes.c_void_p
    dgetrf.argtypes, dgetrf.restype = [int_p, int_p, ptr, int_p, ptr, int_p], None
    dgetrs.argtypes, dgetrs.restype = [ctypes.c_char_p, int_p, int_p, ptr, int_p, ptr, ptr,
                                       int_p, int_p], None
    ref = ctypes.byref

    def getrf(a):
        if not (a.dtype == np.float64 and a.ndim == 2 and a.shape[0] == a.shape[1]
                and a.flags.f_contiguous and a.flags.writeable):
            raise ValueError("getrf takes a writable square Fortran-order float64 array")
        n, info = ctypes.c_int32(a.shape[0]), ctypes.c_int32()
        piv = np.empty(a.shape[0], dtype=np.int32)  # 1-based, as getrs reads it
        dgetrf(ref(n), ref(n), a.ctypes.data, ref(n), piv.ctypes.data, ref(info))
        return a, piv, info.value

    def getrs(lu, piv, b):
        x = np.array(b, dtype=float)  # b itself is not overwritten
        if x.shape != piv.shape or piv.dtype != np.int32:
            raise ValueError("getrs takes the pivots of getrf and one right-hand side")
        n, one, info = ctypes.c_int32(lu.shape[0]), ctypes.c_int32(1), ctypes.c_int32()
        dgetrs(b"N", ref(n), ref(one), lu.ctypes.data, ref(n), piv.ctypes.data, x.ctypes.data,
               ref(n), ref(info))
        return x, info.value

    return getrf, getrs


def _pin_blas_to_one_thread(libs: list[ctypes.CDLL]) -> None:
    """Run the wheels' OpenBLAS on one thread: a threaded LU rounds differently."""
    setters = [getattr(lib, name) for lib in libs
               for name in ("scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")
               if hasattr(lib, name)]
    for setter in setters:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
    if not setters:
        log.warning("no bundled OpenBLAS thread setter found; LU bits may depend on its pool")


_SCIPY_OPENBLAS = _vendored_openblas("scipy")
_getrf, _getrs = _bind_lu(_SCIPY_OPENBLAS)
_pin_blas_to_one_thread(_SCIPY_OPENBLAS + _vendored_openblas("numpy"))


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


class PanelWorkspace:
    """The n x n buffers of an n-panel solve, allocated once and reused.

    ``solve_panel`` writes every element of a buffer before it reads it, so
    no value carries over from one call to the next, and no array it
    returns is a view of the workspace. Reuse spares the page faults of
    fresh memory on every call. A workspace serves one solve at a time.
    ``dot`` shares its storage with the influence matrix: it holds the dot
    product, then beta, then the panel-frame vs, all of which are spent
    before the matrix is assembled.
    """

    def __init__(self, n_panels: int):
        if n_panels < 40:
            raise ConfigError("panel count must be >= 40")
        self.n_panels = n_panels
        # One block holds the four n x n buffers and, behind them, the storage
        # of the Fortran-order influence matrix: (n+1)^2 with the Kutta row
        # and column, of which the first n^2 serve without them. ``dot`` is a
        # C-order n x n view of the first n^2 values of that storage.
        # Allocated apart, arrays of this size can each get their own mapping
        # and so the same offset within a page (always, under the CLI's heap
        # setting); in one block their starts are n^2 * 8 bytes apart, and a
        # solve runs faster.
        nn = n_panels * n_panels
        block = np.empty(4 * nn + (n_panels + 1) ** 2)
        self.dx, self.dy, self.xs, self.w, self.dot = (
            block[k * nn:(k + 1) * nn].reshape(n_panels, n_panels) for k in range(5))
        self._matrix = block[4 * nn:]

    def influence_matrix(self, m: int) -> np.ndarray:
        """An m x m Fortran-order view of the matrix storage (m <= n + 1)."""
        return self._matrix[:m * m].reshape((m, m), order="F")


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


def solve_panel(points: np.ndarray, alpha: float = 0.0, kutta: bool = True,
                work: PanelWorkspace | None = None) -> PanelSolution:
    """Solve the surface singularity system for a closed polyline.

    ``points`` is the (N+1, 2) node array with points[0] == points[-1];
    ``alpha`` is the angle of attack in radians. ``work`` is an N-panel
    workspace to write the intermediates into; without one the call
    allocates its own. Raises SolverError when the LU factorization of the
    influence matrix hits a pivot below 1e-12.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ConfigError("points must be an (N+1, 2) array")
    # a strict absolute test; written so that NaN fails it
    if not (np.abs(points[0] - points[-1]) <= CLOSURE_TOL).all():
        raise ConfigError("surface polyline must be closed")
    n = points.shape[0] - 1
    if n < 40:
        raise ConfigError("panel count must be >= 40")
    if work is None:
        work = PanelWorkspace(n)
    elif work.n_panels != n:
        raise ConfigError(f"workspace is sized for {work.n_panels} panels, the polyline has {n}")

    p0, length, cos_t, sin_t, mid = _panel_frames(points)

    # The n x n work runs in the five buffers of the workspace, written in
    # place; the fifth (dot, beta, vs) is spent before the matrix is
    # assembled into the same storage. Every element sees the IEEE operations
    # of the textbook assembly, reordered only where that is exact:
    # (-a)*b == -(a*b), (-p)+q == q-p, x**2 == x*x and (0.5*L)*c == L*(0.5*c).
    # midpoint i in the frame of panel j: xs = dx cos + dy sin, ys = dy cos - dx sin
    dx = np.subtract(mid[:, 0][:, None], p0[:, 0][None, :], out=work.dx)
    dy = np.subtract(mid[:, 1][:, None], p0[:, 1][None, :], out=work.dy)
    xs = np.multiply(dx, cos_t, out=work.xs)
    w = np.multiply(dy, sin_t, out=work.w)
    xs += w
    ys = np.multiply(dy, cos_t, out=dy)
    ys -= np.multiply(dx, sin_t, out=dx)
    ys2 = np.multiply(ys, ys, out=w)
    xm = np.subtract(xs, length, out=dx)          # xs - l_j

    # subtended angle via atan2(cross, dot): branch-safe for exterior points
    dot = np.multiply(xs, xm, out=work.dot)
    dot += ys2
    beta = np.arctan2(np.multiply(ys, length, out=ys), dot, out=dot)
    np.fill_diagonal(beta, np.pi)
    # 2 ln(r0 / r1) with r0^2 = xs^2 + ys^2 and r1^2 = xm^2 + ys^2
    r0_sq = np.multiply(xs, xs, out=xs)
    r0_sq += ys2
    r1_sq = np.multiply(xm, xm, out=xm)
    r1_sq += ys2
    two_lnr = np.log(np.divide(r0_sq, r1_sq, out=r0_sq), out=r0_sq)
    np.fill_diagonal(two_lnr, 0.0)

    inv2pi = 1.0 / TWO_PI
    us = np.multiply(two_lnr, 0.5 * inv2pi, out=two_lnr)  # unit source, panel frame
    vs = np.multiply(beta, inv2pi, out=beta)

    # rotate to the global frame: us_g = us cos - vs sin, vs_g = us sin + vs cos
    us_g = np.multiply(us, cos_t, out=r1_sq)
    us_g -= np.multiply(vs, sin_t, out=ys)
    vs_g = np.multiply(us, sin_t, out=us)
    vs_g += np.multiply(vs, cos_t, out=vs)
    w1, w2 = ys, ys2                              # free from here on
    # The unit vortex (ccw-positive) is the source rotated by 90 degrees,
    # (uv, vv) = (-vs, us), so in the global frame uv_g == -vs_g and
    # vv_g == us_g bitwise (IEEE rounding is sign-symmetric); the vortex
    # terms below are written with the source influence alone.

    nx, ny = -sin_t, cos_t                        # outward normal (clockwise ordering)
    tx, ty = cos_t, sin_t
    v_inf = np.array([np.cos(alpha), np.sin(alpha)])
    rhs_tan = -(nx * v_inf[0] + ny * v_inf[1])

    # assembled in Fortran order, so that the LU factorizes it in place
    a = work.influence_matrix(n + 1 if kutta else n)
    if kutta:
        b = np.empty(n + 1)
        b[:n] = rhs_tan
        # normal vortex influence ny us_g - nx vs_g, summed along C-contiguous
        # rows (numpy's pairwise sum depends on the layout); row i is also the
        # tangential source influence at panel i
        t_row = np.multiply(tx[:, None], us_g, out=w1)
        t_row += np.multiply(ty[:, None], vs_g, out=w2)
        a[:n, n] = t_row.sum(axis=1)
        # Kutta condition: tangential velocities of the first and last panels
        te = [0, n - 1]
        t_vor = (ty[te, None] * us_g[te] - tx[te, None] * vs_g[te]).sum(axis=1)
        a[n, :n] = t_row[0] + t_row[n - 1]
        a[n, n] = t_vor[0] + t_vor[1]
        b[n] = -((tx[0] + tx[n - 1]) * v_inf[0] + (ty[0] + ty[n - 1]) * v_inf[1])
    else:
        b = rhs_tan
    # normal source influence nx us_g + ny vs_g, with nx = -sin; formed in C
    # order and copied in, faster than a ufunc writing the Fortran block
    a[:n, :n] = np.subtract(np.multiply(ny[:, None], vs_g, out=w1),
                            np.multiply(sin_t[:, None], us_g, out=w2), out=w1)

    # the checks of scipy.linalg.lu_factor and lu_solve, with their outcomes
    if not np.isfinite(a).all():
        raise SolverError("influence matrix factorization failed: "
                          "array must not contain infs or NaNs")
    lu, piv, info = _getrf(a)
    if info < 0:
        raise SolverError(f"influence matrix factorization failed: "
                          f"illegal value in argument {-info} of getrf")
    # an exactly zero pivot (info > 0) fails this test too
    if np.abs(np.diag(lu)).min() < PIVOT_TOL:
        raise SolverError("influence matrix is singular (pivot below 1e-12)")
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    sol, info = _getrs(lu, piv, b)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")

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
