"""Bezier airfoil geometry: design-vector decoding, surface sampling, validity checks.

An airfoil is built from two quartic Bezier curves (upper and lower surface)
that share fixed endpoints at the leading edge (0, 0) and trailing edge (1, 0).
Each curve has three free control points, giving 12 free coordinates; a
leading-edge radius makes 13. Actions arrive as normalized values in [-1, 1]
and are mapped affinely onto configurable geometric ranges.

:func:`build_airfoil` takes a stack of designs, a single design being a stack
of one. The sampling, the nose blend and the finiteness and monotonicity
checks run once over the whole stack; the thickness and crossing checks share
one interpolation per surface of each shape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, InvalidAction
from .files import atomic_write

N_DESIGN_VARS = 13
BLEND_FRACTION = 0.02  # arc length, in chords, over which the nose blends into its circle

# Index layout of the 13-entry design vector:
#   0..5   upper control points, LE to TE, as (x1, y1, x2, y2, x3, y3)
#   6..11  lower control points, same layout
#   12     leading-edge radius
_UPPER = slice(0, 6)
_LOWER = slice(6, 12)
_RADIUS = 12
_X = slice(0, 12, 2)   # the x of every control point


def _default_lo() -> np.ndarray:
    # x ranges are staggered thirds of [0.05, 0.95] so decoded x stays ordered
    # for any action, keeping each surface a single-valued curve.
    return np.array(
        [0.05, 0.0, 0.35, 0.0, 0.65, 0.0,
         0.05, -0.25, 0.35, -0.25, 0.65, -0.25,
         0.002],
        dtype=float,
    )


def _default_hi() -> np.ndarray:
    return np.array(
        [0.35, 0.25, 0.65, 0.25, 0.95, 0.25,
         0.35, 0.0, 0.65, 0.0, 0.95, 0.0,
         0.05],
        dtype=float,
    )


@dataclass(frozen=True)
class GeometryBounds:
    """Per-coordinate geometric ranges for the affine action decoding."""

    lo: np.ndarray = field(default_factory=_default_lo)
    hi: np.ndarray = field(default_factory=_default_hi)

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != (N_DESIGN_VARS,) or hi.shape != (N_DESIGN_VARS,):
            raise ConfigError("geometry bounds must have 13 entries each")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ConfigError("geometry bounds must be finite")
        if not (lo < hi).all():
            raise ConfigError("geometry bounds require lo < hi per coordinate")
        if lo[_RADIUS] <= 0:
            raise ConfigError("leading-edge radius range must be positive")
        # every decoded x lies in [lo, hi], so a box inside [0, 1] keeps ControlPolygon's check
        if (lo[_X] < 0.0).any() or (hi[_X] > 1.0).any():
            raise ConfigError("geometry bounds put control point x-coordinates outside [0, 1]")


@dataclass(frozen=True)
class DesignVector:
    """Normalized 13-entry actions, every entry finite and in [-1, 1].

    ``values`` holds one design, shape (13,), or a stack of B designs, shape
    (B, 13).
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim not in (1, 2) or values.shape[-1] != N_DESIGN_VARS:
            raise InvalidAction(
                f"design vector must have {N_DESIGN_VARS} entries, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            raise InvalidAction("design vector contains non-finite entries")
        if (np.abs(values) > 1.0).any():
            worst = float(np.abs(values).max())
            raise InvalidAction(f"design vector entry out of [-1, 1] (max |v| = {worst})")


@dataclass(frozen=True)
class ControlPolygon:
    """Free Bezier control points plus the leading-edge radius, of one design or a stack.

    Endpoints are fixed at LE = (0, 0) and TE = (1, 0) and are not stored.
    ``upper`` and ``lower`` are (3, 2) arrays ordered LE to TE with a scalar
    ``leading_edge_radius``, or (B, 3, 2) stacks with a (B,) radius array.
    """

    upper: np.ndarray
    lower: np.ndarray
    leading_edge_radius: float | np.ndarray

    LE = (0.0, 0.0)
    TE = (1.0, 0.0)

    def __post_init__(self):
        upper = np.asarray(self.upper, dtype=float)
        lower = np.asarray(self.lower, dtype=float)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)
        if upper.ndim not in (2, 3) or upper.shape[-2:] != (3, 2) or lower.shape != upper.shape:
            raise ConfigError("control polygon needs 3 upper and 3 lower points")
        for pts in (upper, lower):
            if not np.isfinite(pts).all():
                raise ConfigError("control points must be finite")
            if (pts[..., 0] < 0.0).any() or (pts[..., 0] > 1.0).any():
                raise ConfigError("control point x-coordinates must lie in [0, 1]")
        radius = np.asarray(self.leading_edge_radius, dtype=float)
        if radius.shape != upper.shape[:-2]:
            raise ConfigError("control polygon needs one leading-edge radius per design")
        if not (np.isfinite(radius).all() and (radius > 0).all()):
            raise ConfigError("leading-edge radius must be positive")

    def curves(self) -> np.ndarray:
        """Full 5-point control sequences, shape (2, B, 5, 2): upper then lower, LE to TE."""
        upper = self.upper.reshape(-1, 3, 2)
        out = np.empty((2, len(upper), 5, 2))
        out[:, :, 0] = self.LE
        out[0, :, 1:4] = upper
        out[1, :, 1:4] = self.lower.reshape(-1, 3, 2)
        out[:, :, 4] = self.TE
        return out


@dataclass
class AirfoilShape:
    """Closed discrete surface polyline.

    ``points`` runs trailing edge -> lower surface -> leading edge -> upper
    surface -> trailing edge, first point equal to the last; it is read-only.
    ``valid`` is False for self-intersecting or non-positive-thickness shapes;
    such shapes are a normal outcome and are penalized upstream, never raised
    on.
    """

    points: np.ndarray
    valid: bool
    thickness_min: float
    thickness_max: float


def decode(design, bounds: GeometryBounds) -> ControlPolygon:
    """Map normalized design vectors (one, or a (B, 13) stack) onto their geometric ranges.

    Each entry v in [-1, 1] goes to lo + (v + 1)/2 * (hi - lo).
    """
    if not isinstance(design, DesignVector):
        design = DesignVector(design)
    g = bounds.lo + 0.5 * (design.values + 1.0) * (bounds.hi - bounds.lo)
    lead = g.shape[:-1]
    return ControlPolygon(
        upper=g[..., _UPPER].reshape(lead + (3, 2)),
        lower=g[..., _LOWER].reshape(lead + (3, 2)),
        leading_edge_radius=g[..., _RADIUS][()],  # a scalar for one design
    )


def bezier_eval(ctrl, t):
    """Evaluate a Bezier curve in Bernstein form.

    ``ctrl`` is an (n+1, 2) array of control points, ``t`` a scalar or array
    in [0, 1]. Returns points of shape (2,) or (len(t), 2).
    """
    ctrl = np.asarray(ctrl, dtype=float)
    if ctrl.ndim != 2 or ctrl.shape[0] < 2:
        raise DomainError("bezier_eval needs at least 2 control points")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if (t_arr < 0.0).any() or (t_arr > 1.0).any():
        raise DomainError("bezier parameter t must lie in [0, 1]")
    out = _bernstein_basis(ctrl.shape[0] - 1, t_arr) @ ctrl
    return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def _bernstein_basis(n: int, t: np.ndarray) -> np.ndarray:
    """basis[j, i] = C(n,i) t_j^i (1-t_j)^(n-i); 0**0 == 1 keeps endpoints exact."""
    i = np.arange(n + 1)
    coef = np.array([math.comb(n, k) for k in i], dtype=float)
    return coef * t[:, None] ** i * (1.0 - t[:, None]) ** (n - i)


def _cosine_params(n: int) -> np.ndarray:
    """n parameters in [0, 1] clustered toward both ends."""
    return 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, n)))


@functools.lru_cache(maxsize=8)
def _surface_basis(m: int) -> np.ndarray:
    """Read-only quartic basis at m cosine-clustered parameters, one per surface size."""
    basis = _bernstein_basis(4, _cosine_params(m))
    basis.flags.writeable = False
    return basis


_SIDE_SIGN = np.array([1.0, -1.0])  # upper, lower
_SIDE_SIGN.flags.writeable = False


def _blend_nose_arcs(surfaces: np.ndarray, radius: np.ndarray) -> None:
    """Blend the first part of every surface toward its nose circle, in place.

    ``surfaces`` is (2, B, m, 2), the upper surfaces then the lower ones, and
    ``radius`` the (B,) leading-edge radii. Each circle is tangent to the
    chord normal at the leading edge (center at (radius, 0)). Points within
    ``s_b = min(BLEND_FRACTION, 1.5 * radius)`` of arc length from the LE are
    pulled toward the circle with a smoothstep weight that decays to zero at
    s_b. Every masked station of every surface is computed in one pass, with
    the per-station arithmetic of a one-surface blend.
    """
    after_le = surfaces[:, :, 1:]  # every station but the LE one, a view
    d = after_le - surfaces[:, :, :-1]
    seg = np.sqrt((d * d).sum(axis=-1))  # np.linalg.norm(d, axis=-1), without its overhead
    s = np.cumsum(seg, axis=-1)  # arc length from the LE to each later station
    s_b = np.minimum(BLEND_FRACTION, 1.5 * radius)
    inside = (s > 0.0) & (s < s_b[:, None])
    if not inside.any():
        return
    side, row, _ = np.nonzero(inside)
    si = s[inside]
    r = radius[row]
    phi = si / r
    # the side sign multiplies the radius first, as in side * radius * sin(phi)
    side_r = _SIDE_SIGN[side] * r
    circle = np.array([r * (1.0 - np.cos(phi)), side_r * np.sin(phi)]).T
    u = si / s_b[row]
    w = 1.0 - u * u * (3.0 - 2.0 * u)
    after_le[inside] = w[:, None] * circle + (1.0 - w[:, None]) * after_le[inside]


# k of the 199 interior thickness stations x_lo + k * (x_hi - x_lo) / 200
_STATION_STEPS = np.arange(1.0, 200.0)
_STATION_STEPS.flags.writeable = False


def check_n_points(n_points: int) -> None:
    """Even and >= 42: n_points make n_points - 2 panels, and the panel solver needs 40."""
    if n_points < 42 or n_points % 2 != 0:
        raise ConfigError("n_points must be an even number >= 42")


def build_airfoil(polygon: ControlPolygon, n_points: int) -> list[AirfoilShape]:
    """Sample every control polygon of a stack into a closed surface polyline.

    Returns one shape per polygon; a single polygon is a stack of one. Each
    surface gets n_points/2 cosine-clustered stations; the nose is blended
    toward a circle of the polygon's leading-edge radius. The basis product,
    the blend and the finiteness and monotonicity checks run once over the
    whole stack. For each shape that passed them, one interpolation per
    surface gives the gap (upper minus lower) at 199 thickness stations, which
    give the thickness, and at the interior nodes of both surfaces. The gap of
    two x-monotone surfaces is linear between the union of their nodes, so
    they cross properly only if a node gap is negative, and a negative node
    gap beside a positive thickness is a crossing: a shape is valid when its
    thickness is positive and no node gap is negative. A crossing exactly
    through a node, which a segment-pair proper-crossing test calls touching,
    is flagged too. Degenerate geometry is reported via ``valid``, never raised.
    """
    check_n_points(n_points)
    surfaces = _surface_basis(n_points // 2) @ polygon.curves()
    radius = np.reshape(polygon.leading_edge_radius, -1)
    _blend_nose_arcs(surfaces, radius)
    upper, lower = surfaces

    # TE -> lower -> LE -> upper -> TE; endpoints are exact so the loop closes
    points = np.concatenate([lower[:, ::-1], upper[:, 1:]], axis=1)
    points.flags.writeable = False
    checked = np.isfinite(points).all(axis=(1, 2)) \
        & (surfaces[..., 1:, 0] > surfaces[..., :-1, 0]).all(axis=(0, 2))
    # the thickness and crossing checks of every shape that passed, at once
    rows = slice(None) if checked.all() else checked
    up, lo = upper[rows], lower[rows]
    # np.linspace(x_lo, x_hi, 201)[1:-1] per shape, as linspace computes it: x_lo + k * step
    # (its branch for a zero step never applies, as both surfaces run from the LE to the TE)
    x_lo = np.maximum(up[:, 0, 0], lo[:, 0, 0])
    step = (np.minimum(up[:, -1, 0], lo[:, -1, 0]) - x_lo) / 200
    stations = _STATION_STEPS * step[:, None] + x_lo[:, None]
    n = stations.shape[1]
    # the stations, then the interior nodes of both surfaces; each row becomes the gaps there
    gap = np.concatenate([stations, up[:, 1:-1, 0], lo[:, 1:-1, 0]], axis=1)
    for g, su, sl in zip(gap, up, lo):
        np.subtract(np.interp(g, su[:, 0], su[:, 1]), np.interp(g, sl[:, 0], sl[:, 1]), out=g)
    thickness = np.zeros((2, len(points)))  # min, max
    thickness[0, rows] = thickness_min = gap[:, :n].min(axis=1)
    thickness[1, rows] = gap[:, :n].max(axis=1)
    valid = np.zeros(len(points), dtype=bool)
    valid[rows] = (thickness_min > 0.0) & (gap[:, n:] >= 0.0).all(axis=1)
    return [AirfoilShape(points=row, valid=v, thickness_min=t_min, thickness_max=t_max)
            for row, v, (t_min, t_max) in zip(points, valid.tolist(), thickness.T.tolist())]


def selig_points(shape: AirfoilShape) -> np.ndarray:
    """Surface points in Selig order: TE -> upper -> LE -> lower -> TE."""
    return shape.points[::-1]


def write_selig(shape: AirfoilShape, path) -> None:
    """Write a two-column (x, y) coordinate file, one point per line.

    Written atomically (complete or absent).
    """
    atomic_write(path, "".join(f"{float(x)!r} {float(y)!r}\n" for x, y in selig_points(shape)))
