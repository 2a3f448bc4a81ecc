# %% From a 13-number action to an airfoil
#
# The design space is 13 normalized numbers in [-1, 1]: six Bezier control
# points (x, y each) split between the upper and lower surface, plus a
# leading-edge radius. Decoding maps them affinely onto geometric ranges.

import numpy as np

from mflight.geometry import (
    DesignVector,
    GeometryBounds,
    build_airfoil,
    decode,
    write_selig,
)

bounds = GeometryBounds()
print("coordinate ranges (lo -> hi):")
for i, (lo, hi) in enumerate(zip(bounds.lo, bounds.hi)):
    print(f"  entry {i:2d}: [{lo:+.3f}, {hi:+.3f}]")

# %% The all-zeros action sits at the middle of every range.
design = DesignVector(np.zeros(13))
polygon = decode(design, bounds)
print("\nmid-range polygon:")
print("  upper control points:", np.round(polygon.upper, 3).tolist())
print("  lower control points:", np.round(polygon.lower, 3).tolist())
print("  leading-edge radius :", round(polygon.leading_edge_radius, 4))

# decode is affine: an action of -1 lands on lo, +1 on hi
for v, end in ((-1.0, bounds.lo), (1.0, bounds.hi)):
    radius = decode(DesignVector(np.full(13, v)), bounds).leading_edge_radius
    print(f"  action {v:+.0f} -> leading-edge radius {radius:.3f} (range end {end[12]:.3f})")

# %% Sampling the curve gives a closed polyline, trailing edge around to
# trailing edge, with validity established by construction checks.
shape = build_airfoil(polygon, n_points=62)[0]
print(f"\nshape: {len(shape.points)} points, valid={shape.valid}, "
      f"max thickness={shape.thickness_max:.4f}c, min={shape.thickness_min:.5f}c")

write_selig(shape, "demo_airfoil.dat")
print("wrote demo_airfoil.dat (Selig ordering, two columns)")

# %% Degenerate shapes are flagged, not raised: cross the surfaces on purpose.
crossed_bounds = GeometryBounds(
    lo=np.where(np.arange(13) % 2 == 1, -0.25, bounds.lo),
    hi=np.where(np.arange(13) % 2 == 1, 0.25, bounds.hi),
)
v = np.zeros(13)
v[[1, 3, 5]] = -1.0   # upper ordinates pushed far below the chord
v[[7, 9, 11]] = 1.0   # lower ordinates far above
bad = build_airfoil(decode(DesignVector(v), crossed_bounds), 62)[0]
print(f"\ncrossed surfaces: valid={bad.valid} (the trainer sees a penalty reward)")
