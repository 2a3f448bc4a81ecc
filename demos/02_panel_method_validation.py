# %% Validating the potential-flow solver against classical results
#
# Two checks everyone runs on a fresh panel code: the circular cylinder
# (exact solution Cp = 1 - 4 sin^2 theta) and the thin-airfoil lift slope
# (dCl/dalpha = 2 pi per radian).

import numpy as np

from mflight.geometry import ControlPolygon, build_airfoil
from mflight.panel import lift_from_pressure, solve_panel

# %% Cylinder: sources only, no Kutta condition for a bluff body.
n = 200
phi = np.linspace(0.0, 2.0 * np.pi, n + 1)
circle = np.column_stack([np.cos(phi), -np.sin(phi)])  # clockwise like an airfoil
circle[-1] = circle[0]

sol = solve_panel(circle, alpha=0.0, kutta=False)
theta = np.arctan2(sol.y_mid, sol.x_mid)
cp_exact = 1.0 - 4.0 * np.sin(theta) ** 2
print(f"cylinder with {n} panels: max |Cp error| = {np.abs(sol.cp - cp_exact).max():.2e}")
i90 = np.argmin(np.abs(theta - np.pi / 2))
print(f"Cp at the top (exact -3): {sol.cp[i90]:+.4f}")

# %% Thin symmetric airfoil: lift slope against thin-airfoil theory.
upper = np.array([[0.1, 0.035], [0.45, 0.042], [0.8, 0.018]])
poly = ControlPolygon(upper=upper, lower=upper * np.array([1.0, -1.0]),
                      leading_edge_radius=0.008)
shape = build_airfoil(poly, 202)[0]
print(f"\ntest section: t/c = {shape.thickness_max:.3f}")

print(f"{'alpha':>6} {'Cl (K-J)':>10} {'Cl (Cp int.)':>12} {'2 pi alpha':>11}")
for alpha_deg in (0.0, 2.0, 5.0):
    alpha = np.deg2rad(alpha_deg)
    s = solve_panel(shape.points, alpha=alpha)
    cl_cp = lift_from_pressure(s, shape.points, alpha=alpha)
    print(f"{alpha_deg:6.1f} {s.cl:10.4f} {cl_cp:12.4f} {2 * np.pi * alpha:11.4f}")

# The Kutta-Joukowski value and the direct pressure integration are two
# independent routes to the same lift; their agreement is a solver check.
