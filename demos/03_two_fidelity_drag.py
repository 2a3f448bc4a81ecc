# %% The two drag models behind one environment interface
#
# Low fidelity: panel solve + form-factor-corrected flat-plate skin friction
# (thickness is all it sees). High fidelity: the same panel solve feeding an
# integral boundary-layer march (Thwaites -> Michel -> Head) closed with the
# Squire-Young formula. Same interface, correlated but different landscapes,
# roughly a 10-50x cost gap.

import time

import numpy as np

from mflight.aeroenv import high_fidelity_cd, low_fidelity_cd, make_environment
from mflight.geometry import ControlPolygon, DesignVector, build_airfoil


def section(t_scale):
    upper = np.array([[0.1, 0.055 * t_scale], [0.45, 0.065 * t_scale],
                      [0.8, 0.025 * t_scale]])
    return ControlPolygon(upper=upper, lower=upper * np.array([1.0, -1.0]),
                          leading_edge_radius=0.008)


# %% Drag vs thickness at fixed Reynolds number.
print(f"{'t/c':>7} {'low-fi Cd':>10} {'high-fi Cd':>11}")
for t_scale in (0.5, 1.0, 1.5, 2.0):
    lo_shape = build_airfoil(section(t_scale), 62)[0]
    hi_shape = build_airfoil(section(t_scale), 202)[0]
    lo = low_fidelity_cd(lo_shape, 7e6)
    hi = high_fidelity_cd(hi_shape, 7e6)
    print(f"{hi_shape.thickness_max:7.3f} {lo.cd:10.5f} {hi.cd:11.5f}"
          + ("" if hi.converged else "  (separated)"))

# %% Drag vs Reynolds number at fixed shape: both fall, as skin friction does.
lo_shape = build_airfoil(section(1.0), 62)[0]
hi_shape = build_airfoil(section(1.0), 202)[0]
print(f"\n{'Re_c':>9} {'low-fi Cd':>10} {'high-fi Cd':>11}")
for re_c in (5e6, 7e6, 1e7):
    print(f"{re_c:9.1e} {low_fidelity_cd(lo_shape, re_c).cd:10.5f} "
          f"{high_fidelity_cd(hi_shape, re_c).cd:11.5f}")

# %% The cost ratio that makes multi-fidelity learning worthwhile: one round of
# 20 episodes per tier, priced as training prices it.
env_lo = make_environment("low")
env_hi = make_environment("high")
designs = DesignVector(np.zeros((20, 13)))
for env in (env_lo, env_hi):
    t0 = time.perf_counter()
    env.step_round(designs, [7e6] * 20)
    dt = (time.perf_counter() - t0) / 20
    print(f"{env.fidelity}-fidelity episode: {dt * 1e3:6.2f} ms")
