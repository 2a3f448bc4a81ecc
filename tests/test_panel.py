import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mflight import panel
from mflight.errors import ConfigError, SolverError
from mflight.geometry import build_airfoil
from mflight.panel import PanelSolution, lift_from_pressure, solve_panel

from conftest import symmetric_polygon


def cylinder(n=200, radius=1.0):
    """Closed clockwise circle polygon, starting at (r, 0)."""
    phi = np.linspace(0.0, 2.0 * np.pi, n + 1)
    pts = np.column_stack([radius * np.cos(phi), -radius * np.sin(phi)])
    pts[-1] = pts[0]
    return pts


class TestCylinder:
    def test_cp_matches_analytic_solution(self):
        sol = solve_panel(cylinder(200), alpha=0.0, kutta=False)
        theta = np.arctan2(sol.y_mid, sol.x_mid)
        cp_exact = 1.0 - 4.0 * np.sin(theta) ** 2
        assert np.abs(sol.cp - cp_exact).max() <= 1e-2

    def test_cp_at_ninety_degrees(self):
        sol = solve_panel(cylinder(200), alpha=0.0, kutta=False)
        theta = np.arctan2(sol.y_mid, sol.x_mid)
        i = np.argmin(np.abs(theta - np.pi / 2))
        assert sol.cp[i] == pytest.approx(1.0 - 4.0 * np.sin(theta[i]) ** 2, abs=1e-2)


class TestAirfoil:
    def test_symmetric_zero_alpha_zero_lift(self):
        shape = build_airfoil(symmetric_polygon(0.045, 0.055, 0.02), 202)[0]
        sol = solve_panel(shape.points, alpha=0.0)
        assert abs(sol.cl) <= 1e-6

    def test_thin_airfoil_lift_slope(self):
        # ~6% thick symmetric section at 5 degrees vs 2*pi*alpha
        shape = build_airfoil(symmetric_polygon(0.035, 0.042, 0.018, r=0.008), 202)[0]
        assert shape.valid
        assert 0.05 < shape.thickness_max < 0.07
        alpha = np.deg2rad(5.0)
        sol = solve_panel(shape.points, alpha=alpha)
        cl_theory = 2.0 * np.pi * alpha
        assert sol.cl == pytest.approx(cl_theory, rel=0.15)

    def test_kutta_joukowski_agrees_with_pressure_integration(self):
        shape = build_airfoil(symmetric_polygon(0.05, 0.06, 0.025), 202)[0]
        alpha = np.deg2rad(4.0)
        sol = solve_panel(shape.points, alpha=alpha)
        cl_cp = lift_from_pressure(sol, shape.points, alpha=alpha)
        assert sol.cl == pytest.approx(cl_cp, rel=0.05)

    def test_deterministic(self):
        shape = build_airfoil(symmetric_polygon(0.05, 0.06, 0.025), 62)[0]
        a = solve_panel(shape.points, alpha=0.01)
        b = solve_panel(shape.points, alpha=0.01)
        assert_allclose(a.cp, b.cp, rtol=0, atol=0)
        assert a.cl == b.cl

    def test_lift_increases_with_alpha(self):
        shape = build_airfoil(symmetric_polygon(0.05, 0.06, 0.025), 62)[0]
        cls = [solve_panel(shape.points, alpha=np.deg2rad(a)).cl for a in (0.0, 2.0, 4.0)]
        assert cls[0] < cls[1] < cls[2]


class TestValidation:
    # 5e-6 lies within np.allclose's default rtol, so a relative test would pass it
    @pytest.mark.parametrize("offset", [(0.5, 0.5), (5e-6, 0.0), (np.nan, 0.0)],
                             ids=["half", "5e-6x", "nan"])
    def test_open_polyline_rejected(self, offset):
        pts = cylinder(60)
        pts[-1] += offset
        with pytest.raises(ConfigError):
            solve_panel(pts)

    def test_too_few_panels_rejected(self):
        with pytest.raises(ConfigError):
            solve_panel(cylinder(30))

    def test_zero_length_panel_rejected(self):
        pts = cylinder(60)
        pts[5] = pts[4]
        with pytest.raises(SolverError):
            solve_panel(pts)

    def test_degenerate_surface_raises_solver_error(self):
        # coincident upper and lower surfaces give a singular system
        x = np.concatenate([np.linspace(1.0, 0.0, 31), np.linspace(0.0, 1.0, 31)[1:]])
        pts = np.column_stack([x, np.zeros_like(x)])
        with pytest.raises(SolverError):
            solve_panel(pts)

    def test_solution_type(self):
        sol = solve_panel(cylinder(60), kutta=False)
        assert isinstance(sol, PanelSolution)
        assert sol.vortex_strength == 0.0
        assert len(sol.cp) == 60


# 40 high-fidelity solves of valid default-box shapes; prints the sha256 of the results
HIFI_SOLVES = """
import hashlib
import numpy as np
from mflight.aeroenv import Environment
from mflight.geometry import DesignVector
from mflight.panel import solve_panel

env = Environment("high")
rng = np.random.default_rng(3)
digest = hashlib.sha256()
solved = 0
while solved < 40:
    (shape,) = env.build_shapes(DesignVector(rng.uniform(-1.0, 1.0, 13)))
    if shape.valid:
        sol = solve_panel(shape.points)
        for arr in (sol.vt, sol.cp, sol.source_strengths, np.array([sol.cl])):
            digest.update(arr.tobytes())
        solved += 1
print(digest.hexdigest())
"""


class TestBlasThreads:
    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="OpenBLAS caps its pool at the CPU count")
    def test_solves_do_not_depend_on_the_blas_pool(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            out = subprocess.run([sys.executable, "-c", HIFI_SOLVES], env=env, check=True,
                                 capture_output=True, text=True, timeout=300)
            digests.append(out.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    def test_no_library_found_logs_one_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(panel.glob, "glob", lambda pattern: [])
        libs = panel._vendored_openblas("scipy") + panel._vendored_openblas("numpy")
        with caplog.at_level("WARNING", logger="mflight.panel"):
            panel._pin_blas_to_one_thread(libs)
        assert libs == []
        assert len(caplog.records) == 1


# a tiny high-fidelity campaign and its evaluation; prints whether scipy was imported
NO_SCIPY = """
import json, sys
from mflight import cli
imported = "scipy" in sys.modules
doc = {"schema_version": 1, "mode": "scratch", "seed": 5, "agent": {"hidden": [8]},
       "target": {"fidelity": "high", "mu": 5.5e6, "sigma": 5e5, "max_episodes": 20},
       "evaluation": {"episodes": 4}}
with open("cfg.json", "w") as fh:
    json.dump(doc, fh)
assert cli.main(["train", "--config", "cfg.json", "--out", "run"]) == 0
assert cli.main(["evaluate", "--checkpoint", "run/checkpoint_target_final.ckpt",
                 "--config", "cfg.json", "--out", "eval"]) == 0
print(imported, "scipy" in sys.modules)
"""


def test_commands_never_import_scipy(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env, cwd=tmp_path, check=True,
                         capture_output=True, text=True, timeout=300)
    assert out.stdout.split() == ["False", "False"]
