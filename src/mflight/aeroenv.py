"""Reinforcement-learning environments: sampled Reynolds state, drag reward.

Both fidelities satisfy the same interface and are deterministic pure
functions of (shape, re_c). The low-fidelity model prices drag with a
form-factor-corrected turbulent flat-plate skin friction: its reward reads the
shape's maximum thickness and the Reynolds number only, so pricing an
episode runs no panel solve there, and the panel solution is computed only
where Cp and Cl are reported (``Environment.evaluate``). The high-fidelity
model marches an integral boundary layer over the panel edge velocities and
closes with Squire-Young. Every episode is priced through
``Environment.step_round``: each row of its design stack is one complete
episode (the flow solve IS the episode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import boundary_layer as bl
from .errors import ConfigError, SolverError
from .files import atomic_write
from .geometry import AirfoilShape, GeometryBounds, build_airfoil, decode
from .panel import PanelWorkspace, solve_panel

RE_FLOOR = 1e5
DEFAULT_PENALTY = -0.1
N_POINTS_LOW = 62    # 60 panels
N_POINTS_HIGH = 202  # 200 panels


@dataclass(frozen=True)
class StateDistribution:
    """Gaussian over the chord Reynolds number."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ConfigError("state distribution mu must be positive")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError("state distribution sigma must be positive")


def sample_state(dist: StateDistribution, rng: np.random.Generator) -> float:
    """One Reynolds-number draw, truncated to mu +- 6 sigma and floored at 1e5.

    Uses an explicit Box-Muller pair so every call consumes exactly two
    uniforms regardless of the outcome.
    """
    u = rng.random(2)
    z = math.sqrt(-2.0 * math.log(1.0 - u[0])) * math.cos(2.0 * math.pi * u[1])
    re_c = dist.mu + dist.sigma * z
    re_c = min(max(re_c, dist.mu - 6.0 * dist.sigma), dist.mu + 6.0 * dist.sigma)
    return max(re_c, RE_FLOOR)


@dataclass
class AeroResult:
    """Aerodynamic coefficients for one evaluated shape."""

    cd: float
    cl: float | None          # None where no panel solve ran
    cp: np.ndarray | None
    cp_x: np.ndarray | None
    converged: bool


def flat_plate_cf(re_c: float) -> float:
    """Turbulent flat-plate skin-friction coefficient, one side."""
    return 0.074 * re_c ** -0.2


def form_factor(thickness_ratio: float) -> float:
    t = max(thickness_ratio, 0.0)
    return 1.0 + 2.7 * t + 100.0 * t**4


def low_fidelity_drag(thickness_max: float, re_c: float) -> float:
    """Skin-friction drag of both sides with a thickness form factor."""
    return 2.0 * flat_plate_cf(re_c) * form_factor(thickness_max)


def low_fidelity_cd(shape: AirfoilShape, re_c: float,
                    work: PanelWorkspace | None = None) -> AeroResult:
    """Low-fidelity drag, with Cl and Cp from the panel solve (in ``work``, if given)."""
    sol = solve_panel(shape.points, work=work)
    cd = low_fidelity_drag(shape.thickness_max, re_c)
    return AeroResult(cd=cd, cl=sol.cl, cp=sol.cp, cp_x=sol.x_mid, converged=True)


def high_fidelity_cd(shape: AirfoilShape, re_c: float,
                     work: PanelWorkspace | None = None) -> AeroResult:
    """Integral-boundary-layer drag over the panel edge velocities.

    The panel solve runs in ``work``, if given. converged is False when
    either surface's turbulent march separates ahead of 95% chord; the
    coefficients are still reported. A one-station surface raises SolverError.
    """
    sol = solve_panel(shape.points, work=work)
    nu = 1.0 / re_c
    (s_lo, ue_lo, x_lo), (s_up, ue_up, x_up) = bl.split_surfaces(sol.x_mid, sol.y_mid, sol.vt)
    if len(s_lo) < 2 or len(s_up) < 2:
        raise SolverError("the stagnation point sits on a trailing-edge panel")
    lower = bl.march_surface(s_lo, ue_lo, x_lo, nu)
    upper = bl.march_surface(s_up, ue_up, x_up, nu)
    cd = lower.cd + upper.cd
    converged = not (lower.separated or upper.separated)
    return AeroResult(cd=cd, cl=sol.cl, cp=sol.cp, cp_x=sol.x_mid, converged=converged)


@dataclass
class Environment:
    """One fidelity tier of the design environment.

    An unset ``n_points`` is the tier's own resolution, ``N_POINTS_LOW`` or
    ``N_POINTS_HIGH``; ``penalty`` is the reward of a failed episode. Both
    tiers price at zero angle of attack with the nose blend of
    ``geometry.BLEND_FRACTION``, so the agent sees only the Reynolds number.
    Besides its fields it holds ``eval_count``, the number of episodes priced
    (rows of ``step_round``) and ``evaluate`` calls, and ``work``, the
    workspace of its ``n_points - 2`` panels that every panel solve of this
    environment reuses.
    The workspace makes an environment serve one caller at a time.
    """

    fidelity: str
    n_points: int | None = None
    bounds: GeometryBounds = field(default_factory=GeometryBounds)
    penalty: float = DEFAULT_PENALTY

    def __post_init__(self):
        if self.fidelity not in ("low", "high"):
            raise ConfigError(f"unknown fidelity {self.fidelity!r}")
        if self.n_points is None:
            self.n_points = N_POINTS_LOW if self.fidelity == "low" else N_POINTS_HIGH
        self.eval_count = 0
        self.work = PanelWorkspace(self.n_points - 2)

    def evaluate(self, shape: AirfoilShape, re_c: float) -> AeroResult:
        """Drag, lift and surface pressure of one shape (solves the panel system)."""
        self.eval_count += 1
        if self.fidelity == "low":
            return low_fidelity_cd(shape, re_c, work=self.work)
        return self._evaluate(shape, re_c)

    def _evaluate(self, shape: AirfoilShape, re_c: float) -> AeroResult:
        """What the reward needs: at low fidelity the drag alone, with no panel solve."""
        if self.fidelity == "low":
            return AeroResult(cd=low_fidelity_drag(shape.thickness_max, re_c), cl=None,
                              cp=None, cp_x=None, converged=True)
        return high_fidelity_cd(shape, re_c, work=self.work)

    def build_shapes(self, designs) -> list[AirfoilShape]:
        """The shapes of a (B, 13) design stack, built in one call; one design is a stack of one."""
        polygon = decode(designs, self.bounds)
        return build_airfoil(polygon, self.n_points)

    def step_round(self, designs, re_cs) -> list:
        """Price every row of a (B, 13) design stack at its Reynolds number.

        Each row is one full episode: decode, build, evaluate; failures map to
        the penalty. The B shapes are built in one call; returns the B
        (reward, info) pairs in row order. Never raises into the training
        loop. Every row counts as one environment evaluation, penalized
        episodes included. At low fidelity no panel solve runs, so
        ``info["cl"]`` is None there.
        """
        shapes = self.build_shapes(designs)
        return [self._price(shape, re_c) for shape, re_c in zip(shapes, re_cs, strict=True)]

    def step(self, design, re_c: float):
        """``step_round`` on a stack of one design; returns its (reward, info).

        mflight itself prices every episode through ``step_round``. This entry
        point stays only because the benchmark's tracer wraps it by name
        (``bench/spans.py``, checked by ``tests/test_bench_layers.py``), and
        the benchmark's files are kept fixed between its revisions.
        """
        (outcome,) = self.step_round(design, [re_c])
        return outcome

    def _price(self, shape: AirfoilShape, re_c: float):
        """Reward and info of one built shape; counts one environment evaluation."""
        self.eval_count += 1
        info = {"re_c": re_c, "valid": shape.valid, "converged": False,
                "cd": None, "cl": None, "thickness_max": shape.thickness_max}
        if not shape.valid:
            return self.penalty, info
        try:
            result = self._evaluate(shape, re_c)
        except SolverError:
            return self.penalty, info
        info["converged"] = result.converged
        info["cd"] = result.cd
        info["cl"] = result.cl
        if not result.converged:
            return self.penalty, info
        return -result.cd, info


def write_cp_csv(result: AeroResult, path) -> None:
    """Dump the surface pressure distribution as a two-column CSV (atomic)."""
    rows = "".join(f"{float(x)!r},{float(cp)!r}\n" for x, cp in zip(result.cp_x, result.cp))
    atomic_write(path, "# mflight-cp v1\nx,cp\n" + rows)
