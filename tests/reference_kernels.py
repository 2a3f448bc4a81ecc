"""Reference implementations of the physics kernels, kept as test oracles.

These are the straightforward versions that the optimised kernels in
``mflight`` replaced: an airfoil build of one control polygon at a time, an
O(n^2) all-pairs segment crossing test and the pairs whose x-ranges overlap, a
boundary-layer march on numpy scalars that calls Head's rates and the
correlations as functions (the correlations that ``march_surface`` writes out
inline live only here), a panel assembly that rotates the vortex
influence separately from the source influence, and a variance ratio that
takes the max over the whole pool of window variances at every episode, and a
trailing reward mean computed one episode at a time. The tests assert that
the optimised kernels give bit-identical results.

The PPO update is kept the same way: parameters as separate arrays, gradients
in a dict keyed by array name, Adam's moments and step per array, and a
rollback that swaps the backup parameters in for the live ones. So are the
agent's single-state ``act`` and ``value``, one state and one forward pass
per call: training and evaluation run each network once per round over the
stack of states (``Mlp.forward_rows``), and the tests compare every row with
these.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from mflight.boundary_layer import (
    H_TURB_INIT,
    H_TURB_SEP,
    LAMBDA_SEP,
    SEP_CHORD_LIMIT,
    UE_FLOOR,
    SurfaceMarch,
    head_h1,
    squire_young_cd,
    thwaites_correlations,
)
from mflight.agent import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    Mlp,
    gaussian_log_prob,
)
from mflight.ctl import VARIANCE_FLOOR, window_statistic
from mflight.errors import ConfigError, SolverError
from mflight.geometry import AirfoilShape, _surface_basis, check_n_points
from mflight.panel import PIVOT_TOL, TWO_PI, PanelSolution, _panel_frames
from mflight.ppo import UpdateStats, normalize_advantages, prob_ratio


def _blend_nose_arc_reference(pts: np.ndarray, radius: float, blend_fraction: float,
                              side: float) -> np.ndarray:
    """Blend the first part of one surface toward a nose circle of given radius.

    The circle is tangent to the chord normal at the leading edge (center at
    (radius, 0)). Points within ``s_b = min(blend_fraction, 1.5 * radius)`` of
    arc length from the LE are pulled toward the circle with a smoothstep
    weight that decays to zero at s_b. ``side`` is +1 for upper, -1 for lower.
    """
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    s_b = min(blend_fraction, 1.5 * radius)
    out = pts.copy()
    inside = (s > 0.0) & (s < s_b)
    if not inside.any():
        return out
    si = s[inside]
    phi = si / radius
    circle = np.column_stack([radius * (1.0 - np.cos(phi)), side * radius * np.sin(phi)])
    u = si / s_b
    w = 1.0 - u * u * (3.0 - 2.0 * u)
    out[inside] = w[:, None] * circle + (1.0 - w[:, None]) * pts[inside]
    return out


def build_airfoil_reference(polygon, n_points: int, blend_fraction: float = 0.02) -> AirfoilShape:
    """Sample one (3, 2) control polygon into a closed surface polyline."""
    check_n_points(n_points)
    m = n_points // 2
    basis = _surface_basis(m)
    upper = basis @ np.vstack([polygon.LE, polygon.upper, polygon.TE])
    lower = basis @ np.vstack([polygon.LE, polygon.lower, polygon.TE])
    r = float(polygon.leading_edge_radius)
    upper = _blend_nose_arc_reference(upper, r, blend_fraction, +1.0)
    lower = _blend_nose_arc_reference(lower, r, blend_fraction, -1.0)

    # TE -> lower -> LE -> upper -> TE; endpoints are exact so the loop closes
    points = np.vstack([lower[::-1], upper[1:]])

    valid = bool(np.isfinite(points).all())
    thickness_min = 0.0
    thickness_max = 0.0
    xu, xl = upper[:, 0], lower[:, 0]
    monotone = (np.diff(xu) > 0).all() and (np.diff(xl) > 0).all()
    if valid and monotone:
        x_lo = max(xu[0], xl[0])
        x_hi = min(xu[-1], xl[-1])
        stations = np.linspace(x_lo, x_hi, 201)[1:-1]
        gap = np.interp(stations, xu, upper[:, 1]) - np.interp(stations, xl, lower[:, 1])
        thickness_min = float(gap.min())
        thickness_max = float(gap.max())
        if thickness_min <= 0.0:
            valid = False
    else:
        valid = False

    if valid and segments_cross_reference(points):
        valid = False

    return AirfoilShape(points=points, valid=valid,
                        thickness_min=thickness_min, thickness_max=thickness_max)


def segments_cross_reference(points: np.ndarray) -> bool:
    """Vectorized proper-intersection test over all non-adjacent segment pairs."""
    p = points[:-1]
    q = points[1:]
    n = len(p)
    d = q - p

    def cross(o, a, b):
        # (a - o) x (b - o) for broadcastable stacks of points
        return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (
            a[..., 1] - o[..., 1]
        ) * (b[..., 0] - o[..., 0])

    pi = p[:, None, :]
    qi = q[:, None, :]
    pj = p[None, :, :]
    qj = q[None, :, :]
    d1 = cross(pi, qi, pj)
    d2 = cross(pi, qi, qj)
    d3 = cross(pj, qj, pi)
    d4 = cross(pj, qj, qi)
    proper = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
    idx = np.arange(n)
    adjacent = np.abs(idx[:, None] - idx[None, :]) <= 1
    # first and last segments share the closing node of the polyline
    adjacent[0, n - 1] = adjacent[n - 1, 0] = True
    return bool((proper & ~adjacent).any())


def michel_retheta_crit(re_x: float) -> float:
    """Transition threshold on Re_theta as a function of Re_x (Michel's line)."""
    re_x = max(re_x, 1.0)
    return 1.174 * (1.0 + 22400.0 / re_x) * re_x**0.46


def head_h(h1: float) -> float:
    """Inverse of Head's H1(H) correlation: H(H1)."""
    h1 = max(h1, 3.32)
    if h1 >= 5.3:
        return 1.1 + 0.86 * (h1 - 3.3) ** -0.777
    return 0.6778 + 1.1536 * (h1 - 3.3) ** -0.326


def entrainment(h1: float) -> float:
    """Head's entrainment function F(H1)."""
    return 0.0306 * max(h1 - 3.0, 1e-3) ** -0.6169


def ludwieg_tillmann_cf(h: float, re_theta: float) -> float:
    """Ludwieg-Tillmann turbulent skin friction."""
    return 0.246 * 10.0 ** (-0.678 * h) * max(re_theta, 1.0) ** -0.268


def march_surface_reference(s: np.ndarray, ue: np.ndarray, x: np.ndarray, nu: float) -> SurfaceMarch:
    """March the integral boundary layer along one surface.

    ``s`` is arc length from the stagnation point (monotone increasing),
    ``ue`` the edge-velocity magnitude at those stations, ``x`` the chordwise
    position used for the separation cutoff, ``nu`` the kinematic viscosity
    (1/Re_c in chord units).
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

    transition_s = s[-1]
    i_tr = n - 1
    theta_tr = None
    for i in range(n):
        theta = float(np.sqrt(max(theta_sq[i], 0.0)))
        lam = theta * theta * due_ds[i] / nu
        re_theta = ue[i] * theta / nu
        re_x = ue[i] * s[i] / nu
        if i > 0 and (re_theta > michel_retheta_crit(re_x) or lam < LAMBDA_SEP):
            i_tr = i
            transition_s = float(s[i])
            theta_tr = theta
            break

    if theta_tr is None:
        # fully laminar to the trailing edge
        theta_te = float(np.sqrt(max(theta_sq[-1], 0.0)))
        lam_te = theta_te * theta_te * due_ds[-1] / nu
        _, h_te = thwaites_correlations(lam_te)
        return SurfaceMarch(theta=theta_te, shape_factor=h_te, ue_te=float(ue[-1]),
                            cd=squire_young_cd(theta_te, float(ue[-1]), h_te),
                            transition_s=transition_s, separated=False)

    # turbulent segment: Head's entrainment method, RK2 on the station grid
    theta = max(theta_tr, 1e-9)
    h = H_TURB_INIT
    separated = False
    n_sub = 4

    def rates(theta_v, h_v, ue_v, due_v):
        theta_v = max(theta_v, 1e-12)
        re_theta = ue_v * theta_v / nu
        cf = ludwieg_tillmann_cf(h_v, re_theta)
        h1 = head_h1(h_v)
        dtheta = 0.5 * cf - (h_v + 2.0) * theta_v / ue_v * due_v
        # d(ue theta H1)/ds = ue F  =>  dH1/ds from the product rule
        dh1 = (entrainment(h1) * ue_v - h1 * (dtheta * ue_v + theta_v * due_v)) / (ue_v * theta_v)
        return dtheta, dh1

    h1 = head_h1(h)
    for i in range(i_tr, n - 1):
        ds = (s[i + 1] - s[i]) / n_sub
        for j in range(n_sub):
            frac = (j + 0.5) / n_sub
            ue_v = ue[i] + frac * (ue[i + 1] - ue[i])
            due_v = due_ds[i] + frac * (due_ds[i + 1] - due_ds[i])
            k1t, k1h = rates(theta, h, ue_v, due_v)
            k2t, k2h = rates(theta + 0.5 * ds * k1t, head_h(h1 + 0.5 * ds * k1h), ue_v, due_v)
            theta = max(theta + ds * k2t, 1e-12)
            h1 = max(h1 + ds * k2h, 3.32)
            h = head_h(h1)
        if h > H_TURB_SEP:
            h = H_TURB_SEP
            h1 = head_h1(h)
            if x[i + 1] < SEP_CHORD_LIMIT:
                separated = True

    ue_te = float(ue[-1])
    return SurfaceMarch(theta=float(theta), shape_factor=float(h), ue_te=ue_te,
                        cd=squire_young_cd(float(theta), ue_te, float(h)),
                        transition_s=transition_s, separated=separated)


def solve_panel_reference(points: np.ndarray, alpha: float = 0.0, kutta: bool = True) -> PanelSolution:
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
    uv, vv = -beta * inv2pi, lnr * inv2pi         # unit vortex (ccw-positive)

    # rotate to global frame
    us_g = us * cos_t[None, :] - vs * sin_t[None, :]
    vs_g = us * sin_t[None, :] + vs * cos_t[None, :]
    uv_g = uv * cos_t[None, :] - vv * sin_t[None, :]
    vv_g = uv * sin_t[None, :] + vv * cos_t[None, :]

    nx, ny = -sin_t, cos_t                        # outward normal (clockwise ordering)
    tx, ty = cos_t, sin_t
    v_inf = np.array([np.cos(alpha), np.sin(alpha)])

    a_src = nx[:, None] * us_g + ny[:, None] * vs_g
    a_vor = (nx[:, None] * uv_g + ny[:, None] * vv_g).sum(axis=1)
    rhs_tan = -(nx * v_inf[0] + ny * v_inf[1])

    if kutta:
        a = np.zeros((n + 1, n + 1))
        b = np.zeros(n + 1)
        a[:n, :n] = a_src
        a[:n, n] = a_vor
        b[:n] = rhs_tan
        t_src = tx[:, None] * us_g + ty[:, None] * vs_g
        t_vor = (tx[:, None] * uv_g + ty[:, None] * vv_g).sum(axis=1)
        a[n, :n] = t_src[0] + t_src[n - 1]
        a[n, n] = t_vor[0] + t_vor[n - 1]
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

    u_tot = v_inf[0] + us_g @ q + gamma * uv_g.sum(axis=1)
    v_tot = v_inf[1] + vs_g @ q + gamma * vv_g.sum(axis=1)
    vt = tx * u_tot + ty * v_tot
    cp = 1.0 - vt * vt

    # L' = -rho V Gamma_ccw; constant sheet density makes Gamma = gamma * perimeter
    cl = -2.0 * gamma * float(length.sum())

    return PanelSolution(cp=cp, vt=vt, cl=cl, x_mid=mid[:, 0], y_mid=mid[:, 1],
                         source_strengths=np.asarray(q), vortex_strength=gamma)


def trailing_mean_reference(rewards, k: int) -> np.ndarray:
    """Mean over the trailing min(e, k) rewards, for every episode e, one episode at a time."""
    rewards = np.asarray(rewards, dtype=float)
    out = np.empty(len(rewards))
    csum = np.concatenate([[0.0], np.cumsum(rewards)])
    for e in range(1, len(rewards) + 1):
        lo = max(0, e - k)
        out[e - 1] = (csum[e] - csum[lo]) / (e - lo)
    return out


def variance_ratios_reference(rewards, k: int) -> list[float]:
    """The controller's beta sequence, with the max recomputed over its pool each episode."""
    xi_history, betas = [], []
    for e in range(1, len(rewards) + 1):
        xi = window_statistic(rewards[e - min(e, k):e])
        xi_history.append(xi)
        if e == 1:
            beta = 1.0
        else:
            pool = xi_history[k - 1:] if e >= k else xi_history
            xi_max = max(pool)
            beta = 0.0 if xi_max <= VARIANCE_FLOOR else xi / xi_max
        betas.append(beta)
    return betas


@dataclass
class GaussianAction:
    """A sampled action with its pre-clip log-probability."""

    action: np.ndarray
    log_prob: float
    clipped_action: np.ndarray


def act_reference(params, state: float, rng: np.random.Generator) -> GaussianAction:
    """Sample a ~ N(mean(s), diag(std^2)); clip only for the environment."""
    mean = params.policy.forward(np.array([[float(state)]]))[0]
    a = mean + np.exp(params.log_std) * rng.standard_normal(params.action_dim)
    log_prob = float(gaussian_log_prob(a[None, :], mean[None, :], params.log_std)[0])
    return GaussianAction(action=a, log_prob=log_prob, clipped_action=np.clip(a, -1.0, 1.0))


def value_reference(params, state: float) -> float:
    """Scalar state-value estimate V(s) of one state."""
    v = params.value.forward(np.atleast_1d(np.asarray(state, dtype=float)).reshape(-1, 1))[:, 0]
    return float(v[0])


def mlp_backward_reference(mlp: Mlp, cache: list, grad_out: np.ndarray):
    """Fresh weight and bias gradient arrays of one network, last layer first."""
    n = len(mlp.weights)
    gw = [None] * n
    gb = [None] * n
    g = grad_out
    for i in range(n - 1, -1, -1):
        h_in = cache[i]
        gw[i] = h_in.T @ g
        gb[i] = g.sum(axis=0)
        g = g @ mlp.weights[i].T
        if i > 0:
            g = g * (1.0 - cache[i] ** 2)  # cache holds tanh outputs
    return gw, gb


@dataclass
class ParamsReference:
    """Policy mean net, log-std and value net, each array allocated on its own."""

    policy: Mlp
    log_std: np.ndarray
    value: Mlp

    @classmethod
    def from_params(cls, params) -> "ParamsReference":
        """Separate copies of the arrays of a ``PolicyParams`` (or of another reference)."""
        def mlp(net):
            return Mlp([w.copy() for w in net.weights], [b.copy() for b in net.biases])

        return cls(mlp(params.policy), params.log_std.copy(), mlp(params.value))

    @property
    def action_dim(self) -> int:
        return len(self.log_std)

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, (w, b) in enumerate(zip(self.policy.weights, self.policy.biases)):
            out.append((f"policy.w{i}", w))
            out.append((f"policy.b{i}", b))
        out.append(("log_std", self.log_std))
        for i, (w, b) in enumerate(zip(self.value.weights, self.value.biases)):
            out.append((f"value.w{i}", w))
            out.append((f"value.b{i}", b))
        return out

    def copy(self) -> "ParamsReference":
        return ParamsReference.from_params(self)

    def all_finite(self) -> bool:
        return all(np.isfinite(t).all() for _, t in self.tensors())


def clipped_surrogate_reference(batch, params: ParamsReference):
    """Loss, gradients keyed by array name, and diagnostics for one batch.

    Ratio clip 0.2 and value coefficient 0.5, written out here so that the
    oracle does not read the constants it checks.
    """
    b = len(batch)
    eps = 0.2
    adv = batch.advantages

    pol_cache: list = []
    mean = params.policy.forward(batch.states, cache=pol_cache)
    log_std = params.log_std
    std = np.exp(log_std)
    logp_new = gaussian_log_prob(batch.actions, mean, log_std)

    ratio = prob_ratio(logp_new, batch.log_probs_old)
    surr_raw = ratio * adv
    surr_clip = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
    policy_loss = -np.minimum(surr_raw, surr_clip).mean()

    val_cache: list = []
    v = params.value.forward(batch.states, cache=val_cache)[:, 0]
    value_loss = ((v - batch.returns) ** 2).mean()

    loss = policy_loss + 0.5 * value_loss

    active = surr_raw <= surr_clip
    dlogp = np.where(active, -ratio * adv / b, 0.0)
    z = (batch.actions - mean) / std
    dmean = dlogp[:, None] * z / std
    gw_p, gb_p = mlp_backward_reference(params.policy, pol_cache, dmean)
    dlog_std = (dlogp[:, None] * (z * z - 1.0)).sum(axis=0)

    dv = (2.0 * 0.5 / b) * (v - batch.returns)
    gw_v, gb_v = mlp_backward_reference(params.value, val_cache, dv[:, None])

    grads: dict[str, np.ndarray] = {}
    for i in range(len(gw_p)):
        grads[f"policy.w{i}"] = gw_p[i]
        grads[f"policy.b{i}"] = gb_p[i]
    grads["log_std"] = dlog_std
    for i in range(len(gw_v)):
        grads[f"value.w{i}"] = gw_v[i]
        grads[f"value.b{i}"] = gb_v[i]

    stats = UpdateStats(
        mean_ratio=float(ratio.mean()),
        clip_fraction=float((np.abs(ratio - 1.0) > eps).mean()),
        policy_loss=float(policy_loss),
        value_loss=float(value_loss),
        kl=float((batch.log_probs_old - logp_new).mean()),
    )
    return float(loss), grads, stats


def clip_grad_norm_reference(grads: dict[str, np.ndarray], max_norm: float) -> float:
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return float(total)


class AdamReference:
    """Adam with one moment array per parameter array, stepped array by array."""

    def __init__(self, params: ParamsReference, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(t) for name, t in params.tensors()}
        self.v = {name: np.zeros_like(t) for name, t in params.tensors()}

    def step(self, params: ParamsReference, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name, tensor in params.tensors():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            tensor -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


class PpoTrainerReference:
    """The per-array update loop; a rollback replaces ``params`` with its backup.

    Up to 10 epochs, each gradient clipped to norm 0.5. ``clipped`` counts the
    epochs whose gradient norm was clipped.
    """

    def __init__(self, params: ParamsReference, cfg):
        self.params = params
        self.cfg = cfg
        self.opt = AdamReference(params, cfg.learning_rate)
        self.clipped = 0

    def update(self, batch) -> UpdateStats:
        cfg = self.cfg
        batch = replace(batch, advantages=normalize_advantages(batch.advantages))
        backup = self.params.copy()
        opt_backup = (self.opt.t, {k: v.copy() for k, v in self.opt.m.items()},
                      {k: v.copy() for k, v in self.opt.v.items()})
        stats = None
        epochs_run = 0
        for _ in range(10):
            loss, grads, stats = clipped_surrogate_reference(batch, self.params)
            if not np.isfinite(loss) or not all(np.isfinite(g).all() for g in grads.values()):
                self._restore(backup, opt_backup)
                stats.aborted = True
                stats.epochs_run = epochs_run
                return stats
            total = clip_grad_norm_reference(grads, 0.5)
            self.clipped += total > 0.5
            self.opt.step(self.params, grads)
            np.clip(self.params.log_std, LOG_STD_MIN, LOG_STD_MAX, out=self.params.log_std)
            epochs_run += 1
            if not self.params.all_finite():
                self._restore(backup, opt_backup)
                stats.aborted = True
                stats.epochs_run = epochs_run
                return stats
            mean = self.params.policy.forward(batch.states)
            logp = gaussian_log_prob(batch.actions, mean, self.params.log_std)
            kl = float((batch.log_probs_old - logp).mean())
            stats.kl = kl
            if kl > cfg.kl_stop:
                break
        stats.epochs_run = epochs_run
        return stats

    def _restore(self, params: ParamsReference, opt_state) -> None:
        self.params = params
        self.opt.t, self.opt.m, self.opt.v = opt_state
