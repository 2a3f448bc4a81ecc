"""Training campaigns: source-phase learning, CTL-gated transfer, target phase.

A round draws its T_L episodes' states and actions one after another, prices
the T_L designs as one stack, then runs the PPO update, then the per-episode
controller updates. Every episode draws from its own RNG stream
keyed by (seed, phase, global episode index), so every logged number is a
function of (seed, config) alone. The worker count W only labels episode j of
a round as worker j // (T_L / W) in the ``worker`` column of the episode log.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import ctl as ctl_mod
from .aeroenv import AeroResult, Environment, StateDistribution, make_environment, sample_state
from .agent import (
    PolicyParams,
    act,
    forward_policy,
    init_params,
    save_checkpoint,
    value,
)
from .errors import ConfigError, RunError, SchemaError, SolverError
from .files import atomic_write
from .geometry import AirfoilShape, DesignVector, GeometryBounds, check_n_points
from .ppo import EpisodeRecord, ExperienceBatch, PpoConfig, PpoTrainer

log = logging.getLogger(__name__)

PHASE_IDS = {"source": 0, "target": 1, "eval": 2}
MODES = ("scratch", "single_fidelity_ctl", "multi_fidelity_ctl")

EPISODES_SCHEMA = "# mflight-episodes v1"
SUMMARY_SCHEMA = "mflight-summary v1"
EPISODE_COLUMNS = ("episode", "phase", "fidelity", "worker", "re_c", "reward",
                   "beta", "clip_fraction")


@dataclass(frozen=True)
class PhaseSpec:
    name: str
    fidelity: str
    dist: StateDistribution
    max_episodes: int

    def __post_init__(self):
        if self.name not in ("source", "target"):
            raise ConfigError(f"phase name must be source or target, got {self.name!r}")
        if self.fidelity not in ("low", "high"):
            raise ConfigError(f"unknown fidelity {self.fidelity!r}")
        if self.max_episodes < 0:
            raise ConfigError("max_episodes must be >= 0")


@dataclass
class RunConfig:
    mode: str
    target: PhaseSpec
    source: PhaseSpec | None = None
    ppo: PpoConfig = field(default_factory=PpoConfig)
    workers: int = 4
    episodes_per_update: int = 20      # T_L: pooled experience per policy update
    seed: int = 0
    penalty: float = -0.1
    hidden: tuple = (64, 64)
    log_std_init: float = -0.5
    ctl_window: int = 50
    ctl_gamma_cut: float = 0.3
    force_transfer: bool = False
    bounds: GeometryBounds = field(default_factory=GeometryBounds)
    alpha: float = 0.0
    blend_fraction: float = 0.02
    n_points_low: int = 62
    n_points_high: int = 202
    state_ref: tuple[float, float] | None = None
    threshold_fraction: float = 0.95
    tail_episodes: int = 500

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.episodes_per_update < 1:
            raise ConfigError("episodes_per_update must be >= 1")
        if self.episodes_per_update % self.workers != 0:
            raise ConfigError("episodes_per_update must be divisible by workers")
        if self.mode != "scratch" and self.source is None:
            raise ConfigError(f"mode {self.mode!r} needs a source phase")
        if self.mode == "scratch" and self.source is not None:
            raise ConfigError("scratch mode takes no source phase")
        for phase in filter(None, (self.source, self.target)):
            if phase.max_episodes % self.episodes_per_update != 0:
                raise ConfigError(
                    f"{phase.name} budget {phase.max_episodes} is not a multiple of "
                    f"episodes_per_update={self.episodes_per_update}"
                )
        if not 0.0 < self.threshold_fraction <= 1.0:
            raise ConfigError("threshold_fraction must lie in (0, 1]")
        if self.tail_episodes < 1:
            raise ConfigError("tail_episodes must be >= 1")
        # a valid design earns -cd < 0; a penalty >= 0 would pay failures more than any design
        if not (np.isfinite(self.penalty) and self.penalty < 0.0):
            raise ConfigError(f"penalty must be finite and negative, got {self.penalty!r}")
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"agent hidden widths must be >= 1, got {list(self.hidden)}")
        if not (math.isfinite(self.blend_fraction) and 0.0 <= self.blend_fraction <= 1.0):
            raise ConfigError(f"geometry.blend_fraction must lie in [0, 1], "
                              f"got {self.blend_fraction!r}")
        if not (math.isfinite(self.alpha) and abs(self.alpha) <= math.pi / 2):
            raise ConfigError(f"environment.alpha_deg must lie in [-90, 90], "
                              f"got {math.degrees(self.alpha)!r}")
        if self.ctl_window < 1:
            raise ConfigError("ctl window must be >= 1")
        if not 0.0 < self.ctl_gamma_cut < 1.0:
            raise ConfigError("ctl gamma_cut must lie in (0, 1)")
        if self.state_ref is not None:
            mu_ref, sigma_ref = self.state_ref
            if not (np.isfinite(mu_ref) and np.isfinite(sigma_ref) and sigma_ref > 0):
                raise ConfigError("state reference needs a finite mu and a finite sigma > 0")
        check_n_points(self.n_points_low, "n_points_low")
        check_n_points(self.n_points_high, "n_points_high")

    def resolve_state_ref(self) -> tuple[float, float]:
        """Normalization reference, pinned to the source distribution."""
        if self.state_ref is not None:
            return self.state_ref
        dist = self.source.dist if self.source is not None else self.target.dist
        return (dist.mu, dist.sigma)

    def environment(self, fidelity: str) -> Environment:
        """The environment of one fidelity tier, at that tier's surface resolution."""
        n_points = self.n_points_low if fidelity == "low" else self.n_points_high
        return make_environment(fidelity, bounds=self.bounds, alpha=self.alpha,
                                blend_fraction=self.blend_fraction, n_points=n_points)


def normalize_state(re_c: float, ref: tuple[float, float]) -> float:
    mu_ref, sigma_ref = ref
    if sigma_ref <= 0:
        raise ConfigError("state reference sigma must be positive")
    return (re_c - mu_ref) / sigma_ref


def episode_rng(seed: int, phase: str, episode_index: int) -> np.random.Generator:
    """Private RNG stream for one episode, independent of worker layout."""
    return np.random.default_rng([seed, PHASE_IDS[phase], episode_index])


def collect_round(phase: PhaseSpec, env: Environment, params: PolicyParams,
                  cfg: RunConfig, round_index: int) -> list[EpisodeRecord]:
    """One pooled round of T_L episodes, in global episode order.

    Each episode draws its state and acts from its own RNG stream; the
    environment then builds and prices the T_L designs as one stack.
    """
    t_l = cfg.episodes_per_update
    ref = cfg.resolve_state_ref()
    drawn = []
    for j in range(t_l):
        rng = episode_rng(cfg.seed, phase.name, round_index * t_l + j)
        re_c = sample_state(phase.dist, rng)
        state = normalize_state(re_c, ref)
        drawn.append((re_c, state, act(params, state, rng), value(params, state)))
    designs = DesignVector(np.array([ga.clipped_action for _, _, ga, _ in drawn]))
    outcomes = env.step_round(designs, [re_c for re_c, _, _, _ in drawn], cfg.penalty)
    return [EpisodeRecord(state=state, action=ga.action, log_prob_old=ga.log_prob,
                          reward=reward, value_old=v, re_c=re_c,
                          worker=j // (t_l // cfg.workers), info=info)
            for j, ((re_c, state, ga, v), (reward, info)) in enumerate(zip(drawn, outcomes))]


@dataclass
class LogRow:
    episode: int
    phase: str
    fidelity: str
    worker: int
    re_c: float
    reward: float
    beta: float | None
    clip_fraction: float

    def to_csv(self) -> str:
        beta = "" if self.beta is None else repr(float(self.beta))
        return (f"{self.episode},{self.phase},{self.fidelity},{self.worker},"
                f"{float(self.re_c)!r},{float(self.reward)!r},{beta},"
                f"{float(self.clip_fraction)!r}")


@dataclass
class PhaseResult:
    name: str
    fidelity: str
    episodes: int
    rewards: np.ndarray
    rows: list
    complete: bool | None = None
    complete_episode: int | None = None


def run_phase(phase: PhaseSpec, env: Environment, trainer: PpoTrainer,
              controller: ctl_mod.TransferController | None, cfg: RunConfig,
              episode_offset: int = 0) -> PhaseResult:
    """Rounds of collect -> update -> controller updates, until done.

    The phase stops at the first round boundary after the controller declares
    completion, or when the episode budget runs out.
    """
    t_l = cfg.episodes_per_update
    rounds = phase.max_episodes // t_l
    rows: list[LogRow] = []
    rewards: list[float] = []
    consecutive_aborts = 0
    for r in range(rounds):
        records = collect_round(phase, env, trainer.params, cfg, r)
        batch = ExperienceBatch.from_records(records)
        stats = trainer.update(batch)
        if stats.aborted:
            consecutive_aborts += 1
            if consecutive_aborts >= 3:
                raise RunError("three consecutive non-finite-gradient updates")
        else:
            consecutive_aborts = 0
        for idx, rec in enumerate(records):
            beta = controller.update(rec.reward) if controller is not None else None
            rows.append(LogRow(episode=episode_offset + r * t_l + idx + 1,
                               phase=phase.name, fidelity=phase.fidelity,
                               worker=rec.worker, re_c=rec.re_c, reward=rec.reward,
                               beta=beta, clip_fraction=stats.clip_fraction))
            rewards.append(rec.reward)
        if controller is not None and controller.complete:
            log.info("%s phase complete at episode %d (beta <= %g)",
                     phase.name, controller.complete_episode, controller.gamma_cut)
            break
    return PhaseResult(name=phase.name, fidelity=phase.fidelity, episodes=len(rewards),
                       rewards=np.asarray(rewards), rows=rows,
                       complete=None if controller is None else controller.complete,
                       complete_episode=None if controller is None else controller.complete_episode)


def trailing_mean(rewards: np.ndarray, k: int) -> np.ndarray:
    """Mean over the trailing min(e, k) rewards, for every episode e."""
    csum = np.concatenate([[0.0], np.cumsum(np.asarray(rewards, dtype=float))])
    e = np.arange(1, len(csum))
    lo = np.maximum(e - k, 0)
    return (csum[e] - csum[lo]) / (e - lo)


def threshold_value(final_mean: float, fraction: float) -> float:
    """Reward level corresponding to a fraction of converged performance.

    For negative rewards the literal product would sit above the final level
    and be unreachable, so the fraction divides instead.
    """
    return final_mean * fraction if final_mean >= 0 else final_mean / fraction


def episodes_to_threshold(rewards: np.ndarray, threshold: float, k: int) -> int | None:
    """First episode whose trailing-k mean reaches the threshold, 1-based."""
    if len(rewards) == 0:
        return None
    tm = trailing_mean(rewards, k)
    hit = np.nonzero(tm >= threshold)[0]
    return int(hit[0]) + 1 if len(hit) else None


@dataclass
class CampaignReport:
    mode: str
    seed: int
    state_ref: tuple[float, float]
    source: PhaseResult | None
    target: PhaseResult
    rows: list
    params: PolicyParams
    source_params: PolicyParams | None
    controller: ctl_mod.TransferController | None
    env_counts: dict
    hifi_calls_during_source: int
    threshold: float
    episodes_to_threshold: int | None
    tail_mean: float
    tail_var: float
    ctl_window: int = 50
    tail_episodes: int = 500
    checkpoints: dict = field(default_factory=dict)


def run_campaign(cfg: RunConfig, out_dir=None) -> CampaignReport:
    """Execute one full campaign; optionally drop checkpoints into out_dir."""
    cfg.validate()
    state_ref = cfg.resolve_state_ref()

    init_rng = np.random.default_rng([cfg.seed, 9000])
    params = init_params(init_rng, state_dim=1, action_dim=13,
                         hidden=tuple(cfg.hidden), log_std_init=cfg.log_std_init)
    trainer = PpoTrainer(params, cfg.ppo)

    target_env = cfg.environment(cfg.target.fidelity)
    source_env = cfg.environment(cfg.source.fidelity) if cfg.source is not None else None

    checkpoints: dict[str, str] = {}
    controller = None
    source_result = None
    source_params = None
    hifi_during_source = 0
    episode_offset = 0

    if cfg.mode != "scratch":
        controller = ctl_mod.TransferController(k=cfg.ctl_window, gamma_cut=cfg.ctl_gamma_cut)
        source_result = run_phase(cfg.source, source_env, trainer, controller, cfg)
        episode_offset = source_result.episodes
        hifi_during_source = target_env.eval_count if cfg.target.fidelity == "high" else 0
        if not controller.complete and not cfg.force_transfer:
            raise RunError(
                "source budget exhausted before the transfer criterion fired; "
                "set ctl.force_transfer to transfer anyway"
            )
        source_params = trainer.params.copy()
        if out_dir is not None:
            path = os.path.join(out_dir, "checkpoint_source_final.ckpt")
            save_checkpoint(path, trainer.params, extras=controller.state_arrays())
            checkpoints["source_final"] = path
        trainer = PpoTrainer(ctl_mod.transfer(trainer.params), cfg.ppo)

    target_result = run_phase(cfg.target, target_env, trainer, None, cfg,
                              episode_offset=episode_offset)

    if out_dir is not None:
        path = os.path.join(out_dir, "checkpoint_target_final.ckpt")
        extras = controller.state_arrays() if controller is not None else None
        save_checkpoint(path, trainer.params, extras=extras)
        checkpoints["target_final"] = path

    rows = (source_result.rows if source_result else []) + target_result.rows
    tail = target_result.rewards[-cfg.tail_episodes:]
    tail_mean = float(tail.mean()) if len(tail) else float("nan")
    tail_var = float(tail.var()) if len(tail) else float("nan")
    tm_final = float(trailing_mean(target_result.rewards, cfg.ctl_window)[-1]) \
        if target_result.episodes else float("nan")
    threshold = threshold_value(tm_final, cfg.threshold_fraction) \
        if target_result.episodes else float("nan")
    eps_thr = episodes_to_threshold(target_result.rewards, threshold, cfg.ctl_window) \
        if target_result.episodes else None

    counts = {
        "source": source_env.eval_count if source_env is not None else 0,
        "target": target_env.eval_count,
        "low": sum(e.eval_count for e in (source_env, target_env)
                   if e is not None and e.fidelity == "low"),
        "high": sum(e.eval_count for e in (source_env, target_env)
                    if e is not None and e.fidelity == "high"),
    }

    return CampaignReport(mode=cfg.mode, seed=cfg.seed, state_ref=state_ref,
                          source=source_result, target=target_result, rows=rows,
                          params=trainer.params, source_params=source_params,
                          controller=controller, env_counts=counts,
                          hifi_calls_during_source=hifi_during_source,
                          threshold=threshold, episodes_to_threshold=eps_thr,
                          tail_mean=tail_mean, tail_var=tail_var,
                          ctl_window=cfg.ctl_window, tail_episodes=cfg.tail_episodes,
                          checkpoints=checkpoints)


@dataclass
class EvalResult:
    rewards: np.ndarray
    summary: dict
    mean_shape: AirfoilShape
    mean_aero: AeroResult | None


def greedy_designs(params: PolicyParams, re_cs, ref: tuple[float, float]) -> DesignVector:
    """The clipped policy means at the given Reynolds numbers, as one (B, 13) stack.

    The forward passes run one state per call: a batched pass rounds
    differently in the last bits.
    """
    return DesignVector(np.array([
        np.clip(forward_policy(params, normalize_state(re_c, ref))[0], -1.0, 1.0)
        for re_c in re_cs]))


def evaluate_policy(params: PolicyParams, dist: StateDistribution, env: Environment,
                    n_episodes: int, seed: int, ref: tuple[float, float],
                    penalty: float = -0.1, *, episodes_per_update: int) -> EvalResult:
    """Greedy rollout of the policy mean over sampled states.

    Episode i draws its state from its own RNG stream; the greedy designs are
    priced in rounds of T_L = ``episodes_per_update`` rows, the last round
    ragged. Also produces the mean predictive shape: the greedy design at the
    distribution's mean state, with its drag, lift and pressure.
    """
    rewards = np.empty(n_episodes)
    for start in range(0, n_episodes, episodes_per_update):
        stop = min(start + episodes_per_update, n_episodes)
        re_cs = [sample_state(dist, episode_rng(seed, "eval", i)) for i in range(start, stop)]
        outcomes = env.step_round(greedy_designs(params, re_cs, ref), re_cs, penalty)
        rewards[start:stop] = [reward for reward, _ in outcomes]

    summary = {}
    if n_episodes:
        summary = {"episodes": n_episodes, "mean": float(rewards.mean()),
                   "std": float(rewards.std()), "min": float(rewards.min()),
                   "max": float(rewards.max())}

    (mean_shape,) = env.build_shapes(greedy_designs(params, [dist.mu], ref))
    mean_aero = None
    if mean_shape.valid:
        try:
            mean_aero = env.evaluate(mean_shape, dist.mu)
        except SolverError:
            mean_aero = None
    return EvalResult(rewards=rewards, summary=summary, mean_shape=mean_shape,
                      mean_aero=mean_aero)


# ---------------------------------------------------------------------------
# artifact persistence (CSV + structured-text summary), atomic writes
# ---------------------------------------------------------------------------

def write_episodes_csv(rows: list, path) -> None:
    lines = [EPISODES_SCHEMA, ",".join(EPISODE_COLUMNS)]
    lines.extend(row.to_csv() for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")


def read_episodes_csv(path):
    """Rows of the episodes log as a list of dicts; rejects unknown schemas."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != EPISODES_SCHEMA:
        raise SchemaError(f"{path}: unknown episodes.csv schema")
    if len(lines) < 2 or lines[1] != ",".join(EPISODE_COLUMNS):
        raise SchemaError(f"{path}: unexpected episodes.csv columns")
    rows = []
    for number, line in enumerate(lines[2:], start=3):
        try:
            ep, phase, fidelity, worker, re_c, reward, beta, clipf = line.split(",")
            rows.append({"episode": int(ep), "phase": phase, "fidelity": fidelity,
                         "worker": int(worker), "re_c": float(re_c),
                         "reward": float(reward),
                         "beta": None if beta == "" else float(beta),
                         "clip_fraction": float(clipf)})
        except ValueError as exc:
            raise SchemaError(f"{path}: malformed row at line {number}: {exc}") from exc
    return rows


def summary_text(report: CampaignReport) -> str:
    lines = [SUMMARY_SCHEMA,
             f"mode: {report.mode}",
             f"seed: {report.seed}",
             f"state_ref_mu: {report.state_ref[0]!r}",
             f"state_ref_sigma: {report.state_ref[1]!r}"]
    if report.source is not None:
        lines += [f"source_fidelity: {report.source.fidelity}",
                  f"source_episodes: {report.source.episodes}",
                  f"ctl_complete: {report.source.complete}",
                  f"ctl_complete_episode: {report.source.complete_episode}"]
    lines += [f"target_fidelity: {report.target.fidelity}",
              f"target_episodes: {report.target.episodes}",
              f"ctl_window: {report.ctl_window}",
              f"tail_episodes: {report.tail_episodes}",
              f"threshold: {report.threshold!r}",
              f"episodes_to_threshold: {report.episodes_to_threshold}",
              f"tail_mean: {report.tail_mean!r}",
              f"tail_var: {report.tail_var!r}",
              f"env_calls_source: {report.env_counts['source']}",
              f"env_calls_target: {report.env_counts['target']}",
              f"env_calls_low: {report.env_counts['low']}",
              f"env_calls_high: {report.env_counts['high']}",
              f"hifi_calls_during_source: {report.hifi_calls_during_source}"]
    return "\n".join(lines) + "\n"


def write_summary(report: CampaignReport, path) -> None:
    atomic_write(path, summary_text(report))


def read_summary(path) -> dict:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != SUMMARY_SCHEMA:
        raise SchemaError(f"{path}: unknown summary schema")
    out = {}
    for line in lines[1:]:
        key, _, val = line.partition(": ")
        out[key] = val
    return out
