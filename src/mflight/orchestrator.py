"""Training campaigns: source-phase learning, CTL-gated transfer, target phase.

A round draws its T_L episodes' states and actions one after another, prices
the T_L designs as one stack, then runs the PPO update, then the per-episode
controller updates. Every episode draws from its own RNG stream
keyed by (seed, phase, global episode index), so every logged number is a
function of (seed, config) alone. The worker count W only labels episode j of
a round as worker j // (T_L / W) in the ``worker`` column of the episode log,
and ``write_episodes_csv`` is the one place that computes the label.

``run_campaign`` only computes; ``write_run`` then writes every file of the
run from its report, so a failed campaign leaves no output directory.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

import numpy as np

from . import ctl as ctl_mod
from .aeroenv import DEFAULT_PENALTY, AeroResult, Environment, StateDistribution, sample_state
from .agent import LOG_STD_MAX, LOG_STD_MIN, PolicyParams, act, init_params, save_checkpoint
from .agent import value  # unused here; bench/spans.LAYERS wraps orchestrator.value by name
from .errors import ConfigError, RunError, SchemaError, SolverError
from .files import atomic_write, read_text
from .geometry import AirfoilShape, DesignVector, GeometryBounds, write_selig
from .ppo import ExperienceBatch, PpoConfig, PpoTrainer

log = logging.getLogger(__name__)

PHASE_IDS = {"source": 0, "target": 1, "eval": 2}
MODES = ("scratch", "single_fidelity_ctl", "multi_fidelity_ctl")

EPISODES_SCHEMA = "# mflight-episodes v1"
SUMMARY_SCHEMA = "mflight-summary v1"
EPISODE_COLUMNS = ("episode", "phase", "fidelity", "worker", "re_c", "reward",
                   "beta", "clip_fraction")
THRESHOLD_FRACTION = 0.95  # episodes to threshold: the fraction of the final trailing mean
INDEX_MAX = int(np.iinfo(np.intp).max)  # the largest count numpy can size or index with


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


@dataclass(frozen=True)
class RunConfig:
    """One command's settings, checked whole at construction."""

    mode: str
    target: PhaseSpec
    source: PhaseSpec | None = None
    ppo: PpoConfig = field(default_factory=PpoConfig)
    workers: int = 4
    episodes_per_update: int = 20      # T_L: pooled experience per policy update
    seed: int = 0
    penalty: float = DEFAULT_PENALTY
    log_std_init: float = -0.5
    ctl_window: int = 50
    ctl_gamma_cut: float = 0.3
    force_transfer: bool = False
    bounds: GeometryBounds = field(default_factory=GeometryBounds)
    state_ref: tuple[float, float] | None = None
    tail_episodes: int = 500
    eval_episodes: int = 1000
    eval_mu: float | None = None       # None: the source (else target) mean
    eval_sigma: float | None = None    # None: the source (else target) std
    eval_fidelity: str | None = None   # None: the target fidelity

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        # numpy seeds its generators from non-negative integers only
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
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
        # the mode labels summary.txt and compare.csv, so it must name the transfer it runs
        if self.source is not None and ((self.mode == "single_fidelity_ctl")
                                        != (self.source.fidelity == self.target.fidelity)):
            raise ConfigError(
                f"mode {self.mode!r} does not fit a {self.source.fidelity} -> "
                f"{self.target.fidelity} transfer: single_fidelity_ctl keeps one fidelity, "
                "multi_fidelity_ctl changes it")
        for phase in filter(None, (self.source, self.target)):
            if phase.max_episodes % self.episodes_per_update != 0:
                raise ConfigError(
                    f"{phase.name} budget {phase.max_episodes} is not a multiple of "
                    f"episodes_per_update={self.episodes_per_update}"
                )
        if self.tail_episodes < 1:
            raise ConfigError("tail_episodes must be >= 1")
        # a valid design earns -cd < 0; a penalty >= 0 would pay failures more than any design
        if not (np.isfinite(self.penalty) and self.penalty < 0.0):
            raise ConfigError(f"penalty must be finite and negative, got {self.penalty!r}")
        # updates project log_std into its clamp range, but the first round samples with this
        if not LOG_STD_MIN <= self.log_std_init <= LOG_STD_MAX:
            raise ConfigError(f"agent.log_std_init must lie in [{LOG_STD_MIN:g}, "
                              f"{LOG_STD_MAX:g}], got {self.log_std_init!r}")
        if self.ctl_window < 1:
            raise ConfigError("ctl window must be >= 1")
        if not 0.0 < self.ctl_gamma_cut < 1.0:
            raise ConfigError("ctl gamma_cut must lie in (0, 1)")
        if self.state_ref is not None:
            mu_ref, sigma_ref = self.state_ref
            if not (np.isfinite(mu_ref) and np.isfinite(sigma_ref) and sigma_ref > 0):
                raise ConfigError("state reference needs a finite mu and a finite sigma > 0")
        if self.eval_episodes < 0:
            raise ConfigError(f"evaluation.episodes must be >= 0, got {self.eval_episodes}")
        # numpy sizes these arrays and windows with its index type, so no larger count can run
        for name, count in (("ctl.window", self.ctl_window),
                            ("evaluation.episodes", self.eval_episodes)):
            if count > INDEX_MAX:
                raise ConfigError(f"{name} must be at most {INDEX_MAX}, got {count}")
        if self.eval_fidelity not in (None, "low", "high"):
            raise ConfigError(f"evaluation.fidelity must be low or high, got {self.eval_fidelity!r}")
        self.evaluation()  # the distribution checks its own mu and sigma

    def resolve_state_ref(self) -> tuple[float, float]:
        """Normalization reference, pinned to the source distribution."""
        if self.state_ref is not None:
            return self.state_ref
        dist = (self.source or self.target).dist
        return (dist.mu, dist.sigma)

    def evaluation(self) -> tuple[StateDistribution, str]:
        """Evaluation distribution and fidelity. An unset mu or sigma is the source's
        (else the target's); an unset fidelity is the target's."""
        base = (self.source or self.target).dist
        return (StateDistribution(base.mu if self.eval_mu is None else self.eval_mu,
                                  base.sigma if self.eval_sigma is None else self.eval_sigma),
                self.eval_fidelity or self.target.fidelity)

    def environment(self, fidelity: str) -> Environment:
        """The environment of one fidelity tier, in this run's design box and penalty."""
        return Environment(fidelity, bounds=self.bounds, penalty=self.penalty)


def normalize_state(re_c: float | np.ndarray, ref: tuple[float, float]) -> float | np.ndarray:
    mu_ref, sigma_ref = ref
    if sigma_ref <= 0:
        raise ConfigError("state reference sigma must be positive")
    return (re_c - mu_ref) / sigma_ref


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer; 0 is one zero word."""
    if 0 <= n <= 0xFFFFFFFF:
        return [n]
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [(n >> shift) & 0xFFFFFFFF for shift in range(0, max(n.bit_length(), 1), 32)]


def episode_rng(seed: int, phase: str, episode_index: int) -> np.random.Generator:
    """Private RNG stream for one episode, independent of worker layout.

    The stream is ``np.random.default_rng([seed, phase id, episode_index])``;
    the words numpy derives from that list are handed over as one uint32 array.
    """
    words = _uint32_words(seed) + [PHASE_IDS[phase]] + _uint32_words(episode_index)
    return np.random.default_rng(np.array(words, dtype=np.uint32))


def collect_round(phase: PhaseSpec, env: Environment, params: PolicyParams,
                  cfg: RunConfig, round_index: int) -> tuple[ExperienceBatch, list, list]:
    """One pooled round of T_L episodes: its batch, Reynolds numbers and infos.

    Each episode draws its state and then its action from its own RNG stream;
    the environment then builds and prices the T_L designs as one stack. The
    batch's rows, the Reynolds numbers and ``step_round``'s info dicts are in
    global episode order.
    """
    t_l = cfg.episodes_per_update
    ref = cfg.resolve_state_ref()
    rngs = [episode_rng(cfg.seed, phase.name, round_index * t_l + j) for j in range(t_l)]
    re_cs = [sample_state(phase.dist, rng) for rng in rngs]
    states = normalize_state(np.array(re_cs)[:, None], ref)
    drawn = act(params, states, rngs)
    values = params.value.forward_rows(states)[:, 0]
    outcomes = env.step_round(DesignVector(drawn.clipped), re_cs)
    rewards = np.array([reward for reward, _ in outcomes])
    batch = ExperienceBatch(states=states, actions=drawn.actions,
                            log_probs_old=drawn.log_probs, advantages=rewards - values,
                            returns=rewards)
    return batch, re_cs, [info for _, info in outcomes]


@dataclass
class RoundLog:
    """The logged values of one round, in episode order."""

    re_cs: list
    rewards: list
    betas: list | None         # None: the phase ran without a controller
    clip_fraction: float


@dataclass
class PhaseResult:
    name: str
    fidelity: str
    episodes: int
    rewards: np.ndarray
    rounds: list
    complete: bool | None = None
    complete_episode: int | None = None


def run_phase(phase: PhaseSpec, env: Environment, trainer: PpoTrainer,
              controller: ctl_mod.TransferController | None, cfg: RunConfig) -> PhaseResult:
    """Rounds of collect -> update -> controller updates, until done.

    The phase stops at the first round boundary after the controller declares
    completion, or when the episode budget runs out.
    """
    rounds: list[RoundLog] = []
    consecutive_aborts = 0
    for r in range(phase.max_episodes // cfg.episodes_per_update):
        batch, re_cs, _ = collect_round(phase, env, trainer.params, cfg, r)
        rewards = batch.returns.tolist()
        stats = trainer.update(batch)
        if stats.aborted:
            consecutive_aborts += 1
            if consecutive_aborts >= 3:
                raise RunError("three consecutive non-finite-gradient updates")
        else:
            consecutive_aborts = 0
        betas = None if controller is None else [controller.update(reward) for reward in rewards]
        rounds.append(RoundLog(re_cs, rewards, betas, stats.clip_fraction))
        if controller is not None and controller.complete:
            log.info("%s phase complete at episode %d (beta <= %g)",
                     phase.name, controller.complete_episode, controller.gamma_cut)
            break
    rewards = np.array([reward for round_log in rounds for reward in round_log.rewards])
    return PhaseResult(name=phase.name, fidelity=phase.fidelity, episodes=len(rewards),
                       rewards=rewards, rounds=rounds,
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
    cfg: RunConfig
    source: PhaseResult | None
    target: PhaseResult
    params: PolicyParams
    source_params: PolicyParams | None
    env_counts: dict
    hifi_calls_during_source: int
    threshold: float
    episodes_to_threshold: int | None
    tail_mean: float
    tail_var: float
    ctl_state: dict | None   # controller state at transfer, also its final; None in scratch


def run_campaign(cfg: RunConfig) -> CampaignReport:
    """Execute one full campaign and return its report; writes no file."""
    init_rng = np.random.default_rng([cfg.seed, 9000])
    params = init_params(init_rng, log_std_init=cfg.log_std_init)
    trainer = PpoTrainer(params, cfg.ppo)

    target_env = cfg.environment(cfg.target.fidelity)
    source_env = cfg.environment(cfg.source.fidelity) if cfg.source is not None else None

    ctl_state = None
    source_result = None
    source_params = None
    hifi_during_source = 0

    if cfg.mode != "scratch":
        controller = ctl_mod.TransferController(k=cfg.ctl_window, gamma_cut=cfg.ctl_gamma_cut)
        source_result = run_phase(cfg.source, source_env, trainer, controller, cfg)
        hifi_during_source = sum(e.eval_count for e in (source_env, target_env)
                                 if e.fidelity == "high")
        if not controller.complete and not cfg.force_transfer:
            raise RunError(
                "source budget exhausted before the transfer criterion fired; "
                "set ctl.force_transfer to transfer anyway"
            )
        ctl_state = controller.state_arrays()
        source_params = trainer.params   # transfer copies; the source trainer is dropped
        trainer = PpoTrainer(ctl_mod.transfer(source_params), cfg.ppo)

    target_result = run_phase(cfg.target, target_env, trainer, None, cfg)

    tail = target_result.rewards[-cfg.tail_episodes:]
    tail_mean = float(tail.mean()) if len(tail) else float("nan")
    tail_var = float(tail.var()) if len(tail) else float("nan")
    tm_final = float(trailing_mean(target_result.rewards, cfg.ctl_window)[-1]) \
        if target_result.episodes else float("nan")
    threshold = threshold_value(tm_final, THRESHOLD_FRACTION)   # NaN for no episodes
    eps_thr = episodes_to_threshold(target_result.rewards, threshold, cfg.ctl_window)

    counts = {
        "source": source_env.eval_count if source_env is not None else 0,
        "target": target_env.eval_count,
        "low": sum(e.eval_count for e in (source_env, target_env)
                   if e is not None and e.fidelity == "low"),
        "high": sum(e.eval_count for e in (source_env, target_env)
                    if e is not None and e.fidelity == "high"),
    }

    return CampaignReport(cfg=cfg, source=source_result, target=target_result,
                          params=trainer.params, source_params=source_params,
                          env_counts=counts, hifi_calls_during_source=hifi_during_source,
                          threshold=threshold, episodes_to_threshold=eps_thr,
                          tail_mean=tail_mean, tail_var=tail_var, ctl_state=ctl_state)


@dataclass
class EvalResult:
    rewards: np.ndarray
    summary: dict
    mean_shape: AirfoilShape
    mean_aero: AeroResult | None


def greedy_designs(params: PolicyParams, re_cs, ref: tuple[float, float]) -> DesignVector:
    """The clipped policy means at the given Reynolds numbers, as one (B, 13) stack."""
    states = normalize_state(np.array(re_cs)[:, None], ref)
    return DesignVector(np.clip(params.policy.forward_rows(states), -1.0, 1.0))


def evaluate_policy(params: PolicyParams, dist: StateDistribution, env: Environment,
                    n_episodes: int, seed: int, ref: tuple[float, float], *,
                    episodes_per_update: int) -> EvalResult:
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
        outcomes = env.step_round(greedy_designs(params, re_cs, ref), re_cs)
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

def write_episodes_csv(report: CampaignReport, path) -> None:
    """One row per episode of every round, numbered from 1 across the phases."""
    per_worker = report.cfg.episodes_per_update // report.cfg.workers
    lines = [EPISODES_SCHEMA, ",".join(EPISODE_COLUMNS)]
    episode = 0
    for phase in filter(None, (report.source, report.target)):
        for round_log in phase.rounds:
            betas = round_log.betas or [None] * len(round_log.rewards)
            for j, (re_c, reward, beta) in enumerate(zip(round_log.re_cs, round_log.rewards,
                                                         betas)):
                episode += 1
                lines.append(f"{episode},{phase.name},{phase.fidelity},"
                             f"{j // per_worker},{float(re_c)!r},{float(reward)!r},"
                             f"{'' if beta is None else repr(float(beta))},"
                             f"{float(round_log.clip_fraction)!r}")
    atomic_write(path, "\n".join(lines) + "\n")


def read_episodes_csv(path):
    """Rows of the episodes log as a list of dicts; rejects unknown schemas."""
    lines = read_text(path, SchemaError, "episodes log").splitlines()
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
    cfg = report.cfg
    mu_ref, sigma_ref = cfg.resolve_state_ref()
    lines = [SUMMARY_SCHEMA,
             f"mode: {cfg.mode}",
             f"seed: {cfg.seed}",
             f"state_ref_mu: {mu_ref!r}",
             f"state_ref_sigma: {sigma_ref!r}"]
    if report.source is not None:
        lines += [f"source_fidelity: {report.source.fidelity}",
                  f"source_episodes: {report.source.episodes}",
                  f"ctl_complete: {report.source.complete}",
                  f"ctl_complete_episode: {report.source.complete_episode}"]
    lines += [f"target_fidelity: {report.target.fidelity}",
              f"target_episodes: {report.target.episodes}",
              f"ctl_window: {cfg.ctl_window}",
              f"tail_episodes: {cfg.tail_episodes}",
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


def read_summary(path) -> dict:
    lines = read_text(path, SchemaError, "summary").splitlines()
    if not lines or lines[0] != SUMMARY_SCHEMA:
        raise SchemaError(f"{path}: unknown summary schema")
    out = {}
    for line in lines[1:]:
        key, _, val = line.partition(": ")
        out[key] = val
    return out


def write_run(report: CampaignReport, out_dir) -> None:
    """Create ``out_dir`` and write the run: per phase with parameters its final
    checkpoint (controller state as ``extra.*``) and its mean-predictive airfoil
    at the phase mean (built, not priced); then episodes.csv and summary.txt."""
    cfg = report.cfg
    os.makedirs(out_dir, exist_ok=True)
    for spec, params in ((cfg.source, report.source_params), (cfg.target, report.params)):
        if params is None:
            continue
        save_checkpoint(os.path.join(out_dir, f"checkpoint_{spec.name}_final.ckpt"), params,
                        extras=report.ctl_state)
        design = greedy_designs(params, [spec.dist.mu], cfg.resolve_state_ref())
        (shape,) = cfg.environment(spec.fidelity).build_shapes(design)
        write_selig(shape, os.path.join(out_dir, f"airfoil_{spec.name}_mean.dat"))
    write_episodes_csv(report, os.path.join(out_dir, "episodes.csv"))
    atomic_write(os.path.join(out_dir, "summary.txt"), summary_text(report))
