"""Command-line entry point: train, evaluate, and compare runs.

Exit codes: 0 success, 2 configuration error, 3 aborted training,
4 checkpoint or artifact-schema version mismatch.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import config as config_mod
from . import orchestrator as orch
from .aeroenv import StateDistribution, write_cp_csv
from .agent import load_checkpoint
from .errors import CheckpointError, ConfigError, MflightError, SchemaError
from .files import atomic_write
from .geometry import write_selig

log = logging.getLogger("mflight")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORTED = 3
EXIT_VERSION = 4

HISTOGRAM_SCHEMA = "# mflight-histogram v1"
COMPARE_SCHEMA = "# mflight-compare v1"
HISTOGRAM_BINS = 50


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mflight",
                                description="multi-fidelity RL airfoil optimization")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run a training campaign")
    t.add_argument("--config", required=True, help="path to a JSON config document")
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--seed", type=int, default=None, help="override the config seed")
    t.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key (repeatable)")

    e = sub.add_parser("evaluate", help="greedy evaluation of a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--config", required=True)
    e.add_argument("--episodes", type=int, default=None)
    e.add_argument("--out", required=True)

    c = sub.add_parser("compare", help="compare runs against the first (baseline)")
    c.add_argument("run_dirs", nargs="+", help="run directories (baseline first)")
    c.add_argument("--out", required=True, help="output comparison CSV")
    return p


def _eval_settings(doc: dict):
    """Evaluation distribution and environment derived from a config document."""
    ev = doc["evaluation"]
    src = doc.get("source")
    base = src if src is not None else doc["target"]
    mu = ev["mu"] if ev["mu"] is not None else base["mu"]
    sigma = ev["sigma"] if ev["sigma"] is not None else base["sigma"]
    fidelity = ev["fidelity"] if ev["fidelity"] is not None else doc["target"]["fidelity"]
    episodes = config_mod.as_int(ev["episodes"], "evaluation.episodes")
    mu = config_mod.as_float(mu, "evaluation.mu")
    sigma = config_mod.as_float(sigma, "evaluation.sigma")
    if episodes < 0:
        raise ConfigError(f"evaluation.episodes must be >= 0, got {episodes}")
    return StateDistribution(mu, sigma), fidelity, episodes


def cmd_train(args) -> int:
    doc = config_mod.load_document(args.config)
    if args.overrides:
        doc = config_mod.apply_overrides(doc, args.overrides)
    if args.seed is not None:
        doc["seed"] = int(args.seed)
    cfg = config_mod.build_run_config(doc)
    _eval_settings(doc)  # only evaluate reads them, but a bad value is rejected before any run

    os.makedirs(args.out, exist_ok=True)
    report = orch.run_campaign(cfg, out_dir=args.out)

    orch.write_episodes_csv(report.rows, os.path.join(args.out, "episodes.csv"))
    orch.write_summary(report, os.path.join(args.out, "summary.txt"))

    # mean-predictive airfoils at the phase distribution means: built, not priced
    for phase, params in (("source", report.source_params), ("target", report.params)):
        if params is None:
            continue
        spec = cfg.source if phase == "source" else cfg.target
        design = orch.greedy_designs(params, [spec.dist.mu], report.state_ref)
        (shape,) = cfg.environment(spec.fidelity).build_shapes(design)
        write_selig(shape, os.path.join(args.out, f"airfoil_{phase}_mean.dat"))
    log.info("campaign complete: %d episodes logged to %s", len(report.rows), args.out)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    doc = config_mod.load_document(args.config)
    cfg = config_mod.build_run_config(doc)
    dist, fidelity, episodes = _eval_settings(doc)
    if args.episodes is not None:
        if args.episodes < 0:
            raise ConfigError(f"--episodes must be >= 0, got {args.episodes}")
        episodes = args.episodes
    params, _ = load_checkpoint(args.checkpoint)
    result = orch.evaluate_policy(params, dist, cfg.environment(fidelity), episodes, cfg.seed,
                                  cfg.resolve_state_ref(), cfg.penalty,
                                  episodes_per_update=cfg.episodes_per_update)

    os.makedirs(args.out, exist_ok=True)
    lines = [HISTOGRAM_SCHEMA, "bin_left,bin_right,count"]
    if episodes:
        counts, edges = np.histogram(result.rewards, bins=HISTOGRAM_BINS)
        lines += [f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(counts[i])}"
                  for i in range(len(counts))]
    atomic_write(os.path.join(args.out, "histogram.csv"), "\n".join(lines) + "\n")

    summary = ["mflight-eval v1", f"fidelity: {fidelity}",
               f"mu: {dist.mu!r}", f"sigma: {dist.sigma!r}"]
    summary += [f"{k}: {v!r}" for k, v in result.summary.items()]
    summary.append(f"mean_shape_valid: {result.mean_shape.valid}")
    if result.mean_aero is not None:
        summary += [f"mean_shape_cd: {result.mean_aero.cd!r}",
                    f"mean_shape_cl: {result.mean_aero.cl!r}",
                    f"mean_shape_converged: {result.mean_aero.converged}"]
    atomic_write(os.path.join(args.out, "eval_summary.txt"), "\n".join(summary) + "\n")

    write_selig(result.mean_shape, os.path.join(args.out, "airfoil_mean.dat"))
    if result.mean_aero is not None:
        write_cp_csv(result.mean_aero, os.path.join(args.out, "cp_mean.csv"))
    return EXIT_OK


def _run_metrics(run_dir: str):
    summary = orch.read_summary(os.path.join(run_dir, "summary.txt"))
    rows = orch.read_episodes_csv(os.path.join(run_dir, "episodes.csv"))
    target_rewards = np.array([r["reward"] for r in rows if r["phase"] == "target"])
    hifi_calls = int(summary["env_calls_high"])
    return summary, target_rewards, hifi_calls


def cmd_compare(args) -> int:
    if len(args.run_dirs) < 2:
        raise ConfigError("compare needs at least two run directories")
    runs = [_run_metrics(d) for d in args.run_dirs]

    base_summary, base_rewards, _ = runs[0]
    threshold = float(base_summary["threshold"])
    window = int(base_summary.get("ctl_window", 50))

    lines = [COMPARE_SCHEMA,
             "run,mode,target_fidelity,target_episodes,episodes_to_threshold,"
             "last500_mean,last500_var,hifi_calls,savings_pct"]
    base_eps = None
    for (summary, rewards, hifi_calls), run_dir in zip(runs, args.run_dirs):
        eps = orch.episodes_to_threshold(rewards, threshold, window)
        if base_eps is None:
            base_eps = eps
        if eps is None or base_eps is None:
            savings = ""
        else:
            savings = repr(100.0 * (1.0 - eps / base_eps))
        tail = rewards[-int(summary.get("tail_episodes", 500) or 500):]
        lines.append(
            f"{os.path.basename(os.path.normpath(run_dir))},{summary['mode']},"
            f"{summary['target_fidelity']},{len(rewards)},"
            f"{'' if eps is None else eps},"
            f"{float(tail.mean())!r},{float(tail.var())!r},{hifi_calls},{savings}"
        )
    text = "\n".join(lines) + "\n"
    atomic_write(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _parser().parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args)
        if args.command == "evaluate":
            return cmd_evaluate(args)
        return cmd_compare(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CheckpointError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERSION
    except MflightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORTED


if __name__ == "__main__":
    sys.exit(main())
