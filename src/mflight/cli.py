"""Command-line entry point: train, evaluate, and compare runs.

Exit codes: 0 success, 2 configuration error, 3 aborted training or an
allocation the host cannot make, 4 an unreadable checkpoint or run file, a
checkpoint of state or action widths the environment cannot act with, or a
checkpoint or artifact-schema version mismatch.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import os
import sys

import numpy as np

from . import config as config_mod
from . import orchestrator as orch
from .aeroenv import write_cp_csv
from .agent import load_checkpoint
from .errors import CheckpointError, ConfigError, MflightError, SchemaError
from .files import atomic_write
from .geometry import N_DESIGN_VARS, write_selig

log = logging.getLogger("mflight")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORTED = 3
EXIT_VERSION = 4

HISTOGRAM_SCHEMA = "# mflight-histogram v1"
COMPARE_SCHEMA = "# mflight-compare v2"
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
    e.add_argument("--out", required=True)

    c = sub.add_parser("compare", help="compare runs against the first (baseline)")
    c.add_argument("run_dirs", nargs="+", help="run directories (baseline first)")
    c.add_argument("--out", required=True, help="output comparison CSV")
    return p


def cmd_train(args) -> int:
    doc = config_mod.apply_overrides(config_mod.load_document(args.config), args.overrides)
    if args.seed is not None:
        doc["seed"] = int(args.seed)
    cfg = config_mod.build_run_config(doc)

    report = orch.run_campaign(cfg)
    orch.write_run(report, args.out)
    episodes = report.target.episodes + (report.source.episodes if report.source else 0)
    log.info("campaign complete: %d episodes logged to %s", episodes, args.out)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = config_mod.build_run_config(config_mod.load_document(args.config))
    (dist, fidelity), episodes = cfg.evaluation(), cfg.eval_episodes
    params, _ = load_checkpoint(args.checkpoint)
    # the state is the one normalized Reynolds number, an action one design vector
    widths = (params.policy.sizes[0], params.action_dim)
    if widths != (1, N_DESIGN_VARS):
        raise CheckpointError(
            f"checkpoint {args.checkpoint} has state width {widths[0]} and action width "
            f"{widths[1]}; the environment needs state width 1 and action width {N_DESIGN_VARS}")
    result = orch.evaluate_policy(params, dist, cfg.environment(fidelity), episodes, cfg.seed,
                                  cfg.resolve_state_ref(),
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


# the summary.txt keys compare reads, with their types
COMPARE_KEYS = (("mode", str), ("target_fidelity", str), ("threshold", float),
                ("ctl_window", int), ("tail_mean", float), ("tail_var", float),
                ("env_calls_high", int))


def _run_metrics(run_dir: str):
    """The summary fields compare reads, typed, and the run's target-phase rewards."""
    path = os.path.join(run_dir, "summary.txt")
    summary = orch.read_summary(path)
    for key, kind in COMPARE_KEYS:
        try:
            summary[key] = kind(summary[key])
        except KeyError:
            raise SchemaError(f"{path}: summary has no {key}") from None
        except ValueError:
            raise SchemaError(f"{path}: summary {key} is not a number: {summary[key]!r}") from None
    rows = orch.read_episodes_csv(os.path.join(run_dir, "episodes.csv"))
    return summary, np.array([r["reward"] for r in rows if r["phase"] == "target"])


def cmd_compare(args) -> int:
    if len(args.run_dirs) < 2:
        raise ConfigError("compare needs at least two run directories")
    runs = [_run_metrics(d) for d in args.run_dirs]
    threshold, window = runs[0][0]["threshold"], runs[0][0]["ctl_window"]

    lines = [COMPARE_SCHEMA,
             "run,mode,target_fidelity,target_episodes,episodes_to_threshold,"
             "tail_mean,tail_var,hifi_calls,savings_pct"]
    base_eps = orch.episodes_to_threshold(runs[0][1], threshold, window)
    for (summary, rewards), run_dir in zip(runs, args.run_dirs):
        eps = orch.episodes_to_threshold(rewards, threshold, window)
        savings = "" if eps is None or base_eps is None else repr(100.0 * (1.0 - eps / base_eps))
        lines.append(
            f"{os.path.basename(os.path.normpath(run_dir))},{summary['mode']},"
            f"{summary['target_fidelity']},{len(rewards)},"
            f"{'' if eps is None else eps},"
            f"{summary['tail_mean']!r},{summary['tail_var']!r},{summary['env_calls_high']},"
            f"{savings}"
        )
    text = "\n".join(lines) + "\n"
    atomic_write(args.out, text)
    sys.stdout.write(text)
    return EXIT_OK


def _keep_freed_heap() -> None:
    """Let glibc keep up to 64 MB of freed memory at the top of the heap.

    By default glibc returns the top of the heap to the system after every
    transient peak, and a PPO update or a priced round then faults the same
    pages in again. Other C libraries are left as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD is parameter -1 in glibc's malloc.h


def main(argv=None) -> int:
    _keep_freed_heap()
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
    except MemoryError as exc:  # a count within numpy's index range can still exceed the host
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ABORTED


if __name__ == "__main__":
    sys.exit(main())
