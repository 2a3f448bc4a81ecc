# %% The command-line workflow: train, evaluate, compare
#
# Everything the library does is reachable from the `mflight` console script
# (or `python -m mflight.cli`). This demo drives it in-process with tiny
# budgets; real runs just use bigger max_episodes.

import json
import pathlib

from mflight import cli

work = pathlib.Path("demo_cli_runs")
work.mkdir(exist_ok=True)

config = {
    "schema_version": 1,
    "mode": "single_fidelity_ctl",
    "seed": 3,
    "source": {"fidelity": "low", "mu": 5.5e6, "sigma": 5e5, "max_episodes": 400},
    "target": {"fidelity": "low", "mu": 8e6, "sigma": 5e5, "max_episodes": 300},
    "ctl": {"window": 50, "force_transfer": True},
    "state_reference": {"mu": 5.5e6, "sigma": 5e5},
    "evaluation": {"episodes": 200},
}
cfg_path = work / "ctl.json"
cfg_path.write_text(json.dumps(config, indent=2))

scratch_cfg = dict(config, mode="scratch", seed=3)
scratch_cfg.pop("source")
scratch_path = work / "scratch.json"
scratch_path.write_text(json.dumps(scratch_cfg, indent=2))

# %% Train both runs. Overrides use --set key.path=value; --seed wins over the file.
for name, cfg in (("ctl_run", cfg_path), ("scratch_run", scratch_path)):
    code = cli.main(["train", "--config", str(cfg), "--out", str(work / name)])
    print(f"train {name}: exit {code}")

# %% Evaluate the transferred policy greedily on the source distribution,
# for the evaluation.episodes of the config.
code = cli.main([
    "evaluate",
    "--checkpoint", str(work / "ctl_run" / "checkpoint_target_final.ckpt"),
    "--config", str(cfg_path),
    "--out", str(work / "ctl_eval"),
])
print(f"evaluate: exit {code}")
print((work / "ctl_eval" / "eval_summary.txt").read_text())

# %% Compare against the scratch baseline (first directory is the baseline).
code = cli.main(["compare", str(work / "scratch_run"), str(work / "ctl_run"),
                 "--out", str(work / "comparison.csv")])
print(f"compare: exit {code}")
