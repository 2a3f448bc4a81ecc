"""The benchmark's own output checks pass on each workload's command at one seed.

``bench/run.py`` refuses a run whose artifacts fail ``bench/checks.py``; these
tests run the same checks on one command per workload, so a change the
benchmark would refuse as incorrect fails here first.
"""

import importlib.util
import json
import os

import pytest

from mflight import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "bench", "configs")
SEED = 1


def load_checks():
    spec = importlib.util.spec_from_file_location(
        "bench_checks", os.path.join(ROOT, "bench", "checks.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKS = load_checks()


def read(path) -> str:
    with open(path) as fh:
        return fh.read()


@pytest.mark.parametrize("workload", ["lowfi_transfer", "multifi_transfer"])
def test_campaign_passes_the_benchmark_checks(workload, tmp_path):
    config = os.path.join(CONFIGS, f"{workload}.json")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", config, "--out", str(out), "--seed", str(SEED)]) == 0
    rows = CHECKS.read_episodes(read(out / "episodes.csv"))
    summary = CHECKS.read_keyed(read(out / "summary.txt"))
    assert CHECKS.campaign_checks(rows, summary, json.loads(read(config))) == []


def test_evaluation_passes_the_benchmark_checks(tmp_path):
    cfg = dict(json.loads(read(os.path.join(CONFIGS, "hifi_evaluate.json"))), seed=SEED)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "eval"
    assert cli.main(["evaluate", "--checkpoint", os.path.join(ROOT, "bench", "eval.ckpt"),
                     "--config", str(config), "--out", str(out)]) == 0
    assert CHECKS.check_histogram(read(out / "histogram.csv"), read(out / "eval_summary.txt"),
                                  cfg["evaluation"]["episodes"], cfg["penalty"]) == []
