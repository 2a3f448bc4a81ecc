"""The benchmark's output checks pass on real artifacts and fail on corrupted copies.

    python3 -m pytest bench/test_checks.py

The artifacts come from one real low-fidelity transfer campaign and one
short high-fidelity evaluation, run through the benchmark's own child runner.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import checks
import run
import spans

SEED = 7


def load_config(workload: str) -> dict:
    with open(run.config_path(workload)) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    cfg = load_config("lowfi_transfer")
    out = tmp_path_factory.mktemp("bench") / "campaign"
    assert not run.run_command("lowfi_transfer", cfg, SEED, str(out), trace=False)["failed"]
    return cfg, run.read(out / "episodes.csv"), run.read(out / "summary.txt")


@pytest.fixture(scope="module")
def evaluation(tmp_path_factory):
    cfg = load_config("hifi_evaluate")
    cfg["evaluation"] = dict(cfg["evaluation"], episodes=20)
    out = tmp_path_factory.mktemp("bench") / "evaluation"
    assert not run.run_command("hifi_evaluate", cfg, SEED, str(out), trace=False)["failed"]
    return cfg, run.read(out / "histogram.csv"), run.read(out / "eval_summary.txt")


def replace_field(text: str, line_no: int, column: int, value: str) -> str:
    lines = text.splitlines()
    fields = lines[line_no].split(",")
    fields[column] = value
    lines[line_no] = ",".join(fields)
    return "\n".join(lines) + "\n"


def row_line(episode: int) -> int:
    """Line index of an episode's row: the schema and header lines come first."""
    return episode + 1


def test_campaign_checks_pass_on_a_real_campaign(campaign):
    cfg, episodes, summary = campaign
    rows = checks.read_episodes(episodes)
    assert checks.campaign_checks(rows, checks.read_keyed(summary), cfg) == []


def test_beta_changed_in_its_last_digits_fails(campaign):
    cfg, episodes, _ = campaign
    line = row_line(300)
    beta = episodes.splitlines()[line].split(",")[6]
    assert beta[-6:].isdigit()
    changed = beta[:-6] + f"{(int(beta[-6:]) + 500000) % 1000000:06d}"
    corrupted = replace_field(episodes, line, 6, changed)
    assert checks.check_beta(checks.read_episodes(episodes), cfg["ctl"]["window"]) == []
    assert checks.check_beta(checks.read_episodes(corrupted), cfg["ctl"]["window"])


def test_low_fidelity_reward_outside_the_band_fails(campaign):
    cfg, episodes, _ = campaign
    line = row_line(400)
    row = checks.read_episodes(episodes)[399]
    below_plate = -0.9 * 2.0 * 0.074 * row["re_c"] ** -0.2
    corrupted = replace_field(episodes, line, 5, repr(below_plate))
    bounds = cfg["geometry"]["bounds"]
    t_box = checks.thickness_bound(bounds["lo"], bounds["hi"])
    assert checks.check_lowfi_band(checks.read_episodes(episodes), cfg["penalty"], t_box) == []
    assert checks.check_lowfi_band(checks.read_episodes(corrupted), cfg["penalty"], t_box)


def test_dropped_row_fails(campaign):
    _, episodes, summary = campaign
    lines = episodes.splitlines()
    corrupted = "\n".join(lines[:500] + lines[501:]) + "\n"
    keyed = checks.read_keyed(summary)
    assert checks.check_counts(checks.read_episodes(episodes), keyed) == []
    assert checks.check_counts(checks.read_episodes(corrupted), keyed)


def test_evaluation_check_passes_on_a_real_evaluation(evaluation):
    cfg, histogram, summary = evaluation
    assert checks.check_histogram(histogram, summary, 20, cfg["penalty"]) == []


def test_changed_histogram_count_fails(evaluation):
    cfg, histogram, summary = evaluation
    lines = histogram.splitlines()
    line = next(i for i in range(2, len(lines)) if lines[i].split(",")[2] != "0")
    count = int(lines[line].split(",")[2])
    corrupted = replace_field(histogram, line, 2, str(count + 1))
    assert checks.check_histogram(corrupted, summary, 20, cfg["penalty"])


def test_self_times_share_overlapping_threads_and_account_for_the_wall_time():
    # a parent [0, 10] with one child [1, 3] and two overlapping children
    # [4, 8] and [5, 9] on two worker threads
    data = {"name": np.array([0, 1, 2, 3]),
            "parent": np.array([-1, 0, 0, 0]),
            "start": np.array([0.0, 1.0, 4.0, 5.0]),
            "end": np.array([10.0, 3.0, 8.0, 9.0])}
    own, uncovered = spans.self_times(data, -1.0, 11.0)
    assert own[:4] == pytest.approx([3.0, 2.0, 2.5, 2.5])
    assert uncovered == pytest.approx(2.0)
    assert sum(own) + uncovered == pytest.approx(12.0)
