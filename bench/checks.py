"""Output checks for the benchmark's workloads, computed apart from mflight.

The readers parse the artifacts' text (and raise ValueError on a malformed
line); every check returns a list of failure messages, empty when it passed.
Nothing here imports mflight: the variance ratio and the low-fidelity drag
band are recomputed from their definitions, so a fault in the program cannot
also hide in its check.
"""

from __future__ import annotations

import math

import numpy as np

EPISODES_SCHEMA = "# mflight-episodes v1"
EPISODES_HEADER = "episode,phase,fidelity,worker,re_c,reward,beta,clip_fraction"
HISTOGRAM_SCHEMA = "# mflight-histogram v1"
BETA_RTOL = 1e-12
VARIANCE_FLOOR = 1e-12  # the ratio is 0 when the largest window variance is below this


# --------------------------------------------------------------------------
# readers
# --------------------------------------------------------------------------

def read_episodes(text: str) -> list[dict]:
    lines = text.splitlines()
    if lines[:2] != [EPISODES_SCHEMA, EPISODES_HEADER]:
        raise ValueError("episodes.csv: unexpected schema or header")
    rows = []
    for line in lines[2:]:
        ep, phase, fidelity, worker, re_c, reward, beta, clipf = line.split(",")
        rows.append({"episode": int(ep), "phase": phase, "fidelity": fidelity,
                     "re_c": float(re_c), "reward": float(reward),
                     "beta": None if beta == "" else float(beta)})
    return rows


def read_keyed(text: str) -> dict[str, str]:
    """``key: value`` lines after a schema line (summary.txt, eval_summary.txt)."""
    out = {}
    for line in text.splitlines()[1:]:
        key, _, val = line.partition(": ")
        out[key] = val
    return out


def read_histogram(text: str) -> list[tuple[float, float, int]]:
    lines = text.splitlines()
    if lines[:2] != [HISTOGRAM_SCHEMA, "bin_left,bin_right,count"]:
        raise ValueError("histogram.csv: unexpected schema or header")
    out = []
    for line in lines[2:]:
        left, right, count = line.split(",")
        out.append((float(left), float(right), int(count)))
    return out


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def form_factor(t: float) -> float:
    return 1.0 + 2.7 * t + 100.0 * t**4


def thickness_bound(lo, hi) -> float:
    """Largest thickness the design box allows.

    A Bezier curve stays inside the hull of its control points and the
    endpoints sit at y = 0, so the upper surface never rises above the
    largest upper control y and the lower never drops below the smallest
    lower one (the nose circle's radius is far smaller than either).
    """
    upper_y = max(0.0, hi[1], hi[3], hi[5])
    lower_y = min(0.0, lo[7], lo[9], lo[11])
    return upper_y - lower_y


def variance_ratios(rewards, k: int) -> list[float]:
    """The transfer controller's beta sequence, recomputed from the rewards.

    beta_e = var(last min(e, k) rewards) / the running maximum of window
    variances; once a full window exists the maximum runs over full windows
    only. The first episode gives 1.
    """
    r = np.asarray(rewards, dtype=float)
    xi = [float(r[max(0, e - k):e].var()) for e in range(1, len(r) + 1)]
    out = []
    running_max = -math.inf
    for e in range(1, len(r) + 1):
        if e == k:
            running_max = -math.inf  # the partial-window variances drop out
        running_max = max(running_max, xi[e - 1])
        if e == 1:
            out.append(1.0)
        else:
            out.append(0.0 if running_max <= VARIANCE_FLOOR else xi[e - 1] / running_max)
    return out


# --------------------------------------------------------------------------
# campaign checks
# --------------------------------------------------------------------------

def check_rewards(rows, penalty: float) -> list[str]:
    bad = [r["episode"] for r in rows
           if not (math.isfinite(r["reward"]) and penalty <= r["reward"] <= 0.0)]
    return [f"rewards outside [{penalty}, 0] at episodes {bad[:5]}"] if bad else []


def check_lowfi_band(rows, penalty: float, t_box: float) -> list[str]:
    """-reward = 2 cf(Re) FF(t) with 0 <= t <= t_box, for every low-fidelity reward."""
    bad = []
    for r in rows:
        if r["fidelity"] != "low" or r["reward"] == penalty:
            continue
        plate = 2.0 * 0.074 * r["re_c"] ** -0.2
        cd = -r["reward"]
        if not plate * (1.0 - 1e-12) <= cd <= plate * form_factor(t_box) * (1.0 + 1e-12):
            bad.append(r["episode"])
    return [f"low-fidelity drag outside the closed-form band at episodes {bad[:5]}"] if bad else []


def check_beta(rows, k: int) -> list[str]:
    source = [r for r in rows if r["phase"] == "source"]
    expected = variance_ratios([r["reward"] for r in source], k)
    errors = []
    for r, want in zip(source, expected):
        got = r["beta"]
        if got is None or abs(got - want) > BETA_RTOL * max(abs(want), VARIANCE_FLOOR):
            errors.append(f"episode {r['episode']}: beta {got!r}, recomputed {want!r}")
            break
    if any(r["beta"] is not None for r in rows if r["phase"] != "source"):
        errors.append("beta logged outside the source phase")
    return errors


def check_transfer_point(rows, summary, k: int, gamma_cut: float, t_l: int) -> list[str]:
    """The source phase ends at the first round boundary after the gate fires."""
    source = [r["reward"] for r in rows if r["phase"] == "source"]
    betas = variance_ratios(source, k)
    fired = next((e for e, b in enumerate(betas, 1) if e >= k and b <= gamma_cut), None)
    if fired is None:
        return ["the variance-ratio gate never fired in the source phase"]
    errors = []
    if len(source) != -(-fired // t_l) * t_l:
        errors.append(f"source phase has {len(source)} episodes; gate fired at {fired}")
    if summary.get("ctl_complete") != "True" or summary.get("ctl_complete_episode") != str(fired):
        errors.append(f"summary reports completion {summary.get('ctl_complete_episode')}, "
                      f"recomputed {fired}")
    return errors


def check_counts(rows, summary) -> list[str]:
    errors = []
    if [r["episode"] for r in rows] != list(range(1, len(rows) + 1)):
        errors.append("episodes are not numbered 1..N without gaps")
    for key, field, value in (("env_calls_source", "phase", "source"),
                              ("env_calls_target", "phase", "target"),
                              ("env_calls_low", "fidelity", "low"),
                              ("env_calls_high", "fidelity", "high"),
                              ("source_episodes", "phase", "source"),
                              ("target_episodes", "phase", "target")):
        n = sum(1 for r in rows if r[field] == value)
        if summary.get(key) != str(n):
            errors.append(f"{key} is {summary.get(key)} but {n} rows have {field}={value}")
    if summary.get("hifi_calls_during_source") != "0":
        errors.append("high-fidelity calls during the source phase")
    return errors


def check_learning(rows, k: int) -> list[str]:
    source = [r["reward"] for r in rows if r["phase"] == "source"]
    first, last = float(np.mean(source[:k])), float(np.mean(source[-k:]))
    if not last > first:
        return [f"source phase did not improve: first window {first!r}, last {last!r}"]
    return []


def campaign_checks(rows, summary, cfg: dict) -> list[str]:
    """Every campaign check, on parsed episodes.csv rows and summary.txt keys."""
    penalty, k = cfg["penalty"], cfg["ctl"]["window"]
    bounds = cfg["geometry"]["bounds"]
    return (check_rewards(rows, penalty)
            + check_lowfi_band(rows, penalty, thickness_bound(bounds["lo"], bounds["hi"]))
            + check_beta(rows, k)
            + check_transfer_point(rows, summary, k, cfg["ctl"]["gamma_cut"],
                                   cfg["episodes_per_update"])
            + check_counts(rows, summary)
            + check_learning(rows, k))


# --------------------------------------------------------------------------
# evaluation checks
# --------------------------------------------------------------------------

def check_histogram(histogram_text: str, eval_summary_text: str, episodes: int,
                    penalty: float) -> list[str]:
    bins = read_histogram(histogram_text)
    summary = read_keyed(eval_summary_text)
    errors = []
    total = sum(c for _, _, c in bins)
    if total != episodes or summary.get("episodes") != str(episodes):
        errors.append(f"histogram counts sum to {total}, summary says "
                      f"{summary.get('episodes')}, {episodes} episodes were asked for")
    if any(bins[i][1] != bins[i + 1][0] for i in range(len(bins) - 1)):
        errors.append("histogram bins are not contiguous")
    lo, hi, mean = (float(summary[key]) for key in ("min", "max", "mean"))
    if (lo, hi) != (bins[0][0], bins[-1][1]):
        errors.append(f"min/max {lo!r}/{hi!r} differ from the histogram edges "
                      f"{bins[0][0]!r}/{bins[-1][1]!r}")
    floor = sum(c * left for left, _, c in bins) / total
    ceiling = sum(c * right for _, right, c in bins) / total
    slack = 1e-12 * max(abs(floor), abs(ceiling))
    if not (lo <= mean <= hi and floor - slack <= mean <= ceiling + slack):
        errors.append(f"mean {mean!r} is not consistent with the histogram")
    if not (math.isfinite(lo) and math.isfinite(hi) and penalty <= lo and hi <= 0.0):
        errors.append(f"rewards span [{lo!r}, {hi!r}], outside [{penalty}, 0]")
    return errors
