"""Acceptance suite: one test per release criterion, each printing a verdict.

The campaign-level criteria share module-scoped fixtures that run the five
paired (scratch vs controlled-transfer) experiments once. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from mflight import cli
from mflight.aeroenv import Environment
from mflight.agent import (
    forward_policy,
    gaussian_log_prob,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from mflight.ctl import TransferController, transfer
from mflight.geometry import build_airfoil
from mflight.orchestrator import (
    collect_round,
    episodes_to_threshold,
    greedy_designs,
    normalize_state,
    run_campaign,
    threshold_value,
    trailing_mean,
)
from mflight.panel import solve_panel
from mflight.ppo import clipped_surrogate

from conftest import (
    PAIRED_SEEDS,
    experiment_bounds,
    experiment_config,
    fd_gradient,
    max_rel_error,
    random_batch,
    random_small_params,
    symmetric_polygon,
)
from test_ppo import toy_quadratic_run

METRIC_WINDOW = 50
THRESHOLD_FRACTION = 0.95


def report(criterion, description, ok, detail=""):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared campaign fixtures
# ---------------------------------------------------------------------------

def _paired_runs(target_fidelity):
    mode = "single_fidelity_ctl" if target_fidelity == "low" else "multi_fidelity_ctl"
    pairs = {}
    for seed in PAIRED_SEEDS:
        scratch = run_campaign(experiment_config("scratch", seed, target_fidelity))
        ctl = run_campaign(experiment_config(mode, seed, target_fidelity))
        pairs[seed] = (scratch, ctl)
    return pairs


def _paired_metrics(pairs):
    """Per-seed savings and tail-variance wins against the scratch baseline."""
    out = {}
    for seed, (scratch, ctl) in pairs.items():
        final = float(trailing_mean(scratch.target.rewards, METRIC_WINDOW)[-1])
        thr = threshold_value(final, THRESHOLD_FRACTION)
        e_scr = episodes_to_threshold(scratch.target.rewards, thr, METRIC_WINDOW)
        e_ctl = episodes_to_threshold(ctl.target.rewards, thr, METRIC_WINDOW)
        savings = None if (e_ctl is None or e_scr is None) else 1.0 - e_ctl / e_scr
        out[seed] = {
            "threshold": thr,
            "episodes_scratch": e_scr,
            "episodes_ctl": e_ctl,
            "savings": savings,
            "var_win": ctl.tail_var <= scratch.tail_var,
        }
    return out


def _median_savings(metrics):
    vals = [(-np.inf if m["savings"] is None else m["savings"]) for m in metrics.values()]
    return float(np.median(vals))


@pytest.fixture(scope="module")
def single_fidelity_pairs():
    return _paired_runs("low")


@pytest.fixture(scope="module")
def multi_fidelity_pairs():
    return _paired_runs("high")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_panel_solver_analytic_validation():
    t0 = time.perf_counter()
    phi = np.linspace(0.0, 2.0 * np.pi, 201)
    circle = np.column_stack([np.cos(phi), -np.sin(phi)])
    circle[-1] = circle[0]
    sol = solve_panel(circle, alpha=0.0, kutta=False)
    theta = np.arctan2(sol.y_mid, sol.x_mid)
    cp_err = float(np.abs(sol.cp - (1.0 - 4.0 * np.sin(theta) ** 2)).max())

    sym = build_airfoil(symmetric_polygon(0.045, 0.055, 0.02), 202)[0]
    cl_sym = abs(solve_panel(sym.points, alpha=0.0).cl)

    thin = build_airfoil(symmetric_polygon(0.035, 0.042, 0.018, r=0.008), 202)[0]
    alpha = np.deg2rad(5.0)
    cl_thin = solve_panel(thin.points, alpha=alpha).cl
    cl_theory = 2.0 * np.pi * alpha
    thin_rel = abs(cl_thin - cl_theory) / cl_theory

    ok = cp_err <= 1e-2 and cl_sym <= 1e-6 and thin_rel <= 0.15
    report(1, "panel-solver analytic validation", ok,
           f"cylinder max|dCp|={cp_err:.2e}, |Cl_sym|={cl_sym:.2e}, "
           f"thin-airfoil rel err={thin_rel:.3f}, {time.perf_counter() - t0:.1f}s")


def test_criterion_2_gradient_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = {"log_prob": 0.0, "value_mse": 0.0, "surrogate": 0.0}
    n_nets = 20
    for _ in range(n_nets):
        action_dim = int(rng.integers(1, 4))
        hidden = tuple(int(h) for h in rng.integers(4, 17, size=int(rng.integers(1, 3))))
        params = random_small_params(rng, action_dim=action_dim, hidden=hidden)
        batch = random_batch(rng, params, size=5)

        def logp_loss(p):
            mean = p.policy.forward(batch.states)
            return float(-gaussian_log_prob(batch.actions, mean, p.log_std).mean())

        def value_loss(p):
            v = p.value.forward(batch.states)[:, 0]
            return float(((v - batch.returns) ** 2).mean())

        def surrogate_loss(p):
            return clipped_surrogate(batch, p)[0]

        for name, fn in (("log_prob", logp_loss), ("value_mse", value_loss),
                         ("surrogate", surrogate_loss)):
            grad = params.views(np.zeros_like(params.flat))
            # analytic gradient via the surrogate machinery or direct backprop
            if name == "surrogate":
                grad.flat[...] = clipped_surrogate(batch, params)[1]
            elif name == "value_mse":
                cache = []
                v = params.value.forward(batch.states, cache=cache)[:, 0]
                params.value.backward(
                    cache, (2.0 / len(batch)) * (v - batch.returns)[:, None], grad.value)
            else:
                cache = []
                mean = params.policy.forward(batch.states, cache=cache)
                std = np.exp(params.log_std)
                z = (batch.actions - mean) / std
                b = len(batch)
                params.policy.backward(cache, -z / std / b, grad.policy)
                grad.log_std[...] = -(z * z - 1.0).sum(axis=0) / b
            rel = max_rel_error(grad.flat, fd_gradient(fn, params, h=1e-6))
            worst[name] = max(worst[name], rel)
    ok = all(v <= 1e-4 for v in worst.values())
    report(2, f"gradient exactness on {n_nets} random small networks", ok,
           ", ".join(f"{k} max rel={v:.2e}" for k, v in worst.items())
           + f", {time.perf_counter() - t0:.1f}s")


def test_criterion_3_ppo_toy_convergence():
    t0 = time.perf_counter()
    finals = [toy_quadratic_run(seed, updates=500, batch=40) for seed in range(10)]
    hits = sum(abs(m - 0.3) <= 0.05 for m in finals)
    ok = hits >= 9
    report(3, "PPO sanity convergence on the quadratic-reward toy task", ok,
           f"{hits}/10 seeds at 0.3 +- 0.05, means="
           f"{[round(m, 3) for m in finals]}, {time.perf_counter() - t0:.0f}s")


def test_criterion_4_ctl_scripted_behavior():
    t0 = time.perf_counter()
    good = 0
    for seed in range(20):
        rng = np.random.default_rng([seed, 17])
        noisy = rng.normal(0.0, 1.0, 200)
        quiet = rng.normal(0.0, 0.1, 200)
        ctrl = TransferController(k=50, gamma_cut=0.3)
        for r in noisy:
            ctrl.update(r)
        fired_early = ctrl.complete
        for r in quiet:
            ctrl.update(r)
        good += (not fired_early) and ctrl.complete and ctrl.complete_episode > 200
    scripts_ok = good >= 19

    rng = np.random.default_rng(99)
    rewards = rng.standard_normal(400) * np.linspace(1.0, 0.02, 400)

    def betas_for(scale):
        ctrl = TransferController(k=50, gamma_cut=0.3)
        return np.array([ctrl.update(scale * r) for r in rewards])

    base = betas_for(1.0)
    exact_half = bool(np.array_equal(betas_for(0.5), base))
    err_ten = float(np.abs(betas_for(10.0) - base).max())
    scale_ok = exact_half and err_ten <= 1e-12

    ok = scripts_ok and scale_ok
    report(4, "CTL criterion behavior on scripted rewards", ok,
           f"{good}/20 scripts correct; scale c=0.5 bitwise equal={exact_half}, "
           f"c=10 max|dBeta|={err_ten:.1e}, {time.perf_counter() - t0:.1f}s")


def test_criterion_5_determinism(tmp_path):
    t0 = time.perf_counter()
    doc = {
        "schema_version": 1, "mode": "scratch", "seed": 5,
        "target": {"fidelity": "low", "mu": 5.5e6, "sigma": 5e5, "max_episodes": 120},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    csv_identical = (outs[0] / "episodes.csv").read_bytes() == \
        (outs[1] / "episodes.csv").read_bytes()

    params = init_params(np.random.default_rng(0))
    batches = []
    for workers in (1, 4):
        cfg = replace(experiment_config("scratch", seed=77), workers=workers)
        env = Environment("low", bounds=cfg.bounds)
        batches.append(collect_round(cfg.target, env, params, cfg, 0))
    (one, re_one, _), (four, re_four, _) = batches
    merged_identical = re_one == re_four and all(
        np.array_equal(getattr(one, name), getattr(four, name))
        for name in ("states", "actions", "log_probs_old", "advantages", "returns"))
    ok = csv_identical and merged_identical
    report(5, "determinism: byte-identical logs, worker-count invariance", ok,
           f"csv identical={csv_identical}, W1==W4 batches={merged_identical}, "
           f"{time.perf_counter() - t0:.1f}s")


def test_criterion_6_single_fidelity_ctl_experiment(single_fidelity_pairs):
    t0 = time.perf_counter()
    metrics = _paired_metrics(single_fidelity_pairs)
    median_savings = _median_savings(metrics)
    var_wins = sum(m["var_win"] for m in metrics.values())
    ok = median_savings >= 0.15 and var_wins >= 4
    detail = ", ".join(
        f"s{seed}: sav={'-' if m['savings'] is None else round(m['savings'], 3)}"
        for seed, m in metrics.items())
    report(6, "single-fidelity CTL scaled experiment", ok,
           f"median savings={median_savings:.3f} (need >=0.15), "
           f"tail-variance wins={var_wins}/5 (need >=4); {detail}; "
           f"{time.perf_counter() - t0:.0f}s")


def test_criterion_7_multi_fidelity_ctl_experiment(multi_fidelity_pairs):
    t0 = time.perf_counter()
    metrics = _paired_metrics(multi_fidelity_pairs)
    median_savings = _median_savings(metrics)
    zero_hifi_in_source = all(
        ctl.hifi_calls_during_source == 0 for _, ctl in multi_fidelity_pairs.values())
    hifi_counts_consistent = all(
        ctl.env_counts["high"] == ctl.target.episodes
        for _, ctl in multi_fidelity_pairs.values())
    ok = median_savings >= 0.20 and zero_hifi_in_source and hifi_counts_consistent
    detail = ", ".join(
        f"s{seed}: sav={'-' if m['savings'] is None else round(m['savings'], 3)}"
        for seed, m in metrics.items())
    report(7, "multi-fidelity CTL scaled experiment", ok,
           f"median hi-fi savings={median_savings:.3f} (need >=0.20), "
           f"zero hi-fi calls in source={zero_hifi_in_source}; {detail}; "
           f"{time.perf_counter() - t0:.0f}s")


def test_criterion_8_transfer_fidelity_agreement(multi_fidelity_pairs):
    t0 = time.perf_counter()
    metrics = _paired_metrics(multi_fidelity_pairs)
    ranked = sorted(PAIRED_SEEDS,
                    key=lambda s: -np.inf if metrics[s]["savings"] is None
                    else metrics[s]["savings"])
    median_seed = ranked[len(ranked) // 2]
    scratch, ctl = multi_fidelity_pairs[median_seed]
    env = Environment("high", bounds=experiment_bounds())
    ref = (5.5e6, 5e5)

    def mean_shape_cd(params, re_c):
        (shape,) = env.build_shapes(greedy_designs(params, [re_c], ref))
        if not shape.valid:
            return None
        result = env.evaluate(shape, re_c)
        return result.cd if result.converged else None

    agree = 0
    details = []
    for re_c in (6e6, 8e6, 1e7):
        cd_scr = mean_shape_cd(scratch.params, re_c)
        cd_ctl = mean_shape_cd(ctl.params, re_c)
        if cd_scr and cd_ctl:
            rel = abs(cd_ctl - cd_scr) / cd_scr
            agree += rel <= 0.10
            details.append(f"Re={re_c:.0e}: scr={cd_scr:.5f} ctl={cd_ctl:.5f} rel={rel:.3f}")
        else:
            details.append(f"Re={re_c:.0e}: unconverged")
    ok = agree >= 2
    report(8, "with/without-CTL mean-shape drag agreement", ok,
           f"seed {median_seed}, {agree}/3 points within 10%; "
           + "; ".join(details) + f"; {time.perf_counter() - t0:.0f}s")


def test_criterion_9_checkpoint_roundtrip_and_transfer(tmp_path):
    t0 = time.perf_counter()
    params = init_params(np.random.default_rng(9001))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, extras={"ctl.rewards": np.array([-0.01, -0.009])})
    loaded, extras = load_checkpoint(p1)
    save_checkpoint(p2, loaded, extras=extras)
    bytes_identical = p1.read_bytes() == p2.read_bytes()

    copy = transfer(params)
    state = normalize_state(6.1e6, (5.5e6, 5e5))
    mean_src, _ = forward_policy(params, state)
    mean_tgt, _ = forward_policy(copy, state)
    greedy_equal = bool(np.array_equal(np.clip(mean_src, -1, 1),
                                       np.clip(mean_tgt, -1, 1)))
    ok = bytes_identical and greedy_equal
    report(9, "checkpoint round-trip and transfer action equality", ok,
           f"bytes identical={bytes_identical}, greedy actions equal={greedy_equal}, "
           f"{time.perf_counter() - t0:.1f}s")
