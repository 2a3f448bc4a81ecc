import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mflight import agent
from mflight.aeroenv import StateDistribution, make_environment, sample_state
from mflight.agent import load_checkpoint
from mflight.errors import ConfigError, RunError, SchemaError, SolverError
from mflight.geometry import DesignVector
from mflight.orchestrator import (
    PhaseSpec,
    RunConfig,
    collect_round,
    episode_rng,
    episodes_to_threshold,
    evaluate_policy,
    normalize_state,
    read_episodes_csv,
    read_summary,
    run_campaign,
    summary_text,
    threshold_value,
    trailing_mean,
    write_episodes_csv,
    write_summary,
)
from mflight.ppo import PpoConfig, PpoTrainer

from conftest import experiment_bounds, experiment_config


def small_cfg(mode="scratch", seed=0, workers=4, t_l=20, budget=60, **kw):
    source = None
    if mode != "scratch":
        source = PhaseSpec(name="source", fidelity="low",
                           dist=StateDistribution(5.5e6, 5e5), max_episodes=kw.pop("source_budget", 60))
    return RunConfig(
        mode=mode,
        source=source,
        target=PhaseSpec(name="target", fidelity=kw.pop("target_fidelity", "low"),
                         dist=StateDistribution(8e6, 5e5), max_episodes=budget),
        workers=workers,
        episodes_per_update=t_l,
        seed=seed,
        state_ref=(5.5e6, 5e5),
        **kw,
    )


class TestNormalizeState:
    def test_reference_mean_maps_to_zero(self):
        assert normalize_state(5.5e6, (5.5e6, 5e5)) == 0.0

    def test_one_sigma_maps_to_one(self):
        assert normalize_state(6.0e6, (5.5e6, 5e5)) == 1.0

    def test_far_target_is_nine_sigma(self):
        assert normalize_state(1e7, (5.5e6, 5e5)) == pytest.approx(9.0)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ConfigError):
            normalize_state(5e6, (5e6, 0.0))


class TestCollectRound:
    def test_round_size_matches_pooling(self):
        cfg = small_cfg(workers=4, t_l=20)
        cfg.validate()
        env = make_environment("low", bounds=cfg.bounds)
        params = agent.init_params(np.random.default_rng(0))
        records = collect_round(cfg.target, env, params, cfg, 0)
        assert len(records) == 20
        assert sorted({r.worker for r in records}) == [0, 1, 2, 3]

    @pytest.mark.parametrize("fidelity", ["low", "high"])
    def test_worker_count_is_pure_throughput(self, fidelity):
        # W in {2, 4, 5} gives the W=1 batch bit for bit; W sets only the labels
        params = agent.init_params(np.random.default_rng(1))
        batches = {}
        for workers in (1, 2, 4, 5):
            cfg = small_cfg(workers=workers)
            cfg.validate()
            env = make_environment(fidelity, bounds=cfg.bounds)
            batches[workers] = collect_round(cfg.target, env, params, cfg, 0)
        for workers in (2, 4, 5):
            labels = [rec.worker for rec in batches[workers]]
            assert labels == [j // (20 // workers) for j in range(20)], workers
            for a, b in zip(batches[1], batches[workers]):
                assert a.re_c == b.re_c
                assert a.reward == b.reward
                assert a.log_prob_old == b.log_prob_old
                assert_allclose(a.action, b.action, rtol=0, atol=0)

    @pytest.mark.parametrize("fidelity", ["low", "high"])
    def test_stacked_round_equals_episode_by_episode_steps(self, fidelity):
        cfg = small_cfg(workers=1)
        cfg.validate()
        params = agent.init_params(np.random.default_rng(3))
        env = make_environment(fidelity, bounds=cfg.bounds)
        records = collect_round(cfg.target, env, params, cfg, 2)
        one_env = make_environment(fidelity, bounds=cfg.bounds)
        ref = cfg.resolve_state_ref()
        t_l = cfg.episodes_per_update
        for j, rec in enumerate(records):
            rng = episode_rng(cfg.seed, "target", 2 * t_l + j)
            re_c = sample_state(cfg.target.dist, rng)
            state = normalize_state(re_c, ref)
            ga = agent.act(params, state, rng)
            ((reward, info),) = one_env.step_round(DesignVector(ga.clipped_action), [re_c],
                                                   cfg.penalty)
            assert repr((rec.re_c, rec.state, rec.reward, rec.info)) \
                == repr((re_c, state, reward, info)), j
            assert repr((rec.log_prob_old, rec.value_old)) \
                == repr((ga.log_prob, agent.value(params, state))), j
            assert rec.action.tobytes() == ga.action.tobytes(), j
        assert env.eval_count == one_env.eval_count == t_l

    def test_starts_no_threads(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("collect_round started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = small_cfg(workers=4, t_l=20)
        cfg.validate()
        env = make_environment("low", bounds=cfg.bounds)
        records = collect_round(cfg.target, env, agent.init_params(np.random.default_rng(0)),
                                cfg, 0)
        assert len(records) == 20
        assert env.eval_count == 20

    def test_rng_streams_are_worker_layout_independent(self):
        a = episode_rng(0, "source", 7).random(4)
        b = episode_rng(0, "source", 7).random(4)
        c = episode_rng(0, "target", 7).random(4)
        assert_allclose(a, b, rtol=0, atol=0)
        assert not np.allclose(a, c)

    def test_empty_phase_runs_zero_rounds(self):
        cfg = small_cfg(budget=0)
        cfg.validate()
        env = make_environment("low", bounds=cfg.bounds)
        trainer = PpoTrainer(agent.init_params(np.random.default_rng(2)), cfg.ppo)
        from mflight.orchestrator import run_phase
        result = run_phase(cfg.target, env, trainer, None, cfg)
        assert result.episodes == 0
        assert env.eval_count == 0


class TestMetrics:
    def test_trailing_mean_window(self):
        r = np.array([1.0, 2.0, 3.0, 4.0])
        assert_allclose(trailing_mean(r, 2), [1.0, 1.5, 2.5, 3.5])
        assert_allclose(trailing_mean(r, 10), [1.0, 1.5, 2.0, 2.5])

    def test_threshold_value_sign_handling(self):
        assert threshold_value(1.0, 0.95) == pytest.approx(0.95)
        # negative rewards: the threshold sits below the final level
        t = threshold_value(-0.006, 0.95)
        assert t < -0.006
        assert t == pytest.approx(-0.006 / 0.95)

    def test_episodes_to_threshold(self):
        r = np.array([-1.0, -1.0, -0.1, -0.1, -0.1, -0.1])
        assert episodes_to_threshold(r, -0.2, 2) == 4
        assert episodes_to_threshold(r, 0.5, 2) is None
        assert episodes_to_threshold(np.array([]), 0.0, 2) is None


class TestRunCampaign:
    def test_invalid_config_rejected_before_compute(self):
        cfg = small_cfg(t_l=20, workers=3)   # 20 % 3 != 0
        with pytest.raises(ConfigError):
            run_campaign(cfg)
        cfg = small_cfg(budget=50)           # 50 % 20 != 0
        with pytest.raises(ConfigError):
            run_campaign(cfg)
        cfg = small_cfg(mode="single_fidelity_ctl")
        cfg.source = None
        with pytest.raises(ConfigError):
            run_campaign(cfg)

    def test_scratch_runs_to_budget(self):
        cfg = small_cfg(budget=60)
        report = run_campaign(cfg)
        assert report.target.episodes == 60
        assert len(report.rows) == 60
        assert report.env_counts["target"] == 60
        assert report.env_counts["high"] == 0

    def test_episode_accounting_includes_penalties(self):
        cfg = small_cfg(budget=40, penalty=-0.1)
        report = run_campaign(cfg)
        assert report.env_counts["target"] == report.target.episodes

    def test_determinism_byte_identical_rows(self):
        rows_a = [r.to_csv() for r in run_campaign(small_cfg(seed=3)).rows]
        rows_b = [r.to_csv() for r in run_campaign(small_cfg(seed=3)).rows]
        assert rows_a == rows_b

    def test_transfer_starts_from_source_checkpoint(self, tmp_path):
        cfg = small_cfg(mode="single_fidelity_ctl", seed=4, budget=40,
                        source_budget=40, force_transfer=True, ctl_window=10)
        report = run_campaign(cfg, out_dir=str(tmp_path))
        saved, _ = load_checkpoint(report.checkpoints["source_final"])
        for (n1, t1), (n2, t2) in zip(saved.tensors(), report.source_params.tensors()):
            assert n1 == n2
            assert_allclose(t1, t2, rtol=0, atol=0)

    def test_no_hifi_calls_during_source_phase(self):
        cfg = small_cfg(mode="multi_fidelity_ctl", seed=5, budget=20,
                        source_budget=40, target_fidelity="high",
                        force_transfer=True, ctl_window=10)
        report = run_campaign(cfg)
        assert report.hifi_calls_during_source == 0
        assert report.env_counts["high"] == report.target.episodes

    def test_unconverged_source_without_force_aborts(self):
        cfg = small_cfg(mode="single_fidelity_ctl", seed=6, budget=20,
                        source_budget=20, force_transfer=False, ctl_window=500)
        with pytest.raises(RunError):
            run_campaign(cfg)

    def test_three_targets_three_reports(self):
        reports = []
        for mu in (6e6, 8e6, 1e7):
            cfg = small_cfg(seed=7, budget=20)
            cfg.target = PhaseSpec(name="target", fidelity="low",
                                   dist=StateDistribution(mu, 5e5), max_episodes=20)
            reports.append(run_campaign(cfg))
        assert len(reports) == 3
        assert len({r.rows[0].re_c for r in reports}) == 3

    def test_controller_early_exit_at_round_boundary(self):
        # constant-reward controller completes inside the first full window
        cfg = small_cfg(mode="single_fidelity_ctl", seed=8, budget=20,
                        source_budget=200, ctl_window=20, force_transfer=True)
        report = run_campaign(cfg)
        assert report.source.complete
        boundary = report.source.episodes
        assert boundary % cfg.episodes_per_update == 0
        assert boundary >= report.source.complete_episode

    def test_source_phase_completes_with_default_hyperparameters(self):
        # stock PPO config, stock bounds, stock controller: the transfer gate
        # fires well inside a 5000-episode source budget for most seeds
        completed = 0
        for seed in (301, 302, 303, 304, 305):
            cfg = RunConfig(
                mode="single_fidelity_ctl",
                source=PhaseSpec(name="source", fidelity="low",
                                 dist=StateDistribution(5.5e6, 5e5),
                                 max_episodes=5000),
                target=PhaseSpec(name="target", fidelity="low",
                                 dist=StateDistribution(8e6, 5e5), max_episodes=20),
                seed=seed,
                force_transfer=True,
            )
            report = run_campaign(cfg)
            completed += bool(report.source.complete)
        assert completed >= 4

    def test_state_ref_defaults_to_source_distribution(self):
        cfg = small_cfg(mode="single_fidelity_ctl", budget=20, source_budget=20,
                        force_transfer=True, ctl_window=10)
        cfg.state_ref = None
        assert cfg.resolve_state_ref() == (5.5e6, 5e5)
        scratch = small_cfg(budget=20)
        scratch.state_ref = None
        assert scratch.resolve_state_ref() == (8e6, 5e5)


class TestEvaluatePolicy:
    def test_zero_episodes_no_error(self):
        params = agent.init_params(np.random.default_rng(9))
        env = make_environment("low")
        result = evaluate_policy(params, StateDistribution(5.5e6, 5e5), env, 0, 0,
                                 (5.5e6, 5e5), episodes_per_update=20)
        assert result.summary == {}
        assert len(result.rewards) == 0
        assert result.mean_shape is not None

    @pytest.mark.parametrize("fidelity", ["low", "high"])
    def test_rounds_equal_episode_by_episode_steps(self, fidelity):
        # 45 episodes in rounds of 20: two full rounds and a ragged one of 5
        params = agent.init_params(np.random.default_rng(14))
        dist = StateDistribution(8e6, 5e5)
        ref = (5.5e6, 5e5)
        env = make_environment(fidelity, bounds=experiment_bounds())
        rows = []
        step_round = env.step_round

        def counted(designs, re_cs, penalty):
            rows.append(len(re_cs))
            return step_round(designs, re_cs, penalty)

        env.step_round = counted
        result = evaluate_policy(params, dist, env, 45, 6, ref, -0.1, episodes_per_update=20)
        assert rows == [20, 20, 5]

        one_env = make_environment(fidelity, bounds=experiment_bounds())
        expected = np.empty(45)
        for i in range(45):
            re_c = sample_state(dist, episode_rng(6, "eval", i))
            mean, _ = agent.forward_policy(params, normalize_state(re_c, ref))
            ((expected[i], _),) = one_env.step_round(DesignVector(np.clip(mean, -1.0, 1.0)),
                                                     [re_c], -0.1)
        assert result.rewards.tobytes() == expected.tobytes()
        assert len(set(expected.tolist())) > 1

        mean, _ = agent.forward_policy(params, normalize_state(dist.mu, ref))
        (shape,) = one_env.build_shapes(DesignVector(np.clip(mean, -1.0, 1.0)))
        assert result.mean_shape.points.tobytes() == shape.points.tobytes()
        assert result.mean_shape.valid and result.mean_aero is not None
        assert repr(result.mean_aero.cd) == repr(one_env.evaluate(shape, dist.mu).cd)
        assert env.eval_count == one_env.eval_count == 46

    def test_deterministic(self):
        params = agent.init_params(np.random.default_rng(10))
        env = make_environment("low")
        dist = StateDistribution(5.5e6, 5e5)
        a = evaluate_policy(params, dist, env, 50, 3, (5.5e6, 5e5), episodes_per_update=20)
        b = evaluate_policy(params, dist, env, 50, 3, (5.5e6, 5e5), episodes_per_update=20)
        assert_allclose(a.rewards, b.rewards, rtol=0, atol=0)
        assert a.summary == b.summary

    @staticmethod
    def _evaluate_mean_shape_raising(monkeypatch, error):
        env = make_environment("low")

        def failing_evaluate(shape, re_c):
            raise error("evaluate failed")

        monkeypatch.setattr(env, "evaluate", failing_evaluate)
        params = agent.init_params(np.random.default_rng(12))
        return evaluate_policy(params, StateDistribution(5.5e6, 5e5), env, 0, 0, (5.5e6, 5e5),
                               episodes_per_update=20)

    def test_solver_error_drops_mean_shape_aero(self, monkeypatch):
        result = self._evaluate_mean_shape_raising(monkeypatch, SolverError)
        assert result.mean_shape.valid and result.mean_aero is None

    def test_other_errors_propagate(self, monkeypatch):
        with pytest.raises(RuntimeError):
            self._evaluate_mean_shape_raising(monkeypatch, RuntimeError)

    def test_greedy_uses_policy_mean(self):
        params = agent.init_params(np.random.default_rng(11))
        params.log_std[:] = 2.0   # huge sampling noise would show up if sampled
        env = make_environment("low")
        dist = StateDistribution(5.5e6, 1e2)   # nearly a point mass
        result = evaluate_policy(params, dist, env, 10, 0, (5.5e6, 5e5), episodes_per_update=20)
        assert result.rewards.std() < 1e-6


class TestPersistence:
    def test_episode_csv_roundtrip(self, tmp_path):
        report = run_campaign(small_cfg(seed=12))
        path = tmp_path / "episodes.csv"
        write_episodes_csv(report.rows, path)
        rows = read_episodes_csv(path)
        assert len(rows) == len(report.rows)
        assert rows[0]["episode"] == 1
        assert rows[-1]["reward"] == report.rows[-1].reward

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "episodes.csv"
        path.write_text("# mflight-episodes v999\nepisode\n")
        with pytest.raises(SchemaError):
            read_episodes_csv(path)

    def test_summary_roundtrip(self, tmp_path):
        report = run_campaign(small_cfg(seed=13))
        path = tmp_path / "summary.txt"
        write_summary(report, path)
        summary = read_summary(path)
        assert summary["mode"] == "scratch"
        assert int(summary["target_episodes"]) == report.target.episodes
        assert float(summary["threshold"]) == report.threshold

    def test_degradation_grows_with_distribution_shift(self):
        # agents trained on farther targets lose more reward when tested back
        # on the source distribution
        source_dist = StateDistribution(5.5e6, 5e5)
        env = make_environment("low", bounds=experiment_bounds())
        source_cfg = experiment_config("scratch", seed=2101, target_budget=1200)
        source_cfg.target = PhaseSpec(name="target", fidelity="low",
                                      dist=source_dist, max_episodes=1200)
        source_agent = run_campaign(source_cfg).params
        base = evaluate_policy(source_agent, source_dist, env, 300, 7,
                               (5.5e6, 5e5), episodes_per_update=20).rewards.mean()
        gaps = []
        for mu in (6e6, 1e7):
            cfg = experiment_config("single_fidelity_ctl", seed=2101,
                                    mu_target=mu, source_budget=1200,
                                    target_budget=1200)
            report = run_campaign(cfg)
            mean = evaluate_policy(report.params, source_dist, env, 300, 7,
                                   (5.5e6, 5e5), episodes_per_update=20).rewards.mean()
            gaps.append(base - mean)
        assert gaps[1] > gaps[0]
