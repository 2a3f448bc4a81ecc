import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mflight import agent
from mflight.aeroenv import DEFAULT_PENALTY, Environment, StateDistribution, sample_state
from mflight.agent import load_checkpoint
from mflight.errors import ConfigError, RunError, SchemaError, SolverError
from mflight.geometry import DesignVector
from mflight.orchestrator import (
    PHASE_IDS,
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
    threshold_value,
    trailing_mean,
    write_episodes_csv,
    write_run,
)
from mflight.ppo import PpoTrainer

from conftest import experiment_bounds, experiment_config
from reference_kernels import act_reference, value_reference


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
        env = Environment("low", bounds=cfg.bounds)
        params = agent.init_params(np.random.default_rng(0))
        batch, re_cs, infos = collect_round(cfg.target, env, params, cfg, 0)
        assert len(batch) == len(re_cs) == len(infos) == 20
        assert batch.actions.shape == (20, 13)

    @pytest.mark.parametrize("workers", [1, 2, 4, 5])
    def test_logged_worker_labels(self, workers, tmp_path):
        labels = [j // (20 // workers) for j in range(20)]
        path = tmp_path / "episodes.csv"
        write_episodes_csv(run_campaign(small_cfg(workers=workers, t_l=20, budget=40)), path)
        assert [row["worker"] for row in read_episodes_csv(path)] == labels * 2

        # across a transfer the episodes number on and the labels restart every round
        report = run_campaign(small_cfg(mode="single_fidelity_ctl", workers=workers, t_l=20,
                                        budget=40, source_budget=60, ctl_window=10,
                                        force_transfer=True))
        write_episodes_csv(report, path)
        rows = read_episodes_csv(path)
        n_source, n_target = report.source.episodes, report.target.episodes
        assert n_source > 0 and n_target == 40
        assert [row["episode"] for row in rows] == list(range(1, n_source + n_target + 1))
        assert [row["phase"] for row in rows] == ["source"] * n_source + ["target"] * n_target
        assert [row["worker"] for row in rows] == labels * ((n_source + n_target) // 20)

    @pytest.mark.parametrize("fidelity", ["low", "high"])
    def test_worker_count_is_pure_throughput(self, fidelity):
        # W in {2, 4, 5} gives the W=1 batch bit for bit; W sets only the labels
        params = agent.init_params(np.random.default_rng(1))
        batches = {}
        for workers in (1, 2, 4, 5):
            cfg = small_cfg(workers=workers)
            env = Environment(fidelity, bounds=cfg.bounds)
            batches[workers] = collect_round(cfg.target, env, params, cfg, 0)
        one, re_one, info_one = batches[1]
        for workers in (2, 4, 5):
            batch, re_cs, infos = batches[workers]
            assert re_cs == re_one
            assert repr(infos) == repr(info_one)
            for name in ("states", "actions", "log_probs_old", "advantages", "returns"):
                assert getattr(batch, name).tobytes() == getattr(one, name).tobytes(), name

    @pytest.mark.parametrize("fidelity, examples", [("low", 40), ("high", 4)],
                             ids=["low", "high"])
    def test_stacked_round_equals_episode_by_episode_steps(self, fidelity, examples):
        """Every record of a stacked round equals the single-state oracle's episode."""
        @settings(max_examples=examples, deadline=None)
        @given(seed=st.integers(0, 2**40), round_index=st.integers(0, 5),
               t_l=st.sampled_from([1, 3, 20]),
               hidden=st.lists(st.integers(1, 24), min_size=1, max_size=3).map(tuple),
               log_std=st.floats(-2.0, 1.0))
        # episode 1 of this round puts its last negative tangential velocity on panel 198
        # of 200, a one-station upper surface (see test_aeroenv's trailing-edge-panel test)
        @example(seed=11921145047, round_index=0, t_l=3, hidden=(1,), log_std=0.0)
        def check(seed, round_index, t_l, hidden, log_std):
            cfg = small_cfg(seed=seed, workers=1, t_l=t_l, budget=t_l)
            rng = np.random.default_rng(seed)
            params = agent.init_params(rng, action_dim=13, hidden=hidden, log_std_init=log_std)
            params.flat += 0.3 * rng.standard_normal(params.flat.size)
            env = Environment(fidelity, bounds=cfg.bounds)
            batch, re_cs, infos = collect_round(cfg.target, env, params, cfg, round_index)
            one_env = Environment(fidelity, bounds=cfg.bounds)
            ref = cfg.resolve_state_ref()
            for j in range(t_l):
                rng = np.random.default_rng([seed, 1, round_index * t_l + j])  # target phase
                re_c = sample_state(cfg.target.dist, rng)
                state = normalize_state(re_c, ref)
                ga = act_reference(params, state, rng)
                ((reward, info),) = one_env.step_round(DesignVector(ga.clipped_action), [re_c])
                got = (re_cs[j], float(batch.states[j, 0]), float(batch.returns[j]), infos[j])
                assert repr(got) == repr((re_c, state, float(reward), info)), j
                raw_advantage = float(reward) - value_reference(params, state)
                assert repr((float(batch.log_probs_old[j]), float(batch.advantages[j]))) \
                    == repr((ga.log_prob, raw_advantage)), j
                assert batch.actions[j].tobytes() == ga.action.tobytes(), j
            assert batch.states.shape == (t_l, 1)
            assert len(batch) == len(re_cs) == len(infos) == env.eval_count \
                == one_env.eval_count == t_l

        check()

    def test_starts_no_threads(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("collect_round started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = small_cfg(workers=4, t_l=20)
        env = Environment("low", bounds=cfg.bounds)
        batch, _, _ = collect_round(cfg.target, env, agent.init_params(np.random.default_rng(0)),
                                    cfg, 0)
        assert len(batch) == 20
        assert env.eval_count == 20

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**70), phase=st.sampled_from(["source", "target", "eval"]),
           index=st.integers(0, 2**40))
    @example(seed=0, phase="source", index=0)
    @example(seed=2**32, phase="target", index=2**32)
    @example(seed=2**64, phase="eval", index=2**32 - 1)
    @example(seed=2**32 - 1, phase="source", index=7)
    def test_rng_stream_is_the_list_seeded_stream(self, seed, phase, index):
        expected = np.random.default_rng([seed, PHASE_IDS[phase], index])
        got = episode_rng(seed, phase, index)
        assert got.bit_generator.state == expected.bit_generator.state
        assert got.random(3).tobytes() == expected.random(3).tobytes()

    def test_negative_seed_raises_like_numpy(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.default_rng([-5, 0, 0])
        with pytest.raises(ValueError, match="expected non-negative integer"):
            episode_rng(-5, "source", 0)

    def test_rng_streams_are_worker_layout_independent(self):
        a = episode_rng(0, "source", 7).random(4)
        b = episode_rng(0, "source", 7).random(4)
        c = episode_rng(0, "target", 7).random(4)
        assert_allclose(a, b, rtol=0, atol=0)
        assert not np.allclose(a, c)

    def test_empty_phase_runs_zero_rounds(self):
        cfg = small_cfg(budget=0)
        env = Environment("low", bounds=cfg.bounds)
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
        with pytest.raises(ConfigError):
            small_cfg(t_l=20, workers=3)     # 20 % 3 != 0
        with pytest.raises(ConfigError):
            small_cfg(budget=50)             # 50 % 20 != 0
        cfg = small_cfg(mode="single_fidelity_ctl")
        with pytest.raises(ConfigError):
            replace(cfg, source=None)

    def test_scratch_runs_to_budget(self):
        cfg = small_cfg(budget=60)
        report = run_campaign(cfg)
        assert report.target.episodes == 60
        assert [len(round_log.rewards) for round_log in report.target.rounds] == [20, 20, 20]
        assert report.env_counts["target"] == 60
        assert report.env_counts["high"] == 0

    def test_episode_accounting_includes_penalties(self):
        cfg = small_cfg(budget=40, penalty=-0.1)
        report = run_campaign(cfg)
        assert report.env_counts["target"] == report.target.episodes

    def test_environment_takes_the_run_penalty(self):
        cfg = small_cfg(penalty=-0.5)
        assert cfg.environment("low").penalty == cfg.environment("high").penalty == -0.5
        assert small_cfg().environment("low").penalty == DEFAULT_PENALTY

    def test_determinism_byte_identical_rows(self, tmp_path):
        write_episodes_csv(run_campaign(small_cfg(seed=3)), tmp_path / "a.csv")
        write_episodes_csv(run_campaign(small_cfg(seed=3)), tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_transfer_starts_from_source_checkpoint(self, tmp_path):
        cfg = small_cfg(mode="single_fidelity_ctl", seed=4, budget=40,
                        source_budget=40, force_transfer=True, ctl_window=10)
        report = run_campaign(cfg)
        write_run(report, tmp_path)
        saved, _ = load_checkpoint(tmp_path / "checkpoint_source_final.ckpt")
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
            cfg = replace(small_cfg(seed=7, budget=20),
                          target=PhaseSpec(name="target", fidelity="low",
                                           dist=StateDistribution(mu, 5e5), max_episodes=20))
            reports.append(run_campaign(cfg))
        assert len(reports) == 3
        assert len({r.target.rounds[0].re_cs[0] for r in reports}) == 3

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
        assert replace(cfg, state_ref=None).resolve_state_ref() == (5.5e6, 5e5)
        scratch = replace(small_cfg(budget=20), state_ref=None)
        assert scratch.resolve_state_ref() == (8e6, 5e5)


class TestEvaluatePolicy:
    def test_zero_episodes_no_error(self):
        params = agent.init_params(np.random.default_rng(9))
        env = Environment("low")
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
        env = Environment(fidelity, bounds=experiment_bounds())
        rows = []
        step_round = env.step_round

        def counted(designs, re_cs):
            rows.append(len(re_cs))
            return step_round(designs, re_cs)

        env.step_round = counted
        result = evaluate_policy(params, dist, env, 45, 6, ref, episodes_per_update=20)
        assert rows == [20, 20, 5]

        one_env = Environment(fidelity, bounds=experiment_bounds())
        expected = np.empty(45)
        for i in range(45):
            re_c = sample_state(dist, episode_rng(6, "eval", i))
            mean, _ = agent.forward_policy(params, normalize_state(re_c, ref))
            ((expected[i], _),) = one_env.step_round(DesignVector(np.clip(mean, -1.0, 1.0)),
                                                     [re_c])
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
        env = Environment("low")
        dist = StateDistribution(5.5e6, 5e5)
        a = evaluate_policy(params, dist, env, 50, 3, (5.5e6, 5e5), episodes_per_update=20)
        b = evaluate_policy(params, dist, env, 50, 3, (5.5e6, 5e5), episodes_per_update=20)
        assert_allclose(a.rewards, b.rewards, rtol=0, atol=0)
        assert a.summary == b.summary

    @staticmethod
    def _evaluate_mean_shape_raising(monkeypatch, error):
        env = Environment("low")

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
        env = Environment("low")
        dist = StateDistribution(5.5e6, 1e2)   # nearly a point mass
        result = evaluate_policy(params, dist, env, 10, 0, (5.5e6, 5e5), episodes_per_update=20)
        assert result.rewards.std() < 1e-6


class TestPersistence:
    def test_episode_csv_roundtrip(self, tmp_path):
        report = run_campaign(small_cfg(seed=12))
        path = tmp_path / "episodes.csv"
        write_episodes_csv(report, path)
        rows = read_episodes_csv(path)
        assert len(rows) == report.target.episodes
        assert rows[0]["episode"] == 1
        assert rows[-1]["reward"] == report.target.rounds[-1].rewards[-1]

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "episodes.csv"
        path.write_text("# mflight-episodes v999\nepisode\n")
        with pytest.raises(SchemaError):
            read_episodes_csv(path)

    def test_summary_roundtrip(self, tmp_path):
        report = run_campaign(small_cfg(seed=13))
        write_run(report, tmp_path)
        summary = read_summary(tmp_path / "summary.txt")
        assert summary["mode"] == "scratch"
        assert int(summary["target_episodes"]) == report.target.episodes
        assert float(summary["threshold"]) == report.threshold

    def test_degradation_grows_with_distribution_shift(self):
        # agents trained on farther targets lose more reward when tested back
        # on the source distribution
        source_dist = StateDistribution(5.5e6, 5e5)
        env = Environment("low", bounds=experiment_bounds())
        source_cfg = replace(experiment_config("scratch", seed=2101, target_budget=1200),
                             target=PhaseSpec(name="target", fidelity="low",
                                              dist=source_dist, max_episodes=1200))
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
