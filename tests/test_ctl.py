import numpy as np
import pytest
from numpy.testing import assert_allclose

from mflight import agent
from mflight.agent import init_params, load_checkpoint, save_checkpoint
from mflight.ctl import TransferController, transfer, window_statistic
from mflight.errors import InvalidReward


def replay(rewards, k=50, gamma_cut=0.3):
    ctrl = TransferController(k=k, gamma_cut=gamma_cut)
    betas = [ctrl.update(r) for r in rewards]
    return ctrl, np.array(betas)


class TestWindowStatistic:
    def test_constant_window_is_zero(self):
        assert window_statistic([-0.01] * 50) == 0.0

    def test_two_point_variance_by_hand(self):
        # population variance of {0, 1} = 0.25
        assert window_statistic([0.0, 1.0]) == pytest.approx(0.25, abs=1e-15)

    def test_single_element_is_zero(self):
        assert window_statistic([3.7]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidReward):
            window_statistic([])

    def test_short_history_uses_all_rewards(self):
        # before the window fills, the statistic covers everything seen so far
        rewards = [0.0, 1.0, 0.0, 1.0, 2.0]
        ctrl = TransferController(k=50)
        for r in rewards:
            ctrl.update(r)
        assert ctrl.xi_history[-1] == pytest.approx(float(np.var(rewards)), abs=1e-15)

    def test_long_history_uses_trailing_window(self):
        rng = np.random.default_rng(0)
        rewards = rng.standard_normal(120)
        ctrl = TransferController(k=50)
        for r in rewards:
            ctrl.update(r)
        assert ctrl.xi_history[-1] == pytest.approx(float(np.var(rewards[-50:])), abs=1e-12)


class TestUpdate:
    def test_first_episode_beta_is_one(self):
        ctrl = TransferController()
        assert ctrl.update(-0.05) == 1.0
        assert ctrl.beta_history == [1.0]

    def test_constant_stream_completes_at_window_size(self):
        ctrl, betas = replay([-0.01] * 60, k=50)
        assert ctrl.complete
        assert ctrl.complete_episode == 50
        assert betas[-1] == 0.0

    def test_completion_needs_full_window(self):
        # beta hits zero immediately, but completion waits for e >= k
        ctrl = TransferController(k=50)
        for _ in range(49):
            ctrl.update(-0.01)
        assert not ctrl.complete
        ctrl.update(-0.01)
        assert ctrl.complete

    def test_complete_latches(self):
        rng = np.random.default_rng(1)
        ctrl, _ = replay([-0.01] * 60, k=50)
        episode = ctrl.complete_episode
        for r in rng.standard_normal(100):
            ctrl.update(r)
        assert ctrl.complete
        assert ctrl.complete_episode == episode

    def test_beta_bounded_by_one(self):
        rng = np.random.default_rng(2)
        _, betas = replay(rng.standard_normal(500) * np.linspace(1, 0.01, 500), k=50)
        assert (betas <= 1.0 + 1e-15).all()
        assert (betas >= 0.0).all()

    def test_beta_one_when_variance_is_running_max(self):
        rng = np.random.default_rng(3)
        rewards = rng.standard_normal(300) * np.linspace(0.1, 2.0, 300)  # growing spread
        ctrl, betas = replay(rewards, k=50)
        xi = np.array(ctrl.xi_history)
        at_max = np.isclose(xi, np.maximum.accumulate(xi))
        assert_allclose(betas[at_max][1:], 1.0, atol=1e-12)

    def test_variance_plateau_triggers_and_noise_does_not(self):
        won = 0
        for seed in range(20):
            rng = np.random.default_rng([seed, 17])
            noisy = rng.normal(0.0, 1.0, 200)
            quiet = rng.normal(0.0, 0.1, 200)
            ctrl = TransferController(k=50)
            ok = True
            for r in noisy:
                ctrl.update(r)
            if ctrl.complete:  # never during the noisy regime
                ok = False
            for r in quiet:
                ctrl.update(r)
            if not ctrl.complete or not ctrl.complete_episode > 200:
                ok = False
            won += ok
        assert won >= 19

    def test_scale_invariance_power_of_two_exact(self):
        rng = np.random.default_rng(4)
        rewards = rng.standard_normal(300) * np.linspace(1.0, 0.05, 300)
        _, betas = replay(rewards)
        _, betas_scaled = replay(0.5 * rewards)
        assert_allclose(betas_scaled, betas, rtol=0, atol=0)

    def test_scale_invariance_decimal_near_exact(self):
        # 10x scaling rounds the reward log itself, so equality is to 1e-12
        rng = np.random.default_rng(5)
        rewards = rng.standard_normal(300) * np.linspace(1.0, 0.05, 300)
        _, betas = replay(rewards)
        _, betas_scaled = replay(10.0 * rewards)
        assert np.abs(betas_scaled - betas).max() <= 1e-12

    def test_monotone_beta_for_decaying_variance(self):
        rng = np.random.default_rng(6)
        k = 50
        rewards = (0.97 ** np.arange(400)) * np.where(np.arange(400) % 2 == 0, 1.0, -1.0)
        ctrl, betas = replay(rewards, k=k, gamma_cut=0.01)
        xi = np.array(ctrl.xi_history)
        # premise: the window variance itself decays after warm-up
        assert (np.diff(xi[k:]) <= 1e-15).all()
        assert (np.diff(betas[k:]) <= 1e-15).all()

    def test_non_finite_reward_rejected(self):
        ctrl = TransferController()
        with pytest.raises(InvalidReward):
            ctrl.update(float("nan"))
        with pytest.raises(InvalidReward):
            ctrl.update(float("inf"))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TransferController(k=0)
        with pytest.raises(ValueError):
            TransferController(gamma_cut=1.5)


class TestTransfer:
    def test_copy_acts_identically(self):
        params = init_params(np.random.default_rng(7))
        copy = transfer(params)
        a = agent.act(params, [0.4], [np.random.default_rng(11)])
        b = agent.act(copy, [0.4], [np.random.default_rng(11)])
        assert_allclose(a.actions, b.actions, rtol=0, atol=0)
        assert a.log_probs.tobytes() == b.log_probs.tobytes()

    def test_mutating_copy_leaves_source_unchanged(self):
        params = init_params(np.random.default_rng(8))
        before = params.policy.weights[0].copy()
        copy = transfer(params)
        copy.policy.weights[0][:] = 0.0
        copy.log_std[:] = -3.0
        assert_allclose(params.policy.weights[0], before, rtol=0, atol=0)

    def test_checkpoint_transfer_checkpoint_roundtrip(self, tmp_path):
        params = init_params(np.random.default_rng(9))
        src = tmp_path / "source.ckpt"
        tgt = tmp_path / "target.ckpt"
        save_checkpoint(src, params)
        save_checkpoint(tgt, transfer(params))
        assert src.read_bytes() == tgt.read_bytes()


class TestStateArrays:
    def test_roundtrip_preserves_decision(self, tmp_path):
        # a checkpoint's extras hold the reward history; replaying it repeats the decision
        rng = np.random.default_rng(10)
        ctrl, _ = replay(np.concatenate([rng.normal(0, 1, 100), rng.normal(0, 0.01, 100)]))
        arrays = ctrl.state_arrays()
        assert arrays["ctl.rewards"].tolist() == ctrl.reward_history
        path = tmp_path / "ctl.ckpt"
        save_checkpoint(path, init_params(np.random.default_rng(0)), extras=arrays)
        _, extras = load_checkpoint(path)
        again, _ = replay(extras["ctl.rewards"], k=int(extras["ctl.k"]),
                          gamma_cut=float(extras["ctl.gamma_cut"]))
        assert again.complete == ctrl.complete == bool(extras["ctl.complete"])
        assert again.complete_episode == int(extras["ctl.complete_episode"])
        assert again.complete_episode == ctrl.complete_episode
        assert_allclose(again.beta_history, ctrl.beta_history, rtol=0, atol=0)
