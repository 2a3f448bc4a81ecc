import numpy as np
import pytest
from numpy.testing import assert_allclose

from mflight.agent import gaussian_log_prob, init_params
from mflight.errors import EmptyBatch
from mflight.ppo import (
    MAX_GRAD_NORM,
    VALUE_COEFF,
    Adam,
    ExperienceBatch,
    PpoConfig,
    PpoTrainer,
    clip_grad_norm,
    clipped_surrogate,
    normalize_advantages,
    prob_ratio,
)

from conftest import (
    fd_gradient,
    max_rel_error,
    random_batch,
    random_small_params,
)


class TestProbRatio:
    def test_equal_log_probs(self):
        assert prob_ratio(-3.2, -3.2) == 1.0

    def test_ln_two_doubles(self):
        assert prob_ratio(np.log(2.0) - 1.0, -1.0) == pytest.approx(2.0, rel=1e-14)

    def test_random_pairs_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.standard_normal(2) * 3
            assert prob_ratio(a, b) == pytest.approx(float(np.exp(a - b)), abs=1e-12)

    def test_overflow_capped(self):
        assert prob_ratio(100.0, 0.0) == 1e6


def single_record_batch(params, adv, ratio, eps_state=0.0):
    """Batch of one record engineered to a target probability ratio."""
    state = np.array([[eps_state]])
    mean = params.policy.forward(state)
    action = mean + 0.3 * np.exp(params.log_std)
    logp_new = float(gaussian_log_prob(action, mean, params.log_std)[0])
    return ExperienceBatch(
        states=state,
        actions=action,
        log_probs_old=np.array([logp_new - np.log(ratio)]),
        advantages=np.array([adv]),
        returns=np.array([0.0]),
    )


class TestClippedSurrogate:
    def test_ratio_one_gives_negative_mean_advantage(self):
        rng = np.random.default_rng(1)
        params = random_small_params(rng)
        batch = random_batch(rng, params, size=16)
        batch.log_probs_old = gaussian_log_prob(
            batch.actions, params.policy.forward(batch.states), params.log_std)
        loss, _, stats = clipped_surrogate(batch, params)
        assert stats.mean_ratio == pytest.approx(1.0, abs=1e-12)
        assert loss - VALUE_COEFF * stats.value_loss == pytest.approx(-batch.advantages.mean(),
                                                                     abs=1e-10)

    def test_positive_advantage_clipped_branch(self):
        # A=+1, r=1.5, eps=0.2: policy term = -min(1.5, 1.2) = -1.2 and the
        # gradient through logp is zero (clipped side active)
        rng = np.random.default_rng(2)
        params = random_small_params(rng)
        batch = single_record_batch(params, adv=+1.0, ratio=1.5)
        loss, grad, stats = clipped_surrogate(batch, params)
        assert loss - VALUE_COEFF * stats.value_loss == pytest.approx(-1.2, abs=1e-9)
        for name, g in params.views(grad).tensors():
            if name.startswith("policy") or name == "log_std":
                assert_allclose(g, 0.0, atol=1e-15)

    def test_negative_advantage_clipped_branch(self):
        # A=-1, r=0.5, eps=0.2: policy term = -min(-0.5, -0.8) = +0.8
        rng = np.random.default_rng(3)
        params = random_small_params(rng)
        batch = single_record_batch(params, adv=-1.0, ratio=0.5)
        loss, grad, stats = clipped_surrogate(batch, params)
        assert loss - VALUE_COEFF * stats.value_loss == pytest.approx(0.8, abs=1e-9)
        for name, g in params.views(grad).tensors():
            if name.startswith("policy") or name == "log_std":
                assert_allclose(g, 0.0, atol=1e-15)

    def test_unclipped_branch_carries_gradient(self):
        rng = np.random.default_rng(4)
        params = random_small_params(rng)
        batch = single_record_batch(params, adv=+1.0, ratio=1.1)
        loss, grad, stats = clipped_surrogate(batch, params)
        assert loss - VALUE_COEFF * stats.value_loss == pytest.approx(-1.1, abs=1e-9)
        total = sum(float(np.abs(g).sum()) for n, g in params.views(grad).tensors()
                    if n.startswith("policy"))
        assert total > 0.0

    def test_full_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            params = random_small_params(rng)
            batch = random_batch(rng, params)

            def loss_fn(p):
                return clipped_surrogate(batch, p)[0]

            _, grad, _ = clipped_surrogate(batch, params)
            rel = max_rel_error(grad, fd_gradient(loss_fn, params))
            assert rel <= 1e-4

    def test_empty_batch_raises(self):
        params = random_small_params(np.random.default_rng(6))
        batch = ExperienceBatch(states=np.zeros((0, 1)), actions=np.zeros((0, 3)),
                                log_probs_old=np.zeros(0), advantages=np.zeros(0),
                                returns=np.zeros(0))
        with pytest.raises(EmptyBatch):
            clipped_surrogate(batch, params)

    def test_clipping_envelope(self):
        # samples pushed past the clip band with favorable advantage carry no
        # gradient, so the per-sample objective respects the clip envelope
        rng = np.random.default_rng(7)
        params = random_small_params(rng)
        for ratio, adv in [(2.0, 1.0), (0.3, -1.0), (1.15, 1.0), (0.9, -0.5)]:
            batch = single_record_batch(params, adv=adv, ratio=ratio)
            loss, _, stats = clipped_surrogate(batch, params)
            envelope = max(ratio * adv, np.clip(ratio, 0.8, 1.2) * adv)
            assert -(loss - VALUE_COEFF * stats.value_loss) <= envelope + 1e-9


class TestNormalizeAdvantages:
    def test_standardizes(self):
        rng = np.random.default_rng(8)
        adv = normalize_advantages(rng.standard_normal(100) * 0.01 - 0.005)
        assert abs(adv.mean()) < 1e-10
        assert adv.std() == pytest.approx(1.0, abs=1e-6)

    def test_constant_batch_maps_to_zeros(self):
        assert_allclose(normalize_advantages(np.full(5, -0.01)), np.zeros(5))


class TestUpdate:
    def test_zero_learning_rate_keeps_params_bit_identical(self):
        rng = np.random.default_rng(9)
        params = init_params(rng, action_dim=3, hidden=(8, 7))
        before = params.flat.copy()
        trainer = PpoTrainer(params, PpoConfig(learning_rate=0.0))
        batch = random_batch(rng, params)
        trainer.update(batch)
        assert_allclose(trainer.params.flat, before, rtol=0, atol=0)

    def test_policy_mean_moves_toward_good_actions(self):
        # one-state env: actions above the mean get positive advantage
        rng = np.random.default_rng(10)
        params = init_params(rng, action_dim=1, hidden=(16,))
        trainer = PpoTrainer(params, PpoConfig(learning_rate=1e-3))
        mean0 = float(trainer.params.policy.forward(np.zeros((1, 1)))[0, 0])
        for _ in range(5):
            mean = trainer.params.policy.forward(np.zeros((20, 1)))
            actions = mean + np.exp(trainer.params.log_std) * rng.standard_normal((20, 1))
            logp = gaussian_log_prob(actions, mean, trainer.params.log_std)
            rewards = actions[:, 0]  # higher action, higher reward
            values = np.zeros(20)
            batch = ExperienceBatch(states=np.zeros((20, 1)), actions=actions,
                                    log_probs_old=logp, advantages=rewards - values,
                                    returns=rewards)
            trainer.update(batch)
        mean1 = float(trainer.params.policy.forward(np.zeros((1, 1)))[0, 0])
        assert mean1 > mean0

    def test_clip_fraction_bounds(self):
        rng = np.random.default_rng(11)
        params = random_small_params(rng)
        trainer = PpoTrainer(params, PpoConfig())
        for _ in range(5):
            stats = trainer.update(random_batch(rng, trainer.params))
            assert 0.0 <= stats.clip_fraction <= 1.0

    def test_kl_early_stop(self):
        rng = np.random.default_rng(12)
        params = init_params(rng, action_dim=3, hidden=(8,))
        trainer = PpoTrainer(params, PpoConfig(learning_rate=5e-2, kl_stop=0.01))
        batch = random_batch(rng, trainer.params)
        stats = trainer.update(batch)
        assert stats.epochs_run < 10

    def test_nan_reward_aborts_and_restores(self):
        rng = np.random.default_rng(13)
        params = init_params(rng, action_dim=3, hidden=(8,))
        trainer = PpoTrainer(params, PpoConfig())
        before = trainer.params.flat.copy()
        batch = random_batch(rng, trainer.params)
        batch.advantages[0] = np.nan
        stats = trainer.update(batch)
        assert stats.aborted
        assert_allclose(trainer.params.flat, before, rtol=0, atol=0)

    def test_rollback_after_a_step_restores_in_place(self):
        rng = np.random.default_rng(19)
        params = init_params(rng, action_dim=3, hidden=(8,))
        trainer = PpoTrainer(params, PpoConfig())
        trainer.update(random_batch(rng, params))  # nonzero moments to restore
        opt = trainer.opt
        before = (params.flat.tobytes(), opt.t, opt.m.tobytes(), opt.v.tobytes())
        opt.lr = np.inf  # the first step makes every parameter non-finite
        stats = trainer.update(random_batch(rng, params))
        assert stats.aborted and stats.epochs_run == 1
        assert trainer.params is params
        assert (params.flat.tobytes(), opt.t, opt.m.tobytes(), opt.v.tobytes()) == before

    def test_log_std_stays_in_clamp_range(self):
        rng = np.random.default_rng(14)
        params = init_params(rng, action_dim=2, hidden=(8,))
        params.log_std[:] = -4.9
        trainer = PpoTrainer(params, PpoConfig(learning_rate=0.5))
        for _ in range(10):
            trainer.update(random_batch(rng, trainer.params))
        assert (trainer.params.log_std >= -5.0).all()
        assert (trainer.params.log_std <= 2.0).all()

    def test_params_finite_after_many_updates(self):
        rng = np.random.default_rng(15)
        params = init_params(rng, action_dim=3, hidden=(8,))
        trainer = PpoTrainer(params, PpoConfig(learning_rate=1e-2))
        for _ in range(20):
            trainer.update(random_batch(rng, trainer.params))
            assert trainer.params.all_finite()


class TestAdam:
    def test_moment_shapes_track_params(self):
        params = init_params(np.random.default_rng(16), action_dim=2, hidden=(4,))
        opt = Adam(params, lr=1e-3)
        assert opt.m.shape == opt.v.shape == params.flat.shape
        assert not opt.m.any() and not opt.v.any()

    def test_clip_grad_norm(self):
        params = init_params(np.random.default_rng(18), action_dim=1, hidden=(1,))
        grad = np.zeros_like(params.flat)
        grad[:2] = [3.0, 4.0]
        total = clip_grad_norm(grad, params)
        assert total == pytest.approx(5.0)
        assert_allclose(grad[:2], MAX_GRAD_NORM * np.array([0.6, 0.8]))
        assert not grad[2:].any()

    def test_uniform_gradient_step_size(self):
        # with constant gradients the adaptive step approaches lr per update
        params = init_params(np.random.default_rng(17), action_dim=1, hidden=(4,))
        opt = Adam(params, lr=1e-3)
        before = params.log_std.copy()
        opt.step(params, np.ones_like(params.flat))
        assert params.log_std[0] == pytest.approx(before[0] - 1e-3, rel=1e-6)


def toy_quadratic_run(seed, updates=500, batch=40):
    """Quadratic-reward sanity environment: reward = -(a - 0.3)^2 at one state."""
    rng = np.random.default_rng([seed, 5])
    params = init_params(rng, state_dim=1, action_dim=1, hidden=(64, 64))
    trainer = PpoTrainer(params, PpoConfig())
    states = np.zeros((batch, 1))
    for _ in range(updates):
        mean = trainer.params.policy.forward(states)
        actions = mean + np.exp(trainer.params.log_std) * rng.standard_normal((batch, 1))
        logp = gaussian_log_prob(actions, mean, trainer.params.log_std)
        a = np.clip(actions[:, 0], -1.0, 1.0)
        rewards = -(a - 0.3) ** 2
        values = trainer.params.value.forward(states)[:, 0]
        trainer.update(ExperienceBatch(states=states, actions=actions,
                                       log_probs_old=logp, advantages=rewards - values,
                                       returns=rewards))
    return float(trainer.params.policy.forward(np.zeros((1, 1)))[0, 0])


class TestToyConvergence:
    def test_two_seeds_converge_quickly(self):
        # the full 10-seed sweep runs in the acceptance suite
        for seed in (0, 1):
            assert toy_quadratic_run(seed, updates=250) == pytest.approx(0.3, abs=0.08)
