import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mflight.agent import (
    GaussianActions,
    act,
    forward_policy,
    gaussian_log_prob,
    init_params,
    layout,
    load_arrays,
    load_checkpoint,
    orthogonal,
    save_arrays,
    save_checkpoint,
    value,
)
from mflight.errors import CheckpointError
from mflight.ppo import normalize_advantages

from conftest import BENCH, fd_gradient, max_rel_error
from reference_kernels import act_reference, value_reference


def zeroed_output(params):
    params.policy.weights[-1][:] = 0.0
    params.policy.biases[-1][:] = 0.0
    params.value.weights[-1][:] = 0.0
    params.value.biases[-1][:] = 0.0
    return params


class TestForward:
    def test_zero_output_layer_gives_zero_mean(self):
        p = zeroed_output(init_params(np.random.default_rng(0), action_dim=13))
        for s in (-2.0, 0.0, 3.7):
            mean, _ = forward_policy(p, s)
            assert_allclose(mean, np.zeros(13), rtol=0, atol=0)

    def test_purity(self):
        p = init_params(np.random.default_rng(1))
        m1, s1 = forward_policy(p, 0.3)
        m2, s2 = forward_policy(p, 0.3)
        assert_allclose(m1, m2, rtol=0, atol=0)
        assert_allclose(s1, s2, rtol=0, atol=0)

    def test_zero_log_std_gives_unit_std(self):
        p = init_params(np.random.default_rng(2))
        p.log_std[:] = 0.0
        _, std = forward_policy(p, 0.0)
        assert_allclose(std, np.ones(13), rtol=0, atol=0)

    def test_value_zero_head(self):
        p = zeroed_output(init_params(np.random.default_rng(3)))
        for s in (-1.0, 0.0, 2.0):
            assert value(p, s) == 0.0

    def test_value_purity(self):
        p = init_params(np.random.default_rng(4))
        assert value(p, 1.23) == value(p, 1.23)


class TestAct:
    def test_tiny_std_returns_mean(self):
        p = init_params(np.random.default_rng(5))
        p.log_std[:] = np.log(1e-9)
        mean, _ = forward_policy(p, 0.5)
        drawn = act(p, [0.5], [np.random.default_rng(0)])
        assert np.abs(drawn.actions[0] - mean).max() < 1e-6

    def test_log_prob_matches_density_oracle(self):
        # independent diagonal-Gaussian log-density
        p = init_params(np.random.default_rng(6))
        rng = np.random.default_rng(1)
        for _ in range(20):
            drawn = act(p, [0.7], [rng])
            mean, std = forward_policy(p, 0.7)
            oracle = float(np.sum(
                -0.5 * ((drawn.actions[0] - mean) / std) ** 2
                - np.log(std) - 0.5 * np.log(2 * np.pi)))
            assert drawn.log_probs[0] == pytest.approx(oracle, abs=1e-10)

    def test_seeded_reproducibility(self):
        p = init_params(np.random.default_rng(7))
        a = act(p, [0.1], [np.random.default_rng(99)])
        b = act(p, [0.1], [np.random.default_rng(99)])
        assert_allclose(a.actions, b.actions, rtol=0, atol=0)
        assert a.log_probs.tobytes() == b.log_probs.tobytes()

    def test_clipping(self):
        p = init_params(np.random.default_rng(8))
        p.log_std[:] = np.log(5.0)
        rng = np.random.default_rng(2)
        drawn = act(p, [0.0], [rng])
        assert isinstance(drawn, GaussianActions)
        assert np.abs(drawn.clipped).max() <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           hidden=st.lists(st.integers(1, 24), min_size=1, max_size=3).map(tuple),
           action_dim=st.integers(1, 13),
           rows=st.sampled_from([1, 3, 20]),
           log_std=st.floats(-2.0, 1.0))
    def test_round_equals_the_single_state_oracle(self, seed, hidden, action_dim, rows, log_std):
        rng = np.random.default_rng(seed)
        p = init_params(rng, action_dim=action_dim, hidden=hidden, log_std_init=log_std)
        p.flat += 0.3 * rng.standard_normal(p.flat.size)
        states = (3.0 * rng.standard_normal(rows)).tolist()
        drawn = act(p, states, [np.random.default_rng([seed, j]) for j in range(rows)])
        assert drawn.actions.shape == drawn.clipped.shape == (rows, action_dim)
        for j, state in enumerate(states):
            ga = act_reference(p, state, np.random.default_rng([seed, j]))
            assert drawn.actions[j].tobytes() == ga.action.tobytes(), j
            assert drawn.clipped[j].tobytes() == ga.clipped_action.tobytes(), j
            assert repr(drawn.log_probs.tolist()[j]) == repr(ga.log_prob), j
            assert repr(value(p, state)) == repr(value_reference(p, state)), j

    def test_log_prob_marginal_integrates_to_one(self):
        p = init_params(np.random.default_rng(9), action_dim=1, hidden=(8,))
        mean, std = forward_policy(p, 0.0)
        xs = np.linspace(mean[0] - 8 * std[0], mean[0] + 8 * std[0], 4001)
        logp = gaussian_log_prob(xs[:, None], np.full((len(xs), 1), mean[0]), p.log_std)
        integral = np.trapezoid(np.exp(logp), xs)
        assert integral == pytest.approx(1.0, abs=1e-3)


class TestReturns:
    def test_advantage_normalization_statistics(self):
        rng = np.random.default_rng(10)
        adv = normalize_advantages(rng.standard_normal(512) * 0.003 - 0.01)
        assert abs(adv.mean()) < 1e-10
        assert adv.std() == pytest.approx(1.0, abs=1e-6)


class TestGradients:
    def test_value_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        p = init_params(rng, action_dim=2, hidden=(8, 6))
        p.flat += 0.2 * rng.standard_normal(p.flat.size)
        states = rng.standard_normal((5, 1))
        targets = rng.standard_normal(5)

        def loss_fn(params):
            v = params.value.forward(states)[:, 0]
            return float(((v - targets) ** 2).mean())

        cache = []
        v = p.value.forward(states, cache=cache)[:, 0]
        grad = p.views(np.zeros_like(p.flat))
        p.value.backward(cache, (2.0 / 5) * (v - targets)[:, None], grad.value)
        rel = max_rel_error(grad.flat, fd_gradient(loss_fn, p))
        assert rel <= 1e-5

    def test_log_prob_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        p = init_params(rng, action_dim=3, hidden=(8,))
        p.flat += 0.2 * rng.standard_normal(p.flat.size)
        state = np.array([[0.4]])
        a = rng.standard_normal((1, 3))

        def loss_fn(params):
            mean = params.policy.forward(state)
            return float(-gaussian_log_prob(a, mean, params.log_std)[0])

        cache = []
        mean = p.policy.forward(state, cache=cache)
        std = np.exp(p.log_std)
        z = (a - mean) / std
        grad = p.views(np.zeros_like(p.flat))
        p.policy.backward(cache, -z / std, grad.policy)
        grad.log_std[...] = -(z[0] ** 2 - 1.0)
        rel = max_rel_error(grad.flat, fd_gradient(loss_fn, p))
        assert rel <= 1e-4


class TestMlp:
    def test_orthogonal_init_is_orthogonal(self):
        rng = np.random.default_rng(13)
        w = orthogonal(rng, 32, 32, gain=1.0)
        assert_allclose(w.T @ w, np.eye(32), atol=1e-10)

    def test_orthogonal_gain_scales(self):
        rng = np.random.default_rng(14)
        w = orthogonal(rng, 16, 8, gain=0.01)
        s = np.linalg.svd(w, compute_uv=False)
        assert_allclose(s, np.full(8, 0.01), rtol=1e-10)

    def test_sizes_roundtrip(self):
        params = init_params(np.random.default_rng(15), action_dim=13, hidden=(64, 64))
        assert params.policy.sizes == (1, 64, 64, 13)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           hidden=st.lists(st.integers(1, 24), min_size=1, max_size=3).map(tuple),
           action_dim=st.integers(1, 13),
           rows=st.sampled_from([1, 3, 20]))
    @example(seed=0, hidden=(64, 64), action_dim=13, rows=20)  # the default network
    def test_forward_rows_equals_one_row_passes(self, seed, hidden, action_dim, rows):
        # numpy does not promise this equality; a numpy or BLAS upgrade that breaks it
        # would change every logged number, so it fails here first
        rng = np.random.default_rng(seed)
        p = init_params(rng, action_dim=action_dim, hidden=hidden)
        p.flat += 0.3 * rng.standard_normal(p.flat.size)
        x = 3.0 * rng.standard_normal((rows, 1))
        for net in (p.policy, p.value):
            got = net.forward_rows(x)
            assert got.shape == (rows, net.sizes[-1])
            for j in range(rows):
                assert got[j].tobytes() == net.forward(x[j:j + 1])[0].tobytes(), j

    def test_parameters_finite_after_perturbation(self):
        p = init_params(np.random.default_rng(16))
        assert p.all_finite()
        p.log_std[0] = np.nan
        assert not p.all_finite()


class TestLayout:
    def test_views_tile_the_flat_vector_in_checkpoint_order(self):
        p = init_params(np.random.default_rng(22), action_dim=3, hidden=(5, 4))
        assert [(name, t.shape) for name, t in p.tensors()] == layout((1, 5, 4, 3))
        assert [name for name, _ in p.tensors()] == [
            "policy.w0", "policy.b0", "policy.w1", "policy.b1", "policy.w2", "policy.b2",
            "log_std", "value.w0", "value.b0", "value.w1", "value.b1", "value.w2", "value.b2"]
        assert np.array_equal(np.concatenate([t.ravel() for _, t in p.tensors()]), p.flat)
        for _, t in p.tensors():
            assert np.shares_memory(t, p.flat)
        p.flat[:] = np.arange(p.flat.size)
        assert p.policy.weights[0][0, 0] == 0.0
        assert p.log_std[0] == 5 + 5 + 20 + 4 + 12 + 3

    def test_copy_is_independent(self):
        p = init_params(np.random.default_rng(23), action_dim=2, hidden=(4,))
        q = p.copy()
        assert q.flat.tobytes() == p.flat.tobytes()
        q.log_std[0] = 1.0
        assert p.log_std[0] != 1.0

    def test_init_draws_policy_then_value_layers(self):
        # the draw order fixes every seeded campaign's bytes
        rng = np.random.default_rng(24)
        expected = [orthogonal(rng, 1, 6, 1.0), orthogonal(rng, 6, 2, 0.01),
                    orthogonal(rng, 1, 6, 1.0), orthogonal(rng, 6, 1, 0.01)]
        p = init_params(np.random.default_rng(24), action_dim=2, hidden=(6,), log_std_init=-0.7)
        got = [p.policy.weights[0], p.policy.weights[1], p.value.weights[0], p.value.weights[1]]
        for w, e in zip(got, expected):
            assert w.tobytes() == e.tobytes()
        assert not any(b.any() for b in p.policy.biases + p.value.biases)
        assert (p.log_std == -0.7).all()


class TestCheckpoint:
    def test_committed_checkpoint_resaves_byte_identical(self, tmp_path):
        params, extras = load_checkpoint(BENCH / "eval.ckpt")
        save_checkpoint(tmp_path / "resaved.ckpt", params, extras=extras)
        assert (tmp_path / "resaved.ckpt").read_bytes() == (BENCH / "eval.ckpt").read_bytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        p = init_params(np.random.default_rng(17))
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, p, extras={"ctl.rewards": np.array([-0.01, -0.02])})
        loaded, extras = load_checkpoint(p1)
        save_checkpoint(p2, loaded, extras=extras)
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_bit_exact(self, tmp_path):
        p = init_params(np.random.default_rng(18))
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, p)
        loaded, _ = load_checkpoint(path)
        for (n1, t1), (n2, t2) in zip(p.tensors(), loaded.tensors()):
            assert n1 == n2
            assert_allclose(t1, t2, rtol=0, atol=0)

    def test_header_line(self, tmp_path):
        path = tmp_path / "d.ckpt"
        save_checkpoint(path, init_params(np.random.default_rng(19)))
        assert path.read_text().splitlines()[0] == "MFRL-CKPT v1"

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "e.ckpt"
        save_checkpoint(path, init_params(np.random.default_rng(20)))
        text = path.read_text().replace("MFRL-CKPT v1", "MFRL-CKPT v9")
        path.write_text(text)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing.ckpt")

    def test_value_widths_other_than_the_policy_rejected(self, tmp_path):
        arrays = dict(init_params(np.random.default_rng(25), action_dim=2, hidden=(5, 4)).tensors())
        arrays.update({"value.w0": np.ones((1, 3)), "value.b0": np.ones(3),
                       "value.w1": np.ones((3, 4))})
        save_arrays(tmp_path / "g.ckpt", arrays)
        with pytest.raises(CheckpointError, match=r"value.w0 is \(1, 3\), expected \(1, 5\)"):
            load_checkpoint(tmp_path / "g.ckpt")

    @pytest.mark.parametrize("order", ["empty_first", "empty_last"])
    def test_scalar_empty_and_filled_arrays_roundtrip(self, tmp_path, order):
        arrays = {"s": np.array(-0.25), "e": np.zeros(0), "v": np.array([1.5, -0.0, 1e-300])}
        names = ["e", "s", "v"] if order == "empty_first" else ["s", "v", "e"]
        path = tmp_path / "a.ckpt"
        save_arrays(path, {name: arrays[name] for name in names})
        # the scalar and the filled vector keep the bytes they were always written with
        text = path.read_text()
        assert "array s 0\n-0.25\n" in text and "array v 3\n1.5\n-0.0\n1e-300\n" in text
        assert "array e 0\n" in text
        loaded = load_arrays(path)
        assert list(loaded) == names
        for name in names:
            assert loaded[name].shape == arrays[name].shape, name
            assert loaded[name].tobytes() == arrays[name].tobytes(), name
        resaved = tmp_path / "b.ckpt"
        save_arrays(resaved, loaded)
        assert resaved.read_bytes() == path.read_bytes()

    def test_truncated_values_rejected(self, tmp_path):
        path = tmp_path / "f.ckpt"
        save_checkpoint(path, init_params(np.random.default_rng(21)))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:10]) + "\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
