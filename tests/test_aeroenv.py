import numpy as np
import pytest
from numpy.testing import assert_allclose

from mflight.aeroenv import (
    DEFAULT_PENALTY,
    N_POINTS_HIGH,
    N_POINTS_LOW,
    AeroResult,
    Environment,
    StateDistribution,
    flat_plate_cf,
    form_factor,
    high_fidelity_cd,
    low_fidelity_cd,
    sample_state,
    write_cp_csv,
)
from mflight.errors import ConfigError, SolverError
from mflight.geometry import DesignVector, GeometryBounds, build_airfoil

from conftest import experiment_bounds, symmetric_polygon


class TestStateDistribution:
    def test_validation(self):
        with pytest.raises(ConfigError):
            StateDistribution(mu=-1.0, sigma=5e5)
        with pytest.raises(ConfigError):
            StateDistribution(mu=5e6, sigma=0.0)

    def test_degenerate_sigma_returns_mu(self):
        dist = StateDistribution(5.5e6, 1e-9)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert sample_state(dist, rng) == pytest.approx(5.5e6, rel=1e-3)

    def test_sample_mean_matches_reference_distribution(self):
        # N(5.5e6, 5e5): sample mean over 1e5 draws within 3 standard errors
        dist = StateDistribution(5.5e6, 5e5)
        rng = np.random.default_rng(7)
        draws = np.array([sample_state(dist, rng) for _ in range(100_000)])
        se = 5e5 / np.sqrt(len(draws))
        assert abs(draws.mean() - 5.5e6) < 3 * se
        assert draws.std() == pytest.approx(5e5, rel=0.02)

    def test_fixed_seed_reproducible(self):
        dist = StateDistribution(5.5e6, 5e5)
        a = [sample_state(dist, np.random.default_rng(42)) for _ in range(1)]
        b = [sample_state(dist, np.random.default_rng(42)) for _ in range(1)]
        seq_a = []
        rng = np.random.default_rng(42)
        for _ in range(20):
            seq_a.append(sample_state(dist, rng))
        rng = np.random.default_rng(42)
        seq_b = [sample_state(dist, rng) for _ in range(20)]
        assert a == b
        assert seq_a == seq_b

    def test_truncation_and_floor(self):
        dist = StateDistribution(5.5e6, 5e5)
        rng = np.random.default_rng(1)
        draws = np.array([sample_state(dist, rng) for _ in range(20_000)])
        assert draws.min() >= 5.5e6 - 6 * 5e5
        assert draws.max() <= 5.5e6 + 6 * 5e5
        tight = StateDistribution(2e5, 1e5)
        draws = np.array([sample_state(tight, rng) for _ in range(5_000)])
        assert draws.min() >= 1e5

    def test_one_draw_pair_per_sample(self):
        # consuming the stream in parallel with a reference shows exactly two
        # uniforms are used per call
        dist = StateDistribution(5.5e6, 5e5)
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        for _ in range(5):
            sample_state(dist, rng1)
            rng2.random(2)
        assert rng1.random() == rng2.random()


class TestLowFidelity:
    def test_flat_plate_limit_by_hand(self):
        # t/c -> 0 at Re 1e7: Cd = 2 * 0.074 * (1e7)^-0.2 = 0.148 / 10^1.4
        expected = 0.148 / 10.0 ** 1.4
        cd = 2.0 * flat_plate_cf(1e7) * form_factor(0.0)
        assert cd == pytest.approx(expected, rel=1e-12)
        assert cd == pytest.approx(0.00589, abs=1e-5)

    def test_cd_increases_with_thickness(self, thick_shape_60):
        thin = build_airfoil(symmetric_polygon(0.02, 0.025, 0.01), 62)[0]
        cd_thin = low_fidelity_cd(thin, 6e6).cd
        cd_thick = low_fidelity_cd(thick_shape_60, 6e6).cd
        assert cd_thick > cd_thin

    def test_cd_decreases_with_re(self, thick_shape_60):
        cds = [low_fidelity_cd(thick_shape_60, re).cd for re in (5e6, 7e6, 1e7)]
        assert cds[0] > cds[1] > cds[2]

    def test_form_factor_monotone(self):
        ts = np.linspace(0.0, 0.3, 20)
        ff = [form_factor(t) for t in ts]
        assert all(b > a for a, b in zip(ff, ff[1:]))


class TestHighFidelity:
    def test_deterministic_bit_identical(self, thick_shape_200):
        a = high_fidelity_cd(thick_shape_200, 7e6)
        b = high_fidelity_cd(thick_shape_200, 7e6)
        assert a.cd == b.cd and a.cl == b.cl
        assert_allclose(a.cp, b.cp, rtol=0, atol=0)

    def test_sanity_band_against_low_fidelity(self, thick_shape_200, thick_shape_60):
        # ~12% thick section: the two drag estimates stay within a factor of two
        assert 0.115 < thick_shape_200.thickness_max < 0.125
        for re in (5e6, 7.5e6, 1e7):
            hi = high_fidelity_cd(thick_shape_200, re).cd
            lo = low_fidelity_cd(thick_shape_60, re).cd
            assert 0.5 * lo < hi < 2.0 * lo

    def test_cd_decreases_with_re(self, thick_shape_200):
        cds = [high_fidelity_cd(thick_shape_200, re).cd for re in (5e6, 7e6, 1e7)]
        assert cds[0] > cds[1] > cds[2]

    def test_stagnation_on_a_trailing_edge_panel_is_a_solver_error(self):
        # a valid default-box design whose last negative tangential velocity sits on
        # panel n - 2, so the upper surface of the split has a single station
        design = DesignVector([-0.7873615106521286, 0.11754816337225563, -0.13145771782340054,
                               -1.0, 0.36730191602471457, -1.0, -0.9586809327444866,
                               0.4403442193559862, 1.0, 0.4912869632740707,
                               0.19965325875077478, 1.0, 0.45827472517633094])
        env = Environment("high")
        (shape,) = env.build_shapes(design)
        assert shape.valid
        with pytest.raises(SolverError, match="trailing-edge panel"):
            high_fidelity_cd(shape, 7830556.060164841)
        ((reward, info),) = env.step_round(design, [7830556.060164841])
        assert reward == DEFAULT_PENALTY
        assert info["valid"] and not info["converged"]


class TestEnvironmentStep:
    def test_invalid_design_gets_penalty(self):
        # bounds that let the surfaces cross
        lo = GeometryBounds().lo.copy()
        hi = GeometryBounds().hi.copy()
        lo[1::2][:3] = -0.25   # upper ordinates may go below zero
        hi[1::2][:3] = 0.25
        lo[7::2][:2] = -0.25
        hi[7::2][:2] = 0.25
        env = Environment("low", bounds=GeometryBounds(lo=lo, hi=hi))
        v = np.zeros(13)
        v[[1, 3, 5]] = -1.0    # upper far below
        v[[7, 9, 11]] = 1.0    # lower far above
        ((reward, info),) = env.step_round(DesignVector(v), [6e6])
        assert reward == DEFAULT_PENALTY == -0.1
        assert not info["valid"]

    def test_reward_is_negated_drag(self):
        env = Environment("low")
        ((reward, info),) = env.step_round(DesignVector(np.zeros(13)), [6e6])
        assert info["valid"] and info["converged"]
        assert reward == -info["cd"]

    def test_table_reward_mapping(self):
        # a drag coefficient of 0.0102 maps to reward -0.0102
        result = AeroResult(cd=0.0102, cl=0.0, cp=np.zeros(3), cp_x=np.zeros(3),
                            converged=True)
        env = Environment("low")
        env._evaluate = lambda shape, re_c: result
        ((reward, _),) = env.step_round(DesignVector(np.zeros(13)), [6e6])
        assert reward == -0.0102

    def test_solver_error_maps_to_penalty(self):
        from mflight.errors import SolverError

        env = Environment("low")

        def boom(shape, re_c):
            raise SolverError("singular influence matrix")

        env._evaluate = boom
        ((reward, info),) = env.step_round(DesignVector(np.zeros(13)), [6e6])
        assert reward == DEFAULT_PENALTY
        assert info["valid"] and not info["converged"]
        env = Environment("low", penalty=-0.5)
        env._evaluate = boom
        ((reward, _),) = env.step_round(DesignVector(np.zeros(13)), [6e6])
        assert reward == -0.5
        assert env.eval_count == 1

    def test_identical_inputs_identical_rewards(self):
        env = Environment("high")
        d = DesignVector(np.full(13, 0.1))
        ((r1, _),) = env.step_round(d, [8e6])
        ((r2, _),) = env.step_round(d, [8e6])
        assert r1 == r2

    def test_reused_workspace_gives_the_same_step(self):
        # the second step on A reads the workspace that B's solve left behind
        env = Environment("high", bounds=experiment_bounds())
        work = env.work
        design_a = DesignVector(np.full(13, 0.3))
        design_b = DesignVector(np.linspace(-0.8, 0.6, 13))
        (first,) = env.step_round(design_a, [8e6])
        (between,) = env.step_round(design_b, [7.5e6])
        (again,) = env.step_round(design_a, [8e6])
        assert env.work is work
        assert first[1]["converged"] and between[1]["converged"]
        assert first[0] != between[0]
        # repr round-trips every float, so equal reprs are equal bits
        assert repr(again) == repr(first)
        (fresh,) = Environment("high", bounds=experiment_bounds()).step_round(design_a, [8e6])
        assert repr(fresh) == repr(first)

    def test_reward_bounded_by_penalty(self):
        env = Environment("low")
        rng = np.random.default_rng(5)
        outcomes = env.step_round(DesignVector(rng.uniform(-1, 1, (20, 13))), [6e6] * 20)
        for reward, _ in outcomes:
            assert reward <= 0.0
            assert reward >= DEFAULT_PENALTY

    def test_fidelity_interchangeability(self):
        # the same loop body runs against either tier
        d = DesignVector(np.zeros(13))
        rewards = {}
        for fidelity in ("low", "high"):
            env = Environment(fidelity)
            assert isinstance(env, Environment)
            ((reward, info),) = env.step_round(d, [7e6])
            rewards[fidelity] = reward
            assert reward < 0
        assert rewards["low"] != rewards["high"]

    def test_unset_resolution_is_the_tier_default(self):
        assert Environment("low").n_points == N_POINTS_LOW == 62
        assert Environment("high").n_points == N_POINTS_HIGH == 202
        env = Environment("high", 102)
        assert env.n_points == 102 and env.work.n_panels == 100

    def test_step_counts_episodes_including_invalid(self):
        lo = GeometryBounds().lo.copy()
        hi = GeometryBounds().hi.copy()
        lo[1::2][:3] = -0.25
        hi[1::2][:3] = 0.25
        env = Environment("low", bounds=GeometryBounds(lo=lo, hi=hi))
        bad = np.zeros(13)
        bad[[1, 3, 5]] = -1.0
        outcomes = env.step_round(DesignVector(np.stack([bad, np.zeros(13)])), [6e6, 6e6])
        assert [info["valid"] for _, info in outcomes] == [False, True]
        assert outcomes[0][0] == DEFAULT_PENALTY
        assert env.eval_count == 2


class TestCpDump:
    def test_csv_format(self, tmp_path, thick_shape_60):
        result = low_fidelity_cd(thick_shape_60, 6e6)
        path = tmp_path / "cp.csv"
        write_cp_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# mflight-cp v1"
        assert lines[1] == "x,cp"
        assert len(lines) == 2 + len(result.cp)
        x, cp = lines[2].split(",")
        assert float(x) == result.cp_x[0]
        assert float(cp) == result.cp[0]
