"""The optimised kernels against their reference implementations.

Each physics kernel, and the PPO update on one flat parameter vector, must
give bit-identical results to the straightforward version in
``reference_kernels``: a changed last bit in any reward or parameter sends PPO
down another trajectory, so the campaign artifacts would no longer reproduce.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mflight import boundary_layer as bl
from mflight import panel
from mflight.aeroenv import RE_FLOOR, Environment, low_fidelity_cd
from mflight.agent import forward_policy, gaussian_log_prob, init_params
from mflight.ctl import TransferController
from mflight.errors import ConfigError, InvalidAction, SolverError
from mflight.geometry import (
    ControlPolygon,
    GeometryBounds,
    _cosine_params,
    _surface_basis,
    bezier_eval,
    build_airfoil,
    decode,
)
from mflight.orchestrator import trailing_mean
from mflight.panel import PanelWorkspace, solve_panel
from mflight.ppo import ExperienceBatch, PpoConfig, PpoTrainer

from conftest import experiment_bounds, symmetric_polygon
from reference_kernels import (
    ParamsReference,
    PpoTrainerReference,
    build_airfoil_reference,
    march_surface_reference,
    solve_panel_reference,
    trailing_mean_reference,
    variance_ratios_reference,
)

actions = hnp.arrays(np.float64, 13, elements=st.floats(-1.0, 1.0))
reynolds = st.floats(RE_FLOOR, 1.1e7)
# repeated levels give ties and all-equal windows (zero variance)
ctl_rewards = st.one_of(st.floats(-0.1, 0.0), st.sampled_from([-0.1, -0.01, 0.0]))
MARCH_FIELDS = ("theta", "shape_factor", "ue_te", "cd", "transition_s", "separated")
SOLUTION_ARRAYS = ("cp", "vt", "x_mid", "y_mid", "source_strengths")


def widened_bounds() -> GeometryBounds:
    """Default box, but the upper surface may dip below the lower one."""
    lo = GeometryBounds().lo.copy()
    hi = GeometryBounds().hi.copy()
    lo[[1, 3, 5]] = -0.25
    hi[[7, 9, 11]] = 0.25
    return GeometryBounds(lo=lo, hi=hi)


def wide_bounds() -> GeometryBounds:
    """Every control point anywhere in [0, 1] x [-0.25, 0.25]: x may run backwards too."""
    lo = np.array([0.0, -0.25] * 6 + [0.002])
    hi = np.array([1.0, 0.25] * 6 + [0.05])
    return GeometryBounds(lo=lo, hi=hi)


BOXES = {"default": GeometryBounds, "narrow": experiment_bounds, "wide": wide_bounds}
design_stacks = hnp.arrays(np.float64, st.tuples(st.integers(1, 25), st.just(13)),
                           elements=st.floats(-1.0, 1.0))


def mirrored(designs):
    """Mirror images: each design's upper control points, reflected in the chord, as its lower ones.

    In a box that gives both surfaces the same x ranges, lower node k then
    sits at the x of upper node k (near the nose, up to the blend's rounding),
    so neighbouring lower and upper segments have x-ranges that touch.
    """
    out = designs.copy()
    out[..., [6, 8, 10]] = designs[..., [0, 2, 4]]
    out[..., [7, 9, 11]] = -designs[..., [1, 3, 5]]
    return out


def assert_stack_matches_reference(designs, bounds, n_points):
    """Each shape of one stacked build equals the one-polygon reference build; returns the latter."""
    shapes = build_airfoil(decode(designs, bounds), n_points)
    assert len(shapes) == len(designs)
    refs = []
    for design, shape in zip(designs, shapes):
        ref = build_airfoil_reference(decode(design, bounds), n_points)
        assert shape.points.shape == ref.points.shape
        assert shape.points.tobytes() == ref.points.tobytes()
        assert shape.valid == ref.valid
        assert bits(shape.thickness_min) == bits(ref.thickness_min)
        assert bits(shape.thickness_max) == bits(ref.thickness_max)
        refs.append(ref)
    return refs


def outcome(shape, n_points):
    """Why a reference shape is (in)valid: the first check it fails."""
    m = n_points // 2
    x = shape.points[:, 0]
    if not ((np.diff(x[:m]) < 0).all() and (np.diff(x[m - 1:]) > 0).all()):
        return "non-monotone"
    if shape.thickness_min <= 0.0:
        return "non-positive thickness"
    return "valid" if shape.valid else "crossed"


def assert_checks_match_references(designs, bounds, n_points):
    """The stacked build's verdicts against the all-pairs oracle; returns each design's outcome.

    The reference build runs ``segments_cross_reference`` on every shape of
    positive thickness, so equal ``valid`` flags are equal crossing verdicts.
    """
    refs = assert_stack_matches_reference(designs, bounds, n_points)
    return [outcome(ref, n_points) for ref in refs]


def assert_solutions_equal(new, ref):
    for name in SOLUTION_ARRAYS:
        assert getattr(new, name).tobytes() == getattr(ref, name).tobytes(), name
    assert bits(new.cl) == bits(ref.cl)
    assert bits(new.vortex_strength) == bits(ref.vortex_strength)


def seeded_shapes(seed, count):
    """Valid shapes from the default and the narrow box at 62 and 202 points, with alphas."""
    rng = np.random.default_rng(seed)
    boxes = (GeometryBounds(), experiment_bounds())
    out = []
    while len(out) < count:
        bounds = boxes[int(rng.integers(2))]
        n_points = (62, 202)[int(rng.integers(2))]
        shape = build_airfoil(decode(rng.uniform(-1.0, 1.0, 13), bounds), n_points)[0]
        alpha = float(rng.uniform(-0.1, 0.1))
        if shape.valid:
            out.append((shape.points, alpha))
    return out


def bits(value) -> str:
    return float(value).hex() if not math.isnan(value) else "nan"


def assert_march_identical(s, ue, x, nu):
    new = bl.march_surface(s, ue, x, nu)
    ref = march_surface_reference(s, ue, x, nu)
    for name in MARCH_FIELDS:
        assert bits(getattr(new, name)) == bits(getattr(ref, name)), name
    return new


class TestSegmentsCross:
    @settings(max_examples=300, deadline=None)
    @given(design=actions, n_points=st.sampled_from([62, 202]))
    def test_same_verdict_as_all_pairs(self, design, n_points):
        (seen,) = assert_checks_match_references(design[None], widened_bounds(), n_points)
        assume(seen != "non-monotone")

    def test_seeded_sweep_sees_both_verdicts(self):
        rng = np.random.default_rng(11)
        # about one widened-box draw in 500 crosses with a positive thickness
        for n_points in (62, 202):
            outcomes = assert_checks_match_references(rng.uniform(-1.0, 1.0, (4000, 13)),
                                                      widened_bounds(), n_points)
            assert outcomes.count("non-monotone") < len(outcomes) // 6
            assert {"valid", "crossed"} <= set(outcomes)


def node_gaps(shape, n_points):
    """Upper minus lower surface at the interior nodes of the upper, then of the lower one."""
    h = n_points // 2 - 1
    lo, up = shape.points[h::-1], shape.points[h:]
    at = np.concatenate([up[1:-1, 0], lo[1:-1, 0]])
    return np.interp(at, up[:, 0], up[:, 1]) - np.interp(at, lo[:, 0], lo[:, 1])


def reflected(upper, lower):
    """The polygon reflected in the chord: the gaps stay, the upper and lower nodes swap."""
    flip = np.array([1.0, -1.0])
    return np.array(lower) * flip, np.array(upper) * flip


class TestNodeGapRule:
    """Hand-built polygons at the two edges of the node-gap rule that random draws miss."""

    @pytest.mark.parametrize("reflect", [False, True])
    def test_a_zero_node_gap_is_touching(self, reflect):
        # a flat upper surface over the lower one y = -(x - 1/2)^2 x (1 - x) / 2, in
        # Bernstein form; at 202 points its computed value at the mid-chord node is 0.0
        upper = [[0.25, 0.0], [0.5, 0.0], [0.75, 0.0]]
        lower = [[0.25, -0.03125], [0.5, 1 / 24], [0.75, -0.03125]]
        if reflect:
            upper, lower = reflected(upper, lower)
        polygon = ControlPolygon(upper=upper, lower=lower, leading_edge_radius=1e-4)
        (shape,) = build_airfoil(polygon, 202)
        gaps = node_gaps(shape, 202)
        assert gaps.min() == 0.0 and shape.thickness_min > 0.0
        assert shape.valid and build_airfoil_reference(polygon, 202).valid

    @pytest.mark.parametrize("reflect", [False, True])
    def test_a_crossing_before_the_first_station_is_seen_at_the_first_node(self, reflect):
        # the upper surface runs below the lower one from the LE to x ~ 0.004, short of the
        # first thickness station at x = 0.005; only the first interior upper node lies there
        upper = [[0.25, -0.001], [0.5, 0.2], [0.75, 0.05]]
        lower = [[0.5, 0.0], [0.75, -0.02], [0.9, -0.01]]
        if reflect:
            upper, lower = reflected(upper, lower)
        polygon = ControlPolygon(upper=upper, lower=lower, leading_edge_radius=1e-4)
        (shape,) = build_airfoil(polygon, 62)
        gaps = node_gaps(shape, 62)
        assert np.nonzero(gaps < 0.0)[0].tolist() == [29 if reflect else 0]
        assert shape.thickness_min > 0.0
        assert not shape.valid and not build_airfoil_reference(polygon, 62).valid


class TestStackedBuild:
    """One stacked build gives every shape of the one-polygon build bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(designs=design_stacks, box=st.sampled_from(sorted(BOXES)),
           n_points=st.sampled_from([62, 202]))
    def test_each_row_equals_the_reference(self, designs, box, n_points):
        assert_stack_matches_reference(designs, BOXES[box](), n_points)

    @settings(max_examples=100, deadline=None)
    @given(designs=design_stacks, mirror=hnp.arrays(np.bool_, 25),
           box=st.sampled_from(sorted(BOXES) + ["widened"]), n_points=st.sampled_from([62, 202]))
    def test_mixed_stacks_with_mirror_designs(self, designs, mirror, box, n_points):
        mirror = mirror[:len(designs)]
        designs[mirror] = mirrored(designs[mirror])
        bounds = widened_bounds() if box == "widened" else BOXES[box]()
        outcomes = assert_checks_match_references(designs, bounds, n_points)
        assume(set(outcomes) != {"non-monotone"})

    def test_mirror_designs_tie_every_node_and_see_both_verdicts(self):
        rng = np.random.default_rng(12)
        for n_points in (62, 202):
            outcomes = []
            # a mirrored default-box design never crosses; about one widened-box draw in 900 does
            for bounds, count in ((GeometryBounds(), 100), (widened_bounds(), 5000)):
                designs = mirrored(rng.uniform(-1.0, 1.0, (count, 13)))
                points = np.stack([s.points for s in build_airfoil(decode(designs, bounds), n_points)])
                h = n_points // 2 - 1
                assert (points[:, h - 1::-1, 0] == points[:, h + 1:, 0]).all()
                outcomes += assert_checks_match_references(designs, bounds, n_points)
            assert {"valid", "crossed"} <= set(outcomes)

    def test_wide_box_sweep_sees_every_outcome(self):
        rng = np.random.default_rng(4)
        seen = set()
        for designs in rng.uniform(-1.0, 1.0, (160, 25, 13)):
            seen.update(assert_checks_match_references(designs, wide_bounds(), 62))
        assert seen == {"valid", "non-monotone", "non-positive thickness", "crossed"}

    def test_stack_of_one_is_the_single_design(self):
        design = np.random.default_rng(5).uniform(-1.0, 1.0, 13)
        (single,) = build_airfoil(decode(design, GeometryBounds()), 62)
        (stacked,) = build_airfoil(decode(design[None], GeometryBounds()), 62)
        assert single.points.tobytes() == stacked.points.tobytes()

    def test_shapes_do_not_share_writable_points(self):
        designs = np.random.default_rng(6).uniform(-1.0, 1.0, (4, 13))
        shapes = build_airfoil(decode(designs, GeometryBounds()), 62)
        for a, b in itertools.combinations(shapes, 2):
            assert not np.shares_memory(a.points, b.points)
        for shape in shapes:
            with pytest.raises(ValueError):
                shape.points[1, 1] = 0.5

    def test_invalid_row_raises_the_typed_error(self):
        designs = np.zeros((5, 13))
        designs[3, 2] = np.nan
        with pytest.raises(InvalidAction, match="non-finite"):
            decode(designs, GeometryBounds())
        designs[3, 2] = 1.5
        with pytest.raises(InvalidAction, match="out of"):
            decode(designs, GeometryBounds())
        with pytest.raises(InvalidAction, match="13 entries"):
            decode(np.zeros((2, 3, 13)), GeometryBounds())
        lo = np.array([-0.5, 0.0] * 6 + [0.002])
        hi = np.array([1.0, 0.1] * 6 + [0.05])
        designs[3, 2] = -1.0    # x of an upper point decodes to -0.5
        with pytest.raises(ConfigError, match="x-coordinates"):
            decode(designs, GeometryBounds(lo=lo, hi=hi))


class TestSurfaceBasis:
    @settings(max_examples=100, deadline=None)
    @given(design=actions, n_points=st.sampled_from([62, 202]))
    def test_cached_basis_equals_bezier_eval(self, design, n_points):
        polygon = decode(design, GeometryBounds())
        m = n_points // 2
        basis = _surface_basis(m)
        assert not basis.flags.writeable
        for ctrl in polygon.curves()[:, 0]:
            assert np.array_equal(basis @ ctrl, bezier_eval(ctrl, _cosine_params(m)))


class TestMarch:
    @settings(max_examples=150, deadline=None)
    @given(design=actions, re_c=reynolds)
    def test_bitwise_on_panel_surfaces(self, design, re_c):
        shape = build_airfoil(decode(design, GeometryBounds()), 202)[0]
        assume(shape.valid)
        sol = solve_panel(shape.points)
        for s, ue, x in bl.split_surfaces(sol.x_mid, sol.y_mid, sol.vt):
            assert_march_identical(s, ue, x, 1.0 / re_c)

    def test_bitwise_on_every_branch(self):
        s = np.linspace(1e-4, 1.0, 300)
        # laminar to the trailing edge, transition, turbulent separation
        laminar = assert_march_identical(s, np.ones_like(s), s, 1e-4)
        assert laminar.transition_s == s[-1]
        turbulent = assert_march_identical(s, np.ones_like(s), s, 1e-7)
        assert turbulent.transition_s < s[-1]
        separated = assert_march_identical(s, 1.0 - 0.85 * s, s, 1e-7)
        assert separated.separated


class TestSolvePanel:
    @settings(max_examples=100, deadline=None)
    @given(design=actions, n_points=st.sampled_from([62, 202]),
           alpha=st.floats(-0.1, 0.1))
    def test_equal_to_reference_assembly(self, design, n_points, alpha):
        shape = build_airfoil(decode(design, GeometryBounds()), n_points)[0]
        assume(shape.valid)
        new = solve_panel(shape.points, alpha=alpha)
        ref = solve_panel_reference(shape.points, alpha=alpha)
        assert np.array_equal(new.cp, ref.cp)
        assert np.array_equal(new.vt, ref.vt)
        assert new.cl == ref.cl
        assert np.array_equal(new.source_strengths, ref.source_strengths)
        assert new.vortex_strength == ref.vortex_strength

    @pytest.mark.parametrize("n_panels", [80, 200])
    def test_equal_without_kutta(self, n_panels):
        theta = np.linspace(0.0, -2.0 * np.pi, n_panels + 1)
        points = np.column_stack([np.cos(theta), np.sin(theta)])
        points[-1] = points[0]
        new = solve_panel(points, kutta=False)
        ref = solve_panel_reference(points, kutta=False)
        assert np.array_equal(new.cp, ref.cp) and np.array_equal(new.vt, ref.vt)

    # one workspace reused across solves gives the bytes of fresh buffers
    def test_reused_workspace_equals_fresh_buffers_and_reference(self):
        shapes = seeded_shapes(17, 40)
        assert {len(points) - 1 for points, _ in shapes} == {60, 200}
        work = {60: PanelWorkspace(60), 200: PanelWorkspace(200)}
        for points, alpha in shapes:
            reused = solve_panel(points, alpha=alpha, work=work[len(points) - 1])
            assert_solutions_equal(reused, solve_panel(points, alpha=alpha))
            assert_solutions_equal(reused, solve_panel_reference(points, alpha=alpha))

    def test_results_do_not_alias_the_workspace(self):
        (first, alpha_1), (second, alpha_2) = [s for s in seeded_shapes(5, 12)
                                               if len(s[0]) == 201][:2]
        work = PanelWorkspace(200)
        sol = solve_panel(first, alpha=alpha_1, work=work)
        kept = {name: getattr(sol, name).copy() for name in SOLUTION_ARRAYS}
        solve_panel(second, alpha=alpha_2, work=work)
        for name, before in kept.items():
            assert getattr(sol, name).tobytes() == before.tobytes(), name

    @pytest.mark.parametrize("case", ["singular", "nan_node"])
    def test_solver_error_leaves_the_workspace_usable(self, case):
        shape = build_airfoil(symmetric_polygon(0.075, 0.085, 0.035, r=0.012), 62)[0]
        if case == "singular":
            # coincident upper and lower surfaces give a singular system
            x = np.concatenate([np.linspace(1.0, 0.0, 31), np.linspace(0.0, 1.0, 31)[1:]])
            bad = np.column_stack([x, np.zeros_like(x)])
        else:
            # a NaN node inside the polyline fails lu_factor's finiteness check
            bad = shape.points.copy()
            bad[17] = np.nan
        work = PanelWorkspace(60)
        with pytest.raises(SolverError):
            solve_panel(bad, work=work)
        assert_solutions_equal(solve_panel(shape.points, alpha=0.03, work=work),
                               solve_panel(shape.points, alpha=0.03))

    def test_wrong_panel_count_raises(self):
        shape = build_airfoil(symmetric_polygon(0.075, 0.085, 0.035, r=0.012), 202)[0]
        with pytest.raises(ConfigError, match="workspace"):
            solve_panel(shape.points, work=PanelWorkspace(60))
        with pytest.raises(ConfigError):
            PanelWorkspace(30)


class TestLapackBinding:
    """The panel LU's getrf/getrs give the bits of scipy.linalg.lu_factor/lu_solve."""

    @pytest.mark.parametrize("n", [41, 61, 201, 401])
    def test_factors_pivots_and_solution_equal_scipy_linalg(self, n):
        from scipy.linalg import lu_factor, lu_solve

        rng = np.random.default_rng(n)
        for _ in range(20):
            a = np.asfortranarray(rng.standard_normal((n, n)))
            b = rng.standard_normal(n)
            lu_ref, piv_ref = lu_factor(a)
            lu, piv, info = panel._getrf(a.copy(order="F"))
            x, info_solve = panel._getrs(lu, piv, b)
            assert info == info_solve == 0
            assert lu.tobytes() == lu_ref.tobytes()
            assert np.array_equal(piv, piv_ref + 1)  # LAPACK's 1-based pivots
            assert x.tobytes() == lu_solve((lu_ref, piv_ref), b).tobytes()

    def test_exact_zero_pivot_is_reported_and_fails_the_pivot_test(self):
        lu, _, info = panel._getrf(np.asfortranarray(np.ones((40, 40))))
        assert info == 2
        assert np.abs(np.diag(lu)).min() < panel.PIVOT_TOL

    def test_fallback_logs_one_warning_and_gives_the_same_bits(self, monkeypatch, caplog):
        monkeypatch.setattr(panel.glob, "glob", lambda pattern: [])
        with caplog.at_level("WARNING", logger="mflight.panel"):
            fallback = panel._bind_lu(panel._vendored_openblas("scipy"))
        assert len(caplog.records) == 1
        theta = np.linspace(0.0, -2.0 * np.pi, 201)
        cylinder = np.column_stack([np.cos(theta), np.sin(theta)])
        cylinder[-1] = cylinder[0]
        cases = [(points, alpha, True) for points, alpha in seeded_shapes(23, 16)]
        cases.append((cylinder, 0.0, False))
        assert {len(points) - 1 for points, _, _ in cases} == {60, 200}
        default = [solve_panel(points, alpha=alpha, kutta=kutta) for points, alpha, kutta in cases]
        monkeypatch.setattr(panel, "_getrf", fallback[0])
        monkeypatch.setattr(panel, "_getrs", fallback[1])
        for (points, alpha, kutta), expected in zip(cases, default):
            assert_solutions_equal(solve_panel(points, alpha=alpha, kutta=kutta), expected)


class TestLowFidelityReward:
    """The low-fidelity reward runs no panel solve; that moves no reward."""

    @settings(max_examples=200, deadline=None)
    @given(design=actions, re_c=st.floats(RE_FLOOR, 1e8))
    def test_reward_equals_solved_drag(self, design, re_c):
        env = Environment("low")
        (shape,) = env.build_shapes(design)
        assume(shape.valid)
        # every valid 60-panel shape solves, so the solve could never penalize
        solved = low_fidelity_cd(shape, re_c)
        ((reward, info),) = env.step_round(design, [re_c])
        assert reward == -solved.cd
        assert info["converged"] and info["cl"] is None

    def test_evaluate_still_solves(self):
        env = Environment("low")
        shape = build_airfoil(symmetric_polygon(0.075, 0.085, 0.035, r=0.012), 62)[0]
        result = env.evaluate(shape, 6e6)
        assert result.cl == pytest.approx(0.0, abs=1e-9)
        assert len(result.cp) == 60
        assert env.eval_count == 1


class TestVarianceRatio:
    """The controller's running max gives the pool max's beta sequence bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(rewards=st.lists(ctl_rewards, min_size=1, max_size=150), k=st.integers(1, 60))
    @example(rewards=[-0.1, -0.01, -0.05, -0.05, 0.0, -0.02], k=1)
    @example(rewards=[-0.1, 0.0, -0.1, -0.01, -0.011, -0.012, -0.01], k=3)
    def test_bitwise_equal_to_pool_max(self, rewards, k):
        ctrl = TransferController(k=k)
        betas = [ctrl.update(r) for r in rewards]
        expected = variance_ratios_reference(rewards, k)
        assert [bits(b) for b in betas] == [bits(b) for b in expected]
        assert [bits(b) for b in ctrl.beta_history] == [bits(b) for b in expected]


class TestTrailingMean:
    """The array expression gives the per-episode loop's trailing means bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(rewards=st.lists(st.floats(-1e3, 1e3), max_size=150), k=st.integers(1, 200))
    @example(rewards=[], k=1)
    @example(rewards=[-0.1, -0.01, -0.05, -0.05, 0.0, -0.02], k=1)
    def test_bitwise_equal_to_the_loop(self, rewards, k):
        got = trailing_mean(np.array(rewards), k)
        expected = trailing_mean_reference(rewards, k)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def oracle_batch(rng, params, size):
    """Actions near the policy, old log-probs off by noise, raw advantages."""
    states = rng.standard_normal((size, 1))
    mean, std = forward_policy(params, states)
    actions = mean + 1.5 * std * rng.standard_normal((size, params.action_dim))
    logp_old = gaussian_log_prob(actions, mean, params.log_std) + 0.1 * rng.standard_normal(size)
    rewards = rng.standard_normal(size)
    return ExperienceBatch(states=states, actions=actions, log_probs_old=logp_old,
                           advantages=0.3 * rng.standard_normal(size), returns=rewards)


def run_update_oracle(seed, hidden, action_dim, sizes, lr, kl_stop, nan_at=-1, overflow_at=-1):
    """The same updates on ``PpoTrainer`` and the per-array reference, bit-equal after each.

    Update ``nan_at`` gets a NaN advantage (a rollback before any step), and
    update ``overflow_at`` an infinite learning rate (a rollback after the
    first step). Returns the stats and the number of clipped gradient norms.
    """
    rng = np.random.default_rng(seed)
    cfg = PpoConfig(learning_rate=lr, kl_stop=kl_stop)
    params = init_params(rng, action_dim=action_dim, hidden=hidden)
    params.flat += 0.3 * rng.standard_normal(params.flat.size)
    np.clip(params.log_std, -2.0, 1.0, out=params.log_std)
    trainer = PpoTrainer(params, cfg)
    ref = PpoTrainerReference(ParamsReference.from_params(params), cfg)
    names = [name for name, _ in params.tensors()]
    history = []
    for k, size in enumerate(sizes):
        batch = oracle_batch(rng, trainer.params, size)
        if k == nan_at:
            batch.advantages[0] = np.nan
        trainer.opt.lr = ref.opt.lr = np.inf if k == overflow_at else lr
        with np.errstate(all="ignore"):
            stats, expected = trainer.update(batch), ref.update(batch)
        assert repr(stats) == repr(expected)
        assert trainer.params is params
        assert params.flat.tobytes() == b"".join(t.tobytes() for _, t in ref.params.tensors())
        assert trainer.opt.t == ref.opt.t
        assert trainer.opt.m.tobytes() == b"".join(ref.opt.m[n].tobytes() for n in names)
        assert trainer.opt.v.tobytes() == b"".join(ref.opt.v[n].tobytes() for n in names)
        history.append(stats)
    return history, ref.clipped


class TestPpoUpdate:
    """The flat-vector update gives the per-array update's bits, rollbacks included."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           hidden=st.lists(st.integers(1, 24), min_size=1, max_size=3).map(tuple),
           action_dim=st.integers(1, 13),
           sizes=st.lists(st.integers(1, 25), min_size=2, max_size=5),
           lr=st.floats(1e-4, 0.3),
           kl_stop=st.sampled_from([0.001, 0.05, math.inf]),
           nan_at=st.integers(-1, 4),
           overflow_at=st.integers(-1, 4))
    def test_bitwise_equal_to_per_array_update(self, seed, hidden, action_dim, sizes, lr,
                                               kl_stop, nan_at, overflow_at):
        run_update_oracle(seed, hidden, action_dim, sizes, lr, kl_stop, nan_at, overflow_at)

    @pytest.mark.parametrize("kl_stop", [0.05, math.inf])
    @pytest.mark.parametrize("nan_at, overflow_at", [(-1, -1), (0, -1), (-1, 0)],
                             ids=["equal_sizes", "after_nan_rollback", "after_step_rollback"])
    def test_next_update_after_equal_size_batches_and_rollbacks(self, nan_at, overflow_at,
                                                                 kl_stop):
        # the trainer's buffers and the policy pass the KL check hands on must
        # never carry one update's values into the next
        history, _ = run_update_oracle(31, (16, 12), 13, [20, 20, 20], lr=1e-3,
                                       kl_stop=kl_stop, nan_at=nan_at, overflow_at=overflow_at)
        aborted = [s.aborted for s in history]
        assert aborted == [k == max(nan_at, overflow_at) for k in range(3)]
        assert max(s.epochs_run for s in history[1:]) == 10

    def test_seeded_sweep_sees_clipping_kl_stop_and_both_rollbacks(self):
        seen = {"clipped": 0, "kl_stop": 0, "nan_rollback": 0, "step_rollback": 0}
        for seed in range(12):
            rng = np.random.default_rng([seed, 9])
            hidden = tuple(int(h) for h in rng.integers(1, 33, size=int(rng.integers(1, 4))))
            history, clipped = run_update_oracle(
                seed, hidden, int(rng.integers(1, 14)), [int(n) for n in rng.integers(1, 26, 4)],
                lr=float(10 ** rng.uniform(-4, -0.5)),
                kl_stop=[0.001, 0.05][seed % 2], nan_at=1, overflow_at=2)
            seen["clipped"] += clipped
            seen["kl_stop"] += sum(not s.aborted and s.epochs_run < 10 for s in history)
            seen["nan_rollback"] += sum(s.aborted and s.epochs_run == 0 for s in history)
            seen["step_rollback"] += sum(s.aborted and s.epochs_run > 0 for s in history)
        assert all(seen.values()), seen
