import numpy as np
import pytest

from mflight import boundary_layer as bl

from reference_kernels import head_h, michel_retheta_crit


class TestClosures:
    def test_thwaites_zero_gradient_values(self):
        l, h = bl.thwaites_correlations(0.0)
        assert l == pytest.approx(0.22)
        assert h == pytest.approx(2.61)

    def test_thwaites_shape_factor_rises_toward_separation(self):
        _, h_fav = bl.thwaites_correlations(0.05)
        _, h_adv = bl.thwaites_correlations(-0.08)
        assert h_adv > 2.61 > h_fav

    def test_head_correlations_are_inverses(self):
        for h in np.linspace(1.15, 2.39, 25):
            assert head_h(bl.head_h1(h)) == pytest.approx(h, rel=1e-3)

    def test_michel_threshold_grows_with_re_x(self):
        vals = [michel_retheta_crit(r) for r in (1e5, 1e6, 1e7)]
        assert vals[0] < vals[1] < vals[2]

    def test_squire_young_by_hand(self):
        # 2 * theta * ue^((H+5)/2) with theta=1e-3, ue=0.9, H=1.5
        assert bl.squire_young_cd(1e-3, 0.9, 1.5) == pytest.approx(
            2e-3 * 0.9 ** 3.25, rel=1e-12)


def flat_plate_march(re=1e7, n=400):
    s = np.linspace(1e-4, 1.0, n)
    ue = np.ones_like(s)
    return bl.march_surface(s, ue, s, 1.0 / re)


class TestMarch:
    def test_flat_plate_drag_near_turbulent_correlation(self):
        # one side of a flat plate: fully-turbulent one-side drag is
        # 0.074 Re^-1/5, and the laminar run to transition can only lower it
        for re in (1e7, 2e7):
            m = flat_plate_march(re)
            assert not m.separated
            cd_turb = 0.074 * re ** -0.2
            assert 0.6 * cd_turb < m.cd < 1.05 * cd_turb

    def test_flat_plate_drag_decreases_with_re_when_turbulent(self):
        # early transition regime: coefficient falls with Reynolds number
        cds = [flat_plate_march(re).cd for re in (1e7, 3e7, 1e8)]
        assert cds[0] > cds[1] > cds[2]

    def test_transition_moves_forward_with_re(self):
        t = [flat_plate_march(re).transition_s for re in (1e6, 1e7)]
        assert t[1] < t[0]

    def test_deterministic(self):
        a = flat_plate_march()
        b = flat_plate_march()
        assert a == b

    def test_strong_adverse_gradient_separates(self):
        s = np.linspace(1e-4, 1.0, 300)
        ue = 1.0 - 0.85 * s  # steep linear deceleration
        m = bl.march_surface(s, ue, s, 1e-7)
        assert m.separated

    def test_mild_gradient_stays_attached(self):
        s = np.linspace(1e-4, 1.0, 300)
        ue = 1.0 - 0.1 * s
        m = bl.march_surface(s, ue, s, 1e-7)
        assert not m.separated


class TestSplitSurfaces:
    def test_split_orders_stagnation_to_te(self):
        # fabricated clockwise midpoint loop: negative vt on the lower half
        n = 80
        x = np.concatenate([np.linspace(1, 0, n // 2), np.linspace(0, 1, n // 2)])
        y = np.concatenate([-np.ones(n // 2), np.ones(n // 2)]) * 0.05
        vt = np.concatenate([-np.ones(n // 2), np.ones(n // 2)])
        (s_lo, ue_lo, x_lo), (s_up, ue_up, x_up) = bl.split_surfaces(x, y, vt)
        assert s_lo[0] == 0.0 and s_up[0] == 0.0
        assert (np.diff(s_lo) > 0).all() and (np.diff(s_up) > 0).all()
        assert (ue_lo >= 0).all() and (ue_up >= 0).all()
        # both marches end at the trailing edge
        assert x_lo[-1] == pytest.approx(1.0)
        assert x_up[-1] == pytest.approx(1.0)
