from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial import ConvexHull

from mflight.errors import ConfigError, DomainError, InvalidAction
from mflight.geometry import (
    ControlPolygon,
    DesignVector,
    GeometryBounds,
    bezier_eval,
    build_airfoil,
    decode,
    selig_points,
    write_selig,
)

from conftest import symmetric_polygon


class TestDesignVector:
    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidAction):
            DesignVector(np.zeros(12))

    def test_rejects_out_of_range(self):
        v = np.zeros(13)
        v[4] = 1.5
        with pytest.raises(InvalidAction):
            DesignVector(v)

    def test_rejects_non_finite(self):
        v = np.zeros(13)
        v[0] = np.nan
        with pytest.raises(InvalidAction):
            DesignVector(v)


class TestDecode:
    def test_all_zeros_hits_range_midpoints(self):
        bounds = GeometryBounds()
        poly = decode(DesignVector(np.zeros(13)), bounds)
        mid = 0.5 * (bounds.lo + bounds.hi)
        assert_allclose(poly.upper.ravel(), mid[0:6], rtol=1e-15)
        assert_allclose(poly.lower.ravel(), mid[6:12], rtol=1e-15)
        assert poly.leading_edge_radius == pytest.approx(mid[12], rel=1e-15)

    def test_plus_one_hits_range_top(self):
        # upper-point-1 ordinate range set to [0.0, 0.2]
        lo, hi = GeometryBounds().lo.copy(), GeometryBounds().hi.copy()
        lo[1], hi[1] = 0.0, 0.2
        bounds = GeometryBounds(lo=lo, hi=hi)
        v = np.zeros(13)
        v[1] = 1.0
        poly = decode(DesignVector(v), bounds)
        assert poly.upper[0, 1] == pytest.approx(0.2, abs=1e-15)

    def test_out_of_range_entry_raises(self):
        v = np.zeros(13)
        v[7] = 1.5
        with pytest.raises(InvalidAction):
            decode(v, GeometryBounds())

    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("x", [-0.01, 1.01])
    def test_control_polygon_rejects_an_x_off_the_chord(self, side, x):
        points = {"upper": np.array([[0.1, 0.05], [0.45, 0.08], [0.8, 0.03]])}
        points["lower"] = points["upper"] * np.array([1.0, -1.0])
        points[side][1, 0] = x
        with pytest.raises(ConfigError, match="x-coordinates"):
            ControlPolygon(leading_edge_radius=0.01, **points)

    def test_decode_maps_minus_one_zero_one_to_lo_midpoint_hi(self):
        bounds = GeometryBounds()
        for v, expected in ((-1.0, bounds.lo), (0.0, 0.5 * (bounds.lo + bounds.hi)),
                            (1.0, bounds.hi)):
            polygon = decode(DesignVector(np.full(13, v)), bounds)
            assert_allclose(polygon.upper.ravel(), expected[0:6], rtol=0, atol=1e-15)
            assert_allclose(polygon.lower.ravel(), expected[6:12], rtol=0, atol=1e-15)
            assert_allclose(polygon.leading_edge_radius, expected[12], rtol=0, atol=1e-15)


class TestBezier:
    def test_endpoint_interpolation_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ctrl = rng.standard_normal((rng.integers(2, 7), 2))
            assert_allclose(bezier_eval(ctrl, 0.0), ctrl[0], rtol=0, atol=0)
            assert_allclose(bezier_eval(ctrl, 1.0), ctrl[-1], rtol=0, atol=0)

    def test_quadratic_midpoint_by_hand(self):
        # 0.25*(0,0) + 0.5*(1,0) + 0.25*(2,0) = (1, 0)
        ctrl = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert_allclose(bezier_eval(ctrl, 0.5), [1.0, 0.0], atol=1e-15)

    def test_domain_error_outside_unit_interval(self):
        ctrl = np.array([[0.0, 0.0], [1.0, 1.0]])
        for t in (-0.01, 1.01):
            with pytest.raises(DomainError):
                bezier_eval(ctrl, t)

    def test_needs_two_control_points(self):
        with pytest.raises(DomainError):
            bezier_eval(np.array([[0.0, 0.0]]), 0.5)

    def test_convex_hull_property(self):
        rng = np.random.default_rng(2)
        t = np.linspace(0.0, 1.0, 41)
        for _ in range(20):
            ctrl = rng.standard_normal((5, 2))
            hull = ConvexHull(ctrl)
            pts = bezier_eval(ctrl, t)
            # every evaluated point satisfies all hull facet inequalities
            slack = pts @ hull.equations[:, :2].T + hull.equations[:, 2]
            assert slack.max() <= 1e-12


class TestBuildAirfoil:
    def test_symmetric_polygon_mirrors_exactly(self):
        shape = build_airfoil(symmetric_polygon(0.05, 0.06, 0.02), 62)[0]
        n = 31
        lower = shape.points[:n]          # TE -> LE
        upper = shape.points[n - 1:]      # LE -> TE
        assert_allclose(lower[::-1, 0], upper[:, 0], atol=1e-15)
        assert np.abs(lower[::-1, 1] + upper[:, 1]).max() < 1e-10

    def test_crossed_surfaces_flagged_invalid(self):
        upper = np.array([[0.1, -0.05], [0.45, -0.06], [0.8, -0.02]])
        lower = np.array([[0.1, 0.05], [0.45, 0.06], [0.8, 0.02]])
        poly = ControlPolygon(upper=upper, lower=lower, leading_edge_radius=0.01)
        shape = build_airfoil(poly, 62)[0]
        assert not shape.valid

    def test_regression_snapshot(self):
        upper = np.array([[0.12, 0.055], [0.42, 0.071], [0.78, 0.028]])
        lower = np.array([[0.10, -0.041], [0.47, -0.052], [0.81, -0.016]])
        poly = ControlPolygon(upper=upper, lower=lower, leading_edge_radius=0.009)
        shape = build_airfoil(poly, 62)[0]
        stored = np.loadtxt(Path(__file__).parent / "data" / "airfoil_snapshot.txt")
        assert_allclose(shape.points, stored, atol=1e-12, rtol=0)

    def test_polyline_closed(self):
        shape = build_airfoil(symmetric_polygon(0.04, 0.05, 0.02), 62)[0]
        assert_allclose(shape.points[0], shape.points[-1], atol=1e-12, rtol=0)
        assert_allclose(shape.points[0], [1.0, 0.0], atol=1e-12, rtol=0)

    def test_mirroring_polygon_mirrors_surface(self):
        upper = np.array([[0.12, 0.06], [0.5, 0.08], [0.8, 0.03]])
        lower = np.array([[0.15, -0.03], [0.45, -0.05], [0.82, -0.02]])
        poly = ControlPolygon(upper=upper, lower=lower, leading_edge_radius=0.008)
        mirrored = ControlPolygon(upper=lower * np.array([1.0, -1.0]),
                                  lower=upper * np.array([1.0, -1.0]),
                                  leading_edge_radius=0.008)
        a = build_airfoil(poly, 62)[0].points
        b = build_airfoil(mirrored, 62)[0].points
        assert_allclose(a[:, 0], b[::-1, 0], atol=1e-14)
        assert_allclose(a[:, 1], -b[::-1, 1], atol=1e-14)

    def test_always_finite_for_valid_inputs(self):
        bounds = GeometryBounds()
        rng = np.random.default_rng(3)
        for _ in range(100):
            poly = decode(DesignVector(rng.uniform(-1, 1, 13)), bounds)
            shape = build_airfoil(poly, 44)[0]
            assert np.isfinite(shape.points).all()

    def test_thickness_fields(self):
        shape = build_airfoil(symmetric_polygon(0.05, 0.06, 0.02), 62)[0]
        assert shape.valid
        assert 0.0 < shape.thickness_min < shape.thickness_max < 0.2

    def test_n_points_validation(self):
        poly = symmetric_polygon(0.05, 0.06, 0.02)
        with pytest.raises(ConfigError):
            build_airfoil(poly, 38)
        with pytest.raises(ConfigError):
            build_airfoil(poly, 61)


class TestSeligExport:
    def test_ordering_and_roundtrip(self, tmp_path):
        shape = build_airfoil(symmetric_polygon(0.05, 0.06, 0.02), 62)[0]
        pts = selig_points(shape)
        # Selig: TE -> upper -> LE -> lower -> TE
        assert_allclose(pts[0], [1.0, 0.0], atol=1e-12)
        n = 31
        assert (pts[1:n - 1, 1] > 0).all()   # upper surface first
        assert (pts[n:-1, 1] < 0).all()
        path = tmp_path / "foil.dat"
        write_selig(shape, path)
        again = np.loadtxt(path)
        assert_allclose(again, pts, rtol=0, atol=0)
