"""Geometry tests: arc-length maps, frames, curve evaluation and its range,
splines.

Closed-form expectations are cross-checked against independent numerical
oracles (composite quadrature for lengths, central finite differences for
derivatives of the parametrization and of the unit tangent).
"""
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartbeam.geometry import (
    ArcLengthMap,
    CircularArc,
    DegenerateCurveError,
    Helix,
    HermiteSpline,
    LineSegment,
    cross3,
    normal_projector,
    orthonormal_completion,
    skew,
)
from curves import quarter_circle, sample_spline, unit_helix


def pieces_spline(pieces, near_cusp=False):
    """The sample spline's midline with `pieces` pieces and end tangents of
    the midline's own derivative; `near_cusp` reverses the first end tangent
    against its chord, so |r'| dips to ~3e-4 inside the first piece."""
    y = np.linspace(0.0, 4.0, pieces + 1)
    pts = np.column_stack([0.5 * np.sin(np.pi * y / 2.0), y, 0.1 * y**2])
    dy = 4.0 / pieces
    t_start = np.array([0.25 * np.pi, 1.0, 0.0]) * dy
    if near_cusp:
        t_start = -2.0 * (pts[1] - pts[0]) + [0.0, 0.0, 1e-3]
    return HermiteSpline(pts, t_start, np.array([0.25 * np.pi, 1.0, 0.8]) * dy)


@pytest.mark.parametrize("make", [
    lambda: CircularArc([0, 0, 0], np.nan, [1, 0, 0], [0, 1, 0], 0.0, 1.0),
    lambda: CircularArc([0, 0, 0], np.inf, [1, 0, 0], [0, 1, 0], 0.0, 1.0),
    lambda: CircularArc([0, 0, 0], 1.0, [1, 0, 0], [0, 1, 0], 0.0, np.inf),
    lambda: CircularArc([0, 0, 0], 1.0, [1, 0, 0], [0, 1, 0], -np.inf, 1.0),
    lambda: Helix([0, 0, 0], np.nan, 1.0, [1, 0, 0], [0, 1, 0], 0.0, 1.0),
    lambda: Helix([0, 0, 0], 1.0, np.nan, [1, 0, 0], [0, 1, 0], 0.0, 1.0),
    lambda: Helix([0, 0, 0], 1.0, np.inf, [1, 0, 0], [0, 1, 0], 0.0, 1.0),
    lambda: Helix([0, 0, 0], 1.0, 1.0, [1, 0, 0], [0, 1, 0], 0.0, np.inf),
])
def test_non_finite_curve_numbers_are_refused(make):
    # radius <= 0 is false for NaN, and an infinite angle gives an infinite length
    with pytest.raises(ValueError, match="finite"):
        make()


unit_vectors = st.builds(
    lambda a, b: np.array([np.cos(a) * np.sin(b), np.sin(a) * np.sin(b), np.cos(b)]),
    st.floats(0, 2 * np.pi), st.floats(0.01, np.pi - 0.01),
)


class TestProjectors:
    @given(unit_vectors)
    def test_partition_of_identity(self, t):
        Q = normal_projector(t)
        P = np.eye(3) - Q
        assert np.allclose(P, np.outer(t, t), atol=1e-14)
        assert np.allclose(P @ P, P, atol=1e-14)
        assert np.allclose(Q @ Q, Q, atol=1e-14)
        assert np.allclose(P @ Q, 0.0, atol=1e-14)

    @given(unit_vectors)
    def test_orthonormal_completion(self, t):
        n1, n2 = orthonormal_completion(t)
        M = np.array([t, n1, n2])
        assert np.allclose(M @ M.T, np.eye(3), atol=1e-12)
        assert np.allclose(np.cross(t, n1), n2, atol=1e-12)

    @staticmethod
    def _completion_by_np_cross(t):
        k = int(np.argmin(np.abs(t)))
        n1 = np.cross(np.eye(3)[k], t)
        n1 = n1 / np.linalg.norm(n1)
        return n1, np.cross(t, n1)

    @pytest.mark.parametrize("t", [
        *np.eye(3), *-np.eye(3),                                  # axis-aligned
        np.array([1.0, 1.0, 1.0]) / np.sqrt(3), np.array([2.0, 1.0, -1.0]) / np.sqrt(6),
        np.array([1.0, -2.0, 1.0]) / np.sqrt(6), np.array([-0.0, 0.0, 1.0]),  # tied |t_k|
        *np.random.default_rng(7).normal(size=(20, 3)),           # random directions
    ])
    def test_orthonormal_completion_matches_np_cross_form(self, t):
        # the explicit 3-vector algebra picks the same axis (the first of tied
        # smallest |t_k|) and agrees with the np.cross form to 1 ulp
        t = t / np.linalg.norm(t)
        for got, ref in zip(orthonormal_completion(t), self._completion_by_np_cross(t)):
            assert np.all(np.abs(got - ref) <= np.spacing(np.abs(ref)))

    def test_cross3_is_np_cross_bitwise(self):
        rng = np.random.default_rng(3)
        for a, b in rng.normal(size=(50, 2, 3)) * 10.0 ** rng.integers(-8, 8, size=(50, 2, 1)):
            assert np.array_equal(cross3(a, b), np.cross(a, b))
        assert np.array_equal(cross3([1.0, 0.0, 0.0], (0.0, 1.0, 0.0)), [0.0, 0.0, 1.0])

    def test_skew_matches_cross_product(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            v, w = rng.normal(size=3), rng.normal(size=3)
            assert np.allclose(skew(v) @ w, np.cross(v, w))


class TestArcLength:
    def test_quarter_circle_length(self):
        assert ArcLengthMap(quarter_circle()).length == pytest.approx(np.pi / 2, abs=1e-12)

    def test_line_segment_length(self):
        line = LineSegment([0, 0, 0], [3, 4, 0])
        assert ArcLengthMap(line).length == pytest.approx(5.0, abs=1e-14)

    def test_helix_length_closed_form_vs_quadrature(self):
        # independent oracle: composite 20-point Gauss-Legendre of |r'(xi)|
        helix = unit_helix()
        x, w = np.polynomial.legendre.leggauss(20)
        numeric = 0.0
        edges = np.linspace(helix.xi0, helix.xi1, 16)
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            numeric += half * sum(wi * np.linalg.norm(helix.d1(mid + half * xi))
                                  for xi, wi in zip(x, w))
        closed = 2 * np.pi * np.sqrt(2.0)
        assert ArcLengthMap(helix).length == pytest.approx(closed, rel=1e-12)
        assert numeric == pytest.approx(closed, rel=1e-10)

    def test_table_strictly_monotone(self):
        for curve in (quarter_circle(), unit_helix(), sample_spline()):
            s = ArcLengthMap(curve).s_of_xi(np.linspace(curve.xi0, curve.xi1, 65))
            assert np.all(np.diff(s) > 0)

    @pytest.mark.parametrize("curve_factory", [quarter_circle, unit_helix, sample_spline])
    def test_roundtrip_xi_s_xi(self, curve_factory):
        curve = curve_factory()
        amap = curve.arclength()
        span = curve.xi1 - curve.xi0
        for xi in np.linspace(curve.xi0, curve.xi1, 17):
            back = amap.xi_of_s(amap.s_of_xi(xi))
            assert abs(back - xi) <= 1e-9 * span
        # the same round trip on arrays, one call per direction
        xi = np.linspace(curve.xi0, curve.xi1, 17)
        s = amap.s_of_xi(xi)
        assert s.shape == xi.shape
        assert np.all(np.abs(amap.xi_of_s(s) - xi) <= 1e-9 * span)

    def test_degenerate_spline_rejected(self):
        pts = np.zeros((3, 3))
        with pytest.raises(DegenerateCurveError):
            HermiteSpline(pts, [0, 0, 0], [0, 0, 0])

    @pytest.mark.parametrize("pieces, near_cusp", [(6, False), (11, False), (300, True)])
    def test_matches_adaptive_quadrature(self, pieces, near_cusp):
        # independent oracle: scipy's adaptive Gauss-Kronrod of |r'| over each
        # piece; 6 and 11 pieces do not divide the 256 table intervals, and
        # 300 pieces outnumber them
        from scipy.integrate import quad
        spline = pieces_spline(pieces, near_cusp)
        amap = spline.arclength()

        def length(a, b):
            return quad(lambda x: float(spline.speed(x)), a, b, epsabs=0.0, epsrel=2e-14,
                        limit=200)[0]

        knots = np.arange(pieces + 1.0)
        ref = np.concatenate([[0.0], np.cumsum([length(k, k + 1) for k in knots[:-1]])])
        xi = np.random.default_rng(5).uniform(0.0, pieces, 20)
        ref_xi = ref[xi.astype(int)] + [length(np.floor(x), x) for x in xi]
        L = ref[-1]
        assert amap.length == pytest.approx(L, rel=1e-13)
        assert np.abs(amap.s_of_xi(knots) - ref).max() <= 1e-13 * L
        assert np.abs(amap.s_of_xi(xi) - ref_xi).max() <= 1e-13 * L
        assert np.abs(amap.xi_of_s(ref_xi) - xi).max() <= 1e-12 * pieces

    def test_map_and_curve_go_with_their_last_reference(self):
        # the map refers to no curve, so no cycle waits for the collector
        # with a spline's tables in it
        spline = sample_spline()
        gone = weakref.ref(spline.arclength())
        gc.disable()
        try:
            del spline
            assert gone() is None
        finally:
            gc.enable()

    def test_breaks(self):
        assert np.array_equal(sample_spline().breaks, np.arange(7.0))
        arc = quarter_circle()
        assert np.array_equal(arc.breaks, [arc.xi0, arc.xi1])


class TestFrames:
    def test_arc_curvature_points_to_center(self):
        arc = CircularArc([1.0, 2.0, 0.0], 2.0, [1, 0, 0], [0, 1, 0], 0.0, np.pi)
        for s in np.linspace(0, arc.length, 7):
            fr = arc.frame(s)
            assert np.linalg.norm(fr.kappa) == pytest.approx(0.5, abs=1e-12)
            toward_center = (arc.center - fr.x) / 2.0
            assert np.allclose(fr.kappa, 0.5 * toward_center / np.linalg.norm(toward_center),
                               atol=1e-12)

    def test_line_zero_curvature(self):
        fr = LineSegment([0, 0, 0], [1, 2, 2]).frame(1.5)
        assert np.allclose(fr.kappa, 0.0, atol=1e-14)
        assert np.allclose(fr.t, np.array([1, 2, 2]) / 3.0, atol=1e-14)

    @pytest.mark.parametrize("curve_factory", [unit_helix, quarter_circle, sample_spline])
    def test_helix_curvature_magnitude_vs_finite_differences(self, curve_factory):
        curve = curve_factory()
        if curve.kind == "helix":
            assert np.linalg.norm(curve.frame(1.0).kappa) == pytest.approx(0.5, abs=1e-12)
        # oracle: central differences of the unit tangent along arc length, at
        # points clear of the spline's knots, where kappa jumps
        eps = 1e-5
        for s in np.array([0.1, 0.4, 0.7]) * curve.length:
            fd = (curve.frame(s + eps).t - curve.frame(s - eps).t) / (2 * eps)
            assert np.allclose(fd, curve.frame(s).kappa, atol=1e-6)

    @pytest.mark.parametrize("curve_factory", [quarter_circle, unit_helix, sample_spline])
    def test_frame_invariants(self, curve_factory):
        curve = curve_factory()
        for s in np.linspace(0, curve.length, 9):
            fr = curve.frame(s)
            assert abs(np.linalg.norm(fr.t) - 1.0) <= 1e-12
            assert abs(fr.t @ fr.kappa) <= 1e-10 * max(1.0, np.linalg.norm(fr.kappa))

    def test_out_of_range_arc_length(self):
        with pytest.raises(ValueError):
            quarter_circle().frame(-0.5)
        with pytest.raises(ValueError):
            quarter_circle().frame(10.0)
        # one entry outside [0, L] rejects the whole batch
        arc = quarter_circle()
        L = arc.length
        with pytest.raises(ValueError):
            arc.frames(np.array([0.0, 0.5 * L, -0.5]))
        with pytest.raises(ValueError):
            arc.frames(np.array([L + 1e-6, 0.0]))
        # inside the 1e-9 L slack the entries are clipped onto [0, L]
        fr = arc.frames(np.array([-1e-12, L + 1e-12]))
        assert fr.s[0] == 0.0 and fr.s[1] == L


CURVE_FACTORIES = [lambda: LineSegment([0, 0, 0], [1, 2, 2]), quarter_circle, unit_helix,
                   sample_spline]
CURVE_IDS = ["line", "arc", "helix", "hermite_spline"]


@pytest.mark.parametrize("curve_factory", CURVE_FACTORIES, ids=CURVE_IDS)
class TestArcLengthMapRange:
    """Both directions of the map clip entries within 1e-9 of their range onto
    it and refuse, naming the first, NaN and anything further off."""

    @pytest.mark.parametrize("where", ["nan", "inf", "below", "above"])
    def test_xi_of_s_refuses_arc_lengths_off_the_curve(self, curve_factory, where):
        amap = curve_factory().arclength()
        L = amap.length
        bad = {"nan": np.nan, "inf": np.inf, "below": -1.0, "above": L + 1.0}[where]
        with pytest.raises(ValueError, match=f"arc length {bad}"):
            amap.xi_of_s(bad)
        with pytest.raises(ValueError, match=f"arc length {bad}"):
            amap.xi_of_s(np.array([0.0, bad, 2 * L]))

    @pytest.mark.parametrize("where", ["nan", "-inf", "below", "above"])
    def test_s_of_xi_refuses_parameters_off_the_curve(self, curve_factory, where):
        curve = curve_factory()
        amap = curve.arclength()
        bad = {"nan": np.nan, "-inf": -np.inf, "below": curve.xi0 - 1.0,
               "above": curve.xi1 + 1.0}[where]
        with pytest.raises(ValueError, match=f"curve parameter {bad}"):
            amap.s_of_xi(bad)
        with pytest.raises(ValueError, match=f"curve parameter {bad}"):
            amap.s_of_xi(np.array([curve.xi0, bad, curve.xi1 + 2.0]))

    def test_entries_within_the_slack_are_clipped(self, curve_factory):
        curve = curve_factory()
        amap = curve.arclength()
        L, span = amap.length, curve.xi1 - curve.xi0
        assert amap.xi_of_s(-1e-12) == curve.xi0
        assert amap.xi_of_s(L + 1e-12) == pytest.approx(curve.xi1, abs=1e-14 * span)
        assert amap.s_of_xi(curve.xi0 - 1e-12) == amap.s_of_xi(curve.xi0)
        assert abs(amap.s_of_xi(curve.xi0)) <= 1e-15 * L
        s = amap.s_of_xi(np.array([curve.xi1 + 1e-12, curve.xi1]))
        assert s[0] == s[1] == pytest.approx(L, rel=1e-15)


@pytest.mark.parametrize("curve_factory", CURVE_FACTORIES, ids=CURVE_IDS)
class TestEvaluationRange:
    """`point`, `d1`, `d2` and `speed` follow the map's rule: NaN and any
    parameter off [xi0, xi1] by more than 1e-9 raise, naming it, and one
    within that slack is clipped onto the range."""

    @pytest.mark.parametrize("where", ["nan", "below", "above"])
    @pytest.mark.parametrize("method", ["point", "d1", "d2", "speed"])
    def test_refuses_parameters_off_the_curve(self, curve_factory, method, where):
        curve = curve_factory()
        bad = {"nan": np.nan, "below": curve.xi0 - 1.0, "above": curve.xi1 + 1.5}[where]
        evaluate = getattr(curve, method)
        with pytest.raises(ValueError, match=f"curve parameter {bad}"):
            evaluate(bad)
        with pytest.raises(ValueError, match=f"curve parameter {bad}"):
            evaluate(np.array([curve.xi0, bad, curve.xi1]))

    @pytest.mark.parametrize("method", ["point", "d1", "d2", "speed"])
    def test_entries_within_the_slack_are_clipped(self, curve_factory, method):
        curve = curve_factory()
        evaluate = getattr(curve, method)
        assert np.array_equal(evaluate(curve.xi1 + 1e-12), evaluate(curve.xi1))
        assert np.array_equal(evaluate(np.array([curve.xi0 - 1e-12, curve.xi1])),
                              evaluate(np.array([curve.xi0, curve.xi1])))


class TestBatchFrames:
    @pytest.mark.parametrize("curve_factory", CURVE_FACTORIES, ids=CURVE_IDS)
    def test_frames_match_scalar_frame(self, curve_factory):
        curve = curve_factory()
        L = curve.length
        rng = np.random.default_rng(11)
        s = np.concatenate([[0.0, L], rng.uniform(0.0, L, 23)])
        if curve.kind == "hermite_spline":
            knots = curve.arclength().s_of_xi(np.arange(len(curve.points), dtype=float))
            s = np.concatenate([s, knots])
        batch = curve.frames(s)
        rows = [curve.frame(si) for si in s]
        assert batch.s.shape == s.shape
        for name in ("x", "t", "kappa"):
            got = getattr(batch, name)
            want = np.array([getattr(fr, name) for fr in rows])
            assert got.shape == (len(s), 3)
            scale = np.abs(want).max()
            assert np.all(np.abs(got - want) <= 1e-14 * scale), name

    @pytest.mark.parametrize("curve_factory", CURVE_FACTORIES, ids=CURVE_IDS)
    @pytest.mark.parametrize("where", ["nan", "inf", "below", "above"])
    def test_refuses_arc_lengths_off_the_curve(self, curve_factory, where):
        # NaN and inf are refused like an s outside [0, L], naming the value,
        # in a batch of otherwise valid arc lengths
        curve = curve_factory()
        L = curve.length
        bad = {"nan": np.nan, "inf": np.inf, "below": -1e-6 * L, "above": L * (1 + 1e-6)}[where]
        with pytest.raises(ValueError, match=f"arc length {bad}"):
            curve.frames(np.array([0.0, bad, L]))
        with pytest.raises(ValueError, match="arc length"):
            curve.frame(bad)

    def test_frames_needs_one_sample_axis(self):
        with pytest.raises(ValueError):
            quarter_circle().frames(np.zeros((2, 2)))

    @pytest.mark.parametrize("curve_factory", CURVE_FACTORIES, ids=CURVE_IDS)
    def test_curve_evaluation_accepts_arrays(self, curve_factory):
        curve = curve_factory()
        xi = np.linspace(curve.xi0, curve.xi1, 9)
        for name in ("point", "d1", "d2", "speed"):
            fn = getattr(curve, name)
            batch = fn(xi)
            want = np.array([fn(x) for x in xi])
            assert batch.shape == want.shape == (len(xi),) + ((3,) if name != "speed" else ())
            assert np.all(np.abs(batch - want) <= 1e-14 * np.abs(want).max()), name


@pytest.mark.parametrize("curve_factory", CURVE_FACTORIES, ids=CURVE_IDS)
class TestPointwiseGeometry:
    """Geometry is pointwise: a sample's bits do not depend on the other
    samples of its query, so one query over the points of several
    quadrature rules, sliced per rule, equals one query per rule."""

    @staticmethod
    def arc_lengths(curve):
        s = np.concatenate([[0.0, curve.length],
                            np.random.default_rng(5).uniform(0.0, curve.length, 37)])
        if curve.kind == "hermite_spline":
            s = np.concatenate([s, curve.arclength().s_of_xi(curve.breaks)])
        return s

    def test_frames_of_a_concatenation_equal_frames_of_its_pieces(self, curve_factory):
        curve = curve_factory()
        s = self.arc_lengths(curve)
        whole = curve.frames(s)
        pieces = [curve.frames(p) for p in np.split(s, [1, 4, 11, 24])]   # sizes 1, 3, 7, 13, ...
        for name in ("s", "x", "t", "kappa"):
            assert np.array_equal(getattr(whole, name),
                                  np.concatenate([getattr(p, name) for p in pieces])), name

    def test_evaluations_read_the_jet(self, curve_factory):
        curve = curve_factory()
        s = self.arc_lengths(curve)
        xi = curve.arclength().xi_of_s(s)
        jet = curve._jet(xi)
        for name, row in zip(("point", "d1", "d2"), jet):
            assert np.array_equal(getattr(curve, name)(xi), row), name
        assert np.array_equal(curve.speed(xi), np.linalg.norm(jet[1], axis=-1))
        assert np.array_equal(curve.point(xi), curve.frames(s).x)


class TestSpline:
    def test_c1_continuity_at_knots(self):
        spline = sample_spline()
        for k in range(1, len(spline.points) - 1):
            below, above = k - 1e-9, k + 1e-9
            assert np.allclose(spline.point(below), spline.point(above), atol=1e-7)
            assert np.allclose(spline.d1(below), spline.d1(above), atol=1e-6)

    def test_interpolates_knots(self):
        spline = sample_spline()
        for k, p in enumerate(spline.points):
            assert np.allclose(spline.point(float(k)), p, atol=1e-12)

    @pytest.mark.parametrize("name", ["t_start", "t_end"])
    @pytest.mark.parametrize("bad", [[[0.7, 0.6, 0.0]], [0.7, 0.6], [0.7, 0.6, 0.0, 0.1]],
                             ids=["1x3", "2-vector", "4-vector"])
    def test_end_tangents_must_be_3_vectors(self, name, bad):
        tangents = {"t_start": [0.7, 0.6, 0.0], "t_end": [0.5, 0.7, 0.4], name: bad}
        with pytest.raises(ValueError, match=name):
            HermiteSpline(sample_spline().points, tangents["t_start"], tangents["t_end"])


class TestSplineKernels:
    """The power-basis evaluation of a spline and the seeded arc-length
    inversion."""

    def test_derivatives_match_central_differences(self):
        spline, h = sample_spline(), 1e-5
        # inside the pieces: d2 jumps at the knots
        xi = (np.arange(6)[:, None] + np.array([0.13, 0.5, 0.87])).ravel()
        for f, df in ((spline.point, spline.d1), (spline.d1, spline.d2)):
            fd = (f(xi + h) - f(xi - h)) / (2 * h)
            assert np.abs(df(xi) - fd).max() <= 1e-8 * np.abs(df(xi)).max()

    def test_inversion_meets_its_tolerance_everywhere(self):
        spline = sample_spline()            # 6 pieces: knots 1, 2, 4, 5 are off the grid
        amap = spline.arclength()
        L = amap.length
        s = np.concatenate([np.linspace(0.0, L, 1001),
                            amap.s_of_xi(np.arange(len(spline.points), dtype=float)), [0.0, L]])
        xi = amap.xi_of_s(s)
        assert np.all(np.abs(amap.s_of_xi(xi) - s) <= 1e-13 * max(L, 1.0))

    def test_vanishing_speed_inside_a_piece_raises(self):
        # r' = (u - 1/4)(1 + u) w vanishes at u = 1/4, a point of the
        # arc-length grid but not of the construction check's grid
        w = np.array([0.1, -0.6, 0.5])
        spline = HermiteSpline(np.array([[0.0, 0.0, 0.0], 11 / 24 * w]), -0.25 * w, 1.5 * w)
        assert spline.speed(0.25) < 1e-14
        with pytest.raises(DegenerateCurveError):
            spline.length

    def test_zero_knot_tangent_raises(self):
        # knot 1 of 6 pieces lies on neither sample grid; its central
        # difference tangent is zero
        pts = sample_spline().points.copy()
        pts[2] = pts[0]
        with pytest.raises(DegenerateCurveError):
            HermiteSpline(pts, [0.7, 0.6, 0.0], [0.5, 0.7, 0.4])


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95))
def test_helix_frame_properties_along_length(frac):
    helix = unit_helix()
    fr = helix.frame(frac * helix.length)
    assert abs(np.linalg.norm(fr.t) - 1.0) <= 1e-12
    assert abs(fr.t @ fr.kappa) <= 1e-10
    assert np.linalg.norm(fr.kappa) == pytest.approx(0.5, abs=1e-10)
