"""Beam midline geometry in global Cartesian coordinates.

Curves are described by a regular parametrization r(xi) and queried by arc
length s. The solve path only ever needs position, unit tangent t, and the
curvature vector kappa = dt/ds, all pointwise, so the one evaluation path is
the batch query `frames(s)`: it takes an array of arc lengths, inverts the
arc-length map for all of them at once, and returns x, t and kappa with a
leading sample axis. `frame(s)` is its one-row case. Curve evaluation
(`point`, `d1`, `d2`, `speed`) and the arc-length map accept scalars or
arrays alike. The full moving frame (principal normal, binormal, torsion) is
provided so tests can cross-check against classical differential geometry;
it is undefined wherever kappa vanishes and nothing in the solver depends
on it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Vec3 = np.ndarray


class DegenerateCurveError(ValueError):
    """The parametrization has (numerically) vanishing speed somewhere."""


class ZeroCurvatureError(ValueError):
    """Frenet data requested where |kappa| is below the straightness threshold."""


class AmbiguousProjectionError(ValueError):
    """Closest-point projection has several minimizers (outside the injectivity tube)."""


_SPEED_FLOOR = 1e-14


def unit(v: Vec3) -> Vec3:
    n = np.linalg.norm(v)
    if n < _SPEED_FLOOR:
        raise ValueError("cannot normalize a (near-)zero vector")
    return v / n


def skew(v: Vec3) -> np.ndarray:
    """Matrix S with S @ w = v x w; v of shape (..., 3) gives (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    S = np.zeros(v.shape[:-1] + (9,))
    S[..., [7, 2, 3]] = v       # S_21 = x, S_02 = y, S_10 = z
    S[..., [5, 6, 1]] = -v
    return S.reshape(v.shape[:-1] + (3, 3))


def normal_projector(t: Vec3) -> np.ndarray:
    """Q = I - t (x) t, projection onto the cross-section plane; t of shape
    (..., 3) gives (..., 3, 3)."""
    t = np.asarray(t, dtype=float)
    return np.eye(3) - t[..., :, None] * t[..., None, :]


def cross3(a, b) -> Vec3:
    """a x b of two 3-vectors: np.cross's formula (same bits) at ~1/40 its cost."""
    a0, a1, a2 = map(float, a)
    b0, b1, b2 = map(float, b)
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def orthonormal_completion(t) -> np.ndarray:
    """Orthonormal pair N = [n1; n2] of the normal plane of unit tangents t
    (..., 3), as (..., 2, 3), with {t, n1, n2} right-handed.

    n1 is e_k x t normalized, k the first axis of smallest |t_k|, so a
    tangent in a coordinate plane gives exact zeros in N. The pair is an
    arbitrary basis of the normal plane; no result may depend on the
    particular choice. The cross products and the norm take the bits of
    `cross3` and `np.linalg.norm` at a fraction of np.cross's cost.
    """
    t = np.asarray(t, dtype=float)
    e = np.eye(3)[np.argmin(np.abs(t), axis=-1)]
    tn, tp = t[..., _NEXT], t[..., _PREV]
    n1 = e[..., _NEXT] * tp - e[..., _PREV] * tn
    n1 /= np.sqrt(n1[..., None, :] @ n1[..., :, None])[..., 0]
    return np.stack([n1, tn * n1[..., _PREV] - tp * n1[..., _NEXT]], axis=-2)


@dataclass(eq=False)
class FrameSample:
    """Geometry sample: arc length, position, tangent, curvature vector.

    One point from `frame`; from `frames`, every field carries a leading
    sample axis (s of shape (n,), x, t and kappa of shape (n, 3)).
    """

    s: float
    x: Vec3
    t: Vec3
    kappa: Vec3


@dataclass(eq=False)
class FrenetFrame:
    t: Vec3
    n: Vec3
    b: Vec3
    kappa: float
    tau: float


@dataclass(eq=False)
class ClosestPointResult:
    p: Vec3
    zeta: Vec3
    s: float


class ParamCurve:
    """Base class for regular parametric midlines r(xi), xi in [xi0, xi1].

    `point`, `d1`, `d2` and `d3` take a scalar xi or an array of them and
    return shape xi.shape + (3,).
    """

    kind: str = "abstract"
    xi0: float
    xi1: float

    def point(self, xi: float) -> Vec3:
        raise NotImplementedError

    def d1(self, xi: float) -> Vec3:
        raise NotImplementedError

    def d2(self, xi: float) -> Vec3:
        raise NotImplementedError

    def d3(self, xi: float) -> Vec3:
        raise NotImplementedError

    @property
    def constant_speed(self) -> float | None:
        """|dr/dxi| when it is constant along the curve, else None."""
        return None

    def speed(self, xi):
        return np.linalg.norm(self.d1(xi), axis=-1)

    def arclength(self) -> "ArcLengthMap":
        """The curve's arc-length map, built once per curve."""
        if getattr(self, "_arclength_map", None) is None:
            self._arclength_map = ArcLengthMap(self)
        return self._arclength_map

    @property
    def length(self) -> float:
        return self.arclength().length

    def frames(self, s) -> FrameSample:
        """Position, unit tangent, and curvature vector at every arc length of
        a 1-d array s, as a FrameSample whose fields lead with the sample axis.

        kappa = dt/ds follows from the chain rule on the raw parametrization:
        kappa = (r'' |r'|^2 - r' (r' . r'')) / |r'|^4.
        """
        s = np.asarray(s, dtype=float)
        if s.ndim != 1:
            raise ValueError("frames needs a 1-d array of arc lengths")
        s = clip_arc_lengths(s, self.length)
        xi = self.arclength().xi_of_s(s)
        r1 = self.d1(xi)
        r2 = self.d2(xi)
        sp2 = np.einsum("ij,ij->i", r1, r1)[:, None]
        if np.any(sp2 < _SPEED_FLOOR**2):
            raise DegenerateCurveError("vanishing speed at evaluation point")
        t = r1 / np.sqrt(sp2)
        kappa = (r2 * sp2 - r1 * np.einsum("ij,ij->i", r1, r2)[:, None]) / sp2**2
        return FrameSample(s=s, x=self.point(xi), t=t, kappa=kappa)

    def frame(self, s: float) -> FrameSample:
        """One-row case of `frames`, at the single arc length s."""
        fr = self.frames([s])
        return FrameSample(s=float(fr.s[0]), x=fr.x[0], t=fr.t[0], kappa=fr.kappa[0])

    def end_frames(self) -> FrameSample:
        """`frames([0, L])`, computed once per curve; its arrays are read-only."""
        if getattr(self, "_end_frames", None) is None:
            self._end_frames = self.frames(np.array([0.0, self.length]))
            for a in vars(self._end_frames).values():
                a.flags.writeable = False
        return self._end_frames

    def frenet(self, s: float) -> FrenetFrame:
        """Full Frenet frame with torsion; raises where the curve is straight
        (|kappa| <= 1e-10 / L)."""
        fr = self.frame(s)
        kappa_min = 1e-10 / max(self.length, _SPEED_FLOOR)
        k = float(np.linalg.norm(fr.kappa))
        if k <= kappa_min:
            raise ZeroCurvatureError(
                f"|kappa| = {k:.3e} <= {kappa_min:.3e}; normal direction undefined"
            )
        n = fr.kappa / k
        b = np.cross(fr.t, n)
        xi = self.arclength().xi_of_s(s)
        r1, r2, r3 = self.d1(xi), self.d2(xi), self.d3(xi)
        c = np.cross(r1, r2)
        tau = float(c @ r3) / float(c @ c)
        return FrenetFrame(t=fr.t, n=n, b=b, kappa=k, tau=tau)

    def closest_point(self, x: Vec3) -> ClosestPointResult:
        """Project x onto the curve; valid inside the injectivity tube of the midline.

        Dense parameter scan (512 points), bounded local minimization of the
        squared distance, then Newton polish of the stationarity condition
        (x - p) . r' = 0.
        """
        # imported here: scipy.optimize is a third of the package's import time
        # and only this test-oracle projection needs it
        from scipy.optimize import minimize_scalar

        x = np.asarray(x, dtype=float)
        a, b = self.xi0, self.xi1
        n_scan = 512
        grid = np.linspace(a, b, n_scan)
        diff = x - self.point(grid)
        d2 = np.einsum("ij,ij->i", diff, diff)
        cand = [i for i in range(n_scan)
                if (i == 0 or d2[i] <= d2[i - 1]) and (i == n_scan - 1 or d2[i] <= d2[i + 1])]

        minima: list[tuple[float, float]] = []
        for i in cand:
            lo = grid[max(i - 1, 0)]
            hi = grid[min(i + 1, n_scan - 1)]
            if hi > lo:
                res = minimize_scalar(
                    lambda xi: float((x - self.point(xi)) @ (x - self.point(xi))),
                    bounds=(lo, hi), method="bounded",
                    options={"xatol": 1e-13 * max(b - a, 1.0)},
                )
                xi_star = float(res.x)
            else:
                xi_star = grid[i]
            if a + 1e-12 * (b - a) < xi_star < b - 1e-12 * (b - a):
                xi_star = _polish_stationarity(self, x, xi_star)
            dist = float(np.linalg.norm(x - self.point(xi_star)))
            for xi_prev, _ in minima:
                if abs(xi_prev - xi_star) <= 1e-7 * (b - a):
                    break
            else:
                minima.append((xi_star, dist))

        minima.sort(key=lambda m: m[1])
        xi_best, d_best = minima[0]
        scale = max(d_best, 1e-12 * max(np.linalg.norm(x), 1.0))
        rivals = [m for m in minima[1:] if m[1] - d_best <= 1e-8 * scale]
        if rivals:
            raise AmbiguousProjectionError(
                f"{1 + len(rivals)} closest-point candidates within tolerance; "
                "point lies outside the injectivity tube"
            )
        p = self.point(xi_best)
        return ClosestPointResult(p=p, zeta=x - p, s=self.arclength().s_of_xi(xi_best))


@dataclass(eq=False)
class LineSegment(ParamCurve):
    p0: Vec3
    p1: Vec3
    kind: str = field(default="line", init=False)

    def __post_init__(self):
        self.p0 = np.asarray(self.p0, dtype=float)
        self.p1 = np.asarray(self.p1, dtype=float)
        if not np.isfinite([self.p0, self.p1]).all():
            raise ValueError("line segment endpoints must be finite")
        self.xi0, self.xi1 = 0.0, 1.0
        if np.linalg.norm(self.p1 - self.p0) < _SPEED_FLOOR:
            raise DegenerateCurveError("line segment endpoints coincide")

    def point(self, xi):
        return self.p0 + np.multiply.outer(xi, self.p1 - self.p0)

    def d1(self, xi):
        return np.zeros(np.shape(xi) + (3,)) + (self.p1 - self.p0)

    def d2(self, xi):
        return np.zeros(np.shape(xi) + (3,))

    def d3(self, xi):
        return np.zeros(np.shape(xi) + (3,))

    @property
    def constant_speed(self):
        return float(np.linalg.norm(self.p1 - self.p0))


def _checked_plane_basis(e1, e2) -> tuple[Vec3, Vec3]:
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    if abs(np.linalg.norm(e1) - 1.0) > 1e-6 or abs(np.linalg.norm(e2) - 1.0) > 1e-6:
        raise ValueError("plane basis vectors must be unit length")
    if abs(float(e1 @ e2)) > 1e-6:
        raise ValueError("plane basis vectors must be orthogonal")
    e1 = unit(e1)
    e2 = unit(e2 - (e2 @ e1) * e1)
    return e1, e2


@dataclass(eq=False)
class CircularArc(ParamCurve):
    """Arc r(phi) = center + R (cos(phi) e1 + sin(phi) e2), phi in [angle0, angle1]."""

    center: Vec3
    radius: float
    e1: Vec3
    e2: Vec3
    angle0: float
    angle1: float
    kind: str = field(default="arc", init=False)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if not (np.isfinite([self.radius, self.angle0, self.angle1]).all() and self.radius > 0):
            raise ValueError("arc radius must be positive, and radius and angles finite")
        if not self.angle1 > self.angle0:
            raise ValueError("arc angle range must be increasing")
        self.e1, self.e2 = _checked_plane_basis(self.e1, self.e2)
        self.xi0, self.xi1 = float(self.angle0), float(self.angle1)

    def _combine(self, c1, c2):
        return np.multiply.outer(c1, self.e1) + np.multiply.outer(c2, self.e2)

    def point(self, xi):
        return self.center + self.radius * self._combine(np.cos(xi), np.sin(xi))

    def d1(self, xi):
        return self.radius * self._combine(-np.sin(xi), np.cos(xi))

    def d2(self, xi):
        return -self.radius * self._combine(np.cos(xi), np.sin(xi))

    def d3(self, xi):
        return self.radius * self._combine(np.sin(xi), -np.cos(xi))

    @property
    def constant_speed(self):
        return float(self.radius)


@dataclass(eq=False)
class Helix(ParamCurve):
    """Helix r(xi) = center + a (cos(xi) e1 + sin(xi) e2) + b xi e3, e3 = e1 x e2."""

    center: Vec3
    radius: float
    pitch: float
    e1: Vec3
    e2: Vec3
    angle0: float
    angle1: float
    kind: str = field(default="helix", init=False)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if not (np.isfinite([self.radius, self.pitch, self.angle0, self.angle1]).all()
                and self.radius > 0):
            raise ValueError("helix radius must be positive, and radius, pitch and angles finite")
        if not self.angle1 > self.angle0:
            raise ValueError("helix angle range must be increasing")
        self.e1, self.e2 = _checked_plane_basis(self.e1, self.e2)
        self.e3 = np.cross(self.e1, self.e2)
        self.xi0, self.xi1 = float(self.angle0), float(self.angle1)

    def _combine(self, c1, c2, c3=0.0):
        out = np.multiply.outer(c1, self.e1) + np.multiply.outer(c2, self.e2)
        return out + np.multiply.outer(c3, self.e3)

    def point(self, xi):
        a, b = self.radius, self.pitch
        return self.center + self._combine(a * np.cos(xi), a * np.sin(xi), b * np.asarray(xi))

    def d1(self, xi):
        a, b = self.radius, self.pitch
        return self._combine(-a * np.sin(xi), a * np.cos(xi), np.full(np.shape(xi), b))

    def d2(self, xi):
        a = self.radius
        return self._combine(-a * np.cos(xi), -a * np.sin(xi))

    def d3(self, xi):
        a = self.radius
        return self._combine(a * np.sin(xi), -a * np.cos(xi))

    @property
    def constant_speed(self):
        return float(np.hypot(self.radius, self.pitch))


@dataclass(eq=False)
class HermiteSpline(ParamCurve):
    """C1 cubic Hermite interpolant of knot points; xi in [0, n_pieces].

    Knot tangents are taken with respect to the knot index: the two end
    tangents are user data, interior tangents are central differences of the
    knots, so value and first derivative match at every knot by construction.
    """

    points: np.ndarray
    t_start: Vec3
    t_end: Vec3
    kind: str = field(default="hermite_spline", init=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3 or len(self.points) < 2:
            raise ValueError("spline needs at least two 3d knot points")
        if not (np.isfinite(self.points).all() and np.isfinite(self.t_start).all()
                and np.isfinite(self.t_end).all()):
            raise ValueError("spline knots and end tangents must be finite")
        self.tangents = np.vstack([self.t_start, 0.5 * (self.points[2:] - self.points[:-2]),
                                   self.t_end])
        self.xi0, self.xi1 = 0.0, float(len(self.points) - 1)
        # piece i: r = c0 + c1 u + c2 u^2 + c3 u^3, u = xi - i
        p0, p1, m0, m1 = self.points[:-1], self.points[1:], self.tangents[:-1], self.tangents[1:]
        self._coef = np.stack([p0, m0, 3 * (p1 - p0) - 2 * m0 - m1, 2 * (p0 - p1) + m0 + m1],
                              axis=1)
        # |r'| on a fine grid, and exactly at the knots
        grid = np.linspace(self.xi0, self.xi1, 16 * len(self.points))
        speeds = np.linalg.norm(np.concatenate([self.d1(grid), self.tangents]), axis=-1)
        if speeds.min() < _SPEED_FLOOR:
            raise DegenerateCurveError("spline parametrization has vanishing speed")

    def _piece(self, xi) -> tuple[np.ndarray, np.ndarray]:
        """Piece index and local coordinate u in [0, 1] of each xi."""
        xi = np.asarray(xi, dtype=float)
        i = np.clip(np.floor(xi), 0, len(self.points) - 2).astype(int)
        return i, xi - i

    def point(self, xi):
        i, u = self._piece(xi)
        c, u = self._coef[i], u[..., None]
        return ((c[..., 3, :] * u + c[..., 2, :]) * u + c[..., 1, :]) * u + c[..., 0, :]

    def d1(self, xi):
        i, u = self._piece(xi)
        c, u = self._coef[i], u[..., None]
        return (3 * c[..., 3, :] * u + 2 * c[..., 2, :]) * u + c[..., 1, :]

    def d2(self, xi):
        i, u = self._piece(xi)
        return 6 * self._coef[i, 3] * u[..., None] + 2 * self._coef[i, 2]

    def d3(self, xi):
        i, _ = self._piece(xi)
        return 6 * self._coef[i, 3]


_GL10_X, _GL10_W = np.polynomial.legendre.leggauss(10)


def _gauss_speed_integral(curve: ParamCurve, a, b):
    """Integral of |dr/dxi| over [a, b] by 10-point Gauss-Legendre, elementwise."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    speeds = curve.speed(mid[..., None] + half[..., None] * _GL10_X)
    return half * (speeds * _GL10_W).sum(axis=-1)


def _scalar_or_array(v: np.ndarray):
    return float(v) if v.ndim == 0 else v


def _interval(table: np.ndarray, v) -> np.ndarray:
    """Index i of the table interval [table[i], table[i + 1]] holding each v."""
    return np.clip(np.searchsorted(table, v, side="right") - 1, 0, len(table) - 2)


_TABLE_SAMPLES = 257      # grid points of the arc-length table


class ArcLengthMap:
    """Monotone bijection between the curve parameter xi and arc length s.

    Constant-speed kinds (line, arc, helix) use the closed-form map; splines
    accumulate per-interval Gauss-Legendre quadrature of |dr/dxi| over a fine
    grid and invert with safeguarded Newton iteration from a cubic seed. Both
    directions take a scalar or an array and return the same shape.
    """

    def __init__(self, curve: ParamCurve):
        self.curve = curve
        xi0, xi1 = curve.xi0, curve.xi1
        grid = np.linspace(xi0, xi1, _TABLE_SAMPLES)
        speeds = curve.speed(grid)
        if speeds.min() < _SPEED_FLOOR:
            raise DegenerateCurveError(
                f"curve speed {speeds.min():.3e} below {_SPEED_FLOOR} at a sample point"
            )
        self._const = curve.constant_speed
        if self._const is not None:
            cum = (grid - xi0) * self._const
        else:
            seg = _gauss_speed_integral(curve, grid[:-1], grid[1:])
            cum = np.concatenate([[0.0], np.cumsum(seg)])
        self._grid = grid
        self._cum = cum
        self._speeds = speeds
        self.length = float(cum[-1])

    def s_of_xi(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self._const is not None:
            return _scalar_or_array((xi - self.curve.xi0) * self._const)
        i = _interval(self._grid, xi)
        return _scalar_or_array(self._cum[i] + _gauss_speed_integral(self.curve, self._grid[i], xi))

    def xi_of_s(self, s):
        """Invert s(xi) for every entry of s at once.

        Each entry starts from the cubic Hermite interpolant of xi(s) on its
        table interval (slopes 1 / speed at the grid), clipped into that
        interval, which also brackets the root. It then takes safeguarded
        Newton steps (bisection when a step leaves the bracket) until
        |s(xi) - s| is at most 1e-13 max(L, 1), or 60 steps. A converged
        entry is frozen and drops out of the remaining steps.
        """
        s = np.asarray(s, dtype=float)
        if self._const is not None:
            return _scalar_or_array(self.curve.xi0 + s / self._const)
        grid, cum = self._grid, self._cum
        flat = s.ravel()
        i = _interval(cum, flat)
        lo, hi = grid[i], grid[i + 1]
        h = cum[i + 1] - cum[i]
        v = np.clip((flat - cum[i]) / h, 0.0, 1.0)
        m0, m1 = h / self._speeds[i], h / self._speeds[i + 1]
        xi = np.clip(lo + (hi - lo) * v * v * (3 - 2 * v)
                     + v * (1 - v) * ((1 - v) * m0 - v * m1), lo, hi)
        tol = 1e-13 * max(self.length, 1.0)
        live = np.arange(flat.size)
        for _ in range(60):
            err = self.s_of_xi(xi[live]) - flat[live]
            pending = np.abs(err) > tol
            live, err = live[pending], err[pending]
            if live.size == 0:
                break
            x = xi[live]
            above = err > 0
            hi[live[above]] = x[above]
            lo[live[~above]] = x[~above]
            step = x - err / self.curve.speed(x)
            inside = (lo[live] < step) & (step < hi[live])
            xi[live] = np.where(inside, step, 0.5 * (lo[live] + hi[live]))
        return _scalar_or_array(xi.reshape(s.shape))


def clip_arc_lengths(s: np.ndarray, length: float) -> np.ndarray:
    """The arc lengths s clipped onto [0, length]; ValueError, naming the
    first, where one is not finite or lies off by more than 1e-9 max(length, 1)."""
    tol = 1e-9 * max(length, 1.0)
    bad = ~((s >= -tol) & (s <= length + tol))     # NaN compares false
    if bad.any():
        raise ValueError(f"arc length {s[bad][0]} outside [0, {length}]")
    return np.clip(s, 0.0, length)


def _polish_stationarity(curve: ParamCurve, x: Vec3, xi: float) -> float:
    a, b = curve.xi0, curve.xi1
    for _ in range(40):
        r = curve.point(xi)
        r1 = curve.d1(xi)
        g = float((x - r) @ r1)
        dist = float(np.linalg.norm(x - r))
        if abs(g) <= 1e-14 * max(dist * np.linalg.norm(r1), 1e-30):
            break
        gp = -float(r1 @ r1) + float((x - r) @ curve.d2(xi))
        if gp == 0.0:
            break
        step = xi - g / gp
        if not a <= step <= b:
            break
        if abs(step - xi) < 1e-16 * max(abs(xi), 1.0):
            xi = step
            break
        xi = step
    return xi
