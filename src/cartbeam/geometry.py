"""Beam midline geometry in global Cartesian coordinates.

Curves are described by a regular parametrization r(xi) and queried by arc
length s. The solve path only ever needs position, unit tangent t, and the
curvature vector kappa = dt/ds, all pointwise, so the one evaluation path is
the batch query `frames(s)`: it takes an array of arc lengths, inverts the
arc-length map for all of them at once, and returns x, t and kappa with a
leading sample axis. `frame(s)` is its one-row case. Curve evaluation
(`point`, `d1`, `d2`, `speed`) and the arc-length map accept scalars or
arrays alike, and refuse a parameter off the curve's range. A spline's
arc-length map is a polynomial on each of a set of parameter intervals,
none of which straddles a knot, where the curvature jumps. No normal
direction is defined: the formulation reads only t, and a principal normal
would be undefined wherever kappa vanishes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Vec3 = np.ndarray


class DegenerateCurveError(ValueError):
    """The parametrization has (numerically) vanishing speed somewhere."""


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


class ParamCurve:
    """Base class for regular parametric midlines r(xi), xi in [xi0, xi1].

    `point`, `d1` and `d2` take a scalar xi or an array of them and return
    shape xi.shape + (3,). They follow `_clip_onto`'s rule: an xi that is
    not finite or lies off [xi0, xi1] by more than its slack raises
    ValueError, one within the slack is clipped onto it. A subclass gives
    them as `_point`, `_d1` and `_d2`, which take xi on [xi0, xi1]
    unchecked, as `frames` and the arc-length map pass it.
    """

    kind: str = "abstract"
    xi0: float
    xi1: float

    def _on_range(self, xi) -> np.ndarray:
        return _clip_onto(np.asarray(xi, dtype=float), self.xi0, self.xi1, "curve parameter")

    def point(self, xi) -> Vec3:
        return self._point(self._on_range(xi))

    def d1(self, xi) -> Vec3:
        return self._d1(self._on_range(xi))

    def d2(self, xi) -> Vec3:
        return self._d2(self._on_range(xi))

    def _point(self, xi) -> Vec3:
        raise NotImplementedError

    def _d1(self, xi) -> Vec3:
        raise NotImplementedError

    def _d2(self, xi) -> Vec3:
        raise NotImplementedError

    @property
    def constant_speed(self) -> float | None:
        """|dr/dxi| when it is constant along the curve, else None."""
        return None

    @property
    def breaks(self) -> np.ndarray:
        """The parameters where the curvature may jump, both ends included."""
        return np.array([self.xi0, self.xi1])

    def speed(self, xi):
        return self._speed(self._on_range(xi))

    def _speed(self, xi):
        return np.linalg.norm(self._d1(xi), axis=-1)

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
        xi = self.arclength()._xi_of_clipped(s)
        r1 = self._d1(xi)
        r2 = self._d2(xi)
        sp2 = np.einsum("ij,ij->i", r1, r1)[:, None]
        if np.any(sp2 < _SPEED_FLOOR**2):
            raise DegenerateCurveError("vanishing speed at evaluation point")
        t = r1 / np.sqrt(sp2)
        kappa = (r2 * sp2 - r1 * np.einsum("ij,ij->i", r1, r2)[:, None]) / sp2**2
        return FrameSample(s=s, x=self._point(xi), t=t, kappa=kappa)

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

    def _point(self, xi):
        return self.p0 + np.multiply.outer(xi, self.p1 - self.p0)

    def _d1(self, xi):
        return np.zeros(np.shape(xi) + (3,)) + (self.p1 - self.p0)

    def _d2(self, xi):
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

    def _point(self, xi):
        return self.center + self.radius * self._combine(np.cos(xi), np.sin(xi))

    def _d1(self, xi):
        return self.radius * self._combine(-np.sin(xi), np.cos(xi))

    def _d2(self, xi):
        return -self.radius * self._combine(np.cos(xi), np.sin(xi))

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

    def _point(self, xi):
        a, b = self.radius, self.pitch
        return self.center + self._combine(a * np.cos(xi), a * np.sin(xi), b * np.asarray(xi))

    def _d1(self, xi):
        a, b = self.radius, self.pitch
        return self._combine(-a * np.sin(xi), a * np.cos(xi), np.full(np.shape(xi), b))

    def _d2(self, xi):
        a = self.radius
        return self._combine(-a * np.cos(xi), -a * np.sin(xi))

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
        for name in ("t_start", "t_end"):
            t = np.asarray(getattr(self, name), dtype=float)
            if t.shape != (3,):
                raise ValueError(f"spline {name} must be a 3-vector, got shape {t.shape}")
            setattr(self, name, t)
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
        speeds = np.linalg.norm(np.concatenate([self._d1(grid), self.tangents]), axis=-1)
        if speeds.min() < _SPEED_FLOOR:
            raise DegenerateCurveError("spline parametrization has vanishing speed")

    @property
    def breaks(self) -> np.ndarray:
        """The knots xi = 0, 1, ..., n_pieces."""
        return np.arange(len(self.points), dtype=float)

    def _piece(self, xi) -> tuple[np.ndarray, np.ndarray]:
        """Piece index and local coordinate u in [0, 1] of each xi."""
        xi = np.asarray(xi, dtype=float)
        i = np.clip(np.floor(xi), 0, len(self.points) - 2).astype(int)
        return i, xi - i

    def _point(self, xi):
        i, u = self._piece(xi)
        c, u = self._coef[i], u[..., None]
        return ((c[..., 3, :] * u + c[..., 2, :]) * u + c[..., 1, :]) * u + c[..., 0, :]

    def _d1(self, xi):
        i, u = self._piece(xi)
        c, u = self._coef[i], u[..., None]
        return (3 * c[..., 3, :] * u + 2 * c[..., 2, :]) * u + c[..., 1, :]

    def _d2(self, xi):
        i, u = self._piece(xi)
        return 6 * self._coef[i, 3] * u[..., None] + 2 * self._coef[i, 2]


_GL10_X, _GL10_W = np.polynomial.legendre.leggauss(10)
# f @ _GL10_S: the 11 power-basis coefficients, in x in [-1, 1], of the
# integral from -1 to x of the degree-9 interpolant p of values f at the 10
# Gauss-Legendre nodes. p's Legendre coefficients follow from the rule's
# discrete orthogonality, which is better conditioned than a Vandermonde
# solve; column k of _P2POW holds P_k in powers, by Bonnet's recurrence.
_P2POW = np.eye(11)
for _k in range(1, 10):
    _P2POW[:, _k + 1] = ((2 * _k + 1) * np.roll(_P2POW[:, _k], 1) - _k * _P2POW[:, _k - 1]) / (_k + 1)
_GL10_S = np.polynomial.legendre.legint(
    _GL10_W[:, None] * np.polynomial.legendre.legvander(_GL10_X, 9) * (np.arange(10) + 0.5),
    lbnd=-1, axis=1) @ _P2POW.T


def _scalar_or_array(v: np.ndarray):
    return float(v) if v.ndim == 0 else v


def _interval(table: np.ndarray, v) -> np.ndarray:
    """Index i of the table interval [table[i], table[i + 1]] holding each v."""
    return np.clip(np.searchsorted(table, v, side="right") - 1, 0, len(table) - 2)


_TABLE_SAMPLES = 257      # grid points of the arc-length table of a one-piece curve


class ArcLengthMap:
    """Monotone bijection between the curve parameter xi and arc length s.

    Constant-speed kinds (line, arc, helix) use the closed-form map. A
    spline splits each piece between its `breaks` into ceil(256 / n_pieces)
    equal intervals. On each, s(xi) is the integral of the degree-9
    interpolant p of |dr/dxi| at 10 Gauss-Legendre nodes, a polynomial; an
    interval whose p misses |dr/dxi| at an end by more than 1e-11 of the top
    speed is bisected, for up to 40 rounds. Inversion takes safeguarded
    Newton steps on these polynomials. Both directions take a scalar or an
    array, return its shape, and clip entries by `clip_arc_lengths`'s rule.
    """

    def __init__(self, curve: ParamCurve):
        # no reference back to the curve, which keeps this map: the cycle would
        # hold both tables until a full garbage collection
        self.xi0, self.xi1 = curve.xi0, curve.xi1
        self._const = curve.constant_speed
        if self._const is not None:
            if self._const < _SPEED_FLOOR:
                raise DegenerateCurveError(f"curve speed {self._const:.3e} below {_SPEED_FLOOR}")
            self.length = float((self.xi1 - self.xi0) * self._const)
            return
        b = curve.breaks
        per_piece = -(-(_TABLE_SAMPLES - 1) // (len(b) - 1))
        grid = np.append(np.linspace(b[:-1], b[1:], per_piece, endpoint=False, axis=1).ravel(),
                         b[-1])
        for _ in range(40):
            speeds = curve._speed(grid)
            if speeds.min() < _SPEED_FLOOR:
                raise DegenerateCurveError(
                    f"curve speed {speeds.min():.3e} below {_SPEED_FLOOR} at a sample point"
                )
            half = 0.5 * np.diff(grid)
            mid = grid[:-1] + half
            S = half[:, None] * (curve._speed(mid[:, None] + half[:, None] * _GL10_X) @ _GL10_S)
            dS = S[:, 1:] * (np.arange(1, 11) / half[:, None])        # p = ds/dxi
            miss = np.maximum(np.abs(dS @ (-1.0) ** np.arange(10) - speeds[:-1]),
                              np.abs(dS.sum(axis=1) - speeds[1:]))
            bad = miss > 1e-11 * speeds.max()
            if not bad.any():
                cum = np.concatenate([[0.0], np.cumsum(S.sum(axis=1))])
                self._mid, self._half, self._S, self._dS = mid, half, S, dS
                break
            grid = np.sort(np.append(grid, mid[bad]))
        else:
            raise DegenerateCurveError(
                f"|dr/dxi| fit still off by {miss.max():.3e} after 40 bisection rounds"
            )
        self._grid = grid
        self._cum = cum
        self._speeds = speeds
        self.length = float(cum[-1])

    def _poly(self, i: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """s and ds/dxi at the 1-d xi from the polynomials of intervals i."""
        pw = np.vander((xi - self._mid[i]) / self._half[i], 11, increasing=True)
        return (self._cum[i] + np.einsum("ij,ij->i", self._S[i], pw),
                np.einsum("ij,ij->i", self._dS[i], pw[:, :-1]))

    def s_of_xi(self, xi):
        xi = _clip_onto(np.asarray(xi, dtype=float), self.xi0, self.xi1, "curve parameter")
        if self._const is not None:
            return _scalar_or_array((xi - self.xi0) * self._const)
        flat = xi.ravel()
        return _scalar_or_array(self._poly(_interval(self._grid, flat), flat)[0]
                                .reshape(xi.shape))

    def xi_of_s(self, s):
        """xi(s) for every entry of s at once, by `_xi_of_clipped`."""
        s = clip_arc_lengths(np.asarray(s, dtype=float), self.length)
        return _scalar_or_array(self._xi_of_clipped(s))

    def _xi_of_clipped(self, s: np.ndarray) -> np.ndarray:
        """Invert s(xi) for every entry of s, already clipped onto [0, L].

        Each entry starts from the cubic Hermite interpolant of xi(s) on its
        table interval (slopes 1 / speed at the grid), clipped into that
        interval, which also brackets the root. It then takes safeguarded
        Newton steps on that interval's polynomial (bisection when a step
        leaves the bracket) until |s(xi) - s| is at most 1e-13 max(L, 1), or
        60 steps. A converged entry is frozen and drops out of the remaining
        steps.
        """
        if self._const is not None:
            return self.xi0 + s / self._const
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
            s_live, speed = self._poly(i[live], xi[live])
            err = s_live - flat[live]
            pending = np.abs(err) > tol
            live, err, speed = live[pending], err[pending], speed[pending]
            if live.size == 0:
                break
            x = xi[live]
            above = err > 0
            hi[live[above]] = x[above]
            lo[live[~above]] = x[~above]
            step = x - err / speed
            inside = (lo[live] < step) & (step < hi[live])
            xi[live] = np.where(inside, step, 0.5 * (lo[live] + hi[live]))
        return xi.reshape(s.shape)


def _clip_onto(v: np.ndarray, lo: float, hi: float, what: str) -> np.ndarray:
    """v clipped onto [lo, hi]; ValueError, naming the first, where an entry
    is not finite or lies off by more than 1e-9 max(hi - lo, 1)."""
    tol = 1e-9 * max(hi - lo, 1.0)
    bad = ~((v >= lo - tol) & (v <= hi + tol))     # NaN compares false
    if bad.any():
        raise ValueError(f"{what} {v[bad][0]} outside [{lo}, {hi}]")
    return np.clip(v, lo, hi)


def clip_arc_lengths(s: np.ndarray, length: float) -> np.ndarray:
    """The arc lengths s clipped onto [0, length] by `_clip_onto`'s rule."""
    return _clip_onto(s, 0, length, "arc length")
