"""Material and cross-section properties.

A cross-section enters the beam equations only through its area |A|, the
tensor of area moments of inertia I_sigma (built pointwise from the local
tangent), and the polar inertia J_sigma = integral of zeta . zeta over the
section. Isotropic sections (circles, and the unit-depth rectangle used by
the planar benchmarks) need no orientation data; rectangles carry a
reference director that fixes how the principal moments sit in the normal
plane.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Vec3, normal_projector, orthonormal_completion, unit


class DirectorDegeneracyError(ValueError):
    """Section director is (numerically) parallel to the tangent."""


@dataclass(frozen=True)
class Material:
    """Linear elastic material; construct from (E, nu) or (E, G), and the
    other of nu and G follows from G = E / (2 (1 + nu)). Both may be given
    if they satisfy it to 1e-9 relative: the beam reads G, the straight
    cantilever reference reads nu. nu must exceed -1.

    No shear correction factor is applied anywhere: the shear and torsion
    stiffnesses use G|A| and G J_sigma as they stand.
    """

    E: float
    G: float = None  # type: ignore[assignment]
    nu: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.E, self.G, self.nu) if v is not None):
            raise ValueError("material constants E, G and nu must be finite")
        if self.E is None or self.E <= 0:
            raise ValueError("elastic modulus E must be positive")
        if self.nu is not None:
            if self.nu <= -1.0:
                raise ValueError(f"Poisson ratio nu must exceed -1, got {self.nu!r}")
            G_nu = self.E / (2.0 * (1.0 + self.nu))
            if self.G is None:
                object.__setattr__(self, "G", G_nu)
            elif abs(self.G - G_nu) > 1e-9 * G_nu:
                raise ValueError(f"G = {self.G!r} and nu = {self.nu!r} disagree: "
                                 f"E / (2 (1 + nu)) = {G_nu!r}")
        if self.G is None:
            raise ValueError("provide either G or nu")
        if self.G <= 0:
            raise ValueError("shear modulus G must be positive")
        if self.nu is None:
            object.__setattr__(self, "nu", self.E / (2.0 * self.G) - 1.0)


@dataclass(frozen=True)
class CrossSection:
    """Section properties: area, polar inertia, and bending inertia data.

    Exactly one of `inertia_iso` (isotropic: I_sigma = I Q) or
    `inertia_principal = (I1, I2)` (oriented; requires `director`) is set.
    For an oriented rectangle the director points along the side of extent h,
    so I1 = w h^3 / 12 resists bending about the axis perpendicular to both
    the tangent and the director.
    """

    area: float
    polar: float
    inertia_iso: float | None = None
    inertia_principal: tuple[float, float] | None = None
    director: Vec3 | None = None

    def __post_init__(self):
        numbers = [self.area, self.polar, self.inertia_iso, self.inertia_principal, self.director]
        if not all(np.isfinite(v).all() for v in numbers if v is not None):
            raise ValueError("section properties must be finite")
        if self.area <= 0 or self.polar <= 0:
            raise ValueError("area and polar inertia must be positive")
        if (self.inertia_iso is None) == (self.inertia_principal is None):
            raise ValueError("set exactly one of inertia_iso / inertia_principal")
        if self.inertia_iso is not None and self.inertia_iso <= 0:
            raise ValueError("inertia must be positive")
        if self.inertia_principal is not None:
            i1, i2 = self.inertia_principal
            if i1 <= 0 or i2 <= 0:
                raise ValueError("principal inertias must be positive")
            if self.director is None:
                raise ValueError("oriented section requires a director")
            object.__setattr__(self, "director", unit(np.asarray(self.director, float)))

    @property
    def is_isotropic(self) -> bool:
        return self.inertia_iso is not None


def rect_section(w: float, h: float, director) -> CrossSection:
    """Rectangle w x h: I1 = w h^3/12, I2 = w^3 h/12, J = (w h^3 + w^3 h)/12."""
    if w <= 0 or h <= 0:
        raise ValueError("rectangle sides must be positive")
    return CrossSection(
        area=w * h,
        polar=(w * h**3 + w**3 * h) / 12.0,
        inertia_principal=(w * h**3 / 12.0, w**3 * h / 12.0),
        director=np.asarray(director, float),
    )


def circle_section(d: float) -> CrossSection:
    """Solid circle of diameter d: A = pi d^2/4, I = pi d^4/64, J = pi d^4/32."""
    if d <= 0:
        raise ValueError("circle diameter must be positive")
    return CrossSection(area=np.pi * d**2 / 4.0, polar=np.pi * d**4 / 32.0,
                        inertia_iso=np.pi * d**4 / 64.0)


def unit_depth_rect_section(t: float) -> CrossSection:
    """Unit-depth rectangle of thickness t, modeled as isotropic.

    A = t and I = t^3/12 match the plane benchmark formulas; the polar value
    is 2I so the isotropic inertia-tensor trace identity holds. Twist never
    activates in the planar problems this shape exists for.
    """
    if t <= 0:
        raise ValueError("thickness must be positive")
    i = t**3 / 12.0
    return CrossSection(area=t, polar=2.0 * i, inertia_iso=i)


def inertia_tensor(section: CrossSection, t: Vec3) -> np.ndarray:
    """Area-moment tensor I_sigma at a point with unit tangent t.

    Isotropic: I_sigma = I (I3 - t (x) t). Oriented: I_sigma = C^T C with C
    from `inertia_factor`, that is I1 n2 (x) n2 + I2 n1 (x) n1. Always
    I_sigma t = 0. Tangents of shape (..., 3) give tensors (..., 3, 3).
    """
    t = np.asarray(t, dtype=float)
    if section.inertia_iso is not None:
        return section.inertia_iso * normal_projector(t)
    C = inertia_factor(section, t)
    return np.swapaxes(C, -1, -2) @ C


def inertia_factor(section: CrossSection, t: Vec3, N: np.ndarray | None = None) -> np.ndarray:
    """Matrix C with C.T @ C = I_sigma(t); used for exactly symmetric assembly.

    Isotropic: C = sqrt(I) N, N the orthonormal pair of the normal plane
    (`orthonormal_completion`, unless given). Oriented: the constant director is
    projected onto the normal plane, n1 = normalized projection, n2 = t x n1,
    and C has rows sqrt(I1) n2 and sqrt(I2) n1. Either way C has 2 rows.
    Tangents of shape (..., 3) give one C per tangent, (..., 2, 3); a
    director parallel to any of them raises DirectorDegeneracyError.
    """
    t = np.asarray(t, dtype=float)
    if section.inertia_iso is not None:
        return np.sqrt(section.inertia_iso) * (orthonormal_completion(t) if N is None else N)
    d = section.director
    dp = d - (t @ d)[..., None] * t
    ndp = np.linalg.norm(dp, axis=-1, keepdims=True)
    if np.any(ndp < 1e-6):
        raise DirectorDegeneracyError("section director is parallel to the tangent")
    n1 = dp / ndp
    n2 = np.cross(t, n1)
    i1, i2 = section.inertia_principal
    return np.stack([np.sqrt(i1) * n2, np.sqrt(i2) * n1], axis=-2)
