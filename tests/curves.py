"""The sample curves that the geometry tests and criterion 7's oracle tests
share: a quarter circle, one turn of a unit helix and a six-piece spline."""
import numpy as np

from cartbeam.geometry import CircularArc, Helix, HermiteSpline


def quarter_circle(radius=1.0):
    return CircularArc([0, 0, 0], radius, [1, 0, 0], [0, 1, 0], 0.0, np.pi / 2)


def unit_helix():
    return Helix([0, 0, 0], 1.0, 1.0, [1, 0, 0], [0, 1, 0], 0.0, 2 * np.pi)


def sample_spline():
    y = np.linspace(0.0, 4.0, 7)
    pts = np.column_stack([0.5 * np.sin(np.pi * y / 2.0), y, 0.1 * y**2])
    return HermiteSpline(pts, [0.7, 0.6, 0.0], [0.5, 0.7, 0.4])
