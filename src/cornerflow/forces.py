"""Contour forces: Blasius integral, Kutta-Joukowsky lift, zero drag.

Blasius' theorem gives the pressure force on the body as

    F_x - i F_y = (i rho / 2) * oint w^2 dz

over any counterclockwise fluid contour enclosing it.  Decomposed along
and across the free stream this yields zero drag (d'Alembert) and lift
-rho * |w_inf| * Gamma; positive lift points upward for a rightward
stream, produced by negative (clockwise) circulation.  The sign is fixed
once by the circle residue: w^2 has residue 2 w_inf Gamma / (2 pi i), so
F_x - i F_y = i rho w_inf Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FluidDomainError
from .geometry import CircleContour


@dataclass(frozen=True)
class ForceResult:
    """Force on the body decomposed relative to the free stream."""

    drag: float
    lift: float
    quadrature_error: float

    sign_convention = ("lift positive along the +90deg rotation of the "
                       "free-stream direction (upward for rightward flow)")


def blasius_force(flow, contour: CircleContour) -> ForceResult:
    """Evaluate the Blasius integral by contour quadrature at rho = 1.

    The trapezoid rule on a circle nests: the contour with twice the
    samples holds this one's nodes as its even nodes, at half their
    weights, to the bit.  So the flow is evaluated once, on the refined
    nodes; the coarse sum reads the even ones at twice the weight, and
    the quadrature error is the Richardson difference of the two sums.
    """
    if not contour.clears_body(flow.body):
        raise FluidDomainError("contour touches the body")
    z, dz = CircleContour(contour.center, contour.radius,
                          2 * contour.n_samples).quadrature()
    f = np.asarray(flow.velocity(z))**2 * dz
    coarse = 1j * np.sum(f[::2])
    fine = 0.5j * np.sum(f)
    err = abs(fine - coarse)
    fx, fy = float(np.real(fine)), float(-np.imag(fine))
    e = flow.far.flow_direction  # unit vector, as complex
    drag = fx * e.real + fy * e.imag
    lift = -fx * e.imag + fy * e.real
    return ForceResult(drag=float(drag), lift=float(lift),
                       quadrature_error=float(err))


def kutta_joukowsky_lift(w_inf: complex, gamma: float) -> float:
    """L = -rho * |w_inf| * Gamma at rho = 1 (magnitude |w_inf| |Gamma|);
    matches the Blasius circle oracle's sign convention."""
    return float(-abs(w_inf) * gamma)
