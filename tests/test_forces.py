"""Blasius contour force and Kutta-Joukowsky lift."""

from dataclasses import astuple

import numpy as np
import pytest

from cornerflow.errors import FluidDomainError
from cornerflow.forces import ForceResult, blasius_force, kutta_joukowsky_lift
from cornerflow.geometry import Circle, CircleContour, FlatPlate
from cornerflow.incompressible import FarField, exact_flow, panel_solve
from oracles import kutta_circulation

TWO_PI = 2 * np.pi


def kutta_plate_flow():
    alpha = np.pi / 6
    gstar = kutta_circulation(exact_flow(FlatPlate(4.0, alpha), FarField(1.0, 0.0)), 0)
    return panel_solve(FlatPlate(4.0, alpha), FarField(1.0, gstar), 256).flow


# every flow and contour the tests below integrate over
FLOWS_AND_CONTOURS = {
    "circle_gamma_0": (lambda: exact_flow(Circle(1.0), FarField(1.0, 0.0)),
                       CircleContour(0j, 2.0, 1024)),
    "circle_gamma_2pi": (lambda: exact_flow(Circle(1.0), FarField(1.0, TWO_PI)),
                         CircleContour(0j, 2.0, 1024)),
    "circle_gamma_3_r2": (lambda: exact_flow(Circle(1.0), FarField(1.0, 3.0)),
                          CircleContour(0j, 2.0, 1024)),
    "circle_gamma_3_r5": (lambda: exact_flow(Circle(1.0), FarField(1.0, 3.0)),
                          CircleContour(0j, 5.0, 1024)),
    "circle_gamma_3_n512": (lambda: exact_flow(Circle(1.0), FarField(1.0, 3.0)),
                            CircleContour(0j, 2.0, 512)),
    "circle_gamma_-4": (lambda: exact_flow(Circle(1.0), FarField(1.0, -4.0)),
                        CircleContour(0j, 2.0, 1024)),
    "panel_kutta_plate": (kutta_plate_flow, CircleContour(0j, 6.0, 1024)),
    "panel_circle": (lambda: panel_solve(Circle(1.0), FarField(1.0, 2.0), 256).flow,
                     CircleContour(0j, 3.0, 1024)),
}


def two_evaluation_force(flow, contour):
    """The force with the contour and its refinement evaluated apart."""
    def integral(n):
        z, dz = CircleContour(contour.center, contour.radius, n).quadrature()
        return 0.5j * np.sum(np.asarray(flow.velocity(z))**2 * dz)

    coarse, fine = integral(contour.n_samples), integral(2 * contour.n_samples)
    fx, fy = float(np.real(fine)), float(-np.imag(fine))
    e = flow.far.flow_direction
    return ForceResult(drag=float(fx * e.real + fy * e.imag),
                       lift=float(-fx * e.imag + fy * e.real),
                       quadrature_error=float(abs(fine - coarse)))


@pytest.mark.parametrize("case", FLOWS_AND_CONTOURS)
def test_one_evaluation_keeps_the_two_evaluation_bits(case, monkeypatch):
    # the refined contour's even nodes are the contour's own, at half
    # their weights to the bit, so one evaluation gives both sums
    make_flow, contour = FLOWS_AND_CONTOURS[case]
    flow = make_flow()
    want = two_evaluation_force(flow, contour)
    calls = []
    velocity = type(flow).velocity

    def spy(self, z):
        calls.append(np.shape(z))
        return velocity(self, z)

    monkeypatch.setattr(type(flow), "velocity", spy)
    got = blasius_force(flow, contour)
    assert calls == [(2 * contour.n_samples,)]
    assert [x.hex() for x in astuple(got)] == [x.hex() for x in astuple(want)]


class TestBlasius:
    def test_dalembert_symmetric_circle(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, 0.0))
        f = blasius_force(flow, CircleContour(0j, 2.0, 1024))
        assert abs(f.drag) < 1e-9
        assert abs(f.lift) < 1e-9

    def test_circle_with_circulation_residue(self):
        # residue of w^2: 2 w_inf Gamma/(2 pi i)  =>  F_x - i F_y = i rho w Gamma
        flow = exact_flow(Circle(1.0), FarField(1.0, TWO_PI))
        f = blasius_force(flow, CircleContour(0j, 2.0, 1024))
        assert abs(f.lift) == pytest.approx(TWO_PI, rel=1e-10)
        assert f.lift == pytest.approx(-TWO_PI, rel=1e-10)  # positive Gamma pushes down
        assert abs(f.drag) < 1e-9

    def test_contour_independence(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, 3.0))
        f2 = blasius_force(flow, CircleContour(0j, 2.0, 1024))
        f5 = blasius_force(flow, CircleContour(0j, 5.0, 1024))
        assert f2.lift == pytest.approx(f5.lift, abs=1e-9)
        assert f2.drag == pytest.approx(f5.drag, abs=1e-9)

    def test_quadrature_error_estimate(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, 3.0))
        f = blasius_force(flow, CircleContour(0j, 2.0, 512))
        assert f.quadrature_error < 1e-9

    def test_kutta_plate_lift_matches_kj(self):
        flow = kutta_plate_flow()
        f = blasius_force(flow, CircleContour(0j, 6.0, 1024))
        kj = kutta_joukowsky_lift(1.0, flow.far.circulation)
        assert f.lift == pytest.approx(kj, rel=0.01)
        assert f.lift > 0  # negative circulation lifts upward
        assert abs(f.drag) < 1e-3 * abs(kj)

    def test_contour_must_clear_the_body(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, 0.0))
        with pytest.raises(FluidDomainError, match="contour touches the body"):
            blasius_force(flow, CircleContour(0j, 1.0, 64))

    def test_dalembert_converged_panel(self):
        sol = panel_solve(Circle(1.0), FarField(1.0, 2.0), 256)
        f = blasius_force(sol.flow, CircleContour(0j, 3.0, 1024))
        assert abs(f.drag) / (1.0 * 1.0 * 2.0) < 1e-3


class TestKuttaJoukowsky:
    def test_zero_circulation(self):
        assert kutta_joukowsky_lift(1.0, 0.0) == 0.0

    def test_magnitude(self):
        assert abs(kutta_joukowsky_lift(1.0, TWO_PI)) == pytest.approx(TWO_PI)

    def test_bilinear_scaling(self):
        # |w_inf| Gamma at the package's fixed density, rho = 1
        l1 = kutta_joukowsky_lift(1.0, 3.0)
        l2 = kutta_joukowsky_lift(2.0, 1.5)
        assert l1 == pytest.approx(l2, rel=1e-15)

    def test_sign_matches_blasius_oracle(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, -4.0))
        f = blasius_force(flow, CircleContour(0j, 2.0, 1024))
        assert f.lift == pytest.approx(kutta_joukowsky_lift(1.0, -4.0),
                                       rel=1e-9)
