"""Blasius contour force and Kutta-Joukowsky lift."""

import numpy as np
import pytest

from cornerflow.forces import blasius_force, kutta_joukowsky_lift
from cornerflow.geometry import Circle, CircleContour, FlatPlate
from cornerflow.incompressible import FarField, exact_flow, panel_solve

TWO_PI = 2 * np.pi


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
        alpha = np.pi / 6
        gstar = exact_flow(FlatPlate(4.0, alpha), FarField(1.0, 0.0)).kutta_circulation(0)
        sol = panel_solve(FlatPlate(4.0, alpha), FarField(1.0, gstar), 256)
        f = blasius_force(sol.flow, CircleContour(0j, 6.0, 1024))
        kj = kutta_joukowsky_lift(1.0, gstar)
        assert f.lift == pytest.approx(kj, rel=0.01)
        assert f.lift > 0  # negative circulation lifts upward
        assert abs(f.drag) < 1e-3 * abs(kj)

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
