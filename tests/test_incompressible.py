"""Exact-flow formulas, panel solves, and the Kutta condition."""

import dataclasses
import itertools
import json
import math
import sys
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from cornerflow.analysis import contour_integral
from cornerflow.cli import KEYS, run
from cornerflow import incompressible
from cornerflow.errors import FluidDomainError, InvalidGeometryError, SolverError
from cornerflow.geometry import (Circle, CircleContour, FlatPlate, Polygon,
                                 probe_ring)
from cornerflow.incompressible import (KAPPA, TOL_SLIP, FarField, MappedFlow,
                                       corner_census, exact_flow, kutta_solve,
                                       panel_solve)
from oracles import affine_corner, kutta_circulation, regular_polygon_roots

TWO_PI = 2 * np.pi
TRIANGLE = Polygon([(1.0, 0.0), (-0.5, np.sqrt(3) / 2), (-0.5, -np.sqrt(3) / 2)])
SQUARE = Polygon([(0.5, -0.5), (0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5)])
HEXAGON = Polygon([(np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)) for k in range(6)])
# asymmetric: its dropped tangency row misses TOL_SLIP
SCALENE = Polygon([(0.0, 0.0), (2.0, 0.0), (0.5, 1.2)])


class TestCircleFlow:
    def test_stagnation_point(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, 0.0))
        assert flow.velocity(1.0 + 0j) == pytest.approx(0.0, abs=1e-15)

    def test_top_of_circle(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, 0.0))
        assert flow.velocity(1j) == pytest.approx(2.0 + 0j, abs=1e-15)

    def test_far_field_limit(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, 0.0))
        assert abs(flow.velocity(1e6 + 0j) - 1.0) < 1e-11

    def test_slip_on_boundary(self):
        flow = exact_flow(Circle(1.5), FarField(1.0, 3.0))
        th = TWO_PI * (np.arange(32) + 0.37) / 32
        psi = flow.stream(1.5 * np.exp(1j * th))
        assert np.max(np.abs(psi)) < 1e-10

    def test_rejects_interior_point(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, 0.0))
        with pytest.raises(FluidDomainError):
            flow.velocity(0.2 + 0.1j)

    def test_potential_loop_increment_matches_circulation(self):
        # the increment of W over one loop is circulation + i * mass flux
        flow = exact_flow(Circle(1.0), FarField(1.0, TWO_PI))
        contour = CircleContour(0j, 2.0, 2048)
        assert float(contour_integral(flow, contour).real) == pytest.approx(TWO_PI, abs=1e-10)
        assert contour_integral(flow, contour).imag == pytest.approx(0.0, abs=1e-10)

    def test_zero_circulation_single_valued(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, 0.0))
        contour = CircleContour(0j, 3.0, 2048)
        assert abs(contour_integral(flow, contour)) < 1e-11


class TestPlateFlow:
    def test_horizontal_plate_is_uniform(self):
        flow = exact_flow(FlatPlate(4.0, 0.0), FarField(1.0, 0.0))
        z = np.array([3j, -2 + 1j, 5 - 4j, 0.5 + 0.01j])
        assert np.max(np.abs(flow.velocity(z) - 1.0)) < 1e-12

    def test_slip_on_plate(self):
        flow = exact_flow(FlatPlate(4.0, np.pi / 6), FarField(1.0, 1.3))
        t = np.linspace(-0.49, 0.49, 17)
        z = t * 4.0 * np.exp(-1j * np.pi / 6) + 1e-9j * np.exp(-1j * np.pi / 6)
        assert np.max(np.abs(flow.stream(z))) < 1e-7

    def test_kutta_circulation_formula(self):
        # trailing-edge root for real w_inf: -pi * chord * w * sin(alpha)
        for alpha in (np.deg2rad(10), np.deg2rad(30)):
            flow = exact_flow(FlatPlate(4.0, alpha), FarField(1.0, 0.0))
            assert kutta_circulation(flow, 0) == pytest.approx(
                -np.pi * 4.0 * np.sin(alpha), rel=1e-12)

    def test_kutta_root_gives_bounded_trailing_edge(self):
        alpha = np.pi / 6
        gstar = kutta_circulation(exact_flow(FlatPlate(4.0, alpha), FarField(1.0, 0.0)), 0)
        flow = exact_flow(FlatPlate(4.0, alpha), FarField(1.0, gstar))
        te = flow.body.trailing_edge
        d = np.exp(1j * (np.pi / 2 - alpha))
        speeds = [abs(flow.velocity(te + eps * d)) for eps in (1e-3, 1e-5, 1e-7)]
        assert max(speeds) < 2.0  # bounded; w -> w_inf cos(alpha) in the limit
        assert speeds[-1] == pytest.approx(np.cos(alpha), rel=1e-3)

    def test_unregularized_edges_diverge_with_half_power(self):
        # log-log slope oracle for the exponent pi/beta - 1 = -1/2
        alpha = np.pi / 6
        flow = exact_flow(FlatPlate(4.0, alpha), FarField(1.0, 0.0))
        body = flow.body
        for corner in body.corners:
            radii = np.geomspace(1e-6, 1e-4, 5)
            pts = probe_ring(corner, radii, 16)
            speeds = np.max(np.abs(flow.velocity(pts)), axis=1)
            slope = np.polyfit(np.log(radii), np.log(speeds), 1)[0]
            assert slope == pytest.approx(-0.5, abs=0.01)

    def test_rejects_on_slit_velocity(self):
        flow = exact_flow(FlatPlate(4.0, 0.0), FarField(1.0, 0.0))
        with pytest.raises(FluidDomainError):
            flow.velocity(0.5 + 0j)

    def test_leading_edge_root(self):
        # U' = 0 at sigma = -1: +pi * chord * w * sin(alpha)
        alpha, w = np.deg2rad(25), 1.7
        flow = exact_flow(FlatPlate(3.0, alpha), FarField(w, 0.0))
        assert kutta_circulation(flow, 1) == pytest.approx(
            np.pi * 3.0 * w * np.sin(alpha), rel=1e-12)

    def test_roots_invariant_under_rotating_plate_and_stream(self):
        # turning the plate and the velocity vector by phi together:
        # alpha -> alpha - phi and w_inf -> w_inf exp(-i phi)
        chord, alpha, w = 2.5, np.deg2rad(20), 1.3
        base = exact_flow(FlatPlate(chord, alpha), FarField(w, 0.0))
        for phi in (0.4, -1.1, 2.9):
            turned = exact_flow(FlatPlate(chord, alpha - phi),
                                FarField(w * np.exp(-1j * phi), 0.0))
            for k in (0, 1):
                assert abs(kutta_circulation(turned, k) - kutta_circulation(base, k)) \
                    <= 1e-12 * w * chord

    @pytest.mark.parametrize("body, corner_id", [
        (FlatPlate(4.0, 0.3), 2), (FlatPlate(4.0, 0.3), 5),
        (FlatPlate(4.0, 0.3), -1), (Circle(1.0), 0)],
        ids=["plate-2", "plate-5", "plate-minus-1", "circle-0"])
    def test_kutta_circulation_needs_a_prevertex(self, body, corner_id):
        with pytest.raises(InvalidGeometryError):
            kutta_circulation(exact_flow(body, FarField(1.0, 0.0)), corner_id)
        with pytest.raises(InvalidGeometryError):
            kutta_solve(body, 1.0, corner_id, 256, "exact")


# ---------------------------------------------------------------------------
# MappedFlow against the z-plane closed forms, and its domain rules


def circle_reference(R, far, z):
    """(w, psi) of the flow around a circle of radius R, in z."""
    wi, gam = far.w_inf, far.circulation
    w = wi - np.conj(wi) * R**2 / z**2 + gam / (TWO_PI * 1j * z)
    psi = (np.imag(wi * z + np.conj(wi) * R**2 / z)
           - gam / TWO_PI * np.log(np.abs(z) / R))
    return w, psi


def plate_reference(chord, alpha, far, z):
    """(w, psi) of the flow around the plate slit, in z.  In the plate
    frame Z = z / d, d = exp(-i alpha), the slit is |X| <= a = chord / 2;
    with w_inf d = p - i q and s = sqrt(Z - a) sqrt(Z + a) (~ Z at
    infinity): w = (p - i q Z / s + Gamma / (2 pi i s)) / d and
    psi = Im(p Z - i q s) - Gamma / (2 pi) log|(Z + s) / a|."""
    d, a, gam = np.exp(-1j * alpha), 0.5 * chord, far.circulation
    Z = z / d
    s = np.sqrt(Z - a) * np.sqrt(Z + a)
    p, q = (far.w_inf * d).real, -(far.w_inf * d).imag
    w = (p - 1j * q * Z / s + gam / (TWO_PI * 1j * s)) / d
    psi = np.imag(p * Z - 1j * q * s) - gam / TWO_PI * np.log(np.abs((Z + s) / a))
    return w, psi


@pytest.mark.parametrize("body, reference", [
    (Circle(1.5), lambda far, z: circle_reference(1.5, far, z)),
    (FlatPlate(4.0, np.pi / 6), lambda far, z: plate_reference(4.0, np.pi / 6, far, z)),
    (FlatPlate(2.0, -1.0), lambda far, z: plate_reference(2.0, -1.0, far, z)),
], ids=["circle", "plate", "plate_negative_alpha"])
def test_mapped_flow_matches_z_plane_formulas(body, reference):
    rng = np.random.default_rng(7)
    R = body.circumradius
    # off the body: images of |sigma| in [1.05, 6] under the body's map
    sigma = rng.uniform(1.05, 6.0, 400) * np.exp(1j * rng.uniform(0, TWO_PI, 400))
    for far in (FarField(1.3 * np.exp(0.4j), 2.1), FarField(-0.7, -5.0)):
        flow = exact_flow(body, far)
        assert isinstance(flow, MappedFlow)
        z = flow.map.to_z(sigma)
        w_ref, psi_ref = reference(far, z)
        assert np.max(np.abs(flow.velocity(z) - w_ref)) <= 1e-13 * abs(far.w_inf)
        assert np.max(np.abs(flow.stream(z) - psi_ref)) <= 1e-13 * abs(far.w_inf) * R


@pytest.mark.parametrize("body", [Circle(1.5), FlatPlate(4.0, np.pi / 6)],
                         ids=["circle", "plate"])
def test_exact_flow_holds_the_body_it_was_built_on(body):
    flow = exact_flow(body, FarField(1.0, 0.5))
    assert flow.body is body
    assert flow.map is body.conformal_map


def test_circle_accepts_boundary_points_that_round_inside():
    flow = exact_flow(Circle(1.5), FarField(1.0, 2.0))
    z = 1.5 * np.exp(1j * TWO_PI * np.arange(4096) / 4096)
    assert np.count_nonzero(np.abs(z) < 1.5) > 0
    assert np.all(np.isfinite(flow.velocity(z)))
    assert np.max(np.abs(flow.stream(z))) < 1e-12


@pytest.mark.parametrize("z", [0.2 + 0.1j, 1.5 * (1 - 1e-9) * np.exp(0.3j),
                               np.array([3.0, 1.0j])])
def test_circle_rejects_interior_points(z):
    flow = exact_flow(Circle(1.5), FarField(1.0, 2.0))
    with pytest.raises(FluidDomainError):
        flow.velocity(z)
    with pytest.raises(FluidDomainError):
        flow.stream(z)


def test_plate_stream_accepts_slit_and_velocity_rejects_it():
    alpha = np.pi / 6
    flow = exact_flow(FlatPlate(4.0, alpha), FarField(1.0, 1.3))
    slit = np.linspace(-2.0, 2.0, 33) * np.exp(-1j * alpha)
    psi = flow.stream(slit)
    # psi = 0 on the slit, edges (where sigma = +-1 is a double root) included
    assert np.max(np.abs(psi)) < 1e-13
    for z in slit:
        with pytest.raises(FluidDomainError):
            flow.velocity(z)


@pytest.mark.parametrize("body", [
    Circle(1.5), FlatPlate(4.0, np.pi / 6), TRIANGLE,
    Polygon([(3, -2), (5, -2), (5, -1), (4, -1), (4, 0), (3, 0)])],
    ids=["circle", "plate", "triangle", "L-shape"])
def test_fluid_domain_guard_matches_the_unfiltered_check(body):
    # Polygon.contains runs its even-odd test only within R (1 + 1e-9) of
    # the centroid; its verdict must be that of the plain test over every
    # point, and PanelFlow._unit must refuse exactly what occupies does
    flow = incompressible.PanelFlow(body, FarField(1.0, 0.0), np.zeros(2),
                                    np.zeros(2), True)
    c, R = body.centroid, body.circumradius
    tol = 1e-12 * R
    ends = np.array([corner.vertex for corner in body.corners], dtype=complex)
    # polygon vertices and slit ends, each also moved by tol
    ends = np.concatenate(
        [ends, (ends[:, None] + tol * np.exp(1j * TWO_PI * np.arange(8) / 8)
                ).ravel()])
    u = np.random.default_rng(3).uniform(-1.5, 1.5, (2, 10000))
    sets = [ends, body.panel_nodes(256)[0], c + R * (u[0] + 1j * u[1])]
    sets += [np.asarray(z) for z in np.concatenate([ends, body.panel_nodes(16)[0]])]
    for z in sets:
        occupied = body.occupies(z, tol)
        assert np.all(np.abs(z[occupied] - c) <= R * (1 + 1e-9) + tol)
        if body.kind == "polygon":
            assert np.array_equal(body.contains(z), even_odd(body, z))
        if np.any(occupied):
            with pytest.raises(FluidDomainError):
                flow._unit(z)
        else:
            assert np.array_equal(flow._unit(z), (z - c) / R)
    assert np.any(body.occupies(sets[1], tol))
    # the same points about the body scaled by 2**+-600 get the unit body's
    # verdicts: contains and the segment distances of near work in
    # power-of-two frames (a squared length overflowed at 2**600 and
    # underflowed at 2**-600)
    for k in (600, -600):
        s = 2.0**k
        big = (Circle(s * body.radius) if body.kind == "circle"
               else FlatPlate(s * body.chord, body.alpha) if body.kind == "flat_plate"
               else Polygon([s * v for v in body.vertices]))
        for z in sets:
            assert np.array_equal(big.contains(s * z), body.contains(z))
            assert np.array_equal(big.occupies(s * z, s * tol), body.occupies(z, tol))
            for pad in (tol, 0.1 * R):
                assert np.array_equal(big.near(s * z, s * pad), body.near(z, pad))


def even_odd(polygon, z):
    """The even-odd point-in-polygon test on every point, unfiltered."""
    v = polygon.vertex_array
    w = np.roll(v, -1)
    x, y = z.real[..., None], z.imag[..., None]
    cond = (v.imag > y) != (w.imag > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = v.real + (y - v.imag) * (w.real - v.real) / (w.imag - v.imag)
    return np.sum(cond & (x < xi), axis=-1) % 2 == 1


@pytest.mark.parametrize("body", [Circle(1.0), FlatPlate(2.0, 0.3), TRIANGLE],
                         ids=["circle", "plate", "triangle"])
def test_flow_at_rest_solves(body):
    # with w_inf = 0 the slip scale is 1, as in PanelFlow's expansion
    # tolerances; the circle's flow is then the point vortex Gamma/(2 pi i z)
    sol = panel_solve(body, FarField(0.0, 1.0), 64)
    assert sol.residual_norm <= TOL_SLIP
    if body.kind == "circle":
        z = np.array([2.0, 5j])
        exact = exact_flow(body, FarField(0.0, 1.0)).velocity(z)
        assert np.max(np.abs(sol.flow.velocity(z) - exact)) <= 1e-12


def test_flow_direction_at_rest_is_plus_x():
    assert FarField(0.0, 1.0).flow_direction == 1.0 + 0j
    assert FarField(2j).flow_direction == -1j  # w = u - i v: upward


def test_kutta_solve_at_rest_finds_zero():
    assert kutta_solve(FlatPlate(2.0, 0.3), 0.0, 0, 64).root == 0.0


def test_public_names_resolve():
    import cornerflow
    missing = [name for name in cornerflow.__all__ if not hasattr(cornerflow, name)]
    assert missing == []
    namespace = {}
    exec("from cornerflow import *", namespace)
    assert set(cornerflow.__all__) <= set(namespace)


class TestPanelSolve:
    def test_circle_polygon_matches_exact(self):
        far = FarField(1.0, 0.0)
        sol = panel_solve(Circle(1.0), far, 64)
        exact = exact_flow(Circle(1.0), far)
        z = 2j
        assert abs(sol.flow.velocity(z) - exact.velocity(z)) < 2e-3

    def test_one_panel_circle_is_degenerate(self):
        # its one panel would run from the one node to itself
        with pytest.raises(InvalidGeometryError, match="1 panels"):
            panel_solve(Circle(1.0), FarField(1.0, 0.0), 1)

    def test_square_zero_circulation(self):
        sol = panel_solve(SQUARE, FarField(1.0, 0.0), 128)
        got = float(contour_integral(sol.flow, CircleContour(0j, 2.0, 2048)).real)
        assert abs(got) < 1e-8

    def test_strengths_affine_in_circulation(self):
        g0 = panel_solve(SQUARE, FarField(1.0, 0.0), 96).flow.gamma
        g1 = panel_solve(SQUARE, FarField(1.0, 1.0), 96).flow.gamma
        t = 0.35
        gt = panel_solve(SQUARE, FarField(1.0, t), 96).flow.gamma
        assert np.max(np.abs(gt - ((1 - t) * g0 + t * g1))) < 1e-10

    def test_tangency_residual_within_tolerance(self):
        # TOL_SLIP * |w_inf| = 1e-8; regular polygons stay well inside it
        # at fine resolution too
        for body, n, tol in ((Circle(1.0), 128, 1e-8), (TRIANGLE, 128, 1e-8),
                             (FlatPlate(4.0, np.pi / 6), 128, 1e-8),
                             (TRIANGLE, 1024, 1e-9), (HEXAGON, 1024, 1e-9)):
            sol = panel_solve(body, FarField(1.0, 1.0), n)
            assert sol.residual_norm <= tol

    @pytest.mark.parametrize("body, far", [
        # a slow stream past a unit-speed vortex: the speed scale is 1
        (Circle(1.0), FarField(1e-7, TWO_PI)),
    ], ids=["slow_stream"])
    def test_slip_gate_holds_rows_to_the_flow_speed(self, body, far):
        # it fails a gate of TOL_SLIP * |w_inf| on every row; the
        # reported residual_norm is still the largest raw row residual
        sol = panel_solve(body, far, 256)
        assert sol.residual_norm > TOL_SLIP * abs(far.w_inf)

    @pytest.mark.parametrize("R", [1e-12, 1e-3, 1e12])
    def test_panel_system_is_scale_free(self, R):
        # every row, the circulation row over R included, is free of the
        # body's scale: kappa_1 and the residual in units of |w_inf| stay
        # those of the unit circle, and the circulation is physical
        unit = panel_solve(Circle(1.0), FarField(1.0, TWO_PI), 256)
        sol = panel_solve(Circle(R), FarField(1.0, TWO_PI * R), 256)
        assert unit.condition_number == pytest.approx(80.0333, rel=1e-6)
        assert sol.condition_number == pytest.approx(unit.condition_number, rel=1e-12)
        assert sol.residual_norm <= 1e-13
        assert sol.circulation_of_strengths == pytest.approx(TWO_PI * R, rel=1e-12)

    @pytest.mark.parametrize("far", [FarField(0.0, 1.0), FarField(1e-7, TWO_PI)],
                             ids=["vortex", "slow_stream"])
    def test_slip_gate_refuses_an_asymmetric_polygon(self, far):
        # held to the vortex's speed scale (a uniform stream past SCALENE
        # raises in test_failures_leave_the_next_solve_correct)
        with pytest.raises(SolverError, match="tol_slip"):
            panel_solve(SCALENE, far, 96)

    @pytest.mark.parametrize("w_inf", [1e-310, 1e-310j])
    def test_subnormal_free_stream_raises(self, w_inf):
        # at Gamma = 0 the speed scale V is |w_inf|, and its tolerances
        # would underflow to 0; a circulation sets V = 1 at any w_inf
        with pytest.raises(InvalidGeometryError, match="subnormal"):
            panel_solve(TRIANGLE, FarField(w_inf, 0.0), 96)
        z = np.array([3.0 + 1.0j])
        for far in (FarField(sys.float_info.min, 0.0), FarField(w_inf, TWO_PI)):
            sol = panel_solve(TRIANGLE, far, 96)
            assert np.all(np.isfinite(sol.flow.velocity(z)))

    def test_tiny_body_in_a_tiny_stream_evaluates(self):
        # the expansions meet FAR_TOL V in units of R, which no body size
        # underflows: a circle of radius 1e-12 at V = 1e-300 (FAR_TOL V R
        # was 0 in physical units, and refused) errs from the exact flow as
        # the unit circle does, in units of V and V R.  Its psi is subnormal,
        # near 1e-312, so the psi deviations agree to 7e-10 (w: 3e-10)
        def deviations(R):
            far = FarField(1e-300, 0.0)
            flow = panel_solve(Circle(R), far, 64).flow
            exact = exact_flow(Circle(R), far)
            z = R * np.array([1.01 * np.exp(2j), 1.2, 1.5j, -2.0, 3.0 * np.exp(0.3j), 10.0])
            V = far.speed_scale(R)
            return (np.max(np.abs(flow.velocity(z) - exact.velocity(z))) / V,
                    np.max(np.abs(flow.stream(z) - exact.stream(z))) / (V * R))

        assert deviations(1e-12) == pytest.approx(deviations(1.0), rel=1e-9)

    def test_underflowing_far_tolerance_raises(self, monkeypatch):
        # FAR_TOL V is normal at every normal V, but a tolerance that
        # underflows to 0 is met by no expansion order (orders cast from
        # inf read 0, and a far field came out 11 % off)
        monkeypatch.setattr(incompressible, "FAR_TOL", 1e-30)
        flow = panel_solve(Circle(1.0), FarField(1e-300, 0.0), 64).flow
        with pytest.raises(InvalidGeometryError, match="underflows"):
            flow.velocity(np.array([10.0 + 0j]))

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_circulation_raises(self, gamma):
        # it would solve to NaN strengths
        with pytest.raises(InvalidGeometryError, match="circulation"):
            panel_solve(Circle(1.0), FarField(1.0, gamma), 64)

    def test_slip_gate_refuses_nan(self, monkeypatch):
        # a NaN residual fails the gate, never passes it
        system = incompressible._assemble(Circle(1.0), 64, 1.0)
        nan = np.full_like(system.residual, np.nan)
        monkeypatch.setattr(incompressible, "_assemble",
                            lambda *key: dataclasses.replace(system, residual=nan))
        with pytest.raises(SolverError, match="tol_slip"):
            panel_solve(Circle(1.0), FarField(1.0, 0.0), 64)

    def test_circulation_constraint_exact(self):
        for gam in (0.0, 2.5, -4.0):
            sol = panel_solve(TRIANGLE, FarField(1.0, gam), 128)
            assert sol.circulation_of_strengths == pytest.approx(gam, abs=1e-11)

    def test_minimum_panels_per_side(self):
        with pytest.raises(InvalidGeometryError):
            panel_solve(TRIANGLE, FarField(1.0, 0.0), 12)

    def test_uniqueness_across_resolutions(self):
        far = FarField(1.0, 1.0)
        a = panel_solve(SQUARE, far, 160).flow
        b = panel_solve(SQUARE, far, 256).flow
        z = 2.0 * np.exp(1j * TWO_PI * (np.arange(16) + 0.2) / 16)
        assert np.max(np.abs(a.velocity(z) - b.velocity(z))) < 2e-3

    def test_holomorphy_cauchy_riemann_decay(self):
        # centered-difference d/dzbar residual decays at 2nd order
        sol = panel_solve(SQUARE, FarField(1.0, 1.0), 128)
        rng = np.random.default_rng(3)
        z = rng.uniform(1.2, 3.0, 50) * np.exp(1j * rng.uniform(0, TWO_PI, 50))

        def cr_residual(h):
            wx = (sol.flow.velocity(z + h) - sol.flow.velocity(z - h)) / (2 * h)
            wy = (sol.flow.velocity(z + 1j * h) - sol.flow.velocity(z - 1j * h)) / (2 * h)
            return np.max(np.abs(0.5 * (wx + 1j * wy)))

        r1, r2 = cr_residual(1e-2), cr_residual(5e-3)
        assert r1 / r2 > 3.0  # ~4 for 2nd order

    def test_far_field_decay_rate(self):
        sol = panel_solve(TRIANGLE, FarField(1.0, 1.5), 128)
        c1 = 1.5 / (2j * np.pi)
        z0 = np.exp(0.4j)
        errs = []
        for R in (10.0, 20.0, 40.0):
            z = R * z0
            errs.append(abs(sol.flow.velocity(z) - 1.0 - c1 / z))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_maximum_principle_spot_check(self):
        # psi on a fluid disk not enclosing the body peaks on its rim
        sol = panel_solve(SQUARE, FarField(1.0, 1.0), 128)
        center, rad = 2.5 + 1.5j, 0.8
        th = TWO_PI * np.arange(64) / 64
        rim = sol.flow.stream(center + rad * np.exp(1j * th))
        rng = np.random.default_rng(11)
        rr = rad * np.sqrt(rng.uniform(0, 1, 200))
        inner = sol.flow.stream(center + rr * np.exp(1j * rng.uniform(0, TWO_PI, 200)))
        assert inner.max() <= rim.max() + 1e-9
        assert inner.min() >= rim.min() - 1e-9

    def test_panel_potential_consistency(self):
        # psi = Im W and w = W', so w = psi_y + i psi_x (central
        # differences); the first two points take the direct panel sum,
        # the others the multipole expansion
        far = FarField(1.0, 1.5)
        sol = panel_solve(Circle(1.0), far, 128)
        z = np.array([1.3 + 0.4j, -0.2 + 1.25j, 2 + 1j, 3j, 1.8 + 0.2j, -1.5 + 2j])
        h = 1e-6
        psi = sol.flow.stream
        dpsi = (psi(z + 1j * h) - psi(z - 1j * h)
                + 1j * (psi(z + h) - psi(z - h))) / (2 * h)
        assert np.max(np.abs(dpsi - sol.flow.velocity(z))) < 1e-7

    def test_panel_stream_matches_exact_circle(self):
        far = FarField(1.0, TWO_PI)
        sol = panel_solve(Circle(1.0), far, 256)
        exact = exact_flow(Circle(1.0), far)
        z = np.array([2j, 3.0, -1.5 + 1.2j])
        assert np.max(np.abs(sol.flow.stream(z) - exact.stream(z))) < 5e-4


class TestKutta:
    def test_horizontal_plate_root_is_zero(self):
        res = kutta_solve(FlatPlate(4.0, 0.0), 1.0, 0, n_panels=128)
        assert abs(res.root) < 1e-8

    def test_plate_root_matches_conformal_oracle(self):
        alpha = np.pi / 6
        res = kutta_solve(FlatPlate(4.0, alpha), 1.0, 0, n_panels=512)
        oracle = -np.pi * 4.0 * np.sin(alpha)
        assert res.root == pytest.approx(oracle, rel=0.01)

    def test_triangle_roots_differ(self):
        roots = [kutta_solve(TRIANGLE, 1.0, k, n_panels=192).root
                 for k in range(3)]
        assert not np.allclose(roots, roots[0], atol=1e-3)

    def test_invalid_corner_id(self):
        with pytest.raises(InvalidGeometryError):
            kutta_solve(FlatPlate(4.0, 0.3), 1.0, 5, 256)

    def test_reflex_corner_is_refused(self):
        l_shape = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        assert not l_shape.corners[3].protruding  # the inner corner (1, 1)
        with pytest.raises(InvalidGeometryError, match="protruding corners"):
            kutta_solve(l_shape, 1.0, 3, 96)

    @pytest.mark.parametrize("read", [
        lambda: kutta_solve(TRIANGLE, 1.0, 0, 96, "exact"),
        lambda: corner_census(TRIANGLE, 1.0, 96, representation="exact")],
        ids=["kutta_solve", "corner_census"])
    def test_exact_representation_needs_a_map(self, read):
        with pytest.raises(InvalidGeometryError, match="a polygon has none"):
            read()

    @pytest.mark.parametrize("read", [
        lambda: kutta_solve(FlatPlate(4.0, np.pi / 6), 1.0, 0, 256, "Exact"),
        lambda: corner_census(FlatPlate(4.0, np.pi / 6), 1.0, 256,
                              representation="Exact")],
        ids=["kutta_solve", "corner_census"])
    def test_unknown_representation_is_refused(self, read):
        # before, any name but "exact" ran panels: "Exact" returned the
        # 256-panel root -6.258152305401696
        with pytest.raises(InvalidGeometryError,
                           match="'Exact'.*'panel' and 'exact'"):
            read()

    def test_exact_roots_are_the_closed_form(self):
        # the map's three unit columns in closed form at its corners: every
        # plate root within 1e-14 |w_inf| R of 4 pi Im(w_inf f'(inf) sigma_k)
        # and within 2e-15 |w_inf| R of the trailing edge's -pi c Im(w_inf
        # exp(-i alpha)) (the leading edge's opposite), with no ring change
        # to report; the census's entries are the Kutta entries
        for w_inf, lift in ((1.0, np.sin), (1j, lambda a: -np.cos(a))):
            for chord, alpha_deg in itertools.product((0.3, 1.0, 4.0, 37.0),
                                                      range(-89, 90)):
                alpha = np.deg2rad(alpha_deg)
                plate = FlatPlate(chord, alpha)
                R = plate.circumradius
                flow = exact_flow(plate, FarField(w_inf))
                census = corner_census(plate, w_inf, 256, representation="exact")
                for e, sign in zip(census.corners, (-1, 1)):
                    assert abs(e.root - kutta_circulation(flow, e.corner_id)) <= 1e-14 * R
                    assert abs(e.root - sign * np.pi * chord * lift(alpha)) <= 2e-15 * R
                    assert e.root_uncertainty == 0.0
                    if lift(alpha) == 0:
                        assert e.root == 0.0
                    if alpha_deg == 30:
                        assert kutta_solve(plate, w_inf, e.corner_id, 256, "exact") == e

    def test_exact_lines_are_the_ring_projection(self):
        # the corner rings of two exact flows, at Gamma = 0 and V R, share
        # nothing with the closed form: slope and a1(0) agree within 1e-14 of
        # the line's change over V R, and the roots within 1e-14 |w_inf| R
        for chord, alpha_deg in itertools.product((0.3, 1.0, 4.0, 37.0),
                                                  (-89, -30, -1, 0, 7, 30, 60, 89)):
            plate = FlatPlate(chord, np.deg2rad(alpha_deg))
            R = plate.circumradius
            want = affine_corner(exact_flow(plate, FarField(1.0)),
                                 exact_flow(plate, FarField(1.0, R)), plate.corners)
            got = corner_census(plate, 1.0, 256, representation="exact").corners
            for e, r in zip(got, want):
                assert e.slope == pytest.approx(r.slope, rel=1e-14, abs=0.0)
                assert abs(e.a1_at_zero - r.a1_at_zero) <= 1e-14 * abs(r.slope) * R
                assert abs(e.root - r.root) <= 1e-14 * R

    def test_regular_polygon_oracle_reads_the_capacity(self):
        # a vertex at i and w_inf = 1 read 4 pi C_N: C_3 to its 30-digit
        # value, and the square's root Gamma(1/4)**2 sqrt(2/pi)
        def upright(N):
            return Polygon([np.exp(1j * (np.pi / 2 + TWO_PI * k / N)) for k in range(N)])
        c3 = regular_polygon_roots(upright(3), 1.0)[0] / (2 * TWO_PI)
        assert c3 == pytest.approx(0.73049924310315918, rel=1e-15, abs=0.0)
        square = regular_polygon_roots(upright(4), 1.0)[0]
        assert square == pytest.approx(math.gamma(0.25) ** 2 * math.sqrt(2 / np.pi),
                                       rel=1e-15, abs=0.0)
        assert square == pytest.approx(10.488230217168479, rel=1e-15, abs=0.0)

    def test_panel_census_roots_bracket_the_regular_polygon_oracle(self):
        # every panel root within its root_uncertainty of the closed form,
        # which it overstates by at most 10x (2.96-6.78x measured) wherever
        # the error stands above round-off
        tilted = np.exp(0.3j)
        cases = [(Polygon([0.4 - 0.2j + 1.3 * np.exp(1j * (rot + TWO_PI * k / N))
                           for k in range(N)]), n, tilted)
                 for N, n in ((3, 256), (3, 512), (4, 256), (4, 512), (5, 256), (6, 512))
                 for rot in (0.0, 0.37)]
        unit_square = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        cases += [(unit_square, 256, 1.0), (unit_square, 256, tilted)]
        for body, n, w_inf in cases:
            census = corner_census(body, w_inf, n)
            for e, want in zip(census.corners, regular_polygon_roots(body, w_inf)):
                err = abs(e.root - want)
                assert err <= e.root_uncertainty, (len(body.vertices), n, e)
                if err >= 1e-12 * abs(w_inf) * body.circumradius:
                    assert e.root_uncertainty <= 10 * err, (len(body.vertices), n, e)


# ---------------------------------------------------------------------------
# far-field evaluation: multipole expansion against the direct panel sum


class Sheet(NamedTuple):
    """A vortex sheet's layout nodes, nodal strengths and closure; a
    ``PanelFlow`` is one in units of the body."""

    nodes: np.ndarray
    gamma: np.ndarray
    closed: bool


def body_sheet(flow):
    """A panel flow's sheet on its nodes in the body's frame, c + R Z."""
    body = flow.body
    return Sheet(body.centroid + body.circumradius * flow.nodes, flow.gamma, flow.closed)


def panels(sheet):
    """(za, zb, node index of za, node index of zb) of every panel."""
    n = len(sheet.nodes)
    ia = np.arange(n if sheet.closed else n - 1)
    return sheet.nodes[ia], sheet.nodes[(ia + 1) % n], ia, (ia + 1) % n


def one_panel(rows, z, za, zb):
    """(ca, cb): the field ``rows`` (``_psi_rows`` or ``_w_rows``) of the
    one-panel layout za -> zb at the points z, per unit strength of its
    start and end node."""
    out = rows(np.atleast_1d(z), np.array([za, zb]), False, np.eye(2))
    return out[:, 0], out[:, 1]


PSI_ROWS, W_ROWS = incompressible._psi_rows, incompressible._w_rows


def direct_sheet(sheet, z, rows):
    """Vortex-sheet part of psi or w as the sum over all panels."""
    za, zb, ia, ib = panels(sheet)
    acc = 0.0
    for j in range(len(za)):
        ca, cb = one_panel(rows, z, za[j], zb[j])
        acc = acc + ca * sheet.gamma[ia[j]] + cb * sheet.gamma[ib[j]]
    return acc


def reference_sheet(sheet, z, digits=40):
    """(psi, w) of the vortex sheet at the points z from the closed-form
    panel integrals at ``digits`` digits.

    On the panel zeta = a + e t, 0 <= t <= L, with strength
    g(t) = g_a + (g_b - g_a) t / L and zl = (z - a) / e:
    psi = -(1/2 pi) Re int g log(zl - t) dt and
    w = (1/2 pi i e) int g / (zl - t) dt.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        terms = []
        for a, b, ja, jb in zip(*panels(sheet)):
            a, b = mpmath.mpc(a), mpmath.mpc(b)
            L = abs(b - a)
            ga = mpmath.mpf(sheet.gamma[ja])
            terms.append((a, L, L / (b - a), ga, (mpmath.mpf(sheet.gamma[jb]) - ga) / L))
        psi, w = [], []
        for zk in np.atleast_1d(z):
            zk = mpmath.mpc(zk)
            p, q = mpmath.mpf(0), mpmath.mpc(0)
            for a, L, inv_e, ga, dg in terms:
                # int log(zl - t) dt and int t log(zl - t) dt over [0, L],
                # with u = zl - t running from u0 = zl - L to u1 = zl
                u1 = (zk - a) * inv_e
                u0 = u1 - L
                l1, l0 = mpmath.log(u1), mpmath.log(u0)
                i0 = u1 * l1 - u0 * l0 - L
                i1 = u1 * i0 - (u1**2 * l1 - u0**2 * l0) / 2 + (u1**2 - u0**2) / 4
                p -= mpmath.re(ga * i0 + dg * i1)
                k0 = l1 - l0
                q += (ga * k0 + dg * (u1 * k0 - L)) * inv_e
            psi.append(float(p / (2 * mpmath.pi)))
            w.append(complex(q / (2j * mpmath.pi)))
        return np.array(psi), np.array(w)


def far_points(flow, radii=(1.7, 3.0, 10.0, 40.0), angles=(0.3, 2.0, 4.1)):
    """Points at the given multiples of the circumradius from the centroid,
    all beyond KAPPA circumradii."""
    assert min(radii) > KAPPA
    return flow.body.centroid + flow.body.circumradius * np.array(
        [r * np.exp(1j * a) for r in radii for a in angles])


def near_points(flow, radii=(0.0125, 0.3, 0.7, 1.1, 1.55), angles=8,
                corner_radii=(1e-3, 0.00625, 0.0125, 0.025)):
    """Fluid points within KAPPA circumradii of the centroid: rings at
    ``radii`` and fans around every corner at ``corner_radii``, all in
    circumradii.  The default fans lie at 1e-3 R and, on the bundled
    plate30 body (R = 2), at 0.0125-0.05 from its Kutta edge."""
    body = flow.body
    R, c = body.circumradius, body.centroid
    ring = c + R * np.outer(radii, np.exp(1j * TWO_PI * (np.arange(angles) + 0.3)
                                          / angles)).ravel()
    z = np.concatenate([ring[~body.occupies(ring, 1e-9 * R)]]
                       + [probe_ring(k, R * np.array(corner_radii), 5).ravel()
                          for k in body.corners])
    assert np.all(np.abs(z - c) < KAPPA * R)
    return z


@pytest.mark.parametrize("body", [Circle(1.0), FlatPlate(4.0, np.pi / 6),
                                  TRIANGLE], ids=["circle", "plate", "triangle"])
def test_far_field_matches_40_digit_reference(body):
    # far out by the body's multipole expansion, near the body by the
    # cluster expansions and closed forms; psi is defined up to its body
    # level, so it is compared as differences from the first point
    flow = panel_solve(body, FarField(1.0, 1.3), 64).flow
    sheet = body_sheet(flow)
    for z, zone in ((far_points(flow), "far"), (near_points(flow), "near")):
        ref_psi, ref_w = reference_sheet(sheet, z)
        ref_psi += np.imag(flow.far.w_inf * z)
        ref_w += flow.far.w_inf

        def errors(psi, w):
            dpsi = (psi - psi[0]) - (ref_psi - ref_psi[0])
            return np.max(np.abs(dpsi)), np.max(np.abs(w - ref_w))

        flow_psi, flow_w = errors(flow.stream(z), flow.velocity(z))
        direct_psi, direct_w = errors(
            np.imag(flow.far.w_inf * z) + direct_sheet(sheet, z, PSI_ROWS),
            flow.far.w_inf + direct_sheet(sheet, z, W_ROWS))
        print(f"{body.kind} {zone}: flow psi {flow_psi:.1e} w {flow_w:.1e}; "
              f"direct sum psi {direct_psi:.1e} w {direct_w:.1e}")
        scale = abs(flow.far.w_inf) * body.circumradius
        assert flow_psi <= 1e-13 * scale
        assert flow_w <= 1e-13 * abs(flow.far.w_inf)


def test_body_level_matches_40_digit_reference():
    # psi at the first panel's midpoint, which every stream value
    # subtracts, in units of the body (psi / R)
    body = FlatPlate(4.0, np.pi / 6)
    flow = panel_solve(body, FarField(1.0, 1.3), 512).flow
    mid = 0.5 * (flow.nodes[0] + flow.nodes[1])
    ref = np.imag(flow.far.w_inf * mid) + reference_sheet(flow, mid)[0][0]
    assert abs(flow._psi_body - ref) <= 1e-13 * abs(flow.far.w_inf)


@pytest.mark.parametrize("body", [Circle(1.0), TRIANGLE], ids=["circle", "triangle"])
def test_far_field_matches_direct_sum(body):
    # out to the corners of the default +-4R sign-census window; farther
    # out the direct sum's own cancellation error passes 1e-10 (see the
    # 40-digit reference above)
    flow = panel_solve(body, FarField(1.0, -2.0), 256).flow
    sheet = body_sheet(flow)
    z = far_points(flow, radii=np.geomspace(1.7, 4.0 * np.sqrt(2.0), 7),
                   angles=np.linspace(0.0, 2 * np.pi, 17)[:-1] + 0.1)
    # psi differences from a point evaluated by the direct sum itself
    z0 = flow.body.centroid + 1.2 * flow.body.circumradius
    direct_psi = np.imag(flow.far.w_inf * (z - z0)) + (
        direct_sheet(sheet, z, PSI_ROWS) - direct_sheet(sheet, np.array([z0]), PSI_ROWS))
    direct_w = flow.far.w_inf + direct_sheet(sheet, z, W_ROWS)
    scale = abs(flow.far.w_inf) * body.circumradius
    assert np.max(np.abs(flow.stream(z) - flow.stream(z0) - direct_psi)) <= 1e-10 * scale
    assert np.max(np.abs(flow.velocity(z) - direct_w)) <= 1e-10 * scale


def test_panel_kernel_matches_40_digit_integral():
    # one panel seen from |zl - L| = 2L to 1e4 L, around and along it,
    # where the log of zl / (zl - L) alone would lose |zl| / L ulps
    mpmath = pytest.importorskip("mpmath")
    za, zb = 0.3 - 0.2j, 1.1 + 0.4j
    L, e = abs(zb - za), (zb - za) / abs(zb - za)
    zl = L + np.outer(L * np.geomspace(2.0, 1e4, 9),
                      np.exp(1j * np.array([0.0, 0.4, 1.3, 2.2, 3.0, np.pi]))).ravel()
    ca, cb = one_panel(W_ROWS, za + e * zl, za, zb)
    with mpmath.workdps(40):
        a, b = mpmath.mpc(za), mpmath.mpc(zb)
        Lm = abs(b - a)
        em = (b - a) / Lm
        ref = []
        for zk in za + e * zl:
            u1 = (mpmath.mpc(zk) - a) / em
            # int dt / (u1 - t) and int t dt / (u1 - t) / L over [0, L]
            k0 = mpmath.log(u1 / (u1 - Lm))
            k1 = (u1 * k0 - Lm) / Lm
            ref.append([complex((k0 - k1) / (2j * mpmath.pi * em)),
                        complex(k1 / (2j * mpmath.pi * em))])
    # errors per unit nodal strength, i.e. relative to the velocity jump
    # across the sheet
    assert np.max(np.abs(np.stack([ca, cb], axis=1) - np.array(ref))) <= 1e-15


# ---------------------------------------------------------------------------
# near field: the cluster treecode against the 40-digit reference


def loop_tangency_matrix(sheet):
    """Midpoint tangency rows of the sheet's panels, built panel by panel."""
    za, zb, ia, ib = panels(sheet)
    mids, normal = 0.5 * (za + zb), 1j * (zb - za) / np.abs(zb - za)
    A = np.zeros((len(za), len(sheet.nodes)))
    for j in range(len(za)):
        ca, cb = one_panel(W_ROWS, mids, za[j], zb[j])
        A[:, ia[j]] += np.real(ca * normal)
        A[:, ib[j]] += np.real(cb * normal)
    return A


@pytest.mark.parametrize("body", [FlatPlate(4.0, np.pi / 6), TRIANGLE, Circle(1.0)],
                         ids=["plate", "triangle", "circle"])
def test_near_field_matches_panel_loop(body):
    # stream and velocity against the 40-digit reference, body level
    # included
    flow = panel_solve(body, FarField(1.0, 1.3), 512).flow
    sheet = body_sheet(flow)
    z = near_points(flow, radii=np.linspace(0.3, 1.55, 6), angles=6,
                    corner_radii=[1e-3])
    w_inf, scale = flow.far.w_inf, abs(flow.far.w_inf) * body.circumradius

    # stream subtracts the body level, psi at the first panel's midpoint
    mid0 = 0.5 * (sheet.nodes[0] + sheet.nodes[1])
    ref_psi, ref_w = reference_sheet(sheet, np.append(z, mid0))
    ref_psi += np.imag(w_inf * np.append(z, mid0))
    assert np.max(np.abs(flow.stream(z) - (ref_psi[:-1] - ref_psi[-1]))) <= 1e-13 * scale
    assert np.max(np.abs(flow.velocity(z) - (w_inf + ref_w[:-1]))) <= 1e-13 * abs(w_inf)

    # on a panel (principal value) and exactly at a node, where w is
    # log-singular and only psi is defined: the treecode's psi in units of
    # the body (psi / R, whose scale is |w_inf|) against the 40-digit rows,
    # and both fields against the per-panel loop, all on the unit nodes
    on = np.array([0.5 * (flow.nodes[3] + flow.nodes[4]), flow.nodes[7]])
    psi_on = flow._accumulate(on, incompressible._PSI, flow._clusters)
    ref_on = np.array([reference_psi_row(flow.nodes, flow.closed, zk) for zk in on])
    assert np.max(np.abs(psi_on - ref_on @ flow.gamma)) <= 1e-13 * abs(w_inf)
    assert np.max(np.abs(psi_on - direct_sheet(flow, on, PSI_ROWS))) <= 1e-12 * abs(w_inf)
    assert np.abs(flow._accumulate(on[:1], incompressible._W, flow._clusters)
                  - direct_sheet(flow, on[:1], W_ROWS))[0] <= 1e-12 * abs(w_inf)

    rows, _ = incompressible._system_rows(flow.nodes, flow.closed)
    A = np.delete(rows, len(flow.nodes) - 1, axis=0)  # drop the circulation row
    A_loop = loop_tangency_matrix(flow)
    assert np.max(np.abs(A - A_loop)) <= 1e-12 * np.max(np.abs(A_loop))


def reference_tangency_row(nodes, closed, i, digits=40):
    """Tangency row i, Re(w n_i) per unit nodal strength at the midpoint
    of panel i as rounded to doubles, from the panel integrals at
    ``digits`` digits: the principal value on panel i itself."""
    mpmath = pytest.importorskip("mpmath")
    n = len(nodes)
    n_pan = n if closed else n - 1
    row = np.zeros(n)
    with mpmath.workdps(digits):
        node = [mpmath.mpc(z) for z in nodes]
        a, b = node[i], node[(i + 1) % n]
        normal = 1j * (b - a) / abs(b - a)
        mid = mpmath.mpc(0.5 * (nodes[i] + nodes[(i + 1) % n]))
        for j in range(n_pan):
            a, b = node[j], node[(j + 1) % n]
            L = abs(b - a)
            e = (b - a) / L
            u1 = (mid - a) / e
            ratio = u1 / (u1 - L)
            k0 = mpmath.log(abs(ratio)) if j == i else mpmath.log(ratio)
            k1 = (u1 * k0 - L) / L
            for k, c in ((j, k0 - k1), ((j + 1) % n, k1)):
                row[k] += float(mpmath.re(normal * c / (2j * mpmath.pi * e)))
    return row


@pytest.mark.parametrize("body", [FlatPlate(4.0, np.pi / 6), TRIANGLE, Circle(1.0)],
                         ids=["plate", "triangle", "circle"])
def test_assembled_rows_match_40_digit_reference(body):
    # the rows of the panels at the first node, at a corner node and
    # at the last node, and a middle one: each row holds the self pair,
    # the two adjacent ones (across a corner where the panel ends at one)
    # and far pairs; a closed body's last tangency row is the one left
    # out of the square system, after the circulation row.  The rows err
    # by up to 3 ulps of their largest entry; 8 leaves room for libm.  The
    # system's nodes are in units of the body, Z = (z - c) / R
    incompressible._assemble.cache_clear()
    system = incompressible._assemble(body, 96, 1.0)
    nodes, closed = system.nodes, system.closed
    rows, rhs = incompressible._system_rows(nodes, closed)
    n_nodes, n_pan = len(nodes), len(nodes) - (not closed)
    # a plate's second corner is its last node
    c, R = body.centroid, body.circumradius
    corner = (int(np.argmin(np.abs(c + R * nodes - body.corners[1].vertex)))
              if body.corners else 24)
    for i in sorted({0, corner - 1, corner, n_pan // 2, n_pan - 1} & set(range(n_pan))):
        ref = reference_tangency_row(nodes, closed, i)
        got = rows[n_pan if closed and i == n_pan - 1 else i]
        assert np.max(np.abs(got - ref)) <= 8 * np.finfo(float).eps * np.max(np.abs(ref))
    # the circulation row and its right-hand side, in units of R
    lens = np.abs(np.diff(np.append(nodes, nodes[0]) if closed else nodes))
    want = np.zeros(n_nodes)
    np.add.at(want, np.arange(n_pan), 0.5 * lens)
    np.add.at(want, (np.arange(n_pan) + 1) % n_nodes, 0.5 * lens)
    assert np.allclose(rows[n_nodes - 1], want, rtol=1e-15, atol=0.0)
    assert rhs[n_nodes - 1].tolist() == [0.0, 0.0, 1.0]


def test_short_panel_rows_take_the_principal_value():
    # the 512-panel plate's end panels are 9.4e-6 chords long, and the
    # rounding of the first one's midpoint alone sets it 2.7e-12 L off the
    # panel: each self pair still takes the principal value, so the end
    # rows keep a few ulps of their largest entry (on the system's nodes,
    # in units of the body)
    incompressible._assemble.cache_clear()
    system = incompressible._assemble(FlatPlate(4.0, 0.5), 512, 1.0)
    nodes, closed = system.nodes, system.closed
    rows, _ = incompressible._system_rows(nodes, closed)
    for i in (0, len(nodes) - 2):
        ref = reference_tangency_row(nodes, closed, i)
        assert (np.max(np.abs(rows[i] - ref))
                <= 8 * np.finfo(float).eps * np.max(np.abs(ref)))


def reference_psi_row(nodes, closed, zk, digits=40):
    """psi per unit nodal strength at the point zk as rounded to doubles,
    -(1/2 pi) int g log|zk - zeta| ds over every panel, from the integrals
    of ``reference_sheet`` at ``digits`` digits; u log u is 0 at u = 0,
    so that zk may be a node."""
    mpmath = pytest.importorskip("mpmath")
    n = len(nodes)
    row = np.zeros(n)
    with mpmath.workdps(digits):
        node, z = [mpmath.mpc(v) for v in nodes], mpmath.mpc(zk)

        def ulog(u):
            return mpmath.mpf(0) if u == 0 else u * mpmath.log(u)

        for j in range(n if closed else n - 1):
            a, b = node[j], node[(j + 1) % n]
            L = abs(b - a)
            u1 = (z - a) * L / (b - a)
            u0 = u1 - L
            l1, l0 = ulog(u1), ulog(u0)
            i0 = l1 - l0 - L
            i1 = u1 * i0 - (u1 * l1 - u0 * l0) / 2 + (u1**2 - u0**2) / 4
            for k, c in ((j, i0 - i1 / L), ((j + 1) % n, i1 / L)):
                row[k] += float(-mpmath.re(c) / (2 * mpmath.pi))
    return row


@pytest.mark.parametrize("length", [1e-3, 1.0, 1e3])
def test_psi_kernel_matches_40_digit_integral(length):
    # two panels meeting at a corner, seen from 1e-3 L of either end of the
    # first, from on it, from exactly each node, and
    # from 3 L to 100 L: the closed form errs by a few ulps of the pair or
    # of max(L, |z - z_mid|) / 2 pi, the size of its far dipole term,
    # whichever is larger, at every panel length
    za = length * (0.3 - 0.2j)
    zb = za + length * (0.8 + 0.6j)
    zc = zb + 0.7 * length * np.exp(1.9j)
    span = zb - za
    z = np.concatenate([
        za + 1e-3 * length * np.exp(1j * np.array([0.4, 2.0, 3.5, 5.0])),
        zb + 1e-3 * length * np.exp(1j * np.array([0.4, 2.0, 3.5, 5.0])),
        za + span * np.array([0.5, 0.137, 0.999]), [za, zb, zc],
        za + span * (0.5 + np.array([3.0, 10.0, 30.0, 100.0])
                     * np.exp(1j * np.array([0.7, 2.5, 4.0, 1.2])))])
    for a, b in ((za, zb), (zb, zc)):
        scale = np.maximum(abs(b - a), np.abs(z - 0.5 * (a + b))) / TWO_PI
        got = np.stack(one_panel(PSI_ROWS, z, a, b), axis=1)
        ref = np.array([reference_psi_row(np.array([a, b]), False, zk) for zk in z])
        scale = np.maximum(scale, np.max(np.abs(ref), axis=1))
        assert np.all(np.max(np.abs(got - ref), axis=1)
                      <= 4 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("body", [FlatPlate(4.0, np.pi / 6), TRIANGLE],
                         ids=["plate", "triangle"])
def test_psi_rows_are_the_kernel_per_panel(body):
    # a layout's rows add the one-panel rows of every panel into its two
    # nodes, bit for bit, at points near a corner, on a panel and at a
    # node (times the identity, the rows themselves)
    nodes, closed = body.panel_nodes(64)
    corner = body.corners[-1]
    z = np.concatenate([probe_ring(corner, [1e-3, 0.1], 3).ravel(),
                        [0.5 * (nodes[5] + nodes[6]), nodes[9]]])
    n = len(nodes)
    want = np.zeros((len(z), n))
    for j in range(n if closed else n - 1):
        ca, cb = one_panel(PSI_ROWS, z, nodes[j], nodes[(j + 1) % n])
        want[:, j] += ca
        want[:, (j + 1) % n] += cb
    assert np.array_equal(PSI_ROWS(z, nodes, closed, np.eye(n)), want)


def scalar_order(S, ratio, tol, t=1.0 / KAPPA):
    """The expansion order rule of _orders for one group at the
    separation t, by search."""
    p = 0
    if not math.isfinite(S):
        return p
    while S * t**(p + 1) * max(1.0, ratio) / (TWO_PI * (1.0 - t)) > tol:
        p += 1
    return p


def sheet_bounds(flow):
    """(S, 1 / rho, tol) of the body expansion and of the cluster
    expansions of a flow, in units of the body: S bounds the integral of
    |gamma| ds of each, and tol is FAR_TOL V, FAR_TOL V R in physical psi."""
    tree = flow._clusters
    za, zb, ga, gb = flow._panels()
    s = 0.5 * np.abs(zb - za) * (np.abs(ga) + np.abs(gb))
    # runs of CLUSTER panels, the last padded with zeros
    S = np.pad(s, (0, -len(s) % incompressible.CLUSTER)).reshape(
        -1, incompressible.CLUSTER).sum(axis=1)
    tol = incompressible.FAR_TOL * flow.far.speed_scale(flow.body.circumradius)
    return ((np.array([S.sum()]), np.ones(1), tol),
            (S, 1 / tree.rho, tol / len(S)))


BODIES_512 = pytest.mark.parametrize(
    "body", [Circle(1.0), FlatPlate(4.0, np.pi / 6), TRIANGLE],
    ids=["circle", "plate", "triangle"])


@BODIES_512
def test_orders_match_scalar_rule(body):
    flow = panel_solve(body, FarField(1.0, 1.3), 512).flow
    _, (S, inv_rho, cluster_tol) = sheet_bounds(flow)
    # an overflowed S and a zero one
    S, inv_rho = np.append(S, [np.inf, 0.0]), np.append(inv_rho, inv_rho[:2])
    for t in (1.0 / KAPPA, 0.5, 0.25, 1.0 / 16):
        # the w tail at separation t carries t / rho, in units of the body
        ratio = t * inv_rho
        for tol in (cluster_tol, 1e-6, 1e-17):
            want = [scalar_order(a, b, tol, t) for a, b in zip(S, ratio)]
            assert np.array_equal(incompressible._orders(S, ratio, tol, t), want)
            if t == 1.0 / KAPPA:
                assert np.array_equal(incompressible._orders(S, ratio, tol), want)
            # one group (the whole body about its centroid) as 0-d arrays
            whole = np.sum(S[:-2])
            assert incompressible._orders(whole, t, tol, t) == \
                scalar_order(whole, t, tol, t)


def test_orders_read_the_speed_scale():
    # a sheet dominated by its circulation is expanded to FAR_TOL V, with V
    # the slip gate's speed scale: at w_inf = 1e-300 the largest order at
    # each separation is no higher than at w_inf = 1 (FAR_TOL |w_inf| put
    # the body's at KAPPA R at 1534, against 65).  A single cluster may
    # need more: the free stream lowers |gamma| on part of the circle
    flows = [panel_solve(Circle(1.0), FarField(w_inf, TWO_PI), 256).flow
             for w_inf in (1e-300, 1.0)]
    t = np.linspace(0.0, 1.0, 65)[:, None] / KAPPA
    for exp in ("_expansion", "_clusters"):
        slow, unit = (getattr(flow, exp) for flow in flows)
        assert slow.top.max() <= unit.top.max()
        assert np.all(slow.order(t).max(axis=1) <= unit.order(t).max(axis=1))


def separations(exp):
    """Separations t = rho / |z - c| of each group (columns) of an
    expansion: random ones, 1 / KAPPA, and one ulp either side of KAPPA rho
    from its centre."""
    rho = exp.rho
    far = np.random.default_rng(5).uniform(KAPPA, 400.0, (100, 1)) * rho
    switch = [np.nextafter(KAPPA * rho, side) for side in (0.0, np.inf)]
    dist = np.concatenate([far, switch])
    return np.concatenate([rho / dist, np.full((1, len(rho)), 1.0 / KAPPA)])


@BODIES_512
def test_order_lookup_never_undercuts_the_rule(body):
    # a point at separation t takes its group's order at t itself, the
    # rule's least order there, never above the group's top, at random
    # separations, at 1 / KAPPA and one ulp either side of KAPPA R and of
    # KAPPA rho_C
    flow = panel_solve(body, FarField(1.0, 1.3), 512).flow
    for exp, (S, inv_rho, tol) in zip((flow._expansion, flow._clusters),
                                    sheet_bounds(flow)):
        t = separations(exp)
        read = exp.order(t)
        assert read.dtype == np.int16
        assert np.all(read <= exp.top)
        for g in range(len(S)):
            want = [scalar_order(S[g], tk * inv_rho[g], tol, tk) for tk in t[:, g]]
            assert np.array_equal(read[:, g], want)
            assert exp.top[g] == scalar_order(S[g], inv_rho[g] / KAPPA, tol)


@BODIES_512
def test_orders_keep_their_bits_under_a_scaled_stream(body):
    # S and tol scale alike, exactly, at w_inf -> 2**k w_inf (and Gamma):
    # every top and every order(t) keeps its bits
    def orders(k):
        flow = panel_solve(body, FarField(2.0**k, 1.3 * 2.0**k), 512).flow
        return [(exp.top, exp.order(separations(exp)))
                for exp in (flow._expansion, flow._clusters)]

    want = orders(0)
    for k in (-900, 900):
        for (top, read), (want_top, want_read) in zip(orders(k), want):
            assert np.array_equal(top, want_top)
            assert np.array_equal(read, want_read)


def test_orders_saturate_as_t_nears_one():
    # the rule's order near t = 1 is past int16's range: it saturates
    # there, never wraps negative, so order() caps it at each group's top
    flow = panel_solve(Circle(1.0), FarField(1.0, 1.3), 64).flow
    for exp in (flow._expansion, flow._clusters):
        for t in (1.0 - 1e-6, 1.0 - 2.0**-40):
            assert np.all(incompressible._orders(exp.S, t / exp.rho, exp.tol, t)
                          >= exp.top)
            assert np.array_equal(exp.order(t), exp.top)


@BODIES_512
def test_stream_spread_bounds_psi_over_its_disc(body):
    # the premise of the sign census's block proofs: psi, as stream
    # computes it, moves from c by at most stream_spread(c, r) over the
    # disc of radius r about c, here over 64 points on and inside it, at
    # random centres within +-4R, within 3r of each corner (the plate's
    # edges) and at 1.1-4R from the centroid; the spread is inf exactly
    # where the disc reaches the disc of a cluster of nonzero strength
    R, c = body.circumradius, body.centroid
    flow = panel_solve(body, FarField(1.0, 1.3), 512).flow
    tree = flow._clusters
    rng = np.random.default_rng(17)

    def spin(n):
        return np.exp(1j * rng.uniform(0.0, TWO_PI, n))

    disc = np.append(spin(32), np.sqrt(rng.uniform(0.0, 1.0, 32)) * spin(32))
    tips = np.array([k.vertex for k in body.corners], dtype=complex)
    finite = infinite = 0
    for r in (R / 50, R / 200):
        centres = np.concatenate([
            c + R * (rng.uniform(-4, 4, 300) + 1j * rng.uniform(-4, 4, 300)),
            (tips[:, None] + 3 * r * np.sqrt(rng.uniform(0, 1, (len(tips), 40)))
             * spin((len(tips), 40))).ravel(),
            c + R * rng.uniform(1.1, 4.0, 300) * spin(300)])
        centres = centres[~body.occupies(centres, 1e-9 * R)]
        spread = flow.stream_spread(centres, r)
        gap = np.abs((centres[:, None] - c) / R - tree.centre) - tree.rho - r / R
        assert np.array_equal(np.isinf(spread), np.any((gap <= 0) & (tree.S > 0), axis=1))
        assert not np.any(np.isnan(spread))
        ok = np.isfinite(spread)
        moved = np.abs(flow.stream(centres[ok, None] + r * disc)
                       - flow.stream(centres[ok])[:, None])
        assert np.all(moved.max(axis=1) <= spread[ok])
        finite, infinite = finite + np.count_nonzero(ok), infinite + np.count_nonzero(~ok)
    assert finite > 1000 and infinite > 0


@BODIES_512
def test_stream_spread_skips_a_cluster_of_zero_strength(body):
    # a cluster of zero strength, as the padding of the last one is, bounds
    # no speed: beside it, clear of every other cluster's disc, the spread
    # is finite, not 0 / 0
    flow = panel_solve(body, FarField(1.0, 1.3), 512).flow
    k, R = 5, body.circumradius
    gamma = flow.gamma.copy()
    gamma[k * incompressible.CLUSTER:(k + 1) * incompressible.CLUSTER + 1] = 0.0
    idle = dataclasses.replace(flow, gamma=gamma)
    tree = idle._clusters
    assert tree.S[k] == 0.0 and np.all(np.delete(tree.S, k) > 0.0)
    r = 1e-3 * R
    Z = tree.centre[k] + 0.5 * tree.rho[k] * np.exp(1j * TWO_PI * np.arange(16) / 16)
    gap = np.abs(Z[:, None] - np.delete(tree.centre, k)) - np.delete(tree.rho, k)
    Z = Z[np.all(gap > 2 * r / R, axis=1)]
    assert len(Z) > 0
    spread = idle.stream_spread(body.centroid + R * Z, r)
    assert np.all(np.isfinite(spread))


@BODIES_512
def test_truncation_matches_full_order(body, monkeypatch):
    # every expansion at the order of its chunk's nearest point that uses
    # it against the order at the closest allowed separation, KAPPA radii
    R, c = body.circumradius, body.centroid
    rng = np.random.default_rng(7)
    z = c + R * (rng.uniform(-4, 4, 20000) + 1j * rng.uniform(-4, 4, 20000))
    tree = panel_solve(body, FarField(1.0, 1.3), 512).flow._clusters
    # one ulp either side of KAPPA R from the centroid and of KAPPA rho_C
    # from each cluster centre, in units of the body, then out to z
    ring = np.exp(1j * np.pi * (np.arange(8) + 0.3) / 4)
    switch = [c + R * (centre[:, None] + np.nextafter(KAPPA * rho, side)[:, None] * ring)
              for centre, rho in ((np.zeros(1), np.ones(1)), (tree.centre, tree.rho))
              for side in (0.0, np.inf)]
    z = np.concatenate([z, *(a.ravel() for a in switch),
                        c + R * np.array([10.0, 100.0j])])
    z = z[~body.occupies(z, 1e-9 * R)]

    def fields():
        flow = panel_solve(body, FarField(1.0, 1.3), 512).flow
        return flow, flow.stream(z), flow.velocity(z)

    flow, psi, w = fields()
    # a chunk reads its nearest point's order, so a far value depends on its
    # batch: farfield_fit's probe set, 64 points on each of 10, 20 and 40 R,
    # in one call and ring by ring
    rings = R * np.array([10.0, 20.0, 40.0])[:, None] * np.exp(1j * TWO_PI * np.arange(64) / 64)
    for field, tol in ((flow.stream, 2e-13 * R), (flow.velocity, 2e-13)):
        by_ring = np.concatenate([field(ring) for ring in rings])
        assert np.max(np.abs(field(rings.ravel()) - by_ring)) <= tol
    monkeypatch.setattr(incompressible._Expansion, "order", lambda self, t: (
        np.broadcast_to(self.top, np.broadcast_shapes(np.shape(t), self.top.shape))))
    _, full_psi, full_w = fields()
    assert np.max(np.abs(psi - full_psi)) <= 2e-13 * R
    assert np.max(np.abs(w - full_w)) <= 2e-13


def test_stream_memory_on_a_field_grid():
    # the sign census's default grid, 400**2 points at +-4R around the
    # 512-panel plate: the body expansion runs in chunks, not over every
    # far point at once
    body = FlatPlate(4.0, np.pi / 6)
    flow = panel_solve(body, FarField(1.0, 1.3), 512).flow
    x = 4.0 * body.circumradius * np.linspace(-1.0, 1.0, 400)
    z = body.centroid + x[None, :] + 1j * x[:, None]
    tracemalloc.start()
    try:
        flow.stream(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


@pytest.mark.parametrize("body", [FlatPlate(4.0, np.pi / 6), Circle(1.0)],
                         ids=["plate", "circle"])
def test_velocity_memory_near_the_body(body):
    # 32 panels make two clusters, each near 8845 of the plate's points
    # and 20058 of the circle's: w takes a cluster's near points in chunks
    # of TREE_PAIRS // CLUSTER (4.3 and 4.8 MiB measured), not all at once
    flow = panel_solve(body, FarField(1.0, 1.3), 32).flow
    x = 1.5 * body.circumradius * np.linspace(-1.0, 1.0, 200)
    z = body.centroid + x[None, :] + 1j * x[:, None]
    z = z[~body.occupies(z, 1e-12 * body.circumradius)]
    flow.velocity(z[:1])  # the expansions, built once per flow
    tracemalloc.start()
    try:
        flow.velocity(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


# ---------------------------------------------------------------------------
# the memo of the last assembled panel system


def cold_gamma(body, far, n_panels):
    incompressible._assemble.cache_clear()
    return panel_solve(body, far, n_panels).flow.gamma


class TestSystemMemo:
    def test_reuse_is_bitwise_a_cold_solve(self):
        runs = [(SQUARE, FarField(1.0, 0.0)), (SQUARE, FarField(0.7 - 0.2j, 2.5)),
                (TRIANGLE, FarField(1.3, -1.0)), (TRIANGLE, FarField(1.0, 0.4)),
                (SQUARE, FarField(2.0, 4.0))]
        warm = []
        for body, far in runs:
            warm.append(panel_solve(body, far, 96).flow.gamma)
            assert incompressible._assemble.cache_info().currsize == 1
        for (body, far), g in zip(runs, warm):
            assert np.array_equal(g, cold_gamma(body, far, 96))

    @pytest.mark.parametrize("body", [SQUARE, FlatPlate(4.0, np.pi / 6), Circle(1.0)],
                             ids=["square", "plate", "circle"])
    def test_superposition_to_round_off(self, body):
        g0, g1 = (panel_solve(body, FarField(1.0, gam), 256).flow.gamma
                  for gam in (0.0, 1.0))
        for gam in (0.35, -2.5, 7.0):
            g = panel_solve(body, FarField(1.0, gam), 256).flow.gamma
            assert np.max(np.abs(g - (g0 + gam * (g1 - g0)))) <= 1e-13 * np.max(np.abs(g))

    def test_cached_arrays_refuse_writes(self):
        sol = panel_solve(TRIANGLE, FarField(1.0, 0.5), 96)
        system = incompressible._assemble(TRIANGLE, 96, 1.0)
        assert sol.flow.nodes is system.nodes
        for arr in (system.nodes, system.basis, system.residual, system.circulation):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_failures_leave_the_next_solve_correct(self, monkeypatch):
        far = FarField(1.0, 1.0)
        expected = cold_gamma(SQUARE, far, 96)
        # the tangency check fails after a good assembly
        with pytest.raises(SolverError, match="tol_slip"):
            panel_solve(SCALENE, FarField(1.0, 0.0), 96)
        assert np.array_equal(panel_solve(SQUARE, far, 96).flow.gamma, expected)
        # the assembly itself fails
        with pytest.raises(InvalidGeometryError):
            panel_solve(TRIANGLE, far, 12)
        assert incompressible._assemble.cache_info().currsize == 0
        assert np.array_equal(panel_solve(SQUARE, far, 96).flow.gamma, expected)
        monkeypatch.setattr(Circle, "panel_nodes",
                            lambda self, n, cluster: (np.array([0j, 0j, 1.0, 1j]), True))
        with pytest.raises(SolverError, match="degenerate"):
            panel_solve(Circle(2.0), far, 4)
        monkeypatch.undo()
        assert incompressible._assemble.cache_info().currsize == 0
        assert np.array_equal(panel_solve(SQUARE, far, 96).flow.gamma, expected)
        assert incompressible._assemble.cache_info().currsize == 1


def direct_solve(body, far, n_panels):
    """Strengths and residual from an LU solve of the square system at this
    free stream and Gamma, on the nodes in units of the body, where the
    circulation row reads Gamma / R, and its exact 1-norm condition number."""
    nodes, closed = body.panel_nodes(n_panels)
    R = body.circumradius
    rows, rhs = incompressible._system_rows((nodes - body.centroid) / R, closed)
    b = rhs @ np.array([far.w_inf.real, far.w_inf.imag, far.circulation / R])
    M = rows[:len(nodes)]
    g = np.linalg.solve(M, b[:len(nodes)])
    return g, np.max(np.abs(rows @ g - b)), np.linalg.cond(M, 1)


FAST_BODIES = {"circle": Circle(1.0), "plate": FlatPlate(4.0, np.pi / 6),
               "triangle": TRIANGLE, "square": SQUARE}


class TestSuperposedSolve:
    @pytest.mark.parametrize("far", [FarField(0.8 - 0.6j, 0.0), FarField(1e-8, 0.0),
                                     FarField(1.0, 2.5), FarField(0.6 + 0.3j, -1.2),
                                     FarField(1e-8j, 3e-8)],
                             ids=["complex", "tiny", "gamma", "complex_gamma", "tiny_gamma"])
    @pytest.mark.parametrize("name", FAST_BODIES)
    def test_matches_direct_solve(self, name, far):
        body = FAST_BODIES[name]
        sol = panel_solve(body, far, 256)
        g, residual, cond = direct_solve(body, far, 256)
        assert np.max(np.abs(sol.flow.gamma - g)) <= 1e-12 * np.max(np.abs(g))
        assert abs(sol.residual_norm - residual) <= 1e-12 * abs(far.w_inf)
        # the estimate is a lower bound of kappa_1, exact where the Gamma
        # column is M^-1's largest (0.961 and 0.959 of it on the polygons)
        if name in ("circle", "plate"):
            assert sol.condition_number == pytest.approx(cond, rel=1e-12)
        else:
            assert 0.9 * cond <= sol.condition_number <= cond * (1 + 1e-12)

    @pytest.mark.parametrize("n_panels", [256, 1024])
    @pytest.mark.parametrize("height", [1e-5, 1e-6])
    def test_condition_estimate_on_thin_triangles(self, height, n_panels):
        # kappa_1 of 7.5e7 to 2.2e10, where the 1e13 gate reads the estimate
        body = Polygon([(0.0, 0.0), (1.0, 0.0), (0.5, height)])
        incompressible._assemble.cache_clear()
        estimate = incompressible._assemble(body, n_panels, 1.0).cond
        nodes, closed = body.panel_nodes(n_panels)
        rows, _ = incompressible._system_rows(
            (nodes - body.centroid) / body.circumradius, closed)
        cond = np.linalg.cond(rows[:len(nodes)], 1)
        assert 0.99 * cond <= estimate <= cond * (1 + 1e-12)

    def test_assembly_holds_no_inverse(self):
        # the rows and one working copy of the square system (2.0 n^2
        # doubles measured); an n x n inverse beside them made 3.0 n^2
        body, n_nodes = FlatPlate(4.0, np.pi / 6), 513
        incompressible._assemble.cache_clear()
        tracemalloc.start()
        try:
            incompressible._assemble(body, 512, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n_nodes**2 * 8

    @pytest.mark.parametrize("scale", [1e14, np.nan])
    def test_ill_conditioned_system_raises(self, monkeypatch, scale):
        solve = np.linalg.solve
        incompressible._assemble.cache_clear()
        monkeypatch.setattr(np.linalg, "solve", lambda M, b: scale * solve(M, b))
        with pytest.raises(SolverError, match="condition number") as err:
            panel_solve(TRIANGLE, FarField(1.0, 0.5), 96)
        assert not err.value.condition_number <= 1e13
        assert incompressible._assemble.cache_info().currsize == 0


@pytest.mark.parametrize("name", FAST_BODIES)
def test_least_panel_count(name):
    # one count per body kind, read by the solver and the config check alike
    body, far = FAST_BODIES[name], FarField(1.0, 0.5)
    least = body.min_panels
    assert KEYS["solver.n_panels"].least(body) == least
    with pytest.raises(InvalidGeometryError, match=f"{least - 1} panels"):
        panel_solve(body, far, least - 1)
    assert panel_solve(body, far, least).residual_norm <= TOL_SLIP


def test_plate30_contour_invariants(tmp_path):
    # every contour of the bundled Kutta plate lies in the far field
    assert run("plate30.json", tmp_path,
               ['analyses=["circulation", "farfield", "forces"]']) == 0
    s = json.loads((tmp_path / "summary.json").read_text())
    gamma = s["flow"]["gamma"]
    scale = s["flow"]["w_inf"] * 0.5 * s["body"]["chord"]
    for entry in s["circulation"]:
        assert entry["circulation"] == pytest.approx(gamma, rel=1e-12)
        assert abs(entry["mass_flux"]) <= 1e-12 * scale
    assert abs(s["farfield"]["re_c1"]) <= 1e-12 * scale
    assert abs(s["forces"]["drag"]) <= 1e-12 * scale
    assert s["forces"]["lift"] == pytest.approx(
        s["forces"]["kutta_joukowsky_lift"], rel=1e-12)


@pytest.mark.parametrize("name", ["plate30", "triangle_census"])
def test_kutta_scenarios_scale_with_w_inf(tmp_path, name):
    # the Gamma = 0 and Gamma = |w_inf| R solves scale with w_inf, so the
    # slip check holds and the root scales exactly at any |w_inf|
    roots = []
    for w_inf in (1.0, 1e-8):
        out = tmp_path / str(w_inf)
        assert run(f"{name}.json", out, [f"flow.w_inf={w_inf}",
                                         "output.sign_resolution=100"]) == 0
        roots.append(json.loads((out / "summary.json").read_text())["kutta"]["gamma_star"])
    assert roots[1] == pytest.approx(1e-8 * roots[0], rel=1e-9)
