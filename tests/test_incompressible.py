"""Exact-flow formulas, panel solves, and the Kutta condition."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from cornerflow.analysis import circulation, mass_flux
from cornerflow.cli import KEYS, run
from cornerflow import incompressible
from cornerflow.errors import FluidDomainError, InvalidGeometryError, SolverError
from cornerflow.geometry import (Circle, CircleContour, FlatPlate, Polygon,
                                 probe_ring)
from cornerflow.incompressible import (KAPPA, TOL_SLIP, FarField, MappedFlow,
                                       exact_flow, kutta_solve, panel_solve,
                                       vortex_panel_psi_coeffs,
                                       vortex_panel_w_coeffs)

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
        assert circulation(flow, contour) == pytest.approx(TWO_PI, abs=1e-10)
        assert mass_flux(flow, contour) == pytest.approx(0.0, abs=1e-10)

    def test_zero_circulation_single_valued(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, 0.0))
        contour = CircleContour(0j, 3.0, 2048)
        assert abs(circulation(flow, contour) + 1j * mass_flux(flow, contour)) < 1e-11


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
            assert flow.kutta_circulation(0) == pytest.approx(
                -np.pi * 4.0 * np.sin(alpha), rel=1e-12)

    def test_kutta_root_gives_bounded_trailing_edge(self):
        alpha = np.pi / 6
        gstar = exact_flow(FlatPlate(4.0, alpha), FarField(1.0, 0.0)).kutta_circulation(0)
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
        assert flow.kutta_circulation(1) == pytest.approx(
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
                assert abs(turned.kutta_circulation(k) - base.kutta_circulation(k)) \
                    <= 1e-12 * w * chord

    @pytest.mark.parametrize("body, corner_id", [
        (FlatPlate(4.0, 0.3), 2), (FlatPlate(4.0, 0.3), 5),
        (FlatPlate(4.0, 0.3), -1), (Circle(1.0), 0)],
        ids=["plate-2", "plate-5", "plate-minus-1", "circle-0"])
    def test_kutta_circulation_needs_a_prevertex(self, body, corner_id):
        with pytest.raises(InvalidGeometryError):
            exact_flow(body, FarField(1.0, 0.0)).kutta_circulation(corner_id)


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
    # point, and PanelFlow._check must refuse exactly what occupies does
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
                flow._check(z)
        else:
            assert flow._check(z) is not None
    assert np.any(body.occupies(sets[1], tol))


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
        got = circulation(sol.flow, CircleContour(0j, 2.0, 2048))
        assert abs(got) < 1e-8

    def test_strengths_affine_in_circulation(self):
        g0 = panel_solve(SQUARE, FarField(1.0, 0.0), 96).gamma
        g1 = panel_solve(SQUARE, FarField(1.0, 1.0), 96).gamma
        t = 0.35
        gt = panel_solve(SQUARE, FarField(1.0, t), 96).gamma
        assert np.max(np.abs(gt - ((1 - t) * g0 + t * g1))) < 1e-10

    def test_tangency_residual_within_tolerance(self):
        # TOL_SLIP * |w_inf| = 1e-8; regular polygons stay well inside it
        # at fine resolution too
        for body, n, tol in ((Circle(1.0), 128, 1e-8), (TRIANGLE, 128, 1e-8),
                             (FlatPlate(4.0, np.pi / 6), 128, 1e-8),
                             (TRIANGLE, 1024, 1e-9), (HEXAGON, 1024, 1e-9)):
            sol = panel_solve(body, FarField(1.0, 1.0), n)
            assert sol.residual_norm <= tol

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
            kutta_solve(FlatPlate(4.0, 0.3), 1.0, 5)


# ---------------------------------------------------------------------------
# far-field evaluation: multipole expansion against the direct panel sum


def panels(flow):
    """(za, zb, node index of za, node index of zb) of every panel."""
    n = len(flow.nodes)
    ia = np.arange(n if flow.closed else n - 1)
    return flow.nodes[ia], flow.nodes[(ia + 1) % n], ia, (ia + 1) % n


def direct_sheet(flow, z, coeff_fn):
    """Vortex-sheet part of psi or w as the sum over all panels."""
    za, zb, ia, ib = panels(flow)
    acc = 0.0
    for j in range(len(za)):
        ca, cb = coeff_fn(z, za[j], zb[j])
        acc = acc + ca * flow.gamma[ia[j]] + cb * flow.gamma[ib[j]]
    return acc


def reference_sheet(flow, z, digits=40):
    """(psi, w) of the vortex sheet at the points z from the closed-form
    panel integrals at ``digits`` digits.

    On the panel zeta = a + e t, 0 <= t <= L, with strength
    g(t) = g_a + (g_b - g_a) t / L and zl = (z - a) / e:
    psi = -(1/2 pi) Re int g log(zl - t) dt and
    w = (1/2 pi i e) int g / (zl - t) dt.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        sheet = []
        for a, b, ja, jb in zip(*panels(flow)):
            a, b = mpmath.mpc(a), mpmath.mpc(b)
            L = abs(b - a)
            ga = mpmath.mpf(flow.gamma[ja])
            sheet.append((a, L, L / (b - a), ga, (mpmath.mpf(flow.gamma[jb]) - ga) / L))
        psi, w = [], []
        for zk in np.atleast_1d(z):
            zk = mpmath.mpc(zk)
            p, q = mpmath.mpf(0), mpmath.mpc(0)
            for a, L, inv_e, ga, dg in sheet:
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
    for z, zone in ((far_points(flow), "far"), (near_points(flow), "near")):
        ref_psi, ref_w = reference_sheet(flow, z)
        ref_psi += np.imag(flow.far.w_inf * z)
        ref_w += flow.far.w_inf

        def errors(psi, w):
            dpsi = (psi - psi[0]) - (ref_psi - ref_psi[0])
            return np.max(np.abs(dpsi)), np.max(np.abs(w - ref_w))

        flow_psi, flow_w = errors(flow.stream(z), flow.velocity(z))
        direct_psi, direct_w = errors(
            np.imag(flow.far.w_inf * z) + direct_sheet(flow, z, vortex_panel_psi_coeffs),
            flow.far.w_inf + direct_sheet(flow, z, vortex_panel_w_coeffs))
        print(f"{body.kind} {zone}: flow psi {flow_psi:.1e} w {flow_w:.1e}; "
              f"direct sum psi {direct_psi:.1e} w {direct_w:.1e}")
        scale = abs(flow.far.w_inf) * body.circumradius
        assert flow_psi <= 1e-13 * scale
        assert flow_w <= 1e-13 * abs(flow.far.w_inf)


def test_body_level_matches_40_digit_reference():
    # psi at the first panel's midpoint, which every stream value subtracts
    body = FlatPlate(4.0, np.pi / 6)
    flow = panel_solve(body, FarField(1.0, 1.3), 512).flow
    mid = 0.5 * (flow.nodes[0] + flow.nodes[1])
    ref = np.imag(flow.far.w_inf * mid) + reference_sheet(flow, mid)[0][0]
    assert abs(flow._psi_body - ref) <= 1e-13 * abs(flow.far.w_inf) * body.circumradius


@pytest.mark.parametrize("body", [Circle(1.0), TRIANGLE], ids=["circle", "triangle"])
def test_far_field_matches_direct_sum(body):
    # out to the corners of the default +-4R sign-census window; farther
    # out the direct sum's own cancellation error passes 1e-10 (see the
    # 40-digit reference above)
    flow = panel_solve(body, FarField(1.0, -2.0), 256).flow
    z = far_points(flow, radii=np.geomspace(1.7, 4.0 * np.sqrt(2.0), 7),
                   angles=np.linspace(0.0, 2 * np.pi, 17)[:-1] + 0.1)
    # psi differences from a point evaluated by the direct sum itself
    z0 = flow.body.centroid + 1.2 * flow.body.circumradius
    direct_psi = np.imag(flow.far.w_inf * (z - z0)) + (
        direct_sheet(flow, z, vortex_panel_psi_coeffs)
        - direct_sheet(flow, np.array([z0]), vortex_panel_psi_coeffs))
    direct_w = flow.far.w_inf + direct_sheet(flow, z, vortex_panel_w_coeffs)
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
    ca, cb = vortex_panel_w_coeffs(za + e * zl, za, zb)
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


def loop_tangency_matrix(flow):
    """Midpoint tangency rows of the flow's panels, built panel by panel."""
    za, zb, ia, ib = panels(flow)
    mids, normal = 0.5 * (za + zb), 1j * (zb - za) / np.abs(zb - za)
    A = np.zeros((len(za), len(flow.nodes)))
    for j in range(len(za)):
        ca, cb = vortex_panel_w_coeffs(mids, za[j], zb[j])
        A[:, ia[j]] += np.real(ca * normal)
        A[:, ib[j]] += np.real(cb * normal)
    return A


@pytest.mark.parametrize("body", [FlatPlate(4.0, np.pi / 6), TRIANGLE, Circle(1.0)],
                         ids=["plate", "triangle", "circle"])
def test_near_field_matches_panel_loop(body):
    # stream and velocity against the 40-digit reference, body level
    # included; the per-panel loop itself errs by up to 8e-9 on the plate
    flow = panel_solve(body, FarField(1.0, 1.3), 512).flow
    R = body.circumradius
    z = near_points(flow, radii=np.linspace(0.3, 1.55, 6), angles=6,
                    corner_radii=[1e-3])
    psi_fn, w_fn = vortex_panel_psi_coeffs, vortex_panel_w_coeffs
    w_inf, scale = flow.far.w_inf, abs(flow.far.w_inf) * R

    # stream subtracts the body level, psi at the first panel's midpoint
    mid0 = 0.5 * (flow.nodes[0] + flow.nodes[1])
    ref_psi, ref_w = reference_sheet(flow, np.append(z, mid0))
    ref_psi += np.imag(w_inf * np.append(z, mid0))
    assert np.max(np.abs(flow.stream(z) - (ref_psi[:-1] - ref_psi[-1]))) <= 1e-13 * scale
    assert np.max(np.abs(flow.velocity(z) - (w_inf + ref_w[:-1]))) <= 1e-13 * abs(w_inf)

    # on a panel (principal value) and exactly at a node, where w is
    # log-singular and only psi is defined
    on = np.array([0.5 * (flow.nodes[3] + flow.nodes[4]), flow.nodes[7]])
    assert np.max(np.abs(flow._accumulate(on, incompressible._PSI)
                         - direct_sheet(flow, on, psi_fn))) <= 1e-9 * scale
    assert np.abs(flow._accumulate(on[:1], incompressible._W)
                  - direct_sheet(flow, on[:1], w_fn))[0] <= 1e-9 * abs(w_inf)

    rows, _ = incompressible._system_rows(flow.nodes, flow.closed)
    A = np.delete(rows, len(flow.nodes) - 1, axis=0)  # drop the circulation row
    A_loop = loop_tangency_matrix(flow)
    assert np.max(np.abs(A - A_loop)) <= 1e-12 * np.max(np.abs(A_loop))


def scalar_order(S, ratio, tol, t=1.0 / KAPPA):
    """The expansion order rule of _orders for one group at the
    separation t, by search."""
    p = 0
    if not math.isfinite(S):
        return p
    while S * t**(p + 1) / (TWO_PI * (1.0 - t)) * max(1.0 / (p + 1), ratio) > tol:
        p += 1
    return p


def sheet_bounds(flow):
    """(S, R / rho, tol) of the body expansion and of the cluster
    expansions of a flow: S bounds the integral of |gamma| ds of each."""
    tree, R = flow._clusters, flow.body.circumradius
    S = np.sum(0.5 * np.abs(tree.zb - tree.za) * (np.abs(tree.ga) + np.abs(tree.gb)),
               axis=1)
    tol = incompressible.FAR_TOL * abs(flow.far.w_inf) * R
    return ((np.array([S.sum()]), np.ones(1), tol),
            (S, R / tree.rho, tol / len(S)))


BODIES_512 = pytest.mark.parametrize(
    "body", [Circle(1.0), FlatPlate(4.0, np.pi / 6), TRIANGLE],
    ids=["circle", "plate", "triangle"])


@BODIES_512
def test_orders_match_scalar_rule(body):
    flow = panel_solve(body, FarField(1.0, 1.3), 512).flow
    _, (S, R_rho, cluster_tol) = sheet_bounds(flow)
    # an overflowed S and a zero one
    S, R_rho = np.append(S, [np.inf, 0.0]), np.append(R_rho, R_rho[:2])
    for t in (1.0 / KAPPA, 0.5, 0.25, 1.0 / 16):
        # the w tail at separation t carries t R / rho
        ratio = t * R_rho
        for tol in (cluster_tol, 1e-6, 1e-17):
            want = [scalar_order(a, b, tol, t) for a, b in zip(S, ratio)]
            assert np.array_equal(incompressible._orders(S, ratio, tol, t), want)
            if t == 1.0 / KAPPA:
                assert np.array_equal(incompressible._orders(S, ratio, tol), want)
            # one group (the whole body about its centroid) as 0-d arrays
            whole = np.sum(S[:-2])
            assert incompressible._orders(whole, t, tol, t) == \
                scalar_order(whole, t, tol, t)


@BODIES_512
def test_order_lookup_never_undercuts_the_rule(body):
    # a point at separation t reads its group's order at the next
    # tabulated separation up, never below the order the rule gives at t
    flow = panel_solve(body, FarField(1.0, 1.3), 512).flow
    steps = np.arange(incompressible.SEPARATIONS + 1) / incompressible.SEPARATIONS
    t = np.concatenate([1.0 / np.random.default_rng(5).uniform(KAPPA, 400.0, 100),
                        steps / KAPPA, [1.0 / KAPPA, 0.0]])
    for exp, (S, R_rho, tol) in zip((flow._expansion, flow._clusters),
                                    sheet_bounds(flow)):
        read = exp.orders[:, incompressible._order_index(t)]
        for g in range(len(S)):
            want = [scalar_order(S[g], tk * R_rho[g], tol, tk) for tk in t]
            assert np.all(read[g] >= want)
            # at a tabulated separation the table holds the rule's own order
            assert np.array_equal(read[g, 100:-2], want[100:-2])


@BODIES_512
def test_truncation_matches_full_order(body, monkeypatch):
    # every point and cluster at its own separation's order against the
    # order at the closest allowed separation, KAPPA radii
    R, c = body.circumradius, body.centroid
    rng = np.random.default_rng(7)
    z = c + R * (rng.uniform(-4, 4, 20000) + 1j * rng.uniform(-4, 4, 20000))
    tree = panel_solve(body, FarField(1.0, 1.3), 512).flow._clusters
    # one ulp either side of KAPPA R from the centroid and of KAPPA rho_C
    # from each cluster centre
    ring = np.exp(1j * np.pi * (np.arange(8) + 0.3) / 4)
    switch = [centre[:, None] + np.nextafter(KAPPA * rho, side)[:, None] * ring
              for centre, rho in ((np.array([c]), np.array([R])), (tree.centre, tree.rho))
              for side in (0.0, np.inf)]
    z = np.concatenate([z, *(a.ravel() for a in switch),
                        c + R * np.array([10.0, 100.0j])])
    z = z[~body.occupies(z, 1e-9 * R)]

    def fields():
        flow = panel_solve(body, FarField(1.0, 1.3), 512).flow
        return flow.stream(z), flow.velocity(z)

    psi, w = fields()
    monkeypatch.setattr(incompressible, "_order_index",
                        lambda t: np.full(np.shape(t), incompressible.SEPARATIONS))
    full_psi, full_w = fields()
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


# ---------------------------------------------------------------------------
# the memo of the last assembled panel system


def cold_gamma(body, far, n_panels):
    incompressible._assemble.cache_clear()
    return panel_solve(body, far, n_panels).gamma


class TestSystemMemo:
    def test_reuse_is_bitwise_a_cold_solve(self):
        runs = [(SQUARE, FarField(1.0, 0.0)), (SQUARE, FarField(0.7 - 0.2j, 2.5)),
                (TRIANGLE, FarField(1.3, -1.0)), (TRIANGLE, FarField(1.0, 0.4)),
                (SQUARE, FarField(2.0, 4.0))]
        warm = []
        for body, far in runs:
            warm.append(panel_solve(body, far, 96).gamma)
            assert incompressible._assemble.cache_info().currsize == 1
        for (body, far), g in zip(runs, warm):
            assert np.array_equal(g, cold_gamma(body, far, 96))

    @pytest.mark.parametrize("body", [SQUARE, FlatPlate(4.0, np.pi / 6), Circle(1.0)],
                             ids=["square", "plate", "circle"])
    def test_superposition_to_round_off(self, body):
        g0, g1 = (panel_solve(body, FarField(1.0, gam), 256).gamma
                  for gam in (0.0, 1.0))
        for gam in (0.35, -2.5, 7.0):
            g = panel_solve(body, FarField(1.0, gam), 256).gamma
            assert np.max(np.abs(g - (g0 + gam * (g1 - g0)))) <= 1e-13 * np.max(np.abs(g))

    def test_cached_arrays_refuse_writes(self):
        sol = panel_solve(TRIANGLE, FarField(1.0, 0.5), 96)
        system = incompressible._assemble(TRIANGLE, 96, 1.0)
        assert sol.nodes is system.nodes
        for arr in (system.nodes, system.basis, system.residual, system.circulation):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_failures_leave_the_next_solve_correct(self, monkeypatch):
        far = FarField(1.0, 1.0)
        expected = cold_gamma(SQUARE, far, 96)
        # the tangency check fails after a good assembly
        with pytest.raises(SolverError, match="tol_slip"):
            panel_solve(SCALENE, FarField(1.0, 0.0), 96)
        assert np.array_equal(panel_solve(SQUARE, far, 96).gamma, expected)
        # the assembly itself fails
        with pytest.raises(InvalidGeometryError):
            panel_solve(TRIANGLE, far, 12)
        assert incompressible._assemble.cache_info().currsize == 0
        assert np.array_equal(panel_solve(SQUARE, far, 96).gamma, expected)
        monkeypatch.setattr(Circle, "panel_nodes",
                            lambda self, n, cluster: (np.array([0j, 0j, 1.0, 1j]), True))
        with pytest.raises(SolverError, match="degenerate"):
            panel_solve(Circle(2.0), far, 4)
        monkeypatch.undo()
        assert incompressible._assemble.cache_info().currsize == 0
        assert np.array_equal(panel_solve(SQUARE, far, 96).gamma, expected)
        assert incompressible._assemble.cache_info().currsize == 1


def direct_solve(body, far, n_panels):
    """Strengths, residual and 1-norm condition number from an LU solve of
    the square system at this free stream and Gamma."""
    nodes, closed = body.panel_nodes(n_panels)
    rows, rhs = incompressible._system_rows(nodes, closed)
    b = rhs @ np.array([far.w_inf.real, far.w_inf.imag, far.circulation])
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
        assert np.max(np.abs(sol.gamma - g)) <= 1e-12 * np.max(np.abs(g))
        assert abs(sol.residual_norm - residual) <= 1e-12 * abs(far.w_inf)
        assert sol.condition_number == pytest.approx(cond, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e14, np.nan])
    def test_ill_conditioned_system_raises(self, monkeypatch, scale):
        inv = np.linalg.inv
        incompressible._assemble.cache_clear()
        monkeypatch.setattr(np.linalg, "inv", lambda M: scale * inv(M))
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
