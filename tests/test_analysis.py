"""Corner fits, contour integrals, far-field fits, censuses."""

import dataclasses
import math
import tracemalloc
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from cornerflow import analysis, incompressible
from cornerflow.analysis import (circulation, contour_integral, farfield_fit,
                                 fit_corner, sign_attainment, sign_component_census)
from cornerflow.errors import (DegenerateKuttaError, FitQualityError,
                               FluidDomainError)
from cornerflow.geometry import Circle, CircleContour, Corner, FlatPlate, Polygon
from cornerflow.incompressible import (FarField, corner_census, exact_flow,
                                       kutta_solve, panel_solve)
from oracles import affine_corner, kutta_circulation, swept_least_singular_count

TWO_PI = 2 * np.pi
TRIANGLE = Polygon([(1.0, 0.0), (-0.5, np.sqrt(3) / 2), (-0.5, -np.sqrt(3) / 2)])
SQUARE = Polygon([(0.5, -0.5), (0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5)])
L_SHAPE = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
HEXAGON = Polygon([(1.3 * np.cos(t), 1.3 * np.sin(t))
                   for t in np.linspace(0.0, 2 * np.pi, 7)[:-1] + 0.3])
# windows about the centroid, in circumradii, on which body.near is
# tested: the sign census's square, 20:1, 1:20, off-centre, and one whose
# edge cuts the body
MASK_WINDOWS = [((-4, 4), (-4, 4)), ((-8, 8), (-0.4, 0.4)),
                ((-0.4, 0.4), (-8, 8)), ((-0.5, 6), (-1.5, 5)),
                ((0.1, 4), (-2, 2))]


def dense_boundary(body, s):
    """Boundary points at most s apart along the boundary, ends and
    vertices included."""
    if body.kind == "circle":
        n = int(np.ceil(TWO_PI * body.radius / s))
        return body.radius * np.exp(1j * TWO_PI * np.arange(n) / n)
    ends = ([body.leading_edge, body.trailing_edge] if body.kind == "flat_plate"
            else list(body.vertices) + [body.vertices[0]])
    return np.concatenate([a + np.linspace(0.0, 1.0, int(np.ceil(abs(b - a) / s)) + 1)
                           * (b - a) for a, b in zip(ends, ends[1:])])


def whole_grid_census(flow, resolution):
    """(bounded positive, bounded negative) by the census's whole-grid
    form on the body's window, +-4R about the centroid: every cell's psi
    evaluated at once, NaN off the fluid."""
    body = flow.body
    c, R = body.centroid, body.circumradius
    tol = 1e-6 * flow.far.speed_scale(R) * R
    xs = np.linspace(c.real - 4 * R, c.real + 4 * R, resolution)
    ys = np.linspace(c.imag - 4 * R, c.imag + 4 * R, resolution)
    Z = xs[None, :] + 1j * ys[:, None]
    psi = np.full(Z.shape, np.nan)
    fluid = ~body.near(Z, 1.5 * (8 * R) / resolution)
    psi[fluid] = flow.stream(Z[fluid])
    return tuple(analysis._bounded_components(fluid & (sign * psi > tol))
                 for sign in (+1, -1))


# a flow about each body and the finest census it runs in the block test
# (a panel flow's 400**2 census takes 0.25 s, four of them a second)
CENSUS_FLOWS = {
    "plate": (lambda: exact_flow(FlatPlate(4.0, np.pi / 6), FarField(1.0, -1.0)), 400),
    "circle": (lambda: exact_flow(Circle(1.0), FarField(1.0, 3.0)), 400),
    "triangle": (lambda: panel_solve(TRIANGLE, FarField(1.0, 0.5), 48).flow, 41),
    # no L-shape panel flow meets TOL_SLIP: a uniform stream through it
    "L-shape": (lambda: SimpleNamespace(body=L_SHAPE, far=FarField(1.0, 0.0),
                                        stream=lambda z, **_: z.imag), 400),
}


@lru_cache(maxsize=None)
def bundled_flow(name):
    """The panel flow of a bundled scenario that runs the sign census, as
    the CLI solves it: its Kutta root first where it names a corner."""
    if name == "circle":
        return panel_solve(Circle(1.0), FarField(1.0, TWO_PI), 256).flow
    body, n_panels = {"plate30": (FlatPlate(4.0, np.deg2rad(30.0)), 512),
                      "triangle_census": (TRIANGLE, 256)}[name]
    root = kutta_solve(body, 1.0, 0, n_panels).root
    return panel_solve(body, FarField(1.0, root), n_panels).flow


# an equilateral triangle of circumradius 1.85 about (-0.65, 4.74): at
# resolution 400 its rounded window edges made the census cell a rounding
# error wider than 0.02R, so rounding decided its resolution check
TRANSLATED_TRIANGLE = [(1.195991934414244, 4.741861932592554),
                       (-1.5737826838299909, 6.3409920540304565),
                       (-1.5737826838299909, 3.1427318111546523)]


def wedge_corner(beta, wall_angle=0.0):
    d0 = complex(np.exp(1j * wall_angle))
    d1 = complex(np.exp(1j * (wall_angle + beta)))
    if abs(beta - TWO_PI) < 1e-12:
        d1 = d0
    return Corner(vertex=0j, exterior_angle_beta=beta, side_directions=(d0, d1),
                  corner_id=0)


@dataclass
class SyntheticWedgeFlow:
    """psi = Im sum_k a_k z**(k pi / beta); walls along theta = 0, beta.

    Powers use the branch with arg z in [0, 2 pi) measured from the wall,
    so the field is single-valued across the whole wedge.
    """

    beta: float
    coeffs: tuple
    far: FarField = FarField(1.0, 0.0)
    # only the length scale R = 1 of the fits' noise floors is read
    body = SimpleNamespace(circumradius=1.0)

    def _power(self, z, p):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        th = np.mod(np.angle(z), TWO_PI)
        return r**p * np.exp(1j * p * th)

    def stream(self, z):
        return np.imag(sum(a * self._power(z, k * np.pi / self.beta)
                           for k, a in enumerate(self.coeffs, start=1)))

    def velocity(self, z):
        return sum((k * np.pi / self.beta) * a
                   * self._power(z, k * np.pi / self.beta - 1.0)
                   for k, a in enumerate(self.coeffs, start=1))


class TestFitCorner:
    def test_single_mode_recovery(self):
        beta = 1.5 * np.pi
        flow = SyntheticWedgeFlow(beta, (1.0,))
        rep = fit_corner(flow, wedge_corner(beta))
        assert rep.a1 == pytest.approx(1.0, rel=1e-10)
        assert rep.fitted_exponent == pytest.approx(np.pi / beta - 1.0, abs=1e-6)
        assert rep.singular

    @pytest.mark.parametrize("beta", [1.25 * np.pi, 1.5 * np.pi,
                                      1.75 * np.pi, 2.0 * np.pi])
    def test_exponent_recovery_two_modes(self, beta):
        flow = SyntheticWedgeFlow(beta, (0.7, -0.4))
        rep = fit_corner(flow, wedge_corner(beta))
        assert rep.a1 == pytest.approx(0.7, rel=1e-6)
        assert rep.fitted_exponent == pytest.approx(np.pi / beta - 1.0, abs=5e-3)

    def test_regular_corner_not_singular(self):
        beta = 1.5 * np.pi
        flow = SyntheticWedgeFlow(beta, (0.0, 1.0))
        rep = fit_corner(flow, wedge_corner(beta))
        assert abs(rep.a1) < 1e-12
        assert not rep.singular
        assert rep.sign_attainment == "both"

    @pytest.mark.parametrize("make", [
        lambda s: exact_flow(FlatPlate(4.0 * s, np.pi / 6), FarField(1.0, 0.0)),
        # the Kutta root scales with the plate to the bit (TestCornerCensus)
        lambda s: panel_solve(FlatPlate(4.0 * s, np.pi / 6), FarField(
            1.0, s * kutta_solve(FlatPlate(4.0, np.pi / 6), 1.0, 0, 512).root),
            512).flow,
        lambda s: panel_solve(Polygon([s * v for v in TRIANGLE.vertices]),
                              FarField(1.0, 0.0), 256).flow],
        ids=["plate-exact", "plate-kutta-512", "triangle-256"])
    def test_fit_scales_with_the_body_to_the_bit(self, make):
        # a1 and its singular test are in units of psi, the exponent fit
        # in r / R and |w| / V: a body scaled by 2**k reads the unit fit,
        # a1 and its uncertainty scaled by 2**(k (1 - pi / beta)) once.
        # At 2**600 the fit raised LinAlgError; at 2**-600 the plate's
        # leading edge read -0.4557 against -0.4945
        unit = make(1.0)
        for k in (600, -600):
            scale = 2.0**k
            flow = make(scale)
            for corner, scaled in zip(unit.body.corners, flow.body.corners):
                e, f = fit_corner(unit, corner), fit_corner(flow, scaled)
                for field in ("fitted_exponent", "singular", "sign_attainment",
                              "beta"):
                    assert getattr(f, field) == getattr(e, field)
                length = scale ** (1.0 - np.pi / e.beta)
                for field in ("a1", "a1_uncertainty"):
                    assert getattr(f, field) == pytest.approx(
                        getattr(e, field) * length, rel=1e-15, abs=0.0)

    def test_exact_plate_exponent_does_not_depend_on_the_units(self):
        # the 30-degree plate at Gamma = 0 reads one exponent at any chord
        # and any free stream, where the fit read 0.0 at chord 4e100
        # (x = r**(pi/beta) in physical lengths), -0.4207 at 4e-100 and
        # 0.0 at w_inf = 1e-305 (|w| floored at 1e-300)
        def leading(chord, w_inf):
            plate = FlatPlate(chord, np.pi / 6)
            flow = exact_flow(plate, FarField(w_inf, 0.0))
            return fit_corner(flow, plate.corners[1]).fitted_exponent

        unit = leading(4.0, 1.0)
        assert unit == pytest.approx(-0.4832, abs=1e-4)
        for chord, w_inf in [(4e100, 1.0), (4e-100, 1.0), (4e300, 1.0),
                             (4e-300, 1.0), (4.0, 1e-305), (4.0, 1e300)]:
            assert leading(chord, w_inf) == pytest.approx(unit, abs=1e-12)

    def test_plate_alpha_zero_both_corners_regular(self):
        flow = exact_flow(FlatPlate(4.0, 0.0), FarField(1.0, 0.0))
        for corner in flow.body.corners:
            rep = fit_corner(flow, corner)
            assert abs(rep.a1) < 1e-10
            assert not rep.singular

    def test_kutta_plate_trailing_regular_leading_singular(self):
        alpha = np.pi / 6
        gstar = kutta_circulation(exact_flow(FlatPlate(4.0, alpha), FarField(1.0, 0.0)), 0)
        flow = exact_flow(FlatPlate(4.0, alpha), FarField(1.0, gstar))
        trailing = fit_corner(flow, flow.body.corners[0])
        leading = fit_corner(flow, flow.body.corners[1])
        assert not trailing.singular
        assert leading.singular
        assert leading.fitted_exponent == pytest.approx(-0.5, abs=0.05)


@pytest.mark.parametrize("alpha_deg", [10.0, 30.0])
def test_exact_plate_root_matches_kutta_oracle(alpha_deg):
    # straight walls out to the clearance: the ring projection is exact
    plate = FlatPlate(4.0, np.deg2rad(alpha_deg))
    (e,) = affine_corner(exact_flow(plate, FarField(1.0, 0.0)),
                         exact_flow(plate, FarField(1.0, 2.0)), [plate.corners[0]])
    oracle = -np.pi * 4.0 * np.sin(np.deg2rad(alpha_deg))
    assert abs(e.root - oracle) <= 1e-12 * abs(oracle)


def test_triangle_root_uncertainty_covers_error():
    # exact roots of the side-sqrt(3) triangle from its exterior map,
    # (3 sqrt(3) / 4 pi) Gamma(1/3)^3 = 7.949874376284527 at corners 1, 2
    root = 3 * math.sqrt(3) / (4 * math.pi) * math.gamma(1 / 3)**3
    exact = {0: 0.0, 1: root, 2: -root}
    census = corner_census(TRIANGLE, 1.0, n_panels=256)
    for e in census.corners:
        err = abs(e.root - exact[e.corner_id])
        assert err <= e.root_uncertainty <= 10.0 * err


def test_root_does_not_depend_on_second_circulation():
    plate = FlatPlate(4.0, np.pi / 6)
    flow0 = panel_solve(plate, FarField(1.0, 0.0), 512).flow
    e1, e2 = (affine_corner(flow0,
                            panel_solve(plate, FarField(1.0, g1), 512).flow,
                            [plate.corners[0]])[0] for g1 in (1.0, 2.0))
    assert e2.root == pytest.approx(e1.root, rel=1e-9)
    assert e2.root_uncertainty == pytest.approx(e1.root_uncertainty, rel=1e-9)


class TestSignAttainment:
    def test_leading_mode_is_one_signed(self):
        # k = 1 mode: sin(pi theta / beta) keeps one sign over the wedge
        beta = 1.5 * np.pi
        flow = SyntheticWedgeFlow(beta, (1.0,))
        assert sign_attainment(flow, wedge_corner(beta), 0.1) == "positive_only"
        flow_neg = SyntheticWedgeFlow(beta, (-1.0,))
        assert sign_attainment(flow_neg, wedge_corner(beta), 0.1) == "negative_only"

    def test_second_mode_attains_both(self):
        beta = 1.5 * np.pi
        flow = SyntheticWedgeFlow(beta, (0.0, 1.0))
        assert sign_attainment(flow, wedge_corner(beta), 0.1) == "both"

    def test_kutta_regularized_trailing_edge_both(self):
        alpha = np.pi / 6
        gstar = kutta_circulation(exact_flow(FlatPlate(4.0, alpha), FarField(1.0, 0.0)), 0)
        flow = exact_flow(FlatPlate(4.0, alpha), FarField(1.0, gstar))
        assert sign_attainment(flow, flow.body.corners[0], 0.05) == "both"

    def test_uniform_flow_past_horizontal_plate_both(self):
        flow = exact_flow(FlatPlate(4.0, 0.0), FarField(1.0, 0.0))
        for corner in flow.body.corners:
            assert sign_attainment(flow, corner, 0.1) == "both"

    def test_three_rings_in_one_stream_call(self):
        # and fit_corner makes three flow calls per corner: the a1 rings,
        # the exponent ladder and the sign rings
        flow = exact_flow(FlatPlate(4.0, np.pi / 6), FarField(1.0, 0.0))
        calls = []

        class Counting:
            body, far = flow.body, flow.far

            def stream(self, z):
                calls.append(("stream", np.shape(z)))
                return flow.stream(z)

            def velocity(self, z):
                calls.append(("velocity", np.shape(z)))
                return flow.velocity(z)

        corner = flow.body.corners[1]
        assert sign_attainment(Counting(), corner, 0.05) == "positive_only"
        assert calls == [("stream", (3, 64))]
        calls.clear()
        fit_corner(Counting(), corner)
        assert [name for name, _ in calls] == ["stream", "velocity", "stream"]


class TestContourIntegrals:
    def test_circle_circulation_residue(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, TWO_PI))
        got = circulation(flow, CircleContour(0j, 2.0, 1024))
        assert got == pytest.approx(TWO_PI, abs=1e-10)

    def test_zero_circulation(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, 0.0))
        assert abs(circulation(flow, CircleContour(0j, 3.0, 1024))) < 1e-12

    def test_panel_contour_independence(self):
        sol = panel_solve(SQUARE, FarField(1.0, 1.0), 128)
        g2 = circulation(sol.flow, CircleContour(0j, 2.0, 2048))
        g20 = circulation(sol.flow, CircleContour(0j, 20.0, 2048))
        assert abs(g2 - g20) < 1e-6

    def test_mass_flux_zero(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, TWO_PI))
        assert abs(contour_integral(flow, CircleContour(0j, 3.0, 1024)).imag) < 1e-10

    def test_uniform_flow_zero_flux(self):
        flow = exact_flow(FlatPlate(4.0, 0.0), FarField(1.0, 0.0))  # exactly uniform
        assert abs(contour_integral(flow, CircleContour(0j, 8.0, 1024)).imag) < 1e-10

    def test_panel_triangle_flux_small(self):
        sol = panel_solve(TRIANGLE, FarField(1.0, 1.0), 128)
        contour = CircleContour(0j, 5.0, 2048)
        flux = contour_integral(sol.flow, contour).imag
        assert abs(flux) < 1e-6 * 1.0 * (TWO_PI * 5.0)

    def test_contour_through_body_rejected(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, 0.0))
        with pytest.raises(FluidDomainError):
            circulation(flow, CircleContour(0j, 0.5, 256))


class TestFarFieldFit:
    def test_circle_with_circulation(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, TWO_PI))
        fit = farfield_fit(flow)
        assert fit.c0 == pytest.approx(1.0 + 0j, abs=1e-10)
        assert fit.c1 == pytest.approx(-1j, abs=1e-10)
        assert fit.gamma_estimate == pytest.approx(TWO_PI, rel=1e-9)
        assert abs(fit.re_c1) < 1e-10

    def test_uniform_flow(self):
        flow = exact_flow(FlatPlate(4.0, 0.0), FarField(1.0, 0.0))
        fit = farfield_fit(flow)
        assert fit.c0 == pytest.approx(1.0 + 0j, abs=1e-12)
        assert abs(fit.c1) < 1e-12

    def test_panel_square_gamma(self):
        sol = panel_solve(SQUARE, FarField(1.0, 1.0), 128)
        fit = farfield_fit(sol.flow)
        assert fit.gamma_estimate == pytest.approx(1.0, abs=1e-4)
        assert abs(fit.re_c1) < 1e-6

    def test_circulation_dominated_flow(self):
        # a slow stream past a unit-speed vortex: the residual is held to
        # the slip gate's speed scale V = 1, not to |w_inf| = 1e-13
        sol = panel_solve(Circle(1.0), FarField(1e-13, TWO_PI), 256)
        fit = farfield_fit(sol.flow)
        assert fit.residual <= 1e-12
        assert fit.gamma_estimate == pytest.approx(TWO_PI, rel=1e-9)

    def test_a_term_beyond_the_fit_is_refused(self):
        # 10/z**3 lies outside {1, 1/z, 1/z**2}: the residual is its size
        # on the inner circle, 1e-2 at r = 10R, against 1e-3 V
        flow = SimpleNamespace(body=Circle(1.0), far=FarField(1.0),
                               velocity=lambda z: 1.0 + 10.0 / z**3)
        with pytest.raises(FitQualityError, match="far-field fit residual 0.01 "):
            farfield_fit(flow)


class TestAffinity:
    def test_a1_affine_in_gamma(self):
        corner = TRIANGLE.corners[1]
        a1 = {}
        for gam in (0.0, 0.5, 1.0):
            flow = panel_solve(TRIANGLE, FarField(1.0, gam), 192).flow
            a1[gam] = fit_corner(flow, corner).a1
        midpoint_dev = abs(a1[0.5] - 0.5 * (a1[0.0] + a1[1.0]))
        assert midpoint_dev < 0.01 * abs(a1[1.0] - a1[0.0])


class TestCornerCensus:
    def test_needs_two_protruding_corners(self):
        with pytest.raises(FluidDomainError, match="at least two protruding corners"):
            corner_census(Circle(1.0), 1.0, 64)

    def test_triangle_census(self):
        census = corner_census(TRIANGLE, 1.0, n_panels=192)
        roots = [e.root for e in census.corners]
        assert len(set(np.round(roots, 3))) == 3  # pairwise distinct
        assert census.min_singular_count >= 2     # >= n-1 of 3 at any gamma
        assert census.min_singular_count == swept_least_singular_count(
            TRIANGLE, census, 1.0)
        assert not census.regularizes_all_somewhere
        assert census.coincident_pairs == ()

    def test_square_census(self):
        census = corner_census(SQUARE, 1.0, n_panels=160)
        assert census.min_singular_count >= 2     # >= n-2 of 4
        assert census.min_singular_count == swept_least_singular_count(
            SQUARE, census, 1.0)
        assert not census.regularizes_all_somewhere

    def test_census_consistency_at_roots(self):
        census = corner_census(TRIANGLE, 1.0, n_panels=192)
        delta = 0.1 * 1.0 * TRIANGLE.circumradius
        for e in census.corners:
            scale = 1e-3 * 1.0 * TRIANGLE.circumradius ** (
                1 - np.pi / (5 * np.pi / 3))
            at_root = abs(e.a1_at_zero + e.slope * e.root)
            off_root = min(abs(e.a1_at_zero + e.slope * (e.root + delta)),
                           abs(e.a1_at_zero + e.slope * (e.root - delta)))
            assert at_root < scale
            assert off_root > scale

    def test_roots_match_kutta_solve(self):
        # both read one line off the system's unit columns: one entry, to the bit
        census = corner_census(TRIANGLE, 1.0, n_panels=192)
        for e in census.corners:
            assert kutta_solve(TRIANGLE, 1.0, e.corner_id, n_panels=192) == e

    @pytest.mark.parametrize("body, n_panels", [
        (TRIANGLE, 192), (FlatPlate(4.0, np.pi / 6), 256), (HEXAGON, 512)],
        ids=["triangle", "plate", "hexagon"])
    def test_batched_affine_corner_matches_one_corner_calls(self, body, n_panels):
        # one stream call per flow over every corner's rings takes other
        # treecode chunks than one call per corner; the lines agree, and
        # the root uncertainty, a difference of two roots, to the roots'
        # scale |w_inf| R
        R = body.circumradius
        flow0 = panel_solve(body, FarField(1.0, 0.0), n_panels).flow
        flow1 = panel_solve(body, FarField(1.0, R), n_panels).flow
        corners = [c for c in body.corners if c.protruding]
        batched = affine_corner(flow0, flow1, corners)
        assert [e.corner_id for e in batched] == [c.corner_id for c in corners]
        for e, corner in zip(batched, corners):
            (one,) = affine_corner(flow0, flow1, [corner])
            for field in ("root", "slope", "a1_at_zero"):
                assert getattr(e, field) == pytest.approx(getattr(one, field), rel=1e-12)
            assert abs(e.root_uncertainty - one.root_uncertainty) <= 1e-12 * R

    def test_kutta_and_census_read_one_functional_build(self, monkeypatch):
        # a Kutta root and a census of one body each solve the flows at
        # Gamma = 0 and Gamma_1 through the slip gate, then read their lines
        # off the system's unit columns: one functional build per system,
        # no stream call and no cluster expansion
        builds, solves, streams, expansions = [], [], [], []
        psi_rows, solve = incompressible._psi_rows, incompressible.panel_solve
        stream, expansion = incompressible.PanelFlow.stream, incompressible._expansion

        def count_builds(z, nodes, closed, columns):
            builds.append(len(z))
            return psi_rows(z, nodes, closed, columns)

        def count_solves(body, far, n_panels, cluster=1.0):
            solves.append(far.circulation)
            return solve(body, far, n_panels, cluster)

        def count_streams(flow, z):
            streams.append(flow.far.circulation)
            return stream(flow, z)

        def count_expansions(*args):
            expansions.append(args[0].shape)
            return expansion(*args)

        monkeypatch.setattr(incompressible, "_psi_rows", count_builds)
        monkeypatch.setattr(incompressible, "panel_solve", count_solves)
        monkeypatch.setattr(incompressible.PanelFlow, "stream", count_streams)
        monkeypatch.setattr(incompressible, "_expansion", count_expansions)
        incompressible._assemble.cache_clear()
        entry = kutta_solve(HEXAGON, 1.0, 2, n_panels=256)
        census = corner_census(HEXAGON, 1.0, n_panels=256)
        R = HEXAGON.circumradius
        # the rings of all six corners and the body level, in one build
        assert builds == [6 * 2 * analysis.RING_NODES + 1]
        assert solves == [0.0, R, 0.0, R]
        assert streams == [] and expansions == []
        assert census.corners[2] == entry
        # another system builds its own
        kutta_solve(HEXAGON, 1.0, 2, n_panels=128)
        assert len(builds) == 2

    @pytest.mark.parametrize("w_inf", [1.0, 1.2 * np.exp(0.4j)], ids=["real", "tilted"])
    @pytest.mark.parametrize("body, n_panels", [
        (FlatPlate(4.0, np.pi / 6), 512), (TRIANGLE, 192), (SQUARE, 160),
        (HEXAGON, 256)], ids=["plate", "triangle", "square", "hexagon"])
    def test_functional_entries_match_the_flow_path(self, body, n_panels, w_inf):
        # every Kutta and census entry read off the unit columns against
        # affine_corner on the two gated flows, projected through the
        # treecode: each root within its own root_uncertainty, and polygon
        # roots to 1e-9 relative
        gamma1 = abs(w_inf) * body.circumradius
        corners = [c for c in body.corners if c.protruding]
        flow0 = panel_solve(body, FarField(w_inf, 0.0), n_panels).flow
        flow1 = panel_solve(body, FarField(w_inf, gamma1), n_panels).flow
        flows = affine_corner(flow0, flow1, corners)
        kutta = tuple(kutta_solve(body, w_inf, c.corner_id, n_panels) for c in corners)
        assert corner_census(body, w_inf, n_panels).corners == kutta
        for e, f in zip(kutta, flows):
            assert e.corner_id == f.corner_id
            assert abs(e.root - f.root) <= f.root_uncertainty
            if not isinstance(body, FlatPlate):
                assert abs(e.root - f.root) <= 1e-9 * abs(f.root)

    def test_unresponsive_corner_raises_only_when_asked(self, monkeypatch):
        # corner 0's Gamma column reads 0; a Kutta root at corner 1 is found
        ring_a1 = analysis._ring_a1

        def deaf_corner_0(stream, corners, R):
            a1 = ring_a1(stream, corners, R)
            a1[2, [c.corner_id for c in corners].index(0)] = 0.0
            return a1

        monkeypatch.setattr(analysis, "_ring_a1", deaf_corner_0)
        incompressible._assemble.cache_clear()
        try:
            assert kutta_solve(TRIANGLE, 1.0, 1, n_panels=96).corner_id == 1
            for ask in (lambda: kutta_solve(TRIANGLE, 1.0, 0, n_panels=96),
                        lambda: corner_census(TRIANGLE, 1.0, n_panels=96)):
                with pytest.raises(DegenerateKuttaError, match="corner 0"):
                    ask()
        finally:  # the kept system holds the doctored columns
            incompressible._assemble.cache_clear()

    @pytest.mark.parametrize("body, n_panels, representation", [
        (TRIANGLE, 256, "panel"), (FlatPlate(4.0, np.pi / 6), 512, "panel"),
        (FlatPlate(4.0, np.pi / 6), 512, "exact")],
        ids=["triangle", "plate", "plate-exact"])
    def test_roots_scale_with_the_free_stream_to_the_bit(self, body, n_panels,
                                                         representation):
        # in slope form a1(0) scales with w_inf and the slope does not, so
        # w_inf -> 2**k w_inf scales every root, a1(0) and root_uncertainty
        # by 2**k exactly, out to the ends of the float range
        unit = corner_census(body, 1.0, n_panels, representation=representation)
        for k in (900, -900):
            scale = 2.0 ** k
            census = corner_census(body, scale, n_panels,
                                   representation=representation)
            for e, f in zip(unit.corners, census.corners):
                assert f == dataclasses.replace(
                    e, root=scale * e.root, a1_at_zero=scale * e.a1_at_zero,
                    root_uncertainty=scale * e.root_uncertainty)
                assert kutta_solve(body, scale, e.corner_id, n_panels,
                                   representation) == f

    @pytest.mark.parametrize("scale, shift, tol", [
        (1e150, 0, 5e-13), (1e-150, 0, 5e-13), (2.0**400, 0, 0.0),
        (2.0**-400, 0, 0.0), (1.0, 3 - 2j, 5e-13), (1e150, 3 - 2j, 5e-13)],
        ids=["1e150", "1e-150", "2**400", "2**-400", "shift", "shift-1e150"])
    def test_census_verdict_does_not_depend_on_the_body_size(self, scale, shift, tol):
        # the polygon's centroid and orientation are formed in a power-of-two
        # frame: at 1e150 the centroid was NaN and the panel system refused
        # its condition number.  The panel layer works on (z - c) / R and the
        # ring projections on r / R, so roots scale with the body, moved by
        # shift and then scaled, to tol |w_inf| R: exactly at 2**+-400, where
        # the unit frame holds the same nodes (8.9e-16 off while a1 was
        # divided by r**(pi/beta)); 1.4e-13 and 2.0e-14 at 1e+-150 and
        # 8.8e-14 and 9.5e-14 shifted (6.4e-13 to 2.7e-12 in physical lengths)
        unit = corner_census(TRIANGLE, 1.0, 256)
        census = corner_census(
            Polygon([scale * (v + shift) for v in TRIANGLE.vertices]), 1.0, 256)
        for field in ("sweep_singular_counts", "min_singular_count",
                      "regularizes_all_somewhere", "coincident_pairs"):
            assert getattr(census, field) == getattr(unit, field)
        for e, f in zip(unit.corners, census.corners):
            assert abs(f.root / scale - e.root) <= tol * TRIANGLE.circumradius

    @pytest.mark.parametrize("k", [600, -600])
    def test_kutta_root_scales_with_the_plate_to_the_bit(self, k):
        # every length of the 30-degree plate at chord 4 * 2**k is chord 4's
        # times 2**k, and its panel system solves in units of R: the root
        # is chord 4's times 2**k exactly (3.1e-13 and 1.4e-13 relative off
        # in physical lengths)
        unit = kutta_solve(FlatPlate(4.0, np.pi / 6), 1.0, 0, 512)
        scaled = kutta_solve(FlatPlate(4.0 * 2.0**k, np.pi / 6), 1.0, 0, 512)
        assert scaled.root == 2.0**k * unit.root

    def test_census_verdict_does_not_depend_on_the_scale(self):
        # at 2**-600 the roots, sweep and thresholds all scale by 2**-600:
        # the counts and the verdict are those at w_inf = 1
        unit = corner_census(TRIANGLE, 1.0, 256)
        tiny = corner_census(TRIANGLE, 2.0 ** -600, 256)
        assert tiny.sweep_gammas == tuple(2.0 ** -600 * g for g in unit.sweep_gammas)
        for field in ("sweep_singular_counts", "min_singular_count",
                      "regularizes_all_somewhere", "coincident_pairs"):
            assert getattr(tiny, field) == getattr(unit, field)
        assert not tiny.regularizes_all_somewhere and tiny.coincident_pairs == ()

    def test_census_of_a_flow_at_rest(self):
        # every root is 0: all pairs coincide, and the sweep spans the
        # margin at the unit scale, as every |w_inf|-relative threshold does
        census = corner_census(TRIANGLE, 0.0, 96)
        assert [e.root for e in census.corners] == [0.0, 0.0, 0.0]
        assert census.coincident_pairs == ((0, 1), (0, 2), (1, 2))
        assert census.regularizes_all_somewhere
        assert census.min_singular_count == 0 == swept_least_singular_count(
            TRIANGLE, census, 0.0)
        R = TRIANGLE.circumradius
        assert census.sweep_gammas[0] == pytest.approx(-0.1 * R, rel=1e-15)
        assert census.sweep_gammas[-1] == pytest.approx(0.1 * R, rel=1e-15)

    def test_affine_corner_rejects_unresponsive_a1(self):
        # the same flow twice has Gamma_1 = 0: no line, never a 0 / 0 slope
        flow = panel_solve(TRIANGLE, FarField(1.0, 0.0), 96).flow
        with pytest.raises(DegenerateKuttaError):
            affine_corner(flow, flow, [TRIANGLE.corners[0]])

    def test_plate_census_min_one_singular(self):
        # two distinct edge roots: regularizing one edge leaves the other
        census = corner_census(FlatPlate(4.0, np.pi / 6), 1.0, n_panels=256)
        roots = sorted(e.root for e in census.corners)
        assert roots[1] - roots[0] > 1.0
        assert census.min_singular_count >= 1
        assert not census.regularizes_all_somewhere

    @pytest.mark.parametrize("representation", ["panel", "exact"])
    def test_plate_census_least_count_is_one(self, representation):
        # the two edges' regular intervals are disjoint: one edge is
        # regular at its root, which no node of the 33-point sweep hits
        plate = FlatPlate(4.0, np.pi / 6)
        census = corner_census(plate, 1.0, 256, representation=representation)
        assert census.min_singular_count == 1 == swept_least_singular_count(
            plate, census, 1.0)

    @pytest.mark.parametrize("n, scale, rotation, centre, n_panels, least", [
        *((n, 1.0, rotation, (0.0, 0.0), 256, n - 1 - (rotation == 0 and n % 2 == 0))
          for n in (3, 4, 5, 6) for rotation in (0.0, 0.1, 0.37)),
        # the regular polygons of the corner_census benchmark at seed 1
        (3, 1.0583596926711754, 5.086994462712799,
         (-1.2413121222840244, -0.6988718181898292), 256, 2),
        (4, 2.633891455300524, 1.5042998101158243,
         (1.3780867154154004, -0.9042222316871444), 512, 3),
        (5, 0.6612128274281779, 4.471050216573144,
         (-0.30532920305670475, 0.7675471746608737), 512, 4),
        (6, 2.315132747304826, 5.2816057645257874,
         (-0.8510084651297989, 0.3073749463163278), 256, 5)])
    def test_regular_polygon_least_count(self, n, scale, rotation, centre,
                                         n_panels, least):
        # distinct roots leave n - 1 corners singular at every Gamma; the
        # square and the hexagon with a vertex on the stream axis have
        # roots that coincide in pairs, n - 2
        body = Polygon([(centre[0] + scale * np.cos(t), centre[1] + scale * np.sin(t))
                        for t in rotation + 2 * np.pi * np.arange(n) / n])
        census = corner_census(body, 1.0, n_panels)
        assert census.min_singular_count == least == swept_least_singular_count(
            body, census, 1.0)
        assert not census.regularizes_all_somewhere


class TestSignComponentCensus:
    def test_uniform_flow(self):
        flow = exact_flow(FlatPlate(4.0, 0.0), FarField(1.0, 0.0))
        census = sign_component_census(flow, resolution=200)
        assert census.bounded_positive == 0
        assert census.bounded_negative == 0

    def test_circle_no_bounded_components(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, 0.0))
        census = sign_component_census(flow, resolution=200)
        assert census.bounded_positive == 0
        assert census.bounded_negative == 0

    def test_panel_triangle_at_kutta_root(self):
        root = kutta_solve(TRIANGLE, 1.0, 0, n_panels=192).root
        flow = panel_solve(TRIANGLE, FarField(1.0, root), 192).flow
        census = sign_component_census(flow, resolution=200)
        assert census.bounded_positive == 0
        assert census.bounded_negative == 0
        # regularized corner sees both signs close by
        assert sign_attainment(flow, TRIANGLE.corners[0], 0.05) == "both"

    @pytest.mark.parametrize("scale", [None, 2.0**-40, 2.0**40],
                             ids=["translated", "centred-tiny", "centred-huge"])
    def test_census_cell_is_a_body_square_side(self, monkeypatch, scale):
        # a cell is 8R/resolution wherever the body lies and whatever its
        # size: the pad is 1.5 cells, and inconclusive holds exactly below
        # resolution 400; the flag reads no psi, so a uniform stream does
        body = Polygon(TRANSLATED_TRIANGLE)
        if scale is not None:  # the same triangle, centred and scaled
            c = body.centroid
            body = Polygon([(scale * (x - c.real), scale * (y - c.imag))
                            for x, y in TRANSLATED_TRIANGLE])
        flow = SimpleNamespace(body=body, far=FarField(1.0, 0.5),
                               stream=lambda z, **_: z.imag - body.centroid.imag)
        near, pads = Polygon.near, set()
        monkeypatch.setattr(Polygon, "near", lambda body, z, pad:
                            pads.add(pad) or near(body, z, pad))
        for resolution in (399, 400, 1000):
            pads.clear()
            census = sign_component_census(flow, resolution)
            assert pads == {1.5 * (8 * body.circumradius) / resolution}
            assert census.inconclusive is (resolution < 400)

    def test_bounded_components_match_ndimage_label(self):
        ndimage = pytest.importorskip("scipy.ndimage")

        def reference(cells):
            labels, n = ndimage.label(cells)
            edge = np.unique(np.concatenate([
                labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]]))
            return n - np.count_nonzero(edge)

        rng = np.random.default_rng(7)
        masks = [rng.random(rng.integers(1, 60, 2)) < rng.random()
                 for _ in range(300)]
        masks += [rng.random(shape) < 0.5 for shape in [(1, 40), (40, 1)]]
        masks += [np.zeros((30, 20), bool), np.ones((30, 20), bool)]
        masks += [rng.random((200, 200)) < p for p in (0.3, 0.5, 0.6)]
        for cells in masks:
            assert analysis._bounded_components(cells) == reference(cells)

    @pytest.mark.parametrize("rows, expected", [
        # diagonal neighbours are not 4-connected
        (["......",
          ".#.#..",
          "..#...",
          "......"], 3),
        # a ring around a hole holding an island
        ([".........",
          ".#######.",
          ".#.....#.",
          ".#.....#.",
          ".#..#..#.",
          ".#.....#.",
          ".#.....#.",
          ".#######.",
          "........."], 2),
        # the same ring touching the edge leaves the island bounded
        (["#######..",
          "#.....#..",
          "#.....#..",
          "#..#..#..",
          "#.....#..",
          "#.....#..",
          "#######..",
          ".........",
          "........."], 1),
        # a U touching the edge
        ([".#...#.",
          ".#...#.",
          ".#...#.",
          ".#####.",
          "......."], 0),
        # an upside-down U: one run joins two runs below it
        ([".......",
          ".#####.",
          ".#...#.",
          ".#...#.",
          "......."], 1),
    ], ids=["diagonal", "ring-island", "ring-on-edge", "U-on-edge",
            "arch"])
    def test_bounded_components_hand_built(self, rows, expected):
        cells = np.array([[c == "#" for c in row] for row in rows])
        assert analysis._bounded_components(cells) == expected

    @pytest.mark.parametrize("body", [FlatPlate(4.0, np.pi / 6), Circle(1.0),
                                      TRIANGLE, L_SHAPE],
                             ids=["plate", "circle", "triangle", "L-shape"])
    def test_near_is_bracketed_by_dense_boundary_samples(self, body):
        # the distance to samples s apart along the boundary exceeds the
        # exact distance by at most s/2, so on cells outside the body
        # dense <= pad => near => dense <= pad + s/2; inside, near holds
        c, R = body.centroid, body.circumradius
        s, eps = 0.01 * R, 1e-12 * R
        bnd = dense_boundary(body, s)
        for (x0, x1), (y0, y1) in MASK_WINDOWS:
            for resolution in (2, 3, 41, 400):
                xs = c.real + R * np.linspace(x0, x1, resolution)
                ys = c.imag + R * np.linspace(y0, y1, resolution)
                Z = xs[None, :] + 1j * ys[:, None]
                pad = 1.5 * (xs[-1] - xs[0]) / resolution
                near, inside = body.near(Z, pad), body.contains(Z)
                dense = np.full(Z.shape, np.inf)
                reach = np.abs(Z - c) <= R + pad + s
                z = Z[reach]
                dense[reach] = np.concatenate([
                    np.min(np.abs(part[:, None] - bnd), axis=-1)
                    for part in np.array_split(z, 1 + len(z) // 500)])
                assert np.all(near[inside])
                assert np.all(near[~inside & (dense <= pad - eps)])
                assert np.all(dense[~inside & near] <= pad + s / 2 + eps)
                if resolution == 400:
                    assert 0 < np.count_nonzero(near) < near.size

    @pytest.mark.parametrize("name", ["plate", "circle", "triangle", "L-shape"])
    def test_blocked_census_equals_whole_grid(self, monkeypatch, name):
        # blocks of one row, of seven rows and the whole grid count what
        # one whole-grid evaluation counts on the body's window: on a
        # checkerboard stream with many bounded components, and on a flow
        # about the body up to its finest resolution.  The checkerboard
        # takes the values -2, -1, 0, 1 and 2 times the noise floor, which
        # stays unsigned
        make, finest = CENSUS_FLOWS[name]
        flow = make()
        R = flow.body.circumradius
        tol = 1e-6 * abs(flow.far.w_inf) * R
        checkers = SimpleNamespace(body=flow.body, far=flow.far, stream=lambda z, **_: tol
                                   * np.round(2 * np.sin(5 * z.real / R)
                                              * np.sin(5 * z.imag / R)))
        counted = 0
        for resolution, f in product((3, 41, 400), (flow, checkers)):
            if f is flow and resolution > finest:
                continue
            expected = whole_grid_census(f, resolution)
            counted += sum(expected)
            for rows in (1, 7, resolution):
                monkeypatch.setattr(analysis, "GRID_BLOCK", rows * resolution)
                census = sign_component_census(f, resolution)
                assert census.grid_shape == (resolution, resolution)
                assert (census.bounded_positive,
                        census.bounded_negative) == expected
        assert counted > 20

    def test_census_memory_is_two_sign_masks(self):
        # the bundled plate30 flow at resolution 1000: the two bool masks
        # are grid-sized, each block's coordinates and psi are not
        flow = bundled_flow("plate30")
        flow.stream(np.array([3.0 + 3.0j]))  # the flow's expansions, built once
        tracemalloc.start()
        try:
            census = sign_component_census(flow, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (census.bounded_positive, census.bounded_negative) == (0, 0)
        assert peak <= 2 * 1000**2 + 16e6

    def test_second_pass_is_the_doubt_band_at_far_tol(self, monkeypatch):
        # the bundled plate30 flow at 400**2: each block is evaluated at one
        # cell's accuracy, then exactly its cells within 2 tol V R of +-floor
        # at FAR_TOL; every other cell's first-pass sign is its FAR_TOL sign
        flow = bundled_flow("plate30")
        R = flow.body.circumradius
        V = flow.far.speed_scale(R)
        floor = 1e-6 * V * R
        stream, calls = incompressible.PanelFlow.stream, []

        def record(self, z, tol=incompressible.FAR_TOL):
            psi = stream(self, z, tol)
            calls.append((z, tol, psi.copy()))  # the census rewrites psi
            return psi

        monkeypatch.setattr(incompressible.PanelFlow, "stream", record)
        sign_component_census(flow, 400)
        first, second = calls[::2], calls[1::2]
        assert len(first) == len(second) == -(-400 // (analysis.GRID_BLOCK // 400))
        doubted = 0
        for (z, tol, psi), (again, full_tol, _) in zip(first, second):
            assert tol == 8 / 400 and full_tol == incompressible.FAR_TOL
            band = np.abs(np.abs(psi) - floor) <= 2 * tol * V * R
            assert np.array_equal(again, z[band])
            full = stream(flow, z)
            for sign in (+1, -1):
                assert np.array_equal((sign * psi > floor)[~band],
                                      (sign * full > floor)[~band])
            doubted += len(again)
        # about 1.3 % of the fluid cells at this resolution
        assert 0 < doubted < 0.02 * sum(len(z) for z, _, _ in first)

    @pytest.mark.parametrize("name", ["circle", "plate30", "triangle_census"])
    def test_two_pass_census_counts_the_whole_grid(self, name):
        # at 1000**2, the finest census Tier-1 runs on each bundled flow
        flow = bundled_flow(name)
        census = sign_component_census(flow, 1000)
        assert (census.bounded_positive, census.bounded_negative) == \
            whole_grid_census(flow, 1000)

    def test_body_mask_memory_on_a_wide_window(self):
        # 20:1 at 2000**2 cells: the grid-sized test of which cells lie
        # within R + pad of the centroid (Z - c and its modulus, 1.5 grids)
        # sets the peak; the side distances see only those cells
        c, R = L_SHAPE.centroid, L_SHAPE.circumradius
        xs = c.real + R * np.linspace(-10.0, 10.0, 2000)
        ys = c.imag + R * np.linspace(-0.5, 0.5, 2000)
        Z = xs[None, :] + 1j * ys[:, None]
        tracemalloc.start()
        try:
            mask = L_SHAPE.near(Z, 1.5 * (xs[-1] - xs[0]) / 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(mask) > 0
        assert peak <= 1.5 * Z.nbytes + 16e6
