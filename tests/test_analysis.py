"""Corner fits, contour integrals, far-field fits, censuses."""

import tracemalloc
from dataclasses import dataclass
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from cornerflow import analysis
from cornerflow.analysis import (affine_corner, circulation, corner_census,
                                 farfield_fit, fit_corner, mass_flux,
                                 sign_attainment, sign_component_census)
from cornerflow.errors import (DegenerateKuttaError, FitQualityError,
                               FluidDomainError)
from cornerflow.geometry import Circle, CircleContour, Corner, FlatPlate, Polygon
from cornerflow.incompressible import (FarField, exact_flow, kutta_solve,
                                       panel_solve)

TWO_PI = 2 * np.pi
TRIANGLE = Polygon([(1.0, 0.0), (-0.5, np.sqrt(3) / 2), (-0.5, -np.sqrt(3) / 2)])
SQUARE = Polygon([(0.5, -0.5), (0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5)])
L_SHAPE = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
# sign-census windows about the centroid, in circumradii: square, 20:1,
# 1:20, off-centre, and one whose edge cuts the body
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


def whole_grid_census(flow, window, resolution):
    """(bounded positive, bounded negative) by the census's whole-grid
    form: every cell's psi evaluated at once, NaN off the fluid."""
    (x0, x1), (y0, y1) = window
    body = flow.body
    tol = 1e-6 * (abs(flow.far.w_inf) or 1.0) * body.circumradius
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    Z = xs[None, :] + 1j * ys[:, None]
    psi = np.full(Z.shape, np.nan)
    fluid = ~body.near(Z, 1.5 * max(x1 - x0, y1 - y0) / resolution)
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
                                        stream=lambda z: z.imag), 400),
}


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
        rep = fit_corner(flow, wedge_corner(beta), radii=np.geomspace(0.01, 0.1, 6))
        assert rep.a1_estimate == pytest.approx(1.0, rel=1e-10)
        assert rep.fitted_exponent == pytest.approx(np.pi / beta - 1.0, abs=1e-6)
        assert rep.singular

    @pytest.mark.parametrize("beta", [1.25 * np.pi, 1.5 * np.pi,
                                      1.75 * np.pi, 2.0 * np.pi])
    def test_exponent_recovery_two_modes(self, beta):
        flow = SyntheticWedgeFlow(beta, (0.7, -0.4))
        rep = fit_corner(flow, wedge_corner(beta),
                         radii=np.geomspace(0.01, 0.1, 6))
        assert rep.a1_estimate == pytest.approx(0.7, rel=1e-6)
        assert rep.fitted_exponent == pytest.approx(np.pi / beta - 1.0, abs=5e-3)

    def test_regular_corner_not_singular(self):
        beta = 1.5 * np.pi
        flow = SyntheticWedgeFlow(beta, (0.0, 1.0))
        rep = fit_corner(flow, wedge_corner(beta),
                         radii=np.geomspace(0.01, 0.1, 6))
        assert abs(rep.a1_estimate) < 1e-12
        assert not rep.singular
        assert rep.sign_attainment == "both"

    def test_requires_decade_of_radii(self):
        flow = SyntheticWedgeFlow(1.5 * np.pi, (1.0,))
        with pytest.raises(FitQualityError):
            fit_corner(flow, wedge_corner(1.5 * np.pi),
                       radii=[0.05, 0.07, 0.1])

    def test_plate_alpha_zero_both_corners_regular(self):
        flow = exact_flow(FlatPlate(4.0, 0.0), FarField(1.0, 0.0))
        for corner in flow.body.corners:
            rep = fit_corner(flow, corner)
            assert abs(rep.a1_estimate) < 1e-10
            assert not rep.singular

    def test_kutta_plate_trailing_regular_leading_singular(self):
        alpha = np.pi / 6
        gstar = exact_flow(FlatPlate(4.0, alpha), FarField(1.0, 0.0)).kutta_circulation(0)
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
    e = affine_corner(exact_flow(plate, FarField(1.0, 0.0)),
                      exact_flow(plate, FarField(1.0, 2.0)), plate.corners[0])
    oracle = -np.pi * 4.0 * np.sin(np.deg2rad(alpha_deg))
    assert abs(e.root - oracle) <= 1e-12 * abs(oracle)


def test_triangle_root_uncertainty_covers_error():
    # exact roots of the side-sqrt(3) triangle from its exterior map
    exact = {0: 0.0, 1: 7.9498744, 2: -7.9498744}
    census = corner_census(TRIANGLE, 1.0, n_panels=256)
    for e in census.corners:
        err = abs(e.root - exact[e.corner_id])
        assert err <= e.root_uncertainty <= 10.0 * err


def test_root_does_not_depend_on_second_circulation():
    plate = FlatPlate(4.0, np.pi / 6)
    flow0 = panel_solve(plate, FarField(1.0, 0.0), 512).flow
    e1, e2 = (affine_corner(flow0,
                            panel_solve(plate, FarField(1.0, g1), 512).flow,
                            plate.corners[0]) for g1 in (1.0, 2.0))
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
        gstar = exact_flow(FlatPlate(4.0, alpha), FarField(1.0, 0.0)).kutta_circulation(0)
        flow = exact_flow(FlatPlate(4.0, alpha), FarField(1.0, gstar))
        assert sign_attainment(flow, flow.body.corners[0], 0.05) == "both"

    def test_uniform_flow_past_horizontal_plate_both(self):
        flow = exact_flow(FlatPlate(4.0, 0.0), FarField(1.0, 0.0))
        for corner in flow.body.corners:
            assert sign_attainment(flow, corner, 0.1) == "both"


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
        assert abs(mass_flux(flow, CircleContour(0j, 3.0, 1024))) < 1e-10

    def test_uniform_flow_zero_flux(self):
        flow = exact_flow(FlatPlate(4.0, 0.0), FarField(1.0, 0.0))  # exactly uniform
        assert abs(mass_flux(flow, CircleContour(0j, 8.0, 1024))) < 1e-10

    def test_panel_triangle_flux_small(self):
        sol = panel_solve(TRIANGLE, FarField(1.0, 1.0), 128)
        contour = CircleContour(0j, 5.0, 2048)
        flux = mass_flux(sol.flow, contour)
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

    def test_radii_too_small_rejected(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, 0.0))
        with pytest.raises(FluidDomainError):
            farfield_fit(flow, r_list=[2.0, 3.0])


class TestAffinity:
    def test_a1_affine_in_gamma(self):
        corner = TRIANGLE.corners[1]
        a1 = {}
        for gam in (0.0, 0.5, 1.0):
            flow = panel_solve(TRIANGLE, FarField(1.0, gam), 192).flow
            a1[gam] = fit_corner(flow, corner).a1_estimate
        midpoint_dev = abs(a1[0.5] - 0.5 * (a1[0.0] + a1[1.0]))
        assert midpoint_dev < 0.01 * abs(a1[1.0] - a1[0.0])


class TestCornerCensus:
    def test_triangle_census(self):
        census = corner_census(TRIANGLE, 1.0, n_panels=192)
        roots = [e.root for e in census.corners]
        assert len(set(np.round(roots, 3))) == 3  # pairwise distinct
        assert census.min_singular_count >= 2     # >= n-1 of 3 at any gamma
        assert not census.regularizes_all_somewhere
        assert census.coincident_pairs == ()

    def test_square_census(self):
        census = corner_census(SQUARE, 1.0, n_panels=160)
        assert census.min_singular_count >= 2     # >= n-2 of 4
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
        # both run affine_corner on the same two flows: one entry, to the bit
        census = corner_census(TRIANGLE, 1.0, n_panels=192)
        for e in census.corners:
            assert kutta_solve(TRIANGLE, 1.0, e.corner_id, n_panels=192) == e

    def test_affine_corner_rejects_unresponsive_a1(self):
        # the same flow twice has slope 0: no root, never an infinite one
        flow = panel_solve(TRIANGLE, FarField(1.0, 0.0), 96).flow
        with pytest.raises(DegenerateKuttaError):
            affine_corner(flow, flow, TRIANGLE.corners[0])

    def test_plate_census_min_one_singular(self):
        # two distinct edge roots: regularizing one edge leaves the other
        census = corner_census(FlatPlate(4.0, np.pi / 6), 1.0, n_panels=256)
        roots = sorted(e.root for e in census.corners)
        assert roots[1] - roots[0] > 1.0
        assert census.min_singular_count >= 1
        assert not census.regularizes_all_somewhere


class TestSignComponentCensus:
    def test_uniform_flow(self):
        flow = exact_flow(FlatPlate(4.0, 0.0), FarField(1.0, 0.0))
        census = sign_component_census(flow, ((-8, 8), (-8, 8)), resolution=200)
        assert census.bounded_positive == 0
        assert census.bounded_negative == 0

    def test_circle_no_bounded_components(self):
        flow = exact_flow(Circle(1.0), FarField(1.0, 0.0))
        census = sign_component_census(flow, ((-4, 4), (-4, 4)), resolution=200)
        assert census.bounded_positive == 0
        assert census.bounded_negative == 0

    def test_panel_triangle_at_kutta_root(self):
        root = kutta_solve(TRIANGLE, 1.0, 0, n_panels=192).root
        flow = panel_solve(TRIANGLE, FarField(1.0, root), 192).flow
        census = sign_component_census(flow, ((-4, 4), (-4, 4)), resolution=200)
        assert census.bounded_positive == 0
        assert census.bounded_negative == 0
        # regularized corner sees both signs close by
        assert sign_attainment(flow, TRIANGLE.corners[0], 0.05) == "both"

    @pytest.mark.parametrize("window, side, inconclusive", [
        (((-3, 3), (-3, 3)), 6, False),
        # cells 0.015 wide and 0.3 tall, 0.15 R on the 4-chord plate
        (((-3, 3), (-60, 60)), 120, True),
        (((-60, 60), (-3, 3)), 120, True)])
    def test_census_cell_is_its_longer_side(self, monkeypatch, window, side,
                                            inconclusive):
        # the pad and the resolution check both take the longer side
        flow = exact_flow(FlatPlate(4.0, np.pi / 6), FarField(1.0, -1.0))
        near, pads = FlatPlate.near, set()
        monkeypatch.setattr(FlatPlate, "near", lambda body, z, pad:
                            pads.add(pad) or near(body, z, pad))
        census = sign_component_census(flow, window, resolution=400)
        assert pads == {1.5 * side / 400}
        assert census.inconclusive is inconclusive

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
        # one whole-grid evaluation counts: on a checkerboard stream with
        # many bounded components in the square and the 20:1 window, and
        # on a flow about the body in the square one, up to its finest
        # resolution.  The checkerboard takes the values -2, -1, 0, 1 and
        # 2 times the noise floor, which stays unsigned
        make, finest = CENSUS_FLOWS[name]
        flow = make()
        c, R = flow.body.centroid, flow.body.circumradius
        tol = 1e-6 * abs(flow.far.w_inf) * R
        checkers = SimpleNamespace(body=flow.body, far=flow.far, stream=lambda z: tol
                                   * np.round(2 * np.sin(5 * z.real / R)
                                              * np.sin(5 * z.imag / R)))
        counted = 0
        for ((x0, x1), (y0, y1)), flows in zip(MASK_WINDOWS[:2],
                                               [(flow, checkers), (checkers,)]):
            window = ((c.real + R * x0, c.real + R * x1),
                      (c.imag + R * y0, c.imag + R * y1))
            for resolution, f in product((3, 41, 400), flows):
                if f is flow and resolution > finest:
                    continue
                expected = whole_grid_census(f, window, resolution)
                counted += sum(expected)
                for rows in (1, 7, resolution):
                    monkeypatch.setattr(analysis, "GRID_BLOCK", rows * resolution)
                    census = sign_component_census(f, window, resolution)
                    assert census.grid_shape == (resolution, resolution)
                    assert (census.bounded_positive,
                            census.bounded_negative) == expected
        assert counted > 20

    def test_census_memory_is_two_sign_masks(self):
        # the bundled plate30 flow at resolution 1000: the two bool masks
        # are grid-sized, each block's coordinates and psi are not
        body = FlatPlate(4.0, np.deg2rad(30.0))
        root = kutta_solve(body, 1.0, 0, n_panels=512).root
        flow = panel_solve(body, FarField(1.0, root), 512).flow
        flow.stream(np.array([3.0 + 3.0j]))  # the flow's expansions, built once
        tracemalloc.start()
        try:
            census = sign_component_census(flow, ((-8, 8), (-8, 8)), 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (census.bounded_positive, census.bounded_negative) == (0, 0)
        assert peak <= 2 * 1000**2 + 16e6

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
