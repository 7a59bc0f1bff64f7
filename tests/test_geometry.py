"""Body and corner classification tests."""

import dataclasses

import numpy as np
import pytest

from cornerflow.errors import (GeometryClipError, InvalidGeometryError,
                               UnsupportedBodyError)
from cornerflow.geometry import (Circle, CircleContour, CircleScalingMap, Corner,
                                 FlatPlate, JoukowskyPlateMap, Polygon,
                                 _segment_distance, body_from_config,
                                 classify_corners, probe_ring)
from oracles import local_polar

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
TRIANGLE = [(1.0, 0.0), (-0.5, np.sqrt(3) / 2), (-0.5, -np.sqrt(3) / 2)]


class TestClassifyCorners:
    def test_unit_square(self):
        corners = classify_corners(SQUARE)
        assert len(corners) == 4
        for c in corners:
            assert c.exterior_angle_beta == pytest.approx(1.5 * np.pi, abs=1e-12)
            assert c.protruding

    def test_equilateral_triangle(self):
        corners = classify_corners(TRIANGLE)
        assert len(corners) == 3
        for c in corners:
            assert c.exterior_angle_beta == pytest.approx(5 * np.pi / 3, abs=1e-12)

    def test_nonconvex_polygon_has_receding_corner(self):
        # L-shape: the reentrant vertex recedes (beta < pi)
        lshape = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
        corners = classify_corners(lshape)
        betas = [c.exterior_angle_beta for c in corners]
        assert sum(b > np.pi for b in betas) == 5
        assert sum(b < np.pi for b in betas) == 1
        assert not corners[3].protruding

    def test_side_directions_span_beta(self):
        for c in classify_corners(TRIANGLE):
            d0, d1 = c.side_directions
            swept = np.mod(np.angle(d1 / d0), 2 * np.pi)
            assert swept == pytest.approx(c.exterior_angle_beta, abs=1e-12)

    def test_interior_angle_sum(self):
        rng = np.random.default_rng(7)
        for n in (3, 5, 8, 12):
            # star-perturbed convex polygon stays simple
            th = np.sort(rng.uniform(0, 2 * np.pi, n))
            while np.min(np.diff(th)) < 0.15:
                th = np.sort(rng.uniform(0, 2 * np.pi, n))
            r = rng.uniform(0.6, 1.4, n)
            verts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
            corners = classify_corners(verts)
            interior = sum(2 * np.pi - c.exterior_angle_beta for c in corners)
            assert interior == pytest.approx((n - 2) * np.pi, abs=1e-10)

    def test_rigid_motion_invariance(self):
        rot = np.exp(1j * 0.7343)
        shift = 2.1 - 0.3j
        base = classify_corners(TRIANGLE)
        moved = classify_corners(
            [((x + 1j * y) * rot + shift) for x, y in TRIANGLE])
        for a, b in zip(base, moved):
            assert b.exterior_angle_beta == pytest.approx(
                a.exterior_angle_beta, abs=1e-12)

    def test_rejects_clockwise(self):
        with pytest.raises(InvalidGeometryError):
            classify_corners(list(reversed(SQUARE)))

    def test_rejects_self_intersection(self):
        # counterclockwise (signed area +4), so only the crossing refuses it;
        # a bowtie has area 0 and is refused as clockwise
        pentagon = [(0, 0), (4, 0), (4, 3), (1, -1), (0, 3)]
        with pytest.raises(InvalidGeometryError, match="self-intersects"):
            classify_corners(pentagon)

    def test_rejects_vertices_that_are_no_pairs(self):
        with pytest.raises(InvalidGeometryError, match=r"an \(n, 2\) array"):
            classify_corners(np.zeros((4, 3)))

    def test_rejects_repeated_vertices(self):
        with pytest.raises(InvalidGeometryError):
            classify_corners([(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_rejects_collinear_adjacent(self):
        with pytest.raises(InvalidGeometryError):
            classify_corners([(0, 0), (1, 0), (2, 0), (1, 1)])

    def test_rejects_too_few(self):
        with pytest.raises(InvalidGeometryError):
            classify_corners([(0, 0), (1, 0)])


class TestCorner:
    def test_accepts_a_wedge(self):
        corner = Corner(0j, 1.5 * np.pi, (1.0 + 0j, -1j))
        assert corner.protruding

    @pytest.mark.parametrize("beta, sides, message", [
        (0.0, (1.0, 1.0), "outside"),
        (2.5 * np.pi, (1.0, 1j), "outside"),
        (np.pi, (1.0, -1.0), "is not a corner"),
        (1.5 * np.pi, (2.0, -2j), "unit length"),
        (1.5 * np.pi, (1.0, 1j), "!= beta"),
    ], ids=["zero", "above-2pi", "straight", "not-unit", "other-angle"])
    def test_refuses_an_inconsistent_wedge(self, beta, sides, message):
        with pytest.raises(InvalidGeometryError, match=message):
            Corner(0j, beta, tuple(complex(d) for d in sides))


class TestBodies:
    @pytest.mark.parametrize("make, message", [
        (lambda: Circle(0.0), "radius must be positive"),
        (lambda: Circle(-1.0), "radius must be positive"),
        (lambda: FlatPlate(0.0, 0.0), "chord must be positive"),
        (lambda: FlatPlate(-4.0, 0.5), "chord must be positive"),
    ], ids=["circle-0", "circle-negative", "plate-0", "plate-negative"])
    def test_refuses_a_non_positive_size(self, make, message):
        with pytest.raises(InvalidGeometryError, match=message):
            make()

    def test_body_from_config_refuses_an_unknown_kind(self):
        with pytest.raises(UnsupportedBodyError, match="unknown body kind 'square'"):
            body_from_config({"kind": "square", "side": 1.0})

    def test_flat_plate_two_corners(self):
        plate = FlatPlate(chord=4.0, alpha=np.pi / 6)
        assert len(plate.corners) == 2
        for c in plate.corners:
            assert c.exterior_angle_beta == pytest.approx(2 * np.pi)
            assert c.protruding
        assert plate.trailing_edge == pytest.approx(2.0 * np.exp(-1j * np.pi / 6))
        assert abs(plate.trailing_edge - plate.leading_edge) == pytest.approx(4.0)

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 2.0**400, 2.0**-400,
                                       1e103, 1e-162],
                             ids=["1e150", "1e-150", "2**400", "2**-400",
                                  "1e103", "1e-162"])
    def test_polygon_at_any_scale(self, scale):
        # the centroid's sums are cubic and the orientation's quadratic in
        # the coordinates: in a power-of-two frame neither leaves float range
        # (the centroid read NaN at 1e103, and 1e-162 was refused as
        # clockwise), and a power of two scales them to the bit
        shifted = [(x, y + 0.5) for x, y in TRIANGLE]
        unit = Polygon(shifted)
        body = Polygon([(scale * x, scale * y) for x, y in shifted])
        if np.log2(scale).is_integer():
            assert body.centroid == scale * unit.centroid
            assert body.circumradius == scale * unit.circumradius
        else:
            assert abs(body.centroid / scale - unit.centroid) <= 1e-15
            assert body.circumradius / scale == pytest.approx(1.0, rel=1e-15)
        assert [c.exterior_angle_beta for c in body.corners] == pytest.approx(
            [c.exterior_angle_beta for c in unit.corners], rel=1e-15)

    def test_circle_has_no_corners(self):
        assert Circle(2.0).corners == []
        assert Circle(2.0).circumradius == 2.0

    def test_polygon_contains(self):
        sq = Polygon(SQUARE)
        assert sq.contains(0.5 + 0.5j)
        assert not sq.contains(1.5 + 0.5j)
        assert sq.circumradius == pytest.approx(np.sqrt(0.5))

    def test_plate_on_slit(self):
        plate = FlatPlate(chord=2.0, alpha=0.0)
        assert plate.on_slit(0.3 + 0j)
        assert not plate.on_slit(0.3 + 0.01j)
        assert not plate.on_slit(1.5 + 0j)


class TestConformalMaps:
    def test_circle_states_its_scaling(self):
        circle = Circle(2.5)
        cmap = circle.conformal_map
        assert isinstance(cmap, CircleScalingMap) and cmap.radius == 2.5
        assert circle.conformal_map is cmap  # built once per body

    def test_plate_states_its_joukowsky_map(self):
        plate = FlatPlate(4.0, np.pi / 6)
        cmap = plate.conformal_map
        assert isinstance(cmap, JoukowskyPlateMap)
        assert (cmap.chord, cmap.alpha) == (4.0, np.pi / 6)
        assert plate.conformal_map is cmap

    def test_polygon_has_no_map(self):
        assert Polygon(TRIANGLE).conformal_map is None

    def test_circle_map_states_no_corners(self):
        assert Circle(2.5).conformal_map.corners == ()

    @pytest.mark.parametrize("chord", [0.3, 4.0, 37.0])
    @pytest.mark.parametrize("alpha", [0.0, np.pi / 6, -1.2])
    def test_plate_map_states_its_corners(self, chord, alpha):
        # (sigma_k, |A_k|) per protruding corner, in the body's order: the
        # prevertex lands on the vertex, and z - v_k ~ A_k (sigma - sigma_k)**(beta/pi)
        # along the bisector sigma_k (1 + eps)
        plate = FlatPlate(chord, alpha)
        cmap, R = plate.conformal_map, plate.circumradius
        protruding = [c for c in plate.corners if c.protruding]
        assert len(cmap.corners) == len(protruding)
        for corner, (sigma, A) in zip(protruding, cmap.corners):
            assert abs(cmap.to_z(sigma) - corner.vertex) <= 1e-15 * R
            power = corner.exterior_angle_beta / np.pi
            for eps in (1e-3, 1e-4):
                gap = abs(cmap.to_z(sigma * (1 + eps)) - corner.vertex) / eps ** power
                assert gap == pytest.approx(A, rel=2 * eps)

    @pytest.mark.parametrize("body", [Circle(2.5), FlatPlate(4.0, np.pi / 6),
                                      Polygon(TRIANGLE)],
                             ids=["circle", "plate", "triangle"])
    def test_map_is_no_field_and_holds_no_body(self, body):
        # the panel system's cache is keyed on the body's fields
        assert "conformal_map" not in {f.name for f in dataclasses.fields(body)}
        assert not hasattr(body.conformal_map, "body")
        if body.conformal_map is not None:
            # nor are the map's corners a field of the map
            assert "corners" not in {f.name for f in dataclasses.fields(body.conformal_map)}


# (chord, alpha in degrees) of the first plate of field_maps seeds 1-3
BENCH_PLATES = [(4.476933414727785, 20.285623465613497),
                (3.2056922456686507, 16.15673107201856),
                (1.2757765876245006, 33.92451679280046)]


@pytest.mark.parametrize("chord, alpha_deg", BENCH_PLATES)
def test_plate_near_equals_the_unfiltered_distance(chord, alpha_deg):
    # the census grid (+-4R, 400 cells, pad 1.5 cells), a window whose
    # edge cuts the slit, and points at pad (1 +- 1e-15) beyond either
    # edge, where the prefilter disc R + pad touches the pad
    body = FlatPlate(chord, np.deg2rad(alpha_deg))
    R, d = body.circumradius, body.direction
    grids = []
    for (x0, x1), (y0, y1) in [((-4, 4), (-4, 4)), ((0.1, 4), (-2, 2))]:
        xs, ys = np.linspace(R * x0, R * x1, 400), np.linspace(R * y0, R * y1, 400)
        grids.append((xs[None, :] + 1j * ys[:, None], 1.5 * R * (x1 - x0) / 400))
    pad = 0.03 * R
    spread = np.linspace(-1e-15, 1e-15, 201)
    grids.append((np.concatenate([edge + s * pad * (1 + spread) * d * np.exp(1j * a)
                                  for edge, s in ((body.trailing_edge, 1),
                                                  (body.leading_edge, -1))
                                  for a in (-1e-3, 0.0, 1e-3)]), pad))
    for Z, pad in grids:
        plain = _segment_distance(Z, body.leading_edge, body.trailing_edge) <= pad
        assert np.array_equal(body.near(Z, pad), plain)
        assert 0 < np.count_nonzero(plain) < plain.size


class TestProbeRing:
    def test_wedge_sampling(self):
        corner = classify_corners(SQUARE)[0]
        pts = probe_ring(corner, [0.1], 8)
        assert pts.shape == (1, 8)
        r, theta = local_polar(corner, pts)
        assert np.allclose(r, 0.1)
        assert np.all(theta > 0) and np.all(theta < corner.exterior_angle_beta)
        # fluid side: none of the samples inside the square
        assert not np.any(Polygon(SQUARE).contains(pts))

    def test_multiple_radii(self):
        corner = classify_corners(SQUARE)[0]
        pts = probe_ring(corner, [0.2, 0.1, 0.05], 5)
        assert pts.shape == (3, 5)

    def test_plate_edge_avoids_faces(self):
        plate = FlatPlate(chord=2.0, alpha=0.0)
        pts = probe_ring(plate.corners[0], [0.1], 16)
        assert not np.any(plate.on_slit(pts, tol=1e-9))
        # margin keeps a positive distance from the slit line
        assert np.min(np.abs(pts.imag)) > 0.01

    def test_clearance_clip(self):
        corner = classify_corners(SQUARE)[0]
        with pytest.raises(GeometryClipError):
            probe_ring(corner, [1.5], 4)  # beyond adjacent side length

    def test_rejects_nonpositive_radius(self):
        corner = classify_corners(SQUARE)[0]
        with pytest.raises(GeometryClipError):
            probe_ring(corner, [0.0], 4)

    def test_rejects_zero_samples(self):
        corner = classify_corners(SQUARE)[0]
        with pytest.raises(GeometryClipError, match="at least one sample"):
            probe_ring(corner, [0.1], 0)


class TestContours:
    def test_circle_quadrature_residue(self):
        c = CircleContour(0.3 + 0.1j, 2.0, 512)
        z, dz = c.quadrature()
        val = np.sum(dz / (z - (0.3 + 0.1j)))
        assert val == pytest.approx(2j * np.pi, abs=1e-12)

    def test_clears_body(self):
        assert CircleContour(0j, 2.0).clears_body(Circle(1.0))
        assert not CircleContour(0j, 0.5).clears_body(Circle(1.0))
        assert CircleContour(0j, 3.0).clears_body(Polygon(SQUARE))

    @pytest.mark.parametrize("body", [
        Circle(1.5), FlatPlate(4.0, np.pi / 6), Polygon(TRIANGLE),
        Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])],
        ids=["circle", "plate", "triangle", "L-shape"])
    def test_clears_body_flips_at_the_farthest_point(self, body):
        # farthest(p), the largest distance from p to the body, bounds
        # every dense boundary sample's distance and is nearly attained
        R = body.circumradius
        t = np.linspace(0.0, 1.0, 4097)[:, None]
        if body.kind == "circle":
            z = body.radius * np.exp(2j * np.pi * t)
        else:  # every side, a plate's both ways
            v = (np.array([body.leading_edge, body.trailing_edge])
                 if body.kind == "flat_plate" else body.vertex_array)
            z = v + t * (np.roll(v, -1) - v)
        for center in (0j, 0.7 - 0.4j, 3.0 + 2.0j, body.centroid):
            far = body.farthest(center)
            assert np.max(np.abs(z - center)) <= far * (1 + 1e-15)
            assert np.max(np.abs(z - center)) >= far - 1e-6 * R
            assert CircleContour(center, far + 1e-9 * R).clears_body(body)
            assert not CircleContour(center, far - 1e-9 * R).clears_body(body)
