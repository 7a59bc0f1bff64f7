"""Bodies (polygon, circle, flat plate), their panel layouts and nearness,
corner classification, circle contours.

Conventions
-----------
Points live in the complex plane z = x + iy.  Polygon boundaries are
simple and counterclockwise, so the fluid lies to the right of the
traversal and each vertex sees an exterior (fluid-side) angle ``beta``:
the angle swept counterclockwise from the side pointing back to the
previous vertex around the fluid to the side pointing to the next
vertex.  Convex vertices protrude into the fluid (beta > pi).

A flat plate at incidence ``alpha`` occupies the segment between
``-(chord/2) * exp(-1j*alpha)`` and ``+(chord/2) * exp(-1j*alpha)``;
with a horizontal free stream this is the classical angle-of-attack
convention (positive alpha = stream hits the underside).  Its two edges
are degenerate corners with beta = 2*pi.

Each body lays out its own vortex panels: ``panel_nodes(n, cluster)``
returns the nodes and whether they close on themselves, and
``min_panels`` is the least n that layout accepts.  Each body says exactly
how near points are: ``near(z, pad)`` holds inside it or within pad of its
boundary, and ``farthest(p)`` is the largest distance from p to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import GeometryClipError, InvalidGeometryError, UnsupportedBodyError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Corner:
    """One body corner with its fluid-side wedge.

    ``side_directions`` are unit vectors (as complex numbers) along the two
    adjacent boundary sides leaving the vertex; rotating the first one
    counterclockwise by ``exterior_angle_beta`` through the fluid reaches
    the second.  ``clearance`` bounds the radius up to which the local
    wedge is free of other boundary parts.
    """

    vertex: complex
    exterior_angle_beta: float
    side_directions: tuple[complex, complex]
    corner_id: int = 0
    clearance: float = np.inf

    def __post_init__(self):
        beta = self.exterior_angle_beta
        if not (0.0 < beta <= TWO_PI):
            raise InvalidGeometryError(f"corner angle beta={beta} outside (0, 2*pi]")
        if abs(beta - np.pi) < 1e-12:
            raise InvalidGeometryError("beta = pi is not a corner")
        for d in self.side_directions:
            if abs(abs(d) - 1.0) > 1e-12:
                raise InvalidGeometryError("side directions must be unit length")
        swept = _ccw_angle(self.side_directions[0], self.side_directions[1])
        # beta = 2*pi aliases to swept angle 0 (both walls coincide)
        if min(abs(swept - beta), abs(swept + TWO_PI - beta)) > 1e-12:
            raise InvalidGeometryError(
                f"fluid-side angle between side directions {swept} != beta {beta}"
            )

    @property
    def protruding(self) -> bool:
        """Convex: the fluid wedge is wider than pi."""
        return self.exterior_angle_beta > np.pi

    @property
    def wall_angle(self) -> float:
        """World angle of the first wall (theta = 0 ray of the wedge)."""
        return float(np.angle(self.side_directions[0]))

    def local_polar(self, points):
        """Map world points to corner polar coordinates (r, theta), theta
        measured counterclockwise from the first wall; fluid points fall
        in (0, beta)."""
        rel = np.asarray(points, dtype=complex) - self.vertex
        return np.abs(rel), np.mod(np.angle(rel) - self.wall_angle, TWO_PI)


def _ccw_angle(d0: complex, d1: complex) -> float:
    """Counterclockwise angle in [0, 2*pi) rotating d0 onto d1."""
    return float(np.mod(np.angle(d1 / d0), TWO_PI))


def _as_complex_vertices(vertices) -> np.ndarray:
    arr = np.asarray(vertices)
    if np.iscomplexobj(arr):
        return arr.astype(complex).ravel()
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidGeometryError("vertices must be complex or an (n, 2) array")
    return arr[:, 0] + 1j * arr[:, 1]


def _signed_area(v: np.ndarray) -> float:
    w = np.roll(v, -1)
    return 0.5 * float(np.sum(v.real * w.imag - v.imag * w.real))


def _cosine_nodes(n: int, blend: float = 1.0) -> np.ndarray:
    """n+1 nodes on [0, 1], cosine-clustered toward both ends."""
    u = np.arange(n + 1) / n
    c = 0.5 * (1.0 - np.cos(np.pi * u))
    return (1.0 - blend) * u + blend * c


def _segment_distance(z, a, b):
    """Distance from the points z to the segment [a, b]."""
    d = b - a
    t = np.clip(((z - a) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
    return np.abs(z - a - t * d)


def _segments_intersect(a0, a1, b0, b1) -> bool:
    """Proper intersection test for two open segments."""

    def orient(p, q, r):
        return np.sign((q.real - p.real) * (r.imag - p.imag)
                       - (q.imag - p.imag) * (r.real - p.real))

    o1, o2 = orient(a0, a1, b0), orient(a0, a1, b1)
    o3, o4 = orient(b0, b1, a0), orient(b0, b1, a1)
    return o1 != o2 and o3 != o4


def classify_corners(vertices) -> list[Corner]:
    """Classify every vertex of a simple counterclockwise polygon.

    Raises InvalidGeometryError for repeated/collinear-adjacent vertices,
    clockwise orientation or self-intersection.
    """
    v = _as_complex_vertices(vertices)
    n = len(v)
    if n < 3:
        raise InvalidGeometryError("polygon needs at least 3 vertices")
    sides = np.roll(v, -1) - v
    lens = np.abs(sides)
    scale = max(lens.max(), 1e-300)
    if np.any(lens < 1e-12 * scale):
        raise InvalidGeometryError("repeated vertices")
    if _signed_area(v) <= 0:
        raise InvalidGeometryError("vertices must be counterclockwise")
    # non-adjacent side pairs must not intersect
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_intersect(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]):
                raise InvalidGeometryError("polygon self-intersects")

    corners = []
    for i in range(n):
        prev_i = (i - 1) % n
        u_prev = (v[prev_i] - v[i]) / lens[prev_i]
        u_next = sides[i] / lens[i]
        beta = _ccw_angle(u_prev, u_next)
        if beta < 1e-9 or abs(beta - np.pi) < 1e-9:
            raise InvalidGeometryError(
                f"degenerate corner at vertex {i} (collinear or cusp)")
        corners.append(Corner(
            vertex=complex(v[i]),
            exterior_angle_beta=beta,
            side_directions=(complex(u_prev), complex(u_next)),
            corner_id=i,
            clearance=float(min(lens[prev_i], lens[i])),
        ))
    return corners


@dataclass(frozen=True)
class Circle:
    """Circular body centred at the origin."""

    radius: float

    kind = "circle"
    min_panels = 2

    def __post_init__(self):
        if self.radius <= 0:
            raise InvalidGeometryError("circle radius must be positive")

    @property
    def corners(self) -> list[Corner]:
        return []

    @property
    def circumradius(self) -> float:
        return self.radius

    @property
    def centroid(self) -> complex:
        return 0j

    def contains(self, z) -> np.ndarray:
        return np.abs(np.asarray(z, dtype=complex)) < self.radius

    def occupies(self, z, slit_tol) -> np.ndarray:
        return self.contains(z)  # slit_tol widens only a plate's slit

    def near(self, z, pad) -> np.ndarray:
        return np.abs(z) <= self.radius + pad

    def farthest(self, p: complex) -> float:
        return abs(p) + self.radius

    def panel_nodes(self, n: int, cluster: float = 1.0):
        """The regular inscribed n-gon, closed; cluster has no effect."""
        return self.radius * np.exp(1j * TWO_PI * np.arange(n) / n), True


@dataclass(frozen=True)
class FlatPlate:
    """Zero-thickness plate; a degenerate body with two beta = 2*pi corners.

    Kept as a dedicated kind rather than a collapsed polygon so that
    simple-polygon validation does not reject it.
    """

    chord: float
    alpha: float

    kind = "flat_plate"
    min_panels = 1

    def __post_init__(self):
        if self.chord <= 0:
            raise InvalidGeometryError("chord must be positive")

    @property
    def direction(self) -> complex:
        """Unit vector from leading edge to trailing edge."""
        return complex(np.exp(-1j * self.alpha))

    @property
    def leading_edge(self) -> complex:
        return -0.5 * self.chord * self.direction

    @property
    def trailing_edge(self) -> complex:
        return 0.5 * self.chord * self.direction

    @property
    def corners(self) -> list[Corner]:
        d = self.direction
        # both adjacent sides at an edge run along the plate toward the
        # opposite edge; the fluid wedge is the full 2*pi turn
        return [
            Corner(vertex=self.trailing_edge, exterior_angle_beta=TWO_PI,
                   side_directions=(-d, -d), corner_id=0, clearance=self.chord),
            Corner(vertex=self.leading_edge, exterior_angle_beta=TWO_PI,
                   side_directions=(d, d), corner_id=1, clearance=self.chord),
        ]

    @property
    def circumradius(self) -> float:
        return 0.5 * self.chord

    @property
    def centroid(self) -> complex:
        return 0j

    def contains(self, z) -> np.ndarray:
        # zero measure: nothing is strictly inside
        return np.zeros(np.shape(np.asarray(z)), dtype=bool)

    def on_slit(self, z, tol=1e-12) -> np.ndarray:
        zl = np.asarray(z, dtype=complex) / self.direction
        return (np.abs(zl.imag) <= tol * self.chord) & (np.abs(zl.real) <= 0.5 * self.chord)

    def occupies(self, z, slit_tol) -> np.ndarray:
        """Points no flow reaches: within slit_tol of the slit here, the
        interior of a solid body (Circle, Polygon)."""
        return self.on_slit(z, slit_tol / self.chord)

    def near(self, z, pad) -> np.ndarray:
        """Within pad of the segment, tested within R + pad of the centroid."""
        z = np.asarray(z, dtype=complex)
        hit = np.asarray(np.abs(z - self.centroid) <= self.circumradius + pad)
        hit[hit] = _segment_distance(z[hit], self.leading_edge,
                                     self.trailing_edge) <= pad
        return hit

    def farthest(self, p: complex) -> float:
        return max(abs(p - self.leading_edge), abs(p - self.trailing_edge))

    def panel_nodes(self, n: int, cluster: float = 1.0):
        """One open run of n chordwise panels from the leading edge,
        cosine-clustered toward both edges."""
        t = _cosine_nodes(n, cluster)
        return self.leading_edge + t * (self.trailing_edge - self.leading_edge), False


@dataclass(frozen=True)
class Polygon:
    """Simple counterclockwise polygon."""

    vertices: tuple
    corners_cache: tuple = field(init=False, repr=False, compare=False)

    kind = "polygon"
    PANELS_PER_SIDE = 8  # the least panels on any side

    def __post_init__(self):
        v = _as_complex_vertices(self.vertices)
        object.__setattr__(self, "vertices", tuple(complex(x) for x in v))
        object.__setattr__(self, "corners_cache", tuple(classify_corners(v)))

    @property
    def corners(self) -> list[Corner]:
        return list(self.corners_cache)

    @property
    def vertex_array(self) -> np.ndarray:
        return np.array(self.vertices, dtype=complex)

    @cached_property
    def centroid(self) -> complex:
        v = self.vertex_array
        w = np.roll(v, -1)
        cross = v.real * w.imag - v.imag * w.real
        area = 0.5 * np.sum(cross)
        return complex(np.sum((v + w) * cross) / (6.0 * area))

    @cached_property
    def circumradius(self) -> float:
        return float(np.max(np.abs(self.vertex_array - self.centroid)))

    def contains(self, z) -> np.ndarray:
        """Even-odd point-in-polygon test (boundary counts as inside), made
        only within R (1 + 1e-9) of the centroid, where all inside lies."""
        z = np.asarray(z, dtype=complex)
        inside = np.asarray(np.abs(z - self.centroid) <= self.circumradius * (1 + 1e-9))
        v, w, zc = self.vertex_array, np.roll(self.vertex_array, -1), z[inside, None]
        cond = (v.imag > zc.imag) != (w.imag > zc.imag)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = v.real + (zc.imag - v.imag) * (w.real - v.real) / (w.imag - v.imag)
        inside[inside] = np.sum(cond & (zc.real < xi), axis=-1) % 2 == 1
        return inside

    def occupies(self, z, slit_tol) -> np.ndarray:
        return self.contains(z)  # slit_tol widens only a plate's slit

    def near(self, z, pad) -> np.ndarray:
        """Inside or within pad of a side, tested within R + pad of the centroid."""
        z = np.asarray(z, dtype=complex)
        hit = np.asarray(np.abs(z - self.centroid) <= self.circumradius + pad)
        v, zc = self.vertex_array, z[hit]
        hit[hit] = self.contains(zc) | np.logical_or.reduce(
            [_segment_distance(zc, a, b) <= pad for a, b in zip(v, np.roll(v, -1))])
        return hit

    def farthest(self, p: complex) -> float:
        return float(np.max(np.abs(self.vertex_array - p)))

    @property
    def min_panels(self) -> int:
        return self.PANELS_PER_SIDE * len(self.vertices)

    def panel_nodes(self, n: int, cluster: float = 1.0):
        """Closed nodes of cosine-clustered panels on each side, n shared
        in proportion to side length, at least PANELS_PER_SIDE a side."""
        v = self.vertex_array
        w = np.roll(v, -1)  # the next side's first node closes each side
        lens = np.abs(w - v)
        counts = np.maximum(self.PANELS_PER_SIDE,
                            np.round(lens / lens.sum() * n).astype(int))
        return np.concatenate([a + _cosine_nodes(int(m), cluster)[:-1] * (b - a)
                               for a, b, m in zip(v, w, counts)]), True


Body = Circle | FlatPlate | Polygon


def probe_ring(corner: Corner, radii, samples_per_radius: int) -> np.ndarray:
    """Sample points on fluid-wedge arcs around a corner.

    Points sit at polar coordinates (r, theta) about the vertex, theta
    spanning the open wedge with a wall margin of 0.05 * beta.
    Returns an array of shape (len(radii), samples_per_radius).
    """
    if samples_per_radius < 1:
        raise GeometryClipError("need at least one sample per radius")
    beta = corner.exterior_angle_beta
    theta_margin = 0.05 * beta
    if samples_per_radius == 1:
        theta = np.array([beta / 2.0])
    else:
        theta = np.linspace(theta_margin, beta - theta_margin, samples_per_radius)
    return _ring_points(corner, radii, theta)


def _ring_points(corner: Corner, radii, theta) -> np.ndarray:
    """Points at polar coordinates (radii x theta) about the corner, theta
    from its first wall; every radius must lie in (0, clearance)."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii <= 0):
        raise GeometryClipError("probe radii must be positive")
    if np.any(radii >= corner.clearance):
        raise GeometryClipError(
            f"radius {radii.max()} reaches beyond the local wedge "
            f"(clearance {corner.clearance})")
    phase = np.exp(1j * (corner.wall_angle + theta))
    return corner.vertex + radii[:, None] * phase[None, :]


@lru_cache(maxsize=None)
def _gauss_legendre(n):
    """n Gauss-Legendre nodes on [0, 1] and weights, shared read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (x + 1.0)
    s.flags.writeable = w.flags.writeable = False
    return s, w


@dataclass(frozen=True)
class CircleContour:
    """Positively oriented parametric circle used for line integrals."""

    center: complex
    radius: float
    n_samples: int = 1024

    def quadrature(self):
        """Return (points, dz weights) for trapezoid quadrature of
        closed contour integrals; spectrally accurate for smooth fields."""
        th = TWO_PI * np.arange(self.n_samples) / self.n_samples
        z = self.center + self.radius * np.exp(1j * th)
        dz = 1j * self.radius * np.exp(1j * th) * (TWO_PI / self.n_samples)
        return z, dz

    def refined(self) -> "CircleContour":
        """The same circle with twice the samples."""
        return CircleContour(self.center, self.radius, 2 * self.n_samples)

    def clears_body(self, body: Body) -> bool:
        return body.farthest(self.center) < self.radius


def body_from_config(cfg: dict) -> Body:
    """Build a body from its scenario-config description."""
    kind = cfg.get("kind")
    if kind == "circle":
        return Circle(radius=float(cfg["radius"]))
    if kind == "flat_plate":
        if ("alpha" in cfg) == ("alpha_deg" in cfg):
            raise InvalidGeometryError("exactly one of alpha (radians) or alpha_deg")
        alpha = cfg["alpha"] if "alpha" in cfg else np.deg2rad(float(cfg["alpha_deg"]))
        return FlatPlate(chord=float(cfg["chord"]), alpha=float(alpha))
    if kind == "polygon":
        return Polygon(vertices=tuple(
            complex(xy[0], xy[1]) for xy in cfg["vertices"]))
    raise UnsupportedBodyError(f"unknown body kind {kind!r}")
