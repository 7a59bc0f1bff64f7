"""Reference readers the tests gate the library against.

Each reads what the library computes by another route: the closed-form
Kutta root of a mapped flow, the corner lines of a pair of flows at two
circulations, a census's least singular count by a dense sweep, and a
corner's local polar coordinates.  Beside them, the strict reader and the
matcher of the golden summaries, which the numpy-only CI step also
imports: nothing here needs pytest.
"""

import json
from pathlib import Path

import numpy as np

from cornerflow.analysis import TOL_A1, _ring_a1
from cornerflow.errors import DegenerateKuttaError, InvalidGeometryError
from cornerflow.incompressible import FarField, _affine_entries

TWO_PI = 2 * np.pi
# prevertex sigma_k of each corner under a body kind's map: the Joukowsky
# map sends sigma = +1 to the trailing edge (corner 0), -1 to the leading
PREVERTICES = {"flat_plate": (1.0 + 0j, -1.0 + 0j)}


def kutta_circulation(flow, corner_id: int) -> float:
    """Circulation making a corner of a ``MappedFlow`` regular, U' = 0 at
    its prevertex: Gamma = 4 pi Im(w_inf f'(inf) sigma_k).  A plate's
    trailing-edge root in a real w_inf is -pi * chord * w_inf * sin(alpha)."""
    prevertices = PREVERTICES.get(flow.body.kind, ())
    if not 0 <= corner_id < len(prevertices):
        raise InvalidGeometryError(f"no corner {corner_id}")
    u = flow.far.w_inf * flow.map.dz_dsigma_inf
    return float(2 * TWO_PI * np.imag(u * prevertices[corner_id]))


def affine_corner(flow0, flow1, corners) -> list:
    """a1 of each corner as the affine function a1(0) + slope * Gamma.

    ``flow0`` and ``flow1`` are one body and free stream at Gamma = 0 and
    Gamma = Gamma_1 = flow1.far.circulation; by superposition their a1
    projections fix the line exactly, of slope (a1(Gamma_1) - a1(0)) /
    Gamma_1.  Both are taken on the two rings of ``default_fit_radii``,
    every corner's in one stream call per flow.  DegenerateKuttaError at
    Gamma_1 = 0, and as ``_affine_entries`` raises it.
    """
    gamma1 = flow1.far.circulation
    if gamma1 == 0:
        raise DegenerateKuttaError("two flows at one circulation fix no line in Gamma")
    body_scale = flow0.body.circumradius
    a0 = _ring_a1(flow0.stream, corners, body_scale)
    slope = (_ring_a1(flow1.stream, corners, body_scale) - a0) / gamma1
    return _affine_entries(corners, a0, slope, body_scale)


def swept_least_singular_count(body, census, w_inf, n=10**5) -> int:
    """The least number of singular corners of a census on n circulations
    from the least to the greatest root, with the census sweep's margin,
    each corner singular where |a1_at_zero + slope Gamma| exceeds the
    census threshold TOL_A1 V R**(1 - pi/beta)."""
    R = body.circumradius
    V = FarField(w_inf).speed_scale(R)
    roots = [e.root for e in census.corners]
    margin = max(0.25 * (max(roots) - min(roots)), 0.1 * V * R)
    gammas = np.linspace(min(roots) - margin, max(roots) + margin, n)
    corners = [c for c in body.corners if c.protruding]
    return int(np.min(sum(
        np.abs(e.a1_at_zero + e.slope * gammas)
        > TOL_A1 * V * R ** (1.0 - np.pi / c.exterior_angle_beta)
        for e, c in zip(census.corners, corners))))


def local_polar(corner, points):
    """World points in corner polar coordinates (r, theta), theta measured
    counterclockwise from the first wall; fluid points fall in (0, beta)."""
    rel = np.asarray(points, dtype=complex) - corner.vertex
    return np.abs(rel), np.mod(np.angle(rel) - corner.wall_angle, TWO_PI)


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token} in summary.json")


def load_strict(path):
    """A summary.json, refusing NaN and Infinity, which strict JSON has not."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def assert_matches(got, want, abs_tol, where="$"):
    """Strings, integers, booleans and the structure match exactly; floats
    within 1e-9 relative or abs_tol absolute."""
    assert type(got) is type(want), f"{where}: {got!r} vs {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], abs_tol, f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, abs_tol, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= max(1e-9 * abs(want), abs_tol), \
            f"{where}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{where}: {got!r} vs {want!r}"
