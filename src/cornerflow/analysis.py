"""Corner-singularity fits, contour integrals, far-field fits, censuses.

Near a corner of fluid-side angle beta the stream function expands as

    psi = sum_k a_k r**(k*pi/beta) * sin(k*pi*theta/beta)

in wall-aligned polar coordinates, so the velocity carries the exponent
pi/beta - 1 of the leading mode: negative (unbounded) at protruding
corners unless a_1 = 0.  The k = 1 mode is one-signed across the wedge;
every higher mode changes sign, which is why a regular corner with a
nonzero local field must see both signs of psi.

The modes are orthogonal in theta on any ring inside the clearance, so
a1 is a projection of psi on one ring, not a fit (``_ring_a1``); its
change between two rings a decade apart is the reported uncertainty.

Contour integrals use the identity  oint w dz = Gamma + i * (mass flux),
so circulation and flux share one quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DegenerateKuttaError, FitQualityError, FluidDomainError
from .geometry import (Body, CircleContour, Corner, _gauss_legendre, _ring_points,
                       probe_ring)

TWO_PI = 2.0 * np.pi
# |a1| above TOL_A1 * |w_inf| * R**(1 - pi/beta) counts as singular
TOL_A1 = 1e-3
# Gauss-Legendre nodes in theta of one a1 projection ring
RING_NODES = 32
SAMPLES_PER_RADIUS = 33
# cells per block of whole grid rows: sign_component_census evaluates, and
# cli._write_csv formats and writes, one block at a time
GRID_BLOCK = 16384


# ---------------------------------------------------------------------------
# contour integrals


def contour_integral(flow, contour: CircleContour) -> complex:
    """oint w dz = circulation + i * mass flux, by the contour's quadrature."""
    if not contour.clears_body(flow.body):
        raise FluidDomainError("contour intersects the body")
    z, dz = contour.quadrature()
    return np.sum(flow.velocity(z) * dz)


def circulation(flow, contour: CircleContour) -> float:
    """Counterclockwise circulation oint v . dx = Re oint w dz."""
    return float(np.real(contour_integral(flow, contour)))


def mass_flux(flow, contour: CircleContour) -> float:
    """Net outward volume flux oint v . n ds = Im oint w dz; zero for any
    closed fluid contour around the body (conservation of mass)."""
    return float(np.imag(contour_integral(flow, contour)))


# ---------------------------------------------------------------------------
# corner fits


@dataclass(frozen=True)
class CornerReport:
    """Fitted singular behaviour at one corner."""

    corner_id: int
    beta: float
    a1_estimate: float
    a1_uncertainty: float
    fitted_exponent: float
    singular: bool
    sign_attainment: str

    @property
    def singular_exponent(self) -> float:
        """Velocity exponent pi/beta - 1 of the leading mode."""
        return np.pi / self.beta - 1.0


def default_fit_radii(corner: Corner, body_scale: float) -> np.ndarray:
    """The two projection rings (r_hi / 10, r_hi), a decade apart inside
    the corner clearance."""
    r_hi = min(0.25 * body_scale, 0.5 * corner.clearance)
    return np.array([0.1 * r_hi, r_hi])


def _flow_scale(w_inf: complex, body_scale: float, beta: float) -> float:
    """Natural magnitude of a1 for this free stream/body: |w_inf| * R**(1-pi/beta)."""
    return (abs(w_inf) or 1.0) * body_scale ** (1.0 - np.pi / beta)


def _ring_a1(flow, corner: Corner, radii) -> np.ndarray:
    """a1 projected on the innermost and the outermost ring of ``radii``.

    The corner modes are orthogonal on one ring, so
        a1(r) = (2/beta) r**(-pi/beta)
                * int_0^beta psi(r, theta) sin(pi theta/beta) dtheta,
    here by RING_NODES-point Gauss-Legendre in theta.  Exact wherever the
    walls are straight out to r; on a panel flow the change of a1(r)
    between the rings measures the discretization error.  Returns
    [a1(r_lo), a1(r_hi)].
    """
    radii = np.asarray(radii, dtype=float)
    rings = np.array([radii.min(), radii.max()])
    if rings[1] / rings[0] < 9.99:
        raise FitQualityError("need radii spanning a decade")
    beta = corner.exterior_angle_beta
    s, w = _gauss_legendre(RING_NODES)
    psi = np.asarray(flow.stream(_ring_points(corner, rings, beta * s)),
                     dtype=float)
    # (2/beta) times the rule's Jacobian beta/2 is 1
    return psi @ (w * np.sin(np.pi * s)) / rings ** (np.pi / beta)


def fit_corner(flow, corner: Corner, radii=None) -> CornerReport:
    """Singular behaviour of psi at one corner.

    Reports the leading coefficient a1 projected on the outermost ring
    of ``radii`` (``_ring_a1``), with the change from the innermost ring
    as its uncertainty, plus an independent exponent estimate from the
    log-log slope of the per-ring maximum speed on a deeper ring ladder
    (local slopes extrapolated to r = 0 against the known next-mode gap
    r**(pi/beta)).  ``singular`` means |a1| exceeds TOL_A1 times the
    scale-invariant magnitude |w_inf|*R**(1-pi/beta).
    """
    body_scale = flow.body.circumradius
    if radii is None:
        radii = default_fit_radii(corner, body_scale)
    radii = np.asarray(radii, dtype=float)
    a1_lo, a1 = _ring_a1(flow, corner, radii)
    beta = corner.exterior_angle_beta
    slope = _exponent_slope(flow, corner, body_scale)
    singular = bool(abs(a1) > TOL_A1 * _flow_scale(flow.far.w_inf, body_scale, beta))
    verdict = sign_attainment(flow, corner, radii.min())
    return CornerReport(
        corner_id=corner.corner_id, beta=float(beta),
        a1_estimate=float(a1), a1_uncertainty=float(abs(a1 - a1_lo)),
        fitted_exponent=float(slope), singular=singular,
        sign_attainment=verdict)


def _exponent_slope(flow, corner: Corner, body_scale: float) -> float:
    """Velocity exponent from per-ring max speeds, with the local log-log
    slope extrapolated to the corner against the next-mode gap
    r**(pi/beta) (the mode ladder is spaced by pi/beta in the exponent)."""
    beta = corner.exterior_angle_beta
    r_hi = min(0.02 * body_scale, 0.4 * corner.clearance)
    radii = np.geomspace(0.1 * r_hi, r_hi, 6)
    pts = probe_ring(corner, radii, SAMPLES_PER_RADIUS)
    speeds = np.maximum(np.max(np.abs(np.asarray(flow.velocity(pts))), axis=1),
                        1e-300)
    local = np.diff(np.log(speeds)) / np.diff(np.log(radii))
    x = np.sqrt(radii[:-1] * radii[1:]) ** (np.pi / beta)
    A = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(A, local, rcond=None)
    return float(coef[0])


def sign_attainment(flow, corner: Corner, radius: float,
                    n_radii: int = 3) -> str:
    """Do psi's signs both appear arbitrarily close to the corner?

    Samples the wedge at ``n_radii`` radii, halving from ``radius``;
    "both" requires a clear positive and negative value at every radius.
    The k = 1 mode alone is one-signed over the wedge, so a corner
    dominated by it reports positive_only/negative_only; a regular corner
    with nonzero local field reports both.
    """
    body_scale = flow.body.circumradius
    w_scale = abs(flow.far.w_inf) or 1.0
    radii = radius / 2.0 ** np.arange(n_radii)
    verdicts = []
    for r in radii:
        # noise floor shrinks with the leading admissible mode
        level = 1e-9 * w_scale * body_scale * (r / body_scale) ** (
            np.pi / corner.exterior_angle_beta)
        pts = probe_ring(corner, [r], 64)
        psi = np.asarray(flow.stream(pts), dtype=float).ravel()
        has_pos = bool(np.max(psi) > level)
        has_neg = bool(np.min(psi) < -level)
        if has_pos and has_neg:
            verdicts.append("both")
        elif has_pos:
            verdicts.append("positive_only")
        elif has_neg:
            verdicts.append("negative_only")
        else:
            verdicts.append("indeterminate")
    first = verdicts[0]
    if all(v == first for v in verdicts):
        return first
    return "indeterminate"


# ---------------------------------------------------------------------------
# far field


@dataclass(frozen=True)
class LaurentFit:
    """Leading far-field Laurent coefficients of w."""

    c0: complex
    c1: complex
    residual: float

    @property
    def gamma_estimate(self) -> float:
        # c1 = Gamma / (2 pi i)
        return float(-TWO_PI * np.imag(self.c1))

    @property
    def re_c1(self) -> float:
        """Mass-flux indicator; zero for a valid flow around a closed body."""
        return float(np.real(self.c1))


def farfield_fit(flow, r_list=None) -> LaurentFit:
    """Least squares of w against {1, 1/z, 1/z^2} on 64 points of each
    far circle."""
    body_scale = flow.body.circumradius
    if r_list is None:
        r_list = body_scale * np.array([10.0, 20.0, 40.0])
    r_list = np.asarray(r_list, dtype=float)
    if np.any(r_list < 4.0 * body_scale):
        raise FluidDomainError("far-field radii must exceed 4 circumradii")
    th = TWO_PI * np.arange(64) / 64
    z = (r_list[:, None] * np.exp(1j * th)[None, :]).ravel()
    w = np.asarray(flow.velocity(z)).ravel()
    X = np.stack([np.ones_like(z), 1.0 / z, 1.0 / z**2], axis=1)
    coef, *_ = np.linalg.lstsq(X, w, rcond=None)
    resid = float(np.max(np.abs(X @ coef - w)))
    w_scale = abs(flow.far.w_inf) or 1.0
    if resid > 1e-3 * w_scale:
        raise FitQualityError(
            f"far-field fit residual {resid:.3g} too large; radii too small?")
    return LaurentFit(c0=complex(coef[0]), c1=complex(coef[1]), residual=resid)


# ---------------------------------------------------------------------------
# corner census over circulation


@dataclass(frozen=True)
class CornerCensusEntry:
    """a1 of one corner as the line a1_at_zero + slope * Gamma; ``root``
    is the one circulation that makes the corner regular (its Kutta root).
    The fields are the keys of the summary's census.corners[]."""

    corner_id: int
    root: float
    slope: float
    a1_at_zero: float
    root_uncertainty: float


@dataclass(frozen=True)
class CensusResult:
    """Exact affine-root census of corner regularity over circulation.

    ``a1`` of every corner is affine in Gamma, so corner i is regular only
    at Gamma = root_i; distinct roots mean no circulation regularizes two
    corners at once, hence at least n-1 of n corners stay singular at
    every Gamma.  A swept grid provides a redundancy check at finite
    fit tolerance.
    """

    corners: tuple
    sweep_gammas: tuple
    sweep_singular_ids: tuple
    min_singular_count: int
    regularizes_all_somewhere: bool
    coincident_pairs: tuple


def affine_corner(flow0, flow1, corner: Corner) -> CornerCensusEntry:
    """a1 of one corner as the affine function a1(0) + slope * Gamma.

    ``flow0`` and ``flow1`` are one body and free stream at Gamma = 0 and
    Gamma = Gamma_1 = flow1.far.circulation; by superposition their a1
    projections fix the line exactly.  Both are taken on the two rings of
    ``default_fit_radii``: the root, slope and a1(0) come from the outer
    ring, and the root uncertainty is the change of the root between the
    rings, which does not depend on Gamma_1.  Raises DegenerateKuttaError
    when a1 does not respond to circulation on either ring,
    |a1(Gamma_1) - a1(0)| < 1e-12 * |w_inf| * R**(1-pi/beta).
    """
    body_scale = flow0.body.circumradius
    radii = default_fit_radii(corner, body_scale)
    a0 = _ring_a1(flow0, corner, radii)
    rise = _ring_a1(flow1, corner, radii) - a0
    if np.min(np.abs(rise)) < 1e-12 * _flow_scale(flow0.far.w_inf, body_scale,
                                                  corner.exterior_angle_beta):
        raise DegenerateKuttaError(
            f"a1 at corner {corner.corner_id} does not respond to circulation")
    gamma1 = flow1.far.circulation
    roots = -a0 * gamma1 / rise
    return CornerCensusEntry(
        corner_id=corner.corner_id, root=float(roots[1]),
        slope=float(rise[1] / gamma1), a1_at_zero=float(a0[1]),
        root_uncertainty=float(abs(roots[1] - roots[0])))


def corner_census(body: Body, w_inf: complex, gamma_grid=None,
                  n_panels: int = 256) -> CensusResult:
    """Affine a1(Gamma) census over all protruding corners of a polygon.

    Two panel solves (Gamma = 0 and Gamma = |w_inf| R, the flow's own
    scale) fix every corner's affine form exactly; the census then reads
    off roots and sweeps a 33-point grid spanning all roots with margin
    as a redundancy check.
    """
    from .incompressible import _affine_corners  # deferred: avoids cycle

    corners = [c for c in body.corners if c.protruding]
    if len(corners) < 2:
        raise FluidDomainError("census needs at least two protruding corners")
    scale = abs(w_inf) * body.circumradius
    entries = _affine_corners(body, w_inf, corners, n_panels)

    roots = np.array([e.root for e in entries])
    coincidence_tol = 1e-3 * scale
    coincident = [(a.corner_id, b.corner_id) for a, b in combinations(entries, 2)
                  if abs(a.root - b.root) < coincidence_tol]

    if gamma_grid is None:
        lo, hi = roots.min(), roots.max()
        margin = max(0.25 * (hi - lo), 0.1 * scale)
        gamma_grid = np.linspace(lo - margin, hi + margin, 33)
    gamma_grid = np.asarray(gamma_grid, dtype=float)

    singular_above = [
        TOL_A1 * _flow_scale(w_inf, body.circumradius, c.exterior_angle_beta)
        for c in corners]
    sweep = [tuple(e.corner_id for e, tol in zip(entries, singular_above)
                   if abs(e.a1_at_zero + e.slope * gam) > tol)
             for gam in gamma_grid]
    min_count = min(len(ids) for ids in sweep)
    # exact affine verdict: is there any Gamma where every |a1| is small?
    # distinct roots => impossible; coincident roots are reported, not claimed
    regular_everywhere = bool(np.all(np.abs(roots - roots[0]) < coincidence_tol))
    return CensusResult(
        corners=tuple(entries), sweep_gammas=tuple(float(g) for g in gamma_grid),
        sweep_singular_ids=tuple(sweep), min_singular_count=int(min_count),
        regularizes_all_somewhere=regular_everywhere,
        coincident_pairs=tuple(coincident))


# ---------------------------------------------------------------------------
# sign-component census


@dataclass(frozen=True)
class SignComponentCensus:
    bounded_positive: int
    bounded_negative: int
    inconclusive: bool
    grid_shape: tuple


def sign_component_census(flow, window, resolution: int = 400) -> SignComponentCensus:
    """Count bounded connected components of {psi > 0} and {psi < 0}.

    Components are 4-connected sets of cells on a rectilinear window
    around the body, found by joining the runs of signed cells in each
    row with the overlapping runs of the next (``_bounded_components``);
    components not touching the window edge count as bounded.  Cells
    that ``body.near`` places within 1.5 cells of the body are not fluid,
    a cell measured by its longer side here and in the resolution check;
    cells with |psi| below the noise floor stay unsigned so the psi = 0
    streamline cannot leak spurious components (noise floor
    1e-6 * |w_inf| * R).  Both counts are zero for a valid flow (the sign
    sets are unbounded and connected, by the maximum principle).  The
    grid is evaluated in blocks of whole rows, about GRID_BLOCK cells
    each, so only the two sign masks are grid-sized.
    """
    (x0, x1), (y0, y1) = window
    body = flow.body
    tol = 1e-6 * (abs(flow.far.w_inf) or 1.0) * body.circumradius
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    side = max(x1 - x0, y1 - y0)  # a cell's longer side, times resolution
    signed = np.zeros((2, resolution, resolution), dtype=bool)  # psi > tol, < -tol
    step = max(1, GRID_BLOCK // resolution)
    for start in range(0, resolution, step):
        Z = xs[None, :] + 1j * ys[start:start + step, None]
        fluid = ~body.near(Z, 1.5 * side / resolution)
        psi = flow.stream(Z[fluid])
        signed[0, start:start + step][fluid] = psi > tol
        signed[1, start:start + step][fluid] = -psi > tol

    # resolution check: corner lobes need a few cells between sign changes
    inconclusive = side / resolution > 0.02 * body.circumradius
    return SignComponentCensus(bounded_positive=_bounded_components(signed[0]),
                               bounded_negative=_bounded_components(signed[1]),
                               inconclusive=bool(inconclusive),
                               grid_shape=signed.shape[1:])


def _bounded_components(cells) -> int:
    """Number of 4-connected components of the 2-d bool array ``cells``
    that touch no edge of the array.

    Run-based labelling (Rosenfeld & Pfaltz 1966; He, Chao & Suzuki
    2008): each row's runs of True cells lie between the changes of the
    row padded with False at both ends, rises and falls in turn; a run
    is joined to every run of the next row that shares a column with it,
    by a path-halving union-find over these pairs.
    """
    ny, nx = cells.shape
    width = nx + 2
    padded = np.zeros((ny, width), dtype=bool)
    padded[:, 1:-1] = cells
    row, col = np.nonzero(padded[:, 1:] != padded[:, :-1])
    row, start, stop = row[::2], col[::2], col[1::2]
    # row-major keys are sorted, so the runs of row r + 1 that overlap
    # run [start, stop) of row r are one index range [lo, hi)
    lo = np.searchsorted(row * width + stop, (row + 1) * width + start,
                         side="right")
    hi = np.searchsorted(row * width + start, (row + 1) * width + stop)
    count = hi - lo
    upper = np.repeat(np.arange(len(row)), count)
    lower = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count,
                                               count)

    parent = list(range(len(row)))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    n_sets = len(row)
    for a, b in zip(upper.tolist(), lower.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            n_sets -= 1
    on_edge = (row == 0) | (row == ny - 1) | (start == 0) | (stop == nx)
    return n_sets - len({find(k) for k in np.flatnonzero(on_edge).tolist()})

