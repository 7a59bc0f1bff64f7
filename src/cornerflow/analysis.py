"""Corner fits, contour integrals, far-field fits, sign census, field maps.

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

import numpy as np

from .errors import FitQualityError, FluidDomainError
from .geometry import CircleContour, Corner, _gauss_legendre, _ring_points, probe_ring

TWO_PI = 2.0 * np.pi
# |a1| above TOL_A1 * V * R**(1 - pi/beta) counts as singular, V the speed
# scale (``FarField.speed_scale``); fit_corner tests a1 in units of psi
# (``_ring_a1``), a1 * R**(pi/beta) above TOL_A1 * V * R
TOL_A1 = 1e-3
# Gauss-Legendre nodes in theta of one a1 projection ring
RING_NODES = 32
SAMPLES_PER_RADIUS = 33
# cells per block of whole grid rows: sign_component_census evaluates, and
# cli.export_field formats and writes, one block at a time
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


# ---------------------------------------------------------------------------
# corner fits


@dataclass(frozen=True)
class CornerReport:
    """Fitted singular behaviour at one corner; ``singular_exponent`` is
    the velocity exponent pi/beta - 1 of the leading mode.  The fields are
    the keys of the summary's corner_reports[]."""

    corner_id: int
    beta: float
    a1: float
    a1_uncertainty: float
    fitted_exponent: float
    singular_exponent: float
    singular: bool
    sign_attainment: str


def default_fit_radii(corner: Corner, body_scale: float) -> np.ndarray:
    """The two projection rings (r_hi / 10, r_hi), a decade apart inside
    the corner clearance."""
    r_hi = min(0.25 * body_scale, 0.5 * corner.clearance)
    return np.array([0.1 * r_hi, r_hi])


def _ring_a1(stream, corners, R) -> np.ndarray:
    """a1 of each corner projected on its two ``default_fit_radii`` rings,
    all in one call of the stream function ``stream``, in units of psi:
    a1 R**(pi/beta), R the body's circumradius.

    The corner modes are orthogonal on one ring, so
        a1(r) R**(pi/beta) = (2/beta) (r/R)**(-pi/beta)
                             * int_0^beta psi(r, theta) sin(pi theta/beta) dtheta,
    here by RING_NODES-point Gauss-Legendre in theta.  Exact wherever the
    walls are straight out to r; on a panel flow the change of a1(r)
    between the rings measures the discretization error.  A body scaled
    by 2**k scales these values as it scales psi.  Returns
    [a1(r_lo), a1(r_hi)] per corner, shape (..., len(corners), 2), the
    leading axes those of ``stream`` (3 for three unit columns).
    """
    s, w = _gauss_legendre(RING_NODES)
    points, scales = [], []
    for corner in corners:
        rings = default_fit_radii(corner, R)
        beta = corner.exterior_angle_beta
        points.append(_ring_points(corner, rings, beta * s))
        scales.append((rings / R) ** (np.pi / beta))
    psi = np.asarray(stream(np.array(points)), dtype=float)
    # (2/beta) times the rule's Jacobian beta/2 is 1
    return psi @ (w * np.sin(np.pi * s)) / np.array(scales)


def fit_corner(flow, corner: Corner) -> CornerReport:
    """Singular behaviour of psi at one corner.

    Reports the leading coefficient a1 projected on the outer ring of
    ``default_fit_radii`` (``_ring_a1``), with the change from the inner
    ring as its uncertainty, plus an independent exponent estimate from the
    log-log slope of the per-ring maximum speed on a deeper ring ladder
    (``_exponent_slope``).  ``singular`` means |a1| exceeds TOL_A1 times
    the scale-invariant magnitude V R**(1-pi/beta), V the speed scale,
    tested in units of psi as |a1 R**(pi/beta)| > TOL_A1 V R; a1 and its
    uncertainty are converted to physical units once, for the report.
    """
    R = flow.body.circumradius
    ((a1_lo, a1),) = _ring_a1(flow.stream, [corner], R)
    beta = corner.exterior_angle_beta
    slope = _exponent_slope(flow, corner, R)
    singular = bool(abs(a1) > TOL_A1 * flow.far.speed_scale(R) * R)
    verdict = sign_attainment(flow, corner, default_fit_radii(corner, R)[0])
    to_physical = R ** (-np.pi / beta)
    return CornerReport(
        corner_id=corner.corner_id, beta=float(beta), a1=float(a1 * to_physical),
        a1_uncertainty=float(abs(a1 - a1_lo) * to_physical),
        fitted_exponent=float(slope),
        singular_exponent=np.pi / float(beta) - 1.0, singular=singular,
        sign_attainment=verdict)


def _exponent_slope(flow, corner: Corner, R: float) -> float:
    """Velocity exponent from per-ring max speeds, with the local log-log
    slope extrapolated to the corner against the next-mode gap
    (r/R)**(pi/beta) (the mode ladder is spaced by pi/beta in the exponent).

    The ladder is r_hi times six radii from 0.1 to 1, and the slopes are
    those of log(|w| / V) against log(r / R), V the speed scale: a body
    scaled by 2**k, or a free stream, reads the same fit to the bit."""
    beta = corner.exterior_angle_beta
    r_hi = min(0.02 * R, 0.4 * corner.clearance)
    radii = r_hi * np.geomspace(0.1, 1.0, 6)
    pts = probe_ring(corner, radii, SAMPLES_PER_RADIUS)
    speeds = np.maximum(np.max(np.abs(np.asarray(flow.velocity(pts))), axis=1)
                        / flow.far.speed_scale(R), 1e-300)
    u = radii / R
    local = np.diff(np.log(speeds)) / np.diff(np.log(u))
    x = np.sqrt(u[:-1] * u[1:]) ** (np.pi / beta)
    A = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(A, local, rcond=None)
    return float(coef[0])


def sign_attainment(flow, corner: Corner, radius: float) -> str:
    """Do psi's signs both appear arbitrarily close to the corner?

    Samples the wedge at ``radius``, its half and its quarter in one
    stream call; "both" requires a clear positive and negative value at
    every radius.  The k = 1 mode alone is one-signed over the wedge, so a
    corner dominated by it reports positive_only/negative_only; a regular
    corner with nonzero local field reports both.
    """
    body_scale = flow.body.circumradius
    radii = radius / np.array([1.0, 2.0, 4.0])
    psi = np.asarray(flow.stream(probe_ring(corner, radii, 64)), dtype=float)
    # noise floor, 1e-9 V R, shrinks with the leading admissible mode
    level = 1e-9 * flow.far.speed_scale(body_scale) * body_scale * (
        radii / body_scale) ** (np.pi / corner.exterior_angle_beta)
    names = {(True, True): "both", (True, False): "positive_only",
             (False, True): "negative_only", (False, False): "indeterminate"}
    verdicts = {names[bool(pos), bool(neg)] for pos, neg in
                zip(psi.max(axis=1) > level, psi.min(axis=1) < -level)}
    return verdicts.pop() if len(verdicts) == 1 else "indeterminate"


# ---------------------------------------------------------------------------
# far field


@dataclass(frozen=True)
class LaurentFit:
    """Leading far-field Laurent coefficients of w, with the circulation
    -2 pi Im c1 they give (c1 = Gamma / (2 pi i)) and Re c1, the mass-flux
    indicator, zero for a valid flow around a closed body.  The fields are
    the keys of the summary's farfield."""

    c0: complex
    c1: complex
    gamma_estimate: float
    re_c1: float
    residual: float


def farfield_fit(flow) -> LaurentFit:
    """Least squares of w against {1, 1/z, 1/z^2} on 64 points of each
    circle |z| = 10, 20 and 40 R, fitted as {1, u, u^2} with u = R / z,
    whose columns keep their size at any circumradius R, and rescaled
    (c1 = R times the coefficient of u); its residual is held to 1e-3
    ``far.speed_scale``."""
    body_scale = flow.body.circumradius
    radii = body_scale * np.array([10.0, 20.0, 40.0])
    th = TWO_PI * np.arange(64) / 64
    z = (radii[:, None] * np.exp(1j * th)[None, :]).ravel()
    w = np.asarray(flow.velocity(z)).ravel()
    u = body_scale / z
    X = np.stack([np.ones_like(u), u, u**2], axis=1)
    coef, *_ = np.linalg.lstsq(X, w, rcond=None)
    resid = float(np.max(np.abs(X @ coef - w)))
    if resid > 1e-3 * flow.far.speed_scale(body_scale):
        raise FitQualityError(
            f"far-field fit residual {resid:.3g} too large")
    c1 = complex(coef[1] * body_scale)
    return LaurentFit(c0=complex(coef[0]), c1=c1, gamma_estimate=-TWO_PI * c1.imag,
                      re_c1=c1.real, residual=resid)


def exact_regression(flow, exact) -> float:
    """Largest velocity deviation of ``flow`` from the closed-form ``exact``
    on the probe rings 1.5, 3 and 10 R, in units of the speed scale."""
    R = exact.body.circumradius
    th = 2 * np.pi * (np.arange(100) + 0.31) / 100
    z = np.array([1.5, 3.0, 10.0])[:, None] * R * np.exp(1j * th)
    dev = np.abs(np.asarray(flow.velocity(z)) - np.asarray(exact.velocity(z)))
    return float(np.max(dev) / exact.far.speed_scale(R))


# ---------------------------------------------------------------------------
# field map and sign-component census: the body's windows, +-3R and +-4R


def field_map(flow, resolution: int):
    """psi and speed on a resolution x resolution grid over the body's
    window, +-3R about its centroid, as the columns (x, y, psi, speed,
    mask): the axes as a row and a column of the grid, then grid arrays.
    Cells that ``body.occupies`` (a plate's slit widened by two cells) are
    masked, with NaN psi and speed."""
    c, h = flow.body.centroid, 3.0 * flow.body.circumradius
    xs = np.linspace(c.real - h, c.real + h, resolution)
    ys = np.linspace(c.imag - h, c.imag + h, resolution)
    Z = xs[None, :] + 1j * ys[:, None]
    masked = flow.body.occupies(Z, 2.0 * (2 * h) / resolution)  # two cells
    psi = np.full(Z.shape, np.nan)
    speed = np.full(Z.shape, np.nan)
    free = ~masked
    z = Z[free]
    psi[free] = flow.stream(z)
    speed[free] = np.abs(np.asarray(flow.velocity(z)))
    return xs[None, :], ys[:, None], psi, speed, masked


@dataclass(frozen=True)
class SignComponentCensus:
    bounded_positive: int
    bounded_negative: int
    inconclusive: bool
    grid_shape: tuple


def sign_component_census(flow, resolution: int) -> SignComponentCensus:
    """Count bounded connected components of {psi > 0} and {psi < 0}.

    Components are 4-connected sets of cells on the body's window, the
    square of +-4R about its centroid, found by joining the runs of
    signed cells in each row with the overlapping runs of the next
    (``_bounded_components``); components not touching the window edge
    count as bounded.  A cell is 8R/resolution on a side; cells that
    ``body.near`` places within 1.5 cells of the body are not fluid, and
    cells with |psi| below the noise floor stay unsigned so the psi = 0
    streamline cannot leak spurious components (noise floor 1e-6 V R, V
    the speed scale).  Both counts are zero for a valid flow (the sign
    sets are unbounded and connected, by the maximum principle).  The
    grid is evaluated in blocks of whole rows, about GRID_BLOCK cells
    each, so only the two sign masks are grid-sized.

    Each block's psi is first evaluated to one cell's accuracy,
    ``flow.stream(z, tol)`` with tol = 8 / resolution (psi moves by about
    V times a cell across one cell).  That psi is within
    (tol + FAR_TOL) V R of the full-accuracy psi, plus rounding of about
    1e-14 V R at |psi| <= 10 V R, so 2 tol V R bounds the three at any
    real resolution: the cells within 2 tol V R of +-floor are evaluated
    again at full accuracy, ``flow.stream(z)``, and every other sign is
    already the full-accuracy sign.
    """
    body, R = flow.body, flow.body.circumradius
    V = flow.far.speed_scale(R)
    floor = 1e-6 * V * R
    tol = 8.0 / resolution
    c, h = body.centroid, 4.0 * R
    xs = np.linspace(c.real - h, c.real + h, resolution)
    ys = np.linspace(c.imag - h, c.imag + h, resolution)
    signed = np.zeros((2, resolution, resolution), dtype=bool)  # psi > floor, < -floor
    step = max(1, GRID_BLOCK // resolution)
    for start in range(0, resolution, step):
        Z = xs[None, :] + 1j * ys[start:start + step, None]
        fluid = ~body.near(Z, 1.5 * (2 * h) / resolution)
        z = Z[fluid]
        psi = flow.stream(z, tol=tol)
        doubt = np.abs(np.abs(psi) - floor) <= 2.0 * tol * V * R
        psi[doubt] = flow.stream(z[doubt])
        signed[0, start:start + step][fluid] = psi > floor
        signed[1, start:start + step][fluid] = -psi > floor

    # resolution check: corner lobes need a few cells between sign changes
    inconclusive = 8.0 / resolution > 0.02  # a cell, in units of R
    return SignComponentCensus(bounded_positive=_bounded_components(signed[0]),
                               bounded_negative=_bounded_components(signed[1]),
                               inconclusive=inconclusive,
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

