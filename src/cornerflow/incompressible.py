"""Incompressible irrotational flows: exact formulas and vortex panels.

Complex-velocity convention: w = v_x - i*v_y as a function of z = x + iy,
holomorphic in the fluid.  The potential W = phi + i*psi has W' = w, and
psi is normalized to zero on the body (slip).  Circulation is the
counterclockwise line integral of velocity, Gamma = Re of the closed
contour integral of w dz.

Exact solutions (MappedFlow): the flow around the unit circle pushed
through the body's own closed-form conformal map z = f(sigma) of its
exterior onto the body's (``body.conformal_map``).

Panel representation: linear-strength vortex sheets on the boundary with
one strength unknown per node (corner nodes shared between adjacent
sides) and the total circulation imposed as an explicit constraint row.
Every body, closed or open, collocates the normal velocity v . n = 0 at
the panel midpoints.  Panels work on Z = (z - c) / R, c the centroid and
R the circumradius: psi leaves the frame times R, w as it is, and the
circulation row reads Gamma / R, so a body scaled by 2**k solves on the
same unit nodes.

Away from the body a panel flow is evaluated by the exact multipole
expansion of its vortex sheet about Z = 0: with the moments
M_k = integral of gamma(s) Z(s)**k ds,

    w = w_inf + (1 / 2 pi i) sum_k M_k / Z**(k + 1),
    psi / R = Im(w_inf Z) - (1 / 2 pi) Re[M_0 log Z - sum_{k>=1} M_k / (k Z**k)],

truncated where its a-priori tail bound at the point's own separation
t = 1 / |Z| <= 1 / KAPPA drops below FAR_TOL.  Closer in, a
two-level treecode: the panels are split into contiguous clusters of
CLUSTER panels, each with its own exact expansion of the same form about
its centre c_C (radius rho_C, its largest node distance from c_C).  A
point takes cluster C's expansion where |Z - c_C| >= KAPPA rho_C and the
closed-form panel integrals of C's panels elsewhere; each cluster tail is
held below FAR_TOL / K of the K clusters, so the sum keeps FAR_TOL, at
the separation of a chunk's nearest point that uses it.  At 512 panels
that is 62-76 terms at KAPPA radii, 24-29 at 2 KAPPA, 14-18 at 4 KAPPA
and 10-12 at 8 KAPPA.  ``PanelFlow.stream(z, tol)`` holds the same tails
to a looser tol on the same moments, and then the body expansion also
takes each point with 1 < |Z| < KAPPA whose order at tol they reach.

A panel's velocity and stream function each have one closed form, in
real arithmetic in its frame on one log-ratio and angle
(``_frame_logs``), ``_w_integrals`` and ``_psi_integrals``, run in place
over chunks of point-panel pairs: by the tangency rows (``_system_rows``)
and by ``_w_rows`` and ``_psi_rows``, which the corner functionals run
on the whole layout and the treecode on each cluster's run of panels,
at all of the cluster's near points of one evaluation at once.

A Kutta root and a corner census read each corner's line
a1(Gamma) = a1(0) + slope Gamma in slope form off three unit columns,
the flows at unit Re w_inf, unit Im w_inf and unit Gamma: their psi is
projected on the corner rings as a flow's is (``_corner_a1``), and the
root -a1(0) / slope scales with w_inf at any magnitude.  A representation
only decides where the columns come from: the exact flows through the
body's map, or the panel system (``_System.stream``), projected once per
system (``_System.corner_a1``) after its flows at Gamma = 0 and Gamma_1
pass the slip gate (``_affine_corners``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from . import analysis
from .errors import (DegenerateKuttaError, FluidDomainError, InvalidGeometryError,
                     SolverError)
from .geometry import Body, _gauss_legendre

TWO_PI = 2.0 * np.pi
# largest tangency residual, and circulation residual in units of R (of
# Gamma / R), relative to the speed scale V (``FarField.speed_scale``)
TOL_SLIP = 1e-8
# panel flows use the multipole expansion at |Z| >= KAPPA, Z = (z - c) / R
# with c the centroid and R the circumradius; its truncation tail stays
# below FAR_TOL * V in psi / R and in w, V the speed scale
# (``FarField.speed_scale``).  KAPPA > 1.5
# keeps the CLI's exact-regression ring at 1.5 R wholly on the direct
# path, not split by rounding
KAPPA = 1.6
FAR_TOL = 1e-13
# panels per cluster of the near-zone treecode: closer to the body each
# contiguous run of CLUSTER panels is expanded about its own centre c_C
# at |z - c_C| >= KAPPA * rho_C, rho_C its largest node distance from c_C
CLUSTER = 16


@dataclass(frozen=True)
class FarField:
    """Free-stream complex velocity and circulation of an exterior flow.

    By convention w_inf is real positive unless a run deliberately tilts
    the stream; bodies carry their own incidence instead.
    """

    w_inf: complex
    circulation: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.w_inf) and np.isfinite(self.circulation)):
            raise InvalidGeometryError("w_inf and circulation must be finite")

    def speed_scale(self, R: float) -> float:
        """V = max(|w_inf|, |Gamma| / (2 pi R)), or 1 at rest, the scale of
        every tolerance on the flow; a subnormal V, whose tolerances would
        underflow, raises InvalidGeometryError."""
        V = max(abs(self.w_inf), abs(self.circulation) / (TWO_PI * R))
        if 0.0 < V < np.finfo(float).tiny:
            raise InvalidGeometryError(f"speed scale V = {V:g} is subnormal")
        return V or 1.0

    @property
    def flow_direction(self) -> complex:
        """Unit vector of the free-stream velocity (as a complex number)."""
        if self.w_inf == 0:
            return 1.0 + 0j
        return np.conj(self.w_inf) / abs(self.w_inf)


# ---------------------------------------------------------------------------
# exact flows


@dataclass(frozen=True)
class MappedFlow:
    """Exact flow around a body through its conformal map z = f(sigma).

    In the sigma plane the flow is U(sigma) = u sigma + conj(u) / sigma
    + (Gamma / 2 pi i) log sigma with u = w_inf f'(inf); then
    w(z) = U'(sigma) / f'(sigma) and psi = Im U(sigma).  Any circulation
    is admissible; velocities diverge at a corner unless Gamma is its
    Kutta root (``kutta_solve``), where U' = 0 at its prevertex.
    """

    body: Body
    far: FarField

    @property
    def map(self):
        """The body's map: to_z, to_sigma, dz_dsigma, f'(inf)."""
        return self.body.conformal_map

    def _sigma(self, z):
        sig = self.map.to_sigma(z)
        if np.any(np.abs(sig) < 1 - 1e-12):
            raise FluidDomainError("point strictly inside the body")
        return sig

    def velocity(self, z):
        z = np.asarray(z, dtype=complex)
        # on a slit, to 1e-13 of a plate's chord; solid boundaries pass
        body = self.body
        if np.any(body.occupies(z, 2e-13 * body.circumradius) & ~body.contains(z)):
            raise FluidDomainError("velocity evaluated on the body slit")
        sig = self._sigma(z)
        u = self.far.w_inf * self.map.dz_dsigma_inf
        return ((u - np.conj(u) / sig**2 + self.far.circulation / (TWO_PI * 1j * sig))
                / self.map.dz_dsigma(sig))

    def stream(self, z, tol=FAR_TOL):
        """psi at the points z, exact: tol, the accuracy a panel flow's
        stream takes, is not read."""
        sig = self._sigma(z)
        u = self.far.w_inf * self.map.dz_dsigma_inf
        return (np.imag(u * sig + np.conj(u) / sig)
                - self.far.circulation / TWO_PI * np.log(np.abs(sig)))


def exact_flow(body: Body, far: FarField) -> MappedFlow | None:
    """Closed-form flow around the body, or None where it has no map."""
    return None if body.conformal_map is None else MappedFlow(body, far)


# ---------------------------------------------------------------------------
# linear-strength vortex panels


def _frame_logs(dx, dy, ux, uy, out, end=None):
    """a + ib = log(zl / (zl - 1)) of a straight panel za -> zb of length
    L, in its frame and units of L, at zl = x + iy: the offsets
    dx + i dy = z - za times conj(ux + i uy), (zb - za) / L**2.  Written
    in place into out = (x, y, a, b, x - 1, r**2) with r the distance to
    the nearer end; dx and dy are left holding |a| and 2x - 1.  Offsets
    ``end`` = (ex, ey) = z - zb give x - 1 every digit near zb (ey is
    overwritten).

    a = log(r1 / r2) = +-(1/2) log1p(|2x - 1| / r**2), whose argument is
    never negative, so no digit is lost near either end or far away; it
    is +-inf at a node.  b = atan2(-y, x (x - 1) + y**2).
    """
    x, y, a, b, c, d = out
    # zl = x + iy = (z - za) conj(zb - za) / L**2
    np.multiply(dx, ux, out=x)
    np.multiply(dy, uy, out=a)
    x += a
    np.multiply(dy, ux, out=y)
    np.multiply(dx, uy, out=a)
    y -= a
    if end is None:
        np.subtract(x, 1.0, out=c)
    else:
        ex, ey = end
        np.multiply(ex, ux, out=c)
        np.multiply(ey, uy, out=ey)
        c += ey
    # b, with y**2 in d
    np.multiply(y, y, out=d)
    np.multiply(x, c, out=b)
    b += d
    np.negative(y, out=dx)
    np.arctan2(dx, b, out=b)
    # r**2 = min(x**2, (x - 1)**2) + y**2 in d, and 2x - 1 in dy
    np.multiply(x, x, out=a)
    np.multiply(c, c, out=dy)
    np.minimum(a, dy, out=a)
    d += a
    np.add(x, c, out=dy)
    np.abs(dy, out=dx)
    with np.errstate(divide="ignore"):
        np.divide(dx, d, out=dx)
    np.log1p(dx, out=dx)
    dx *= 0.5
    np.copysign(dx, dy, out=a)
    return out


def _w_integrals(dx, dy, ux, uy, out, on=None):
    """The panel integrals, at the arguments of ``_frame_logs``,

        i0 = int_0^1 ds / (zl - s) = a + ib,
        i1 = int_0^1 s ds / (zl - s) = zl i0 - 1 = c + id,

    in place into out = (x, y, a, b, c, d); dx and dy are scratch.  b
    takes the principal (two-sided average) value 0 on the panel: at the
    index ``on`` where the caller knows which points lie on it, else
    within 1e-12 L of it.  i1 keeps an absolute error of a few ulps; at a
    node a = +-inf and i1 is NaN.
    """
    x, y, a, b, c, d = _frame_logs(dx, dy, ux, uy, out)
    if on is None:
        np.abs(y, out=dx)
        on = dx <= 1e-12
        on &= x > 1e-12
        on &= c < -1e-12
    b[on] = 0.0
    with np.errstate(invalid="ignore"):
        # c = x a - y b - 1 and d = x b + y a
        np.multiply(x, a, out=c)
        np.multiply(y, b, out=dx)
        c -= dx
        c -= 1.0
        np.multiply(x, b, out=d)
        np.multiply(y, a, out=dx)
        d += dx
    return out


def _psi_integrals(dx, dy, ex, ey, ux, uy, out):
    """The log integrals of the panel at the offsets z - za (dx, dy) and
    z - zb (ex, ey), as views (p0, p1) of the six buffers out; the
    offsets are scratch.  Per unit nodal strength the panel's psi is
    -(L / 2 pi) (p + (1/2) log L), p0 for its start node, p1 for its end:

        p0 = int_0^1 (1 - s) log|zl - s| ds,   p1 = int_0^1 s log|zl - s| ds.

    With a and b of ``_frame_logs``, m = x or x - 1 the offset from the
    nearer end, r the distance to it and rf to the other end,

        p0 + p1 = m a - y b - 1 + log rf,
        p1 = (x m - r**2 / 2) a - x y b - x / 2 - 1/4 + (log rf) / 2.

    Each factor of a vanishes at the nearer end, where a diverges, so no
    digit is lost near either end; log rf = (1/2) log(r**2 + |2x - 1|).
    a is clipped to +-1e3, so its terms are 0 at a node.  b takes no
    principal value: y b is continuous across the panel.
    """
    x, y, a, b, c, d = _frame_logs(dx, dy, ux, uy, out, end=(ex, ey))
    np.clip(a, -1e3, 1e3, out=a)
    # log rf in dx, and m in c: x - 1 where the end node is nearer, else x
    np.abs(dy, out=dx)
    dx += d
    np.log(dx, out=dx)
    dx *= 0.5
    np.copyto(c, x, where=dy <= 0.0)
    # p1 in y, p0 + p1 in c, with y b in ex
    np.multiply(y, b, out=ex)
    np.multiply(x, c, out=y)
    d *= 0.5
    y -= d
    y *= a
    c *= a
    c -= ex
    c -= 1.0
    c += dx
    ex *= x
    y -= ex
    x *= 0.5
    y -= x
    y -= 0.25
    dx *= 0.5
    y += dx
    np.subtract(c, y, out=d)
    return d, y


# point-cluster pairs per treecode chunk, points per chunk of the body
# expansion, and point-panel pairs per chunk of the assembly and of the
# psi and w rows
TREE_PAIRS = 16384


def _layout_panels(nodes, closed):
    """(ia, ib, za, zb, zb - za, L) of the panels on the layout nodes: panel
    j runs from node ia[j] = j to node ib[j] = j + 1 (node 0 when closed)."""
    ia = np.arange(len(nodes) if closed else len(nodes) - 1)
    ib = (ia + 1) % len(nodes)
    za, zb = nodes[ia], nodes[ib]
    span = zb - za
    return ia, ib, za, zb, span, np.hypot(span.real, span.imag)


def _psi_rows(z, nodes, closed, columns):
    """psi per unit nodal strength of the sheet on the layout nodes at the
    points z, times the strengths ``columns`` (n_nodes, k): (len(z), k).
    ``_psi_integrals`` runs in place over chunks of about TREE_PAIRS
    point-panel pairs, and each chunk's start-node and end-node parts
    meet the columns of their nodes, scaled by -L / 2 pi, in two
    products."""
    ia, ib, za, zb, span, lens = _layout_panels(nodes, closed)
    u = span / lens / lens
    half_log, k = 0.5 * np.log(lens), -lens / TWO_PI
    start_cols = k[:, None] * columns[ia]
    end_cols = k[:, None] * columns[ib]
    psi = np.empty((len(z), columns.shape[1]))
    step = max(1, TREE_PAIRS // len(za))
    buf = np.empty((10, min(step, len(z)), len(za)))
    for start in range(0, len(z), step):
        chunk = slice(start, start + step)
        dx, dy, ex, ey, *out = buf[:, :len(z[chunk])]
        for offset, coord, node in ((dx, z.real, za.real), (dy, z.imag, za.imag),
                                    (ex, z.real, zb.real), (ey, z.imag, zb.imag)):
            np.subtract(coord[chunk, None], node, out=offset)
        p0, p1 = _psi_integrals(dx, dy, ex, ey, u.real, u.imag, out)
        p0 += half_log
        p1 += half_log
        np.matmul(p0, start_cols, out=psi[chunk])
        psi[chunk] += p1 @ end_cols
    return psi


def _w_rows(z, nodes, closed, columns):
    """w per unit nodal strength of the sheet on the layout nodes at the
    points z, times the strengths ``columns`` (n_nodes, k): (len(z), k),
    complex.  ``_w_integrals`` runs in place over chunks as in
    ``_psi_rows``, taking the principal value within 1e-12 L of a panel.
    With e = (zb - za) / L each panel gives (i0 - i1) / (2 pi i e) to its
    start node and i1 / (2 pi i e) to its end node: with those columns S
    and E, w = (a - c) S + (b - d) iS + c E + d iE, four real products
    on the complex columns read as (re, im) pairs of floats."""
    ia, ib, za, _, span, lens = _layout_panels(nodes, closed)
    e = span / lens
    u = e / lens
    k = 1.0 / (TWO_PI * 1j * e)
    start_cols = k[:, None] * columns[ia]
    end_cols = k[:, None] * columns[ib]
    cols = [m.view(float)
            for m in (start_cols, 1j * start_cols, end_cols, 1j * end_cols)]
    w = np.empty((len(z), columns.shape[1]), dtype=complex)
    step = max(1, TREE_PAIRS // len(za))
    buf = np.empty((8, min(step, len(z)), len(za)))
    for start in range(0, len(z), step):
        chunk = slice(start, start + step)
        dx, dy, *out = buf[:, :len(z[chunk])]
        np.subtract(z.real[chunk, None], za.real, out=dx)
        np.subtract(z.imag[chunk, None], za.imag, out=dy)
        _, _, a, b, c, d = _w_integrals(dx, dy, u.real, u.imag, out)
        a -= c
        b -= d
        w[chunk] = (a @ cols[0] + b @ cols[1] + c @ cols[2] + d @ cols[3]).view(complex)
    return w


def _orders(S, ratio, tol, t=1.0 / KAPPA):
    """Least expansion order p, elementwise, whose tail bound
    S t**(p+1) max(1, ratio) / (2 pi (1 - t)) is at most tol at the
    separation t = rho / |Z - c| <= 1 / KAPPA, in closed form:
    p = ceil(log(tol / S * 2 pi (1 - t) / max(1, ratio)) / log t) - 1.
    S bounds the integral of |gamma| ds over the panels, all within rho
    of the centre c, in units of R.  The psi tail carries 1 / (p+1) <= 1
    and the w tail ratio = t / rho, so one bound holds both.  tol / S
    comes first, so the orders keep their bits under w_inf -> 2**k w_inf.
    An overflowed S (a huge w_inf) bounds nothing, and a zero S or t needs
    no term: order 0.  int16, whose stable argsort is a radix sort; an
    order past its range (t -> 1) saturates there, never wraps."""
    S = np.where(np.isfinite(S), S, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.ceil(np.log(tol / S * (TWO_PI * (1.0 - t)) / np.maximum(1.0, ratio))
                    / np.log(t)) - 1.0
    return np.fmin(np.fmax(p, 0.0), np.iinfo(np.int16).max).astype(np.int16)


class _Expansion(NamedTuple):
    """The exact multipole expansions of G groups of linear-strength panels
    about their centres c (radii rho), as the coefficient rows that
    _multipole sums: with the moments
    m_k = M_k / rho**k and u = rho / (z - c), row k of w_rows (m_k)
    multiplies u**(k+1) in w, and row k of psi_rows (m_{k+1} / (k+1))
    multiplies u**(k+1) in psi.  S and tol are what the tail bound
    (_orders) reads; top is each group's order at |z - c| = KAPPA rho, to
    which its moments are built."""

    centre: np.ndarray    # (G,)
    rho: np.ndarray       # (G,)
    m0: np.ndarray        # (G,) Re m_0, the circulation of each group
    w_rows: np.ndarray    # (p + 1, G)
    psi_rows: np.ndarray  # (p, G)
    S: np.ndarray         # (G,) integral of |gamma| ds of each group
    tol: float            # the bound on each tail
    top: np.ndarray       # (G,) int16

    def rows(self, field):
        return self.w_rows if field is _W else self.psi_rows

    def order(self, t):
        """Each group's order at the separation t = rho / |z - c|, t
        broadcast against the groups, never above its top."""
        return np.minimum(_orders(self.S, t / self.rho, self.tol, t), self.top)


def _expansion(za, zb, ga, gb, centre, rho, tol):
    """Expansions of groups of linear-strength panels za -> zb (nodal
    strengths ga, gb; one group per row, the panels along the last axis)
    about their centres, with the moments of each to its order at
    |z - c| = KAPPA rho, whose tail bound (_orders) meets tol there.

    Gauss-Legendre with ceil((p+2)/2) nodes per panel integrates the
    degree-(p+1) integrand gamma(s) (zeta(s) - c)**k exactly.  A tol that
    underflows to 0 is met by no order: InvalidGeometryError.
    """
    if not tol > 0.0:
        raise InvalidGeometryError("the far-field tolerance underflows to 0")
    lens = np.abs(zb - za)
    S = np.sum(0.5 * lens * (np.abs(ga) + np.abs(gb)), axis=-1)
    t = 1.0 / KAPPA
    top = _orders(S, t / rho, tol, t)
    p = int(top.max())
    s, wq = _gauss_legendre((p + 3) // 2)
    v = ((za[..., None] + s * (zb - za)[..., None] - centre[:, None, None])
         / rho[:, None, None]).reshape(len(rho), -1)
    # quadrature weight times strength at each node, as complex
    q = ((0.5 * lens[..., None] * wq)
         * (ga[..., None] * (1.0 - s) + gb[..., None] * s)).astype(complex)
    q = q.reshape(len(rho), -1)
    m = np.empty((p + 1, len(rho)), dtype=complex)
    for k in range(p + 1):
        m[k] = q.sum(axis=-1)
        q *= v
    m[np.arange(p + 1)[:, None] > top] = 0.0
    psi_rows = m[1:] / np.arange(1, p + 1)[:, None]
    return _Expansion(centre, rho, m[0].real, m, psi_rows, S, tol, top)


def _multipole(field, rows, m0, rho, d, orders):
    """A field of expansions at the offsets d = z - c from their centres:
    with u = rho / d and the field's rows (_Expansion.rows), Horner's rule
    gives s = sum_k rows[k] u**(k+1); then w = s / (2 pi i rho) and
    psi = (Re s - m0 log|d|) / (2 pi).

    The leading axis of d runs over evaluations at the given expansion
    orders, descending, so that the rows of each power run over a leading
    slice; w takes rows 0..order and psi rows 0..order-1 (m_1..m_order).
    rows[k], m0 and rho broadcast against d."""
    u = rho / d
    y = np.zeros(d.shape, dtype=complex)
    n = orders + (field is _W)
    # live[k]: the evaluations that take row k
    live = np.searchsorted(-n, -np.arange(n[0])).tolist()
    for k in range(len(live) - 1, -1, -1):
        y[:live[k]] *= u[:live[k]]
        y[:live[k]] += rows[k, :live[k]]
    y *= u
    if field is _W:
        return y / (TWO_PI * 1j * rho)
    return (y.real - m0 * np.log(np.abs(d))) / TWO_PI


class _Field(NamedTuple):
    """One field of a vortex sheet: its panel rows and its dtype."""

    rows: Callable
    dtype: type


_PSI = _Field(_psi_rows, float)
_W = _Field(_w_rows, complex)


@dataclass(frozen=True, eq=False)
class PanelFlow:
    """Evaluable flow of nodal vortex strengths on unit-frame nodes plus free stream."""

    body: Body
    far: FarField
    nodes: np.ndarray
    gamma: np.ndarray
    closed: bool

    def _panels(self):
        """(za, zb, ga, gb): every panel's end nodes and nodal strengths."""
        ia, ib, za, zb, _, _ = _layout_panels(self.nodes, self.closed)
        return za, zb, self.gamma[ia], self.gamma[ib]

    def _held(self, exp: _Expansion, tol: float) -> _Expansion:
        """The expansion ``exp`` on its own moments with its G tails held to
        tol V / G each, tol V in all, V the speed scale: at FAR_TOL the
        cached expansion's own tol, to the bit."""
        return exp._replace(tol=tol * self.far.speed_scale(self.body.circumradius)
                            / len(exp.rho))

    def _accumulate(self, z, field, tol=FAR_TOL):
        """Vortex-sheet part of a field at the points z: each cluster's
        expansion where |z - c_C| >= KAPPA rho_C, its tail held to tol V / K
        of the K clusters, and elsewhere the closed forms of its panels,
        ``field.rows`` on its open run of nodes at all its near points of
        the evaluation at once.  A chunk of points takes each cluster's
        expansion to the order of its nearest point that uses it."""
        z = np.asarray(z, dtype=complex)
        tree = self._held(self._clusters, tol)
        K = len(tree.rho)
        coeffs = tree.rows(field)
        flat = z.ravel()
        acc = np.empty(flat.shape, dtype=field.dtype)
        near = []  # (cluster, point) pairs
        step = max(1, TREE_PAIRS // K)
        for start in range(0, len(flat), step):
            zc = flat[start:start + step]
            d = zc - tree.centre[:, None]
            dist = np.abs(d)
            far = dist >= KAPPA * tree.rho[:, None]
            nearest = np.min(dist, axis=1, where=far, initial=np.inf)
            order = tree.order(tree.rho / nearest)
            # clusters by descending order; the expansion of a cluster too
            # close to a point is evaluated on its convergence circle and
            # dropped
            by = np.argsort(-order, kind="stable")
            d = np.where(far, d, KAPPA * tree.rho[:, None])[by]
            terms = _multipole(field, coeffs[:, by, None], tree.m0[by, None],
                               tree.rho[by, None], d, order[by])
            acc[start:start + step] = np.where(far[by], terms, 0.0).sum(axis=0)
            near.append(np.argwhere(~far) + [0, start])
        cluster, point = np.concatenate(near).T
        point = point[np.argsort(cluster, kind="stable")]
        counts = np.bincount(cluster, minlength=K)
        ia, ib, *_ = _layout_panels(self.nodes, self.closed)
        for k, at in enumerate(np.split(point, np.cumsum(counts)[:-1])):
            if len(at):
                # the run's first start node and every panel's end node
                run = slice(k * CLUSTER, (k + 1) * CLUSTER)
                nodes = np.append(ia[run][0], ib[run])
                acc[at] += field.rows(flat[at], self.nodes[nodes], False,
                                      self.gamma[nodes, None])[:, 0]
        return acc.reshape(z.shape)

    def _sheet(self, z, field, tol=FAR_TOL):
        """Vortex-sheet part of a field at the unit-frame points z, to within
        tol V (``_held``): the body's own expansion at |z| >= KAPPA, each
        point to the order of its own separation, and _accumulate
        elsewhere.  Above FAR_TOL the body expansion also takes each point
        with 1 < |z| < KAPPA whose order at tol is within the moments
        already built (top)."""
        r = np.abs(z)
        far = np.asarray(r >= KAPPA)  # writable at a 0-d z too
        inner = ~far & (r > 1.0) & (tol > FAR_TOL)
        out = np.empty(z.shape, dtype=field.dtype)
        if far.any() or inner.any():
            exp = self._held(self._expansion, tol)
            t = exp.rho / r[inner]
            far[inner] = _orders(exp.S, t / exp.rho, exp.tol, t) <= exp.top
            d = z[far]
            sheet = np.empty(d.shape, dtype=field.dtype)
            for start in range(0, len(d), TREE_PAIRS):
                chunk = slice(start, start + TREE_PAIRS)
                order = exp.order(exp.rho / np.abs(d[chunk]))
                # points by descending order
                by = np.argsort(-order, kind="stable")
                sheet[chunk][by] = _multipole(field, exp.rows(field), exp.m0, exp.rho,
                                              d[chunk][by], order[by])
            out[far] = sheet
        if not far.all():
            out[~far] = self._accumulate(z[~far], field, tol)
        return out

    @cached_property
    def _expansion(self) -> _Expansion:
        """The whole sheet expanded about the centroid, rho = 1, with orders
        that meet FAR_TOL V."""
        return _expansion(*(a[None] for a in self._panels()),
                          np.zeros(1, complex), np.ones(1),
                          FAR_TOL * self.far.speed_scale(self.body.circumradius))

    @cached_property
    def _clusters(self) -> _Expansion:
        """Contiguous runs of CLUSTER panels, the last run padded by
        zero-strength copies of its last panel, each expanded about its
        centre c_C, radius rho_C (its largest node distance from c_C), to
        the orders at which the K cluster tails together meet FAR_TOL."""
        za, zb, ga, gb = self._panels()
        n = len(za)
        K = -(-n // CLUSTER)
        # only the last run can be short: it repeats the last panel
        slot = np.arange(K * CLUSTER).reshape(K, CLUSTER)
        idx, pad = np.minimum(slot, n - 1), slot >= n
        za, zb = za[idx], zb[idx]
        ga, gb = np.where(pad, 0.0, ga[idx]), np.where(pad, 0.0, gb[idx])
        ends = np.concatenate([za, zb], axis=1)
        centre = 0.5 * (ends.real.min(axis=1) + ends.real.max(axis=1)) \
            + 0.5j * (ends.imag.min(axis=1) + ends.imag.max(axis=1))
        rho = np.abs(ends - centre[:, None]).max(axis=1)
        return _expansion(za, zb, ga, gb, centre, rho,
                          FAR_TOL * self.far.speed_scale(self.body.circumradius) / K)

    def _unit(self, z):
        """The points z in the unit frame, (z - c) / R; FluidDomainError
        where the body occupies one (tol = 1e-12 R)."""
        z = np.asarray(z, dtype=complex)
        if np.any(self.body.occupies(z, 1e-12 * self.body.circumradius)):
            raise FluidDomainError("point inside the body or on the plate slit")
        return (z - self.body.centroid) / self.body.circumradius

    def velocity(self, z):
        return self.far.w_inf + self._sheet(self._unit(z), _W)

    def stream(self, z, tol=FAR_TOL):
        """psi at the points z, the expansions' tails held to tol V R in
        place of FAR_TOL V R, V the speed scale (``_sheet``); a tol below
        FAR_TOL, to which the moments are built, is not met."""
        z = self._unit(z)
        return self.body.circumradius * (
            self._sheet(z, _PSI, tol) + np.imag(self.far.w_inf * z) - self._psi_body)

    @cached_property
    def _psi_body(self) -> float:
        # stream-function level on the body (slip normalization psi = 0), / R
        mid = 0.5 * (self.nodes[0] + self.nodes[1])
        return np.imag(self.far.w_inf * mid) + float(self._accumulate(mid, _PSI))


@dataclass(frozen=True)
class PanelSolution:
    """Solved vortex-sheet strengths with solver diagnostics."""

    flow: PanelFlow
    residual_norm: float
    condition_number: float
    # circulation row applied to the solved strengths, sum L_j (g_j + g_{j+1}) / 2
    circulation_of_strengths: float


@dataclass(frozen=True)
class _System:
    """A panel system solved once for its three right-hand sides, read-only.

    On unit-frame nodes the right-hand side is linear in Re w_inf, Im w_inf
    and Gamma / R, so the strengths and residuals at any free stream and
    Gamma superpose the columns solved at unit values of the three."""

    body: Body
    nodes: np.ndarray
    closed: bool
    basis: np.ndarray        # (n_nodes, 3) strengths of the three columns
    residual: np.ndarray     # (n_pan + 1, 3) their residuals over every row
    circulation: np.ndarray  # (3,) the circulation row applied to basis
    cond: float              # estimate of the square system's 1-norm condition
                             # number, a lower bound (``_assemble``)

    def stream(self, z):
        """psi of the flows at unit Re w_inf, Im w_inf and Gamma at z, shape
        (3,) + z.shape: each column's sheet (``_psi_rows``) and free stream,
        less its level at the first panel's midpoint, times (R, R, 1)."""
        z = np.asarray(z, dtype=complex)
        R = self.body.circumradius
        at = np.append((z.ravel() - self.body.centroid) / R,
                       0.5 * (self.nodes[0] + self.nodes[1]))
        psi = _psi_rows(at, self.nodes, self.closed, self.basis)
        psi[:, 0] += at.imag
        psi[:, 1] += at.real
        return ((psi[:-1] - psi[-1]) * [R, R, 1.0]).T.reshape((3,) + z.shape)

    @cached_property
    def corner_a1(self) -> np.ndarray:
        """``_corner_a1`` of the system's unit columns, once per system."""
        a1 = _corner_a1(self.body, self.stream)
        a1.flags.writeable = False
        return a1


def _corner_a1(body: Body, stream) -> np.ndarray:
    """a1 of every protruding corner on its two ``default_fit_radii``
    rings for each of three unit columns, whose psi ``stream`` gives with
    shape (3,) + z.shape: shape (3, corners, 2), in the units of psi of
    ``analysis._ring_a1``, so that
    a1 R**(pi/beta) = Re w_inf a[0] + Im w_inf a[1] + Gamma a[2]."""
    return analysis._ring_a1(stream, [c for c in body.corners if c.protruding],
                             body.circumradius)


def _system_rows(nodes, closed):
    """Rows of the panel system on the layout nodes, with their right-hand
    sides at unit Re w_inf, Im w_inf and Gamma as columns.

    One midpoint tangency row per panel and the circulation row
    sum(L_j * (g_j + g_{j+1}) / 2) = Gamma, which on nodes in units of R
    (``_assemble``) reads Gamma / R.  The circulation row is
    row n_nodes - 1, so the leading n_nodes rows are the square system; a
    closed body's last tangency row follows it.

    The tangency rows take the panel integrals of ``_w_integrals`` in
    chunks of about TREE_PAIRS point-panel pairs, each projected on the
    collocation normal n_i = i e_i in place: Re(w n_i) per unit strength
    is Re(i0 e_i conj(e_j)) / (2 pi) - Re(i1 e_i conj(e_j)) / (2 pi) for
    the panel's start node and the second term alone, added, for its end.
    """
    _, _, za, zb, span, lens = _layout_panels(nodes, closed)
    if np.any(lens <= 1e-14 * np.max(lens)):  # one node: every length 0
        raise SolverError("degenerate panel layout (duplicate nodes)")
    e = span / lens
    u = e / lens
    mids = 0.5 * (za + zb)
    # e_i / (2 pi), the collocation side of e_i conj(e_j) / (2 pi)
    ei = e / TWO_PI
    n_nodes = len(nodes)
    n_pan = len(za)

    rows = np.zeros((n_pan + 1, n_nodes))
    tangency = rows[:-1]
    step = max(1, TREE_PAIRS // n_pan)
    buf = np.empty((8, min(step, n_pan), n_pan))
    for start in range(0, n_pan, step):
        chunk = slice(start, start + step)
        dx, dy, cos, sin, a, b, c, d = buf[:, :len(mids[chunk])]
        np.subtract(mids.real[chunk, None], za.real, out=dx)
        np.subtract(mids.imag[chunk, None], za.imag, out=dy)
        # the collocation point of panel i lies on panel i alone
        own = np.arange(len(mids[chunk]))
        _w_integrals(dx, dy, u.real, u.imag, (cos, sin, a, b, c, d),
                     on=(own, start + own))
        # cos + i sin = e_i conj(e_j) / (2 pi)
        np.multiply(ei.real[chunk, None], e.real, out=cos)
        np.multiply(ei.imag[chunk, None], e.imag, out=dx)
        cos += dx
        np.multiply(ei.imag[chunk, None], e.real, out=sin)
        np.multiply(ei.real[chunk, None], e.imag, out=dx)
        sin -= dx
        c *= cos  # the end node's part: Re(i1 (cos + i sin))
        d *= sin
        c -= d
        a *= cos  # the start node's: Re(i0 (cos + i sin)) less that
        b *= sin
        a -= b
        a -= c
        # the start nodes ia and end nodes ib of _layout_panels, as slices
        tangency[chunk, :n_pan] = a
        tangency[chunk, 1:] += c[:, :n_nodes - 1]
        if closed:
            tangency[chunk, 0] += c[:, -1]
    # panel j adds half its length to each of its nodes
    half = 0.5 * lens
    rows[-1, :n_pan] = half
    rows[-1, 1:] += half[:n_nodes - 1]
    if closed:
        rows[-1, 0] += half[-1]
    # v . n = Re(w n) = 0 with w = w_inf + sheet: -Re(w_inf n) on the right
    normal = 1j * e
    rhs = np.zeros((n_pan + 1, 3))
    rhs[:-1, 0], rhs[:-1, 1], rhs[-1, 2] = -normal.real, normal.imag, 1.0
    if closed:
        # the circulation row takes the last tangency row's place in M
        rows[[-2, -1]] = rows[[-1, -2]]
        rhs[[-2, -1]] = rhs[[-1, -2]]
    return rows, rhs


# the last assembled system is kept, keyed by (body, n_panels, cluster)
@lru_cache(maxsize=1)
def _assemble(body: Body, n_panels: int, cluster: float) -> _System:
    # a miss: free the stale system before building the next, so that two
    # never coexist (peak memory)
    _assemble.cache_clear()
    if n_panels < body.min_panels:
        raise InvalidGeometryError(f"{n_panels} panels: a {body.kind} needs "
                                   f"at least {body.min_panels}")
    nodes, closed = body.panel_nodes(n_panels, cluster)
    nodes = (nodes - body.centroid) / body.circumradius
    rows, rhs = _system_rows(nodes, closed)
    n_nodes = len(nodes)
    M = rows[:n_nodes]
    # kappa_1 = ||M||_1 ||M^-1||_1 from lower bounds of ||M^-1||_1 (Hager,
    # Higham), with no n x n inverse in memory: the Gamma column is
    # M^-1 e_(n-1), the circulation row's column of M^-1; then M^-1 of e/n
    # and of Higham's alternating v, and one solve with M^T on the signs of
    # those three columns, whose largest entry bounds it too
    i = np.arange(n_nodes)
    v = (-1.0) ** i * (1 + i / (n_nodes - 1))
    x = np.linalg.solve(M, np.column_stack(
        [rhs[:n_nodes], np.full(n_nodes, 1 / n_nodes), v]))
    basis = x[:, :3].copy()
    z = np.linalg.solve(M.T, np.sign(x[:, 2:]))
    lower = np.abs(x[:, 2:]).sum(axis=0) * [1, 1, 1 / np.abs(v).sum()]
    cond = float(np.linalg.norm(M, 1) * np.max(np.append(lower, np.abs(z))))
    if not cond <= 1e13:
        raise SolverError(f"panel system condition number {cond:.3g} exceeds 1e13",
                          condition_number=cond)
    residual = rows @ basis - rhs
    circulation = rows[n_nodes - 1] @ basis
    for arr in (nodes, basis, residual, circulation):
        arr.flags.writeable = False
    return _System(body, nodes, closed, basis, residual, circulation, cond)


def panel_solve(body: Body, far: FarField, n_panels: int,
                cluster: float = 1.0) -> PanelSolution:
    """Solve for linear-strength vortex panels around a body.

    One tangency condition (v . n = 0) per panel midpoint plus the
    explicit circulation row sum(L_j * (g_j + g_{j+1}) / 2) = Gamma, which
    reads Gamma / R on the unit frame (``_system_rows``).  Closed bodies
    have one nodal unknown per panel, so the last tangency equation is
    left out of the square system in favour of the circulation row; it is
    implied by the others.  After the solve every row is held to
    TOL_SLIP * V.  Open plates keep every row (one more node than panels).

    The square system depends only on the geometry.  One LU solve gives
    the strengths at unit Re w_inf, Im w_inf and Gamma / R, and with a
    solve by its transpose a lower-bound estimate of its 1-norm condition
    number ||M||_1 ||M^-1||_1, exact where the Gamma column is M^-1's
    largest (the circle, the plate).  A body given fewer than its
    ``min_panels`` or a subnormal speed scale V (``FarField.speed_scale``)
    raises InvalidGeometryError; a system above 1e13 raises SolverError,
    and a singular one numpy's LinAlgError.
    The last assembled (body, n_panels, cluster) system is kept, so every
    solve of the same body superposes the three columns and their
    residuals.
    """
    R = body.circumradius
    V = far.speed_scale(R)
    system = _assemble(body, n_panels, cluster)
    c = np.array([np.real(far.w_inf), np.imag(far.w_inf), far.circulation / R])
    g = system.basis @ c
    circ = float(R * (system.circulation @ c))
    residual = float(np.max(np.abs(system.residual @ c)))
    if not residual <= TOL_SLIP * V:
        # perfbench's oracle parses the message
        raise SolverError(f"tangency residual {residual} exceeds tol_slip",
                          condition_number=system.cond)

    flow = PanelFlow(body=body, far=far, nodes=system.nodes, gamma=g,
                     closed=system.closed)
    return PanelSolution(flow=flow, residual_norm=residual,
                         condition_number=system.cond,
                         circulation_of_strengths=circ)


# ---------------------------------------------------------------------------
# Kutta condition and corner census over circulation


def kutta_solve(body: Body, w_inf: complex, corner_id: int, n_panels: int,
                representation: str = "panel") -> CornerCensusEntry:
    """The affine a1(Gamma) of one protruding corner, whose root is the
    circulation making that corner regular (a1 = 0).

    a1 depends affinely on Gamma (superposition), so the representation's
    unit columns fix the line (``_affine_corners``); the result is the
    corner's ``corner_census`` entry in the same representation.
    """
    corners = body.corners
    if not 0 <= corner_id < len(corners):
        raise InvalidGeometryError(f"no corner {corner_id}")
    corner = corners[corner_id]
    if not corner.protruding:
        raise InvalidGeometryError("Kutta condition applies to protruding corners")
    return _affine_corners(body, w_inf, [corner], n_panels, representation)[0]


def _affine_corners(body: Body, w_inf: complex, corners, n_panels: int,
                    representation: str):
    """Each corner's ``CornerCensusEntry`` in slope form, read off the
    unit columns of the representation (``_corner_a1``).

    "exact": the exact flows at unit Re w_inf, Im w_inf and Gamma through
    the body's conformal map, with no panel system; a body with no map
    raises InvalidGeometryError.  "panel": the system on ``n_panels``
    panels (``_System.corner_a1``), whose flows at Gamma = 0 and
    Gamma_1 = V R, V the speed scale at Gamma = 0, are solved on every
    call, so a line is read only where both its ends pass the slip gate.
    Any other representation raises InvalidGeometryError.
    DegenerateKuttaError is raised for the given corners alone."""
    if representation not in ("panel", "exact"):
        raise InvalidGeometryError(
            f"unknown representation {representation!r}; "
            "the representations are 'panel' and 'exact'")
    R = body.circumradius
    if representation == "exact":
        flows = [exact_flow(body, far)
                 for far in (FarField(1.0), FarField(1j), FarField(0.0, 1.0))]
        if flows[0] is None:
            raise InvalidGeometryError(
                f"exact representation needs a closed-form map; a {body.kind} has none")
        a1 = _corner_a1(body, lambda z: np.array([f.stream(z) for f in flows]))
    else:
        for gamma in (0.0, FarField(w_inf).speed_scale(R) * R):
            panel_solve(body, FarField(w_inf, gamma), n_panels)
        a1 = _assemble(body, n_panels, 1.0).corner_a1
    ids = [c.corner_id for c in body.corners if c.protruding]
    a1 = a1[:, [ids.index(c.corner_id) for c in corners]]
    a0 = np.real(w_inf) * a1[0] + np.imag(w_inf) * a1[1]
    return _affine_entries(corners, a0, a1[2], R)


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

    ``a1`` of every corner is affine in Gamma, so corner i is regular, at
    the singular threshold, on one closed interval about root_i; the
    least number of singular corners at any Gamma, ``min_singular_count``,
    is n less the deepest overlap of those intervals, and
    ``regularizes_all_somewhere`` is its being 0.  Pairs of roots within
    1e-3 V R are reported beside it.  A swept grid provides a redundancy
    check: the number of singular corners at each of its Gamma, never
    below the least.  The fields are keys of the summary's census.
    """

    corners: tuple
    sweep_gammas: tuple
    sweep_singular_counts: tuple
    min_singular_count: int
    regularizes_all_somewhere: bool
    coincident_pairs: tuple


def _affine_entries(corners, a0, slope, R) -> list:
    """Each corner's ``CornerCensusEntry`` from its line a0 + slope * Gamma
    on the inner and the outer ring, shape (len(corners), 2) each, in the
    units of psi of ``_ring_a1``: the root -a0 / slope, which a body
    scaled by 2**k scales by 2**k exactly, slope and a0 of the outer ring
    in physical units (times R**(-pi/beta)), and the change of the root
    between the rings as its uncertainty.  DegenerateKuttaError names the
    first corner whose a1 does not respond to circulation, |slope| < 1e-12
    on either ring (slope is dimensionless in units of psi)."""
    entries = []
    for corner, a, s in zip(corners, a0, slope):
        if np.min(np.abs(s)) < 1e-12:
            raise DegenerateKuttaError(
                f"a1 at corner {corner.corner_id} does not respond to circulation")
        roots = -a / s
        to_physical = R ** (-np.pi / corner.exterior_angle_beta)
        entries.append(CornerCensusEntry(
            corner_id=corner.corner_id, root=float(roots[1]),
            slope=float(s[1] * to_physical), a1_at_zero=float(a[1] * to_physical),
            root_uncertainty=float(abs(roots[1] - roots[0]))))
    return entries


def corner_census(body: Body, w_inf: complex, n_panels: int,
                  representation: str = "panel") -> CensusResult:
    """Affine a1(Gamma) census over all protruding corners of a body.

    The representation's three unit columns fix every corner's affine form
    exactly (``_affine_corners``): the exact flows of a mapped body, or the
    panel system on ``n_panels`` panels once its flows at Gamma = 0 and
    Gamma = V R (V the speed scale at Gamma = 0) pass the slip gate.  The census reads off the roots and the least
    singular count from the lines' regular intervals, root +-
    TOL_A1 V R**(1 - pi/beta) / |slope|, by one sort of their ends, and
    sweeps a 33-point grid spanning all roots with margin as a redundancy
    check.  Root coincidence and the margin scale with V R, and the
    singular threshold with V.
    """
    corners = [c for c in body.corners if c.protruding]
    if len(corners) < 2:
        raise FluidDomainError("census needs at least two protruding corners")
    R = body.circumradius
    V = FarField(w_inf).speed_scale(R)
    scale = V * R
    entries = _affine_corners(body, w_inf, corners, n_panels, representation)

    roots = np.array([e.root for e in entries])
    coincidence_tol = 1e-3 * scale
    coincident = [(a.corner_id, b.corner_id) for a, b in combinations(entries, 2)
                  if abs(a.root - b.root) < coincidence_tol]

    lo, hi = roots.min(), roots.max()
    margin = max(0.25 * (hi - lo), 0.1 * scale)
    gamma_grid = np.linspace(lo - margin, hi + margin, 33)

    singular_above = [analysis.TOL_A1 * V * R ** (1.0 - np.pi / c.exterior_angle_beta)
                      for c in corners]
    counts = tuple(sum(1 for e, tol in zip(entries, singular_above)
                       if abs(e.a1_at_zero + e.slope * gam) > tol)
                   for gam in gamma_grid)
    # the deepest overlap of the regular intervals, a start counted before
    # an end at the same Gamma: the intervals are closed
    half = np.array(singular_above) / np.abs([e.slope for e in entries])
    ends = np.concatenate([roots - half, roots + half])
    steps = np.repeat([1, -1], len(roots))
    least = len(roots) - int(np.max(np.cumsum(steps[np.lexsort((-steps, ends))])))
    assert least <= min(counts), "the sweep reads fewer singular corners than the lines"
    return CensusResult(
        corners=tuple(entries), sweep_gammas=tuple(float(g) for g in gamma_grid),
        sweep_singular_counts=counts, min_singular_count=least,
        regularizes_all_somewhere=least == 0,
        coincident_pairs=tuple(coincident))
