"""Incompressible irrotational flows: exact formulas and vortex panels.

Complex-velocity convention: w = v_x - i*v_y as a function of z = x + iy,
holomorphic in the fluid.  The potential W = phi + i*psi has W' = w, and
psi is normalized to zero on the body (slip).  Circulation is the
counterclockwise line integral of velocity, Gamma = Re of the closed
contour integral of w dz.

Exact solutions (MappedFlow): the flow around the unit circle pushed
through a closed-form conformal map z = f(sigma) of its exterior onto the
body's, a scaling for a circle and the Joukowsky map for a flat plate.

Panel representation: linear-strength vortex sheets on the boundary with
one strength unknown per node (corner nodes shared between adjacent
sides) and the total circulation imposed as an explicit constraint row.
Every body, closed or open, collocates the normal velocity v . n = 0 at
the panel midpoints.

Away from the body a panel flow is evaluated by the exact multipole
expansion of its vortex sheet about the centroid c: with the moments
M_k = integral of gamma(s) (zeta(s) - c)**k ds,

    w = w_inf + (1 / 2 pi i) sum_k M_k / (z - c)**(k + 1),
    psi = Im(w_inf z) - (1 / 2 pi) Re[M_0 log(z - c)
                                     - sum_{k>=1} M_k / (k (z - c)**k)],

truncated where its a-priori tail bound at the point's own separation
t = R / |z - c| <= 1 / KAPPA drops below FAR_TOL.  Closer in, a
two-level treecode: the panels are split into contiguous clusters of
CLUSTER panels, each with its own exact expansion of the same form about
its centre c_C (radius rho_C, its largest node distance from c_C).  A
point takes cluster C's expansion where |z - c_C| >= KAPPA rho_C and the
closed-form panel integrals of C's panels elsewhere; each cluster tail is
held below FAR_TOL / K of the K clusters, so the sum keeps FAR_TOL, at
the separation of a chunk's nearest point that uses it.  At 512 panels
that is 62-76 terms at KAPPA radii, 24-29 at 2 KAPPA, 14-18 at 4 KAPPA
and 10-12 at 8 KAPPA.  The velocity closed form, used there and in the
tangency assembly alike, takes a cancellation-free log for panels short
against their distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import analysis
from .errors import FluidDomainError, InvalidGeometryError, SolverError
from .geometry import Body, Circle, FlatPlate, _gauss_legendre

TWO_PI = 2.0 * np.pi
# largest tangency or circulation residual, relative to |w_inf|
TOL_SLIP = 1e-8
# panel flows use the multipole expansion at |z - c| >= KAPPA * R, with c
# the centroid and R the circumradius; its truncation tail stays below
# FAR_TOL * |w_inf| * R in psi and FAR_TOL * |w_inf| in w.  KAPPA > 1.5
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
        if not np.isfinite(self.w_inf):
            raise InvalidGeometryError("w_inf must be finite")

    @property
    def flow_direction(self) -> complex:
        """Unit vector of the free-stream velocity (as a complex number)."""
        if self.w_inf == 0:
            return 1.0 + 0j
        return np.conj(self.w_inf) / abs(self.w_inf)


# ---------------------------------------------------------------------------
# exact flows


@dataclass(frozen=True)
class CircleScalingMap:
    """z(sigma) = radius * sigma: the exterior of the unit circle scaled
    onto the exterior of a circle of that radius."""

    radius: float

    @property
    def body(self) -> Circle:
        return Circle(self.radius)

    prevertices = ()

    @property
    def dz_dsigma_inf(self) -> complex:
        return complex(self.radius)

    def to_z(self, sigma):
        return self.radius * np.asarray(sigma, dtype=complex)

    def dz_dsigma(self, sigma):
        return np.full_like(np.asarray(sigma, dtype=complex), self.radius)

    def to_sigma(self, z):
        return np.asarray(z, dtype=complex) / self.radius

    def sigma_radius(self, r):
        """|sigma| of the circle whose image reaches distance r."""
        return r / self.radius


@dataclass(frozen=True)
class JoukowskyPlateMap:
    """z(sigma) = exp(-i alpha) * (chord/4) * (sigma + 1/sigma).

    Maps the exterior of the unit circle onto the exterior of the plate
    slit; sigma = +1 is the trailing edge (corner 0), sigma = -1 the
    leading edge (corner 1).
    """

    chord: float
    alpha: float

    prevertices = (1.0 + 0j, -1.0 + 0j)

    @property
    def body(self) -> FlatPlate:
        return FlatPlate(self.chord, self.alpha)

    @property
    def dz_dsigma_inf(self) -> complex:
        return complex(np.exp(-1j * self.alpha)) * (self.chord / 4.0)

    def to_z(self, sigma):
        sigma = np.asarray(sigma, dtype=complex)
        return self.dz_dsigma_inf * (sigma + 1.0 / sigma)

    def dz_dsigma(self, sigma):
        sigma = np.asarray(sigma, dtype=complex)
        return self.dz_dsigma_inf * (1.0 - 1.0 / sigma**2)

    def sigma_radius(self, r):
        """|sigma| of the circle whose image (an ellipse) reaches distance r."""
        a = self.chord / 4.0
        return (r + np.sqrt(r**2 - 4.0 * a**2)) / (2.0 * a)

    def to_sigma(self, z):
        """Exterior preimage, |sigma| >= 1.

        Uses sqrt(zeta-2)*sqrt(zeta+2), whose branch cut lies exactly on
        the slit, then picks the root outside the unit circle (the two
        roots are reciprocal).  zeta -+ 2 is formed as (z -+ 2d)/d with
        d = f'(inf): 2d is the edge point itself, so the offset from an
        edge keeps every digit.
        """
        z = np.asarray(z, dtype=complex)
        d = self.dz_dsigma_inf
        zeta = z / d
        s = np.sqrt((z - 2.0 * d) / d) * np.sqrt((z + 2.0 * d) / d)
        sig = 0.5 * (zeta + s)
        with np.errstate(divide="ignore", invalid="ignore"):
            other = np.where(sig != 0, 1.0 / sig, np.inf)
        return np.where(np.abs(sig) >= 1.0, sig, other)


@dataclass(frozen=True)
class MappedFlow:
    """Exact flow around a body through its conformal map z = f(sigma).

    In the sigma plane the flow is U(sigma) = u sigma + conj(u) / sigma
    + (Gamma / 2 pi i) log sigma with u = w_inf f'(inf); then
    w(z) = U'(sigma) / f'(sigma) and psi = Im U(sigma).  Any circulation
    is admissible; velocities diverge at a corner unless Gamma is its
    Kutta root (``kutta_circulation``).
    """

    map: object  # body, to_z, to_sigma, dz_dsigma, f'(inf), prevertices
    far: FarField

    @property
    def body(self) -> Body:
        return self.map.body

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

    def stream(self, z):
        sig = self._sigma(z)
        u = self.far.w_inf * self.map.dz_dsigma_inf
        return (np.imag(u * sig + np.conj(u) / sig)
                - self.far.circulation / TWO_PI * np.log(np.abs(sig)))

    def kutta_circulation(self, corner_id: int) -> float:
        """Circulation making a corner regular, U' = 0 at its prevertex:
        Gamma = 4 pi Im(u sigma_k).  A plate's trailing-edge root in a real
        w_inf is -pi * chord * w_inf * sin(alpha)."""
        prevertices = self.map.prevertices
        if not 0 <= corner_id < len(prevertices):
            raise InvalidGeometryError(f"no corner {corner_id}")
        u = self.far.w_inf * self.map.dz_dsigma_inf
        return float(2 * TWO_PI * np.imag(u * prevertices[corner_id]))


def conformal_map(body: Body):
    """Map of the exterior of the unit circle onto the body's exterior, or
    None where there is none in closed form: the one list of closed forms."""
    if isinstance(body, Circle):
        return CircleScalingMap(body.radius)
    if isinstance(body, FlatPlate):
        return JoukowskyPlateMap(body.chord, body.alpha)
    return None


def exact_flow(body: Body, far: FarField) -> MappedFlow | None:
    """Closed-form flow around the body, or None where it has no map."""
    cmap = conformal_map(body)
    return None if cmap is None else MappedFlow(cmap, far)


# ---------------------------------------------------------------------------
# linear-strength vortex panels


def _local(z, za, zb):
    d = zb - za
    # correctly rounded, and the same for one panel as for a broadcast row
    length = np.hypot(d.real, d.imag)
    e = d / length
    return (np.asarray(z, dtype=complex) - za) / e, e, length


def vortex_panel_w_coeffs(z, za, zb):
    """Complex-velocity influence (per unit nodal strength) of a straight
    linear-strength vortex panel from za to zb: w = ca*g_a + cb*g_b.

    Points on the panel get the principal-value (two-sided average)
    velocity.

    In the panel frame (zl the point, L the length) the integral is
    i0 = log(zl / (zl - L)) = log(1 + y) with y = L / (zl - L).  At
    |y| <= 1/2 the ratio 1 + y rounds to within an ulp of 1 and its log
    would lose the digits of y, so log|1 + y| = log1p(y_r (2 + y_r) +
    y_i**2) / 2 and arg(1 + y) come from y itself; i1_L = zl i0 / L - 1
    then keeps an absolute error of a few ulps, where the log of the
    ratio gave |zl| / L ulps.  Only the few pairs within 2L of the
    panel's far end (and those at it) take the log of the ratio.
    """
    zl, e, L = _local(z, za, zb)
    zl = np.asarray(zl)
    L = np.broadcast_to(L, zl.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = L / (zl - L)
        i0 = np.asarray(0.5 * np.log1p(y.real * (2.0 + y.real) + y.imag**2)
                        + 1j * np.arctan2(y.imag, 1.0 + y.real))
        near = ~(np.abs(y) <= 0.5)
        zn, Ln = zl[near], L[near]
        on = (np.abs(zn.imag) <= 1e-12 * Ln) & (zn.real > 1e-12 * Ln) \
            & (zn.real < Ln * (1 - 1e-12))
        ratio = zn / (zn - Ln)
        i0[near] = np.log(np.where(on, np.abs(ratio) + 0j, ratio))
    i1_L = (zl * i0 - L) / L
    ca = (i0 - i1_L) / (TWO_PI * 1j)
    cb = i1_L / (TWO_PI * 1j)
    return ca / e, cb / e


def vortex_panel_psi_coeffs(z, za, zb):
    """Stream-function influence of the same panel; continuous across it."""
    zl, _, L = _local(z, za, zb)
    zm = zl - L
    at0 = np.abs(zl) <= 1e-300
    atL = np.abs(zm) <= 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        lz = np.where(at0, 0.0, np.log(np.where(at0, 1.0, zl)))
        lzl = np.where(atL, 0.0, np.log(np.where(atL, 1.0, zm)))
    j0 = zl * lz - zm * lzl - L
    j1_L = (L**2 / 2.0 * lzl - L**2 / 4.0 - zl * L / 2.0
            + zl**2 / 2.0 * (lz - lzl)) / L
    ca = -np.real(j0 - j1_L) / TWO_PI
    cb = -np.real(j1_L) / TWO_PI
    return ca, cb


# point-cluster pairs per treecode chunk, points per chunk of the body
# expansion, and point-panel pairs per chunk of the assembly
TREE_PAIRS = 16384
# each expansion tabulates its order at the separations t = rho / |z - c|
# = j / (SEPARATIONS * KAPPA), j = 0..SEPARATIONS, and a point takes the
# order tabulated at the next separation up from its own
SEPARATIONS = 64


@lru_cache(maxsize=8)
def _powers(ts, n):
    """t**k, k = 0..n-1, for each t of the tuple ts (rows), by Python's
    pow, whatever numpy's power kernel rounds; shared read-only.  Every
    expansion asks for the same separations (_expansion)."""
    out = np.array([[t**k for k in range(n)] for t in ts])
    out.flags.writeable = False
    return out


def _orders(S, ratio, tol, t=1.0 / KAPPA):
    """Least expansion order p, elementwise, whose tail bound
    S t**(p+1) / (2 pi (1 - t)) * max(1 / (p+1), ratio) is at most tol
    at the separation t = rho / |z - c| <= 1 / KAPPA.  S bounds the
    integral of |gamma| ds over the expanded panels, all within rho of the
    centre c; 1 / (p+1) gives the psi tail, and ratio = t R / rho the w
    tail relative to the length scale R of tol.

    The bound falls as p grows.  Bounded by
    S t**(p+1) / (2 pi (1 - t)) * max(1, ratio), it meets tol from an
    order known in closed form, one order to spare; p steps down from
    there while the order below meets tol as well."""
    # an overflowed S (from a huge w_inf) bounds nothing: order 0
    S, t = np.where(np.isfinite(S), S, 0.0), np.asarray(t, dtype=float)
    scale = TWO_PI * (1.0 - t)
    with np.errstate(divide="ignore", invalid="ignore"):
        top = (np.log(tol * scale) - np.log(S)
               - np.log(np.maximum(1.0, ratio))) / np.log(t)
    p = np.fmax(top, 0.0).astype(int) + 1
    # powers of each t, to a multiple of 64 orders, so that calls share them
    tp = _powers(tuple(t.ravel().tolist()), 64 * (int(p.max(initial=0)) // 64 + 1))
    at = np.arange(t.size).reshape(t.shape)
    while True:
        q = np.maximum(p - 1, 0)
        bound = S * tp[at, q + 1] / scale * np.maximum(1.0 / (q + 1), ratio)
        down = (p > 0) & (bound <= tol)
        if not down.any():
            return p
        p -= down


def _order_index(t):
    """Column of an order table holding the next tabulated separation at
    or above t."""
    return np.minimum(np.ceil(t * (SEPARATIONS * KAPPA)), SEPARATIONS).astype(np.intp)


class _Expansion(NamedTuple):
    """G groups of linear-strength panels (rows of za, zb, ga, gb) and
    their exact multipole expansions about their centres c (radii rho),
    as the coefficient rows that _multipole sums: with the moments
    m_k = M_k / rho**k and u = rho / (z - c), row k of w_rows (m_k)
    multiplies u**(k+1) in w, and row k of psi_rows (m_{k+1} / (k+1))
    multiplies u**(k+1) in psi.  orders[g, j] is group g's order
    (_orders) at the separation j / (SEPARATIONS * KAPPA)."""

    za: np.ndarray        # (G, panels)
    zb: np.ndarray
    ga: np.ndarray
    gb: np.ndarray
    centre: np.ndarray    # (G,)
    rho: np.ndarray       # (G,)
    m0: np.ndarray        # (G,) Re m_0, the circulation of each group
    w_rows: np.ndarray    # (p + 1, G)
    psi_rows: np.ndarray  # (p, G)
    orders: np.ndarray    # (G, SEPARATIONS + 1)

    def rows(self, field):
        return self.w_rows if field is _W else self.psi_rows


def _expansion(za, zb, ga, gb, centre, rho, R, tol):
    """Expansions of groups of linear-strength panels za -> zb (nodal
    strengths ga, gb; one group per row, the panels along the last axis)
    about their centres, each to the order whose tail bound (_orders)
    meets tol at each tabulated separation, and its moments to its order
    at |z - c| = KAPPA rho.

    Gauss-Legendre with ceil((p+2)/2) nodes per panel integrates the
    degree-(p+1) integrand gamma(s) (zeta(s) - c)**k exactly.
    """
    lens = np.abs(zb - za)
    S = np.sum(0.5 * lens * (np.abs(ga) + np.abs(gb)), axis=-1)
    ratio = (R / rho) / KAPPA
    steps = np.arange(SEPARATIONS + 1) / SEPARATIONS
    orders = _orders(S[:, None], ratio[:, None] * steps, tol, steps / KAPPA)
    p = int(orders.max())
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
    m[np.arange(p + 1)[:, None] > orders[:, -1]] = 0.0
    psi_rows = m[1:] / np.arange(1, p + 1)[:, None]
    return _Expansion(za, zb, ga, gb, centre, rho, m[0].real, m, psi_rows,
                      orders.astype(np.int16))


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
    """One field of a vortex sheet: its panel closed form and its dtype."""

    coeffs: Callable
    dtype: type


_PSI = _Field(vortex_panel_psi_coeffs, float)
_W = _Field(vortex_panel_w_coeffs, complex)


@dataclass(frozen=True, eq=False)
class PanelFlow:
    """Evaluable flow induced by nodal vortex strengths plus free stream."""

    body: Body
    far: FarField
    nodes: np.ndarray
    gamma: np.ndarray
    closed: bool

    def _panels(self):
        """(za, zb, ga, gb): every panel's end nodes and nodal strengths."""
        n = len(self.gamma)
        ia = np.arange(n if self.closed else n - 1)
        ib = (ia + 1) % n
        return self.nodes[ia], self.nodes[ib], self.gamma[ia], self.gamma[ib]

    def _accumulate(self, z, field):
        """Vortex-sheet part of a field at the points z: each cluster's
        expansion where |z - c_C| >= KAPPA rho_C, the closed forms of its
        panels elsewhere.  A chunk of points takes each cluster's
        expansion to the order of its nearest point that uses it."""
        z = np.asarray(z, dtype=complex)
        tree = self._clusters
        K = len(tree.rho)
        rows = tree.rows(field)
        flat = z.ravel()
        acc = np.empty(flat.shape, dtype=field.dtype)
        step = max(1, TREE_PAIRS // K)
        for start in range(0, len(flat), step):
            zc = flat[start:start + step]
            d = zc - tree.centre[:, None]
            dist = np.abs(d)
            far = dist >= KAPPA * tree.rho[:, None]
            nearest = np.min(dist, axis=1, where=far, initial=np.inf)
            order = tree.orders[np.arange(K), _order_index(tree.rho / nearest)]
            # clusters by descending order; the expansion of a cluster too
            # close to a point is evaluated on its convergence circle and
            # dropped
            by = np.argsort(-order, kind="stable")
            d = np.where(far, d, KAPPA * tree.rho[:, None])[by]
            terms = _multipole(field, rows[:, by, None], tree.m0[by, None],
                               tree.rho[by, None], d, order[by])
            part = np.where(far[by], terms, 0.0).sum(axis=0)
            point, cluster = np.nonzero(~far.T)
            ca, cb = field.coeffs(zc[point, None], tree.za[cluster], tree.zb[cluster])
            np.add.at(part, point, np.sum(ca * tree.ga[cluster]
                                          + cb * tree.gb[cluster], axis=1))
            acc[start:start + step] = part
        return acc.reshape(z.shape)

    def _sheet(self, z, field):
        """Vortex-sheet part of a field: the body's own expansion at points
        at least KAPPA * R from the centroid, each to the order of its own
        separation, and _accumulate elsewhere."""
        d = z - self.body.centroid
        far = np.abs(d) >= KAPPA * self.body.circumradius
        out = np.empty(z.shape, dtype=field.dtype)
        if far.any():
            exp = self._expansion
            d = d[far]
            sheet = np.empty(d.shape, dtype=field.dtype)
            for start in range(0, len(d), TREE_PAIRS):
                chunk = slice(start, start + TREE_PAIRS)
                order = exp.orders[0, _order_index(exp.rho / np.abs(d[chunk]))]
                # points by descending order
                by = np.argsort(-order, kind="stable")
                sheet[chunk][by] = _multipole(field, exp.rows(field), exp.m0, exp.rho,
                                              d[chunk][by], order[by])
            out[far] = sheet
        if not far.all():
            out[~far] = self._accumulate(z[~far], field)
        return out

    @cached_property
    def _expansion(self) -> _Expansion:
        """The whole sheet expanded about the centroid, rho = R the body
        circumradius, with orders that meet FAR_TOL."""
        R = self.body.circumradius
        return _expansion(*(a[None] for a in self._panels()),
                          np.array([self.body.centroid]), np.array([R]), R,
                          FAR_TOL * (abs(self.far.w_inf) or 1.0) * R)

    @cached_property
    def _clusters(self) -> _Expansion:
        """Contiguous runs of CLUSTER panels as (K, CLUSTER) arrays, the
        last run padded by zero-strength copies of its last panel, each
        expanded about its centre c_C, radius rho_C (its largest node
        distance from c_C), to the orders at which the K cluster tails
        together meet FAR_TOL."""
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
        R = self.body.circumradius
        return _expansion(za, zb, ga, gb, centre, rho, R,
                          FAR_TOL * (abs(self.far.w_inf) or 1.0) * R / K)

    def _check(self, z):
        """z as a complex array; FluidDomainError where the body occupies
        a point (tol = 1e-12 R)."""
        z = np.asarray(z, dtype=complex)
        if np.any(self.body.occupies(z, 1e-12 * self.body.circumradius)):
            raise FluidDomainError("point inside the body or on the plate slit")
        return z

    def velocity(self, z):
        z = self._check(z)
        return self.far.w_inf + self._sheet(z, _W)

    def stream(self, z):
        z = self._check(z)
        return self._sheet(z, _PSI) + np.imag(self.far.w_inf * z) - self._psi_body

    @cached_property
    def _psi_body(self) -> float:
        # stream-function level on the body (slip normalization psi = 0)
        za, zb, _, _ = self._panels()
        mid = 0.5 * (za[0] + zb[0])
        return np.imag(self.far.w_inf * mid) + float(self._accumulate(mid, _PSI))


@dataclass(frozen=True)
class PanelSolution:
    """Solved vortex-sheet strengths with solver diagnostics."""

    flow: PanelFlow
    residual_norm: float
    condition_number: float
    # circulation row applied to the solved strengths, sum L_j (g_j + g_{j+1}) / 2
    circulation_of_strengths: float

    @property
    def nodes(self) -> np.ndarray:
        return self.flow.nodes

    @property
    def gamma(self) -> np.ndarray:
        return self.flow.gamma


@dataclass(frozen=True)
class _System:
    """A panel system solved once for its three right-hand sides, read-only.

    The right-hand side is linear in Re w_inf, Im w_inf and Gamma, so the
    strengths and residuals at any free stream and Gamma superpose the
    columns solved at unit Re w_inf, unit Im w_inf and unit Gamma."""

    nodes: np.ndarray
    closed: bool
    basis: np.ndarray        # (n_nodes, 3) strengths of the three columns
    residual: np.ndarray     # (n_pan + 1, 3) their residuals over every row
    circulation: np.ndarray  # (3,) the circulation row applied to basis
    cond: float              # 1-norm condition number of the square system


def _system_rows(nodes, closed):
    """Rows of the panel system on the layout nodes, with their right-hand
    sides at unit Re w_inf, Im w_inf and Gamma as columns.

    One midpoint tangency row per panel and the circulation row
    sum(L_j * (g_j + g_{j+1}) / 2) = Gamma.  The circulation row is row
    n_nodes - 1, so the leading n_nodes rows are the square system; a
    closed body's last tangency row follows it.
    """
    if closed:
        za, zb = nodes, np.roll(nodes, -1)
    else:
        za, zb = nodes[:-1], nodes[1:]
    lens = np.abs(zb - za)
    if np.any(lens <= 1e-14 * np.max(lens)):  # one node: every length 0
        raise SolverError("degenerate panel layout (duplicate nodes)")
    mids = 0.5 * (za + zb)
    normal = 1j * (zb - za) / lens
    n_nodes = len(nodes)
    n_pan = len(za)
    # panel j runs from node j to node ib[j]
    ib = (np.arange(n_pan) + 1) % n_nodes

    rows = np.zeros((n_pan + 1, n_nodes))
    tangency = rows[:-1]
    step = max(1, TREE_PAIRS // n_pan)
    for start in range(0, n_pan, step):
        chunk = slice(start, start + step)
        ca, cb = vortex_panel_w_coeffs(mids[chunk, None], za, zb)
        tangency[chunk, :n_pan] = np.real(ca * normal[chunk, None])
        tangency[chunk, ib] += np.real(cb * normal[chunk, None])
    # panel j adds half its length to each of its nodes
    rows[-1, :n_pan] = 0.5 * lens
    rows[-1, ib] += 0.5 * lens
    # v . n = Re(w n) = 0 with w = w_inf + sheet: -Re(w_inf n) on the right
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
    rows, rhs = _system_rows(nodes, closed)
    n_nodes = len(nodes)
    M = rows[:n_nodes]
    M_inv = np.linalg.inv(M)
    cond = float(np.linalg.norm(M, 1) * np.linalg.norm(M_inv, 1))
    if not cond <= 1e13:
        raise SolverError(f"panel system condition number {cond:.3g} exceeds 1e13",
                          condition_number=cond)
    basis = M_inv @ rhs[:n_nodes]
    residual = rows @ basis - rhs
    circulation = rows[n_nodes - 1] @ basis
    for arr in (nodes, basis, residual, circulation):
        arr.flags.writeable = False
    return _System(nodes, closed, basis, residual, circulation, cond)


def panel_solve(body: Body, far: FarField, n_panels: int = 256,
                cluster: float = 1.0) -> PanelSolution:
    """Solve for linear-strength vortex panels around a body.

    One tangency condition (v . n = 0) per panel midpoint plus the
    explicit circulation row sum(L_j * (g_j + g_{j+1}) / 2) = Gamma.
    Closed bodies have one nodal unknown per panel, so the last tangency
    equation is left out of the square system in favour of the
    circulation row; it is implied by the others and is checked to hold
    within TOL_SLIP * (|w_inf| or 1) after the solve, with every other row.
    Open plates keep every row (one more node than panels).

    The square system depends only on the geometry and is inverted once,
    which gives its 1-norm condition number ||M||_1 ||M^-1||_1 and the
    strengths at unit Re w_inf, Im w_inf and Gamma.  A body given fewer
    than its ``min_panels`` raises InvalidGeometryError; a system above
    1e13 raises SolverError, and a singular one numpy's LinAlgError.
    The last assembled (body, n_panels, cluster) system is kept, so every
    solve of the same body superposes the three columns and their
    residuals.
    """
    system = _assemble(body, n_panels, cluster)
    c = np.array([np.real(far.w_inf), np.imag(far.w_inf), far.circulation])
    g = system.basis @ c
    circ = float(system.circulation @ c)
    residual = float(np.max(np.abs(system.residual @ c)))
    cond = system.cond
    if residual > TOL_SLIP * (abs(far.w_inf) or 1.0):
        raise SolverError(
            f"tangency residual {residual} exceeds tol_slip", condition_number=cond)

    flow = PanelFlow(body=body, far=far, nodes=system.nodes, gamma=g,
                     closed=system.closed)
    return PanelSolution(flow=flow, residual_norm=residual,
                         condition_number=cond, circulation_of_strengths=circ)


# ---------------------------------------------------------------------------
# Kutta condition


def kutta_solve(body: Body, w_inf: complex, corner_id: int,
                n_panels: int = 512) -> analysis.CornerCensusEntry:
    """The affine a1(Gamma) of one protruding corner, whose root is the
    circulation making that corner regular (a1 = 0).

    a1 depends affinely on Gamma (superposition), so two panel solves fix
    the line (``_affine_corners``); the result is the corner's
    ``corner_census`` entry at the same n_panels.
    """
    corners = body.corners
    if not 0 <= corner_id < len(corners):
        raise InvalidGeometryError(f"no corner {corner_id}")
    corner = corners[corner_id]
    if not corner.protruding:
        raise InvalidGeometryError("Kutta condition applies to protruding corners")
    (entry,) = _affine_corners(body, w_inf, [corner], n_panels)
    return entry


def _affine_corners(body: Body, w_inf: complex, corners, n_panels: int):
    """Each corner's ``analysis.affine_corner`` from the panel flows at
    Gamma = 0 and Gamma = |w_inf| R (roots scale exactly with w_inf)."""
    gamma1 = abs(w_inf) * body.circumradius or 1.0
    flow0 = panel_solve(body, FarField(w_inf, 0.0), n_panels).flow
    flow1 = panel_solve(body, FarField(w_inf, gamma1), n_panels).flow
    return [analysis.affine_corner(flow0, flow1, c) for c in corners]
