"""Subsonic compressible stream-function solver on conformal annular grids.

Solves div( h(|grad psi|^2 / 2) grad psi ) = 0, h = 1/rho, around a
circle or flat plate.  The exterior of the body is mapped to the
exterior of the unit circle (identity scaling for the circle, Joukowsky
for the plate); in the conformal chart zeta = xi + i*theta with
sigma = exp(zeta) the operator keeps its divergence form and only the
metric factor H = |dz/dzeta| enters the coefficient, through
|grad_z psi|^2 = (psi_xi^2 + psi_theta^2) / H^2.  The grid works in units
of the body's circumradius R: dz/dzeta, H and psi~ are divided by R where
they are formed, so no length is squared and lengths scale out.

The discrete unknown is the perturbation psi~ = psi - psi_base from the
uniform-flow base psi_base = Im(w_inf z), whose face-integrated
fluxes are evaluated exactly from the conjugate potential Re F,
F(zeta) = w_inf z(e^zeta).  Those exact base fluxes telescope
around every cell, so a flow that is exactly uniform (horizontal plate)
is reproduced to roundoff on any grid.

Nonlinearity is handled by Picard iteration: freeze h at the current
gradient (the face densities by Newton iterations started at the previous
step's), solve the linear five-point system by conjugate gradients
warm-started from the current iterate and preconditioned with the exact
inverse of the constant-h operator (real FFT in theta, a Thomas sweep in
xi per Fourier mode), under-relax, repeat.  CG starts from the step's own
cell balance and stops at a tolerance that follows the outer residual,
max(LINEAR_TOL, min(PICARD_TOL, FORCING * residual)) (Eisenstat & Walker
1996): no step solves its frozen system further than the next residual needs.
Each CG iteration applies the operator once (the residual recurrence
r <- r - alpha A p); the true residual is formed once, at exit.  The face
m is formed one face kind and one direction of the nodal gradient at a
time, and the cell balance forms its own face differences of psi~.
The coefficient evaluation is guarded: any face whose half-squared mass
flux m reaches the sonic bound of the Bernoulli state aborts the solve
(the equation leaves its elliptic region there).  No density is ever
clamped.  The free-stream density is 1 (see ``gas``).

Each relaxed step is combined with up to ANDERSON_DEPTH earlier ones by
damped Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011; the
damping is OMEGA).  The mixed iterate is taken only while its face m stays
below the sonic bound on every face; otherwise the step takes the relaxed
iterate and the history restarts, so an abort only ever comes from a
plain step.

A grid is built for one free stream, whose base flow and outer Dirichlet
data it discretizes.  Besides its node flags it stores only what the
Picard steps read: base face fluxes, base gradients and H^2 at the faces
(eight full-grid arrays), the Dirichlet rows, and the Thomas factors (the
inverse pivots once per Fourier mode, half a full-grid array, and the
elimination factors once per (re, im) of each mode, one array).  Nodal z
and H, face z (abort location, and the corner masks in blocks of rows)
and nodal dz/dzeta (post-processing) are recomputed from the map, once by
each reader.  On every grid sigma = e^xi e^(i theta) is separable: one outer
product of n_r real and n_theta complex exponentials, not a complex
exponential per node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import GRID_BLOCK
from .errors import (InvalidGeometryError, IterationLimitError,
                     SolverError, SonicExcursionError, UnsupportedBodyError)
from .gas import BernoulliState, GasModel
from .geometry import Body
from .incompressible import FarField, MappedFlow, conformal_map

TWO_PI = 2.0 * np.pi
OMEGA = 0.7           # Picard under-relaxation
PICARD_TOL = 1e-10    # a solve converges at cell-balance residual < PICARD_TOL
MAX_PICARD_ITERS = 200  # a solve that has not converged by then stalls
LINEAR_TOL = 1e-13    # CG stops at max|A x - b| <= LINEAR_TOL max|b|
FORCING = 0.01        # a Picard step's CG tolerance: FORCING * its residual
CG_MAX_ITERS = 100    # subsonic h spreads need <= 25 (see solve_linear)
ANDERSON_DEPTH = 3    # earlier Picard steps mixed into each step
MIN_GRID_NODES = 16   # least n_r and n_theta of a grid
R_FAR = 25.0          # outer radius of every grid, in body circumradii


# ---------------------------------------------------------------------------
# grid


def _sigma(xi, theta):
    """sigma = e^xi e^(i theta) at xi (rows) x theta (columns): the outer
    product of n_r real and n_theta complex exponentials."""
    return np.exp(xi)[:, None] * np.exp(1j * theta)[None, :]


def _xi_derivative(psi_t, d_xi):
    """d/dxi of a nodal field: central differences inside and second-order
    one-sided differences on the body and outer rows."""
    gx = np.empty_like(psi_t)
    gx[1:-1, :] = (psi_t[2:, :] - psi_t[:-2, :]) / (2 * d_xi)
    gx[0, :] = (-3 * psi_t[0, :] + 4 * psi_t[1, :] - psi_t[2, :]) / (2 * d_xi)
    gx[-1, :] = (3 * psi_t[-1, :] - 4 * psi_t[-2, :] + psi_t[-3, :]) / (2 * d_xi)
    return gx


def _theta_derivative(psi_t, d_theta):
    """d/dtheta of a nodal field: periodic central differences."""
    gt = np.empty_like(psi_t)
    gt[:, 1:-1] = psi_t[:, 2:] - psi_t[:, :-2]
    gt[:, 0] = psi_t[:, 1] - psi_t[:, -1]
    gt[:, -1] = psi_t[:, 0] - psi_t[:, -2]
    gt /= 2 * d_theta
    return gt


def _theta_pairs(op, a):
    """op(a[:, j+1], a[:, j]) for every column j, periodic in theta."""
    out = np.empty_like(a)
    op(a[:, 1:], a[:, :-1], out=out[:, :-1])
    op(a[:, :1], a[:, -1:], out=out[:, -1:])
    return out


def _half_square(gx, gt, h2):
    """0.5 (gx^2 + gt^2) / h2, formed in gx (gt is overwritten)."""
    np.square(gx, out=gx)
    gx += np.square(gt, out=gt)
    gx *= 0.5
    gx /= h2
    return gx


def _differences(psi_t):
    """Face differences of a nodal field: psi[i+1, j] - psi[i, j] at the
    xi-faces and psi[i, j+1] - psi[i, j] (periodic) at the theta-faces."""
    return psi_t[1:, :] - psi_t[:-1, :], _theta_pairs(np.subtract, psi_t)


class ConformalGrid:
    """Body-fitted polar grid in the conformal sigma plane, discretized
    for one free stream ``far`` (built by build_grid).

    Radial levels are log-spaced (uniform in xi = log |sigma|) out to the
    ring that maps to R_FAR circumradii, which clusters physical
    resolution toward the body and its edges.  Nodes
    where the conformal factor vanishes (plate-edge preimages) are
    flagged; fields are undefined there.  Besides the flags the grid keeps
    only what the Picard steps read (see the module docstring); the nodal
    z and H = |dz/dzeta| / R are recomputed from the map on each read;
    dz/dzeta, H and psi~ are in units of R = body.circumradius.
    """

    def __init__(self, body: Body, far: FarField, cmap, n_r: int, n_theta: int):
        self.body, self.far, self.map = body, far, cmap
        self.R = R = body.circumradius  # the unit of psi~ and of H
        self.n_r, self.n_theta = n_r, n_theta
        self.xi = xi = np.linspace(0.0, np.log(cmap.sigma_radius(R_FAR * R)), n_r)
        self.theta = th = TWO_PI * np.arange(n_theta) / n_theta
        self.d_xi = d_xi = float(xi[1] - xi[0])
        self.d_theta = d_theta = float(th[1] - th[0])
        # Dirichlet data of psi~/R: total psi = 0 on the body ring and
        # Im W of the exact incompressible flow on the outer ring
        z_body, z_outer = self.map_z(xi[[0, -1]], th)
        self.psi_body = -np.imag(far.w_inf * z_body) / R
        self.psi_outer = (MappedFlow(cmap, far).stream(z_outer)
                          - np.imag(far.w_inf * z_outer)) / R
        self.flagged = self.H <= 1e-12  # singular map nodes

        xi_f = 0.5 * (xi[:-1] + xi[1:])  # xi_{i+1/2}
        te = th + 0.5 * d_theta  # theta_{j+1/2}; wraps periodically
        # (xi, theta) of the xi-face and theta-face midpoints
        self.faces = {"xi": (xi_f, th), "theta": (xi, te)}

        # each face quantity in turn, its complex temporaries freed before
        # the next: face-corner potentials of the uniform base, Re F at
        # (xi_{i+1/2}, theta_{j+1/2}) for i = -1..n_r-1 shifted to 0..n_r-1
        xe = np.concatenate([[xi[0]], xi_f, [xi[-1]]])
        pc = np.real(far.w_inf * self.map_z(xe, te)) / R  # (n_r+1, n_theta)
        # xi-face (i+1/2, j): phi(i+1/2, j-1/2) - phi(i+1/2, j+1/2), (n_r-1, n_theta)
        self.base_flux_xi = np.roll(pc[1:-1, :], 1, axis=1) - pc[1:-1, :]
        # theta-face (i, j+1/2): phi(i+1/2, j+1/2) - phi(i-1/2, j+1/2), (n_r, n_theta)
        self.base_flux_th = pc[1:, :] - pc[:-1, :]
        del pc
        # analytic base gradients at face midpoints (for m evaluation)
        dz, self.base_dxi_xf, self.base_dth_xf = self.base_gradient(
            *self.faces["xi"])
        self.H2_xf = np.abs(dz)**2  # H^2, which face_m divides by
        del dz
        dz, self.base_dxi_tf, self.base_dth_tf = self.base_gradient(
            *self.faces["theta"])
        self.H2_tf = np.abs(dz)**2
        # the h = 1 operator on Fourier mode k in theta is tridiagonal over
        # the n_r - 2 Dirichlet interior rows: a x[i-1] + d_k x[i] + a x[i+1].
        # Thomas elimination factors: inverse pivots, one column per mode,
        # and c_i = a / pivot_i, one column per (re, im) of each mode, so
        # that each step of the sweeps is one contiguous product (c_i once
        # per mode, broadcast or cast to complex, made _fast_solve 10-30 %
        # slower).
        a = d_theta / d_xi
        k = np.arange(n_theta // 2 + 1)
        d = d_xi / d_theta * (2 * np.cos(TWO_PI * k / n_theta) - 2) - 2 * a
        self.inv_pivot = inv_piv = np.empty((n_r - 2, k.size))
        inv_piv[0] = 1.0 / d
        for i in range(1, n_r - 2):
            inv_piv[i] = 1.0 / (d - a * a * inv_piv[i - 1])
        self.elim = list(np.repeat(a * inv_piv, 2, axis=1))  # rows, as swept

    @property
    def z(self):
        """Nodal z, (n_r, n_theta), mapped on each read."""
        return self.map_z(self.xi, self.theta)

    @property
    def H(self):
        """Nodal |dz/dzeta| / R, (n_r, n_theta), mapped on each read."""
        return np.abs(self.dz_dzeta(self.xi, self.theta))

    def map_z(self, xi, theta):
        """z at the chart points xi (rows) x theta (columns)."""
        return self.map.to_z(_sigma(xi, theta))

    def dz_dzeta(self, xi, theta):
        """dz/dzeta in units of R at the chart points xi x theta."""
        sigma = _sigma(xi, theta)
        return self.map.dz_dsigma(sigma) * sigma / self.R  # numpy divides in place

    def base_gradient(self, xi, theta):
        """dz/dzeta and the exact base (psi_xi, psi_theta), in units of R,
        at xi x theta; the two gradients are contiguous arrays."""
        dz = self.dz_dzeta(xi, theta)
        fp = self.far.w_inf * dz
        return dz, fp.imag.copy(), fp.real.copy()

    def with_boundary(self, interior):
        """Nodal psi~: the Dirichlet rows around the given interior rows."""
        psi_t = np.empty((self.n_r, self.n_theta))
        psi_t[0, :] = self.psi_body
        psi_t[1:-1, :] = interior
        psi_t[-1, :] = self.psi_outer
        return psi_t

    def face_m(self, psi_t):
        """Half-squared physical gradient at xi- and theta-faces, one face
        kind and one direction of the nodal gradient at a time."""
        d_xi, d_theta = self.d_xi, self.d_theta
        # xi-faces (n_r-1, n_theta)
        nodal = _theta_derivative(psi_t, d_theta)
        gt = nodal[1:, :] + nodal[:-1, :]
        del nodal
        gt *= 0.5
        gt += self.base_dth_xf
        gx = (psi_t[1:, :] - psi_t[:-1, :]) / d_xi + self.base_dxi_xf
        m_xf = _half_square(gx, gt, self.H2_xf)
        del gt
        # theta-faces (n_r, n_theta): face between (i,j) and (i,j+1)
        nodal = _xi_derivative(psi_t, d_xi)
        gx = _theta_pairs(np.add, nodal)
        del nodal
        gx *= 0.5
        gx += self.base_dxi_tf
        gt = _theta_pairs(np.subtract, psi_t) / d_theta + self.base_dth_tf
        return m_xf, _half_square(gx, gt, self.H2_tf)

    def nodal_gradient(self, psi_t):
        """Nodal (psi_xi, psi_theta) of the total stream function, dz/dzeta."""
        dz, gx, gt = self.base_gradient(self.xi, self.theta)
        gx += _xi_derivative(psi_t, self.d_xi)
        gt += _theta_derivative(psi_t, self.d_theta)
        return gx, gt, dz

    def nodal_velocity(self, gx, gt, dz, rho):
        """v = -i (psi_x + i psi_y) / rho, from rho v = -grad^perp psi;
        NaN at flagged nodes."""
        valid = ~self.flagged
        grad_z = np.full(gx.shape, np.nan, dtype=complex)
        grad_z[valid] = (gx[valid] + 1j * gt[valid]) / np.conj(dz[valid])
        with np.errstate(invalid="ignore"):
            return -1j * grad_z / rho

    def _balance(self, diffs, h_xf, h_tf, base_xi, base_th):
        """Face fluxes h (base + difference) and their net sum around every
        interior cell (rows 1..n_r-2): the one five-point stencil.  The
        fluxes are formed in the two difference arrays."""
        d_xi, d_theta = self.d_xi, self.d_theta
        flux_xi, flux_th = diffs
        for flux, num, den, base, h in ((flux_xi, d_theta, d_xi, base_xi, h_xf),
                                        (flux_th, d_xi, d_theta, base_th, h_tf)):
            flux *= num
            flux /= den
            flux += base
            flux *= h
        bal = flux_xi[1:, :] - flux_xi[:-1, :] + flux_th[1:-1, :]
        bal[:, 1:] -= flux_th[1:-1, :-1]
        bal[:, :1] -= flux_th[1:-1, -1:]
        return bal, flux_xi, flux_th

    def cell_residual(self, diffs, h_xf, h_tf):
        """Net face flux around every interior cell (rows 1..n_r-2) of the
        field whose face differences (see _differences) are diffs; the
        fluxes overwrite them."""
        bal, flux_xi, flux_th = self._balance(
            diffs, h_xf, h_tf, self.base_flux_xi, self.base_flux_th)
        scale = max(np.max(np.abs(flux_xi)), np.max(np.abs(flux_th)), 1e-300)
        return bal, scale

    def _fast_solve(self, r):
        """Exact inverse of the h = 1 operator: real FFT in the periodic
        theta direction, then per Fourier mode a Thomas sweep down and up
        the Dirichlet xi rows, on the (re, im) float view of the modes."""
        y = np.fft.rfft(r, axis=1)
        np.multiply(y.real, self.inv_pivot, out=y.real)
        np.multiply(y.imag, self.inv_pivot, out=y.imag)
        # y_i -= c_i y_(i-1) down the rows, then y_i -= c_i y_(i+1) up them,
        # through row views and one reused row of c_i y
        c, rows, cy = self.elim, list(y.view(np.float64)), np.empty(2 * y.shape[1])
        mul, sub = np.multiply, np.subtract
        for ci, prev, row in zip(c[1:], rows, rows[1:]):
            sub(row, mul(ci, prev, cy), row)
        for ci, nxt, row in zip(c[-2::-1], rows[:0:-1], rows[-2::-1]):
            sub(row, mul(ci, nxt, cy), row)
        return np.fft.irfft(y, n=self.n_theta, axis=1)

    def solve_linear(self, h_xf, h_tf, x0, r0=None, tol=LINEAR_TOL):
        """Solve the frozen-coefficient five-point system for the interior.

        Preconditioned conjugate gradients on the symmetric (negative
        definite) operator, preconditioned by the exact separable inverse
        of the constant-h operator at the mean face h.  h_xf and h_tf are
        face arrays, or scalars for a constant h.  CG starts from
        x0 + P^-1 r0 / mean h with r0 = b - A x0 (computed here unless
        given; b itself for a zero guess), which is already the solution
        when h is constant; x0 is a guess for the interior rows (0.0 for
        none).  Because h = 1/rho lies between 1/rho_0 and 1/rho*, the
        preconditioned condition number is bounded by rho_0/rho*
        independently of the grid.
        Each iteration applies the operator once and updates the residual
        by the recurrence r <- r - alpha A p; the true residual b - A x is
        formed when the recurrence meets tol, and CG restarts from it if
        it misses.  Returns the interior rows, the relative residual
        max|A x - b| / max|b| of the true residual and the number of CG
        iterations; raises SolverError if CG misses tol within
        CG_MAX_ITERS iterations.
        """
        n_r, n_theta = self.n_r, self.n_theta
        h_in = (np.broadcast_to(h_xf, (n_r - 1, n_theta)),
                np.broadcast_to(h_tf, (n_r, n_theta))[1:-1])
        h_mean = float(sum(np.sum(h) for h in h_in)
                       / sum(h.size for h in h_in))
        padded = np.zeros((n_r, n_theta))

        def apply(p):  # A p: homogeneous boundary rows, no base flux
            padded[1:-1, :] = p
            return self._balance(_differences(padded), h_xf, h_tf, 0.0, 0.0)[0]

        # A x - b is the cell balance of the field with boundary data
        b = -self._balance(_differences(self.with_boundary(0.0)), h_xf, h_tf,
                           self.base_flux_xi, self.base_flux_th)[0]
        b_max = max(float(np.max(np.abs(b))), 1e-300)
        if r0 is None:  # A 0 is exactly 0: a zero guess leaves b
            r0 = b - apply(x0) if np.any(x0) else b
        x = x0 + self._fast_solve(r0) / h_mean
        r, true_r, it = b - apply(x), True, 0
        while True:
            lin_res = float(np.max(np.abs(r))) / b_max
            if lin_res <= tol and true_r:
                return x, lin_res, it
            if lin_res <= tol:  # the recurrence says done: check once
                r, true_r = b - apply(x), True
                continue
            if it == CG_MAX_ITERS:
                raise SolverError(
                    f"preconditioned CG missed residual {tol:g} after "
                    f"{CG_MAX_ITERS} iterations (at {lin_res:.3e})")
            z = self._fast_solve(r) / h_mean
            # einsum, not a BLAS dot: threaded BLAS spins idle cores
            rz_new = float(np.einsum("ij,ij->", r, z))
            if true_r:  # a true residual (re)starts the directions
                p = z
            else:
                p *= rz_new / rz
                p += z
            rz, ap = rz_new, apply(p)
            alpha = rz / float(np.einsum("ij,ij->", p, ap))
            x += alpha * p
            ap *= alpha
            r -= ap
            true_r, it = False, it + 1


def build_grid(body: Body, far: FarField, n_r: int, n_theta: int) -> ConformalGrid:
    """Construct the annular grid for the free stream far.

    Requires n_r, n_theta >= MIN_GRID_NODES and an even n_theta, so that
    plate edges land on single flagged nodes.
    """
    cmap = conformal_map(body)
    if cmap is None:
        raise UnsupportedBodyError(
            f"a {body.kind} has no closed-form conformal map for the grid; "
            "the incompressible census handles it")
    if n_r < MIN_GRID_NODES or n_theta < MIN_GRID_NODES:
        raise InvalidGeometryError(f"grid needs n_r, n_theta >= {MIN_GRID_NODES}")
    if n_theta % 2:
        raise InvalidGeometryError("n_theta must be even")
    return ConformalGrid(body, far, cmap, n_r, n_theta)


# ---------------------------------------------------------------------------
# solution container


@dataclass(frozen=True, eq=False)
class CompressibleSolution:
    """Converged discrete stream-function flow with derived fields.

    Fields are nodal; flagged map nodes hold NaN.  ``residuals`` is the
    nonlinear cell-balance history (relative to the largest face flux)
    per Picard step; ``linear_residuals`` and ``linear_iterations`` give
    the relative residual and the CG iteration count of each step's
    linear solve.
    """

    grid: ConformalGrid
    psi: np.ndarray
    psi_pert: np.ndarray
    rho: np.ndarray
    mach: np.ndarray
    speed: np.ndarray
    velocity: np.ndarray
    residuals: tuple
    linear_residuals: tuple
    linear_iterations: tuple
    iterations: int
    max_mach: float
    max_mach_location: complex


class _Anderson:
    """Damped Anderson mixing (Walker & Ni 2011) of relaxed Picard steps.

    Step k of the fixed-point map G (one frozen-coefficient solve) gives
    f_k = G(x_k) - x_k and the relaxed step y_k = x_k + OMEGA f_k.  The
    mixed iterate is sum a_i y_i over step k and up to ``depth`` steps
    before it, with the weights (summing to 1) that minimize
    |sum a_i f_i|: a = g^-1 1 / (1' g^-1 1) for the Gram matrix g of the
    f_i, kept from step to step so that each step forms only its own row.
    Depth 0 keeps no history and is plain relaxed Picard.
    """

    def __init__(self, depth: int):
        self.depth = depth
        self.ys, self.fs, self.gram = [], [], np.empty((0, 0))

    def restart(self):
        """Drop every step of the history but the newest."""
        self.ys, self.fs = self.ys[-1:], self.fs[-1:]
        self.gram = self.gram[-1:, -1:]

    def mix(self, y, f):
        """The mixed iterate of the relaxed step y and its f; None without
        an earlier step or when the f_i are linearly dependent.  (y, f)
        joins the history, which keeps ``depth`` steps between calls."""
        row = [float(np.einsum("ij,ij->", f, g)) for g in self.fs + [f]]
        gram = np.empty((len(row), len(row)))
        gram[:-1, :-1], gram[-1], gram[:, -1] = self.gram, row, row
        self.ys.append(y)
        self.fs.append(f)
        self.gram, mixed = gram, None
        d = np.sqrt(np.diag(gram))
        if len(row) > 1 and np.all(d > 0.0):
            try:  # equilibrated: the f_i shrink by orders over a solve
                w = np.linalg.solve(gram / np.outer(d, d), 1.0 / d) / d
            except np.linalg.LinAlgError:
                w = None
            if w is not None:  # non-finite weights fail the sonic guard
                a = w / np.sum(w)
                mixed = a[0] * self.ys[0]
                for ai, yi in zip(a[1:], self.ys[1:]):
                    mixed += ai * yi
        if len(self.ys) > self.depth:
            del self.ys[0], self.fs[0]
            self.gram = gram[1:, 1:]
        return mixed


def _face_rho(state: BernoulliState, m, rho, where: str, grid: ConformalGrid):
    """(rho, 1/rho) at one kind of face from the start rho."""
    m_max = state.flux_max_m
    if np.any(m >= m_max):
        k = divmod(int(np.argmax(m)), m.shape[1])
        xi, theta = grid.faces[where]  # z of that face only
        z = grid.map_z(xi[k[0]:k[0] + 1], theta)[0, k[1]]
        raise SonicExcursionError(
            f"sonic flux bound reached at {where}-face {k}, z={z:.6g}",
            location=complex(z), m_value=float(m[k]), m_max=float(m_max))
    rho = state.density_from_flux(m, rho)
    return rho, 1.0 / rho


def solve_subsonic(grid: ConformalGrid,
                   state: BernoulliState) -> CompressibleSolution:
    """Picard solve of the compressible stream-function equation.

    Dirichlet data: psi = 0 on the body ring, psi = Im(W(z)) on
    the outer ring with W the exact incompressible potential for this
    body and (w_inf, Gamma).  Raises SonicExcursionError the moment any
    face leaves the subsonic (elliptic) region, IterationLimitError if
    the residual is not below PICARD_TOL within MAX_PICARD_ITERS steps.
    """
    # interior initial guess: blend the boundary data radially
    w = (grid.xi[1:-1, None] - grid.xi[0]) / (grid.xi[-1] - grid.xi[0])
    psi_t = grid.with_boundary((1 - w) * grid.psi_body[None, :]
                               + w * grid.psi_outer[None, :])

    residuals, linear_residuals, linear_iterations = [], [], []
    rho_xf = rho_tf = None
    mixer = _Anderson(ANDERSON_DEPTH)
    m_xf, m_tf = grid.face_m(psi_t)
    for _ in range(MAX_PICARD_ITERS):
        rho_xf, h_xf = _face_rho(state, m_xf, rho_xf, "xi", grid)
        rho_tf, h_tf = _face_rho(state, m_tf, rho_tf, "theta", grid)
        del m_xf, m_tf

        bal, scale = grid.cell_residual(_differences(psi_t), h_xf, h_tf)
        res = float(np.max(np.abs(bal)) / scale)
        residuals.append(res)
        if res < PICARD_TOL:
            break

        # the cell balance is A x - b at x = psi_t; the inner tolerance
        # follows the outer residual, never above PICARD_TOL
        interior, lin_res, lin_its = grid.solve_linear(
            h_xf, h_tf, psi_t[1:-1, :], -bal,
            max(LINEAR_TOL, min(PICARD_TOL, FORCING * res)))
        linear_residuals.append(lin_res)
        linear_iterations.append(lin_its)
        relaxed = (1.0 - OMEGA) * psi_t[1:-1, :] + OMEGA * interior
        mixed = mixer.mix(relaxed, interior - psi_t[1:-1, :])
        del interior
        if mixed is not None:
            # the mixed iterate only while every face stays subsonic, so
            # that an abort only ever comes from a plain step; its face m
            # is the next step's
            trial = grid.with_boundary(mixed)
            m_xf, m_tf = grid.face_m(trial)
            m_max = state.flux_max_m
            if np.all(m_xf < m_max) and np.all(m_tf < m_max):
                psi_t = trial
                continue
            mixer.restart()
        psi_t[1:-1, :] = relaxed
        m_xf, m_tf = grid.face_m(psi_t)
    else:
        raise IterationLimitError(
            f"Picard stalled at residual {residuals[-1]:.3e} "
            f"after {MAX_PICARD_ITERS} iterations", residuals=residuals)
    del mixer  # its history, before post-processing

    return _postprocess(grid, state, psi_t, residuals, linear_residuals,
                        linear_iterations)


def _first_near_max(values):
    """(max, (i, j)) of 2-D values, (i, j) the first in C order within 1e-12
    of the max, relative: mirror nodes of a symmetric flow tie to roundoff."""
    top = float(np.nanmax(values))
    return top, divmod(int(np.argmax(values >= top - 1e-12 * top)), values.shape[1])


def _postprocess(grid, state, psi_t, residuals, linear_residuals,
                 linear_iterations):
    gx, gt, dz = grid.nodal_gradient(psi_t)
    valid = ~grid.flagged
    m = np.full(psi_t.shape, np.nan)
    m[valid] = 0.5 * (gx[valid]**2 + gt[valid]**2) / np.abs(dz[valid])**2
    if np.any(m[valid] >= state.flux_max_m):
        k = divmod(int(np.nanargmax(m)), m.shape[1])
        z = grid.z[k]
        raise SonicExcursionError(
            f"sonic flux bound reached at node {k}, z={z:.6g}",
            location=complex(z), m_value=float(m[k]),
            m_max=float(state.flux_max_m))
    rho = np.full(psi_t.shape, np.nan)
    rho[valid] = state.density_from_flux(m[valid])
    speed = np.full(psi_t.shape, np.nan)
    speed[valid] = np.sqrt(2.0 * m[valid]) / rho[valid]
    mach = np.full(psi_t.shape, np.nan)
    mach[valid] = state.gas.mach(speed[valid], rho[valid])

    velocity = grid.nodal_velocity(gx, gt, dz, rho)
    del gx, gt, dz
    psi_t *= grid.R  # psi~ from units of R, in place
    z = grid.z
    max_mach, k = _first_near_max(np.where(valid, mach, -1.0))
    return CompressibleSolution(
        grid=grid, psi=np.imag(grid.far.w_inf * z) + psi_t, psi_pert=psi_t,
        rho=rho, mach=mach, speed=speed, velocity=velocity,
        residuals=tuple(residuals), linear_residuals=tuple(linear_residuals),
        linear_iterations=tuple(linear_iterations), iterations=len(residuals),
        max_mach=max_mach, max_mach_location=complex(z[k]))


def incompressible_reference_solution(grid: ConformalGrid) -> np.ndarray:
    """Discrete incompressible solve on the same grid (h frozen constant).

    Returns the perturbation field psi~ in units of R, as the grid's
    methods read it; used as the bias-free oracle for low-Mach comparisons
    and as the first frozen iterate of the blow-up metric.
    """
    interior, _, _ = grid.solve_linear(1.0, 1.0, 0.0)
    return grid.with_boundary(interior)


# ---------------------------------------------------------------------------
# refinement study


@dataclass(frozen=True)
class RefinementLevel:
    grid: tuple             # (n_r, n_theta)
    outcome: str            # "converged" | "sonic_excursion" | "iteration_limit"
    max_mach: float | None
    corner_max_mach: float | None
    sonic_margin_ratio: float
    excursion_m_ratio: float | None


@dataclass(frozen=True)
class RefinementStudy:
    levels: tuple
    margin_strictly_increasing: bool
    abort_at_finest: bool
    mach_cauchy_differences: tuple


def _near_corners(grid: ConformalGrid, xi, theta, radius: float):
    """Chart points xi x theta whose z lies within radius of a body corner;
    all of them for a body without corners (circle).  z is mapped in
    blocks of whole rows, about GRID_BLOCK points each."""
    corners = grid.body.corners
    if not corners:
        return np.ones((xi.size, theta.size), dtype=bool)
    near = np.empty((xi.size, theta.size), dtype=bool)
    step = max(1, GRID_BLOCK // theta.size)
    for start in range(0, xi.size, step):
        z = grid.map_z(xi[start:start + step], theta)
        # corner by corner: no complex temporary with a corner axis
        near[start:start + step] = np.logical_or.reduce(
            [np.abs(z - c.vertex) <= radius for c in corners])
    return near


def refinement_study(body: Body, gas: GasModel, mach_inf: float, gamma: float,
                     grids) -> RefinementStudy:
    """Grid-refinement signature of (non-)existence.

    Per level the study records (a) the sonic-margin ratio
    max_faces m / m_max of the frozen-coefficient (incompressible) first
    iterate over the corner neighbourhoods - a resolution-independent
    blow-up metric that keeps growing when no subsonic solution exists -
    and (b) the guarded Picard outcome (converged max Mach, or the abort).
    A SonicExcursionError or IterationLimitError of the Picard solve is
    recorded as its level's outcome and the study goes on; any other error
    (a CG SolverError, or any error of the reference solve) ends the study.
    """
    corner_radius = 0.15 * body.circumradius
    state = BernoulliState.from_free_stream(gas, mach_inf)
    q_inf = state.free_stream_speed(mach_inf)
    far = FarField(w_inf=q_inf, circulation=gamma)

    levels = []
    for (n_r, n_theta) in grids:
        grid = build_grid(body, far, n_r, n_theta)
        m_faces = grid.face_m(incompressible_reference_solution(grid))
        margin = max(
            float(np.max(m[_near_corners(grid, *grid.faces[where], corner_radius)])
                  / state.flux_max_m)
            for m, where in zip(m_faces, ("xi", "theta")))
        del m_faces  # the Picard solve does not read them

        outcome, max_mach, corner_mach, exc_ratio = "converged", None, None, None
        try:
            sol = solve_subsonic(grid, state)
            max_mach = sol.max_mach
            near = _near_corners(grid, grid.xi, grid.theta, corner_radius)
            vals = sol.mach[near & ~grid.flagged]
            corner_mach = float(np.nanmax(vals)) if vals.size else sol.max_mach
            del sol
        except SonicExcursionError as exc:
            outcome = "sonic_excursion"
            exc_ratio = float(exc.m_value / exc.m_max)
        except IterationLimitError:
            outcome = "iteration_limit"
        levels.append(RefinementLevel(
            grid=(n_r, n_theta), outcome=outcome, max_mach=max_mach,
            corner_max_mach=corner_mach, sonic_margin_ratio=margin,
            excursion_m_ratio=exc_ratio))
        del grid  # every array of this level is freed before the next grid

    margins = [lv.sonic_margin_ratio for lv in levels]
    increasing = all(b > a * (1 + 1e-9) for a, b in zip(margins, margins[1:]))
    machs = [lv.max_mach for lv in levels if lv.max_mach is not None]
    cauchy = tuple(abs(b - a) for a, b in zip(machs, machs[1:]))
    return RefinementStudy(
        levels=tuple(levels), margin_strictly_increasing=bool(increasing),
        abort_at_finest=levels[-1].outcome == "sonic_excursion",
        mach_cauchy_differences=cauchy)

