"""Polytropic gas thermodynamics and Bernoulli-relation inversions.

The pressure law is p = rho**gamma with gamma > 1.  Specific enthalpy is
normalized so pi(0) = 0, giving pi(rho) = gamma/(gamma-1) * rho**(gamma-1)
and sound speed c = sqrt(gamma * rho**(gamma-1)).

A ``BernoulliState`` fixes the global constant B = q**2/2 + pi(rho) of an
irrotational flow and provides two inversions:

* ``density_from_flux``: rho(m) for the half-squared mass flux
  m = |grad psi|**2 / 2 = (rho*q)**2 / 2, on the subsonic branch
  [0, flux_max_m), the one the solvers use.  The branch boundary is the
  sonic point q = c.
* ``density_from_speed``: rho(q) on [0, limit_speed), the direct inverse
  of the enthalpy; no solver calls it, and the tests check the flux
  inversion against it.

The free-stream density is 1: at a given free-stream Mach number, the
flow with free-stream density r is the unit-density flow with rho scaled
by r, q by r**((gamma-1)/2) and psi by r**((gamma+1)/2).

All operations accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GasDomainError, LimitSpeedError, SonicFluxError


@dataclass(frozen=True)
class GasModel:
    """Polytropic gas with isentropic coefficient gamma > 1."""

    gamma: float

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise GasDomainError(f"gamma must exceed 1, got {self.gamma}")

    def enthalpy_pi(self, rho):
        """pi(rho) = gamma/(gamma-1) * rho**(gamma-1), with pi(0) = 0."""
        rho = _check_density(rho)
        g = self.gamma
        return g / (g - 1.0) * rho ** (g - 1.0)

    def enthalpy_pi_inverse(self, value):
        value = np.asarray(value, dtype=float)
        if np.any(value < 0):
            raise GasDomainError("enthalpy must be nonnegative")
        g = self.gamma
        out = ((g - 1.0) / g * value) ** (1.0 / (g - 1.0))
        return out if out.ndim else float(out)

    def sound_speed(self, rho):
        """c = sqrt(dp/drho) = sqrt(gamma * rho**(gamma-1)); 0 in vacuum."""
        rho = _check_density(rho)
        return np.sqrt(self.gamma * rho ** (self.gamma - 1.0))

    def mach(self, q, rho):
        rho_arr = np.asarray(rho, dtype=float)
        if np.any(rho_arr <= 0):
            raise GasDomainError("Mach number needs rho > 0")
        return np.asarray(q, dtype=float) / self.sound_speed(rho)


def _check_density(rho):
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise GasDomainError("density must be nonnegative")
    return rho if rho.ndim else float(rho)


@dataclass(frozen=True)
class BernoulliState:
    """Global Bernoulli constant B with its derived bounds.

    ``limit_speed`` is sqrt(2B), where the density reaches zero; the model
    does not extend to higher speeds.  ``flux_max_m`` is the value of
    m = (rho*q)**2/2 at the sonic point of this B; the flux inversion is
    defined on [0, flux_max_m).
    """

    gas: GasModel
    bernoulli_B: float
    limit_speed: float = field(init=False)
    stagnation_density: float = field(init=False)
    sonic_density: float = field(init=False)
    flux_max_m: float = field(init=False)

    def __post_init__(self):
        if self.bernoulli_B <= 0:
            raise GasDomainError("Bernoulli constant must be positive")
        g = self.gas.gamma
        B = self.bernoulli_B
        object.__setattr__(self, "limit_speed", float(np.sqrt(2.0 * B)))
        object.__setattr__(self, "stagnation_density",
                           float(self.gas.enthalpy_pi_inverse(B)))
        # sonic point: B = c^2/2 + pi(rho)  with  c^2 = g*rho^(g-1)
        # => rho_sonic^(g-1) = 2B(g-1) / (g(g+1)) and m_sonic = (rho*c)^2/2
        # = g*rho^(g+1)/2, both 0 or NaN once g(g+1) overflows (g >~ 1.34e154)
        with np.errstate(over="ignore", invalid="ignore"):
            rho_sonic = (2.0 * B * (g - 1.0) / (g * (g + 1.0))) ** (1.0 / (g - 1.0))
            m_sonic = 0.5 * g * rho_sonic ** (g + 1.0)
        if not (0.0 < rho_sonic < np.inf and 0.0 < m_sonic < np.inf):
            raise GasDomainError(f"gamma {g} gives no finite positive sonic bounds")
        object.__setattr__(self, "sonic_density", float(rho_sonic))
        object.__setattr__(self, "flux_max_m", float(m_sonic))

    @classmethod
    def from_free_stream(cls, gas: GasModel, mach_inf: float) -> "BernoulliState":
        """Fix B from a prescribed free-stream Mach number at unit density."""
        if not (0.0 <= mach_inf < 1.0):
            raise GasDomainError("free-stream Mach must lie in [0, 1)")
        q_inf = mach_inf * gas.sound_speed(1.0)
        return cls(gas, 0.5 * q_inf**2 + gas.enthalpy_pi(1.0))

    def free_stream_speed(self, mach_inf: float) -> float:
        return float(mach_inf * self.gas.sound_speed(1.0))

    def density_from_speed(self, q):
        """rho = pi^{-1}(B - q^2/2); strictly decreasing, 0 at limit speed."""
        q = np.asarray(q, dtype=float)
        if np.any(q < 0):
            raise GasDomainError("speed must be nonnegative")
        if np.any(q >= self.limit_speed):
            raise LimitSpeedError(
                f"speed {float(np.max(q))} at/above limit speed {self.limit_speed}")
        out = self.gas.enthalpy_pi_inverse(self.bernoulli_B - 0.5 * q**2)
        return out if np.ndim(out) else float(out)

    def density_from_flux(self, m, rho_start=None):
        """The subsonic root rho(m) of B = m/rho^2 + pi(rho); a float for
        scalar m.

        Plain Newton steps from rho_start (default: the stagnation
        density), clipped into [sonic_density, stagnation_density]; a face
        whose step leaves that bracket or is not finite is solved by the
        safeguarded iteration (``_bracketed_root``) instead.  Relative
        tolerance 1e-14.  Raises GasDomainError for an m that is negative
        or NaN, SonicFluxError for m >= flux_max_m (ellipticity guard).
        """
        m_arr = np.asarray(m, dtype=float)
        scalar = m_arr.ndim == 0
        m_arr = np.atleast_1d(m_arr)
        if not np.all(m_arr >= 0):  # NaN too: it fails every comparison
            raise GasDomainError("flux m must be a nonnegative number")
        if np.any(m_arr >= self.flux_max_m):
            k = int(np.argmax(m_arr))
            raise SonicFluxError(
                f"flux m={m_arr.flat[k]} at/above sonic bound {self.flux_max_m}")
        lo, hi = self.sonic_density, self.stagnation_density
        # the iterate, its successor, a scratch array and two masks, reused
        rho, cand, work = (np.empty_like(m_arr) for _ in range(3))
        out, done = np.empty(m_arr.shape, bool), np.empty(m_arr.shape, bool)
        np.clip(hi if rho_start is None else rho_start, lo, hi, out=rho)
        for _ in range(200):
            np.subtract(rho, self._newton_step(m_arr, rho)[1], out=cand)
            np.greater_equal(cand, lo, out=out)
            out &= np.less_equal(cand, hi, out=done)
            np.logical_not(out, out=out)  # NaN is out too
            if out.any():
                cand[out] = self._bracketed_root(m_arr[out], rho[out])
            np.subtract(cand, rho, out=work)
            np.less_equal(np.abs(work, out=work),
                          np.multiply(cand, 1e-14, out=rho), out=done)
            rho, cand = cand, rho
            if done.all():
                break
        return float(rho[0]) if scalar else rho

    def _newton_step(self, m, rho):
        """f(rho) = m/rho^2 + pi(rho) - B and the Newton step f/f'(rho),
        with one fractional power: c2 = c^2, q = m/rho^2.  Three arrays
        hold every intermediate; each operation is the plain formula's."""
        g = self.gas.gamma
        c2 = rho ** (g - 1.0)
        c2 *= g
        q = rho * rho
        np.divide(m, q, out=q)
        f = c2 / (g - 1.0)
        f += q
        f -= self.bernoulli_B
        q *= 2.0
        fp = np.subtract(c2, q, out=c2)
        fp /= rho
        with np.errstate(divide="ignore", invalid="ignore"):
            return f, np.divide(f, fp, out=fp)

    def _bracketed_root(self, m, rho):
        """Safeguarded Newton iteration from rho: f's sign at every iterate
        shrinks the bracket [sonic_density, stagnation_density], and a step
        that leaves the bracket or is not finite bisects it instead."""
        lo = np.full_like(m, self.sonic_density)
        hi = np.full_like(m, self.stagnation_density)
        for _ in range(200):
            f, step = self._newton_step(m, rho)
            lo = np.where(f < 0, rho, lo)
            hi = np.where(f > 0, rho, hi)
            cand = rho - step
            bad = ~np.isfinite(cand) | (cand <= lo) | (cand > hi)
            cand = np.where(bad, 0.5 * (lo + hi), cand)
            done = np.abs(cand - rho) <= 1e-14 * np.abs(cand)
            rho = cand
            if np.all(done):
                break
        return rho
