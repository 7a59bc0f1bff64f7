"""Polytropic gas and Bernoulli inversion tests.

Root-finding results are checked against an independent bisection oracle
rather than the production Newton iteration.
"""

import numpy as np
import pytest

from cornerflow.errors import (GasDomainError, LimitSpeedError,
                               SonicFluxError)
from cornerflow.gas import BernoulliState, GasModel


def bisect(f, lo, hi, iters=200):
    """Sign-change bisection; assumes f(lo) <= 0 <= f(hi)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestGasModel:
    def test_sound_speed_rejects_negative_density(self):
        with pytest.raises(GasDomainError):
            GasModel(1.4).sound_speed(-0.1)

    def test_gamma_must_exceed_one(self):
        with pytest.raises(GasDomainError):
            GasModel(1.0)
        with pytest.raises(GasDomainError):
            GasModel(0.9)

    def test_enthalpy_values(self):
        assert GasModel(2.0).enthalpy_pi(1.0) == pytest.approx(2.0, rel=1e-14)
        assert GasModel(5.0 / 3.0).enthalpy_pi(1.0) == pytest.approx(2.5, rel=1e-14)
        assert GasModel(1.4).enthalpy_pi(0.0) == 0.0

    def test_enthalpy_strictly_increasing(self):
        gas = GasModel(1.4)
        rho = np.linspace(0.01, 3.0, 200)
        pi = gas.enthalpy_pi(rho)
        assert np.all(np.diff(pi) > 0)

    def test_enthalpy_vanishes_toward_vacuum(self):
        # finite compression work from near-vacuum for gamma > 1
        for gamma in (1.4, 5.0 / 3.0, 2.0):
            gas = GasModel(gamma)
            seq = gas.enthalpy_pi(np.array([1e-6, 1e-9, 1e-12, 1e-15]))
            assert np.all(np.diff(seq) < 0)
            assert seq[-1] < 1e-5

    def test_sound_speed(self):
        assert GasModel(2.0).sound_speed(1.0) == pytest.approx(np.sqrt(2.0))
        assert GasModel(1.4).sound_speed(0.0) == 0.0
        assert GasModel(1.4).sound_speed(1.0) == pytest.approx(1.1832159566199232)

    def test_mach(self):
        gas = GasModel(2.0)
        assert gas.mach(0.0, 1.0) == 0.0
        c = gas.sound_speed(1.0)
        assert gas.mach(c, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert gas.mach(1.0, 1.0) == pytest.approx(0.7071067811865476)

    def test_mach_needs_positive_density(self):
        with pytest.raises(GasDomainError):
            GasModel(1.4).mach(1.0, 0.0)

    def test_enthalpy_inverse_needs_nonnegative_enthalpy(self):
        assert GasModel(2.0).enthalpy_pi_inverse(2.0) == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(GasDomainError, match="enthalpy must be nonnegative"):
            GasModel(2.0).enthalpy_pi_inverse(np.array([1.0, -1e-300]))


class TestBernoulliState:
    def test_limit_speed_and_stagnation(self):
        st = BernoulliState(GasModel(2.0), 2.0)
        assert st.limit_speed == pytest.approx(2.0, rel=1e-15)
        assert st.stagnation_density == pytest.approx(1.0, rel=1e-14)

    def test_density_from_speed_closed_form(self):
        # gamma = 2: rho = (B - q^2/2) * (gamma-1)/gamma
        st = BernoulliState(GasModel(2.0), 2.0)
        assert st.density_from_speed(0.0) == pytest.approx(1.0, rel=1e-14)
        assert st.density_from_speed(1.0) == pytest.approx(0.75, rel=1e-14)

    def test_density_vanishes_at_limit_speed(self):
        st = BernoulliState(GasModel(1.4), 3.0)
        assert st.density_from_speed(st.limit_speed * (1 - 1e-9)) < 1e-5

    @pytest.mark.parametrize("B", [0.0, -1.0])
    def test_bernoulli_constant_must_be_positive(self, B):
        with pytest.raises(GasDomainError, match="Bernoulli constant must be positive"):
            BernoulliState(GasModel(1.4), B)

    @pytest.mark.parametrize("gamma", [1.4e154, 1e300])
    @pytest.mark.parametrize("mach_inf", [0.0, 0.3])
    def test_overflowing_gamma_has_no_sonic_bounds(self, gamma, mach_inf):
        # gamma (gamma + 1) overflows: the bounds would read NaN, or 0 at M 0;
        # in-process, so the check raising a RuntimeWarning fails the test
        with pytest.raises(GasDomainError, match="no finite positive sonic bounds"):
            BernoulliState.from_free_stream(GasModel(gamma), mach_inf)

    @pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0, 1e10, 1e15, 1e20])
    def test_sonic_bounds_against_mpmath(self, gamma):
        # from log rho*: rho* within a few ulps, m* within a few ulps of
        # exp's argument (g+1) log rho* (a power of the rounded rho* read
        # m* 3 % low at gamma 1e15 and 11 times too high at 1e20)
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        with mpmath.workdps(60):
            for mach_inf in (0.0, 0.3, 0.6, 0.9):
                st = BernoulliState.from_free_stream(GasModel(gamma), mach_inf)
                g, B = mpmath.mpf(gamma), mpmath.mpf(st.bernoulli_B)
                log_rho = mpmath.log(2 * B * (g - 1) / (g * (g + 1))) / (g - 1)
                rho, arg = mpmath.exp(log_rho), (g + 1) * log_rho
                m = g / 2 * mpmath.exp(arg)
                assert abs(st.sonic_density - rho) <= 4 * eps * rho
                assert abs(st.flux_max_m - m) <= 8 * eps * (1 + abs(arg)) * m

    @pytest.mark.parametrize("mach_inf", [-0.1, 1.0])
    def test_free_stream_mach_must_be_subsonic(self, mach_inf):
        with pytest.raises(GasDomainError, match=r"free-stream Mach must lie in \[0, 1\)"):
            BernoulliState.from_free_stream(GasModel(1.4), mach_inf)

    def test_density_from_speed_needs_nonnegative_speed(self):
        with pytest.raises(GasDomainError, match="speed must be nonnegative"):
            BernoulliState(GasModel(1.4), 3.0).density_from_speed(np.array([0.5, -0.5]))

    def test_limit_speed_error(self):
        st = BernoulliState(GasModel(1.4), 3.0)
        with pytest.raises(LimitSpeedError):
            st.density_from_speed(st.limit_speed)
        with pytest.raises(LimitSpeedError):
            st.density_from_speed(st.limit_speed * 1.5)

    def test_flux_inversion_zero_is_stagnation(self):
        st = BernoulliState(GasModel(1.4), 3.0)
        rho = st.density_from_flux(0.0)
        assert rho == pytest.approx(st.stagnation_density, rel=1e-14)

    def test_flux_inversion_against_bisection_oracle(self):
        st = BernoulliState(GasModel(2.0), 2.0)
        oracle = bisect(lambda r: 0.1 / r**2 + 2.0 * r - 2.0,
                        st.sonic_density, st.stagnation_density)
        assert oracle == pytest.approx(0.9438772464712457, rel=1e-12)
        assert st.density_from_flux(0.1) == pytest.approx(oracle, rel=1e-12)

    def test_flux_max_matches_bisection_oracle(self):
        # m_max is where |v| = c on the Bernoulli relation
        for gamma in (1.4, 5.0 / 3.0, 2.0):
            gas = GasModel(gamma)
            st = BernoulliState(gas, 2.7)

            def sonic_gap(rho):
                # q^2 - c^2 along the relation, increasing toward low rho
                q2 = 2.0 * (st.bernoulli_B - gas.enthalpy_pi(rho))
                return q2 - gamma * rho ** (gamma - 1.0)

            rho_sonic = bisect(sonic_gap, st.stagnation_density, 1e-8)
            m_oracle = 0.5 * rho_sonic**2 * 2.0 * (
                st.bernoulli_B - gas.enthalpy_pi(rho_sonic))
            assert st.flux_max_m == pytest.approx(m_oracle, rel=1e-10)

    def test_sonic_flux_error(self):
        st = BernoulliState(GasModel(2.0), 2.0)
        assert st.flux_max_m == pytest.approx(8.0 / 27.0, rel=1e-14)
        with pytest.raises(SonicFluxError):
            st.density_from_flux(st.flux_max_m)
        with pytest.raises(SonicFluxError):
            st.density_from_flux(st.flux_max_m * 2.0)

    @pytest.mark.parametrize("m", [np.nan, [0.1, np.nan], -1e-300])
    def test_flux_that_is_no_nonnegative_number_raises(self, m):
        # a NaN m fails both the sign and the sonic comparison; the
        # bracketed fallback would turn it into a finite density
        with pytest.raises(GasDomainError, match="nonnegative number"):
            BernoulliState(GasModel(1.4), 3.0).density_from_flux(m)

    def test_flux_inversion_vectorized(self):
        st = BernoulliState(GasModel(1.4), 3.0)
        m = np.linspace(0.0, 0.99 * st.flux_max_m, 257)
        rho = st.density_from_flux(m)
        assert rho.shape == m.shape
        assert np.all(np.diff(rho) < 0)  # strictly decreasing in m

    def test_from_free_stream_normalization(self):
        gas = GasModel(1.4)
        st = BernoulliState.from_free_stream(gas, 0.3)
        q = st.free_stream_speed(0.3)
        assert st.bernoulli_B == pytest.approx(0.5 * q**2 + gas.enthalpy_pi(1.0),
                                               rel=1e-15)
        assert st.density_from_speed(q) == pytest.approx(1.0, rel=1e-12)


class TestBernoulliProperties:
    """Round trips, monotonicity and subsonic-branch contracts."""

    @pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0, 2.0])
    def test_speed_round_trip(self, gamma):
        gas = GasModel(gamma)
        st = BernoulliState(gas, 2.3)
        q = np.linspace(0.0, 0.99 * st.limit_speed, 100)
        rho = st.density_from_speed(q)
        back = 0.5 * q**2 + gas.enthalpy_pi(rho)
        assert np.max(np.abs(back - st.bernoulli_B)) < 1e-12 * st.bernoulli_B

    @pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0, 2.0])
    def test_flux_round_trip_and_subsonic(self, gamma):
        gas = GasModel(gamma)
        st = BernoulliState(gas, 2.3)
        m = np.linspace(0.0, 0.99 * st.flux_max_m, 100)[1:]
        rho = st.density_from_flux(m)
        back = m / rho**2 + gas.enthalpy_pi(rho)
        assert np.max(np.abs(back - st.bernoulli_B)) < 1e-10 * st.bernoulli_B
        q = np.sqrt(2.0 * m) / rho
        assert np.all(gas.mach(q, rho) < 1.0)

    def test_density_from_speed_monotone(self):
        st = BernoulliState(GasModel(1.4), 2.0)
        q = np.linspace(0.0, 0.999 * st.limit_speed, 500)
        assert np.all(np.diff(st.density_from_speed(q)) < 0)


def bisect_roots(st, m, iters=200):
    """Bisection-only subsonic roots of B = m/rho^2 + pi(rho), elementwise
    on [sonic_density, stagnation_density]."""
    g = st.gas.gamma
    lo = np.full_like(m, st.sonic_density)
    hi = np.full_like(m, st.stagnation_density)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        above = m / mid**2 + g / (g - 1.0) * mid ** (g - 1.0) > st.bernoulli_B
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def test_flux_inversion_safeguard_matches_bisection(monkeypatch):
    # plain Newton steps everywhere, the bracketed fallback only where a
    # step leaves [rho*, rho_0]: from every start the root must agree with
    # bisection, and some start must need the fallback.  Toward the sonic
    # end f' -> 0, and one rounding of f (eps B) moves the root by
    # eps B / f'(rho), 1.4e-14 relative at 0.999 m_max for gamma = 1.4:
    # there the bound adds four of those to the 1e-14 stopping rule
    eps = np.finfo(float).eps
    fallback_faces = []
    bracketed = BernoulliState._bracketed_root

    def counting(self, m, rho):
        fallback_faces.append(m.size)
        return bracketed(self, m, rho)

    monkeypatch.setattr(BernoulliState, "_bracketed_root", counting)
    for gamma in (1.4, 5.0 / 3.0, 2.0):
        st = BernoulliState(GasModel(gamma), 2.3)
        m = np.linspace(0.0, 0.999 * st.flux_max_m, 1001)
        ref = bisect_roots(st, m)
        warm = bisect_roots(st, 0.99 * m)  # the previous step's roots
        slope = (gamma * ref ** (gamma - 1.0) - 2.0 * m / ref**2) / ref
        rounding = eps * st.bernoulli_B / (slope * ref)
        for start in (st.sonic_density, st.stagnation_density, warm):
            rho = st.density_from_flux(m, np.broadcast_to(start, m.shape))
            rel = np.abs(rho - ref) / ref
            assert np.all(rel[m <= 0.99 * st.flux_max_m] <= 1e-14)
            assert np.all(rel <= 1e-14 + 4.0 * rounding)
    assert sum(fallback_faces) > 0


@pytest.mark.parametrize("tol", [1e-8, 1e-11])
def test_flux_inversion_to_a_looser_tolerance(tol):
    # a Picard step asks for its densities to FORCING times its residual:
    # within tol of the bisection root, plus the near-sonic rounding term
    # of the test above (the default 1e-14 is pinned bit for bit below)
    eps = np.finfo(float).eps
    for gamma in (1.4, 5.0 / 3.0, 2.0):
        st = BernoulliState(GasModel(gamma), 2.3)
        m = np.linspace(0.0, 0.999 * st.flux_max_m, 1001)
        ref = bisect_roots(st, m)
        slope = (gamma * ref ** (gamma - 1.0) - 2.0 * m / ref**2) / ref
        rounding = eps * st.bernoulli_B / (slope * ref)
        for start in (None, st.sonic_density, bisect_roots(st, 0.99 * m)):
            rho = st.density_from_flux(m, start, tol)
            assert np.all(np.abs(rho - ref) <= (tol + 4.0 * rounding) * ref)


def plain_newton_step(st, m, rho):
    """The Newton step's plain formulas, one new array per operation."""
    g = st.gas.gamma
    c2 = g * rho ** (g - 1.0)
    q = m / (rho * rho)
    f = q + c2 / (g - 1.0) - st.bernoulli_B
    fp = (c2 - 2.0 * q) / rho
    with np.errstate(divide="ignore", invalid="ignore"):
        return f, f / fp


def plain_flux_inversion(st, m, rho_start=None):
    """density_from_flux's iteration with its safeguard, written with the
    plain formulas: the reference of the in-place arithmetic."""
    lo, hi = st.sonic_density, st.stagnation_density
    rho = np.clip(hi if rho_start is None else rho_start, lo, hi) + 0.0 * m
    for _ in range(200):
        cand = rho - plain_newton_step(st, m, rho)[1]
        out = ~((cand >= lo) & (cand <= hi))
        if out.any():  # the bracketed iteration
            mo, r = m[out], rho[out]
            blo, bhi = np.full_like(mo, lo), np.full_like(mo, hi)
            for _ in range(200):
                f, step = plain_newton_step(st, mo, r)
                blo, bhi = np.where(f < 0, r, blo), np.where(f > 0, r, bhi)
                c = r - step
                bad = ~np.isfinite(c) | (c <= blo) | (c > bhi)
                c = np.where(bad, 0.5 * (blo + bhi), c)
                done = np.abs(c - r) <= 1e-14 * np.abs(c)
                r = c
                if np.all(done):
                    break
            cand[out] = r
        done = np.abs(cand - rho) <= 1e-14 * cand
        rho = cand
        if done.all():
            break
    return rho


def test_flux_inversion_is_bitwise_the_plain_formulas():
    # cold, warm (the previous step's roots) and both bracket ends as
    # starts; the sonic end sends faces through the safeguard
    for gamma in (1.4, 5.0 / 3.0, 2.0):
        st = BernoulliState(GasModel(gamma), 2.3)
        m = np.linspace(0.0, 0.999 * st.flux_max_m, 4097)
        warm = st.density_from_flux(0.99 * m)
        for start in (None, warm, st.sonic_density, st.stagnation_density):
            rho = st.density_from_flux(m, start)
            ref = plain_flux_inversion(st, m, start)
            assert np.array_equal(rho.view(np.int64), ref.view(np.int64))
        assert st.density_from_flux(m[1000]) == plain_flux_inversion(
            st, m[1000:1001])[0]
