"""Conformal-grid compressible solver tests."""

import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from cornerflow import compressible
from cornerflow.compressible import (build_grid,
                                     incompressible_reference_solution,
                                     refinement_study, solve_subsonic)
from cornerflow.errors import (InvalidGeometryError, IterationLimitError,
                               SolverError, SonicExcursionError,
                               UnsupportedBodyError)
from cornerflow.gas import BernoulliState, GasModel
from cornerflow.geometry import Circle, FlatPlate, Polygon
from cornerflow.incompressible import FarField

GAS = GasModel(1.4)
FAR = FarField(1.0)  # a free stream for the tests of the geometry


def free_stream(mach):
    state = BernoulliState.from_free_stream(GAS, mach)
    return state, FarField(state.free_stream_speed(mach), 0.0)


def assert_forcing_rule(sol):
    """Each step's CG met FORCING times that step's outer residual, or
    LINEAR_TOL where that is larger."""
    for lin_res, res in zip(sol.linear_residuals, sol.residuals):
        assert lin_res <= max(compressible.LINEAR_TOL,
                              compressible.FORCING * res)


def cell_balance(grid, psi_t, h_xf, h_tf):
    """The cell balance and flux scale of a nodal field."""
    return grid.cell_residual(compressible._differences(psi_t), h_xf, h_tf)


def five_point_superlu(grid, h_xf, h_tf):
    """Oracle: the five-point system assembled as a CSC matrix, SuperLU."""
    nr, nt, dxi, dth = grid.n_r, grid.n_theta, grid.d_xi, grid.d_theta
    ni = nr - 2
    idx = np.arange(ni * nt).reshape(ni, nt)
    cu = h_xf[1:, :] * dth / dxi                        # row i+1
    cd = h_xf[:-1, :] * dth / dxi                       # row i-1
    ct = h_tf[1:-1, :] * dxi / dth                      # column j+1
    cb = np.roll(h_tf[1:-1, :], 1, axis=1) * dxi / dth  # column j-1
    rows = [idx, idx[:-1], idx[1:], idx, idx]
    cols = [idx, idx[1:], idx[:-1], np.roll(idx, -1, axis=1),
            np.roll(idx, 1, axis=1)]
    vals = [-(cu + cd + ct + cb), cu[:-1], cd[1:], ct, cb]
    A = sparse.csc_matrix(
        (np.concatenate([v.ravel() for v in vals]),
         (np.concatenate([r.ravel() for r in rows]),
          np.concatenate([c.ravel() for c in cols]))),
        shape=(ni * nt, ni * nt))
    flux_xi = h_xf * grid.base_flux_xi
    flux_th = h_tf[1:-1, :] * grid.base_flux_th[1:-1, :]
    rhs = -(flux_xi[1:] - flux_xi[:-1] + flux_th - np.roll(flux_th, 1, axis=1))
    rhs[0, :] -= cd[0, :] * grid.psi_body
    rhs[-1, :] -= cu[-1, :] * grid.psi_outer
    return splu(A).solve(rhs.ravel()).reshape(ni, nt)


class TestBuildGrid:
    def test_circle_conformal_factor_constant(self):
        grid = build_grid(Circle(1.0), FAR, 64, 128)
        assert grid.z.shape == (64, 128)
        # |dz/dsigma| = radius everywhere; H carries the extra |sigma|
        factor = grid.H / np.abs(np.exp(grid.xi[:, None] + 1j * grid.theta))
        assert np.allclose(factor, 1.0, atol=1e-12)
        assert np.allclose(np.abs(grid.z[0, :]), 1.0, atol=1e-12)
        assert np.allclose(np.abs(grid.z[-1, :]), compressible.R_FAR, atol=1e-12)

    def test_plate_joukowsky_factors(self):
        # H = |dz/dzeta| in units of R = chord / 2
        chord = 4.0
        grid = build_grid(FlatPlate(chord, 0.0), FAR, 32, 64)
        a = chord / 4.0
        sigma = np.exp(grid.xi[:, None] + 1j * grid.theta[None, :])
        expected = np.abs(a * (1.0 - sigma**-2) * sigma) / (chord / 2.0)
        assert np.allclose(grid.H, expected, atol=1e-12)
        # edge preimages sigma = +-1 are flagged, nothing else on the body ring
        assert grid.flagged[0, 0] and grid.flagged[0, 32]
        assert np.count_nonzero(grid.flagged) == 2

    def test_grid_size_preconditions(self):
        with pytest.raises(InvalidGeometryError):
            build_grid(Circle(1.0), FAR, 8, 128)
        with pytest.raises(InvalidGeometryError):
            build_grid(Circle(1.0), FAR, 64, 8)
        with pytest.raises(InvalidGeometryError, match="n_theta must be even"):
            build_grid(Circle(1.0), FAR, 64, 33)

    def test_polygon_unsupported(self):
        tri = Polygon([(1, 0), (-0.5, 0.87), (-0.5, -0.87)])
        with pytest.raises(UnsupportedBodyError):
            build_grid(tri, FAR, 64, 128)


class TestTrivialSolution:
    def test_horizontal_plate_uniform_flow_exact(self):
        state, far = free_stream(0.3)
        grid = build_grid(FlatPlate(4.0, 0.0), far, 48, 96)
        sol = solve_subsonic(grid, state)
        assert sol.residuals[-1] < 1e-12
        assert np.nanmax(np.abs(sol.speed - abs(far.w_inf))) < 1e-10
        assert np.nanmax(np.abs(sol.mach - 0.3)) < 1e-10
        # fixed point: no iteration drift
        assert sol.iterations == 1
        assert np.max(np.abs(sol.psi_pert)) < 1e-12

    def test_psi_is_uniform_stream_function(self):
        state, far = free_stream(0.3)
        grid = build_grid(FlatPlate(4.0, 0.0), far, 48, 96)
        sol = solve_subsonic(grid, state)
        expected = 1.0 * np.imag(far.w_inf * grid.z)
        assert np.max(np.abs(sol.psi - expected)) < 1e-12


class TestCircleSolve:
    def test_low_mach_matches_incompressible(self):
        state, far = free_stream(0.1)
        grid = build_grid(Circle(1.0), far, 48, 96)
        sol = solve_subsonic(grid, state)
        # body max speed near the incompressible 2 |w_inf|
        vmax = np.nanmax(sol.speed[0, :])
        assert vmax == pytest.approx(2.0 * abs(far.w_inf), rel=0.03)

    def test_low_mach_quadratic_deviation(self):
        devs = []
        for mach in (0.2, 0.1, 0.05):
            state, far = free_stream(mach)
            grid = build_grid(Circle(1.0), far, 48, 96)
            sol = solve_subsonic(grid, state)
            psi_inc = incompressible_reference_solution(grid)
            v_inc = grid.nodal_velocity(*grid.nodal_gradient(psi_inc), 1.0)
            devs.append(np.nanmax(np.abs(sol.velocity - v_inc)) / abs(far.w_inf))
        assert 3.0 < devs[0] / devs[1] < 5.0
        assert 3.0 < devs[1] / devs[2] < 5.0

    def test_mach_squared_correction_is_second_order(self):
        # psi = psi_0 + M**2 psi_1 + O(M**4) about the unit circle at U = 1,
        # psi_1 = (-7r**4 + 6r**2 + 1) / (12 r**5) sin(theta)
        #         + (r**2 - 1) / (4 r**3) sin(3 theta)  (Rayleigh 1916),
        # less the harmonics a_k (r**k - r**-k) sin(k theta) that zero it on
        # the grid's outer ring, where the data are incompressible.  The
        # discrete psi_1 is Richardson's (4 D(M/2) - D(M)) / 3 of
        # D(M) = (psi~(M) - psi~_ref) / (U M**2)
        def closed_form(z):
            r, th = np.abs(z), np.angle(z)
            psi = 0.0
            for k, f in ((1, lambda r: (-7 * r**4 + 6 * r**2 + 1) / (12 * r**5)),
                         (3, lambda r: (r**2 - 1) / (4 * r**3))):
                harmonic = (r**k - r**-k) / (compressible.R_FAR**k - compressible.R_FAR**-k)
                psi = psi + (f(r) - f(compressible.R_FAR) * harmonic) * np.sin(k * th)
            return psi

        errors = []
        for n_theta in (32, 64, 128):
            D = []
            for mach in (0.025, 0.05):
                state, far = free_stream(mach)
                grid = build_grid(Circle(1.0), far, n_theta // 2, n_theta)
                sol = solve_subsonic(grid, state)
                D.append((sol.psi_pert - incompressible_reference_solution(grid))
                         / (far.w_inf.real * mach**2))
            errors.append(np.max(np.abs((4 * D[0] - D[1]) / 3 - closed_form(grid.z))))
        # measured: 6.58e-3, 1.58e-3 and 3.86e-4, ratios 4.16 and 4.09
        assert 3.5 <= errors[0] / errors[1] <= 4.5
        assert 3.5 <= errors[1] / errors[2] <= 4.5
        assert errors[2] < 5e-4

    def test_sonic_guard_raises_before_accepting_supersonic(self):
        state, far = free_stream(0.55)
        grid = build_grid(Circle(1.0), far, 48, 96)
        with pytest.raises(SonicExcursionError) as err:
            solve_subsonic(grid, state)
        assert err.value.m_value >= err.value.m_max

    def test_post_processing_refuses_a_sonic_node(self):
        # the converged M 0.3 flow read against B = 1.75, whose sonic flux
        # bound the top of the circle, node (0, n_theta / 4), exceeds: the
        # post-processing forms no density past it
        state, far = free_stream(0.3)
        grid = build_grid(Circle(1.0), far, 32, 64)
        sol = solve_subsonic(grid, state)
        with pytest.raises(SonicExcursionError,
                           match=r"at node \(0, 16\), z=") as err:
            compressible._postprocess(grid, BernoulliState(GAS, 1.75), sol.psi_pert,
                                      sol.residuals, sol.linear_residuals,
                                      sol.linear_iterations)
        assert err.value.m_value >= err.value.m_max
        assert err.value.location == pytest.approx(1j, abs=1e-15)

    def test_accepted_solution_strictly_subsonic(self):
        state, far = free_stream(0.3)
        grid = build_grid(Circle(1.0), far, 48, 96)
        sol = solve_subsonic(grid, state)
        assert np.nanmax(sol.mach) < 1.0
        assert sol.max_mach < 1.0

    def test_linear_solves_conserve_cell_flux(self):
        state, far = free_stream(0.2)
        grid = build_grid(Circle(1.0), far, 32, 64)
        sol = solve_subsonic(grid, state)
        assert_forcing_rule(sol)
        assert sol.residuals[-1] < compressible.PICARD_TOL


class TestIterationLimit:
    # a circle at M 0.3 converges in about a dozen steps, not in three
    def test_solve_raises_with_its_residuals(self, monkeypatch):
        monkeypatch.setattr(compressible, "MAX_PICARD_ITERS", 3)
        state, far = free_stream(0.3)
        grid = build_grid(Circle(1.0), far, 48, 96)
        with pytest.raises(IterationLimitError, match="after 3 iterations") as err:
            solve_subsonic(grid, state)
        assert len(err.value.residuals) == 3
        assert err.value.residuals[-1] >= compressible.PICARD_TOL

    def test_refinement_study_records_it_per_level(self, monkeypatch):
        monkeypatch.setattr(compressible, "MAX_PICARD_ITERS", 3)
        study = refinement_study(Circle(1.0), GAS, 0.3, 0.0, [(16, 32), (32, 64)])
        assert [lv.outcome for lv in study.levels] == ["iteration_limit"] * 2
        assert all(lv.max_mach is None and lv.corner_max_mach is None
                   for lv in study.levels)
        assert study.mach_cauchy_differences == ()
        assert not study.abort_at_finest


class TestRefinementStudy:
    def test_tilted_plate_blowup_signature(self):
        study = refinement_study(FlatPlate(4.0, np.pi / 6), GAS, 0.5, 0.0,
                                 [(16, 32), (32, 64), (64, 128)])
        assert study.margin_strictly_increasing
        assert study.levels[-1].outcome == "sonic_excursion"
        margins = [lv.sonic_margin_ratio for lv in study.levels]
        assert margins[-1] > margins[0]

    def test_one_level_claims_no_rising_margin(self):
        # one tilted-plate grid aborts, but a single sonic margin shows
        # no trend: it is no blow-up signature on its own
        study = refinement_study(FlatPlate(4.0, np.pi / 6), GAS, 0.5, 0.0,
                                 [(32, 64)])
        assert study.abort_at_finest
        assert not study.margin_strictly_increasing

    def test_horizontal_plate_control_constant(self):
        study = refinement_study(FlatPlate(4.0, 0.0), GAS, 0.5, 0.0,
                                 [(16, 32), (32, 64)])
        for lv in study.levels:
            assert lv.outcome == "converged"
            assert lv.corner_max_mach == pytest.approx(0.5, abs=1e-10)
        m0, m1 = (lv.sonic_margin_ratio for lv in study.levels)
        assert m0 == pytest.approx(m1, rel=1e-10)

    def test_circle_control_converges(self):
        study = refinement_study(Circle(1.0), GAS, 0.3, 0.0,
                                 [(16, 32), (32, 64), (64, 128)])
        assert all(lv.outcome == "converged" for lv in study.levels)
        d = study.mach_cauchy_differences
        assert d[1] <= d[0] / 2.0


class TestLengthScale:
    """The grid works in units of R: a verdict does not depend on the unit
    of length.  In-process, so a RuntimeWarning fails the test."""

    GRIDS = [(32, 64), (64, 128), (128, 256)]

    @staticmethod
    def plate_study(chord):
        plate = FlatPlate(chord, np.pi / 6)
        return refinement_study(plate, GAS, 0.3, 0.0, TestLengthScale.GRIDS)

    @pytest.fixture(scope="class")
    def chord_4(self):
        return self.plate_study(4.0)

    @pytest.mark.parametrize("chord", [4.0 * 2.0**600, 4.0 * 2.0**-600],
                             ids=["4*2**600", "4*2**-600"])
    def test_study_at_a_power_of_two_is_chord_4s_to_the_bit(self, chord_4, chord):
        # every length array is chord 4's times a power of two, divided
        # by R once: the study is chord 4's, bit for bit (a map that
        # squared the outer radius overflowed at 4 * 2**600)
        assert self.plate_study(chord) == chord_4

    @pytest.mark.parametrize("chord", [1e200, 1e-200])
    def test_study_at_any_chord_reads_chord_4s_verdict(self, chord_4, chord):
        # H^2 underflowed at 1e-200 (every face m 0/0) and the squared outer radius
        # overflowed at 1e200
        study = self.plate_study(chord)
        assert [lv.outcome for lv in study.levels] == [
            lv.outcome for lv in chord_4.levels]
        assert study.abort_at_finest and chord_4.abort_at_finest
        assert study.margin_strictly_increasing and chord_4.margin_strictly_increasing
        for lv, ref in zip(study.levels, chord_4.levels):
            assert lv.sonic_margin_ratio == pytest.approx(
                ref.sonic_margin_ratio, rel=1e-9)

    @pytest.mark.parametrize("radius", [1e200, 1e-200])
    def test_circle_solve_at_any_radius(self, radius):
        state, far = free_stream(0.3)
        sols = [solve_subsonic(build_grid(Circle(r), far, 48, 96), state)
                for r in (1.0, radius)]
        assert sols[1].max_mach == pytest.approx(sols[0].max_mach, rel=1e-12)
        assert sols[1].max_mach_location / radius == sols[0].max_mach_location


class TestLinearSolve:
    # rho_0 / rho* for gamma = 1.4: the widest spread of h = 1/rho that
    # a subsonic state can produce
    SUBSONIC_SPREAD = 1.2 ** 2.5

    @staticmethod
    def grid(n_r, n_theta):
        return build_grid(FlatPlate(4.0, np.pi / 6), FarField(0.8, 1.3), n_r, n_theta)

    @staticmethod
    def random_h(grid, spread, seed=3):
        rng = np.random.default_rng(seed)
        return (spread ** rng.uniform(size=(grid.n_r - 1, grid.n_theta)),
                spread ** rng.uniform(size=(grid.n_r, grid.n_theta)))

    @staticmethod
    def rel_diff(x, ref):
        return np.max(np.abs(x - ref)) / np.max(np.abs(ref))

    @staticmethod
    def cold(grid):
        return np.zeros((grid.n_r - 2, grid.n_theta))

    @staticmethod
    def start_residual(grid, x, h_xf, h_tf):
        """b - A x at interior rows x: the cell balance, negated."""
        return -cell_balance(grid, grid.with_boundary(x), h_xf, h_tf)[0]

    # (128, 256): 126 Dirichlet rows, so a type-I DST there would need an
    # FFT of prime length 2 * 127; (129, 256): an odd row count
    @pytest.mark.parametrize("shape", [(32, 64), (128, 256), (129, 256)])
    def test_constant_h_is_exact_without_iterations(self, shape):
        grid = self.grid(*shape)
        h_xf, h_tf = np.ones((shape[0] - 1, shape[1])), np.ones(shape)
        x, lin_res, iterations = grid.solve_linear(h_xf, h_tf,
                                                   self.cold(grid))
        assert iterations == 0
        assert lin_res <= compressible.LINEAR_TOL
        assert self.rel_diff(x, five_point_superlu(grid, h_xf, h_tf)) <= 1e-12
        # scalar h is the same constant operator, with no face arrays
        x_scalar, _, iterations = grid.solve_linear(1.0, 1.0, self.cold(grid))
        assert iterations == 0 and np.array_equal(x_scalar, x)

    @pytest.mark.parametrize("shape", [(32, 64), (256, 512), (128, 256),
                                       (129, 256)])
    def test_subsonic_h_spread_matches_superlu(self, shape):
        grid = self.grid(*shape)
        h_xf, h_tf = self.random_h(grid, self.SUBSONIC_SPREAD)
        x, lin_res, iterations = grid.solve_linear(h_xf, h_tf,
                                                   self.cold(grid))
        assert 0 < iterations <= 25  # bounded by the spread, not the grid
        assert lin_res <= compressible.LINEAR_TOL
        assert self.rel_diff(x, five_point_superlu(grid, h_xf, h_tf)) <= 1e-11

    def test_warm_start(self):
        grid = self.grid(64, 128)
        h_xf, h_tf = self.random_h(grid, self.SUBSONIC_SPREAD)
        exact = five_point_superlu(grid, h_xf, h_tf)
        _, lin_res, iterations = grid.solve_linear(
            h_xf, h_tf, exact, self.start_residual(grid, exact, h_xf, h_tf))
        assert iterations == 0 and lin_res <= compressible.LINEAR_TOL

        x_cold, _, it_cold = grid.solve_linear(h_xf, h_tf, self.cold(grid))
        noise = np.random.default_rng(5).standard_normal(exact.shape)
        guess = exact + 1e-3 * np.max(np.abs(exact)) * noise
        x, lin_res, iterations = grid.solve_linear(
            h_xf, h_tf, guess, self.start_residual(grid, guess, h_xf, h_tf))
        assert lin_res <= compressible.LINEAR_TOL
        assert iterations <= it_cold
        assert self.rel_diff(x, x_cold) <= 1e-11

    def test_cell_balance_is_the_start_residual(self):
        # a Picard step hands CG its cell balance, negated, as b - A x0:
        # it is b less the homogeneous operator applied to the guess
        grid = self.grid(64, 128)
        h_xf, h_tf = self.random_h(grid, self.SUBSONIC_SPREAD)
        exact = five_point_superlu(grid, h_xf, h_tf)
        noise = np.random.default_rng(7).standard_normal(exact.shape)
        guess = exact + 1e-3 * np.max(np.abs(exact)) * noise
        r0 = self.start_residual(grid, guess, h_xf, h_tf)
        b = self.start_residual(grid, self.cold(grid), h_xf, h_tf)
        padded = np.zeros((grid.n_r, grid.n_theta))
        padded[1:-1, :] = guess
        a_guess = (cell_balance(grid, padded, h_xf, h_tf)[0]
                   - cell_balance(grid, 0.0 * padded, h_xf, h_tf)[0])
        assert self.rel_diff(r0, b - a_guess) <= 1e-12
        x, lin_res, iterations = grid.solve_linear(h_xf, h_tf, guess, r0)
        x_cold, _, it_cold = grid.solve_linear(h_xf, h_tf, self.cold(grid))
        assert lin_res <= compressible.LINEAR_TOL and iterations <= it_cold
        assert self.rel_diff(x, exact) <= 1e-11

    def test_reference_solve_takes_no_iterations_on_a_fine_grid(self):
        grid = self.grid(256, 512)
        _, lin_res, iterations = grid.solve_linear(np.ones((255, 512)),
                                                   np.ones((256, 512)),
                                                   self.cold(grid))
        assert iterations == 0 and lin_res <= compressible.LINEAR_TOL

    def test_iteration_cap_raises(self):
        # no subsonic state spreads h by 1e8; CG must give up, not loop
        grid = self.grid(32, 64)
        with pytest.raises(SolverError):
            grid.solve_linear(*self.random_h(grid, 1e8), self.cold(grid))


class TestSharedPieces:
    def test_node_gradient_exact_on_quadratic_in_xi(self):
        xi = np.linspace(0.0, 3.0, 17)
        dxi = xi[1] - xi[0]
        psi = np.repeat((0.7 - 1.3 * xi + 0.45 * xi**2)[:, None], 8, axis=1)
        gx = compressible._xi_derivative(psi, dxi)
        gt = compressible._theta_derivative(psi, np.pi / 4)
        exact = np.repeat((-1.3 + 0.9 * xi)[:, None], 8, axis=1)
        # one-sided rows (body, outer) and central interior rows alike
        for rows in (slice(0, 1), slice(-1, None), slice(1, -1)):
            assert np.max(np.abs(gx[rows] - exact[rows])) < 1e-13
        assert np.all(gt == 0.0)

    def test_refinement_study_builds_one_discretization_per_level(
            self, monkeypatch):
        built = []

        class Counting(compressible.ConformalGrid):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(compressible, "ConformalGrid", Counting)
        refinement_study(Circle(1.0), GAS, 0.3, 0.0, [(16, 32), (32, 64)])
        assert len(built) == 2


@pytest.mark.parametrize("swap", [False, True])
def test_max_mach_location_ignores_ulp_order_of_mirror_maxima(swap):
    # a symmetric flow's mirror nodes (i, j) and (i, nt - j) tie up to an
    # ulp; either rounding reports the first in C order, with the true max
    mach = np.full((4, 8), 0.2)
    low, high = 0.7, np.nextafter(0.7, 1.0)
    mach[2, 3], mach[2, 5] = (high, low) if swap else (low, high)
    assert compressible._first_near_max(mach) == (high, (2, 3))


@pytest.mark.parametrize("swap", [False, True])
def test_face_abort_location_ignores_ulp_order_of_mirror_maxima(swap):
    # both mirror faces past the sonic bound, an ulp apart: the abort
    # names the first in C order and reports the larger m
    state, far = free_stream(0.3)
    grid = build_grid(Circle(1.0), far, 16, 32)
    m = np.full((15, 32), 0.1 * state.flux_max_m)
    low = 2.0 * state.flux_max_m
    high = np.nextafter(low, np.inf)
    m[2, 3], m[2, 29] = (high, low) if swap else (low, high)
    with pytest.raises(SonicExcursionError, match=r"at xi-face \(2, 3\), z=") as err:
        compressible._face_rho(state, m, None, "xi", grid, 1e-14)
    assert err.value.m_value == high
    xi, theta = grid.faces["xi"]
    assert err.value.location == grid.map_z(xi[2:3], theta[3:4])[0, 0]


@pytest.mark.parametrize("swap", [False, True])
def test_node_abort_location_ignores_ulp_order_of_mirror_maxima(
        monkeypatch, swap):
    # nodal gradients 2 and 2 + ulp square to m = 2 and 2 + 2 ulps: both
    # past the sonic bound, the post-processing names the first node in C
    # order and reports the larger m
    state, far = free_stream(0.3)
    grid = build_grid(Circle(1.0), far, 16, 32)
    gx, gt = np.full((16, 32), 0.1), np.zeros((16, 32))
    low, high = 2.0, np.nextafter(2.0, 3.0)
    gx[0, 8], gx[0, 24] = (high, low) if swap else (low, high)
    monkeypatch.setattr(grid, "nodal_gradient",
                        lambda psi_t: (gx, gt, np.ones((16, 32), complex)))
    with pytest.raises(SonicExcursionError, match=r"at node \(0, 8\), z=") as err:
        compressible._postprocess(grid, state, np.zeros((16, 32)), [], [], [])
    assert err.value.m_value == 0.5 * high**2 > 0.5 * low**2
    assert err.value.location == grid.z[0, 8]


class TestLeanDiscretization:
    @pytest.mark.parametrize("mach, where, shape", [
        (0.5, "xi", (16, 32)), (0.3, "theta", (16, 32)),
        (0.3, "xi", (128, 256))], ids=["0.5-xi", "0.3-theta", "0.3-xi-128x256"])
    def test_excursion_location_is_the_face_midpoint(self, mach, where, shape):
        # the discretization keeps no face z: the location is recomputed
        # for the aborting face and must equal, bitwise, the map of that
        # face's midpoint taken over the whole face array, also where that
        # array reaches 16384 points and numpy maps it in place
        state, far = free_stream(mach)
        grid = build_grid(FlatPlate(4.0, np.pi / 6), far, *shape)
        with pytest.raises(SonicExcursionError) as err:
            solve_subsonic(grid, state)
        message = str(err.value)
        # indices print as plain ints, as they reach summary.json
        assert "np." not in message
        kind, i, j = re.search(r"(\w+)-face \((\d+), (\d+)\)",
                               message).groups()
        assert kind == where
        xi, th = grid.xi, grid.theta
        if where == "xi":
            zeta = (0.5 * (xi[:-1] + xi[1:]))[:, None] + 1j * th[None, :]
        else:
            zeta = xi[:, None] + 1j * (th + 0.5 * grid.d_theta)[None, :]
        faces = grid.map.to_z(np.exp(zeta))
        assert err.value.location == faces[int(i), int(j)]

    def test_grid_and_discretization_free_without_cycle_collector(self):
        state, far = free_stream(0.3)
        grid = build_grid(Circle(1.0), far, 32, 64)
        solve_subsonic(grid, state)
        ref = weakref.ref(grid)
        gc.disable()
        try:
            del grid
            assert ref() is None
        finally:
            gc.enable()

    def test_refinement_study_traced_peak(self):
        # a tilted plate aborts at every level, so the peak is set by the
        # discretization, the reference solve and the margin; keeping face
        # and nodal z and nodal dz, and every level alive until the next
        # was built, peaked at 43 full-grid arrays
        plate, grids = FlatPlate(4.0, np.pi / 6), [(32, 64), (64, 128),
                                                   (128, 256)]
        refinement_study(plate, GAS, 0.5, 0.0, [(16, 32)])  # warm caches
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            refinement_study(plate, GAS, 0.5, 0.0, grids)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        full_grid_array = 128 * 256 * np.dtype(float).itemsize
        assert peak < 27 * full_grid_array  # 22.1 measured

    def test_finest_study_level_traced_peak(self):
        # a 256 x 512 tilted-plate level: reference solve, margin, and an
        # abort at the first Picard step.  Keeping nodal z and H and every
        # Thomas factor once per (re, im), holding both face differences
        # and both nodal derivatives in face_m, and mapping every face to z
        # in one call for the margin peaked at 20.3 full-grid arrays
        plate = FlatPlate(4.0, np.pi / 6)
        refinement_study(plate, GAS, 0.5, 0.0, [(16, 32)])  # warm caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            study = refinement_study(plate, GAS, 0.5, 0.0, [(256, 512)])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert study.levels[0].outcome == "sonic_excursion"
        full_grid_array = 256 * 512 * np.dtype(float).itemsize
        assert peak < 17 * full_grid_array  # 15.8 measured

    def test_grid_keeps_only_what_the_picard_steps_read(self):
        # base fluxes, base gradients and H^2 at the faces (eight arrays),
        # inverse pivots once per mode, elimination factors once per
        # (re, im) of each mode and the flags: 9.6 arrays; with the nodal z
        # and H and the inverse pivots once per (re, im) it held 13.1
        grid = build_grid(FlatPlate(4.0, np.pi / 6), FAR, 64, 128)
        held = [a for a in vars(grid).values() if isinstance(a, np.ndarray)]
        nbytes = sum(a.nbytes for a in held + grid.elim)
        assert nbytes < 10 * 64 * 128 * np.dtype(float).itemsize

    @pytest.mark.parametrize("body", [Circle(1.3), FlatPlate(4.0, np.pi / 6)],
                             ids=["circle", "plate"])
    def test_nodal_z_and_H_are_the_map_at_the_nodes(self, body):
        # recomputed on each read, to the bit of the map at the nodes; H in
        # units of R
        grid = build_grid(body, FAR, 128, 256)
        sigma = np.exp(grid.xi)[:, None] * np.exp(1j * grid.theta)[None, :]
        assert grid.z.tobytes() == grid.map.to_z(sigma).tobytes()
        assert grid.H.tobytes() == np.abs(
            grid.map.dz_dsigma(sigma) * sigma / body.circumradius).tobytes()

    @pytest.mark.parametrize("body", [Circle(1.3), FlatPlate(4.0, np.pi / 6)],
                             ids=["circle", "plate"])
    def test_z_is_the_same_mapped_whole_or_by_rows(self, body):
        # numpy multiplies a temporary of 16384 points or more in place:
        # the map must round alike on either side of that size
        grid = build_grid(body, FAR, 128, 512)
        by_rows = np.array([grid.map_z(grid.xi[i:i + 1], grid.theta)[0]
                            for i in range(grid.n_r)])
        assert grid.z.tobytes() == by_rows.tobytes()
        assert grid.psi_body.tobytes() == (
            -np.imag(FAR.w_inf * by_rows[0]) / body.circumradius).tobytes()

    def test_base_gradients_are_contiguous(self):
        # face_m adds them row by row: strided views of one complex array
        # made each Picard step's face m 10-23 % slower
        grid = build_grid(FlatPlate(4.0, np.pi / 6), FAR, 32, 64)
        for name in ("base_dxi_xf", "base_dth_xf", "base_dxi_tf", "base_dth_tf"):
            a = getattr(grid, name)
            assert a.flags.c_contiguous and a.base is None


class TestCheaperPicardSteps:
    def test_sigma_is_the_complex_exponential(self):
        # sigma = e^xi e^(i theta) as an outer product, within two ulps
        grid = build_grid(Circle(1.0), FAR, 256, 512)
        sigma = compressible._sigma(grid.xi, grid.theta)
        direct = np.exp(grid.xi[:, None] + 1j * grid.theta[None, :])
        eps = np.finfo(float).eps
        assert np.all(np.abs(sigma - direct) <= 2 * eps * np.abs(direct))

    def test_inner_tolerance_follows_the_outer_residual(self):
        # at a fixed LINEAR_TOL plain Picard takes 14 steps with 64 CG
        # iterations, and the forcing rule capped at PICARD_TOL 35; with
        # Anderson mixing the capped rule took 14 steps and 34 CG
        # iterations, the uncapped rule 14 steps and 13 iterations
        state, far = free_stream(0.3)
        grid = build_grid(Circle(1.0), far, 128, 256)
        sol = solve_subsonic(grid, state)
        assert sol.iterations == 14
        assert len(sol.linear_iterations) == len(sol.linear_residuals) == 13
        assert sum(sol.linear_iterations) <= 20
        assert_forcing_rule(sol)
        assert sol.residuals[-1] < compressible.PICARD_TOL

    def test_reference_solve_allocates_no_face_h(self, monkeypatch):
        # h = 1 reaches the linear solve as two scalars: nothing the size
        # of the grid is allocated before CG starts (np.ones face arrays
        # took two full-grid arrays)
        grid = build_grid(FlatPlate(4.0, np.pi / 6), FarField(0.8, 0.0), 256, 512)
        at_entry = []
        solve = compressible.ConformalGrid.solve_linear

        def traced(self, h_xf, h_tf, *args):
            at_entry.append(tracemalloc.get_traced_memory()[0] - before)
            return solve(self, h_xf, h_tf, *args)

        monkeypatch.setattr(compressible.ConformalGrid, "solve_linear", traced)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            incompressible_reference_solution(grid)
        finally:
            tracemalloc.stop()
        full_grid_array = 256 * 512 * np.dtype(float).itemsize
        assert len(at_entry) == 1 and at_entry[0] < 0.1 * full_grid_array


def reference_cg(grid, h_xf, h_tf, x0, tol):
    """The CG loop before the residual recurrence: the true residual
    b - A x at the top of every iteration, the operator applied twice."""
    nr, nt = grid.n_r, grid.n_theta
    h_mean = (np.sum(h_xf) + np.sum(h_tf[1:-1])) / (h_xf.size + h_tf[1:-1].size)

    def apply(p):
        padded = np.zeros((nr, nt))
        padded[1:-1, :] = p
        return cell_balance(grid, padded, h_xf, h_tf)[0] - base

    base = cell_balance(grid, np.zeros((nr, nt)), h_xf, h_tf)[0]
    b = -cell_balance(grid, grid.with_boundary(0.0), h_xf, h_tf)[0]
    x = x0 + grid._fast_solve(b - apply(x0)) / h_mean
    for it in range(compressible.CG_MAX_ITERS + 1):
        r = b - apply(x)
        if np.max(np.abs(r)) / np.max(np.abs(b)) <= tol:
            return x, it
        z = grid._fast_solve(r) / h_mean
        rz_new = np.sum(r * z)
        p = z if it == 0 else z + (rz_new / rz) * p
        rz = rz_new
        x = x + (rz / np.sum(p * apply(p))) * p
    raise AssertionError("reference CG did not converge")


def solve_at_depth(monkeypatch, depth, grid, state):
    with monkeypatch.context() as patch:
        patch.setattr(compressible, "ANDERSON_DEPTH", depth)
        return solve_subsonic(grid, state)


class TestFewerPicardSteps:
    @pytest.mark.parametrize("tol", [1e-6, 1e-10, compressible.LINEAR_TOL])
    def test_recurrence_meets_the_true_residual(self, tol):
        # the residual recurrence may only stop CG where b - A x, formed
        # afresh, meets tol, at the solution of the two-application loop
        grid = TestLinearSolve.grid(64, 128)
        h_xf, h_tf = TestLinearSolve.random_h(
            grid, TestLinearSolve.SUBSONIC_SPREAD, seed=11)
        cold = TestLinearSolve.cold(grid)
        x, lin_res, iterations = grid.solve_linear(h_xf, h_tf, cold, tol=tol)
        # lin_res is b - A x formed afresh, not the recurrence's residual
        b = -cell_balance(grid, grid.with_boundary(0.0), h_xf, h_tf)[0]
        padded = np.zeros((grid.n_r, grid.n_theta))
        padded[1:-1, :] = x
        ax = grid._balance(compressible._differences(padded), h_xf, h_tf,
                           0.0, 0.0)[0]
        assert lin_res == np.max(np.abs(b - ax)) / np.max(np.abs(b)) <= tol
        # and within roundoff of the residual of the field with its
        # boundary rows
        true_r = cell_balance(grid, grid.with_boundary(x), h_xf, h_tf)[0]
        assert abs(np.max(np.abs(true_r)) / np.max(np.abs(b))
                   - lin_res) <= 1e-14
        x_ref, it_ref = reference_cg(grid, h_xf, h_tf, cold, tol)
        assert abs(iterations - it_ref) <= 1
        exact = five_point_superlu(grid, h_xf, h_tf)
        assert TestLinearSolve.rel_diff(x, x_ref) <= max(
            10 * tol, 10 * TestLinearSolve.rel_diff(x_ref, exact))

    def test_thomas_sweeps_match_the_row_temporaries(self):
        # reference: the sweeps on the (re, im) float view of the modes,
        # by inverse pivots stored once for the real and once for the
        # imaginary part of each mode, one row temporary per row
        grid = TestLinearSolve.grid(64, 128)
        inv_pivot = np.repeat(grid.inv_pivot, 2, axis=1)
        elim = grid.d_theta / grid.d_xi * inv_pivot
        assert np.array_equal(grid.elim, elim)
        r = np.random.default_rng(2).standard_normal((62, 128))
        y = np.fft.rfft(r, axis=1).view(np.float64) * inv_pivot
        for i in range(1, grid.n_r - 2):
            y[i] -= elim[i] * y[i - 1]
        for i in range(grid.n_r - 4, -1, -1):
            y[i] -= elim[i] * y[i + 1]
        old = np.fft.irfft(y.view(np.complex128), n=grid.n_theta, axis=1)
        assert np.array_equal(grid._fast_solve(r), old)

    def test_face_differences_feed_the_cell_balance(self):
        # face m one direction at a time against both nodal derivatives
        # and both face differences held at once, and a Picard step's
        # balance from the differences formed afresh
        state, far = free_stream(0.3)
        grid = build_grid(FlatPlate(4.0, np.pi / 6), far, 32, 64)
        psi_t = grid.with_boundary(
            np.random.default_rng(4).standard_normal((30, 64)))
        d_xi, d_theta = grid.d_xi, grid.d_theta
        dx, dt = compressible._differences(psi_t)
        xdiff = compressible._xi_derivative(psi_t, d_xi)
        tdiff = compressible._theta_derivative(psi_t, d_theta)
        gt = 0.5 * (tdiff[1:, :] + tdiff[:-1, :]) + grid.base_dth_xf
        gx = dx / d_xi + grid.base_dxi_xf
        m_xf = 0.5 * (gx**2 + gt**2) / grid.H2_xf
        gx = 0.5 * (np.roll(xdiff, -1, axis=1) + xdiff) + grid.base_dxi_tf
        gt = dt / d_theta + grid.base_dth_tf
        m_tf = 0.5 * (gx**2 + gt**2) / grid.H2_tf
        m = grid.face_m(psi_t)
        assert np.array_equal(m[0], m_xf) and np.array_equal(m[1], m_tf)

        grid = build_grid(Circle(1.0), far, 32, 64)
        sol = solve_subsonic(grid, state)
        w = (grid.xi[1:-1, None] - grid.xi[0]) / (grid.xi[-1] - grid.xi[0])
        psi_0 = grid.with_boundary((1 - w) * grid.psi_body[None, :]
                                   + w * grid.psi_outer[None, :])
        m_xf, m_tf = grid.face_m(psi_0)
        h_xf = compressible._face_rho(state, m_xf, None, "xi", grid, 1e-14)[1]
        h_tf = compressible._face_rho(state, m_tf, None, "theta", grid, 1e-14)[1]
        bal, scale = grid.cell_residual(compressible._differences(psi_0),
                                        h_xf, h_tf)
        assert sol.residuals[0] == float(np.max(np.abs(bal)) / scale)

    def test_dependent_steps_mix_to_nothing(self, monkeypatch):
        # a repeated f makes the equilibrated Gram matrix all ones: its solve
        # raises inside mix, which then returns no mixed iterate
        solve, raised = np.linalg.solve, []

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                raised.append(a.copy())
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        mixer = compressible._Anderson(compressible.ANDERSON_DEPTH)
        f = np.arange(1.0, 7.0).reshape(2, 3)
        assert mixer.mix(f, f) is None  # no earlier step
        assert raised == []
        assert mixer.mix(2.0 * f, f) is None
        assert len(raised) == 1 and np.all(raised[0] == 1.0)
        assert len(mixer.ys) == 2

    def test_mixing_halves_the_steps_of_a_circle(self, monkeypatch):
        # 64 x 128 circle at M 0.34: plain Picard takes 29 steps
        state, far = free_stream(0.34)
        grid = build_grid(Circle(1.0), far, 64, 128)
        sol = solve_subsonic(grid, state)
        plain = solve_at_depth(monkeypatch, 0, grid, state)
        assert sol.iterations <= 18 < plain.iterations
        assert abs(sol.max_mach - plain.max_mach) <= 1e-8 * plain.max_mach

    @pytest.mark.parametrize("mach", [0.3, 0.55])
    def test_sonic_mixed_iterate_falls_back_to_the_relaxed_step(
            self, monkeypatch, mach):
        # every mixed iterate pushed far past the sonic bound: each step
        # must take the relaxed iterate and end as plain Picard does,
        # converged at 0.3 and aborted at 0.55 (at step 2, before any
        # mixing), to the last bit
        state, far = free_stream(mach)
        grid = build_grid(Circle(1.0), far, 48, 96)
        mix, restarts = compressible._Anderson.mix, []

        def sonic_mix(self, y, f):
            mixed = mix(self, y, f)
            return None if mixed is None else 1e6 * mixed

        def counted_restart(self):
            restarts.append(len(self.ys))
            return restart(self)

        restart = compressible._Anderson.restart
        monkeypatch.setattr(compressible._Anderson, "mix", sonic_mix)
        monkeypatch.setattr(compressible._Anderson, "restart",
                            counted_restart)

        def outcome(depth):
            try:
                sol = solve_at_depth(monkeypatch, depth, grid, state)
            except SonicExcursionError as exc:
                return str(exc), exc.m_value, exc.location
            return sol.residuals, sol.psi_pert.tobytes(), sol.max_mach

        forced = outcome(compressible.ANDERSON_DEPTH)
        assert forced == outcome(0)
        converged = not isinstance(forced[0], str)
        assert converged == (mach == 0.3)
        # a fallback at every step from the second to the last but one,
        # each with the step before it in the history
        assert restarts == ([2] * (len(forced[0]) - 2) if converged else [])
