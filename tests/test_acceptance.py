"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single [PASS]/[FAIL] line (visible with -s or -rA) and
asserts the same condition, so the suite doubles as a machine-checkable
acceptance report.  Run as:  pytest tests/test_acceptance.py -v
"""

import time

import numpy as np

from cornerflow.analysis import (contour_integral, farfield_fit,
                                 fit_corner, sign_attainment, sign_component_census)
from cornerflow.compressible import (build_grid, incompressible_reference_solution,
                                     refinement_study, solve_subsonic)
from cornerflow.errors import LimitSpeedError, SonicFluxError
from cornerflow.forces import blasius_force, kutta_joukowsky_lift
from cornerflow.gas import BernoulliState, GasModel
from cornerflow.geometry import Circle, CircleContour, FlatPlate, Polygon
from cornerflow.incompressible import (FarField, corner_census, exact_flow,
                                       kutta_solve, panel_solve)
from oracles import kutta_circulation, swept_least_singular_count

TWO_PI = 2 * np.pi
TRIANGLE = Polygon([(1.0, 0.0), (-0.5, np.sqrt(3) / 2), (-0.5, -np.sqrt(3) / 2)])
UNIT_SQUARE = Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def bundled_panel_flows():
    """The bundled incompressible flows, as (name, panel flow) pairs."""
    flows = []
    flows.append(("circle", panel_solve(Circle(1.0), FarField(1.0, TWO_PI),
                                        256).flow))
    alpha = np.deg2rad(30.0)
    gstar = kutta_solve(FlatPlate(4.0, alpha), 1.0, 0, n_panels=512).root
    flows.append(("plate30", panel_solve(FlatPlate(4.0, alpha),
                                         FarField(1.0, gstar), 512).flow))
    root0 = kutta_solve(TRIANGLE, 1.0, 0, n_panels=256).root
    flows.append(("triangle", panel_solve(TRIANGLE, FarField(1.0, root0),
                                          256).flow))
    return flows


def test_criterion_01_circle_regression():
    t0 = time.perf_counter()
    far = FarField(1.0, TWO_PI)
    sol = panel_solve(Circle(1.0), far, 256)
    exact = exact_flow(Circle(1.0), far)
    th = TWO_PI * (np.arange(100) + 0.31) / 100
    worst = 0.0
    for mult in (1.5, 3.0, 10.0):
        z = mult * np.exp(1j * th)
        dev = np.max(np.abs(sol.flow.velocity(z) - exact.velocity(z)))
        worst = max(worst, float(dev))
    elapsed = time.perf_counter() - t0
    report(1, worst < 5e-3 and elapsed < 5.0,
           f"256-gon vs circle formula: max rel dev {worst:.2e} "
           f"(tol 5e-3), {elapsed:.2f}s (< 5s)")


def test_criterion_02_circulation_mass_flux():
    checks = []
    flows = [("circle-exact", exact_flow(Circle(1.0), FarField(1.0, TWO_PI)), 1e-6),
             ("plate-exact", exact_flow(FlatPlate(4.0, np.deg2rad(30.0)),
                                        FarField(1.0, -1.5)), 1e-6)]
    flows = [(n, f, tol) for n, f, tol in flows]
    for name, flow, tol in flows + [(n, f, 1e-4) for n, f in bundled_panel_flows()]:
        R = flow.body.circumradius
        gammas, fluxes = [], []
        for mult in (2.0, 5.0, 20.0):
            contour = CircleContour(flow.body.centroid, mult * R, 2048)
            gammas.append(float(contour_integral(flow, contour).real))
            fluxes.append(abs(contour_integral(flow, contour).imag)
                          / (1.0 * TWO_PI * mult * R))
        spread = max(gammas) - min(gammas)
        fit = farfield_fit(flow)
        checks.append((name, spread < tol, max(fluxes) < 1e-6,
                       abs(fit.re_c1) < 1e-6))
    ok = all(all(c[1:]) for c in checks)
    detail = "; ".join(f"{c[0]}: spread_ok={c[1]} flux_ok={c[2]} rec1_ok={c[3]}"
                       for c in checks)
    report(2, ok, detail)


def test_criterion_03_kutta_root():
    results = []
    for deg in (10.0, 20.0, 30.0):
        alpha = np.deg2rad(deg)
        plate = FlatPlate(4.0, alpha)
        res = kutta_solve(plate, 1.0, 0, n_panels=512)
        oracle = kutta_circulation(exact_flow(FlatPlate(4.0, alpha), FarField(1.0, 0.0)), 0)
        rel = abs(res.root - oracle) / abs(oracle)
        flow = panel_solve(plate, FarField(1.0, res.root), 512).flow
        trailing = fit_corner(flow, plate.corners[0])
        leading = fit_corner(flow, plate.corners[1])
        results.append((deg, rel, not trailing.singular,
                        leading.fitted_exponent))
    ok = all(r[1] < 0.01 and r[2] and abs(r[3] + 0.5) < 0.05 for r in results)
    detail = "; ".join(f"a={r[0]:g}deg: dGamma*={r[1]:.2%}, trailing regular="
                       f"{r[2]}, leading exp={r[3]:.3f}" for r in results)
    report(3, ok, detail + " (tol: 1%, exponent -0.5+-0.05)")


def test_criterion_04_plate_root_splitting():
    alpha = np.deg2rad(30.0)
    r_te = kutta_solve(FlatPlate(4.0, alpha), 1.0, 0, n_panels=512)
    r_le = kutta_solve(FlatPlate(4.0, alpha), 1.0, 1, n_panels=512)
    gap = abs(r_te.root - r_le.root)
    unc = max(r_te.root_uncertainty + r_le.root_uncertainty, 1e-12)
    split_ok = gap > 10.0 * unc
    z_te = kutta_solve(FlatPlate(4.0, 0.0), 1.0, 0, n_panels=512)
    z_le = kutta_solve(FlatPlate(4.0, 0.0), 1.0, 1, n_panels=512)
    tol0 = 1e-6 * 1.0 * 4.0
    zero_ok = abs(z_te.root) < tol0 and abs(z_le.root) < tol0
    report(4, split_ok and zero_ok,
           f"alpha=30deg roots gap {gap:.4f} > 10x uncertainty {unc:.2e}: "
           f"{split_ok}; alpha=0 roots ({z_te.root:.2e}, "
           f"{z_le.root:.2e}) ~ 0: {zero_ok}")


def test_criterion_05_polygon_census():
    details = []
    ok = True
    for name, body in (("triangle", TRIANGLE), ("unit square", UNIT_SQUARE)):
        census = corner_census(body, 1.0, n_panels=256)
        n = len(body.corners)
        assert len(census.sweep_gammas) == 33
        assert census.min_singular_count == swept_least_singular_count(body, census, 1.0)
        this_ok = (not census.regularizes_all_somewhere
                   and census.min_singular_count >= 1
                   and census.min_singular_count >= n - 2)
        ok = ok and this_ok
        details.append(f"{name}: no regularizing Gamma="
                       f"{not census.regularizes_all_somewhere}, min singular="
                       f"{census.min_singular_count} (need >= {max(1, n - 2)})")
    report(5, ok, "; ".join(details))


def test_criterion_06_sign_properties():
    alpha = np.deg2rad(30.0)
    gstar = kutta_solve(FlatPlate(4.0, alpha), 1.0, 0, n_panels=512).root
    plate_flow = panel_solve(FlatPlate(4.0, alpha), FarField(1.0, gstar),
                             512).flow
    verdict_plate = sign_attainment(plate_flow, plate_flow.body.corners[0], 0.05)
    root0 = kutta_solve(TRIANGLE, 1.0, 0, n_panels=256).root
    tri_flow = panel_solve(TRIANGLE, FarField(1.0, root0), 256).flow
    verdict_tri = sign_attainment(tri_flow, TRIANGLE.corners[0], 0.05)
    both_ok = verdict_plate == "both" and verdict_tri == "both"

    census_ok, census_detail = True, []
    for name, flow in bundled_panel_flows():
        sc = sign_component_census(flow, resolution=400)
        census_ok = census_ok and sc.bounded_positive == 0 and sc.bounded_negative == 0
        census_detail.append(f"{name}: ({sc.bounded_positive}, {sc.bounded_negative})")
    report(6, both_ok and census_ok,
           f"kutta corners both-signed: plate={verdict_plate}, tri={verdict_tri}; "
           f"bounded components {'; '.join(census_detail)} (expect all 0)")


def test_criterion_07_forces():
    checks = []
    flow_c = exact_flow(Circle(1.0), FarField(1.0, TWO_PI))
    f = blasius_force(flow_c, CircleContour(0j, 3.0, 1024))
    ref = 1.0 * 1.0 * TWO_PI
    checks.append(("circle", abs(abs(f.lift) - ref) / ref, abs(f.drag) / ref))

    alpha = np.deg2rad(30.0)
    gstar = kutta_solve(FlatPlate(4.0, alpha), 1.0, 0, n_panels=512).root
    flow_p = panel_solve(FlatPlate(4.0, alpha), FarField(1.0, gstar), 512).flow
    fp = blasius_force(flow_p, CircleContour(0j, 6.0, 1024))
    refp = 1.0 * 1.0 * abs(gstar)
    checks.append(("kutta plate", abs(abs(fp.lift) - refp) / refp,
                   abs(fp.drag) / refp))
    kj = kutta_joukowsky_lift(1.0, gstar)
    checks.append(("plate blasius vs KJ", abs(fp.lift - kj) / abs(kj), 0.0))

    ok = all(lift_err < 0.01 and drag_rel < 1e-3 for _, lift_err, drag_rel in checks)
    detail = "; ".join(f"{n}: lift err {le:.2e}, drag/|L| {dr:.2e}"
                       for n, le, dr in checks)
    report(7, ok, detail + " (tol: 1% lift, 1e-3 drag)")


def test_criterion_08_compressible_trivial():
    gas = GasModel(1.4)
    state = BernoulliState.from_free_stream(gas, 0.3)
    far = FarField(state.free_stream_speed(0.3), 0.0)
    grid = build_grid(FlatPlate(4.0, 0.0), far, 64, 128)
    sol = solve_subsonic(grid, state)
    res = sol.residuals[-1]
    dev = float(np.nanmax(np.abs(sol.speed - abs(far.w_inf))))
    report(8, res < 1e-12 and dev < 1e-10,
           f"horizontal plate M=0.3: residual {res:.2e} (< 1e-12), "
           f"max |v| deviation {dev:.2e} (< 1e-10)")


def test_criterion_09_low_mach_consistency():
    gas = GasModel(1.4)
    devs, times = [], []
    for mach in (0.2, 0.1, 0.05):
        state = BernoulliState.from_free_stream(gas, mach)
        far = FarField(state.free_stream_speed(mach), 0.0)
        grid = build_grid(Circle(1.0), far, 128, 256)
        t0 = time.perf_counter()
        sol = solve_subsonic(grid, state)
        times.append(time.perf_counter() - t0)
        psi_inc = incompressible_reference_solution(grid)
        v_inc = grid.nodal_velocity(*grid.nodal_gradient(psi_inc), 1.0)
        devs.append(float(np.nanmax(np.abs(sol.velocity - v_inc))
                          / abs(far.w_inf)))
    r1, r2 = devs[0] / devs[1], devs[1] / devs[2]
    ok = 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0 and max(times) < 60.0
    report(9, ok, f"deviations {[f'{d:.2e}' for d in devs]}, ratios "
                  f"({r1:.2f}, {r2:.2f}) in [3, 5]; max solve "
                  f"{max(times):.1f}s (< 60s)")


def test_criterion_10_blowup_signature():
    t0 = time.perf_counter()
    gas = GasModel(1.4)
    grids = [(64, 128), (128, 256), (256, 512)]
    plate_study = refinement_study(FlatPlate(4.0, np.deg2rad(30.0)), gas,
                                   0.5, 0.0, grids)
    margins = [lv.sonic_margin_ratio for lv in plate_study.levels]
    machs = [lv.corner_max_mach for lv in plate_study.levels
             if lv.corner_max_mach is not None]
    mach_increasing = all(b > a for a, b in zip(machs, machs[1:])) and len(machs) >= 2
    plate_ok = (plate_study.margin_strictly_increasing
                and (plate_study.abort_at_finest or mach_increasing))

    circle_study = refinement_study(Circle(1.0), gas, 0.3, 0.0, grids)
    d = circle_study.mach_cauchy_differences
    circle_ok = (all(lv.outcome == "converged" for lv in circle_study.levels)
                 and len(d) == 2 and d[1] <= d[0] / 2.0)
    elapsed = time.perf_counter() - t0
    report(10, plate_ok and circle_ok and elapsed < 900.0,
           f"plate corner sonic-margin ratios {[f'{m:.0f}' for m in margins]} "
           f"strictly increasing={plate_study.margin_strictly_increasing}, "
           f"abort at finest={plate_study.abort_at_finest}; circle Cauchy "
           f"diffs {[f'{x:.2e}' for x in d]} shrink >= 2x={circle_ok}; "
           f"total {elapsed:.0f}s (< 900s)")


def test_criterion_11_gas_property_suite():
    rng = np.random.default_rng(2024)
    failures = 0
    total = 0
    for gamma in (1.4, 5.0 / 3.0, 2.0):
        gas = GasModel(gamma)
        for _ in range(1000):
            B = rng.uniform(0.5, 10.0)
            st = BernoulliState(gas, B)
            total += 1
            q = rng.uniform(0.0, 0.99) * st.limit_speed
            rho = st.density_from_speed(q)
            if abs(0.5 * q**2 + gas.enthalpy_pi(rho) - B) > 1e-12 * B:
                failures += 1
                continue
            m = rng.uniform(0.0, 0.99) * st.flux_max_m
            r2 = st.density_from_flux(m)
            if abs(m / r2**2 + gas.enthalpy_pi(r2) - B) > 1e-10 * B:
                failures += 1
                continue
            q2 = np.sqrt(2 * m) / r2
            if gas.mach(q2, r2) >= 1.0:
                failures += 1
                continue
            # monotonicity spot pair
            q_lo, q_hi = sorted(rng.uniform(0, 0.99, 2) * st.limit_speed)
            if q_hi > q_lo and not (st.density_from_speed(q_hi)
                                    < st.density_from_speed(q_lo)):
                failures += 1
                continue
            # error contracts
            try:
                st.density_from_speed(st.limit_speed * 1.0001)
                failures += 1
                continue
            except LimitSpeedError:
                pass
            try:
                st.density_from_flux(st.flux_max_m * 1.0001)
                failures += 1
                continue
            except SonicFluxError:
                pass
    report(11, failures == 0,
           f"{total - failures}/{total} sampled states pass round trips, "
           f"monotonicity and error contracts (need 100%)")
