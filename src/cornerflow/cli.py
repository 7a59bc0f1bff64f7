"""Scenario runner: JSON config in, JSON summary and CSV fields out.

A scenario names a body, a gas (or the incompressible flag), a flow
(exactly one of a prescribed circulation, a Kutta corner, or a sweep),
and the analyses to run.  Outputs are deterministic for a fixed config:
no randomness, no timestamps, sorted keys.

Exit codes: 0 success, 1 solver error or non-finite result (structured
in the summary), 2 config violation (message names the offending JSON
path).  summary.json is strict JSON: a non-finite number is written as
null and its JSON path is named in an error entry.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, compressible, forces, incompressible
from .errors import ConfigError, CornerFlowError
from .gas import BernoulliState, GasModel
from .geometry import CircleContour, body_from_config
from .incompressible import FarField, exact_flow, kutta_solve, panel_solve

SCHEMA_VERSION = 1
CSV_BLOCK = 4096  # leading values _write_csv tests for repeats (see there)

ANALYSES = ("circulation", "farfield", "forces", "corner_fits", "census",
            "sign_census", "field_export", "compressible", "refinement_study")
COMPRESSIBLE_ANALYSES = ("compressible", "refinement_study")


# ---------------------------------------------------------------------------
# config validation


def _require(cond, message, path):
    if not cond:
        raise ConfigError(message, path)


def _is_int(x):
    # bool is a subclass of int, but JSON true/false is no number or id
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x):
    # finite floats only: JSON also parses to NaN, inf (1e400) and 10**400
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _is_list_of(x, test, length=None):
    return (isinstance(x, list) and len(x) > 0 and length in (None, len(x))
            and all(test(v) for v in x))


POSITIVE_INT = (lambda v: _is_int(v) and v > 0, "a positive integer")
WINDOW = (lambda w: _is_list_of(w, lambda r: _is_list_of(r, _is_number, 2)
                                 and 0 < r[1] - r[0] <= sys.float_info.max, 2),
          "[[x0, x1], [y0, y1]] of finite numbers with finite"
          " x1 - x0 > 0 and y1 - y0 > 0")
# optional keys the runner reads: dotted path -> (test, what the value must be)
OPTIONAL_KEYS = {
    "flow.gamma": (_is_number, "a finite number"),
    "flow.gamma_sweep": (lambda v: v is None or _is_list_of(v, _is_number),
                         "null or a nonempty list of finite numbers"),
    "solver.n_panels": POSITIVE_INT,
    "solver.representation": (lambda v: v in ("panel", "exact"), "panel|exact"),
    "solver.grid.n_r": (_is_int, "an integer"),
    "solver.grid.n_theta": (_is_int, "an integer"),
    "solver.grid.r_far": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "solver.study.grids": (
        lambda v: _is_list_of(v, lambda pair: _is_list_of(pair, _is_int, 2)),
        "a nonempty list of [n_r, n_theta] integer pairs"),
    "output.field_resolution": POSITIVE_INT,
    "output.sign_resolution": POSITIVE_INT,
    "output.field_window": WINDOW,
    "output.sign_window": WINDOW,
}


def validate_scenario(cfg: dict) -> dict:
    _require(isinstance(cfg, dict), "scenario must be a JSON object", "$")
    _require(cfg.get("schema_version") == SCHEMA_VERSION,
             f"schema_version must be {SCHEMA_VERSION}", "$.schema_version")
    _require(isinstance(cfg.get("name"), str) and cfg["name"],
             "name must be a nonempty string", "$.name")
    # the default output directory is out_<name> in the working directory
    _require(not any(ch in cfg["name"] for ch in "/\\\0")
             and cfg["name"] not in (".", ".."),
             "name must not contain /, \\ or NUL or be . or ..", "$.name")

    body = cfg.get("body")
    _require(isinstance(body, dict), "body must be an object", "$.body")
    kind = body.get("kind")
    _require(kind in ("circle", "flat_plate", "polygon"),
             "kind must be circle|flat_plate|polygon", "$.body.kind")
    if kind == "circle":
        _require(_is_number(body.get("radius")) and body["radius"] > 0,
                 "radius must be positive", "$.body.radius")
    elif kind == "flat_plate":
        _require(_is_number(body.get("chord")) and body["chord"] > 0,
                 "chord must be positive", "$.body.chord")
        _require(("alpha" in body) != ("alpha_deg" in body),
                 "exactly one of alpha (radians) or alpha_deg", "$.body")
        key = "alpha" if "alpha" in body else "alpha_deg"
        _require(_is_number(body[key]), "angle must be a number",
                 f"$.body.{key}")
    else:
        verts = body.get("vertices")
        _require(isinstance(verts, list) and len(verts) >= 3,
                 "vertices must list >= 3 [x, y] pairs", "$.body.vertices")
        for i, xy in enumerate(verts):
            _require(isinstance(xy, list) and len(xy) == 2
                     and all(_is_number(c) for c in xy),
                     "vertex must be an [x, y] pair", f"$.body.vertices[{i}]")

    gas = cfg.get("gas", {"incompressible": True})
    _require(isinstance(gas, dict), "gas must be an object", "$.gas")
    compressible_gas = not gas.get("incompressible", False)
    if compressible_gas:
        _require(_is_number(gas.get("gamma", 1.4)) and gas.get("gamma", 1.4) > 1,
                 "gamma must exceed 1", "$.gas.gamma")
        _require(_is_number(gas.get("mach_inf")) and 0 <= gas["mach_inf"] < 1,
                 "mach_inf must lie in [0, 1)", "$.gas.mach_inf")

    flow = cfg.get("flow")
    _require(isinstance(flow, dict), "flow must be an object", "$.flow")
    _require(_is_number(flow.get("w_inf")) and flow["w_inf"] > 0,
             "w_inf must be a positive magnitude", "$.flow.w_inf")
    modes = [k for k in ("gamma", "kutta_corner", "gamma_sweep") if k in flow]
    _require(len(modes) == 1,
             "exactly one of gamma, kutta_corner, gamma_sweep", "$.flow")

    analyses = cfg.get("analyses", [])
    _require(isinstance(analyses, list), "analyses must be a list", "$.analyses")
    for i, name in enumerate(analyses):
        _require(name in ANALYSES, f"unknown analysis {name!r}", f"$.analyses[{i}]")
        _require(compressible_gas or name not in COMPRESSIBLE_ANALYSES,
                 f"analysis {name!r} needs gas.incompressible: false",
                 f"$.analyses[{i}]")

    # a present optional key must pass its test; objects on its path must
    # be JSON objects
    for dotted, (test, rule) in OPTIONAL_KEYS.items():
        *parents, key = dotted.split(".")
        node, path = cfg, "$"
        for name in parents:
            node, path = node.get(name, {}), f"{path}.{name}"
            _require(isinstance(node, dict), f"{name} must be an object", path)
        if key in node:
            _require(test(node[key]), f"{key} must be {rule}", f"{path}.{key}")
    try:
        b = body_from_config(body)
    except CornerFlowError as exc:
        raise ConfigError(str(exc), "$.body") from exc
    _require(cfg.get("solver", {}).get("representation") != "exact"
             or incompressible.conformal_map(b) is not None,
             f"exact representation needs a closed-form map; a {kind} has none",
             "$.solver.representation")
    if "kutta_corner" in flow:
        n_corners = len(b.corners)
        _require(_is_int(flow["kutta_corner"])
                 and 0 <= flow["kutta_corner"] < n_corners,
                 f"corner id must be in [0, {n_corners})", "$.flow.kutta_corner")
    return cfg


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    out = json.loads(json.dumps(cfg))
    for item in overrides:
        if "=" not in item:
            raise ConfigError("override must look like key.path=value", "$")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        *parents, last = key.split(".")
        node, path = out, "$"
        message = f"not an object, cannot override {key}"
        for p in parents:
            _require(isinstance(node, dict), message, path)
            node, path = node.setdefault(p, {}), f"{path}.{p}"
        _require(isinstance(node, dict), message, path)
        node[last] = value
    return out


# ---------------------------------------------------------------------------
# flow construction


def _resolve_flow(cfg: dict, body, summary: dict):
    flow_cfg = cfg["flow"]
    w_inf = float(flow_cfg["w_inf"])
    solver = cfg.get("solver", {})
    n_panels = int(solver.get("n_panels", 256))
    exact = exact_flow(body, FarField(w_inf, 0.0))
    representation = solver.get("representation",
                                "panel" if exact is None else "exact")
    if representation == "panel":
        exact = None

    if "gamma" in flow_cfg:
        gamma = float(flow_cfg["gamma"])
    elif "kutta_corner" in flow_cfg:
        corner_id = int(flow_cfg["kutta_corner"])
        if exact is not None:  # a plate: circles have no corner to name
            gamma = exact.kutta_circulation(corner_id)
            summary["kutta"] = {"corner_id": corner_id, "gamma_star": gamma,
                                "method": "conformal_map"}
        else:
            res = kutta_solve(body, w_inf, corner_id, n_panels=max(n_panels, 256))
            gamma = res.gamma_star
            summary["kutta"] = {
                "corner_id": corner_id, "gamma_star": res.gamma_star,
                "a1_at_zero": res.a1_at_zero, "a1_slope": res.a1_slope,
                "uncertainty": res.uncertainty, "n_panels": res.n_panels,
                "method": "panel_affine_root"}
    else:
        gamma = 0.0  # sweep scenarios analyse the census, not one flow

    far = FarField(w_inf=w_inf, circulation=gamma)
    if exact is not None:
        flow = exact_flow(body, far)
    else:
        sol = panel_solve(body, far, n_panels=n_panels)
        summary["panel"] = {
            "n_nodes": int(len(sol.nodes)),
            "condition_number": sol.condition_number,
            "residual_norm": sol.residual_norm,
            "circulation_of_strengths": sol.circulation_of_strengths,
        }
        flow = sol.flow
    summary["flow"] = {"w_inf": w_inf, "gamma": gamma,
                       "representation": representation}
    return flow, far


def _exact_regression(flow, exact):
    """Panel-vs-exact velocity deviation at standard probe rings."""
    R = exact.body.circumradius
    th = 2 * np.pi * (np.arange(100) + 0.31) / 100
    worst = 0.0
    for mult in (1.5, 3.0, 10.0):
        z = mult * R * np.exp(1j * th)
        dev = np.max(np.abs(np.asarray(flow.velocity(z))
                            - np.asarray(exact.velocity(z))))
        worst = max(worst, float(dev / abs(exact.far.w_inf)))
    return worst


# ---------------------------------------------------------------------------
# analyses


def _run_circulation(flow, body, summary):
    R = body.circumradius
    entries = []
    for mult in (2.0, 5.0, 20.0):
        val = analysis.contour_integral(
            flow, CircleContour(body.centroid, mult * R, 2048))
        entries.append({"radius": mult * R, "circulation": float(val.real),
                        "mass_flux": float(val.imag)})
    summary["circulation"] = entries


def _run_farfield(flow, summary):
    fit = analysis.farfield_fit(flow)
    summary["farfield"] = {
        "c0": [float(np.real(fit.c0)), float(np.imag(fit.c0))],
        "c1": [float(np.real(fit.c1)), float(np.imag(fit.c1))],
        "gamma_estimate": fit.gamma_estimate,
        "re_c1": fit.re_c1,
        "residual": fit.residual,
    }


def _run_forces(flow, body, far, summary):
    contour = CircleContour(body.centroid, 3.0 * body.circumradius, 1024)
    result = forces.blasius_force(flow, contour)
    summary["forces"] = {
        "drag": result.drag, "lift": result.lift,
        "quadrature_error": result.quadrature_error,
        "kutta_joukowsky_lift": forces.kutta_joukowsky_lift(
            1.0, far.w_inf, far.circulation),
        "sign_convention": forces.ForceResult.sign_convention,
    }


def _run_corner_fits(flow, body, summary):
    reports = []
    for corner in body.corners:
        rep = analysis.fit_corner(flow, corner)
        reports.append({
            "corner_id": rep.corner_id, "beta": rep.beta,
            "a1": rep.a1_estimate, "a1_uncertainty": rep.a1_uncertainty,
            "fitted_exponent": rep.fitted_exponent,
            "singular_exponent": rep.singular_exponent,
            "singular": rep.singular, "sign_attainment": rep.sign_attainment,
        })
    summary["corner_reports"] = reports


def _run_census(cfg, body, summary):
    flow_cfg = cfg["flow"]
    sweep = flow_cfg.get("gamma_sweep")
    grid = None if sweep is None else np.asarray(sweep, dtype=float)
    n_panels = int(cfg.get("solver", {}).get("n_panels", 256))
    census = analysis.corner_census(body, float(flow_cfg["w_inf"]),
                                    gamma_grid=grid, n_panels=n_panels)
    summary["census"] = {
        "corners": [{
            "corner_id": e.corner_id, "root": e.root, "slope": e.slope,
            "a1_at_zero": e.a1_at_zero, "root_uncertainty": e.root_uncertainty,
        } for e in census.corners],
        "sweep_gammas": list(census.sweep_gammas),
        "sweep_singular_counts": [len(ids) for ids in census.sweep_singular_ids],
        "min_singular_count": census.min_singular_count,
        "regularizes_all_somewhere": census.regularizes_all_somewhere,
        "coincident_pairs": [list(p) for p in census.coincident_pairs],
        "verdict": ("degenerate coincidence" if census.coincident_pairs else
                    "no circulation regularizes all corners"),
        "note": "finite-resolution signature, not a proof",
    }


def _run_sign_census(cfg, flow, body, summary):
    out_cfg = cfg.get("output", {})
    R = body.circumradius
    window = out_cfg.get("sign_window", [
        [-4.0 * R + body.centroid.real, 4.0 * R + body.centroid.real],
        [-4.0 * R + body.centroid.imag, 4.0 * R + body.centroid.imag]])
    res = int(out_cfg.get("sign_resolution", 400))
    census = analysis.sign_component_census(
        flow, (tuple(window[0]), tuple(window[1])), resolution=res)
    summary["sign_census"] = {
        "bounded_positive": census.bounded_positive,
        "bounded_negative": census.bounded_negative,
        "inconclusive": census.inconclusive,
        "resolution": res,
        "note": "finite-resolution signature, not a proof",
    }


def export_field(flow_or_solution, window, resolution, path):
    """Write a field CSV: rectilinear (x, y, psi, speed, mask) for
    incompressible flows; the annular node table
    (r, theta, x, y, psi, rho, mach) for compressible solutions."""
    if isinstance(flow_or_solution, compressible.CompressibleSolution):
        sol = flow_or_solution
        g = sol.grid
        r, theta = np.meshgrid(np.exp(g.xi), g.theta, indexing="ij")
        _write_csv(path, "r,theta,x,y,psi,rho,mach",
                   r, theta, g.z.real, g.z.imag, sol.psi, sol.rho, sol.mach)
        return

    flow = flow_or_solution
    (x0, x1), (y0, y1) = window
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    Z = xs[None, :] + 1j * ys[:, None]
    masked = flow.body.occupies(Z, 2.0 * (x1 - x0) / resolution)
    psi = np.full(Z.shape, np.nan)
    speed = np.full(Z.shape, np.nan)
    free = ~masked
    psi[free] = flow.stream(Z[free])
    speed[free] = np.abs(np.asarray(flow.velocity(Z[free])))
    x, y = np.meshgrid(xs, ys)
    _write_csv(path, "x,y,psi,speed,mask", x, y, psi, speed, masked)


def _write_csv(path, header, *columns):
    """One row per element of the equally shaped columns, in C order,
    every value as %.17g (a mask column prints as 0/1).  A column with at
    most half as many distinct bit patterns as rows (a grid axis, a mask)
    has each distinct value formatted once, and enters the row as %s.
    Only a column whose first CSV_BLOCK values repeat that much is sorted
    to count them: the bytes are the same either way."""
    cols = [np.ravel(c).astype(float) for c in columns]
    values, fields = [None] * (len(cols) * len(cols[0])), []
    for i, col in enumerate(cols):
        # a sort, not np.unique: numpy 2.4's hash-based unique keeps about
        # 1 MB allocated after it returns
        block = np.sort(col[:CSV_BLOCK].view(np.int64))
        distinct = 1 + np.count_nonzero(block[1:] != block[:-1])
        repeats = 2 * distinct <= len(block)
        if repeats:
            bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
            repeats = 2 * len(bits) <= len(col)
        if repeats:
            col = np.array(["%.17g" % v for v in bits.view(float).tolist()],
                           dtype=object)[inverse]
        values[i::len(cols)] = col.tolist()
        fields.append("%s" if repeats else "%.17g")
    row = ",".join(fields) + "\n"
    Path(path).write_text(header + "\n" + (row * len(cols[0])) % tuple(values))


def _run_compressible(cfg, body, far, summary, out_dir):
    gas_cfg = cfg.get("gas", {})
    gamma = float(gas_cfg.get("gamma", 1.4))
    mach_inf = float(gas_cfg["mach_inf"])
    gas = GasModel(gamma)
    state = BernoulliState.from_free_stream(gas, mach_inf)
    grid_cfg = cfg.get("solver", {}).get("grid", {})
    n_r = int(grid_cfg.get("n_r", 64))
    n_theta = int(grid_cfg.get("n_theta", 128))
    r_far = float(grid_cfg.get("r_far", 25.0 * body.circumradius))
    grid = compressible.build_grid(body, r_far, n_r, n_theta)
    q_inf = state.free_stream_speed(mach_inf)
    cfar = FarField(w_inf=q_inf * far.flow_direction.conjugate(),
                    circulation=far.circulation)
    sol = compressible.solve_subsonic(grid, gas, state, cfar)
    summary["compressible"] = {
        "converged": sol.converged, "iterations": sol.iterations,
        "max_mach": sol.max_mach,
        "max_mach_location": [sol.max_mach_location.real,
                              sol.max_mach_location.imag],
        "final_residual": sol.residuals[-1],
        "residual_history": list(sol.residuals),
        "grid": [n_r, n_theta], "mach_inf": mach_inf, "gamma": gamma,
    }
    if out_dir is not None:
        export_field(sol, None, None, Path(out_dir) / "compressible_field.csv")
    return sol


def _run_refinement_study(cfg, body, far, summary):
    gas_cfg = cfg.get("gas", {})
    study_cfg = cfg.get("solver", {}).get("study", {})
    grids = [tuple(g) for g in study_cfg.get(
        "grids", [[64, 128], [128, 256], [256, 512]])]
    gas = GasModel(float(gas_cfg.get("gamma", 1.4)))
    study = compressible.refinement_study(
        body, gas, float(gas_cfg["mach_inf"]), far.circulation, grids)
    summary["refinement_study"] = {
        "levels": [{
            "grid": list(lv.grid_shape), "outcome": lv.outcome,
            "max_mach": lv.max_mach, "corner_max_mach": lv.corner_max_mach,
            "sonic_margin_ratio": lv.sonic_margin_ratio,
            "excursion_m_ratio": lv.excursion_m_ratio,
        } for lv in study.levels],
        "margin_strictly_increasing": study.margin_strictly_increasing,
        "abort_at_finest": study.abort_at_finest,
        "mach_cauchy_differences": list(study.mach_cauchy_factors),
        "note": "blow-up signature at finite resolution, not a proof",
    }


# ---------------------------------------------------------------------------
# runner


def resolve_scenario_path(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    bundled = resources.files("cornerflow.scenarios") / name
    if bundled.is_file():
        return Path(str(bundled))
    raise ConfigError(f"scenario file not found: {name}", "$")


def _null_non_finite(node, path, found):
    """A copy of a JSON tree with every non-finite float replaced by None;
    the JSON path of each is appended to ``found``."""
    if isinstance(node, float) and not math.isfinite(node):
        found.append(path)
        return None
    if isinstance(node, dict):
        return {k: _null_non_finite(v, f"{path}.{k}", found)
                for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_null_non_finite(v, f"{path}[{i}]", found)
                for i, v in enumerate(node)]
    return node


def run(scenario_path, out_dir=None, overrides=(), verbosity: int = 0) -> int:
    """Run one scenario; returns the process exit code."""
    try:
        path = resolve_scenario_path(str(scenario_path))
        try:
            cfg = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON at line {exc.lineno}, col {exc.colno}: "
                              f"{exc.msg}", "$") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"scenario {path} is not UTF-8 text", "$") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read scenario {path}: {exc.strerror}",
                              "$") from exc
        cfg = apply_overrides(cfg, list(overrides))
        validate_scenario(cfg)
        out = Path(out_dir) if out_dir else Path.cwd() / f"out_{cfg['name']}"
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: "
                              f"{exc.strerror}", "$") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    summary = {"schema_version": SCHEMA_VERSION, "name": cfg["name"],
               "body": cfg["body"], "errors": []}
    code = 0
    try:
        body = body_from_config(cfg["body"])
        flow, far = _resolve_flow(cfg, body, summary)
        analyses = cfg.get("analyses", [])
        exact = exact_flow(body, far)
        if summary["flow"]["representation"] == "panel" and exact is not None:
            summary["exact_regression_max_rel_dev"] = _exact_regression(flow, exact)
        if "circulation" in analyses:
            _run_circulation(flow, body, summary)
        if "farfield" in analyses:
            _run_farfield(flow, summary)
        if "forces" in analyses:
            _run_forces(flow, body, far, summary)
        if "corner_fits" in analyses:
            _run_corner_fits(flow, body, summary)
        if "census" in analyses:
            _run_census(cfg, body, summary)
        if "sign_census" in analyses:
            _run_sign_census(cfg, flow, body, summary)
        if "field_export" in analyses:
            out_cfg = cfg.get("output", {})
            R = body.circumradius
            window = out_cfg.get("field_window",
                                 [[-3.0 * R, 3.0 * R], [-3.0 * R, 3.0 * R]])
            resn = int(out_cfg.get("field_resolution", 200))
            export_field(flow, (tuple(window[0]), tuple(window[1])), resn,
                         out / "field.csv")
            summary["field_export"] = {"rows": resn * resn, "file": "field.csv"}
        if "compressible" in analyses:
            _run_compressible(cfg, body, far, summary, out)
        if "refinement_study" in analyses:
            _run_refinement_study(cfg, body, far, summary)
    except CornerFlowError as exc:
        entry = {"type": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "location") and exc.location is not None:
            entry["location"] = [exc.location.real, exc.location.imag]
        summary["errors"].append(entry)
        code = 1
    except np.linalg.LinAlgError as exc:
        summary["errors"].append({"type": "LinAlgError", "message": str(exc)})
        code = 1

    non_finite = []
    summary = _null_non_finite(summary, "$", non_finite)
    if non_finite:
        summary["errors"].append({
            "type": "NonFiniteResult",
            "message": "non-finite numbers written as null at "
                       + ", ".join(sorted(non_finite))})
        code = 1
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n")
    if verbosity > 0:
        print(f"wrote {out / 'summary.json'}", file=sys.stderr)
    if verbosity > 1:
        print(json.dumps(summary, indent=2, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cornerflow",
        description="2D corner-flow scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("scenario", help="path to scenario JSON or bundled name")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--verbosity", type=int, default=0)
    p_run.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config entry, e.g. flow.gamma=1.5")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.scenario, args.out, args.override, args.verbosity)
    return 2


if __name__ == "__main__":
    sys.exit(main())
