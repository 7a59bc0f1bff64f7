"""Scenario runner: JSON config in, JSON summary and CSV fields out.

A scenario names a body, a gas, a flow (exactly one of a prescribed
circulation or a Kutta corner), and the analyses to run; ``KEYS`` states
each key's rule and default once.  Outputs are deterministic for a
fixed config: no randomness, no timestamps, sorted keys.

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
from dataclasses import asdict
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, compressible, forces
from .compressible import LINEAR_TOL, MIN_GRID_NODES
from .errors import ConfigError, CornerFlowError, GasDomainError, InvalidGeometryError
from .gas import BernoulliState, GasModel
from .geometry import CircleContour, body_from_config
from .incompressible import (FarField, corner_census, exact_flow, kutta_solve,
                             panel_solve)

SCHEMA_VERSION = 1

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


def _is_pair(x, test):
    return isinstance(x, list) and len(x) == 2 and all(test(v) for v in x)


def _is_grid_size(n, even=False):  # build_grid's least size; n_theta even
    return _is_int(n) and n >= MIN_GRID_NODES and not (even and n % 2)


class _Key(NamedTuple):
    test: Callable          # test(value) -> bool
    rule: str               # what the value must be, for messages and README
    default: object         # a JSON value, None (absent), REQUIRED or default(body)
    when: tuple = ()        # (dotted key, value): the key applies only there
    each: Callable = None   # a list value's test of each element
    least: Callable = None  # least(body): the smallest value a solver takes


REQUIRED = object()
POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive number")
POSITIVE_INT = (lambda v: _is_int(v) and v > 0, "a positive integer")
CIRCLE, PLATE, POLYGON = (("body.kind", k) for k in ("circle", "flat_plate", "polygon"))
# every key the runner reads: dotted path -> its test, rule and default.  A
# key's `when` key comes before it, and the body keys before any least value.
KEYS = {
    "schema_version": _Key(lambda v: _is_int(v) and v == SCHEMA_VERSION,
                           str(SCHEMA_VERSION), REQUIRED),
    # the default output directory is out_<name> in the working directory
    "name": _Key(lambda v: isinstance(v, str) and v not in ("", ".", "..")
                 and not any(ch in v for ch in "/\\\0"),
                 "a nonempty string without /, \\ or NUL, not . or ..", REQUIRED),
    "body.kind": _Key(lambda v: v in ("circle", "flat_plate", "polygon"),
                      "circle, flat_plate or polygon", REQUIRED),
    "body.radius": _Key(*POSITIVE, REQUIRED, CIRCLE),
    "body.chord": _Key(*POSITIVE, REQUIRED, PLATE),
    "body.alpha_deg": _Key(_is_number, "a finite number (degrees)", REQUIRED, PLATE),
    "body.vertices": _Key(lambda v: isinstance(v, list) and len(v) >= 3,
                          ">= 3 [x, y] pairs of finite numbers", REQUIRED, POLYGON,
                          each=lambda xy: _is_pair(xy, _is_number)),
    "gas.incompressible": _Key(lambda v: isinstance(v, bool), "true or false", True),
    "gas.gamma": _Key(lambda v: _is_number(v) and v > 1, "a number > 1", 1.4,
                      ("gas.incompressible", False)),
    "gas.mach_inf": _Key(lambda v: _is_number(v) and 0 <= v < 1,
                         "a number in [0, 1)", REQUIRED, ("gas.incompressible", False)),
    # a subnormal speed scale V is refused across keys (validate_scenario)
    "flow.w_inf": _Key(lambda v: _is_number(v) and v >= 0, "a number >= 0", REQUIRED),
    "flow.gamma": _Key(_is_number, "a finite number", None),
    "flow.kutta_corner": _Key(_is_int, "the id of a protruding corner", None),
    "analyses": _Key(lambda v: isinstance(v, list), "a list of names from "
                     + ", ".join(ANALYSES), (), each=lambda v: v in ANALYSES),
    "solver.n_panels": _Key(
        _is_int, "a positive integer, >= 2 on a circle, >= 8 per side of a polygon",
        lambda b: max(256, b.min_panels), least=lambda b: b.min_panels),
    "solver.representation": _Key(
        lambda v: v in ("panel", "exact"), "panel or exact",
        lambda b: "panel" if b.conformal_map is None else "exact"),
    "solver.grid.n_r": _Key(_is_grid_size, f"an integer >= {MIN_GRID_NODES}", 64),
    "solver.grid.n_theta": _Key(lambda v: _is_grid_size(v, even=True),
                                f"an even integer >= {MIN_GRID_NODES}", 128),
    "solver.study.grids": _Key(
        lambda v: isinstance(v, list) and v,
        "a nonempty list of [n_r, n_theta] pairs, each as solver.grid's",
        ((64, 128), (128, 256), (256, 512)), each=lambda g: _is_pair(g, _is_int)
        and _is_grid_size(g[0]) and _is_grid_size(g[1], even=True)),
    "output.field_resolution": _Key(*POSITIVE_INT, 200),
    "output.sign_resolution": _Key(*POSITIVE_INT, 400),
}


# each key of KEYS as a path of names, and the objects that hold them
PATHS = {tuple(dotted.split(".")) for dotted in KEYS}
OBJECTS = {path[:i] for path in PATHS for i in range(1, len(path))}


def _reject_unknown(node, parents=()):
    """Raise ConfigError naming the first key of ``node`` that KEYS lacks."""
    for name, value in node.items():
        path = parents + (name,)
        _require(path in PATHS or path in OBJECTS, f"unknown key {name!r}",
                 "$." + ".".join(path))
        if path in OBJECTS and isinstance(value, dict):
            _reject_unknown(value, path)


def _get(cfg, dotted, body=None):
    """The value of a KEYS entry in a validated scenario, or its default."""
    *parents, name = dotted.split(".")
    for parent in parents:
        cfg = cfg.get(parent, {})  # the object that holds the key
    default = KEYS[dotted].default
    return cfg[name] if name in cfg else (
        default(body) if callable(default) else default)


def _body(cfg):
    try:
        return body_from_config(cfg["body"])
    except CornerFlowError as exc:
        raise ConfigError(str(exc), "$.body") from exc


def validate_scenario(cfg: dict) -> dict:
    _require(isinstance(cfg, dict), "scenario must be a JSON object", "$")
    _reject_unknown(cfg)
    built = cache(lambda: _body(cfg))  # once the body keys have passed
    for dotted, key in KEYS.items():
        if key.when and _get(cfg, key.when[0]) != key.when[1]:
            continue
        *parents, name = dotted.split(".")
        node, path = cfg, "$." + dotted
        for i, parent in enumerate(parents):  # a missing object reads as {}
            node = node.get(parent, {})
            _require(isinstance(node, dict), f"{parent} must be an object",
                     "$." + ".".join(parents[:i + 1]))
        if name not in node:
            _require(key.default is not REQUIRED, f"{name} is required", path)
            continue
        value, message = node[name], f"{name} must be {key.rule}"
        _require(key.test(value) and (key.least is None
                                      or value >= key.least(built())), message, path)
        for i, item in enumerate(value if key.each else ()):  # a list: test passed
            _require(key.each(item), message, f"{path}[{i}]")
    body = built()  # the rules across keys
    _require(len({"gamma", "kutta_corner"} & set(cfg["flow"])) == 1,
             "exactly one of gamma, kutta_corner", "$.flow")
    # a subnormal speed scale underflows every tolerance it sizes; a Kutta
    # run also solves its flows at Gamma = 0
    far = FarField(_get(cfg, "flow.w_inf"), _get(cfg, "flow.gamma") or 0.0)
    try:
        far.speed_scale(body.circumradius)
    except InvalidGeometryError as exc:
        raise ConfigError(str(exc), "$.flow.w_inf") from exc
    if not _get(cfg, "gas.incompressible"):  # a huge gamma overflows its bounds
        gamma, mach = float(_get(cfg, "gas.gamma")), float(_get(cfg, "gas.mach_inf"))
        try:
            state = BernoulliState.from_free_stream(GasModel(gamma), mach)
        except GasDomainError as exc:
            raise ConfigError(str(exc), "$.gas.gamma") from exc
        # the sonic bound m* exceeds the free stream's flux gamma M**2 / 2 by
        # about C(M) / gamma: within LINEAR_TOL of it, rounding would decide
        # whether a run aborts
        m_inf = 0.5 * gamma * mach**2
        _require(state.flux_max_m - m_inf > LINEAR_TOL * m_inf,
                 f"at mach_inf {mach:g} the sonic flux bound is within LINEAR_TOL "
                 "of the free stream's own flux: lower gamma", "$.gas.gamma")
    mapped = body.conformal_map is not None
    unmapped = f"needs a closed-form map; a {body.kind} has none"
    protruding = [c.corner_id for c in body.corners if c.protruding]
    for i, name in enumerate(_get(cfg, "analyses")):
        path = f"$.analyses[{i}]"
        if name in COMPRESSIBLE_ANALYSES:
            _require(not _get(cfg, "gas.incompressible"),
                     f"analysis {name!r} needs gas.incompressible: false", path)
            _require(mapped, f"analysis {name!r} {unmapped}", path)
        _require(name != "census" or len(protruding) >= 2,
                 f"analysis 'census' needs at least two protruding corners;"
                 f" a {body.kind} has {len(protruding)}", path)
    _require(_get(cfg, "solver.representation", body) != "exact" or mapped,
             f"exact representation {unmapped}", "$.solver.representation")
    _require(_get(cfg, "flow.kutta_corner") in [None] + protruding,
             f"kutta_corner must name a protruding corner, one of {protruding}",
             "$.flow.kutta_corner")
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
    w_inf = float(_get(cfg, "flow.w_inf"))
    n_panels = int(_get(cfg, "solver.n_panels", body))
    representation = _get(cfg, "solver.representation", body)

    gamma, corner_id = _get(cfg, "flow.gamma"), _get(cfg, "flow.kutta_corner")
    if gamma is not None:
        gamma = float(gamma)
    else:  # a Kutta corner, in the representation the flow is solved in
        e = kutta_solve(body, w_inf, int(corner_id), n_panels, representation)
        gamma = e.root
        summary["kutta"] = {
            "corner_id": e.corner_id, "gamma_star": e.root,
            "a1_at_zero": e.a1_at_zero, "a1_slope": e.slope,
            "uncertainty": e.root_uncertainty,
            "method": "conformal_map" if representation == "exact" else "panel_affine_root"}

    far = FarField(w_inf=w_inf, circulation=gamma)
    exact = exact_flow(body, far)
    if representation == "exact":
        flow = exact
    else:
        sol = panel_solve(body, far, n_panels)
        if "kutta" in summary:  # the panels built: a polygon rounds per side
            summary["kutta"]["n_panels"] = len(sol.flow.nodes) - (not sol.flow.closed)
        summary["panel"] = {
            "n_nodes": int(len(sol.flow.nodes)),
            "condition_number": sol.condition_number,
            "residual_norm": sol.residual_norm,
            "circulation_of_strengths": sol.circulation_of_strengths,
        }
        flow = sol.flow
        if exact is not None:
            summary["exact_regression_max_rel_dev"] = analysis.exact_regression(flow, exact)
    summary["flow"] = {"w_inf": w_inf, "gamma": gamma,
                       "representation": representation}
    return flow


# ---------------------------------------------------------------------------
# analyses


def _run_circulation(cfg, flow, summary, out):
    R = flow.body.circumradius
    entries = []
    for mult in (2.0, 5.0, 20.0):
        val = analysis.contour_integral(
            flow, CircleContour(flow.body.centroid, mult * R, 2048))
        entries.append({"radius": mult * R, "circulation": float(val.real),
                        "mass_flux": float(val.imag)})
    summary["circulation"] = entries


def _run_farfield(cfg, flow, summary, out):
    # c0, c1 are written [re, im] by _null_non_finite
    summary["farfield"] = asdict(analysis.farfield_fit(flow))


def _run_forces(cfg, flow, summary, out):
    body, far = flow.body, flow.far
    contour = CircleContour(body.centroid, 3.0 * body.circumradius, 1024)
    summary["forces"] = {
        **asdict(forces.blasius_force(flow, contour)),
        "kutta_joukowsky_lift": forces.kutta_joukowsky_lift(far.w_inf, far.circulation),
        "sign_convention": forces.ForceResult.sign_convention,
    }


def _run_corner_fits(cfg, flow, summary, out):
    summary["corner_reports"] = [asdict(analysis.fit_corner(flow, corner))
                                 for corner in flow.body.corners]


def _run_census(cfg, flow, summary, out):
    body = flow.body
    census = corner_census(body, float(_get(cfg, "flow.w_inf")),
                           int(_get(cfg, "solver.n_panels", body)),
                           _get(cfg, "solver.representation", body))
    summary["census"] = {
        **asdict(census),
        "verdict": ("degenerate coincidence" if census.regularizes_all_somewhere else
                    "no circulation regularizes all corners"),
        "note": "finite-resolution signature, not a proof",
    }


def _run_sign_census(cfg, flow, summary, out):
    res = int(_get(cfg, "output.sign_resolution"))
    census = analysis.sign_component_census(flow, res)
    summary["sign_census"] = {
        "bounded_positive": census.bounded_positive,
        "bounded_negative": census.bounded_negative,
        "inconclusive": census.inconclusive,
        "resolution": res,
        "note": "finite-resolution signature, not a proof",
    }


def _run_field_export(cfg, flow, summary, out):
    resolution = int(_get(cfg, "output.field_resolution"))
    export_field(out / "field.csv", "x,y,psi,speed,mask",
                 *analysis.field_map(flow, resolution))
    summary["field_export"] = {"rows": resolution * resolution, "file": "field.csv"}


def export_field(path, header, *columns):
    """Write the columns as a CSV at ``path``: one row per cell of the 2-d
    grid they broadcast to, in C order, every value as %.17g and a bool as
    0/1.  A grid axis (a row or a column of the grid) has each of its
    values formatted once.  Rows are written in blocks of whole grid
    rows, about analysis.GRID_BLOCK cells each."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns))
    cols = []
    for c in map(np.asarray, columns):
        if c.size < np.prod(shape):  # an axis: its strings, once
            c = np.array(["%.17g" % v for v in c.ravel().tolist()],
                         dtype=object).reshape(c.shape)
        cols.append(np.broadcast_to(c, shape))
    row = ",".join("%s" if c.dtype.kind in "bO" else "%.17g" for c in cols) + "\n"
    bits = np.array(["0", "1"], dtype=object)  # a bool's strings: "%d" is slower
    step = max(1, analysis.GRID_BLOCK // shape[1])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, shape[0], step):
            parts = [col[start:start + step].ravel() for col in cols]
            values = [None] * (len(cols) * parts[0].size)
            for i, part in enumerate(parts):
                values[i::len(cols)] = (bits[part.view(np.uint8)]
                                        if part.dtype == bool else part).tolist()
            fh.write((row * parts[0].size) % tuple(values))


def _run_compressible(cfg, flow, summary, out):
    gamma = float(_get(cfg, "gas.gamma"))
    mach_inf = float(_get(cfg, "gas.mach_inf"))
    gas = GasModel(gamma)
    state = BernoulliState.from_free_stream(gas, mach_inf)
    n_r = int(_get(cfg, "solver.grid.n_r"))
    n_theta = int(_get(cfg, "solver.grid.n_theta"))
    cfar = FarField(state.free_stream_speed(mach_inf), flow.far.circulation)
    grid = compressible.build_grid(flow.body, cfar, n_r, n_theta)
    sol = compressible.solve_subsonic(grid, state)
    summary["compressible"] = {
        # a solve that does not converge raises IterationLimitError
        "converged": True, "iterations": sol.iterations,
        "max_mach": sol.max_mach,
        "max_mach_location": [sol.max_mach_location.real,
                              sol.max_mach_location.imag],
        "final_residual": sol.residuals[-1],
        "residual_history": list(sol.residuals),
        "grid": [n_r, n_theta], "mach_inf": mach_inf, "gamma": gamma,
    }
    z = grid.z
    export_field(out / "compressible_field.csv", "r,theta,x,y,psi,rho,mach",
                 np.exp(grid.xi)[:, None], grid.theta[None, :], z.real, z.imag,
                 sol.psi, sol.rho, sol.mach)


def _run_refinement_study(cfg, flow, summary, out):
    grids = [tuple(g) for g in _get(cfg, "solver.study.grids")]
    gas = GasModel(float(_get(cfg, "gas.gamma")))
    study = compressible.refinement_study(
        flow.body, gas, float(_get(cfg, "gas.mach_inf")), flow.far.circulation, grids)
    summary["refinement_study"] = {
        **asdict(study), "note": "blow-up signature at finite resolution, not a proof"}


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
    the JSON path of each is appended to ``found``.  A complex number is
    written as [re, im], a tuple as a list."""
    if isinstance(node, complex):
        node = [node.real, node.imag]
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


def run(scenario_path, out_dir=None, overrides=()) -> int:
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
        flow = _resolve_flow(cfg, body, summary)
        analyses = _get(cfg, "analyses")
        for name in ANALYSES:  # in this order, each by its _run_<name>
            if name in analyses:
                globals()[f"_run_{name}"](cfg, flow, summary, out)
    except CornerFlowError as exc:
        entry = {"type": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "location") and exc.location is not None:
            entry["location"] = [exc.location.real, exc.location.imag]
        summary["errors"].append(entry)
        code = 1
    except (np.linalg.LinAlgError, MemoryError, OverflowError) as exc:
        # numpy raises MemoryError's subclass _ArrayMemoryError; Python float
        # arithmetic raises OverflowError where numpy would return inf
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        summary["errors"].append({"type": name, "message": str(exc)})
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
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cornerflow",
        description="2D corner-flow scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("scenario", help="path to scenario JSON or bundled name")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config entry, e.g. flow.gamma=1.5")
    args = parser.parse_args(argv)  # the one subcommand, run, is required
    return run(args.scenario, args.out, args.override)


if __name__ == "__main__":
    sys.exit(main())
