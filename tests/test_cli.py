"""Scenario runner: schema, determinism, exports, exit codes."""

import ast
import dataclasses
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cornerflow
from cornerflow import analysis, cli, compressible, forces, incompressible
from cornerflow.cli import (apply_overrides, export_field, main,
                            resolve_scenario_path, run, validate_scenario)
from cornerflow.compressible import build_grid, solve_subsonic
from cornerflow.errors import ConfigError, InvalidGeometryError, UnsupportedBodyError
from cornerflow.gas import BernoulliState, GasModel
from cornerflow.geometry import Circle, FlatPlate, Polygon, body_from_config
from cornerflow.incompressible import FarField, exact_flow, panel_solve


def minimal_cfg(**kw):
    cfg = {
        "schema_version": 1,
        "name": "t",
        "body": {"kind": "circle", "radius": 1.0},
        "gas": {"incompressible": True},
        "flow": {"w_inf": 1.0, "gamma": 0.0},
        "analyses": [],
    }
    cfg.update(kw)
    return cfg


PLATE = {"kind": "flat_plate", "chord": 4.0, "alpha_deg": 30.0}
HORIZONTAL_PLATE = {"kind": "flat_plate", "chord": 4.0, "alpha_deg": 0.0}
TRIANGLE = {"kind": "polygon", "vertices": [[1, 0], [-0.5, 0.87], [-0.5, -0.87]]}
# summary floats that are lengths, circulations or forces: one power of length
LENGTH_KEYS = {"chord", "vertices", "radius", "circulation", "mass_flux", "c1",
               "re_c1", "gamma_estimate", "gamma", "gamma_star", "uncertainty",
               "drag", "lift", "kutta_joukowsky_lift", "quadrature_error",
               "circulation_of_strengths", "root", "root_uncertainty",
               "sweep_gammas"}


def length_dimension(key, beta):
    """The power of length of the summary float under ``key``, at a corner
    of fluid-side angle beta: a1 carries R**(1 - pi/beta) and its slope in
    Gamma R**(-pi/beta), as exact fractions of the float pi/beta."""
    if key in ("a1", "a1_uncertainty", "a1_at_zero"):
        return 1 - Fraction(np.pi / beta)
    if key in ("slope", "a1_slope"):
        return -Fraction(np.pi / beta)
    return Fraction(key in LENGTH_KEYS)


def assert_scaled(got, want, k, betas, key=None, beta=None):
    """Summary ``got`` is ``want`` of the body scaled by 2**k: every float
    times 2**(k m), m its length dimension, to the bit where k m is an
    integer and to 1e-12 relative elsewhere; all else equal."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        beta = betas.get(want.get("corner_id"), beta)
        for name in want:
            assert_scaled(got[name], want[name], k, betas, name, beta)
    elif isinstance(want, list):
        assert len(got) == len(want), key
        for g, w in zip(got, want):
            assert_scaled(g, w, k, betas, key, beta)
    elif isinstance(want, float):
        km = k * length_dimension(key, beta)
        if km.denominator == 1:
            assert got == math.ldexp(want, int(km)), (key, got, want)
        else:
            assert got == pytest.approx(want * 2.0 ** float(km), rel=1e-12, abs=0.0)
    else:
        assert got == want, key


class TestValidation:
    def test_minimal_valid(self):
        validate_scenario(minimal_cfg())

    def test_bad_schema_version(self):
        with pytest.raises(ConfigError) as err:
            validate_scenario(minimal_cfg(schema_version=99))
        assert "$.schema_version" in str(err.value)

    def test_exactly_one_flow_mode(self):
        cfg = minimal_cfg()
        cfg["flow"] = {"w_inf": 1.0, "gamma": 0.0, "kutta_corner": 0}
        with pytest.raises(ConfigError) as err:
            validate_scenario(cfg)
        assert "$.flow" in str(err.value)
        cfg["flow"] = {"w_inf": 1.0}
        with pytest.raises(ConfigError):
            validate_scenario(cfg)

    def test_corner_id_must_exist(self):
        cfg = minimal_cfg(body={"kind": "flat_plate", "chord": 4.0,
                                "alpha_deg": 30.0})
        cfg["flow"] = {"w_inf": 1.0, "kutta_corner": 7}
        with pytest.raises(ConfigError) as err:
            validate_scenario(cfg)
        assert "$.flow.kutta_corner" in str(err.value)

    def test_unknown_analysis(self):
        with pytest.raises(ConfigError) as err:
            validate_scenario(minimal_cfg(analyses=["plot_pretty"]))
        assert "$.analyses[0]" in str(err.value)

    def test_mach_range(self):
        cfg = minimal_cfg(gas={"incompressible": False, "gamma": 1.4,
                               "mach_inf": 1.2})
        with pytest.raises(ConfigError):
            validate_scenario(cfg)

    def test_invalid_polygon_geometry_is_config_error(self):
        bowtie = [[0, 0], [1, 1], [1, 0], [0, 1]]
        cfg = minimal_cfg(body={"kind": "polygon", "vertices": bowtie})
        with pytest.raises(ConfigError) as err:
            validate_scenario(cfg)
        assert "$.body" in str(err.value)

    def test_bundled_scenarios_validate(self):
        for name in ("circle.json", "plate30.json", "triangle_census.json",
                     "plate_horizontal_m03.json"):
            cfg = json.loads(resolve_scenario_path(name).read_text())
            validate_scenario(cfg)


L_SHAPE = {"kind": "polygon",
           "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}
COMPRESSIBLE = ['gas={"incompressible": false, "mach_inf": 0.3}']
# (key, a value it rejects, the body and overrides under which the key
# applies); where a solver bounds a key, the value breaks that bound
KEY_CASES = [
    ("schema_version", True, None, []),
    ("name", "a/b", None, []),
    ("body.kind", "square", None, []),
    ("body.radius", 0.0, None, []),
    ("body.chord", -1.0, PLATE, []),
    ("body.alpha_deg", None, PLATE, []),
    ("body.vertices", [[0, 0], [1, 0]], TRIANGLE, []),
    ("gas.incompressible", "no", None, []),
    ("gas.gamma", 1.0, None, COMPRESSIBLE),
    ("gas.mach_inf", 1.0, None, COMPRESSIBLE),
    ("flow.w_inf", -1.0, None, []),
    ("flow.gamma", None, None, []),
    ("flow.kutta_corner", 1.5, PLATE, ['flow={"w_inf": 1.0, "kutta_corner": 0}']),
    ("analyses", ["plot"], None, []),
    ("solver.n_panels", 23, TRIANGLE, []),
    ("solver.representation", "panels", None, []),
    ("solver.grid.n_r", 15, None, []),
    ("solver.grid.n_theta", 31, None, []),
    ("solver.study.grids", [[64, 128], [16, 30], [15, 32]], None, []),
    ("output.field_resolution", 0, None, []),
    ("output.sign_resolution", 2.5, None, []),
]

# keys the schema no longer has: any value exits 2, named as an unknown key
RETIRED_KEY_CASES = [
    ("body.alpha", "0.5", PLATE, []),
    # a Gamma sweep: the census sweeps its own grid, and its verdict is exact
    ("flow.gamma_sweep", [0.0, 1.0], None, []),
    # an outer radius: every grid's outer ring lies at R_FAR circumradii
    ("solver.grid.r_far", 25.0, None, []),
    # windows: the field export and the sign census map the body's own
    # square, +-3R and +-4R about its centroid
    ("output.field_window", [[-3, 3], [-3, 3]], None, []),
    ("output.sign_window", [[-4, 4], [-4, 4]], None, []),
]


def test_a_polygon_has_no_exact_flow_grid_or_exact_run():
    body = body_from_config(TRIANGLE)
    assert exact_flow(body, FarField(1.0)) is None
    with pytest.raises(UnsupportedBodyError, match=re.escape(
            "a polygon has no closed-form conformal map for the grid; "
            "the incompressible census handles it")):
        build_grid(body, FarField(1.0), 64, 128)
    cfg = minimal_cfg(body=TRIANGLE, solver={"representation": "exact"})
    with pytest.raises(ConfigError, match=re.escape(
            "$.solver.representation: exact representation needs a "
            "closed-form map; a polygon has none")):
        validate_scenario(cfg)
    cfg = minimal_cfg(body=TRIANGLE, gas={"incompressible": False, "mach_inf": 0.3},
                      analyses=["compressible"])
    with pytest.raises(ConfigError, match=re.escape(
            "$.analyses[0]: analysis 'compressible' needs a closed-form map; "
            "a polygon has none")):
        validate_scenario(cfg)


class TestKeys:
    def test_cases_cover_every_key(self):
        assert [case[0] for case in KEY_CASES] == list(cli.KEYS)

    @pytest.mark.parametrize("key, bad, body, overrides",
                             KEY_CASES + RETIRED_KEY_CASES,
                             ids=[case[0] for case in KEY_CASES + RETIRED_KEY_CASES])
    def test_bad_or_missing_value_exits_2_naming_it(self, tmp_path, capsys,
                                                    key, bad, body, overrides):
        cfg = apply_overrides(minimal_cfg(body=body) if body else minimal_cfg(),
                              overrides)
        validate_scenario(cfg)
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out", [f"{key}={json.dumps(bad)}"]) == 2
        err = capsys.readouterr().err
        assert f"config error: $.{key}" in err
        assert (key in cli.KEYS) != (f"unknown key {key.split('.')[-1]!r}" in err)
        assert not (tmp_path / "out").exists()
        if key in cli.KEYS and cli.KEYS[key].default is cli.REQUIRED:
            *parents, name = key.split(".")
            node = cfg
            for parent in parents:
                node = node[parent]
            del node[name]
            with pytest.raises(ConfigError, match=rf"^\$\.{key}: "):
                validate_scenario(cfg)

    def test_readme_table_lists_every_key_rule_and_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Scenario schema")[1].split("\n## ")[0]
        rows = [[cell.strip() for cell in line.strip("|").split(" | ")]
                for line in section.splitlines() if line.startswith("| `")]
        assert [row[0] for row in rows] == [f"`{k}`" for k in cli.KEYS]
        for (_, when, rule, default), key in zip(rows, cli.KEYS.values()):
            assert when == (f"`{key.when[0]}` is `{json.dumps(key.when[1])}`"
                            if key.when else "")
            assert rule == key.rule
            if callable(key.default):
                assert default.startswith("from the body: ")
            elif key.default is cli.REQUIRED:
                assert default == "required"
            elif key.default is None:
                assert default == "—"
            else:
                assert default == f"`{json.dumps(key.default)}`"

    def test_readme_scenario_example_has_only_known_keys(self):
        # the schema's jsonc example, its // comments stripped
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```jsonc\n(.*?)^```", readme, re.M | re.S)
        assert len(blocks) == 1
        example = json.loads(re.sub(r"//.*", "", blocks[0]))
        assert example["schema_version"] == cli.SCHEMA_VERSION
        cli._reject_unknown(example)

    def test_readme_quotes_constants_at_their_values(self):
        # "`NAME` = value" and "`owner.NAME` = value" name a constant of a
        # cornerflow module, or an attribute of a class in one, that holds it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        quotes = re.findall(r"`(?:(\w+)\.)?([A-Z][A-Z0-9_]*)` = "
                            r"(\d+(?:\.\d+)?(?:e[+-]?\d+)?)", readme)
        modules = [importlib.import_module(f"cornerflow.{m.name}")
                   for m in pkgutil.iter_modules(cornerflow.__path__)]
        assert len(quotes) >= 10
        for owner, name, value in quotes:
            if not owner:
                scopes = modules
            elif any(m.__name__ == f"cornerflow.{owner}" for m in modules):
                scopes = [importlib.import_module(f"cornerflow.{owner}")]
            else:
                scopes = [vars(m)[owner] for m in modules
                          if isinstance(vars(m).get(owner), type)]
            found = {getattr(scope, name) for scope in scopes if hasattr(scope, name)}
            want = json.loads(value)
            assert found == {want}, (owner, name, value)
            assert type(found.pop()) is type(want), (owner, name, value)

    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys):
        # a misspelt key must not run at its default without a word; a
        # listed key that does not apply (gas.gamma here) stays allowed
        p = tmp_path / "s.json"
        p.write_text(json.dumps(minimal_cfg()))
        for override, path in [("output.field_resolutoin=5",
                                 "$.output.field_resolutoin"),
                                ("solvr.n_panels=3", "$.solvr"),
                                ("body.alpha=0.5", "$.body.alpha")]:
            assert run(p, tmp_path / "out", [override, "gas.gamma=1.3"]) == 2
            assert f"config error: {path}: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        validate_scenario(apply_overrides(minimal_cfg(), ["gas.gamma=1.3"]))

    @pytest.mark.parametrize("body, overrides, path", [
        # gas.incompressible is a boolean, true unless it says false
        (None, ['gas.incompressible="no"'], "$.gas.incompressible"),
        (None, ['gas={"mach_inf": 0.3}', 'analyses=["compressible"]'],
         "$.analyses[0]"),
        # values the grid builder, the panel solver or kutta_solve reject
        (None, COMPRESSIBLE + ['analyses=["compressible"]',
                               "solver.grid.n_r=15"], "$.solver.grid.n_r"),
        (None, COMPRESSIBLE + ['analyses=["compressible"]',
                               "solver.grid.n_theta=14"], "$.solver.grid.n_theta"),
        (None, COMPRESSIBLE + ['analyses=["compressible"]',
                               "solver.grid.n_theta=65"], "$.solver.grid.n_theta"),
        # the retired outer radius, whatever its value
        (None, COMPRESSIBLE + ['analyses=["compressible"]',
                               "solver.grid.r_far=19.5"], "$.solver.grid.r_far"),
        (None, COMPRESSIBLE + ['analyses=["refinement_study"]',
                               "solver.study.grids=[[16, 32], [32, 63]]"],
         "$.solver.study.grids[1]"),
        (TRIANGLE, ["solver.n_panels=23"], "$.solver.n_panels"),
        # a one-panel circle has no panel length: its field was NaN and
        # the sign census raised IndexError, writing no summary
        (None, ['solver={"representation": "panel", "n_panels": 1}',
                'analyses=["sign_census"]'], "$.solver.n_panels"),
        # vertex 3 of the L is reflex
        (L_SHAPE, ['flow={"w_inf": 1.0, "kutta_corner": 3}'],
         "$.flow.kutta_corner"),
        # analyses the body cannot take: a circle has no protruding
        # corner, a polygon no closed-form map
        (None, ['analyses=["farfield", "census"]'], "$.analyses[1]"),
        (TRIANGLE, COMPRESSIBLE + ['analyses=["compressible"]'], "$.analyses[0]"),
        (TRIANGLE, COMPRESSIBLE + ['analyses=["refinement_study"]'],
         "$.analyses[0]"),
        # a subnormal free stream underflowed the panel flows' far-field
        # tolerances and raised IndexError, writing no summary
        (TRIANGLE, ["flow.w_inf=1e-310"], "$.flow.w_inf"),
        (None, ['solver={"representation": "panel"}', "flow.w_inf=1e-310"],
         "$.flow.w_inf"),
        # gamma (gamma + 1) overflows from gamma ~ 1.34e154, and the sonic
        # bounds read NaN, or 0 at M 0: 1e300 ran 100 CG iterations on NaN
        # and exited 1
        (None, COMPRESSIBLE + ['analyses=["compressible"]', "gas.gamma=1e300"],
         "$.gas.gamma"),
        # from about gamma 1e15 at M 0.3 the sonic bound m* exceeds the free
        # stream's flux by less than LINEAR_TOL relative: a uniform stream
        # exited 1 or 0 as rounding fell
        *((HORIZONTAL_PLATE, COMPRESSIBLE + ['analyses=["compressible"]',
                                             f"gas.gamma={g}"], "$.gas.gamma")
          for g in ("1e15", "1e20")),
    ])
    def test_values_a_solver_rejects_exit_2_before_any_solve(
            self, tmp_path, capsys, body, overrides, path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(minimal_cfg(body=body) if body else minimal_cfg()))
        assert run(p, tmp_path / "out", overrides) == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("gamma", [1.4, 1e3, 1e14])
    def test_gamma_with_a_sonic_margin_above_rounding_is_valid(self, gamma):
        # the bundled uniform stream at M 0.3: m* exceeds the free stream's
        # flux by 1.5e-13 relative at gamma 1e14, above LINEAR_TOL
        cfg = json.loads(resolve_scenario_path("plate_horizontal_m03.json").read_text())
        cfg["gas"]["gamma"] = gamma
        validate_scenario(cfg)

    def test_panel_count_defaults_to_what_the_body_takes(self, tmp_path, capsys):
        # a 40-gon needs 8 panels a side, more than 256: without
        # solver.n_panels it runs at its least count, and 256 exits 2
        th = 2 * np.pi * np.arange(40) / 40
        forty = {"kind": "polygon",
                 "vertices": np.stack([np.cos(th), np.sin(th)], 1).tolist()}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(minimal_cfg(body=forty)))
        assert run(p, tmp_path / "out") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["panel"]["n_nodes"] == 320
        assert run(p, tmp_path / "bad", ["solver.n_panels=256"]) == 2
        assert "config error: $.solver.n_panels: " in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("scenario, overrides, n_nodes, kutta_panels", [
        ("circle.json", [], 256, None), ("plate30.json", [], 513, 512),
        ("triangle_census.json", [], 255, 255),
        # the shape of the corner_census benchmark's warm-up run
        ("plate30.json", ["solver.n_panels=64", 'analyses=["corner_fits"]'], 65, 64),
    ], ids=["circle", "plate30", "triangle_census", "plate30-64-panels"])
    def test_a_run_builds_one_panel_system(self, tmp_path, monkeypatch, scenario,
                                           overrides, n_nodes, kutta_panels):
        # the Kutta root, the census and the flow share the run's system,
        # so the flow is regular at its own Kutta corner (corner 0)
        built, real = [], incompressible._system_rows

        def spy(nodes, closed):
            built.append(len(nodes))
            return real(nodes, closed)

        incompressible._assemble.cache_clear()
        monkeypatch.setattr(incompressible, "_system_rows", spy)
        assert run(scenario, tmp_path / "out", overrides) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert built == [summary["panel"]["n_nodes"]] == [n_nodes]
        assert summary.get("kutta", {}).get("n_panels") == kutta_panels
        assert not any(r["singular"] for r in summary.get("corner_reports", [])
                       if r["corner_id"] == 0)

    @pytest.mark.parametrize("body", [{"kind": "circle", "radius": 1.5}, PLATE],
                             ids=["circle", "plate"])
    def test_grid_limits_are_the_grid_builders(self, tmp_path, capsys, body):
        # KEYS reads build_grid's least values from compressible's
        # constants: the least values build, out to R_FAR circumradii, and
        # a value just below exits 2 and raises in build_grid
        built = body_from_config(body)
        least = {"far": FarField(1.0), "n_r": compressible.MIN_GRID_NODES,
                 "n_theta": compressible.MIN_GRID_NODES}
        grid = build_grid(built, **least)
        assert np.max(np.abs(grid.z[-1] - built.centroid)) == pytest.approx(
            compressible.R_FAR * built.circumradius, rel=1e-14)
        p = tmp_path / "s.json"
        p.write_text(json.dumps(minimal_cfg(body=body)))
        for name, value in [("n_r", least["n_r"] - 1),
                            ("n_theta", least["n_theta"] - 2)]:
            with pytest.raises(InvalidGeometryError):
                build_grid(built, **{**least, name: value})
            assert run(p, tmp_path / "out", COMPRESSIBLE + [
                'analyses=["compressible"]', f"solver.grid.{name}={value!r}"]) == 2
            assert f"config error: $.solver.grid.{name}: " in capsys.readouterr().err

    def test_default_field_window_is_centred_on_the_body(self, tmp_path):
        # R = |(3, 3) - centroid (4, 3.5)|; the map must cover the body
        triangle = {"kind": "polygon", "vertices": [[3, 3], [5, 3], [4, 4.5]]}
        cfg = minimal_cfg(body=triangle, analyses=["field_export"],
                          solver={"n_panels": 96},
                          output={"field_resolution": 40})
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out") == 0
        field = np.loadtxt(tmp_path / "out" / "field.csv", delimiter=",",
                           skiprows=1)
        half = 3.0 * np.hypot(1.0, 0.5)
        assert field[:, 0].min() == pytest.approx(4.0 - half, abs=1e-12)
        assert field[:, 1].max() == pytest.approx(3.5 + half, abs=1e-12)
        cell = (2.0 * half / 39) ** 2
        assert field[:, 4].sum() == pytest.approx(1.5 / cell, rel=0.2)


class TestOverrides:
    def test_nested_override(self):
        cfg = apply_overrides(minimal_cfg(), ["flow.gamma=2.5", "name=\"x\""])
        assert cfg["flow"]["gamma"] == 2.5
        assert cfg["name"] == "x"

    def test_bad_override(self):
        with pytest.raises(ConfigError):
            apply_overrides(minimal_cfg(), ["flow.gamma"])


class TestRun:
    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        assert run("no_such_file.json", tmp_path) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(bad, tmp_path) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_scenario_exits_2(self, tmp_path, capsys, kind):
        scenario = tmp_path / "s.json"
        if kind == "directory":
            scenario.mkdir()
        else:
            scenario.write_bytes(json.dumps(minimal_cfg(name="caf\u00e9"),
                                            ensure_ascii=False).encode(kind))
        assert run(scenario, tmp_path / "out") == 2
        assert "config error: $:" in capsys.readouterr().err

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_cfg(analyses=["nope"])))
        assert run(bad, tmp_path) == 2

    @pytest.mark.parametrize("body, overrides, path", [
        (None, ["flow.w_inf=true"], "$.flow.w_inf"),
        (None, ["body.radius=true"], "$.body.radius"),
        (PLATE, ["body.chord=true"], "$.body.chord"),
        (PLATE, ['body.alpha_deg="abc"'], "$.body.alpha_deg"),
        (PLATE, ['flow={"w_inf": 1.0, "kutta_corner": false}'],
         "$.flow.kutta_corner"),
        (None, ["gas.incompressible=false", "gas.mach_inf=false"],
         "$.gas.mach_inf"),
        (None, ['solver.n_panels="abc"'], "$.solver.n_panels"),
        (None, ["solver.n_panels=12.5"], "$.solver.n_panels"),
        (TRIANGLE, ['body.vertices=[["a", 0], [1, 0], [0, 1]]'],
         "$.body.vertices[0]"),
        (None, ['flow.gamma="abc"'], "$.flow.gamma"),
        (None, ["gas.incompressible=false", "gas.mach_inf=0.3",
                'analyses=["compressible"]', 'solver.grid.n_r="x"'],
         "$.solver.grid.n_r"),
        (None, ['analyses=["field_export"]', 'output.field_resolution="x"'],
         "$.output.field_resolution"),
        # a retired key, whatever its value
        (None, ['flow={"w_inf": 1.0, "gamma": 0.0, "gamma_sweep": [1.0, "a"]}'],
         "$.flow.gamma_sweep"),
        (None, ["solver.grid.r_far=-1.0"], "$.solver.grid.r_far"),
        (None, ["solver.study.grids=[[64]]"], "$.solver.study.grids"),
        (None, ["body.radius=1e400"], "$.body.radius"),
        (None, ["body.radius=1" + "0" * 400], "$.body.radius"),
        (None, ["output.sign_window=[[-4, 4]]"], "$.output.sign_window"),
        # an override path running through a number or a string
        (None, ["flow.w_inf.x=1"], "$.flow.w_inf"),
        (None, ["name.x=1"], "$.name"),
    ])
    def test_non_numeric_value_exits_2_naming_path(self, tmp_path, capsys,
                                                   body, overrides, path):
        cfg = minimal_cfg(body=body) if body else minimal_cfg()
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out", overrides) == 2
        assert path in capsys.readouterr().err

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(minimal_cfg()))
        target = tmp_path / "afile"
        target.write_text("x")
        assert run(p, target) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(target) in err
        assert target.read_text() == "x"

    @pytest.mark.parametrize("name", ["../x/y", "a/b", "a\\b", "a\0b", ".", ".."])
    def test_unsafe_name_exits_2(self, tmp_path, capsys, monkeypatch, name):
        # without --out the runner writes to out_<name> in the working
        # directory; no directory may be created
        p = tmp_path / "s.json"
        p.write_text(json.dumps(minimal_cfg()))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run(p, None, [f"name={json.dumps(name)}"]) == 2
        assert "$.name" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [p, work]
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("body, representation", [
        (TRIANGLE, "exact"),   # no closed form: it would run panels
        (None, "panels"),
    ])
    def test_representation_exits_2(self, tmp_path, capsys, body,
                                    representation):
        cfg = minimal_cfg(body=body) if body else minimal_cfg()
        cfg["solver"] = {"representation": representation, "n_panels": 96}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out") == 2
        assert "$.solver.representation" in capsys.readouterr().err

    @pytest.mark.parametrize("analysis", ["compressible", "refinement_study"])
    def test_compressible_analysis_needs_compressible_gas(self, tmp_path,
                                                          capsys, analysis):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(minimal_cfg(analyses=["circulation", analysis])))
        assert run(p, tmp_path / "out") == 2
        assert "$.analyses[1]" in capsys.readouterr().err

    def test_solver_error_exits_1_with_structured_error(self, tmp_path):
        cfg = minimal_cfg(
            gas={"incompressible": False, "gamma": 1.4, "mach_inf": 0.55},
            analyses=["compressible"],
        )
        cfg["solver"] = {"grid": {"n_r": 32, "n_theta": 64}}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out") == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["errors"][0]["type"] == "SonicExcursionError"
        assert "location" in summary["errors"][0]

    def test_linear_solve_failure_exits_1(self, tmp_path, monkeypatch):
        # with no CG iterations allowed, the first Picard solve (whose h
        # is not constant) misses the tolerance and raises SolverError
        monkeypatch.setattr(compressible, "CG_MAX_ITERS", 0)
        cfg = minimal_cfg(
            gas={"incompressible": False, "gamma": 1.4, "mach_inf": 0.3},
            analyses=["compressible"],
        )
        cfg["solver"] = {"grid": {"n_r": 32, "n_theta": 64}}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out") == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["errors"][0]["type"] == "SolverError"

    def test_picard_stall_exits_1_with_structured_error(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(compressible, "MAX_PICARD_ITERS", 3)
        cfg = minimal_cfg(
            gas={"incompressible": False, "gamma": 1.4, "mach_inf": 0.3},
            analyses=["compressible"],
        )
        cfg["solver"] = {"grid": {"n_r": 32, "n_theta": 64}}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out") == 1

        def refuse(token):
            raise ValueError(f"non-strict JSON constant {token}")

        summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                             parse_constant=refuse)
        (entry,) = summary["errors"]
        assert entry["type"] == "IterationLimitError"
        assert "after 3 iterations" in entry["message"]
        assert "compressible" not in summary

    def test_singular_linear_system_exits_1(self, tmp_path, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        # no cached system may skip the solve
        incompressible._assemble.cache_clear()
        monkeypatch.setattr(np.linalg, "solve", singular)
        p = tmp_path / "s.json"
        p.write_text(json.dumps(minimal_cfg(body=TRIANGLE)))
        assert run(p, tmp_path / "out") == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["errors"] == [{"type": "LinAlgError",
                                      "message": "Singular matrix"}]

    def test_memory_error_exits_1_with_structured_error(self, tmp_path,
                                                        monkeypatch):
        # as numpy's own: a subclass, so the entry must not name its class
        class _ArrayMemoryError(MemoryError):
            pass

        def exhausted(*args):
            raise _ArrayMemoryError("Unable to allocate 14.6 TiB")

        def refuse(token):
            raise ValueError(f"non-strict JSON constant {token}")

        # raised, never requested: a real huge allocation may meet the OOM killer
        monkeypatch.setattr(cli, "export_field", exhausted)
        p = tmp_path / "s.json"
        p.write_text(json.dumps(minimal_cfg(analyses=["field_export"])))
        assert run(p, tmp_path / "out") == 1
        text = (tmp_path / "out" / "summary.json").read_text()
        summary = json.loads(text, parse_constant=refuse)
        assert summary["errors"] == [{"type": "MemoryError",
                                      "message": "Unable to allocate 14.6 TiB"}]

    def test_non_finite_result_is_null_and_exits_1(self, tmp_path):
        out = tmp_path / "out"
        # the drag integral overflows on purpose, and w**2 * dz and its
        # sum then meet inf * 0
        with pytest.warns(RuntimeWarning, match="overflow|invalid value") as seen:
            assert run("circle.json", out, ["flow.w_inf=1e300",
                                            "output.sign_resolution=50"]) == 1
        assert any("overflow" in str(w.message) for w in seen)

        def refuse(token):
            raise ValueError(f"non-strict JSON constant {token}")

        text = (out / "summary.json").read_text()
        summary = json.loads(text, parse_constant=refuse)
        assert summary["forces"]["drag"] is None
        (entry,) = summary["errors"]
        assert entry["type"] == "NonFiniteResult"
        assert "$.forces.drag" in entry["message"]

    def test_non_finite_complex_part_is_null_and_named(self, tmp_path,
                                                      monkeypatch):
        real = analysis.farfield_fit

        def fit(flow):
            f = real(flow)
            return dataclasses.replace(f, c0=complex(f.c0.real, np.nan))

        monkeypatch.setattr(analysis, "farfield_fit", fit)
        out = tmp_path / "out"
        assert run("circle.json", out, ['analyses=["farfield"]']) == 1

        def refuse(token):
            raise ValueError(f"non-strict JSON constant {token}")

        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=refuse)
        re_c0, im_c0 = summary["farfield"]["c0"]
        assert isinstance(re_c0, float) and im_c0 is None
        assert summary["errors"] == [{
            "type": "NonFiniteResult",
            "message": "non-finite numbers written as null at $.farfield.c0[1]"}]

    @pytest.mark.parametrize("w_inf", ["1e-300", "1e-170"])
    def test_census_verdict_at_a_tiny_free_stream(self, tmp_path, w_inf):
        # roots -a1(0) / slope scale with w_inf: three distinct nonzero
        # roots and the verdict at w_inf = 1, not an underflowed coincidence
        assert run("triangle_census.json", tmp_path / "one",
                   ['analyses=["census"]']) == 0
        assert run("triangle_census.json", tmp_path / "tiny",
                   ['analyses=["census"]', f"flow.w_inf={w_inf}"]) == 0
        one, tiny = (json.loads((tmp_path / name / "summary.json").read_text())
                     ["census"] for name in ("one", "tiny"))
        roots = [e["root"] for e in tiny["corners"]]
        assert len(set(roots)) == 3 and 0.0 not in roots
        assert [r / float(w_inf) for r in roots] == pytest.approx(
            [e["root"] for e in one["corners"]], rel=1e-12)
        for key in ("verdict", "sweep_singular_counts", "min_singular_count",
                    "regularizes_all_somewhere"):
            assert tiny[key] == one[key]
        assert tiny["verdict"] == "no circulation regularizes all corners"

    def test_exact_kutta_root_is_its_census_root(self, tmp_path, monkeypatch):
        # one reader for both representations: an exact run reads its Kutta
        # root and its census off the map's unit columns, one float per
        # corner, and writes the panel run's kutta keys but n_panels
        analyses = 'analyses=["census", "corner_fits"]'
        assert run("plate30.json", tmp_path / "panel", [analyses]) == 0
        assembled = []
        monkeypatch.setattr(incompressible, "_assemble",
                            lambda *args: assembled.append(args))
        assert run("plate30.json", tmp_path / "exact",
                   [analyses, "solver.representation=exact"]) == 0
        panel, exact = (json.loads((tmp_path / name / "summary.json").read_text())
                        for name in ("panel", "exact"))
        assert assembled == []
        assert exact["kutta"]["gamma_star"] == exact["census"]["corners"][0]["root"]
        assert abs(exact["kutta"]["gamma_star"] + 2 * np.pi) <= 1e-14 * 2.0
        assert exact["kutta"]["method"] == "conformal_map"
        assert panel["kutta"]["method"] == "panel_affine_root"
        assert exact["kutta"].keys() == panel["kutta"].keys() - {"n_panels"}

    @pytest.mark.parametrize("name, extra", [
        ("plate30", []), ("plate30", ["solver.representation=exact"]),
        ("triangle_census", [])], ids=["plate30", "plate30-exact", "triangle_census"])
    def test_bundled_run_scales_with_the_body_to_the_bit(self, tmp_path, name, extra):
        # one length scale R in every layer: the body times 2**+-600 exits 0
        # and writes the unit summary scaled by its powers of two.  The
        # plate exited 1 at 2**600 (LinAlgError in the exponent fit, then an
        # OverflowError of a squared edge length), and the triangle counted
        # a bounded negative sign component
        cfg = json.loads(resolve_scenario_path(f"{name}.json").read_text())
        betas = {c.corner_id: c.exterior_angle_beta
                 for c in body_from_config(cfg["body"]).corners}
        overrides = ["output.sign_resolution=100", *extra]
        assert run(f"{name}.json", tmp_path / "unit", overrides) == 0
        unit = json.loads((tmp_path / "unit" / "summary.json").read_text())
        for k in (600, -600):
            s = 2.0**k
            body = ([f"body.chord={s * cfg['body']['chord']!r}"] if name == "plate30"
                    else ["body.vertices="
                          + json.dumps([[s * x, s * y] for x, y in cfg["body"]["vertices"]])])
            assert run(f"{name}.json", tmp_path / str(k), overrides + body) == 0
            got = json.loads((tmp_path / str(k) / "summary.json").read_text())
            assert_scaled(got, unit, k, betas)

    def test_census_verdict_reads_the_least_singular_count(self, tmp_path):
        # the square's corners 0 and 2 share a root, 1 and 3 do not: two
        # corners stay singular at every Gamma, whatever the coincidence
        assert run("triangle_census.json", tmp_path, [
            "body.vertices=[[1, 0], [0, 1], [-1, 0], [0, -1]]"]) == 0
        census = json.loads((tmp_path / "summary.json").read_text())["census"]
        assert census["coincident_pairs"] == [[0, 2]]
        assert census["min_singular_count"] == 2
        assert not census["regularizes_all_somewhere"]
        assert census["verdict"] == "no circulation regularizes all corners"

    def test_exact_regression_at_a_tiny_free_stream(self, tmp_path):
        # circle.json's Gamma = 2 pi dominates w_inf = 1e-300: the deviation
        # is relative to the speed scale V = max(|w_inf|, |Gamma| / 2 pi R),
        # not to |w_inf| (4.45e284 for an absolute deviation of 4.5e-16)
        assert run("circle.json", tmp_path, ["analyses=[]", "flow.w_inf=1e-300"]) == 0
        s = json.loads((tmp_path / "summary.json").read_text())
        assert s["exact_regression_max_rel_dev"] <= 1e-10

    @pytest.mark.parametrize("body", [Circle(1.0), FlatPlate(4.0, np.pi / 6)],
                             ids=["circle", "plate30"])
    def test_exact_regression_asks_each_flow_once(self, body, monkeypatch):
        far = FarField(1.0, -2.0)
        flow, exact = panel_solve(body, far, 256).flow, exact_flow(body, far)
        R = body.circumradius
        th = 2 * np.pi * (np.arange(100) + 0.31) / 100
        rings = [float(np.max(np.abs(flow.velocity(z) - exact.velocity(z)))
                       / far.speed_scale(R))
                 for z in (mult * R * np.exp(1j * th) for mult in (1.5, 3.0, 10.0))]
        calls = []
        for cls in (type(flow), type(exact)):
            def spy(self, z, velocity=cls.velocity):
                calls.append((type(self).__name__, np.size(z)))
                return velocity(self, z)
            monkeypatch.setattr(cls, "velocity", spy)
        assert analysis.exact_regression(flow, exact).hex() == max(rings).hex()
        assert sorted(calls) == [("MappedFlow", 300), ("PanelFlow", 300)]

    def test_sections_are_their_result_types_fields(self, tmp_path):
        # one name per output: a section that a result type holds whole
        # has the type's fields as its keys, plus only what no result holds
        def keys(cls, *extra):
            return {f.name for f in dataclasses.fields(cls)} | set(extra)

        assert run("triangle_census.json", tmp_path / "tri", [
            'analyses=["corner_fits", "census", "farfield", "forces"]']) == 0
        assert run("plate_horizontal_m03.json", tmp_path / "plate", [
            'analyses=["refinement_study"]',
            "solver.study.grids=[[16, 32], [32, 64]]"]) == 0
        tri, plate = (json.loads((tmp_path / name / "summary.json").read_text())
                      for name in ("tri", "plate"))
        assert tri["farfield"].keys() == keys(analysis.LaurentFit)
        assert tri["forces"].keys() == keys(
            forces.ForceResult, "kutta_joukowsky_lift", "sign_convention")
        assert [r.keys() for r in tri["corner_reports"]] == [
            keys(analysis.CornerReport)] * 3
        assert tri["census"].keys() == keys(incompressible.CensusResult,
                                            "verdict", "note")
        assert [e.keys() for e in tri["census"]["corners"]] == [
            keys(incompressible.CornerCensusEntry)] * 3
        study = plate["refinement_study"]
        assert study.keys() == keys(compressible.RefinementStudy, "note")
        assert [lv.keys() for lv in study["levels"]] == [
            keys(compressible.RefinementLevel)] * 2

    def test_refinement_study_uses_resolved_gamma(self, tmp_path,
                                                  monkeypatch):
        # a Kutta plate: the study must see Gamma*, not a missing flow.gamma
        seen = []
        real = compressible.refinement_study

        def spy(body, gas, mach_inf, gamma, grids):
            seen.append(gamma)
            return real(body, gas, mach_inf, gamma, grids)

        monkeypatch.setattr(compressible, "refinement_study", spy)
        cfg = minimal_cfg(
            body={"kind": "flat_plate", "chord": 4.0, "alpha_deg": 10.0},
            gas={"incompressible": False, "gamma": 1.4, "mach_inf": 0.3},
            analyses=["refinement_study"])
        cfg["flow"] = {"w_inf": 1.0, "kutta_corner": 0}
        cfg["solver"] = {"study": {"grids": [[32, 64]]}}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        gamma_star = summary["flow"]["gamma"]
        assert gamma_star == pytest.approx(-np.pi * 4.0 * np.sin(np.deg2rad(10.0)))
        assert seen == [gamma_star]

    def test_deterministic_summary(self, tmp_path):
        cfg = minimal_cfg(analyses=["circulation", "farfield", "forces"])
        cfg["flow"] = {"w_inf": 1.0, "gamma": 2.0}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "a") == 0
        assert run(p, tmp_path / "b") == 0
        a = (tmp_path / "a" / "summary.json").read_bytes()
        b = (tmp_path / "b" / "summary.json").read_bytes()
        assert a == b

    def test_circle_summary_content(self, tmp_path):
        cfg = minimal_cfg(analyses=["circulation", "farfield", "forces"])
        cfg["flow"] = {"w_inf": 1.0, "gamma": float(2 * np.pi)}
        cfg["solver"] = {"representation": "panel", "n_panels": 128}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out") == 0
        s = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert s["farfield"]["gamma_estimate"] == pytest.approx(2 * np.pi,
                                                                rel=1e-6)
        assert abs(s["forces"]["lift"]) == pytest.approx(2 * np.pi, rel=1e-6)
        assert s["exact_regression_max_rel_dev"] < 5e-3
        gammas = [e["circulation"] for e in s["circulation"]]
        assert max(gammas) - min(gammas) < 1e-6

    def test_main_entry(self, tmp_path):
        cfg = minimal_cfg()
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["run", "circle.json", "--verbosity", "1"],
         "unrecognized arguments: --verbosity 1"),
        ([], "the following arguments are required: command"),
    ], ids=["verbosity", "no-command"])
    def test_main_refuses_other_arguments(self, tmp_path, capsys, monkeypatch,
                                          argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def field_csv(flow, resolution, out):
    """The field.csv that the field_export analysis writes into ``out``."""
    cli._run_field_export({"output": {"field_resolution": resolution}}, flow, {}, out)
    return out / "field.csv"


class TestExportField:
    def test_circle_mask(self, tmp_path):
        flow = exact_flow(Circle(1.0), FarField(1.0, 0.0))
        path = field_csv(flow, 200, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,psi,speed,mask"
        assert len(lines) == 1 + 200 * 200
        rows = [ln.split(",") for ln in lines[1:]]
        masked = sum(r[4] == "1" for r in rows)
        # masked cell count ~ area ratio pi/36 of the window
        assert 0.8 * np.pi / 36 < masked / 40000 < 1.2 * np.pi / 36
        for r in rows:
            if r[4] == "1":
                assert float(r[0]) ** 2 + float(r[1]) ** 2 < 1.1

    def test_uniform_flow_psi_column(self, tmp_path):
        flow = exact_flow(FlatPlate(4.0, 0.0), FarField(1.0, 0.0))
        path = field_csv(flow, 50, tmp_path)
        for ln in path.read_text().splitlines()[1:]:
            x, y, psi, speed, mask = ln.split(",")
            if mask == "0":
                assert abs(float(psi) - float(y)) < 1e-12

    def test_compressible_export_matches_summary(self, tmp_path):
        assert run("plate_horizontal_m03.json", tmp_path, [
            "gas.mach_inf=0.2", "solver.grid.n_r=32", "solver.grid.n_theta=64"]) == 0
        max_mach = json.loads((tmp_path / "summary.json").read_text())[
            "compressible"]["max_mach"]
        lines = (tmp_path / "compressible_field.csv").read_text().splitlines()
        assert lines[0] == "r,theta,x,y,psi,rho,mach"
        machs = [float(ln.split(",")[6]) for ln in lines[1:]
                 if ln.split(",")[6] != "nan"]
        assert max(machs) == pytest.approx(max_mach, rel=1e-12)


def reference_export_field(flow_or_solution, window, resolution, path):
    """The row-by-row writer that export_field replaced, kept as the
    byte-for-byte reference of its output."""
    path = Path(path)
    if isinstance(flow_or_solution, compressible.CompressibleSolution):
        sol = flow_or_solution
        g = sol.grid
        r = np.exp(g.xi)
        with path.open("w") as fh:
            fh.write("r,theta,x,y,psi,rho,mach\n")
            for i in range(g.n_r):
                for j in range(g.n_theta):
                    fh.write(f"{r[i]:.17g},{g.theta[j]:.17g},"
                             f"{g.z[i, j].real:.17g},{g.z[i, j].imag:.17g},"
                             f"{sol.psi[i, j]:.17g},{sol.rho[i, j]:.17g},"
                             f"{sol.mach[i, j]:.17g}\n")
        return

    flow = flow_or_solution
    (x0, x1), (y0, y1) = window
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    Z = xs[None, :] + 1j * ys[:, None]
    body = flow.body
    if isinstance(body, FlatPlate):
        masked = body.on_slit(Z, tol=2.0 * (x1 - x0) / resolution / body.chord)
    else:
        masked = body.contains(Z)
    psi = np.full(Z.shape, np.nan)
    speed = np.full(Z.shape, np.nan)
    free = ~masked
    psi[free] = flow.stream(Z[free])
    speed[free] = np.abs(np.asarray(flow.velocity(Z[free])))
    with path.open("w") as fh:
        fh.write("x,y,psi,speed,mask\n")
        for iy in range(resolution):
            for ix in range(resolution):
                fh.write(f"{xs[ix]:.17g},{ys[iy]:.17g},{psi[iy, ix]:.17g},"
                         f"{speed[iy, ix]:.17g},{int(masked[iy, ix])}\n")


def _plate_solution():
    gas = GasModel(1.4)
    state = BernoulliState.from_free_stream(gas, 0.3)
    far = FarField(state.free_stream_speed(0.3), 0.0)
    return solve_subsonic(build_grid(FlatPlate(4.0, 0.0), far, 64, 128),
                          state)


def _triangle_panel_flow():
    body = Polygon([(1.0, 0.0), (-0.5, np.sqrt(3) / 2), (-0.5, -np.sqrt(3) / 2)])
    return panel_solve(body, FarField(1.0, 0.5), n_panels=256).flow


# the window is the body's, +-3R about its centroid, which the reference
# writer takes as given: circle R = 1, plate R = 2, triangle R = 1
@pytest.mark.parametrize("make, window, resolution", [
    (lambda: exact_flow(Circle(1.0), FarField(1.0, 2.0)), ((-3, 3), (-3, 3)), 200),
    # the tilted slit masks whole runs of cells: NaN psi and speed
    (lambda: exact_flow(FlatPlate(4.0, np.deg2rad(20.0)), FarField(1.0, -1.5)),
     ((-6, 6), (-6, 6)), 200),
    (_plate_solution, None, None),
    (_triangle_panel_flow, ((-3, 3), (-3, 3)), 120),
])
def test_export_field_matches_row_writer_bytes(tmp_path, make, window,
                                               resolution):
    field = make()
    if window is None:  # the CLI's node table of the same solution
        assert run("plate_horizontal_m03.json", tmp_path, [
            "solver.grid.n_r=64", "solver.grid.n_theta=128"]) == 0
        new = (tmp_path / "compressible_field.csv").read_bytes()
    else:
        new = field_csv(field, resolution, tmp_path).read_bytes()
    reference_export_field(field, window, resolution, tmp_path / "old.csv")
    assert b"nan" in new
    assert new == (tmp_path / "old.csv").read_bytes()


SPECIALS = [np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324]


def grid_columns(ny=23, nx=11):
    """An (x, y, f, g, mask) grid as the field export passes it: the axes
    as a row and a column of the grid, each holding every special value,
    then two fields and a mask of the full grid shape."""
    rng = np.random.default_rng(5)
    x = np.concatenate([SPECIALS, np.linspace(-3.0, 3.0, nx - 7)])[None, :]
    y = np.concatenate([np.linspace(-2.0, 2.0, ny - 7), SPECIALS])[:, None]
    f = np.where(rng.random((ny, nx)) < 0.3,
                 np.array(SPECIALS)[rng.integers(0, 7, (ny, nx))],
                 rng.standard_normal((ny, nx)))
    g = np.tile(SPECIALS, ny * nx)[:ny * nx].reshape(ny, nx)
    return [x, y, f, g, rng.random((ny, nx)) < 0.5]


def plain_csv(header, columns):
    """The CSV text of the grid the columns broadcast to, one %.17g value
    at a time."""
    cells = [c.ravel() for c in np.broadcast_arrays(*columns)]
    return header + "\n" + "".join(",".join(f"{float(v):.17g}" for v in row)
                                   + "\n" for row in zip(*cells))


def test_write_csv_matches_plain_writer(tmp_path):
    # the whole grid is one block
    columns = grid_columns()
    export_field(tmp_path / "new.csv", "x,y,f,g,mask", *columns)
    plain = plain_csv("x,y,f,g,mask", columns)
    assert (tmp_path / "new.csv").read_text() == plain
    for text in ("-0,", ",0,", "nan", "-inf", "4.9406564584124654e-324"):
        assert text in plain


@pytest.mark.parametrize("rows", [1, 7, 23])
def test_write_csv_blocks_match_plain_writer(tmp_path, monkeypatch, rows):
    # blocks of one row, of seven rows (the last of the 23 two rows
    # short) and of the whole grid
    monkeypatch.setattr(analysis, "GRID_BLOCK", rows * 11)
    columns = grid_columns()
    export_field(tmp_path / "new.csv", "x,y,f,g,mask", *columns)
    plain = plain_csv("x,y,f,g,mask", columns)
    assert (tmp_path / "new.csv").read_text() == plain
    assert plain.count("\n") == 23 * 11 + 1


def test_write_csv_memory_is_one_block_of_rows(tmp_path):
    # an exact circle's field map at 300**2: the writer holds its axes'
    # strings and one block of formatted rows, within 6 MB of its entry
    # (4.3 MB measured; 23.4 MB with the whole grid as one block)
    columns = analysis.field_map(exact_flow(Circle(1.0), FarField(1.0, 2.0)), 300)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        export_field(tmp_path / "f.csv", "x,y,psi,speed,mask", *columns)
        within = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert within - entry <= 6e6


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only.  Importing even ``scipy.fft`` on top
    of numpy costs every run 0.24–0.27 s and about 27 MB of resident memory
    (2-core Xeon, Python 3.11, scipy 1.17), so the CLI must load no
    ``scipy`` module at all."""
    src = str(Path(compressible.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, cornerflow.cli; "
            "sys.exit(any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0


def test_package_import_graph_is_acyclic():
    """The relative imports of every module of the package, at any depth
    (inside functions too), form no cycle, and ``analysis`` reads flows
    through their methods: it imports ``errors`` and ``geometry`` only."""
    package = Path(cornerflow.__file__).parent
    modules = {path.stem: ast.parse(path.read_text())
               for path in package.glob("*.py")}
    graph = {name: {target for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for target in ([node.module.split(".")[0]] if node.module
                                   else [alias.name for alias in node.names])
                    if target in modules}
             for name, tree in modules.items()}
    assert graph["analysis"] == {"errors", "geometry"}
    # peel off the modules whose imports are all peeled: a cycle stays
    left = dict(graph)
    while left:
        peeled = {name for name, targets in left.items() if not targets & left.keys()}
        assert peeled, f"import cycle among {sorted(left)}"
        for name in peeled:
            del left[name]
