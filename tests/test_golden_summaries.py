"""Bundled scenarios against their committed summary.json files.

The files in tests/data were written by ``cornerflow run <name>
--override output.sign_resolution=100``.  Strings, integers, booleans and
the structure must match exactly; floats may move by 1e-9 relative or
1e-9 * |w_inf| * R absolute, since BLAS kernels differ between CPUs.
"""

import json
from pathlib import Path

import pytest

from cornerflow.cli import resolve_scenario_path, run
from cornerflow.geometry import body_from_config
from oracles import assert_matches, load_strict

DATA = Path(__file__).parent / "data"
SCENARIOS = ("circle", "plate30", "triangle_census", "plate_horizontal_m03")


@pytest.mark.parametrize("name", SCENARIOS)
def test_bundled_summary_matches_golden(tmp_path, name):
    want = load_strict(DATA / f"{name}_summary.json")
    assert run(f"{name}.json", tmp_path, ["output.sign_resolution=100"]) == 0
    got = load_strict(tmp_path / "summary.json")
    cfg = json.loads(resolve_scenario_path(f"{name}.json").read_text())
    scale = abs(cfg["flow"]["w_inf"]) * body_from_config(cfg["body"]).circumradius
    assert_matches(got, want, 1e-9 * scale)
