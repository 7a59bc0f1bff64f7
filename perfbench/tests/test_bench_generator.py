import json

import pytest

import oracle
import scenarios
from cornerflow.cli import validate_scenario
from cornerflow.geometry import Polygon


def passes(workload, seed, n=3):
    gen = scenarios.Generator(workload, seed)
    return json.dumps([gen.pass_(k) for k in range(n)], sort_keys=True)


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert passes(workload, 11) == passes(workload, 11)


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_different_seeds_different_inputs(workload):
    assert passes(workload, 11) != passes(workload, 12)
    assert passes(workload, 11, 1) != passes(workload, 12, 1)


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_every_scenario_is_a_valid_config(workload):
    for seed in range(3):
        gen = scenarios.Generator(workload, seed)
        for k in range(4):
            for cfg in gen.pass_(k):
                validate_scenario(json.loads(json.dumps(cfg)))
    validate_scenario(scenarios.warmup(workload))


def test_corner_census_passes():
    gen = scenarios.Generator("corner_census", 5)
    alphas, costs = [], set()
    for k in range(8):
        cfgs = gen.pass_(k)
        plates = [c for c in cfgs if c["body"]["kind"] == "flat_plate"]
        assert [p["flow"]["kutta_corner"] for p in plates] == [0, 1]
        alphas += [p["body"]["alpha_deg"] for p in plates]
        polygons = [c for c in cfgs if c["body"]["kind"] == "polygon"]
        for regular in (True, False):
            shapes = sorted((len(c["body"]["vertices"]), c["solver"]["n_panels"])
                            for c in polygons
                            if oracle.is_regular(c["body"]["vertices"]) is regular)
            assert [n for n, _ in shapes] == [3, 4, 5, 6]
            costs.add(tuple(shapes))
        for cfg in polygons:
            verts = cfg["body"]["vertices"]
            corners = Polygon([complex(x, y) for x, y in verts]).corners
            assert corners[cfg["flow"]["kutta_corner"]].protruding
    # two panel layouts, alternating between passes
    assert costs == {((3, 256), (4, 512), (5, 512), (6, 256)),
                     ((3, 512), (4, 256), (5, 256), (6, 512))}
    assert 5.0 <= min(alphas) and max(alphas) <= 35.0


def test_field_maps_plate_gamma_is_exact_kutta_value():
    _, plate, _ = scenarios.Generator("field_maps", 3).pass_(0)
    body = plate["body"]
    assert plate["flow"]["gamma"] == pytest.approx(oracle.exact_kutta_root(
        body["chord"], body["alpha_deg"], 1.0, 0), rel=1e-15)


@pytest.mark.xfail(strict=True, reason="farfield_fit expands about the origin, "
                   "not the body centroid: a translated polygon with "
                   "circulation fails its far-field fit (NOTES.md)")
def test_translated_polygon_far_field_fit():
    from cornerflow.analysis import farfield_fit
    from cornerflow.incompressible import FarField, panel_solve

    verts = scenarios.regular_polygon(3, 1.3, 2.0, (-1.0, 0.94))
    body = Polygon([complex(x, y) for x, y in verts])
    farfield_fit(panel_solve(body, FarField(1.0, -2.98), 256).flow)
