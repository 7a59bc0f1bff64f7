import pytest

import tracer
from cornerflow import cli, incompressible
from cornerflow.geometry import Circle
from cornerflow.incompressible import FarField


def test_self_times_on_a_synthetic_span_tree():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 3.0, 0),
             ("b", 2.5, 4.0, 0),      # overlaps a: the union counts once
             ("c", 5.0, 6.0, 0),
             ("c.leaf", 5.2, 5.5, 3),
             ("late", 9.5, 11.0, 0),  # runs past its parent: clipped
             ("other_root", 20.0, 21.0, -1)]
    got = tracer.self_times(spans)
    want = [10.0 - 3.0 - 1.0 - 0.5, 2.0, 1.5, 0.7, 0.3, 1.5, 1.0]
    assert got == pytest.approx(want, abs=1e-12)


def test_install_wraps_every_binding_site_and_uninstall_restores():
    originals = incompressible.panel_solve, incompressible.kutta_solve
    tr = tracer.Tracer()
    with tr:
        assert cli.panel_solve is incompressible.panel_solve is not originals[0]
        assert cli.kutta_solve is incompressible.kutta_solve is not originals[1]
        sol = incompressible.panel_solve(Circle(1.0), FarField(1.0, 0.5), 64)
        sol.flow.stream([1.5 + 0j, 0.0 + 5j])  # one point beyond 2 radii
    assert (cli.panel_solve, cli.kutta_solve) == originals
    assert (incompressible.panel_solve, incompressible.kutta_solve) == originals
    m = tr.layer_metrics()
    assert m["incompressible.panel_solve.calls"] == 1
    assert m["incompressible.assembly_useful_ratio"] == 1.0
    assert m["incompressible.stream.pairs"] == 2 * 64
    assert m["incompressible.far_pair_share"] == pytest.approx(0.5)
    self_s = m["incompressible.panel_solve.self_s"]
    assert 0.0 < self_s <= tr.totals()["incompressible.panel_solve"]["s"]


def test_plate30_self_check(tmp_path):
    ok, detail = tracer.plate30_self_check(cli.run, tmp_path)
    assert ok, detail
