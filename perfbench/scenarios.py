"""Seeded scenario generator for the three benchmark workloads.

Every scenario is a plain schema-1 config dict; the benchmark writes it to
a JSON file and hands only that file to ``cornerflow.cli.run``.  A workload
is an endless sequence of *passes*; pass ``k`` is a fixed list of
scenarios whose parameters come from the seed.

Discrete parameters that change the amount of work (vertex count, panel
count) follow a fixed schedule.  Continuous parameters that change the
work or the outcome (plate incidence, Mach number) walk a seeded
golden-ratio sequence ``frac(u + k * PHI)`` instead of independent draws,
so a run of a few passes covers their range evenly whatever the seed, and
runs with different seeds cost about the same.  The other parameters
(chord, rotation, scale, translation, circulation) are independent
uniform draws.

This module does not import cornerflow: it must run in the set-up probe
before the package is imported and in a checkout without the package.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("corner_census", "field_maps", "compressible_refinement")
PHI = (math.sqrt(5.0) - 1.0) / 2.0
INCOMPRESSIBLE = {"incompressible": True}


def _frac(x: float) -> float:
    return x - math.floor(x)


def _base(name: str, body: dict, flow: dict, analyses: list, **extra) -> dict:
    cfg = {"schema_version": 1, "name": name, "body": body, "flow": flow,
           "analyses": analyses}
    cfg.update(extra)
    return cfg


def regular_polygon(n_vertices: int, scale: float, rotation: float,
                    center: tuple) -> list:
    """Counterclockwise regular n-gon with circumradius ``scale``."""
    th = rotation + 2.0 * np.pi * np.arange(n_vertices) / n_vertices
    return [[float(center[0] + scale * np.cos(t)),
             float(center[1] + scale * np.sin(t))] for t in th]


def star_polygon(rng, n_vertices: int, scale: float, rotation: float,
                 center: tuple) -> list:
    """Irregular polygon, star-shaped about ``center``.

    Vertex j sits at angle rotation + 2 pi (j + d_j) / n with d_j in
    [-0.2, 0.2] and at radius scale * r_j with r_j in [0.7, 1.3].  Angles
    stay increasing and every angular gap stays below pi, so the polygon
    is simple and counterclockwise.
    """
    d = rng.uniform(-0.2, 0.2, n_vertices)
    r = scale * rng.uniform(0.7, 1.3, n_vertices)
    th = rotation + 2.0 * np.pi * (np.arange(n_vertices) + d) / n_vertices
    return [[float(center[0] + a * np.cos(t)),
             float(center[1] + a * np.sin(t))] for a, t in zip(r, th)]


def convex_vertices(vertices: list) -> list:
    """Indices of the convex (protruding) vertices of a CCW polygon."""
    v = np.array([complex(x, y) for x, y in vertices])
    d_in = v - np.roll(v, 1)
    d_out = np.roll(v, -1) - v
    cross = d_in.real * d_out.imag - d_in.imag * d_out.real
    return [int(i) for i in np.flatnonzero(cross > 0)]


class Generator:
    """Scenario passes of one workload, determined by (workload, seed)."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = int(seed)
        stream = np.random.default_rng([self.seed, WORKLOADS.index(workload)])
        # offsets of the golden-ratio sequences and the panel-count phase
        self._u = stream.uniform(0.0, 1.0, 4)
        self._phase = int(stream.integers(0, 2))

    def _rng(self, k: int):
        return np.random.default_rng(
            [self.seed, WORKLOADS.index(self.workload), 1 + k])

    def _walk(self, i: int, k: int) -> float:
        return _frac(self._u[i] + k * PHI)

    def pass_(self, k: int) -> list:
        """Scenario configs of pass ``k`` (0-based), in run order."""
        return getattr(self, "_" + self.workload)(k, self._rng(k))

    # -- corner_census: Kutta roots and affine corner censuses ------------

    def _plate_kutta(self, name, rng, corner, alpha_deg):
        return _base(
            name,
            {"kind": "flat_plate", "chord": float(rng.uniform(1.0, 5.0)),
             "alpha_deg": alpha_deg},
            {"w_inf": 1.0, "kutta_corner": corner},
            ["corner_fits"],
            gas=INCOMPRESSIBLE,
            solver={"representation": "panel", "n_panels": 512})

    def _polygon_census(self, name, rng, vertices, n_panels):
        corner = int(rng.choice(convex_vertices(vertices)))
        return _base(
            name, {"kind": "polygon", "vertices": vertices},
            {"w_inf": 1.0, "kutta_corner": corner}, ["census"],
            gas=INCOMPRESSIBLE, solver={"n_panels": n_panels})

    def _corner_census(self, k, rng):
        # Every pass holds a regular and an irregular polygon of each vertex
        # count 3-6.  The 3- and 6-gons take one panel count and the 4- and
        # 5-gons the other, swapped each pass, so two passes cost the same.
        swap = (k + self._phase) % 2
        out = [self._plate_kutta(f"p{k}_plate_te", rng, 0,
                                 5.0 + 30.0 * self._walk(0, k))]
        for kind in ("regular", "irregular"):
            for n_vertices in (3, 4, 5, 6):
                n_panels = 512 if (n_vertices in (3, 6)) == swap else 256
                shape = (n_vertices, float(rng.uniform(0.5, 3.0)),
                         float(rng.uniform(0.0, 2 * np.pi)),
                         tuple(rng.uniform(-2.0, 2.0, 2)))
                verts = (regular_polygon(*shape) if kind == "regular"
                         else star_polygon(rng, *shape))
                out.append(self._polygon_census(
                    f"p{k}_{kind}{n_vertices}_{n_panels}", rng, verts, n_panels))
            if kind == "regular":
                out.append(self._plate_kutta(f"p{k}_plate_le", rng, 1,
                                             5.0 + 30.0 * self._walk(1, k)))
        return out

    # -- field_maps: bulk field evaluation, sign census, CSV export ---------

    def _field_maps(self, k, rng):
        maps = ["circulation", "farfield", "forces", "sign_census"]
        output = {"sign_resolution": 400, "field_resolution": 200}
        radius = float(rng.uniform(0.5, 2.0))
        sign = float(rng.choice([-1.0, 1.0]))
        circle = _base(
            f"p{k}_circle", {"kind": "circle", "radius": radius},
            {"w_inf": 1.0,
             "gamma": sign * float(rng.uniform(0.5, 1.5)) * 2 * np.pi * radius},
            maps + ["field_export"], gas=INCOMPRESSIBLE,
            solver={"representation": "panel", "n_panels": 256}, output=output)
        chord = float(rng.uniform(1.0, 5.0))
        alpha_deg = float(rng.uniform(5.0, 35.0))
        plate = _base(
            f"p{k}_plate", {"kind": "flat_plate", "chord": chord,
                            "alpha_deg": alpha_deg},
            # the exact trailing-edge Kutta circulation, -pi c |w| sin(alpha)
            {"w_inf": 1.0,
             "gamma": -np.pi * chord * math.sin(math.radians(alpha_deg))},
            maps, gas=INCOMPRESSIBLE,
            solver={"representation": "panel", "n_panels": 512}, output=output)
        # a triangle about the origin, like the bundled census file: the
        # near-body mask of the sign census grows with the vertex count, and
        # so does peak memory; a translated body fails the far-field fit
        # (see NOTES.md), which would skip its sign census on some seeds
        scale = float(rng.uniform(0.5, 2.0))
        verts = regular_polygon(3, scale, float(rng.uniform(0.0, 2 * np.pi)),
                                (0.0, 0.0))
        sign = float(rng.choice([-1.0, 1.0]))
        polygon = _base(
            f"p{k}_triangle", {"kind": "polygon", "vertices": verts},
            {"w_inf": 1.0,
             "gamma": sign * float(rng.uniform(0.5, 1.5)) * np.pi * scale},
            maps, gas=INCOMPRESSIBLE, solver={"n_panels": 256}, output=output)
        return [circle, plate, polygon]

    # -- compressible_refinement: Picard loops and frozen solves ----------

    def _compressible_refinement(self, k, rng):
        def gas(mach):
            return {"incompressible": False, "gamma": 1.4, "mach_inf": mach}

        circle_study = _base(
            f"p{k}_circle_study",
            {"kind": "circle", "radius": float(rng.uniform(0.5, 2.0))},
            {"w_inf": 1.0, "gamma": 0.0}, ["refinement_study"],
            gas=gas(0.2 + 0.1 * self._walk(0, k)),
            solver={"study": {"grids": [[64, 128], [128, 256]]}})
        plate_study = _base(
            f"p{k}_plate_study",
            {"kind": "flat_plate", "chord": float(rng.uniform(1.0, 5.0)),
             "alpha_deg": 10.0 + 25.0 * self._walk(1, k)},
            {"w_inf": 1.0, "gamma": 0.0}, ["refinement_study"],
            gas=gas(0.4 + 0.2 * self._walk(2, k)),
            solver={"study": {"grids": [[64, 128], [128, 256], [256, 512]]}})
        circle_solve = _base(
            f"p{k}_circle_solve",
            {"kind": "circle", "radius": float(rng.uniform(0.5, 2.0))},
            {"w_inf": 1.0, "gamma": 0.0}, ["compressible"],
            gas=gas(0.30 + 0.04 * self._walk(3, k)),
            solver={"grid": {"n_r": 64, "n_theta": 128}})
        return [circle_study, plate_study, circle_solve]


def warmup(workload: str) -> dict:
    """One small scenario on the workload's code path, run during set-up."""
    if workload == "corner_census":
        return _base("warmup", {"kind": "flat_plate", "chord": 2.0,
                                "alpha_deg": 15.0},
                     {"w_inf": 1.0, "kutta_corner": 0}, ["corner_fits"],
                     gas=INCOMPRESSIBLE,
                     solver={"representation": "panel", "n_panels": 64})
    if workload == "field_maps":
        return _base("warmup", {"kind": "circle", "radius": 1.0},
                     {"w_inf": 1.0, "gamma": 1.0},
                     ["circulation", "farfield", "forces", "sign_census",
                      "field_export"],
                     gas=INCOMPRESSIBLE,
                     solver={"representation": "panel", "n_panels": 64},
                     output={"sign_resolution": 40, "field_resolution": 20})
    if workload == "compressible_refinement":
        return _base("warmup", {"kind": "circle", "radius": 1.0},
                     {"w_inf": 1.0, "gamma": 0.0},
                     ["compressible", "refinement_study"],
                     gas={"incompressible": False, "gamma": 1.4,
                          "mach_inf": 0.2},
                     solver={"grid": {"n_r": 16, "n_theta": 32},
                             "study": {"grids": [[16, 32], [32, 64]]}})
    raise ValueError(f"unknown workload {workload!r}")
