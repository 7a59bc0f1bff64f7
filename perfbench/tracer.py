"""Outside-in tracer: wraps cornerflow's public functions from the outside.

``Tracer.install()`` replaces every public function of the layer modules
at *every* binding site in the package (``cli`` imports ``panel_solve``
and ``kutta_solve`` by name, so patching only their home module would
miss the CLI's calls), plus the methods ``PanelFlow.stream``,
``PanelFlow.velocity`` and ``BernoulliState.density_from_flux``.  Each
call records a span (name, start, end, parent) in memory and, for some
functions, work counters.  ``uninstall()`` restores the originals.

The three ``vortex_panel_*_coeffs`` kernels stay unwrapped: they are the
per-panel inner loop of field evaluation and assembly, and their time
belongs to the evaluation that calls them (``stream.ns_per_pair`` is the
whole cost of one point-panel pair).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "cornerflow"
LAYERS = ("cli", "geometry", "gas", "incompressible", "analysis", "forces",
          "compressible")
UNWRAPPED = {"incompressible.vortex_panel_w_coeffs",
             "incompressible.vortex_panel_psi_coeffs",
             "incompressible.vortex_panel_W_coeffs"}
METHODS = (("incompressible", "PanelFlow", "stream", "incompressible.stream"),
           ("incompressible", "PanelFlow", "velocity", "incompressible.velocity"),
           ("gas", "BernoulliState", "density_from_flux",
            "gas.density_from_flux"))
CONTOUR = ("analysis.circulation", "analysis.mass_flux", "analysis.farfield_fit")


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval covered by its direct children.

    ``spans`` is a list of (name, start, end, parent index or -1)."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans = []            # (name, start, end, parent)
        self.counts = defaultdict(int)
        self.systems = []          # (body, n_panels, cluster) per panel_solve call
        self._stack = []
        self._patches = []         # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
                for name in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in UNWRAPPED):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        # every module of the package that binds one of these functions
        sites = [m for n, m in sys.modules.items()
                 if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod in sites:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(mods[layer], cls_name)
            self._patch(cls, meth, self._wrap(name, vars(cls)[meth]))
        return self

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        key = name.replace(".", "_")
        before = getattr(self, "_before_" + key, None)
        count = getattr(self, "_count_" + key, None)
        sig = inspect.signature(fn)

        def arguments(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(arguments(args, kwargs))
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if count is not None:
                count(arguments(args, kwargs), result)
            return result

        return traced

    # -- work counters, keyed by the wrapped name: _before_* runs before the
    # call, _count_* after it returns ----------------------------------------

    def _pairs(self, key, args):
        flow, z = args["self"], np.asarray(args["z"])
        panels = len(flow.nodes) - (0 if flow.closed else 1)
        far = int(np.count_nonzero(np.abs(z - flow.body.centroid)
                                   > 2.0 * flow.body.circumradius))
        self.counts[f"{key}.points"] += z.size
        self.counts[f"{key}.pairs"] += z.size * panels
        self.counts["incompressible.far_pairs"] += far * panels

    def _count_incompressible_stream(self, args, result):
        self._pairs("incompressible.stream", args)

    def _count_incompressible_velocity(self, args, result):
        self._pairs("incompressible.velocity", args)

    def _before_incompressible_panel_solve(self, args):
        self.systems.append((repr(args["body"]), args["n_panels"],
                             args["cluster"]))

    def _count_gas_density_from_flux(self, args, result):
        self.counts["gas.density_from_flux.points"] += int(np.size(args["m"]))

    def _count_analysis_sign_component_census(self, args, result):
        self.counts["analysis.sign_component_census.cells"] += int(
            np.prod(result.grid_shape))

    def _count_compressible_solve_subsonic(self, args, result):
        self.counts["compressible.picard_steps"] += int(result.iterations)

    def _count_compressible_build_grid(self, args, result):
        self.counts["compressible.grid_nodes"] += int(result.n_r * result.n_theta)

    def _count_cli_export_field(self, args, result):
        path = Path(args["path"])
        with path.open("rb") as fh:
            rows = sum(1 for _ in fh) - 1
        self.counts["cli.export_field.rows"] += rows
        self.counts["cli.export_field.bytes"] += path.stat().st_size

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def totals(self):
        """Per function name: calls, inclusive seconds, self seconds."""
        self_s = self_times(self.spans)
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), own in zip(self.spans, self_s):
            t = out[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += own
        return out

    def layer_metrics(self):
        """The per-layer metrics of the benchmark, by name."""
        t = self.totals()
        c = self.counts
        m = {}

        def fn(name, *fields):
            for f in fields:
                m[f"{name}.{f}"] = t[name][f]

        fn("incompressible.panel_solve", "calls", "self_s")
        calls = t["incompressible.panel_solve"]["calls"]
        m["incompressible.assembly_useful_ratio"] = (
            len(set(self.systems)) / calls if calls else 0.0)
        fn("incompressible.kutta_solve", "calls", "s")
        for key in ("incompressible.stream", "incompressible.velocity"):
            pairs, calls = c[f"{key}.pairs"], t[key]["calls"]
            m[f"{key}.pairs"] = pairs
            m[f"{key}.self_s"] = t[key]["self_s"]
            m[f"{key}.ns_per_pair"] = (1e9 * t[key]["self_s"] / pairs
                                       if pairs else 0.0)
            m[f"{key}.points_per_call"] = (c[f"{key}.points"] / calls
                                           if calls else 0.0)
        pairs = c["incompressible.stream.pairs"] + c["incompressible.velocity.pairs"]
        m["incompressible.far_pair_share"] = (c["incompressible.far_pairs"] / pairs
                                              if pairs else 0.0)
        fn("analysis.fit_corner", "calls", "self_s")
        m["analysis.corner_census.s"] = t["analysis.corner_census"]["s"]
        m["analysis.sign_component_census.cells"] = c[
            "analysis.sign_component_census.cells"]
        m["analysis.sign_component_census.self_s"] = t[
            "analysis.sign_component_census"]["self_s"]
        m["analysis.contour.calls"] = sum(t[n]["calls"] for n in CONTOUR)
        m["analysis.contour.s"] = sum(t[n]["s"] for n in CONTOUR)
        m["forces.blasius_force.s"] = t["forces.blasius_force"]["s"]
        fn("compressible.solve_subsonic", "calls", "self_s")
        m["compressible.picard_steps"] = c["compressible.picard_steps"]
        ref = t["compressible.incompressible_reference_solution"]
        m["compressible.reference_solve.calls"] = ref["calls"]
        m["compressible.reference_solve.s"] = ref["s"]
        m["compressible.grid_nodes"] = c["compressible.grid_nodes"]
        m["compressible.build_grid.s"] = t["compressible.build_grid"]["s"]
        m["compressible.refinement_study.s"] = t["compressible.refinement_study"]["s"]
        fn("gas.density_from_flux", "calls", "self_s")
        m["gas.density_from_flux.points"] = c["gas.density_from_flux.points"]
        rows = c["cli.export_field.rows"]
        m["cli.export_field.s"] = t["cli.export_field"]["s"]
        m["cli.export_field.rows"] = rows
        m["cli.export_field.bytes"] = c["cli.export_field.bytes"]
        m["cli.export_field.us_per_row"] = (1e6 * t["cli.export_field"]["s"] / rows
                                            if rows else 0.0)
        m["cli.run.self_s"] = t["cli.run"]["self_s"]
        m["geometry.self_s"] = sum(v["self_s"] for k, v in t.items()
                                   if k.startswith("geometry."))
        return m

    def dump(self, path):
        """Write the spans as JSON (name, start, end, parent per span)."""
        Path(path).write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"],
             "spans": self.spans, "counts": dict(self.counts)}))


def plate30_self_check(run, out_root, overrides=()):
    """Run the bundled plate30 scenario untraced and traced.

    ``run`` is ``cornerflow.cli.run``.  Passes when both exit 0, the two
    summary.json files are byte-identical, and the traced run records
    exactly 3 panel_solve calls and 1 kutta_solve call (the Kutta path
    solves at Gamma = 0, 1 and then at the root).  Returns (ok, detail).
    """
    out_root = Path(out_root)
    plain, traced = out_root / "plate30_plain", out_root / "plate30_traced"
    code_plain = run("plate30.json", plain, list(overrides))
    tracer = Tracer()
    with tracer:
        code_traced = run("plate30.json", traced, list(overrides))
    same = ((plain / "summary.json").read_bytes()
            == (traced / "summary.json").read_bytes())
    solves = tracer.calls("incompressible.panel_solve")
    kutta = tracer.calls("incompressible.kutta_solve")
    ok = code_plain == 0 and code_traced == 0 and same and solves == 3 and kutta == 1
    return ok, (f"exit codes {code_plain}/{code_traced}, summary identical "
                f"{same}, panel_solve {solves}, kutta_solve {kutta}")
