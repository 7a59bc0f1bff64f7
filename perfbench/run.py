"""cornerflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed generates scenario JSON files;
each runs in-process through ``cornerflow.cli.run`` (the entry point of
``cornerflow run``) in a closed loop: one caller, the next scenario starts
when the previous one returns.  Every output is checked by ``oracle.py``.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh processes), scenarios per minute over a whole number of
passes that takes about ``--seconds``, and peak resident memory.
``--trace 1`` runs a fixed number of passes (about ``--seconds`` in all),
every scenario once untraced and once traced with the outside-in tracer,
and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, spans and a
full result record are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine
import oracle
import scenarios
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
# typical seconds per pass on a 2-core Xeon; they fix the pass counts, so
# that a seed always runs the same scenarios
NOMINAL_PASS_S = {"corner_census": 12.5, "field_maps": 45.0,
                  "compressible_refinement": 8.5}
# stop starting passes after this many seconds, to exit within 180 s
DEADLINE_S = 120.0
SELF_CHECK_OVERRIDES = ("output.sign_resolution=100",)
# printed for reading, not listed in BENCHMARK.json (see NOTES.md)
REPORT_UNITS = {"failed_ratio": "ratio", "exact_dev_max": "ratio"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return path


def probe_setup(workload: str, work: Path) -> list:
    """Set-up seconds of fresh processes: start through import and warm-up."""
    warm = write_json(work / "warmup.json", scenarios.warmup(workload))
    times = []
    for i in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(warm),
             str(work / f"probe{i}")],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[1] != "0":
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        times.append(float(fields[0]) - t0)
    return times


class Loop:
    """Closed-loop runner of generated scenarios, with oracle checks."""

    def __init__(self, cli, gen: scenarios.Generator, work: Path):
        self.cli = cli
        self.gen = gen
        self.work = work
        self.records = []

    def scenario_files(self, k: int) -> list:
        return [(cfg, write_json(self.work / "scenarios" / f"{cfg['name']}.json",
                                 cfg))
                for cfg in self.gen.pass_(k)]

    def run_one(self, cfg: dict, path: Path, label: str) -> dict:
        """Run one scenario file through cli.run and check its outputs."""
        out = self.work / "out" / label / cfg["name"]
        t0 = time.perf_counter()
        # looked up on the module at each call, so the tracer sees it
        code = self.cli.run(str(path), str(out))
        dt = time.perf_counter() - t0
        verdict = oracle.check(cfg, code, out)
        rec = {"scenario": cfg["name"], "label": label, "exit_code": code,
               "seconds": dt, "ok": verdict.ok,
               "failure_class": verdict.failure_class,
               "problems": verdict.problems, "exact_dev": verdict.exact_dev,
               "summary": (out / "summary.json").read_bytes()}
        self.records.append(rec)
        if verdict.ok or verdict.known_failure:
            shutil.rmtree(out, ignore_errors=True)
        return rec

    def run_pass(self, files, label: str) -> dict:
        """Run one pass; returns its seconds (inside cli.run) and passes."""
        recs = [self.run_one(cfg, path, label) for cfg, path in files]
        return {"seconds": sum(r["seconds"] for r in recs),
                "passed": sum(r["ok"] for r in recs), "scenarios": len(recs)}

    def tally(self):
        failed = [r for r in self.records if not r["ok"]]
        unknown = [r for r in failed if r["failure_class"] is None]
        return len(self.records), failed, unknown


def run_timed(loop: Loop, seconds: float, start: float) -> list:
    """About ``seconds`` of scenario time, as a whole number of passes."""
    passes = []
    for k in range(max(1, math.ceil(seconds / NOMINAL_PASS_S[loop.gen.workload]))):
        if k and time.monotonic() - start > DEADLINE_S:
            break
        passes.append(loop.run_pass(loop.scenario_files(k), f"pass{k}"))
    return passes


def run_traced(loop: Loop, seconds: float, start: float, tr: tracing.Tracer):
    """A fixed number of passes; every scenario runs untraced and traced.

    The first of two runs of a scenario tends to be slower (fresh memory),
    so the order alternates from one scenario to the next."""
    n_passes = max(1, round(seconds / (2 * NOMINAL_PASS_S[loop.gen.workload])))
    plain = traced = cpu = 0.0
    mismatched = []
    for k in range(n_passes):
        if k and time.monotonic() - start > DEADLINE_S:
            break
        for i, (cfg, path) in enumerate(loop.scenario_files(k)):
            runs = {}
            for with_trace in ((False, True) if (k + i) % 2 == 0 else (True, False)):
                if with_trace:
                    c0 = time.process_time()
                    with tr:
                        runs[True] = loop.run_one(cfg, path, f"pass{k}_traced")
                    cpu += time.process_time() - c0
                else:
                    runs[False] = loop.run_one(cfg, path, f"pass{k}")
            plain += runs[False]["seconds"]
            traced += runs[True]["seconds"]
            if runs[False]["summary"] != runs[True]["summary"]:
                mismatched.append(cfg["name"])
    return {"process.cpu_s": cpu, "process.cpu_per_wall": cpu / traced,
            "trace.overhead_ratio": traced / plain - 1.0}, mismatched


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.monotonic()
    if not (SRC / "cornerflow" / "__init__.py").is_file():
        print(f"error: no cornerflow sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup = probe_setup(args.workload, work) if not args.trace else []

    sys.path.insert(0, str(SRC))
    from cornerflow import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported cornerflow from {cli.__file__}", file=sys.stderr)
        return 2
    warm = write_json(work / "warmup.json", scenarios.warmup(args.workload))
    if cli.run(str(warm), str(work / "warmup_out")) != 0:
        print("error: warm-up scenario failed", file=sys.stderr)
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    units.update(REPORT_UNITS)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine.record()}
    print(json.dumps({"machine": record["machine"]}, sort_keys=True))

    loop = Loop(cli, scenarios.Generator(args.workload, args.seed), work)
    checks_ok = True
    if args.trace:
        ok, detail = tracing.plate30_self_check(
            cli.run, work / "self_check", SELF_CHECK_OVERRIDES)
        print(f"plate30 traced self-check: {'PASS' if ok else 'FAIL'} ({detail})")
        checks_ok = ok
        tr = tracing.Tracer()
        extra, mismatched = run_traced(loop, args.seconds, start, tr)
        for name in mismatched:
            print(f"traced summary.json differs from untraced: {name}")
        checks_ok = checks_ok and not mismatched
        metrics = {**tr.layer_metrics(), **extra}
        tr.dump(work / "spans.json")
    else:
        passes = run_timed(loop, args.seconds, start)
        metrics = {
            "setup_s": statistics.median(setup),
            "scenarios_per_min": 60.0 * sum(p["passed"] for p in passes)
            / sum(p["seconds"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["setup_samples_s"] = setup
        record["passes"] = passes

    attempted, failed, unknown = loop.tally()
    for r in failed:
        print(f"failed: {r['label']}/{r['scenario']} exit {r['exit_code']} "
              f"class={r['failure_class'] or 'UNEXPECTED'} {r['problems'][:3]}")
    correct = checks_ok and not unknown
    devs = [r["exact_dev"] for r in loop.records if r["exact_dev"] is not None]
    report = dict(metrics)
    report["failed_ratio"] = len(failed) / attempted
    if devs:
        report["exact_dev_max"] = max(devs)
    for name, value in report.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    if not devs and not args.trace:
        print(f"{args.workload} exact_dev_max: not defined on this workload")
    if set(metrics) != {m["name"] for m in listed}:
        print("error: measured metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1

    for r in loop.records:
        r["summary"] = r["summary"].decode()
    record.update(metrics=report, correct=correct, records=loop.records)
    write_json(work / "result.json", record)
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
