import json

import oracle
import scenarios
from cornerflow import cli


def run_plate(tmp_path):
    cfg = scenarios.Generator("corner_census", 1).pass_(0)[0]
    cfg["body"]["alpha_deg"] = 20.0  # clear of the small-incidence class
    path = tmp_path / "plate.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    return cfg, cli.run(str(path), str(out)), out


def tamper(out, edit):
    path = out / "summary.json"
    summary = json.loads(path.read_text())
    edit(summary)
    path.write_text(json.dumps(summary))


def test_oracle_accepts_a_real_run_and_rejects_tampered_summaries(tmp_path):
    cfg, code, out = run_plate(tmp_path)
    verdict = oracle.check(cfg, code, out)
    assert verdict.ok, verdict.problems
    assert verdict.exact_dev < oracle.KUTTA_REL_TOL
    original = (out / "summary.json").read_text()

    def shift_root(s):
        s["kutta"]["gamma_star"] *= 1.02

    def regular_leading_edge(s):
        s["corner_reports"][1]["fitted_exponent"] = 0.0

    def report_error(s):
        s["errors"].append({"type": "SolverError", "message": "x"})

    for edit in (shift_root, regular_leading_edge, report_error):
        (out / "summary.json").write_text(original)
        tamper(out, edit)
        verdict = oracle.check(cfg, code, out)
        assert not verdict.ok and verdict.failure_class is None, edit.__name__

    (out / "summary.json").write_text(original[: len(original) // 2])
    assert not oracle.check(cfg, code, out).ok
    (out / "summary.json").write_text(original)
    assert not oracle.check(cfg, 1, out).ok


def test_failure_classes():
    regular = {"kind": "polygon",
               "vertices": scenarios.regular_polygon(3, 1.0, 0.2, (0.0, 0.0))}
    skewed = {"kind": "polygon", "vertices": [[0, 0], [2, 0], [0.3, 1]]}

    def summary(residual):
        return {"errors": [{"type": "SolverError", "message":
                            f"tangency residual {residual} exceeds tol_slip"}]}

    def cfg(body, n):
        return {"body": body, "solver": {"n_panels": n}}

    assert oracle.classify_failure(cfg(skewed, 256), 1, summary(0.7)) \
        == "asymmetric_polygon"
    assert oracle.classify_failure(cfg(regular, 512), 1, summary(1.03e-8)) \
        == "regular_polygon_tol_slip"
    # outside the listed classes: unexpected failures
    assert oracle.classify_failure(cfg(regular, 256), 1, summary(1.03e-8)) is None
    assert oracle.classify_failure(cfg(regular, 512), 1, summary(0.5)) is None
    assert oracle.classify_failure(cfg(skewed, 256), 2, summary(0.7)) is None
    assert oracle.classify_failure(
        cfg(skewed, 256), 1, {"errors": [{"type": "FitQualityError",
                                          "message": "x"}]}) is None

    def plate(alpha_deg):
        return {"body": {"kind": "flat_plate", "chord": 2.0,
                         "alpha_deg": alpha_deg}}

    edge = ["unregularized edge 1 exponent -0.447"]
    assert oracle.classify_failure(plate(6.9), 0, {}, edge) \
        == "small_incidence_exponent"
    assert oracle.classify_failure(plate(12.0), 0, {}, edge) is None
    assert oracle.classify_failure(
        plate(6.9), 0, {}, edge + ["Kutta root off by 2.000%"]) is None
