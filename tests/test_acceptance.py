"""Acceptance gate: every release criterion at its stated tolerance.

Four sub-checks (1b, 2, 5b, 6) pin closed-form statements that are
structurally unattainable at the stated scales; the measured values and the
corrected counterparts are tabulated in README.md (Acceptance status, the
by-design failures table) and covered by passing tests elsewhere
(test_otoc.py, test_cli.py).  Those four tests FAIL here by design -- they
are faithful transcriptions, not regressions.
"""

import json
import time

from rsedlab import acceptance as acc
from rsedlab.cli import main

KNOWN_DEFECT_IDS = {"1b", "2", "5b", "6"}


def run_timed(fn, limit_s=None):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    if limit_s is not None:
        assert elapsed < limit_s, f"{result.cid} exceeded its runtime budget: {elapsed:.1f}s"
    return result


def test_criterion_1a_closed_form_exact():
    r = run_timed(acc.criterion_1a, limit_s=1.0)
    assert r.passed, r.line()


def test_criterion_1b_sign_function_brute_force():
    r = run_timed(acc.criterion_1b, limit_s=1.0)
    assert r.passed, r.line() + " | f cancels in the ZZ reduction; see README by-design failures"


def test_criterion_2_variance_formula():
    r = run_timed(acc.criterion_2, limit_s=120.0)
    assert r.passed, r.line() + f" | detail: {r.detail} | printed subleading coefficients overcount; see README by-design failures"


def test_criterion_3_factorization_identity():
    r = run_timed(acc.criterion_3, limit_s=30.0)
    assert r.passed, r.line()


def test_criterion_4_saturation():
    r = run_timed(acc.criterion_4, limit_s=60.0)
    assert r.passed, r.line()


def test_criterion_5a_scaling_slope():
    r = run_timed(acc.criterion_5a, limit_s=120.0)
    assert r.passed, r.line()


def test_criterion_5b_scaling_concavity():
    r = run_timed(acc.criterion_5b)
    assert r.passed, r.line() + f" | detail: {r.detail['second_differences']} | ceil staircase breaks concavity; see README by-design failures"


def test_criterion_6_hadamard_periodicity():
    r = run_timed(acc.criterion_6)
    assert r.passed, r.line() + f" | detail: {r.detail} | true OTOC period is 2 in eigenpath time; see README by-design failures"


def test_criterion_7_early_time_slope():
    r = run_timed(acc.criterion_7)
    assert r.passed, r.line()


def test_criterion_8_clifford_otoc():
    r = run_timed(acc.criterion_8)
    assert r.passed, r.line()


def test_criterion_9_sff_factorization():
    r = run_timed(acc.criterion_9)
    assert r.passed, r.line()


def test_criterion_10_level_statistics():
    r = run_timed(acc.criterion_10, limit_s=180.0)
    assert r.passed, r.line()


def test_criterion_11_type_state_convergence():
    r = run_timed(acc.criterion_11, limit_s=120.0)
    assert r.passed, r.line()


def test_criterion_12_coherence():
    r = run_timed(acc.criterion_12)
    assert r.passed, r.line()


def test_criterion_13_finite_temperature():
    r = run_timed(acc.criterion_13)
    assert r.passed, r.line()


def test_criterion_14_estimator_consistency():
    r = run_timed(acc.criterion_14)
    assert r.passed, r.line()


def test_verify_reports_known_defects_only(tmp_path):
    """verify exits 1 while the four pinned defects stand, and the report
    names them; no other criterion may fail."""
    code = main(["verify", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "verify_report.json").read_text())
    failed = set(report["failures"])
    assert failed == KNOWN_DEFECT_IDS
    assert report["unexpected_failures"] == []
    assert code == 1
    ids = {c["id"] for c in report["criteria"]}
    assert {"1a", "3", "4", "5a", "7", "8", "9", "10", "11", "12", "13", "14"} <= ids
    for c in report["criteria"]:
        assert "measured" in c and "threshold" in c


def test_verify_fault_injection(tmp_path, monkeypatch):
    """A criterion that fails without a known defect makes verify exit 1 and
    is named among the failures."""

    def broken() -> acc.CriterionResult:
        return acc.CriterionResult("1a", "injected fault", 1.0, "<= 1e-12", False)

    monkeypatch.setattr(acc, "ALL_CRITERIA", [broken])
    assert main(["verify", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["failures"] == ["1a"] and report["unexpected_failures"] == ["1a"]
