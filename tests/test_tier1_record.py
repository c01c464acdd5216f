"""The record each tier-1 session leaves (``conftest.pytest_sessionfinish``)."""

import json
import os
from pathlib import Path

TESTS = Path(__file__).resolve().parent

INNER = """
import pytest


@pytest.fixture
def broken():
    raise RuntimeError("no setup")


def test_passes():
    pass


def test_fails():
    assert 1 == 2, "worst 42.29%/tol 10%"


def test_errors(broken):
    pass


@pytest.mark.skip
def test_skipped():
    pass
"""


def test_a_session_leaves_its_record_pass_or_fail(pytester, monkeypatch):
    # a small session in its own process, with this suite's conftest as its
    # plugin, so that loading bench/run.py there moves nothing here
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
    pytester.makepyfile(test_inner=INNER)
    result = pytester.runpytest_subprocess("-p", "conftest", "-p", "no:cacheprovider")
    result.assert_outcomes(passed=1, failed=1, errors=1, skipped=1)
    record = json.loads((pytester.path / ".bench_out" / "tier1.json").read_text(encoding="utf-8"))
    assert set(record) == {"exitstatus", "counts", "failures", "slowest", "environment"}
    assert record["exitstatus"] == 1
    assert record["counts"] == {"error": 1, "failed": 1, "passed": 1, "skipped": 1}
    assert record["failures"] == [
        {"id": "test_inner.py::test_fails", "outcome": "failed",
         "message": "AssertionError: worst 42.29%/tol 10%"},
        {"id": "test_inner.py::test_errors", "outcome": "error",
         "message": "RuntimeError: no setup"},
    ]
    assert sorted(entry["id"] for entry in record["slowest"]) == [
        f"test_inner.py::test_{name}" for name in ("errors", "fails", "passes", "skipped")]
    assert {"commit", "source_sha256", "numpy", "OPENBLAS_NUM_THREADS", "cpu_model"} <= set(
        record["environment"])
    assert "error" not in record["environment"]
