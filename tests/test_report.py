import json
import math

import pytest

from geomqm.algebra import verify_jordan_lie
from geomqm.report import run_suite


def suite(values_by_trial, tol=1e-9):
    return run_suite("probe", len(values_by_trial), 0, tol, lambda k: values_by_trial[k])


class TestRunSuite:
    def test_max_and_first_worst_trial(self):
        report = suite([{"a": 1.0, "b": 0.0}, {"a": 3.0, "b": 0.0}, {"a": 3.0, "b": 0.0}],
                       tol=5.0)
        assert [c.name for c in report.checks] == ["a", "b"]
        assert [(c.max_residual, c.worst_trial) for c in report.checks] == [(3.0, 1), (0.0, 0)]
        assert report.passed
        assert "max residual 3.000e+00 at trial 1" in report.summary()

    def test_nan_in_middle_trial_is_worst(self):
        report = suite([{"a": 5.0}, {"a": float("nan")}, {"a": 7.0}, {"a": float("nan")}])
        (check,) = report.checks
        assert math.isnan(check.max_residual)
        assert check.worst_trial == 1
        assert not report.passed
        assert check.to_dict()["max_residual"] == "nan"

    def test_report_fields(self):
        report = run_suite("probe", 2, 7, 1e-3, lambda k: {"a": 0.0},
                           conventions={"hbar": 1.0}, details={"dim": 3})
        assert (report.title, report.seed, report.trials, report.tol) == ("probe", 7, 2, 1e-3)
        assert report.conventions == {"hbar": 1.0} and report.details == {"dim": 3}

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_suite("probe", 0, 0, 1e-9, lambda k: {"a": 0.0})


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


class TestStrictJson:
    def test_non_finite_detail_is_text(self):
        report = verify_jordan_lie(2, 3, 0, bracket_perturbation=float("nan"))
        payload = json.loads(report.to_json(), parse_constant=reject_constant)
        assert payload["details"]["bracket_perturbation"] == "nan"

    def test_non_finite_witness_residual_is_text(self):
        report = run_suite("probe", 1, 0, 1e-9, lambda k: {"a": 0.0},
                           details={"witness_residual": float("nan"),
                                    "nested": {"values": [1.0, float("-inf")]}})
        payload = json.loads(report.to_json(), parse_constant=reject_constant)
        assert payload["details"] == {"witness_residual": "nan",
                                      "nested": {"values": [1.0, "-inf"]}}
