import json
import math

import numpy as np
import pytest

from geomqm import report as report_module
from geomqm.algebra import verify_jordan_lie
from geomqm.report import CONVENTIONS, run_suite


def zeros(ks):
    return {"a": np.zeros(len(ks))}


def suite(values_by_trial, tol=1e-9):
    """run_suite over per-trial dicts, handed over as one residual array per check."""
    def trial(ks):
        return {name: np.array([values_by_trial[k][name] for k in ks])
                for name in values_by_trial[0]}

    return run_suite("probe", 1, len(values_by_trial), 0, tol, trial)


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
        report = run_suite("probe", 1, 2, 7, 1e-3, zeros, details={"dim": 3})
        assert (report.title, report.seed, report.trials, report.tol) == ("probe", 7, 2, 1e-3)
        assert report.details == {"dim": 3}
        assert report.to_dict()["conventions"] == CONVENTIONS.to_dict()

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_suite("probe", 1, 0, 0, 1e-9, zeros)


class TestChunks:
    def test_chunk_size_from_dim(self):
        for dim, trials, expected in ((4, 2500, [1024, 1024, 452]), (1, 3, [3]),
                                      (200, 3, [1, 1, 1])):
            sizes = []

            def trial(ks):
                sizes.append(len(ks))
                return zeros(ks)

            run_suite("probe", dim, trials, 0, 1e-9, trial)
            assert sizes == expected

    @pytest.mark.parametrize("elements", [1, 2, 3])
    def test_worst_trial_across_chunks(self, monkeypatch, elements):
        values = [{"a": 1.0, "b": 5.0}, {"a": 3.0, "b": float("nan")}, {"a": 2.0, "b": 7.0},
                  {"a": 3.0, "b": float("nan")}, {"a": 0.5, "b": 9.0}]
        monkeypatch.setattr(report_module, "CHUNK_ELEMENTS", elements)
        report = suite(values)
        assert report.checks[0].max_residual == 3.0
        assert [c.worst_trial for c in report.checks] == [1, 1]
        assert math.isnan(report.checks[1].max_residual)

    def test_residuals_must_match_chunk(self):
        with pytest.raises(ValueError):
            run_suite("probe", 1, 3, 0, 1e-9, lambda ks: {"a": np.zeros(len(ks) + 1)})


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


class TestStrictJson:
    def test_non_finite_detail_is_text(self):
        report = verify_jordan_lie(2, 3, 0, bracket_perturbation=float("nan"))
        payload = json.loads(report.to_json(), parse_constant=reject_constant)
        assert payload["details"]["bracket_perturbation"] == "nan"

    def test_non_finite_witness_residual_is_text(self):
        report = run_suite("probe", 1, 1, 0, 1e-9, zeros,
                           details={"witness_residual": float("nan"),
                                    "nested": {"values": [1.0, float("-inf")]}})
        payload = json.loads(report.to_json(), parse_constant=reject_constant)
        assert payload["details"] == {"witness_residual": "nan",
                                      "nested": {"values": [1.0, "-inf"]}}
