import json
import math

import numpy as np
import pytest

from geomqm import report as report_module
from geomqm.report import CONVENTIONS, Suite, replay, run_suite, verify_row
from conftest import SUITE_ROWS


def probe(residuals, draw=lambda n, m, rng: np.zeros(m)):
    """A Suite of one input ``row`` from ``draw`` and residuals of those rows."""
    return Suite("probe", {"row": (0, draw)}, lambda row: residuals(row))


ZEROS = probe(lambda row: {"a": np.zeros(len(row))})


def suite(values_by_trial, tol=1e-9):
    """run_suite over per-trial dicts, handed over as one residual array per check."""
    trials = iter(range(len(values_by_trial)))

    def indices(n, m, rng):  # the next m trial indices
        return [next(trials) for _ in range(m)]

    return run_suite(probe(lambda ks: {name: np.array([values_by_trial[k][name] for k in ks])
                                       for name in values_by_trial[0]}, indices),
                     1, len(values_by_trial), 0, tol)


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
        report = run_suite(ZEROS, 1, 2, 7, 1e-3, details={"dim": 3})
        assert (report.title, report.seed, report.trials, report.tol) == ("probe", 7, 2, 1e-3)
        assert report.details == {"dim": 3}
        assert report.to_dict()["conventions"] == CONVENTIONS.to_dict()

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_suite(ZEROS, 1, 0, 0, 1e-9)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_rejects_dim_below_one(self, dim):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            run_suite(ZEROS, dim, 3, 0, 1e-9)

    @pytest.mark.parametrize("dim", [0, -1])
    @pytest.mark.parametrize("name", SUITE_ROWS, ids=lambda name: f"verify_{name.lower()}")
    def test_suites_reject_dim_below_one_before_drawing(self, monkeypatch, name, dim):
        # verify_row checks the dimension before any generator is made, also for a row that
        # runs at a larger min_dim
        monkeypatch.setattr(report_module, "make_rng", lambda *key: pytest.fail("made an rng"))
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            verify_row(getattr(SUITE_ROWS[name], name), dim, 3, 0, 1e-9)


class TestChunks:
    def test_chunk_size_from_dim(self):
        for dim, trials, expected in ((4, 2500, [1024, 1024, 452]), (1, 3, [3]),
                                      (200, 3, [1, 1, 1])):
            sizes = []

            def draw(n, m, rng):
                sizes.append(m)
                return np.zeros(m)

            run_suite(probe(ZEROS.residuals, draw), dim, trials, 0, 1e-9)
            assert sizes == expected

    @pytest.mark.parametrize("elements", [1, 2, 3])
    def test_worst_trial_across_chunks(self, monkeypatch, elements):
        # a tie across a chunk boundary (a at trials 1 and 3) and a NaN first met in a later
        # chunk (b at trial 3) give the one-chunk run's report
        values = [{"a": 1.0, "b": 5.0}, {"a": 3.0, "b": 9.0}, {"a": 2.0, "b": 7.0},
                  {"a": 3.0, "b": float("nan")}, {"a": 0.5, "b": float("nan")}]
        one_chunk = suite(values).to_dict()
        monkeypatch.setattr(report_module, "CHUNK_ELEMENTS", elements)
        report = suite(values)
        assert report.to_dict() == one_chunk
        assert report.checks[0].max_residual == 3.0
        assert [c.worst_trial for c in report.checks] == [1, 3]
        assert math.isnan(report.checks[1].max_residual)

    def test_residuals_must_match_chunk(self):
        with pytest.raises(ValueError):
            run_suite(probe(lambda row: {"a": np.zeros(len(row) + 1)}), 1, 3, 0, 1e-9)


@pytest.mark.parametrize("name", SUITE_ROWS)
@pytest.mark.parametrize("n", [2, 3])
def test_replayed_inputs_give_each_worst_residual(monkeypatch, name, n):
    # trial k's inputs, replayed alone, give each check's max_residual bit for bit
    row, trials, seed = getattr(SUITE_ROWS[name], name), 12, 5
    for elements in (1, 5 * n * n):  # chunks of 1 and of 5 trials
        monkeypatch.setattr(report_module, "CHUNK_ELEMENTS", elements)
        for check in run_suite(row, n, trials, seed, 1e-9).checks:
            inputs = replay(row, n, seed, check.worst_trial)
            assert inputs.keys() == row.inputs.keys()
            (value,) = row.residuals(**inputs)[check.name]
            assert value == check.max_residual


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


class TestStrictJson:
    def test_non_finite_witness_residual_is_text(self):
        report = run_suite(ZEROS, 1, 1, 0, 1e-9,
                           details={"witness_residual": float("nan"),
                                    "nested": {"values": [1.0, float("-inf")]}})
        payload = json.loads(json.dumps(report.to_dict()), parse_constant=reject_constant)
        assert payload["details"] == {"witness_residual": "nan",
                                      "nested": {"values": [1.0, "-inf"]}}
