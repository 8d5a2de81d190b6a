"""Errors raised inside a suite's trials are reported as failed trials, and
every suite runs its trials through the one trial loop."""

import re

import pytest

from supq import selftest
from supq.errors import NoConvergence, NotInG


def test_error_inside_a_trial_is_reported_as_a_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise NoConvergence("eigensolver gave up")

    monkeypatch.setattr(selftest, "random_admissible_an", broken)
    result = selftest.suite_multiplicativity(n_max=3, trials=3, seed=1)
    assert result.passed is False
    assert result.trials == 3
    assert result.detail.startswith("trial 0: unexpected NoConvergence")


@pytest.mark.parametrize(
    "suite, options, target, error",
    [
        pytest.param("suite_failure_taxonomy", {"trials": 3}, "decompose_gauss", NotInG,
                     id="failure_taxonomy"),
        pytest.param("suite_cone_characterization",
                     {"n_max": 3, "forward": 2, "converse": 2, "forward_samples": 10,
                      "converse_samples": 10, "min_found": 0},
                     "cone_preservation_check", NoConvergence, id="cone_characterization"),
        pytest.param("suite_su11_oracle", {"trials": 5}, "check_admissible_q", NoConvergence,
                     id="su11_oracle"),
    ],
)
def test_suites_report_unexpected_errors(monkeypatch, suite, options, target, error):
    def broken(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(selftest, target, broken)
    result = getattr(selftest, suite)(seed=1, **options)
    assert result.passed is False
    assert re.match(rf"trial \d+: unexpected {error.__name__}", result.detail)
    results = selftest.run_selftest(n_max=2, trials=5, seed=1)
    assert not all(r.passed for r in results)


TINY_SUITES = {
    "suite_global_decomposition": {"n_max": 3, "trials": 2},
    "suite_timelike_preservation": {"n_max": 3, "s_trials": 2, "x_per_s": 2},
    "suite_multiplicativity": {"n_max": 3, "trials": 2},
    "suite_cone_characterization": {"n_max": 3, "forward": 2, "converse": 2, "forward_samples": 10,
                                    "converse_samples": 10, "min_found": 0},
    "suite_dressing_cocycle": {"n_max": 3, "trials": 2},
    "suite_rayleigh_monotonicity": {"n_max": 3, "trials": 2},
    "suite_su11_oracle": {"trials": 2},
    "suite_minor_ratios": {"n_max": 3, "trials": 2},
    "suite_exp_log": {"n_max": 3, "trials": 2},
    "suite_failure_taxonomy": {"trials": 2},
}


def test_tiny_suites_cover_every_suite():
    assert sorted(TINY_SUITES) == sorted(n for n in vars(selftest) if n.startswith("suite_"))


@pytest.mark.parametrize("suite", sorted(TINY_SUITES))
def test_every_suite_runs_its_trials_through_run_trials(monkeypatch, suite):
    calls = []
    run_trials = selftest._run_trials

    def counting(*args, **kwargs):
        calls.append(args[0])
        return run_trials(*args, **kwargs)

    monkeypatch.setattr(selftest, "_run_trials", counting)
    result = getattr(selftest, suite)(seed=1, **TINY_SUITES[suite])
    assert calls
    assert set(calls) == {result.name}
