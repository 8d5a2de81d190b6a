"""The shared trial loop of the property suites."""

from supq import selftest
from supq.errors import NoConvergence


def test_error_inside_a_trial_is_reported_as_a_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise NoConvergence("eigensolver gave up")

    monkeypatch.setattr(selftest, "random_admissible_an", broken)
    result = selftest.suite_multiplicativity(n_max=3, trials=3, seed=1)
    assert result.passed is False
    assert result.trials == 3
    assert result.detail.startswith("trial 0: unexpected NoConvergence")
