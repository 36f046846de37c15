"""Tests for the built-in self-check suites."""
import pytest

from stlmc import verification
from stlmc.verification import CheckResult, available_suites, run_suite, run_suites


# the suites take seconds each, so the tests share one full pass
@pytest.fixture(scope="module")
def all_suites():
    return run_suites(["all"])


@pytest.fixture
def stub_suites(monkeypatch):
    """Two instant suites in place of the real ones; ``calls`` logs each run."""
    calls = []

    def suite(name):
        def run():
            calls.append(name)
            return [CheckResult(f"{name} check", True, "ok")]
        return run

    monkeypatch.setattr(verification, "_SUITES",
                        {"first": suite("first"), "second-one": suite("second-one")})
    return calls


def test_available_suites_listing():
    names = available_suites()
    assert names == [
        "mixture",
        "estimator",
        "chain-analysis",
        "tempering-bounds",
        "diagnostics",
    ]


@pytest.mark.parametrize("suite", [
    "mixture",
    "estimator",
    "chain-analysis",
    "tempering-bounds",
    "diagnostics",
])
def test_each_suite_passes(suite, all_suites):
    results = all_suites[suite]
    assert len(results) > 0
    failures = [r for r in results if not r.ok]
    assert failures == []
    for r in results:
        assert r.name
        assert r.detail


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("nonsense")


def test_run_suites_all_collects_everything(stub_suites):
    results = run_suites(["all"])
    assert list(results) == ["first", "second-one"]
    assert stub_suites == ["first", "second-one"]
    assert [r.name for r in results["first"]] == ["first check"]


def test_run_suites_subset_keys(stub_suites):
    results = run_suites(["second_one", "first", "second-one", "all"])
    assert list(results) == ["second-one", "first"]
    assert stub_suites == ["second-one", "first"]


def test_run_suites_checks_every_name_before_running(stub_suites):
    with pytest.raises(ValueError, match="unknown suite 'bogus'; choose from all, first, "
                                         "second-one"):
        run_suites(["first", "bogus"])
    assert stub_suites == []
