"""Tests for the built-in self-check suites."""
import pytest

from stlmc.verification import available_suites, run_suite, run_suites


# the suites take seconds each, so the tests share two full passes
@pytest.fixture(scope="module")
def each_suite():
    """One ``run_suite`` call per suite."""
    return {name: run_suite(name) for name in available_suites()}


@pytest.fixture(scope="module")
def all_suites():
    return run_suites(["all"])


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
def test_each_suite_passes(suite, each_suite):
    results = each_suite[suite]
    assert len(results) > 0
    failures = [r for r in results if not r.ok]
    assert failures == []
    for r in results:
        assert r.name
        assert r.detail


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("nonsense")


def test_run_suites_all_collects_everything(all_suites, each_suite):
    results = all_suites
    assert sorted(results) == sorted(available_suites())
    total = sum(len(checks) for checks in results.values())
    assert total == sum(len(each_suite[s]) for s in available_suites())
    assert all(r.ok for checks in results.values() for r in checks)


def test_run_suites_subset_keys(each_suite):
    results = run_suites(["diagnostics", "chain-analysis"])
    assert sorted(results) == ["chain-analysis", "diagnostics"]
    names = [r.name for r in results["diagnostics"]]
    assert names == [r.name for r in each_suite["diagnostics"]]
