import inspect
import random

import pytest

from infodens import properties
from infodens.properties import (
    check_additivity,
    check_composition,
    check_concavity,
    check_independence_zero,
    check_non_negativity,
    check_post_processing,
    check_pre_processing,
    run_property_suite,
)

CHECKS = [
    check_non_negativity,
    check_independence_zero,
    check_additivity,
    check_concavity,
    check_pre_processing,
    check_post_processing,
    check_composition,
]


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_property_holds_on_random_instances(check):
    outcome = check(seed=20240501, instances=150, tol=1e-10)
    assert outcome.passed, f"{outcome.name}: worst violation {outcome.worst_violation}"
    assert outcome.instances == 150


def test_suite_runs_every_check_with_derived_seeds():
    outcomes = run_property_suite(seed=3, instances=25)
    assert [o.name for o in outcomes] == [
        "non_negativity",
        "independence_zero",
        "additivity",
        "concavity",
        "pre_processing",
        "post_processing",
        "composition",
    ]
    assert all(o.passed for o in outcomes)


def test_suite_is_deterministic():
    first = run_property_suite(seed=11, instances=20)
    second = run_property_suite(seed=11, instances=20)
    assert first == second


def _replay(values):
    """A violation that returns ``values`` in turn, named ``replay``."""
    values = iter(values)

    def replay(rng):
        return next(values)

    return replay


def test_runner_counts_failures_and_worst_violation_above_tol():
    check = properties._check(_replay([0.0, 0.5, 0.75, 2.0, 0.5000001, -1.0]))
    outcome = check(0, 6, 0.5)
    assert outcome == properties.PropertyOutcome("replay", 6, 3, 2.0)
    assert not outcome.passed


def test_runner_passes_at_exactly_tol():
    outcome = properties._check(_replay([0.25, 0.5, 0.5]))(0, 3, 0.5)
    assert outcome == properties.PropertyOutcome("replay", 3, 0, 0.0)
    assert outcome.passed


def test_runner_seeds_one_generator_per_check():
    drawn = []

    def draw(rng):
        drawn.append(rng.random())
        return 0.0

    outcome = properties._check(draw)(42, 5, 0.0)
    reference = random.Random(42)
    assert drawn == [reference.random() for _ in range(5)]
    assert outcome.name == "draw" and outcome.passed


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_checks_keep_their_public_signature(check):
    assert list(inspect.signature(check).parameters) == ["seed", "instances", "tol"]
    assert check.__name__ == f"check_{check(0, 1, 1e-10).name}"
