"""Randomized property suite for the pointwise cost measure.

Each property is a violation function: it draws one random instance from a
seeded ``random.Random`` and returns how far the instance breaks one
structural property of the measure: non-negativity, vanishing under
independence, additivity over products, concavity in the prior, the two
data-processing directions, and the chain rule for two-stage releases.
:func:`_check` turns each into its public ``check_<name>(seed, instances,
tol)``.  The CLI ``props`` subcommand and the acceptance suite both run these.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Sequence

from .leakage import conditional_pmc, max_realizable_cost, pmc, pml
from .probcore import Channel, Joint, Pmf, _Frozen
from .sampling import random_channel, random_joint, random_pmf


class PropertyOutcome(_Frozen):
    """Result of one property over a batch of random instances."""

    _compared = ("name", "instances", "failures", "worst_violation")

    def __init__(self, name: str, instances: int, failures: int, worst_violation: float):
        self._fill(name, instances, failures, worst_violation)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _check(
    violation: Callable[[random.Random], float]
) -> Callable[[int, int, float], PropertyOutcome]:
    """The public ``check_<name>(seed, instances, tol)`` of ``violation``.

    The check seeds one ``random.Random``, calls ``violation`` once per
    instance, and counts the instances whose violation exceeds ``tol``.  The
    outcome is named after ``violation``.
    """
    name = violation.__name__

    def check(seed: int, instances: int, tol: float) -> PropertyOutcome:
        rng = random.Random(seed)
        failures, worst = 0, 0.0
        for _ in range(instances):
            bad = violation(rng)
            if bad > tol:
                failures += 1
                worst = max(worst, bad)
        return PropertyOutcome(name, instances, failures, worst)

    check.__name__ = check.__qualname__ = f"check_{name}"
    check.__doc__ = violation.__doc__
    return check


def non_negativity(rng: random.Random) -> float:
    """No finite level lies below zero."""
    joint = random_joint(rng, rng.randint(2, 5), rng.randint(2, 5), zero_prob=0.2)
    levels = (level for y in joint.support for level in (pmc(joint, y), pml(joint, y)))
    return max([0.0, *(-level.nats for level in levels if level.is_finite)])


def independence_zero(rng: random.Random) -> float:
    """A channel whose rows are all equal leaks nothing at any outcome."""
    n_in = rng.randint(2, 5)
    n_out = rng.randint(2, 5)
    row = random_pmf(rng, n_out).weights
    joint = Joint.from_prior_channel(
        random_pmf(rng, n_in), Channel(tuple(row for _ in range(n_in)))
    )
    return max(
        max(abs(pmc(joint, y).nats), abs(pml(joint, y).nats)) for y in joint.support
    )


def additivity(rng: random.Random) -> float:
    """Independent releases about independent secrets add their costs."""
    a = random_joint(rng, rng.randint(2, 5), rng.randint(2, 5))
    b = random_joint(rng, rng.randint(2, 5), rng.randint(2, 5))
    prod_prior = Pmf(tuple(pa * pb for pa in a.prior.weights for pb in b.prior.weights))
    prod_rows = tuple(
        tuple(ea * eb for ea in ra for eb in rb)
        for ra in a.channel.rows
        for rb in b.channel.rows
    )
    prod = Joint.from_prior_channel(prod_prior, Channel(prod_rows))
    n_out_b = b.channel.n_outputs
    return max(
        abs(pmc(prod, ya * n_out_b + yb).nats - (pmc(a, ya).nats + pmc(b, yb).nats))
        for ya in a.support
        for yb in b.support
    )


def concavity(rng: random.Random) -> float:
    """Cost at a mixed prior dominates the mixture of costs, on a theta grid."""
    n_in = rng.randint(2, 4)
    n_out = rng.randint(2, 4)
    channel = random_channel(rng, n_in, n_out)
    p = random_pmf(rng, n_in)
    q = random_pmf(rng, n_in)
    jp = Joint.from_prior_channel(p, channel)
    jq = Joint.from_prior_channel(q, channel)
    bad = 0.0
    for theta in (i / 10 for i in range(11)):
        mix = Pmf(
            tuple(theta * pw + (1 - theta) * qw for pw, qw in zip(p.weights, q.weights))
        )
        jm = Joint.from_prior_channel(mix, channel)
        for y in jm.support:
            rhs = theta * pmc(jp, y).nats + (1 - theta) * pmc(jq, y).nats
            bad = max(bad, rhs - pmc(jm, y).nats)
    return bad


def pre_processing(rng: random.Random) -> float:
    """Leakage about a function of the secret never exceeds leakage about it."""
    joint = random_joint(rng, rng.randint(2, 5), rng.randint(2, 5))
    n_z = rng.randint(2, 4)
    inverted = Joint.from_prior_channel(joint.prior, random_channel(rng, joint.n_inputs, n_z))
    backward = Channel(tuple(inverted.posterior(z) for z in range(n_z)))
    z_joint = Joint.from_prior_channel(Pmf(inverted.marginal), backward.then(joint.channel))
    return max([0.0, *(pmc(z_joint, y).nats - pmc(joint, y).nats for y in joint.support)])


def post_processing(rng: random.Random) -> float:
    """Post-processing the release cannot raise the worst-outcome cost."""
    joint = random_joint(rng, rng.randint(2, 5), rng.randint(2, 5))
    post = random_channel(rng, joint.n_outputs, rng.randint(2, 4))
    processed = Joint.from_prior_channel(joint.prior, joint.channel.then(post))
    return max_realizable_cost(processed).nats - max_realizable_cost(joint).nats


def composition(rng: random.Random) -> float:
    """Two-stage release: joint cost at (y1, y2) splits along the chain rule."""
    n_x = rng.randint(2, 3)
    n_y1 = rng.randint(2, 3)
    n_y2 = rng.randint(2, 3)
    prior = random_pmf(rng, n_x)
    first = random_channel(rng, n_x, n_y1)
    second = {
        (x, y1): random_pmf(rng, n_y2).weights for x in range(n_x) for y1 in range(n_y1)
    }
    combined_rows = tuple(
        tuple(
            first.rows[x][y1] * second[(x, y1)][y2]
            for y1 in range(n_y1)
            for y2 in range(n_y2)
        )
        for x in range(n_x)
    )
    combined = Joint.from_prior_channel(prior, Channel(combined_rows))
    stage_one = Joint.from_prior_channel(prior, first)
    conditioned = {
        y1: Joint.from_prior_channel(
            Pmf(stage_one.posterior(y1)),
            Channel(tuple(second[(x, y1)] for x in range(n_x))),
        )
        for y1 in stage_one.support
    }
    bad = 0.0
    for y1 in stage_one.support:
        for y2 in conditioned[y1].support:
            lhs = pmc(combined, y1 * n_y2 + y2).nats
            rhs = pmc(stage_one, y1).nats + conditional_pmc(conditioned, y2, y1).nats
            bad = max(bad, lhs - rhs)
    return bad


check_non_negativity = _check(non_negativity)
check_independence_zero = _check(independence_zero)
check_additivity = _check(additivity)
check_concavity = _check(concavity)
check_pre_processing = _check(pre_processing)
check_post_processing = _check(post_processing)
check_composition = _check(composition)

_CHECKS: Sequence[Callable[[int, int, float], PropertyOutcome]] = (
    check_non_negativity,
    check_independence_zero,
    check_additivity,
    check_concavity,
    check_pre_processing,
    check_post_processing,
    check_composition,
)


def run_property_suite(
    seed: int = 0, instances: int = 1000, tol: float = 1e-10
) -> List[PropertyOutcome]:
    """Run every property check on its own derived seed.

    A suite of no instances, or with a negative or non-finite tolerance,
    would pass without checking anything, so it is refused.
    """
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances!r}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    return [
        check(seed * 7919 + index, instances, tol)
        for index, check in enumerate(_CHECKS)
    ]
