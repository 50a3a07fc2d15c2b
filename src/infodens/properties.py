"""Randomized property suite for the pointwise cost measure.

Each check draws seeded random instances and verifies one structural
property of the measure: non-negativity, vanishing under independence,
additivity over products, concavity in the prior, the two data-processing
directions, and the chain rule for two-stage releases.  The CLI ``props``
subcommand and the acceptance suite both run these.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Sequence

from .leakage import conditional_pmc, max_realizable_cost, pmc, pml
from .probcore import Channel, Joint, Pmf
from .sampling import random_channel, random_joint, random_pmf


@dataclass(frozen=True)
class PropertyOutcome:
    """Result of one property over a batch of random instances."""

    name: str
    instances: int
    failures: int
    worst_violation: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _tally(
    name: str, instances: int, tol: float, violation: Callable[[], float]
) -> PropertyOutcome:
    """Call ``violation`` once per instance; count the instances above ``tol``."""
    failures, worst = 0, 0.0
    for _ in range(instances):
        bad = violation()
        if bad > tol:
            failures += 1
            worst = max(worst, bad)
    return PropertyOutcome(name, instances, failures, worst)


def check_non_negativity(seed: int, instances: int, tol: float) -> PropertyOutcome:
    rng = random.Random(seed)

    def violation() -> float:
        joint = random_joint(rng, rng.randint(2, 5), rng.randint(2, 5), zero_prob=0.2)
        bad = 0.0
        for y in joint.support:
            for level in (pmc(joint, y), pml(joint, y)):
                if level.is_finite and level.nats < -tol:
                    bad = max(bad, -level.nats)
        return bad

    # ``bad`` only records levels below ``-tol``, so any positive value fails.
    return _tally("non_negativity", instances, 0.0, violation)


def check_independence_zero(seed: int, instances: int, tol: float) -> PropertyOutcome:
    rng = random.Random(seed)

    def violation() -> float:
        n_in = rng.randint(2, 5)
        n_out = rng.randint(2, 5)
        row = random_pmf(rng, n_out).weights
        joint = Joint.from_prior_channel(
            random_pmf(rng, n_in), Channel(tuple(row for _ in range(n_in)))
        )
        return max(
            max(abs(pmc(joint, y).nats), abs(pml(joint, y).nats))
            for y in joint.support
        )

    return _tally("independence_zero", instances, tol, violation)


def check_additivity(seed: int, instances: int, tol: float) -> PropertyOutcome:
    rng = random.Random(seed)

    def violation() -> float:
        a = random_joint(rng, rng.randint(2, 5), rng.randint(2, 5))
        b = random_joint(rng, rng.randint(2, 5), rng.randint(2, 5))
        prod_prior = Pmf(
            tuple(pa * pb for pa in a.prior.weights for pb in b.prior.weights)
        )
        prod_rows = []
        for ra in a.channel.rows:
            for rb in b.channel.rows:
                prod_rows.append(tuple(ea * eb for ea in ra for eb in rb))
        prod = Joint.from_prior_channel(prod_prior, Channel(tuple(prod_rows)))
        bad = 0.0
        n_out_b = b.channel.n_outputs
        for ya in a.support:
            for yb in b.support:
                combined = pmc(prod, ya * n_out_b + yb).nats
                split = pmc(a, ya).nats + pmc(b, yb).nats
                bad = max(bad, abs(combined - split))
        return bad

    return _tally("additivity", instances, tol, violation)


def check_concavity(seed: int, instances: int, tol: float) -> PropertyOutcome:
    """Cost at a mixed prior dominates the mixture of costs, on a theta grid."""
    rng = random.Random(seed)
    thetas = [i / 10 for i in range(11)]

    def violation() -> float:
        n_in = rng.randint(2, 4)
        n_out = rng.randint(2, 4)
        channel = random_channel(rng, n_in, n_out)
        p = random_pmf(rng, n_in)
        q = random_pmf(rng, n_in)
        jp = Joint.from_prior_channel(p, channel)
        jq = Joint.from_prior_channel(q, channel)
        bad = 0.0
        for theta in thetas:
            mix = Pmf(
                tuple(
                    theta * pw + (1 - theta) * qw
                    for pw, qw in zip(p.weights, q.weights)
                )
            )
            jm = Joint.from_prior_channel(mix, channel)
            for y in jm.support:
                lhs = pmc(jm, y).nats
                rhs = theta * pmc(jp, y).nats + (1 - theta) * pmc(jq, y).nats
                bad = max(bad, rhs - lhs)
        return bad

    return _tally("concavity", instances, tol, violation)


def check_pre_processing(seed: int, instances: int, tol: float) -> PropertyOutcome:
    """Leakage about a function of the secret never exceeds leakage about it."""
    rng = random.Random(seed)

    def violation() -> float:
        joint = random_joint(rng, rng.randint(2, 5), rng.randint(2, 5))
        n_in = joint.n_inputs
        n_z = rng.randint(2, 4)
        pre = random_channel(rng, n_in, n_z)
        inverted = Joint.from_prior_channel(joint.prior, pre)
        z_rows = []
        for z in range(n_z):
            post = inverted.posterior(z)
            z_rows.append(
                tuple(
                    sum(post[x] * joint.channel.rows[x][y] for x in range(n_in))
                    for y in range(joint.n_outputs)
                )
            )
        z_joint = Joint.from_prior_channel(Pmf(inverted.marginal), Channel(tuple(z_rows)))
        bad = 0.0
        for y in joint.support:
            bad = max(bad, pmc(z_joint, y).nats - pmc(joint, y).nats)
        return bad

    return _tally("pre_processing", instances, tol, violation)


def check_post_processing(seed: int, instances: int, tol: float) -> PropertyOutcome:
    """Post-processing the release cannot raise the worst-outcome cost."""
    rng = random.Random(seed)

    def violation() -> float:
        joint = random_joint(rng, rng.randint(2, 5), rng.randint(2, 5))
        post = random_channel(rng, joint.n_outputs, rng.randint(2, 4))
        processed = Joint.from_prior_channel(joint.prior, joint.channel.then(post))
        return max_realizable_cost(processed).nats - max_realizable_cost(joint).nats

    return _tally("post_processing", instances, tol, violation)


def check_composition(seed: int, instances: int, tol: float) -> PropertyOutcome:
    """Two-stage release: joint cost at (y1, y2) splits along the chain rule."""
    rng = random.Random(seed)

    def violation() -> float:
        n_x = rng.randint(2, 3)
        n_y1 = rng.randint(2, 3)
        n_y2 = rng.randint(2, 3)
        prior = random_pmf(rng, n_x)
        first = random_channel(rng, n_x, n_y1)
        second = {
            (x, y1): random_pmf(rng, n_y2).weights
            for x in range(n_x)
            for y1 in range(n_y1)
        }
        combined_rows = []
        for x in range(n_x):
            row = []
            for y1 in range(n_y1):
                for y2 in range(n_y2):
                    row.append(first.rows[x][y1] * second[(x, y1)][y2])
            combined_rows.append(tuple(row))
        combined = Joint.from_prior_channel(prior, Channel(tuple(combined_rows)))
        stage_one = Joint.from_prior_channel(prior, first)

        conditioned = {}
        for y1 in stage_one.support:
            post = stage_one.posterior(y1)
            conditioned[y1] = Joint.from_prior_channel(
                Pmf(post), Channel(tuple(second[(x, y1)] for x in range(n_x)))
            )

        bad = 0.0
        for y1 in stage_one.support:
            for y2 in conditioned[y1].support:
                lhs = pmc(combined, y1 * n_y2 + y2).nats
                rhs = (
                    pmc(stage_one, y1).nats
                    + conditional_pmc(conditioned, y2, y1).nats
                )
                bad = max(bad, lhs - rhs)
        return bad

    return _tally("composition", instances, tol, violation)


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
