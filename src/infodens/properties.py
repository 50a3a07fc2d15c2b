"""Randomized property suite for the pointwise cost measure.

Each check draws seeded random instances and verifies one structural
property of the measure: non-negativity, vanishing under independence,
additivity over products, concavity in the prior, the two data-processing
directions, and the chain rule for two-stage releases.  The CLI ``props``
subcommand and the acceptance suite both run these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Sequence

from .leakage import conditional_pmc, max_realizable_cost, pmc, pml
from .probcore import Channel, Joint, Pmf
from .sampling import random_channel, random_pmf


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


def _random_joint(rng: random.Random, zero_prob: float = 0.0) -> Joint:
    n_in = rng.randint(2, 5)
    n_out = rng.randint(2, 5)
    prior = random_pmf(rng, n_in)
    channel = random_channel(rng, n_in, n_out, zero_prob=zero_prob)
    return Joint.from_prior_channel(prior, channel)


def check_non_negativity(seed: int, instances: int, tol: float) -> PropertyOutcome:
    rng = random.Random(seed)
    failures, worst = 0, 0.0
    for _ in range(instances):
        joint = _random_joint(rng, zero_prob=0.2)
        bad = 0.0
        for y in joint.support:
            for level in (pmc(joint, y), pml(joint, y)):
                if level.is_finite and level.nats < -tol:
                    bad = max(bad, -level.nats)
        if bad > 0:
            failures += 1
            worst = max(worst, bad)
    return PropertyOutcome("non_negativity", instances, failures, worst)


def check_independence_zero(seed: int, instances: int, tol: float) -> PropertyOutcome:
    rng = random.Random(seed)
    failures, worst = 0, 0.0
    for _ in range(instances):
        n_in = rng.randint(2, 5)
        n_out = rng.randint(2, 5)
        row = random_pmf(rng, n_out).weights
        joint = Joint.from_prior_channel(
            random_pmf(rng, n_in), Channel(tuple(row for _ in range(n_in)))
        )
        bad = max(
            max(abs(pmc(joint, y).nats), abs(pml(joint, y).nats))
            for y in joint.support
        )
        if bad > tol:
            failures += 1
            worst = max(worst, bad)
    return PropertyOutcome("independence_zero", instances, failures, worst)


def check_additivity(seed: int, instances: int, tol: float) -> PropertyOutcome:
    rng = random.Random(seed)
    failures, worst = 0, 0.0
    for _ in range(instances):
        a = _random_joint(rng)
        b = _random_joint(rng)
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
        if bad > tol:
            failures += 1
            worst = max(worst, bad)
    return PropertyOutcome("additivity", instances, failures, worst)


def check_concavity(seed: int, instances: int, tol: float) -> PropertyOutcome:
    """Cost at a mixed prior dominates the mixture of costs, on a theta grid."""
    rng = random.Random(seed)
    failures, worst = 0, 0.0
    thetas = [i / 10 for i in range(11)]
    for _ in range(instances):
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
        if bad > tol:
            failures += 1
            worst = max(worst, bad)
    return PropertyOutcome("concavity", instances, failures, worst)


def check_pre_processing(seed: int, instances: int, tol: float) -> PropertyOutcome:
    """Leakage about a function of the secret never exceeds leakage about it."""
    rng = random.Random(seed)
    failures, worst = 0, 0.0
    for _ in range(instances):
        joint = _random_joint(rng)
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
        if bad > tol:
            failures += 1
            worst = max(worst, bad)
    return PropertyOutcome("pre_processing", instances, failures, worst)


def check_post_processing(seed: int, instances: int, tol: float) -> PropertyOutcome:
    """Post-processing the release cannot raise the worst-outcome cost."""
    rng = random.Random(seed)
    failures, worst = 0, 0.0
    for _ in range(instances):
        joint = _random_joint(rng)
        post = random_channel(rng, joint.n_outputs, rng.randint(2, 4))
        processed = Joint.from_prior_channel(joint.prior, joint.channel.then(post))
        before = max_realizable_cost(joint).nats
        after = max_realizable_cost(processed).nats
        if after - before > tol:
            failures += 1
            worst = max(worst, after - before)
    return PropertyOutcome("post_processing", instances, failures, worst)


def check_composition(seed: int, instances: int, tol: float) -> PropertyOutcome:
    """Two-stage release: joint cost at (y1, y2) splits along the chain rule."""
    rng = random.Random(seed)
    failures, worst = 0, 0.0
    for _ in range(instances):
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
        if bad > tol:
            failures += 1
            worst = max(worst, bad)
    return PropertyOutcome("composition", instances, failures, worst)


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
    """Run every property check on its own derived seed."""
    return [
        check(seed * 7919 + index, instances, tol)
        for index, check in enumerate(_CHECKS)
    ]
