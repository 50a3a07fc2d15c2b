"""Seeded random instances for property suites and oracle corpora.

Everything takes an explicit ``random.Random`` so runs are reproducible from
a single integer seed.  Exact-mode generators draw small-denominator
rationals; float generators keep entries away from zero unless zeros are
requested.  The kernel, cost and law generators load :mod:`infodens.oracles`
or :mod:`infodens.mechanisms` when called, so the property suite loads neither.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING

from .probcore import Channel, Joint, Pmf

if TYPE_CHECKING:
    from .mechanisms import BoundedLaw
    from .oracles import CostFunction, RandomizedFunction


#: The largest integer weight an exact generator draws before normalizing.
_MAX_WEIGHT = 24


def random_pmf(rng: random.Random, size: int, exact: bool = False) -> Pmf:
    if exact:
        return Pmf(tuple(Fraction(rng.randint(1, _MAX_WEIGHT)) for _ in range(size)))
    return Pmf(tuple(rng.uniform(0.1, 1.0) for _ in range(size)))


def random_channel(
    rng: random.Random,
    n_in: int,
    n_out: int,
    exact: bool = False,
    zero_prob: float = 0.0,
) -> Channel:
    """A random row-stochastic channel; ``zero_prob`` knocks out single entries.

    Each row keeps at least one positive entry.
    """
    rows = []
    for _ in range(n_in):
        while True:
            if exact:
                row = [Fraction(rng.randint(1, _MAX_WEIGHT)) for _ in range(n_out)]
            else:
                row = [rng.uniform(0.05, 1.0) for _ in range(n_out)]
            if zero_prob:
                row = [0 if rng.random() < zero_prob else e for e in row]
            if any(e > 0 for e in row):
                break
        total = sum(row)
        rows.append(tuple(e / total for e in row))
    return Channel(tuple(rows))


def random_joint(
    rng: random.Random,
    n_in: int,
    n_out: int,
    exact: bool = False,
    zero_prob: float = 0.0,
) -> Joint:
    prior = random_pmf(rng, n_in, exact=exact)
    channel = random_channel(rng, n_in, n_out, exact=exact, zero_prob=zero_prob)
    return Joint.from_prior_channel(prior, channel)


def random_kernel(
    rng: random.Random, n_in: int, n_out: int, exact: bool = False
) -> RandomizedFunction:
    from .oracles import RandomizedFunction

    ch = random_channel(rng, n_in, n_out, exact=exact)
    return RandomizedFunction(ch.rows)


def random_cost(
    rng: random.Random, n_x: int, n_w: int, zero_prob: float = 0.0
) -> CostFunction:
    from .oracles import CostFunction

    table = []
    for _ in range(n_x):
        table.append(
            tuple(
                0.0 if zero_prob and rng.random() < zero_prob else rng.uniform(0.0, 1.0)
                for _ in range(n_w)
            )
        )
    return CostFunction(tuple(table))


def random_bounded_law(
    rng: random.Random, lo: float, hi: float, interior_points: int = 3
) -> BoundedLaw:
    """A random finitely supported law on [lo, hi] with atoms at both endpoints."""
    from .mechanisms import discrete_law

    points = [lo, hi] + [rng.uniform(lo, hi) for _ in range(interior_points)]
    probs = [rng.uniform(0.1, 1.0) for _ in points]
    return discrete_law(points, probs)
