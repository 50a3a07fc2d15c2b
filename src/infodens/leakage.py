"""Leakage measures of a finite joint distribution.

Everything here is an order-infinity divergence between the prior and a
posterior (or between kernel rows), and each reduces to the output marginal
and the smallest and largest channel entry of a column, read from the one
table :attr:`Channel.column_ends` (in ints for an exact joint, see :class:`Joint`):

* ``pmc``  -- pointwise maximal cost, the largest multiplicative drop in a
  risk-averse adversary's minimal expected cost after seeing one outcome;
  equals minus the minimum information density over the secret alphabet.
* ``pml``  -- pointwise maximal leakage, the opportunistic counterpart;
  equals the maximum information density.
* ``guarantee_level`` -- the smallest parameter for which a joint satisfies
  a PML / PMC / LIP / ALIP / LDP guarantee.
* ``max_cost_leakage`` / ``max_realizable_cost`` -- the average-outcome and
  worst-outcome aggregates of the risk-averse leakage.

Essential suprema over outcomes are maxima over the support of the output
marginal; outcomes with zero mass never contribute.

The per-outcome rows (:attr:`Joint.profile_rows`), their worst PMC and PML
(:attr:`Joint.worst_levels`) and the LDP level (:attr:`Joint.ldp_level`) are
reduced once per joint: the guarantee levels, the profile and the worst- and
average-outcome aggregates all read them from there.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .errors import UndefinedOutcome
from .probcore import (
    ExtReal, Joint, OutcomeLeakage, _check_outcome, _pmc_level, _pml_level,
    as_level, csv_field, in_unit,
)


# ---------------------------------------------------------------------------
# Pointwise measures
# ---------------------------------------------------------------------------


def pmc(joint: Joint, y: int) -> ExtReal:
    """Pointwise maximal cost of releasing outcome ``y``.

    ``log max_x P(x) / P(x|y)``, which simplifies to the marginal mass of
    ``y`` over the smallest channel entry in its column.  Infinite exactly
    when some channel entry in the column is zero (the adversary can then be
    certain some secret value did not occur).
    """
    _check_outcome(joint, y)
    masses, ends = joint.outcome_ends
    return _pmc_level(masses[y], ends[y][0])


def pml(joint: Joint, y: int) -> ExtReal:
    """Pointwise maximal leakage of releasing outcome ``y``.

    ``log max_x P(x|y) / P(x)``; always finite for a full-support prior.
    """
    _check_outcome(joint, y)
    masses, ends = joint.outcome_ends
    return _pml_level(masses[y], ends[y][1])


def conditional_pmc(
    joints_by_z: Union[Mapping[int, Joint], Sequence[Joint]], y: int, z: int
) -> ExtReal:
    """Pointwise maximal cost given side information ``z``.

    ``joints_by_z`` maps each side-information outcome to the joint of the
    secret and the mechanism conditioned on it (prior ``P(x|z)``, channel
    ``P(y|x,z)``).  The value is the divergence of the z-conditioned prior
    from the (y, z)-conditioned posterior.
    """
    if isinstance(z, bool) or not isinstance(z, int) or z < 0:
        raise UndefinedOutcome(f"side information {z!r} is not an index")
    try:
        conditioned = joints_by_z[z]
    except (KeyError, IndexError):
        raise UndefinedOutcome(f"no conditioned joint for side information {z}") from None
    return pmc(conditioned, y)


# ---------------------------------------------------------------------------
# Guarantees
# ---------------------------------------------------------------------------


class GuaranteeKind(enum.Enum):
    PML = "pml"
    PMC = "pmc"
    LIP = "lip"
    ALIP = "alip"
    LDP = "ldp"


@dataclass(frozen=True)
class Guarantee:
    """A tagged privacy level.

    Single-parameter kinds carry ``eps``; ALIP carries the pair
    ``(eps_l, eps_u)`` bounding the information density from below and above.
    """

    kind: GuaranteeKind
    eps: Optional[ExtReal] = None
    eps_l: Optional[ExtReal] = None
    eps_u: Optional[ExtReal] = None

    def __post_init__(self):
        if self.kind is GuaranteeKind.ALIP:
            if self.eps is not None or self.eps_l is None or self.eps_u is None:
                raise ValueError("ALIP takes exactly (eps_l, eps_u)")
        else:
            if self.eps is None or self.eps_l is not None or self.eps_u is not None:
                raise ValueError(f"{self.kind.value} takes a single eps")

    @staticmethod
    def pml(eps) -> "Guarantee":
        return Guarantee(GuaranteeKind.PML, eps=as_level(eps))

    @staticmethod
    def pmc(eps) -> "Guarantee":
        return Guarantee(GuaranteeKind.PMC, eps=as_level(eps))

    @staticmethod
    def lip(eps) -> "Guarantee":
        return Guarantee(GuaranteeKind.LIP, eps=as_level(eps))

    @staticmethod
    def ldp(eps) -> "Guarantee":
        return Guarantee(GuaranteeKind.LDP, eps=as_level(eps))

    @staticmethod
    def alip(eps_l, eps_u) -> "Guarantee":
        return Guarantee(GuaranteeKind.ALIP, eps_l=as_level(eps_l), eps_u=as_level(eps_u))

    def to_dict(self, unit: str = "nats") -> dict:
        if self.kind is GuaranteeKind.ALIP:
            return {
                "kind": "alip",
                f"eps_l_{unit}": format_level(self.eps_l, unit),
                f"eps_u_{unit}": format_level(self.eps_u, unit),
            }
        return {"kind": self.kind.value, f"eps_{unit}": format_level(self.eps, unit)}


def format_level(level: ExtReal, unit: str = "nats"):
    """Render a level as a JSON-safe value; +inf becomes the token "inf"."""
    value = in_unit(level.nats, unit)
    return "inf" if value == math.inf else value


def guarantee_level(joint: Joint, kind: Union[GuaranteeKind, str]) -> Guarantee:
    """Smallest parameter for which the joint satisfies the given guarantee."""
    kind = GuaranteeKind(kind.lower() if isinstance(kind, str) else kind)
    return all_guarantee_levels(joint)[kind.value]


def _guarantees(eps_l: ExtReal, eps_u: ExtReal, lip: ExtReal, ldp: ExtReal) -> dict:
    """Each kind's guarantee under density bounds ``-eps_l <= i <= eps_u``, keyed by kind name.

    PMC takes eps_l, PML eps_u and ALIP both; the caller supplies LIP and LDP.
    """
    return {
        "pml": Guarantee(GuaranteeKind.PML, eps=eps_u),
        "pmc": Guarantee(GuaranteeKind.PMC, eps=eps_l),
        "lip": Guarantee(GuaranteeKind.LIP, eps=lip),
        "alip": Guarantee(GuaranteeKind.ALIP, eps_l=eps_l, eps_u=eps_u),
        "ldp": Guarantee(GuaranteeKind.LDP, eps=ldp),
    }


def all_guarantee_levels(joint: Joint) -> dict:
    """All five guarantee levels at once, keyed by kind name."""
    eps_l, eps_u = joint.worst_levels
    return _guarantees(eps_l, eps_u, max(eps_l, eps_u), joint.ldp_level)


# ---------------------------------------------------------------------------
# Aggregates over outcomes
# ---------------------------------------------------------------------------


def max_cost_leakage(joint: Joint) -> ExtReal:
    """Average-outcome risk-averse leakage: ``-log sum_y min_x P(y|x)``.

    Infinite when every column of the channel contains a zero.  Always at
    most the expected pointwise maximal cost, with equality only when the
    pointwise values are constant over the support (Jensen gap).
    """
    # 1 / sum_y lo_y in units of 1 / scale; a plain left-to-right sum, as Python 3.12's sum() compensates floats
    lows, _, scale = joint.channel.column_ends
    return _pmc_level(scale, functools.reduce(operator.add, lows))


def max_realizable_cost(joint: Joint) -> ExtReal:
    """Worst-outcome risk-averse leakage: the largest pointwise maximal cost."""
    return joint.worst_levels[0]


def expected_pmc(joint: Joint) -> float:
    """Expected pointwise maximal cost over the output marginal, in nats."""
    acc = 0.0
    for r in joint.profile_rows:
        if not r.pmc.is_finite:
            return math.inf
        acc += r.mass * r.pmc.nats
    return acc


# ---------------------------------------------------------------------------
# Per-outcome profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeakageProfile:
    """Per-outcome leakage over the support of the output marginal: :class:`OutcomeLeakage` rows."""

    rows: tuple

    CSV_HEADER = "y,P_Y,pmc_nats,pml_nats,info_density_min,info_density_max"
    CSV_HEADER_BITS = "y,P_Y,pmc_bits,pml_bits,info_density_min_bits,info_density_max_bits"

    def to_csv(self, unit: str = "nats") -> str:
        lines = [self.CSV_HEADER if unit == "nats" else self.CSV_HEADER_BITS]
        for r in self.rows:
            fields = [
                str(r.y),
                repr(r.mass),
                csv_field(r.pmc.nats, unit),
                csv_field(r.pml.nats, unit),
                csv_field(r.info_density_min, unit),
                csv_field(r.info_density_max, unit),
            ]
            lines.append(",".join(fields))
        return "\n".join(lines) + "\n"


def leakage_profile(joint: Joint) -> LeakageProfile:
    return LeakageProfile(joint.profile_rows)
