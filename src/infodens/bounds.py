"""Translation calculus between privacy guarantees.

All translations are context-aware: they take the smallest prior mass
``p_min`` as a parameter, so they can run standalone or be fed from a
:class:`~infodens.probcore.Pmf`.  Levels move through the ratio domain, so
rational inputs produce exact outputs.

The high-privacy regime is the set of PML levels below ``log 1/(1-p_min)``;
it is exactly the regime in which no channel entry may vanish and a PML
guarantee therefore caps the pointwise maximal cost.  At or beyond the
boundary the translated cost level is infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import InvalidPmin
from .probcore import INF, ZERO, ExtReal, Joint, Number, as_level, csv_field
from .leakage import Guarantee, GuaranteeKind, _guarantees, all_guarantee_levels


def _check_pmin(p_min: Number) -> Number:
    if isinstance(p_min, bool) or not isinstance(p_min, (int, float, Fraction)):
        raise InvalidPmin(f"p_min must be a number, got {type(p_min).__name__}")
    if isinstance(p_min, float) and not math.isfinite(p_min):
        raise InvalidPmin(f"p_min must be finite, got {p_min!r}")
    if isinstance(p_min, int):
        p_min = Fraction(p_min)
    if not 0 < p_min <= 1:
        raise InvalidPmin(f"p_min must lie in (0, 1], got {p_min!r}")
    return p_min


def high_privacy_bound(p_min: Number) -> ExtReal:
    """The PML level ``log 1/(1-p_min)`` below which cost translations are finite."""
    p = _check_pmin(p_min)
    if p == 1:
        return INF
    return ExtReal.from_ratio(1 / (1 - p))


def pml_to_pmc(eps_u, p_min: Number) -> ExtReal:
    """Cost level implied by a PML guarantee: ``log p/(1 - e^eps_u (1-p))``.

    Returns the infinite level at or beyond the high-privacy boundary, where
    a PML-compliant mechanism may already place zero probabilities.
    """
    p = _check_pmin(p_min)
    r = as_level(eps_u).ratio
    one_minus_p = 1 - p
    if one_minus_p == 0 or r == 1:
        return ZERO
    if r == math.inf:
        return INF
    t = r * one_minus_p
    if t >= 1:
        return INF
    return ExtReal.from_ratio(p / (1 - t))


def pmc_to_pml(eps_l, p_min: Number) -> ExtReal:
    """Leakage level implied by a cost guarantee: ``log (1 - e^-eps_l (1-p))/p``.

    Always finite; saturates at ``log 1/p`` as the cost level grows.
    """
    p = _check_pmin(p_min)
    r = as_level(eps_l).ratio
    if r == 1 or p == 1:
        return ZERO
    inv = Fraction(0) if r == math.inf else 1 / r
    return ExtReal.from_ratio((1 - inv * (1 - p)) / p)


def ldp_to_context(eps, p_min: Number) -> Tuple[ExtReal, ExtReal]:
    """Density bounds implied by an LDP guarantee for a specific prior.

    Returns ``(eps1, eps2)`` where ``eps1 = log(p + e^eps (1-p))`` bounds the
    density from below (the LIP / cost side) and
    ``eps2 = -log(p + e^-eps (1-p))`` bounds it from above (the leakage side).
    """
    p = _check_pmin(p_min)
    r = as_level(eps).ratio
    one_minus_p = 1 - p
    if one_minus_p == 0 or r == 1:
        return ZERO, ZERO
    if r == math.inf:
        return INF, ExtReal.from_ratio(1 / p)
    eps1 = ExtReal.from_ratio(p + r * one_minus_p)
    eps2 = ExtReal.from_ratio(1 / (p + one_minus_p / r))
    return eps1, eps2


def ldp_to_pmc(eps, p_min: Number) -> ExtReal:
    """Cost level implied by an LDP guarantee: ``log(e^eps - p (e^eps - 1))``.

    Algebraically this equals the lower density bound of
    :func:`ldp_to_context`; it is tight for binary randomized response under
    a uniform prior.
    """
    return ldp_to_context(eps, p_min)[0]


# ---------------------------------------------------------------------------
# Implication closure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TranslationResult:
    """One-step implication closure of a guarantee for a given prior floor."""

    source: Guarantee
    implied: tuple
    high_privacy: bool
    p_min: Number

    def to_dict(self, unit: str = "nats") -> dict:
        return {
            "source": self.source.to_dict(unit),
            "implied": [g.to_dict(unit) for g in self.implied],
            "high_privacy": self.high_privacy,
            "p_min": float(self.p_min),
        }


#: The guarantees each source kind implies, in output order.
_IMPLIED = {
    GuaranteeKind(source): tuple(GuaranteeKind(k) for k in implied.split())
    for source, implied in (
        ("pml", "pmc alip lip ldp"),
        ("pmc", "pml alip lip ldp"),
        ("ldp", "lip alip pml pmc"),
        ("lip", "alip pml pmc ldp"),
        ("alip", "pml pmc ldp"),
    )
}


def _density_bounds(g: Guarantee, p: Number) -> Tuple[ExtReal, ExtReal]:
    """The pair ``(eps_l, eps_u)`` bounding the information density under ``g``."""
    kind = g.kind
    if kind is GuaranteeKind.PML:
        return pml_to_pmc(g.eps, p), g.eps
    if kind is GuaranteeKind.PMC:
        return g.eps, pmc_to_pml(g.eps, p)
    if kind is GuaranteeKind.LDP:
        return ldp_to_context(g.eps, p)
    if kind is GuaranteeKind.LIP:
        return g.eps, g.eps
    if kind is GuaranteeKind.ALIP:
        return g.eps_l, g.eps_u
    raise ValueError(f"unknown guarantee kind: {kind!r}")  # pragma: no cover


def derive_implications(g: Guarantee, p_min: Number) -> TranslationResult:
    """Every guarantee one translation step away from ``g``.

    The source is read as density bounds ``(eps_l, eps_u)``; each implied
    level is read from that pair.  A PML source outside the high-privacy
    regime yields an infinite cost level; the result is flagged rather than
    rejected, and the dependent ALIP / LIP / LDP entries turn infinite (sound
    but vacuous).
    """
    p = _check_pmin(p_min)
    eps_l, eps_u = _density_bounds(g, p)
    # An LDP source bounds LIP by eps_l itself: its computed eps_u can round
    # an ulp above eps_l although eps_u <= eps_l holds exactly.
    lip = eps_l if g.kind is GuaranteeKind.LDP else max(eps_l, eps_u)
    levels = _guarantees(eps_l, eps_u, lip, eps_l + eps_u)
    implied = tuple(levels[k] for k in _IMPLIED[g.kind])
    high_privacy = g.kind is not GuaranteeKind.PML or eps_l.is_finite
    return TranslationResult(g, implied, high_privacy, p)


# ---------------------------------------------------------------------------
# Curve sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveTable:
    """Sampled translation curves for one prior floor.

    ``pml_to_pmc_rows`` tabulates the implied cost level over leakage levels
    inside the high-privacy interval (boundary excluded, where it diverges);
    ``pmc_to_pml_rows`` tabulates the reverse map over a matching range.  For
    a uniform binary prior the two curves are mutual inverses.
    """

    p_min: float
    pml_to_pmc_rows: tuple
    pmc_to_pml_rows: tuple

    def pml_to_pmc_csv(self, unit: str = "nats") -> str:
        header = "eps_u,eps_l_star" if unit == "nats" else "eps_u_bits,eps_l_star_bits"
        return _curve_csv(header, self.pml_to_pmc_rows, unit)

    def pmc_to_pml_csv(self, unit: str = "nats") -> str:
        header = "eps_l,eps_u_star" if unit == "nats" else "eps_l_bits,eps_u_star_bits"
        return _curve_csv(header, self.pmc_to_pml_rows, unit)


def _curve_csv(header: str, rows: tuple, unit: str) -> str:
    lines = [header]
    for a, b in rows:
        lines.append(f"{csv_field(a, unit)},{csv_field(b, unit)}")
    return "\n".join(lines) + "\n"


def sweep_curves(p_min: Number, steps: int) -> CurveTable:
    """Tabulate both translation curves on ``steps`` grid points.

    The leakage grid covers ``[0, log 1/(1-p_min))`` with the divergent
    boundary excluded; the cost grid covers ``[0, E]`` where ``E`` is the
    largest tabulated cost level, so the two tables mirror each other for a
    uniform binary prior.
    """
    p = _check_pmin(p_min)
    if not steps or steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps!r}")
    if p == 1:
        raise InvalidPmin("sweep needs p_min < 1; at p_min = 1 both curves vanish")
    pf = float(p)
    boundary = -math.log1p(-pf)
    eps_u_grid = [i * boundary / steps for i in range(steps)]
    up_rows = tuple((x, pml_to_pmc(x, pf).nats) for x in eps_u_grid)
    eps_l_max = up_rows[-1][1]
    eps_l_grid = [i * eps_l_max / (steps - 1) for i in range(steps)]
    down_rows = tuple((x, pmc_to_pml(x, pf).nats) for x in eps_l_grid)
    return CurveTable(pf, up_rows, down_rows)


# ---------------------------------------------------------------------------
# Boundedness equivalence on finite alphabets
# ---------------------------------------------------------------------------


def verify_boundedness_equivalence(joint: Joint) -> bool:
    """Check that finite worst-case cost, finite LDP and finite leakage align.

    On finite alphabets the worst-outcome cost level is finite exactly when
    the channel satisfies LDP with a finite parameter, and a finite cost
    level forces a finite leakage level.  Returns True when both hold.
    """
    levels = all_guarantee_levels(joint)
    pmc_finite = levels["pmc"].eps.is_finite
    ldp_finite = levels["ldp"].eps.is_finite
    pml_finite = levels["pml"].eps.is_finite
    if pmc_finite != ldp_finite:
        return False
    if pmc_finite and not pml_finite:
        return False
    return True
