"""Mechanism documents: the JSON format the CLI reads.

A raw document (``prior`` and ``channel``) becomes a :class:`Joint` without
loading :mod:`infodens.mechanisms`; a ``family`` document loads it to build
the mechanism it names.  :mod:`infodens.mechanisms` re-exports
:func:`parse_mechanism_doc` and :func:`joint_from_doc`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence, Union

from .errors import ParseError
from .probcore import Channel, ExtReal, Joint, Number, Pmf

if TYPE_CHECKING:
    from .mechanisms import GaussianPerturbMechanism, LaplaceMeanMechanism


def _to_float(value: Number, what: str) -> float:
    try:
        result = float(value)
    except OverflowError:
        raise ParseError(f"{what}: value beyond the float range") from None
    if result == 0 and value != 0:
        raise ParseError(f"{what}: value below the float range")
    return result


def coerce_probability(value, what: str, exact: bool = False) -> Number:
    """Read a probability-like JSON value; rejects NaN and negatives.

    In exact mode, ints, decimal strings and "a/b" strings become Fractions;
    floats are converted through their shortest decimal representation so
    that a document written as 0.3 really means 3/10.  In float mode a
    positive string that rounds to 0.0 is rejected; a JSON float
    literal such as ``1e-400`` is already 0.0 when ``json`` parses it, so
    that case cannot be caught here.
    """
    if isinstance(value, bool):
        raise ParseError(f"{what}: booleans are not numbers")
    if isinstance(value, str):
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{what}: cannot parse {value!r} as a rational") from None
        value = frac if exact else _to_float(frac, what)
    elif isinstance(value, int):
        value = Fraction(value) if exact else _to_float(value, what)
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ParseError(f"{what}: non-finite value {value!r}")
        if exact:
            value = Fraction(str(value))
    else:
        raise ParseError(f"{what}: expected a number, got {type(value).__name__}")
    if value < 0:
        raise ParseError(f"{what}: negative value {value!r}")
    return value


def _doc_number(value, what: str, kind=(int, float)):
    """Read a finite JSON number, or an integer when ``kind`` is ``int``.

    Booleans are neither; NaN, infinities and integers beyond the float range
    are rejected.
    """
    finite = isinstance(value, kind) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ParseError(f"{what} must be {'an integer' if kind is int else 'a finite number'}")
    return value


def _doc_vector(raw, what: str, exact: bool, message: str) -> tuple:
    """Read an array of probabilities, entry i named ``what[i]``; a non-array raises ``message``."""
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise ParseError(message)
    return tuple(coerce_probability(v, f"{what}[{i}]", exact) for i, v in enumerate(raw))


def _doc_prior(raw, exact: bool) -> Pmf:
    """Read a document's ``prior``: an array of probabilities."""
    return Pmf(_doc_vector(raw, "prior", exact, "'prior' must be an array of numbers"))


def _doc_level(doc: Mapping, what: str, exact: bool):
    """Read a privacy level from a document: nats, or a rational ratio."""
    if "eps_ratio" in doc:
        ratio = coerce_probability(doc["eps_ratio"], f"{what}.eps_ratio", exact=True)
        if ratio < 1:
            raise ParseError(f"{what}.eps_ratio must be at least 1")
        return ExtReal.from_ratio(ratio if exact else _to_float(ratio, f"{what}.eps_ratio"))
    if "eps_nats" in doc:
        value = _doc_number(doc["eps_nats"], f"{what}.eps_nats")
        if not value >= 0:
            raise ParseError(f"{what}.eps_nats must be non-negative")
        return ExtReal.from_nats(float(value))
    raise ParseError(f"{what} needs eps_nats or eps_ratio")


def joint_from_doc(doc: Mapping, exact: bool = False) -> Joint:
    """Build a Joint from a ``{"prior": [...], "channel": [[...], ...]}`` document."""
    if not isinstance(doc, Mapping):
        raise ParseError("mechanism document must be a JSON object")
    try:
        prior_raw = doc["prior"]
        channel_raw = doc["channel"]
    except KeyError as missing:
        raise ParseError(f"missing field {missing.args[0]!r}") from None
    prior = _doc_prior(prior_raw, exact)
    if not isinstance(channel_raw, Sequence):
        raise ParseError("'channel' must be an array of rows")
    rows = tuple(
        _doc_vector(row, f"channel[{i}]", exact, f"channel row {i} must be an array")
        for i, row in enumerate(channel_raw)
    )
    return Joint.from_prior_channel(prior, Channel(rows))


def parse_mechanism_doc(
    doc: Mapping, exact: bool = False
) -> Union[Joint, LaplaceMeanMechanism, GaussianPerturbMechanism]:
    """Turn a mechanism document into a Joint or a continuous mechanism.

    Raw documents carry ``prior`` and ``channel``; family documents carry a
    ``family`` tag: ``rr`` (needs ``n``, a level and a ``prior``),
    ``extremal`` (needs ``prior`` and a level), ``laplace_mean`` (needs
    ``interval``, ``count``, ``scale``) or ``gaussian`` (needs ``amplitude``
    and ``sigma``).  Continuous families take uniform input laws here;
    custom laws are API-only.
    """
    if not isinstance(doc, Mapping):
        raise ParseError("mechanism document must be a JSON object")
    family = doc.get("family")
    if family is None:
        return joint_from_doc(doc, exact=exact)
    from . import mechanisms

    if family == "rr":
        n = doc.get("n")
        if not isinstance(n, int) or isinstance(n, bool):
            raise ParseError("rr document needs an integer alphabet size 'n'")
        level = _doc_level(doc, "rr", exact)
        if "prior" not in doc:
            raise ParseError("rr document needs a 'prior' to analyze leakage")
        prior = _doc_prior(doc["prior"], exact)
        if len(prior) != n:
            raise ParseError(f"rr prior has {len(prior)} outcomes, expected n = {n}")
        return Joint.from_prior_channel(prior, mechanisms.randomized_response(n, level))
    if family == "extremal":
        if "prior" not in doc:
            raise ParseError("extremal document needs a 'prior'")
        prior = _doc_prior(doc["prior"], exact)
        level = _doc_level(doc, "extremal", exact)
        return Joint.from_prior_channel(prior, mechanisms.extremal_mechanism(prior, level))
    if family == "laplace_mean":
        try:
            lo, hi = doc["interval"]
            count = doc["count"]
            scale = doc["scale"]
        except (KeyError, TypeError, ValueError):
            raise ParseError(
                "laplace_mean document needs 'interval' [lo, hi], 'count' and 'scale'"
            ) from None
        return mechanisms.LaplaceMeanMechanism(
            float(_doc_number(lo, "laplace_mean.interval[0]")),
            float(_doc_number(hi, "laplace_mean.interval[1]")),
            _doc_number(count, "laplace_mean.count", int),
            float(_doc_number(scale, "laplace_mean.scale")),
        )
    if family == "gaussian":
        try:
            amp = doc["amplitude"]
            sigma = doc["sigma"]
        except KeyError:
            raise ParseError("gaussian document needs 'amplitude' and 'sigma'") from None
        return mechanisms.GaussianPerturbMechanism(
            float(_doc_number(amp, "gaussian.amplitude")),
            float(_doc_number(sigma, "gaussian.sigma")),
        )
    raise ParseError(f"unknown mechanism family {family!r}")
