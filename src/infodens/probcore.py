"""Finite probability primitives shared by every leakage computation.

Two numeric backends coexist:

* IEEE doubles (default) for sweeps and sampled searches;
* exact rationals (``fractions.Fraction``) for equality checks against
  brute-force adversary searches.

Integer entries are promoted to ``Fraction``, so matrices written with
integer and rational literals stay exact end to end.  A float anywhere in a
row degrades that row to float arithmetic, which is the intended escape
hatch for large sweeps.

Levels and divergences live in the log domain (nats) but are keyed by their
exponential (the "ratio"), carried by :class:`ExtReal`.  Storing the ratio
keeps rational computations exact: ``log 2`` is irrational, but two levels
built from rational data compare exactly through their ratios.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence, Union

from .errors import (
    DimensionMismatch,
    EmptySupport,
    ParseError,
    StochasticityError,
    UndefinedOutcome,
    ZeroOrNegativeWeight,
)

Number = Union[int, float, Fraction]

#: Absolute tolerance for accepting (and silently renormalizing) a kernel row.
ROW_SUM_TOL = 1e-12

_LN2 = math.log(2.0)


# JSON values divide by ln 2 (in_unit) and CSV fields multiply by 1/ln 2
# (csv_field).  The two round differently for about a third of all values,
# and the recorded bits outputs pin both, so each format keeps its own rule.


def in_unit(nats: float, unit: str) -> float:
    """A value in nats shown in ``unit``, "nats" or "bits"; +inf stays +inf."""
    return nats if unit == "nats" else nats / _LN2


def csv_field(nats: float, unit: str) -> str:
    """A value in nats as a CSV field in ``unit``: ``repr``, so "inf" and "-inf" too."""
    return repr(nats * (1.0 if unit == "nats" else 1.0 / _LN2))


# ---------------------------------------------------------------------------
# Read-only values
# ---------------------------------------------------------------------------


class _Frozen:
    """A read-only value named by its fields ``_compared``.

    Equal only to an instance of the very same class whose compared fields are equal; hashed by
    and printed as ``Name(field=value, ...)`` with those fields.  Assignment and deletion raise
    ``AttributeError``, so each ``__init__`` sets its fields with ``object.__setattr__``.
    """

    __slots__ = ()
    _compared: tuple = ()

    def _fill(self, *values) -> None:
        """Set the compared fields, in order, to ``values``."""
        for name, value in zip(self._compared, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._compared)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__


# ---------------------------------------------------------------------------
# Extended non-negative reals in the log domain
# ---------------------------------------------------------------------------


class ExtReal(_Frozen):
    """A level in nats, finite or +infinity, keyed by its exponential.

    ``ExtReal.from_ratio(Fraction(3, 2))`` is the exact level ``log 1.5``;
    ``ExtReal.from_nats(0.3)`` is a float-backed level.  Addition of levels
    multiplies ratios, so sums of exact levels stay exact.  A read-only value
    whose order, equality and hash are those of the stored ratio, and so exact
    whenever both operands are rational-backed; it orders only against another ``ExtReal``.
    """

    __slots__ = ("ratio",)

    def __init__(self, ratio: Number):
        if type(ratio) is Fraction and ratio.numerator > 0:  # an exact level; skips the ABC check in ``ratio <= 0``
            object.__setattr__(self, "ratio", ratio)
            return
        if isinstance(ratio, bool):
            raise TypeError("ratio must be a number, not bool")
        if isinstance(ratio, int):
            ratio = Fraction(ratio)
        if isinstance(ratio, float):
            if math.isnan(ratio):
                raise ValueError("ratio must not be NaN")
            if ratio != math.inf and ratio <= 0.0:
                raise ValueError(f"ratio must be positive or +inf, got {ratio!r}")
        elif isinstance(ratio, Fraction):
            if ratio <= 0:
                raise ValueError(f"ratio must be positive, got {ratio!r}")
        else:
            raise TypeError(f"unsupported ratio type: {type(ratio).__name__}")
        object.__setattr__(self, "ratio", ratio)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_ratio(cls, ratio: Number) -> "ExtReal":
        """Level whose exponential is ``ratio`` (exact for rationals)."""
        return cls(ratio)

    @classmethod
    def from_nats(cls, nats: float) -> "ExtReal":
        """Float-backed level of ``nats`` nats; ``math.inf`` allowed."""
        if isinstance(nats, bool) or not isinstance(nats, (int, float)):
            raise TypeError("nats must be a real number")
        nats = float(nats)
        if math.isnan(nats):
            raise ValueError("nats must not be NaN")
        if nats == math.inf:
            return cls(math.inf)
        if nats == 0.0:
            return cls(Fraction(1))
        try:
            return cls(math.exp(nats))
        except OverflowError:
            return cls(math.inf)

    # -- views ---------------------------------------------------------------

    @property
    def nats(self) -> float:
        """The level as a float in nats (+inf for the infinite level)."""
        r = self.ratio
        if isinstance(r, float):
            return math.log(r)
        # n / d is a correctly rounded int quotient; r - 1 is exact in ints, so near 1 nothing cancels.
        n, d = r.numerator, r.denominator
        if d < 2 * n < 4 * d:
            return math.log1p((n - d) / d)
        if -1021 <= n.bit_length() - d.bit_length() <= 1022:  # n / d is a normal float
            return math.log(n / d)
        return math.log(n) - math.log(d)  # math.log takes any int, and so far from 1 the logs do not cancel

    @property
    def bits(self) -> float:
        return in_unit(self.nats, "bits")

    @property
    def is_finite(self) -> bool:
        # only a float ratio can be infinite; comparing a Fraction with math.inf costs microseconds
        return not isinstance(self.ratio, float) or self.ratio != math.inf

    @property
    def is_exact(self) -> bool:
        return isinstance(self.ratio, Fraction)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "ExtReal") -> "ExtReal":
        if not isinstance(other, ExtReal):
            return NotImplemented
        if self.ratio == math.inf or other.ratio == math.inf:
            return ExtReal(math.inf)
        return ExtReal(self.ratio * other.ratio)

    # -- equality and order: of the ratios, against another ExtReal only ----

    def __eq__(self, other):
        return self.ratio == other.ratio if other.__class__ is ExtReal else NotImplemented
    def __lt__(self, other):
        return self.ratio < other.ratio if other.__class__ is ExtReal else NotImplemented
    def __le__(self, other):
        return self.ratio <= other.ratio if other.__class__ is ExtReal else NotImplemented
    def __gt__(self, other):
        return self.ratio > other.ratio if other.__class__ is ExtReal else NotImplemented
    def __ge__(self, other):
        return self.ratio >= other.ratio if other.__class__ is ExtReal else NotImplemented

    def __hash__(self) -> int:
        return hash(self.ratio)

    def __reduce__(self):  # copy and pickle through __init__, as a slot is never assigned
        return ExtReal, (self.ratio,)

    def __repr__(self) -> str:
        if self.ratio == math.inf:
            return "ExtReal(inf)"
        return f"ExtReal(nats={self.nats!r}, ratio={self.ratio!r})"


#: The zero level (ratio one).
ZERO = ExtReal.from_ratio(Fraction(1))
#: The infinite level.
INF = ExtReal(math.inf)


def as_level(value: Union[ExtReal, int, float]) -> ExtReal:
    """Coerce a user-supplied privacy level to :class:`ExtReal`.

    Plain numbers are read as nats.  Exact rational levels must be built
    explicitly via ``ExtReal.from_ratio`` because a bare ``Fraction`` would
    be ambiguous between the log and ratio domains.
    """
    if isinstance(value, ExtReal):
        return value
    if isinstance(value, bool) or isinstance(value, Fraction):
        raise TypeError(
            "pass nats as int/float, or an exact level via ExtReal.from_ratio"
        )
    if isinstance(value, (int, float)):
        if math.isnan(value):
            raise ValueError("level must not be NaN")
        if value < 0:
            raise ValueError(f"level must be non-negative, got {value!r}")
        return ExtReal.from_nats(float(value))
    raise TypeError(f"unsupported level type: {type(value).__name__}")


# ---------------------------------------------------------------------------
# Entry validation helpers
# ---------------------------------------------------------------------------


def _check_entry(value: Number, what: str) -> Number:
    if type(value) is Fraction or type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise ParseError(f"{what} must be a number, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    return value


def _int_masses(vectors: Sequence[Sequence[Fraction]]) -> tuple:
    """``(ints, scale)``: the ``Fraction`` vectors in integer units of ``1 / scale``.

    ``scale`` is the LCM of every denominator, so ``ints[i][j] == vectors[i][j]
    * scale`` exactly.  Each entry's ``as_integer_ratio()`` is read once, ``scale // d``
    once per distinct ``d``.  Python ints never overflow, however far the denominators grow.
    """
    ratios = [[e.as_integer_ratio() for e in v] for v in vectors]
    scale = math.lcm(*(dens := {d for r in ratios for _, d in r}))
    factor = {d: scale // d for d in dens}
    return [[n * factor[d] for n, d in r] for r in ratios], scale


def _sum_ints(entries: Sequence[Number]) -> tuple:
    """``(total, ints)``: the sum, and ``(ints, scale)`` (:func:`_int_masses`) or None for a float."""
    if any(isinstance(e, float) for e in entries):
        return math.fsum(entries), None
    (ints,), scale = _int_masses((entries,))
    # Over one common denominator: the same canonical Fraction as a running sum.
    return Fraction(sum(ints), scale), (ints, scale)


def _sum_entries(entries: Sequence[Number]) -> Number:
    return _sum_ints(entries)[0]


def _sum_text(total: Number) -> str:
    """``repr(total)``; past 40 characters ``%.6g``, or ``~1e+400`` from 1e±308 on (the float range)."""
    if len(repr(total)) <= 40:
        return repr(total)
    exponent = math.log10(total.numerator) - math.log10(total.denominator)
    return f"{float(total):.6g}" if abs(exponent) < 308 else f"~1e{round(exponent):+d}"


def _normalize_row(row: tuple, i: int, width: int) -> tuple:
    """Channel row ``i`` checked to hold ``width`` entries that sum to 1 within tolerance, and renormalised."""
    if len(row) != width:
        raise DimensionMismatch(f"row {i} has {len(row)} entries, expected {width}")
    what = f"channel row {i}"
    entries = tuple(_check_entry(e, what) for e in row)
    if not entries:
        raise EmptySupport(f"{what}: empty row")
    for e in entries:
        if e < 0:
            raise ParseError(f"{what}: negative entry {e!r}")
    try:
        total = _sum_entries(entries)
    except OverflowError:
        raise StochasticityError(f"{what}: row sums beyond the float range") from None
    if total <= 0:
        raise StochasticityError(f"{what}: row sums to {_sum_text(total)}")
    if abs(total - 1) > ROW_SUM_TOL:
        raise StochasticityError(f"{what}: row sums to {_sum_text(total)}, expected 1")
    return entries if total == 1 else tuple(e / total for e in entries)


def _table(raw: tuple):
    """The ``Channel`` fields of an all-``float`` or all-``Fraction`` matrix that passes every row check, else None.

    A ``Fraction`` matrix is scaled to ints once and kept as given when every row sums to
    exactly 1: ``rows`` and ``_int_columns``.  A ``float`` one keeps ``rows`` (renormalised),
    ``columns`` and their minima, ``_float_lows``.
    """
    width = len(raw[0])
    if (not width or (kind := type(raw[0][0])) not in (float, Fraction) or any(len(r) != width for r in raw)
            or set(map(type, chain.from_iterable(raw))) != {kind}):
        return None
    if kind is Fraction:
        ints, scale = _int_masses(raw)
        if min(map(min, ints)) < 0 or any(sum(r) != scale for r in ints):
            return None
        return {"rows": raw, "_int_columns": (list(zip(*ints)), scale)}
    try:
        totals = list(map(math.fsum, raw))
    except (OverflowError, ValueError):
        return None
    if not all(abs(t - 1) <= ROW_SUM_TOL for t in totals):  # a NaN or infinite total fails too
        return None
    rows = tuple(r if t == 1 else tuple(e / t for e in r) for r, t in zip(raw, totals))
    lows = list(map(min, cols := tuple(zip(*rows))))
    return {"rows": rows, "columns": cols, "_float_lows": lows} if min(lows) >= 0 else None  # the minima check the signs


# ---------------------------------------------------------------------------
# Pmf
# ---------------------------------------------------------------------------


class Pmf(_Frozen):
    """A full-support probability mass function over a finite alphabet.

    Positive weights are normalized to sum to one (exactly when they are all
    rational).  Zero weights are rejected: every downstream measure assumes
    each secret value is possible a priori.  Each weight is checked on its own
    (:func:`_check_entry`) and the sum read once with the weights' ``ints``
    (:func:`_sum_ints`), kept as ``_int_weights``.
    """

    _compared = ("weights",)

    def __init__(self, weights: tuple):
        entries = []
        for w in weights:
            w = _check_entry(w, "pmf weight")
            if w <= 0:
                raise ZeroOrNegativeWeight(f"weight {w!r} breaks full support")
            entries.append(w)
        if not entries:
            raise EmptySupport("a pmf needs at least one outcome")
        try:
            total, ints = _sum_ints(entries)
        except OverflowError:
            raise ParseError("pmf weights sum beyond the float range") from None
        if total != 1:
            entries = [w / total for w in entries]
            ints = ints and _sum_ints(entries)[1]
        object.__setattr__(self, "weights", tuple(entries))
        object.__setattr__(self, "_int_weights", ints)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, x: int) -> Number:
        return self.weights[x]

    def __iter__(self):
        return iter(self.weights)

    @property
    def p_min(self) -> Number:
        """The smallest mass; it sets every context-aware translation constant."""
        return min(self.weights)

    @property
    def is_exact(self) -> bool:
        return self._int_weights is not None

    @staticmethod
    def uniform(n: int, exact: bool = True) -> "Pmf":
        if n < 1:
            raise EmptySupport("uniform pmf needs n >= 1")
        w = Fraction(1, n) if exact else 1.0 / n
        return Pmf((w,) * n)


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------


class Channel(_Frozen):
    """A row-stochastic transition kernel; rows may contain zeros.

    Rows are validated to sum to one within ``ROW_SUM_TOL`` and silently
    renormalized inside that tolerance; anything further off is rejected.
    An all-``float`` or all-``Fraction`` matrix is checked as one table (:func:`_table`);
    any other, or one failing there, goes row by row, so errors come in row order.  A float
    table keeps :attr:`columns` and their minima, ``_float_lows``; ``_int_columns`` holds
    the columns in ints over the LCM of every denominator, ``(ints, scale)``, or None for
    any float.  Every level reads the column ends of :attr:`column_ends`.
    """

    _compared = ("rows",)
    _int_columns = _float_lows = None

    def __init__(self, rows: tuple):
        raw = tuple(tuple(r) for r in rows)
        if not raw:
            raise EmptySupport("a channel needs at least one input row")
        if table := _table(raw):  # a float table seeds the cached_property "columns" in the instance dict
            for name, value in table.items():
                object.__setattr__(self, name, value)
            return
        rows = tuple(_normalize_row(row, i, len(raw[0])) for i, row in enumerate(raw))
        object.__setattr__(self, "rows", rows)
        if not any(isinstance(e, float) for r in rows for e in r):
            ints, scale = _int_masses(rows)
            object.__setattr__(self, "_int_columns", (list(zip(*ints)), scale))

    @property
    def n_inputs(self) -> int:
        return len(self.rows)

    @property
    def n_outputs(self) -> int:
        return len(self.rows[0])

    @property
    def is_exact(self) -> bool:
        return self._int_columns is not None

    @functools.cached_property
    def columns(self) -> tuple:
        """The columns; an all-float channel keeps them from ingestion."""
        return tuple(zip(*self.rows))

    @functools.cached_property
    def column_ends(self) -> tuple:
        """``(lows, highs, scale)``: each column's least and largest entry over ``scale``, the ints of
        ``_int_columns`` over their LCM when exact, else the stored entries (a float table's kept minima) over 1."""
        if self.is_exact:
            cols, scale = self._int_columns
            return list(map(min, cols)), list(map(max, cols)), scale
        return self._float_lows or list(map(min, self.columns)), list(map(max, self.columns)), 1

    @functools.cached_property
    def column_stats(self) -> tuple:
        """The smallest and the largest entry of each column, as ``(lo, hi)``; see :attr:`Joint.column_stats`."""
        lows, highs, scale = self.column_ends
        if self.is_exact:
            return tuple((Fraction(lo, scale), Fraction(hi, scale)) for lo, hi in zip(lows, highs))
        return tuple(zip(lows, highs))

    def _column_sums(self, weights: Sequence[Number]) -> tuple:
        """``sum_x weights[x] * rows[x][y]`` for each column y, summed as :func:`_sum_entries` sums."""
        if self._float_lows:  # every product is a float, and fsum is the sum _sum_entries takes
            return tuple(math.fsum(map(operator.mul, weights, col)) for col in self.columns)
        return tuple(_sum_entries(list(map(operator.mul, weights, col))) for col in self.columns)

    def then(self, other: "Channel") -> "Channel":
        """Sequential composition: feed this channel's output into ``other``."""
        if other.n_inputs != self.n_outputs:
            raise DimensionMismatch(f"cannot chain {self.n_outputs} outputs into {other.n_inputs} inputs")
        return Channel(tuple(other._column_sums(r) for r in self.rows))

    @staticmethod
    def identity(n: int) -> "Channel":
        return Channel(
            tuple(
                tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
                for i in range(n)
            )
        )


# ---------------------------------------------------------------------------
# Joint
# ---------------------------------------------------------------------------


def _pmc_level(m, lo) -> ExtReal:
    """PMC of an outcome of mass ``m`` whose column's smallest entry is ``lo``; two ints are one exact ratio."""
    return INF if lo == 0 else ExtReal(Fraction(m, lo) if type(lo) is int else m / lo)


def _pml_level(m, hi) -> ExtReal:
    """PML of an outcome of mass ``m`` whose column's largest entry is ``hi``; two ints are one exact ratio."""
    return ExtReal(Fraction(hi, m) if type(m) is int else hi / m)


class OutcomeLeakage(_Frozen):
    """Leakage of a single outcome: its mass, PMC, PML and density extremes."""

    _compared = ("y", "mass", "pmc", "pml")

    def __init__(self, y: int, mass: float, pmc: ExtReal, pml: ExtReal):
        setattr_ = object.__setattr__  # one lookup: a row is built per outcome
        setattr_(self, "y", y)
        setattr_(self, "mass", mass)
        setattr_(self, "pmc", pmc)
        setattr_(self, "pml", pml)

    @property
    def info_density_min(self) -> float:
        return -self.pmc.nats

    @property
    def info_density_max(self) -> float:
        return self.pml.nats


class Joint(_Frozen):
    """A prior and a channel with the induced output marginal.

    The support holds the outcomes with positive marginal mass; every essential supremum
    downstream ranges over it only.  Posteriors are computed on demand; the profile and the
    worst and LDP levels at most once per joint; none takes part in equality or hashing.
    The marginal reads the tables the prior and channel keep from ingestion; an exact joint
    keeps its masses in the ints of ``Pmf._int_weights`` and ``Channel._int_columns``
    (``_int_marginal``) and reads every level against those of :attr:`Channel.column_ends`.
    """

    _compared = ("prior", "channel", "marginal", "support")

    def __init__(self, prior: Pmf, channel: Channel, marginal: tuple, support: tuple, _int_marginal: list = None):
        self._fill(prior, channel, marginal, support)
        object.__setattr__(self, "_int_marginal", _int_marginal)

    @classmethod
    def from_prior_channel(cls, prior: Pmf, channel: Channel) -> "Joint":
        if channel.n_inputs != len(prior):
            raise DimensionMismatch(
                f"channel has {channel.n_inputs} rows, prior has {len(prior)} outcomes"
            )
        if channel.is_exact and prior.is_exact:
            (cols, c_scale), (weights, w_scale) = channel._int_columns, prior._int_weights
            one = w_scale * c_scale
            ints = [sum(map(operator.mul, weights, col)) for col in cols]
            marginal = tuple(Fraction(m, one) for m in ints)
            return cls(prior, channel, marginal, tuple(y for y, m in enumerate(ints) if m), ints)
        marginal = channel._column_sums(prior.weights)
        support = tuple(y for y, m in enumerate(marginal) if m > 0)
        return cls(prior, channel, marginal, support)

    @property
    def n_inputs(self) -> int:
        return len(self.prior)

    @property
    def n_outputs(self) -> int:
        return self.channel.n_outputs

    @functools.cached_property
    def column_stats(self) -> tuple:
        """The smallest and the largest channel entry of each column, as ``(lo, hi)``.

        With the output marginal ``m_y`` these give every finite level: PMC(y) is
        ``m_y / lo_y``, PML(y) is ``hi_y / m_y``, LDP is the largest
        ``hi_y / lo_y`` and the maximal cost leakage is ``1 / sum_y lo_y``.
        Division is monotone (exactly for rationals, after correct rounding for
        floats), so each equals the extremum of the per-entry ratios.
        """
        return self.channel.column_stats

    @functools.cached_property
    def outcome_ends(self) -> tuple:
        """``(masses, ends)``: every outcome's mass and column ``(lo, hi)``; ints ``M_y``, ``(ws L_y, ws H_y)`` if exact."""
        if self._int_marginal is None:
            return self.marginal, self.column_stats
        lows, highs, _ = self.channel.column_ends
        ws = self.prior._int_weights[1]
        return self._int_marginal, [(ws * lo, ws * hi) for lo, hi in zip(lows, highs)]

    @functools.cached_property
    def profile_rows(self) -> tuple:
        """One :class:`OutcomeLeakage` per support outcome, one level from each mass and column end."""
        masses, ends = self.outcome_ends
        return tuple(
            OutcomeLeakage(y, float(self.marginal[y]), _pmc_level(masses[y], ends[y][0]), _pml_level(masses[y], ends[y][1]))
            for y in self.support
        )

    @functools.cached_property
    def worst_levels(self) -> tuple:
        """The largest PMC and PML of :attr:`profile_rows`, each a row's own level; an exact joint
        cross-multiplies its ints: PMC(a) > PMC(b) iff ``M_a L_b > M_b L_a`` (so ``L_a = 0`` never
        loses), PML(a) > PML(b) iff ``H_a M_b > H_b M_a``."""
        rows = self.profile_rows
        if self._int_marginal is None:
            return max(r.pmc for r in rows), max(r.pml for r in rows)
        masses, (lows, highs, _), ys = self._int_marginal, self.channel.column_ends, self.support
        c = l = 0  # the first largest, as max() takes it
        for i, y in enumerate(ys):
            if masses[y] * lows[ys[c]] > masses[ys[c]] * lows[y]:
                c = i
            if highs[y] * masses[ys[l]] > highs[ys[l]] * masses[y]:
                l = i
        return rows[c].pmc, rows[l].pml

    @functools.cached_property
    def ldp_level(self) -> ExtReal:
        """Largest log-likelihood ratio of the channel across input pairs.

        The largest ratio of two entries of a column is its max over its min, so the search over
        row pairs is one pass over :attr:`Channel.column_ends` for the first largest: ints are
        cross-multiplied, other entries compared as rounded ratios.  All-zero columns never
        contribute (0/0 = 1); a zero beside a positive entry is infinite.
        """
        top = bottom = 1  # 1 / 1 is the zero level
        lows, highs, _ = self.channel.column_ends
        for lo, hi in zip(lows, highs):
            if lo == 0 < hi:
                return INF
            if lo and (hi * bottom > top * lo if type(lo) is int else hi / lo > top / bottom):
                top, bottom = hi, lo
        return ZERO if top == bottom else ExtReal(Fraction(top, bottom) if type(top) is int else top / bottom)

    def posterior(self, y: int) -> tuple:
        """The conditional law of the secret given outcome ``y``."""
        _check_outcome(self, y)
        m, rows = self.marginal[y], self.channel.rows
        return tuple(w * row[y] / m for w, row in zip(self.prior.weights, rows))


# ---------------------------------------------------------------------------
# Information density and the order-infinity divergence
# ---------------------------------------------------------------------------


def _is_index(i, n: int) -> bool:
    return isinstance(i, int) and not isinstance(i, bool) and 0 <= i < n


def _check_outcome(joint: Joint, y: int) -> None:
    if not _is_index(y, len(joint.marginal)) or joint.marginal[y] == 0:
        raise UndefinedOutcome(f"outcome {y!r} is not in the support")


def density_ratio(joint: Joint, x: int, y: int) -> Number:
    """The ratio ``P(y|x) / P(y)`` whose log is the information density.

    Exact for rational joints.  Returns 0 when the channel entry is zero.
    """
    _check_outcome(joint, y)
    if not _is_index(x, joint.n_inputs):
        raise UndefinedOutcome(f"secret {x!r} is not an index")
    num = joint.channel.rows[x][y]
    den = joint.marginal[y]
    if num == 0:
        return Fraction(0) if isinstance(den, Fraction) else 0.0
    return num / den


def info_density(joint: Joint, x: int, y: int) -> float:
    """Log of ``P(y|x)/P(y)`` in nats; ``-inf`` when the channel entry is zero.

    Positive values mean observing ``y`` makes ``x`` more likely.
    """
    r = density_ratio(joint, x, y)
    return ExtReal(r).nats if r > 0 else -math.inf


def max_divergence(p: Iterable[Number], q: Iterable[Number]) -> ExtReal:
    """Rényi divergence of order infinity: ``log max_i p_i / q_i`` over p's support.

    Applies the 0/0 = 1 convention (indices outside p's support are ignored)
    and returns the infinite level when p charges a point q does not.
    """
    if isinstance(p, Pmf):
        p = p.weights
    if isinstance(q, Pmf):
        q = q.weights
    pv = tuple(p)
    qv = tuple(q)
    if len(pv) != len(qv):
        raise DimensionMismatch(f"alphabets differ: {len(pv)} vs {len(qv)}")
    best = None
    for pi, qi in zip(pv, qv):
        if pi <= 0:
            continue
        if qi <= 0:
            return INF
        ratio = pi / qi
        if best is None or ratio > best:
            best = ratio
    if best is None:
        raise EmptySupport("first argument has no positive mass")
    return ExtReal.from_ratio(best)
