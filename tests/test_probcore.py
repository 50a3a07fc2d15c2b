import contextlib
import math
import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodens import (
    Channel,
    ExtReal,
    INF,
    Joint,
    Pmf,
    ZERO,
    as_level,
    density_ratio,
    info_density,
    joint_from_doc,
    max_divergence,
)
from infodens.errors import (
    DimensionMismatch,
    EmptySupport,
    InfodensError,
    ParseError,
    StochasticityError,
    UndefinedOutcome,
    ZeroOrNegativeWeight,
)
from infodens import probcore
from infodens.documents import coerce_probability
from infodens.probcore import _int_masses, _sum_entries
from infodens.sampling import random_channel, random_joint, random_pmf


# ---------------------------------------------------------------------------
# ExtReal
# ---------------------------------------------------------------------------


class TestExtReal:
    def test_ratio_and_nats_views(self):
        level = ExtReal.from_ratio(Fraction(3, 2))
        assert level.nats == pytest.approx(math.log(1.5), abs=1e-15)
        assert level.bits == pytest.approx(math.log2(1.5), abs=1e-15)
        assert level.is_exact and level.is_finite

    def test_from_nats_roundtrip(self):
        assert ExtReal.from_nats(0.0) == ZERO
        assert ExtReal.from_nats(math.inf) == INF
        assert ExtReal.from_nats(0.3).nats == pytest.approx(0.3, abs=1e-15)
        assert ExtReal.from_nats(1e4) == INF  # exp overflow collapses to inf

    def test_ordering_is_exact_across_backends(self):
        assert ExtReal.from_ratio(Fraction(2)) == ExtReal.from_ratio(2.0)
        assert ExtReal.from_ratio(Fraction(1, 3)) < ZERO < INF
        assert max(ZERO, ExtReal.from_ratio(Fraction(5, 4)), INF) == INF

    def test_addition_multiplies_ratios(self):
        a = ExtReal.from_ratio(Fraction(3, 2))
        b = ExtReal.from_ratio(Fraction(2))
        assert (a + b).ratio == Fraction(3)
        assert (a + INF) == INF

    def test_rejects_bad_ratios(self):
        for ratio in (0, Fraction(0), Fraction(-1, 2)):
            with pytest.raises(ValueError, match="ratio must be positive"):
                ExtReal.from_ratio(ratio)
        with pytest.raises(ValueError):
            ExtReal.from_ratio(-1.0)
        with pytest.raises(ValueError):
            ExtReal.from_ratio(float("nan"))

    def test_huge_fraction_nats_does_not_overflow(self):
        level = ExtReal.from_ratio(Fraction(10**400, 3))
        assert level.nats == pytest.approx(400 * math.log(10) - math.log(3))

    # 30-digit values of the natural log (mpmath at 80 digits, log1p near 1)
    @pytest.mark.parametrize(
        "n, d, reference",
        [
            (10**30 + 1, 10**30, "9.99999999999999999999999999999e-31"),
            (10**30 - 1, 10**30, "-1.00000000000000000000000000000e-30"),
            (1000001, 1000000, "9.99999500000333333083333533333e-7"),
            (999999, 1000000, "-1.00000050000033333358333353333e-6"),
            (2**80 + 1, 2**80, "8.27180612553027674871408349956e-25"),
            (2**80 - 1, 2**80, "-8.27180612553027674871409034184e-25"),
            (2**80 + 3, 2**80, "2.48154183765908302461422299718e-24"),
            (6094307, 5015599, "0.194802200758746180424464973562"),
            (425, 143, "1.08924453866450954933562226480"),
        ],
        ids=["1+1e-30", "1-1e-30", "1+1e-6", "1-1e-6", "1+2^-80", "1-2^-80", "1+3*2^-80", "near-1.2", "near-3"],
    )
    def test_exact_nats_are_rounded_from_the_exact_ratio(self, n, d, reference):
        """Near 1 the two logs of the numerator and the denominator would cancel; these are correctly rounded."""
        assert ExtReal.from_ratio(Fraction(n, d)).nats == float(reference)

    @pytest.mark.parametrize(
        "n, d, reference",
        [
            (10**400, 3, "919.935424908950163915801336637"),
            (1, 10**400, "-921.034037197618273607196581874"),
            (2**1030, 3, "712.842983688075559008353839865"),  # the quotient overflows a float
            (1, 3 * 2**1060, "-735.834623682210137673661293983"),  # the quotient is subnormal
        ],
        ids=["1e400/3", "1e-400", "2^1030/3", "2^-1060/3"],
    )
    def test_exact_nats_beyond_the_float_range_are_within_one_ulp(self, n, d, reference):
        want = float(reference)
        assert abs(ExtReal.from_ratio(Fraction(n, d)).nats - want) <= math.ulp(want)

    def test_finiteness_of_overflowed_floats_and_huge_fractions(self):
        overflowed = ExtReal(1e300) + ExtReal(1e300)
        assert overflowed == INF and not overflowed.is_finite
        huge = ExtReal.from_ratio(Fraction(10**400, 3))
        assert huge.is_finite and huge < INF
        assert ExtReal(1e300).is_finite and not INF.is_finite and ZERO.is_finite

    def test_as_level_reads_nats(self):
        assert as_level(0.5).nats == pytest.approx(0.5)
        assert as_level(ExtReal.from_ratio(Fraction(2))).ratio == Fraction(2)
        with pytest.raises(ValueError):
            as_level(-0.1)
        with pytest.raises(TypeError):
            as_level(Fraction(1, 2))


class TestExtRealDataclass:
    def test_equal_levels_on_both_backends_compare_and_hash_alike(self):
        exact, floating = ExtReal(Fraction(3, 2)), ExtReal(1.5)
        assert exact == floating and not exact < floating and exact <= floating
        assert hash(exact) == hash(floating) == hash(Fraction(3, 2))
        assert len({exact, floating}) == 1

    def test_ratio_is_read_only(self):
        level = ExtReal(Fraction(3, 2))
        with pytest.raises(AttributeError):
            level.ratio = Fraction(2)
        assert level.ratio == Fraction(3, 2)

    @pytest.mark.parametrize("other", (1.5, Fraction(3, 2), None, "1.5"))
    def test_ordering_against_other_types_raises(self, other):
        with pytest.raises(TypeError):
            ExtReal(Fraction(3, 2)) < other
        assert ExtReal(Fraction(3, 2)) != other

    def test_max_and_sorted_over_mixed_backends(self):
        levels = [INF, ExtReal(2.5), ExtReal(Fraction(3, 2)), ZERO, ExtReal(1.25), ExtReal(Fraction(2))]
        assert max(levels) is INF
        assert max(levels[1:]) == ExtReal(Fraction(5, 2))
        assert [v.ratio for v in sorted(levels)] == [1, 1.25, Fraction(3, 2), 2, 2.5, math.inf]
        assert min(levels) is ZERO

    def test_int_ratio_becomes_fraction(self):
        assert type(ExtReal(2).ratio) is Fraction and ExtReal(2) == ExtReal(Fraction(2))


# ---------------------------------------------------------------------------
# Pmf
# ---------------------------------------------------------------------------


class TestPmf:
    def test_uniform_binary(self):
        p = Pmf((0.5, 0.5))
        assert p.p_min == 0.5

    def test_four_point_prior(self):
        p = Pmf((0.3, 0.3, 0.2, 0.2))
        assert p.p_min == 0.2
        assert math.fsum(p.weights) == pytest.approx(1.0, abs=1e-12)

    def test_zero_weight_rejected(self):
        with pytest.raises(ZeroOrNegativeWeight):
            Pmf((0.5, 0.0))
        with pytest.raises(ZeroOrNegativeWeight):
            Pmf((0.5, -0.1))

    def test_empty_rejected(self):
        with pytest.raises(EmptySupport):
            Pmf(())

    def test_normalizes_and_promotes_ints(self):
        p = Pmf((1, 1, 2))
        assert p.weights == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
        assert p.is_exact

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ParseError):
            Pmf((0.5, float("nan")))
        with pytest.raises(ParseError):
            Pmf((0.5, float("inf")))


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------


class TestChannel:
    def test_row_out_of_tolerance_rejected(self):
        with pytest.raises(StochasticityError):
            Channel(((0.6, 0.3), (0.5, 0.5)))

    def test_row_within_tolerance_renormalized(self):
        ch = Channel(((0.5 + 4e-13, 0.5), (0.25, 0.75)))
        assert math.fsum(ch.rows[0]) == pytest.approx(1.0, abs=1e-15)

    def test_zero_entries_allowed(self):
        ch = Channel(((1, 0), (0, 1)))
        assert ch.rows[0] == (Fraction(1), Fraction(0))

    def test_negative_entry_rejected(self):
        with pytest.raises(ParseError):
            Channel(((1.2, -0.2), (0.5, 0.5)))

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            Channel(((0.5, 0.5), (1.0,)))

    def test_composition_shapes(self):
        a = Channel(((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(0))))
        b = Channel(((Fraction(1), Fraction(0)), (Fraction(1, 4), Fraction(3, 4))))
        c = a.then(b)
        assert c.rows[0] == (Fraction(5, 8), Fraction(3, 8))
        with pytest.raises(DimensionMismatch):
            b.then(Channel(((1.0,), (1.0,), (1.0,))))


# ---------------------------------------------------------------------------
# Joint
# ---------------------------------------------------------------------------


def _marginal_by_summation(prior, channel):
    """Independent oracle: plain per-outcome summation with fsum."""
    return [
        math.fsum(float(prior[x]) * float(channel.rows[x][y]) for x in range(len(prior)))
        for y in range(channel.n_outputs)
    ]


class TestJoint:
    def test_marginal_matches_summation_oracle(self, binary_symmetric_joint):
        j = binary_symmetric_joint
        expected = _marginal_by_summation(j.prior, j.channel)
        assert [float(m) for m in j.marginal] == pytest.approx(expected, abs=1e-15)
        assert j.marginal == (Fraction(1, 2), Fraction(1, 2))

    def test_identity_channel_posterior_is_point_mass(self):
        prior = Pmf((Fraction(1, 3), Fraction(2, 3)))
        j = Joint.from_prior_channel(prior, Channel.identity(2))
        assert j.marginal == prior.weights
        assert j.posterior(0) == (Fraction(1), Fraction(0))
        assert j.posterior(1) == (Fraction(0), Fraction(1))

    def test_degenerate_output_column(self):
        prior = Pmf((Fraction(1, 2), Fraction(1, 2)))
        j = Joint.from_prior_channel(prior, Channel(((1, 0), (1, 0))))
        assert j.marginal == (Fraction(1), Fraction(0))
        assert j.support == (0,)
        with pytest.raises(UndefinedOutcome):
            j.posterior(1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Joint.from_prior_channel(Pmf((1, 1, 1)), Channel.identity(2))


def _rational_vectors():
    """Seeded rational vectors with zeros, ints, single entries and large denominators."""
    rng = random.Random(314159)
    cases = [
        [],
        [Fraction(0)],
        [Fraction(0), 0, Fraction(0)],
        [Fraction(5, 7)],
        [3],
        [1, 2, Fraction(1, 3)],
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), Fraction(1, 11)],
        [Fraction(1, 2**61 - 1), Fraction(3, 10**30 + 7), 2, Fraction(0)],
        [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)],
    ]
    for _ in range(300):
        entries = []
        for _ in range(rng.randint(1, 12)):
            entries.append(rng.choice((
                Fraction(0),
                rng.randint(0, 9),
                Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6)),
                Fraction(rng.randint(0, 10**40), rng.randint(1, 10**40)),
            )))
        cases.append(entries)
    return cases


class TestSumEntries:
    def test_rational_sum_matches_running_fraction_sum(self):
        for entries in _rational_vectors():
            got = _sum_entries(entries)
            want = sum(entries, Fraction(0))
            assert got == want
            assert type(got) is type(want) is Fraction
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    def test_any_float_sums_by_fsum(self):
        entries = [0.1, Fraction(1, 3), 2, 0.2]
        assert _sum_entries(entries) == math.fsum(float(e) for e in entries)


# ---------------------------------------------------------------------------
# One-pass ingestion against the per-entry path
# ---------------------------------------------------------------------------


def _ref_entry(value, what):
    """The per-entry check every row and weight went through before the one-pass sum."""
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise ParseError(f"{what} must be a number, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"{what} must be finite, got {value!r}")
    return Fraction(value) if isinstance(value, int) else value


def _ref_sum(entries):
    if any(isinstance(e, float) for e in entries):
        return math.fsum(float(e) for e in entries)
    return sum(entries, Fraction(0))


def _ref_row(row, what):
    entries = tuple(_ref_entry(e, what) for e in row)
    if not entries:
        raise EmptySupport(f"{what}: empty row")
    for e in entries:
        if e < 0:
            raise ParseError(f"{what}: negative entry {e!r}")
    total = _ref_sum(entries)
    if total <= 0:
        raise StochasticityError(f"{what}: row sums to {total!r}")
    if abs(total - 1) > 1e-12:
        raise StochasticityError(f"{what}: row sums to {total!r}, expected 1")
    return entries if total == 1 else tuple(e / total for e in entries)


def _ref_channel(rows):
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DimensionMismatch(f"row {i} has {len(row)} entries, expected {width}")
    return tuple(_ref_row(row, f"channel row {i}") for i, row in enumerate(rows))


def _ref_pmf(weights):
    if not weights:
        raise EmptySupport("a pmf needs at least one outcome")
    entries = []
    for w in weights:
        w = _ref_entry(w, "pmf weight")
        if w <= 0:
            raise ZeroOrNegativeWeight(f"weight {w!r} breaks full support")
        entries.append(w)
    total = _ref_sum(entries)
    return tuple(entries) if total == 1 else tuple(w / total for w in entries)


def _ref_marginal(prior, rows):
    return tuple(_ref_sum([w * e for w, e in zip(prior, col)]) for col in zip(*rows))


def _bits(values):
    """Every entry's type and exact value: ``float.hex`` or numerator and denominator."""
    return [
        (type(v), v.hex() if isinstance(v, float) else (v.numerator, v.denominator))
        for v in values
    ]


def _outcome(build, *args):
    """The built value's bits, or the raised exception's type and message."""
    try:
        value = build(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what gets compared
        return type(exc), str(exc)
    return [_bits(r) for r in value] if value and isinstance(value[0], tuple) else _bits(value)


class _Float(float):
    """A float subclass: it must take the per-entry path and keep its type."""


class _Frac(Fraction):
    """A Fraction subclass: it must take the per-entry path and keep its type."""


def _exact_rows(rng, n_x, n_y):
    def composition(n):
        cuts = sorted(rng.sample(range(1, 8 * n), n - 1))
        return tuple(Fraction(b - a, 8 * n) for a, b in zip([0, *cuts], [*cuts, 8 * n]))

    return composition(n_x), tuple(composition(n_y) for _ in range(n_x))


#: Rows the one-pass sum must treat as the per-entry checks do.
_AWKWARD_ROWS = [
    (-0.0, 1.0),
    (0.0, -0.0, 1.0),
    (5e-324, 1.0),
    (2.2250738585072014e-308, 1e-310, 1.0),
    (0.5, 0.5 + 9e-13),
    (0.5, 0.5 - 9e-13),
    (0.5, 0.5 + 1.1e-12),
    (0.5, 0.5 - 1.1e-12),
    (0.25, 0.25, 0.25, 0.25 + 4e-13),
    (1.0 + 1e-12, 0.0),
    (1.0 - 1e-12, 0.0),
    (0.1, 0.2, 0.3, 0.4),
    (_Float(0.5), _Float(0.5)),
    (_Float(0.5), 0.5 + 4e-13),
    (0, 1.0),
    (1, 0.0),
    (Fraction(1, 3), 2 / 3),
    (Fraction(1, 3), 1, Fraction(-1, 3)),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**13)),
    (Fraction(1, 2), 0, Fraction(1, 2)),
    (_Frac(1, 3), _Frac(2, 3)),
    (_Frac(1, 3), _Frac(2 * 10**13 + 1, 3 * 10**13)),
    (_Frac(1, 2), Fraction(1, 2)),
    (Fraction(0), Fraction(0)),
    (0.0, 0.0),
]

_NAN, _INF = math.nan, math.inf
#: Rows and weights that must fail with the per-entry path's exception and message.
_BAD_ROWS = [
    (),
    (_NAN, 1.0),
    (1.0, _NAN),
    (0.5, _NAN, 0.5),
    (_INF, 0.5),
    (0.5, _INF),
    (-_INF, 0.5),
    (0.5, -_INF),
    (_INF, -_INF),
    (-_INF, _INF, 0.5),
    (-0.5, 1.5),
    (1.5, -0.5),
    (0.5, 0.5, -1e-300),
    (Fraction(-1, 2), Fraction(3, 2)),
    (Fraction(3, 2), Fraction(-1, 2)),
    (True, 0.0),
    (0.5, False, 0.5),
    ("0.5", 0.5),
    (0.5, None),
    (1e308, 1e308, -1.0),
    (1e308, 1e308, _NAN),
    (1e308, _INF, 1e308),
    (1e308, 1e308, "x"),
]

#: Rows and weights whose float sum overflows; entries are valid, so only the sum fails.
_OVERFLOWING = [
    (1e308, 1e308),
    (0.5, 1e308, 1e308),
    (1e308, 0.5, 1e308),
    (1e308, 1e308, 0.5),
    (1.7e308, 0.25, 1.7e308, 0.25),
    (_Float(1e308), 1e308),
]


def _ref_ints(vectors):
    """``(is_exact, ints)`` by a scan of every entry; ``ints`` is None unless all are ``Fraction``."""
    if not all(isinstance(e, Fraction) for v in vectors for e in v):
        return False, None
    scale = math.lcm(*(e.denominator for v in vectors for e in v))
    ints = [[e.numerator * (scale // e.denominator) for e in v] for v in vectors]
    assert _int_masses(vectors) == (ints, scale)
    return True, (ints, scale)


def _check_tables(prior, channel):
    """The integer tables read on ingestion equal a scan of the stored weights and columns."""
    exact, want = _ref_ints(tuple(zip(*channel.rows)))
    assert channel.is_exact is exact
    cols = channel._int_columns
    assert (cols and ([list(c) for c in cols[0]], cols[1])) == want
    exact, want = _ref_ints((prior.weights,))
    assert prior.is_exact is exact
    assert prior._int_weights == (want and (want[0][0], want[1]))


def _key(value):
    """``float.hex`` of a float, so ``0.0`` and ``-0.0`` differ; any other value as it is."""
    return value.hex() if isinstance(value, float) else value


def _check_columns(channel, rows):
    """The kept columns and their extremes equal a scan of the stored rows; only all-float ``rows`` keep them."""
    cols = tuple(zip(*channel.rows))
    assert [_bits(c) for c in channel.columns] == [_bits(c) for c in cols]
    want = [(_key(min(c)), _key(max(c))) for c in cols]
    assert [(_key(lo), _key(hi)) for lo, hi in channel.column_stats] == want
    table = all(type(e) is float for r in rows for e in r)
    assert (channel._float_lows is not None) is table
    joint = Joint.from_prior_channel(Pmf((1,) * channel.n_inputs), channel)
    assert joint.column_stats is channel.column_stats


class TestOnePassIngestion:
    """``Channel``, ``Pmf`` and ``Joint`` against the per-entry path they replaced."""

    def _check_joint(self, prior, rows):
        assert _outcome(lambda r: Channel(r).rows, rows) == _outcome(_ref_channel, rows)
        assert _outcome(lambda w: Pmf(w).weights, prior) == _outcome(_ref_pmf, prior)
        joint = Joint.from_prior_channel(Pmf(prior), Channel(rows))
        want = _ref_marginal(_ref_pmf(prior), _ref_channel(rows))
        assert _bits(joint.marginal) == _bits(want)
        _check_tables(joint.prior, joint.channel)
        _check_columns(joint.channel, rows)

    @pytest.mark.parametrize("n, zero_prob", [(100, 0.0), (100, 0.1), (64, 0.0), (64, 0.2)])
    def test_seeded_float_joints(self, n, zero_prob):
        rng = random.Random(f"ingest:{n}:{zero_prob}")
        for _ in range(3):
            j = random_joint(rng, n, n, zero_prob=zero_prob)
            self._check_joint(j.prior.weights, j.channel.rows)
            # Unnormalized weights, and rows that need renormalization within the tolerance.
            raw = tuple(rng.uniform(0.1, 1.0) for _ in range(n))
            bent = tuple(tuple(e * (1 + rng.uniform(-4e-13, 4e-13)) for e in r) for r in j.channel.rows)
            self._check_joint(raw, bent)

    def test_seeded_rational_joints(self):
        rng = random.Random("ingest:exact")
        for _ in range(3):
            self._check_joint(*_exact_rows(rng, 32, 32))
        prior, rows = _exact_rows(rng, 12, 12)
        self._check_joint(tuple(w * 7 for w in prior), rows)
        third = Fraction(1, 3)
        # One row off by 1e-13, one of Fraction subclasses, one of int literals: each leaves the table.
        for row in ((third, third, third + Fraction(1, 10**13)), (_Frac(1, 3), _Frac(2, 3), _Frac(0)), (0, 1, 0)):
            self._check_joint(prior[:4], rows[:3] + (row + (Fraction(0),) * 9,))
        for _ in range(3):
            j = random_joint(rng, 24, 24, exact=True, zero_prob=0.2)
            self._check_joint(j.prior.weights, j.channel.rows)

    @pytest.mark.parametrize("row", _AWKWARD_ROWS + _BAD_ROWS, ids=repr)
    def test_row_matches_per_entry_path(self, row):
        rows = ((1.0,) + (0.0,) * (len(row) - 1) if row else (), tuple(row))
        assert _outcome(lambda r: Channel(r).rows, rows) == _outcome(_ref_channel, rows)
        assert _outcome(lambda w: Pmf(w).weights, tuple(row)) == _outcome(_ref_pmf, tuple(row))

    @pytest.mark.parametrize("row", _AWKWARD_ROWS, ids=repr)
    def test_tables_match_a_scan_of_every_entry(self, row):
        for unit in ((Fraction(1),) + (Fraction(0),) * (len(row) - 1), (1.0,) + (0.0,) * (len(row) - 1)):
            try:
                channel = Channel((unit, row))
            except (ParseError, StochasticityError):
                continue
            _check_tables(Pmf((Fraction(1, 2), Fraction(1, 2))), channel)
            _check_columns(channel, (unit, row))
        try:
            prior = Pmf(row)
        except (ParseError, ZeroOrNegativeWeight):
            return
        _check_tables(prior, Channel(((Fraction(1),),) * len(row)))

    def test_integer_literal_row_gets_the_table(self):
        half = Fraction(1, 2)
        channel = Channel(((half, 0, half), (Fraction(1, 3),) * 3))
        assert _bits(channel.rows[0]) == _bits((half, Fraction(0), half))
        assert channel._int_columns == ([(3, 2), (0, 2), (3, 2)], 6)
        _check_tables(Pmf((1, 2)), channel)

    def test_each_row_is_scaled_once(self, monkeypatch):
        """An all-``Fraction`` matrix is scaled to ints once for the table; one that fails it, and any other,
        once per row for its sum and, when no entry is a float, once more for its integer form."""
        calls = []
        monkeypatch.setattr(probcore, "_int_masses", lambda v: calls.append(v) or _int_masses(v))
        half, third = Fraction(1, 2), Fraction(1, 3)
        for build, want in (
            (lambda: Channel(((half, half), (third, 1 - third), (Fraction(1), Fraction(0)))), 1),
            (lambda: Channel(((half, 0, half), (third,) * 3, (_Frac(1, 4), _Frac(3, 4), 0))), 4),
            (lambda: Pmf((1, half, half)), 2),
            (lambda: Pmf((third, 1 - third)), 1),
            (lambda: Pmf((1,)), 1),
            (lambda: Channel(((third, third, third + Fraction(1, 10**13)),)), 3),
            (lambda: Channel(((0.5, 0.5), (half, 0.5))), 0),
        ):
            calls.clear()
            build()
            assert len(calls) == want

    def test_fraction_subclass_keeps_its_type(self):
        rows = ((_Frac(1, 4), _Frac(3, 4)), (Fraction(1, 2), Fraction(1, 2)))
        channel, prior = Channel(rows), Pmf((_Frac(1, 3), _Frac(2, 3)))
        assert [type(e) for e in channel.rows[0]] == [_Frac, _Frac]
        assert [type(w) for w in prior.weights] == [_Frac, _Frac]
        _check_tables(prior, channel)
        joint = Joint.from_prior_channel(prior, channel)
        assert _bits(joint.marginal) == _bits(_ref_marginal(prior.weights, rows))

    def test_coprime_denominators_near_1e30(self):
        dens = (10**30 + 1, 10**30 + 3, 10**30 + 7, 10**30 + 9)
        assert all(math.gcd(a, b) == 1 for a in dens for b in dens if a != b)
        rows = tuple((Fraction(1, d), Fraction(i + 2, d), Fraction(d - i - 3, d)) for i, d in enumerate(dens))
        prior = tuple(Fraction(i + 1, 10) for i in range(4))
        self._check_joint(prior, rows)
        channel = Channel(rows)
        assert all(a is b for a, b in zip(channel.rows, rows))
        assert channel._int_columns[1] == math.prod(dens)

    def test_ragged_and_empty_channels(self):
        for rows in (((0.5, 0.5), (1.0,)), ((1.0,), (_NAN, 1.0)), ((), ())):
            assert _outcome(lambda r: Channel(r).rows, rows) == _outcome(_ref_channel, rows)

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            (((1.0, 0.0), (-0.5, 1.5), (1.0,)), ParseError, "channel row 1: negative entry -0.5"),
            (((1.0, 0.0), (0.7, 0.7), (1.0,)), StochasticityError, "channel row 1: row sums to 1.4, expected 1"),
            (((1.0, 0.0), (0.5, _NAN), (0.2, 0.8, 0.0)), ParseError, "channel row 1 must be finite, got nan"),
            (((), ()), EmptySupport, "channel row 0: empty row"),
        ],
    )
    def test_first_bad_row_is_reported_before_a_later_width(self, rows, error, message):
        """A float matrix that fails the table check is checked row by row, so the earlier error wins."""
        with pytest.raises(InfodensError) as err:
            Channel(rows)
        assert (type(err.value), str(err.value)) == (error, message)

    def test_subclass_and_mixed_rows_keep_their_values_and_types(self):
        channel = Channel(((_Float(0.25), 0.75), (Fraction(1, 2), 0.5), (0.5, 0.5 + 4e-13)))
        assert [[type(e) for e in r] for r in channel.rows] == [[_Float, float], [Fraction, float], [float, float]]
        assert channel.rows[:2] == ((0.25, 0.75), (Fraction(1, 2), 0.5))
        total = math.fsum((0.5, 0.5 + 4e-13))
        assert _bits(channel.rows[2]) == _bits((0.5 / total, (0.5 + 4e-13) / total))
        assert [tuple(map(type, s)) for s in channel.column_stats] == [(_Float, Fraction), (float, float)]
        assert channel._float_lows is None and not channel.is_exact

    def test_a_matrix_pays_at_most_one_type_pass(self, monkeypatch):
        """A matrix led by a ``float`` or a ``Fraction`` pays one type pass over every entry, any other none."""
        passes = []
        counted = type("chain", (), {"from_iterable": lambda rows: passes.append(rows) or chain.from_iterable(rows)})
        monkeypatch.setattr(probcore, "chain", counted)
        half = Fraction(1, 2)
        for rows, want in (
            (((0.5, 0.5),) * 40, 1),
            (((half, half),) * 40, 1),
            (((1, 0),) * 40, 0),
            (((_Frac(1, 2), half),) * 40, 0),
            (((_Float(0.5), 0.5),) * 40, 0),
            (((),), 0),
            (((0.5, half),) * 40, 1),
            (((half, 0.5),) * 40, 1),
        ):
            passes.clear()
            with contextlib.suppress(InfodensError):
                channel = Channel(rows)
                if {type(e) for r in rows for e in r} == {float, Fraction}:  # falls back to the rows
                    assert channel._float_lows is None and not channel.is_exact
            assert len(passes) == want, rows[0]

    @pytest.mark.parametrize("rows, row", [(((Fraction(3, 2), Fraction(-1, 2)),), 0), (((Fraction(1, 2),) * 2, (Fraction(3, 2), Fraction(-1, 2))), 1)])
    def test_negative_fraction_summing_to_one_is_named(self, rows, row):
        """An all-``Fraction`` matrix whose rows sum to exactly 1 still reports a negative entry, in its row."""
        with pytest.raises(ParseError) as err:
            Channel(rows)
        assert str(err.value) == f"channel row {row}: negative entry Fraction(-1, 2)"

    @pytest.mark.parametrize("row", _OVERFLOWING, ids=repr)
    def test_overflowing_sum_is_a_typed_error(self, row):
        with pytest.raises(StochasticityError, match=r"^channel row 1: row sums beyond the float range$"):
            Channel(((1.0,) + (0.0,) * (len(row) - 1), row))
        with pytest.raises(ParseError, match=r"^pmf weights sum beyond the float range$"):
            Pmf(row)

    @pytest.mark.parametrize(
        "entry, shown",
        [
            (Fraction(10**50 + 1, 10**49), "10"),
            (Fraction(10**400), "~1e+400"),
            (Fraction(1, 10**400), "~1e-400"),
            (Fraction(3, 7), "Fraction(3, 7)"),
        ],
    )
    def test_long_row_sums_are_shown_short(self, entry, shown):
        with pytest.raises(StochasticityError) as err:
            Channel(((entry,),))
        assert str(err.value) == f"channel row 0: row sums to {shown}, expected 1"

    def test_composition_matches_per_entry_products(self):
        rng = random.Random("ingest:then")
        for kind in ("float", "exact", "mixed", "exact into float"):
            a = random_joint(rng, 6, 7, exact=kind != "float", zero_prob=0.2).channel
            b = random_joint(rng, 7, 5, exact=kind not in ("float", "exact into float"), zero_prob=0.2).channel
            if kind == "mixed":  # one float row: the cells of the other rows stay exact
                a = Channel((tuple(map(float, a.rows[0])),) + a.rows[1:])
            want = _ref_channel(tuple(
                tuple(_ref_sum([r[y] * b.rows[y][z] for y in range(7)]) for z in range(5))
                for r in a.rows
            ))
            assert [_bits(r) for r in a.then(b).rows] == [_bits(r) for r in want]


def _eager_posteriors(joint):
    """The posterior family as the joint used to store it on construction."""
    prior, rows, marginal = joint.prior, joint.channel.rows, joint.marginal
    return {
        y: tuple(prior[x] * rows[x][y] / marginal[y] for x in range(len(prior)))
        for y in range(len(marginal))
        if marginal[y] > 0
    }


class TestLazyJoint:
    @pytest.mark.parametrize("exact", (True, False))
    @pytest.mark.parametrize("zero_prob", (0.0, 0.4))
    def test_posterior_equals_eager_formula(self, exact, zero_prob):
        rng = random.Random(2718 + exact)
        for _ in range(40):
            j = random_joint(
                rng, rng.randint(1, 6), rng.randint(1, 6), exact=exact, zero_prob=zero_prob
            )
            eager = _eager_posteriors(j)
            assert list(eager) == list(j.support)
            for y in j.support:
                assert j.posterior(y) == eager[y]
                assert [type(q) for q in j.posterior(y)] == [type(q) for q in eager[y]]

    def test_zero_entry_joint_posteriors(self, zero_entry_joint):
        j = zero_entry_joint
        assert {y: j.posterior(y) for y in j.support} == _eager_posteriors(j)

    def test_equal_joints_hash_alike(self, binary_symmetric_joint):
        twin = Joint.from_prior_channel(
            binary_symmetric_joint.prior, binary_symmetric_joint.channel
        )
        assert twin == binary_symmetric_joint
        assert hash(twin) == hash(binary_symmetric_joint)
        assert twin.column_stats == ((Fraction(1, 4), Fraction(3, 4)),) * 2


# ---------------------------------------------------------------------------
# Information density
# ---------------------------------------------------------------------------


class TestInfoDensity:
    def test_independent_joint_is_zero(self, independent_joint):
        j = independent_joint
        for y in j.support:
            for x in range(j.n_inputs):
                assert info_density(j, x, y) == 0.0

    def test_value_cross_checked_against_divergence(self, binary_symmetric_joint):
        j = binary_symmetric_joint
        assert density_ratio(j, 0, 0) == Fraction(3, 2)
        assert info_density(j, 0, 0) == pytest.approx(math.log(1.5), abs=1e-15)
        # the largest density over x must be the posterior-from-prior divergence
        top = max(info_density(j, x, 0) for x in range(2))
        assert top == pytest.approx(max_divergence(j.posterior(0), j.prior).nats)

    def test_zero_channel_entry_gives_minus_inf(self, zero_entry_joint):
        assert info_density(zero_entry_joint, 1, 0) == -math.inf

    def test_undefined_outcome(self):
        prior = Pmf((Fraction(1, 2), Fraction(1, 2)))
        j = Joint.from_prior_channel(prior, Channel(((1, 0), (1, 0))))
        with pytest.raises(UndefinedOutcome):
            info_density(j, 0, 1)

    @pytest.mark.parametrize(
        "x, y", [(True, 0), (-1, 0), (2, 0), (1.0, 0), (0, True), (0, -1), (0, 1.0)]
    )
    def test_rejects_non_index_arguments(self, binary_symmetric_joint, x, y):
        for fn in (density_ratio, info_density):
            with pytest.raises(UndefinedOutcome):
                fn(binary_symmetric_joint, x, y)

    @pytest.mark.parametrize("y", (True, False, -1, 2, 1.0))
    def test_posterior_rejects_non_index_outcomes(self, binary_symmetric_joint, y):
        with pytest.raises(UndefinedOutcome):
            binary_symmetric_joint.posterior(y)

    @pytest.mark.parametrize("exact, prior_exact", [(False, False), (True, True), (True, False), (False, True)])
    def test_equals_level_of_density_ratio(self, exact, prior_exact):
        rng = random.Random(f"density:{exact}:{prior_exact}")
        for _ in range(40):
            n_x = rng.randint(1, 5)
            channel = random_channel(rng, n_x, rng.randint(1, 5), exact=exact, zero_prob=0.3)
            j = Joint.from_prior_channel(random_pmf(rng, n_x, exact=prior_exact), channel)
            for y in j.support:
                for x in range(j.n_inputs):
                    r = density_ratio(j, x, y)
                    assert info_density(j, x, y) == (ExtReal(r).nats if r > 0 else -math.inf)

    def test_equals_posterior_prior_log_ratio(self, binary_symmetric_joint):
        j = binary_symmetric_joint
        for y in j.support:
            post = j.posterior(y)
            for x in range(j.n_inputs):
                expected = math.log(float(post[x])) - math.log(float(j.prior[x]))
                assert info_density(j, x, y) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Order-infinity divergence
# ---------------------------------------------------------------------------


class TestMaxDivergence:
    def test_identity_is_zero(self):
        assert max_divergence((0.25, 0.75), (0.25, 0.75)) == ZERO

    def test_binary_example(self):
        d = max_divergence((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4)))
        assert d.ratio == Fraction(2)

    def test_absolute_continuity_failure(self):
        assert max_divergence((0.5, 0.5), (1.0, 0.0)) == INF

    def test_zero_over_zero_ignored(self):
        assert max_divergence((1.0, 0.0), (1.0, 0.0)) == ZERO

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            max_divergence((1.0,), (0.5, 0.5))

    def test_no_support_rejected(self):
        with pytest.raises(EmptySupport):
            max_divergence((0.0, 0.0), (0.5, 0.5))


# ---------------------------------------------------------------------------
# Randomized invariants
# ---------------------------------------------------------------------------

weights = st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=5)


@given(weights)
def test_divergence_from_self_is_zero(ws):
    p = Pmf(tuple(Fraction(w) for w in ws))
    assert max_divergence(p, p) == ZERO


@given(weights, st.data())
@settings(max_examples=60)
def test_divergence_nonnegative_zero_iff_equal(ws, data):
    p = Pmf(tuple(Fraction(w) for w in ws))
    qs = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=30),
            min_size=len(ws),
            max_size=len(ws),
        )
    )
    q = Pmf(tuple(Fraction(w) for w in qs))
    d = max_divergence(p, q)
    assert d >= ZERO
    if p.weights == q.weights:
        assert d == ZERO
    else:
        assert d > ZERO


@given(weights, st.data())
@settings(max_examples=60)
def test_marginal_reconstructs_prior(ws, data):
    prior = Pmf(tuple(Fraction(w) for w in ws))
    rows = []
    for _ in ws:
        row = data.draw(
            st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=3).filter(
                lambda r: sum(r) > 0
            )
        )
        total = sum(row)
        rows.append(tuple(Fraction(c, total) for c in row))
    joint = Joint.from_prior_channel(prior, Channel(tuple(rows)))
    for x in range(len(prior)):
        recovered = sum(
            joint.marginal[y] * joint.posterior(y)[x] for y in joint.support
        )
        assert recovered == prior[x]  # exact in the rational backend


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


class TestJointFromDoc:
    def test_basic_document(self):
        doc = {"prior": [0.5, 0.5], "channel": [[0.75, 0.25], [0.25, 0.75]]}
        j = joint_from_doc(doc)
        assert j.marginal[0] == pytest.approx(0.5)

    def test_exact_mode_reads_decimals_and_ratios(self):
        doc = {"prior": ["1/3", "2/3"], "channel": [[0.25, 0.75], ["1/2", "1/2"]]}
        j = joint_from_doc(doc, exact=True)
        assert j.prior.weights == (Fraction(1, 3), Fraction(2, 3))
        assert j.channel.rows[0] == (Fraction(1, 4), Fraction(3, 4))

    def test_rejects_nan_negative_and_missing(self):
        with pytest.raises(ParseError):
            joint_from_doc({"prior": [0.5, float("nan")], "channel": [[1, 0], [0, 1]]})
        with pytest.raises(ParseError):
            joint_from_doc({"prior": [0.5, 0.5], "channel": [[1.5, -0.5], [0, 1]]})
        with pytest.raises(ParseError):
            joint_from_doc({"prior": [0.5, 0.5]})
        with pytest.raises(ParseError):
            joint_from_doc({"prior": [0.5, 0.5], "channel": [[True, False], [0, 1]]})


def _ref_coerce(text, what, exact):
    """``coerce_probability`` of a string as ``Fraction(str)`` reads it."""
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{what}: cannot parse {text!r} as a rational") from None
    value = frac if exact else float(frac)
    if value < 0:
        raise ParseError(f"{what}: negative value {value!r}")
    return value


_STRINGS = [
    "3/8", " 3/8 ", "+3/8", "-3/8", "03/08", "3_0/80", "3/0", "0/5", "\u0663/\u0668",
    "3.0/8", "1e-1", "3/8/2", "/8", "3/", "", "00/001", "3/00", "\u00b3/8", "3/ 8", "3 /8", "3/-8", "1/2\n",
]


class TestCoerceProbability:
    """Document strings read as ``Fraction(str)`` reads them: same value, type and message."""

    @pytest.mark.parametrize("exact", (True, False))
    @pytest.mark.parametrize("text", _STRINGS, ids=repr)
    def test_strings_read_as_fraction_of_str(self, text, exact):
        got = _outcome(lambda t: (coerce_probability(t, "p", exact),), text)
        assert got == _outcome(lambda t: (_ref_coerce(t, "p", exact),), text)
