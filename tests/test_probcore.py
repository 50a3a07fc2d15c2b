import math
import random
from fractions import Fraction

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
    ParseError,
    StochasticityError,
    UndefinedOutcome,
    ZeroOrNegativeWeight,
)
from infodens.probcore import _sum_entries
from infodens.sampling import random_joint


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
        with pytest.raises(ValueError):
            ExtReal.from_ratio(0)
        with pytest.raises(ValueError):
            ExtReal.from_ratio(-1.0)
        with pytest.raises(ValueError):
            ExtReal.from_ratio(float("nan"))

    def test_huge_fraction_nats_does_not_overflow(self):
        level = ExtReal.from_ratio(Fraction(10**400, 3))
        assert level.nats == pytest.approx(400 * math.log(10) - math.log(3))

    def test_as_level_reads_nats(self):
        assert as_level(0.5).nats == pytest.approx(0.5)
        assert as_level(ExtReal.from_ratio(Fraction(2))).ratio == Fraction(2)
        with pytest.raises(ValueError):
            as_level(-0.1)
        with pytest.raises(TypeError):
            as_level(Fraction(1, 2))


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

    def test_functional_alias(self):
        from infodens import joint_from

        j = joint_from(Pmf((1, 1)), Channel.identity(2))
        assert j.support == (0, 1)
        assert j.channel.column(0) == (Fraction(1), Fraction(0))


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
