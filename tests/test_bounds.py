import math
import random
from fractions import Fraction

import pytest

from infodens import (
    ExtReal,
    Guarantee,
    GuaranteeKind,
    INF,
    Joint,
    Pmf,
    ZERO,
    as_level,
    derive_implications,
    guarantee_level,
    high_privacy_bound,
    ldp_to_context,
    ldp_to_pmc,
    max_realizable_cost,
    pmc_to_pml,
    pml_to_pmc,
    randomized_response,
    sweep_curves,
    verify_boundedness_equivalence,
)
from infodens.errors import InvalidPmin
from infodens.sampling import random_joint

LOG15 = ExtReal.from_ratio(Fraction(3, 2))
LOG2 = ExtReal.from_ratio(Fraction(2))


class TestPmlToPmc:
    def test_zero_maps_to_zero(self):
        for p in (0.1, 0.5, 1.0):
            assert pml_to_pmc(0.0, p) == ZERO

    def test_exact_binary_value(self):
        assert pml_to_pmc(LOG15, Fraction(1, 2)).ratio == Fraction(2)

    def test_boundary_is_infinite(self):
        assert pml_to_pmc(LOG2, Fraction(1, 2)) == INF
        assert pml_to_pmc(math.log(2) + 0.2, 0.5) == INF

    def test_degenerate_alphabet(self):
        assert pml_to_pmc(5.0, 1) == ZERO

    def test_invalid_pmin(self):
        for bad in (0, -0.2, 1.5, float("nan")):
            with pytest.raises(InvalidPmin):
                pml_to_pmc(0.1, bad)

    def test_monotone_in_eps_and_pmin(self):
        grid = [i * 0.05 for i in range(13)]
        values = [pml_to_pmc(x, 0.5).nats for x in grid]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        eps = 0.2
        by_p = [pml_to_pmc(eps, p).nats for p in (0.2, 0.3, 0.4, 0.5)]
        assert all(a >= b - 1e-15 for a, b in zip(by_p, by_p[1:]))


class TestPmcToPml:
    def test_zero_maps_to_zero(self):
        assert pmc_to_pml(0.0, 0.7) == ZERO

    def test_exact_binary_value(self):
        assert pmc_to_pml(LOG2, Fraction(1, 2)).ratio == Fraction(3, 2)

    def test_infinite_cost_saturates(self):
        assert pmc_to_pml(INF, Fraction(1, 2)).ratio == Fraction(2)
        assert pmc_to_pml(INF, Fraction(1, 4)).ratio == Fraction(4)

    def test_always_finite(self):
        assert pmc_to_pml(50.0, 0.01).is_finite


class TestLdpTranslations:
    def test_zero_maps_to_zeros(self):
        e1, e2 = ldp_to_context(0.0, 0.3)
        assert e1 == ZERO and e2 == ZERO

    def test_exact_binary_values(self):
        e1, e2 = ldp_to_context(LOG2, Fraction(1, 2))
        assert e1.ratio == Fraction(3, 2)
        assert e2.ratio == Fraction(4, 3)

    def test_vanishing_pmin_recovers_eps(self):
        e1, e2 = ldp_to_context(0.7, 1e-12)
        assert e1.nats == pytest.approx(0.7, abs=1e-9)
        assert e2.nats == pytest.approx(0.7, abs=1e-9)

    def test_pmc_translation_equals_lower_side(self):
        for eps in (0.1, 0.5, 1.3):
            for p in (0.1, 0.25, 0.5):
                assert ldp_to_pmc(eps, p) == ldp_to_context(eps, p)[0]

    def test_degenerate_prior(self):
        assert ldp_to_pmc(3.0, 1) == ZERO

    def test_upper_side_bounds_measured_leakage(self):
        # a channel at LDP level log 2 cannot leak more than log(4/3)
        channel = randomized_response(2, LOG2)
        j = Joint.from_prior_channel(Pmf((1, 1)), channel)
        assert guarantee_level(j, "ldp").eps.ratio == Fraction(2)
        assert guarantee_level(j, "pml").eps.ratio == Fraction(4, 3)
        _, e2 = ldp_to_context(LOG2, Fraction(1, 2))
        assert e2.ratio == Fraction(4, 3)

    def test_tight_on_binary_uniform_randomized_response(self):
        channel = randomized_response(2, LOG2)
        j = Joint.from_prior_channel(Pmf((1, 1)), channel)
        assert max_realizable_cost(j) == ldp_to_pmc(LOG2, Fraction(1, 2))


class TestDeriveImplications:
    def test_pml_source_in_high_privacy(self):
        result = derive_implications(Guarantee.pml(LOG15), Fraction(1, 2))
        assert result.high_privacy
        by_kind = {g.kind: g for g in result.implied}
        assert by_kind[GuaranteeKind.PMC].eps.ratio == Fraction(2)
        assert by_kind[GuaranteeKind.ALIP].eps_l.ratio == Fraction(2)
        assert by_kind[GuaranteeKind.ALIP].eps_u.ratio == Fraction(3, 2)
        assert by_kind[GuaranteeKind.LIP].eps.ratio == Fraction(2)
        assert by_kind[GuaranteeKind.LDP].eps.ratio == Fraction(3)

    def test_pml_zero_implies_all_zero(self):
        result = derive_implications(Guarantee.pml(0.0), 0.3)
        for g in result.implied:
            levels = [g.eps] if g.eps is not None else [g.eps_l, g.eps_u]
            assert all(level == ZERO for level in levels)

    def test_pml_outside_high_privacy_flagged(self):
        result = derive_implications(Guarantee.pml(LOG2), Fraction(1, 2))
        assert not result.high_privacy
        by_kind = {g.kind: g for g in result.implied}
        assert by_kind[GuaranteeKind.PMC].eps == INF
        assert by_kind[GuaranteeKind.LDP].eps == INF

    def test_pmc_source(self):
        result = derive_implications(Guarantee.pmc(LOG2), Fraction(1, 2))
        by_kind = {g.kind: g for g in result.implied}
        assert by_kind[GuaranteeKind.PML].eps.ratio == Fraction(3, 2)
        assert by_kind[GuaranteeKind.LDP].eps.ratio == Fraction(3)

    def test_lip_source_doubles_into_ldp(self):
        result = derive_implications(Guarantee.lip(LOG2), 0.5)
        by_kind = {g.kind: g for g in result.implied}
        assert by_kind[GuaranteeKind.LDP].eps.ratio == Fraction(4)
        assert by_kind[GuaranteeKind.ALIP].eps_l.ratio == Fraction(2)

    def test_alip_source_sums_into_ldp(self):
        result = derive_implications(
            Guarantee.alip(LOG2, LOG15), Fraction(1, 2)
        )
        by_kind = {g.kind: g for g in result.implied}
        assert by_kind[GuaranteeKind.LDP].eps.ratio == Fraction(3)
        assert by_kind[GuaranteeKind.PML].eps.ratio == Fraction(3, 2)
        assert by_kind[GuaranteeKind.PMC].eps.ratio == Fraction(2)

    def test_ldp_source(self):
        result = derive_implications(Guarantee.ldp(LOG2), Fraction(1, 2))
        by_kind = {g.kind: g for g in result.implied}
        assert by_kind[GuaranteeKind.PMC].eps.ratio == Fraction(3, 2)
        assert by_kind[GuaranteeKind.PML].eps.ratio == Fraction(4, 3)
        assert by_kind[GuaranteeKind.LIP].eps.ratio == Fraction(3, 2)

    def test_ldp_source_lip_is_lower_bound(self):
        # eps_u <= eps_l holds exactly, but in floats eps_u rounds one ulp above
        result = derive_implications(Guarantee.ldp(9.594240800441438e-13), 0.5)
        by_kind = {g.kind: g for g in result.implied}
        alip = by_kind[GuaranteeKind.ALIP]
        assert alip.eps_u > alip.eps_l
        assert by_kind[GuaranteeKind.LIP].eps == alip.eps_l

    def test_binary_uniform_round_trip_is_identity(self):
        rng = random.Random(8)
        for _ in range(50):
            x = rng.uniform(0.0, math.log(2) * 0.98)
            el = pml_to_pmc(x, 0.5)
            back = pmc_to_pml(el, 0.5)
            assert back.nats == pytest.approx(x, abs=1e-12)


def _reference_implications(g, p):
    """The per-kind closure that spells out every implied guarantee."""
    kind = g.kind
    if kind is GuaranteeKind.PML:
        eps_u = g.eps
        eps_l = pml_to_pmc(eps_u, p)
        implied = (
            Guarantee(GuaranteeKind.PMC, eps=eps_l),
            Guarantee(GuaranteeKind.ALIP, eps_l=eps_l, eps_u=eps_u),
            Guarantee(GuaranteeKind.LIP, eps=max(eps_l, eps_u)),
            Guarantee(GuaranteeKind.LDP, eps=eps_l + eps_u),
        )
        return implied, eps_l.is_finite
    if kind is GuaranteeKind.PMC:
        eps_l = g.eps
        eps_u = pmc_to_pml(eps_l, p)
        implied = (
            Guarantee(GuaranteeKind.PML, eps=eps_u),
            Guarantee(GuaranteeKind.ALIP, eps_l=eps_l, eps_u=eps_u),
            Guarantee(GuaranteeKind.LIP, eps=max(eps_l, eps_u)),
            Guarantee(GuaranteeKind.LDP, eps=eps_l + eps_u),
        )
        return implied, True
    if kind is GuaranteeKind.LDP:
        eps1, eps2 = ldp_to_context(g.eps, p)
        implied = (
            Guarantee(GuaranteeKind.LIP, eps=eps1),
            Guarantee(GuaranteeKind.ALIP, eps_l=eps1, eps_u=eps2),
            Guarantee(GuaranteeKind.PML, eps=eps2),
            Guarantee(GuaranteeKind.PMC, eps=eps1),
        )
        return implied, True
    if kind is GuaranteeKind.LIP:
        eps = g.eps
        implied = (
            Guarantee(GuaranteeKind.ALIP, eps_l=eps, eps_u=eps),
            Guarantee(GuaranteeKind.PML, eps=eps),
            Guarantee(GuaranteeKind.PMC, eps=eps),
            Guarantee(GuaranteeKind.LDP, eps=eps + eps),
        )
        return implied, True
    implied = (
        Guarantee(GuaranteeKind.PML, eps=g.eps_u),
        Guarantee(GuaranteeKind.PMC, eps=g.eps_l),
        Guarantee(GuaranteeKind.LDP, eps=g.eps_l + g.eps_u),
    )
    return implied, True


def _closure_corpus(rng, exact):
    """Seeded (level, p_min) pairs, including the boundary and tiny levels."""
    for _ in range(60):
        if exact:
            p = Fraction(rng.randint(1, 20), rng.randint(20, 60))
            edge = 1 / (1 - p)
            ratios = [
                Fraction(1), edge, edge * Fraction(rng.randint(101, 300), 100),
                1 + Fraction(1, 10 ** rng.randint(11, 40)),
                1 + (edge - 1) * Fraction(rng.randint(1, 99), 100),
                Fraction(rng.randint(1, 10**6), 1000) + 1,
            ]
            levels = [ExtReal.from_ratio(r) for r in ratios] + [INF]
        else:
            p = rng.uniform(1e-3, 1.0)
            edge = high_privacy_bound(p).nats
            levels = [
                0.0, edge, edge * rng.uniform(1.0, 3.0), 10.0 ** -rng.uniform(10.5, 17.0),
                edge * rng.random(), rng.expovariate(0.3), math.inf,
            ]
        yield [as_level(x) for x in levels], p


def _level_fields(g):
    return [g.eps] if g.eps is not None else [g.eps_l, g.eps_u]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_closure_matches_per_kind_reference(exact):
    rng = random.Random(1515 + exact)
    sources = 0
    for levels, p in _closure_corpus(rng, exact):
        guarantees = [
            make(eps)
            for make in (Guarantee.pml, Guarantee.pmc, Guarantee.lip, Guarantee.ldp)
            for eps in levels
        ]
        guarantees += [Guarantee.alip(lo, hi) for lo in levels for hi in rng.sample(levels, 3)]
        for g in guarantees:
            result = derive_implications(g, p)
            expected, high_privacy = _reference_implications(g, p)
            assert [i.kind for i in result.implied] == [e.kind for e in expected]
            for got, want in zip(result.implied, expected):
                got_levels, want_levels = _level_fields(got), _level_fields(want)
                assert got_levels == want_levels, (g, p)
                assert [type(x.ratio) for x in got_levels] == [type(x.ratio) for x in want_levels]
            assert result.high_privacy is high_privacy
            sources += 1
    assert sources == 60 * (4 * 7 + 7 * 3)


class TestSweepCurves:
    def test_involution_for_uniform_binary(self):
        for x in (0.1, 0.2, 0.3):
            el = pml_to_pmc(x, 0.5)
            assert pmc_to_pml(el, 0.5).nats == pytest.approx(x, abs=1e-12)

    def test_reference_point_for_small_pmin(self):
        value = pml_to_pmc(0.2, 0.2).nats
        direct = math.log(0.2 / (1.0 - math.exp(0.2) * 0.8))
        assert value == pytest.approx(direct, abs=1e-12)
        assert value == pytest.approx(2.168, abs=1e-3)

    def test_tables_start_at_origin_and_grow(self):
        table = sweep_curves(0.2, 50)
        assert table.pml_to_pmc_rows[0] == (0.0, 0.0)
        assert table.pmc_to_pml_rows[0] == (0.0, 0.0)
        for rows in (table.pml_to_pmc_rows, table.pmc_to_pml_rows):
            xs = [a for a, _ in rows]
            ys = [b for _, b in rows]
            assert all(a < b for a, b in zip(xs, xs[1:]))
            assert all(a <= b + 1e-15 for a, b in zip(ys, ys[1:]))

    def test_divergence_near_boundary(self):
        table = sweep_curves(0.2, 100)
        boundary = -math.log1p(-0.2)
        assert table.pml_to_pmc_rows[-1][0] < boundary
        assert table.pml_to_pmc_rows[-1][1] > 4.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_curves(0.5, 1)
        with pytest.raises(InvalidPmin):
            sweep_curves(1.0, 10)

    def test_csv_headers(self):
        table = sweep_curves(0.5, 3)
        assert table.pml_to_pmc_csv().splitlines()[0] == "eps_u,eps_l_star"
        assert table.pmc_to_pml_csv().splitlines()[0] == "eps_l,eps_u_star"
        assert table.pml_to_pmc_csv().splitlines()[1] == "0.0,0.0"

    def test_high_privacy_bound_values(self):
        assert high_privacy_bound(Fraction(1, 2)).ratio == Fraction(2)
        assert high_privacy_bound(1) == INF


class TestSoundnessOnRandomJoints:
    def test_measured_levels_respect_translations(self):
        rng = random.Random(4242)
        checked_high_privacy = 0
        for _ in range(300):
            j = random_joint(rng, rng.randint(2, 4), rng.randint(2, 4))
            p_min = j.prior.p_min
            measured_pml = guarantee_level(j, "pml").eps
            measured_pmc = guarantee_level(j, "pmc").eps
            measured_ldp = guarantee_level(j, "ldp").eps

            if measured_pml < high_privacy_bound(p_min):
                implied_pmc = pml_to_pmc(measured_pml, p_min)
                assert measured_pmc.nats <= implied_pmc.nats + 1e-12
                checked_high_privacy += 1
            implied_pml = pmc_to_pml(measured_pmc, p_min)
            assert measured_pml.nats <= implied_pml.nats + 1e-12

            e1, e2 = ldp_to_context(measured_ldp, p_min)
            assert measured_pml.nats <= e2.nats + 1e-12
            assert measured_pmc.nats <= e1.nats + 1e-12
        assert checked_high_privacy > 50


class TestBoundednessEquivalence:
    def test_positive_channel(self, binary_symmetric_joint):
        assert verify_boundedness_equivalence(binary_symmetric_joint)

    def test_zero_entry_channel(self, zero_entry_joint):
        assert verify_boundedness_equivalence(zero_entry_joint)

    def test_random_channels_with_zeros(self):
        rng = random.Random(606)
        for _ in range(100):
            j = random_joint(
                rng, rng.randint(2, 5), rng.randint(2, 5), zero_prob=0.3
            )
            assert verify_boundedness_equivalence(j)
