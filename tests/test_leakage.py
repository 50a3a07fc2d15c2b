import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from infodens import (
    Channel,
    Guarantee,
    GuaranteeKind,
    INF,
    Joint,
    Pmf,
    ZERO,
    ExtReal,
    all_guarantee_levels,
    conditional_pmc,
    expected_pmc,
    guarantee_level,
    leakage_profile,
    max_cost_leakage,
    max_divergence,
    max_realizable_cost,
    pmc,
    pml,
)
from infodens import probcore
from infodens.bounds import derive_implications, verify_boundedness_equivalence
from infodens.errors import UndefinedOutcome
from infodens.sampling import random_joint


class TestPmc:
    def test_independent_is_zero(self, independent_joint):
        for y in independent_joint.support:
            assert pmc(independent_joint, y) == ZERO

    def test_binary_symmetric_value(self, binary_symmetric_joint):
        value = pmc(binary_symmetric_joint, 0)
        assert value.ratio == Fraction(2)
        # cross-check against the divergence of the prior from the posterior
        oracle = max_divergence(
            binary_symmetric_joint.prior, binary_symmetric_joint.posterior(0)
        )
        assert value == oracle

    def test_zero_posterior_entry_is_infinite(self, zero_entry_joint):
        assert pmc(zero_entry_joint, 0) == INF
        assert zero_entry_joint.posterior(0) == (Fraction(1), Fraction(0))

    def test_undefined_outcome(self):
        j = Joint.from_prior_channel(Pmf((1, 1)), Channel(((1, 0), (1, 0))))
        for measure in (pmc, pml):
            with pytest.raises(UndefinedOutcome):
                measure(j, 1)

    @pytest.mark.parametrize("measure", (pmc, pml))
    def test_bool_and_negative_outcomes_rejected(self, binary_symmetric_joint, measure):
        for y in (True, False, -1, 2, 1.0):
            with pytest.raises(UndefinedOutcome):
                measure(binary_symmetric_joint, y)


class TestPml:
    def test_independent_is_zero(self, independent_joint):
        for y in independent_joint.support:
            assert pml(independent_joint, y) == ZERO

    def test_binary_symmetric_value(self, binary_symmetric_joint):
        value = pml(binary_symmetric_joint, 0)
        assert value.ratio == Fraction(3, 2)
        top_density = max(
            max_divergence(
                binary_symmetric_joint.posterior(y), binary_symmetric_joint.prior
            )
            for y in binary_symmetric_joint.support
        )
        assert top_density.ratio == Fraction(3, 2)

    def test_point_mass_posterior(self):
        j = Joint.from_prior_channel(Pmf((1, 1)), Channel.identity(2))
        assert pml(j, 0).ratio == Fraction(2)

    def test_always_finite_even_with_zeros(self, zero_entry_joint):
        for y in zero_entry_joint.support:
            assert pml(zero_entry_joint, y).is_finite


class TestConditionalPmc:
    def test_irrelevant_side_information(self, binary_symmetric_joint):
        family = {0: binary_symmetric_joint, 1: binary_symmetric_joint}
        for z in (0, 1):
            assert conditional_pmc(family, 0, z) == pmc(binary_symmetric_joint, 0)

    def test_markov_chain_prior_equals_unconditioned(self, binary_symmetric_joint):
        # side information upstream of the secret with the same conditional prior
        family = {0: binary_symmetric_joint}
        assert conditional_pmc(family, 1, 0) == pmc(binary_symmetric_joint, 1)

    def test_skewed_conditional_prior(self):
        # brute-force computation with exact rationals:
        # conditioned prior (4/5, 1/5), channel rows (3/4,1/4) / (1/4,3/4)
        prior_z0 = Pmf((Fraction(4, 5), Fraction(1, 5)))
        channel = Channel(
            ((Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(3, 4)))
        )
        joint_z0 = Joint.from_prior_channel(prior_z0, channel)
        post = joint_z0.posterior(0)
        assert post == (Fraction(12, 13), Fraction(1, 13))
        by_hand = max(Fraction(4, 5) / post[0], Fraction(1, 5) / post[1])
        assert by_hand == Fraction(13, 5)
        assert conditional_pmc({0: joint_z0}, 0, 0).ratio == Fraction(13, 5)
        assert conditional_pmc({0: joint_z0}, 0, 0).nats == pytest.approx(
            math.log(2.6)
        )

    def test_missing_side_information(self, binary_symmetric_joint):
        with pytest.raises(UndefinedOutcome):
            conditional_pmc({0: binary_symmetric_joint}, 0, 3)

    def test_negative_side_information_does_not_wrap(
        self, binary_symmetric_joint, independent_joint
    ):
        family = [independent_joint, binary_symmetric_joint]
        with pytest.raises(UndefinedOutcome):
            conditional_pmc(family, 0, -1)

    def test_bool_side_information_rejected(self, binary_symmetric_joint):
        family = [binary_symmetric_joint, binary_symmetric_joint]
        with pytest.raises(UndefinedOutcome):
            conditional_pmc(family, 0, True)
        with pytest.raises(UndefinedOutcome):
            conditional_pmc(family, True, 0)

    @pytest.mark.parametrize("container", [list, dict], ids=["list", "dict"])
    @pytest.mark.parametrize("z", [0.0, 0.5, "a", None], ids=repr)
    def test_non_int_side_information_rejected(self, binary_symmetric_joint, container, z):
        joints = [binary_symmetric_joint, binary_symmetric_joint]
        family = joints if container is list else dict(enumerate(joints))
        with pytest.raises(UndefinedOutcome):
            conditional_pmc(family, 0, z)


class TestGuaranteeLevel:
    def test_deterministic_mechanism(self):
        j = Joint.from_prior_channel(Pmf((1, 1)), Channel.identity(2))
        assert guarantee_level(j, "ldp").eps == INF
        assert guarantee_level(j, "pmc").eps == INF
        assert guarantee_level(j, "pml").eps.ratio == Fraction(2)

    def test_ldp_by_pair_enumeration(self, binary_symmetric_joint):
        j = binary_symmetric_joint
        # independent oracle: enumerate ordered pairs and output ratios directly
        best = 0.0
        rows = [[float(e) for e in row] for row in j.channel.rows]
        for a in range(2):
            for b in range(2):
                if a == b:
                    continue
                for y in range(2):
                    if rows[a][y] > 0:
                        best = max(best, rows[a][y] / rows[b][y])
        assert best == pytest.approx(3.0)
        assert guarantee_level(j, GuaranteeKind.LDP).eps.ratio == Fraction(3)

    def test_independent_channel_all_zero(self, independent_joint):
        for kind in ("pml", "pmc", "lip", "ldp"):
            assert guarantee_level(independent_joint, kind).eps == ZERO
        alip = guarantee_level(independent_joint, "alip")
        assert alip.eps_l == ZERO and alip.eps_u == ZERO

    def test_alip_combines_both_sides(self, binary_symmetric_joint):
        alip = guarantee_level(binary_symmetric_joint, "alip")
        assert alip.eps_l.ratio == Fraction(2)
        assert alip.eps_u.ratio == Fraction(3, 2)
        lip = guarantee_level(binary_symmetric_joint, "lip")
        assert lip.eps.ratio == Fraction(2)


class TestAggregates:
    def test_max_cost_leakage_by_column_minima(self, binary_symmetric_joint):
        # independent oracle: sum the column minima directly
        j = binary_symmetric_joint
        total = sum(min(row[y] for row in j.channel.rows) for y in range(2))
        assert total == Fraction(1, 2)
        assert max_cost_leakage(j).ratio == Fraction(2)

    def test_independent_channel_leaks_nothing(self, independent_joint):
        assert max_cost_leakage(independent_joint) == ZERO

    def test_identity_channel_is_infinite(self):
        j = Joint.from_prior_channel(Pmf((1, 1)), Channel.identity(2))
        assert max_cost_leakage(j) == INF

    def test_max_realizable_cost_is_worst_outcome(self, binary_symmetric_joint):
        j = binary_symmetric_joint
        assert max_realizable_cost(j) == max(pmc(j, y) for y in j.support)
        assert max_realizable_cost(j).ratio == Fraction(2)

    def test_max_realizable_cost_infinite_with_zero(self, zero_entry_joint):
        assert max_realizable_cost(zero_entry_joint) == INF

    def test_jensen_gap_on_random_instances(self):
        rng = random.Random(1234)
        for _ in range(100):
            j = random_joint(rng, rng.randint(2, 4), rng.randint(2, 4))
            mcl = max_cost_leakage(j).nats
            avg = expected_pmc(j)
            assert mcl <= avg + 1e-12
            values = [pmc(j, y).nats for y in j.support]
            if max(values) - min(values) > 1e-6:
                assert avg - mcl > 1e-12

    def test_jensen_equality_when_profile_constant(self, binary_symmetric_joint):
        j = binary_symmetric_joint
        assert expected_pmc(j) == pytest.approx(max_cost_leakage(j).nats, abs=1e-12)


class TestProfileCsv:
    def test_header_and_values(self, binary_symmetric_joint):
        csv = leakage_profile(binary_symmetric_joint).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "y,P_Y,pmc_nats,pml_nats,info_density_min,info_density_max"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 0.5
        assert float(first[2]) == pytest.approx(math.log(2))
        assert float(first[3]) == pytest.approx(math.log(1.5))
        # numeric fields round-trip exactly through float()
        assert repr(float(first[2])) == first[2]

    def test_inf_token(self, zero_entry_joint):
        csv = leakage_profile(zero_entry_joint).to_csv()
        row = csv.strip().split("\n")[1].split(",")
        assert row[2] == "inf"
        assert row[4] == "-inf"

    def test_bits_unit_headers(self, binary_symmetric_joint):
        csv = leakage_profile(binary_symmetric_joint).to_csv(unit="bits")
        lines = csv.strip().split("\n")
        assert "pmc_bits" in lines[0]
        assert float(lines[1].split(",")[2]) == pytest.approx(1.0)  # log2(2)


class TestGuaranteeType:
    def test_single_eps_kinds(self):
        g = Guarantee.pml(0.3)
        assert g.kind is GuaranteeKind.PML
        assert g.eps.nats == pytest.approx(0.3)

    def test_alip_pair(self):
        g = Guarantee.alip(0.5, 0.3)
        assert g.eps_l.nats == pytest.approx(0.5)
        assert g.eps_u.nats == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Guarantee(GuaranteeKind.PML, eps=None)
        with pytest.raises(ValueError):
            Guarantee.pml(-0.1)

    def test_serialization_inf_token(self):
        g = Guarantee(GuaranteeKind.PMC, eps=INF)
        assert g.to_dict()["eps_nats"] == "inf"


# ---------------------------------------------------------------------------
# Column reduction against the definitions
# ---------------------------------------------------------------------------


def _ref_pmc(joint, y):
    """Largest prior-to-posterior ratio, one secret value at a time."""
    m = joint.marginal[y]
    best = None
    for row in joint.channel.rows:
        if row[y] == 0:
            return INF
        ratio = m / row[y]
        if best is None or ratio > best:
            best = ratio
    return ExtReal.from_ratio(best)


def _ref_pml(joint, y):
    """Largest posterior-to-prior ratio, one secret value at a time."""
    m = joint.marginal[y]
    best = None
    for row in joint.channel.rows:
        ratio = row[y] / m
        if best is None or ratio > best:
            best = ratio
    return ExtReal.from_ratio(best)


def _ref_ldp(joint):
    """Largest order-infinity divergence between two channel rows."""
    rows = joint.channel.rows
    best = ZERO
    for a, b in itertools.permutations(range(len(rows)), 2):
        d = max_divergence(rows[a], rows[b])
        if d > best:
            best = d
    return best


def _ref_levels(joint):
    eps_l = max(_ref_pmc(joint, y) for y in joint.support)
    eps_u = max(_ref_pml(joint, y) for y in joint.support)
    return {
        "pml": Guarantee(GuaranteeKind.PML, eps=eps_u),
        "pmc": Guarantee(GuaranteeKind.PMC, eps=eps_l),
        "lip": Guarantee(GuaranteeKind.LIP, eps=max(eps_l, eps_u)),
        "alip": Guarantee(GuaranteeKind.ALIP, eps_l=eps_l, eps_u=eps_u),
        "ldp": Guarantee(GuaranteeKind.LDP, eps=_ref_ldp(joint)),
    }


def _ref_max_cost_leakage(joint):
    total = None
    for y in range(joint.n_outputs):
        lo = min(row[y] for row in joint.channel.rows)
        total = lo if total is None else total + lo
    return INF if total == 0 else ExtReal.from_ratio(1 / total)


def _ref_expected_pmc(joint):
    acc = 0.0
    for y in joint.support:
        level = _ref_pmc(joint, y)
        if not level.is_finite:
            return math.inf
        acc += float(joint.marginal[y]) * level.nats
    return acc


def _assert_same_level(got, want):
    assert got == want
    assert type(got.ratio) is type(want.ratio)


def _random_case(rng):
    """A joint with zero entries, all-zero columns, repeated rows or one row."""
    n_x, n_y = rng.randint(1, 9), rng.randint(1, 9)
    exact = rng.random() < 0.5
    zero_prob = rng.choice((0.0, 0.2, 0.5))
    dead = set()
    if rng.random() < 0.3:
        dead = set(rng.sample(range(n_y), rng.randint(0, n_y - 1)))
    live = [y for y in range(n_y) if y not in dead]
    rows = []
    for _ in range(n_x):
        if exact or rng.random() < 0.5:
            weights = [rng.randint(1, 12) for _ in range(n_y)]
        else:
            weights = [rng.choice((1e-300, rng.random())) for _ in range(n_y)]
        for y in range(n_y):
            if y in dead or rng.random() < zero_prob:
                weights[y] = 0
        if not any(weights):
            weights[rng.choice(live)] = 1
        total = sum(weights)
        rows.append(tuple(Fraction(w) / total if exact else w / total for w in weights))
    if n_x > 1 and rng.random() < 0.2:
        rows = [rows[0]] * n_x
    # A prior of the other backend mixes float and rational arithmetic.
    if rng.random() < 0.2:
        exact = not exact
    prior = [Fraction(rng.randint(1, 20)) if exact else rng.uniform(0.05, 1.0) for _ in range(n_x)]
    return Joint.from_prior_channel(Pmf(tuple(prior)), Channel(tuple(rows)))


class TestColumnReductionMatchesDefinitions:
    def test_levels_profile_and_aggregates_identical(self):
        rng = random.Random(20240611)
        kinds = set()
        for _ in range(1200):
            j = _random_case(rng)
            got = all_guarantee_levels(j)
            want = _ref_levels(j)
            assert list(got) == list(want)
            for name, g in got.items():
                for attr in ("eps", "eps_l", "eps_u"):
                    if getattr(want[name], attr) is not None:
                        _assert_same_level(getattr(g, attr), getattr(want[name], attr))
                assert guarantee_level(j, name) == g
            assert (got["ldp"].eps is ZERO) == (want["ldp"].eps is ZERO)

            profile = leakage_profile(j).rows
            assert [r.y for r in profile] == list(j.support)
            for r in profile:
                assert r.mass == float(j.marginal[r.y])
                _assert_same_level(r.pmc, _ref_pmc(j, r.y))
                _assert_same_level(r.pml, _ref_pml(j, r.y))
                _assert_same_level(pmc(j, r.y), _ref_pmc(j, r.y))
                _assert_same_level(pml(j, r.y), _ref_pml(j, r.y))

            _assert_same_level(max_cost_leakage(j), _ref_max_cost_leakage(j))
            _assert_same_level(max_realizable_cost(j), want["pmc"].eps)
            assert expected_pmc(j) == _ref_expected_pmc(j)

            pmc_finite = want["pmc"].eps.is_finite
            assert verify_boundedness_equivalence(j) == (
                pmc_finite == want["ldp"].eps.is_finite
                and (want["pml"].eps.is_finite or not pmc_finite)
            )
            kinds.add((
                j.channel.is_exact,
                j.prior.is_exact,
                j.n_inputs == 1,
                want["ldp"].eps is ZERO,
                want["ldp"].eps.is_finite,
                len(j.support) < j.n_outputs,
            ))
        # Every regime the generator aims at was drawn at least once.
        for i in range(6):
            assert {k[i] for k in kinds} == {True, False}


class TestPointwiseMatchesProfile:
    def test_pmc_and_pml_are_the_profile_rows(self):
        """Float, exact and mixed joints, with zero entries and all-zero columns."""
        rng = random.Random("pointwise:profile")
        kinds = set()
        for _ in range(400):
            j = _random_case(rng)
            rows = {r.y: r for r in j.profile_rows}
            assert list(rows) == list(j.support)
            for y, r in rows.items():
                _assert_same_level(pmc(j, y), r.pmc)
                _assert_same_level(pml(j, y), r.pml)
            kinds.add((j.channel.is_exact, j.prior.is_exact, len(j.support) < j.n_outputs))
        assert kinds == set(itertools.product((True, False), repeat=3))


class TestColumnReductionOncePerJoint:
    def test_one_reduction_across_a_full_analysis(self, monkeypatch):
        reduce = Joint.column_stats.func
        calls = []

        def counted(joint):
            calls.append(joint)
            return reduce(joint)

        prop = functools.cached_property(counted)
        prop.__set_name__(Joint, "column_stats")
        monkeypatch.setattr(Joint, "column_stats", prop)
        for exact in (True, False):
            j = random_joint(random.Random(11), 5, 4, exact=exact, zero_prob=0.2)
            calls.clear()
            all_guarantee_levels(j)
            leakage_profile(j)
            max_cost_leakage(j)
            max_realizable_cost(j)
            expected_pmc(j)
            verify_boundedness_equivalence(j)
            for y in j.support:
                pmc(j, y), pml(j, y)
            assert calls == [j]


def _count_reductions(monkeypatch, name: str) -> list:
    """Replace the cached property ``Joint.<name>`` by one that logs each joint it reduces."""
    reduce = getattr(Joint, name).func
    calls = []

    def counted(joint):
        calls.append(joint)
        return reduce(joint)

    prop = functools.cached_property(counted)
    prop.__set_name__(Joint, name)
    monkeypatch.setattr(Joint, name, prop)
    return calls


def _full_analysis(j: Joint) -> None:
    """Every level, translation, profile, aggregate and check an ``analyze`` run reads."""
    derive_implications(all_guarantee_levels(j)["pml"], j.prior.p_min)
    leakage_profile(j)
    max_cost_leakage(j)
    max_realizable_cost(j)
    expected_pmc(j)
    verify_boundedness_equivalence(j)


class TestProfileOncePerJoint:
    def test_one_profile_across_a_full_analysis(self, monkeypatch):
        calls = _count_reductions(monkeypatch, "profile_rows")
        levels = []

        def pmc_level(m, lo):
            levels.append(m)
            return make_level(m, lo)

        make_level = probcore._pmc_level
        monkeypatch.setattr(probcore, "_pmc_level", pmc_level)
        for exact in (True, False):
            j = random_joint(random.Random(12), 6, 5, exact=exact, zero_prob=0.2)
            twin = Joint.from_prior_channel(j.prior, j.channel)
            calls.clear()
            levels.clear()
            _full_analysis(j)
            assert calls == [j]
            assert len(levels) == len(j.support)
            # the cached profile takes no part in equality or hashing
            assert "profile_rows" in vars(j) and "profile_rows" not in vars(twin)
            assert twin == j and hash(twin) == hash(j)
            assert leakage_profile(twin) == leakage_profile(j)

    def test_one_ldp_reduction_across_a_full_analysis(self, monkeypatch):
        calls = _count_reductions(monkeypatch, "ldp_level")
        for exact, zero_prob in ((True, 0.0), (True, 0.2), (False, 0.0), (False, 0.2)):
            j = random_joint(random.Random(13), 6, 5, exact=exact, zero_prob=zero_prob)
            twin = Joint.from_prior_channel(j.prior, j.channel)
            calls.clear()
            _full_analysis(j)
            assert guarantee_level(j, "ldp").eps is all_guarantee_levels(j)["ldp"].eps
            assert calls == [j]
            # the cached level takes no part in equality or hashing
            assert "ldp_level" in vars(j) and "ldp_level" not in vars(twin)
            assert twin == j and hash(twin) == hash(j)
            assert all_guarantee_levels(twin)["ldp"] == all_guarantee_levels(j)["ldp"]


def _entry_reference(prior, rows):
    """Marginal, support, column stats, levels, profile and aggregates, entry by entry."""
    n_y = len(rows[0])
    marginal = []
    for y in range(n_y):
        acc = Fraction(0)
        for w, row in zip(prior, rows):
            acc = acc + w * row[y]
        marginal.append(acc)
    support = tuple(y for y in range(n_y) if marginal[y] > 0)
    stats = []
    for y in range(n_y):
        lo = hi = rows[0][y]
        for row in rows[1:]:
            lo, hi = min(lo, row[y]), max(hi, row[y])
        stats.append((lo, hi))
    profile = []
    for y in support:
        m = marginal[y]
        if any(row[y] == 0 for row in rows):
            cost = INF
        else:
            cost = ExtReal.from_ratio(max(m / row[y] for row in rows))
        profile.append((y, float(m), cost, ExtReal.from_ratio(max(row[y] / m for row in rows))))
    eps_l = max(r[2] for r in profile)
    eps_u = max(r[3] for r in profile)
    ldp = ZERO
    for a, b in itertools.permutations(rows, 2):
        ldp = max(ldp, max_divergence(a, b))
    levels = {
        "pml": Guarantee(GuaranteeKind.PML, eps=eps_u),
        "pmc": Guarantee(GuaranteeKind.PMC, eps=eps_l),
        "lip": Guarantee(GuaranteeKind.LIP, eps=max(eps_l, eps_u)),
        "alip": Guarantee(GuaranteeKind.ALIP, eps_l=eps_l, eps_u=eps_u),
        "ldp": Guarantee(GuaranteeKind.LDP, eps=ldp),
    }
    lows = Fraction(0)
    for lo, _ in stats:
        lows = lows + lo
    mean = 0.0
    for _, mass, cost, _ in profile:
        mean = math.inf if not cost.is_finite else mean + mass * cost.nats
    aggregates = (INF if lows == 0 else ExtReal.from_ratio(1 / lows), eps_l, mean)
    return tuple(marginal), support, tuple(stats), levels, profile, aggregates


def _typed(values):
    return [(v, type(v)) for v in values]


def _integer_path_cases(rng):
    """Exact joints: zero entries and columns, coprime and large denominators, integer literals."""
    yield (1,), ((1,),)  # 1 x 1
    yield (2, 3, 5), ((1,), (1,), (1,))  # a single column
    yield (1, 1), ((1, 0, 0), (0, 0, 1))  # integer literals with an all-zero column
    for _ in range(120):
        n_x, n_y = rng.randint(1, 8), rng.randint(1, 8)
        top = rng.choice((9, 10**6, 10**30))
        dead = rng.randrange(n_y) if n_y > 1 and rng.random() < 0.3 else None
        rows = []
        for _ in range(n_x):
            counts = [0 if y == dead or rng.random() < 0.3 else rng.randint(1, top) for y in range(n_y)]
            if not any(counts):
                counts[1 if dead == 0 else 0] = 1
            total = sum(counts)  # a coprime denominator per row
            rows.append(tuple(Fraction(c, total) for c in counts))
        if rng.random() < 0.3:
            prior = tuple(rng.randint(1, 20) for _ in range(n_x))
        else:
            prior = tuple(Fraction(rng.randint(1, top), rng.randint(1, top)) for _ in range(n_x))
        yield prior, tuple(rows)


class TestIntegerPathMatchesEntryByEntry:
    def test_exact_joints_identical_to_the_entry_reference(self):
        for prior, rows in _integer_path_cases(random.Random(19)):
            j = Joint.from_prior_channel(Pmf(prior), Channel(rows))
            assert j.channel._int_columns is not None
            marginal, support, stats, levels, profile, aggregates = _entry_reference(
                j.prior.weights, j.channel.rows
            )
            assert _typed(j.marginal) == _typed(marginal)
            assert j.support == support
            assert [_typed(s) for s in j.column_stats] == [_typed(s) for s in stats]
            got = all_guarantee_levels(j)
            assert list(got) == list(levels)
            for name, g in got.items():
                for attr in ("eps", "eps_l", "eps_u"):
                    if getattr(levels[name], attr) is not None:
                        _assert_same_level(getattr(g, attr), getattr(levels[name], attr))
            rows_got = leakage_profile(j).rows
            assert [(r.y, r.mass) for r in rows_got] == [(y, mass) for y, mass, _, _ in profile]
            for r, (_, _, cost, leak) in zip(rows_got, profile):
                assert type(r.mass) is float
                _assert_same_level(r.pmc, cost)
                _assert_same_level(r.pml, leak)
            _assert_same_level(max_cost_leakage(j), aggregates[0])
            _assert_same_level(max_realizable_cost(j), aggregates[1])
            assert _typed([expected_pmc(j)]) == _typed([aggregates[2]])

    def test_mixed_joint_stays_on_the_float_path(self):
        half = Fraction(1, 2)
        j = Joint.from_prior_channel(
            Pmf((Fraction(1, 3), Fraction(2, 3))), Channel(((half, 0.5), (Fraction(1, 4), Fraction(3, 4))))
        )
        assert j.channel._int_columns is None
        # column 0 holds no float: its mass stays exact
        assert _typed(j.marginal) == [(Fraction(1, 3), Fraction), (math.fsum((1 / 6, 0.5)), float)]
        assert _typed(j.column_stats[1]) == [(0.5, float), (Fraction(3, 4), Fraction)]
        want = _ref_levels(j)
        for name, g in all_guarantee_levels(j).items():
            assert g == want[name]
        # a float in the prior alone keeps the marginal on the float path too
        j = Joint.from_prior_channel(Pmf((half, 0.5)), Channel(((half, half), (Fraction(1, 4), Fraction(3, 4)))))
        assert _typed(j.marginal) == [(math.fsum((0.25, 0.125)), float), (math.fsum((0.25, 0.375)), float)]
        assert _typed(j.column_stats[0]) == [(Fraction(1, 4), Fraction), (half, Fraction)]


def _reduction_case(rng):
    """An exact or mixed joint with huge denominators, tied outcomes, constant or dead columns, zeros."""
    n_x, n_y = rng.randint(1, 6), rng.randint(2, 7)
    top = rng.choice((12, 2**64, 2**200))
    base = [[0 if rng.random() < 0.2 else rng.randint(1, top) for _ in range(n_y)] for _ in range(n_x)]
    for y in range(1, n_y):
        if rng.random() < 0.3:  # a copy of an earlier column, or a multiple of it: every ratio ties
            src, k = rng.randrange(y), rng.choice((1, 1, 2, 3))
            for counts in base:
                counts[y] = k * counts[src]
    if rng.random() < 0.25:  # an outcome of zero mass
        for counts in base:
            counts[rng.randrange(n_y)] = 0
    for counts in base:
        if not any(counts):
            counts[rng.randrange(n_y)] = 1
    rows = [[Fraction(c, sum(counts)) for c in counts] for counts in base]
    if rng.random() < 0.25:  # one column constant across the secrets
        y, v = rng.randrange(n_y), Fraction(1, rng.randint(2, 9))
        rows = [[v if z == y else e * (1 - v) / (1 - row[y]) if row[y] != 1 else (1 - v) / (n_y - 1)
                 for z, e in enumerate(row)] for row in rows]
    if rng.random() < 0.2:  # every column constant: LDP is the zero level
        rows = [rows[0]] * n_x
    prior = [Fraction(rng.randint(1, top), rng.randint(1, top)) for _ in range(n_x)]
    mixed = rng.choice((None, None, "float prior", "float channel"))
    if mixed == "float prior":
        prior = [float(w) for w in prior]
    elif mixed == "float channel":
        rows = [[float(e) for e in row] for row in rows]
    return Joint.from_prior_channel(Pmf(tuple(prior)), Channel(tuple(map(tuple, rows)))), mixed


def _ties(levels) -> bool:
    return sum(1 for v in levels if v == max(levels)) > 1


class TestIntegerReduction:
    def test_exact_and_mixed_joints_match_the_references(self):
        """Every level, row and aggregate, with its type; INF and LDP's ZERO as the same objects."""
        rng = random.Random("integer-reduction")
        seen = set()
        for _ in range(500):
            j, mixed = _reduction_case(rng)
            assert j.channel.is_exact == (mixed != "float channel")
            want = _ref_levels(j)
            got = all_guarantee_levels(j)
            for name, g in got.items():
                for attr in ("eps", "eps_l", "eps_u"):
                    if (level := getattr(want[name], attr)) is not None:
                        _assert_same_level(getattr(g, attr), level)
                        assert (getattr(g, attr) is INF) == (not level.is_finite)
            assert (got["ldp"].eps is ZERO) == (want["ldp"].eps is ZERO)
            rows = leakage_profile(j).rows
            assert [r.y for r in rows] == list(j.support)
            for r in rows:
                assert r.mass == float(j.marginal[r.y])
                _assert_same_level(r.pmc, _ref_pmc(j, r.y))
                _assert_same_level(r.pml, _ref_pml(j, r.y))
                assert (r.pmc is INF) == (not r.pmc.is_finite)
            worst = max_realizable_cost(j)
            assert worst is got["pmc"].eps and any(worst is r.pmc for r in rows)
            assert any(got["pml"].eps is r.pml for r in rows)
            mcl = max_cost_leakage(j)
            _assert_same_level(mcl, _ref_max_cost_leakage(j))
            assert (mcl is INF) == (not mcl.is_finite)
            assert expected_pmc(j) == _ref_expected_pmc(j)
            ldp_ratios = [hi / lo for lo, hi in j.column_stats if lo != 0]
            seen.add((
                mixed,
                max(w.denominator for w in j.prior.weights) > 2**150 if mixed != "float prior" else None,
                _ties([r.pmc for r in rows]) and rows[0].pmc.is_finite,
                _ties([r.pml for r in rows]),
                len(ldp_ratios) > 1 and _ties(ldp_ratios) and max(ldp_ratios) > 1,
                want["ldp"].eps is ZERO,
                len(j.support) < j.n_outputs,
                not want["pmc"].eps.is_finite,
            ))
        # every regime the generator aims at was drawn for exact joints and both mixes
        for mixed in (None, "float prior", "float channel"):
            drawn = [k for k in seen if k[0] == mixed]
            for i in range(2 if mixed == "float prior" else 1, 8):
                assert any(k[i] for k in drawn) and not all(k[i] for k in drawn), (mixed, i)
