"""The value classes: their repr, equality, hashing, read-only fields and constructors.

Every public class of the package is a frozen value: it prints as ``Name(field=value, ...)``,
equals another instance of the very same class with equal compared fields, hashes as it
compares, and refuses assignment.  The reprs below are pinned as the package prints them.
"""

import copy
import math
import pickle
from fractions import Fraction as F

import pytest

from infodens import (
    INF, ZERO, BoundedLaw, Channel, CostFunction, ExtReal, GaussianPerturbMechanism, Guarantee,
    GuaranteeKind, Joint, LaplaceMeanMechanism, Pmf, RandomizedFunction, SearchConfig,
    TranslationResult, leakage_profile, sweep_curves,
)
from infodens.oracles import OracleCertificate
from infodens.probcore import OutcomeLeakage
from infodens.properties import PropertyOutcome

HALF = F(1, 2)


def _prior():
    return Pmf((HALF, HALF))


def _channel():
    return Channel(((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4))))


def _joint():
    return Joint.from_prior_channel(_prior(), _channel())


#: name -> (a factory of a fresh instance, its compared fields, its repr).
CASES = {
    "ExtReal": (lambda: ExtReal(F(3, 2)), ("ratio",), "ExtReal(nats=0.4054651081081644, ratio=Fraction(3, 2))"),
    "ExtReal-float": (lambda: ExtReal(1.5), ("ratio",), "ExtReal(nats=0.4054651081081644, ratio=1.5)"),
    "ExtReal-inf": (lambda: ExtReal(math.inf), ("ratio",), "ExtReal(inf)"),
    "Pmf": (lambda: Pmf((1, 3)), ("weights",), "Pmf(weights=(Fraction(1, 4), Fraction(3, 4)))"),
    "Pmf-float": (lambda: Pmf((0.25, 0.75)), ("weights",), "Pmf(weights=(0.25, 0.75))"),
    "Channel": (
        _channel, ("rows",),
        "Channel(rows=((Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(3, 4))))",
    ),
    "Channel-float": (lambda: Channel(((0.5, 0.5), (1.0, 0.0))), ("rows",), "Channel(rows=((0.5, 0.5), (1.0, 0.0)))"),
    "RandomizedFunction": (
        lambda: RandomizedFunction(((1,), (1,))), ("rows",),
        "RandomizedFunction(rows=((Fraction(1, 1),), (Fraction(1, 1),)))",
    ),
    "OutcomeLeakage": (
        lambda: OutcomeLeakage(0, 0.5, pmc=ExtReal(F(2)), pml=ExtReal(F(3, 2))), ("y", "mass", "pmc", "pml"),
        "OutcomeLeakage(y=0, mass=0.5, pmc=ExtReal(nats=0.6931471805599453, ratio=Fraction(2, 1)), "
        "pml=ExtReal(nats=0.4054651081081644, ratio=Fraction(3, 2)))",
    ),
    "Joint": (
        _joint, ("prior", "channel", "marginal", "support"),
        "Joint(prior=Pmf(weights=(Fraction(1, 2), Fraction(1, 2))), channel=Channel(rows=((Fraction(3, 4), "
        "Fraction(1, 4)), (Fraction(1, 4), Fraction(3, 4)))), marginal=(Fraction(1, 2), Fraction(1, 2)), support=(0, 1))",
    ),
    "Guarantee": (
        lambda: Guarantee.lip(0.5), ("kind", "eps", "eps_l", "eps_u"),
        "Guarantee(kind=<GuaranteeKind.LIP: 'lip'>, eps=ExtReal(nats=0.5, ratio=1.6487212707001282), eps_l=None, eps_u=None)",
    ),
    "Guarantee-alip": (
        lambda: Guarantee(GuaranteeKind.ALIP, eps_l=ZERO, eps_u=ExtReal(F(2))), ("kind", "eps", "eps_l", "eps_u"),
        "Guarantee(kind=<GuaranteeKind.ALIP: 'alip'>, eps=None, eps_l=ExtReal(nats=0.0, ratio=Fraction(1, 1)), "
        "eps_u=ExtReal(nats=0.6931471805599453, ratio=Fraction(2, 1)))",
    ),
    "LeakageProfile": (
        lambda: leakage_profile(_joint()), ("rows",),
        "LeakageProfile(rows=(OutcomeLeakage(y=0, mass=0.5, pmc=ExtReal(nats=0.6931471805599453, ratio=Fraction(2, 1)), "
        "pml=ExtReal(nats=0.4054651081081644, ratio=Fraction(3, 2))), OutcomeLeakage(y=1, mass=0.5, "
        "pmc=ExtReal(nats=0.6931471805599453, ratio=Fraction(2, 1)), pml=ExtReal(nats=0.4054651081081644, "
        "ratio=Fraction(3, 2)))))",
    ),
    "TranslationResult": (
        lambda: TranslationResult(Guarantee.ldp(0.0), (), True, p_min=HALF), ("source", "implied", "high_privacy", "p_min"),
        "TranslationResult(source=Guarantee(kind=<GuaranteeKind.LDP: 'ldp'>, eps=ExtReal(nats=0.0, "
        "ratio=Fraction(1, 1)), eps_l=None, eps_u=None), implied=(), high_privacy=True, p_min=Fraction(1, 2))",
    ),
    "CurveTable": (
        lambda: sweep_curves(0.5, 2), ("p_min", "pml_to_pmc_rows", "pmc_to_pml_rows"),
        "CurveTable(p_min=0.5, pml_to_pmc_rows=((0.0, 0.0), (0.34657359027997264, 0.5347999967395702)), "
        "pmc_to_pml_rows=((0.0, 0.0), (0.5347999967395702, 0.3465735902799726)))",
    ),
    "CostFunction": (
        lambda: CostFunction(((0, 1), (1, 0.5))), ("table",),
        "CostFunction(table=((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), 0.5)))",
    ),
    "SearchConfig": (
        lambda: SearchConfig(resolution=5, seed=3), ("resolution", "max_u", "max_iterations", "seed", "exhaustive_limit"),
        "SearchConfig(resolution=5, max_u=3, max_iterations=2000, seed=3, exhaustive_limit=9)",
    ),
    "OracleCertificate": (
        lambda: OracleCertificate(ZERO, ZERO, RandomizedFunction(((1,), (1,))), 0.0),
        ("closed_form", "oracle_value", "witness", "gap_nats", "kernels_visited"),
        "OracleCertificate(closed_form=ExtReal(nats=0.0, ratio=Fraction(1, 1)), oracle_value=ExtReal(nats=0.0, "
        "ratio=Fraction(1, 1)), witness=RandomizedFunction(rows=((Fraction(1, 1),), (Fraction(1, 1),))), "
        "gap_nats=0.0, kernels_visited=())",
    ),
    "BoundedLaw": (
        lambda: BoundedLaw(0.0, 1.0, 0.5), ("lo", "hi", "mean", "cgf", "pdf", "family"),
        "BoundedLaw(lo=0.0, hi=1.0, mean=0.5, cgf=None, pdf=None, family='custom')",
    ),
    "LaplaceMeanMechanism": (
        lambda: LaplaceMeanMechanism(0.0, 1.0, n=1, b=1.0, law=BoundedLaw(0.0, 1.0, 0.5)), ("lo", "hi", "n", "b", "law"),
        "LaplaceMeanMechanism(lo=0.0, hi=1.0, n=1, b=1.0, law=BoundedLaw(lo=0.0, hi=1.0, mean=0.5, cgf=None, "
        "pdf=None, family='custom'))",
    ),
    "GaussianPerturbMechanism": (
        lambda: GaussianPerturbMechanism(1.0, 2.0, law=BoundedLaw(-1.0, 1.0, 0.0)), ("amplitude", "sigma", "law"),
        "GaussianPerturbMechanism(amplitude=1.0, sigma=2.0, law=BoundedLaw(lo=-1.0, hi=1.0, mean=0.0, cgf=None, "
        "pdf=None, family='custom'))",
    ),
    "PropertyOutcome": (
        lambda: PropertyOutcome("non_negativity", 5, 0, 0.0), ("name", "instances", "failures", "worst_violation"),
        "PropertyOutcome(name='non_negativity', instances=5, failures=0, worst_violation=0.0)",
    ),
}


@pytest.mark.parametrize("name", CASES)
class TestEveryValueClass:
    def test_repr(self, name):
        make, _, text = CASES[name]
        assert repr(make()) == text

    def test_fresh_equal_instances_compare_and_hash_alike(self, name):
        make, _, _ = CASES[name]
        a, b = make(), make()
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_every_field_is_read_only(self, name):
        make, fields, _ = CASES[name]
        value = make()
        for field in fields:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, before)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before

    def test_copies_and_pickles_are_equal(self, name):
        make, _, text = CASES[name]
        value = make()
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value) and repr(twin) == text

    def test_another_class_never_equals(self, name):
        make, _, _ = CASES[name]
        value = make()
        assert value != object() and value != None  # noqa: E711
        assert value.__eq__(object()) is NotImplemented


class TestEqualityReadsTheComparedFieldsOnly:
    def test_joint_with_and_without_cached_levels_and_integer_masses(self):
        built, plain = _joint(), _joint()
        built.profile_rows, built.worst_levels, built.ldp_level, built.outcome_ends
        direct = Joint(plain.prior, plain.channel, plain.marginal, plain.support)  # no integer masses
        assert built._int_marginal is not None and direct._int_marginal is None
        assert built == plain == direct
        assert hash(built) == hash(plain) == hash(direct)
        assert repr(built) == repr(direct)

    def test_channel_with_and_without_cached_columns(self):
        a, b = Channel(((0.5, 0.5), (0.25, 0.75))), Channel(((0.5, 0.5), (0.25, 0.75)))
        a.column_ends, a.column_stats
        assert a == b and hash(a) == hash(b)

    def test_pmf_ignores_its_integer_weights(self):
        a = Pmf((1, 3))
        assert a._int_weights is not None
        assert a == Pmf((F(1, 4), F(3, 4))) and hash(a) == hash(Pmf((F(1, 4), F(3, 4))))

    def test_different_fields_differ(self):
        assert Pmf((1, 3)) != Pmf((3, 1))
        assert SearchConfig(seed=1) != SearchConfig(seed=2)
        assert PropertyOutcome("a", 1, 0, 0.0) != PropertyOutcome("a", 1, 1, 0.0)


class TestSubclassesAreOtherValues:
    def test_channel_never_equals_a_randomized_function_with_the_same_rows(self):
        rows = ((F(1), F(0)), (HALF, HALF))
        channel, function = Channel(rows), RandomizedFunction(rows)
        assert channel.rows == function.rows
        assert channel != function and function != channel
        assert Channel(rows) == channel and RandomizedFunction(rows) == function


class TestExtRealOrder:
    def test_order_reads_the_ratio_on_both_backends(self):
        exact, floating, two = ExtReal(F(3, 2)), ExtReal(1.5), ExtReal(F(2))
        assert not exact < floating and not exact > floating
        assert exact <= floating and exact >= floating
        assert exact < two and two > floating and floating <= two and two >= exact
        assert ZERO < exact < INF and not INF < INF and INF <= INF

    @pytest.mark.parametrize("op", ("__lt__", "__le__", "__gt__", "__ge__"))
    def test_order_against_another_type_is_not_implemented(self, op):
        assert getattr(ExtReal(F(3, 2)), op)(F(3, 2)) is NotImplemented


class TestConstructors:
    def test_keyword_construction(self):
        lap = LaplaceMeanMechanism(0.0, 1.0, n=3, b=0.5)
        assert (lap.lo, lap.hi, lap.n, lap.b, lap.law.family) == (0.0, 1.0, 3, 0.5, "uniform")
        gauss = GaussianPerturbMechanism(sigma=2.0, amplitude=1.0)
        assert (gauss.amplitude, gauss.sigma, gauss.law.family) == (1.0, 2.0, "uniform")
        cfg = SearchConfig(resolution=7, seed=4)
        assert (cfg.resolution, cfg.max_u, cfg.max_iterations, cfg.seed, cfg.exhaustive_limit) == (7, 3, 2000, 4, 9)
        assert SearchConfig(3, 2, 5, 1, 4) == SearchConfig(resolution=3, max_u=2, max_iterations=5, seed=1, exhaustive_limit=4)
        law = BoundedLaw(lo=-1.0, hi=1.0, mean=0.0, family="discrete")
        assert (law.cgf, law.pdf, law.family) == (None, None, "discrete")
        assert Guarantee(GuaranteeKind.PML, ZERO) == Guarantee(kind=GuaranteeKind.PML, eps=ZERO)
        cert = OracleCertificate(ZERO, INF, RandomizedFunction(((1,),)), math.inf, kernels_visited=((2, 4, True),))
        assert cert.kernels_visited == ((2, 4, True),) and cert.witness_u == 1
        row = OutcomeLeakage(y=1, mass=0.25, pmc=ZERO, pml=INF)
        assert (row.y, row.mass, row.pmc, row.pml) == (1, 0.25, ZERO, INF)
        assert PropertyOutcome(name="x", instances=2, failures=1, worst_violation=0.5).passed is False
        assert CostFunction(table=[[0, 1]]).table == ((F(0), F(1)),)
        assert ExtReal(ratio=2).ratio == F(2) and Pmf(weights=[1, 1]).weights == (HALF, HALF)
        assert Channel(rows=[[1]]).rows == ((F(1),),)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"resolution": 1.5}, "resolution must be an integer, got 1.5"),
            ({"max_u": True}, "max_u must be an integer, got True"),
            ({"max_iterations": "9"}, "max_iterations must be an integer, got '9'"),
            ({"seed": None}, "seed must be an integer, got None"),
            ({"exhaustive_limit": 2.0}, "exhaustive_limit must be an integer, got 2.0"),
            ({"resolution": 1}, "resolution must be at least 2"),
            ({"max_u": 1}, "max_u must be at least 2"),
            ({"max_iterations": 0}, "max_iterations must be at least 1"),
            ({"resolution": 1.0, "seed": 0.5}, "resolution must be an integer, got 1.0"),
        ],
    )
    def test_search_config_messages(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            SearchConfig(**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "kind, kwargs, message",
        [
            (GuaranteeKind.ALIP, {"eps": ZERO, "eps_l": ZERO, "eps_u": ZERO}, "ALIP takes exactly (eps_l, eps_u)"),
            (GuaranteeKind.ALIP, {"eps_l": ZERO}, "ALIP takes exactly (eps_l, eps_u)"),
            (GuaranteeKind.PML, {}, "pml takes a single eps"),
            (GuaranteeKind.LDP, {"eps": ZERO, "eps_u": ZERO}, "ldp takes a single eps"),
            (GuaranteeKind.PMC, {"eps_l": ZERO}, "pmc takes a single eps"),
        ],
    )
    def test_guarantee_messages(self, kind, kwargs, message):
        with pytest.raises(ValueError) as info:
            Guarantee(kind, **kwargs)
        assert str(info.value) == message
