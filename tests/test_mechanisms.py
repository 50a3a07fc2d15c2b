import math
import random
from fractions import Fraction

import pytest

from infodens import (
    ExtReal,
    GaussianPerturbMechanism,
    Joint,
    LaplaceMeanMechanism,
    Pmf,
    ZERO,
    discrete_law,
    extremal_mechanism,
    extremal_mechanism_pmc,
    gaussian_tail_bound,
    guarantee_level,
    ldp_to_pmc,
    max_realizable_cost,
    parse_mechanism_doc,
    pml_to_pmc,
    randomized_response,
    randomized_response_pmc,
    uniform_law,
)
from infodens.errors import (
    CgfUnavailable,
    DimensionMismatch,
    InvalidAlphabet,
    OutsideHighPrivacy,
    ParseError,
)
from infodens.mechanisms import _uniform_cgf
from infodens.sampling import random_pmf

LOG_E_MINUS_1 = 0.5413248546129181  # log(e - 1), the uniform Laplace plateau

#: Documents with a wrong-typed field; each must raise ParseError.
MALFORMED_DOCS = [
    {"family": "rr", "n": 2, "eps_nats": 1, "prior": 5},
    {"family": "extremal", "eps_nats": 0.1, "prior": "ab"},
    {"family": "laplace_mean", "interval": [None, 1], "count": 1, "scale": 1.0},
    {"family": "laplace_mean", "interval": [0, 1], "count": 1.7, "scale": 1.0},
    {"family": "laplace_mean", "interval": [0, 1], "count": 1, "scale": math.inf},
    {"family": "gaussian", "amplitude": None, "sigma": 1},
    {"family": "gaussian", "amplitude": True, "sigma": 1},
]

RATIO2 = ExtReal.from_ratio(Fraction(2))
RATIO3 = ExtReal.from_ratio(Fraction(3))


class TestRandomizedResponse:
    def test_binary_channel(self):
        ch = randomized_response(2, RATIO3)
        assert ch.rows == (
            (Fraction(3, 4), Fraction(1, 4)),
            (Fraction(1, 4), Fraction(3, 4)),
        )

    def test_zero_level_is_uniform(self):
        ch = randomized_response(3, 0.0)
        assert all(e == Fraction(1, 3) for row in ch.rows for e in row)
        j = Joint.from_prior_channel(Pmf((1, 2, 3)), ch)
        for kind in ("pml", "pmc", "ldp", "lip"):
            assert guarantee_level(j, kind).eps == ZERO

    def test_four_symbols(self):
        ch = randomized_response(4, RATIO3)
        assert ch.rows[0][0] == Fraction(1, 2)
        assert ch.rows[0][1] == Fraction(1, 6)

    def test_ldp_level_is_the_parameter(self):
        for ratio in (Fraction(2), Fraction(7, 2)):
            ch = randomized_response(3, ExtReal.from_ratio(ratio))
            j = Joint.from_prior_channel(Pmf((1, 1, 1)), ch)
            assert guarantee_level(j, "ldp").eps.ratio == ratio

    def test_invalid_alphabet(self):
        with pytest.raises(InvalidAlphabet):
            randomized_response(1, 0.5)


class TestRandomizedResponsePmc:
    def test_zero_level(self):
        assert randomized_response_pmc(3, 0.0, Pmf((1, 1, 1))) == ZERO

    def test_binary_uniform_matches_ldp_translation(self):
        value = randomized_response_pmc(2, RATIO2, Pmf((1, 1)))
        assert value.ratio == Fraction(3, 2)
        assert value == ldp_to_pmc(RATIO2, Fraction(1, 2))

    def test_matches_measured_worst_outcome(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 5)
            ratio = Fraction(rng.randint(1, 28), 4)
            if ratio < 1:
                ratio = 1 / ratio
            prior = random_pmf(rng, n, exact=True)
            level = ExtReal.from_ratio(ratio)
            j = Joint.from_prior_channel(prior, randomized_response(n, level))
            assert randomized_response_pmc(n, level, prior) == max_realizable_cost(j)

    def test_approaches_parameter_with_peaked_prior(self):
        prior = Pmf((Fraction(999, 1000), Fraction(1, 1000)))
        value = randomized_response_pmc(2, RATIO2, prior)
        assert value.nats < math.log(2)
        assert value.nats > math.log(2) - 0.01

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            randomized_response_pmc(3, 0.5, Pmf((1, 1)))


class TestExtremalMechanism:
    def test_zero_level_collapses_to_prior_rows(self):
        prior = Pmf((Fraction(3, 10), Fraction(7, 10)))
        ch = extremal_mechanism(prior, 0.0)
        assert all(row == prior.weights for row in ch.rows)

    def test_binary_uniform_construction(self):
        prior = Pmf((1, 1))
        ch = extremal_mechanism(prior, ExtReal.from_ratio(Fraction(3, 2)))
        assert ch.rows == (
            (Fraction(1, 4), Fraction(3, 4)),
            (Fraction(3, 4), Fraction(1, 4)),
        )

    def test_output_marginal_reproduces_prior(self):
        prior = Pmf((3, 3, 2, 2))
        ch = extremal_mechanism(prior, ExtReal.from_ratio(Fraction(11, 10)))
        j = Joint.from_prior_channel(prior, ch)
        assert j.marginal == prior.weights

    def test_measured_leakage_level_is_exact(self):
        prior = Pmf((3, 3, 2, 2))
        ratio = Fraction(6, 5)
        j = Joint.from_prior_channel(
            prior, extremal_mechanism(prior, ExtReal.from_ratio(ratio))
        )
        assert guarantee_level(j, "pml").eps.ratio == ratio

    def test_boundary_rejected(self):
        with pytest.raises(OutsideHighPrivacy):
            extremal_mechanism(Pmf((1, 1)), RATIO2)
        with pytest.raises(OutsideHighPrivacy):
            extremal_mechanism_pmc(Pmf((1, 1)), math.log(2) + 0.1)

    def test_measured_cost_matches_closed_form_and_translation(self):
        prior = Pmf((3, 3, 2, 2))
        level = ExtReal.from_ratio(Fraction(23, 20))
        j = Joint.from_prior_channel(prior, extremal_mechanism(prior, level))
        measured = max_realizable_cost(j)
        assert measured == extremal_mechanism_pmc(prior, level)
        assert measured == pml_to_pmc(level, prior.p_min)

    def test_float_prior_agrees_to_tolerance(self):
        prior = Pmf((0.3, 0.3, 0.2, 0.2))
        j = Joint.from_prior_channel(prior, extremal_mechanism(prior, 0.1))
        assert max_realizable_cost(j).nats == pytest.approx(
            extremal_mechanism_pmc(prior, 0.1).nats, abs=1e-12
        )


class TestUniformCgf:
    def test_zero_argument(self):
        assert _uniform_cgf(0.5, 0.0) == 0.0

    def test_series_matches_direct_formula(self):
        for t in (1e-7, 1e-5, 0.01, 0.5, 3.0):
            direct = math.log(math.sinh(t * 0.5) / (t * 0.5))
            assert _uniform_cgf(0.5, t) == pytest.approx(direct, rel=1e-10)

    def test_symmetric(self):
        assert _uniform_cgf(0.3, 2.0) == _uniform_cgf(0.3, -2.0)

    def test_large_argument_stable(self):
        value = _uniform_cgf(1.0, 800.0)
        assert value == pytest.approx(800.0 - math.log(1600.0), rel=1e-12)


class TestLaplaceMean:
    def test_uniform_closed_form(self):
        m = LaplaceMeanMechanism(0.0, 1.0, 1, 1.0)
        assert m.sup_pmc() == pytest.approx(LOG_E_MINUS_1, abs=1e-15)

    def test_general_formula_matches_uniform_closed_form(self):
        # route the uniform law through the generic plateau formula
        m = LaplaceMeanMechanism(0.0, 1.0, 1, 1.0, law=uniform_law(0.0, 1.0))
        law = m.law
        t = 1.0 / (m.n * m.b)
        general = max(
            (law.mean - m.lo) * t + law.cgf(t), (m.hi - law.mean) * t + law.cgf(-t)
        )
        assert general == pytest.approx(m.sup_pmc(), abs=1e-12)

    def test_never_exceeds_dp_level(self):
        rng = random.Random(17)
        for _ in range(20):
            lo = rng.uniform(-2, 0)
            hi = lo + rng.uniform(0.5, 3)
            n = rng.randint(1, 4)
            b = rng.uniform(0.3, 2)
            pts = [lo, hi] + [rng.uniform(lo, hi) for _ in range(3)]
            law = discrete_law(pts, [rng.uniform(0.1, 1) for _ in pts])
            m = LaplaceMeanMechanism(lo, hi, n, b, law=law)
            assert m.sup_pmc() <= m.dp_level + 1e-12

    @pytest.mark.parametrize("width", (709.0, 709.79, 1000.0, 1e6))
    def test_wide_interval_stays_finite(self, width):
        # e^w - 1 overflows a float from w ~ 709.78 on
        m = LaplaceMeanMechanism(0.0, width, 1, 1.0)
        assert m.sup_pmc() == pytest.approx(m.pmc_at(width + 1.0), rel=1e-12)

    @pytest.mark.parametrize(
        "lo, hi, n, b",
        [
            (0.0, 1e308, 1, 1e-300),
            (-1e308, 1e308, 1, 1.0),
            (-1e308, 1e308, 10, 1e308),
            (0.0, 1.0, 1, 1e-320),
        ],
    )
    def test_overflowing_level_rejected(self, lo, hi, n, b):
        # beyond the float range, (hi - lo)/(n b) would make sup_pmc NaN
        with pytest.raises(ValueError, match="overflows the float range"):
            LaplaceMeanMechanism(lo, hi, n, b)

    def test_vanishes_with_many_points(self):
        m = LaplaceMeanMechanism(0.0, 1.0, 10**6, 1.0)
        assert m.sup_pmc() < 1e-3

    def test_plateaus_on_both_sides(self):
        m = LaplaceMeanMechanism(0.0, 1.0, 1, 1.0)
        assert m.pmc_at(2.0) == pytest.approx(LOG_E_MINUS_1, abs=1e-15)
        assert m.pmc_at(-1.0) == pytest.approx(LOG_E_MINUS_1, abs=1e-15)

    def test_quadrature_agrees_with_plateau(self):
        m = LaplaceMeanMechanism(0.0, 1.0, 1, 1.0)
        for y in (1.0, 2.0, 5.0, -1.0):
            assert m.pmc_at(y, method="quadrature") == pytest.approx(
                LOG_E_MINUS_1, abs=1e-6
            )

    def test_interior_below_supremum(self):
        m = LaplaceMeanMechanism(0.0, 1.0, 1, 1.0)
        for y in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert m.pmc_at(y) <= m.sup_pmc() + 1e-6

    def test_monte_carlo_interior_for_two_points(self):
        m = LaplaceMeanMechanism(0.0, 1.0, 2, 1.0)
        value = m.pmc_at(0.5, seed=7)
        assert value <= m.sup_pmc() + 0.05
        assert value >= 0.0

    def test_missing_cgf_raises(self):
        from infodens import BoundedLaw

        m = LaplaceMeanMechanism(
            0.0, 1.0, 1, 1.0, law=BoundedLaw(lo=0.0, hi=1.0, mean=0.5)
        )
        with pytest.raises(CgfUnavailable):
            m.sup_pmc()

    def test_validation(self):
        with pytest.raises(ValueError):
            LaplaceMeanMechanism(1.0, 0.0, 1, 1.0)
        with pytest.raises(ValueError):
            LaplaceMeanMechanism(0.0, 1.0, 0, 1.0)
        with pytest.raises(ValueError):
            LaplaceMeanMechanism(0.0, 1.0, 1, -1.0)


class TestGaussianPerturb:
    def test_bounds_at_origin(self):
        g = GaussianPerturbMechanism(1.0, 1.0)
        assert g.pmc_bounds(0.0) == (0.0, 0.5)

    def test_bounds_at_unit(self):
        g = GaussianPerturbMechanism(1.0, 1.0)
        assert g.pmc_bounds(1.0) == (1.0, 2.5)

    def test_doubling_noise_divides_bounds_by_four(self):
        g1 = GaussianPerturbMechanism(1.0, 1.0)
        g2 = GaussianPerturbMechanism(1.0, 2.0)
        lo1, hi1 = g1.pmc_bounds(3.0)
        lo2, hi2 = g2.pmc_bounds(3.0)
        assert lo2 == pytest.approx(lo1 / 4, abs=1e-15)
        assert hi2 == pytest.approx(hi1 / 4, abs=1e-15)

    def test_quadrature_inside_bounds(self):
        g = GaussianPerturbMechanism(1.0, 1.0)
        for y in (0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0):
            lo, hi = g.pmc_bounds(y)
            value = g.pmc_at(y)
            assert lo - 1e-9 <= value <= hi + 1e-9

    def test_quadrature_matches_normal_cdf_form(self):
        g = GaussianPerturbMechanism(1.0, 1.0)
        import numpy as np

        ys = (0.3, 1.7, -2.2, 8.0, -8.0, 9.0, -9.0)
        vec = g._pmc_uniform_vectorized(np.array(ys))
        for y, expected in zip(ys, vec):
            assert g.pmc_at(y) == pytest.approx(float(expected), abs=1e-9)

    def test_tail_bound_values(self):
        assert gaussian_tail_bound(1.0, 0.0) == 1.0
        assert gaussian_tail_bound(1.0, 4.0) == pytest.approx(2 / math.e, abs=1e-15)
        assert gaussian_tail_bound(1.0, 100.0) < 1e-200

    def test_tail_bound_validation(self):
        with pytest.raises(ValueError):
            gaussian_tail_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_tail_bound(1.0, -1.0)

    def test_tail_frequency_below_bound(self):
        g = GaussianPerturbMechanism(1.0, 1.0)
        freq, stderr = g.tail_frequency(4.0, n_samples=100_000, seed=2)
        assert freq <= g.tail_bound(4.0) + 3 * stderr

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianPerturbMechanism(-1.0, 1.0)
        with pytest.raises(ValueError):
            GaussianPerturbMechanism(1.0, 0.0)
        with pytest.raises(ValueError):
            GaussianPerturbMechanism(1.0, 1.0, law=uniform_law(0.0, 1.0))  # mean 1/2


class TestMechanismDocs:
    def test_raw_document(self):
        obj = parse_mechanism_doc(
            {"prior": [0.5, 0.5], "channel": [[0.75, 0.25], [0.25, 0.75]]}
        )
        assert isinstance(obj, Joint)

    def test_rr_document_exact(self):
        obj = parse_mechanism_doc(
            {"family": "rr", "n": 2, "eps_ratio": "3", "prior": [1, 1]}, exact=True
        )
        assert obj.channel.rows[0] == (Fraction(3, 4), Fraction(1, 4))

    def test_extremal_document(self):
        obj = parse_mechanism_doc(
            {"family": "extremal", "prior": [0.5, 0.5], "eps_nats": 0.1}
        )
        assert isinstance(obj, Joint)

    def test_continuous_documents(self):
        lap = parse_mechanism_doc(
            {"family": "laplace_mean", "interval": [0, 1], "count": 1, "scale": 1.0}
        )
        assert isinstance(lap, LaplaceMeanMechanism)
        gau = parse_mechanism_doc({"family": "gaussian", "amplitude": 1, "sigma": 1})
        assert isinstance(gau, GaussianPerturbMechanism)

    def test_bad_documents(self):
        with pytest.raises(ParseError):
            parse_mechanism_doc({"family": "unknown"})
        with pytest.raises(ParseError):
            parse_mechanism_doc({"family": "rr", "n": 2, "eps_nats": 0.1})
        with pytest.raises(ParseError):
            parse_mechanism_doc({"family": "rr", "n": 2, "prior": [1, 1]})
        with pytest.raises(ParseError):
            parse_mechanism_doc({"family": "laplace_mean", "interval": [0, 1]})
        for doc in MALFORMED_DOCS:
            with pytest.raises(ParseError):
                parse_mechanism_doc(doc)
