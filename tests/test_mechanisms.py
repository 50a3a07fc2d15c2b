import decimal
import math
import random
import warnings
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
    QuadratureFailure,
)
from infodens import mechanisms
from infodens.mechanisms import _quadrature_pmc, _uniform_cgf
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
        # a 50-digit log(sinh x / x); in floats it cancels for small x
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for t in (1e-7, 2.16e-6, 1e-5, 2e-4, 0.01, 0.5, 1.999, 2.0, 3.0, 100.0):
                x = decimal.Decimal(t * 0.5)
                direct = float(((x.exp() - (-x).exp()) / (2 * x)).ln())
                assert _uniform_cgf(0.5, t) == pytest.approx(direct, rel=2e-15, abs=0)

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

    def test_interior_for_two_points_is_exact_and_symmetric(self):
        # at the midpoint f_Y = 4e^{-1/2} - 2 and both pinned densities are
        # 1 - e^{-1/2}: the mean of two U[0, 1] points is triangular
        m = LaplaceMeanMechanism(0.0, 1.0, 2, 1.0)
        half = math.exp(-0.5)
        exact = math.log(4 * half - 2) - math.log1p(-half)
        assert m.pmc_at(0.5) == pytest.approx(exact, rel=1e-13, abs=0)
        for y in (0.1, 0.25, 0.4):
            assert m.pmc_at(y) == pytest.approx(m.pmc_at(1.0 - y), rel=1e-13, abs=0)

    def test_uniform_single_point_matches_analytic_form(self):
        # f_Y(y) = (1 - e^{-(y-lo)/b}/2 - e^{-(hi-y)/b}/2)/(hi - lo) inside the
        # data range; the floor is the noise density at the farther end
        rng = random.Random(41)
        for _ in range(200):
            width = 10 ** rng.uniform(-3, 15)
            lo = rng.uniform(-1, 1) * width
            hi = lo + width
            b = (hi - lo) / 10 ** rng.uniform(-1, 2)
            y = lo + rng.random() * (hi - lo)
            near, far = sorted(((y - lo) / b, (hi - y) / b))
            analytic = far + math.log(-(math.expm1(-near) + math.expm1(-far)) * b / (hi - lo))
            assert LaplaceMeanMechanism(lo, hi, 1, b).pmc_at(y) == pytest.approx(analytic, rel=1e-12, abs=0)

    def test_quadrature_noise_underflow_is_typed(self):
        # the noise density e^-999 at the far end of the data range underflows
        m = LaplaceMeanMechanism(0.0, 1000.0, 1, 1.0)
        with pytest.raises(QuadratureFailure, match="underflows"):
            m.pmc_at(1.0)

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


def _spline_corpus():
    """Seeded uniform mechanisms with n > 1 and levels (hi-lo)/(n b) in [0.3, 10]."""
    rng = random.Random(1717)
    cases = []
    for n in (2, 3, 5, 8):
        for _ in range(3):
            lo = rng.uniform(-2.0, 2.0)
            width = 10 ** rng.uniform(-1, 1)
            cases.append(LaplaceMeanMechanism(lo, lo + width, n, width / n / 10 ** rng.uniform(-0.5, 1)))
    return cases


class TestLaplaceSpline:
    """Interior levels of n > 1 uniform points, integrated against B-splines."""

    @pytest.mark.parametrize("m", _spline_corpus(), ids=lambda m: f"n{m.n}")
    def test_quadrature_beyond_both_ends_is_the_plateau(self, m):
        width = m.hi - m.lo
        for y in (m.hi, m.hi + 0.3 * width, m.lo, m.lo - 0.3 * width):
            assert m.pmc_at(y, method="quadrature") == pytest.approx(m.pmc_at(y), rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", _spline_corpus(), ids=lambda m: f"n{m.n}")
    def test_mirrored_points_agree(self, m):
        width = m.hi - m.lo
        for u in (0.05, 0.2, 0.45):
            left, right = m.pmc_at(m.lo + u * width), m.pmc_at(m.hi - u * width)
            assert left == pytest.approx(right, rel=1e-13, abs=0)
            assert 0 < left < m.sup_pmc()

    @pytest.mark.parametrize("m", _spline_corpus(), ids=lambda m: f"n{m.n}")
    def test_level_just_inside_meets_the_plateau(self, m):
        assert m.pmc_at(m.hi - 1e-9) == pytest.approx(m.sup_pmc(), rel=1e-8, abs=0)

    def test_values_ignore_seed_and_sample_count(self):
        m = LaplaceMeanMechanism(0.0, 1.0, 3, 1.0)
        for y in (0.1, 0.5, 0.9):
            assert m.pmc_at(y, seed=5, mc_samples=7) == m.pmc_at(y) == m.pmc_at(y, seed=1)

    @pytest.mark.parametrize("m", [m for m in _spline_corpus() if m.n <= 3], ids=lambda m: f"n{m.n}")
    def test_within_four_standard_errors_of_monte_carlo(self, m):
        import numpy as np

        samples = 200_000
        data = np.random.default_rng(20260).uniform(m.lo, m.hi, (samples, m.n))
        head = data[:, 1:].sum(axis=1)
        # f_Y and the densities with the first point pinned at lo and hi
        means = [data.sum(axis=1) / m.n, (head + m.lo) / m.n, (head + m.hi) / m.n]
        for y in (m.lo + 0.2 * (m.hi - m.lo), (m.lo + m.hi) / 2):
            dens = [np.exp(-np.abs(y - mean) / m.b) / (2 * m.b) for mean in means]
            f_y, at_lo, at_hi = (d.mean() for d in dens)
            estimate = math.log(f_y) - math.log(min(at_lo, at_hi))
            # the delta method, ignoring the (positive) correlation of the two terms
            floor = 1 if at_lo <= at_hi else 2
            stderr = math.hypot(*(dens[i].std(ddof=1) / math.sqrt(samples) / dens[i].mean() for i in (0, floor)))
            assert abs(m.pmc_at(y) - estimate) <= 4 * stderr

    @pytest.mark.parametrize("b, y, rules", [(1.0, 0.4, 1), (0.01, 0.37, 2)])
    def test_kink_breakpoint_bounds_the_rules_per_piece(self, b, y, rules, monkeypatch):
        # n = 3 splits f_Y at the knots 1, 2 and the kink z/a into 4 pieces, and each
        # pinned density at knot 1 and its kink into 3; one 21-point Gauss-Kronrod
        # rule takes a piece (two where the noise is narrow).  Without the kink quad
        # bisects the kinked pieces: 1,365 and 2,373 calls.
        calls = []
        noise_pdf = LaplaceMeanMechanism._noise_pdf
        monkeypatch.setattr(LaplaceMeanMechanism, "_noise_pdf", lambda m, u: calls.append(u) or noise_pdf(m, u))
        LaplaceMeanMechanism(0.0, 1.0, 3, b).pmc_at(y)
        assert len(calls) <= 21 * rules * 10

    def test_each_basis_element_is_built_once_per_level(self, monkeypatch):
        from scipy.interpolate import BSpline

        m, ys = LaplaceMeanMechanism(0.0, 1.0, 3, 1.0), (0.2, 0.5)
        levels = [m.pmc_at(y) for y in ys]
        basis_element, orders = BSpline.basis_element, []

        def counted(knots, *args, **kwargs):
            orders.append(len(knots) - 1)
            return basis_element(knots, *args, **kwargs)

        monkeypatch.setattr(BSpline, "basis_element", counted)
        assert [m.pmc_at(y) for y in ys] == levels
        # f_Y needs the order-3 element, both floor densities the order-2 one
        assert orders == [2, 3, 2, 3]

    def test_non_uniform_law_and_large_n_raise_before_integrating(self, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(mechanisms, "_checked_quad", no_quadrature)
        law = discrete_law([0.0, 0.5, 1.0], [1, 2, 1])
        with pytest.raises(ValueError, match="uniform law"):
            LaplaceMeanMechanism(0.0, 1.0, 2, 1.0, law=law).pmc_at(0.5)
        with pytest.raises(ValueError, match="n <= 128"):
            LaplaceMeanMechanism(0.0, 1.0, 129, 1.0).pmc_at(0.5)

    @pytest.mark.parametrize("width", [1440.0, 3000.0])
    def test_far_end_underflow_is_typed(self, width):
        # the density pinned at hi is subnormal (about 4e-316), then zero
        with pytest.raises(QuadratureFailure, match="underflows"):
            LaplaceMeanMechanism(0.0, width, 2, 1.0).pmc_at(1.0)


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

    def test_bounds_stay_finite_where_the_products_overflow(self):
        a, sigma = 1e200, 1e100
        g = GaussianPerturbMechanism(a, sigma)
        r = a / sigma
        for y in (0.0, 1.0, -2.0, 3e100, -1e250):
            lo, hi = g.pmc_bounds(y)
            u = abs(y) / sigma
            assert math.isfinite(lo) and math.isfinite(hi)
            assert lo == pytest.approx(r * u, rel=1e-12, abs=0)
            assert hi == pytest.approx(r * r / 2 + 2 * r * u, rel=1e-12, abs=0)

    def test_quadrature_inside_bounds(self):
        g = GaussianPerturbMechanism(1.0, 1.0)
        for y in (0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0):
            lo, hi = g.pmc_bounds(y)
            value = g.pmc_at(y)
            assert lo - 1e-9 <= value <= hi + 1e-9

    def test_quadrature_matches_normal_cdf_form(self):
        g = GaussianPerturbMechanism(1.0, 1.0)
        for y in (0.3, 1.7, -2.2, 8.0, -8.0, 9.0, -9.0):
            quadrature = _quadrature_pmc(g.law, g._noise_pdf, y, kink=None)
            assert g.pmc_at(y) == pytest.approx(quadrature, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "amplitude, sigma, y, expected",
        [
            # 60-digit values of log f_Y(y) - log f_N(|y| + A), from mpmath
            (1.0, 1.0, 37.2, 70.117032048501487),
            (1.0, 1.0, -37.5, 70.708791352331026),
            (1.0, 1.0, 38.0, 71.695205775754134),
            (1.0, 1.0, 40.0, 75.642634788267183),
            (1.0, 1.0, -45.0, 85.522147321908084),
            (2.0, 0.3, 9.5, 416.41148558196084),
            # Phi(l) underflows while Phi(u) does not
            (0.5, 2.0, 74.9, 15.801117085953010041),
            # narrow windows 2A/sigma, where the level is far below the squares
            (1e-8, 1.0, 2.0, 2.0000000100000000418e-8),
            (1e-3, 1.0, 9.4, 0.0094150599546728738415),
            (1e-12, 1.0, 0.5, 5.0000000000037498994e-13),
            (0.05, 0.5, -12.0, 3.2256212071945284808),
        ],
    )
    def test_level_matches_recorded_values(self, amplitude, sigma, y, expected):
        value = GaussianPerturbMechanism(amplitude, sigma).pmc_at(y)
        assert value == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("amplitude, sigma", [(1.0, 1.0), (2.0, 0.3)])
    @pytest.mark.parametrize("k", [1e4, 1e8, 1e12, 1e20, 1e150, 1e300])
    def test_huge_y_follows_the_asymptote(self, amplitude, sigma, k):
        g = GaussianPerturbMechanism(amplitude, sigma)
        y = k * sigma
        s2 = sigma**2
        asymptote = 2 * amplitude * y / s2 - math.log(2 * amplitude * (y - amplitude) / s2)
        for value in (g.pmc_at(y), g.pmc_at(-y)):
            assert value == pytest.approx(asymptote, rel=1e-9, abs=0)

    def test_level_inside_envelope_on_seeded_corpus(self):
        # windows 2A/sigma from 1e-12 to 80, |y| from 1e-3 to 1e300 sigma
        rng = random.Random(23)
        for _ in range(400):
            sigma = 10 ** rng.uniform(-2, 2)
            g = GaussianPerturbMechanism(10 ** rng.uniform(-12, 1.9) * sigma / 2, sigma)
            y = rng.choice((-1, 1)) * 10 ** rng.uniform(-3, rng.choice((2, 300))) * sigma
            lo, hi = g.pmc_bounds(y)
            assert lo * (1 - 1e-12) <= g.pmc_at(y) <= hi * (1 + 1e-12)

    def test_custom_law_tail_underflow_is_typed(self):
        from infodens import BoundedLaw

        law = BoundedLaw(lo=-1.0, hi=1.0, mean=0.0, pdf=lambda x: 0.5 if -1.0 <= x <= 1.0 else 0.0)
        g = GaussianPerturbMechanism(1.0, 1.0, law=law)
        default = GaussianPerturbMechanism(1.0, 1.0)
        # the same pdf values through the same integrator give the same bits
        assert g.pmc_at(3.0) == _quadrature_pmc(default.law, default._noise_pdf, 3.0, kink=None)
        assert g.pmc_at(3.0) == pytest.approx(default.pmc_at(3.0), rel=1e-12, abs=0)
        # 37.2 and -37.5 leave a subnormal noise floor, the others none at all
        for y in (37.2, -37.5, 38.0, 40.0, -45.0, 1e200):
            with pytest.raises(QuadratureFailure, match="underflows"):
                g.pmc_at(y)

    def test_tail_bound_values(self):
        assert gaussian_tail_bound(1.0, 0.0) == 1.0
        assert gaussian_tail_bound(1.0, 4.0) == pytest.approx(2 / math.e, abs=1e-15)
        assert gaussian_tail_bound(1.0, 100.0) < 1e-200

    def test_overflowing_squares_still_give_the_bound_and_the_mass(self):
        # beta^2 and A^2 are beyond the float range; the ratios formed from them are not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gaussian_tail_bound(1.0, 1e200) == 0.0
            assert gaussian_tail_bound(1e154, 1e155) == pytest.approx(2 * math.exp(-12.5), rel=1e-14)
            big = GaussianPerturbMechanism(1.538e165, 1.0208e79)
            assert big.tail_frequency(6.2e87) == pytest.approx((1.0, 0.0))
            # the mass depends on A/sigma and beta alone: the same mechanism 1e100 times smaller
            small = GaussianPerturbMechanism(1.538e65, 1.0208e-21)
            for share in (0.01, 0.5, 1.0):
                beta = share * big.variance_ratio
                assert big.tail_frequency(beta)[0] == pytest.approx(small.tail_frequency(beta)[0], rel=1e-12)

    def test_tail_bound_validation(self):
        with pytest.raises(ValueError):
            gaussian_tail_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_tail_bound(1.0, -1.0)

    def test_tail_frequency_below_bound(self):
        g = GaussianPerturbMechanism(1.0, 1.0)
        freq, stderr = g.tail_frequency(4.0, n_samples=100_000, seed=2)
        assert freq <= g.tail_bound(4.0) + 3 * stderr

    @pytest.mark.parametrize(
        "a, sigma, amplitude",  # A/sigma from 0.1 (a narrow window) to 20; the law is U[-a, a]
        [(0.1, 1.0, 0.1), (0.1, 0.5, 0.1), (1.0, 2.0, 1.0), (0.3, 0.3, 0.3), (2.0, 1.0, 2.0),
         (0.9, 0.3, 0.9), (2.5, 0.5, 2.5), (8.0, 1.0, 8.0), (3.9, 0.3, 3.9), (20.0, 1.0, 20.0),
         (0.5, 1.0, 1.0)],
    )
    def test_tail_frequency_matches_the_exact_tail(self, a, sigma, amplitude):
        from scipy.special import ndtr

        g = GaussianPerturbMechanism(amplitude, sigma, law=uniform_law(-a, a))

        def big_g(z):  # G(z) = phi(z) - z Phi-bar(z), whose derivative is -Phi-bar(z)
            return math.exp(-z * z / 2) / math.sqrt(2 * math.pi) - z * float(ndtr(-z))

        for q in (0.25, 0.75, 1.0):
            # the event cost(Y) >= cost(r) is |Y| >= r: X uniform on [-a, a] leaves
            # P(|Y| >= r) = (sigma/a) [G((r - a)/sigma) - G((r + a)/sigma)], which
            # this direct form holds to about 1e-14 for |z| <= 2.6
            r = q * (a + sigma)
            p = sigma / a * (big_g((r - a) / sigma) - big_g((r + a) / sigma))
            freq, stderr = g.tail_frequency(g.pmc_at(r) - g.variance_ratio / 2)
            assert (freq, stderr) == (pytest.approx(p, rel=1e-12, abs=0), 0.0)

    @pytest.mark.parametrize(
        "amplitude, sigma, beta, expected",
        [
            # 30-digit values of P(|Y| >= r) at the bisected root r, from mpmath.  The
            # window 2A/sigma runs from 1e-8 to 40 and a = (r - A)/sigma from about
            # 0.5 to 35, in both forms: the Gauss-Legendre mean where
            # 2A/sigma (a + 1) <= 1.5, the factored G difference elsewhere
            (5e-09, 1.0, 2.5e-09, 6.17075077011892177566604739251e-1),  # window 1e-8, a 0.5
            (5e-09, 1.0, 1.75e-07, 2.24990179845864210021891511702e-268),  # window 1e-8, a 35
            (0.0001, 2.0, 0.00100017, 5.49897668447740462851615141623e-89),  # window 1e-4, a 20
            (0.005, 1.0, 0.180121, 1.90099386890248186451577031777e-268),  # window 0.01, a 35
            (0.1, 1.0, 0.0589336, 5.49171628129437140710645032097e-1),  # window 0.2, a 0.5
            (0.1, 1.0, 0.551258, 3.55087842208728253443941397794e-7),  # window 0.2, a 5
            (0.1, 1.0, 1.17271, 6.52114405484286976839673520647e-24),  # window 0.2, a 10
            (0.1, 1.0, 5.06739, 3.20337268753827198786320555353e-269),  # window 0.2, a 35
            (0.25, 0.5, 1.44959, 1.62167905005289747440477384879e-2),  # window 1, a 2
            (0.25, 0.5, 17.3768, 2.73904923431102448495546489234e-90),  # window 1, a 20
            (1.0, 0.5, 6.48172, 9.88979958117889599231522563973e-2),  # window 4, a 0.5
            (1.0, 0.5, 141.058, 1.5979417933300500773294348678e-270),  # window 4, a 35
            (20.0, 1.0, 616.179, 9.88988561183392657470589323799e-3),  # window 40, a 0.5
            (20.0, 1.0, 1393.31, 6.86007686631848202236834091528e-92),  # window 40, a 20
            (20.0, 1.0, 1992.75, 1.61139377044793625807430665233e-271),  # window 40, a 35
            # roots inside the window, r < A
            (20.0, 1.0, 247.23, 5.00000098465154430016355073431e-1),  # window 40, a -10
            (1.0, 0.5, 1.85828, 5.41467377134377850207498819077e-1),  # window 4, a -1
        ],
    )
    def test_tail_mass_matches_recorded_values(self, amplitude, sigma, beta, expected):
        freq, stderr = GaussianPerturbMechanism(amplitude, sigma).tail_frequency(beta)
        assert freq == pytest.approx(expected, rel=1e-10, abs=0)
        assert stderr == 0.0
        assert all(type(v) is float for v in (freq, stderr))

    def test_tail_frequency_needs_a_uniform_law(self):
        g = GaussianPerturbMechanism(1.0, 1.0, law=discrete_law([-1.0, 0.0, 1.0], [1, 2, 1]))
        with pytest.raises(ValueError, match="uniform input law, got 'discrete'"):
            g.tail_frequency(1.0)

    def test_tail_frequency_reads_neither_seed_nor_sample_count(self):
        import time

        for g, beta in ((GaussianPerturbMechanism(1.3, 0.9), 2.0), (GaussianPerturbMechanism(0.1, 1.0), 0.05)):
            result = g.tail_frequency(beta)
            for n_samples, seed in ((1, 0), (10, 3), (1_000_000, 808)):
                assert g.tail_frequency(beta, n_samples=n_samples, seed=seed) == result
            start = time.perf_counter()  # a draw of 10^12 samples would need 8 TB
            assert g.tail_frequency(beta, n_samples=10**12, seed=2**40) == result
            assert time.perf_counter() - start < 0.25

    @pytest.mark.parametrize(
        "amplitude, sigma, beta, expected",
        [
            (1.0, 1.0, math.inf, (0.0, 0.0)),
            (1.0, 1.0, -math.inf, (1.0, 0.0)),
            (1.0, 1.0, -5.0, (1.0, 0.0)),
            (0.1, 1.0, 1e-4, (pytest.approx(9.85941203276693101778751945678e-1, rel=1e-10, abs=0), 0.0)),
            (1.0, 1.0, 80.0, (0.0, 0.0)),
            (1e-4, 0.01, 1e307, (0.0, 0.0)),
            (1.0, 1e100, 1e300, (0.0, 0.0)),
        ],
        ids=["inf", "minus-inf", "negative", "narrow", "underflow", "y-over-sigma-overflows", "bracket-overflows"],
    )
    def test_tail_frequency_at_the_bracket_ends(self, amplitude, sigma, beta, expected):
        # an infinite threshold has the root inf, one at or below the level at 0 the
        # root 0, and their masses are exact; the narrow window's root lies just above
        # 0 (a 30-digit mpmath mass), the root near 42.5 leaves a mass below the float
        # range; the bracket end threshold sigma^2/A is beyond 1e308 sigma, and in
        # the last case beyond the float range, which leaves the root inf
        mech = GaussianPerturbMechanism(amplitude, sigma)
        result = mech.tail_frequency(beta, n_samples=100_000, seed=3)
        assert result == expected
        assert all(type(v) is float for v in result)

    def test_legendre_rule_is_computed_once(self, monkeypatch):
        import numpy as np

        g = GaussianPerturbMechanism(0.1, 1.0)  # window 0.2: the Gauss-Legendre form
        ys = [k / 8 for k in range(-20, 21)]
        levels = [g.pmc_at(y) for y in ys]
        tail = g.tail_frequency(0.05, n_samples=20_000, seed=5)
        leggauss, calls = np.polynomial.legendre.leggauss, []

        def counted(deg):
            calls.append(deg)
            return leggauss(deg)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        mechanisms._legendre_rule.cache_clear()
        for _ in range(5):
            assert [g.pmc_at(y) for y in ys] == levels
        # the root bisection evaluates the narrow-window level about 60 times
        assert g.tail_frequency(0.05, n_samples=20_000, seed=5) == tail
        assert calls == [8]

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianPerturbMechanism(-1.0, 1.0)
        with pytest.raises(ValueError):
            GaussianPerturbMechanism(1.0, 0.0)
        with pytest.raises(ValueError):
            GaussianPerturbMechanism(1.0, 1.0, law=uniform_law(0.0, 1.0))  # mean 1/2

    @pytest.mark.parametrize(
        "amplitude, sigma", [(1e308, 1.0), (1e200, 1e-200), (1.0, 1e200), (1e-200, 1.0), (1.0, 1e-170)]
    )
    def test_parameters_beyond_the_float_range_rejected(self, amplitude, sigma):
        # 2A, sigma^2 or (A/sigma)^2 overflows or underflows to zero
        with pytest.raises(ValueError, match="float range"):
            GaussianPerturbMechanism(amplitude, sigma)

    @pytest.mark.parametrize("sigma, y", [(1.0, 1e308), (1.0, -1e308), (1e-150, 1e10)])
    def test_level_beyond_the_float_range_rejected(self, sigma, y):
        g = GaussianPerturbMechanism(1.0, sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows the float range"):
                g.pmc_at(y)


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: LaplaceMeanMechanism(0.0, 1.0, 1, math.inf), "scale"),
        (lambda: GaussianPerturbMechanism(math.inf, 1.0), "amplitude"),
        (lambda: GaussianPerturbMechanism(1.0, math.inf), "sigma"),
        (lambda: discrete_law([0.0, math.inf], [0.5, 0.5]), "hi"),
        (lambda: uniform_law(-math.inf, 0.0), "lo"),
        (lambda: discrete_law([0.0, 1.0], [0.5, math.nan]), "mean"),
        (lambda: LaplaceMeanMechanism(0.0, 1.0, 1, 1.0).pmc_at(math.nan), "y"),
        (lambda: GaussianPerturbMechanism(1.0, 1.0).pmc_at(math.inf), "y"),
        (lambda: GaussianPerturbMechanism(1.0, 1.0).pmc_at(-math.inf), "y"),
        (lambda: GaussianPerturbMechanism(1.0, 1.0).pmc_at(math.nan), "y"),
        (lambda: GaussianPerturbMechanism(1.0, 1.0).tail_frequency(1.0, n_samples=0), "n_samples"),
        (lambda: GaussianPerturbMechanism(1.0, 1.0).tail_frequency(1.0, n_samples=True), "n_samples"),
        (lambda: GaussianPerturbMechanism(1.0, 1.0).tail_frequency(math.nan), "beta"),
        (lambda: gaussian_tail_bound(1.0, math.nan), "beta"),
    ],
    ids=[
        "laplace-scale", "gaussian-amplitude", "gaussian-sigma", "discrete-hi", "uniform-lo",
        "discrete-mean", "laplace-nan-y",
        "gaussian-inf-y", "gaussian-minus-inf-y", "gaussian-nan-y", "n-samples-0",
        "n-samples-bool", "tail-frequency-nan-beta", "tail-bound-nan-beta",
    ],
)
def test_continuous_inputs_checked_before_any_work(call, field):
    with pytest.raises(ValueError, match=rf"^{field} must"):
        call()


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
