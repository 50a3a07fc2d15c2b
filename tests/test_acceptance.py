"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from infodens import (
    ExtReal,
    GaussianPerturbMechanism,
    Joint,
    LaplaceMeanMechanism,
    Pmf,
    SearchConfig,
    achieving_kernel,
    cost_from_kernel,
    cost_function_leakage,
    expected_pmc,
    extremal_mechanism,
    extremal_mechanism_pmc,
    guarantee_level,
    kernel_from_cost,
    ldp_to_pmc,
    max_cost_leakage,
    max_realizable_cost,
    pmc,
    pmc_to_pml,
    pml_to_pmc,
    randomized_function_leakage,
    randomized_response,
    randomized_response_pmc,
    sweep_curves,
)
from infodens.oracles import _iter_kernels, _lambda_from_rows
from infodens.properties import run_property_suite
from infodens.sampling import (
    random_bounded_law,
    random_cost,
    random_joint,
    random_kernel,
    random_pmf,
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL: {label}")
        raise
    print(f"criterion {num:02d} PASS: {label}")


def test_criterion_01_achievability_and_grid_dominance():
    """Exact achievability and grid dominance on a rational 2x2 / 2x3 corpus."""
    started = time.monotonic()
    with criterion(1, "randomized-function model attains the closed form exactly"):
        rng = random.Random(20240817)
        cfg = SearchConfig(resolution=5, max_u=3)
        instances = 0
        for shape_out in (2, 3):
            for _ in range(120):
                joint = random_joint(rng, 2, shape_out, exact=True)
                instances += 1
                for y in joint.support:
                    closed = pmc(joint, y)
                    assert closed.is_finite
                    witness = achieving_kernel(joint, y)
                    achieved = randomized_function_leakage(joint, y, witness)
                    assert achieved == closed  # exact rational equality

                    prior_w = joint.prior.weights
                    post_w = joint.posterior(y)
                    for u_size in (2, 3):
                        for rows in _iter_kernels(2, u_size, cfg):
                            value = _lambda_from_rows(prior_w, post_w, rows)
                            assert value <= closed  # exact rational dominance
        assert instances >= 200
        assert time.monotonic() - started < 60.0


def test_criterion_02_cost_model_equivalence():
    """Kernel-to-cost preserves leakage to 1e-12; cost-to-kernel to 1e-9."""
    started = time.monotonic()
    with criterion(2, "cost-function and randomized-function models agree"):
        rng = random.Random(7151)
        for _ in range(100):
            joint = random_joint(rng, rng.randint(2, 3), rng.randint(2, 3))
            u = random_kernel(rng, joint.n_inputs, rng.randint(2, 3))
            c = cost_from_kernel(u)
            for y in joint.support:
                lam_u = randomized_function_leakage(joint, y, u).nats
                lam_c = cost_function_leakage(joint, y, c).nats
                assert abs(lam_c - lam_u) <= 1e-12

        rng = random.Random(90210)
        for _ in range(100):
            joint = random_joint(rng, rng.randint(2, 3), rng.randint(2, 3))
            c = random_cost(rng, joint.n_inputs, rng.randint(2, 3))
            y = rng.choice(joint.support)
            target = cost_function_leakage(joint, y, c).nats
            u = kernel_from_cost(c, joint, y)
            recovered = randomized_function_leakage(joint, y, u).nats
            assert abs(recovered - target) <= 1e-9
        assert time.monotonic() - started < 60.0


def test_criterion_03_property_suite():
    """Seven structural properties over 1000 seeded instances each."""
    started = time.monotonic()
    with criterion(3, "property suite holds at tolerance 1e-10"):
        outcomes = run_property_suite(seed=424242, instances=1000, tol=1e-10)
        assert len(outcomes) == 7
        for outcome in outcomes:
            assert outcome.passed, (
                f"{outcome.name}: {outcome.failures} failures, "
                f"worst violation {outcome.worst_violation}"
            )
        assert time.monotonic() - started < 120.0


def test_criterion_04_randomized_response_closed_form():
    """Randomized response: closed form equals the measured worst outcome.

    The context-free level translation is tight for a uniform prior exactly
    when the alphabet is binary; larger alphabets keep it as a sound upper
    bound (checked exactly as well).
    """
    with criterion(4, "randomized-response closed form reproduced exactly"):
        rng = random.Random(36000)
        for _ in range(50):
            n = rng.randint(2, 6)
            level = ExtReal.from_ratio(Fraction(rng.randint(100, 739), 100))
            assert level.nats <= 2.0001
            prior = random_pmf(rng, n, exact=True)
            joint = Joint.from_prior_channel(prior, randomized_response(n, level))
            assert randomized_response_pmc(n, level, prior) == max_realizable_cost(joint)

            uniform = Pmf.uniform(n)
            closed_uniform = randomized_response_pmc(n, level, uniform)
            translated = ldp_to_pmc(level, Fraction(1, n))
            assert closed_uniform <= translated
            if n == 2:
                assert closed_uniform == translated  # exact tightness, binary only


def test_criterion_05_extremal_mechanism_tightness():
    """Measured leakage equals the parameter and measured cost its translation."""
    with criterion(5, "extremal mechanism is the exact translation witness"):
        rng = random.Random(51515)
        for _ in range(50):
            n = rng.randint(2, 5)
            prior = random_pmf(rng, n, exact=True)
            theta = Fraction(rng.randint(1, 9), 10)
            boundary_ratio = 1 / (1 - prior.p_min)
            level = ExtReal.from_ratio(1 + theta * (boundary_ratio - 1))
            joint = Joint.from_prior_channel(prior, extremal_mechanism(prior, level))

            measured_pml = guarantee_level(joint, "pml").eps
            assert measured_pml == level  # exact
            measured_pmc = max_realizable_cost(joint)
            assert measured_pmc == extremal_mechanism_pmc(prior, level)
            assert measured_pmc == pml_to_pmc(level, prior.p_min)


def test_criterion_06_translation_curves():
    """Curve tables: origin, monotonicity, divergence, binary involution."""
    with criterion(6, "translation curves reproduce the reference shapes"):
        for p_min in (0.2, 0.5):
            table = sweep_curves(p_min, 100)
            assert table.pml_to_pmc_rows[0] == (0.0, 0.0)
            assert table.pmc_to_pml_rows[0] == (0.0, 0.0)
            for rows in (table.pml_to_pmc_rows, table.pmc_to_pml_rows):
                ys = [b for _, b in rows]
                assert all(a <= b + 1e-15 for a, b in zip(ys, ys[1:]))
            boundary = -math.log1p(-p_min)
            assert table.pml_to_pmc_rows[-1][0] < boundary
            assert table.pml_to_pmc_rows[-1][1] > 4.0  # divergence near the boundary

        for i in range(100):
            x = i * math.log(2) / 100
            round_trip = pmc_to_pml(pml_to_pmc(x, 0.5), 0.5).nats
            assert abs(round_trip - x) <= 1e-12


def test_criterion_07_laplace_mechanism():
    """Uniform closed form vs quadrature; interior dominance; generic bound."""
    with criterion(7, "Laplace sample-mean release matches its closed forms"):
        mech = LaplaceMeanMechanism(0.0, 1.0, 1, 1.0)
        closed = math.log(math.e - 1.0)
        assert mech.sup_pmc() == pytest.approx(closed, abs=1e-12)
        for y in (1.0, 2.0, 5.0, -1.0):
            assert mech.pmc_at(y, method="quadrature") == pytest.approx(closed, abs=1e-6)
        for i in range(1, 10):
            assert mech.pmc_at(i / 10) <= closed + 1e-6

        rng = random.Random(777)
        for _ in range(20):
            lo = rng.uniform(-3.0, 1.0)
            hi = lo + rng.uniform(0.4, 2.5)
            n = rng.randint(1, 5)
            b = rng.uniform(0.2, 2.0)
            law = random_bounded_law(rng, lo, hi)
            general = LaplaceMeanMechanism(lo, hi, n, b, law=law)
            assert general.sup_pmc() <= general.dp_level + 1e-12


def test_criterion_08_gaussian_mechanism():
    """Quadrature values inside the envelope; empirical tail below the bound."""
    with criterion(8, "Gaussian perturbation respects envelope and tail bound"):
        mech = GaussianPerturbMechanism(1.0, 1.0)
        for y in (0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0):
            low, high = mech.pmc_bounds(y)
            value = mech.pmc_at(y)
            assert low - 1e-9 <= value <= high + 1e-9

        for beta in (1.0, 2.0, 4.0):
            freq, stderr = mech.tail_frequency(beta, n_samples=1_000_000, seed=808)
            assert freq <= mech.tail_bound(beta) + 3.0 * stderr


def test_criterion_09_boundedness_equivalences():
    """Finite cost level iff finite LDP; finite cost level implies finite leakage."""
    with criterion(9, "boundedness equivalences hold on zero-pocked channels"):
        rng = random.Random(990099)
        for _ in range(500):
            joint = random_joint(
                rng, rng.randint(2, 5), rng.randint(2, 5), zero_prob=0.35
            )
            pmc_finite = max_realizable_cost(joint).is_finite
            ldp_finite = guarantee_level(joint, "ldp").eps.is_finite
            pml_finite = guarantee_level(joint, "pml").eps.is_finite
            assert pmc_finite == ldp_finite
            if pmc_finite:
                assert pml_finite


def test_criterion_10_jensen_gap():
    """Average-outcome leakage never exceeds (and generically undershoots) expected cost."""
    with criterion(10, "average-outcome aggregate sits strictly under expected cost"):
        rng = random.Random(101010)
        strict_checked = 0
        for _ in range(500):
            joint = random_joint(rng, rng.randint(2, 4), rng.randint(2, 4))
            aggregate = max_cost_leakage(joint).nats
            average = expected_pmc(joint)
            assert aggregate <= average + 1e-12
            values = [pmc(joint, y).nats for y in joint.support]
            if max(values) - min(values) > 1e-8:
                assert average - aggregate > 1e-12
                strict_checked += 1
        assert strict_checked > 400
