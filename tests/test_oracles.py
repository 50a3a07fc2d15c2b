import array
import collections
import decimal
import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from infodens import (
    Channel,
    CostFunction,
    ExtReal,
    INF,
    Joint,
    Pmf,
    RandomizedFunction,
    SearchConfig,
    ZERO,
    achieving_kernel,
    brute_force_guesswork_leakage,
    certify_pmc,
    cost_from_kernel,
    cost_function_leakage,
    guesswork_leakage,
    kernel_from_cost,
    oracles,
    pmc,
    randomized_function_leakage,
)
from infodens.errors import (
    AllInfinitePrior,
    BudgetExceeded,
    DimensionMismatch,
    NormalizationDegenerate,
)
from infodens.oracles import _lattice_rows
from infodens.sampling import (
    random_channel,
    random_cost,
    random_joint,
    random_kernel,
    random_pmf,
)

HALF = Fraction(1, 2)

#: Float joints whose expected costs of the table ((1e-200, 1), (0, 1)) underflow.
_UNDERFLOW_CASES = pytest.mark.parametrize(
    "prior, channel, y, nats",
    [
        # the prior minimum 1e-200 * 1e-200 underflows to 0.0
        ((1e-200, 1 - 1e-200), ((0.0, 1.0), (1.0, 0.0)), 1, -460.517),
        # the posterior minimum 2e-200 * 1e-200 underflows to 0.0
        ((0.5, 0.5), ((1e-200, 1 - 1e-200), (0.5, 0.5)), 0, 459.131),
    ],
)


def _identity_kernel(n):
    return RandomizedFunction(Channel.identity(n).rows)


class TestRandomizedFunctionLeakage:
    def test_constant_guess_uses_zero_over_zero(self, binary_symmetric_joint):
        constant = RandomizedFunction(((Fraction(1),), (Fraction(1),)))
        assert randomized_function_leakage(binary_symmetric_joint, 0, constant) == ZERO

    def test_guessing_the_secret_itself(self, binary_symmetric_joint):
        value = randomized_function_leakage(
            binary_symmetric_joint, 0, _identity_kernel(2)
        )
        # prior error 1/2, posterior error 1/4
        assert value.ratio == Fraction(2)

    def test_never_exceeds_pmc(self):
        rng = random.Random(99)
        for _ in range(60):
            j = random_joint(rng, rng.randint(2, 3), rng.randint(2, 3))
            u = random_kernel(rng, j.n_inputs, rng.randint(2, 3))
            for y in j.support:
                lam = randomized_function_leakage(j, y, u)
                assert lam.nats <= pmc(j, y).nats + 1e-12

    @pytest.mark.parametrize("leakage", (randomized_function_leakage, guesswork_leakage))
    def test_kernel_rows_must_match_the_prior(self, binary_symmetric_joint, leakage):
        with pytest.raises(DimensionMismatch, match="kernel has 3 rows, prior has 2"):
            leakage(binary_symmetric_joint, 0, _identity_kernel(3))

    def test_indicator_reaches_infinity(self, zero_entry_joint):
        indicator = RandomizedFunction(((Fraction(1), Fraction(0)), (HALF, HALF)))
        assert randomized_function_leakage(zero_entry_joint, 0, indicator) == INF


class TestCostFunctionLeakage:
    def test_constant_cost_leaks_nothing(self, binary_symmetric_joint):
        c = CostFunction(((1.0, 1.0), (1.0, 1.0)))
        assert cost_function_leakage(binary_symmetric_joint, 0, c) == ZERO

    def test_zero_one_loss(self, binary_symmetric_joint):
        c = CostFunction(((0, 1), (1, 0)))
        value = cost_function_leakage(binary_symmetric_joint, 0, c)
        assert value.ratio == Fraction(2)

    def test_zero_column_on_posterior_support(self, zero_entry_joint):
        # action 0 costs nothing exactly where the posterior concentrates
        c = CostFunction(((0, 1), (1, 0)))
        assert cost_function_leakage(zero_entry_joint, 0, c) == INF

    def test_all_infinite_prior_rejected(self, binary_symmetric_joint):
        c = CostFunction(((math.inf, 1.0), (1.0, 1.0)))  # one all-finite action
        assert cost_function_leakage(binary_symmetric_joint, 0, c).is_finite
        c_bad = CostFunction(((math.inf, math.inf), (1.0, math.inf)))
        with pytest.raises(AllInfinitePrior):
            cost_function_leakage(binary_symmetric_joint, 0, c_bad)

    @_UNDERFLOW_CASES
    def test_float_underflow_matches_fraction_computation(self, prior, channel, y, nats):
        joint = Joint.from_prior_channel(Pmf(prior), Channel(channel))
        table = ((1e-200, 1.0), (0.0, 1.0))

        def fraction_minimum(weights):
            return min(
                sum(Fraction(w) * Fraction(row[a]) for w, row in zip(weights, table))
                for a in range(2)
            )

        value = cost_function_leakage(joint, y, CostFunction(table))
        assert value == ExtReal.from_ratio(
            fraction_minimum(joint.prior.weights) / fraction_minimum(joint.posterior(y))
        )
        assert value.nats == pytest.approx(nats, abs=1e-3)

    def test_float_zeros_that_are_exact_stay_zero(self):
        joint = Joint.from_prior_channel(Pmf((0.5, 0.5)), Channel(((0.5, 0.5), (0.0, 1.0))))
        # action 0 costs nothing on the posterior's support; action 1 never can be taken
        cost = CostFunction(((0.0, math.inf), (1.0, math.inf)))
        assert cost_function_leakage(joint, 0, cost) == INF
        assert cost_function_leakage(joint, 1, CostFunction(((0.0, 1.0), (0.0, 1.0)))) == ZERO

    def test_never_exceeds_pmc(self):
        rng = random.Random(7)
        for _ in range(60):
            j = random_joint(rng, rng.randint(2, 3), rng.randint(2, 3))
            c = random_cost(rng, j.n_inputs, rng.randint(2, 3))
            for y in j.support:
                lam = cost_function_leakage(j, y, c)
                assert lam.nats <= pmc(j, y).nats + 1e-12


class TestExactCostMinima:
    def test_float_joints_read_the_stored_floats_exactly(self):
        """The level is the quotient of the two minima summed in Fractions from the stored floats."""
        rng = random.Random(47)
        for _ in range(60):
            j = random_joint(rng, rng.randint(2, 4), rng.randint(2, 3), zero_prob=0.2)
            c = random_cost(rng, j.n_inputs, rng.randint(2, 3), zero_prob=0.3)
            for y in j.support:
                minima = [
                    min(sum(Fraction(w) * Fraction(row[a]) for w, row in zip(weights, c.table))
                        for a in range(c.n_actions))
                    for weights in (j.prior.weights, j.posterior(y))
                ]
                want = INF if minima[1] == 0 < minima[0] else ExtReal(minima[0] / minima[1] if minima[1] else 1)
                got = cost_function_leakage(j, y, c)
                assert got.ratio == want.ratio and got.is_exact == want.is_exact


class TestCostKernelEquivalence:
    def test_deterministic_kernel_gives_zero_one_loss(self):
        c = cost_from_kernel(_identity_kernel(2))
        assert c.table == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))

    def test_constant_kernel_round_trip(self, binary_symmetric_joint):
        constant = RandomizedFunction(((Fraction(1),), (Fraction(1),)))
        c = cost_from_kernel(constant)
        assert cost_function_leakage(binary_symmetric_joint, 0, c) == ZERO

    def test_leakage_preserved_on_random_pairs(self):
        rng = random.Random(2024)
        for _ in range(100):
            j = random_joint(rng, 3, 3)
            u = random_kernel(rng, 3, 3)
            c = cost_from_kernel(u)
            for y in j.support:
                lam_u = randomized_function_leakage(j, y, u).nats
                lam_c = cost_function_leakage(j, y, c).nats
                assert lam_c == pytest.approx(lam_u, abs=1e-12)

    def test_leakage_preserved_exactly_in_rational_mode(self):
        rng = random.Random(5)
        for _ in range(20):
            j = random_joint(rng, 2, 3, exact=True)
            u = random_kernel(rng, 2, 2, exact=True)
            c = cost_from_kernel(u)
            for y in j.support:
                assert cost_function_leakage(j, y, c) == randomized_function_leakage(
                    j, y, u
                )


class TestAchievingKernel:
    def test_exact_on_canonical_instance(self, binary_symmetric_joint):
        w = achieving_kernel(binary_symmetric_joint, 0)
        assert randomized_function_leakage(binary_symmetric_joint, 0, w) == pmc(
            binary_symmetric_joint, 0
        )

    def test_independent_joint_gives_zero(self, independent_joint):
        for y in independent_joint.support:
            w = achieving_kernel(independent_joint, y)
            assert randomized_function_leakage(independent_joint, y, w) == ZERO

    def test_skewed_instance_reached_without_search(self):
        prior = Pmf((Fraction(4, 5), Fraction(1, 5)))
        channel = Channel(
            ((Fraction(1, 10), Fraction(9, 10)), (Fraction(9, 10), Fraction(1, 10)))
        )
        j = Joint.from_prior_channel(prior, channel)
        # the max-ratio secret value carries prior mass 4/5 > 1/2; guess 0
        # stays modal because the flagged row puts only half of it on guess 1
        w = achieving_kernel(j, 0)
        assert w.rows == ((HALF, HALF), (Fraction(1), Fraction(0)))
        assert randomized_function_leakage(j, 0, w) == pmc(j, 0)

    def test_infinite_target_rejected(self, zero_entry_joint):
        with pytest.raises(ValueError):
            achieving_kernel(zero_entry_joint, 0)

    def test_witness_has_two_guesses_and_exact_rows(self):
        rng = random.Random(77)
        for _ in range(40):
            j = random_joint(rng, rng.randint(2, 4), rng.randint(2, 3), exact=True)
            for y in j.support:
                w = achieving_kernel(j, y)
                assert w.n_outputs == 2
                assert all(isinstance(e, Fraction) for row in w.rows for e in row)
                assert randomized_function_leakage(j, y, w) == pmc(j, y)

    def test_one_secret_joint(self):
        j = Joint.from_prior_channel(
            Pmf((Fraction(1),)), Channel(((Fraction(1, 3), Fraction(2, 3)),))
        )
        for y in (0, 1):
            w = achieving_kernel(j, y)
            assert w.rows == ((HALF, HALF),)
            assert randomized_function_leakage(j, y, w) == pmc(j, y) == ZERO


class TestBruteForce:
    def test_canonical_instance_found_exactly(self, binary_symmetric_joint):
        cfg = SearchConfig(resolution=11, max_u=3)
        value = certify_pmc(binary_symmetric_joint, 0, cfg).oracle_value
        # the two-way split of the max-ratio secret sits on the grid
        assert value.ratio == Fraction(2)
        assert value == pmc(binary_symmetric_joint, 0)

    def test_exact_certificates_are_tight(self):
        # every u = 2 lattice of resolution >= 3 holds the row (1 - 1/den,
        # 1/den): the binary kernel flagging the max-ratio secret with loss
        # 2/den <= 1, whose level is PMC, so exhaustive searches reach it
        rng = random.Random(4096)
        checked = 0
        for resolution in (3, 4, 5):
            cfg = SearchConfig(resolution=resolution, max_u=2)
            for n_x in (2, 3, 4):
                for _ in range(8):
                    j = random_joint(rng, n_x, rng.randint(2, 3), exact=True, zero_prob=0.15)
                    for y in j.support:
                        cert = certify_pmc(j, y, cfg)
                        assert cert.oracle_value == cert.closed_form
                        assert cert.gap_nats == 0
                        checked += 1
        assert checked >= 150

    def test_independent_joint_is_zero(self, independent_joint):
        cfg = SearchConfig(resolution=5, max_u=2)
        assert certify_pmc(independent_joint, 0, cfg).oracle_value == ZERO

    def test_infinite_pmc_found_via_indicator(self, zero_entry_joint):
        cfg = SearchConfig(resolution=5, max_u=2)
        cert = certify_pmc(zero_entry_joint, 0, cfg)
        assert cert.oracle_value == INF
        assert cert.closed_form == INF
        assert cert.gap_nats == 0.0
        # the witness flags the posterior's support with a half/half row outside
        assert cert.witness.rows[0] == (Fraction(1), Fraction(0))
        assert cert.witness.rows[1] == (HALF, HALF)

    def test_certificate_gap_zero_on_canonical(self, binary_symmetric_joint):
        cert = certify_pmc(binary_symmetric_joint, 0, SearchConfig(resolution=11, max_u=3))
        assert cert.gap_nats == pytest.approx(0.0, abs=1e-15)
        assert cert.dominance_ok
        payload = cert.to_dict()
        assert payload["gap"] == 0.0
        assert payload["oracle_value"] == pytest.approx(math.log(2))

    def test_infinite_oracle_value_over_a_finite_closed_form_fails_dominance(self):
        # the gap certify_pmc records when exactly one side is infinite
        witness = RandomizedFunction(((HALF, HALF), (HALF, HALF)))
        cert = oracles.OracleCertificate(ExtReal.from_ratio(Fraction(2)), INF, witness, math.inf)
        assert cert.dominance_ok is False
        payload = cert.to_dict()
        assert payload["gap"] == "inf"
        assert payload["oracle_value"] == "inf"
        assert payload["dominance_ok"] is False

    @pytest.mark.parametrize("nats", [0.0, 1e-3, 0.3, 2.0, 20.0])
    def test_float_dominance_slack_is_under_1e_8_nats(self, nats):
        witness = RandomizedFunction(((HALF, HALF), (HALF, HALF)))
        closed = ExtReal.from_nats(nats)

        def dominated(excess):
            return oracles.OracleCertificate(closed, ExtReal.from_nats(nats + excess), witness, -excess).dominance_ok

        assert dominated(1e-8) is False
        assert dominated(1e-10) is True
        assert dominated(-1e-3) is True

    @pytest.mark.parametrize("ratio", [Fraction(1), Fraction(3, 2), Fraction(10**30 + 1, 10**30), Fraction(7, 3) ** 40])
    def test_exact_dominance_has_no_slack(self, ratio):
        """Two ``Fraction`` ratios compare exactly: an excess of one part in 2^60, 1e-18 nats, is not dominated."""
        witness = RandomizedFunction(((HALF, HALF), (HALF, HALF)))

        def dominated(oracle):
            return oracles.OracleCertificate(ExtReal.from_ratio(ratio), ExtReal.from_ratio(oracle), witness, 0.0).dominance_ok

        assert dominated(ratio * (1 + Fraction(1, 2**60))) is False
        assert dominated(ratio) is True
        assert dominated(ratio * (1 - Fraction(1, 2**60))) is True

    def test_sampled_regime_still_dominated(self):
        rng = random.Random(11)
        j = random_joint(rng, 4, 3)
        cfg = SearchConfig(resolution=5, max_u=3, max_iterations=300, seed=4)
        for y in j.support:
            assert certify_pmc(j, y, cfg).oracle_value.nats <= pmc(j, y).nats + 1e-12

    def test_enormous_exhaustive_grid_rejected(self):
        from infodens.errors import BudgetExceeded

        rng = random.Random(12)
        j = random_joint(rng, 3, 2)
        with pytest.raises(BudgetExceeded):
            certify_pmc(j, 0, SearchConfig(resolution=40, max_u=3))

    def test_search_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(resolution=1)
        with pytest.raises(ValueError):
            SearchConfig(max_u=1)
        with pytest.raises(TypeError):
            SearchConfig(k=0)  # no such field

    @pytest.mark.parametrize(
        "field, value",
        [("resolution", 2.5), ("max_u", 3.0), ("max_iterations", 2.5), ("seed", True), ("exhaustive_limit", None)],
    )
    def test_search_config_needs_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SearchConfig(**{field: value})


class TestExactGaps:
    def test_rational_gaps_are_one_log_of_the_exact_quotient(self):
        """Each finite gap of two exact levels is within one ulp of a 50-digit log of their quotient."""
        rng, cfg, finite = random.Random(7), SearchConfig(resolution=2, max_u=2), 0
        context = decimal.Context(prec=50)
        for _ in range(400):
            j = random_joint(rng, rng.randint(2, 5), rng.randint(2, 5), exact=True)
            cert = certify_pmc(j, rng.choice(j.support), cfg)
            if not (cert.closed_form.is_exact and cert.oracle_value.is_exact):
                continue
            q = cert.closed_form.ratio / cert.oracle_value.ratio
            reference = float(context.ln(context.divide(q.numerator, q.denominator)))
            assert abs(cert.gap_nats - reference) <= math.ulp(reference), q
            finite += reference != 0.0
        assert finite == 64


class TestKernelFromCost:
    def test_zero_one_loss_recovers_value(self, binary_symmetric_joint):
        c = CostFunction(((0, 1), (1, 0)))
        target = cost_function_leakage(binary_symmetric_joint, 0, c)
        u = kernel_from_cost(c, binary_symmetric_joint, 0)
        lam = randomized_function_leakage(binary_symmetric_joint, 0, u)
        assert abs(lam.nats - target.nats) <= 1e-9

    def test_constant_cost_any_mixture_works(self, binary_symmetric_joint):
        c = CostFunction(((0.7, 0.7), (0.7, 0.7)))
        u = kernel_from_cost(c, binary_symmetric_joint, 0)
        lam = randomized_function_leakage(binary_symmetric_joint, 0, u)
        assert abs(lam.nats) <= 1e-9

    def test_all_zero_cost_rejected(self, binary_symmetric_joint):
        with pytest.raises(NormalizationDegenerate):
            kernel_from_cost(
                CostFunction(((0.0, 0.0), (0.0, 0.0))), binary_symmetric_joint, 0
            )

    def test_infinite_target_uses_indicator(self, zero_entry_joint):
        c = CostFunction(((0, 1), (1, 0)))
        u = kernel_from_cost(c, zero_entry_joint, 0)
        assert randomized_function_leakage(zero_entry_joint, 0, u) == INF

    def test_random_normalized_costs_match(self):
        rng = random.Random(31337)
        for _ in range(40):
            j = random_joint(rng, rng.randint(2, 3), rng.randint(2, 3))
            c = random_cost(rng, j.n_inputs, rng.randint(2, 3))
            y = rng.choice(j.support)
            target = cost_function_leakage(j, y, c)
            u = kernel_from_cost(c, j, y)
            lam = randomized_function_leakage(j, y, u)
            assert abs(lam.nats - target.nats) <= 1e-9

    @_UNDERFLOW_CASES
    def test_underflowed_cost_gives_the_right_kernel(self, prior, channel, y, nats):
        # the kernel carries the right loss, as its exact evaluation shows; a
        # float evaluation reads 0.0 because 1 - max(masses) cancels to 0
        def exact(rows):
            # Channel renormalizes the Fraction rows of the floats exactly
            return tuple(tuple(map(Fraction, row)) for row in rows)

        j = Joint.from_prior_channel(Pmf(prior), Channel(channel))
        c = CostFunction(((1e-200, 1), (0, 1)))
        target = cost_function_leakage(j, y, c)
        assert target.nats == pytest.approx(nats, abs=1e-3)
        u = kernel_from_cost(c, j, y)
        exact_joint = Joint.from_prior_channel(
            Pmf(exact([j.prior.weights])[0]), Channel(exact(j.channel.rows))
        )
        value = randomized_function_leakage(exact_joint, y, RandomizedFunction(exact(u.rows)))
        assert value.nats == pytest.approx(target.nats, abs=1e-9)

    def test_exact_corpus_matches_with_rational_rows(self):
        rng = random.Random(2718)
        seen = collections.Counter()
        for _ in range(200):
            j = random_joint(rng, rng.randint(2, 4), rng.randint(2, 3), exact=True)
            n_w = rng.randint(1, 4)
            while True:
                columns = [
                    [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(j.n_inputs)]
                    for _ in range(n_w)
                ]
                if rng.random() < 0.15:
                    columns[rng.randrange(n_w)] = [Fraction(0)] * j.n_inputs
                if any(e for col in columns for e in col):
                    break
            c = CostFunction(tuple(zip(*columns)))
            for y in j.support:
                target = cost_function_leakage(j, y, c)
                u = kernel_from_cost(c, j, y)
                assert u.n_outputs == 2
                assert all(isinstance(e, Fraction) for row in u.rows for e in row)
                assert randomized_function_leakage(j, y, u) == target
                prior_costs, post_costs = (
                    [sum(w * e for w, e in zip(weights, col)) for col in columns]
                    for weights in (j.prior.weights, j.posterior(y))
                )
                s, t = (costs.index(min(costs)) for costs in (prior_costs, post_costs))
                seen["cases"] += 1
                seen["one action"] += n_w == 1
                seen["zero level"] += target == ZERO
                seen["zero-cost action"] += min(prior_costs) == 0
                seen["s == t"] += s == t
                seen["s != t"] += s != t
        assert seen["cases"] >= 400
        assert min(seen.values()) > 0, seen


class TestGuessworkLeakage:
    def test_single_guess_alphabet_is_zero(self, binary_symmetric_joint):
        constant = RandomizedFunction(((Fraction(1),), (Fraction(1),)))
        assert guesswork_leakage(binary_symmetric_joint, 0, constant) == ZERO

    def test_independent_is_zero(self, independent_joint):
        cfg = SearchConfig(resolution=5, max_u=3)
        assert brute_force_guesswork_leakage(independent_joint, 0, cfg) == ZERO

    def test_identity_guess_value(self, binary_symmetric_joint):
        value = guesswork_leakage(binary_symmetric_joint, 0, _identity_kernel(2))
        # prior guesswork 3/2, posterior guesswork 5/4
        assert value.ratio == Fraction(6, 5)

    def test_canonical_grid_value_and_dominance(self, binary_symmetric_joint):
        cfg = SearchConfig(resolution=11, max_u=3)
        value = brute_force_guesswork_leakage(binary_symmetric_joint, 0, cfg)
        # best three-symbol guess variable: split the max-ratio secret in two
        assert value.ratio == Fraction(14, 11)
        assert value <= pmc(binary_symmetric_joint, 0)

    def test_never_exceeds_pmc_on_random_instances(self):
        rng = random.Random(55)
        cfg = SearchConfig(resolution=4, max_u=3, max_iterations=100, seed=1)
        for _ in range(15):
            j = random_joint(rng, rng.randint(2, 3), rng.randint(2, 3))
            for y in j.support:
                value = brute_force_guesswork_leakage(j, y, cfg)
                assert value.nats <= pmc(j, y).nats + 1e-12

    def test_large_guess_alphabet_matches_permutations(self, binary_symmetric_joint):
        """Eight guess symbols: the descending sort agrees with trying every order."""
        wide = RandomizedFunction(
            tuple(tuple(Fraction(k, 36) for k in ks) for ks in (range(1, 9), (8, 1, 7, 2, 6, 3, 5, 4)))
        )
        prior, post = binary_symmetric_joint.prior.weights, binary_symmetric_joint.posterior(0)

        def guesswork(weights):  # 8! orders, searched in integers for speed
            masses = _fraction_masses(weights, wide.rows)
            den = math.lcm(*(m.denominator for m in masses))
            return Fraction(_permutation_guesswork([int(m * den) for m in masses]), den)

        expected = guesswork(prior) / guesswork(post)
        assert guesswork_leakage(binary_symmetric_joint, 0, wide).ratio == expected


class TestPreProcessingClosure:
    def test_kernel_induced_secret_leaks_less(self):
        rng = random.Random(77)
        for _ in range(30):
            j = random_joint(rng, 3, 3)
            kernel = random_kernel(rng, 3, 2)
            # the induced secret U with its own channel to Y
            marginal = [
                sum(j.prior[x] * kernel.rows[x][u] for x in range(3)) for u in range(2)
            ]
            posts = [
                [j.prior[x] * kernel.rows[x][u] / marginal[u] for x in range(3)]
                for u in range(2)
            ]
            rows = tuple(
                tuple(
                    sum(posts[u][x] * j.channel.rows[x][y] for x in range(3))
                    for y in range(j.n_outputs)
                )
                for u in range(2)
            )
            induced = Joint.from_prior_channel(Pmf(tuple(marginal)), Channel(rows))
            for y in j.support:
                assert pmc(induced, y).nats <= pmc(j, y).nats + 1e-10


def _fraction_masses(weights, rows):
    return [sum(w * row[u] for w, row in zip(weights, rows)) for u in range(len(rows[0]))]


def _fraction_level(prior, post, rows):
    """Randomized-function level of one kernel, in ``Fraction`` arithmetic."""
    err_p = 1 - max(_fraction_masses(prior, rows))
    err_q = 1 - max(_fraction_masses(post, rows))
    if err_q == 0:
        return ZERO if err_p == 0 else INF
    return ExtReal.from_ratio(err_p / err_q)


def _float_masses(weights, rows):
    """One kernel's guess masses in floats, from their definition.

    The sums are explicit loops, left to right: from Python 3.12 on,
    ``sum()`` of floats is compensated and would round differently.
    """
    masses = []
    for u in range(len(rows[0])):
        mass = 0.0
        for w, row in zip(weights, rows):
            mass += w * row[u]
        masses.append(mass)
    return masses


def _float_level(prior, post, rows):
    """Randomized-function level of one kernel in floats, errors below the float zero read as 0."""
    err_p, err_q = (1 - max(_float_masses(w, rows)) for w in (prior, post))
    err_p, err_q = (0.0 if e < oracles._FLOAT_ZERO else e for e in (err_p, err_q))
    if err_q == 0:
        return ZERO if err_p == 0 else INF
    # a prior error that rounds to zero stays zero a posteriori: ratio one
    return ZERO if err_p == 0 else ExtReal.from_ratio(err_p / err_q)


def _float_guesswork(weights, rows):
    """One kernel's guesswork in floats, from its definition, summed like the masses."""
    guesses = 0.0
    for i, mass in enumerate(sorted(_float_masses(weights, rows), reverse=True)):
        guesses += (i + 1) * mass
    return guesses


def _reference_kernels(n_x, u_size, cfg):
    """The grid of guess alphabet ``u_size``, enumerated from its definition."""
    rows = _lattice_rows(u_size, cfg.resolution)
    if n_x * u_size <= cfg.exhaustive_limit:
        yield from itertools.product(rows, repeat=n_x)
        return
    vertices = [
        tuple(Fraction(int(i == j)) for j in range(u_size)) for i in range(u_size)
    ]
    if u_size**n_x <= 4096:
        yield from itertools.product(vertices, repeat=n_x)
    rng = random.Random(cfg.seed * 1_000_003 + u_size * 101 + n_x)
    for _ in range(cfg.max_iterations):
        yield tuple(rng.choice(rows) for _ in range(n_x))


def _grid_shape(n_x, u_size, cfg):
    """``(lattice rows, vertex row indices or None, draws or None)`` of one guess alphabet's grid."""
    n_rows, vertices, _, exhaustive = oracles._grid(n_x, u_size, cfg)
    return n_rows, vertices, None if exhaustive else oracles._grid_draws(n_x, u_size, n_rows, cfg)


def _scanned_kernels(n_x, cfg, monkeypatch, exact=True):
    """Per guess alphabet, the kernels the search hands the integer or the float scan, as row indices in order."""
    scanned = []

    def record(prior_w, post_w, rows, scale, chunks, loss):
        scanned.append([k for columns in chunks for k in zip(*columns)])
        return ZERO, scanned[-1][0]

    monkeypatch.setattr(oracles, "_exact_scan" if exact else "_float_scan", record)
    weights = (Fraction(1, n_x) if exact else 1 / n_x,) * n_x
    oracles._search(weights, weights, oracles._grids(n_x, cfg), cfg, oracles._ERROR)
    return scanned


def _reference_level(joint, y, rows):
    """One kernel's level: in ``Fraction`` arithmetic for a rational joint, else in floats.

    A float scan reads each weight as a float, so a ``Fraction`` prior of a
    float channel is rounded before it is pushed.
    """
    prior, post = joint.prior.weights, joint.posterior(y)
    if all(isinstance(w, Fraction) for w in prior + post):
        return _fraction_level(prior, post, rows)
    return _float_level(list(map(float, prior)), list(map(float, post)), rows)


def _reference_scan(joint, y, cfg):
    """Best randomized-function leakage, one kernel at a time, and its kernel."""
    post = joint.posterior(y)
    n_x = joint.n_inputs
    candidates = [((Fraction(1),),) * n_x]
    if any(q == 0 for q in post):
        candidates.append(
            tuple((Fraction(1), Fraction(0)) if q > 0 else (HALF, HALF) for q in post)
        )
    best, best_rows = None, None
    for rows in candidates:
        value = _reference_level(joint, y, rows)
        if best is None or value > best:
            best, best_rows = value, rows
    if len(candidates) == 1 or best.is_finite:
        for u_size in range(2, cfg.max_u + 1):
            for rows in _reference_kernels(n_x, u_size, cfg):
                value = _reference_level(joint, y, rows)
                if value > best:
                    best, best_rows = value, rows
    return best, best_rows


def _differential_cases(count):
    rng = random.Random(20261018)
    for _ in range(count):
        kind = rng.choice(("float", "exact", "mixed"))
        n_x = rng.choice((1, 2, 2, 3, 3, 4))
        zero_prob = rng.choice((0.0, 0.0, 0.4))
        if kind == "mixed":
            prior = random_pmf(rng, n_x, exact=True)
            channel = random_channel(rng, n_x, rng.randint(2, 3), zero_prob=zero_prob)
            joint = Joint.from_prior_channel(prior, channel)
        else:
            joint = random_joint(
                rng, n_x, rng.randint(2, 3), exact=kind == "exact", zero_prob=zero_prob
            )
        # keep every exhaustive grid at most a few hundred kernels
        resolution = rng.randint(3, {1: 6, 2: 6, 3: 3, 4: 3}[n_x])
        cfg = SearchConfig(
            resolution=resolution,
            max_u=3,
            max_iterations=rng.randint(1, 25),
            seed=rng.randrange(1000),
            # a low limit samples small alphabets, where vertex kernels often win
            exhaustive_limit=rng.choice((9, 9, 4)),
        )
        yield kind, joint, rng.choice(joint.support), cfg


class TestBatchedGridSearch:
    def test_matches_per_kernel_definition(self):
        kinds = collections.Counter()
        for kind, joint, y, cfg in _differential_cases(300):
            cert = certify_pmc(joint, y, cfg)
            value, rows = _reference_scan(joint, y, cfg)
            kinds[kind] += 1
            kinds["zeros"] += any(q == 0 for q in joint.posterior(y))
            kinds["sampled"] += joint.n_inputs * cfg.max_u > cfg.exhaustive_limit
            if kind == "mixed":
                # a Fraction prior pushed in float rounds differently in the last bits
                assert cert.oracle_value.nats == pytest.approx(value.nats, rel=1e-12)
                continue
            assert cert.oracle_value == value
            assert type(cert.oracle_value.ratio) is type(value.ratio)
            assert cert.witness.rows == rows
        assert min(kinds[k] for k in ("float", "exact", "mixed", "zeros", "sampled")) >= 20

    def test_float_guesswork_matches_per_kernel_definition(self):
        kinds = collections.Counter()
        for kind, joint, y, cfg in _differential_cases(300):
            if kind == "exact":
                continue
            prior, post = joint.prior.weights, joint.posterior(y)
            best = ZERO
            for u_size in range(2, cfg.max_u + 1):
                for rows in _reference_kernels(joint.n_inputs, u_size, cfg):
                    ratio = _float_guesswork(prior, rows) / _float_guesswork(post, rows)
                    best = max(best, ExtReal.from_ratio(ratio))
            got = brute_force_guesswork_leakage(joint, y, cfg)
            kinds[kind] += 1
            kinds["zeros"] += any(q == 0 for q in post)
            kinds["sampled"] += joint.n_inputs * cfg.max_u > cfg.exhaustive_limit
            if kind == "mixed":
                # a Fraction prior pushed in float rounds differently in the last bits
                assert got.nats == pytest.approx(best.nats, rel=1e-12)
                continue
            assert got == best
            assert type(got.ratio) is type(best.ratio)
        assert min(kinds[k] for k in ("float", "mixed", "zeros", "sampled")) >= 20

    def test_float_single_kernel_levels_match_per_kernel_definition(self):
        rng = random.Random(2023)
        kinds = collections.Counter()
        for kind, joint, y, _ in _differential_cases(300):
            if kind == "exact":
                continue
            prior, post = joint.prior.weights, joint.posterior(y)
            kernel = random_kernel(rng, joint.n_inputs, rng.randint(1, 4), exact=rng.random() < 0.5)
            value = randomized_function_leakage(joint, y, kernel)
            expected = _float_level(prior, post, kernel.rows)
            guesswork = guesswork_leakage(joint, y, kernel)
            ratio = _float_guesswork(prior, kernel.rows) / _float_guesswork(post, kernel.rows)
            kinds[kind] += 1
            kinds["zeros"] += any(q == 0 for q in post)
            if kind == "mixed":
                # a Fraction prior pushed in float rounds differently in the last bits
                assert value.nats == pytest.approx(expected.nats, rel=1e-12)
                assert guesswork.ratio == pytest.approx(ratio, rel=1e-12)
                continue
            assert value == expected
            assert type(value.ratio) is type(expected.ratio)
            assert guesswork.ratio == ratio and type(guesswork.ratio) is float
        assert min(kinds[k] for k in ("float", "mixed", "zeros")) >= 20

    def test_vanishing_prior_error_matches_the_definition(self):
        # a prior mass below the float zero guard clears the prior error of a
        # vertex kernel but not its posterior error
        prior = Pmf((1 - 1e-14, 1e-14))
        channel = Channel(((1e-20, 1 - 1e-20), (0.5, 0.5)))
        joint = Joint.from_prior_channel(prior, channel)
        cfg = SearchConfig(resolution=5, max_u=3)
        value, rows = _reference_scan(joint, 0, cfg)
        cert = certify_pmc(joint, 0, cfg)
        assert cert.oracle_value == value
        assert cert.witness.rows == rows

    @pytest.mark.parametrize("resolution", (5, 11))
    def test_vanishing_prior_error_agrees_with_exact_backend(self, resolution):
        tiny, tinier = Fraction(1, 10**14), Fraction(1, 10**20)
        exact = Joint.from_prior_channel(
            Pmf((1 - tiny, tiny)),
            Channel(((tinier, 1 - tinier), (Fraction(1, 2), Fraction(1, 2)))),
        )
        floats = Joint.from_prior_channel(
            Pmf((1 - 1e-14, 1e-14)), Channel(((1e-20, 1 - 1e-20), (0.5, 0.5)))
        )
        cfg = SearchConfig(resolution=resolution, max_u=2)
        want = certify_pmc(exact, 0, cfg)
        got = certify_pmc(floats, 0, cfg)
        assert got.oracle_value.nats == pytest.approx(want.oracle_value.nats, rel=1e-9)
        assert got.witness.rows == want.witness.rows
        assert got.dominance_ok and want.dominance_ok

    def test_vanishing_prior_error_still_raises_for_rationals(self):
        with pytest.raises(ValueError, match="prior error vanished"):
            oracles._error_ratio(Fraction(0), Fraction(1, 3))
        # a posterior off the prior's support: kernel (0, 1) has prior error 0
        # and posterior error 1/2, and raises although (0, 0) outranks it
        identity = {0: (1, 0), 1: (0, 1)}
        with pytest.raises(ValueError, match="prior error vanished"):
            oracles._exact_scan(
                (Fraction(1), Fraction(0)), (HALF, HALF), identity, 1, [[b"\0\0", b"\0\1"]], oracles._packed_error
            )
        assert oracles._error_ratio(0.0, 2e-6) == ZERO

    def test_block_size_does_not_change_the_certificate(self, monkeypatch):
        rng = random.Random(3)
        exhaustive, sampled = SearchConfig(resolution=6, max_u=3), SearchConfig(resolution=5, max_iterations=60)
        cases = [(random_joint(rng, 2, 3, exact=exact), exhaustive) for exact in (False, True)]
        # four secrets: u = 2 is exhaustive, u = 3 has 81 vertex kernels and 60 draws
        cases += [(random_joint(rng, 4, 3, exact=exact), sampled) for exact in (True, False)]
        expected = [(certify_pmc(j, 0, cfg), brute_force_guesswork_leakage(j, 0, cfg)) for j, cfg in cases]
        # a chunk is then one group, or seven draws, in both scans
        monkeypatch.setattr(oracles, "_BLOCK", 7)
        for (joint, cfg), (cert, guesswork) in zip(cases, expected):
            blocked = certify_pmc(joint, 0, cfg)
            assert blocked.oracle_value == cert.oracle_value
            assert type(blocked.oracle_value.ratio) is type(cert.oracle_value.ratio)
            assert blocked.witness == cert.witness
            assert blocked.kernels_visited == cert.kernels_visited
            got = brute_force_guesswork_leakage(joint, 0, cfg)
            assert got == guesswork and type(got.ratio) is type(guesswork.ratio)
        # the exact four secrets' witness is at u = 2, five rows: the first chunk is the first group,
        # which opens with a constant kernel (level 0/0), and the witness has another head
        blocked = certify_pmc(cases[2][0], 0, sampled)
        rows = oracles._lattice_ints(2, 4)
        head, lasts = next(oracles._sorted_column_kernels(4, rows))
        first = [tuple(Fraction(e, 4) for e in rows[i]) for i in (*head, lasts[0])]
        assert len(set(first)) == 1 and first[0] in ((0, 1), (1, 0))
        assert blocked.witness_u == 2 and blocked.oracle_value > ZERO
        assert blocked.witness.rows[:-1] != tuple(first[:-1])

    def test_float_draws_are_scanned_in_bounded_chunks(self, monkeypatch):
        # 16 vertex kernels and 2 * _BLOCK + 3 draws at u = 2: three chunks, the last of 19 kernels
        joint = random_joint(random.Random(38), 4, 3)
        cfg = SearchConfig(resolution=5, max_u=2, max_iterations=2 * oracles._BLOCK + 3, seed=38, exhaustive_limit=1)
        masses, sizes = oracles._block_masses, []
        monkeypatch.setattr(oracles, "_block_masses", lambda *args: sizes.append((m := masses(*args)).shape) or m)
        cert = certify_pmc(joint, 0, cfg)
        value, rows = _reference_scan(joint, 0, cfg)
        assert cert.oracle_value == value and type(cert.oracle_value.ratio) is float
        assert cert.witness.rows == rows
        # each chunk's masses are pushed once, prior and posterior stacked
        assert sizes == [(2, oracles._BLOCK, 2)] * 2 + [(2, 19, 2)]

    @pytest.mark.parametrize("adversary", [oracles._ERROR, oracles._GUESSWORK], ids=["error", "guesswork"])
    def test_stacked_weightings_match_separate_pushes(self, adversary):
        # prior and posterior pushed as one (2, K, u) block lose exactly what each loses when its
        # masses are pushed alone, secret by secret, left to right
        import numpy as np

        rng = random.Random(39)
        for n_x, u_size, resolution in ((2, 2, 11), (3, 3, 5), (4, 5, 4), (7, 3, 6)):
            lattice = np.array(_lattice_rows(u_size, resolution), dtype=float)
            columns = np.array([[rng.randrange(len(lattice)) for _ in range(500)] for _ in range(n_x)])
            prior, post = (random_pmf(rng, n_x).weights for _ in range(2))
            stacked = np.array([prior, post]).T[:, :, None, None]
            masses = oracles._block_masses(stacked, lattice, columns)
            assert masses.shape == (2, 500, u_size)
            got = adversary[1](masses.reshape(-1, u_size)).reshape(2, -1)
            for row, weights in zip(got, (prior, post)):
                alone = weights[0] * lattice[columns[0]]
                for x in range(1, n_x):
                    alone = alone + weights[x] * lattice[columns[x]]
                assert list(map(float.hex, row.tolist())) == list(map(float.hex, adversary[1](alone).tolist()))

    def test_masses_above_one_raise_for_the_first_kernel(self):
        # kernel 0 is sound; kernel 1 reads rows 0 and 2 (errors -0.5 and -0.25), kernel 2 rows 2 and 0
        rows = {0: (1.5, 0.0), 1: (0.5, 0.5), 2: (1.25, 0.0)}
        chunks = [[array.array("L", (1, 0, 2)), array.array("L", (1, 2, 0))]]
        for prior, post, error in (((1.0, 0.0), (0.0, 1.0), -0.5), ((0.0, 1.0), (1.0, 0.0), -0.25)):
            with pytest.raises(ValueError, match=f"guess masses exceed one: error {error!r}$"):
                oracles._float_scan(prior, post, rows, 1, chunks, oracles._block_error)

    def test_kernels_visited_per_guess_alphabet(self):
        rng = random.Random(8)
        for n_x, resolution in ((2, 6), (3, 5), (4, 3)):
            joint = random_joint(rng, n_x, 3)
            cfg = SearchConfig(resolution=resolution, max_u=3, max_iterations=40)
            cert = certify_pmc(joint, 0, cfg)
            expected = []
            for u_size in (2, 3):
                if n_x * u_size <= cfg.exhaustive_limit:
                    count = math.comb(resolution - 2 + u_size, u_size - 1) ** n_x
                    expected.append((u_size, count, True))
                else:
                    expected.append((u_size, u_size**n_x + cfg.max_iterations, False))
            assert cert.kernels_visited == tuple(expected)
            assert cert.witness_u == len(cert.witness.rows[0])
            assert "kernels_visited" not in cert.to_dict()

    def test_indicator_short_circuits_the_grid(self, zero_entry_joint, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a skipped grid was built")

        for name in ("_randrange_draws", "_lattice_ints", "_unrank"):
            monkeypatch.setattr(oracles, name, fail)
        for exhaustive_limit, exhaustive in ((9, True), (1, False)):
            cfg = SearchConfig(resolution=5, max_u=3, exhaustive_limit=exhaustive_limit)
            cert = certify_pmc(zero_entry_joint, 0, cfg)
            assert cert.kernels_visited == ((2, 0, exhaustive), (3, 0, exhaustive))
            assert cert.oracle_value == INF
            assert cert.witness_u == 2

    def test_budgets_checked_before_any_kernel(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a kernel was evaluated")

        names = (
            "_lambda_from_rows", "_block_masses", "_int_masses", "_packed_rows", "_fields",
            "_randrange_draws", "_lattice_ints", "_lattice_sizes", "_unrank",
        )
        for name in names:
            monkeypatch.setattr(oracles, name, fail)
        j = random_joint(random.Random(12), 3, 2)
        huge = SearchConfig(resolution=40, max_u=3)
        with pytest.raises(BudgetExceeded, match="^exhaustive grid would visit 551368000 kernels$"):
            certify_pmc(j, 0, huge)
        with pytest.raises(BudgetExceeded, match="^exhaustive grid would visit 551368000 kernels$"):
            brute_force_guesswork_leakage(j, 0, huge)
        # u = 11 has 184,756 rows of 11 entries
        sampled = SearchConfig(resolution=11, max_u=14)
        with pytest.raises(BudgetExceeded, match="^sampled grid would build 2032316 lattice entries$"):
            certify_pmc(j, 0, sampled)
        with pytest.raises(BudgetExceeded, match="^sampled grid would build 2032316 lattice entries$"):
            brute_force_guesswork_leakage(j, 0, sampled)
        # u = 4 is sampled: 4^3 vertex kernels plus the draws exceed the cap
        many_draws = SearchConfig(max_u=4, max_iterations=oracles._ENUMERATION_CAP)
        with pytest.raises(BudgetExceeded, match="^sampled grid would visit 2000064 kernels$"):
            certify_pmc(j, 0, many_draws)
        with pytest.raises(BudgetExceeded, match="^sampled grid would visit 2000064 kernels$"):
            brute_force_guesswork_leakage(j, 0, many_draws)
        # one secret: u = 8 is exhaustive, 480,700 kernels of 8 entries, each kernel one lattice row
        one = Joint.from_prior_channel(Pmf((Fraction(1),)), Channel(((Fraction(1, 3), Fraction(2, 3)),)))
        wide = SearchConfig(resolution=19, max_u=9)
        with pytest.raises(BudgetExceeded, match="^exhaustive grid would build 3845600 lattice entries$"):
            certify_pmc(one, 0, wide)
        with pytest.raises(BudgetExceeded, match="^exhaustive grid would build 3845600 lattice entries$"):
            brute_force_guesswork_leakage(one, 0, wide)


def _permutation_guesswork(masses):
    """Smallest expected number of guesses, by trying every guessing order."""
    return min(
        sum((i + 1) * masses[k] for i, k in enumerate(order))
        for order in itertools.permutations(range(len(masses)))
    )


def _decreasing_guesswork(masses):
    """Expected number of guesses in order of decreasing mass (Massey, ISIT 1994)."""
    return sum(k * m for k, m in enumerate(sorted(masses, reverse=True), 1))


def _exact_cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n_x = rng.choice((1, 2, 2, 3, 3))
        joint = random_joint(
            rng, n_x, rng.randint(2, 3), exact=True, zero_prob=rng.choice((0.0, 0.4))
        )
        cfg = SearchConfig(
            resolution=rng.randint(2, {1: 6, 2: 5, 3: 3}[n_x]),
            max_u=3,
            max_iterations=rng.randint(1, 20),
            seed=rng.randrange(1000),
            exhaustive_limit=rng.choice((9, 4)),
        )
        yield joint, rng.choice(joint.support), cfg


def _reference_guesswork(joint, y, cfg):
    """Best guesswork leakage, one kernel of the whole grid at a time; in floats for a float joint."""
    prior, post = joint.prior.weights, joint.posterior(y)
    exact = all(isinstance(w, Fraction) for w in prior + post)
    best = ZERO
    for u_size in range(2, cfg.max_u + 1):
        for rows in _reference_kernels(joint.n_inputs, u_size, cfg):
            if exact:
                ratio = _permutation_guesswork(_fraction_masses(prior, rows)) / _permutation_guesswork(
                    _fraction_masses(post, rows)
                )
            else:
                ratio = _float_guesswork(prior, rows) / _float_guesswork(post, rows)
            best = max(best, ExtReal.from_ratio(ratio))
    return best


def _tied_cases(count, seed):
    """Rational joints whose kernels tie often: symmetric channels, repeated entries."""
    rng = random.Random(seed)
    for _ in range(count):
        n_x, n_y = rng.randint(1, 4), rng.randint(2, 3)
        pool = [Fraction(rng.randint(1, 3)) for _ in range(2)]
        base = [rng.choice(pool) for _ in range(n_y)]
        if rng.random() < 0.5:
            # each secret's row is a cyclic shift of one row
            raw = [base[x % n_y :] + base[: x % n_y] for x in range(n_x)]
        else:
            raw = [[rng.choice(pool) for _ in range(n_y)] for _ in range(n_x)]
        channel = Channel(tuple(tuple(e / sum(r) for e in r) for r in raw))
        weights = [Fraction(1)] * n_x if rng.random() < 0.5 else [rng.choice(pool) for _ in range(n_x)]
        prior = Pmf(tuple(w / sum(weights) for w in weights))
        cfg = SearchConfig(
            resolution=rng.randint(2, {1: 7, 2: 4, 3: 3, 4: 3}[n_x]),
            # four secrets and four guesses are never exhaustive under these limits
            max_u=rng.randint(2, 4 if n_x < 4 else 3),
            max_iterations=rng.randint(1, 10),
            seed=rng.randrange(1000),
            exhaustive_limit=rng.choice((4, 9, 12)),
        )
        joint = Joint.from_prior_channel(prior, channel)
        yield joint, rng.choice(joint.support), cfg


def _wide_alphabet_cases(count, seed):
    """Float and mixed joints searched up to four or five guesses.

    One or two secrets search every alphabet exhaustively; three secrets
    sample every alphabet, vertex kernels included.
    """
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.choice(("float", "mixed"))
        n_x = rng.choice((1, 2, 3))
        prior = random_pmf(rng, n_x, exact=kind == "mixed")
        channel = random_channel(rng, n_x, rng.randint(2, 3), zero_prob=rng.choice((0.0, 0.0, 0.3)))
        joint = Joint.from_prior_channel(prior, channel)
        cfg = SearchConfig(
            # at most 35^2 kernels in an exhaustive grid of five guesses
            resolution=rng.randint(3, {1: 8, 2: 4, 3: 8}[n_x]),
            max_u=rng.choice((4, 5)),
            max_iterations=rng.randint(1, 25),
            seed=rng.randrange(1000),
            exhaustive_limit=10 if n_x <= 2 else 4,
        )
        yield kind, joint, rng.choice(joint.support), cfg


class TestWideGuessAlphabets:
    """The float modal mass is a fold over the guess columns: more than three of them."""

    @pytest.mark.parametrize("block", [None, 7])
    def test_float_grids_match_per_kernel_definition(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(oracles, "_BLOCK", block)
        kinds = collections.Counter()
        for kind, joint, y, cfg in _wide_alphabet_cases(80, 32):
            cert = certify_pmc(joint, y, cfg)
            value, rows = _reference_scan(joint, y, cfg)
            assert cert.oracle_value == value
            assert type(cert.oracle_value.ratio) is type(value.ratio)
            assert cert.witness.rows == rows
            kinds[kind] += 1
            u_size, count, exhaustive = cert.kernels_visited[-1]
            if count:  # an infinite support indicator skips the grids
                kinds[f"u{u_size} " + ("exhaustive" if exhaustive else "sampled")] += 1
        assert min(kinds.values()) >= 5 and len(kinds) == 6, kinds


class TestSampledDraws:
    @pytest.mark.parametrize(
        "n_x, u_size, cfg, head, total",
        [
            (4, 3, SearchConfig(resolution=5), [10, 8, 4, 12, 11, 4, 8, 7, 6, 4, 0, 10], 55744),
            (3, 4, SearchConfig(resolution=4, seed=7), [14, 7, 14, 11, 8, 18, 19, 17, 4, 14, 3, 10], 56952),
            # 66, 210 and 286 lattice rows: both sides of the one-byte draws below 256 rows
            (4, 3, SearchConfig(resolution=11, seed=1), [0, 6, 0, 28, 44, 8, 23, 39, 45, 45, 40, 53], 262170),
            (2, 7, SearchConfig(resolution=5, seed=2), [4, 115, 20, 116, 182, 174, 7, 203, 56, 83, 175, 117], 419357),
            (3, 4, SearchConfig(resolution=11, seed=3), [83, 16, 271, 168, 248, 222, 135, 193, 252, 205, 162, 270], 854525),
        ],
    )
    def test_sampled_grid_draws_are_pinned(self, n_x, u_size, cfg, head, total):
        # Recorded from the per-index rng.choice(range(n)) draws; randrange(n) is the same stream.
        _, _, draws = _grid_shape(n_x, u_size, cfg)
        assert len(draws) == cfg.max_iterations * n_x
        assert list(draws[:12]) == head and sum(draws) == total


class TestDrawStream:
    @pytest.mark.parametrize(
        "n",
        (
            1, 2, 3, 5, 15, 66, 100, 127, 128, 129, 210, 255, 256, 257,
            1000, 4096, 4097, 65535, 65536, 65537, 10**9 + 7,
        ),
    )
    def test_draws_are_the_randrange_stream(self, n):
        for seed in range(300):
            rng, reference = random.Random(seed), random.Random(seed)
            got = oracles._randrange_draws(rng, n, 40)
            assert list(got) == [reference.randrange(n) for _ in range(40)]
            # both generators are left in the same state
            assert rng.getstate() == reference.getstate()

    def test_many_draws_over_several_rounds(self):
        # about half of the words fall at or above 129, so the draws take several rounds
        rng, reference = random.Random(129), random.Random(129)
        got = oracles._randrange_draws(rng, 129, 8000)
        assert list(got) == [reference.randrange(129) for _ in range(8000)]
        assert rng.getstate() == reference.getstate()


class TestSampledCertificates:
    """Every alphabet sampled (``exhaustive_limit=1``), with no vertex kernels (2^13 > 4096).

    Recorded from the per-index ``randrange`` draws.  The certificates' witnesses
    are u = 3 draws of 66 rows, the guesswork levels u = 4 draws of 286 rows.
    """

    _WEIGHTS = (2, 2, 3, 4, 1, 1, 4, 3, 2, 2, 4, 4, 4)
    _CHANNEL = (
        (2, 2, 2), (5, 4, 1), (1, 2, 5), (1, 3, 1), (3, 4, 5), (4, 4, 4), (5, 4, 2),
        (3, 1, 1), (2, 4, 2), (3, 4, 3), (4, 5, 4), (5, 3, 5), (5, 4, 5),
    )
    _WITNESS = [
        (2, 6, 2), (2, 1, 7), (2, 5, 3), (5, 4, 1), (6, 0, 4), (3, 1, 6), (0, 1, 9),
        (0, 1, 9), (0, 2, 8), (1, 1, 8), (0, 5, 5), (1, 1, 8), (3, 1, 6),
    ]

    @pytest.mark.parametrize(
        "exact, value, guesswork",
        [
            (
                True,
                "ExtReal(nats=0.19480220075874619, ratio=Fraction(6094307, 5015599))",
                "ExtReal(nats=0.07132510628602544, ratio=Fraction(141157327, 131439932))",
            ),
            (
                False,
                "ExtReal(nats=0.19480220075874607, ratio=1.2150706226713897)",
                "ExtReal(nats=0.07132510628602533, ratio=1.073930310615194)",
            ),
        ],
    )
    def test_sampled_only_certificates_are_pinned(self, exact, value, guesswork):
        prior = tuple(Fraction(w, sum(self._WEIGHTS)) for w in self._WEIGHTS)
        rows = tuple(tuple(Fraction(e, sum(r)) for e in r) for r in self._CHANNEL)
        if not exact:
            prior, rows = tuple(map(float, prior)), tuple(tuple(map(float, r)) for r in rows)
        joint = Joint.from_prior_channel(Pmf(prior), Channel(rows))
        cfg = SearchConfig(resolution=11, max_u=4, max_iterations=100, seed=7, exhaustive_limit=1)
        cert = certify_pmc(joint, 0, cfg)
        assert repr(cert.oracle_value) == value
        assert [tuple(e * 10 for e in row) for row in cert.witness.rows] == self._WITNESS
        assert cert.kernels_visited == ((2, 100, False), (3, 100, False), (4, 100, False))
        assert repr(brute_force_guesswork_leakage(joint, 0, cfg)) == guesswork


def _drawn_reference(prior, post, rows, draws, loss):
    """Best level over the drawn kernels and the first kernel attaining it, in ``Fraction`` arithmetic."""
    n_x, best, first = len(prior), None, None
    fractions = {i: [Fraction(c, 4) for c in row] for i, row in rows.items()}
    for start in range(0, len(draws), n_x):
        kernel = tuple(draws[start : start + n_x])
        kernel_rows = [fractions[i] for i in kernel]
        a, b = (loss(_fraction_masses(w, kernel_rows)) for w in (prior, post))
        if b == 0:
            value = 1 if a == 0 else math.inf
        elif a == 0:
            raise ValueError("prior error vanished while posterior error did not")
        else:
            value = a / b
        if best is None or value > best:
            best, first = value, kernel
    return best, first


def _pmf_over(rng, den, n):
    """``n`` positive weights in units of ``1 / den``; the first, ``1 / den``, makes ``den`` their scale."""
    cuts = sorted(rng.sample(range(1, den - 1), n - 2))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, den - 1])]
    return (Fraction(1, den), *(Fraction(p, den) for p in parts))


class TestPackedDraws:
    """One sampled alphabet's draws, scanned on their own: 4 secrets, resolution 5, u = 3, 2,000 draws."""

    _ADVERSARIES = {
        "error": (oracles._packed_error, lambda masses: 1 - max(masses)),
        "guesswork": (oracles._packed_guesswork, _permutation_guesswork),
    }

    def _scan(self, prior, post, adversary, seed):
        cfg = SearchConfig(resolution=5, seed=seed)
        _, _, draws = _grid_shape(4, 3, cfg)
        assert len(draws) == 2000 * 4
        rows = {i: oracles._unrank(i, 3, 4) for i in set(draws)}
        loss, reference = self._ADVERSARIES[adversary]
        got = oracles._exact_scan(prior, post, rows, 4, oracles._kernel_chunks((), 15, draws, 4, bytes), loss)
        return got, _drawn_reference(prior, post, rows, draws, reference)

    # The scan's unit is one = 4 * den, and a field holds a spare bit above it: one just below
    # and above 2^7, 2^15, 2^31 and 2^63 steps the fields from 1 to 2, 4, 8 and 16 bytes; one
    # just below and above 2^8, 2^16, 2^32 and 2^64 fills a field or spills into its spare bit.
    # A guesswork field holds 3 * one = 12 * den: the last eight, the floor and the ceiling of
    # 2^k / 12, put it just below and above 2^8, 2^16, 2^32 and 2^64.
    _DENS = [
        31, 33, 2**13 - 1, 2**13 + 1, 2**29 - 1, 2**29 + 1, 2**61 - 1, 2**61 + 1,
        63, 65, 2**14 - 1, 2**14 + 1, 2**30 - 1, 2**30 + 1, 2**62 - 1, 2**62 + 1,
        *(2**k // 12 + up for k in (8, 16, 32, 64) for up in (0, 1)),
    ]

    @pytest.mark.parametrize("den", _DENS)
    @pytest.mark.parametrize("adversary", ["error", "guesswork"])
    def test_draws_match_per_kernel_fractions(self, den, adversary):
        rng = random.Random(den)
        prior, post = _pmf_over(rng, den, 4), _pmf_over(rng, den, 4)
        (value, kernel), (best, first) = self._scan(prior, post, adversary, den % 1000)
        assert value.ratio == best
        assert kernel == first

    @pytest.mark.parametrize("den", _DENS)
    @pytest.mark.parametrize("adversary", ["error", "guesswork"])
    def test_exhaustive_groups_match_the_whole_grid(self, den, adversary):
        # the twin over groups: 2 secrets at resolution 5 scan every kernel of u = 2 and 3
        prior = (Fraction(1, den), Fraction(den - 1, den))
        post = prior[::-1]
        # outcome 0 of this channel has posterior exactly ``post``
        c = min(p / q for p, q in zip(prior, post))
        rows = tuple((c * q / p, 1 - c * q / p) for p, q in zip(prior, post))
        joint = Joint.from_prior_channel(Pmf(prior), Channel(rows))
        assert joint.posterior(0) == post
        cfg = SearchConfig(resolution=5, max_u=3)
        if adversary == "error":
            cert = certify_pmc(joint, 0, cfg)
            value, witness = _reference_scan(joint, 0, cfg)
            assert cert.oracle_value == value and type(cert.oracle_value.ratio) is Fraction
            assert cert.witness.rows == witness
            assert all(exhaustive for _, _, exhaustive in cert.kernels_visited)
        else:
            got = brute_force_guesswork_leakage(joint, 0, cfg)
            assert got == _reference_guesswork(joint, 0, cfg) and type(got.ratio) is Fraction

    @pytest.mark.parametrize("adversary", ["error", "guesswork"])
    def test_infinite_and_unit_levels(self, adversary):
        # a posterior on one secret: kernels whose row for it is a vertex have
        # posterior error 0, and kernels guessing both a priori read 0/0
        prior = (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
        post = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        (value, kernel), (best, first) = self._scan(prior, post, adversary, 4243)
        assert value.ratio == best and kernel == first
        if adversary == "error":
            assert value == INF

    def test_vanishing_prior_error_in_a_draw_raises(self):
        # prior error 0 wherever secret 0's drawn row is a vertex; secret 1 then
        # gives a positive posterior error unless its row is the same vertex
        prior = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        post = (HALF, HALF, Fraction(0), Fraction(0))
        with pytest.raises(ValueError, match="prior error vanished"):
            self._scan(prior, post, "error", 4243)
        cfg = SearchConfig(resolution=5, seed=4243)
        draws = _grid_shape(4, 3, cfg)[2]
        rows = {i: oracles._unrank(i, 3, 4) for i in set(draws)}
        with pytest.raises(ValueError, match="prior error vanished"):
            _drawn_reference(prior, post, rows, draws, lambda masses: 1 - max(masses))


class TestByteGather:
    """Four secrets at u = 3 on both sides of the one-byte draws: 253 and 276 lattice rows."""

    @pytest.mark.parametrize(
        "resolution, iterations, byte_draws",
        # three draws of four rows leave most of the 253 rows unread
        [(22, 500, True), (22, 3, True), (23, 500, False)],
    )
    def test_gathered_grids_match_per_kernel_definition(self, resolution, iterations, byte_draws):
        joint = random_joint(random.Random(resolution + iterations), 4, 3, exact=True)
        cfg = SearchConfig(resolution=resolution, max_u=3, max_iterations=iterations, seed=37, exhaustive_limit=1)
        n_rows, _, draws = _grid_shape(4, 3, cfg)
        assert isinstance(draws, bytes) is byte_draws and n_rows == (253 if byte_draws else 276)
        assert (len(set(draws)) < n_rows - 200) is (iterations == 3)
        cert = certify_pmc(joint, 0, cfg)
        value, rows = _reference_scan(joint, 0, cfg)
        assert cert.oracle_value == value and type(cert.oracle_value.ratio) is Fraction
        assert cert.witness.rows == rows
        assert cert.kernels_visited == ((2, 16 + iterations, False), (3, 81 + iterations, False))
        got, expected = brute_force_guesswork_leakage(joint, 0, cfg), _reference_guesswork(joint, 0, cfg)
        assert got == expected and type(got.ratio) is Fraction

    # two secrets scan every kernel of u = 3, one per orbit: the groups' columns are bytes
    # below 256 rows, at resolution 22, and arrays at resolution 23
    @pytest.mark.parametrize(
        "resolution, exact, value, witness, guesswork",
        [
            (22, False, "ExtReal(nats=0.24081687266569246, ratio=1.2722880232592717)", ((1, 20), (0, 21)),
             "ExtReal(nats=0.10976719817237292, ratio=1.11601822913087)"),
            (23, False, "ExtReal(nats=0.19178344514749696, ratio=1.211408152244019)", ((0, 22), (1, 21)),
             "ExtReal(nats=0.07825746673680276, ratio=1.081401047629505)"),
            (22, True, "ExtReal(nats=1.4844612322813058, ratio=Fraction(631, 143))", ((0, 21), (21, 0)),
             "ExtReal(nats=0.3286118645644689, ratio=Fraction(67517, 48607))"),
            (23, True, "ExtReal(nats=1.0892445386645095, ratio=Fraction(425, 143))", ((1, 21), (0, 22)),
             "ExtReal(nats=0.39077347685181435, ratio=Fraction(23885, 16159))"),
        ],
        ids=["float-253-rows", "float-276-rows", "exact-253-rows", "exact-276-rows"],
    )
    def test_exhaustive_grids_keep_their_pins(self, monkeypatch, resolution, exact, value, witness, guesswork):
        chunk_kinds, chunks = set(), oracles._kernel_chunks

        def record(*args):
            for columns in chunks(*args):
                chunk_kinds.add(type(columns[0]))
                yield columns

        monkeypatch.setattr(oracles, "_kernel_chunks", record)
        joint = random_joint(random.Random(resolution), 2, 3, exact=exact)
        cfg = SearchConfig(resolution=resolution, max_u=3)
        cert = certify_pmc(joint, 0, cfg)
        den = resolution - 1
        assert repr(cert.oracle_value) == value
        assert cert.witness.rows == tuple(tuple(Fraction(e, den) for e in row) for row in witness)
        n_rows = 253 if resolution == 22 else 276
        assert cert.kernels_visited == ((2, resolution**2, True), (3, n_rows**2, True))
        assert repr(brute_force_guesswork_leakage(joint, 0, cfg)) == guesswork
        assert chunk_kinds == ({bytes} if resolution == 22 else {bytes, array.array})


class TestKernelStreams:
    """Exhaustive grids' kernel columns, one chunk at a time, as :func:`_search` builds them."""

    @staticmethod
    def _chunks(n_x, resolution, u_size, groups=None):
        rows = oracles._lattice_ints(u_size, resolution - 1)
        pack = bytes if len(rows) < 256 else functools.partial(array.array, "L")
        groups = oracles._sorted_column_kernels(n_x, rows) if groups is None else groups(n_x, rows)
        return oracles._kernel_chunks(groups, len(rows), (), n_x, pack)

    # sha256 of each secret's column, its indices joined by commas, one chunk after another
    @pytest.mark.parametrize(
        "n_x, resolution, u_size, kernels, kind, digests",
        [
            (3, 5, 3, 576, bytes, ("0426b6580ecf2ab375bd8e40e772681243c93867b3c88e9bc1cecc1a671063d3",
                                   "ee7668c4dfde460a9c8ca325d0acf54cfd5cbad8cb8aad57e517b22162a31fbe",
                                   "537983bd36bb5fb3a75450122545c08d47766b87f9793a475cf8e94abea247c7")),
            (4, 5, 2, 313, bytes, ("59955bde74349fcd753707172634530f66f8f2404b054d70a47b13535785e26e",
                                   "86d3c947edec6bae224bbcf1df51b3b3a3ca271f1215d29dcbf588aa3cccd6af",
                                   "48f609d76250d96a6d2ad68401f0c56a260937f0c39b2718568d3abd8708ef02",
                                   "d7e64d09e4c369b5218030b5a5359627c85ec4b019a840fd34c3bdc8bfabac78")),
            (2, 11, 3, 744, bytes, ("3e990c1e42a0fefbbf1d408491d33ebfacdadf5f6a1150952429cffad44f6dea",
                                    "80b7a965116bfd16da901a8a378b9f882f78d192f185d2ec03486d87e4e6d59c")),
            # 276 rows: the columns are array("L")
            (2, 23, 3, 12768, array.array, ("0583db0d5f420b182a63d91b529d1b62f1e0babb265360a3b85455e7dff6d2b8",
                                             "0cc33ab38d5ed7ee407cb97779c0c1384024635fba0c67d89e8c57d02015dc6e")),
        ],
        ids=["3x3-res5", "4x2-res5", "2x3-res11", "2x3-res23"],
    )
    def test_exhaustive_streams_keep_their_pins(self, n_x, resolution, u_size, kernels, kind, digests):
        hashes, sizes = [hashlib.sha256() for _ in range(n_x)], []
        for columns in self._chunks(n_x, resolution, u_size):
            assert len(columns) == n_x and {type(c) for c in columns} == {kind}
            assert len({len(c) for c in columns}) == 1
            sizes.append(len(columns[0]))
            for h, column in zip(hashes, columns):
                h.update(",".join(map(str, column)).encode() + b";")
        assert sum(sizes) == kernels and max(sizes) <= oracles._BLOCK
        assert tuple(h.hexdigest() for h in hashes) == digests

    def test_a_huge_exhaustive_stream_starts_at_once(self):
        # two secrets at resolution 3000: of the 1,500 sorted heads, the first has all 3,000
        # rows as lasts, so the first chunk is that one group, one step into the walk
        pulled = []

        def walk(n_x, rows):
            for group in oracles._sorted_column_kernels(n_x, rows):
                pulled.append(group)
                yield group

        columns = next(self._chunks(2, 3000, 2, walk))
        assert len(pulled) == 1 and pulled[0][0] == (0,)
        assert [type(c) for c in columns] == [array.array] * 2
        assert list(columns[0]) == [0] * 3000 and list(columns[1]) == list(range(3000))


class TestMaxFold:
    @pytest.mark.parametrize("width", [1, 2, 4, 8, 16])
    def test_packed_error_is_one_minus_each_kernels_largest_mass(self, width):
        # every alphabet from 1 to 10 guesses: the fold's spans double and overlap at the end
        rng = random.Random(width)
        one = (1 << 8 * width - 1) - 1
        for u_size in range(1, 11):
            kernels = [[rng.choice((0, one, rng.randrange(one + 1))) for _ in range(u_size)] for _ in range(50)]
            fields = [m for kernel in kernels for m in kernel]
            packed = sum(m << 8 * width * j for j, m in enumerate(fields))
            got = oracles._packed_error(packed, len(fields), u_size, width, one)
            assert got == [one - max(kernel) for kernel in kernels]

    @pytest.mark.parametrize("width", [1, 2, 4, 8, 16])
    def test_packed_guesswork_at_the_largest_unit_its_width_allows(self, width):
        # every kernel's fields sum into its lowest: at u guesses they hold u * one, with one the
        # largest whose u * one fits the width, and one-hot, equal and random kernels side by side
        rng = random.Random(width)
        for u_size in range(2, 11):
            one = ((1 << 8 * width) - 1) // u_size
            kernels = []
            for _ in range(20):
                hot = [0] * u_size
                hot[rng.randrange(u_size)] = one
                cuts = sorted(rng.randrange(one + 1) for _ in range(u_size - 1))
                kernels += [hot, [one // u_size] * u_size, [b - a for a, b in zip([0, *cuts], [*cuts, one])]]
            fields = [m for kernel in kernels for m in kernel]
            packed = sum(m << 8 * width * j for j, m in enumerate(fields))
            got = oracles._packed_guesswork(packed, len(fields), u_size, width, one)
            # past seven guesses, the permutation search gives way to Massey's decreasing order
            # (checked against it by test_packed_guesswork_matches_permutation_search)
            reference = _permutation_guesswork if u_size <= 7 else _decreasing_guesswork
            assert got == list(map(reference, kernels))


class TestLatticeUnranking:
    def test_lattice_rows_are_the_product_rows_summing_to_the_denominator(self):
        # one column is the single row (den,), built apart from the column-wise differences
        for n_cols in range(1, 6):
            for den in range(13):
                rows = [r for r in itertools.product(range(den + 1), repeat=n_cols) if sum(r) == den]
                assert oracles._lattice_ints(n_cols, den) == rows

    def test_unrank_matches_every_lattice_row(self):
        for u_size in range(1, 7):
            for resolution in range(2, 13):
                den = resolution - 1
                for index, row in enumerate(_lattice_rows(u_size, resolution)):
                    assert tuple(Fraction(c, den) for c in oracles._unrank(index, u_size, den)) == row

    # a float scan takes a lattice no larger than its draws whole: 3 * 3 draws stay below 11 rows
    @pytest.mark.parametrize("exact, iterations", [(True, 200), (False, 3)])
    def test_sampled_search_builds_no_lattice(self, monkeypatch, exact, iterations):
        def fail(*args, **kwargs):
            raise AssertionError("a whole lattice was built")

        joint = random_joint(random.Random(27), 3, 3, exact=exact)
        cfg = SearchConfig(resolution=11, max_u=6, max_iterations=iterations, seed=5, exhaustive_limit=1)
        expected = certify_pmc(joint, 0, cfg)
        guesswork = brute_force_guesswork_leakage(joint, 0, cfg)
        for name in ("_lattice_rows", "_lattice_ints"):
            monkeypatch.setattr(oracles, name, fail)
        cert = certify_pmc(joint, 0, cfg)
        assert cert == expected
        assert all(not exhaustive for _, _, exhaustive in cert.kernels_visited)
        assert brute_force_guesswork_leakage(joint, 0, cfg) == guesswork

    def test_packs_only_the_rows_it_reads(self, monkeypatch):
        # u = 6 at resolution 11 has 3,003 rows; the three secrets draw 150 of them
        pack, packed = oracles._packed_rows, []
        monkeypatch.setattr(oracles, "_packed_rows", lambda rows, *a: packed.append(set(rows)) or pack(rows, *a))
        joint = random_joint(random.Random(28), 3, 3, exact=True)
        cfg = SearchConfig(resolution=11, max_u=6, max_iterations=50, seed=6, exhaustive_limit=1)
        certify_pmc(joint, 0, cfg)
        # each alphabet packs its rows once, for both sides and every secret
        assert len(packed) == 5
        for u_size, rows in zip(range(2, 7), packed):
            n_rows, vertices, draws = _grid_shape(3, u_size, cfg)
            assert rows == {*vertices, *draws}
            # 150 draws may read all 11 rows of u = 2, never a larger lattice whole
            assert u_size == 2 or len(rows) < n_rows


class TestIntegerCore:
    def test_packed_guesswork_matches_permutation_search(self):
        rng = random.Random(1994)
        for n in [1, 2, 3, 4, 5, 6] * 10 + [7] * 4:
            pool = [Fraction(rng.randint(0, 6), rng.randint(1, 9)) for _ in range(3)]
            # draws from a small pool give ties, as lattice kernels do
            masses = [rng.choice(pool) for _ in range(n)]
            # the masses in units of 1 / den, packed as two kernels: as drawn and reversed
            den = math.lcm(*(m.denominator for m in masses))
            ints = [int(m * den) for m in masses]
            # power-of-two bytes with room for the n * one that a field may sum
            one = max(1, sum(ints))
            width = 1 << ((max(2, n) * one).bit_length() // 8).bit_length()
            fields = ints + ints[::-1]
            packed = sum(m << 8 * width * j for j, m in enumerate(fields))
            got = oracles._packed_guesswork(packed, 2 * n, n, width, one)
            assert [Fraction(g, den) for g in got] == [_permutation_guesswork(masses)] * 2
            assert _decreasing_guesswork(masses) == _permutation_guesswork(masses)

    def test_guesswork_search_matches_per_kernel_definition(self):
        sampled = 0
        for joint, y, cfg in _exact_cases(40, 1996):
            best = _reference_guesswork(joint, y, cfg)
            got = brute_force_guesswork_leakage(joint, y, cfg)
            assert got == best
            assert type(got.ratio) is Fraction
            sampled += joint.n_inputs * cfg.max_u > cfg.exhaustive_limit
        assert sampled >= 10

    def test_single_kernel_levels_match_fraction_definition(self):
        rng = random.Random(31)
        for _ in range(200):
            joint = random_joint(rng, rng.randint(1, 4), 3, exact=True, zero_prob=0.3)
            kernel = random_kernel(rng, joint.n_inputs, rng.randint(1, 5), exact=True)
            y = rng.choice(joint.support)
            prior, post = joint.prior.weights, joint.posterior(y)
            value = randomized_function_leakage(joint, y, kernel)
            expected = _fraction_level(prior, post, kernel.rows)
            assert value == expected
            assert type(value.ratio) is type(expected.ratio)
            guesswork = guesswork_leakage(joint, y, kernel)
            assert guesswork.ratio == _permutation_guesswork(
                _fraction_masses(prior, kernel.rows)
            ) / _permutation_guesswork(_fraction_masses(post, kernel.rows))
            assert type(guesswork.ratio) is Fraction

    @pytest.mark.parametrize("exhaustive_limit", (9, 4))
    def test_both_enumerations_give_the_same_kernels(self, exhaustive_limit, monkeypatch):
        # 3**8 > 4096 kernels: the sampled grid has no vertex product
        for n_x, resolution in ((1, 6), (2, 5), (3, 4), (4, 3), (8, 3)):
            cfg = SearchConfig(
                resolution=resolution, max_iterations=30, seed=n_x,
                exhaustive_limit=exhaustive_limit,
            )
            exact = _scanned_kernels(n_x, cfg, monkeypatch)
            # both scans take one stream of chunks: the same kernels in the same order
            assert _scanned_kernels(n_x, cfg, monkeypatch, exact=False) == exact
            for u_size, scanned in zip((2, 3), exact):
                rows = _lattice_rows(u_size, resolution)
                reference = list(_reference_kernels(n_x, u_size, cfg))
                kernels = [tuple(rows[i] for i in kernel) for kernel in scanned]
                if n_x * u_size > exhaustive_limit:
                    # a sampled grid's vertex kernels, then its draws
                    assert kernels == reference
                    continue
                # one kernel per relabelling of the guesses: the one with sorted columns
                columns = [list(zip(*kernel)) for kernel in reference]
                assert kernels == [k for k, c in zip(reference, columns) if c == sorted(c)]
                orbits = {tuple(zip(*kernel)) for kernel in kernels}
                assert all(tuple(sorted(c)) in orbits for c in columns)

    def test_iter_kernels_covers_the_whole_exhaustive_grid(self):
        # acceptance criterion 01 checks dominance on every kernel this yields
        for n_x, u_size, resolution in ((1, 3, 6), (2, 2, 5), (2, 3, 5), (3, 3, 3), (4, 2, 4)):
            cfg = SearchConfig(resolution=resolution, max_u=u_size)
            rows = _lattice_rows(u_size, resolution)
            kernels = list(oracles._iter_kernels(n_x, u_size, cfg))
            assert len(kernels) == len(rows) ** n_x
            assert kernels == list(itertools.product(rows, repeat=n_x))

    @pytest.mark.parametrize("kind, block", [("exact", None), ("float", None), ("float", 7)])
    def test_tied_kernels_match_the_whole_grid(self, kind, block, monkeypatch):
        # both scans evaluate one kernel per orbit: its witness must be the whole grid's first
        if block is not None:
            monkeypatch.setattr(oracles, "_BLOCK", block)
        exhaustive = collections.Counter()
        for joint, y, cfg in _tied_cases(40, 2026):
            if kind == "float":
                # repeated entries stay repeated in floats, so the twin's kernels tie as often
                joint = Joint.from_prior_channel(
                    Pmf(tuple(map(float, joint.prior.weights))),
                    Channel(tuple(tuple(map(float, row)) for row in joint.channel.rows)),
                )
            cert = certify_pmc(joint, y, cfg)
            value, rows = _reference_scan(joint, y, cfg)
            assert cert.oracle_value == value
            assert type(cert.oracle_value.ratio) is type(value.ratio)
            assert cert.witness.rows == rows
            got = brute_force_guesswork_leakage(joint, y, cfg)
            expected = _reference_guesswork(joint, y, cfg)
            assert got == expected
            assert type(got.ratio) is type(expected.ratio)
            visited = []
            for u_size in range(2, cfg.max_u + 1):
                whole = joint.n_inputs * u_size <= cfg.exhaustive_limit
                grid = _reference_kernels(joint.n_inputs, u_size, cfg)
                visited.append((u_size, sum(1 for _ in grid), whole))
                exhaustive[u_size] += whole
            assert cert.kernels_visited == tuple(visited)
        assert exhaustive[3] >= 15 and exhaustive[4] >= 8
