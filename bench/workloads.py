"""The workloads: seeded inputs, timed tasks and the check of each task.

A task is one operation of a workload.  Its ``run`` is timed; its ``check``
runs afterwards, untimed, and compares the outputs by meaning against
:mod:`reference`.  Every task belongs to a backend: Fraction inputs and
``--mode rational`` count as ``exact``, everything else as ``float``.

Why each workload exists (the planned optimisation it isolates) is recorded in
``WHY``; its input properties in ``INPUTS``.  Both are printed with every
result.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import reference as ref
from clitasks import CliDocs
from reference import expect, expect_close
from spans import Tracer

from infodens import bounds, leakage, mechanisms, oracles, properties, sampling
from infodens.probcore import Channel, ExtReal, Joint, Pmf

WHY = {
    "analysis_large": "Full analyses of few large channels: the pairwise LDP loop dominates a "
    "zero-free 100x100 float channel and is short-circuited by zeros; exact 24x24 and 32x32 "
    "levels; quadrature and numpy-bound sampling.  The grid search never runs here.  Each "
    "percentile falls inside one kind of task, not on the border of two: per rotation the "
    "float 64x64 analysis has four cheaper float tasks below it and four dearer ones above "
    "it, so it sets the float p50, and the three zero-free 100x100 analyses set the float "
    "tail; the two exact 24x24 analyses have three cheaper exact tasks (the 12x12 analysis "
    "and the rr and extremal families) below them and the three exact 32x32 analyses above "
    "them, so they set the exact p50 and those three set the exact tail.  With two or three "
    "of a kind per rotation, a percentile falls near the middle of its kind's samples, not "
    "on their lower edge, and their median is not that of a handful of samples.",
    "oracle_certify": "The brute-force grid search does nearly all the work; leakage runs one "
    "closed-form pmc per certificate.  The three certificate shapes visit 2.7k to 4.5k kernels "
    "each, so they take about the same time: the float p50 and tail fall among the three float "
    "certificates, the exact p50 and tail among the three exact ones and the guesswork search "
    "(the achieving-kernel task, a few hundred microseconds, sits below them).",
}
SIZES = {
    "full": dict(
        large=100, large_count=3, mid=64, twin=24, exact_small=12, exact_large=32, exact_large_count=3,
        large_zero_prob=0.05, rr_n=(4, 8, 8, 16), ext_n=(4, 8, 8, 16),
        lap_grid=8, gauss_grid=8, mc_points=2, mc_samples=200_000, tail_samples=1_000_000,
        ex33_res=5, ex23_res=11, s43_res=5, gw_res=4,
        cli_doc_n=64, cli_props_instances=20, cli_oracle_grid=5,
    ),
    "tiny": dict(
        large=12, large_count=3, mid=8, twin=6, exact_small=4, exact_large=8, exact_large_count=3,
        large_zero_prob=0.05, rr_n=(3,), ext_n=(3,),
        lap_grid=2, gauss_grid=2, mc_points=1, mc_samples=40_000, tail_samples=20_000,
        ex33_res=3, ex23_res=4, s43_res=3, gw_res=3,
        cli_doc_n=6, cli_props_instances=3, cli_oracle_grid=3,
    ),
}

CLI_INPUTS = (
    "CLI rotation of 22 subprocesses spread over the run: analyze (float {cli_doc_n}x{cli_doc_n} "
    "raw, rational rr n=4..8, rational extremal n=3..6, one malformed doc exiting 2, one "
    "byte-identical repeat), translate (pml/pmc/lip/ldp/alip), sweep (steps 100/50/200), "
    "mechanism (laplace n=1, gaussian, rational rr), props (--instances {cli_props_instances}, "
    "three seeds), oracle (rational 3x3 --grid {cli_oracle_grid} --max-u 3 plus a byte-identical "
    "repeat, float 2x3 --grid 11); 17 float / 5 exact; no zero entries"
)
INPUTS = {
    "analysis_large": "per rotation: {large_count} float {large}x{large} zero-free, one with zeros "
    "(entry zero probability {large_zero_prob}), float {mid}x{mid}, exact {twin}x{twin} and its "
    "float twin, another exact {twin}x{twin}, exact {exact_small}x{exact_small}, "
    "{exact_large_count} exact "
    "{exact_large}x{exact_large}, "
    "one task analysing exact rr n={rr_n}, one analysing exact extremal n={ext_n}; one task of "
    "Laplace quadrature n=1 on {lap_grid} interior y and Gaussian quadrature on {gauss_grid} y, "
    "one of Laplace Monte Carlo n=3 at {mc_points} y ({mc_samples} samples each), one of "
    "Gaussian tail_frequency ({tail_samples} samples); only the one channel named has zero "
    "entries. " + CLI_INPUTS,
    "oracle_certify": "per rotation, float and exact twins: exhaustive 3x3 at resolution "
    "{ex33_res}, exhaustive 2x3 at resolution {ex23_res}, sampled 4x3 at resolution {s43_res} "
    "(max_u 3, 2000 samples per sampled u); exact achieving_kernel on 3x3 and 4x3; exact "
    "brute_force_guesswork_leakage 3x3 at resolution {gw_res}; no zero entries. " + CLI_INPUTS,
}

#: Wall seconds one rotation of in-process tasks takes on the seed code,
#: checks included (2-vCPU Xeon VM, Python 3.11).  A run spends
#: ``--seconds`` minus ``CLI_NOMINAL_S`` on ``that / nominal`` rotations, a
#: count fixed per workload, so every run does the same work and reports the
#: same sample mix; a faster program finishes sooner instead of sampling more.
NOMINAL_ROTATION_S = {"analysis_large": 2.7, "oracle_certify": 1.5}
#: Wall seconds of the 22 CLI subprocesses of a run on the seed code, with
#: the calibration probes between them.
CLI_NOMINAL_S = 24.0

PROPERTY_CHECKS = (
    "non_negativity", "independence_zero", "additivity", "concavity",
    "pre_processing", "post_processing", "composition",
)


@dataclass
class Task:
    label: str
    backend: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    subcommand: Optional[str] = None


def _floats(prior, rows):
    return tuple(float(p) for p in prior), tuple(tuple(float(c) for c in row) for row in rows)


def _compare(level: ExtReal, expected, exact: bool, what: str) -> None:
    if exact:
        expect(level.ratio == expected, f"{what}: got ratio {level.ratio!r}, expected {expected!r}")
    else:
        expect_close(level.nats, ref.nats(expected), what)


def _compare_translated(level: ExtReal, expected, exact: bool, what: str) -> None:
    """Like ``_compare``; but a float level translated at the high-privacy boundary, where
    rounding decides between infinite and finite, only has to be large (above 20 nats)."""
    if not exact and max(level.nats, ref.nats(expected)) > 20:
        expect(min(level.nats, ref.nats(expected)) > 20, f"{what}: got {level.nats!r}, expected {expected!r}")
    else:
        _compare(level, expected, exact, what)


class Analysis:
    """One full analysis: Joint build, levels, profile, aggregates, translation, boundedness."""

    def __init__(self, tr: Tracer, prior, rows):
        b = "exact" if isinstance(prior[0], Fraction) else "float"
        with tr.span(f"probcore.joint_build.{b}"):
            self.joint = Joint.from_prior_channel(Pmf(prior), Channel(rows))
        j = self.joint
        cells = len(prior) * len(rows[0])
        tr.count("probcore.cells", cells)
        with tr.span(f"leakage.levels.{b}"):
            self.levels = leakage.all_guarantee_levels(j)
        tr.count("leakage.cells", cells)
        with tr.span("leakage.profile"):
            self.profile = leakage.leakage_profile(j)
        with tr.span("leakage.aggregates"):
            self.aggregates = (leakage.max_cost_leakage(j), leakage.max_realizable_cost(j),
                               leakage.expected_pmc(j))
        with tr.span("bounds.derive"):
            self.closure = bounds.derive_implications(self.levels["pml"], j.prior.p_min)
        with tr.span("bounds.verify"):
            self.bounded_ok = bounds.verify_boundedness_equivalence(j)

    def check(self, expected: dict, exact: bool, what: str) -> None:
        lv = self.levels
        for kind in ("pmc", "pml", "lip", "ldp"):
            _compare(lv[kind].eps, expected[kind], exact, f"{what} {kind}")
        _compare(lv["alip"].eps_l, expected["pmc"], exact, f"{what} alip.l")
        _compare(lv["alip"].eps_u, expected["pml"], exact, f"{what} alip.u")
        mcl, mrc, mean = self.aggregates
        _compare(mcl, expected["max_cost_leakage"], exact, f"{what} max_cost_leakage")
        _compare(mrc, expected["max_realizable_cost"], exact, f"{what} max_realizable_cost")
        per_y = expected["per_y"]
        expect([r.y for r in self.profile.rows] == sorted(per_y), f"{what}: profile support")
        for row in self.profile.rows:
            _compare(row.pmc, per_y[row.y][0], exact, f"{what} profile pmc[{row.y}]")
            _compare(row.pml, per_y[row.y][1], exact, f"{what} profile pml[{row.y}]")
        marginal = self.joint.marginal
        want_mean = math.fsum(float(marginal[y]) * ref.nats(v[0]) for y, v in per_y.items())
        expect_close(mean, want_mean, f"{what} expected_pmc")
        want = ref.implied("pml", expected["p_min"], r=expected["pml"])
        got = self.closure.implied
        expect([g.kind.value for g in got] == [k for k, _ in want], f"{what}: closure kinds")
        for g, (k, value) in zip(got, want):
            if k == "alip":
                _compare_translated(g.eps_l, value[0], exact, f"{what} closure alip.l")
                _compare_translated(g.eps_u, value[1], exact, f"{what} closure alip.u")
            else:
                _compare_translated(g.eps, value, exact, f"{what} closure {k}")
        expect(self.bounded_ok is True, f"{what}: boundedness equivalence")


class Workload:
    """Inputs and tasks of one workload; built once per process, in set-up."""

    name = ""

    def __init__(self, seed: int, size: str, tr: Tracer, workdir: Path, fault: bool):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.size = SIZES[size]
        self.tr = tr
        self.fault = fault
        self.cli = CliDocs(self.rng, workdir, self.size, self.exact_joint, fault)
        self._refs = {}

    # -- generation --------------------------------------------------------------

    def exact_joint(self, n_x: int, n_y: int, zero_prob: float):
        """A rational prior and channel whose entries are multiples of ``1 / (8 n)``.

        The fixed denominators keep the cost of exact arithmetic the same for
        every seed.  A channel entry is zero with probability ``zero_prob``;
        every row keeps a positive entry and the prior has full support.
        """
        rng = self.rng

        def composition(n: int, zero_prob: float) -> tuple:
            total = 8 * n
            live = [i for i in range(n) if rng.random() >= zero_prob] or [rng.randrange(n)]
            cuts = sorted(rng.sample(range(1, total), len(live) - 1))
            parts = dict(zip(live, (b - a for a, b in zip([0, *cuts], [*cuts, total]))))
            return tuple(Fraction(parts.get(i, 0), total) for i in range(n))

        return composition(n_x, 0.0), tuple(composition(n_y, zero_prob) for _ in range(n_x))

    def float_joint(self, n_x: int, n_y: int, zero_prob: float):
        with self.tr.span("sampling"):
            j = sampling.random_joint(self.rng, n_x, n_y, zero_prob=zero_prob)
        return j.prior.weights, j.channel.rows

    def expected_levels(self, key, prior, rows) -> dict:
        """Reference levels, computed on first use; a fault run corrupts the PMC level."""
        if key not in self._refs:
            levels = ref.finite_levels(prior, rows)
            if self.fault:
                levels = dict(levels, pmc=levels["pmc"] * 2 if levels["pmc"] != math.inf else 2)
            self._refs[key] = levels
        return self._refs[key]

    def analysis_task(self, label: str, prior, rows, exact_source=None) -> Task:
        """A full analysis; float twins of rational instances check against the exact values."""
        exact = isinstance(prior[0], Fraction)
        src = exact_source or (prior, rows)

        def check(a: Analysis) -> None:
            a.check(self.expected_levels(label, *src), exact, label)

        return Task(label, "exact" if exact else "float", lambda: Analysis(self.tr, prior, rows), check)

    def rotation(self, index: int) -> list:
        raise NotImplementedError

    def census(self) -> list:
        """Minimal calls into every layer, so each layer reports a measured time in a traced run."""
        tr = self.tr
        prior, rows = self.exact_joint(2, 2, 0.0)
        fprior, frows = _floats(prior, rows)
        tasks = [self.analysis_task("census_exact", prior, rows),
                 self.analysis_task("census_float", *self.float_joint(3, 3, 0.0))]

        def oracle_calls():
            j = Joint.from_prior_channel(Pmf(prior), Channel(rows))
            fj = Joint.from_prior_channel(Pmf(fprior), Channel(frows))
            cfg = oracles.SearchConfig(resolution=3, max_u=2)
            count_kernels(tr, "exact", 2, cfg)
            with tr.span("oracles.certify.exact"):
                a = oracles.certify_pmc(j, 0, cfg)
            count_kernels(tr, "float", 2, cfg)
            with tr.span("oracles.certify.float"):
                b = oracles.certify_pmc(fj, 0, cfg)
            with tr.span("oracles.achieving"):
                oracles.achieving_kernel(j, 0)
            with tr.span("oracles.guesswork"):
                oracles.brute_force_guesswork_leakage(j, 0, cfg)
            return a, b

        tasks.append(Task("census_oracle", "exact", oracle_calls,
                          lambda certs: expect(all(c.dominance_ok for c in certs), "census dominance")))
        instances = self.size["cli_props_instances"]
        tasks.append(Task("census_props", "float", lambda: property_batch(tr, 1, instances),
                          check_property_batch))
        tasks.append(Task("census_sweep", "float", lambda: sweep_task(tr, 0.25, 4),
                          lambda t: expect(len(t.pml_to_pmc_rows) == 4, "census sweep rows")))

        def continuous():
            with tr.span("mechanisms.construct"):
                lap = mechanisms.LaplaceMeanMechanism(0.0, 1.0, n=1, b=1.0)
                lap3 = mechanisms.LaplaceMeanMechanism(0.0, 1.0, n=3, b=1.0)
                gauss = mechanisms.GaussianPerturbMechanism(1.0, 1.0)
            tr.count("mechanisms.quadrature.calls", 1)
            with tr.span("mechanisms.quadrature"):
                q = lap.pmc_at(0.5)
            tr.count("mechanisms.montecarlo.samples", 3 * 20_000)
            with tr.span("mechanisms.montecarlo"):
                m = lap3.pmc_at(0.5, mc_samples=20_000)
            tr.count("mechanisms.tail.samples", 10_000)
            with tr.span("mechanisms.tail"):
                freq, err = gauss.tail_frequency(2.0, n_samples=10_000)
            return q, m, freq, err, gauss.tail_bound(2.0)

        tasks.append(Task("census_mechanisms", "float", continuous,
                          lambda r: expect(r[2] <= r[4] + 3 * r[3] and 0 <= r[0], "census mechanisms")))
        return tasks


def count_kernels(tr: Tracer, b: str, n_x: int, cfg) -> None:
    """Computed kernel counts of one ``certify_pmc`` call, from its shape and ``SearchConfig``."""
    total, exhaustive = ref.kernels_visited(n_x, cfg.resolution, cfg.max_u, cfg.max_iterations,
                                            cfg.exhaustive_limit)
    tr.count("oracles.kernels_visited", total)
    tr.count(f"oracles.kernels.{b}", total)
    tr.count("oracles.kernels_exhaustive", exhaustive)


def sweep_task(tr: Tracer, pmin: float, steps: int):
    with tr.span("bounds.sweep"):
        table = bounds.sweep_curves(pmin, steps)
    with tr.span("bounds.csv"):
        table.pml_to_pmc_csv()
        table.pmc_to_pml_csv()
    return table


def property_batch(tr: Tracer, seed: int, instances: int):
    """``run_property_suite``; traced, it runs under the ``properties.suite`` span, and
    each of its checks then runs once more on its own, under its own span, with the
    suite's documented per-check seed ``seed * 7919 + index``.  Both results are checked."""
    if not tr.enabled:
        return properties.run_property_suite(seed=seed, instances=instances)
    tr.count("properties.instances", len(PROPERTY_CHECKS) * instances)
    with tr.span("properties.suite"):
        suite = properties.run_property_suite(seed=seed, instances=instances)
    checks = []
    for index, name in enumerate(PROPERTY_CHECKS):
        with tr.span(f"properties.{name}"):
            checks.append(getattr(properties, f"check_{name}")(seed * 7919 + index, instances, 1e-10))
    return suite + checks


def check_property_batch(outcomes) -> None:
    names = [o.name for o in outcomes]
    expect(names in (list(PROPERTY_CHECKS), 2 * list(PROPERTY_CHECKS)), "property suite: check names")
    for o in outcomes:
        expect(o.passed, f"property {o.name} failed {o.failures} of {o.instances} instances")


# ---------------------------------------------------------------------------
# analysis_large
# ---------------------------------------------------------------------------


class AnalysisLarge(Workload):
    name = "analysis_large"

    def __init__(self, *args):
        super().__init__(*args)
        s, rng = self.size, self.rng
        n = s["large"]
        self.large = [self.float_joint(n, n, 0.0) for _ in range(s["large_count"])]
        self.large_zeros = self.float_joint(n, n, s["large_zero_prob"])
        self.mid = self.float_joint(s["mid"], s["mid"], 0.0)
        self.twin = self.exact_joint(s["twin"], s["twin"], 0.0)
        self.twin_float = _floats(*self.twin)
        self.exact_mid = self.exact_joint(s["twin"], s["twin"], 0.0)
        self.exact_small = self.exact_joint(s["exact_small"], s["exact_small"], 0.0)
        n = s["exact_large"]
        self.exact_large = [self.exact_joint(n, n, 0.0) for _ in range(s["exact_large_count"])]
        # The seed permutes the prior and picks the level; the sizes of the rationals,
        # and so the cost of exact arithmetic, are the same for every seed.
        self.rr = []
        for n in s["rr_n"]:
            r = Fraction(rng.choice([k for k in range(11, 40) if math.gcd(k, 10) == 1]), 10)
            self.rr.append((n, r, self.ranked_prior(n)))
        self.ext = []
        for n in s["ext_n"]:
            t = n * (n + 1) // 2  # p_min = 1 / t: the level must stay below log t / (t - 1)
            j = rng.choice([j for j in (1, 3, 7, 9) if math.gcd(j, t - 1) == 1])
            self.ext.append((self.ranked_prior(n), 1 + Fraction(j, 10 * (t - 1))))
        hi, b = round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(0.5, 2.0), 3)
        self.lap = (0.0, hi, b)
        self.lap_ys = [hi * (i + 0.5) / s["lap_grid"] for i in range(s["lap_grid"])]
        amp, sigma = round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(0.5, 2.0), 3)
        self.gauss = (amp, sigma)
        self.gauss_ys = [rng.uniform(-3.0, 3.0) for _ in range(s["gauss_grid"])]
        self.mc_ys = [rng.uniform(0.1, 0.9) * hi for _ in range(s["mc_points"])]
        self.beta = rng.uniform(0.5, 2.0)
        self.mc_seed, self.tail_seed = rng.randrange(10**6), rng.randrange(10**6)

    def ranked_prior(self, n: int) -> tuple:
        """The weights ``1, ..., n`` over their sum, in a seeded order."""
        weights = list(range(1, n + 1))
        self.rng.shuffle(weights)
        return tuple(Fraction(w, n * (n + 1) // 2) for w in weights)

    def family_task(self, label: str, members: list) -> Task:
        """Constructed exact mechanisms of one family, each analyzed in full and held to its
        closed form; ``members`` holds ``(key, prior, ref_rows, build, closed_form, want)``."""

        def run():
            out = []
            for _, prior, _, build, _, _ in members:
                with self.tr.span("mechanisms.construct"):
                    channel = build()
                out.append(Analysis(self.tr, prior, channel.rows))
            return out

        def check(analyses) -> None:
            expect(len(analyses) == len(members), f"{label}: {len(analyses)} analyses")
            for (key, prior, ref_rows, _, closed_form, want), analysis in zip(members, analyses):
                analysis.check(self.expected_levels(key, prior, ref_rows), True, key)
                closed = closed_form()
                expect(analysis.levels["pmc"].eps == closed, f"{key}: level differs from the closed form")
                expect(closed.ratio == want, f"{key}: closed form {closed.ratio!r}, expected {want!r}")

        return Task(label, "exact", run, check)

    def rotation(self, index: int) -> list:
        tr, s = self.tr, self.size
        tasks = [self.analysis_task(f"float_large{i}", *joint) for i, joint in enumerate(self.large)]
        tasks += [self.analysis_task(f"exact_large{i}", *joint) for i, joint in enumerate(self.exact_large)]
        tasks += [
            self.analysis_task("exact_twin", *self.twin),
            self.analysis_task("exact_mid", *self.exact_mid),
            self.analysis_task("exact_small", *self.exact_small),
            self.analysis_task("float_large_zeros", *self.large_zeros),
            self.analysis_task("float_twin", *self.twin_float, exact_source=self.twin),
            self.analysis_task("float_mid", *self.mid),
        ]
        rr = []
        for i, (n, r, prior) in enumerate(self.rr):
            level = ExtReal.from_ratio(r)
            rr.append((
                f"exact_rr{n}_{i}", prior, ref.rr_rows(n, r),
                lambda n=n, level=level: mechanisms.randomized_response(n, level),
                lambda n=n, level=level, prior=prior: mechanisms.randomized_response_pmc(n, level, Pmf(prior)),
                ref.rr_pmc(n, r, prior)))
        ext = []
        for i, (prior, r) in enumerate(self.ext):
            level = ExtReal.from_ratio(r)
            ext.append((
                f"exact_extremal{len(prior)}_{i}", prior, ref.extremal_rows(prior, r),
                lambda prior=prior, level=level: mechanisms.extremal_mechanism(Pmf(prior), level),
                lambda prior=prior, level=level: mechanisms.extremal_mechanism_pmc(Pmf(prior), level),
                ref.extremal_pmc(prior, r)))
        tasks += [self.family_task("exact_rr", rr), self.family_task("exact_extremal", ext)]
        lo, hi, b = self.lap
        amp, sigma = self.gauss

        def quadrature():
            with tr.span("mechanisms.construct"):
                lap = mechanisms.LaplaceMeanMechanism(lo, hi, n=1, b=b)
                gauss = mechanisms.GaussianPerturbMechanism(amp, sigma)
            tr.count("mechanisms.quadrature.calls", len(self.lap_ys) + len(self.gauss_ys))
            with tr.span("mechanisms.quadrature"):
                lap_values = [lap.pmc_at(y) for y in self.lap_ys]
                gauss_values = [gauss.pmc_at(y) for y in self.gauss_ys]
            laplace = (lap.sup_pmc(), lap.pmc_at(hi + 1.0), lap_values)
            return laplace, ([gauss.pmc_bounds(y) for y in self.gauss_ys], gauss_values)

        def check_quadrature(result) -> None:
            (sup, plateau, values), gaussian = result
            w = (hi - lo) / b
            expect_close(sup, math.log(math.expm1(w) / w), "laplace sup_pmc")
            expect_close(plateau, sup, "laplace plateau pmc_at vs sup_pmc", rel=1e-12)
            expect(all(0 <= v <= sup + 1e-9 for v in values), "laplace interior value outside [0, sup]")
            for y, (lo_b, hi_b), v in zip(self.gauss_ys, *gaussian):
                expect_close(lo_b, amp * abs(y) / sigma**2, "gaussian lower bound")
                expect_close(hi_b, amp * (amp + 4 * abs(y)) / (2 * sigma**2), "gaussian upper bound")
                expect(lo_b - 1e-9 <= v <= hi_b + 1e-9, f"gaussian pmc_at({y!r}) = {v!r} outside bounds")

        def laplace_montecarlo():
            with tr.span("mechanisms.construct"):
                mech = mechanisms.LaplaceMeanMechanism(lo, hi, n=3, b=b)
            tr.count("mechanisms.montecarlo.samples", 3 * s["mc_samples"] * len(self.mc_ys))
            with tr.span("mechanisms.montecarlo"):
                values = [mech.pmc_at(y, seed=self.mc_seed, mc_samples=s["mc_samples"]) for y in self.mc_ys]
            return mech.sup_pmc(), mech.pmc_at(lo - 1.0), values

        def check_montecarlo(result) -> None:
            sup, plateau, values = result
            w = (hi - lo) / (3 * b)
            expect_close(sup, math.log(math.expm1(w) / w), "laplace n=3 sup_pmc")
            expect_close(plateau, sup, "laplace n=3 plateau pmc_at vs sup_pmc", rel=1e-12)
            for value in values:
                expect(-0.05 <= value <= sup + 0.05, f"laplace Monte Carlo value {value!r} outside [0, {sup!r}]")

        def gaussian_tail():
            with tr.span("mechanisms.construct"):
                mech = mechanisms.GaussianPerturbMechanism(amp, sigma)
            tr.count("mechanisms.tail.samples", s["tail_samples"])
            with tr.span("mechanisms.tail"):
                freq, err = mech.tail_frequency(self.beta, n_samples=s["tail_samples"], seed=self.tail_seed)
            return freq, err, mech.tail_bound(self.beta)

        def check_tail(result) -> None:
            freq, err, bound = result
            r = (amp / sigma) ** 2
            expect_close(bound, min(1.0, 2.0 * math.exp(-(self.beta**2) / (8.0 * (r * r + r)))), "tail bound")
            expect(0 <= freq <= bound + 3 * err, f"tail frequency {freq!r} above bound {bound!r} + 3 se")

        tasks += [
            Task("quadrature", "float", quadrature, check_quadrature),
            Task("laplace_montecarlo", "float", laplace_montecarlo, check_montecarlo),
            Task("gaussian_tail", "float", gaussian_tail, check_tail),
        ]
        return tasks


# ---------------------------------------------------------------------------
# oracle_certify
# ---------------------------------------------------------------------------


class OracleCertify(Workload):
    name = "oracle_certify"

    def __init__(self, *args):
        super().__init__(*args)
        s, rng = self.size, self.rng
        self.cases = []
        for shape, res in (((3, 3), s["ex33_res"]), ((2, 3), s["ex23_res"]), ((4, 3), s["s43_res"])):
            prior, rows = self.exact_joint(*shape, 0.0)
            self.cases.append((f"{shape[0]}x{shape[1]}r{res}", prior, rows, res, rng.randrange(shape[1])))
        self.search_seed = rng.randrange(10**6)

    def expected_closed(self, prior, rows, y: int):
        """Reference PMC ratio of outcome ``y``; a fault run doubles it."""
        closed = ref.finite_levels(prior, rows)["per_y"][y][0]
        return closed * 2 if self.fault else closed

    def expected_grid(self, key: str, prior, post, u_sizes, resolution: int, guesswork=False):
        """Reference best value over the exhaustive part of the lattice, computed on first use."""
        if key not in self._refs:
            self._refs[key] = ref.lattice_max(prior, post, resolution, u_sizes, guesswork)
        return self._refs[key]

    def certify_task(self, label: str, prior, rows, resolution: int, y: int, exact: bool) -> Task:
        tr = self.tr
        exact_prior, exact_rows = prior, rows
        if not exact:
            prior, rows = _floats(prior, rows)
        cfg = oracles.SearchConfig(resolution=resolution, seed=self.search_seed)
        b = "exact" if exact else "float"

        def run():
            with tr.span(f"probcore.joint_build.{b}"):
                joint = Joint.from_prior_channel(Pmf(prior), Channel(rows))
            count_kernels(tr, b, len(prior), cfg)
            with tr.span(f"oracles.certify.{b}"):
                return oracles.certify_pmc(joint, y, cfg)

        def check(cert) -> None:
            exhaustive = ref.exhaustive_sizes(len(prior), cfg.max_u)
            post = ref.posterior(exact_prior, exact_rows, y)
            grid = self.expected_grid(label, exact_prior, post, exhaustive, resolution)
            closed = self.expected_closed(exact_prior, exact_rows, y)
            _compare(cert.closed_form, closed, exact, f"{label} closed form")
            expect(cert.dominance_ok, f"{label}: oracle value exceeds the closed form")
            witness = [[Fraction(e) for e in row] for row in cert.witness.rows]
            value = ref.guess_ratio(exact_prior, post, witness)
            _compare(cert.oracle_value, value, exact, f"{label} witness value")
            if len(exhaustive) == cfg.max_u - 1:
                _compare(cert.oracle_value, grid, exact, f"{label} exhaustive grid value")
            elif exact:
                expect(cert.oracle_value.ratio >= grid, f"{label}: below the exhaustive sub-grid")
            else:
                expect(cert.oracle_value.nats >= ref.nats(grid) - 1e-9, f"{label}: below the exhaustive sub-grid")

        return Task(f"{b}_{label}", b, run, check)

    def rotation(self, index: int) -> list:
        tr, s = self.tr, self.size
        tasks = []
        for label, prior, rows, res, y in self.cases:
            tasks.append(self.certify_task(label, prior, rows, res, y, exact=False))
            tasks.append(self.certify_task(label, prior, rows, res, y, exact=True))
        witnesses = [c for c in self.cases if c[0].startswith(("3x3", "4x3"))]

        def achieving():
            out = []
            for label, prior, rows, res, y in witnesses:
                joint = Joint.from_prior_channel(Pmf(prior), Channel(rows))
                with tr.span("oracles.achieving"):
                    kernel = oracles.achieving_kernel(joint, y)
                out.append((joint, y, kernel))
            return out

        def check_achieving(result) -> None:
            for (label, prior, rows, res, y), (joint, _, kernel) in zip(witnesses, result):
                expect(oracles.randomized_function_leakage(joint, y, kernel) == leakage.pmc(joint, y),
                       f"achieving kernel {label} misses pmc")
                post = ref.posterior(prior, rows, y)
                expect(ref.guess_ratio(prior, post, kernel.rows) == self.expected_closed(prior, rows, y),
                       f"achieving kernel {label}: reference value differs from pmc")

        label, prior, rows, _, y = self.cases[0]
        gw_cfg = oracles.SearchConfig(resolution=s["gw_res"])

        def guesswork():
            joint = Joint.from_prior_channel(Pmf(prior), Channel(rows))
            with tr.span("oracles.guesswork"):
                return oracles.brute_force_guesswork_leakage(joint, y, gw_cfg)

        def check_guesswork(value) -> None:
            post = ref.posterior(prior, rows, y)
            best = self.expected_grid("guesswork", prior, post, ref.exhaustive_sizes(3, gw_cfg.max_u),
                                      s["gw_res"], guesswork=True)
            expect(value.ratio == best, f"guesswork grid value {value.ratio!r}, expected {best!r}")
            expect(value.ratio <= self.expected_closed(prior, rows, y), "guesswork leakage exceeds pmc")

        tasks.append(Task("exact_achieving", "exact", achieving, check_achieving))
        tasks.append(Task("exact_guesswork", "exact", guesswork, check_guesswork))
        return tasks


WORKLOADS = {w.name: w for w in (AnalysisLarge, OracleCertify)}
