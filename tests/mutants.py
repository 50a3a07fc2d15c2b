"""Mutation checks: one-place edits of the source that the listed tests must catch.

Run from anywhere, with the test extras installed::

    python tests/mutants.py             # every entry
    python tests/mutants.py NAME ...    # only the named entries

For each entry the runner copies the tree to a temporary directory, checks that
the old text occurs exactly once in its file, runs the listed tests on the
unmutated copy (they must pass), applies the edit and runs them again: at least
one must fail.  pytest runs inside the copy with the copy's ``src`` first on the
path, so the tests import the mutant, never the working tree.  It exits 1 when
an entry does not hold.  pytest does not collect this file (it is not named
``test_*.py``).

The table only grows.  When a change makes an entry survive, add a test that
kills it, or delete the entry together with the code it mutates and say why.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
_COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_work")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple


PROBCORE, ORACLES, BOUNDS = "src/infodens/probcore.py", "src/infodens/oracles.py", "src/infodens/bounds.py"
LEAKAGE, MECHANISMS = "src/infodens/leakage.py", "src/infodens/mechanisms.py"
DOCUMENTS, ERRORS = "src/infodens/documents.py", "tests/test_input_errors.py::"
VALUES = "tests/test_value_classes.py::"
REDUCTION = "tests/test_leakage.py::TestIntegerReduction::test_exact_and_mixed_joints_match_the_references"
TEST_PROBCORE, BATCHED = "tests/test_probcore.py", "tests/test_oracles.py::TestBatchedGridSearch::"
INGEST = TEST_PROBCORE + "::TestOnePassIngestion::"

MUTANTS = (
    # Oracles and translations.
    Mutant("exact-merge-keeps-last-tie", ORACLES,
           "if best is None or a[k] * best[1] > best[0] * b[k]:",
           "if best is None or a[k] * best[1] >= best[0] * b[k]:",
           (BATCHED + "test_block_size_does_not_change_the_certificate",)),
    Mutant("dominance-slack-1e-6", ORACLES,
           "return self.oracle_value.nats <= self.closed_form.nats + 1e-9",
           "return self.oracle_value.nats <= self.closed_form.nats + 1e-6",
           ("tests/test_oracles.py::TestBruteForce::test_float_dominance_slack_is_under_1e_8_nats",)),
    Mutant("exact-gather-reads-next-plane", ORACLES,
           "buf[j::size] = column.translate(plane)", "buf[j::size] = column.translate(planes[(j + 1) % size])",
           ("tests/test_oracles.py::TestBruteForce::test_exact_certificates_are_tight",)),
    Mutant("float-push-right-to-left", ORACLES,
           "    acc = weights[0] * lattice.take(columns[0], axis=0)\n    for x in range(1, len(weights)):",
           "    acc = weights[-1] * lattice.take(columns[-1], axis=0)\n    for x in range(len(weights) - 2, -1, -1):",
           (BATCHED + "test_stacked_weightings_match_separate_pushes", BATCHED + "test_matches_per_kernel_definition")),
    Mutant("float-lattice-not-spread", ORACLES,
           "if list(rows) != list(range(len(rows))):", "if False:",
           (BATCHED + "test_matches_per_kernel_definition",)),
    Mutant("float-scan-reports-posterior-first", ORACLES,
           "k, x = divmod(int(np.argmax(raw.T < -1e-9)), 2)",
           "k, x = divmod(int(np.argmax(raw[::-1].T < -1e-9)), 2)\n            x = 1 - x",
           (BATCHED + "test_masses_above_one_raise_for_the_first_kernel",)),
    Mutant("lattice-without-one-column-case", ORACLES,
           "    if n_cols == 1:\n        return [(den,)]", "    if n_cols == 0:\n        return [(den,)]",
           ("tests/test_oracles.py::TestLatticeUnranking::test_lattice_rows_are_the_product_rows_summing_to_the_denominator",)),
    Mutant("lattice-reversed", ORACLES,
           "map(den.__sub__, sums[-1])))", "map(den.__sub__, sums[-1])))[::-1]",
           (BATCHED + "test_matches_per_kernel_definition",)),
    Mutant("chunk-heads-swapped", ORACLES,
           "rows[x :: n_x - 1] for x in range(n_x - 1)", "rows[x :: n_x - 1] for x in reversed(range(n_x - 1))",
           (BATCHED + "test_matches_per_kernel_definition",)),
    Mutant("chunk-pulls-two-groups", ORACLES,
           "itertools.islice(groups, max(1, _BLOCK // n_rows))", "itertools.islice(groups, 2)",
           ("tests/test_oracles.py::TestKernelStreams::test_exhaustive_streams_keep_their_pins[3x3-res5]",)),
    Mutant("exact-dominance-with-slack", ORACLES,
           "return self.oracle_value <= self.closed_form", "return self.oracle_value.nats <= self.closed_form.nats + 1e-9",
           ("tests/test_oracles.py::TestBruteForce::test_exact_dominance_has_no_slack",)),
    Mutant("pml-to-pmc-finite-at-one", BOUNDS,
           "    if t >= 1:\n        return INF\n    return ExtReal.from_ratio(p / (1 - t))",
           "    if t > 1:\n        return INF\n    return ExtReal.from_ratio(p / (1 - t))",
           ("tests/test_bounds.py::TestPmlToPmc::test_boundary_is_infinite",)),
    # Entry checks.
    Mutant("row-tolerance-1e-9", PROBCORE,
           "ROW_SUM_TOL = 1e-12", "ROW_SUM_TOL = 1e-9",
           (INGEST + "test_row_matches_per_entry_path",)),
    Mutant("early-return-takes-nan", PROBCORE,
           "if type(value) is Fraction or type(value) is float and math.isfinite(value):",
           "if type(value) is Fraction or type(value) is float:",
           (TEST_PROBCORE + "::TestPmf::test_rejects_nan_and_inf",)),
    # The one table of an all-float or all-Fraction matrix.
    Mutant("table-takes-any-first-entry", PROBCORE,
           "(kind := type(raw[0][0])) not in (float, Fraction)",
           "(kind := type(raw[0][0])) is None",
           (INGEST + "test_a_matrix_pays_at_most_one_type_pass",)),
    Mutant("table-skips-empty-row-guard", PROBCORE,
           "if (not width or (kind", "if ((kind",
           (INGEST + "test_row_matches_per_entry_path",)),
    Mutant("table-skips-width-check", PROBCORE,
           " or any(len(r) != width for r in raw)", "",
           (TEST_PROBCORE + "::TestChannel::test_ragged_rows_rejected",)),
    Mutant("table-skips-type-pass", PROBCORE,
           "\n            or set(map(type, chain.from_iterable(raw))) != {kind}):", "):",
           (INGEST + "test_row_matches_per_entry_path",)),
    Mutant("exact-table-skips-sign-check", PROBCORE,
           "if min(map(min, ints)) < 0 or any(", "if any(",
           (INGEST + "test_negative_fraction_summing_to_one_is_named",)),
    Mutant("exact-table-takes-sums-above-one", PROBCORE,
           "any(sum(r) != scale for r in ints)", "any(sum(r) < scale for r in ints)",
           ("tests/test_cli.py::TestMalformedDocuments::test_long_row_sum_is_shown_short",)),
    Mutant("row-loop-integer-form-beside-a-float", PROBCORE,
           "if not any(isinstance(e, float) for r in rows for e in r):",
           "if not all(isinstance(e, float) for r in rows for e in r):",
           (INGEST + "test_subclass_and_mixed_rows_keep_their_values_and_types",)),
    Mutant("exact-table-scale-one", PROBCORE,
           '"_int_columns": (list(zip(*ints)), scale)}', '"_int_columns": (list(zip(*ints)), 1)}',
           (TEST_PROBCORE + "::TestJoint::test_marginal_matches_summation_oracle",)),
    Mutant("float-table-catches-only-overflow", PROBCORE,
           "        totals = list(map(math.fsum, raw))\n    except (OverflowError, ValueError):",
           "        totals = list(map(math.fsum, raw))\n    except OverflowError:",
           (INGEST + "test_row_matches_per_entry_path",)),
    Mutant("float-table-one-sided-tolerance", PROBCORE,
           "if not all(abs(t - 1) <= ROW_SUM_TOL for t in totals):",
           "if not all(t - 1 <= ROW_SUM_TOL for t in totals):",
           (TEST_PROBCORE + "::TestChannel::test_row_out_of_tolerance_rejected",)),
    Mutant("float-table-tolerance-1e-9", PROBCORE,
           "if not all(abs(t - 1) <= ROW_SUM_TOL for t in totals):",
           "if not all(abs(t - 1) <= 1e-9 for t in totals):",
           (INGEST + "test_row_matches_per_entry_path",)),
    Mutant("float-table-skips-renormalisation", PROBCORE,
           "rows = tuple(r if t == 1 else tuple(e / t for e in r) for r, t in zip(raw, totals))",
           "rows = raw",
           (TEST_PROBCORE + "::TestChannel::test_row_within_tolerance_renormalized",)),
    Mutant("float-table-minima-of-raw-rows", PROBCORE,
           "lows = list(map(min, cols := tuple(zip(*rows))))",
           "lows, cols = list(map(min, zip(*raw))), tuple(zip(*rows))",
           (INGEST + "test_seeded_float_joints",)),
    Mutant("float-table-maxima-for-minima", PROBCORE,
           "lows = list(map(min, cols := tuple(zip(*rows))))",
           "lows = list(map(max, cols := tuple(zip(*rows))))",
           (TEST_PROBCORE + "::TestChannel::test_negative_entry_rejected",)),
    Mutant("float-table-skips-sign-check", PROBCORE,
           '"_float_lows": lows} if min(lows) >= 0 else None',
           '"_float_lows": lows}',
           (TEST_PROBCORE + "::TestChannel::test_negative_entry_rejected",)),
    Mutant("float-table-rejects-zero-columns", PROBCORE,
           '"_float_lows": lows} if min(lows) >= 0 else None',
           '"_float_lows": lows} if min(lows) > 0 else None',
           (INGEST + "test_seeded_float_joints",)),
    # What the channel reads from its tables.
    Mutant("column-stats-minima-for-maxima", PROBCORE,
           "list(map(max, self.columns)), 1", "list(map(min, self.columns)), 1",
           (INGEST + "test_seeded_float_joints",)),
    Mutant("float-column-sums-by-sum", PROBCORE,
           "return tuple(math.fsum(map(operator.mul, weights, col)) for col in self.columns)",
           "return tuple(sum(map(operator.mul, weights, col)) for col in self.columns)",
           (INGEST + "test_seeded_float_joints",)),
    Mutant("then-chains-the-wrong-way-round", PROBCORE,
           "return Channel(tuple(other._column_sums(r) for r in self.rows))",
           "return Channel(tuple(self._column_sums(r) for r in other.rows))",
           (TEST_PROBCORE + "::TestChannel::test_composition_shapes",)),
    Mutant("int-masses-factor-of-first-denominator", PROBCORE,
           "return [[n * factor[d] for n, d in r] for r in ratios], scale",
           "return [[n * factor[r[0][1]] for n, d in r] for r in ratios], scale",
           ("tests/test_leakage.py::TestIntegerPathMatchesEntryByEntry::test_exact_joints_identical_to_the_entry_reference",)),
    # The levels, read from the column ends: an exact joint's in its ints.
    Mutant("exact-pml-drops-prior-scale", PROBCORE,
           "[(ws * lo, ws * hi) for lo, hi in zip(lows, highs)]",
           "[(ws * lo, hi) for lo, hi in zip(lows, highs)]",
           (REDUCTION,)),
    Mutant("exact-ldp-cross-product-swapped", PROBCORE,
           "hi * bottom > top * lo if type(lo) is int", "hi * top > bottom * lo if type(lo) is int",
           (REDUCTION,)),
    Mutant("ldp-cross-multiplies-rounded-entries", PROBCORE,
           "else hi / lo > top / bottom", "else hi * bottom > top * lo",
           ("tests/test_leakage.py::TestColumnReductionMatchesDefinitions::test_ldp_edge_columns_match_the_reference",)),
    Mutant("exact-worst-pmc-reads-zero-low-as-one", PROBCORE,
           "if masses[y] * lows[ys[c]] > masses[ys[c]] * lows[y]:",
           "if masses[y] * (lows[ys[c]] or 1) > masses[ys[c]] * (lows[y] or 1):",
           (REDUCTION,)),
    Mutant("exact-worst-pml-takes-the-least", PROBCORE,
           "if highs[y] * masses[ys[l]] > highs[ys[l]] * masses[y]:",
           "if highs[y] * masses[ys[l]] < highs[ys[l]] * masses[y]:",
           (REDUCTION,)),
    Mutant("exact-support-keeps-zero-mass", PROBCORE,
           "tuple(y for y, m in enumerate(ints) if m)", "tuple(y for y, m in enumerate(ints) if m >= 0)",
           (REDUCTION,)),
    Mutant("exact-max-cost-leakage-sums-highs", LEAKAGE,
           "lows, _, scale = joint.channel.column_ends", "_, lows, scale = joint.channel.column_ends",
           (REDUCTION,)),
    Mutant("max-cost-leakage-drops-the-scale", LEAKAGE,
           "return _pmc_level(scale, functools.reduce", "return _pmc_level(1, functools.reduce",
           (REDUCTION,)),
    Mutant("exact-level-fast-path-takes-zero", PROBCORE,
           "if type(ratio) is Fraction and ratio.numerator > 0:", "if type(ratio) is Fraction and ratio.numerator >= 0:",
           (TEST_PROBCORE + "::TestExtReal::test_rejects_bad_ratios",)),
    Mutant("exact-nats-quotient-past-the-normal-range", PROBCORE,
           "if -1021 <= n.bit_length() - d.bit_length() <= 1022:", "if -1100 <= n.bit_length() - d.bit_length() <= 1100:",
           (TEST_PROBCORE + "::TestExtReal::test_exact_nats_beyond_the_float_range_are_within_one_ulp",)),
    Mutant("exact-nats-near-one-by-log", PROBCORE,
           "return math.log1p((n - d) / d)", "return math.log(n / d)",
           (TEST_PROBCORE + "::TestExtReal::test_exact_nats_are_rounded_from_the_exact_ratio[1+2^-80]",)),
    # The read-only values.
    Mutant("frozen-eq-without-class-check", PROBCORE,
           "return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented",
           "return self._key() == other._key()",
           (VALUES + "TestSubclassesAreOtherValues::test_channel_never_equals_a_randomized_function_with_the_same_rows",)),
    Mutant("frozen-hash-takes-non-compared-fields", PROBCORE,
           "return hash(self._key())", "return hash((*self._key(), *vars(self).values()))",
           (VALUES + "TestEveryValueClass::test_fresh_equal_instances_compare_and_hash_alike[Pmf]",)),
    Mutant("joint-compares-its-integer-masses", PROBCORE,
           '_compared = ("prior", "channel", "marginal", "support")',
           '_compared = ("prior", "channel", "marginal", "support", "_int_marginal")',
           (VALUES + "TestEqualityReadsTheComparedFieldsOnly::test_joint_with_and_without_cached_levels_and_integer_masses",)),
    Mutant("extreal-lt-reads-le", PROBCORE,
           "return self.ratio < other.ratio if", "return self.ratio <= other.ratio if",
           (VALUES + "TestExtRealOrder::test_order_reads_the_ratio_on_both_backends",)),
    Mutant("frozen-setattr-sets", PROBCORE,
           'raise AttributeError(f"{type(self).__qualname__} is read-only: cannot set or delete {name!r}")',
           "object.__setattr__(self, name, value)",
           (VALUES + "TestEveryValueClass::test_every_field_is_read_only[Joint]",)),
    Mutant("extremal-diagonal-by-another-operation", MECHANISMS,
           "(1 - r * (1 - w),)", "((1 - r) + r * w,)",
           ("tests/test_mechanisms.py::TestExtremalMechanism::test_entries_and_types_match_the_per_cell_formula[float]",)),
    # One copy of each rule.
    Mutant("doc-vector-names-the-next-entry", DOCUMENTS,
           'f"{what}[{i}]"', 'f"{what}[{i + 1}]"',
           (ERRORS + "test_documents[channel-entry]", ERRORS + "test_documents[prior-entry]")),
    Mutant("extremal-pmc-from-the-reverse-translation", MECHANISMS,
           "bounds.pml_to_pmc(eps_u, prior.p_min)", "bounds.pmc_to_pml(eps_u, prior.p_min)",
           ("tests/test_mechanisms.py::TestExtremalMechanism::test_closed_form_is_the_translation_bit_for_bit",)),
    Mutant("cost-minima-read-floats", ORACLES,
           "table = [[e if e == math.inf else Fraction(e) for e in row] for row in cost.table]",
           "table = [[e if e == math.inf else float(e) for e in row] for row in cost.table]",
           ("tests/test_oracles.py::TestExactCostMinima::test_float_joints_read_the_stored_floats_exactly",)),
    Mutant("rational-gap-as-a-difference", ORACLES,
           "gap = ExtReal(closed.ratio / best.ratio).nats", "gap = closed.nats - best.nats",
           ("tests/test_oracles.py::TestExactGaps::test_rational_gaps_are_one_log_of_the_exact_quotient",)),
    Mutant("sweep-cap-tenfold", BOUNDS,
           "if steps > _MAX_SWEEP_STEPS:", "if steps > 10 * _MAX_SWEEP_STEPS:",
           ("tests/test_bounds.py::TestSweepCurves::test_step_budget_is_checked_before_any_row",)),
    # Input checks.
    Mutant("bounded-law-takes-a-point", MECHANISMS,
           "if not (self.lo < self.hi):", "if not (self.lo <= self.hi):",
           (ERRORS + "test_mechanisms[law-ends]",)),
    Mutant("pmin-check-takes-bools", BOUNDS,
           "if isinstance(p_min, bool) or not isinstance(p_min, (int, float, Fraction)):",
           "if not isinstance(p_min, (int, float, Fraction)):",
           (ERRORS + "test_bounds",)),
    Mutant("eps-ratio-below-one-accepted", DOCUMENTS,
           "if ratio < 1:", "if ratio < 0:",
           (ERRORS + "test_documents[eps-ratio-below-one]",)),
    Mutant("cost-entries-take-nan", ORACLES,
           "if isinstance(e, float) and math.isnan(e):", "if False:",
           (ERRORS + "test_oracles[nan]",)),
)


def _run(tree: Path, *args: str) -> subprocess.CompletedProcess:
    # no bytecode cache: the mutated file must be compiled afresh, never read from the unmutated run's .pyc
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True, text=True)


def _pytest(tree: Path, tests: tuple, *flags: str) -> subprocess.CompletedProcess:
    return _run(tree, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags, *tests)


def check(mutant: Mutant) -> str | None:
    """None when the listed tests pass on the copy and catch the mutant, else what went wrong."""
    with tempfile.TemporaryDirectory(prefix="infodens-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_COPY_IGNORE)
        where = _run(tree, "-c", "import infodens; print(infodens.__file__)").stdout.strip()
        if not Path(where).resolve().is_relative_to(tree.resolve()):
            return f"the copy imports infodens from {where!r}"
        target = tree / mutant.path
        text = target.read_text(encoding="utf-8")
        if (count := text.count(mutant.old)) != 1:
            return f"the old text occurs {count} times in {mutant.path}"
        if (run := _pytest(tree, mutant.tests)).returncode:
            return "the listed tests fail unmutated:\n" + run.stdout[-3000:]
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        if (run := _pytest(tree, mutant.tests, "-x")).returncode == 0:
            return "survived: every listed test passes on the mutant"
        if run.returncode != 1:  # 1 is "tests failed"; anything else is a broken run, not a kill
            return f"pytest exited {run.returncode} on the mutant:\n" + (run.stdout + run.stderr)[-3000:]
    return None


def main(names: list) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    for mutant in chosen:
        start = time.monotonic()
        problem = check(mutant)
        bad += problem is not None
        print(f"{'killed' if problem is None else 'FAILED'}  {mutant.name}  ({time.monotonic() - start:.1f} s)", flush=True)
        if problem:
            print("    " + problem.replace("\n", "\n    "), flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
