"""One benchmark process: set up a workload, then time, check or trace its tasks.

Started by ``run.py`` from the root of a checkout, with ``src`` on
``PYTHONPATH``.  It prints ``READY`` once set-up is done (the launcher times
set-up up to that line), then, unless ``--mode setup``, one JSON line with
its measurements.  Tasks run one at a time in a closed loop with a single
client.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from importlib.metadata import version
from pathlib import Path

SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

import infodens  # noqa: E402
from infodens import bounds, cli, leakage, mechanisms, oracles, properties  # noqa: E402

import calibrate  # noqa: E402
import clitasks  # noqa: E402
from reference import CheckFailure  # noqa: E402
from spans import Tracer, backend, per_task_median  # noqa: E402
from workloads import (  # noqa: E402
    CLI_NOMINAL_S, INPUTS, NOMINAL_ROTATION_S, PROPERTY_CHECKS, SIZES, WHY, WORKLOADS, Task,
)

#: A run stops starting rotations after this many times ``--seconds``, so a
#: much slower build still ends within the time limit (with fewer samples).
DEADLINE_FACTOR = 2.0

#: A calibration probe runs before every this many CLI subprocesses.
PROBE_EVERY = 3

#: The layer functions ``cli.main`` calls through module attributes; wrapped
#: only while an in-process CLI invocation runs in a traced run.
CLI_PATCHES = (
    (mechanisms, "parse_mechanism_doc", "probcore.parse_doc"),
    (leakage, "all_guarantee_levels", lambda joint: f"leakage.levels.{backend(joint)}"),
    (leakage, "leakage_profile", "leakage.profile"),
    (leakage, "max_cost_leakage", "leakage.aggregates"),
    (leakage, "max_realizable_cost", "leakage.aggregates"),
    (bounds, "derive_implications", "bounds.derive"),
    (bounds, "sweep_curves", "bounds.sweep"),
    (bounds.CurveTable, "pml_to_pmc_csv", "bounds.csv"),
    (bounds.CurveTable, "pmc_to_pml_csv", "bounds.csv"),
    (oracles, "certify_pmc", lambda joint, *a, **k: f"oracles.certify.{backend(joint)}"),
    # Per-check spans exist only where the benchmark calls the checks itself (the census).
    (properties, "run_property_suite", "properties.suite"),
)


def cli_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def cli_task(inv: clitasks.Invocation, run) -> Task:
    return Task(inv.label, inv.backend, lambda: run(inv),
                lambda result: clitasks.check_result(inv, result), inv.subcommand)


class Runner:
    """Executes tasks one at a time and records ``(task, seconds, ok)`` samples.

    While ``calibrated``, each in-process task is preceded by a :func:`calibrate.work`
    reading, kept in ``work``; ``probes`` holds the :func:`calibrate.probe` readings.
    """

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.calibrated = False
        self.samples = []
        self.work = []
        self.probes = []
        self.failures = []
        self.bytes_written = 0
        self.cli_peak_kb = 0
        self.env = cli_env()

    def subprocess(self, inv):
        result = clitasks.run_subprocess(inv, self.env)
        self.cli_peak_kb = max(self.cli_peak_kb, result.peak_kb)
        return result

    def inprocess(self, inv):
        patches = self.tr.patched(CLI_PATCHES) if self.tr.enabled else nullcontext()
        with patches, self.tr.span("cli"):
            result = clitasks.run_inprocess(inv, cli.main)
        if self.tr.enabled:
            self.bytes_written += clitasks.bytes_written(result)
        return result

    def execute(self, task: Task, task_id: str):
        self.tr.task = task_id
        if self.calibrated and task.subcommand is None:
            self.work.append(calibrate.work())
        start = time.perf_counter()
        try:
            result = task.run()
            error = None
        except Exception as exc:  # a crashing task is a failed task, not a crashed run
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if error is None:
            try:
                task.check(result)
            except CheckFailure as exc:
                error = f"check: {exc}"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{task.label}: {error}")
        self.samples.append((task, seconds, error is None))
        return seconds


def tail(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it: ``(value, percentile)``.

    With fewer than 20 samples that percentile lies below the median, so the
    median is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(samples: list, runner: Runner) -> tuple:
    """The end-to-end metrics from ``(task, seconds, ok)`` samples of an untraced run.

    Times are scaled to the reference speed by the run's calibration readings
    (see :mod:`calibrate`); the unscaled medians go to the report.  ``samples``,
    ``runner.work`` and ``runner.probes`` start together, so the in-process
    samples pair up in order with the ``work`` readings, and CLI invocation
    ``i`` with probe ``i // PROBE_EVERY``.
    ``task_s.*`` and ``tasks_per_s`` cover the in-process tasks, ``cli*`` the
    CLI subprocesses, pooled over subcommands: the median of the three to five
    subprocesses of one subcommand spreads too much between runs to bound, so
    the per-subcommand medians are reported only.
    """
    in_process = [(t, s) for t, s, _ in samples if t.subcommand is None]
    cli_runs = [(t, s) for t, s, _ in samples if t.subcommand is not None]
    task_k = calibrate.local_scales(runner.work, calibrate.REFERENCE_WORK_S, calibrate.WORK_WINDOW)
    probe_k = calibrate.local_scales(runner.probes, calibrate.REFERENCE_PROBE_S, calibrate.PROBE_WINDOW)
    task_samples = [(t, s * k) for (t, s), k in zip(in_process, task_k, strict=True)]
    cli_samples = [(t, s * probe_k[i // PROBE_EVERY]) for i, (t, s) in enumerate(cli_runs)]
    metrics, detail = {}, {}
    detail["wall_s.p50"] = {"task": statistics.median(s for _, s in in_process),
                            "cli": statistics.median(s for _, s in cli_runs)}
    detail["calibration_s.p50"] = {"work": statistics.median(runner.work),
                                   "probe": statistics.median(runner.probes)}
    for b in ("float", "exact"):
        times = [s for t, s in task_samples if t.backend == b]
        value, pct = tail(times)
        metrics[f"task_s.{b}.p50"] = (statistics.median(times), "s")
        metrics[f"task_s.{b}.tail"] = (value, "s")
        detail[f"task_s.{b}.tail"] = {"percentile": pct, "samples": len(times)}
    metrics["tasks_per_s"] = (len(task_samples) / sum(s for _, s in task_samples), "1/s")
    labels = sorted({t.label for t, _ in task_samples})
    detail["task_s.by_label"] = {
        label: statistics.median(s for t, s in task_samples if t.label == label) for label in labels}
    metrics["cli_s.p50"] = (statistics.median(s for _, s in cli_samples), "s")
    for sub in ("analyze", "translate", "sweep", "oracle", "mechanism", "props"):
        times = [s for t, s in cli_samples if t.subcommand == sub]
        detail[f"cli.{sub}_s.p50"] = {"value": statistics.median(times), "samples": len(times)}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["cli.peak_rss_mb"] = (runner.cli_peak_kb / 1024.0, "MB")
    return metrics, detail


def per_layer(runner: Runner) -> dict:
    """The per-layer metrics of a traced run, from its spans and counters."""
    tr = runner.tr
    self_times, counts = tr.self_times(), tr.counts

    def total(name):
        return sum(counts.get(name, {}).values())

    def rate(count_name, *span_names):
        """A count over the time its spans took, in the tasks that recorded the count."""
        tasks = counts.get(count_name, {})
        busy = sum(end - start for name, start, end, _, task in tr.spans
                   if name in span_names and task in tasks)
        return total(count_name) / busy if busy else 0.0

    m = {}
    timed = [
        "cli", "probcore.joint_build.float", "probcore.joint_build.exact", "probcore.parse_doc",
        "leakage.levels.float", "leakage.levels.exact", "leakage.profile", "leakage.aggregates",
        "bounds.derive", "bounds.verify", "bounds.sweep", "bounds.csv",
        "oracles.certify.float", "oracles.certify.exact", "oracles.achieving", "oracles.guesswork",
        "properties.suite", *(f"properties.{c}" for c in PROPERTY_CHECKS),
        "mechanisms.construct", "mechanisms.quadrature", "mechanisms.montecarlo", "mechanisms.tail",
        "sampling",
    ]
    for name in timed:
        m[f"{name}.self_s"] = (per_task_median(self_times, name), "s")
    m["cli.bytes_written"] = (runner.bytes_written, "bytes")
    m["probcore.cells"] = (per_task_median(counts, "probcore.cells"), "count")
    m["leakage.cells_per_s"] = (rate("leakage.cells", "leakage.levels.float", "leakage.levels.exact"), "cells/s")
    m["oracles.kernels_visited"] = (per_task_median(counts, "oracles.kernels_visited"), "count")
    for b in ("float", "exact"):
        m[f"oracles.kernels_per_s.{b}"] = (rate(f"oracles.kernels.{b}", f"oracles.certify.{b}"), "kernels/s")
    visited = total("oracles.kernels_visited")
    m["oracles.exhaustive_share"] = (total("oracles.kernels_exhaustive") / visited if visited else 0.0, "ratio")
    m["properties.instances_per_s"] = (rate("properties.instances", "properties.suite"), "instances/s")
    m["mechanisms.quadrature.calls"] = (per_task_median(counts, "mechanisms.quadrature.calls"), "count")
    m["mechanisms.montecarlo.samples_per_s"] = (
        rate("mechanisms.montecarlo.samples", "mechanisms.montecarlo"), "samples/s")
    m["mechanisms.tail.samples_per_s"] = (rate("mechanisms.tail.samples", "mechanisms.tail"), "samples/s")
    return m


def rotation_count(args) -> int:
    task_seconds = args.seconds - CLI_NOMINAL_S
    return max(1, round(task_seconds / NOMINAL_ROTATION_S[args.workload]))


def run_rotation(workload, runner: Runner, index: int, tag: str) -> None:
    for j, task in enumerate(workload.rotation(index)):
        runner.execute(task, f"{tag}{index}.{j}")


def run_cli(runner: Runner, inv, index: int) -> None:
    if index % PROBE_EVERY == 0:
        runner.probes.append(calibrate.probe(runner.env))
    runner.execute(cli_task(inv, runner.subprocess), f"cli{index}")


def measure(args, workload, runner: Runner) -> tuple:
    """Untraced rotations, with the CLI subprocesses spread evenly between them."""
    runner.calibrated = True
    rotations = rotation_count(args)
    deadline = time.perf_counter() + DEADLINE_FACTOR * args.seconds
    invocations = workload.cli.rotation()
    report = {"rotations": rotations, "rotation_wall_s": []}
    first = len(runner.samples)
    done = 0
    for r in range(rotations):
        if r and time.perf_counter() > deadline:
            report["stopped_early_after"] = r
            break
        start = time.perf_counter()
        run_rotation(workload, runner, r, "r")
        report["rotation_wall_s"].append(time.perf_counter() - start)
        for inv in invocations[done:(r + 1) * len(invocations) // rotations]:
            run_cli(runner, inv, done)
            done += 1
    for inv in invocations[done:]:
        run_cli(runner, inv, done)
        done += 1
    metrics, detail = end_to_end(runner.samples[first:], runner)
    report.update(detail)
    return metrics, report


def trace(args, workload, runner: Runner) -> tuple:
    """The census and the CLI rotation in-process, then the same task rotations untraced and traced."""
    invocations = [cli_task(inv, runner.inprocess) for inv in workload.cli.rotation()]
    for i, task in enumerate(workload.census() + invocations):
        runner.execute(task, f"census{i}")
    traced = runner.tr
    runner.tr = workload.tr = Tracer(enabled=False)
    budget = time.perf_counter() + (args.seconds - CLI_NOMINAL_S) / 2
    first, rotations = len(runner.samples), 0
    while rotations == 0 or (time.perf_counter() < budget and rotations < rotation_count(args)):
        run_rotation(workload, runner, rotations, "u")
        rotations += 1
    untraced = runner.samples[first:]
    runner.tr = workload.tr = traced
    first = len(runner.samples)
    for r in range(rotations):
        run_rotation(workload, runner, r, "t")
    traced_samples = runner.samples[first:]

    def per_task(samples):
        return sum(s for _, s, _ in samples) / len(samples)

    metrics = per_layer(runner)
    metrics["trace.overhead_ratio"] = (per_task(traced_samples) / per_task(untraced), "ratio")
    return metrics, {"traced_rotations": rotations}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--fault", action="store_true")
    args = ap.parse_args(argv)

    if not Path(infodens.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"infodens imported from {infodens.__file__}, not from {SRC}\n")
        return 2
    tracer = Tracer(enabled=args.mode == "trace")
    runner = Runner(tracer)
    workload = WORKLOADS[args.workload](args.seed, args.size, tracer, Path(args.workdir), args.fault)
    if args.mode != "trace":
        for i, task in enumerate(workload.census()):  # warm-up: every layer once, at minimal size
            runner.execute(task, f"warmup{i}")
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    metrics, report = (measure if args.mode == "measure" else trace)(args, workload, runner)

    attempted = len(runner.samples)
    failed = sum(1 for _, _, ok in runner.samples if not ok)
    report.update(
        why=WHY[args.workload],
        inputs=INPUTS[args.workload].format(**SIZES[args.size]),
        ops_attempted=attempted,
        failed_ratio=failed / attempted,
        failures=runner.failures[:20],
        numpy=version("numpy"),
        scipy=version("scipy"),
    )
    out = {"attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
           "report": report}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
