"""Benchmark of the ``infodens`` package: one workload per run, checked and timed.

Usage, from the root of a checkout::

    python3 bench/run.py --workload analysis_large --seed 1 --seconds 40 --trace 0

Workloads: ``analysis_large`` (full analyses of large channels and the
continuous mechanisms) and ``oracle_certify`` (brute-force certification);
each run also spreads a fixed rotation of 22 ``infodens`` CLI subprocesses
over its measured time.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  The package
is used as a black box: it is imported from ``src`` of the checkout, or
launched as ``python -m infodens.cli``.

The next-to-last stdout line is a report (inputs, versions, hardware, git
commit, tail percentiles, failures); the last line is the result::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {"setup_s": {"value": 1.1, "unit": "s"}, ...}}

Every reported time is scaled to a reference speed of the host by
calibrations measured during the run (see ``calibrate.py``), because the
host's speed drifts by more than the bounds between runs; the unscaled medians
are in the report.  Set-up is timed from the start of each worker process
until it prints ``READY``, and scaled by the probe run just before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("analysis_large", "oracle_certify")
#: Set-up runs per measured run (the measured worker's own set-up is one); setup_s is their median.
SETUP_RUNS = 5
#: Workers still running this long after the run started are killed (a run must end within 180 s).
RUN_TIMEOUT_S = 170
IMPORT_RUNS = 3
_START = time.monotonic()


def _remaining() -> float:
    return max(1.0, RUN_TIMEOUT_S - (time.monotonic() - _START))


def run_worker(root: Path, args, mode: str, workdir: Path, extra=()) -> tuple:
    """Start a worker; return its set-up time (to ``READY``) and its parsed result line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--size", args.size, "--workdir", str(workdir), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(_remaining(), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {code} before finishing")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def import_layer(root: Path) -> dict:
    """Import costs from ``python -X importtime -c "import infodens"``, median of fresh runs."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    pattern = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import infodens"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=_remaining())
        if proc.returncode != 0:
            raise RuntimeError("import infodens failed")
        total = scipy_self = own_self = 0
        for line in proc.stderr.splitlines():
            m = pattern.match(line)
            if not m:
                continue
            self_us, cumulative_us, name = int(m[1]), int(m[2]), m[4]
            if name == "infodens":
                total = cumulative_us
            if name == "scipy" or name.startswith("scipy."):
                scipy_self += self_us
            if name == "infodens" or name.startswith("infodens."):
                own_self += self_us
        runs.append((total, scipy_self, own_self))
    names = ("import.infodens_s", "import.scipy_s", "import.infodens_self_s")
    return {n: {"value": statistics.median(r[i] for r in runs) / 1e6, "unit": "s"}
            for i, n in enumerate(names)}


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_commit(root: Path) -> str:
    """The checkout's commit; ``unknown`` outside a git repository (git does not look above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine() -> dict:
    model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model or platform.processor() or "unknown", "caches": caches}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="infodens benchmark; see the module docstring.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the self-test")
    ap.add_argument("--fault", action="store_true",
                    help="corrupt the expected values (the self-test shows the checks can fail)")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "infodens" / "__init__.py").is_file():
        sys.stderr.write(f"no infodens package under {root / 'src'}; run from the root of a checkout\n")
        return 2
    if args.seconds < 1:
        sys.stderr.write("--seconds must be at least 1\n")
        return 2

    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    extra = ["--fault"] if args.fault else []
    try:
        if args.trace:
            imports = import_layer(root)
            _, result = run_worker(root, args, "trace", workdir, extra)
            result["metrics"].update(imports)
        else:
            setups, probes = [], []
            for mode in ["setup"] * (SETUP_RUNS - 1) + ["measure"]:
                probes.append(calibrate.probe(os.environ, timeout=_remaining()))
                setup, result = run_worker(root, args, mode, workdir, extra)
                setups.append(setup)
            scaled = [setup * calibrate.REFERENCE_PROBE_S / probe for setup, probe in zip(setups, probes)]
            result["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
            result["report"].update({"setup_s.samples": setups, "setup_s.probe_s": probes})
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    report = result["report"]
    report.update(machine(), commit=git_commit(root), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, size=args.size, fault=args.fault,
                  closed_loop_clients=1)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
