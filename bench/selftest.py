"""Quick self-test of the benchmark at tiny sizes (about two minutes).

Run from the root of a checkout::

    python3 bench/selftest.py

For every workload it checks that a tiny untraced run and a tiny traced run
are correct and print exactly the metrics ``BENCHMARK.json`` declares, with
their units; that a run whose expected values are deliberately wrong reports
failures; and that the benchmark exits non-zero, printing no result, in a
directory that holds only ``BENCHMARK.json`` and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = ["bench/run.py", "--seconds", "1", "--size", "tiny"]


def require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *RUN, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result_line(proc) -> dict:
    require(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    require(type(result["attempted"]) is int and result["attempted"] >= 1 and type(result["failed"]) is int,
            "attempted/failed must be whole numbers, attempted at least 1")
    return result


def check_schema(result: dict, declared: list, positive: bool) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    require(set(got) == set(want), f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, entry in got.items():
        value = entry["value"]
        require(set(entry) == {"value", "unit"} and entry["unit"] == want[name],
                f"{name}: entry {entry}, unit should be {want[name]}")
        require(not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value),
                f"{name}: value {value!r} is not a finite number")
        require(not positive or value > 0, f"{name}: end-to-end value {value!r} must be positive")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def case(label, fn):
        try:
            fn()
            print(f"PASS {label}", flush=True)
        except (AssertionError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
            failures.append(label)
            print(f"FAIL {label}: {exc}", flush=True)

    for w in (w["name"] for w in spec["workloads"]):
        def untraced(w=w):
            result = result_line(run(["--workload", w, "--seed", "7", "--trace", "0"]))
            require(result["correct"] and result["failed"] == 0, "tiny untraced run has failures")
            check_schema(result, spec["end_to_end"], positive=True)

        def traced(w=w):
            result = result_line(run(["--workload", w, "--seed", "7", "--trace", "1"]))
            require(result["correct"] and result["failed"] == 0, "tiny traced run has failures")
            check_schema(result, spec["per_layer"], positive=False)

        def fault(w=w):
            result = result_line(run(["--workload", w, "--seed", "7", "--trace", "1", "--fault"]))
            require(result["failed"] > 0 and not result["correct"], "a wrong expected value went unnoticed")

        case(f"{w} untraced", untraced)
        case(f"{w} traced", traced)
        case(f"{w} wrong expected value is caught", fault)

    bare = ROOT / ".bench_work" / "selftest-bare"

    def without_package():
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1", "--trace", "0"], cwd=bare)
        require(proc.returncode != 0, "exit code 0 without the package")
        require('"metrics"' not in proc.stdout, "printed a result without the package")

    try:
        case("no package: non-zero exit, no result", without_package)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print("selftest:", "FAILED " + ", ".join(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
