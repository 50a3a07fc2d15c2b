"""The host's speed during a run, read from fixed work that does not touch ``infodens``.

The host's speed drifts by tens of percent between runs a minute apart, more
than the bounds, and pure-Python code drifts more than numpy code.  So each
run also times two fixed pieces of benchmark-owned work, interleaved with its
tasks:

* :func:`work`, before every in-process task -- Fraction arithmetic, a Python
  float loop and numpy array operations in about equal parts;
* :func:`probe`, before every few CLI invocations and every set-up -- a fresh
  interpreter importing what ``infodens`` imports (numpy, scipy.integrate,
  scipy.special), which is most of the work a CLI invocation does.  A probe
  that imports numpy alone does not track the CLI.

An in-process timing is multiplied by ``REFERENCE_WORK_S / median(work)``
over the ``work`` readings of the task and its ``WORK_WINDOW`` neighbours on
each side; a CLI timing by ``REFERENCE_PROBE_S / median(probe)`` over the
probe before it and its ``PROBE_WINDOW`` neighbours; each set-up by
``REFERENCE_PROBE_S`` over the probe just before it, before the median over
the set-ups is taken.  The results are seconds at the speed at which the host
runs the calibrations in the reference times.  The speed also drifts within a
run, so a local median tracks it better than one over the run, and a single
``work`` reading is too noisy to use alone.  A change to ``infodens`` moves
the reported times and leaves the calibrations alone; a drift of the host
moves both and cancels.
"""

from __future__ import annotations

import gc
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

#: Seconds :func:`work` and :func:`probe` take at the reference speed (about
#: their medians on a 2-vCPU Xeon VM, Python 3.11).
REFERENCE_WORK_S = 0.0065
REFERENCE_PROBE_S = 0.68
#: Neighbouring readings on each side that scale a timing with the reading next to it.
WORK_WINDOW = 2
PROBE_WINDOW = 1
PROBE = (sys.executable, "-c", "import numpy, scipy.integrate, scipy.special")

_FRACTIONS = [Fraction(i % 13 + 1, i % 17 + 3) for i in range(1, 400)]
_FLOATS = [i / 7.0 + 0.5 for i in range(1, 13_000)]
_ARRAY = np.random.default_rng(5).random(180_000)


def _work() -> None:
    x = Fraction(0)
    for a in _FRACTIONS:
        x += a * Fraction(3, 7)
    s = 0.0
    for a in _FLOATS:
        s += math.log(a) * a
    float(np.log1p(_ARRAY).sum() + np.sort(_ARRAY)[::7].sum())


def work() -> float:
    """Seconds the in-process calibration takes now (garbage collection off, so
    the size of the program's heap does not enter)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probe(env: dict, timeout: float = 60) -> float:
    """Seconds a fresh interpreter takes now to start and import ``infodens``'s dependencies."""
    start = time.perf_counter()
    subprocess.run(PROBE, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=timeout, check=True)
    return time.perf_counter() - start


def scale(readings: list, reference: float) -> float:
    """The factor that turns this run's seconds into seconds at the reference speed."""
    return reference / statistics.median(readings)


def local_scales(readings: list, reference: float, window: int) -> list:
    """Per reading, the factor for the timings measured next to it: ``scale`` over
    the reading and its ``window`` neighbours on each side."""
    return [scale(readings[max(0, i - window):i + window + 1], reference) for i in range(len(readings))]
