"""Independent reference values for the benchmark's output checks.

Nothing here imports ``infodens``: every expected value is recomputed from
the definitions in PAPER.md, so a check compares the package against a
second implementation rather than against itself.  Levels are returned as
ratios (the exponential of the level in nats): a ``Fraction`` for exact
inputs, a float for float inputs, and ``math.inf`` for an infinite level.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class CheckFailure(Exception):
    """An output of the package disagrees with its reference."""


def nats(ratio) -> float:
    """Level in nats of a reference ratio."""
    if ratio == math.inf:
        return math.inf
    if isinstance(ratio, Fraction):
        return math.log(ratio.numerator) - math.log(ratio.denominator)
    return math.log(ratio)


def close(actual: float, expected: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    if expected == math.inf or actual == math.inf:
        return actual == expected
    return math.isclose(actual, expected, rel_tol=rel, abs_tol=abs_tol)


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailure(what)


def expect_close(actual, expected, what: str, rel: float = 1e-9) -> None:
    expect(close(actual, expected, rel), f"{what}: got {actual!r}, expected {expected!r}")


# ---------------------------------------------------------------------------
# Finite measures as column statistics
# ---------------------------------------------------------------------------


def finite_levels(prior, rows) -> dict:
    """Reference ratios of every finite measure of a prior and a channel.

    PMC at ``y`` is ``m_y / min_x P(y|x)``, PML is ``max_x P(y|x) / m_y``,
    LDP is the largest within-column ratio (infinite when a column mixes a
    zero with a positive entry), and maximal cost leakage is
    ``1 / sum_y min_x P(y|x)``.  Works for Fraction and float entries alike.
    """
    n_x = len(rows)
    cols = list(zip(*rows))
    per_y = {}
    ldp = 1 if n_x == 1 else 0
    min_total = 0
    for y, col in enumerate(cols):
        m = sum(p * c for p, c in zip(prior, col))
        lo, hi = min(col), max(col)
        min_total += lo
        if hi > 0 and n_x > 1:
            ldp = max(ldp, math.inf if lo == 0 else hi / lo)
        if m > 0:
            per_y[y] = (math.inf if lo == 0 else m / lo, hi / m)
    pmc = max(v[0] for v in per_y.values())
    pml = max(v[1] for v in per_y.values())
    return {
        "p_min": min(prior),
        "per_y": per_y,
        "pmc": pmc,
        "pml": pml,
        "lip": max(pmc, pml),
        "alip": (pmc, pml),
        "ldp": ldp,
        "max_cost_leakage": math.inf if min_total == 0 else 1 / min_total,
        "max_realizable_cost": pmc,
    }


def rr_pmc(n: int, r, prior) -> Fraction:
    """Worst-outcome cost ratio of n-ary randomized response: ``1 + max P (r - 1)``."""
    return 1 + max(prior) * (r - 1)


def rr_rows(n: int, r) -> tuple:
    denom = n - 1 + r
    return tuple(tuple(r / denom if i == j else 1 / denom for j in range(n)) for i in range(n))


def extremal_pmc(prior, r) -> Fraction:
    """Cost ratio of the extremal channel: ``p_min / (1 - r (1 - p_min))``."""
    p = min(prior)
    return p / (1 - r * (1 - p))


def extremal_rows(prior, r) -> tuple:
    n = len(prior)
    return tuple(
        tuple(1 - r * (1 - prior[i]) if i == j else r * prior[j] for j in range(n))
        for i in range(n)
    )


# ---------------------------------------------------------------------------
# Guarantee translations, in the ratio domain (exact for Fraction inputs)
# ---------------------------------------------------------------------------


def pml_to_pmc(r_u, p):
    """Cost ratio implied by a PML ratio: ``p / (1 - r_u (1 - p))``, infinite at or past the boundary."""
    if r_u == math.inf:
        return math.inf
    t = r_u * (1 - p)
    return math.inf if t >= 1 else p / (1 - t)


def pmc_to_pml(r_l, p):
    inv = 0 if r_l == math.inf else 1 / r_l
    return (1 - inv * (1 - p)) / p


def _times(a, b):
    return math.inf if math.inf in (a, b) else a * b


def implied(kind: str, p, r=None, r_l=None, r_u=None) -> list:
    """The implication closure as ``(kind, ratio)`` / ``("alip", (r_l, r_u))`` pairs."""
    if kind == "pml":
        lo = pml_to_pmc(r, p)
        return [("pmc", lo), ("alip", (lo, r)), ("lip", max(lo, r)), ("ldp", _times(lo, r))]
    if kind == "pmc":
        up = pmc_to_pml(r, p)
        return [("pml", up), ("alip", (r, up)), ("lip", max(r, up)), ("ldp", _times(r, up))]
    if kind == "ldp":
        e1, e2 = p + r * (1 - p), 1 / (p + (1 - p) / r)
        return [("lip", e1), ("alip", (e1, e2)), ("pml", e2), ("pmc", e1)]
    if kind == "lip":
        return [("alip", (r, r)), ("pml", r), ("pmc", r), ("ldp", r * r)]
    return [("pml", r_u), ("pmc", r_l), ("ldp", r_l * r_u)]


# ---------------------------------------------------------------------------
# Brute-force adversaries over the simplex lattice
# ---------------------------------------------------------------------------


def lattice_rows(u: int, resolution: int) -> list:
    den = resolution - 1
    return [
        tuple(Fraction(c, den) for c in comp)
        for comp in itertools.product(range(den + 1), repeat=u)
        if sum(comp) == den
    ]


def _push(weights, rows) -> list:
    return [sum(w * row[k] for w, row in zip(weights, rows)) for k in range(len(rows[0]))]


def guess_ratio(prior, post, rows):
    """Randomized-function leakage ratio of one kernel, from its definition."""
    err_p = 1 - max(_push(prior, rows))
    err_q = 1 - max(_push(post, rows))
    if err_q == 0:
        return 1 if err_p == 0 else math.inf
    return err_p / err_q


def _guesswork(masses) -> Fraction:
    return sum((i + 1) * m for i, m in enumerate(sorted(masses, reverse=True)))


def guesswork_ratio(prior, post, rows):
    return _guesswork(_push(prior, rows)) / _guesswork(_push(post, rows))


def _candidates(prior, post, rows, n_x: int, guesswork: bool) -> list:
    """Kernels (as row indices) whose float value is within 1e-9 of the best on the lattice."""
    import numpy as np  # imported here so the benchmark never pulls numpy into set-up itself

    rows_f = np.array(rows, dtype=float)
    idx = np.indices((len(rows_f),) * n_x).reshape(n_x, -1).T
    kernels = rows_f[idx]  # (K, n_x, u)
    pp = np.einsum("x,kxu->ku", np.asarray(prior, dtype=float), kernels)
    pq = np.einsum("x,kxu->ku", np.asarray(post, dtype=float), kernels)
    if guesswork:
        ranks = np.arange(1, pp.shape[1] + 1)
        gp = (-np.sort(-pp, axis=1) * ranks).sum(axis=1)
        gq = (-np.sort(-pq, axis=1) * ranks).sum(axis=1)
        vals = gp / gq
    else:
        ep = 1 - pp.max(axis=1)
        eq = 1 - pq.max(axis=1)
        vals = np.where(eq > 1e-12, ep / np.where(eq > 1e-12, eq, 1.0), 1.0)
    return idx[vals >= vals.max() * (1 - 1e-9)].tolist()


def lattice_max(prior, post, resolution: int, u_sizes, guesswork: bool = False):
    """Best value over every lattice kernel with a guess alphabet in ``u_sizes``.

    Float search finds the candidates; the winner is re-evaluated in the
    input's own arithmetic, so exact inputs give an exact Fraction.
    """
    if not guesswork and any(q == 0 for q in post):
        return math.inf
    evaluate = guesswork_ratio if guesswork else guess_ratio
    best = 1
    for u in u_sizes:
        rows = lattice_rows(u, resolution)
        for kernel in _candidates(prior, post, rows, len(prior), guesswork):
            best = max(best, evaluate(prior, post, [rows[i] for i in kernel]))
    return best


def exhaustive_sizes(n_x: int, max_u: int, exhaustive_limit: int = 9) -> list:
    return [u for u in range(2, max_u + 1) if n_x * u <= exhaustive_limit]


def kernels_visited(n_x: int, resolution: int, max_u: int, max_iterations: int = 2000,
                    exhaustive_limit: int = 9) -> tuple:
    """Computed kernel count of one grid search: ``(total, exhaustive part)``.

    Per guess alphabet ``u`` the search enumerates every lattice kernel while
    ``n_x * u`` stays within the exhaustive limit, and otherwise visits the
    deterministic vertex kernels plus ``max_iterations`` seeded samples.
    """
    total = exhaustive = 0
    for u in range(2, max_u + 1):
        if n_x * u <= exhaustive_limit:
            count = math.comb(resolution - 2 + u, u - 1) ** n_x
            exhaustive += count
        else:
            count = (u**n_x if u**n_x <= 4096 else 0) + max_iterations
        total += count
    return total, exhaustive


def posterior(prior, rows, y: int) -> tuple:
    joint = [p * row[y] for p, row in zip(prior, rows)]
    m = sum(joint)
    return tuple(j / m for j in joint)
