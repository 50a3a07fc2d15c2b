"""Brute-force adversary models that certify the closed-form leakage values.

Three independent routes to the pointwise maximal cost:

* the randomized-function model: an adversary guesses a randomized function
  of the secret and the leakage compares prior and posterior probabilities
  of guessing wrong;
* the cost-function model: the adversary picks an action minimizing a
  non-negative expected cost and the leakage compares prior and posterior
  minimal costs;
* the guesswork model: the adversary minimizes the expected number of
  sequential guesses.

Every model is evaluated directly from its definition, never through the
divergence closed form, so grid searches over these models provide honest
lower bounds and the explicit achieving construction certifies equality on
exact instances.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem
from typing import Iterator, Optional, Sequence

from . import leakage
from .errors import (
    AllInfinitePrior,
    BudgetExceeded,
    DimensionMismatch,
    KTooSmall,
    NormalizationDegenerate,
)
from .probcore import _LN2, INF, ZERO, Channel, ExtReal, Joint, Number

#: Float error probabilities at or below this are treated as exact zeros when
#: applying the 0/0 = 1 convention; the rational backend needs no such guard.
_FLOAT_ZERO = 1e-13

#: Hard cap on kernels visited by one exhaustive enumeration.
_ENUMERATION_CAP = 2_000_000

#: Kernels evaluated per batched step of an exhaustive grid; bounds memory.
_BLOCK = 1 << 16


class RandomizedFunction(Channel):
    """A randomized function of the secret: a kernel from secrets to guesses."""


@dataclass(frozen=True)
class CostFunction:
    """A non-negative cost table over (secret, action) pairs.

    Entries may be ``math.inf``; an action column is admissible when all of
    its entries are finite (the prior has full support).
    """

    table: tuple

    def __post_init__(self):
        raw = tuple(tuple(r) for r in self.table)
        if not raw or not raw[0]:
            raise DimensionMismatch("cost table must be non-empty")
        width = len(raw[0])
        for i, row in enumerate(raw):
            if len(row) != width:
                raise DimensionMismatch(f"cost row {i} has {len(row)} entries, expected {width}")
            for e in row:
                if isinstance(e, bool) or not isinstance(e, (int, float, Fraction)):
                    raise TypeError(f"cost entries must be numbers, got {type(e).__name__}")
                if isinstance(e, float) and math.isnan(e):
                    raise ValueError("cost entries must not be NaN")
                if e < 0:
                    raise ValueError(f"cost entries must be non-negative, got {e!r}")
        object.__setattr__(self, "table", tuple(tuple(Fraction(e) if isinstance(e, int) else e for e in r) for r in raw))

    @property
    def n_secrets(self) -> int:
        return len(self.table)

    @property
    def n_actions(self) -> int:
        return len(self.table[0])


@dataclass(frozen=True)
class SearchConfig:
    """Grid-search budget for the brute-force adversaries.

    Kernel rows are drawn from the simplex lattice with denominator
    ``resolution - 1`` (vertices included).  Enumeration is exhaustive while
    ``n_secrets * alphabet <= exhaustive_limit``; beyond that, deterministic
    kernels plus ``max_iterations`` seeded samples are used.
    """

    resolution: int = 11
    max_u: int = 3
    max_iterations: int = 2000
    seed: int = 0
    exhaustive_limit: int = 9

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if self.max_u < 2:
            raise ValueError("max_u must be at least 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


# ---------------------------------------------------------------------------
# Per-adversary evaluation
# ---------------------------------------------------------------------------


def _push(weights: Sequence[Number], rows: Sequence[Sequence[Number]], n_out: int) -> list:
    out = [Fraction(0)] * n_out
    for w, row in zip(weights, rows):
        if w == 0:
            continue
        for u in range(n_out):
            if row[u] != 0:
                out[u] = out[u] + w * row[u]
    return out


def _error_probability(masses: Sequence[Number]) -> Number:
    err = 1 - max(masses)
    if isinstance(err, float):
        if err < -1e-9:
            raise ValueError(f"guess masses exceed one: error {err!r}")
        if err < _FLOAT_ZERO:
            return 0.0
    return err


def _error_ratio(prior_err: Number, post_err: Number) -> ExtReal:
    if post_err == 0:
        return ZERO if prior_err == 0 else INF
    if prior_err == 0:
        # A guess that is a.s. correct a priori stays a.s. correct a
        # posteriori.  With float errors this is rounding, such as a prior
        # error below _FLOAT_ZERO clipped to zero: read it as 0/0, ratio one.
        if isinstance(prior_err, float) or isinstance(post_err, float):
            return ZERO
        raise ValueError("prior error vanished while posterior error did not")
    return ExtReal.from_ratio(prior_err / post_err)


def _all_fractions(*vectors) -> bool:
    return all(isinstance(e, Fraction) for v in vectors for e in v)


def _int_masses(rows: Sequence[Sequence[Fraction]], *weight_vectors) -> list:
    """The weighted rows in integers: one ``(table, one)`` per weight vector.

    Scales the rows by the LCM of their denominators and each weight vector
    by the LCM of its own; ``one`` is the product of the two scales.  Then
    ``table[x][i][u] == weights[x] * rows[i][u] * one`` exactly, so the guess
    masses of a kernel that gives secret ``x`` row ``kernel[x]`` are Python
    int sums (:func:`_kernel_masses`) in units of ``1 / one``.  Python ints
    never overflow, however far the denominators grow.
    """
    r_scale = math.lcm(*(e.denominator for row in rows for e in row))
    int_rows = [[e.numerator * (r_scale // e.denominator) for e in row] for row in rows]
    out = []
    for weights in weight_vectors:
        w_scale = math.lcm(*(w.denominator for w in weights))
        int_weights = [w.numerator * (w_scale // w.denominator) for w in weights]
        table = [[[w * e for e in row] for row in int_rows] for w in int_weights]
        out.append((table, w_scale * r_scale))
    return out


def _kernel_masses(table: list, kernel: Sequence[int]) -> list:
    """Integer guess masses of one kernel, summed secret by secret."""
    return list(map(sum, zip(*map(getitem, table, kernel))))


def _exact_scan(prior_w, post_w, rows: list, kernels) -> tuple:
    """Best randomized-function level over ``kernels``, in integer arithmetic.

    ``kernels`` yields tuples of indices into ``rows``.  Each kernel is
    evaluated from its definition: its prior and posterior errors are ``one -
    max(masses)`` over the masses of :func:`_int_masses`, with the branches
    of :func:`_error_ratio`, and two levels compare by cross-multiplication.
    Only the winner's errors become ``Fraction`` objects.  Returns ``(best level, first
    kernel attaining it, kernels visited)``.
    """
    (tab_p, one_p), (tab_q, one_q) = _int_masses(rows, prior_w, post_w)
    best_a = best_b = best_kernel = None
    count = 0
    for kernel in kernels:
        count += 1
        a = one_p - max(_kernel_masses(tab_p, kernel))
        b = one_q - max(_kernel_masses(tab_q, kernel))
        if b == 0:
            if a == 0:
                a, b = one_p, one_q  # 0/0 reads as ratio one
        elif a == 0:
            raise ValueError("prior error vanished while posterior error did not")
        # (a, 0) is the infinite level: it beats every finite one and ties itself
        if best_kernel is None or a * best_b > best_a * b:
            best_a, best_b, best_kernel = a, b, kernel
    value = _error_ratio(Fraction(best_a, one_p), Fraction(best_b, one_q))
    return value, best_kernel, count


def _lambda_from_rows(prior_w, post_w, kernel_rows, n_out: int) -> ExtReal:
    """One kernel's level: in Python ints when every number is a ``Fraction``."""
    if _all_fractions(prior_w, post_w, *kernel_rows):
        return _exact_scan(prior_w, post_w, kernel_rows, (range(len(kernel_rows)),))[0]
    pu = _push(prior_w, kernel_rows, n_out)
    pu_y = _push(post_w, kernel_rows, n_out)
    return _error_ratio(_error_probability(pu), _error_probability(pu_y))


def randomized_function_leakage(joint: Joint, y: int, kernel: Channel) -> ExtReal:
    """Leakage to an adversary guessing one randomized function of the secret.

    Log-ratio of the prior to the posterior probability of an incorrect
    guess, both under the best deterministic guess; 0/0 counts as ratio one.
    Never exceeds the pointwise maximal cost of the same outcome.
    """
    if kernel.n_inputs != len(joint.prior):
        raise DimensionMismatch(
            f"kernel has {kernel.n_inputs} rows, prior has {len(joint.prior)} outcomes"
        )
    posterior = joint.posterior(y)
    return _lambda_from_rows(
        joint.prior.weights, posterior, kernel.rows, kernel.n_outputs
    )


def _expected_cost(column: int, table, weights) -> Number:
    acc = Fraction(0)
    for row, w in zip(table, weights):
        if w == 0:
            continue
        c = row[column]
        if c == math.inf:
            return math.inf
        if c != 0:
            acc = acc + c * w
    return acc


def cost_function_leakage(joint: Joint, y: int, cost: CostFunction) -> ExtReal:
    """Leakage to an adversary minimizing a non-negative expected cost.

    Log-ratio of the smallest prior expected cost to the smallest posterior
    expected cost; infinite when the posterior minimum vanishes while the
    prior minimum does not.
    """
    if cost.n_secrets != len(joint.prior):
        raise DimensionMismatch(
            f"cost table has {cost.n_secrets} rows, prior has {len(joint.prior)} outcomes"
        )
    posterior = joint.posterior(y)
    prior_min = min(
        _expected_cost(w, cost.table, joint.prior.weights) for w in range(cost.n_actions)
    )
    if prior_min == math.inf:
        raise AllInfinitePrior("every action has infinite prior expected cost")
    post_min = min(
        _expected_cost(w, cost.table, posterior) for w in range(cost.n_actions)
    )
    if post_min == 0:
        return ZERO if prior_min == 0 else INF
    if prior_min == 0:
        # A zero-cost action under the full-support prior is zero-cost under
        # any posterior, so post_min == 0 would have caught it.
        raise ValueError("prior minimum vanished while posterior minimum did not")
    return ExtReal.from_ratio(prior_min / post_min)


def _min_guesswork(masses: Sequence[Number]) -> Number:
    """Smallest expected number of sequential guesses.

    Guessing in order of decreasing mass is optimal (Massey, "Guessing and
    entropy", ISIT 1994).  Alphabets above seven symbols are rejected, as
    a search budget.
    """
    n = len(masses)
    if n > 7:
        raise BudgetExceeded(f"guesswork allows at most 7 guess symbols, got {n}")
    return sum((i + 1) * m for i, m in enumerate(sorted(masses, reverse=True)))


def _exact_guesswork_scan(prior_w, post_w, rows: list, kernels) -> ExtReal:
    """Best guesswork level over ``kernels``, in integer arithmetic.

    Like :func:`_exact_scan`: the guessworks of both sides are integers in
    units of ``1 / one``, compared by cross-multiplication; only the winner
    becomes a ``Fraction``.
    """
    (tab_p, one_p), (tab_q, one_q) = _int_masses(rows, prior_w, post_w)
    best_g = best_h = None
    for kernel in kernels:
        g = _min_guesswork(_kernel_masses(tab_p, kernel))
        h = _min_guesswork(_kernel_masses(tab_q, kernel))
        if best_g is None or g * best_h > best_g * h:
            best_g, best_h = g, h
    return ExtReal.from_ratio(Fraction(best_g * one_q, best_h * one_p))


def _guesswork_from_rows(prior_w, post_w, kernel_rows, n_out: int) -> ExtReal:
    """One kernel's guesswork level, like :func:`_lambda_from_rows`."""
    if _all_fractions(prior_w, post_w, *kernel_rows):
        return _exact_guesswork_scan(prior_w, post_w, kernel_rows, (range(len(kernel_rows)),))
    pu = _push(prior_w, kernel_rows, n_out)
    pu_y = _push(post_w, kernel_rows, n_out)
    return ExtReal.from_ratio(_min_guesswork(pu) / _min_guesswork(pu_y))


def guesswork_leakage(joint: Joint, y: int, kernel: Channel) -> ExtReal:
    """Leakage to an adversary minimizing expected sequential guesses.

    Log-ratio of the prior to the posterior optimal guesswork of the guess
    variable induced by ``kernel``; always finite because guesswork is at
    least one.
    """
    if kernel.n_inputs != len(joint.prior):
        raise DimensionMismatch(
            f"kernel has {kernel.n_inputs} rows, prior has {len(joint.prior)} outcomes"
        )
    return _guesswork_from_rows(
        joint.prior.weights, joint.posterior(y), kernel.rows, kernel.n_outputs
    )


# ---------------------------------------------------------------------------
# Kernel grids
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int) -> Iterator[tuple]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _lattice_rows(n_cols: int, resolution: int) -> list:
    den = resolution - 1
    return [
        tuple(Fraction(c, den) for c in comp) for comp in _compositions(den, n_cols)
    ]


def _support_indicator_rows(posterior: Sequence[Number]) -> Optional[tuple]:
    """Binary kernel flagging the posterior's support; certifies infinite cost.

    When the posterior misses part of the alphabet, guessing this indicator
    is error-free a posteriori but not a priori, so its leakage is infinite.
    """
    if all(p > 0 for p in posterior):
        return None
    half = Fraction(1, 2)
    return tuple(
        (Fraction(1), Fraction(0)) if p > 0 else (half, half) for p in posterior
    )


def _is_exhaustive(n_x: int, u_size: int, cfg: SearchConfig) -> bool:
    return n_x * u_size <= cfg.exhaustive_limit


def _check_budget(n_x: int, cfg: SearchConfig) -> None:
    """Reject a search whose exhaustive part exceeds the cap, before any work.

    The enumerators below rely on this check having passed.
    """
    for u_size in range(2, cfg.max_u + 1):
        if _is_exhaustive(n_x, u_size, cfg):
            count = math.comb(cfg.resolution - 2 + u_size, u_size - 1) ** n_x
            if count > _ENUMERATION_CAP:
                raise BudgetExceeded(f"exhaustive grid would visit {count} kernels")


def _grid_shape(n_x: int, u_size: int, cfg: SearchConfig) -> tuple:
    """``(number of lattice rows, vertex row indices or None, draws or None)``.

    Exhaustive grids have no vertices and no draws.  Sampled grids give the
    vertex kernels (when there are at most 4096) and ``max_iterations``
    seeded draws of ``n_x`` row indices each, flattened kernel by kernel.
    """
    den = cfg.resolution - 1
    n_rows = math.comb(den + u_size - 1, u_size - 1)
    if _is_exhaustive(n_x, u_size, cfg):
        return n_rows, None, None
    vertices = None
    if u_size**n_x <= 4096:
        comps = list(_compositions(den, u_size))
        corners = [(0,) * i + (den,) + (0,) * (u_size - 1 - i) for i in range(u_size)]
        vertices = [comps.index(c) for c in corners]
    rng = random.Random(cfg.seed * 1_000_003 + u_size * 101 + n_x)
    draws = [rng.randrange(n_rows) for _ in range(cfg.max_iterations * n_x)]
    return n_rows, vertices, draws


def _kernel_indices(n_x: int, u_size: int, cfg: SearchConfig) -> Iterator[tuple]:
    """The kernels of guess alphabet ``u_size``, in search order.

    Each kernel is a tuple of ``n_x`` row indices into
    ``_lattice_rows(u_size, cfg.resolution)``.  Exhaustive grids follow
    ``itertools.product`` order; sampled grids give the vertex product and
    then the seeded draws.  Plain Python, for the rational and guesswork
    scans; :func:`_kernel_blocks` gives the same sequence as numpy blocks.
    """
    n_rows, vertices, draws = _grid_shape(n_x, u_size, cfg)
    if draws is None:
        yield from itertools.product(range(n_rows), repeat=n_x)
        return
    if vertices is not None:
        yield from itertools.product(vertices, repeat=n_x)
    for start in range(0, len(draws), n_x):
        yield tuple(draws[start : start + n_x])


def _kernel_blocks(n_x: int, u_size: int, cfg: SearchConfig) -> Iterator[np.ndarray]:
    """The kernels of :func:`_kernel_indices` as ``(K, n_x)`` numpy blocks.

    Exhaustive grids come in blocks of at most ``_BLOCK`` kernels, computed
    from the flat kernel number; for the float scan.
    """
    import numpy as np

    n_rows, vertices, draws = _grid_shape(n_x, u_size, cfg)
    if draws is None:
        total = n_rows**n_x
        place = n_rows ** np.arange(n_x - 1, -1, -1)
        for start in range(0, total, _BLOCK):
            flat = np.arange(start, min(start + _BLOCK, total))
            yield flat[:, None] // place % n_rows
        return
    if vertices is not None:
        yield np.array(vertices)[np.indices((u_size,) * n_x).reshape(n_x, -1).T]
    yield np.array(draws).reshape(cfg.max_iterations, n_x)


def _iter_kernels(n_x: int, u_size: int, cfg: SearchConfig) -> Iterator[tuple]:
    rows = _lattice_rows(u_size, cfg.resolution)
    for kernel in _kernel_indices(n_x, u_size, cfg):
        yield tuple(rows[i] for i in kernel)


def _max_mass(weights: Sequence, lattice: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Largest guess mass of every kernel in ``block``.

    The pushes accumulate secret by secret, in the order of :func:`_push`,
    so float masses carry the same rounding as the per-kernel definition.
    """
    acc = weights[0] * lattice[block[:, 0]]
    for x in range(1, len(weights)):
        acc = acc + weights[x] * lattice[block[:, x]]
    return acc.max(axis=1)


def _float_scan(prior_w, post_w, rows: list, blocks) -> tuple:
    """Best randomized-function level over ``blocks``, for float weights.

    Applies the branches of :func:`_error_probability` and
    :func:`_error_ratio` to each numpy block of kernels, raising for the
    first kernel that they would reject.  Returns ``(best level, first
    kernel attaining it, kernels visited)`` like :func:`_exact_scan`.
    """
    import numpy as np

    lattice = np.array(rows, dtype=float)
    p = [float(w) for w in prior_w]
    q = [float(w) for w in post_w]
    best = best_kernel = None
    count = 0
    for block in blocks:
        count += len(block)
        raw_p = 1.0 - _max_mass(p, lattice, block)
        raw_q = 1.0 - _max_mass(q, lattice, block)
        err_p = np.where(raw_p < _FLOAT_ZERO, 0.0, raw_p)
        err_q = np.where(raw_q < _FLOAT_ZERO, 0.0, raw_q)
        bad = (raw_p < -1e-9) | (raw_q < -1e-9)
        if bad.any():
            k = int(np.argmax(bad))
            raw = raw_p[k] if raw_p[k] < -1e-9 else raw_q[k]
            raise ValueError(f"guess masses exceed one: error {float(raw)!r}")
        ratio = np.divide(
            err_p,
            err_q,
            out=np.where(err_p == 0, 1.0, np.inf),
            where=(err_p != 0) & (err_q != 0),
        )
        k = int(np.argmax(ratio))
        if err_p[k] == 0:
            value = ZERO
        elif err_q[k] == 0:
            value = INF
        else:
            value = ExtReal.from_ratio(float(ratio[k]))
        if best is None or value > best:
            best, best_kernel = value, block[k].tolist()
    return best, best_kernel, count


def brute_force_pmc(joint: Joint, y: int, cfg: SearchConfig) -> ExtReal:
    """Best randomized-function leakage over the kernel grid.

    A guaranteed lower bound on the pointwise maximal cost that approaches
    it as the grid refines; returns the infinite level through the support
    indicator whenever the posterior has zeros.
    """
    return certify_pmc(joint, y, cfg).oracle_value


@dataclass(frozen=True)
class OracleCertificate:
    """Closed form vs. brute force for one outcome, with the achieving kernel."""

    closed_form: ExtReal
    oracle_value: ExtReal
    witness: RandomizedFunction
    gap_nats: float
    #: One ``(u, kernels visited, exhaustive)`` triple per guess alphabet.
    kernels_visited: tuple = ()

    @property
    def witness_u(self) -> int:
        """Size of the guess alphabet at which the witness was found."""
        return self.witness.n_outputs

    @property
    def dominance_ok(self) -> bool:
        """The grid value never exceeds the closed form (tiny float slack)."""
        if not self.closed_form.is_finite:
            return True
        if not self.oracle_value.is_finite:
            return False
        return self.oracle_value.nats <= self.closed_form.nats + 1e-9

    def to_dict(self, unit: str = "nats") -> dict:
        gap = self.gap_nats
        if gap != math.inf and unit == "bits":
            gap = gap / _LN2
        return {
            "closed_form": leakage.format_level(self.closed_form, unit),
            "oracle_value": leakage.format_level(self.oracle_value, unit),
            "witness_kernel": [[float(e) for e in row] for row in self.witness.rows],
            "gap": "inf" if gap == math.inf else gap,
            "dominance_ok": self.dominance_ok,
        }


def certify_pmc(joint: Joint, y: int, cfg: SearchConfig) -> OracleCertificate:
    """Run the grid search and report it against the closed form.

    Each guess alphabet is scanned in numpy blocks when any weight is a
    float, and kernel by kernel in Python ints when all are rational.  Both
    give the value and the first maximizing kernel of the per-kernel
    definition; the rational scan never imports numpy.
    """
    prior_w = joint.prior.weights
    post_w = joint.posterior(y)
    n_x = len(prior_w)
    _check_budget(n_x, cfg)

    constant = tuple((Fraction(1),) for _ in range(n_x))
    best = _lambda_from_rows(prior_w, post_w, constant, 1)
    best_rows = constant

    indicator = _support_indicator_rows(post_w)
    if indicator is not None:
        value = _lambda_from_rows(prior_w, post_w, indicator, 2)
        if value > best:
            best, best_rows = value, indicator

    searched = indicator is None or best.is_finite
    exact = _all_fractions(prior_w, post_w)
    visited = []
    for u_size in range(2, cfg.max_u + 1):
        count = 0
        if searched:
            rows = _lattice_rows(u_size, cfg.resolution)
            if exact:
                kernels = _kernel_indices(n_x, u_size, cfg)
                value, kernel, count = _exact_scan(prior_w, post_w, rows, kernels)
            else:
                blocks = _kernel_blocks(n_x, u_size, cfg)
                value, kernel, count = _float_scan(prior_w, post_w, rows, blocks)
            if value > best:
                best, best_rows = value, tuple(rows[i] for i in kernel)
        visited.append((u_size, count, _is_exhaustive(n_x, u_size, cfg)))

    closed = leakage.pmc(joint, y)
    if closed.is_finite and best.is_finite:
        gap = closed.nats - best.nats
    elif closed.is_finite != best.is_finite:
        gap = math.inf
    else:
        gap = 0.0
    return OracleCertificate(
        closed, best, RandomizedFunction(best_rows), gap, tuple(visited)
    )


def brute_force_guesswork_leakage(joint: Joint, y: int, cfg: SearchConfig) -> ExtReal:
    """Best guesswork leakage over the kernel grid; never exceeds the cost level.

    Convergence in the alphabet size is slow: realizing the full cost level
    needs guess alphabets far larger than any practical grid, so this oracle
    is a sanity lower bound, not a sharp one.
    """
    prior_w = joint.prior.weights
    post_w = joint.posterior(y)
    n_x = len(prior_w)
    _check_budget(n_x, cfg)
    if cfg.max_u > 7:
        raise BudgetExceeded(f"guesswork allows at most 7 guess symbols, got max_u={cfg.max_u}")
    exact = _all_fractions(prior_w, post_w)
    best = ZERO
    for u_size in range(2, cfg.max_u + 1):
        if exact:
            rows = _lattice_rows(u_size, cfg.resolution)
            kernels = _kernel_indices(n_x, u_size, cfg)
            best = max(best, _exact_guesswork_scan(prior_w, post_w, rows, kernels))
        else:
            for rows in _iter_kernels(n_x, u_size, cfg):
                best = max(best, _guesswork_from_rows(prior_w, post_w, rows, u_size))
    return best


# ---------------------------------------------------------------------------
# Achievability constructions
# ---------------------------------------------------------------------------


def achieving_kernel(joint: Joint, y: int, k: Optional[int] = None) -> RandomizedFunction:
    """The (k+1)-symbol kernel whose randomized-function leakage equals the cost level.

    Splits the max-ratio secret value across ``k`` symbols and lumps the rest
    into one; once ``k`` makes the lumped symbol the modal guess both a
    priori and a posteriori, the error ratio collapses to the extreme
    probability ratio exactly.  With ``k=None`` the smallest adequate ``k``
    is found by doubling from 2.
    """
    prior_w = joint.prior.weights
    post_w = joint.posterior(y)
    n_x = len(prior_w)
    if n_x == 1:
        return RandomizedFunction(((Fraction(1),),))
    best_x, best_ratio = 0, None
    for x in range(n_x):
        if post_w[x] == 0:
            raise ValueError("cost level is infinite; no finite kernel achieves it")
        ratio = prior_w[x] / post_w[x]
        if best_ratio is None or ratio > best_ratio:
            best_x, best_ratio = x, ratio
    p_star = prior_w[best_x]
    q_star = post_w[best_x]

    def conditions_hold(kk: int) -> bool:
        return (1 - p_star) >= p_star / kk and (1 - q_star) >= q_star / kk

    if k is None:
        k = 2
        while not conditions_hold(k):
            k *= 2
            if k > 2**62:  # pragma: no cover - unreachable for valid pmfs
                raise KTooSmall("no adequate k found")
    elif not conditions_hold(k):
        raise KTooSmall(
            f"k={k} leaves the lumped symbol non-modal; "
            f"needs k >= max(p/(1-p), q/(1-q)) for p={p_star}, q={q_star}"
        )
    split = tuple(Fraction(1, k) for _ in range(k)) + (Fraction(0),)
    lump = tuple(Fraction(0) for _ in range(k)) + (Fraction(1),)
    rows = tuple(split if x == best_x else lump for x in range(n_x))
    return RandomizedFunction(rows)


def cost_from_kernel(kernel: Channel) -> CostFunction:
    """The cost table whose cost leakage matches the kernel's leakage exactly.

    Guessing wrong is the cost: one minus the kernel entry.  The optimal
    action then mirrors the modal guess, for every joint and outcome.
    """
    return CostFunction(tuple(tuple(1 - e for e in row) for row in kernel.rows))


def kernel_from_cost(
    cost: CostFunction, joint: Joint, y: int, k: int = 4096
) -> RandomizedFunction:
    """A randomized function matching a cost adversary's leakage within 1e-9.

    Mixes the two split-and-lump kernels built from the best prior and best
    posterior actions; the mixing weight is found by bisection, which the
    intermediate-value argument for the mixture guarantees to cross the
    target.  Infinite targets are met by the posterior-support indicator.
    """
    for row in cost.table:
        for e in row:
            if e == math.inf:
                raise ValueError("kernel construction needs a finite cost table")
    peak = max(e for row in cost.table for e in row)
    if peak == 0:
        raise NormalizationDegenerate("cost table is identically zero")
    table = tuple(tuple(e / peak for e in row) for row in cost.table)

    target = cost_function_leakage(joint, y, cost)
    prior_w = joint.prior.weights
    post_w = joint.posterior(y)
    if not target.is_finite:
        return RandomizedFunction(_support_indicator_rows(post_w))

    n_w = len(table[0])
    prior_costs = [_expected_cost(w, table, prior_w) for w in range(n_w)]
    post_costs = [_expected_cost(w, table, post_w) for w in range(n_w)]
    w_s = min(range(n_w), key=lambda w: prior_costs[w])
    w_t = min(range(n_w), key=lambda w: post_costs[w])

    a_s, a_t = float(prior_costs[w_s]), float(prior_costs[w_t])
    b_s, b_t = float(post_costs[w_s]), float(post_costs[w_t])
    target_ratio = float(target.ratio)

    def mixture_ratio(delta: float) -> float:
        m_p = delta * a_s + (1 - delta) * a_t
        m_q = delta * b_s + (1 - delta) * b_t
        err_p = min(1 - m_p / k, m_p)
        err_q = min(1 - m_q / k, m_q)
        if err_q <= 0:
            return math.inf
        return err_p / err_q

    # mixture_ratio is monotone in delta with the target bracketed between
    # the endpoints; bisect on the sign of the residual.
    lo, hi = 0.0, 1.0
    r_lo, r_hi = mixture_ratio(lo), mixture_ratio(hi)
    if r_lo <= target_ratio:
        delta = lo
    elif r_hi >= target_ratio:
        delta = hi
    else:
        for _ in range(60):
            mid = (lo + hi) / 2
            if mixture_ratio(mid) >= target_ratio:
                lo = mid
            else:
                hi = mid
        delta = (lo + hi) / 2

    rows = []
    for x in range(len(table)):
        mix = delta * float(table[x][w_s]) + (1 - delta) * float(table[x][w_t])
        rows.append(tuple(mix / k for _ in range(k)) + (1 - mix,))
    return RandomizedFunction(tuple(rows))
