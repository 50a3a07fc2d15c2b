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
from typing import Iterator, Optional, Sequence

from . import leakage
from .errors import (
    AllInfinitePrior,
    BudgetExceeded,
    DimensionMismatch,
    KTooSmall,
    NormalizationDegenerate,
)
from .probcore import INF, ZERO, Channel, ExtReal, Joint, Number

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
    k: int = 4096
    seed: int = 0
    exhaustive_limit: int = 9

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if self.max_u < 2:
            raise ValueError("max_u must be at least 2")
        if self.k < 1:
            raise ValueError("k must be at least 1")
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


def _lambda_from_rows(prior_w, post_w, kernel_rows, n_out: int) -> ExtReal:
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
    """Smallest expected number of sequential guesses, by trying every order."""
    n = len(masses)
    if n > 7:
        raise BudgetExceeded(f"guesswork enumerates {n}! orders; alphabet too large")
    best = None
    for perm in itertools.permutations(range(n)):
        cost = sum((i + 1) * masses[perm[i]] for i in range(n))
        if best is None or cost < best:
            best = cost
    return best


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
    posterior = joint.posterior(y)
    pu = _push(joint.prior.weights, kernel.rows, kernel.n_outputs)
    pu_y = _push(posterior, kernel.rows, kernel.n_outputs)
    return ExtReal.from_ratio(_min_guesswork(pu) / _min_guesswork(pu_y))


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


def _kernel_blocks(n_x: int, u_size: int, cfg: SearchConfig) -> Iterator[np.ndarray]:
    """The kernels of guess alphabet ``u_size``, in search order.

    Each block is a ``(K, n_x)`` array of row indices into
    ``_lattice_rows(u_size, cfg.resolution)``.  Exhaustive grids follow
    ``itertools.product`` order in blocks of at most ``_BLOCK`` kernels.
    Sampled grids give the deterministic kernels (when there are at most
    4096) and then ``max_iterations`` seeded draws.
    """
    import numpy as np

    den = cfg.resolution - 1
    n_rows = math.comb(den + u_size - 1, u_size - 1)
    if _is_exhaustive(n_x, u_size, cfg):
        total = n_rows**n_x
        place = n_rows ** np.arange(n_x - 1, -1, -1)
        for start in range(0, total, _BLOCK):
            flat = np.arange(start, min(start + _BLOCK, total))
            yield flat[:, None] // place % n_rows
        return
    if u_size**n_x <= 4096:
        comps = list(_compositions(den, u_size))
        corners = [(0,) * i + (den,) + (0,) * (u_size - 1 - i) for i in range(u_size)]
        vertices = np.array([comps.index(c) for c in corners])
        yield vertices[np.indices((u_size,) * n_x).reshape(n_x, -1).T]
    rng = random.Random(cfg.seed * 1_000_003 + u_size * 101 + n_x)
    draws = [rng.choice(range(n_rows)) for _ in range(cfg.max_iterations * n_x)]
    yield np.array(draws).reshape(cfg.max_iterations, n_x)


def _iter_kernels(n_x: int, u_size: int, cfg: SearchConfig) -> Iterator[tuple]:
    rows = _lattice_rows(u_size, cfg.resolution)
    for block in _kernel_blocks(n_x, u_size, cfg):
        for kernel in block.tolist():
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


def _float_scan(prior_w, post_w, rows: list):
    """Block scanner for float weights.

    Applies the branches of :func:`_error_probability` and
    :func:`_error_ratio` to a whole block, raising for the first kernel that
    they would reject.  Returns ``scan(block) -> (best level in the block,
    first index attaining it)``.
    """
    import numpy as np

    lattice = np.array(rows, dtype=float)
    p = [float(w) for w in prior_w]
    q = [float(w) for w in post_w]

    def scan(block):
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
            return ZERO, k
        if err_q[k] == 0:
            return INF, k
        return ExtReal.from_ratio(float(ratio[k])), k

    return scan


def _exact_scan(prior_w, post_w, rows: list):
    """Block scanner for rational weights: each kernel from its definition.

    Evaluates :func:`_lambda_from_rows` kernel by kernel, in ``Fraction``
    arithmetic, and returns ``scan(block) -> (best level in the block, first
    index attaining it)`` like :func:`_float_scan`.
    """
    u_size = len(rows[0])

    def scan(block):
        best, best_k = None, 0
        for k, kernel in enumerate(block.tolist()):
            value = _lambda_from_rows(
                prior_w, post_w, tuple(rows[i] for i in kernel), u_size
            )
            if best is None or value > best:
                best, best_k = value, k
        return best, best_k

    return scan


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
            gap = gap / math.log(2.0)
        return {
            "closed_form": leakage.format_level(self.closed_form, unit),
            "oracle_value": leakage.format_level(self.oracle_value, unit),
            "witness_kernel": [[float(e) for e in row] for row in self.witness.rows],
            "gap": "inf" if gap == math.inf else gap,
            "dominance_ok": self.dominance_ok,
        }


def certify_pmc(joint: Joint, y: int, cfg: SearchConfig) -> OracleCertificate:
    """Run the grid search and report it against the closed form.

    Each guess alphabet is scanned in blocks of kernels: in numpy when any
    weight is a float, kernel by kernel in ``Fraction`` arithmetic when all
    are rational.  Both give the value and the first maximizing kernel of
    the per-kernel definition.
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
    exact = all(isinstance(w, Fraction) for w in prior_w + post_w)
    visited = []
    for u_size in range(2, cfg.max_u + 1):
        count = 0
        if searched:
            rows = _lattice_rows(u_size, cfg.resolution)
            if exact:
                scan = _exact_scan(prior_w, post_w, rows)
            else:
                scan = _float_scan(prior_w, post_w, rows)
            for block in _kernel_blocks(n_x, u_size, cfg):
                count += len(block)
                value, k = scan(block)
                if value > best:
                    best, best_rows = value, tuple(rows[i] for i in block[k].tolist())
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
        raise BudgetExceeded(f"guesswork enumerates {cfg.max_u}! orders; alphabet too large")
    best = ZERO
    for u_size in range(2, cfg.max_u + 1):
        for rows in _iter_kernels(n_x, u_size, cfg):
            pu = _push(prior_w, rows, u_size)
            pu_y = _push(post_w, rows, u_size)
            value = ExtReal.from_ratio(_min_guesswork(pu) / _min_guesswork(pu_y))
            if value > best:
                best = value
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
