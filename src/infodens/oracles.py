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
lower bounds.  Two guesses suffice to attain them: every witness below (the
achieving kernel, the kernel matching a cost adversary and the certificate
of an infinite level) is one binary kernel, whose level is a ratio of prior
to posterior expected losses, so each certifies equality exactly on
rational instances.

An adversary is a pair of losses, on integer and on float-block guess
masses.  One scan per backend evaluates a single kernel and whole grids
alike; :func:`_search` is the one loop over the guess alphabets.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import add, getitem
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from . import leakage
from .errors import (
    AllInfinitePrior,
    BudgetExceeded,
    DimensionMismatch,
    NormalizationDegenerate,
)
from .probcore import INF, ZERO, Channel, ExtReal, Joint, Number, _int_masses, in_unit

if TYPE_CHECKING:
    import numpy as np

#: Float error probabilities at or below this are treated as exact zeros when
#: applying the 0/0 = 1 convention; the rational backend needs no such guard.
_FLOAT_ZERO = 1e-13

#: Hard cap on the kernels one guess alphabet visits, and on the lattice
#: entries one sampled grid builds.
_ENUMERATION_CAP = 2_000_000

#: A sampled grid also visits its vertex kernels when there are at most this many.
_VERTEX_CAP = 4096

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
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if self.max_u < 2:
            raise ValueError("max_u must be at least 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


# ---------------------------------------------------------------------------
# Per-adversary evaluation
# ---------------------------------------------------------------------------


def _error_probability(masses, one: int) -> int:
    """The error of the modal guess; the float zero rule is :func:`_float_scan`'s."""
    return one - max(masses)


def _block_error(masses: np.ndarray) -> np.ndarray:
    """:func:`_error_probability` of every row of masses."""
    return 1.0 - masses.max(axis=1)


def _min_guesswork(masses: Sequence[Number], one: Number = 1) -> Number:
    """Smallest expected number of sequential guesses; linear, so ``one`` is unused.

    Guessing in order of decreasing mass is optimal (Massey, "Guessing and
    entropy", ISIT 1994).
    """
    return sum((i + 1) * m for i, m in enumerate(sorted(masses, reverse=True)))


def _block_guesswork(masses: np.ndarray) -> np.ndarray:
    """:func:`_min_guesswork` of every row, summed in the same order; sorts ``masses``."""
    masses.sort(axis=1)
    acc = masses[:, -1]
    for i in range(1, masses.shape[1]):
        acc = acc + (i + 1) * masses[:, -1 - i]
    return acc


#: An adversary: its loss on one kernel's int masses and on a float block's masses.
_ERROR = (_error_probability, _block_error)
_GUESSWORK = (_min_guesswork, _block_guesswork)


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


def _head_masses(table: list, head: Sequence[int]) -> list:
    """Integer guess masses of the first ``len(head)`` secrets; zeros for an empty head."""
    return list(map(sum, zip(*map(getitem, table, head)))) or [0] * len(table[0][0])


def _exact_scan(prior_w, post_w, rows: list, groups, loss) -> tuple:
    """Best level over the kernels of ``groups``, in integer arithmetic.

    The rows and each weight vector are scaled to integers
    (:func:`_int_masses`), so ``table[x][i][u] == weights[x] * rows[i][u] *
    one`` exactly and the guess masses of a kernel that gives secret ``x`` row
    ``kernel[x]`` are int sums in units of ``1 / one``.  ``groups`` yields the
    ``(head, lasts)`` pairs of :func:`_kernel_indices`: a head's masses are
    summed once and each kernel adds its last row to them, while a group of
    one, such as a seeded draw, sums its rows at once.  A kernel's prior and
    posterior losses are ``loss(masses, one)``, with the branches of
    :func:`_error_ratio`; levels compare by cross-multiplication.  Only the
    winner's losses become a ``Fraction``.  Every kernel in ``groups`` is
    evaluated; an exhaustive grid's groups hold one kernel per relabelling
    orbit.  Returns ``(best level, first kernel attaining it)``.
    """
    int_rows, r_scale = _int_masses(rows)
    tables = []
    for weights in (prior_w, post_w):
        (int_w,), w_scale = _int_masses((weights,))
        table = [[[w * e for e in row] for row in int_rows] for w in int_w]
        tables.append((table, w_scale * r_scale))
    (tab_p, one_p), (tab_q, one_q) = tables
    last_p, last_q = tab_p[-1], tab_q[-1]
    best_a = best_b = best_kernel = None
    for head, lasts in groups:
        draw = len(lasts) == 1
        if not draw:
            head_p, head_q = _head_masses(tab_p, head), _head_masses(tab_q, head)
        for k in lasts:
            if draw:
                kernel = (*head, k)
                a = loss(map(sum, zip(*map(getitem, tab_p, kernel))), one_p)
                b = loss(map(sum, zip(*map(getitem, tab_q, kernel))), one_q)
            else:
                a = loss(map(add, head_p, last_p[k]), one_p)
                b = loss(map(add, head_q, last_q[k]), one_q)
            if b == 0:
                if a == 0:
                    a, b = one_p, one_q  # 0/0 reads as ratio one
            elif a == 0:
                raise ValueError("prior error vanished while posterior error did not")
            # (a, 0) is the infinite level: it beats every finite one and ties itself
            if best_kernel is None or a * best_b > best_a * b:
                best_a, best_b, best_kernel = a, b, (*head, k)
    return _error_ratio(Fraction(best_a, one_p), Fraction(best_b, one_q)), best_kernel


def _block_masses(weights: Sequence, lattice: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Guess masses of every kernel in ``block``, one row per kernel.

    The pushes accumulate secret by secret, left to right, so every kernel's
    float masses carry the rounding of that explicit loop.
    """
    acc = weights[0] * lattice[block[:, 0]]
    for x in range(1, len(weights)):
        acc = acc + weights[x] * lattice[block[:, x]]
    return acc


def _float_scan(prior_w, post_w, rows: list, blocks, block_loss) -> tuple:
    """Best level over ``blocks`` of kernel row indices, one kernel per row, in floats.

    Losses below ``_FLOAT_ZERO`` read as exact zeros, the branches of
    :func:`_error_ratio` apply, and a loss below ``-1e-9`` raises for the
    first kernel that has one.  Returns ``(best level, first kernel attaining
    it)`` like :func:`_exact_scan`.
    """
    import numpy as np

    lattice = np.array(rows, dtype=float)
    p = [float(w) for w in prior_w]
    q = [float(w) for w in post_w]
    best = best_kernel = None
    for block in map(np.asarray, blocks):
        raw_p = block_loss(_block_masses(p, lattice, block))
        raw_q = block_loss(_block_masses(q, lattice, block))
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
        value = _error_ratio(float(err_p[k]), float(err_q[k]))
        if best is None or value > best:
            best, best_kernel = value, block[k].tolist()
    return best, best_kernel


def _lambda_from_rows(prior_w, post_w, kernel_rows, adversary=_ERROR) -> ExtReal:
    """One kernel's level: its backend's scan of a grid holding just that kernel."""
    if len(kernel_rows) != len(prior_w):
        raise DimensionMismatch(
            f"kernel has {len(kernel_rows)} rows, prior has {len(prior_w)} outcomes"
        )
    if _all_fractions(prior_w, post_w, *kernel_rows):
        *head, last = range(len(kernel_rows))
        return _exact_scan(prior_w, post_w, kernel_rows, [(head, (last,))], adversary[0])[0]
    return _float_scan(prior_w, post_w, kernel_rows, [[range(len(kernel_rows))]], adversary[1])[0]


def randomized_function_leakage(joint: Joint, y: int, kernel: Channel) -> ExtReal:
    """Leakage to an adversary guessing one randomized function of the secret.

    Log-ratio of the prior to the posterior probability of an incorrect
    guess, both under the best deterministic guess; 0/0 counts as ratio one.
    Never exceeds the pointwise maximal cost of the same outcome.
    """
    return _lambda_from_rows(joint.prior.weights, joint.posterior(y), kernel.rows)


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


def _min_cost(table, weights) -> Number:
    return min(_expected_cost(w, table, weights) for w in range(len(table[0])))


def cost_function_leakage(joint: Joint, y: int, cost: CostFunction) -> ExtReal:
    """Leakage to an adversary minimizing a non-negative expected cost.

    Log-ratio of the smallest prior expected cost to the smallest posterior
    expected cost; infinite when the posterior minimum vanishes while the
    prior minimum does not.  Float minima are recomputed exactly when one is 0.
    """
    if cost.n_secrets != len(joint.prior):
        raise DimensionMismatch(
            f"cost table has {cost.n_secrets} rows, prior has {len(joint.prior)} outcomes"
        )
    weights, table = (joint.prior.weights, joint.posterior(y)), cost.table
    prior_min, post_min = (_min_cost(table, w) for w in weights)
    if prior_min == math.inf:
        raise AllInfinitePrior("every action has infinite prior expected cost")
    if 0 in (prior_min, post_min) and not _all_fractions(*weights, *table):
        table = [[e if e == math.inf else Fraction(e) for e in row] for row in table]
        prior_min, post_min = (_min_cost(table, list(map(Fraction, w))) for w in weights)
    return _error_ratio(prior_min, post_min)


def guesswork_leakage(joint: Joint, y: int, kernel: Channel) -> ExtReal:
    """Leakage to an adversary minimizing expected sequential guesses.

    Log-ratio of the prior to the posterior optimal guesswork of the guess
    variable induced by ``kernel``; always finite because guesswork is at
    least one.
    """
    return _lambda_from_rows(joint.prior.weights, joint.posterior(y), kernel.rows, _GUESSWORK)


# ---------------------------------------------------------------------------
# Kernel grids
# ---------------------------------------------------------------------------


def _lattice_rows(n_cols: int, resolution: int) -> list:
    """Every row of ``n_cols`` multiples of ``1 / (resolution - 1)`` summing to 1.

    Stars and bars: each row is a placement of ``n_cols - 1`` bars among
    ``den + n_cols - 1`` slots, whose gaps are the row's numerators, and
    :func:`itertools.combinations` gives the rows in lexicographic order.
    """
    den = resolution - 1
    steps = [Fraction(c, den) for c in range(den + 1)]
    slots = den + n_cols - 1
    return [
        tuple(steps[b - a - 1] for a, b in zip((-1, *bars), (*bars, slots)))
        for bars in itertools.combinations(range(slots), n_cols - 1)
    ]


def _binary_kernel(losses: Sequence[Number]) -> tuple:
    """Rows of the two-guess kernel giving secret ``x`` the row ``(1 - l_x/2, l_x/2)``.

    For losses in [0, 1] and any weights ``w`` the guess masses are
    ``(1 - m/2, m/2)`` with ``m = sum(w_x l_x) <= 1``: guess 0 is always
    modal and the error is exactly ``m/2``.  The kernel's level is thus the
    ratio of prior to posterior expected loss (0/0 still reads as one).
    """
    return tuple((1 - loss / 2, loss / 2) for loss in losses)


def _support_indicator_rows(posterior: Sequence[Number]) -> Optional[tuple]:
    """The binary kernel of losses ``[q_x == 0]``; certifies infinite cost.

    When the posterior misses part of the alphabet, its expected loss is
    zero while the prior's is not, so the kernel's leakage is infinite.
    """
    if all(p > 0 for p in posterior):
        return None
    return _binary_kernel([Fraction(p == 0) for p in posterior])


def _is_exhaustive(n_x: int, u_size: int, cfg: SearchConfig) -> bool:
    return n_x * u_size <= cfg.exhaustive_limit


def _grid_size(n_x: int, u_size: int, cfg: SearchConfig) -> tuple:
    """``(lattice rows, vertex kernels of a sampled grid)``; none beyond ``_VERTEX_CAP``."""
    n_rows, n_vertices = math.comb(cfg.resolution - 2 + u_size, u_size - 1), u_size**n_x
    return n_rows, n_vertices if n_vertices <= _VERTEX_CAP else 0


def _grid_count(n_x: int, u_size: int, cfg: SearchConfig) -> int:
    """Kernels visited: a whole exhaustive grid, though the integer scan evaluates
    one per relabelling orbit, or the vertices plus the draws of a sampled one."""
    n_rows, n_vertices = _grid_size(n_x, u_size, cfg)
    if _is_exhaustive(n_x, u_size, cfg):
        return n_rows**n_x
    return n_vertices + cfg.max_iterations


def _check_budget(n_x: int, cfg: SearchConfig) -> None:
    """Reject a search whose grid exceeds the cap, before any work.

    Each guess alphabet may visit at most ``_ENUMERATION_CAP`` kernels
    (:func:`_grid_count`).  A sampled grid may also hold at most that many
    lattice entries (rows times alphabet size).  The enumerators below rely
    on this check having passed.
    """
    for u_size in range(2, cfg.max_u + 1):
        kind = "exhaustive" if _is_exhaustive(n_x, u_size, cfg) else "sampled"
        n_entries = _grid_size(n_x, u_size, cfg)[0] * u_size
        if kind == "sampled" and n_entries > _ENUMERATION_CAP:
            raise BudgetExceeded(f"sampled grid would build {n_entries} lattice entries")
        if (count := _grid_count(n_x, u_size, cfg)) > _ENUMERATION_CAP:
            raise BudgetExceeded(f"{kind} grid would visit {count} kernels")


def _grid_shape(n_x: int, u_size: int, cfg: SearchConfig) -> tuple:
    """``(number of lattice rows, vertex row indices or None, draws or None)``.

    Exhaustive grids have no vertices and no draws.  Sampled grids give the
    vertex kernels (when :func:`_grid_size` counts any) and ``max_iterations``
    seeded draws of ``n_x`` row indices each, flattened kernel by kernel.
    """
    n_rows, n_vertices = _grid_size(n_x, u_size, cfg)
    if _is_exhaustive(n_x, u_size, cfg):
        return n_rows, None, None
    vertices = None
    if n_vertices:
        # the corner with all mass on guess i is preceded, in lexicographic
        # order, by every composition of den whose first i parts are zero
        den = cfg.resolution - 1
        vertices = [math.comb(den + u_size - 1 - i, u_size - 1 - i) - 1 for i in range(u_size)]
    rng = random.Random(cfg.seed * 1_000_003 + u_size * 101 + n_x)
    return n_rows, vertices, _randrange_draws(rng, n_rows, cfg.max_iterations * n_x)


def _randrange_draws(rng: random.Random, n: int, count: int) -> list:
    """``count`` calls of ``rng.randrange(n)``: its rejection loop over ``getrandbits``, run in C."""
    bits = map(rng.getrandbits, itertools.repeat(n.bit_length()))
    return list(itertools.islice(filter(n.__gt__, bits), count))


def _kernel_indices(n_x: int, u_size: int, cfg: SearchConfig, rows: list) -> Iterator[tuple]:
    """The kernels of guess alphabet ``u_size``, in search order, as ``(head, lasts)`` groups.

    A group holds the kernels ``(*head, k)`` for ``k`` in ``lasts``: ``n_x``
    indices into ``rows = _lattice_rows(u_size, cfg.resolution)``.  An
    exhaustive grid gives one kernel per relabelling orbit
    (:func:`_sorted_column_kernels`); the vertex product of a sampled grid
    follows ``itertools.product`` order, one group per head, and each
    seeded draw is a group of one.  Plain Python, for the integer scan.
    """
    _, vertices, draws = _grid_shape(n_x, u_size, cfg)
    if draws is None:
        yield from _sorted_column_kernels(n_x, rows)
    elif vertices is not None:
        yield from zip(itertools.product(vertices, repeat=n_x - 1), itertools.repeat(vertices))
    for start in range(n_x - 1, len(draws or ()), n_x):
        yield draws[start - n_x + 1 : start], draws[start : start + 1]


def _sorted_column_kernels(n_x: int, rows: list) -> Iterator[tuple]:
    """The grid's kernels with lexicographically non-decreasing columns, as groups.

    Losses are symmetric in the guesses, so permuting the columns keeps the
    level, and the sorted kernel is its orbit's first in ``itertools.product``
    order over the lexicographic ``rows``.  Walking the secrets, a row is
    admissible when it does not fall between two columns still tied.
    """
    int_rows, _ = _int_masses(rows)
    steps = [list(zip(row, row[1:])) for row in int_rows]
    admissible = {}  # (row index, ties after it) per tie pattern

    def walk(head: tuple, ties: tuple) -> Iterator[tuple]:
        if ties not in admissible:
            admissible[ties] = [
                (i, tuple(t and a == b for t, (a, b) in zip(ties, step)))
                for i, step in enumerate(steps)
                if all(a <= b for t, (a, b) in zip(ties, step) if t)
            ]
        if len(head) == n_x - 1:
            yield head, [i for i, _ in admissible[ties]]
        else:
            for i, after in admissible[ties]:
                yield from walk((*head, i), after)

    return walk((), (True,) * (len(rows[0]) - 1))


def _kernel_blocks(n_x: int, u_size: int, cfg: SearchConfig) -> Iterator[np.ndarray]:
    """The kernels of guess alphabet ``u_size``, in search order, as ``(K, n_x)`` numpy blocks.

    A whole exhaustive grid, or the sampled grid of :func:`_kernel_indices`.
    Exhaustive grids and the vertex product come in blocks of at most
    ``_BLOCK`` kernels: the digits of each flat kernel number in base
    ``len(lasts)``, read through ``lasts``.  For the float scan.
    """
    import numpy as np

    n_rows, vertices, draws = _grid_shape(n_x, u_size, cfg)
    lasts = range(n_rows) if draws is None else vertices
    if lasts is not None:
        values, n = np.asarray(lasts), len(lasts)
        place, total = n ** np.arange(n_x - 1, -1, -1), n**n_x
        for start in range(0, total, _BLOCK):
            flat = np.arange(start, min(start + _BLOCK, total))
            yield values[flat[:, None] // place % n]
    if draws is not None:
        yield np.array(draws).reshape(cfg.max_iterations, n_x)


def _iter_kernels(n_x: int, u_size: int, cfg: SearchConfig) -> Iterator[tuple]:
    """The rows of every kernel :func:`_kernel_blocks` gives: the whole grid, relabellings included."""
    rows = _lattice_rows(u_size, cfg.resolution)
    for block in _kernel_blocks(n_x, u_size, cfg):
        yield from (tuple(rows[i] for i in kernel) for kernel in block.tolist())


def _search(prior_w, post_w, cfg: SearchConfig, adversary, best, best_rows, skip: bool) -> tuple:
    """``(best level, its rows, (u, kernels visited, exhaustive) per alphabet)`` from ``best``.

    Scans each grid in Python ints when every weight is a ``Fraction``, never
    importing numpy, and otherwise in numpy blocks; ``skip`` scans none.
    """
    n_x = len(prior_w)
    exact = _all_fractions(prior_w, post_w)
    scan, loss = (_exact_scan, adversary[0]) if exact else (_float_scan, adversary[1])
    visited = []
    for u_size in range(2, cfg.max_u + 1):
        count = 0
        if not skip:
            rows = _lattice_rows(u_size, cfg.resolution)
            kernels = _kernel_indices(n_x, u_size, cfg, rows) if exact else _kernel_blocks(n_x, u_size, cfg)
            value, kernel = scan(prior_w, post_w, rows, kernels, loss)
            if value > best:
                best, best_rows = value, tuple(rows[i] for i in kernel)
            count = _grid_count(n_x, u_size, cfg)
        visited.append((u_size, count, _is_exhaustive(n_x, u_size, cfg)))
    return best, best_rows, tuple(visited)


@dataclass(frozen=True)
class OracleCertificate:
    """Closed form vs. brute force for one outcome, with the achieving kernel."""

    closed_form: ExtReal
    oracle_value: ExtReal
    witness: RandomizedFunction
    gap_nats: float
    #: One ``(u, kernels visited, exhaustive)`` triple per guess alphabet.  An
    #: exhaustive grid counts all of its kernels, every relabelling of the
    #: guesses included, although a rational scan evaluates one per orbit.
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
        gap = in_unit(self.gap_nats, unit)
        return {
            "closed_form": leakage.format_level(self.closed_form, unit),
            "oracle_value": leakage.format_level(self.oracle_value, unit),
            "witness_kernel": [[float(e) for e in row] for row in self.witness.rows],
            "gap": "inf" if gap == math.inf else gap,
            "dominance_ok": self.dominance_ok,
        }


def certify_pmc(joint: Joint, y: int, cfg: SearchConfig) -> OracleCertificate:
    """Run the grid search and report it against the closed form."""
    prior_w = joint.prior.weights
    post_w = joint.posterior(y)
    _check_budget(len(prior_w), cfg)

    # the one-guess kernel: 0/0 reads as ratio one; an infinite indicator ends the search
    best, best_rows = ZERO, tuple((Fraction(1),) for _ in prior_w)
    indicator = _support_indicator_rows(post_w)
    if indicator is not None:
        value = _lambda_from_rows(prior_w, post_w, indicator)
        if value > best:
            best, best_rows = value, indicator
    best, best_rows, visited = _search(
        prior_w, post_w, cfg, _ERROR, best, best_rows, skip=not best.is_finite
    )

    closed = leakage.pmc(joint, y)
    if closed.is_finite and best.is_finite:
        gap = closed.nats - best.nats
    elif closed.is_finite != best.is_finite:
        gap = math.inf
    else:
        gap = 0.0
    return OracleCertificate(closed, best, RandomizedFunction(best_rows), gap, visited)


def brute_force_guesswork_leakage(joint: Joint, y: int, cfg: SearchConfig) -> ExtReal:
    """Best guesswork leakage over the kernel grid; never exceeds the cost level.

    Convergence in the alphabet size is slow: realizing the full cost level
    needs guess alphabets far larger than any practical grid, so this oracle
    is a sanity lower bound, not a sharp one.
    """
    prior_w = joint.prior.weights
    post_w = joint.posterior(y)
    _check_budget(len(prior_w), cfg)
    return _search(prior_w, post_w, cfg, _GUESSWORK, ZERO, None, skip=False)[0]


# ---------------------------------------------------------------------------
# Achievability constructions
# ---------------------------------------------------------------------------


def achieving_kernel(joint: Joint, y: int) -> RandomizedFunction:
    """A two-guess kernel whose randomized-function leakage equals the cost level.

    The :func:`_binary_kernel` of the indicator of the first secret ``x*``
    with the largest prior to posterior ratio: its level is ``p(x*) /
    p(x* | y)``, the pointwise maximal cost, exactly on rational inputs.
    """
    prior_w = joint.prior.weights
    post_w = joint.posterior(y)
    if 0 in post_w:
        raise ValueError("cost level is infinite; no finite kernel achieves it")
    ratios = [p / q for p, q in zip(prior_w, post_w)]
    best_x = ratios.index(max(ratios))
    return RandomizedFunction(_binary_kernel([Fraction(x == best_x) for x in range(len(ratios))]))


def cost_from_kernel(kernel: Channel) -> CostFunction:
    """The cost table whose cost leakage matches the kernel's leakage exactly.

    Guessing wrong is the cost: one minus the kernel entry.  The optimal
    action then mirrors the modal guess, for every joint and outcome.
    """
    return CostFunction(tuple(tuple(1 - e for e in row) for row in kernel.rows))


def kernel_from_cost(cost: CostFunction, joint: Joint, y: int) -> RandomizedFunction:
    """A two-guess kernel whose randomized-function leakage equals the cost leakage.

    The :func:`_binary_kernel` of the mixture ``d * c_s + (1 - d) * c_t`` of
    the normalized cost columns of the best prior action ``s`` and the best
    posterior action ``t``.  Its level is the mixture's prior to posterior
    expected cost ratio, linear in ``d`` on both sides, so ``d`` solves for
    the target in closed form and in the inputs' own arithmetic: exact on
    rational inputs.  Infinite targets are met by the posterior-support
    indicator.
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
    s = min(range(n_w), key=prior_costs.__getitem__)
    t = min(range(n_w), key=post_costs.__getitem__)
    a_s, a_t, b_s, b_t = prior_costs[s], prior_costs[t], post_costs[s], post_costs[t]
    # (d a_s + (1-d) a_t) / (d b_s + (1-d) b_t) == a_s / b_t; both terms of
    # den are at most zero and num is one of them, so d lies in [0, 1]
    num = b_t * (a_s - a_t)
    den = num + a_s * (b_t - b_s)
    d = num / den if den else 1
    return RandomizedFunction(_binary_kernel([d * row[s] + (1 - d) * row[t] for row in table]))
