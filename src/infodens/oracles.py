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

An adversary is a pair of losses on a chunk of kernels, packed in big ints
or in a float block.  One scan per backend evaluates a single kernel and
whole grids alike; :func:`_search` is the one loop over the guess alphabets
giving both scans the same kernels in the same order: one per relabelling
orbit of an exhaustive grid, or a sampled grid's vertex kernels and then its
draws.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, repeat
from operator import floordiv, mul
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from . import leakage
from .errors import AllInfinitePrior, BudgetExceeded, DimensionMismatch, NormalizationDegenerate
from .probcore import INF, ZERO, Channel, ExtReal, Joint, Number, _int_masses, in_unit

if TYPE_CHECKING:
    import numpy as np

#: Float error probabilities at or below this are treated as exact zeros when
#: applying the 0/0 = 1 convention; the rational backend needs no such guard.
_FLOAT_ZERO = 1e-13

#: Hard cap on the kernels one guess alphabet visits, and on the entries (rows times
#: alphabet size) of a sampled grid's lattice, the shape of a float scan's array.
_ENUMERATION_CAP = 2_000_000

#: A sampled grid also visits its vertex kernels when there are at most this many.
_VERTEX_CAP = 4096

#: Bounds a scan's batched step, and so its memory: ``_BLOCK // rows`` kernel groups, at
#: least one, of at most ``rows`` kernels each, or an integer scan's next ``_BLOCK`` draws.
_BLOCK = 1 << 12


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


def _fields(packed: int, count: int, width: int, step: int = 1) -> list:
    """Every ``step``-th of the ``count`` fields of ``width`` bytes in ``packed``, lowest first."""
    data = packed.to_bytes(count * width, sys.byteorder)
    if width <= 8:
        return memoryview(data).cast({1: "B", 2: "H", 4: "I", 8: "Q"}[width])[::step].tolist()
    return [int.from_bytes(data[j : j + width], sys.byteorder) for j in range(0, len(data), step * width)]


def _packed_error(masses: int, count: int, u_size: int, width: int, one: int) -> list:
    """``one`` minus the modal mass of each kernel in ``masses``, a max fold over its fields.

    ``masses`` holds ``count`` fields of ``width`` bytes, ``u_size`` a kernel,
    each below its spare top bit ``h``.  ``(a | h) - b`` borrows across no
    field and keeps ``h`` where ``a >= b``: each step keeps every field's
    larger with the field ``step`` above, in spans that double to ``u_size``.
    """
    order, bits = sys.byteorder, 8 * width
    ones = int.from_bytes((1).to_bytes(width, order) * count, order)
    high, span = ones << bits - 1, 1
    while span < u_size:
        step = min(span, u_size - span)
        above = masses >> step * bits
        ge = ((masses | high) - above) & high
        masses = above ^ ((masses ^ above) & (ge - (ge >> bits - 1)))
        span += step
    return _fields(ones * one - masses, count, width, u_size)


def _block_error(masses: np.ndarray) -> np.ndarray:
    """One minus the modal mass of every row; the modal mass is an exact fold of ``np.maximum``."""
    import numpy as np

    return 1.0 - reduce(np.maximum, masses.T)


def _min_guesswork(masses: Sequence[Number]) -> Number:
    """Smallest expected number of sequential guesses.

    Guessing in order of decreasing mass is optimal (Massey, "Guessing and
    entropy", ISIT 1994).
    """
    return sum((i + 1) * m for i, m in enumerate(sorted(masses, reverse=True)))


def _packed_guesswork(masses: int, count: int, u_size: int, width: int, one: int) -> list:
    """:func:`_min_guesswork` of each kernel in ``masses`` (:func:`_packed_error`); ``one`` is unused."""
    return list(map(_min_guesswork, zip(*[iter(_fields(masses, count, width))] * u_size)))


def _block_guesswork(masses: np.ndarray) -> np.ndarray:
    """:func:`_min_guesswork` of every row, summed in the same order; sorts ``masses``."""
    masses.sort(axis=1)
    acc = masses[:, -1]
    for i in range(1, masses.shape[1]):
        acc = acc + (i + 1) * masses[:, -1 - i]
    return acc


#: An adversary: its loss on packed int masses and on a float block's masses.
_ERROR = (_packed_error, _block_error)
_GUESSWORK = (_packed_guesswork, _block_guesswork)


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


def _packed_rows(rows: dict, width: int) -> dict:
    """Each row's ints as fields of ``width`` bytes, lowest first, keyed by row index."""
    return {i: b"".join(map(int.to_bytes, row, repeat(width), repeat(sys.byteorder))) for i, row in rows.items()}


def _exact_scan(prior_w, post_w, rows: dict, scale: int, groups, draws: Sequence[int], loss) -> tuple:
    """Best level over the kernels of ``groups`` and then ``draws``, in integer arithmetic.

    ``rows`` maps each row index read to its int masses in units of ``1 /
    scale``; with int weights (:func:`_int_masses`), masses are in units of
    ``1 / one``.  SIMD within a register (Fisher and Dietz, LCPC 1998): each
    row is packed once, unweighted, with a spare bit above both ``one``s; a
    chunk joins each secret's rows into one int ``P_x``, and ``sum(w_x *
    P_x)`` holds every kernel's masses, no field carrying.  Only zero losses
    take the branches of :func:`_error_ratio`.  Ratios whose denominators are
    at most ``sqrt(L)`` differ by ``1 / L`` if at all, so the first largest
    ``a * L // b`` is the first largest ``a / b``; chunks compare by
    cross-multiplication.  Returns ``(best level, first kernel attaining it)``.
    """
    n_x, u_size = len(prior_w), len(next(iter(rows.values())))
    (w_p, one_p), (w_q, one_q) = ((w, s * scale) for (w,), s in (_int_masses((prior_w,)), _int_masses((post_w,))))
    # the fewest power-of-two bytes that hold a mass below a spare bit
    width = 1 << (max(one_p, one_q).bit_length() // 8).bit_length()
    packed, groups = _packed_rows(rows, width), iter(groups)

    def chunks() -> Iterator[list]:
        """Each chunk's row indices, one column per secret."""
        while chunk := list(itertools.islice(groups, max(1, _BLOCK // len(rows)))):
            heads, lasts = zip(*chunk)
            counts = list(map(len, lasts))
            heads = (list(chain.from_iterable(map(repeat, c, counts))) for c in zip(*heads))
            yield [*heads, list(chain.from_iterable(lasts))]
        for start in range(0, len(draws), _BLOCK * n_x):
            block = draws[start : start + _BLOCK * n_x]
            yield [block[x::n_x] for x in range(n_x)]

    best = None
    for columns in chunks():
        joined = [int.from_bytes(b"".join(map(packed.__getitem__, c)), sys.byteorder) for c in columns]
        count = len(columns[0]) * u_size
        a, b = (loss(sum(map(mul, w, joined)), count, u_size, width, one) for w, one in ((w_p, one_p), (w_q, one_q)))
        k = -1
        for _ in range(a.count(0)):
            k = a.index(0, k + 1)
            if b[k]:
                raise ValueError("prior error vanished while posterior error did not")
            a[k], b[k] = one_p, one_q  # 0/0 reads as ratio one
        if 0 in b:
            k = b.index(0)  # the first infinite level
        else:
            keys = list(map(floordiv, map(mul, a, repeat(max(b) ** 2)), b))
            k = keys.index(max(keys))
        # (a, 0) is the infinite level: it beats every finite one and ties itself
        if best is None or a[k] * best[1] > best[0] * b[k]:
            best = a[k], b[k], tuple(column[k] for column in columns)
    return _error_ratio(Fraction(best[0], one_p), Fraction(best[1], one_q)), best[2]


def _block_masses(weights: Sequence, lattice: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Guess masses of every kernel in ``block``, one row per kernel.

    The pushes accumulate secret by secret, left to right, so every kernel's
    float masses carry the rounding of that explicit loop.  ``take`` gathers
    each secret's lattice rows along the kernel axis, faster than fancy indexing.
    """
    acc = weights[0] * lattice.take(block[:, 0], axis=0)
    for x in range(1, len(weights)):
        acc = acc + weights[x] * lattice.take(block[:, x], axis=0)
    return acc


def _float_scan(prior_w, post_w, rows: dict, scale: int, groups, draws: Sequence[int], block_loss) -> tuple:
    """Best level over the kernels of ``groups`` and then ``draws``, in floats.

    Takes :func:`_exact_scan`'s grid as ``(K, n_x)`` blocks of row indices:
    each chunk of ``_BLOCK // len(rows)`` groups, at least one, with each head
    repeated once per last, then the draws, a buffer that numpy views whole.
    Masses are ``(K, u)``: no numpy reduction or fancy gather runs along the
    short guess axis.  The lattice holds ``rows[i] / scale`` at row index
    ``i``, rounded once for int rows.  Losses below ``_FLOAT_ZERO`` read as
    exact zeros, the branches of :func:`_error_ratio` apply, and a loss below
    ``-1e-9`` raises for the first kernel that has one.  Returns ``(best
    level, first kernel attaining it)`` like :func:`_exact_scan`.
    """
    import numpy as np

    n_x, groups, per_chunk = len(prior_w), iter(groups), max(1, _BLOCK // len(rows))

    def blocks() -> Iterator[np.ndarray]:
        while chunk := list(itertools.islice(groups, per_chunk)):
            heads, lasts = zip(*chunk)
            counts = list(map(len, lasts))
            block = np.empty((sum(counts), n_x), np.intp)
            heads = np.fromiter(chain.from_iterable(heads), np.intp, len(chunk) * (n_x - 1))
            block[:, :-1] = np.repeat(heads.reshape(len(chunk), n_x - 1), counts, axis=0)
            block[:, -1] = np.fromiter(chain.from_iterable(lasts), np.intp, len(block))
            yield block
        if draws:
            yield np.asarray(memoryview(draws)).reshape(-1, n_x)

    lattice = np.zeros((max(rows) + 1, len(next(iter(rows.values())))))
    lattice[list(rows)] = np.array(list(rows.values()), dtype=float) / scale
    p = [float(w) for w in prior_w]
    q = [float(w) for w in post_w]
    best = best_kernel = None
    for block in blocks():
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
    """One kernel's level: its backend's scan of a grid drawing just that kernel."""
    if len(kernel_rows) != len(prior_w):
        raise DimensionMismatch(f"kernel has {len(kernel_rows)} rows, prior has {len(prior_w)} outcomes")
    draws = array("L", range(len(kernel_rows)))
    if _all_fractions(prior_w, post_w, *kernel_rows):
        ints, scale = _int_masses(kernel_rows)
        return _exact_scan(prior_w, post_w, dict(enumerate(ints)), scale, (), draws, adversary[0])[0]
    return _float_scan(prior_w, post_w, dict(enumerate(kernel_rows)), 1, (), draws, adversary[1])[0]


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


def _lattice_ints(n_cols: int, den: int) -> list:
    """Every row of ``n_cols`` non-negative integers summing to ``den``, in lexicographic order.

    Stars and bars: each row is a placement of ``n_cols - 1`` bars among
    ``den + n_cols - 1`` slots, whose gaps are the row's numerators, and
    :func:`itertools.combinations` gives the rows in lexicographic order.
    """
    slots = den + n_cols - 1
    return [
        tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, slots)))
        for bars in itertools.combinations(range(slots), n_cols - 1)
    ]


def _lattice_rows(n_cols: int, resolution: int) -> list:
    """The rows of :func:`_lattice_ints` over ``resolution - 1`` as ``Fraction`` rows."""
    return [tuple(Fraction(c, resolution - 1) for c in row) for row in _lattice_ints(n_cols, resolution - 1)]


def _lattice_sizes(n_cols: int, den: int) -> list:
    """``sizes[k][d]``: ``comb(d + k - 1, k - 1)`` rows of ``k <= n_cols`` numerators sum to ``d <= den``."""
    return list(accumulate(range(n_cols), lambda row, _: list(accumulate(row)), initial=[1] + [0] * den))


def _unrank(index: int, n_cols: int, den: int, sizes: Optional[list] = None) -> tuple:
    """Row ``index`` of :func:`_lattice_ints`, built alone; ``sizes`` is :func:`_lattice_sizes`.

    Of the rows of ``k`` numerators summing to ``den``, ``sizes[k][den - c]`` start with ``c`` or
    more: the row with ``left`` rows from it to the last starts with ``den - j``, ``j`` the least
    with ``sizes[k][j] >= left``.
    """
    row = []
    for table in (sizes or _lattice_sizes(n_cols, den))[n_cols:1:-1]:
        left = table[den] - index
        j = bisect_left(table, left, 0, den)
        row.append(den - j)
        index, den = table[j] - left, j
    return (*row, den)


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
    """Kernels visited: a whole exhaustive grid, though the scans evaluate one
    per relabelling orbit, or the vertices plus the draws of a sampled one."""
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
    seeded draws of ``n_x`` row indices each, one :func:`_randrange_draws` buffer.
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


def _randrange_draws(rng: random.Random, n: int, count: int) -> Sequence[int]:
    """``count`` calls of ``rng.randrange(n)`` as a buffer of unsigned ints, ``rng`` left as after them.

    Each call draws ``getrandbits(n.bit_length())``, the top bits of one 32-bit word, until one is
    below ``n``.  Below 256 rows a round reads one word per draw still needed, so none past the last,
    as one ``getrandbits(32 * m)``, least significant first; one ``bytes.translate`` shifts each top
    byte down and drops those at or above ``n``.  Wider draws take one call each, in C.
    """
    k = n.bit_length()
    if k > 8:
        return array("L", itertools.islice(filter(n.__gt__, map(rng.getrandbits, repeat(k))), count))
    table, rejected = bytes(b >> 8 - k for b in range(256)), bytes(range(n << 8 - k, 256))
    draws = b""
    while m := count - len(draws):
        draws += rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4].translate(table, rejected)
    return draws


def _sorted_column_kernels(n_x: int, int_rows: list) -> Iterator[tuple]:
    """The grid's kernels with lexicographically non-decreasing columns, as groups.

    Losses are symmetric in the guesses, in floats bit for bit: each column's
    mass is pushed in the same order, and neither ``np.maximum`` nor the
    guesswork sort rounds.  So the sorted kernel, its orbit's first in
    ``itertools.product`` order over the lexicographic integer ``int_rows``,
    is the first to attain its level.  Walking the secrets depth first, a row
    is admissible when it does not fall between two columns still tied.  Bit
    ``j`` of a tie mask, and of a row's two step masks (non-decreasing and
    equal), stands for columns ``j`` and ``j + 1``.
    """
    steps = []
    for row in int_rows:
        up = equal = 0
        for j in range(len(row) - 1):
            up |= (row[j] <= row[j + 1]) << j
            equal |= (row[j] == row[j + 1]) << j
        steps.append((up, equal))
    admissible = {}  # tie mask: (row indices, ((row index,), ties after it) in reverse)
    stack = [((), (1 << (len(int_rows[0]) - 1)) - 1)]
    while stack:
        head, ties = stack.pop()
        entry = admissible.get(ties)
        if entry is None:
            pairs = [(i, ties & equal) for i, (up, equal) in enumerate(steps) if ties & up == ties]
            entry = admissible[ties] = [i for i, _ in pairs], [((i,), after) for i, after in reversed(pairs)]
        if len(head) == n_x - 1:
            yield head, entry[0]
        else:
            stack += [(head + i, after) for i, after in entry[1]]


def _iter_kernels(n_x: int, u_size: int, cfg: SearchConfig) -> Iterator[tuple]:
    """The rows of every kernel of the whole grid, relabellings included, in product order."""
    return itertools.product(_lattice_rows(u_size, cfg.resolution), repeat=n_x)


def _search(prior_w, post_w, cfg: SearchConfig, adversary, best, best_rows, skip: bool) -> tuple:
    """``(best level, its rows, (u, kernels visited, exhaustive) per alphabet)`` from ``best``.

    Scans each grid in Python ints when every weight is a ``Fraction``, never
    importing numpy, and otherwise in numpy blocks; ``skip`` scans none.
    """
    n_x = len(prior_w)
    exact = _all_fractions(prior_w, post_w)
    scan, loss = (_exact_scan, adversary[0]) if exact else (_float_scan, adversary[1])
    den = cfg.resolution - 1
    visited = []
    for u_size in range(2, cfg.max_u + 1):
        count = 0
        if not skip:
            n_rows, vertices, draws = _grid_shape(n_x, u_size, cfg)
            # int numerators over den, keyed by lattice index: a sampled grid unranks
            # the rows it reads, but a float scan takes a lattice no larger than its draws whole
            if draws is None or (not exact and n_rows <= len(draws)):
                rows = dict(enumerate(_lattice_ints(u_size, den)))
            else:
                sizes = _lattice_sizes(u_size, den)
                rows = {i: _unrank(i, u_size, den, sizes) for i in {*(vertices or ()), *draws}}
            # an exhaustive grid is scanned one kernel per relabelling orbit
            groups = _sorted_column_kernels(n_x, list(rows.values())) if draws is None else ()
            if vertices:  # a sampled grid's vertex kernels head its draws, in the draws' own buffer
                head = chain.from_iterable(itertools.product(vertices, repeat=n_x))
                draws = bytes(head) + draws if isinstance(draws, bytes) else array("L", head) + draws
            value, kernel = scan(prior_w, post_w, rows, den, groups, draws or (), loss)
            if value > best:
                best, best_rows = value, tuple(tuple(Fraction(e, den) for e in rows[i]) for i in kernel)
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
    #: guesses included, although both scans evaluate one per orbit.
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
