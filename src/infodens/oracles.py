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

An adversary is a pair of losses on a chunk of kernels, packed in big ints or
in one float block for prior and posterior.  One scan per backend evaluates a
single kernel and whole grids alike; :func:`_search` scans the plans of
:func:`_grids`, the one budget check, and :func:`_kernel_chunks` gives both
scans the same chunks in the same order: one kernel per relabelling orbit of
an exhaustive grid, built column by column, or a sampled grid's vertex
kernels and then its draws.
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
from functools import partial, reduce
from itertools import accumulate, chain, repeat
from operator import and_, eq, floordiv, le, mul, sub
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
#: alphabet size) of its lattice, the shape of a float scan's array.
_ENUMERATION_CAP = 2_000_000

#: A sampled grid also visits its vertex kernels when there are at most this many.
_VERTEX_CAP = 4096

#: Bounds both scans' batched step, and so their memory: a chunk is ``_BLOCK // rows`` kernel
#: groups, at least one, of at most ``rows`` kernels each, or the next ``_BLOCK`` draws.
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
        for name, least in (("resolution", 2), ("max_u", 2), ("max_iterations", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")


# ---------------------------------------------------------------------------
# Per-adversary evaluation
# ---------------------------------------------------------------------------


def _fields(packed: int, count: int, width: int, step: int = 1) -> list:
    """Every ``step``-th of the ``count`` fields of ``width`` bytes in ``packed``, lowest first."""
    data = packed.to_bytes(count * width, sys.byteorder)
    if width <= 8:
        return memoryview(data).cast({1: "B", 2: "H", 4: "I", 8: "Q"}[width])[::step].tolist()
    return [int.from_bytes(data[j : j + width], sys.byteorder) for j in range(0, len(data), step * width)]


def _min_max(a: int, b: int, high: int, bits: int) -> tuple:
    """Field-wise ``(min, max)`` of ``a`` and ``b``, fields of ``bits`` bits below their spare bits in ``high``:
    ``(a | high) - b`` borrows across no field and keeps the spare bit where ``a >= b``."""
    ge = ((a | high) - b) & high
    swap = (a ^ b) & (ge - (ge >> bits - 1))
    return a ^ swap, b ^ swap


def _packed_error(masses: int, count: int, u_size: int, width: int, one: int) -> list:
    """``one`` minus the modal mass of each kernel in ``masses``, a max fold over its fields.

    ``masses`` holds ``count`` fields of ``width`` bytes, ``u_size`` a kernel, each below its spare
    top bit: each step keeps every field's larger with the field ``step`` above (:func:`_min_max`),
    in spans that double to ``u_size``.
    """
    order, bits = sys.byteorder, 8 * width
    ones = int.from_bytes((1).to_bytes(width, order) * count, order)
    high, span = ones << bits - 1, 1
    while span < u_size:
        step = min(span, u_size - span)
        masses = _min_max(masses, masses >> step * bits, high, bits)[1]
        span += step
    return _fields(ones * one - masses, count, width, u_size)


def _block_error(masses: np.ndarray) -> np.ndarray:
    """One minus the modal mass of every row; the modal mass is an exact fold of ``np.maximum``."""
    import numpy as np

    return 1.0 - reduce(np.maximum, masses.T)


def _packed_guesswork(masses: int, count: int, u_size: int, width: int, one: int) -> list:
    """Least expected number of guesses of each kernel in ``masses`` (:func:`_packed_error`), unsorted.

    In decreasing order of mass, optimal (Massey, "Guessing and entropy", ISIT 1994), that is ``sum(m) +
    sum(min(m_i, m_j) for i < j)``: shift ``s`` adds each field's min with the field ``s`` above in its
    kernel (:func:`_min_max`), and a product sums each kernel into its lowest field."""
    order, bits = sys.byteorder, 8 * width
    high, acc = int.from_bytes((1 << bits - 1).to_bytes(width, order) * count, order), masses
    for s in range(1, u_size):
        inside = int.from_bytes((b"\xff" * (u_size - s) * width + bytes(s * width)) * (count // u_size), "little")
        acc += _min_max(masses, masses >> s * bits, high, bits)[0] & inside
    ones = int.from_bytes((1).to_bytes(width, order) * u_size, order)
    return _fields(acc * ones >> (u_size - 1) * bits, count, width, u_size)


def _block_guesswork(masses: np.ndarray) -> np.ndarray:
    """Every row's masses in decreasing order weighted by 1, 2, 3, ... (:func:`_packed_guesswork`); sorts ``masses``."""
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


def _exact_scan(prior_w, post_w, rows: dict, scale: int, chunks, loss) -> tuple:
    """Best level over the kernels of ``chunks`` (:func:`_kernel_chunks`), in integer arithmetic.

    ``rows`` maps each row index read to its int masses in units of ``1 / scale``; with int
    weights (:func:`_int_masses`), masses are in units of ``1 / one``.  SIMD within a register
    (Fisher and Dietz, LCPC 1998): each row is packed once, unweighted; a chunk joins each
    secret's rows into one int ``P_x`` (byte columns byte plane by byte plane, each one
    ``translate`` of the column), and ``sum(w_x * P_x)`` holds every kernel's masses, no field
    carrying.  Only zero losses take the branches of :func:`_error_ratio`.  Ratios whose
    denominators are at most ``sqrt(L)`` differ by ``1 / L`` if at all, so the first largest
    ``a * L // b`` is the first largest ``a / b``; chunks compare by cross-multiplication.
    Returns ``(best level, first kernel attaining it)``.
    """
    u_size = len(next(iter(rows.values())))
    (w_p, one_p), (w_q, one_q) = ((w, s * scale) for (w,), s in (_int_masses((prior_w,)), _int_masses((post_w,))))
    # the fewest power-of-two bytes holding h * one, one below a spare bit: guesswork sums u_size fields
    h = max(2, u_size) if loss is _packed_guesswork else 2
    width = 1 << (((h * max(one_p, one_q)).bit_length() - 1) // 8).bit_length()
    packed, size = _packed_rows(rows, width), u_size * width
    if (top := max(rows)) < 256:  # plane j: byte j of each row, zero where a row was not read
        table = b"".join(map(packed.get, range(top + 1), repeat(bytes(size))))
        planes = [table[j::size].ljust(256, b"\0") for j in range(size)]

    def gather(column) -> int:
        if not isinstance(column, bytes):
            return int.from_bytes(b"".join(map(packed.__getitem__, column)), sys.byteorder)
        buf = bytearray(len(column) * size)
        for j, plane in enumerate(planes):
            buf[j::size] = column.translate(plane)
        return int.from_bytes(buf, sys.byteorder)

    best = None
    for columns in chunks:
        joined = list(map(gather, columns))
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


def _block_masses(weights: np.ndarray, lattice: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Guess masses of every kernel of a chunk, ``(weightings, kernels, guesses)``.

    ``weights[x]`` is secret ``x``'s weights, ``(weightings, 1, 1)``, and ``columns[x]`` its row indices.
    The pushes accumulate secret by secret, left to right, the rounding of that explicit loop; ``take``
    gathers the lattice rows along the kernel axis, faster than fancy indexing.
    """
    acc = weights[0] * lattice.take(columns[0], axis=0)
    for x in range(1, len(weights)):
        acc += weights[x] * lattice.take(columns[x], axis=0)
    return acc


def _float_scan(prior_w, post_w, rows: dict, scale: int, chunks, block_loss) -> tuple:
    """Best level over the kernels of ``chunks`` (:func:`_kernel_chunks`), in floats.

    Numpy reads each chunk's columns as one index array; prior and posterior masses are one ``(2, K, u)``
    push, whose ``(2K, u)`` view takes one ``block_loss``, reducing each row alone, along no short axis.
    The lattice holds ``rows[i] / scale``, rounded once for int rows.  Losses below ``_FLOAT_ZERO`` read as
    exact zeros, the branches of :func:`_error_ratio` apply, a loss below ``-1e-9`` raises, and ``argmax``
    in a chunk and a strict ``>`` across chunks keep the first largest ratio.  Returns ``(level, kernel)``.
    """
    import numpy as np

    lattice = np.array(list(rows.values()), dtype=float) / scale
    if list(rows) != list(range(len(rows))):  # the rows a sampled grid reads, spread to their indices
        lattice, values = np.zeros((max(rows) + 1, lattice.shape[1])), lattice
        lattice[list(rows)] = values
    weights = np.array([prior_w, post_w], dtype=float).T[:, :, None, None]
    best = best_kernel = None
    for columns in chunks:
        block = np.frombuffer(b"".join(columns), memoryview(columns[0]).format).reshape(len(columns), -1)
        raw = block_loss(_block_masses(weights, lattice, block).reshape(-1, lattice.shape[1])).reshape(2, -1)
        if raw.min() < -1e-9:  # the first kernel with such a loss, its prior's before its posterior's
            k, x = divmod(int(np.argmax(raw.T < -1e-9)), 2)
            raise ValueError(f"guess masses exceed one: error {float(raw[x, k])!r}")
        live = raw >= _FLOAT_ZERO
        ratio = np.divide(raw[0], raw[1], out=np.where(live[0], np.inf, 1.0), where=live.all(axis=0))
        k = int(np.argmax(ratio))
        value = _error_ratio(*(0.0 if e < _FLOAT_ZERO else e for e in raw[:, k].tolist()))
        if best is None or value > best:
            best, best_kernel = value, [column[k] for column in columns]
    return best, best_kernel


def _lambda_from_rows(prior_w, post_w, kernel_rows, adversary=_ERROR) -> ExtReal:
    """One kernel's level: its backend's scan of a grid drawing just that kernel."""
    if len(kernel_rows) != len(prior_w):
        raise DimensionMismatch(f"kernel has {len(kernel_rows)} rows, prior has {len(prior_w)} outcomes")
    chunks = [[array("L", (x,)) for x in range(len(kernel_rows))]]
    if _all_fractions(prior_w, post_w, *kernel_rows):
        ints, scale = _int_masses(kernel_rows)
        return _exact_scan(prior_w, post_w, dict(enumerate(ints)), scale, chunks, adversary[0])[0]
    return _float_scan(prior_w, post_w, dict(enumerate(kernel_rows)), 1, chunks, adversary[1])[0]


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

    Column by column: the prefix sums of a row's first ``n_cols - 1`` numerators, non-decreasing, come in
    lexicographic order from :func:`itertools.combinations_with_replacement`; a row is their differences.
    """
    if n_cols == 1:
        return [(den,)]
    sums = list(zip(*itertools.combinations_with_replacement(range(den + 1), n_cols - 1)))
    return list(zip(sums[0], *map(map, repeat(sub), sums[1:], sums), map(den.__sub__, sums[-1])))


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


def _grid(n_x: int, u_size: int, cfg: SearchConfig) -> tuple:
    """One guess alphabet's plan: ``(lattice rows, vertex row indices or None, kernels visited, exhaustive)``.

    An exhaustive grid visits all of its kernels, though the scans evaluate one per relabelling
    orbit; a sampled grid visits ``max_iterations`` draws (:func:`_grid_draws`) after its vertex
    kernels, when there are at most ``_VERTEX_CAP``.  Raises :class:`BudgetExceeded` when the lattice
    would hold more than ``_ENUMERATION_CAP`` entries (rows times alphabet size) or the grid would
    visit more kernels.  The enumerators below rely on this check having passed.
    """
    n_rows, exhaustive = math.comb(cfg.resolution - 2 + u_size, u_size - 1), n_x * u_size <= cfg.exhaustive_limit
    kind = "exhaustive" if exhaustive else "sampled"
    if (n_entries := n_rows * u_size) > _ENUMERATION_CAP:
        raise BudgetExceeded(f"{kind} grid would build {n_entries} lattice entries")
    vertices, count = None, n_rows**n_x if exhaustive else cfg.max_iterations
    if not exhaustive and u_size**n_x <= _VERTEX_CAP:
        # the corner with all mass on guess i is preceded, in lexicographic
        # order, by every composition of den whose first i parts are zero
        den = cfg.resolution - 1
        vertices = [math.comb(den + u_size - 1 - i, u_size - 1 - i) - 1 for i in range(u_size)]
        count += u_size**n_x
    if count > _ENUMERATION_CAP:
        raise BudgetExceeded(f"{kind} grid would visit {count} kernels")
    return n_rows, vertices, count, exhaustive


def _grids(n_x: int, cfg: SearchConfig) -> list:
    """``(u, *plan)`` per guess alphabet (:func:`_grid`): the one budget check, before any work."""
    return [(u_size, *_grid(n_x, u_size, cfg)) for u_size in range(2, cfg.max_u + 1)]


def _grid_draws(n_x: int, u_size: int, n_rows: int, cfg: SearchConfig) -> Sequence[int]:
    """A sampled grid's ``max_iterations`` seeded draws of ``n_x`` row indices, one :func:`_randrange_draws` buffer."""
    rng = random.Random(cfg.seed * 1_000_003 + u_size * 101 + n_x)
    return _randrange_draws(rng, n_rows, cfg.max_iterations * n_x)


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
    """The grid's kernels with lexicographically non-decreasing columns, as groups ``(head, lasts)``.

    Losses are symmetric in the guesses, in floats bit for bit: each column's
    mass is pushed in the same order, and neither ``np.maximum`` nor the
    guesswork sort rounds.  So the sorted kernel, its orbit's first in
    ``itertools.product`` order over the lexicographic integer ``int_rows``,
    is the first to attain its level.  Walking the secrets depth first, a row
    is admissible when it does not fall between two columns still tied; bit
    ``j`` of a tie mask stands for columns ``j`` and ``j + 1``.  Steps are
    compared column by column, each tie mask's rows and children found once.
    """
    columns, n_rows = list(zip(*int_rows)), len(int_rows)
    steps, bits = list(zip(columns, columns[1:])), [1 << j for j in range(len(columns) - 1)]
    up = [int.from_bytes(bytes(map(le, a, b)), "big") for a, b in steps]  # step j: byte i is row i's ``<=``
    equal = list(zip(*(bytes(map(eq, a, b)) for a, b in steps)))  # row i: 1 per step it ties
    every, admissible = int.from_bytes(b"\1" * n_rows, "big"), {}  # tie mask: [lasts, ties, children]

    def entry(ties: int) -> list:
        if ties not in admissible:
            keep = reduce(and_, itertools.compress(up, map(ties.__and__, bits)), every).to_bytes(n_rows, "big")
            admissible[ties] = [list(itertools.compress(range(n_rows), keep)), ties, None]
        return admissible[ties]

    stack = [((), entry(sum(bits)))]
    while stack:
        head, node = stack.pop()
        if len(head) == n_x - 1:  # one secret: the root is the only group
            yield head, node[0]
            continue
        if node[2] is None:  # ((row index,), entry of the ties after it) per admissible row
            node[2] = [((i,), entry(node[1] & sum(itertools.compress(bits, equal[i])))) for i in node[0]]
        if len(head) < n_x - 2:
            stack += [(head + i, child) for i, child in reversed(node[2])]
        else:  # the last secret's groups, straight from their entries
            for i, child in node[2]:
                yield head + i, child[0]


def _iter_kernels(n_x: int, u_size: int, cfg: SearchConfig) -> Iterator[tuple]:
    """The rows of every kernel of the whole grid, relabellings included, in product order."""
    return itertools.product(_lattice_rows(u_size, cfg.resolution), repeat=n_x)


def _kernel_chunks(groups, n_rows: int, draws: Sequence[int], n_x: int, pack) -> Iterator[list]:
    """A grid's kernels, chunk by chunk, each chunk ``n_x`` columns of row indices, one per secret.

    First ``_BLOCK // n_rows`` groups at a time, at least one, then the next ``_BLOCK`` draws.  A chunk's
    heads are one join, each packed head once per last, whose every ``n_x - 1``-th index is a column,
    like a block of draws; ``pack`` gives the draws' buffer type, from ints or the join's raw bytes.
    """
    groups = iter(groups)
    while chunk := list(itertools.islice(groups, max(1, _BLOCK // n_rows))):
        heads, lasts = zip(*chunk)
        rows = pack(b"".join(map(mul, map(pack, heads), map(len, lasts))))
        yield [*(rows[x :: n_x - 1] for x in range(n_x - 1)), pack(chain.from_iterable(lasts))]
    for start in range(0, len(draws), _BLOCK * n_x):
        block = draws[start : start + _BLOCK * n_x]
        yield [block[x::n_x] for x in range(n_x)]


def _search(prior_w, post_w, grids: list, cfg: SearchConfig, adversary) -> tuple:
    """``(best level, its rows)``, the first largest over the plans of :func:`_grids`.

    Scans each grid in Python ints when every weight is a ``Fraction``, never
    importing numpy, and otherwise in numpy blocks.
    """
    n_x = len(prior_w)
    exact = _all_fractions(prior_w, post_w)
    scan, loss = (_exact_scan, adversary[0]) if exact else (_float_scan, adversary[1])
    den = cfg.resolution - 1
    best = best_rows = None
    for u_size, n_rows, vertices, _, exhaustive in grids:
        draws = None if exhaustive else _grid_draws(n_x, u_size, n_rows, cfg)
        # every column one buffer type, that of the draws: bytes below 256 rows
        pack = bytes if n_rows.bit_length() <= 8 else partial(array, "L")
        # int numerators over den, keyed by lattice index: a sampled grid unranks
        # the rows it reads, but a float scan takes a lattice no larger than its draws whole
        if draws is None or (not exact and n_rows <= len(draws)):
            rows = dict(enumerate(_lattice_ints(u_size, den)))
        else:  # one memchr per row finds the rows that byte draws read
            sizes = _lattice_sizes(u_size, den)
            read = filter(draws.__contains__, range(n_rows)) if isinstance(draws, bytes) else draws
            rows = {i: _unrank(i, u_size, den, sizes) for i in {*(vertices or ()), *read}}
        # an exhaustive grid is scanned one kernel per relabelling orbit
        groups = _sorted_column_kernels(n_x, list(rows.values())) if draws is None else ()
        if vertices:  # a sampled grid's vertex kernels head its draws
            draws = pack(chain.from_iterable(itertools.product(vertices, repeat=n_x))) + draws
        chunks = _kernel_chunks(groups, n_rows, draws or (), n_x, pack)
        value, kernel = scan(prior_w, post_w, rows, den, chunks, loss)
        if best is None or value > best:
            best, best_rows = value, tuple(tuple(Fraction(e, den) for e in rows[i]) for i in kernel)
    return best, best_rows


@dataclass(frozen=True)
class OracleCertificate:
    """Closed form vs. brute force for one outcome, with the achieving kernel."""

    closed_form: ExtReal
    oracle_value: ExtReal
    witness: RandomizedFunction
    gap_nats: float
    #: One ``(u, kernels visited, exhaustive)`` triple per guess alphabet.  An
    #: exhaustive grid counts all of its kernels, every relabelling of the
    #: guesses included, although both scans evaluate one per orbit.  Visits
    #: read 0 when the support indicator already certifies an infinite level.
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
    grids = _grids(len(prior_w), cfg)

    # the one-guess kernel: 0/0 reads as ratio one; an infinite indicator ends the search
    best, best_rows = ZERO, tuple((Fraction(1),) for _ in prior_w)
    indicator = _support_indicator_rows(post_w)
    if indicator is not None:
        value = _lambda_from_rows(prior_w, post_w, indicator)
        if value > best:
            best, best_rows = value, indicator
    scanned = best.is_finite
    if scanned:
        value, rows = _search(prior_w, post_w, grids, cfg, _ERROR)
        if value > best:
            best, best_rows = value, rows
    visited = tuple((u_size, count if scanned else 0, exhaustive) for u_size, _, _, count, exhaustive in grids)

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
    return max(ZERO, _search(prior_w, post_w, _grids(len(prior_w), cfg), cfg, _GUESSWORK)[0])


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
