"""Constructors and analytic cost evaluators for standard privacy mechanisms.

Finite mechanisms (randomized response and the leakage-optimal high-privacy
channel) are built exactly when their parameters are rational, so measured
levels can be compared against the closed forms with exact equality.

The continuous families (Laplace-noised sample mean, Gaussian perturbation
of a bounded value) evaluate the pointwise cost through the density identity
``log f_Y(y) / inf_x f_{Y|X=x}(y)``; for log-concave noise the infimum sits
at a support endpoint, which the closed forms and the integrals use.  Each
density of an interior Laplace level of n uniform points is one fixed rule:
16 Gauss-Legendre nodes on each piece of the Irwin-Hall density of their
mean, a cardinal B-spline from the Cox-de Boor recursion, with the pieces
split at the noise's kink and graded towards it.  The Gaussian level and tail
mass of a uniform law are closed forms in the normal CDF and the scaled
complementary error function, built on ``math.erf`` and ``math.erfc``.  The
density of a custom law's level takes the same 16-node rule on the same graded
cuts, with each panel halved until it agrees with the sum over its halves.

Mechanism documents, the JSON format the CLI reads, are parsed in
:mod:`infodens.documents`, which loads this module only for a ``family``
document; the parser's public functions are re-exported here.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Optional, Sequence, Tuple

from .documents import coerce_probability, joint_from_doc, parse_mechanism_doc  # noqa: F401
from .errors import (
    CgfUnavailable,
    DimensionMismatch,
    InvalidAlphabet,
    OutsideHighPrivacy,
    QuadratureFailure,
)
from .probcore import ExtReal, Channel, Number, Pmf, _Frozen, as_level

#: Relative split target, panel cap and accepted relative error of the density quadrature of custom laws.
_QUAD_SPLIT_REL, _QUAD_MAX_PANELS, _QUAD_ACCEPT_REL = 1e-13, 1000, 1e-6
#: Gaussian windows 2A/sigma at or below this integrate levels under a nat,
#: which the normal-CDF form would cancel away.
_NARROW_WINDOW = 0.4
#: Largest n whose interior Laplace level is integrated; each density has n spline pieces.
_MAX_SPLINE_ORDER = 128


@functools.cache
def _legendre_rule(count: int) -> tuple:
    """The ``count``-node Gauss-Legendre ``(nodes, weights)`` on [-1, 1], solved for on first use."""
    import numpy as np

    return np.polynomial.legendre.leggauss(count)


def _cardinal_bspline(offsets, k: int):
    """``M_k(t + j)`` for offsets t in [0, 1] (rows) and pieces j < k (columns), by the Cox-de Boor
    recursion: its terms are non-negative, where the truncated-power sum would cancel at large k."""
    import numpy as np

    x, table = offsets[:, None] + np.arange(k), np.zeros((len(offsets), k + 1))
    table[:, 1] = 1.0  # M_1; column 0 is the zero piece below 0
    for m in range(2, k + 1):  # M_m(x) = (x M_{m-1}(x) + (m - x) M_{m-1}(x - 1)) / (m - 1)
        table[:, 1 : m + 1] = (x[:, :m] * table[:, 1 : m + 1] + (m - x[:, :m]) * table[:, :m]) / (m - 1)
    return table[:, 1:]


def _graded_cuts(lo: float, hi: float, centre: float, scale: float) -> list:
    """Sorted cuts in [lo, hi] graded towards ``centre`` for a kernel of width ``scale``: both ends, the
    centre and c +- scale 2^i, c the centre clamped into [lo, hi], out to 1024 scale.  Beyond that, a
    log-concave integrand whose peak is within 127 scales of c is below e^-780 of the peak."""
    c, cuts, step = min(max(centre, lo), hi), {lo, centre, hi}, scale
    while step < min(hi - lo, 2048.0 * scale):
        cuts.update((c - step, c + step))
        step *= 2.0
    return sorted(cut for cut in cuts if lo <= cut <= hi)


def _ndtr(x: float) -> float:
    """Phi(x), the standard normal CDF, split as cephes does: erf near 0, erfc beyond."""
    z = x * math.sqrt(0.5)
    if abs(z) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(z)
    return 0.5 * math.erfc(-z) if z < 0.0 else 1.0 - 0.5 * math.erfc(z)


def _erfcx(x: float) -> float:
    """``e^(x^2) erfc(x)`` for x >= 0: below 26 with x^2 split exactly into hi + lo (Dekker 1971),
    beyond by seven terms of the asymptotic series (A&S 7.1.23), divided last by x to stay finite."""
    if x < 26.0:
        head = (c := 134217729.0 * x) - (c - x)  # x's upper 26 bits; 2^27 + 1 is Veltkamp's factor
        hi, tail = x * x, x - head
        return math.exp(hi) * math.erfc(x) * (1.0 + ((head * head - hi) + 2.0 * head * tail + tail * tail))
    q = 0.5 / x / x  # the sum over m < 7 of (-1)^m (2m - 1)!! q^m, by Horner
    total = 1.0 - q * (1.0 - q * (3.0 - q * (15.0 - q * (105.0 - q * (945.0 - q * 10395.0)))))
    return total * (1.0 / math.sqrt(math.pi)) / x


# ---------------------------------------------------------------------------
# Finite mechanisms
# ---------------------------------------------------------------------------


def randomized_response(n: int, eps_r) -> Channel:
    """The n-ary randomized response channel with log-likelihood gap ``eps_r``.

    Keeps the input with probability ``e^eps_r / (n - 1 + e^eps_r)`` and
    flips to each other symbol uniformly; satisfies LDP at exactly ``eps_r``.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InvalidAlphabet(f"randomized response needs an integer n >= 2, got {n!r}")
    r = as_level(eps_r).ratio
    if r == math.inf:
        raise ValueError("eps_r must be finite")
    denom = n - 1 + r
    diag = r / denom
    off = 1 / denom
    return Channel(tuple(tuple(diag if i == j else off for j in range(n)) for i in range(n)))


def randomized_response_pmc(n: int, eps_r, prior: Pmf) -> ExtReal:
    """Worst-outcome cost level of randomized response under ``prior``.

    ``log(1 + max_j P(j) (e^eps_r - 1))``; never exceeds ``eps_r`` and
    approaches it as the largest prior mass approaches one.
    """
    if len(prior) != n:
        raise DimensionMismatch(f"prior has {len(prior)} outcomes, expected {n}")
    r = as_level(eps_r).ratio
    if r == math.inf:
        raise ValueError("eps_r must be finite")
    return ExtReal.from_ratio(1 + max(prior.weights) * (r - 1))


def _high_privacy_ratio(prior: Pmf, eps_u) -> Number:
    """``e^eps_u``, checked to lie strictly inside the high-privacy regime."""
    r = as_level(eps_u).ratio
    if r == math.inf or r * (1 - prior.p_min) >= 1:
        raise OutsideHighPrivacy(
            f"eps_u must stay below log 1/(1 - p_min) = {-math.log1p(-float(prior.p_min))!r}"
        )
    return r


def extremal_mechanism(prior: Pmf, eps_u) -> Channel:
    """The leakage-optimal channel in the high-privacy regime.

    Diagonal ``1 - e^eps_u (1 - P(i))``, off-diagonal ``e^eps_u P(j)``; its
    output marginal reproduces the prior and its leakage level is exactly
    ``eps_u``.  Only defined strictly below ``log 1/(1 - p_min)``, where all
    entries stay positive.
    """
    r = _high_privacy_ratio(prior, eps_u)
    off = tuple(r * w for w in prior.weights)  # column j's off-diagonal entry, one product per column
    return Channel(tuple(off[:i] + (1 - r * (1 - w),) + off[i + 1:] for i, w in enumerate(prior.weights)))


def extremal_mechanism_pmc(prior: Pmf, eps_u) -> ExtReal:
    """Worst-outcome cost level of the extremal channel: the translated level.

    ``log p_min / (1 - e^eps_u (1 - p_min))``; this is the tightness witness
    for the leakage-to-cost translation.
    """
    r = _high_privacy_ratio(prior, eps_u)
    p = prior.p_min
    return ExtReal.from_ratio(p / (1 - r * (1 - p)))


# ---------------------------------------------------------------------------
# Input laws for the continuous mechanisms
# ---------------------------------------------------------------------------


class BoundedLaw(_Frozen):
    """A data distribution on a bounded interval.

    ``cgf`` is the cumulant generating function of the centered variable and
    drives the closed-form cost levels; ``pdf`` feeds the Gauss-Legendre
    panels of a custom law's level, which read it inside (lo, hi) only.
    Either may be omitted when the corresponding evaluation is not needed.
    Interior Laplace levels of n > 1 points need the uniform ``family``.
    Evaluations are exact when the law places mass arbitrarily close to
    both endpoints, and upper bounds otherwise.
    """

    _compared = ("lo", "hi", "mean", "cgf", "pdf", "family")

    def __init__(self, lo: float, hi: float, mean: float, cgf: Optional[Callable[[float], float]] = None,
                 pdf: Optional[Callable[[float], float]] = None, family: str = "custom"):
        self._fill(lo, hi, mean, cgf, pdf, family)
        for name in ("lo", "hi", "mean"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.lo < self.hi):
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not (self.lo <= self.mean <= self.hi):
            raise ValueError(f"mean {self.mean} outside [{self.lo}, {self.hi}]")


def _uniform_cgf(half_width: float, t: float) -> float:
    """log E[exp(t Z)] for Z uniform on [-half_width, half_width]."""
    x = abs(t) * half_width
    if x < 1.0:  # log1p of (sinh x - x)/x = x^2/3! + ... + x^18/19!, by Horner
        p = 0.0
        for k in range(9, 0, -1):
            p = (1.0 + p) * x * x / (2 * k * (2 * k + 1))
        return math.log1p(p)
    if x > 350.0:
        return x - math.log(2.0 * x) + math.log1p(-math.exp(-2.0 * x))
    return math.log(math.sinh(x) / x)


def uniform_law(lo: float, hi: float) -> BoundedLaw:
    """The uniform distribution on [lo, hi] with exact closed-form pieces."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    half = (hi - lo) / 2.0
    density = 1.0 / (hi - lo)

    def pdf(x: float) -> float:
        return density if lo <= x <= hi else 0.0

    return BoundedLaw(lo, hi, (lo + hi) / 2.0, lambda t: _uniform_cgf(half, t), pdf, family="uniform")


def discrete_law(points: Sequence[float], probs: Sequence[float]) -> BoundedLaw:
    """A finitely supported law; handy for bound checks on custom data models."""
    pts = [float(p) for p in points]
    ws = [float(w) for w in probs]
    if len(pts) != len(ws) or not pts:
        raise ValueError("points and probs must be equal-length and non-empty")
    total = math.fsum(ws)
    if total <= 0 or any(w < 0 for w in ws):
        raise ValueError("probs must be non-negative with positive total")
    ws = [w / total for w in ws]
    mean = math.fsum(p * w for p, w in zip(pts, ws))

    def cgf(t: float) -> float:
        return math.log(math.fsum(w * math.exp(t * (p - mean)) for p, w in zip(pts, ws)))

    return BoundedLaw(lo=min(pts), hi=max(pts), mean=mean, cgf=cgf, family="discrete")


def _quadrature_pmc(law: BoundedLaw, noise_pdf, y: float, scale: float) -> float:
    """Pointwise cost of releasing ``y`` under additive noise of width ``scale``, in nats.

    f_Y sums 16-node Gauss-Legendre panels on the cuts graded about y.  A panel is halved while its
    value and the sum over its halves, with the jumps at its ends that ``rule`` bounds, differ by more
    than _QUAD_SPLIT_REL of the first estimate, up to _QUAD_MAX_PANELS panels.  QuadratureFailure
    unless both densities are normal floats, whose logs keep their digits, and the summed differences,
    the error estimate, are within _QUAD_ACCEPT_REL of f_Y.
    """
    if law.pdf is None:
        raise ValueError("the input law needs a density for quadrature")
    f_floor = min(noise_pdf(y - law.lo), noise_pdf(y - law.hi))
    if f_floor < sys.float_info.min:
        raise QuadratureFailure(f"the noise density at the support ends underflows at y = {y!r}")
    import numpy as np

    nodes, weights = _legendre_rule(16)
    vander = np.polynomial.legendre.legvander
    ends = vander([-1.0, 1.0], 15) @ np.linalg.inv(vander(nodes, 15))  # the nodes' interpolant at -1 and 1

    def integrand(points):  # at an array of points in [law.lo, law.hi]
        return np.array([law.pdf(x) for x in points.tolist()], dtype=float) * noise_pdf(y - points)

    def rule(lo: float, hi: float) -> Tuple[float, float]:
        """The 16-node value over [lo, hi], and a bound on the mass of a step between an end and its
        nearest node, which no rule on the panel sees: the jump there from the nodes' interpolant, times
        that sliver.  The law's own ends, where its density need not be defined, are left out."""
        values = integrand(lo + (hi - lo) / 2.0 * (nodes + 1.0))
        inner = np.array([law.lo < lo, hi < law.hi])
        jumps = np.abs(integrand(np.array([lo, hi])[inner]) - (ends @ values)[inner])
        half = (hi - lo) / 2.0
        return half * float(values @ weights), float(jumps.sum() * (1.0 + nodes[0])) * half

    cuts = _graded_cuts(law.lo, law.hi, y, scale)
    panels = [(lo, hi, rule(lo, hi)[0]) for lo, hi in zip(cuts, cuts[1:])]
    target = _QUAD_SPLIT_REL * sum(whole for _, _, whole in panels)
    count, f_y, error = len(panels), 0.0, 0.0
    while panels:
        lo, hi, whole = panels.pop()
        mid = (lo + hi) / 2.0
        (left, edge_l), (right, edge_r) = rule(lo, mid), rule(mid, hi)
        gap = abs(whole - left - right) + edge_l + edge_r
        halvable = lo < (lo + mid) / 2.0 < mid < (mid + hi) / 2.0 < hi  # floats leave room for both halves
        if gap > target and count < _QUAD_MAX_PANELS and halvable:
            panels += [(lo, mid, left), (mid, hi, right)]
            count += 1
        else:
            f_y, error = f_y + left + right, error + gap
    if not f_y >= sys.float_info.min or not error <= _QUAD_ACCEPT_REL * f_y:
        raise QuadratureFailure(f"the density {f_y!r} underflows or misses the tolerance: error {error!r}")
    return math.log(f_y) - math.log(f_floor)


# ---------------------------------------------------------------------------
# Laplace-noised sample mean
# ---------------------------------------------------------------------------


class LaplaceMeanMechanism(_Frozen):
    """Release of the sample mean of ``n`` i.i.d. bounded points plus Laplace noise.

    The data points live on [lo, hi]; the released value is the sample mean
    with Laplace noise of scale ``b``.  Cost levels quantify what one data
    point leaks through the release.
    """

    _compared = ("lo", "hi", "n", "b", "law")

    def __init__(self, lo: float, hi: float, n: int, b: float, law: BoundedLaw = None):
        self._fill(lo, hi, n, b, law)
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not 0 < self.b < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.b!r}")
        if not math.isfinite(self.dp_level):  # also when hi - lo overflows
            raise ValueError(f"the level (hi - lo)/(n b) overflows the float range: {self.dp_level!r}")
        if self.law is None:
            object.__setattr__(self, "law", uniform_law(self.lo, self.hi))
        else:
            slack = 1e-12 * (self.hi - self.lo)
            if self.law.lo < self.lo - slack or self.law.hi > self.hi + slack:
                raise ValueError("input law must live inside the data interval")

    @property
    def dp_level(self) -> float:
        """The classical noise-vs-sensitivity level (hi-lo)/(n b); an upper bound."""
        return (self.hi - self.lo) / (self.n * self.b)

    def _plateaus(self) -> Tuple[float, float]:
        """The levels of released values at or above hi and at or below lo."""
        law = self.law
        if law.cgf is None:
            raise CgfUnavailable("the input law needs a cumulant generating function for closed forms")
        below, above = law.mean - self.lo, self.hi - law.mean
        if law.family == "uniform":  # the rounded mean (lo + hi)/2 loses a narrow width's digits
            half = (law.hi - law.lo) / 2.0
            below, above = (law.lo - self.lo) + half, (self.hi - law.hi) + half
        t = 1.0 / (self.n * self.b)
        return below * t + law.cgf(t), above * t + law.cgf(-t)

    def sup_pmc(self) -> float:
        """Largest pointwise cost over all released values, in nats.

        The supremum sits on the outer plateaus (released values beyond the
        data range), where it equals the plateau values below; for uniform
        data this collapses to ``log( nb/(hi-lo) (e^{(hi-lo)/(nb)} - 1) )``.
        """
        law = self.law
        if law.family == "uniform" and math.isclose(law.lo, self.lo) and math.isclose(law.hi, self.hi):
            w = (self.hi - self.lo) / (self.n * self.b)
            if w < 1.0:  # the plateaus keep the digits that e^w - 1 loses, by the series of _uniform_cgf
                return max(self._plateaus())
            try:
                return math.log(math.expm1(w) / w)
            except OverflowError:
                # beyond e^709.78; e^w - 1 = e^w (1 - e^-w) in the log domain
                return w + math.log(-math.expm1(-w)) - math.log(w)
        return max(self._plateaus())

    def pmc_at(self, y: float, method: str = "auto", seed: int = 0, mc_samples: int = 200_000) -> float:
        """Pointwise cost of releasing the value ``y``, in nats.

        Released values at or beyond the data range take the plateau closed
        forms; interior values are integrated, for a uniform law up to n = 128
        and for a custom law at n = 1 only, else ValueError.
        ``method="quadrature"`` forces the numerical path everywhere.  NaN
        raises ValueError.  ``seed`` and ``mc_samples`` are accepted and not
        read, since no path samples.
        """
        if method not in ("auto", "quadrature"):
            raise ValueError(f"unknown method {method!r}")
        if math.isnan(y):
            raise ValueError("y must not be NaN")
        if method == "auto" and not self.lo < y < self.hi:
            upper, lower = self._plateaus()
            return upper if y >= self.hi else lower
        if self.law.family == "uniform":
            return self._pmc_spline(y)
        if self.n > 1:
            raise ValueError(f"the interior level for n > 1 needs a uniform law, got {self.law.family!r}")
        return _quadrature_pmc(self.law, self._noise_pdf, y, self.b)

    def _noise_pdf(self, u):  # at a float or a numpy array
        import numpy as np

        with np.errstate(over="ignore"):  # |u|/b beyond the float range leaves the density 0.0
            return np.exp(-np.abs(u) / self.b) / (2.0 * self.b)

    def _pmc_spline(self, y: float) -> float:  # the rule of the module docstring
        import numpy as np

        if self.n > _MAX_SPLINE_ORDER:
            raise ValueError(f"the interior level needs n <= {_MAX_SPLINE_ORDER}, got {self.n}")
        a, (nodes, weights) = (self.law.hi - self.law.lo) / self.n, _legendre_rule(16)
        if a == 0.0:
            raise QuadratureFailure(f"the spline's unit (hi - lo)/n underflows to 0.0 at n = {self.n}")

        def density(z: float, k: int) -> float:  # of z - a S + noise at 0, S summing k points
            if k == 0:  # the order-0 spline is a point mass at 0
                value = float(self._noise_pdf(z))
            else:  # the integrand's peak is within (k - 1) b/a of the clamped kink
                cuts = {*_graded_cuts(0.0, k, z / a, self.b / a), *range(1, k)}
                breaks = np.array(sorted(cuts), dtype=float)
                piece, width = breaks[:-1].astype(int), breaks[1:] - breaks[:-1]
                offsets = (breaks[:-1] - piece)[:, None] + width[:, None] * (nodes + 1.0) / 2.0
                shared, row = np.unique(offsets, return_inverse=True)  # whole pieces share rows
                spline = _cardinal_bspline(shared, k)[row.reshape(offsets.shape), piece[:, None]]
                noise = self._noise_pdf(z - a * (piece[:, None] + offsets))
                value = float((spline * noise) @ weights @ width) / 2.0
            if not value >= sys.float_info.min:  # a subnormal density keeps too few digits for its log
                raise QuadratureFailure(f"the density {value!r} underflows at y = {y!r}")
            return value

        # one point pinned at lo or hi leaves the n - 1 spline, shifted by 0 or a
        z = y - self.law.lo
        floor = min(density(z, self.n - 1), density(z - a, self.n - 1))
        return math.log(density(z, self.n)) - math.log(floor)


# ---------------------------------------------------------------------------
# Gaussian perturbation of a bounded value
# ---------------------------------------------------------------------------


class GaussianPerturbMechanism(_Frozen):
    """Release of a zero-mean bounded value with additive Gaussian noise.

    The secret satisfies |X| <= amplitude; the release adds N(0, sigma^2).
    The pointwise cost is unbounded over released values, so the useful
    guarantees are the per-value envelope and the sub-Gaussian tail bound.
    """

    _compared = ("amplitude", "sigma", "law")

    def __init__(self, amplitude: float, sigma: float, law: BoundedLaw = None):
        self._fill(amplitude, sigma, law)
        if not 0 < self.amplitude < math.inf:
            raise ValueError(f"amplitude must be positive and finite, got {self.amplitude!r}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        a, s = self.amplitude, self.sigma
        if not all(0 < v < math.inf for v in (2.0 * a, s * s, (a / s) * (a / s))):
            raise ValueError(
                f"2A, sigma^2 and (A/sigma)^2 must stay in the float range, got A = {a!r} and sigma = {s!r}"
            )
        if self.law is None:
            object.__setattr__(self, "law", uniform_law(-self.amplitude, self.amplitude))
        else:
            reach = self.amplitude * (1.0 + 1e-12)
            if self.law.lo < -reach or self.law.hi > reach:
                raise ValueError("input law must live inside [-amplitude, amplitude]")
            if abs(self.law.mean) > 1e-9 * self.amplitude:
                raise ValueError("input law must have zero mean")

    @property
    def variance_ratio(self) -> float:
        """amplitude^2 / sigma^2; the shape parameter of the tail bound."""
        return (self.amplitude / self.sigma) ** 2

    def pmc_bounds(self, y: float) -> Tuple[float, float]:
        """Envelope for the pointwise cost of releasing ``y``.

        ``A|y|/sigma^2 <= cost <= A(A + 4|y|)/(2 sigma^2)``; the level
        :meth:`pmc_at` always lies between them.  Where ``A|y|`` or
        ``A(A + 4|y|)`` overflows, that bound is formed from ``A/sigma`` and
        ``|y|/sigma`` instead.
        """
        a, t, s = self.amplitude, abs(y), self.sigma
        r, u = a / s, t / s
        lower, upper = a * t, a * (a + 4.0 * t)
        lower = lower / s**2 if math.isfinite(lower) else r * u
        upper = upper / (2.0 * s**2) if math.isfinite(upper) else r * (r / 2.0 + 2.0 * u)
        return lower, upper

    def _noise_pdf(self, u):  # at a float or a numpy array
        import numpy as np

        with np.errstate(over="ignore"):  # u/sigma or its square beyond the float range leaves 0.0
            z = u / self.sigma
            return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def pmc_at(self, y: float) -> float:
        """Pointwise cost of releasing a finite ``y``, in nats.

        A uniform law takes a normal-CDF form, or an 8-node Gauss-Legendre
        mean in a narrow window, accurate out to |y| = 1e300 sigma; any other
        law is integrated on cuts graded about y in units of sigma, and raises
        QuadratureFailure where the noise density at a support end is not a
        normal float or the integral misses its accepted error.  A level
        beyond the float range, about 2A|y|/sigma^2, raises ValueError.
        """
        if not math.isfinite(y):
            raise ValueError(f"y must be finite, got {y!r}")
        u = abs(y) / self.sigma
        if not math.isfinite(u * (2.0 * (self.amplitude / self.sigma))):
            raise ValueError(f"the level at y = {y!r} overflows the float range")
        if self.law.family != "uniform":
            return _quadrature_pmc(self.law, self._noise_pdf, y, self.sigma)
        return self._uniform_level(float(u))

    def _uniform_level(self, u: float) -> float:
        """The level of a uniform law at |y| = u sigma, read in units of sigma."""
        lo, hi = self.law.lo / self.sigma, self.law.hi / self.sigma
        window = hi - lo
        # The zero-mean uniform law is symmetric, so the cost is even in y:
        # at -u the mass below the window never cancels against one.
        upper, lower = -u - lo, -u - hi
        # A level is about -lower * window / 2.  In a narrow window, up to half
        # a nat the normal-CDF form would cancel it against l^2/2; every other
        # u has -lower > 1/window >= 2.5, so upper < -2 and the far form holds.
        if window <= _NARROW_WINDOW and lower * window >= -1.0:
            import numpy as np

            # f_Y / f_N(y - hi) is the mean over t in [0, window] of e^h(t), h(t) = t (-lower - t/2)
            # the log noise-density ratio between the secrets hi - t sigma and hi, t = x/sigma read
            # from x in the law's units, as a subnormal window keeps few digits; log1p of the mean
            # of expm1(h) keeps the digits of a small level, and 8 nodes are exact to rounding.
            nodes, weights = _legendre_rule(8)
            s, x = self.sigma, (nodes + 1.0) * ((self.law.hi - self.law.lo) / 2.0)
            h = x * (-lower - x / (2.0 * s)) / s
            return float(np.log1p(np.expm1(h) @ weights / 2.0))
        if upper <= -1.0:
            # Phi(z) at z <= -1 takes an error of about z^2 ulps from the rounding of z/sqrt 2,
            # and underflows past z = -37.5.  Here log Phi(z) + z^2/2 = log(erfcx(-z/sqrt 2)/2), the
            # gap (l^2 - upper^2)/2, at least 0.48 here, is formed without the squares,
            # which would cancel (or overflow) against each other; this form drops l^2/2.
            tail_u = _erfcx(upper / -math.sqrt(2.0))
            tail_l = _erfcx(lower / -math.sqrt(2.0))
            gap = (u + (lo + hi) / 2.0) * window
            log_mass = math.log(tail_u / 2.0) + gap + math.log1p(-tail_l / tail_u * math.exp(-gap))
            lower = 0.0
        else:
            log_mass = math.log(_ndtr(upper) - _ndtr(lower))
        # the far end of the window, hi, is -lower standard deviations away
        return log_mass - math.log(window) + 0.5 * lower * lower + math.log(math.sqrt(2.0 * math.pi))

    def tail_bound(self, beta: float) -> float:
        """Probability bound for the cost exceeding its center by ``beta``."""
        return gaussian_tail_bound(self.variance_ratio, beta)

    def tail_frequency(
        self, beta: float, n_samples: int = 1_000_000, seed: int = 0
    ) -> Tuple[float, float]:
        """Probability of the tail event, exactly, with its standard error 0.0.

        The event is ``cost(Y) >= beta + A^2/(2 sigma^2)`` under the real
        mechanism; its probability never exceeds :meth:`tail_bound`.  Needs a
        uniform input law, whose cost rises with |y|: the event is
        ``|Y| >= u sigma`` for one root u, found by bisection in units of
        sigma, and its mass has a closed form.  Both read A/sigma, the law's
        ends over sigma and ``beta`` alone.  ``seed`` and ``n_samples`` are
        accepted and not read, since nothing is sampled.
        """
        if self.law.family != "uniform":
            raise ValueError(f"the tail mass needs a uniform input law, got {self.law.family!r}")
        if math.isnan(beta):
            raise ValueError("beta must not be NaN")
        if not isinstance(n_samples, int) or isinstance(n_samples, bool) or n_samples < 1:
            raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
        threshold = beta + self.variance_ratio / 2.0
        # The cost is even in y and strictly increasing in u = |y|/sigma: for y > 0,
        # d/dy log f_Y(y) = -E[(y - X)/sigma^2 | Y = y] > -(y + A)/sigma^2, as
        # X > -A, and the floor term -log f_N(y + A) adds (y + A)/sigma^2.  The
        # envelope cost >= u hi/sigma, hi the law's upper end (at most A), brackets
        # the smallest float root in [0, threshold / (hi/sigma)], capped at the
        # float range; a law whose hi/sigma underflows to 0 takes the whole range.
        if threshold == math.inf:
            return 0.0, 0.0
        if not self._uniform_level(0.0) < threshold:
            return 1.0, 0.0
        lo, hi = self.law.lo / self.sigma, self.law.hi / self.sigma
        below, root = 0.0, min(threshold / hi if hi > 0.0 else math.inf, sys.float_info.max)
        while below < (mid := below + (root - below) / 2.0) < root:
            if self._uniform_level(mid) >= threshold:
                root = mid
            else:
                below = mid
        return _window_tail_mass(root - hi, hi - lo), 0.0


def _window_tail_mass(a: float, w: float) -> float:
    """``P(|Y| >= r)`` for ``Y = X + N(0, sigma^2)``, X uniform on [-h, h]: twice the
    mean of the normal upper tail over [a, a + w], ``a = (r - h)/sigma``, ``w = 2h/sigma``.

    That is ``(2/w) [G(a) - G(a + w)]``, ``G(z) = phi(z) - z Phi-bar(z)``, whose
    derivative is ``-Phi-bar(z)``; r >= 0 gives a >= -w/2.  An underflowing mass is 0.0.
    """
    # The tail's hazard rate at z is below max(z, 0) + 1, so over a window under this
    # bound the integrand falls by less than e^(1.5 + w^2/2), and 8 Gauss-Legendre
    # nodes hold its mean to rounding; the G difference would cancel there.
    if w * (max(a, 0.0) + 1.0) <= 1.5:
        nodes, weights = _legendre_rule(8)
        return float([_ndtr(z) for z in -(a + (nodes + 1.0) * (w / 2.0))] @ weights)

    def scaled_g(z: float) -> float:  # G(z)/phi(z) = 1 - z Phi-bar(z)/phi(z), for z > 0
        return 1.0 - z * (math.sqrt(math.pi / 2.0) * _erfcx(z / math.sqrt(2.0)))

    b, unit = a + w, 2.0 / (w * math.sqrt(2.0 * math.pi))
    if a <= 0.0:
        # both terms of G(a) are non-negative, and G(b) <= G(-a) = G(a) - |a|
        g_a = math.exp(-a * a / 2.0) / math.sqrt(2.0 * math.pi) - a * _ndtr(-a)
        return 2.0 / w * g_a - unit * math.exp(-b * b / 2.0) * scaled_g(b)
    # phi(a) factored out of both terms, phi(b)/phi(a) = e^(-w (a + w/2)): the scaled
    # G keeps the digits that phi(z) - z Phi-bar(z) cancels for large z
    return unit * math.exp(-a * a / 2.0) * (scaled_g(a) - math.exp(-w * (a + w / 2.0)) * scaled_g(b))


def gaussian_tail_bound(r: float, beta: float) -> float:
    """Tail bound ``min(1, 2 exp(-beta^2 / (8 (r^2 + r))))`` for shape ``r``.

    ``r`` is amplitude^2/sigma^2; the bound dominates the probability that
    the pointwise cost exceeds ``beta + r/2``.
    """
    if not r > 0:
        raise ValueError(f"r must be positive, got {r!r}")
    if not beta >= 0:
        raise ValueError(f"beta must be non-negative, got {beta!r}")
    try:
        exponent = beta**2 / (8.0 * (r * r + r))
    except OverflowError:  # beta^2 is beyond the float range, and r^2 may be too
        exponent = beta / r * (beta / (r + 1.0)) / 8.0
    return min(1.0, 2.0 * math.exp(-exponent))
