"""Constructors and analytic cost evaluators for standard privacy mechanisms.

Finite mechanisms (randomized response and the leakage-optimal high-privacy
channel) are built exactly when their parameters are rational, so measured
levels can be compared against the closed forms with exact equality.

The continuous families (Laplace-noised sample mean, Gaussian perturbation
of a bounded value) evaluate the pointwise cost through the density identity
``log f_Y(y) / inf_x f_{Y|X=x}(y)``; for log-concave noise the infimum sits
at a support endpoint, which the closed forms use and the quadrature path
mirrors.  Interior Laplace levels are integrated for every n: the mean of n
uniform points has the Irwin-Hall density, a cardinal B-spline.

Mechanism documents, the JSON format the CLI reads, are parsed in
:mod:`infodens.documents`, which loads this module only for a ``family``
document; the parser's public functions are re-exported here.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .documents import coerce_probability, joint_from_doc, parse_mechanism_doc  # noqa: F401
from .errors import (
    CgfUnavailable,
    DimensionMismatch,
    InvalidAlphabet,
    OutsideHighPrivacy,
    QuadratureFailure,
)
from .probcore import ExtReal, Channel, Number, Pmf, as_level

#: Requested and accepted relative accuracy for the 1-D density quadratures.
_QUAD_EPSREL = 1e-9
_QUAD_ACCEPT_REL = 1e-6
#: Gaussian windows 2A/sigma at or below this integrate levels under a nat,
#: which the normal-CDF form would cancel away.
_NARROW_WINDOW = 0.4
#: Largest n whose interior Laplace level is integrated; each density has n spline pieces.
_MAX_SPLINE_ORDER = 128


@functools.cache
def _legendre_rule() -> tuple:
    """The 8-node Gauss-Legendre ``(nodes, weights)`` on [-1, 1], solved for on first use."""
    import numpy as np

    return np.polynomial.legendre.leggauss(8)


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
    return Channel(
        tuple(tuple(diag if i == j else off for j in range(n)) for i in range(n))
    )


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
    n = len(prior)
    rows = []
    for i in range(n):
        rows.append(
            tuple(
                (1 - r * (1 - prior[i])) if i == j else r * prior[j] for j in range(n)
            )
        )
    return Channel(tuple(rows))


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


@dataclass(frozen=True)
class BoundedLaw:
    """A data distribution on a bounded interval.

    ``cgf`` is the cumulant generating function of the centered variable and
    drives the closed-form cost levels; ``pdf`` feeds the quadrature path of
    a single point.  Either may be omitted when the corresponding evaluation
    is not needed.  Interior Laplace levels of n > 1 points need the uniform
    ``family``.  Evaluations are exact when the law places mass arbitrarily
    close to both endpoints, and upper bounds otherwise.
    """

    lo: float
    hi: float
    mean: float
    cgf: Optional[Callable[[float], float]] = None
    pdf: Optional[Callable[[float], float]] = None
    family: str = "custom"

    def __post_init__(self):
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
    return BoundedLaw(
        lo=lo,
        hi=hi,
        mean=(lo + hi) / 2.0,
        cgf=lambda t: _uniform_cgf(half, t),
        pdf=lambda x, _d=density, _lo=lo, _hi=hi: _d if _lo <= x <= _hi else 0.0,
        family="uniform",
    )


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


def _checked_quad(integrand, lo: float, hi: float, points: Sequence[float]) -> float:
    """A density over [lo, hi] with interior breakpoints ``points``, to a relative tolerance.

    Raises QuadratureFailure unless it is a normal float, whose log keeps its digits,
    within the accepted error.
    """
    from scipy import integrate

    value, err = integrate.quad(
        integrand, lo, hi, points=points or None, limit=200, epsabs=0.0, epsrel=_QUAD_EPSREL
    )
    if not value >= sys.float_info.min or err > _QUAD_ACCEPT_REL * value:
        raise QuadratureFailure(f"the density {value!r} underflows or misses the tolerance: error {err!r}")
    return value


def _quadrature_pmc(law: BoundedLaw, noise_pdf, y: float, kink: Optional[float]) -> float:
    """Pointwise cost of releasing ``y`` under additive noise, by quadrature, in nats."""
    if law.pdf is None:
        raise ValueError("the input law needs a density for quadrature")
    f_floor = min(noise_pdf(y - law.lo), noise_pdf(y - law.hi))
    if f_floor < sys.float_info.min:  # a subnormal floor keeps too few digits for its log
        raise QuadratureFailure(f"the noise density at the support ends underflows at y = {y!r}")
    points = [kink] if kink is not None and law.lo < kink < law.hi else []
    f_y = _checked_quad(lambda x: law.pdf(x) * noise_pdf(y - x), law.lo, law.hi, points)
    return math.log(f_y) - math.log(f_floor)


# ---------------------------------------------------------------------------
# Laplace-noised sample mean
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaplaceMeanMechanism:
    """Release of the sample mean of ``n`` i.i.d. bounded points plus Laplace noise.

    The data points live on [lo, hi]; the released value is the sample mean
    with Laplace noise of scale ``b``.  Cost levels quantify what one data
    point leaks through the release.
    """

    lo: float
    hi: float
    n: int
    b: float
    law: BoundedLaw = None

    def __post_init__(self):
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
        elif self.law.lo < self.lo - 1e-12 or self.law.hi > self.hi + 1e-12:
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
        t = 1.0 / (self.n * self.b)
        return (law.mean - self.lo) * t + law.cgf(t), (self.hi - law.mean) * t + law.cgf(-t)

    def sup_pmc(self) -> float:
        """Largest pointwise cost over all released values, in nats.

        The supremum sits on the outer plateaus (released values beyond the
        data range), where it equals the plateau values below; for uniform
        data this collapses to ``log( nb/(hi-lo) (e^{(hi-lo)/(nb)} - 1) )``.
        """
        if self.law.family == "uniform" and math.isclose(
            self.law.lo, self.lo
        ) and math.isclose(self.law.hi, self.hi):
            w = (self.hi - self.lo) / (self.n * self.b)
            try:
                return math.log(math.expm1(w) / w)
            except OverflowError:
                # beyond e^709.78; e^w - 1 = e^w (1 - e^-w) in the log domain
                return w + math.log(-math.expm1(-w)) - math.log(w)
        return max(self._plateaus())

    def pmc_at(self, y: float, method: str = "auto", seed: int = 0, mc_samples: int = 200_000) -> float:
        """Pointwise cost of releasing the value ``y``, in nats.

        Released values at or beyond the data range take the plateau closed
        forms; interior values are integrated to a relative tolerance.  For
        n > 1 that needs the uniform law and n <= 128, else ValueError.
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
        if self.n == 1:
            return _quadrature_pmc(self.law, self._noise_pdf, y, kink=y)
        return self._pmc_spline(y)

    def _noise_pdf(self, u: float) -> float:
        return math.exp(-abs(u) / self.b) / (2.0 * self.b)

    def _pmc_spline(self, y: float) -> float:
        """The level of n > 1 uniform points: the mean is ``lo + a S``, ``a = (hi - lo)/n``,
        and S, a sum of U[0, 1] points, has the cardinal B-spline density (Irwin-Hall)."""
        law = self.law
        if law.family != "uniform":
            raise ValueError(f"the interior level for n > 1 needs a uniform law, got {law.family!r}")
        if self.n > _MAX_SPLINE_ORDER:
            raise ValueError(f"the interior level needs n <= {_MAX_SPLINE_ORDER}, got {self.n}")
        from scipy.interpolate import BSpline

        a = (law.hi - law.lo) / self.n
        splines = {k: BSpline.basis_element(range(k + 1)) for k in (self.n - 1, self.n)}

        def density(z: float, k: int) -> float:  # of z - a S + noise at 0, S summing k points
            spline = splines[k]
            breaks = sorted({*range(1, k), *([z / a] if 0 < z / a < k else [])})  # knots, kink
            return _checked_quad(
                lambda s: float(spline(s)) * self._noise_pdf(z - a * s), 0.0, k, breaks
            )

        # one point pinned at lo or hi leaves the n - 1 spline, shifted by 0 or a
        z = y - law.lo
        floor = min(density(z, self.n - 1), density(z - a, self.n - 1))
        return math.log(density(z, self.n)) - math.log(floor)


# ---------------------------------------------------------------------------
# Gaussian perturbation of a bounded value
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianPerturbMechanism:
    """Release of a zero-mean bounded value with additive Gaussian noise.

    The secret satisfies |X| <= amplitude; the release adds N(0, sigma^2).
    The pointwise cost is unbounded over released values, so the useful
    guarantees are the per-value envelope and the sub-Gaussian tail bound.
    """

    amplitude: float
    sigma: float
    law: BoundedLaw = None

    def __post_init__(self):
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
            if self.law.lo < -self.amplitude - 1e-12 or self.law.hi > self.amplitude + 1e-12:
                raise ValueError("input law must live inside [-amplitude, amplitude]")
            if abs(self.law.mean) > 1e-9:
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

    def _noise_pdf(self, u: float) -> float:
        s = self.sigma
        z = u / s  # z * z goes to inf where z ** 2 would raise OverflowError
        return math.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))

    def pmc_at(self, y: float) -> float:
        """Pointwise cost of releasing a finite ``y``, in nats.

        A uniform law takes a normal-CDF form, or an 8-node Gauss-Legendre
        mean in a narrow window, accurate out to |y| = 1e300 sigma; any other
        law is integrated, and raises QuadratureFailure where the noise
        density at a support end is not a normal float.  A level beyond the
        float range, about 2A|y|/sigma^2, raises ValueError.
        """
        if not math.isfinite(y):
            raise ValueError(f"y must be finite, got {y!r}")
        if not math.isfinite(abs(y) / self.sigma * (2.0 * self.amplitude / self.sigma)):
            raise ValueError(f"the level at y = {y!r} overflows the float range")
        if self.law.family != "uniform":
            return _quadrature_pmc(self.law, self._noise_pdf, y, kink=None)
        return self._pmc_uniform(float(y))

    def _pmc_uniform(self, y: float) -> float:
        from scipy import special

        s = self.sigma
        lo, hi = self.law.lo, self.law.hi
        window = (hi - lo) / s
        # The zero-mean uniform law is symmetric, so the cost is even in y:
        # at -|y| the mass below the window never cancels against one.
        upper = (-abs(y) - lo) / s
        lower = (-abs(y) - hi) / s
        # A level is about -lower * window / 2.  In a narrow window, up to half
        # a nat the normal-CDF form would cancel it against l^2/2; every other
        # y has -lower > 1/window >= 2.5, so u < 0 and the far form holds.
        if window <= _NARROW_WINDOW and lower * window >= -1.0:
            import numpy as np

            # f_Y / f_N(y - hi) is the mean over t in [0, window] of e^h(t),
            # h(t) = t (-lower - t/2) the log noise-density ratio between the
            # secrets hi - t sigma and hi; log1p of the mean of expm1(h) keeps
            # the digits of a small level, and 8 nodes are exact to rounding.
            nodes, weights = _legendre_rule()
            nodes = (nodes + 1.0) * (window / 2.0)
            h = nodes * (-lower - nodes / 2.0)
            return float(np.log1p(np.expm1(h) @ weights / 2.0))
        below = special.ndtr(lower)
        if window <= _NARROW_WINDOW or (below == 0.0 and upper < 0.0):
            # Where Phi(l) underflows, its share of the mass is lost.  Far out,
            # log Phi(z) + z^2/2 = log(erfcx(-z/sqrt 2)/2), which needs u < 0 to
            # stay finite, and the gap (l^2 - u^2)/2 is formed without the
            # squares, which would cancel (or overflow) against each other;
            # this form drops l^2/2.
            tail_u = special.erfcx(upper / -math.sqrt(2.0))
            tail_l = special.erfcx(lower / -math.sqrt(2.0))
            gap = (abs(y) + (lo + hi) / 2.0) / s * window
            log_mass = math.log(tail_u / 2.0) + gap + math.log1p(-tail_l / tail_u * math.exp(-gap))
            lower = 0.0
        else:
            log_mass = math.log(special.ndtr(upper) - below)
        # the far end of the window, hi, is -lower standard deviations away
        return log_mass - math.log(hi - lo) + 0.5 * lower * lower + math.log(s * math.sqrt(2.0 * math.pi))

    def tail_bound(self, beta: float) -> float:
        """Probability bound for the cost exceeding its center by ``beta``."""
        return gaussian_tail_bound(self.variance_ratio, beta)

    def tail_frequency(
        self, beta: float, n_samples: int = 1_000_000, seed: int = 0
    ) -> Tuple[float, float]:
        """Probability of the tail event, exactly, with its standard error 0.0.

        The event is ``cost(Y) >= beta + A^2/(2 sigma^2)`` under the real
        mechanism; its probability never exceeds :meth:`tail_bound`.  Needs a
        uniform input law, whose cost rises with |y|: the event is ``|Y| >= r``
        for one root r, found by bisection, and its mass has a closed form.
        ``seed`` and ``n_samples`` are accepted and not read, since nothing
        is sampled.
        """
        if self.law.family != "uniform":
            raise ValueError(f"the tail mass needs a uniform input law, got {self.law.family!r}")
        if math.isnan(beta):
            raise ValueError("beta must not be NaN")
        if not isinstance(n_samples, int) or isinstance(n_samples, bool) or n_samples < 1:
            raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
        try:
            threshold = beta + self.amplitude**2 / (2.0 * self.sigma**2)
        except OverflowError:  # A^2 is beyond the float range; (A/sigma)^2 is not
            threshold = beta + self.variance_ratio / 2.0
        # The cost is even in y and strictly increasing in |y|: for y > 0,
        # d/dy log f_Y(y) = -E[(y - X)/sigma^2 | Y = y] > -(y + A)/sigma^2, as
        # X > -A, and the floor term -log f_N(y + A) adds (y + A)/sigma^2.  The
        # envelope cost >= a|y|/sigma^2, a = hi of the law (at most A), brackets the
        # smallest float root r in [0, threshold sigma^2/a], capped where y/sigma overflows.
        if threshold == math.inf:
            return 0.0, 0.0
        if not self._pmc_uniform(0.0) < threshold:
            return 1.0, 0.0
        bracket = threshold * self.sigma**2 / self.law.hi
        if bracket == math.inf:  # sigma^2 or threshold sigma^2 overflows, the bracket may not
            bracket = threshold * (self.sigma / self.law.hi) * self.sigma
        below, root = 0.0, min(bracket, sys.float_info.max * self.sigma)
        while below < (mid := below + (root - below) / 2.0) < root:
            if self._pmc_uniform(mid) >= threshold:
                root = mid
            else:
                below = mid
        if root == math.inf:  # r is beyond the float range, far past the window
            return 0.0, 0.0
        lo, hi, s = self.law.lo, self.law.hi, self.sigma
        return _window_tail_mass((root - hi) / s, (hi - lo) / s), 0.0


def _window_tail_mass(a: float, w: float) -> float:
    """``P(|Y| >= r)`` for ``Y = X + N(0, sigma^2)``, X uniform on [-h, h]: twice the
    mean of the normal upper tail over [a, a + w], ``a = (r - h)/sigma``, ``w = 2h/sigma``.

    That is ``(2/w) [G(a) - G(a + w)]``, ``G(z) = phi(z) - z Phi-bar(z)``, whose
    derivative is ``-Phi-bar(z)``; r >= 0 gives a >= -w/2.  An underflowing mass is 0.0.
    """
    from scipy import special

    # The tail's hazard rate at z is below max(z, 0) + 1, so over a window under this
    # bound the integrand falls by less than e^(1.5 + w^2/2), and 8 Gauss-Legendre
    # nodes hold its mean to rounding; the G difference would cancel there.
    if w * (max(a, 0.0) + 1.0) <= 1.5:
        nodes, weights = _legendre_rule()
        return float(special.ndtr(-(a + (nodes + 1.0) * (w / 2.0))) @ weights)

    def scaled_g(z: float) -> float:  # G(z)/phi(z) = 1 - z Phi-bar(z)/phi(z), for z > 0
        return 1.0 - z * (math.sqrt(math.pi / 2.0) * float(special.erfcx(z / math.sqrt(2.0))))

    b, unit = a + w, 2.0 / (w * math.sqrt(2.0 * math.pi))
    if a <= 0.0:
        # both terms of G(a) are non-negative, and G(b) <= G(-a) = G(a) - |a|
        g_a = math.exp(-a * a / 2.0) / math.sqrt(2.0 * math.pi) - a * float(special.ndtr(-a))
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
