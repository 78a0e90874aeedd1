"""Closed-form convergence bounds built from Chebyshev approximation.

The polynomial min-max problems behind the solver's convergence estimates
are posed over three region shapes: a single real interval, two disjoint
real intervals symmetric about the imaginary axis, and a concentric
complex disk plus real interval.  This module evaluates the closed-form
bound for each shape, the per-iteration convergence factor for the
disk-and-interval regime, and the residual bound curves published for the
preconditioned solver ('thm7' for extremal penalties, 'thm9' for
intermediate ones, 'prop5' for the plain-ADMM iteration estimate).

Two printed-formula corrections are applied deliberately: the two-interval
bounds use the contracting base (sqrt(kp)-1)/(sqrt(kp)+1) < 1, and the
disk-and-interval exponents are scaled by the polynomial order so they sum
to k.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import NumericalError, check_epsilon

__all__ = [
    "C0",
    "BoundCurve",
    "cheb",
    "interval_bound",
    "two_interval_bound",
    "two_interval_split_ratio",
    "disk_interval_bound",
    "rho_factor",
    "theorem_curve",
    "curve_to_csv",
]

# Exponent-splitting constant log(1 + sqrt(2)) for the disk-and-interval case.
C0 = math.log(1.0 + math.sqrt(2.0))

# The factors of (c1, kappa_P, kappa_X, kappa_M) that each curve reads.
_READS = {"prop5": ("c1", "kappa_M"), "thm7": ("c1", "kappa_P"),
          "thm9": ("c1", "kappa_P", "kappa_X")}

# Chebyshev evaluation switches from the recurrence to the exponential
# closed form here; agreement across the crossover is ~1e-15 relative.
_CHEB_SWITCH = 1.5


def _cheb_recurrence(k, x):
    t_prev = np.ones_like(x)
    if k == 0:
        return t_prev
    t = x
    for _ in range(k - 1):
        t, t_prev = 2.0 * x * t - t_prev, t
    return t


def cheb(k, x):
    """Chebyshev polynomial of the first kind T_k(x).

    Real scalars use the three-term recurrence for |x| <= 1.5 and the
    overflow-safe form ((x + sqrt(x^2-1))^k + (x + sqrt(x^2-1))^-k)/2
    beyond; complex or array input is evaluated by the recurrence (meant
    for bounded grids).
    """
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    if isinstance(x, np.ndarray) or isinstance(x, complex):
        return _cheb_recurrence(k, np.asarray(x))
    x = float(x)
    if abs(x) <= _CHEB_SWITCH:
        return float(_cheb_recurrence(k, np.float64(x)))
    t = abs(x)
    s = t + math.sqrt(t * t - 1.0)
    if k * math.log(s) > 700.0:
        value = math.inf
    else:
        value = 0.5 * (s**k + s**-k)
    if x < 0 and k % 2 == 1:
        value = -value
    return value


def interval_bound(k, c, a):
    """Min-max value over the interval [c-a, c+a] with normalization p(1)=1.

    Equals 1/|T_k((1-c)/a)|, attained by the scaled Chebyshev polynomial.
    The interval must not contain the point 1.  Degenerate cases: k = 0
    gives 1 (the constant polynomial), a = 0 with k >= 1 gives 0 (a root
    can be placed on the point).
    """
    if a < 0:
        raise ValueError(f"half-width a must be nonnegative, got {a}")
    if abs(1.0 - c) <= a:
        raise ValueError(f"interval [{c - a}, {c + a}] contains the point 1")
    if k == 0:
        return 1.0
    if a == 0.0:
        return 0.0
    return 1.0 / abs(cheb(k, abs(1.0 - c) / a))


def two_interval_split_ratio(c, a):
    """Exponent ratio eta/xi of the monomial-times-Chebyshev construction.

    Depends on nu = 1 + a/c, the conditioning of the mirror interval seen
    from the target interval; tends to 1 as the mirror interval shrinks to
    a point, and stays below 2.151 for all admissible shapes, which floors
    the Chebyshev share xi/k at 1/3.151 = 0.317.
    """
    if not 0 <= a < c:
        raise ValueError(f"need 0 <= a < c, got a={a}, c={c}")
    nu = 1.0 + a / c
    if nu <= 1.0 + 1e-14:
        return 1.0
    s = math.sqrt(nu)
    return math.log((s - 1.0) / (s + 1.0)) / math.log((nu - 1.0) / (nu + 1.0))


def two_interval_bound(k, c, a):
    """Min-max bounds over [-c-a, -c+a] union [c-a, c+a], p(1) = 1.

    Returns ``(lower, upper, xi, eta)`` where
    lower = base^k and upper = 2 * base^(0.317 k) with
    base = (sqrt(kp) - 1)/(sqrt(kp) + 1), kp = (1-c+a)/(1-c-a), and
    (eta, xi) is the integer monomial/Chebyshev exponent split of the
    witness polynomial, eta + xi = k.  The monomial exponent is rounded
    up: the witness construction needs at least the exact real-valued
    share on the monomial factor, or its sup over the mirror interval can
    exceed the sup over the target interval.

    Requires disjoint intervals (a < c) with c + a < 1.
    """
    if not 0 <= a < c:
        raise ValueError(f"intervals overlap or are invalid: a={a}, c={c}")
    if c + a >= 1.0:
        raise ValueError(f"target interval reaches the point 1: c+a={c + a}")
    kp = (1.0 - c + a) / (1.0 - c - a)
    base = (math.sqrt(kp) - 1.0) / (math.sqrt(kp) + 1.0)
    upper = 2.0 * base ** (0.317 * k)
    lower = base**k
    ratio = two_interval_split_ratio(c, a)
    eta = min(k, math.ceil(k * ratio / (1.0 + ratio)))
    return lower, upper, k - eta, eta


def disk_interval_bound(k, a_disk, a_int):
    """Min-max bound over {|z| <= a_disk} union [-a_int, a_int], p(1) = 1.

    Returns ``(upper, eta, xi)`` with
    upper = 2 * ((kI-1)/(kI+1))^eta * ((sqrt(kI)-1)/(sqrt(kI)+1))^xi,
    kI = (1+a_int)/(1-a_int), and the split eta = ceil(k c0/(delta+c0)),
    xi = k - eta for delta = 1 - a_disk/a_int (delta = 1 when both radii
    collapse to zero).  When a_disk = a_int the whole budget goes to the
    monomial factor and the square-root speed-up is lost.
    """
    if not 0 <= a_disk <= a_int:
        raise ValueError(f"need 0 <= a_disk <= a_int, got {a_disk}, {a_int}")
    if a_int >= 1.0:
        raise ValueError(f"interval radius must be below 1, got {a_int}")
    delta = 1.0 if a_int == 0.0 else 1.0 - a_disk / a_int
    eta = min(k, math.ceil(k * C0 / (delta + C0)))
    xi = k - eta
    k_i = (1.0 + a_int) / (1.0 - a_int)
    mono = (k_i - 1.0) / (k_i + 1.0)
    chev = (math.sqrt(k_i) - 1.0) / (math.sqrt(k_i) + 1.0)
    return 2.0 * mono**eta * chev**xi, eta, xi


def rho_factor(gamma, kappa):
    """Per-iteration convergence factor for the disk-and-interval regime.

    For sqrt(kappa) <= gamma <= kappa,
    rho = ((gamma-1)/(gamma+1))^(c0/(c0+delta))
        * ((sqrt(gamma)-1)/(sqrt(gamma)+1))^(delta/(c0+delta)),
    delta = (gamma^2 - kappa) / ((gamma+kappa)(gamma+1)).
    """
    if kappa < 1.0:
        raise ValueError(f"kappa must be at least 1, got {kappa}")
    if not math.sqrt(kappa) * (1.0 - 1e-12) <= gamma <= kappa * (1.0 + 1e-12):
        raise ValueError(
            f"gamma={gamma} outside [sqrt(kappa), kappa] = "
            f"[{math.sqrt(kappa)}, {kappa}]"
        )
    delta = max(0.0, (gamma**2 - kappa) / ((gamma + kappa) * (gamma + 1.0)))
    mono = (gamma - 1.0) / (gamma + 1.0)
    chev = (math.sqrt(gamma) - 1.0) / (math.sqrt(gamma) + 1.0)
    return mono ** (C0 / (C0 + delta)) * chev ** (delta / (C0 + delta))


@dataclass
class BoundCurve:
    """Evaluated bound values indexed by iteration.

    ``kind`` is the wire tag of the formula ('prop5', 'thm7' or 'thm9');
    ``values[k]`` is the bound at iteration k.  The residual-ratio curves
    are positive and non-increasing; the iteration-estimate curve is a
    flat marker.
    """

    values: np.ndarray
    kind: str


def theorem_curve(kind, k_max, beta, m, ell, factors, epsilon):
    """Evaluate one published bound curve on iterations 0..k_max, k_max >= 0.

    ``factors`` is the tuple (c1, kappa_P, kappa_X, kappa_M) from
    :func:`admmgmres.spectral.conditioning_factors`.  A curve that is not
    finite raises :class:`NumericalError` naming the non-finite factors it reads.

    kind 'thm7' (requires beta > ell or beta < m):
        2 c1 kP [1 + 1/(max(beta/ell, m/beta) - 1)]
        * ((sqrt(2 kappa)-1)/(sqrt(2 kappa)+1))^(0.317 k)
    kind 'thm9' (requires m <= beta <= ell and kappa_X available):
        2 c1 kP kX * (kappa^(2/3)/(kappa^(2/3)+1))^(0.209 k)
    kind 'prop5' (iteration estimate for beta = sqrt(m ell), returned as a
    flat marker):
        2 + ceil((sqrt(kappa)+1) * log(c1 kappa_M / epsilon))
    """
    epsilon = check_epsilon(epsilon)
    if k_max < 0:
        raise ValueError(f"k_max must be at least 0, got {k_max}")
    c1, kappa_p, kappa_x, kappa_m = factors
    kappa = ell / m
    k = np.arange(int(k_max) + 1, dtype=float)

    if kind == "prop5":
        estimate = 2.0 + np.ceil((math.sqrt(kappa) + 1.0) * math.log(c1 * kappa_m / epsilon))
        values = np.full(k.shape, float(estimate))
    elif kind == "thm7":
        if not (beta > ell or beta < m):
            raise ValueError(
                f"'thm7' needs beta outside [m, ell] = [{m}, {ell}], got beta={beta}"
            )
        margin = max(beta / ell, m / beta)
        lead = 2.0 * c1 * kappa_p * (1.0 + 1.0 / (margin - 1.0))
        root = math.sqrt(2.0 * kappa)
        values = lead * ((root - 1.0) / (root + 1.0)) ** (0.317 * k)
    elif kind == "thm9":
        if not m <= beta <= ell:
            raise ValueError(
                f"'thm9' needs beta inside [m, ell] = [{m}, {ell}], got beta={beta}"
            )
        if kappa_x is None:
            raise ValueError("'thm9' needs kappa_X, but none was computable")
        power = kappa ** (2.0 / 3.0)
        values = 2.0 * c1 * kappa_p * kappa_x * (power / (power + 1.0)) ** (0.209 * k)
    else:
        raise ValueError(f"unknown curve kind {kind!r}")
    if not np.all(np.isfinite(values)):
        named = dict(zip(("c1", "kappa_P", "kappa_X", "kappa_M"), factors))
        bad = ", ".join(f"{n}={named[n]}" for n in _READS[kind] if not math.isfinite(named[n]))
        raise NumericalError(f"'{kind}' bound is not finite: {bad or 'its factors overflow'}")
    return BoundCurve(values=values, kind=kind)


def curve_to_csv(curve):
    """Serialize a curve to CSV rows ``k,value,kind`` (dot decimal, UTF-8)."""
    lines = ["k,value,kind"]
    for k, v in enumerate(curve.values):
        lines.append(f"{k},{float(v)!r},{curve.kind}")
    return "\n".join(lines) + "\n"
