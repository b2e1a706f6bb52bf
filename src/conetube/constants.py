"""The eight explicit Gamma-ratio constants of the closed-form identities.

C1 and C3 normalize the cone Laplace transforms of plain and shifted minor
powers; C2 and C4 normalize the inverse transforms (the kernel identities);
C5-C8 are composites built from the first four:

    C5(r, eta) = C4(r)^-1 C4(eta) C4(r - eta)
    C6(r)      = 2^(2n - 1 - sum r) C4(r/2)^-1 C4(r)
    C7(l,r,eta)= C4(r)^-1 C4(eta)^-1 C3(l) C4(r + l - eta)
    C8(l, r)   = C6(r) C5(r, l)

All formulas take the *plain* component values of their indices; shifted
bookkeeping is the caller's business.  Evaluation runs in log space
(exponent sums in 2 and pi overflow quickly at n = 3), with the Gamma
*ratios* of C2/C4 reduced to rising-factorial polynomials so that values
remain defined, with the correct sign, for the negative index ranges the
kernel identities allow.

Several composite constants are known to disagree with independent numeric
evaluation of their identities (the compositions inherit a 2pi/4pi rescale
slip); the package therefore treats these values as the stated constants
and pairs them with oracle-calibrated ones at the identity layer.  The
tests check C1-C4 against direct Gamma-function evaluation, and C5-C8
against products of those direct references.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConvergenceDomainError
from .indices import plain_values

LOG2 = math.log(2.0)
LOGPI = math.log(math.pi)


def _check(violations) -> None:
    bad = [msg for ok, msg in violations if not ok]
    if bad:
        raise ConvergenceDomainError(bad)


def _poch_ratio(x: float, k: int) -> float:
    """Gamma(x + k) / Gamma(x) as the rising factorial x (x+1) ... (x+k-1).

    Defined (with sign) wherever the product is, which is everywhere; this
    is what keeps C2/C4 meaningful on the negative part of their ranges.
    """
    out = 1.0
    for i in range(k):
        out *= x + i
    return out


def log_gamma(x: float) -> float:
    """log|Gamma(x)| for x > 0, inf past the double range (where
    math.lgamma raises OverflowError)."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _inf_past_range(formula):
    """``formula`` with a float overflow giving inf without a numpy
    warning: a constant past the double range is inf, and the verdict that
    uses it reports it."""
    @functools.wraps(formula)
    def quiet(*args):
        with np.errstate(over="ignore"):
            return formula(*args)
    return quiet


# ---------------------------------------------------------------------------
# C1 .. C4
# ---------------------------------------------------------------------------

def c1_range(n: int, s) -> list:
    v = plain_values(s, n)
    checks = [(v[-1] > -1.0, f"s[{n}] > -1 (got {v[-1]})")]
    checks += [(v[j] > -1.5, f"s[{j + 1}] > -3/2 (got {v[j]})") for j in range(n - 1)]
    return checks


@_inf_past_range
def c1(n: int, s) -> float:
    """Normalizer of the cone Laplace transform of a plain minor power."""
    v = plain_values(s, n)
    _check(c1_range(n, s))
    logval = log_gamma(v[-1] + 1.0) + sum(log_gamma(x + 1.5) for x in v[:-1])
    if logval == math.inf:  # log-gamma outgrows the linear terms below
        return math.inf
    logval -= (2.0 * v[-1] + n + 1.0) * LOG2
    logval -= (np.sum(v) + (3.0 * n - 1.0) / 2.0) * LOGPI
    return float(np.exp(logval))


def c2_range(n: int, s) -> list:
    v = plain_values(s, n)
    checks = [(v[-1] > -(n + 1.0), f"s[{n}] > -(n+1) (got {v[-1]})")]
    checks += [(v[j] > -2.5, f"s[{j + 1}] > -5/2 (got {v[j]})") for j in range(n - 1)]
    return checks


@_inf_past_range
def c2(n: int, s) -> float:
    """Normalizer of the inverse transform (kernel identity, plain index)."""
    v = plain_values(s, n)
    _check(c2_range(n, s))
    logval = (np.sum(v) + n - 1.0) * LOG2 + (1.0 - 2.0 * n) * LOGPI
    poly = _poch_ratio(v[-1] + 1.0, n)
    for j in range(n - 1):
        poly *= v[j] + 1.5
    return float(poly * np.exp(logval))


def c3_range(n: int, s) -> list:
    v = plain_values(s, n)
    checks = [(v[-1] > -1.0, f"s[{n}] > -1 (got {v[-1]})")]
    checks += [(v[j] > -(n + 1.0) / 2.0, f"s[{j + 1}] > -(n+1)/2 (got {v[j]})")
               for j in range(n - 1)]
    return checks


@_inf_past_range
def c3(n: int, s) -> float:
    """Shifted-index analogue of c1."""
    v = plain_values(s, n)
    _check(c3_range(n, s))
    logval = log_gamma(v[-1] + 1.0) + sum(log_gamma(x + (n + 1.0) / 2.0)
                                          for x in v[:-1])
    if logval == math.inf:  # log-gamma outgrows the linear terms below
        return math.inf
    logval -= (2.0 * v[-1] + n + 1.0) * LOG2
    logval -= (np.sum(v) + (n * n + 1.0) / 2.0) * LOGPI
    return float(np.exp(logval))


def c4_range(n: int, s) -> list:
    v = plain_values(s, n)
    checks = [(v[-1] > -(n + 1.0), f"s[{n}] > -(n+1) (got {v[-1]})")]
    checks += [(v[j] > -(n + 3.0) / 2.0, f"s[{j + 1}] > -(n+3)/2 (got {v[j]})")
               for j in range(n - 1)]
    return checks


def c4(n: int, s) -> float:
    """Shifted-index analogue of c2."""
    _check(c4_range(n, s))
    return _c4_formula(n, plain_values(s, n))


@_inf_past_range
def _c4_formula(n: int, v: np.ndarray) -> float:
    """The C4 Gamma ratio without its range check; defined for every v."""
    logval = (np.sum(v) + n * (n - 1.0) / 2.0) * LOG2 + (1.0 - 2.0 * n) * LOGPI
    poly = _poch_ratio(v[-1] + 1.0, n)
    for j in range(n - 1):
        poly *= v[j] + (n + 1.0) / 2.0
    return float(poly * np.exp(logval))


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------

def c5_range(n: int, r, eta) -> list:
    rv, ev = plain_values(r, n), plain_values(eta, n)
    checks = [
        (rv[-1] > ev[-1] + (n + 1.0) / 2.0,
         f"r[{n}] > eta[{n}] + (n+1)/2 (got {rv[-1]} vs {ev[-1] + (n + 1) / 2})"),
        (ev[-1] > -1.0, f"eta[{n}] > -1 (got {ev[-1]})"),
        (rv[-1] > 0.0, f"r[{n}] > 0 (got {rv[-1]})"),
    ]
    for j in range(n - 1):
        checks += [
            (rv[j] > ev[j] + n, f"r[{j + 1}] > eta[{j + 1}] + n (got {rv[j]})"),
            (ev[j] > -(n + 1.0) / 2.0, f"eta[{j + 1}] > -(n+1)/2 (got {ev[j]})"),
            (rv[j] > (1.0 - n) / 2.0, f"r[{j + 1}] > (1-n)/2 (got {rv[j]})"),
        ]
    return checks


def c5(n: int, r, eta) -> float:
    rv, ev = plain_values(r, n), plain_values(eta, n)
    _check(c5_range(n, r, eta))
    return c4(n, ev) * c4(n, rv - ev) / c4(n, rv)


def c6_range(n: int, r) -> list:
    rv = plain_values(r, n)
    checks = [(rv[-1] > (n + 1.0) / 2.0, f"r[{n}] > (n+1)/2 (got {rv[-1]})")]
    checks += [(rv[j] > 1.5, f"r[{j + 1}] > 3/2 (got {rv[j]})") for j in range(n - 1)]
    return checks


def c6(n: int, r) -> float:
    rv = plain_values(r, n)
    _check(c6_range(n, r))
    scale = math.exp((2.0 * n - 1.0 - float(np.sum(rv))) * LOG2)
    return scale * c4(n, rv) / c4(n, rv / 2.0)


def c7_range(n: int, l, r, eta) -> list:
    lv, rv, ev = plain_values(l, n), plain_values(r, n), plain_values(eta, n)
    checks = [
        (lv[-1] > -1.0, f"l[{n}] > -1 (got {lv[-1]})"),
        (rv[-1] > 0.0, f"r[{n}] > 0 (got {rv[-1]})"),
        (ev[-1] > (n + 1.0) / 2.0, f"eta[{n}] > (n+1)/2 (got {ev[-1]})"),
        (rv[-1] + ev[-1] - lv[-1] > n + 1.0,
         f"r[{n}] + eta[{n}] - l[{n}] > n+1 (got {rv[-1] + ev[-1] - lv[-1]})"),
    ]
    for j in range(n - 1):
        checks += [
            (lv[j] > -(n + 1.0) / 2.0, f"l[{j + 1}] > -(n+1)/2 (got {lv[j]})"),
            (rv[j] > (n - 1.0) / 2.0, f"r[{j + 1}] > (n-1)/2 (got {rv[j]})"),
            (ev[j] > float(n), f"eta[{j + 1}] > n (got {ev[j]})"),
            (rv[j] + ev[j] - lv[j] > (3.0 * n + 1.0) / 2.0,
             f"r[{j + 1}] + eta[{j + 1}] - l[{j + 1}] > (3n+1)/2 "
             f"(got {rv[j] + ev[j] - lv[j]})"),
        ]
    return checks


def c7(n: int, l, r, eta) -> float:
    lv, rv, ev = plain_values(l, n), plain_values(r, n), plain_values(eta, n)
    _check(c7_range(n, l, r, eta))
    # r + l - eta may leave C4's own range inside C7's; c7_range is the gate
    return c3(n, lv) * _c4_formula(n, rv + lv - ev) / (c4(n, rv) * c4(n, ev))


def c8_range(n: int, l, r) -> list:
    lv, rv = plain_values(l, n), plain_values(r, n)
    checks = [
        (lv[-1] > -1.0, f"l[{n}] > -1 (got {lv[-1]})"),
        (rv[-1] - lv[-1] > n + 1.0,
         f"r[{n}] - l[{n}] > n+1 (got {rv[-1] - lv[-1]})"),
    ]
    for j in range(n - 1):
        checks += [
            (lv[j] > -(n + 1.0) / 2.0, f"l[{j + 1}] > -(n+1)/2 (got {lv[j]})"),
            (rv[j] - lv[j] > (3.0 * n + 1.0) / 2.0,
             f"r[{j + 1}] - l[{j + 1}] > (3n+1)/2 (got {rv[j] - lv[j]})"),
        ]
    return checks


def c8(n: int, l, r) -> float:
    # the second factor's collapsed subscript is read as the two-index
    # composite at (r, l)
    lv, rv = plain_values(l, n), plain_values(r, n)
    _check(c8_range(n, l, r))
    return c6(n, rv) * (c4(n, lv) * c4(n, rv - lv) / c4(n, rv))
